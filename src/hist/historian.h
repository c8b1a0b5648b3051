#pragma once
// Historian — the federated sensor-data historian provider (PR 4 tentpole).
//
// A ServiceProvider exporting the "DataCollection" interface. ESPs push
// reading batches at it through the PR 3 invocation pipeline (appendBatch);
// requestors query ranges, aggregates and downsampled series through the
// same pipeline (histStats / histRange / histDownsample), typically via
// SensorcerFacade. Storage is a HistorianStore: per-sensor sharded segments
// of an active block + compressed sealed chain + demoted tiers. Each sealed
// block carries a footer and a 60 s summary, so wide aggregates and
// downsamples fold those instead of decoding readings.
//
// Query ops are dispatched onto the read-side executor (read_executor.h):
// the op thread submits the store scan and blocks on the future, so heavy
// decode work runs on executor workers — never under the provider's
// invocation lock contended by ingest — and overflow sheds back inline.
// histDownsample answers a whole dashboard page (a list of sensors) in one
// call: every series scan is submitted before any is waited on, and the
// reply is one concatenated column pair split by per-series counts.

#include <future>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "hist/read_executor.h"
#include "hist/store.h"
#include "sensor/reading.h"
#include "sorcer/provider.h"
#include "util/sim_time.h"

namespace sensorcer::hist {

/// Modeled execution costs of the historian's operations.
struct HistorianCosts {
  /// Fixed per-call dispatch cost of every operation.
  util::SimDuration base = 200 * util::kMicrosecond;
  /// Per-reading ingest cost charged on top of `base` for appendBatch —
  /// batching n readings costs base + n*per_reading, vs n*(base+...) for
  /// single-reading pushes.
  util::SimDuration per_reading = 2 * util::kMicrosecond;
  /// Per-result-point cost charged to range/downsample responses. A
  /// downsample page is charged for its longest series only: its scans
  /// run side by side, as the per-sensor calls it replaced did.
  util::SimDuration per_point = 1 * util::kMicrosecond;
};

/// Fill a histDownsample reply with `page`: the series' points concatenated
/// into the timestamps/values columns, their lengths in hist/counts and
/// series i's source at hist/sources/<i>.
void put_series_page(sorcer::ServiceContext& ctx,
                     const std::vector<SeriesResult>& page);

/// Split a histDownsample reply back into its `n` series, positionally. A
/// reply whose counts do not split its columns into exactly `n` series
/// (wrong length, negative or fractional counts, a sum past or short of the
/// columns) fails every entry.
std::vector<util::Result<SeriesResult>> parse_series_page(
    const sorcer::ServiceContext& ctx, std::size_t n);

class Historian final : public sorcer::ServiceProvider {
 public:
  explicit Historian(std::string name, HistorianConfig config = {},
                     HistorianCosts costs = {});

  [[nodiscard]] HistorianStore& store() { return store_; }
  [[nodiscard]] const HistorianStore& store() const { return store_; }

  /// The read-side executor; nullptr when config.read_threads == 0
  /// (queries then run inline on the op thread).
  [[nodiscard]] ReadExecutor* read_executor() { return read_exec_.get(); }

  /// Decode an appendBatch context's parallel arrays back into readings
  /// (exposed for tests; the inverse of HistorianFeeder's marshalling).
  static std::vector<sensor::Reading> decode_batch(
      const std::vector<double>& timestamps, const std::vector<double>& values,
      const std::vector<double>& qualities);

 protected:
  /// Ingest/query costs scale with the work the last operation did.
  util::SimDuration extra_invocation_latency(
      const std::string& selector) const override;

 private:
  void install_operations();

  /// Run store scans fn(0) .. fn(count - 1) on the read executor and wait
  /// for their results, in index order. All are submitted before any is
  /// waited on, so a page's scans run in parallel. The closures touch only
  /// the (internally synchronized) store — never the context or the
  /// provider lock — so blocking here cannot deadlock.
  template <typename F>
  auto serve_reads(std::size_t count, F&& fn)
      -> std::vector<std::invoke_result_t<F&, std::size_t>> {
    using R = std::invoke_result_t<F&, std::size_t>;
    std::vector<R> out;
    out.reserve(count);
    if (read_exec_ == nullptr) {
      for (std::size_t i = 0; i < count; ++i) out.push_back(fn(i));
      return out;
    }
    std::vector<std::future<R>> pending;
    pending.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      pending.push_back(read_exec_->submit([&fn, i] { return fn(i); }));
    }
    // Every worker is done with `fn` before get() can rethrow and unwind.
    for (auto& result : pending) result.wait();
    for (auto& result : pending) out.push_back(result.get());
    return out;
  }

  /// serve_reads for one scan.
  template <typename F>
  auto serve_read(F&& fn) -> std::invoke_result_t<F&> {
    return std::move(serve_reads(1, [&fn](std::size_t) { return fn(); })[0]);
  }

  HistorianStore store_;
  /// Declared after store_, so it joins its workers before store_ dies.
  std::unique_ptr<ReadExecutor> read_exec_;
  HistorianCosts costs_;
  /// Work-proportional latency of the operation just executed; read by
  /// extra_invocation_latency under the provider's invocation lock.
  util::SimDuration pending_extra_ = 0;
};

}  // namespace sensorcer::hist
