#pragma once
// HistorianFeeder — the ESP-side push half of the historian protocol.
//
// Each sampling provider owns one feeder. Sampled readings are offered to
// it; the feeder batches them and exerts appendBatch tasks at the historian
// through the deployment's invocation pipeline (so every push really
// crosses the fabric, marshalled and byte-accounted).
//
// The binding to the historian is event-driven and lease-bound: the feeder
// registers a leased notify() subscription on the lookup service for
// DataCollection transitions. When the historian's registration disappears
// (crash — its lease lapses; or clean leave) the feeder unbinds and stops
// pushing, buffering new readings up to a cap; when a historian (re)appears
// it rebinds and drains the buffer. After an ESP failover the replacement
// provider calls backfill() with the surviving DataLog — the historian's
// timestamp dedup makes the replay idempotent, so recovery leaves no gaps
// and no double-counted readings.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "registry/lease_renewal.h"
#include "registry/lookup.h"
#include "sensor/data_log.h"
#include "sensor/reading.h"
#include "sorcer/accessor.h"
#include "util/scheduler.h"
#include "util/sim_time.h"

namespace sensorcer::hist {

struct FeederConfig {
  /// Exert a batch as soon as this many readings are pending.
  std::size_t batch_size = 32;
  /// Periodic flush of partial batches; 0 disables the timer.
  util::SimDuration flush_period = 5 * util::kSecond;
  /// Pending-buffer cap while unbound (oldest readings are dropped past it).
  std::size_t pending_cap = 4096;
  /// Max readings marshalled into one appendBatch task.
  std::size_t max_batch = 256;
  /// Lease duration of the notify() subscription.
  util::SimDuration subscription_lease = 30 * util::kSecond;
};

class HistorianFeeder {
 public:
  /// `sensor` names the series pushed by this feeder (the provider name).
  HistorianFeeder(std::string sensor, util::Scheduler& scheduler,
                  sorcer::ServiceAccessor& accessor, FeederConfig config = {});

  ~HistorianFeeder();

  HistorianFeeder(const HistorianFeeder&) = delete;
  HistorianFeeder& operator=(const HistorianFeeder&) = delete;

  /// Subscribe to DataCollection transitions on `lus`, managing the event
  /// lease through `lrm`. Binds immediately when a historian is already
  /// registered.
  void bind(const std::shared_ptr<registry::LookupService>& lus,
            registry::LeaseRenewalManager& lrm);

  /// Drop the subscription and stop pushing.
  void unbind();

  /// Enqueue one reading. Never pushes synchronously: a full batch is
  /// flushed on a zero-delay timer so all fabric traffic happens inside
  /// scheduler pumps.
  void offer(const sensor::Reading& reading);

  /// Enqueue every retained reading of `log` and flush — failover recovery.
  /// Safe to replay readings the historian already holds (server dedup).
  void backfill(const sensor::DataLog& log);

  /// Push pending readings now (also the timer body): all max_batch chunks
  /// go out as one pipelined scatter-gather batch (overlapped round-trips
  /// on the fabric); failed chunks re-queue at the front of the
  /// pending window. Returns readings successfully pushed in this call.
  std::size_t flush();

  [[nodiscard]] bool bound() const { return bound_; }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t pushed() const { return pushed_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t failed_batches() const { return failed_; }
  [[nodiscard]] const std::string& sensor() const { return sensor_; }

 private:
  void on_transition(const registry::ServiceEvent& event);
  void schedule_flush();

  std::string sensor_;
  util::Scheduler& scheduler_;
  sorcer::ServiceAccessor& accessor_;
  FeederConfig config_;

  std::deque<sensor::Reading> pending_;
  bool bound_ = false;
  bool flushing_ = false;        // re-entrancy guard: wire pushes pump the scheduler
  bool flush_scheduled_ = false;
  util::TimerId flush_timer_ = 0;
  util::TimerId pending_flush_timer_ = 0;

  std::weak_ptr<registry::LookupService> lus_;
  registry::LeaseRenewalManager* lrm_ = nullptr;
  util::Uuid subscription_id_{};
  util::Uuid subscription_lease_{};

  std::uint64_t pushed_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t failed_ = 0;

  /// Liveness token for flush(): exerting a batch pumps the scheduler, and a
  /// nested event (the provision monitor fencing this feeder's provider) can
  /// destroy the whole provider — feeder included — under the in-flight
  /// flush. The on-stack frame re-checks the token before touching members.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sensorcer::hist
