#include "hist/feeder.h"

#include <algorithm>
#include <utility>

#include "core/interfaces.h"
#include "obs/metrics.h"
#include "sorcer/exert.h"
#include "sorcer/exertion.h"

namespace sensorcer::hist {

namespace {

struct FeederMetrics {
  obs::Counter& pushed;
  obs::Counter& dropped;
  obs::Counter& failed_batches;
};

FeederMetrics& feeder_metrics() {
  static FeederMetrics m{obs::metrics().counter("hist.feeder_pushed"),
                         obs::metrics().counter("hist.feeder_dropped"),
                         obs::metrics().counter("hist.feeder_failed")};
  return m;
}

double encode_quality(sensor::Quality q) {
  switch (q) {
    case sensor::Quality::kGood: return 0.0;
    case sensor::Quality::kSuspect: return 1.0;
    case sensor::Quality::kBad: return 2.0;
  }
  return 0.0;
}

registry::ServiceTemplate historian_template() {
  return registry::ServiceTemplate::by_type(core::kDataCollectionType);
}

}  // namespace

HistorianFeeder::HistorianFeeder(std::string sensor, util::Scheduler& scheduler,
                                 sorcer::ServiceAccessor& accessor,
                                 FeederConfig config)
    : sensor_(std::move(sensor)),
      scheduler_(scheduler),
      accessor_(accessor),
      config_(config) {
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (config_.flush_period > 0) {
    flush_timer_ =
        scheduler_.schedule_every(config_.flush_period, [this] { flush(); });
  }
}

HistorianFeeder::~HistorianFeeder() {
  *alive_ = false;
  scheduler_.cancel(flush_timer_);
  if (pending_flush_timer_ != 0) scheduler_.cancel(pending_flush_timer_);
  unbind();
}

void HistorianFeeder::bind(const std::shared_ptr<registry::LookupService>& lus,
                           registry::LeaseRenewalManager& lrm) {
  unbind();
  lus_ = lus;
  lrm_ = &lrm;
  registry::EventRegistration reg = lus->notify(
      historian_template(), registry::kAllTransitions,
      [this](const registry::ServiceEvent& event) { on_transition(event); },
      config_.subscription_lease);
  subscription_id_ = reg.id;
  subscription_lease_ = reg.lease.id;
  lrm.manage(reg.lease, lus, config_.subscription_lease);
  bound_ = lus->lookup_one(historian_template()).is_ok();
  if (bound_ && !pending_.empty()) schedule_flush();
}

void HistorianFeeder::unbind() {
  if (auto lus = lus_.lock()) {
    if (lrm_ != nullptr && !subscription_lease_.is_nil()) {
      lrm_->release(subscription_lease_);
    }
    if (!subscription_id_.is_nil()) {
      (void)lus->cancel_notify(subscription_id_);
    }
  }
  lus_.reset();
  lrm_ = nullptr;
  subscription_id_ = util::Uuid{};
  subscription_lease_ = util::Uuid{};
  bound_ = false;
}

void HistorianFeeder::on_transition(const registry::ServiceEvent& event) {
  if (event.transition == registry::Transition::kNoMatchToMatch) {
    bound_ = true;
    if (!pending_.empty()) schedule_flush();
    return;
  }
  if (event.transition == registry::Transition::kMatchToNoMatch) {
    // The historian that held our pushes is gone; stay bound only if
    // another DataCollection provider remains registered.
    auto lus = lus_.lock();
    bound_ = lus != nullptr && lus->lookup_one(historian_template()).is_ok();
  }
}

void HistorianFeeder::offer(const sensor::Reading& reading) {
  pending_.push_back(reading);
  while (pending_.size() > config_.pending_cap) {
    pending_.pop_front();
    ++dropped_;
    feeder_metrics().dropped.add();
  }
  if (bound_ && pending_.size() >= config_.batch_size) schedule_flush();
}

void HistorianFeeder::backfill(const sensor::DataLog& log) {
  log.for_each(0, sensor::kEndOfTime,
               [this](const sensor::Reading& r) { offer(r); });
  if (bound_) schedule_flush();
}

void HistorianFeeder::schedule_flush() {
  if (flush_scheduled_ || flushing_) return;
  flush_scheduled_ = true;
  // Zero-delay timer: all push traffic happens inside scheduler pumps, so an
  // exert never starts from the middle of an offer().
  pending_flush_timer_ = scheduler_.schedule_after(0, [this] {
    flush_scheduled_ = false;
    pending_flush_timer_ = 0;
    flush();
  });
}

namespace {
/// Wire flushes pump the scheduler, and the pump fires OTHER feeders' flush
/// timers on this same stack — one nesting level per live feeder, and a
/// churny run mints replacement feeders (each backfill schedules a flush)
/// faster than the stack unwinds. The per-feeder flushing_ guard cannot see
/// across objects, so a thread-local depth caps the nesting; a skipped
/// feeder's readings stay pending and go out on its periodic timer (or the
/// final quiesce drain) at a shallower depth.
constexpr int kMaxNestedFlushes = 8;
thread_local int g_flush_depth = 0;

struct FlushDepthGuard {
  FlushDepthGuard() { ++g_flush_depth; }
  ~FlushDepthGuard() { --g_flush_depth; }
};
}  // namespace

std::size_t HistorianFeeder::flush() {
  if (flushing_ || !bound_ || pending_.empty()) return 0;
  if (g_flush_depth >= kMaxNestedFlushes) return 0;
  FlushDepthGuard depth_guard;
  flushing_ = true;
  // Local copy: outlives `this` if the exert below deletes the feeder.
  const std::shared_ptr<const bool> alive = alive_;
  // Snapshot the pending window: readings offered while the batch pumps the
  // fabric land behind it, and failed chunks re-queue at the front so
  // ordering survives a partial failure.
  std::vector<sensor::Reading> window(pending_.begin(), pending_.end());
  pending_.clear();

  // Marshal every max_batch chunk up front and pipeline all appendBatch
  // calls as one scatter-gather batch: K chunks cost ~one round-trip on the
  // wire, not K. The historian's timestamp dedup makes any replay of a
  // chunk whose response was lost idempotent. Columns are moved into the
  // context, where the shared wire codec (sorcer/codec.h) packs them as
  // series columns with interned batch paths — the feeder never touches
  // serialization itself.
  std::vector<sorcer::ExertionPtr> chunks;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;  // offset, count
  chunks.reserve((window.size() + config_.max_batch - 1) / config_.max_batch);
  for (std::size_t offset = 0; offset < window.size();
       offset += config_.max_batch) {
    const std::size_t n = std::min(window.size() - offset, config_.max_batch);
    std::vector<double> timestamps;
    std::vector<double> values;
    std::vector<double> qualities;
    timestamps.reserve(n);
    values.reserve(n);
    qualities.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const sensor::Reading& r = window[offset + i];
      timestamps.push_back(static_cast<double>(r.timestamp));
      values.push_back(r.value);
      qualities.push_back(encode_quality(r.quality));
    }
    auto task = sorcer::Task::make(
        "hist-append:" + sensor_,
        {core::kDataCollectionType, core::op::kAppendBatch, ""});
    sorcer::ServiceContext& ctx = task->context();
    ctx.reserve(7);  // 4 inputs + the historian's 3 outputs, one allocation
    ctx.put(core::path::kHistSensor, sensor_, sorcer::PathDirection::kIn);
    ctx.put(core::path::kHistTimestamps, std::move(timestamps),
            sorcer::PathDirection::kIn);
    ctx.put(core::path::kHistValues, std::move(values),
            sorcer::PathDirection::kIn);
    ctx.put(core::path::kHistQualities, std::move(qualities),
            sorcer::PathDirection::kIn);
    chunks.push_back(std::move(task));
    ranges.emplace_back(offset, n);
  }
  (void)sorcer::exert_all(chunks, accessor_);

  std::size_t total = 0;
  std::vector<sensor::Reading> requeue;
  if (!*alive) {
    // The pump above destroyed this feeder (its provider was fenced or
    // undeployed mid-flight). `this` is gone; the un-acked window goes with
    // it — the replacement provider's backfill() replays the survivors.
    return 0;
  }
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto [offset, n] = ranges[i];
    if (chunks[i]->status() == sorcer::ExertStatus::kDone) {
      pushed_ += n;
      total += n;
      feeder_metrics().pushed.add(n);
    } else {
      ++failed_;
      feeder_metrics().failed_batches.add();
      requeue.insert(requeue.end(), window.begin() + static_cast<std::ptrdiff_t>(offset),
                     window.begin() + static_cast<std::ptrdiff_t>(offset + n));
    }
  }
  if (!requeue.empty()) {
    pending_.insert(pending_.begin(), requeue.begin(), requeue.end());
  }
  flushing_ = false;
  return total;
}

}  // namespace sensorcer::hist
