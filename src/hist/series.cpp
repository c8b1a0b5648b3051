#include "hist/series.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/sim_time.h"

namespace sensorcer::hist {

namespace {

util::SimTime align_to(util::SimTime t, util::SimDuration res) {
  return (t / res) * res;
}

util::SimTime align_up_to(util::SimTime t, util::SimDuration res) {
  // Overflow-safe: callers pass kEndOfTime (INT64_MAX) for "everything".
  if (t > std::numeric_limits<util::SimTime>::max() - res) return t;
  return ((t + res - 1) / res) * res;
}

/// Visit, oldest first, the buckets of time-ordered tier blocks whose start
/// lies in [align(from), align_up(to)) at `res`. Blocks wholly before the
/// window are skipped and the walk stops at the first block past it.
template <typename Fn>
void for_each_tier_bucket(
    const std::vector<std::shared_ptr<const TierBlock>>& tiers,
    util::SimDuration res, util::SimTime from, util::SimTime to, Fn&& fn) {
  const util::SimTime lo = align_to(from, res);
  const util::SimTime hi = align_up_to(to, res);
  for (const auto& tier : tiers) {
    const std::vector<RollupBucket>& buckets = tier->buckets;
    if (buckets.empty() || buckets.back().start < lo) continue;
    if (buckets.front().start >= hi) break;
    auto it = std::lower_bound(
        buckets.begin(), buckets.end(), lo,
        [](const RollupBucket& b, util::SimTime t) { return b.start < t; });
    for (; it != buckets.end() && it->start < hi; ++it) fn(*it);
  }
}

}  // namespace

SensorSeries::SensorSeries(const SeriesConfig& config) : config_(config) {
  if (config_.raw_capacity == 0) config_.raw_capacity = 1;
  config_.block_readings =
      std::clamp<std::size_t>(config_.block_readings, 1, config_.raw_capacity);
  if (config_.mid_resolution <= 0) config_.mid_resolution = util::kSecond;
  config_.cold_resolution =
      std::max(config_.cold_resolution, config_.mid_resolution);

  active_ = sensor::DataLog(config_.block_readings);
  chain_ = std::make_shared<const Chain>();
}

SensorSeries::Append SensorSeries::append(const sensor::Reading& reading) {
  std::lock_guard<std::mutex> lock(hot_mu_);
  if (reading.timestamp <= last_ts_) return Append::kDuplicate;
  last_ts_ = reading.timestamp;
  active_.append(reading);
  ++appended_;

  const std::uint64_t demoted_before = raw_evicted_;
  if (active_.size() >= config_.block_readings) {
    seal_active_locked();
  } else if ((config_.raw_horizon > 0 || config_.mid_horizon > 0 ||
              config_.cold_horizon > 0) &&
             !(chain_->sealed.empty() && chain_->mid.empty() &&
               chain_->cold.empty())) {
    Chain next = *chain_;
    if (demote_locked(next)) publish_locked(std::move(next));
  }
  return raw_evicted_ > demoted_before ? Append::kAcceptedEvicted
                                       : Append::kAccepted;
}

void SensorSeries::seal_active_locked() {
  const std::vector<sensor::Reading> readings = active_.snapshot();
  active_.clear();
  auto block = SealedBlock::seal(readings);
  if (!block) return;
  Chain next = *chain_;
  // The summary comes from the readings in hand, not from a decode.
  const std::size_t first_bucket = next.summary.size();
  for (const sensor::Reading& r : readings) {
    if (r.quality == sensor::Quality::kBad) continue;
    const util::SimTime start = align_to(r.timestamp, config_.cold_resolution);
    if (next.summary.size() == first_bucket ||
        next.summary.back().start != start) {
      next.summary.push_back({start, 0, 0.0});
    }
    ++next.summary.back().count;
    next.summary.back().sum += r.value;
  }
  const std::size_t buckets = next.summary.size() - first_bucket;
  next.summary_sizes.push_back(static_cast<std::uint32_t>(buckets));
  next.sealed.push_back(block);
  next.sealed_readings += block->count();
  next.sealed_bytes += block->bytes() + buckets * sizeof(SummaryBucket);
  ++blocks_sealed_;
  (void)demote_locked(next);
  publish_locked(std::move(next));
}

std::size_t SensorSeries::pop_sealed_front(Chain& chain) {
  const SealedBlock& block = *chain.sealed.front();
  const std::uint32_t buckets = chain.summary_sizes.front();
  const std::size_t freed = block.bytes() + buckets * sizeof(SummaryBucket);
  chain.sealed_readings -= block.count();
  chain.sealed_bytes -= freed;
  chain.summary.erase(chain.summary.begin(), chain.summary.begin() + buckets);
  chain.summary_sizes.erase(chain.summary_sizes.begin());
  chain.sealed.erase(chain.sealed.begin());
  return freed;
}

bool SensorSeries::demote_locked(Chain& chain) {
  bool changed = false;

  const auto demote_raw_front = [&] {
    std::shared_ptr<const SealedBlock> block = chain.sealed.front();
    (void)pop_sealed_front(chain);
    auto tier = TierBlock::from_sealed(*block, config_.mid_resolution);
    chain.tier_bytes += tier->bytes();
    chain.mid_buckets += tier->buckets.size();
    chain.mid.push_back(std::move(tier));
    raw_evicted_ += block->count();
    ++blocks_demoted_;
    changed = true;
  };
  const auto demote_mid_front = [&] {
    std::shared_ptr<const TierBlock> tier = chain.mid.front();
    chain.mid.erase(chain.mid.begin());
    chain.tier_bytes -= tier->bytes();
    chain.mid_buckets -= tier->buckets.size();
    auto cold = TierBlock::rebucket(*tier, config_.cold_resolution);
    chain.tier_bytes += cold->bytes();
    chain.cold_buckets += cold->buckets.size();
    chain.cold.push_back(std::move(cold));
    changed = true;
  };
  const auto drop_cold_front = [&] {
    std::shared_ptr<const TierBlock> tier = chain.cold.front();
    chain.cold.erase(chain.cold.begin());
    chain.tier_bytes -= tier->bytes();
    chain.cold_buckets -= tier->buckets.size();
    tier_evicted_ += tier->readings + tier->bad_dropped;
    changed = true;
  };

  while (chain.sealed_readings + active_.size() > config_.raw_capacity &&
         !chain.sealed.empty()) {
    demote_raw_front();
  }
  if (config_.raw_horizon > 0) {
    while (!chain.sealed.empty() &&
           chain.sealed.front()->last_ts() < last_ts_ - config_.raw_horizon) {
      demote_raw_front();
    }
  }
  while (chain.mid_buckets > config_.mid_max_buckets && !chain.mid.empty()) {
    demote_mid_front();
  }
  if (config_.mid_horizon > 0) {
    while (!chain.mid.empty() &&
           chain.mid.front()->last_ts < last_ts_ - config_.mid_horizon) {
      demote_mid_front();
    }
  }
  while (chain.cold_buckets > config_.cold_max_buckets &&
         !chain.cold.empty()) {
    drop_cold_front();
  }
  if (config_.cold_horizon > 0) {
    while (!chain.cold.empty() &&
           chain.cold.front()->last_ts < last_ts_ - config_.cold_horizon) {
      drop_cold_front();
    }
  }
  return changed;
}

void SensorSeries::publish_locked(Chain&& chain) {
  chain_ = std::make_shared<const Chain>(std::move(chain));
}

std::size_t SensorSeries::shed_coldest() {
  std::lock_guard<std::mutex> lock(hot_mu_);
  // Byte-pressure eviction ladder: coldest, already-aggregated storage goes
  // first; compressed raw blocks last; the hot active block never (the
  // store evicts the whole series at that point).
  Chain next = *chain_;
  std::size_t freed = 0;
  if (!next.cold.empty()) {
    const auto& tier = next.cold.front();
    freed = tier->bytes();
    next.tier_bytes -= freed;
    next.cold_buckets -= tier->buckets.size();
    tier_evicted_ += tier->readings + tier->bad_dropped;
    next.cold.erase(next.cold.begin());
  } else if (!next.mid.empty()) {
    const auto& tier = next.mid.front();
    freed = tier->bytes();
    next.tier_bytes -= freed;
    next.mid_buckets -= tier->buckets.size();
    tier_evicted_ += tier->readings + tier->bad_dropped;
    next.mid.erase(next.mid.begin());
  } else if (!next.sealed.empty()) {
    const std::uint32_t count = next.sealed.front()->count();
    freed = pop_sealed_front(next);
    raw_evicted_ += count;
    tier_evicted_ += count;
  } else {
    return 0;
  }
  publish_locked(std::move(next));
  return freed;
}

SensorSeries::ReadView SensorSeries::read_view_locked(util::SimTime from,
                                                      util::SimTime to) const {
  ReadView view;
  view.chain = chain_;
  if (active_.empty()) return view;
  view.active_first_ts = active_.oldest().timestamp;
  if (from < to) view.active = active_.window(from, to);
  return view;
}

util::SimTime SensorSeries::raw_from_of(const ReadView& view) {
  if (!view.chain->sealed.empty()) {
    return view.chain->sealed.front()->first_ts();
  }
  return view.active_first_ts;
}

StatsResult SensorSeries::stats(util::SimTime from, util::SimTime to,
                                util::SimDuration max_resolution) const {
  StatsResult out;
  out.source = "raw";
  if (to <= from) {
    out.from_effective = from;
    out.to_effective = to;
    return out;
  }
  std::unique_lock<std::mutex> lock(hot_mu_);
  const ReadView view = read_view_locked(from, to);
  lock.unlock();
  const Chain& chain = *view.chain;
  const util::SimTime raw_from = raw_from_of(view);

  AggregateStats agg;
  const auto add_good = [&agg](const sensor::Reading& r) {
    if (r.quality != sensor::Quality::kBad) {
      agg.add_sample(r.timestamp, r.value);
    }
  };
  const auto add_raw = [&] {
    for (const auto& block : chain.sealed) {
      if (block->last_ts() < from) continue;
      if (block->first_ts() >= to) break;
      if (block->first_ts() >= from && block->last_ts() < to) {
        // Fully covered: fold the footer, no decode.
        block->add_footer_stats(agg);
      } else {
        block->for_each(from, to, add_good);
      }
    }
    for (const sensor::Reading& r : view.active) add_good(r);
  };

  // A tier contributes only when the caller tolerates its bucket width and
  // the window actually reaches past the raw tier.
  const bool cold_usable =
      !chain.cold.empty() && max_resolution >= config_.cold_resolution;
  const bool mid_usable =
      !chain.mid.empty() && max_resolution >= config_.mid_resolution;
  const bool use_tiers =
      (cold_usable || mid_usable) && (raw_from < 0 || from < raw_from);
  if (!use_tiers) {
    add_raw();
    out.stats = agg;
    out.from_effective = raw_from < 0 ? from : std::max(from, raw_from);
    out.to_effective = to;
    return out;
  }

  const util::SimDuration res_used =
      cold_usable ? config_.cold_resolution : config_.mid_resolution;
  util::SimTime oldest_covered = raw_from;
  const auto add_bucket = [&agg](const RollupBucket& b) { agg.add_bucket(b); };
  if (cold_usable) {
    oldest_covered = chain.cold.front()->first_ts;
    for_each_tier_bucket(chain.cold, config_.cold_resolution, from, to,
                         add_bucket);
  }
  if (mid_usable) {
    if (!cold_usable) oldest_covered = chain.mid.front()->first_ts;
    for_each_tier_bucket(chain.mid, config_.mid_resolution, from, to,
                         add_bucket);
  }
  add_raw();

  out.stats = agg;
  out.source = "tiered";
  out.resolution = res_used;
  out.from_effective =
      std::max(align_to(from, res_used),
               oldest_covered < 0 ? from : oldest_covered);
  out.to_effective = to;
  return out;
}

SeriesResult SensorSeries::range(util::SimTime from, util::SimTime to,
                                 std::size_t max_points) const {
  SeriesResult out;
  out.source = "raw";
  std::unique_lock<std::mutex> lock(hot_mu_);
  const ReadView view = read_view_locked(from, to);
  lock.unlock();

  const auto take = [&](const sensor::Reading& r) {
    if (out.points.size() < max_points) {
      out.points.push_back({r.timestamp, r.value});
    } else {
      out.truncated = true;
    }
  };
  for (const auto& block : view.chain->sealed) {
    if (block->last_ts() < from) continue;
    if (block->first_ts() >= to || out.truncated) break;
    block->for_each(from, to, take);
  }
  if (!out.truncated) {
    for (const sensor::Reading& r : view.active) take(r);
  }
  return out;
}

SeriesResult SensorSeries::downsample(util::SimTime from, util::SimTime to,
                                      std::size_t target_points) const {
  SeriesResult out;
  out.source = "raw";
  if (to <= from || target_points == 0) return out;
  const util::SimDuration width = std::max<util::SimDuration>(
      1, (to - from) / static_cast<util::SimDuration>(target_points));
  std::vector<SummaryBucket> bins(target_points);
  // Buckets and readings land in the bin holding their start/timestamp.
  const auto fold = [&](util::SimTime ts, std::uint64_t count, double sum) {
    auto idx = ts <= from ? 0
                          : static_cast<std::size_t>((ts - from) / width);
    if (idx >= bins.size()) idx = bins.size() - 1;
    SummaryBucket& bin = bins[idx];
    bin.start = from + static_cast<util::SimDuration>(idx) * width;
    bin.count += count;
    bin.sum += sum;
  };

  std::unique_lock<std::mutex> lock(hot_mu_);
  const ReadView view = read_view_locked(from, to);
  lock.unlock();
  const Chain& chain = *view.chain;
  const util::SimTime raw_from = raw_from_of(view);
  const bool cold_usable =
      !chain.cold.empty() && width >= config_.cold_resolution;
  const bool mid_usable =
      !chain.mid.empty() && width >= config_.mid_resolution;
  const bool use_tiers =
      (cold_usable || mid_usable) && (raw_from < 0 || from < raw_from);
  const auto fold_bucket = [&](const RollupBucket& b) {
    fold(b.start, b.count, b.sum);
  };
  if (use_tiers) {
    out.source = "tiered";
    if (cold_usable) {
      for_each_tier_bucket(chain.cold, config_.cold_resolution, from, to,
                           fold_bucket);
    }
    if (mid_usable) {
      for_each_tier_bucket(chain.mid, config_.mid_resolution, from, to,
                           fold_bucket);
    }
  }

  const auto add = [&](const sensor::Reading& r) {
    if (r.quality != sensor::Quality::kBad) fold(r.timestamp, 1, r.value);
  };
  // Sealed blocks are time-ordered: [first, last) overlap the window and
  // only the two ends can stick out of it. Once points are at least
  // cold_resolution apart, the fully covered blocks in between fold their
  // summaries (one contiguous run of chain.summary); the rest decode.
  const auto& sealed = chain.sealed;
  const auto first = static_cast<std::size_t>(
      std::partition_point(sealed.begin(), sealed.end(),
                           [&](const auto& b) { return b->last_ts() < from; }) -
      sealed.begin());
  const auto last = static_cast<std::size_t>(
      std::partition_point(sealed.begin() + first, sealed.end(),
                           [&](const auto& b) { return b->first_ts() < to; }) -
      sealed.begin());
  std::size_t full_first = last;  // [full_first, full_last): summarized
  std::size_t full_last = last;
  std::size_t summary_begin = 0;
  std::size_t summary_end = 0;
  if (width >= config_.cold_resolution && first < last) {
    full_first = sealed[first]->first_ts() < from ? first + 1 : first;
    full_last = std::max(full_first,
                         sealed[last - 1]->last_ts() < to ? last : last - 1);
    const auto sizes = chain.summary_sizes.begin();
    summary_begin = std::accumulate(sizes, sizes + full_first, std::size_t{0});
    summary_end =
        std::accumulate(sizes + full_first, sizes + full_last, summary_begin);
  }
  for (std::size_t i = first; i < full_first; ++i) {
    sealed[i]->for_each(from, to, add);
  }
  for (std::size_t b = summary_begin; b < summary_end; ++b) {
    fold(chain.summary[b].start, chain.summary[b].count, chain.summary[b].sum);
  }
  for (std::size_t i = full_last; i < last; ++i) {
    sealed[i]->for_each(from, to, add);
  }
  for (const sensor::Reading& r : view.active) add(r);
  if (full_first < full_last && !use_tiers) {
    out.source = "rollup:" + util::format_duration(config_.cold_resolution);
  }
  for (const SummaryBucket& b : bins) {
    if (b.count > 0) {
      out.points.push_back({b.start, b.sum / static_cast<double>(b.count)});
    }
  }
  return out;
}

util::SimTime SensorSeries::last_timestamp() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  return last_ts_;
}

std::uint64_t SensorSeries::appended() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  return appended_;
}

std::uint64_t SensorSeries::raw_evicted() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  return raw_evicted_;
}

std::uint64_t SensorSeries::tier_evicted() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  return tier_evicted_;
}

SensorSeries::Footprint SensorSeries::footprint_locked() const {
  Footprint fp;
  fp.active_bytes = active_.capacity() * sizeof(sensor::Reading);
  fp.sealed_bytes = chain_->sealed_bytes;
  fp.tier_bytes = chain_->tier_bytes;
  return fp;
}

std::size_t SensorSeries::bytes() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  return footprint_locked().total();
}

SensorSeries::Footprint SensorSeries::footprint() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  return footprint_locked();
}

SensorSeries::Retention SensorSeries::retention_of(const ReadView& view) const {
  Retention ret;
  ret.raw_from = raw_from_of(view);
  const Chain& chain = *view.chain;
  if (!chain.cold.empty()) {
    ret.tier_from = chain.cold.front()->first_ts;
  } else if (!chain.mid.empty()) {
    ret.tier_from = chain.mid.front()->first_ts;
  } else {
    ret.tier_from = ret.raw_from;
  }
  return ret;
}

SensorSeries::Retention SensorSeries::retention() const {
  std::unique_lock<std::mutex> lock(hot_mu_);
  const ReadView view = read_view_locked(0, 0);
  lock.unlock();
  return retention_of(view);
}

SensorSeries::Counters SensorSeries::counters() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  Counters c;
  c.appended = appended_;
  c.raw_evicted = raw_evicted_;
  c.tier_evicted = tier_evicted_;
  c.blocks_sealed = blocks_sealed_;
  c.blocks_demoted = blocks_demoted_;
  c.sealed_readings = chain_->sealed_readings;
  c.sealed_blocks = chain_->sealed.size();
  c.tier_blocks = chain_->mid.size() + chain_->cold.size();
  c.footprint = footprint_locked();
  return c;
}

}  // namespace sensorcer::hist
