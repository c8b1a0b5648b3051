#pragma once
// Aggregate types of the historian (src/hist/).
//
// A RollupBucket holds streaming aggregates (count/min/max/sum/last) of the
// readings in one time-aligned bucket [start, start + resolution); the mid
// and cold tiers store demoted history as runs of them (hist/block.h).
// AggregateStats is the mergeable result a stats query folds readings,
// sealed-block footers and tier buckets into.

#include <cstdint>

#include "util/sim_time.h"

namespace sensorcer::hist {

/// One time-aligned aggregate bucket: [start, start + resolution).
struct RollupBucket {
  util::SimTime start = 0;
  std::uint32_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double last = 0.0;
  util::SimTime last_ts = 0;

  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  void add(util::SimTime ts, double value);

  /// Fold another bucket's aggregates in (1s -> 60s tier re-bucketing).
  void merge(const RollupBucket& other);
};

/// Mergeable aggregate over samples and/or buckets (unlike
/// util::StatAccumulator, which cannot merge pre-aggregated partials).
struct AggregateStats {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double last = 0.0;
  util::SimTime last_ts = 0;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  void add_sample(util::SimTime ts, double value);
  void add_bucket(const RollupBucket& bucket);
};

}  // namespace sensorcer::hist
