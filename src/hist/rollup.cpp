#include "hist/rollup.h"

#include <algorithm>

namespace sensorcer::hist {

void RollupBucket::add(util::SimTime ts, double value) {
  if (count == 0) {
    min = max = value;
    last = value;
    last_ts = ts;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
    if (ts >= last_ts) {
      last = value;
      last_ts = ts;
    }
  }
  sum += value;
  ++count;
}

void RollupBucket::merge(const RollupBucket& other) {
  if (other.empty()) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
    last = other.last;
    last_ts = other.last_ts;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    if (other.last_ts >= last_ts) {
      last = other.last;
      last_ts = other.last_ts;
    }
  }
  sum += other.sum;
  count += other.count;
}

void AggregateStats::add_sample(util::SimTime ts, double value) {
  if (count == 0) {
    min = max = value;
    last = value;
    last_ts = ts;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
    if (ts >= last_ts) {
      last = value;
      last_ts = ts;
    }
  }
  sum += value;
  ++count;
}

void AggregateStats::add_bucket(const RollupBucket& bucket) {
  if (bucket.empty()) return;
  if (count == 0) {
    min = bucket.min;
    max = bucket.max;
    last = bucket.last;
    last_ts = bucket.last_ts;
  } else {
    min = std::min(min, bucket.min);
    max = std::max(max, bucket.max);
    if (bucket.last_ts >= last_ts) {
      last = bucket.last;
      last_ts = bucket.last_ts;
    }
  }
  sum += bucket.sum;
  count += bucket.count;
}

}  // namespace sensorcer::hist
