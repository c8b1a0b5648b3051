// Tests for the federated sensor-data historian (src/hist/): stats and
// downsample answers against brute force over randomized readings (sealed
// footers, block summaries and demoted tiers), retention and eviction
// accounting, wire-mode ingestion with byte accounting, feeder bind/unbind
// on historian transitions, and the failover backfill leaving no gaps in
// recorded history.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "core/deployment.h"
#include "hist/historian.h"
#include "hist/read_executor.h"
#include "hist/rollup.h"
#include "hist/series.h"
#include "hist/store.h"
#include "obs/metrics.h"
#include "sorcer/codec.h"
#include "util/rng.h"

namespace sensorcer::hist {
namespace {

using sensor::Quality;
using sensor::Reading;
using util::kSecond;

Reading make_reading(util::SimTime t, double v, Quality q = Quality::kGood) {
  return Reading{t, v, q, 0};
}

std::uint64_t counter(const std::string& name) {
  return obs::metrics().counter(name).value();
}

// --- SensorSeries ---------------------------------------------------------------------------

SeriesConfig wide_config() {
  // A raw tier wide enough to retain the whole randomized test span.
  SeriesConfig config;
  config.raw_capacity = 4096;
  return config;
}

TEST(SensorSeries, RandomizedStatsMatchBruteForceOnEveryPath) {
  util::Rng rng(99);
  SensorSeries series(wide_config());
  std::vector<Reading> all;
  util::SimTime t = 0;
  for (int i = 0; i < 2500; ++i) {
    t += rng.between(1000, 2 * 1000 * 1000);  // 1ms..2s
    const double v = rng.next_double() * 50.0;
    const Quality q = rng.next_double() < 0.1 ? Quality::kBad : Quality::kGood;
    const auto outcome = series.append(make_reading(t, v, q));
    ASSERT_NE(outcome, SensorSeries::Append::kDuplicate);
    all.push_back(make_reading(t, v, q));
  }
  ASSERT_EQ(series.raw_evicted(), 0u) << "test span must fit in the raw ring";

  for (util::SimDuration max_res :
       {util::SimDuration{0}, 1 * kSecond, 10 * kSecond, 60 * kSecond}) {
    for (int trial = 0; trial < 30; ++trial) {
      const util::SimTime from = rng.between(0, t);
      const util::SimTime to = from + rng.between(0, t - from);
      const auto got = series.stats(from, to, max_res);
      // Brute force over the effective window the series reports, skipping
      // kBad readings (excluded from aggregates on every path).
      AggregateStats want;
      for (const auto& r : all) {
        if (r.quality != Quality::kBad && r.timestamp >= got.from_effective &&
            r.timestamp < got.to_effective) {
          want.add_sample(r.timestamp, r.value);
        }
      }
      ASSERT_EQ(got.stats.count, want.count)
          << "max_res=" << max_res << " trial=" << trial;
      if (want.count > 0) {
        EXPECT_DOUBLE_EQ(got.stats.min, want.min);
        EXPECT_DOUBLE_EQ(got.stats.max, want.max);
        EXPECT_NEAR(got.stats.sum, want.sum, 1e-6 * std::abs(want.sum) + 1e-9);
        EXPECT_DOUBLE_EQ(got.stats.last, want.last);
      }
      EXPECT_EQ(got.source, "raw");
    }
  }
}

TEST(SensorSeries, DedupsReplayedTimestamps) {
  SensorSeries series;
  EXPECT_EQ(series.append(make_reading(10, 1.0)), SensorSeries::Append::kAccepted);
  EXPECT_EQ(series.append(make_reading(20, 2.0)), SensorSeries::Append::kAccepted);
  EXPECT_EQ(series.append(make_reading(20, 9.0)), SensorSeries::Append::kDuplicate);
  EXPECT_EQ(series.append(make_reading(15, 9.0)), SensorSeries::Append::kDuplicate);
  EXPECT_EQ(series.raw().size(), 2u);
  EXPECT_EQ(series.last_timestamp(), 20);
  const auto stats = series.stats(0, 100, 0);
  EXPECT_EQ(stats.stats.count, 2u);
  EXPECT_DOUBLE_EQ(stats.stats.sum, 3.0);
}

TEST(SensorSeries, DownsampleCapsPoints) {
  SensorSeries series(wide_config());
  for (util::SimTime s = 0; s < 3600; ++s) {
    series.append(make_reading(s * kSecond, static_cast<double>(s)));
  }
  for (std::size_t target : {1u, 7u, 64u, 500u}) {
    const auto result = series.downsample(0, 3600 * kSecond, target);
    EXPECT_LE(result.points.size(), target) << "target=" << target;
    EXPECT_GT(result.points.size(), 0u);
    // Points come back oldest first.
    for (std::size_t i = 1; i < result.points.size(); ++i) {
      EXPECT_LT(result.points[i - 1].timestamp, result.points[i].timestamp);
    }
  }
  // Range queries report truncation when readings exceed max_points.
  const auto range = series.range(0, 3600 * kSecond, 10);
  EXPECT_EQ(range.points.size(), 10u);
  EXPECT_TRUE(range.truncated);
  EXPECT_EQ(range.source, "raw");
}

// --- sealed chain / tiering (PR 10) ---------------------------------------------------------

TEST(SensorSeries, SealedChainQueriesMatchUncompressedOracle) {
  // Small blocks force a long sealed chain; the raw tier keeps everything,
  // so every query must be value-identical to brute force over the
  // uncompressed readings.
  SeriesConfig config;
  config.raw_capacity = 100000;
  config.block_readings = 64;
  SensorSeries series(config);

  util::Rng rng(2024);
  std::vector<Reading> all;
  util::SimTime t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += rng.between(1000, 2 * 1000 * 1000);
    const double roll = rng.next_double();
    const Quality q = roll < 0.1    ? Quality::kBad
                      : roll < 0.2  ? Quality::kSuspect
                                    : Quality::kGood;
    const Reading r = make_reading(t, rng.next_double() * 50.0, q);
    ASSERT_NE(series.append(r), SensorSeries::Append::kDuplicate);
    all.push_back(r);
  }
  const auto counters = series.counters();
  EXPECT_GT(counters.blocks_sealed, 20u);
  EXPECT_EQ(counters.blocks_demoted, 0u);
  EXPECT_EQ(series.raw_evicted(), 0u);

  for (int trial = 0; trial < 40; ++trial) {
    const util::SimTime from = rng.between(0, t);
    const util::SimTime to = from + rng.between(0, t - from);

    // range(): every retained reading, bad ones included, oldest first.
    const auto got_range = series.range(from, to, all.size() + 1);
    std::vector<Reading> want_range;
    for (const auto& r : all) {
      if (r.timestamp >= from && r.timestamp < to) want_range.push_back(r);
    }
    ASSERT_EQ(got_range.points.size(), want_range.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want_range.size(); ++i) {
      EXPECT_EQ(got_range.points[i].timestamp, want_range[i].timestamp);
      EXPECT_DOUBLE_EQ(got_range.points[i].value, want_range[i].value);
    }

    // stats() on the exact path (footer fast path + partial-block decode).
    const auto got = series.stats(from, to, 0);
    AggregateStats want;
    for (const auto& r : all) {
      if (r.quality != Quality::kBad && r.timestamp >= from &&
          r.timestamp < to) {
        want.add_sample(r.timestamp, r.value);
      }
    }
    ASSERT_EQ(got.stats.count, want.count) << "trial " << trial;
    EXPECT_EQ(got.source, "raw");
    if (want.count > 0) {
      EXPECT_DOUBLE_EQ(got.stats.min, want.min);
      EXPECT_DOUBLE_EQ(got.stats.max, want.max);
      EXPECT_NEAR(got.stats.sum, want.sum, 1e-6 * std::abs(want.sum) + 1e-9);
      EXPECT_DOUBLE_EQ(got.stats.last, want.last);
    }
  }

  // Compressed retention really is smaller than what it replaced.
  const auto fp = series.footprint();
  EXPECT_GT(fp.sealed_bytes, 0u);
  EXPECT_LT(fp.sealed_bytes,
            counters.sealed_readings * sizeof(Reading) / 2);
}

TEST(SensorSeries, RawOverflowDemotesIntoTiersInsteadOfDropping) {
  SeriesConfig config;
  config.raw_capacity = 256;
  config.block_readings = 64;
  SensorSeries series(config);

  // 2000 readings at 0.5s cadence; raw keeps ~256, the rest must survive
  // as 1s/60s tier buckets.
  std::vector<Reading> all;
  std::uint64_t good = 0;
  for (int i = 0; i < 2000; ++i) {
    const Quality q = i % 10 == 3 ? Quality::kBad : Quality::kGood;
    const Reading r =
        make_reading(static_cast<util::SimTime>(i) * kSecond / 2,
                     static_cast<double>(i % 100), q);
    series.append(r);
    all.push_back(r);
    if (q != Quality::kBad) ++good;
  }
  const auto counters = series.counters();
  EXPECT_GT(counters.blocks_demoted, 0u);
  EXPECT_EQ(counters.tier_evicted, 0u) << "tiers must absorb, not drop";
  EXPECT_GT(counters.tier_blocks, 0u);

  const auto ret = series.retention();
  ASSERT_GE(ret.raw_from, 0);
  ASSERT_GE(ret.tier_from, 0);
  EXPECT_LT(ret.tier_from, ret.raw_from);
  EXPECT_EQ(ret.tier_from, 0) << "oldest reading still represented";

  // The full-history deep aggregate sees every non-bad reading ever
  // appended: raw readings exactly, demoted ones through their buckets.
  const auto deep = series.deep_stats(0, sensor::kEndOfTime, 60 * kSecond);
  EXPECT_EQ(deep.source, "tiered");
  EXPECT_EQ(deep.stats.count, good);
  AggregateStats want;
  for (const auto& r : all) {
    if (r.quality != Quality::kBad) want.add_sample(r.timestamp, r.value);
  }
  EXPECT_DOUBLE_EQ(deep.stats.min, want.min);
  EXPECT_DOUBLE_EQ(deep.stats.max, want.max);
  EXPECT_NEAR(deep.stats.sum, want.sum, 1e-6 * std::abs(want.sum));
  EXPECT_DOUBLE_EQ(deep.stats.last, want.last);

  // range() serves the raw tier only — exactly [raw_from, end).
  const auto range = series.range(0, sensor::kEndOfTime, 100000);
  ASSERT_FALSE(range.points.empty());
  EXPECT_EQ(range.points.front().timestamp, ret.raw_from);
}

TEST(SensorSeries, ShedColdestFreesTiersBeforeSealedBlocks) {
  SeriesConfig config;
  config.raw_capacity = 256;
  config.block_readings = 64;
  SensorSeries series(config);
  for (int i = 0; i < 2000; ++i) {
    series.append(make_reading(static_cast<util::SimTime>(i) * kSecond,
                               static_cast<double>(i)));
  }
  ASSERT_GT(series.footprint().tier_bytes, 0u);
  ASSERT_GT(series.footprint().sealed_bytes, 0u);

  // Shedding drains the cheap-to-lose tiers to zero before it touches a
  // single sealed (individually retrievable) block.
  while (series.footprint().tier_bytes > 0) {
    const std::size_t sealed_before = series.footprint().sealed_bytes;
    ASSERT_GT(series.shed_coldest(), 0u);
    EXPECT_EQ(series.footprint().sealed_bytes, sealed_before);
  }
  // Then sealed blocks go, oldest first.
  const std::size_t sealed_before = series.footprint().sealed_bytes;
  ASSERT_GT(series.shed_coldest(), 0u);
  EXPECT_LT(series.footprint().sealed_bytes, sealed_before);
  // Fully drained: only the active block remains; nothing left to shed.
  while (series.shed_coldest() > 0) {
  }
  EXPECT_EQ(series.footprint().sealed_bytes, 0u);
  EXPECT_EQ(series.footprint().tier_bytes, 0u);
}

/// Brute-force downsample over individual readings: the series' binning
/// rule (bin = (ts - from) / spacing, clamped to the last bin) applied to
/// every non-bad reading in [from, to).
std::vector<Point> oracle_downsample(const std::vector<Reading>& all,
                                     util::SimTime from, util::SimTime to,
                                     std::size_t target) {
  const util::SimDuration width = std::max<util::SimDuration>(
      1, (to - from) / static_cast<util::SimDuration>(target));
  std::vector<std::uint64_t> counts(target, 0);
  std::vector<double> sums(target, 0.0);
  for (const auto& r : all) {
    if (r.quality == Quality::kBad || r.timestamp < from || r.timestamp >= to) {
      continue;
    }
    const auto idx = std::min<std::size_t>(
        static_cast<std::size_t>((r.timestamp - from) / width), target - 1);
    ++counts[idx];
    sums[idx] += r.value;
  }
  std::vector<Point> points;
  for (std::size_t i = 0; i < target; ++i) {
    if (counts[i] > 0) {
      points.push_back({from + static_cast<util::SimDuration>(i) * width,
                        sums[i] / static_cast<double>(counts[i])});
    }
  }
  return points;
}

TEST(SensorSeries, DownsampleMatchesReadingOracle) {
  // Small blocks and a small mid tier: history spans cold buckets, mid
  // buckets, sealed blocks (with their summaries) and the active block.
  SeriesConfig config;
  config.raw_capacity = 512;
  config.block_readings = 64;
  config.mid_max_buckets = 512;
  SensorSeries series(config);

  util::Rng rng(4242);
  std::vector<Reading> all;
  util::SimTime t = 0;
  for (int i = 0; i < 4000; ++i) {
    t += rng.between(200 * 1000, 1800 * 1000);  // 0.2s..1.8s
    const double roll = rng.next_double();
    const Quality q = roll < 0.1    ? Quality::kBad
                      : roll < 0.2  ? Quality::kSuspect
                                    : Quality::kGood;
    const Reading r = make_reading(t, rng.next_double() * 50.0, q);
    ASSERT_NE(series.append(r), SensorSeries::Append::kDuplicate);
    all.push_back(r);
  }
  ASSERT_EQ(series.counters().tier_evicted, 0u);
  // Both tiers hold history: a 1s tolerance reaches only the mid tier, a
  // 60s tolerance the cold tier too.
  EXPECT_EQ(series.stats(0, t + 1, kSecond).resolution, kSecond);
  EXPECT_EQ(series.stats(0, t + 1, 60 * kSecond).resolution, 60 * kSecond);
  const util::SimTime raw_from = series.retention().raw_from;
  ASSERT_GT(raw_from, 0);

  const util::SimDuration minute = 60 * kSecond;
  const util::SimTime end = ((t + minute) / minute) * minute;
  const auto expect_matches = [&](util::SimTime from, util::SimTime to,
                                  std::size_t target) -> std::string {
    const auto got = series.downsample(from, to, target);
    const auto want = oracle_downsample(all, from, to, target);
    EXPECT_EQ(got.points.size(), want.size())
        << "window [" << from << ", " << to << ") target " << target;
    if (got.points.size() != want.size()) return got.source;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.points[i].timestamp, want[i].timestamp);
      EXPECT_NEAR(got.points[i].value, want[i].value,
                  1e-9 * std::max(1.0, std::abs(want[i].value)));
    }
    return got.source;
  };

  // Windows on the 60s grid with whole-minute spacing: tier, summary and
  // reading bins coincide, so every point is the per-reading bin mean.
  for (int trial = 0; trial < 60; ++trial) {
    const util::SimDuration width =
        static_cast<util::SimDuration>(rng.between(1, 5)) * minute;
    const util::SimTime from =
        static_cast<util::SimTime>(rng.between(0, end / minute - 1)) * minute;
    const auto max_points = static_cast<std::size_t>((end - from) / width);
    if (max_points == 0) continue;
    const auto target = static_cast<std::size_t>(
        rng.between(1, static_cast<std::int64_t>(max_points)));
    expect_matches(from, from + static_cast<util::SimDuration>(target) * width,
                   target);
  }
  // The whole history crosses cold, mid, summaries and the active block.
  EXPECT_EQ(expect_matches(0, end, static_cast<std::size_t>(end / minute)),
            "tiered");

  // Inside the raw tier the summaries answer: the source says so.
  const util::SimTime raw_grid = ((raw_from + minute - 1) / minute) * minute;
  EXPECT_EQ(expect_matches(raw_grid, end,
                           static_cast<std::size_t>((end - raw_grid) / minute)),
            "rollup:" + util::format_duration(minute));

  // Spacing under 60s decodes every reading: exact, off-grid windows too.
  for (int trial = 0; trial < 20; ++trial) {
    const util::SimTime from = rng.between(raw_from, t);
    const util::SimTime to = from + rng.between(1, t + 1 - from);
    const auto target = static_cast<std::size_t>(rng.between(1, 200));
    if ((to - from) / static_cast<util::SimDuration>(target) >= minute) {
      continue;
    }
    const auto got = series.downsample(from, to, target);
    const auto want = oracle_downsample(all, from, to, target);
    EXPECT_EQ(got.source, "raw");
    ASSERT_EQ(got.points.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.points[i].timestamp, want[i].timestamp);
      EXPECT_DOUBLE_EQ(got.points[i].value, want[i].value);
    }
  }
}

// --- read executor --------------------------------------------------------------------------

TEST(ReadExecutor, BoundedQueueShedsOverflowToCaller) {
  ReadExecutor exec(ReadExecutor::Config{1, 1});
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  // Occupy the single worker (wait for it to actually dequeue: queue depth
  // counts admitted-not-yet-started queries)...
  auto blocked = exec.submit([opened] { opened.wait(); return 1; });
  while (exec.depth() != 0) std::this_thread::yield();
  // ...fill the queue to capacity...
  auto queued = exec.submit([opened] { opened.wait(); return 2; });
  // ...and overflow: the third query must run inline, right now, without
  // waiting on the stuck worker (shed-to-caller keeps overload deadlock-free).
  auto inline_fut = exec.submit([] { return 3; });
  EXPECT_EQ(inline_fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(inline_fut.get(), 3);
  EXPECT_GE(exec.inline_runs(), 1u);

  gate.set_value();
  EXPECT_EQ(blocked.get(), 1);
  EXPECT_EQ(queued.get(), 2);
  EXPECT_EQ(exec.depth(), 0u);
  EXPECT_GE(exec.served(), 2u);
}

TEST(SensorSeries, ConcurrentReadersNeverBlockOrTearWhileAppending) {
  // Readers race a live appender across seal and demotion boundaries; under
  // TSan this is the historian's reader/appender coordination proof.
  SeriesConfig config;
  config.raw_capacity = 512;
  config.block_readings = 64;
  SensorSeries series(config);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&series, &done, &queries, r] {
      util::Rng rng(static_cast<std::uint64_t>(r) + 1);
      while (!done.load(std::memory_order_relaxed)) {
        const util::SimTime hi = series.last_timestamp();
        if (hi < 0) continue;
        const util::SimTime from = rng.between(0, hi);
        (void)series.stats(from, hi + 1, 0);
        // Every reading a racing range returns must lie in the window and
        // stay strictly ordered — a torn read would break both.
        const auto range = series.range(from, hi + 1, 100000);
        for (std::size_t i = 0; i < range.points.size(); ++i) {
          EXPECT_GE(range.points[i].timestamp, from);
          EXPECT_LE(range.points[i].timestamp, hi);
          if (i > 0) {
            EXPECT_LT(range.points[i - 1].timestamp,
                      range.points[i].timestamp);
          }
        }
        (void)series.downsample(0, hi + 1, 32);
        (void)series.deep_stats(0, hi + 1, 60 * kSecond);
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 20000; ++i) {
    series.append(make_reading(static_cast<util::SimTime>(i) * 100'000,
                               static_cast<double>(i % 50),
                               i % 17 == 0 ? Quality::kBad : Quality::kGood));
  }
  // Let slow-starting readers overlap the full history before stopping.
  while (queries.load(std::memory_order_relaxed) < 8) {
    std::this_thread::yield();
  }
  done.store(true);
  for (auto& th : readers) th.join();
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(series.appended(), 20000u);
}

// --- HistorianStore -------------------------------------------------------------------------

TEST(HistorianStore, CountsAppendsDuplicatesAndQueries) {
  HistorianStore store;
  const auto out1 = store.append("a", {make_reading(1, 1.0), make_reading(2, 2.0)});
  EXPECT_EQ(out1.accepted, 2u);
  EXPECT_EQ(out1.duplicates, 0u);
  const auto out2 = store.append("a", {make_reading(2, 2.0), make_reading(3, 3.0)});
  EXPECT_EQ(out2.accepted, 1u);
  EXPECT_EQ(out2.duplicates, 1u);
  EXPECT_EQ(store.last_timestamp("a"), 3);
  EXPECT_EQ(store.last_timestamp("missing"), -1);

  const auto snap = store.stats_snapshot();
  EXPECT_EQ(snap.series_count, 1u);
  EXPECT_EQ(snap.appended, 3u);
  EXPECT_EQ(snap.duplicates, 1u);
  EXPECT_GT(snap.bytes, 0u);
  EXPECT_EQ(store.sensors(), std::vector<std::string>{"a"});

  const auto raw_before = counter("hist.query_raw");
  const auto rollup_before = counter("hist.query_rollup");
  (void)store.stats("a", 0, 100, 0);
  (void)store.stats("a", 0, 100, 60 * kSecond);
  EXPECT_EQ(counter("hist.query_raw") - raw_before, 2u);
  EXPECT_EQ(counter("hist.query_rollup") - rollup_before, 0u);
}

TEST(HistorianStore, ByteBudgetEvictsLeastRecentlyAppendedSeries) {
  // Measure one segment's footprint with an unbounded store first.
  HistorianConfig probe_config;
  probe_config.series.raw_capacity = 32;
  probe_config.max_bytes = 0;
  HistorianStore probe(probe_config);
  probe.append("x", {make_reading(1, 1.0)});
  const std::size_t per_series = probe.stats_snapshot().bytes;
  ASSERT_GT(per_series, 0u);

  HistorianConfig config = probe_config;
  config.max_bytes = per_series * 5 / 2;  // room for two segments, not three
  config.shards = 1;
  HistorianStore store(config);
  store.append("a", {make_reading(1, 1.0)});
  store.append("b", {make_reading(1, 1.0)});
  store.append("a", {make_reading(2, 2.0)});  // "b" is now least recent
  store.append("c", {make_reading(1, 1.0)});  // past budget
  store.append("d", {make_reading(1, 1.0)});  // forces an eviction
  const auto snap = store.stats_snapshot();
  EXPECT_GE(snap.evicted_series, 1u);
  EXPECT_EQ(store.last_timestamp("b"), -1) << "LRU series should be shed";
  EXPECT_EQ(store.last_timestamp("a"), 2);
}

TEST(HistorianStore, ByteAccountingSplitsStorageClasses) {
  HistorianConfig config;
  config.series.raw_capacity = 256;
  config.series.block_readings = 64;
  config.max_bytes = 0;
  HistorianStore store(config);
  std::vector<Reading> batch;
  for (int i = 0; i < 3000; ++i) {
    batch.push_back(make_reading(static_cast<util::SimTime>(i) * kSecond,
                                 static_cast<double>(i % 100)));
  }
  store.append("a", batch);
  store.append("b", batch);

  const auto snap = store.stats_snapshot();
  EXPECT_GT(snap.bytes_uncompressed, 0u);
  EXPECT_GT(snap.bytes_sealed, 0u);
  EXPECT_GT(snap.bytes_tiered, 0u);
  // The legacy total is exactly the storage-class split, nothing hidden.
  EXPECT_EQ(snap.bytes,
            snap.bytes_uncompressed + snap.bytes_sealed + snap.bytes_tiered);
  EXPECT_GT(snap.sealed_blocks, 0u);
  EXPECT_GT(snap.tier_blocks, 0u);
  EXPECT_GT(snap.blocks_sealed, snap.sealed_blocks)
      << "demotion must have consumed some sealed blocks";
  EXPECT_GT(snap.blocks_demoted, 0u);
  EXPECT_EQ(snap.tier_evicted, 0u);
  // Sealed storage carries more history per byte than the flat encoding.
  EXPECT_GE(snap.compression_ratio, 2.0);
  EXPECT_NEAR(snap.compression_ratio,
              static_cast<double>(snap.sealed_readings * sizeof(Reading)) /
                  static_cast<double>(snap.bytes_sealed),
              1e-9)
      << "ratio must be sealed readings' flat bytes over sealed bytes";
}

TEST(HistorianStore, BudgetEvictionShedsCompressedTiersBeforeSegments) {
  HistorianConfig config;
  config.series.raw_capacity = 128;
  config.series.block_readings = 32;
  config.shards = 1;
  config.max_bytes = 0;
  HistorianStore probe(config);
  std::vector<Reading> batch;
  for (int i = 0; i < 1200; ++i) {
    batch.push_back(make_reading(static_cast<util::SimTime>(i) * kSecond,
                                 static_cast<double>(i)));
  }
  probe.append("x", batch);
  const auto full = probe.stats_snapshot();
  ASSERT_GT(full.bytes_sealed + full.bytes_tiered, 0u);

  // Budget for one full segment plus a little: the second sensor forces
  // shedding, which must drain the first's cold storage before any whole
  // segment is evicted.
  config.max_bytes = full.bytes + full.bytes / 4;
  HistorianStore store(config);
  store.append("a", batch);
  std::vector<Reading> batch2;
  for (int i = 0; i < 1200; ++i) {
    batch2.push_back(make_reading(static_cast<util::SimTime>(i) * kSecond,
                                  static_cast<double>(i) + 0.5));
  }
  store.append("b", batch2);

  const auto snap = store.stats_snapshot();
  EXPECT_LE(snap.bytes, config.max_bytes);
  EXPECT_EQ(snap.evicted_series, 0u)
      << "shedding compressed tiers must spare whole segments";
  EXPECT_EQ(snap.series_count, 2u);
  EXPECT_GE(store.last_timestamp("a"), 0) << "raw hot data must survive";
  EXPECT_GE(store.last_timestamp("b"), 0);
}

// --- Historian provider ---------------------------------------------------------------------

TEST(Historian, DecodeBatchMapsQualities) {
  const auto readings = Historian::decode_batch(
      {1.0, 2.0, 3.0}, {10.0, 20.0, 30.0}, {0.0, 1.0, 2.0});
  ASSERT_EQ(readings.size(), 3u);
  EXPECT_EQ(readings[0].quality, Quality::kGood);
  EXPECT_EQ(readings[1].quality, Quality::kSuspect);
  EXPECT_EQ(readings[2].quality, Quality::kBad);
  EXPECT_EQ(readings[1].timestamp, 2);
  EXPECT_DOUBLE_EQ(readings[2].value, 30.0);
  // Mismatched array lengths clamp to the shortest.
  EXPECT_EQ(Historian::decode_batch({1.0, 2.0}, {10.0}, {}).size(), 1u);
}

// --- deployment integration -----------------------------------------------------------------

TEST(HistorianDeployment, SampledReadingsReachTheHistorianAndTheFacade) {
  core::DeploymentConfig config;
  config.history_feed.flush_period = 2 * kSecond;
  core::Deployment lab(config);
  lab.add_temperature_sensor("Fern-Sensor", 21.0);
  lab.pump(30 * kSecond);

  ASSERT_NE(lab.historian(), nullptr);
  const auto snap = lab.historian()->store().stats_snapshot();
  EXPECT_GE(snap.appended, 20u);
  EXPECT_EQ(snap.series_count, 1u);

  // Facade queries route through the invocation pipeline to the historian.
  const auto stats =
      lab.facade().query_stats("Fern-Sensor", 0, lab.now(), 60 * kSecond);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_GE(stats.value().stats.count, 20u);
  EXPECT_GT(stats.value().stats.mean(), 0.0);

  const auto series =
      lab.facade().query_downsample("Fern-Sensor", 0, lab.now(), 8);
  ASSERT_TRUE(series.is_ok());
  EXPECT_LE(series.value().points.size(), 8u);
  EXPECT_GT(series.value().points.size(), 0u);

  const auto range =
      lab.facade().query_range("Fern-Sensor", 0, lab.now(), 1024);
  ASSERT_TRUE(range.is_ok());
  EXPECT_EQ(range.value().points.size(), stats.value().stats.count);
}

/// A deployment whose historian holds one preloaded 1 Hz series of 4000
/// readings per name (no live sensors): the newest 2048 stay raw in sealed
/// blocks and the active block, older ones are demoted to the tiers.
std::unique_ptr<core::Deployment> preloaded_lab(
    const std::vector<std::string>& names) {
  core::DeploymentConfig config;
  config.historian.series.raw_capacity = 2048;
  config.historian.series.block_readings = 256;
  config.historian.series.mid_max_buckets = 256;
  config.historian.max_bytes = 0;
  auto lab = std::make_unique<core::Deployment>(config);
  lab->pump(kSecond);  // settle registrations
  util::Rng rng(31);
  for (std::size_t s = 0; s < names.size(); ++s) {
    std::vector<Reading> readings;
    const double base = 15.0 + static_cast<double>(s);
    for (int i = 0; i < 4000; ++i) {
      const double v = base + std::sin(static_cast<double>(i) / 600.0) +
                       rng.gaussian(0.0, 0.05);
      readings.push_back(make_reading(
          static_cast<util::SimTime>(s) * 100 * util::kMillisecond +
              static_cast<util::SimTime>(i) * kSecond,
          std::round(v * 100.0) / 100.0));
    }
    lab->historian()->store().append(names[s], readings);
  }
  return lab;
}

TEST(HistorianDeployment, DashboardFanOutServesQueriesOffTheReadExecutor) {
  const std::vector<std::string> names = {"Oak", "Elm", "Ash", "Yew"};
  auto lab = preloaded_lab(names);
  ASSERT_NE(lab->historian()->read_executor(), nullptr)
      << "default config must deploy the read executor";
  const auto wire_before = counter("invoke.wire_calls");
  const auto served_before = counter("hist.reads_served");

  const auto page = lab->facade().query_downsample_many(
      names, 0, 4000 * kSecond, 16);
  ASSERT_EQ(page.size(), names.size());
  for (const auto& series : page) {
    ASSERT_TRUE(series.is_ok()) << series.status().to_string();
    EXPECT_GT(series.value().points.size(), 0u);
    EXPECT_LE(series.value().points.size(), 16u);
  }
  // One exertion for the whole page, N store scans on executor workers.
  EXPECT_EQ(counter("invoke.wire_calls") - wire_before, 1u);
  EXPECT_EQ(counter("hist.reads_served") - served_before, names.size());
  EXPECT_EQ(lab->historian()->read_executor()->depth(), 0u);

  // A second page is exactly one more call.
  (void)lab->facade().query_downsample_many(names, 0, 4000 * kSecond, 64);
  EXPECT_EQ(counter("invoke.wire_calls") - wire_before, 2u);
}

TEST(HistorianDeployment, DashboardPageMatchesSingleQueriesOnEveryPath) {
  // Names ride as indexed paths, so any characters survive the round trip.
  const std::vector<std::string> names = {"Oak", "a/b c,d", "", "Fir;1|x"};
  auto lab = preloaded_lab(names);
  auto& store = lab->historian()->store();
  struct Window {
    util::SimTime from;
    util::SimTime to;
    std::size_t points;
    const char* source;
  };
  const Window windows[] = {
      {3800 * kSecond, 4000 * kSecond, 16, "raw"},
      {3000 * kSecond, 4000 * kSecond, 8, "rollup:60.000s"},
      {0, 4000 * kSecond, 32, "tiered"},
  };
  for (const Window& w : windows) {
    SCOPED_TRACE(w.source);
    const auto page =
        lab->facade().query_downsample_many(names, w.from, w.to, w.points);
    ASSERT_EQ(page.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      SCOPED_TRACE(names[i]);
      ASSERT_TRUE(page[i].is_ok());
      const auto single =
          lab->facade().query_downsample(names[i], w.from, w.to, w.points);
      ASSERT_TRUE(single.is_ok());
      const SeriesResult direct =
          store.downsample(names[i], w.from, w.to, w.points);
      EXPECT_EQ(direct.source, w.source);
      for (const SeriesResult* other : {&single.value(), &direct}) {
        EXPECT_EQ(page[i].value().source, other->source);
        ASSERT_EQ(page[i].value().points.size(), other->points.size());
        for (std::size_t k = 0; k < other->points.size(); ++k) {
          EXPECT_EQ(page[i].value().points[k].timestamp,
                    other->points[k].timestamp);
          EXPECT_EQ(page[i].value().points[k].value, other->points[k].value);
        }
      }
    }
  }
}

TEST(HistorianDeployment, DashboardPageCostsItsLongestSeries) {
  // A page's scans run side by side, so its modeled cost is that of its
  // longest series alone, not the sum over the page.
  const std::vector<std::string> names = {"Oak", "Elm", "Ash", "Yew"};
  auto lab = preloaded_lab(names);
  const auto elapsed = [&](const std::vector<std::string>& page) {
    const util::SimTime start = lab->now();
    const auto out =
        lab->facade().query_downsample_many(page, 0, 4000 * kSecond, 64);
    EXPECT_EQ(out.size(), page.size());
    return lab->now() - start;
  };
  (void)elapsed(names);  // warm the accessor cache and intern tables
  const util::SimDuration one = elapsed({"Oak"});
  EXPECT_EQ(elapsed(names), one);
  EXPECT_EQ(elapsed({"no-such-sensor", "Oak"}), one);
}

TEST(HistorianDeployment, DashboardPageAnswersUnknownAndEmptyLists) {
  auto lab = preloaded_lab({"Oak", "Elm"});
  const auto wire_before = counter("invoke.wire_calls");
  // An empty page makes no call at all.
  EXPECT_TRUE(
      lab->facade().query_downsample_many({}, 0, 4000 * kSecond, 16).empty());
  EXPECT_EQ(counter("invoke.wire_calls"), wire_before);

  // An unknown sensor mid-list answers an ok empty series; its neighbours
  // keep their points.
  const auto page = lab->facade().query_downsample_many(
      {"Oak", "no-such-sensor", "Elm"}, 0, 4000 * kSecond, 16);
  ASSERT_EQ(page.size(), 3u);
  for (const auto& series : page) ASSERT_TRUE(series.is_ok());
  EXPECT_GT(page[0].value().points.size(), 0u);
  EXPECT_TRUE(page[1].value().points.empty());
  EXPECT_EQ(page[1].value().source, "none");
  EXPECT_GT(page[2].value().points.size(), 0u);
  EXPECT_EQ(counter("invoke.wire_calls") - wire_before, 1u);
}

/// A three-series page context as the historian writes it.
sorcer::ServiceContext page_reply() {
  std::vector<SeriesResult> page(3);
  for (std::size_t s = 0; s < page.size(); ++s) {
    page[s].source = s == 1 ? "tiered" : "raw";
    for (std::size_t i = 0; i < 20 * s; ++i) {
      page[s].points.push_back({static_cast<util::SimTime>(i) * 60 * kSecond,
                                20.0 + 0.25 * static_cast<double>(i % 7)});
    }
  }
  sorcer::ServiceContext ctx("page");
  put_series_page(ctx, page);
  return ctx;
}

TEST(HistorianPage, RoundTripsPositionally) {
  const auto parsed = parse_series_page(page_reply(), 3);
  ASSERT_EQ(parsed.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(parsed[s].is_ok());
    EXPECT_EQ(parsed[s].value().points.size(), 20 * s);
    EXPECT_EQ(parsed[s].value().source, s == 1 ? "tiered" : "raw");
  }
  EXPECT_EQ(parsed[2].value().points[19].timestamp, 19 * 60 * kSecond);
}

TEST(HistorianPage, MalformedCountsFailEveryEntry) {
  const auto all_failed = [](const sorcer::ServiceContext& ctx,
                             std::size_t n) {
    const auto parsed = parse_series_page(ctx, n);
    if (parsed.size() != n) return false;
    return std::none_of(parsed.begin(), parsed.end(),
                        [](const auto& r) { return r.is_ok(); });
  };
  const auto with_counts = [](std::vector<double> counts) {
    sorcer::ServiceContext ctx = page_reply();  // 0 + 20 + 40 points
    ctx.put(core::path::kHistCounts, std::move(counts));
    return ctx;
  };
  EXPECT_TRUE(all_failed(page_reply(), 2)) << "fewer series than counts";
  EXPECT_TRUE(all_failed(page_reply(), 4)) << "more series than counts";
  EXPECT_TRUE(all_failed(with_counts({0, 20, 41}), 3)) << "sum past columns";
  EXPECT_TRUE(all_failed(with_counts({0, 20, 39}), 3)) << "sum short";
  EXPECT_TRUE(all_failed(with_counts({-1, 21, 40}), 3)) << "negative count";
  EXPECT_TRUE(all_failed(with_counts({0.5, 19.5, 40}), 3)) << "fractional";
  EXPECT_TRUE(all_failed(with_counts({0.5, 20, 40}), 3))
      << "fractional, though the truncated counts sum to the columns";
  EXPECT_TRUE(all_failed(with_counts({std::nan(""), 20, 40}), 3)) << "NaN";
  EXPECT_TRUE(all_failed(with_counts({1e300, 20, 40}), 3)) << "huge count";
  EXPECT_TRUE(all_failed(with_counts({60, -20, 20}), 3))
      << "a negative count must not pull the sum back in range";
  sorcer::ServiceContext no_counts = page_reply();
  no_counts.remove(core::path::kHistCounts);
  EXPECT_TRUE(all_failed(no_counts, 3));
  sorcer::ServiceContext bad_time = page_reply();
  std::vector<double> times =
      *bad_time.peek_series(core::path::kHistTimestamps);
  times.back() = std::nan("");
  bad_time.put(core::path::kHistTimestamps, std::move(times));
  EXPECT_TRUE(all_failed(bad_time, 3)) << "a timestamp no SimTime can hold";
  sorcer::ServiceContext short_values = page_reply();
  short_values.put(core::path::kHistValues, std::vector<double>{1.0, 2.0});
  EXPECT_TRUE(all_failed(short_values, 3)) << "values shorter than times";
  EXPECT_TRUE(parse_series_page(with_counts({0, 20, 40}), 3)[2].is_ok());
}

TEST(HistorianPage, TruncatedEncodedReplyNeverCrashes) {
  const sorcer::ServiceContext reply = page_reply();
  sorcer::PathInternTable encoder;
  sorcer::WireBuffer bytes;
  sorcer::encode_context(reply, encoder, bytes);
  std::size_t decoded = 0;
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    sorcer::PathInternTable decoder;
    sorcer::ServiceContext into;
    if (!sorcer::decode_context(bytes.data(), cut, decoder, into).is_ok()) {
      continue;
    }
    ++decoded;
    // Whatever decoded must split cleanly or fail as a whole.
    const auto parsed = parse_series_page(into, 3);
    ASSERT_EQ(parsed.size(), 3u);
    const bool ok = parsed[0].is_ok();
    for (const auto& r : parsed) EXPECT_EQ(r.is_ok(), ok) << "cut=" << cut;
  }
  EXPECT_GE(decoded, 1u) << "the whole encoding must decode";
  sorcer::PathInternTable decoder;
  sorcer::ServiceContext into;
  ASSERT_TRUE(sorcer::decode_context(bytes.data(), bytes.size(), decoder, into)
                  .is_ok());
  const auto parsed = parse_series_page(into, 3);
  ASSERT_TRUE(parsed[2].is_ok());
  EXPECT_EQ(parsed[2].value().points.size(), 40u);
}

TEST(HistorianDeployment, WireModeIngestionIsByteAccounted) {
  core::DeploymentConfig config;
  config.history_feed.flush_period = 2 * kSecond;
  core::Deployment lab(config);
  lab.add_temperature_sensor("Moss-Sensor", 19.0);
  lab.pump(kSecond);  // settle registrations

  lab.network().reset_stats();
  const auto wire_before = counter("invoke.wire_calls");
  const auto appended_before = counter("hist.appends");
  lab.pump(10 * kSecond);

  // appendBatch pushes really crossed the fabric as wire calls carrying
  // marshalled payload bytes.
  EXPECT_GT(counter("hist.appends") - appended_before, 0u);
  EXPECT_GT(counter("invoke.wire_calls") - wire_before, 0u);
  EXPECT_GT(lab.network().totals().payload_bytes_sent, 0u);
  EXPECT_GT(lab.network().totals().header_bytes_sent, 0u);

  // The pushed readings are queryable over the same wire pipeline.
  const auto stats =
      lab.facade().query_stats("Moss-Sensor", 0, lab.now(), 60 * kSecond);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_GT(stats.value().stats.count, 0u);
}

TEST(HistorianDeployment, PipelinedFlushOverlapsAppendBatchCalls) {
  core::DeploymentConfig config;
  config.sampling.sample_period = 0;  // quiet fabric: we drive the feeder
  config.history_feed.flush_period = 0;
  config.history_feed.max_batch = 16;
  core::Deployment lab(config);
  auto esp = lab.add_temperature_sensor("Pipe-Sensor", 20.0);
  auto* feeder = esp->history_feeder();
  ASSERT_NE(feeder, nullptr);
  ASSERT_TRUE(feeder->bound());

  const auto offer_n = [&](std::size_t n, util::SimTime base) {
    for (std::size_t i = 0; i < n; ++i) {
      feeder->offer({base + static_cast<util::SimTime>(i) * 1000, 20.0,
                     Quality::kGood, 0});
    }
  };

  // Calibrate: one chunk = one appendBatch round-trip in virtual time.
  offer_n(16, 1);
  util::SimTime t0 = lab.now();
  ASSERT_EQ(feeder->flush(), 16u);
  const util::SimDuration single = lab.now() - t0;
  ASSERT_GT(single, 0);

  // Four chunks pipelined as one scatter-gather batch cost ~one overlapped
  // round-trip, not four sequential ones.
  const auto saved_before = counter("invoke.overlap_saved_ns");
  offer_n(64, 1'000'000);
  t0 = lab.now();
  ASSERT_EQ(feeder->flush(), 64u);
  const util::SimDuration batch = lab.now() - t0;
  EXPECT_LT(batch, 3 * single);
  EXPECT_GT(counter("invoke.overlap_saved_ns") - saved_before, 0u);
  EXPECT_EQ(feeder->pending(), 0u);
  EXPECT_EQ(lab.historian()->store().stats_snapshot().appended, 80u);
}

TEST(HistorianDeployment, FeederUnbindsWhenHistorianLeavesAndRebinds) {
  core::Deployment lab;
  auto esp = lab.add_temperature_sensor("Ivy-Sensor", 20.0);
  ASSERT_NE(esp->history_feeder(), nullptr);
  EXPECT_TRUE(esp->history_feeder()->bound());
  lab.pump(10 * kSecond);
  const auto pushed_before = esp->history_feeder()->pushed();
  EXPECT_GT(pushed_before, 0u);

  // Historian departs: the registry transition unbinds the feeder, which
  // buffers readings instead of pushing into the void.
  lab.historian()->leave();
  EXPECT_FALSE(esp->history_feeder()->bound());
  lab.pump(10 * kSecond);
  EXPECT_EQ(esp->history_feeder()->pushed(), pushed_before);
  EXPECT_GT(esp->history_feeder()->pending(), 0u);

  // It comes back: the feeder rebinds and drains the buffer.
  for (const auto& lus : lab.lookups()) {
    ASSERT_TRUE(lab.historian()
                    ->join(lus, lab.lease_renewal(), 30 * kSecond)
                    .is_ok());
  }
  EXPECT_TRUE(esp->history_feeder()->bound());
  lab.pump(10 * kSecond);
  EXPECT_GT(esp->history_feeder()->pushed(), pushed_before);
  // Only the post-rebind sampling tail may still be in flight; the
  // disconnection backlog has drained.
  (void)esp->history_feeder()->flush();
  EXPECT_EQ(esp->history_feeder()->pending(), 0u);
}

TEST(HistorianDeployment, FailoverBackfillLeavesNoGaps) {
  core::DeploymentConfig config;
  config.history_feed.flush_period = 2 * kSecond;
  core::Deployment lab(config);
  ASSERT_TRUE(lab.provisioner()
                  .provision_elementary(
                      "Aster-Sensor",
                      [](const std::string& name) {
                        return sensor::make_temperature_probe(name, 7, 22.0);
                      },
                      rio::QosRequirement{})
                  .is_ok());
  lab.pump(15 * kSecond);
  const util::SimTime crash_time = lab.now();
  ASSERT_GT(lab.historian()->store().stats_snapshot().appended, 0u);

  // Kill the hosting cybernode; the monitor re-provisions the ESP, the
  // replacement adopts the predecessor's DataLog and backfills.
  rio::Cybernode* host = nullptr;
  for (const auto& node : lab.cybernodes()) {
    if (node->hosted_count() > 0) host = node.get();
  }
  ASSERT_NE(host, nullptr);
  host->fail();
  lab.pump(20 * kSecond);
  EXPECT_GE(lab.monitor().reprovision_count(), 1u);

  const auto instances = lab.monitor().deployed_instances("Aster-Sensor");
  ASSERT_EQ(instances.size(), 1u);
  auto* replacement =
      dynamic_cast<core::ElementarySensorProvider*>(instances[0].get());
  ASSERT_NE(replacement, nullptr);
  // The replacement adopted pre-crash history into its own log.
  ASSERT_FALSE(replacement->log().empty());
  EXPECT_LT(replacement->log().oldest().timestamp, crash_time);
  // Push the sampling tail still sitting in the feeder's batch buffer.
  ASSERT_NE(replacement->history_feeder(), nullptr);
  (void)replacement->history_feeder()->flush();

  // Every sample either incarnation ever logged made it into the historian:
  // the replay plus fresh pushes leave zero missing samples...
  const auto recorded = lab.historian()->store().range(
      "Aster-Sensor", 0, sensor::kEndOfTime, 100000);
  std::set<util::SimTime> have;
  for (const auto& p : recorded.points) have.insert(p.timestamp);
  std::size_t logged = 0;
  replacement->log().for_each(0, sensor::kEndOfTime,
                              [&](const Reading&) { ++logged; });
  std::size_t missing = 0;
  replacement->log().for_each(0, sensor::kEndOfTime, [&](const Reading& r) {
    if (!have.contains(r.timestamp)) ++missing;
  });
  EXPECT_GT(logged, 0u);
  EXPECT_EQ(missing, 0u) << "backfill left gaps in recorded history";
  // ...and the idempotent replay double-counted none of them.
  EXPECT_EQ(have.size(), recorded.points.size());
  EXPECT_GT(lab.historian()->store().stats_snapshot().duplicates, 0u)
      << "the backfill should have replayed already-recorded readings";
  // History spans the crash: readings from before and after it survive.
  EXPECT_LT(*have.begin(), crash_time);
  EXPECT_GT(*have.rbegin(), crash_time);
}

}  // namespace
}  // namespace sensorcer::hist
