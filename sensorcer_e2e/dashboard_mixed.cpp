// dashboard_mixed: one closed-loop client issuing dashboard queries through
// the façade over a preloaded history of 64 series (6 virtual hours at 1 Hz
// each, sealed into compressed blocks and demoted through the mid and cold
// tiers). Ops rotate query_downsample_many over a 16-sensor panel,
// query_stats over the whole preloaded span (crossing tiers) and
// query_range over the last minutes (the active block), with windows drawn
// from the seed. The sensors keep sampling and feeding between queries, so
// appends land beside the reads.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "sensor/probe.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr std::size_t kSensors = 64;
constexpr std::size_t kPanel = 16;
constexpr util::SimDuration kHistory = 6 * 3600 * util::kSecond;
constexpr util::SimDuration kPeriod = util::kSecond;
constexpr util::SimDuration kBetween = 200 * util::kMillisecond;
constexpr std::size_t kWindow = 1200;  // counted ops (see run_closed_loop)

struct World {
  std::unique_ptr<core::Deployment> lab;
  std::vector<std::string> names;
  std::vector<util::SimTime> phase;  // preload timestamps: phase + k*period
  std::vector<std::string> panel;
  hist::StoreStats preloaded;  // the store right after the preload
};

/// Preloaded readings of sensor `s` in [from, to).
std::uint64_t preload_count(const World& w, std::size_t s, util::SimTime from,
                            util::SimTime to) {
  const auto first_at_or_after = [&](util::SimTime t) -> std::int64_t {
    const util::SimTime rel = t - w.phase[s];
    if (rel <= 0) return 0;
    return std::min<std::int64_t>((rel + kPeriod - 1) / kPeriod,
                                  kHistory / kPeriod);
  };
  return static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, first_at_or_after(to) - first_at_or_after(from)));
}

std::unique_ptr<World> build(std::uint64_t seed) {
  auto w = std::make_unique<World>();
  util::Rng rng(seed);
  core::DeploymentConfig config = base_config(seed);
  config.sampling.sample_period = kPeriod;
  hist::SeriesConfig& series = config.historian.series;
  series.raw_capacity = 16384;  // ~4.5 h of raw history, sealed in blocks
  series.mid_max_buckets = 2048;  // older history rebuckets to the cold tier
  config.historian.max_bytes = 0;  // nothing may be shed: counts are checked
  // One client: the read executor would only add a cross-thread handoff per
  // store call, and on a shared VM that handoff's wake-up latency set the
  // tail (wall_us_p99 IQR 29-39% of median across ten seeds, vs 6% inline).
  config.historian.read_threads = 0;
  w->lab = std::make_unique<core::Deployment>(config);
  auto& lab = *w->lab;
  // Virtual hours pass with only the infrastructure running, then history
  // for that span is loaded straight into the historian's store.
  lab.pump(kHistory);
  auto& store = lab.historian()->store();
  std::vector<sensor::Reading> batch;
  for (std::size_t s = 0; s < kSensors; ++s) {
    w->names.push_back("D-" + std::to_string(s));
    w->phase.push_back(static_cast<util::SimTime>(rng.below(kPeriod)));
    const double base = rng.uniform(15.0, 28.0);
    const double swing = rng.uniform(1.0, 4.0);
    util::Rng noise(seed * 7919 + s);
    const util::SimTime readings = kHistory / kPeriod;
    for (util::SimTime k = 0; k < readings; k += 512) {
      batch.clear();
      for (util::SimTime j = k; j < std::min(k + 512, readings); ++j) {
        const double hours = static_cast<double>(j) / 3600.0;
        const double v = base + swing * std::sin(hours * 0.2618) +
                         noise.gaussian(0.0, 0.05);
        batch.push_back({w->phase[s] + j * kPeriod,
                         std::round(v * 100.0) / 100.0,
                         sensor::Quality::kGood});
      }
      (void)store.append(w->names[s], batch);
    }
  }
  w->preloaded = store.stats_snapshot();
  // The live sensors carry the same names: their feeders append after the
  // preloaded history.
  for (std::size_t s = 0; s < kSensors; ++s) {
    lab.add_sensor(w->names[s],
                   sensor::make_temperature_probe(w->names[s], seed * 1000 + s,
                                                  rng.uniform(15.0, 28.0)));
  }
  std::vector<std::string> shuffled = w->names;
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.below(i + 1)]);
  }
  w->panel.assign(shuffled.begin(), shuffled.begin() + kPanel);
  lab.pump(2 * util::kSecond);
  // Warm the accessor caches and intern tables.
  for (int i = 0; i < 4; ++i) {
    (void)lab.facade().query_downsample_many(w->panel, 0, lab.now(), 64);
    (void)lab.facade().query_stats(w->names[0], 0, kHistory);
    (void)lab.facade().query_range(w->names[0], lab.now() - 60 * util::kSecond,
                                   lab.now());
  }
  return w;
}

/// One façade query; ops rotate downsample-many / stats / range, with
/// windows drawn from `rng`.
bool query_op(World& w, Report& report, util::Rng& rng, std::uint64_t i,
              bool traced) {
  auto& facade = w.lab->facade();
  const util::SimTime now = w.lab->now();
  switch (i % 3) {
    case 0: {
      const util::SimTime span =
          static_cast<util::SimTime>(rng.between(1, 6)) * 3600 * util::kSecond;
      const std::size_t points = 64 + rng.below(193);
      std::vector<util::Result<hist::SeriesResult>> out;
      traced_call(traced, "bench.core.query_downsample_many", [&] {
        out = facade.query_downsample_many(w.panel, now - span, now, points);
      });
      bool ok = out.size() == w.panel.size();
      for (const auto& r : out) {
        ok = ok && r.is_ok() && r.value().points.size() <= points;
      }
      report.check(ok, "query_downsample_many failed or over its points");
      return ok;
    }
    case 1: {
      const std::size_t s = rng.below(kSensors);
      // Whole minutes from the first preloaded hour to the preload's end:
      // the window crosses the cold, mid and raw tiers.
      const util::SimTime from =
          static_cast<util::SimTime>(rng.below(60)) * 60 * util::kSecond;
      util::Result<hist::StatsResult> r = util::Status{};
      traced_call(traced, "bench.core.query_stats", [&] {
        r = facade.query_stats(w.names[s], from, kHistory);
      });
      const bool ok =
          r.is_ok() && r.value().stats.count ==
                           preload_count(w, s, r.value().from_effective,
                                         r.value().to_effective);
      report.check(ok, "query_stats count != exact preload count");
      return ok;
    }
    default: {
      const std::size_t s = rng.below(kSensors);
      const util::SimTime from =
          now - static_cast<util::SimTime>(rng.between(1, 5)) * 60 *
                    util::kSecond;
      util::Result<hist::SeriesResult> r = util::Status{};
      traced_call(traced, "bench.core.query_range",
                  [&] { r = facade.query_range(w.names[s], from, now); });
      bool ok = r.is_ok();
      if (ok) {
        const auto& pts = r.value().points;
        for (std::size_t i = 0; ok && i < pts.size(); ++i) {
          ok = pts[i].timestamp >= from && pts[i].timestamp < now &&
               (i == 0 || pts[i - 1].timestamp < pts[i].timestamp);
        }
      }
      report.check(ok, "query_range unsorted or outside its window");
      return ok;
    }
  }
}

}  // namespace

int run_dashboard_mixed(const Args& args) {
  Report report;
  util::Rng mix(args.seed * 31 + 7);
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  std::unique_ptr<World> world;
  ClosedLoop loop = run_closed_loop(
      untraced_s, kWindow,
      [&]() -> core::Deployment& {
        world = build(args.seed);
        return *world->lab;
      },
      [&] { world.reset(); },
      [&](std::uint64_t i) { return query_op(*world, report, mix, i, false); },
      [&](std::uint64_t) { world->lab->pump(kBetween); });
  World& w = *world;
  auto& lab = *w.lab;
  std::printf("workload dashboard_mixed: %zu series x %lld h at 1 Hz "
              "preloaded (%.1f MiB stored: %.1f sealed, %.1f tiered), panel "
              "%zu, hop latency %lld us\n",
              kSensors, static_cast<long long>(kHistory / 3600 / util::kSecond),
              static_cast<double>(w.preloaded.bytes) / 1048576.0,
              static_cast<double>(w.preloaded.bytes_sealed) / 1048576.0,
              static_cast<double>(w.preloaded.bytes_tiered) / 1048576.0,
              kPanel, static_cast<long long>(lab.network().latency()));
  report_closed_loop(report, loop, kWindow, "query", args.trace);

  if (args.trace) {
    report_store_footprint(report, lab.historian()->store(),
                           "preload + live feed");
    ProbeShapes shapes;
    shapes.sensors = w.names;
    shapes.panel = w.panel;
    report_layer_probes(report, lab, shapes, args.seed);

    auto& store = lab.historian()->store();
    const util::SimTime now = lab.now();
    util::Rng windows(args.seed * 17 + 3);
    StoreQueries q;
    for (std::size_t i = 0; i < 32; ++i) {
      const std::string name = w.names[windows.below(kSensors)];
      const util::SimTime from =
          static_cast<util::SimTime>(windows.below(60)) * 60 * util::kSecond;
      const util::SimTime recent =
          now - static_cast<util::SimTime>(windows.between(1, 5)) * 60 *
                    util::kSecond;
      const util::SimTime span =
          static_cast<util::SimTime>(windows.between(1, 6)) * 3600 *
          util::kSecond;
      q.stats.push_back([&store, name, from] {
        (void)store.stats(name, from, kHistory, 60 * util::kSecond);
      });
      q.range.push_back([&store, name, recent, now] {
        (void)store.range(name, recent, now, 1024);
      });
      q.downsample.push_back([&store, name, span, now] {
        (void)store.downsample(name, now - span, now, 128);
      });
    }
    report_store_queries(report, q);
    run_traced_phase(
        report, args.seconds / 2, 60, mean(loop.wall_us),
        [&](std::uint64_t i) { (void)query_op(w, report, mix, i, true); },
        [&](std::uint64_t) { lab.pump(kBetween); });
  }
  return report.finish(args.trace);
}

}  // namespace e2e
