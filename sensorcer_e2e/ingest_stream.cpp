// ingest_stream: an open loop on the virtual clock. 8 temperature ESPs
// sample at the deployment's default 1 Hz on a fixed schedule that does not
// slow when the program does; their feeders push appendBatch exertions to
// the historian. An edge-fused count-10 mean flow covers half the sensors,
// a forced-central relay flow the other half, both sinking to the
// historian. The bench pumps fixed 100 ms virtual slices and polls the
// store between them, so ingest freshness (sample -> queryable) and flow
// lag (last contributing sample -> emission queryable) are measured per
// reading.
//
// Four sensors per flow at 1 Hz for 300 virtual s is the regime in which
// the central relay's pushFrame replies fail to decode on kWire and the
// sources re-send on every flush; it stays in so error_rate and the flow
// ratios show the defect (see README.md).
//
// One round = boot, sample for kSampleSpan, silence the probes, drain for
// kDrain. Every round of one seed is the same virtual run, so rounds repeat
// until --seconds is used up: wall and CPU come from every round, counters
// and virtual latencies from the first.

#include <cctype>
#include <cstdio>
#include <memory>

#include "flow/spec.h"
#include "sensor/probe.h"
#include "trace_agg.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr std::size_t kPerFlow = 4;  // sensors per flow
constexpr util::SimDuration kSlice = 100 * util::kMillisecond;
constexpr util::SimDuration kSampleSpan = 300 * util::kSecond;
constexpr util::SimDuration kDrain = 20 * util::kSecond;
// Set-up runs the stream this long before the measured round: leases renew,
// feeders bind and batch, and the historian already holds history. It also
// gives setup_s milliseconds of the workload's own work to time instead of a
// sub-millisecond boot.
constexpr util::SimDuration kWarmup = 600 * util::kSecond;
constexpr std::size_t kWindowCount = 10;

struct Tracked {
  std::shared_ptr<core::ElementarySensorProvider> esp;
  std::string name;
  std::string flow;         // "edge" or "central"
  std::string flow_series;  // the flow's sink series "<flow>/<sensor>"
  std::vector<util::SimTime> samples;  // tapped since the flows started
  std::size_t queryable = 0;           // samples seen in the store so far
  std::size_t emissions_queryable = 0;
};

struct World {
  std::unique_ptr<core::Deployment> lab;
  std::vector<std::unique_ptr<Tracked>> sensors;
  std::vector<std::string> names;
};

std::unique_ptr<World> build(std::uint64_t seed) {
  auto w = std::make_unique<World>();
  util::Rng rng(seed);
  core::DeploymentConfig config = base_config(seed);
  w->lab = std::make_unique<core::Deployment>(config);
  auto& lab = *w->lab;
  for (const char* flow : {"edge", "central"}) {
    for (std::size_t i = 0; i < kPerFlow; ++i) {
      const std::string name =
          std::string(1, static_cast<char>(std::toupper(flow[0]))) + "-" +
          std::to_string(i);
      auto t = std::make_unique<Tracked>();
      t->name = name;
      t->flow = flow;
      t->flow_series = t->flow + "/" + name;
      const std::uint64_t probe_seed = seed * 1000 + w->names.size();
      t->esp = lab.add_sensor(
          name, sensor::make_temperature_probe(name, probe_seed,
                                               rng.uniform(18.0, 26.0)));
      w->names.push_back(name);
      w->sensors.push_back(std::move(t));
      // Sensors boot evenly staggered across one sampling period.
      lab.pump(config.sampling.sample_period /
               static_cast<util::SimDuration>(2 * kPerFlow));
    }
  }
  lab.pump(kWarmup);
  // Bench taps go on before the flows' taps: both then see exactly the
  // readings recorded from here on.
  for (auto& t : w->sensors) {
    Tracked* raw = t.get();
    t->esp->add_reading_tap([raw](const sensor::Reading& r) {
      raw->samples.push_back(r.timestamp);
    });
  }
  for (const bool edge : {true, false}) {
    flow::FlowSpec spec;
    spec.name = edge ? "edge" : "central";
    for (const auto& t : w->sensors) {
      if (t->flow == spec.name) spec.sensors.push_back(t->name);
    }
    spec.window.kind = flow::WindowKind::kCount;
    spec.window.count = kWindowCount;
    spec.window.aggregate = flow::Aggregate::kMean;
    spec.placement =
        edge ? flow::Placement::kForceEdge : flow::Placement::kForceCentral;
    const auto status = lab.facade().create_flow(spec);
    if (!status.is_ok()) {
      std::printf("create_flow(%s) failed: %s\n", spec.name.c_str(),
                  status.message().c_str());
      return nullptr;
    }
  }
  return w;
}

struct RoundResult {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t readings = 0;
  std::uint64_t missing = 0;
  std::vector<double> slice_wall_us;  // sampling slices
  std::vector<double> fresh_ms;
  std::vector<double> lag_ms;
  std::unique_ptr<Sample> start, end;
  std::size_t pending_end = 0;
};

/// Polls the store after a slice: newly queryable readings and emissions
/// get their freshness / lag stamped at the slice end. Only the store reads
/// are traced as hist; the bench's own bookkeeping stays unattributed.
void poll(World& w, RoundResult& out, bool traced) {
  auto& store = w.lab->historian()->store();
  const util::SimTime now = w.lab->now();
  std::vector<std::pair<util::SimTime, util::SimTime>> last(w.sensors.size());
  traced_call(traced, "bench.hist.last_timestamp", [&] {
    for (std::size_t i = 0; i < w.sensors.size(); ++i) {
      last[i] = {store.last_timestamp(w.sensors[i]->name),
                 store.last_timestamp(w.sensors[i]->flow_series)};
    }
  });
  for (std::size_t i = 0; i < w.sensors.size(); ++i) {
    Tracked& t = *w.sensors[i];
    const auto [raw_last, flow_last] = last[i];
    while (t.queryable < t.samples.size() &&
           t.samples[t.queryable] <= raw_last) {
      out.fresh_ms.push_back(
          static_cast<double>(now - t.samples[t.queryable]) /
          util::kMillisecond);
      ++t.queryable;
    }
    // Emission k closes the window ending at sample 10k+9 and carries that
    // sample's timestamp.
    for (;;) {
      const std::size_t last_sample =
          (t.emissions_queryable + 1) * kWindowCount - 1;
      if (last_sample >= t.samples.size() ||
          t.samples[last_sample] > flow_last) {
        break;
      }
      out.lag_ms.push_back(static_cast<double>(now - t.samples[last_sample]) /
                           util::kMillisecond);
      ++t.emissions_queryable;
    }
  }
}

void slice(World& w, RoundResult& out, bool traced) {
  traced_call(traced, "bench.pump", [&] { w.lab->pump(kSlice); });
  poll(w, out, traced);
}

/// The round after set-up: sample, silence the probes, drain, verify.
RoundResult run_round(World& w, Report& report, bool keep_counters) {
  RoundResult out;
  if (keep_counters) out.start = std::make_unique<Sample>(take_sample(*w.lab));
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = wall_ns();
  for (util::SimDuration t = 0; t < kSampleSpan; t += kSlice) {
    const std::int64_t s0 = wall_ns();
    slice(w, out, false);
    out.slice_wall_us.push_back(static_cast<double>(wall_ns() - s0) / 1000.0);
  }
  // The sensors go quiet; everything they recorded must reach the store.
  for (auto& t : w.sensors) t->esp->probe().disconnect();
  for (util::SimDuration t = 0; t < kDrain; t += kSlice) slice(w, out, false);
  out.wall_s = static_cast<double>(wall_ns() - t0) * 1e-9;
  out.cpu_s = process_cpu_s() - cpu0;
  if (keep_counters) out.end = std::make_unique<Sample>(take_sample(*w.lab));

  // Output checks: every sampled reading stored exactly once, each flow's
  // readings_in equal to its sensors' samples, emissions = floor(in/10).
  auto& store = w.lab->historian()->store();
  std::uint64_t in_edge = 0, in_central = 0;
  for (auto& t : w.sensors) {
    const std::string& name = t->name;
    out.readings += t->samples.size();
    if (t->samples.empty()) continue;
    const auto stored = store.range(name, t->samples.front(),
                                    t->samples.back() + 1, SIZE_MAX);
    // Both sides are sorted: count the sampled timestamps found once.
    std::size_t found = 0;
    for (std::size_t i = 0, j = 0; i < t->samples.size(); ++i) {
      while (j < stored.points.size() &&
             stored.points[j].timestamp < t->samples[i]) {
        ++j;
      }
      if (j < stored.points.size() &&
          stored.points[j].timestamp == t->samples[i]) {
        ++found;
        ++j;
      }
    }
    out.missing += t->samples.size() - found;
    report.check(found == t->samples.size() &&
                     stored.points.size() == t->samples.size(),
                 "historian series != the sampled readings, exactly once");
    const auto emitted =
        store.range(t->flow_series, 0, util::kNever - 1, SIZE_MAX);
    report.check(emitted.points.size() == t->samples.size() / kWindowCount,
                 "flow emissions != floor(samples / 10)");
    (t->flow == "edge" ? in_edge : in_central) += t->samples.size();
  }
  for (const char* name : {"edge", "central"}) {
    auto stats = w.lab->facade().flow_stats(name);
    report.check(stats.is_ok(), "flow_stats failed");
    if (!stats.is_ok()) continue;
    const std::uint64_t expect =
        std::string(name) == "edge" ? in_edge : in_central;
    report.check(stats.value().readings_in == expect,
                 "flow readings_in != its sensors' samples");
    out.pending_end += stats.value().pending;
  }
  return out;
}

}  // namespace

int run_ingest_stream(const Args& args) {
  Report report;
  std::vector<double> setup_s;
  std::vector<RoundResult> rounds;
  double first_round_rss_mb = 0;
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const Deadline deadline(untraced_s);
  // Every round boots afresh. The boots timed for setup_s are the first ones
  // at or after each of kSetupBoots evenly spaced marks after the start (see
  // kSetupBoots).
  const std::int64_t start = wall_ns();
  const double mark_ns = untraced_s * 1e9 / (kSetupBoots + 1);
  while (setup_s.size() < kSetupBoots || !deadline.passed()) {
    const std::int64_t t0 = wall_ns();
    const bool timed =
        setup_s.size() < kSetupBoots &&
        static_cast<double>(t0 - start) >=
            mark_ns * static_cast<double>(setup_s.size() + 1);
    auto world = build(args.seed);
    if (timed) setup_s.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
    if (!world) {
      report.check(false, "ingest_stream set-up failed");
      return report.finish(args.trace);
    }
    if (rounds.empty()) {
      std::printf("workload ingest_stream: %zu edge + %zu central sensors at "
                  "%lld ms, count-%zu mean flows, %lld s sampled + %lld s "
                  "drain per round, hop latency %lld us\n",
                  kPerFlow, kPerFlow,
                  static_cast<long long>(
                      world->lab->config().sampling.sample_period /
                      util::kMillisecond),
                  kWindowCount,
                  static_cast<long long>(kSampleSpan / util::kSecond),
                  static_cast<long long>(kDrain / util::kSecond),
                  static_cast<long long>(world->lab->network().latency()));
    }
    rounds.push_back(run_round(*world, report, rounds.empty()));
    // Resident memory creeps up with every boot/teardown cycle, so a peak
    // taken after a time-boxed number of rounds would measure host speed.
    if (rounds.size() == 1) first_round_rss_mb = peak_rss_mb();
  }

  const RoundResult& first = rounds.front();
  const Delta d(*first.start, *first.end);
  const double ops = static_cast<double>(first.readings);
  double readings = 0, wall_s = 0, cpu_s = 0;
  std::vector<double> slice_us;
  for (const auto& r : rounds) {
    readings += static_cast<double>(r.readings);
    wall_s += r.wall_s;
    cpu_s += r.cpu_s;
    slice_us.insert(slice_us.end(), r.slice_wall_us.begin(),
                    r.slice_wall_us.end());
    report.failed += r.missing;
  }
  report.attempted = static_cast<std::uint64_t>(readings);

  report.e2e("setup_s", setup_estimate(setup_s), "s",
             "median of 3 means of " + std::to_string(setup_s.size()) +
                 " boots spread over the run, each with " +
                 std::to_string(kWarmup / util::kSecond) + " s warm-up");
  report_wall(report, readings, wall_s, cpu_s, slice_us,
              "readings queryable after the drain", "100 ms virtual slices");
  report.e2e("sim_ms_p50", quantile(first.fresh_ms, 0.50), "ms",
             "sample -> queryable, " + std::to_string(first.fresh_ms.size()) +
                 " readings");
  report.e2e("sim_ms_p99", quantile(first.fresh_ms, 0.99), "ms",
             "sample -> queryable, " + std::to_string(first.fresh_ms.size()) +
                 " readings");
  report.e2e("wire_bytes_per_op", ratio(d.wire_bytes, ops), "B",
             base_of(d.wire_bytes, ops) + " per reading");
  report.e2e("wire_msgs_per_op", ratio(d.msgs, ops), "count",
             base_of(d.msgs, ops) + " per reading");
  report.e2e("peak_rss_mb", first_round_rss_mb, "MiB",
             "after boot + first round; " + std::to_string(peak_rss_mb()) +
                 " MiB after " + std::to_string(rounds.size()) + " rounds");
  report.note("rounds: " + std::to_string(rounds.size()) +
              "; flow pending after drain: " +
              std::to_string(first.pending_end));

  if (args.trace) {
    report_counter_layers(report, d, ops, "reading");
    report_error_rate(report, d, ops, static_cast<double>(first.missing));
    report.layer("flow_lag_ms_p50", quantile(first.lag_ms, 0.50), "ms",
                 std::to_string(first.lag_ms.size()) + " emissions");
    report.layer("flow_lag_ms_p99", quantile(first.lag_ms, 0.99), "ms",
                 std::to_string(first.lag_ms.size()) + " emissions");
    report.layer("flow.pending_end", static_cast<double>(first.pending_end),
                 "count", "readings still queued at sources after the drain");

    auto world = build(args.seed);
    ProbeShapes shapes;
    shapes.sensors = world->names;
    shapes.panel = world->names;
    report_layer_probes(report, *world->lab, shapes, args.seed);

    // Traced: one sampling span of a fresh world, one op per slice.
    RoundResult traced;
    auto fresh = build(args.seed);
    run_traced_phase(report, 0, kSampleSpan / kSlice, mean(slice_us),
                     [&](std::uint64_t) { slice(*fresh, traced, true); });
    // hist: store calls with this workload's windows on the traced world.
    auto& store = fresh->lab->historian()->store();
    const util::SimTime now = fresh->lab->now();
    StoreQueries q;
    for (const auto& name : fresh->names) {
      q.stats.push_back([&store, name, now] {
        (void)store.stats(name, 0, now, 60 * util::kSecond);
      });
      q.range.push_back([&store, name, now] {
        (void)store.range(name, now - 10 * util::kSecond, now, 1024);
      });
      q.downsample.push_back(
          [&store, name, now] { (void)store.downsample(name, 0, now, 64); });
    }
    report_store_queries(report, q);
    report_store_footprint(report, store, "one sampling span, mid-ingest");
  }
  return report.finish(args.trace);
}

}  // namespace e2e
