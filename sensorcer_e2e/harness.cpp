#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "core/composite_provider.h"
#include "core/interfaces.h"
#include "expr/evaluator.h"
#include "sensor/probe.h"
#include "sorcer/codec.h"
#include "trace_agg.h"

namespace e2e {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t pool_threads(std::size_t wanted) {
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  const std::size_t cap = cores > 0 ? static_cast<std::size_t>(cores) : 1;
  return std::min(wanted, cap);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

core::DeploymentConfig base_config(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5eed5eedULL);
  core::DeploymentConfig config;
  config.seed = seed;
  config.invoke.transport = sorcer::Transport::kWire;
  config.worker_threads = pool_threads(4);
  config.spacer_workers = pool_threads(4);
  config.historian.read_threads = pool_threads(2);
  config.network_latency = 195 + static_cast<util::SimDuration>(rng.below(11));
  return config;
}

// --- counters ---------------------------------------------------------------

Sample take_sample(core::Deployment& lab) {
  Sample s;
  s.obs = obs::metrics().snapshot(lab.now());
  s.net = lab.network().totals();
  s.trace_bytes =
      lab.network().metrics().snapshot().counter_or("simnet.trace_bytes_sent");
  s.dropped = s.net.messages_dropped;
  s.fired = lab.scheduler().fired_count();
  s.sim = lab.now();
  return s;
}

Delta::Delta(const Sample& b, const Sample& a) : before(b), after(a) {
  payload_bytes = static_cast<double>(a.net.payload_bytes_sent -
                                      b.net.payload_bytes_sent);
  header_bytes =
      static_cast<double>(a.net.header_bytes_sent - b.net.header_bytes_sent);
  wire_bytes = payload_bytes + header_bytes;
  trace_bytes = static_cast<double>(a.trace_bytes - b.trace_bytes);
  msgs = static_cast<double>(a.net.messages_sent - b.net.messages_sent);
  dropped = static_cast<double>(a.dropped - b.dropped);
  fired = static_cast<double>(a.fired - b.fired);
}

double Delta::c(const std::string& name) const {
  return static_cast<double>(after.obs.counter_or(name)) -
         static_cast<double>(before.obs.counter_or(name));
}

double Delta::virtual_s() const {
  return static_cast<double>(after.sim - before.sim) / util::kSecond;
}

// --- report -----------------------------------------------------------------

std::string count_of(double n) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.0f", n);
  return buf;
}

std::string base_of(double num, double den) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.0f/%.0f", num, den);
  return buf;
}

void Report::e2e(std::string name, double value, std::string unit,
                 std::string base) {
  e2e_.push_back({std::move(name), value, std::move(unit), std::move(base)});
}

void Report::layer(std::string name, double value, std::string unit,
                   std::string base) {
  layer_.push_back({std::move(name), value, std::move(unit), std::move(base)});
}

void Report::check(bool ok, std::string_view what) {
  ++checks_;
  if (!ok && check_failures_.size() < 64) {
    check_failures_.emplace_back(what);
  }
}

namespace {

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
}

void print_json(const std::vector<Metric>& metrics, bool correct,
                std::uint64_t attempted, std::uint64_t failed) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int Report::finish(bool trace) const {
  print_table("end-to-end metrics (untraced timed phase):", e2e_);
  print_table("per-layer metrics (value, unit, base):", layer_);
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  std::printf("\noutput checks: %llu run, %zu failed\n",
              static_cast<unsigned long long>(checks_),
              check_failures_.size());
  for (const std::string& f : check_failures_) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }
  print_json(trace ? layer_ : e2e_, correct(),
             std::max<std::uint64_t>(attempted, 1), failed);
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

void report_counter_layers(Report& r, const Delta& d, double ops,
                           const std::string& op_name) {
  const double vs = d.virtual_s();
  const std::string per = " per " + op_name;
  // core
  const double hits = d.c("csp.cache_hits"), misses = d.c("csp.cache_misses");
  r.layer("core.csp_cache_hit_ratio", ratio(hits, hits + misses), "ratio",
          base_of(hits, hits + misses) + " csp reads");
  r.layer("core.esp_reads_per_op", ratio(d.c("esp.reads"), ops), "count",
          base_of(d.c("esp.reads"), ops) + per);
  // sorcer
  const double calls = d.c("invoke.calls"), wire = d.c("invoke.wire_calls");
  r.layer("sorcer.calls_per_op", ratio(calls, ops), "count",
          base_of(calls, ops) + per);
  r.layer("sorcer.marshal_ns_per_call", ratio(d.c("invoke.marshal_ns"), wire),
          "ns", base_of(d.c("invoke.marshal_ns"), wire) + " ns per wire call");
  const double ih = d.c("invoke.intern_hits"), im = d.c("invoke.intern_misses");
  r.layer("sorcer.intern_hit_ratio", ratio(ih, ih + im), "ratio",
          base_of(ih, ih + im) + " path encodes");
  r.layer("sorcer.exert_failures", d.c("sorcer.exert_failures"), "count",
          "of " + count_of(d.c("sorcer.exertions")) + " exertions");
  r.layer("sorcer.timeouts", d.c("invoke.timeouts"), "count");
  // simnet
  r.layer("simnet.payload_bytes_per_op", ratio(d.payload_bytes, ops), "B",
          base_of(d.payload_bytes, ops) + per);
  r.layer("simnet.header_bytes_per_op", ratio(d.header_bytes, ops), "B",
          base_of(d.header_bytes, ops) + per);
  r.layer("simnet.trace_bytes_per_op", ratio(d.trace_bytes, ops), "B",
          base_of(d.trace_bytes, ops) + per + " (inside header bytes)");
  r.layer("simnet.msgs_per_op", ratio(d.msgs, ops), "count",
          base_of(d.msgs, ops) + per);
  r.layer("simnet.dropped", d.dropped, "count");
  // registry
  r.layer("registry.lookups_per_op", ratio(d.c("registry.lookups"), ops),
          "count", base_of(d.c("registry.lookups"), ops) + per);
  const double ah = d.c("accessor.cache_hits"),
               am = d.c("accessor.cache_misses");
  r.layer("registry.accessor_hit_ratio", ratio(ah, ah + am), "ratio",
          base_of(ah, ah + am) + " accessor resolutions");
  r.layer("registry.renew_msgs_per_vs", ratio(d.c("lease.renewal_batches"), vs),
          "1/s", base_of(d.c("lease.renewal_batches"), vs) +
                     " renewAll msgs per virtual s");
  // rio
  r.layer("rio.pings_per_vs", ratio(d.c("invoke.pings"), vs), "1/s",
          base_of(d.c("invoke.pings"), vs) + " pings per virtual s");
  r.layer("rio.reprovisions", d.c("rio.reprovisions"), "count");
  // hist
  r.layer("hist.append_batches_per_op", ratio(d.c("hist.append_batches"), ops),
          "count", base_of(d.c("hist.append_batches"), ops) + per);
  const double appends = d.c("hist.appends"), dups = d.c("hist.duplicates");
  r.layer("hist.duplicate_ratio", ratio(dups, appends + dups), "ratio",
          base_of(dups, appends + dups) + " readings offered");
  const double q_rollup = d.c("hist.query_rollup");
  const double q_tiered = d.c("hist.query_tiered");
  const double q_raw = d.c("hist.query_raw");
  const double q_all = q_rollup + q_tiered + q_raw;
  r.layer("hist.query_path_share.rollup", ratio(q_rollup, q_all), "ratio",
          base_of(q_rollup, q_all) + " store queries");
  r.layer("hist.query_path_share.tiered", ratio(q_tiered, q_all), "ratio",
          base_of(q_tiered, q_all) + " store queries");
  r.layer("hist.query_path_share.raw", ratio(q_raw, q_all), "ratio",
          base_of(q_raw, q_all) + " store queries");
  r.layer("hist.feeder_failed", d.c("hist.feeder_failed"), "count");
  // flow
  const double fp = d.c("flow.frames_pushed"), fr = d.c("flow.frames_requeued");
  r.layer("flow.push_success_ratio", ratio(fp, fp + fr), "ratio",
          base_of(fp, fp + fr) + " frame pushes");
  const double fin = d.c("flow.readings_in"),
               fdup = d.c("flow.duplicates_dropped");
  r.layer("flow.duplicate_ratio", ratio(fdup, fin), "ratio",
          base_of(fdup, fin) + " duplicates/readings_in");
  r.layer("flow.dropped", d.c("flow.dropped"), "count");
  r.layer("flow.emitted_per_op", ratio(d.c("flow.emitted"), ops), "count",
          base_of(d.c("flow.emitted"), ops) + per);
  // sensor + util
  r.layer("sensor.samples_per_vs", ratio(d.c("esp.samples"), vs), "1/s",
          base_of(d.c("esp.samples"), vs) + " samples per virtual s");
  r.layer("util.sched_events_per_op", ratio(d.fired, ops), "count",
          base_of(d.fired, ops) + per);
}

void report_error_rate(Report& r, const Delta& d, double ops,
                       double failed_ops) {
  const double failures = failed_ops + d.c("sorcer.exert_failures");
  const double attempts = ops + d.c("sorcer.exertions");
  char base[256];
  std::snprintf(base, sizeof(base),
                "%.0f/%.0f: %.0f failed ops + %.0f failed exertions (incl. "
                "%.0f requeued frames, %.0f feeder failures)",
                failures, attempts, failed_ops, d.c("sorcer.exert_failures"),
                d.c("flow.frames_requeued"), d.c("hist.feeder_failed"));
  r.layer("error_rate", ratio(failures, attempts), "ratio", base);
}

// --- probes -----------------------------------------------------------------

double time_ns_per_call(std::size_t rounds, std::size_t calls,
                        const std::function<void()>& fn) {
  std::vector<double> per_call;
  per_call.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::int64_t t0 = wall_ns();
    for (std::size_t i = 0; i < calls; ++i) fn();
    per_call.push_back(static_cast<double>(wall_ns() - t0) /
                       static_cast<double>(calls));
  }
  return median(std::move(per_call));
}

std::string weighted_mean_expression(std::size_t n, util::Rng& rng) {
  std::string num, den;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string w = std::to_string(1 + rng.below(5));
    num += (i ? " + " : "") + w + " * " + core::component_variable_name(i);
    den += (i ? " + " : "") + w;
  }
  return "(" + num + ") / (" + den + ")";
}

namespace {

// Message shapes of the deployment defaults: feeders push 32-reading
// appendBatch tasks; a 1 Hz flow source flushes a 5-reading frame every 5 s.
constexpr std::size_t kAppendBatch = 32;
constexpr std::size_t kFrameReadings = 5;
constexpr std::size_t kExpressionVars = 8;

/// Encode then decode `ctx` through a warm intern table pair (steady-state
/// wire shape: paths travel as ids after first use).
double codec_roundtrip_ns(const sorcer::ServiceContext& ctx) {
  sorcer::PathInternTable enc, dec;
  sorcer::WireBuffer buf;
  sorcer::ServiceContext into;
  auto roundtrip = [&] {
    sorcer::encode_context(ctx, enc, buf);
    (void)sorcer::decode_context(buf.data(), buf.size(), dec, into);
  };
  roundtrip();
  return time_ns_per_call(15, 2000, roundtrip);
}

std::vector<double> series_of(std::size_t n, double start, double step) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = start + step * i;
  return v;
}

}  // namespace

void report_layer_probes(Report& r, core::Deployment& lab,
                         const ProbeShapes& shapes, std::uint64_t seed) {
  namespace path = core::path;
  // core: one composite's collection, called directly.
  {
    auto csp = shapes.composite;
    if (!csp) {
      csp = lab.manager().create_composite("Probe-Panel");
      for (std::size_t i = 0; i < kExpressionVars; ++i) {
        (void)csp->add_component(shapes.panel[i]);
      }
    }
    const double ns = time_ns_per_call(9, 16, [&] {
      r.check(csp->get_value().is_ok(), "direct CSP collection failed");
    });
    r.layer("core.csp_collect_us", ns / 1000.0, "us",
            "CompositeSensorProvider::get_value of " + csp->provider_name());
  }
  // sorcer codec, one context per workload-shaped message.
  {
    sorcer::ServiceContext task("fanout");
    task.put(path::kComponentName, std::string("Group-0"));
    r.layer("sorcer.codec_roundtrip_ns.fanout_task", codec_roundtrip_ns(task),
            "ns", "CSP collect child request");
    sorcer::ServiceContext reply("reply");
    reply.put(path::kValue, 21.5);
    reply.put(path::kTimestamp, 1.5e7);
    reply.put(path::kQuality, 0.0);
    reply.put(path::kUnit, std::string("Celsius"));
    r.layer("sorcer.codec_roundtrip_ns.read_reply", codec_roundtrip_ns(reply),
            "ns", "getValue reply");
    sorcer::ServiceContext batch("append");
    const std::size_t n = kAppendBatch;
    batch.put(path::kHistSensor, std::string("S-0"));
    batch.put(path::kHistTimestamps, series_of(n, 1e7, 1e5));
    batch.put(path::kHistValues, series_of(n, 21.0, 0.01));
    batch.put(path::kHistQualities, std::vector<double>(n, 0.0));
    r.layer("sorcer.codec_roundtrip_ns.append_batch",
            codec_roundtrip_ns(batch), "ns",
            std::to_string(n) + "-reading appendBatch");
    sorcer::ServiceContext frame("frame");
    const std::size_t m = kFrameReadings;
    frame.put("flow/name", std::string("central"));
    frame.put("flow/sensor", std::string("C-0"));
    frame.put("flow/timestamps", series_of(m, 1e7, 1e5));
    frame.put("flow/values", series_of(m, 21.0, 0.01));
    frame.put("flow/qualities", std::vector<double>(m, 0.0));
    r.layer("sorcer.codec_roundtrip_ns.push_frame", codec_roundtrip_ns(frame),
            "ns", std::to_string(m) + "-reading pushFrame");
  }
  // registry: template lookups of the workload's own sensors.
  {
    auto& lus = *lab.lookups().front();
    std::size_t i = 0;
    const double ns = time_ns_per_call(15, 400, [&] {
      const auto tmpl = registry::ServiceTemplate::by_name(
          core::kSensorDataAccessorType,
          shapes.sensors[i++ % shapes.sensors.size()]);
      (void)lus.lookup_one(tmpl);
    });
    r.layer("registry.lookup_us", ns / 1000.0, "us",
            "lookup_one by name over " + std::to_string(shapes.sensors.size()) +
                " sensors");
  }
  // expr: the workload's weighted-mean program, bound to slots.
  {
    std::string expression = shapes.expression;
    if (expression.empty()) {
      util::Rng rng(seed);
      expression = weighted_mean_expression(kExpressionVars, rng);
    }
    auto compiled = expr::Expression::compile(expression);
    std::vector<std::string> names;
    for (std::size_t i = 0; i < kExpressionVars; ++i) {
      names.push_back(core::component_variable_name(i));
    }
    auto program = compiled.value().bind(names);
    std::vector<double> values(kExpressionVars, 21.0);
    double sink = 0;
    const double ns = time_ns_per_call(15, 20000, [&] {
      values[0] += 1e-6;
      sink += program.value().evaluate(values).value();
    });
    r.check(std::isfinite(sink), "weighted-mean evaluation not finite");
    r.layer("expr.eval_ns", ns, "ns",
            std::to_string(kExpressionVars) + "-slot weighted mean");
  }
  // sensor: probe reads on a scratch probe of the workload's type.
  {
    auto probe = sensor::make_temperature_probe("probe-bench", seed, 22.0);
    (void)probe->connect();
    util::SimTime t = 0;
    const double ns = time_ns_per_call(15, 2000, [&] {
      (void)probe->read(t += 100 * util::kMillisecond);
    });
    r.layer("sensor.probe_read_ns", ns, "ns", "SimulatedProbe::read");
  }
  // hist: feeder-shaped batches into a scratch store.
  {
    hist::HistorianStore store;
    const std::size_t n = kAppendBatch;
    std::vector<std::vector<sensor::Reading>> batches;
    util::SimTime ts = 0;
    for (std::size_t b = 0; b < 64; ++b) {
      std::vector<sensor::Reading> batch(n);
      for (auto& reading : batch) {
        reading.timestamp = ts += 100 * util::kMillisecond;
        reading.value = 21.0 + 0.01 * static_cast<double>(ts % 97);
      }
      batches.push_back(std::move(batch));
    }
    std::size_t next = 0;
    std::size_t series = 0;
    const double ns = time_ns_per_call(15, 64, [&] {
      if (next == batches.size()) {
        next = 0;
        ++series;  // timestamps restart, so move to a fresh series
      }
      (void)store.append(
          shapes.sensors[series % shapes.sensors.size()] + "#" +
              std::to_string(series),
          batches[next++]);
    });
    r.layer("hist.append_ns_per_reading", ns / static_cast<double>(n), "ns",
            std::to_string(n) + "-reading HistorianStore::append batches");
  }
}

void report_store_footprint(Report& r, const hist::HistorianStore& store,
                            const std::string& what) {
  const hist::StoreStats st = store.stats_snapshot();
  const auto bytes = static_cast<double>(st.bytes);
  const auto readings = static_cast<double>(st.appended);
  r.layer("hist.bytes_per_reading", ratio(bytes, readings), "B",
          base_of(bytes, readings) + " stored bytes / readings, " + what);
  r.layer("hist.compression_ratio", st.compression_ratio, "ratio",
          "raw size / sealed bytes of sealed readings, " + what);
}

void report_store_queries(Report& r, const StoreQueries& q) {
  const auto time_each = [](const std::vector<std::function<void()>>& calls) {
    std::vector<double> us;
    for (int rep = 0; rep < 3; ++rep) {
      for (const auto& call : calls) {
        const std::int64_t t0 = wall_ns();
        call();
        us.push_back(static_cast<double>(wall_ns() - t0) / 1000.0);
      }
    }
    return median(std::move(us));
  };
  r.layer("hist.query_us.stats", time_each(q.stats), "us",
          "median of " + std::to_string(3 * q.stats.size()) + " store calls");
  r.layer("hist.query_us.range", time_each(q.range), "us",
          "median of " + std::to_string(3 * q.range.size()) + " store calls");
  r.layer("hist.query_us.downsample", time_each(q.downsample), "us",
          "median of " + std::to_string(3 * q.downsample.size()) +
              " store calls");
}

// --- closed loops and the traced phase ---------------------------------------

double setup_estimate(const std::vector<double>& boot_s) {
  constexpr std::size_t kGroups = 3;
  std::vector<double> means;
  for (std::size_t g = 0; g < kGroups; ++g) {
    std::vector<double> group;
    for (std::size_t i = g; i < boot_s.size(); i += kGroups) {
      group.push_back(boot_s[i]);
    }
    means.push_back(mean(group));
  }
  return median(std::move(means));
}

ClosedLoop run_closed_loop(double seconds, std::size_t window,
                           const std::function<core::Deployment&()>& boot,
                           const std::function<void()>& teardown,
                           const std::function<bool(std::uint64_t)>& op,
                           const std::function<void(std::uint64_t)>& between) {
  ClosedLoop loop;
  const std::int64_t start = wall_ns();
  const double round_ns = seconds * 1e9 / (kSetupBoots + 1);
  for (std::size_t round = 0; round <= kSetupBoots; ++round) {
    if (round > 0) teardown();
    const std::int64_t b0 = wall_ns();
    core::Deployment& lab = boot();
    if (round > 0) {
      loop.boot_s.push_back(static_cast<double>(wall_ns() - b0) * 1e-9);
    } else {
      loop.window_start = take_sample(lab);
    }
    const auto round_end =
        start + static_cast<std::int64_t>(round_ns * (round + 1));
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = wall_ns();
    while ((round == 0 && loop.ops < window) || wall_ns() < round_end) {
      const util::SimTime sim0 = lab.now();
      const std::int64_t w0 = wall_ns();
      if (!op(loop.ops)) ++loop.failed;
      loop.wall_us.push_back(static_cast<double>(wall_ns() - w0) / 1000.0);
      if (loop.ops < window) {
        loop.sim_ms.push_back(static_cast<double>(lab.now() - sim0) /
                              util::kMillisecond);
      }
      ++loop.ops;
      if (loop.ops == window) loop.window_end = take_sample(lab);
      between(loop.ops - 1);
    }
    loop.elapsed_s += static_cast<double>(wall_ns() - t0) * 1e-9;
    loop.cpu_s += process_cpu_s() - cpu0;
  }
  return loop;
}

void report_closed_loop(Report& r, const ClosedLoop& loop,
                        std::size_t window, const std::string& op,
                        bool trace) {
  const Delta d(loop.window_start, loop.window_end);
  const auto n = static_cast<double>(window);
  const std::string ops = "facade " + op + "s";
  r.attempted = loop.ops;
  r.failed = loop.failed;
  r.e2e("setup_s", setup_estimate(loop.boot_s), "s",
        "median of 3 means of " + std::to_string(loop.boot_s.size()) +
            " boots spread over the run");
  report_wall(r, static_cast<double>(loop.ops), loop.elapsed_s, loop.cpu_s,
              loop.wall_us, ops, ops);
  const std::string latency = "virtual latency of " + count_of(n) + " " + ops;
  r.e2e("sim_ms_p50", quantile(loop.sim_ms, 0.50), "ms", latency);
  r.e2e("sim_ms_p99", quantile(loop.sim_ms, 0.99), "ms", latency);
  r.e2e("wire_bytes_per_op", ratio(d.wire_bytes, n), "B",
        base_of(d.wire_bytes, n) + " per " + op);
  r.e2e("wire_msgs_per_op", ratio(d.msgs, n), "count",
        base_of(d.msgs, n) + " per " + op);
  r.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  if (!trace) return;
  report_counter_layers(r, d, n, op);
  report_error_rate(r, d, n, static_cast<double>(loop.failed));
  r.layer("flow_lag_ms_p50", 0, "ms", "no flows in this workload");
  r.layer("flow_lag_ms_p99", 0, "ms", "no flows in this workload");
  r.layer("flow.pending_end", 0, "count", "no flows in this workload");
}

void report_wall(Report& r, double ops, double elapsed_s, double cpu_s,
                 const std::vector<double>& wall_us, const std::string& op_name,
                 const std::string& wall_op) {
  const std::string base =
      count_of(ops) + " " + op_name + " in " + std::to_string(elapsed_s) + " s";
  r.layer("ops_per_s", ratio(ops, elapsed_s), "1/s", base);
  r.layer("cpu_us_per_op", ratio(cpu_s * 1e6, ops), "us",
          "process CPU (all threads), " + base);
  r.layer("wall_us_p50", quantile(wall_us, 0.50), "us",
          "of " + std::to_string(wall_us.size()) + " " + wall_op);
  r.layer("wall_us_p99", quantile(wall_us, 0.99), "us",
          "of " + std::to_string(wall_us.size()) + " " + wall_op);
}

void run_traced_phase(Report& r, double seconds, std::size_t min_ops,
                      double untraced_wall_us_per_op,
                      const std::function<void(std::uint64_t)>& op,
                      const std::function<void(std::uint64_t)>& between) {
  auto& collector = obs::span_collector();
  collector.clear();
  TraceAggregator agg;
  std::uint64_t dropped = 0;
  std::vector<obs::SpanRecord> spans;
  double traced_wall_us = 0;
  const Deadline deadline(seconds);
  std::uint64_t i = 0;
  for (; i < min_ops || !deadline.passed(); ++i) {
    const std::int64_t w0 = wall_ns();
    {
      obs::Span root = obs::tracer().start_span("bench.op");
      obs::ContextGuard guard(root.context());
      op(i);
    }
    spans = collector.snapshot();
    dropped += collector.recorded() - spans.size();
    collector.clear();
    traced_wall_us += static_cast<double>(wall_ns() - w0) / 1000.0;
    agg.add_op(spans);
    if (between) {
      between(i);
      collector.clear();  // background spans of `between` are not the op's
    }
  }
  const double ops = static_cast<double>(i);
  const double per_op = ratio(agg.total_self_us(), ops);
  for (const char* layer : {"core", "sorcer", "simnet", "registry", "rio",
                            "hist", "flow", "expr", "sensor"}) {
    const auto it = agg.self_us().find(layer);
    const double us = it == agg.self_us().end() ? 0.0 : it->second;
    r.layer(std::string("trace.self_share.") + layer, agg.share(layer),
            "ratio", std::to_string(ratio(us, ops)) + " us self per op");
  }
  r.layer("trace.unattributed_share", agg.share("unattributed"), "ratio",
          "self time outside any layer span, of " + std::to_string(per_op) +
              " us traced self time per op");
  r.layer("trace.self_us_per_op", per_op, "us",
          std::to_string(agg.spans()) + " spans over " + count_of(ops) +
              " ops");
  r.layer("trace.dropped_spans", static_cast<double>(dropped), "count",
          "collector overwrites (must be 0)");
  const double traced_per_op = ratio(traced_wall_us, ops);
  r.layer("trace.overhead_share",
          ratio(traced_per_op - untraced_wall_us_per_op,
                untraced_wall_us_per_op),
          "ratio",
          "traced " + std::to_string(traced_per_op) + " us vs untraced " +
              std::to_string(untraced_wall_us_per_op) + " us mean wall per op");
  r.check(dropped == 0, "traced run dropped spans");
}

}  // namespace e2e
