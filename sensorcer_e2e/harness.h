#pragma once
// Shared plumbing of the sensorcer_e2e benchmark: command line, clocks,
// exact percentiles, timed-phase counter deltas, bench-timed probes and the
// report every workload fills in (a human-readable table plus the one-line
// JSON result the benchmark ends with).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/deployment.h"
#include "hist/store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace e2e {

using namespace sensorcer;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";
};

// --- clocks -----------------------------------------------------------------

std::int64_t wall_ns();
/// Process CPU time (user + system, all threads) in seconds.
double process_cpu_s();
/// Peak resident set of this process in MiB.
double peak_rss_mb();
/// Worker pool size cap: never more threads than the host has cores.
std::size_t pool_threads(std::size_t wanted);

// --- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty input.
double quantile(std::vector<double> v, double q);
/// Median of a non-empty sample.
double median(std::vector<double> v);
/// Arithmetic mean; 0 for an empty input.
double mean(const std::vector<double>& v);

// --- deployment -------------------------------------------------------------

/// The configuration every workload starts from: kWire transport, pools no
/// wider than the host, and the LAN hop latency drawn from the seed in
/// 195-205 us (sites differ; virtual times then differ across seeds while
/// repeating exactly for one seed).
core::DeploymentConfig base_config(std::uint64_t seed);

// --- timed-phase counters ---------------------------------------------------

/// Everything a workload reads from the program's public stats at one
/// instant: the obs registry, the fabric totals and the scheduler.
struct Sample {
  obs::Snapshot obs;
  simnet::TrafficStats net;
  std::uint64_t trace_bytes = 0;
  std::uint64_t dropped = 0;
  std::uint64_t fired = 0;
  util::SimTime sim = 0;
};
Sample take_sample(core::Deployment& lab);

/// after - before of every counter, and of the fabric and scheduler totals.
struct Delta {
  Delta(const Sample& before, const Sample& after);
  [[nodiscard]] double c(const std::string& name) const;
  [[nodiscard]] double virtual_s() const;

  const Sample& before;
  const Sample& after;
  double wire_bytes = 0;
  double payload_bytes = 0;
  double header_bytes = 0;
  double trace_bytes = 0;
  double msgs = 0;
  double dropped = 0;
  double fired = 0;
};

// --- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;  // how a ratio was formed, for the human table
};

class Report {
 public:
  void e2e(std::string name, double value, std::string unit,
           std::string base = "");
  void layer(std::string name, double value, std::string unit,
             std::string base = "");
  /// Record an output check; a failed check fails the run.
  void check(bool ok, std::string_view what);
  void note(std::string line) { notes_.push_back(std::move(line)); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const { return check_failures_.empty(); }
  /// Print the tables, the notes and the final JSON line (end-to-end
  /// metrics, or per-layer ones when `trace`); returns the exit code
  /// (nonzero when any output check failed).
  int finish(bool trace) const;

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<std::string> notes_;
  std::vector<std::string> check_failures_;
  std::uint64_t checks_ = 0;
};

/// Ratio with a zero-safe denominator.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }
/// "num/den" with both parts, for the base column.
std::string base_of(double num, double den);
/// A count as an integer, for the base column.
std::string count_of(double n);

/// The per-layer counters every workload reports from one timed-phase
/// delta, normalised by `ops`.
void report_counter_layers(Report& report, const Delta& d, double ops,
                           const std::string& op_name);

/// error_rate = (failed journey ops + failed exertions) / (journey ops +
/// exertions). Every internal push is an exertion, so requeued flow frames
/// and failed feeder batches are among the failed exertions; the base
/// spells them out.
void report_error_rate(Report& report, const Delta& d, double ops,
                       double failed_ops);

// --- bench-timed probes -----------------------------------------------------

/// Median wall nanoseconds per call of `fn` over `rounds` rounds of
/// `calls` calls each.
double time_ns_per_call(std::size_t rounds, std::size_t calls,
                        const std::function<void()>& fn);

/// Inputs that shape the probes each workload times directly.
struct ProbeShapes {
  std::vector<std::string> sensors;  // registry lookup + append series names
  /// Composite timed by core.csp_collect_us. When null, the probes create
  /// an 8-leaf "Probe-Panel" composite over the first 8 `panel` sensors.
  std::shared_ptr<core::CompositeSensorProvider> composite;
  std::vector<std::string> panel;
  /// Bound slot program over 8 component variables. When empty, a weighted
  /// mean seeded from the run's seed.
  std::string expression;
};

/// Composite collection, codec round trips, registry lookups, expression
/// evaluation, probe reads and store appends timed directly (ns / us per
/// call).
void report_layer_probes(Report& report, core::Deployment& lab,
                         const ProbeShapes& shapes, std::uint64_t seed);

/// Times each of `calls` (stats / range / downsample store calls with the
/// workload's windows) and reports hist.query_us.*.
struct StoreQueries {
  std::vector<std::function<void()>> stats, range, downsample;
};
void report_store_queries(Report& report, const StoreQueries& queries);

/// hist.bytes_per_reading and hist.compression_ratio of `store`, whose
/// contents `what` describes.
void report_store_footprint(Report& report, const hist::HistorianStore& store,
                            const std::string& what);

/// A seeded weighted mean over `n` component variables: stays inside the
/// components' envelope for any inputs.
std::string weighted_mean_expression(std::size_t n, util::Rng& rng);

// --- closed loops and the traced phase ---------------------------------------

// --- set-up time --------------------------------------------------------------

/// Boots timed for setup_s on every workload. A run boots its world afresh
/// at kSetupBoots + 1 evenly spaced points of its timed phase and times
/// every boot but the first, which also pays the process's cold start. The
/// boots are spread because on the shared VM this was built on,
/// memory-bound code switches between a fast speed and one about 1.5x
/// slower, staying in one for a fraction of a second to a few seconds:
/// boots taken back to back all land in the same one.
constexpr std::size_t kSetupBoots = 9;

/// setup_s of one run from its timed boots: the median of three means, each
/// over every third boot, so each mean spans the whole run. The median of
/// the boots themselves would jump from one speed to the other whenever a
/// run spent about half its time in each.
double setup_estimate(const std::vector<double>& boot_s);

/// One closed-loop client over kSetupBoots + 1 rounds of equal wall time.
/// Each round tears the previous world down, boots a fresh one with
/// `boot()` (timed, except in the first round) and runs ops on it until the
/// round's share of `seconds` is used up: `op(i)` is one journey op (timed,
/// wall and virtual), `between(i)` runs untimed after it (e.g. sensors
/// sampling between dashboard queries). The first round runs at least
/// `window` ops; counters and virtual latencies come from those ops so they
/// repeat exactly for one seed, wall and CPU from every op of every round.
struct ClosedLoop {
  std::vector<double> wall_us;  // every op
  std::vector<double> sim_ms;   // ops of the counted window
  std::vector<double> boot_s;   // timed boots
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double elapsed_s = 0;  // ops only, boots and teardowns excluded
  double cpu_s = 0;
  Sample window_start;
  Sample window_end;
};
ClosedLoop run_closed_loop(double seconds, std::size_t window,
                           const std::function<core::Deployment&()>& boot,
                           const std::function<void()>& teardown,
                           const std::function<bool(std::uint64_t)>& op,
                           const std::function<void(std::uint64_t)>& between);

/// What a closed-loop workload reports from its untraced loop, `op` naming
/// one journey op ("read", "query"): setup_s, the end-to-end metrics of the
/// counted window (virtual latency, fabric cost, peak RSS) and the loop's
/// wall-clock costs. With `trace`, also the window's counter deltas, the
/// error rate and the flow metrics, which are 0 because no flows run there.
void report_closed_loop(Report& report, const ClosedLoop& loop,
                        std::size_t window, const std::string& op, bool trace);

/// Wall-clock metrics over a whole timed phase: `ops` journey ops named
/// `op_name` done in `elapsed_s` wall seconds using `cpu_s` process CPU;
/// `wall_us` holds one wall time per `wall_op` (the op itself, or a pumped
/// slice for the open loop). They are reported with the per-layer metrics,
/// without a regression bound: on a shared VM whole stretches of a run
/// slow by up to 2x, so their run-to-run spread exceeds any bound the
/// benchmark may set (see README.md).
void report_wall(Report& report, double ops, double elapsed_s, double cpu_s,
                 const std::vector<double>& wall_us, const std::string& op_name,
                 const std::string& wall_op);

/// Wrap `fn` in a bench span named `name` (and make it the current trace
/// context) when `on`; plain call otherwise.
template <typename F>
void traced_call(bool on, const char* name, F&& fn) {
  if (!on) {
    fn();
    return;
  }
  obs::Span span = obs::tracer().start_span(name);
  obs::ContextGuard guard(span.context());
  fn();
}

/// Runs `op(i)`, the workload's op with its bench spans on, under a root
/// "bench.op" span for `seconds` (at least `min_ops` ops). Drains the span
/// collector after every op so its ring never overwrites, and reports
/// per-layer self-time shares, the unattributed share, dropped spans and
/// the overhead against `untraced_wall_us_per_op` (mean wall of the same op
/// untraced).
/// `between(i)`, when set, runs after each op outside its span and timing;
/// the spans it records are cleared, so its background work (feeder pushes
/// during a pump) is charged to no layer.
void run_traced_phase(
    Report& report, double seconds, std::size_t min_ops,
    double untraced_wall_us_per_op,
    const std::function<void(std::uint64_t)>& op,
    const std::function<void(std::uint64_t)>& between = nullptr);

/// Seconds-deadline helper for closed loops.
struct Deadline {
  explicit Deadline(double seconds)
      : end_ns(wall_ns() + static_cast<std::int64_t>(seconds * 1e9)) {}
  [[nodiscard]] bool passed() const { return wall_ns() >= end_ns; }
  std::int64_t end_ns;
};

}  // namespace e2e
