// read_fanout: one closed-loop client reading a two-level composite tree
// through the façade — Root over 4 group CSPs x 8 temperature ESPs, one
// group carrying a seeded compute expression. CSP freshness is 0 and
// background sampling is off, so every read pays the full federated
// fan-out while the historian and flows are not deployed at all.

#include <cmath>
#include <cstdio>
#include <memory>

#include "sensor/probe.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr std::size_t kGroups = 4;
constexpr std::size_t kLeaves = 8;
constexpr std::size_t kWindow = 1024;  // counted ops (see run_closed_loop)

struct World {
  std::unique_ptr<core::Deployment> lab;
  std::shared_ptr<core::CompositeSensorProvider> root;
  std::vector<std::string> groups;
  std::vector<std::string> sensors;
  std::vector<std::vector<std::shared_ptr<core::ElementarySensorProvider>>>
      leaves;
  std::string expression;
  std::size_t expression_group = 0;
};

std::unique_ptr<World> build(std::uint64_t seed) {
  auto w = std::make_unique<World>();
  util::Rng rng(seed);
  core::DeploymentConfig config = base_config(seed);
  config.sampling.sample_period = 0;  // on-demand probe reads only
  config.collection.freshness = 0;    // every read re-collects
  config.with_historian = false;
  config.with_flow = false;
  w->lab = std::make_unique<core::Deployment>(config);
  auto& lab = *w->lab;
  w->leaves.resize(kGroups);
  for (std::size_t g = 0; g < kGroups; ++g) {
    for (std::size_t i = 0; i < kLeaves; ++i) {
      const std::string name =
          "G" + std::to_string(g) + "-T" + std::to_string(i);
      w->leaves[g].push_back(lab.add_sensor(
          name, sensor::make_temperature_probe(name, seed * 1000 + g * 64 + i,
                                               rng.uniform(18.0, 26.0))));
      w->sensors.push_back(name);
    }
  }
  lab.pump(util::kSecond);
  for (std::size_t g = 0; g < kGroups; ++g) {
    const std::string group = "Group-" + std::to_string(g);
    auto csp = lab.manager().create_composite(group);
    for (const auto& esp : w->leaves[g]) {
      (void)csp->add_component(esp->provider_name());
    }
    w->groups.push_back(group);
  }
  w->expression_group = rng.below(kGroups);
  w->expression = weighted_mean_expression(kLeaves, rng);
  (void)lab.facade().add_expression(w->groups[w->expression_group],
                                    w->expression);
  w->root = lab.manager().create_composite("Root");
  for (const auto& group : w->groups) (void)w->root->add_component(group);
  lab.pump(util::kSecond);
  // Warm the accessor caches and the intern tables before timing.
  for (int i = 0; i < 8; ++i) {
    (void)lab.facade().get_value("Root");
    (void)lab.facade().get_values(w->groups);
  }
  return w;
}

/// [min, max] of the values the leaves just contributed (each fan-out read
/// logs the probe reading it returned).
std::pair<double, double> envelope(
    const std::vector<std::shared_ptr<core::ElementarySensorProvider>>& leaves,
    std::pair<double, double> acc) {
  for (const auto& esp : leaves) {
    const double v = esp->log().latest().value;
    acc.first = std::min(acc.first, v);
    acc.second = std::max(acc.second, v);
  }
  return acc;
}

bool inside(double v, std::pair<double, double> env) {
  const double slack = 1e-9 * (std::fabs(env.first) + std::fabs(env.second));
  return std::isfinite(v) && v >= env.first - slack && v <= env.second + slack;
}

/// One read; even ops read Root, odd ops read every group in one batch.
bool read_op(World& w, Report& report, std::uint64_t i, bool traced) {
  auto& facade = w.lab->facade();
  bool ok = true;
  const std::pair<double, double> empty{INFINITY, -INFINITY};
  if (i % 2 == 0) {
    util::Result<double> value = util::Status{};
    traced_call(traced, "bench.core.get_value",
                [&] { value = facade.get_value("Root"); });
    std::pair<double, double> env = empty;
    for (const auto& group : w.leaves) env = envelope(group, env);
    ok = value.is_ok() && inside(value.value(), env);
    report.check(ok, "get_value(Root) failed or left the leaf envelope");
  } else {
    std::vector<util::Result<double>> values;
    traced_call(traced, "bench.core.get_values",
                [&] { values = facade.get_values(w.groups); });
    ok = values.size() == w.groups.size();
    for (std::size_t g = 0; ok && g < values.size(); ++g) {
      ok = values[g].is_ok() &&
           inside(values[g].value(), envelope(w.leaves[g], empty));
    }
    report.check(ok, "get_values(groups) failed or left a group envelope");
  }
  return ok;
}

}  // namespace

int run_read_fanout(const Args& args) {
  Report report;
  // Trace runs split the time: untraced half for counters and the overhead
  // baseline, traced half for self times.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  std::unique_ptr<World> world;
  ClosedLoop loop = run_closed_loop(
      untraced_s, kWindow,
      [&]() -> core::Deployment& {
        world = build(args.seed);
        return *world->lab;
      },
      [&] { world.reset(); },
      [&](std::uint64_t i) { return read_op(*world, report, i, false); },
      [](std::uint64_t) {});
  World& w = *world;
  std::printf("workload read_fanout: %zu groups x %zu ESPs under Root, "
              "expression on %s: %s, hop latency %lld us\n",
              kGroups, kLeaves, w.groups[w.expression_group].c_str(),
              w.expression.c_str(),
              static_cast<long long>(w.lab->network().latency()));
  report_closed_loop(report, loop, kWindow, "read", args.trace);

  if (args.trace) {
    ProbeShapes shapes;
    shapes.sensors = w.sensors;
    shapes.composite = w.root;  // the 32-leaf fan-out, called directly
    shapes.expression = w.expression;
    report_layer_probes(report, *w.lab, shapes, args.seed);
    // hist: the store calls a dashboard would make over the readings this
    // run's reads logged (no historian is deployed here).
    hist::HistorianStore store;
    for (const auto& group : w.leaves) {
      for (const auto& esp : group) {
        (void)store.append(esp->provider_name(), esp->log().snapshot());
      }
    }
    const util::SimTime now = w.lab->now();
    StoreQueries q;
    for (const auto& name : w.sensors) {
      q.stats.push_back([&store, name, now] {
        (void)store.stats(name, 0, now, 60 * util::kSecond);
      });
      q.range.push_back([&store, name, now] {
        (void)store.range(name, now - 60 * util::kSecond, now, 1024);
      });
      q.downsample.push_back(
          [&store, name, now] { (void)store.downsample(name, 0, now, 64); });
    }
    report_store_queries(report, q);
    report_store_footprint(report, store, "scratch store of the logged reads");
    run_traced_phase(
        report, args.seconds / 2, 256, mean(loop.wall_us),
        [&](std::uint64_t i) { (void)read_op(w, report, i, true); });
  }
  return report.finish(args.trace);
}

}  // namespace e2e
