// Read-path benchmarks — the perf trajectory of the serving loop the north
// star hammers: Façade getValue → CSP sensor computation → fan-out to the
// composed ESPs.
//
//   * cold reads: every read pays a full fan-out (freshness 0) — the CSP
//     scatters its children as one batch on the fabric;
//   * warm reads: reads inside the freshness window answer from the cached
//     collection — expected ≥10× cheaper than cold;
//   * coalesced reads: N concurrent readers share one in-flight fan-out
//     (single-flight), measured with google-benchmark's thread mode;
//   * expression evaluation: tree-walking interpreter (shared and
//     per-read-environment variants, the old read path) vs the
//     slot-compiled program (the new one).
//
// Run through scripts/run_bench.sh to land the JSON in BENCH_read_path.json.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "expr/compiled.h"
#include "expr/evaluator.h"

using namespace sensorcer;

namespace {

/// A deployment with `fanout` flat temperature ESPs composed into one CSP.
struct ReadLab {
  ReadLab(std::size_t fanout, util::SimDuration freshness) {
    core::DeploymentConfig config;
    config.sampling.sample_period = 0;  // on-demand probe reads only
    config.collection.freshness = freshness;
    lab = std::make_unique<core::Deployment>(config);
    for (std::size_t i = 0; i < fanout; ++i) {
      lab->add_temperature_sensor("S" + std::to_string(i),
                                  20.0 + static_cast<double>(i));
    }
    lab->pump(util::kSecond);
    csp = lab->manager().create_composite("C");
    for (std::size_t i = 0; i < fanout; ++i) {
      (void)csp->add_component("S" + std::to_string(i));
    }
  }

  std::unique_ptr<core::Deployment> lab;
  std::shared_ptr<core::CompositeSensorProvider> csp;
};

// --- cold vs warm ------------------------------------------------------------

void BM_ColdRead(benchmark::State& state) {
  ReadLab lab(static_cast<std::size_t>(state.range(0)), /*freshness=*/0);
  for (auto _ : state) {
    auto v = lab.csp->get_value();
    benchmark::DoNotOptimize(v);
  }
  state.counters["sim_latency_us"] =
      static_cast<double>(lab.csp->last_collection_latency());
}
BENCHMARK(BM_ColdRead)->RangeMultiplier(4)->Range(2, 32);

void BM_WarmRead(benchmark::State& state) {
  // Virtual time stands still inside the loop, so after the first fan-out
  // every read lands inside the freshness window.
  ReadLab lab(static_cast<std::size_t>(state.range(0)),
              /*freshness=*/util::kSecond);
  (void)lab.csp->get_value();  // warm the cache
  for (auto _ : state) {
    auto v = lab.csp->get_value();
    benchmark::DoNotOptimize(v);
  }
  state.counters["sim_latency_us"] =
      static_cast<double>(lab.csp->last_collection_latency());
}
BENCHMARK(BM_WarmRead)->RangeMultiplier(4)->Range(2, 32);

// --- coalesced concurrent reads ----------------------------------------------

void BM_CoalescedRead(benchmark::State& state) {
  // Shared across the benchmark's reader threads; freshness 0 means every
  // round needs a real collection, so throughput beyond one reader comes
  // from single-flight coalescing alone.
  static ReadLab* lab = nullptr;
  if (state.thread_index() == 0) {
    delete lab;
    lab = new ReadLab(16, /*freshness=*/0);
  }
  for (auto _ : state) {
    auto v = lab->csp->get_value();
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_CoalescedRead)->Threads(1)->Threads(4)->Threads(8);

// --- expression evaluation: tree-walk vs slot-compiled -----------------------

std::string average_expression(std::size_t n) {
  std::string out = "(";
  for (std::size_t i = 0; i < n; ++i) {
    if (i) out += " + ";
    out += core::component_variable_name(i);
  }
  out += ") / " + std::to_string(n);
  return out;
}

std::string mixed_expression(std::size_t n) {
  std::string out = "0";
  for (std::size_t i = 0; i < n; ++i) {
    const std::string v = core::component_variable_name(i);
    out = "max(" + out + ", " + v + " * 1.5 - min(" + v + ", 2) ^ 2) + (" +
          v + " > 0 ? " + v + " : 0)";
  }
  return out;
}

std::vector<std::string> slot_names(std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(core::component_variable_name(i));
  }
  return out;
}

template <std::string (*MakeExpr)(std::size_t)>
void BM_TreeWalkSharedEnv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto compiled = expr::Expression::compile(MakeExpr(n));
  expr::Environment env;
  const auto vars = slot_names(n);
  std::vector<double> values(n, 21.0);
  for (auto _ : state) {
    values[0] += 0.001;
    for (std::size_t i = 0; i < n; ++i) env.set(vars[i], values[i]);
    auto v = compiled.value().evaluate(env);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_TreeWalkSharedEnv<average_expression>)
    ->RangeMultiplier(4)
    ->Range(2, 32);
BENCHMARK(BM_TreeWalkSharedEnv<mixed_expression>)
    ->RangeMultiplier(4)
    ->Range(2, 32);

template <std::string (*MakeExpr)(std::size_t)>
void BM_TreeWalkFreshEnv(benchmark::State& state) {
  // What the pre-optimization read path actually did: a fresh Environment
  // (including its builtin table) per read.
  const auto n = static_cast<std::size_t>(state.range(0));
  auto compiled = expr::Expression::compile(MakeExpr(n));
  const auto vars = slot_names(n);
  std::vector<double> values(n, 21.0);
  for (auto _ : state) {
    values[0] += 0.001;
    expr::Environment env;
    for (std::size_t i = 0; i < n; ++i) env.set(vars[i], values[i]);
    auto v = compiled.value().evaluate(env);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_TreeWalkFreshEnv<average_expression>)
    ->RangeMultiplier(4)
    ->Range(2, 32);
BENCHMARK(BM_TreeWalkFreshEnv<mixed_expression>)
    ->RangeMultiplier(4)
    ->Range(2, 32);

template <std::string (*MakeExpr)(std::size_t)>
void BM_SlotCompiled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto compiled = expr::Expression::compile(MakeExpr(n));
  auto program = compiled.value().bind(slot_names(n));
  std::vector<double> values(n, 21.0);
  for (auto _ : state) {
    values[0] += 0.001;
    auto v = program.value().evaluate(values);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_SlotCompiled<average_expression>)
    ->RangeMultiplier(4)
    ->Range(2, 32);
BENCHMARK(BM_SlotCompiled<mixed_expression>)->RangeMultiplier(4)->Range(2, 32);

}  // namespace

BENCHMARK_MAIN();
