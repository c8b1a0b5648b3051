// Experiment CLM-7 (§V.B): "CSP's ability to contain other CSPs makes
// logical sensor networking possible ... the semantics of network management
// in SenSORCER is reduced to the management of a single CSP."
//
// Builds balanced composite trees over zero-noise sensors, sweeps depth and
// fan-out, checks the root value against the analytic oracle, and measures
// the modeled read latency for parallel versus sequential child collection.
// Expected shape: parallel collection cost grows with depth (one fan-out
// level at a time), sequential with the full leaf count; values are exact.
//
// `bench_composite_tree smoke` prints the same table and exits nonzero
// unless the root value is exact at every shape, the parallel read at the
// widest fan-out of each depth costs at most 1.25x the read at fan-out 2,
// and the sequential read costs at least the parallel read everywhere.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "util/strings.h"
#include "core/deployment.h"

using namespace sensorcer;

namespace {

/// Builds a `depth`-level tree with `fanout` children per composite; leaves
/// are zero-noise sensors with base values 10, 11, 12, ... Every composite is
/// a managed service (endpoint on the fabric, registered on every lookup
/// service), so each collection crosses the wire. Returns the number of
/// leaves.
std::size_t build_tree(core::Deployment& lab, const std::string& name,
                       std::size_t depth, std::size_t fanout,
                       std::size_t& leaf_counter) {
  auto composite = lab.manager().create_composite(name);
  std::size_t leaves = 0;
  for (std::size_t i = 0; i < fanout; ++i) {
    if (depth == 1) {
      const std::size_t leaf = leaf_counter++;
      sensor::SignalModel model;
      model.base = 10.0 + static_cast<double>(leaf);
      model.amplitude = 0.0;
      model.noise_stddev = 0.0;
      sensor::Teds teds{sensor::SensorKind::kTemperature, "bench", "zero",
                        std::to_string(leaf), -1e6, 1e6, 0.1, 0};
      const std::string leaf_name = "leaf-" + std::to_string(leaf);
      lab.add_sensor(leaf_name,
                     std::make_unique<sensor::SimulatedProbe>(
                         sensor::SimulatedDevice{teds, model, leaf + 1}));
      (void)composite->add_component(leaf_name);
      ++leaves;
    } else {
      const std::string child = name + "." + std::to_string(i);
      leaves += build_tree(lab, child, depth - 1, fanout, leaf_counter);
      (void)composite->add_component(child);
    }
  }
  return leaves;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "smoke";
  std::puts("=== CLM-7: nested composite aggregation trees ===\n");
  std::vector<std::vector<std::string>> rows;
  bool exact = true;
  bool sequential_dominates = true;
  // depth -> fan-out -> parallel read latency (ms).
  std::map<std::size_t, std::map<std::size_t, double>> parallel_ms;
  for (std::size_t depth : {1u, 2u, 3u, 4u}) {
    for (std::size_t fanout : {2u, 4u, 8u}) {
      if (std::pow(static_cast<double>(fanout),
                   static_cast<double>(depth)) > 600) {
        continue;
      }
      double latencies[2];
      double values[2];
      std::size_t leaves = 0;
      for (sorcer::Flow flow :
           {sorcer::Flow::kParallel, sorcer::Flow::kSequence}) {
        core::DeploymentConfig config;
        config.sampling.sample_period = 0;  // on-demand reads only
        config.collection.flow = flow;
        core::Deployment lab(config);
        std::size_t counter = 0;
        leaves = build_tree(lab, "root", depth, fanout, counter);

        auto task = sorcer::Task::make(
            "read", sorcer::Signature{core::kSensorDataAccessorType,
                                      core::op::kGetValue, "root"});
        (void)sorcer::exert(task, lab.accessor());
        if (task->status() != sorcer::ExertStatus::kDone) {
          std::printf("FAILED: %s\n", task->error().to_string().c_str());
          return 1;
        }
        const int i = flow == sorcer::Flow::kParallel ? 0 : 1;
        values[i] = task->context().get_double(core::path::kValue).value_or(-1);
        latencies[i] =
            static_cast<double>(task->latency()) / util::kMillisecond;
      }
      // Oracle: average of averages over equal-size subtrees = global mean
      // of leaf bases 10..10+leaves-1.
      const double oracle =
          10.0 + static_cast<double>(leaves - 1) / 2.0;
      const bool shape_exact = std::fabs(values[0] - oracle) < 1e-9 &&
                               std::fabs(values[1] - oracle) < 1e-9;
      exact = exact && shape_exact;
      sequential_dominates =
          sequential_dominates && latencies[1] >= latencies[0];
      parallel_ms[depth][fanout] = latencies[0];
      rows.push_back({std::to_string(depth), std::to_string(fanout),
                      std::to_string(leaves),
                      util::format("%.3f", values[0]),
                      shape_exact ? "exact" : "WRONG",
                      util::format("%.1f ms", latencies[0]),
                      util::format("%.1f ms", latencies[1])});
    }
  }
  std::puts(util::render_table({"depth", "fanout", "leaves", "root value",
                                "vs oracle", "parallel read", "sequential read"},
                               rows)
                .c_str());
  std::puts("Expected shape: root value exactly the leaf mean at every shape; "
            "parallel read cost grows with depth, sequential with leaf count.");
  if (!smoke) return 0;

  // Depth-only growth: widening a level must not cost more than a quarter
  // of the narrowest tree's read at the same depth.
  bool depth_only = true;
  for (const auto& [depth, by_fanout] : parallel_ms) {
    const double narrow = by_fanout.begin()->second;
    const auto& [widest, wide] = *by_fanout.rbegin();
    if (wide > 1.25 * narrow) {
      std::printf("FAILED: depth %zu parallel read %.1f ms at fan-out %zu > "
                  "1.25x %.1f ms at fan-out %zu\n",
                  depth, wide, widest, narrow, by_fanout.begin()->first);
      depth_only = false;
    }
  }
  if (!exact) std::puts("FAILED: a root value differs from the leaf mean");
  if (!sequential_dominates) {
    std::puts("FAILED: a sequential read cost less than the parallel read");
  }
  if (!exact || !depth_only || !sequential_dominates) return 1;
  std::puts("smoke OK: exact at every shape; parallel read within 1.25x of "
            "fan-out 2 at each depth; sequential >= parallel");
  return 0;
}
