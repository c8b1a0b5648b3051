// Experiment CLM-4 (§IV.C, §VII): "Fault tolerance achieved by dynamically
// allocating the service to a different compute node (cyber node), if the
// original node fails."
//
// Kills the cybernode hosting a provisioned sensor composite and measures
// the virtual-time gap until the replacement instance is discoverable again
// (recovery time), sweeping fleet size and monitor poll period. Also runs a
// sustained failure storm and reports availability. Expected shape:
// recovery ~ poll period + activation cost, independent of fleet size (as
// long as spare capacity exists); availability degrades gracefully with
// failure rate.
//
// `bench_failover smoke` runs only the partition-driven failover table and
// exits nonzero when any partition is not re-provisioned within the monitor
// poll period plus 50 ms.

#include <cstdio>
#include <string>

#include "util/strings.h"
#include "core/deployment.h"
#include "util/stats.h"

using namespace sensorcer;

namespace {

bool discoverable(core::Deployment& lab, const std::string& name) {
  return lab.facade().service_information(name).is_ok();
}

/// One kill-and-recover cycle; returns virtual recovery time in ms.
double measure_recovery(std::size_t fleet, util::SimDuration poll) {
  core::DeploymentConfig config;
  config.cybernodes = fleet;
  config.lease_duration = 2 * util::kSecond;
  config.monitor.poll_period = poll;
  core::Deployment lab(config);
  lab.add_temperature_sensor("S1");
  (void)lab.facade().create_service("Victim");
  lab.pump(util::kSecond);
  if (!discoverable(lab, "Victim")) return -1;

  for (const auto& node : lab.cybernodes()) {
    if (node->hosted_count() > 0) node->fail();
  }
  const util::SimTime failed_at = lab.now();
  // Step until the replacement is discoverable.
  while (lab.now() - failed_at < 60 * util::kSecond) {
    lab.pump(10 * util::kMillisecond);
    if (discoverable(lab, "Victim") &&
        lab.monitor().reprovision_count() > 0) {
      return static_cast<double>(lab.now() - failed_at) / util::kMillisecond;
    }
  }
  return -1;
}

/// The node stays alive but a partition severs it from the monitor — only
/// the liveness ping over the fabric can notice. Measures the virtual-time
/// gap from partition to re-provision per monitor poll period; returns
/// false when a row misses poll + 50 ms.
bool run_partition_failover() {
  constexpr util::SimDuration kSlack = 50 * util::kMillisecond;
  std::puts("Partition-driven failover (ping detection):");
  std::vector<std::vector<std::string>> rows;
  bool within = true;
  for (util::SimDuration poll :
       {250 * util::kMillisecond, 1 * util::kSecond, 4 * util::kSecond}) {
    core::DeploymentConfig config;
    config.cybernodes = 4;
    config.lease_duration = 2 * util::kSecond;
    config.monitor.poll_period = poll;
    core::Deployment lab(config);
    lab.add_temperature_sensor("S1");
    (void)lab.facade().create_service("Cutoff");
    lab.pump(util::kSecond);

    for (const auto& node : lab.cybernodes()) {
      if (node->hosted_count() > 0) {
        lab.network().partition(lab.invoker().address(),
                                node->network_address());
      }
    }
    const auto before = lab.monitor().reprovision_count();
    const util::SimTime cut_at = lab.now();
    util::SimDuration detect = -1;
    while (lab.now() - cut_at < 60 * util::kSecond) {
      lab.pump(10 * util::kMillisecond);
      if (lab.monitor().reprovision_count() > before) {
        detect = lab.now() - cut_at;
        break;
      }
    }
    if (detect < 0 || detect > poll + kSlack) within = false;
    rows.push_back(
        {util::format_duration(poll),
         detect < 0 ? "NOT REPROVISIONED"
                    : util::format("%.0f ms", static_cast<double>(detect) /
                                                  util::kMillisecond)});
  }
  std::puts(util::render_table({"monitor poll", "partition -> re-provision"},
                               rows)
                .c_str());
  return within;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "smoke") {
    if (!run_partition_failover()) {
      std::puts("FAILED: a partition was not re-provisioned within the "
                "monitor poll + 50 ms");
      return 1;
    }
    std::puts("smoke OK: every partition re-provisioned within poll + 50 ms");
    return 0;
  }
  std::puts("=== CLM-4: Rio failover — recovery after cybernode death ===\n");

  std::vector<std::vector<std::string>> rows;
  for (std::size_t fleet : {2u, 4u, 8u}) {
    for (util::SimDuration poll :
         {250 * util::kMillisecond, 1 * util::kSecond, 4 * util::kSecond}) {
      const double recovery = measure_recovery(fleet, poll);
      rows.push_back({std::to_string(fleet), util::format_duration(poll),
                      recovery < 0 ? "NOT RECOVERED"
                                   : util::format("%.0f ms", recovery)});
    }
  }
  std::puts(util::render_table({"cybernodes", "monitor poll",
                                "virtual recovery time"},
                               rows)
                .c_str());

  // Failure storm: kill a random hosting node every 20s for 5 virtual
  // minutes; sample availability each second.
  std::puts("Failure storm (kill a hosting node every 20s, 5 virtual min):");
  core::DeploymentConfig config;
  config.cybernodes = 4;
  config.lease_duration = 2 * util::kSecond;
  core::Deployment lab(config);
  lab.add_temperature_sensor("S1");
  (void)lab.facade().create_service("Survivor");
  lab.pump(util::kSecond);

  std::size_t up = 0, samples = 0, kills = 0;
  util::Rng rng(11);
  for (int second = 0; second < 300; ++second) {
    if (second > 0 && second % 20 == 0) {
      // Revive one dead node (so capacity persists), then kill the host.
      for (const auto& node : lab.cybernodes()) {
        if (!node->is_alive()) {
          node->restart();
          for (const auto& lus : lab.lookups()) {
            (void)node->join(lus, lab.lease_renewal(),
                             config.lease_duration);
          }
          break;
        }
      }
      for (const auto& node : lab.cybernodes()) {
        if (node->is_alive() && node->hosted_count() > 0) {
          node->fail();
          ++kills;
          break;
        }
      }
    }
    lab.pump(util::kSecond);
    ++samples;
    if (discoverable(lab, "Survivor")) ++up;
  }
  std::printf("kills: %zu   reprovisions: %llu   availability: %.1f%%\n",
              kills,
              static_cast<unsigned long long>(
                  lab.monitor().reprovision_count()),
              100.0 * static_cast<double>(up) /
                  static_cast<double>(samples));
  std::puts("");
  (void)run_partition_failover();

  std::puts("\nExpected shape: recovery ≈ poll period + activation cost, "
            "independent of fleet size; availability stays high under "
            "periodic failures because the monitor restores the plan; "
            "partition detection tracks the poll period (the ping deadline "
            "is small against it).");
  return 0;
}
