// Ablation studies for the design choices DESIGN.md calls out: the service
// accessor's resolution cache, how 64 sensor reads are collected, and the
// lookup service's expiry-sweep period. Each knob is toggled with the rest
// of the stack held fixed.

#include <cstdio>
#include <optional>

#include "obs/metrics.h"
#include "util/strings.h"
#include "core/deployment.h"

using namespace sensorcer;

namespace {

void cache_ablation() {
  std::puts("A. ServiceAccessor resolution cache (64-sensor composite, "
            "100 reads):");
  std::vector<std::vector<std::string>> rows;
  for (bool cached : {true, false}) {
    core::DeploymentConfig config;
    config.sampling.sample_period = 0;
    core::Deployment lab(config);
    lab.accessor().set_caching(cached);
    for (int i = 0; i < 64; ++i) {
      lab.add_temperature_sensor("s" + std::to_string(i));
    }
    auto csp = lab.manager().create_composite("C");
    for (int i = 0; i < 64; ++i) {
      (void)csp->add_component("s" + std::to_string(i));
    }

    const auto lookups_before = lab.lookups()[0]->lookup_count();
    const auto hits_before =
        obs::metrics().counter("accessor.cache_hits").value();
    const auto misses_before =
        obs::metrics().counter("accessor.cache_misses").value();
    for (int read = 0; read < 100; ++read) (void)csp->get_value();
    const auto lookups = lab.lookups()[0]->lookup_count() - lookups_before;
    const auto hits =
        obs::metrics().counter("accessor.cache_hits").value() - hits_before;
    const auto misses =
        obs::metrics().counter("accessor.cache_misses").value() -
        misses_before;

    rows.push_back({cached ? "enabled" : "disabled",
                    std::to_string(lookups),
                    std::to_string(hits),
                    std::to_string(misses)});
  }
  std::puts(util::render_table(
                {"cache", "registry lookups", "cache hits", "cache misses"},
                rows)
                .c_str());
  std::puts("Without the cache every child resolution is a registry round "
            "trip; with it the steady state costs ~one validation per "
            "binding.\n");
}

void collection_ablation() {
  std::puts("B. Collecting 64 sensors, one read:");
  // Two ways a requestor collects the same 64 getValue reads: through a CSP
  // (the children are scattered by the CSP itself, in parallel or in
  // sequence), or as a job of 64 tasks the bench exerts on a rendezvous peer
  // (a Jobber pushes them, a Spacer's 4-worker crew pulls them).
  struct Case {
    const char* label;
    sorcer::Flow flow;
    std::optional<sorcer::Access> job_access;  // nullopt = read the CSP
  };
  const Case cases[] = {
      {"CSP parallel", sorcer::Flow::kParallel, std::nullopt},
      {"CSP sequential", sorcer::Flow::kSequence, std::nullopt},
      {"Jobber push (job of 64 tasks)", sorcer::Flow::kParallel,
       sorcer::Access::kPush},
      {"Spacer pull, 4 workers (job of 64 tasks)", sorcer::Flow::kParallel,
       sorcer::Access::kPull},
  };
  std::vector<std::vector<std::string>> rows;
  for (const Case& c : cases) {
    core::DeploymentConfig config;
    config.sampling.sample_period = 0;
    config.collection.flow = c.flow;
    core::Deployment lab(config);
    for (int i = 0; i < 64; ++i) {
      lab.add_temperature_sensor("s" + std::to_string(i));
    }
    sorcer::ExertionPtr read;
    if (c.job_access) {
      auto job = sorcer::Job::make("collect", {.flow = c.flow,
                                               .access = *c.job_access,
                                               .fail_fast = false});
      for (int i = 0; i < 64; ++i) {
        const std::string name = "s" + std::to_string(i);
        job->add(sorcer::Task::make(
            name, sorcer::Signature{core::kSensorDataAccessorType,
                                    core::op::kGetValue, name}));
      }
      read = job;
    } else {
      auto csp = lab.manager().create_composite("C");
      for (int i = 0; i < 64; ++i) {
        (void)csp->add_component("s" + std::to_string(i));
      }
      read = sorcer::Task::make(
          "read", sorcer::Signature{core::kSensorDataAccessorType,
                                    core::op::kGetValue, "C"});
    }
    (void)sorcer::exert(read, lab.accessor());
    rows.push_back({c.label,
                    read->status() == sorcer::ExertStatus::kDone ? "OK"
                                                                 : "FAIL",
                    util::format_duration(read->latency())});
  }
  std::puts(util::render_table({"collection", "status", "read latency"}, rows)
                .c_str());
  std::puts("Parallel collection pays one fan-out level and sequential "
            "the sum. A CSP read adds the CSP's own getValue service time; a "
            "job adds the hop to its rendezvous peer, and pull is set by the "
            "worker crew.\n");
}

void sweep_period_ablation() {
  std::puts("C. LUS expiry-sweep period (crashed service, 2s lease):");
  std::vector<std::vector<std::string>> rows;
  for (util::SimDuration sweep :
       {10 * util::kMillisecond, 100 * util::kMillisecond,
        1 * util::kSecond, 5 * util::kSecond}) {
    util::Scheduler sched;
    auto lus =
        std::make_shared<registry::LookupService>("lus", sched, nullptr, sweep);
    registry::LeaseRenewalManager lrm(sched);
    sorcer::ServiceAccessor accessor;
    accessor.add_lookup(lus);

    auto victim = std::make_shared<sorcer::Tasker>("Victim");
    victim->add_operation("noop", [](sorcer::ServiceContext&) {
      return util::Status::ok();
    });
    (void)victim->join(lus, lrm, 2 * util::kSecond);
    victim->crash();
    const util::SimTime crashed_at = sched.now();

    util::SimDuration disposal = -1;
    while (sched.now() - crashed_at < 60 * util::kSecond) {
      sched.run_for(util::kMillisecond);
      if (!lus->contains(victim->service_id())) {
        disposal = sched.now() - crashed_at;
        break;
      }
    }
    // Sweep-timer firings over a fixed horizon measure the idle overhead.
    const auto fired_before = sched.fired_count();
    sched.run_for(60 * util::kSecond);
    const auto sweeps_per_min = sched.fired_count() - fired_before;

    rows.push_back({util::format_duration(sweep),
                    util::format_duration(disposal),
                    std::to_string(sweeps_per_min)});
  }
  std::puts(util::render_table(
                {"sweep period", "disposal latency", "sweeps per minute"},
                rows)
                .c_str());
  std::puts("Disposal latency = lease remainder rounded up to the next "
            "sweep; shorter sweeps buy freshness with idle work. 100ms (the "
            "default) adds at most 5% to a 2s lease.");
}

}  // namespace

int main() {
  std::puts("=== Ablations: accessor cache / collection path / "
            "sweep period ===\n");
  cache_ablation();
  collection_ablation();
  sweep_period_ablation();
  return 0;
}
