// Experiment CLM-3 (§IV.B): "This mechanism of leasing keeps the sensor
// network healthy and robust ... the existing services that are disabled are
// automatically disposed from the sensor network."
//
// Simulates a churning population of sensor services: services join, live
// for a random time, then either leave cleanly or crash (stop renewing).
// Each lease duration is run twice: with the real LeaseRenewalManager's
// per-(shard, half-life) renewAll batches, and with PerLeaseRenewer below, the
// baseline batching replaced (one timer and one renewal message per lease).
// Sweeps the lease duration and reports, per setting: how long crashed
// services lingered as stale registry entries (detection latency), and the
// renewal traffic paid for freshness in both modes. Expected shape: stale
// time ~ lease duration (bounded by lease + sweep), individual renewal
// message rate ~ 1/duration, and batching collapses that by >= 10x at CLM-3
// scale while converging to the identical final population.
//
// `bench_lease_churn smoke` runs only the harshest setting (300 services,
// 1s leases) and exits nonzero unless the >= 10x message reduction and the
// convergence equivalence both hold — CI's renewal-traffic regression gate.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "obs/metrics.h"
#include "registry/lease_renewal.h"
#include "registry/lookup.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace sensorcer;
using registry::LookupService;

namespace {

class NullProxy : public registry::ServiceProxy {};

/// The per-lease renewal baseline: one scheduler timer per lease at its
/// half-life, each firing one renew_lease message. A refused renewal lets
/// the lease lapse.
class PerLeaseRenewer {
 public:
  PerLeaseRenewer(util::Scheduler& sched, LookupService& lus)
      : sched_(sched), lus_(lus) {}
  ~PerLeaseRenewer() {
    for (auto& [id, timer] : timers_) sched_.cancel(timer);
  }

  void manage(const util::Uuid& id, util::SimDuration duration) {
    const util::SimDuration half =
        std::max<util::SimDuration>(duration / 2, util::kMillisecond);
    timers_[id] = sched_.schedule_after(half, [this, id, duration] {
      timers_.erase(id);
      if (lus_.renew_lease(id, duration).is_ok()) manage(id, duration);
    });
  }

  void release(const util::Uuid& id) {
    if (auto it = timers_.find(id); it != timers_.end()) {
      sched_.cancel(it->second);
      timers_.erase(it);
    }
  }

  void cancel(const util::Uuid& id) {
    if (!timers_.contains(id)) return;
    (void)lus_.cancel_lease(id);
    release(id);
  }

 private:
  util::Scheduler& sched_;
  LookupService& lus_;
  std::unordered_map<util::Uuid, util::TimerId> timers_;
};

registry::ServiceItem make_item(const std::string& name) {
  registry::ServiceItem item;
  item.id = util::new_uuid();
  item.proxy = std::make_shared<NullProxy>();
  item.types = {"Servicer", "SensorDataAccessor"};
  item.attributes.set(registry::attr::kName, name);
  return item;
}

struct ChurnResult {
  double stale_mean = 0.0;  // crash -> disposed (seconds)
  double stale_max = 0.0;
  std::uint64_t renewal_msgs = 0;  // wire messages carrying renewals
  std::size_t final_population = 0;
  std::size_t expected_population = 0;
};

ChurnResult run_churn(util::SimDuration lease, bool batched) {
  util::Scheduler sched;
  auto lus = std::make_shared<LookupService>("lus", sched);
  // Renewals snap to the lease's half-life grid: every renewal falling due
  // within half a lease rides the same per-shard renewAll message.
  registry::LeaseRenewalManager lrm(sched);
  PerLeaseRenewer individual(sched, *lus);
  const auto manage = [&](const registry::Lease& l) {
    batched ? lrm.manage(l, lus, lease) : individual.manage(l.id, lease);
  };
  const auto release = [&](const util::Uuid& id) {
    batched ? lrm.release(id) : individual.release(id);
  };
  const auto cancel = [&](const util::Uuid& id) {
    batched ? lrm.cancel(id) : individual.cancel(id);
  };
  // Same seed in both modes: identical fates, so the final populations are
  // directly comparable (the convergence-equivalence half of the CI gate).
  util::Rng rng(static_cast<std::uint64_t>(lease) * 7919 + 1);

  ChurnResult result;
  // The LUS counts per-lease renewals in the global obs registry; in
  // individual mode each renewal is one wire message, so the delta is the
  // message count. Batched mode counts renewAll messages at the LRM.
  obs::Counter& renewals = obs::metrics().counter("registry.renewals");
  const std::uint64_t renewals_before = renewals.value();
  // Stale-time distribution straight into an obs histogram (sum/mean/max are
  // exact; bounds in seconds).
  obs::Registry run_metrics;
  obs::Histogram& stale = run_metrics.histogram(
      "lease.stale_seconds", {0.5, 1, 2, 5, 10, 20, 40, 80, 160});
  struct Crashed {
    registry::ServiceId id;
    util::SimTime crashed_at;
  };
  std::vector<Crashed> crashed;

  // Watch disposals to time stale entries.
  lus->notify(
      registry::ServiceTemplate{},
      static_cast<unsigned>(registry::Transition::kMatchToNoMatch),
      [&](const registry::ServiceEvent& ev) {
        for (auto it = crashed.begin(); it != crashed.end(); ++it) {
          if (it->id == ev.item.id) {
            stale.observe(static_cast<double>(ev.timestamp - it->crashed_at) /
                          util::kSecond);
            crashed.erase(it);
            return;
          }
        }
      },
      3600 * util::kSecond);

  constexpr int kServices = 300;
  std::size_t alive_forever = 0;
  for (int i = 0; i < kServices; ++i) {
    auto reg =
        lus->register_service(make_item("s" + std::to_string(i)), lease);
    manage(reg.lease);

    // Fate: 60% crash at a random time, 20% leave cleanly, 20% live on.
    const double fate = rng.next_double();
    const auto lifetime = static_cast<util::SimDuration>(
        rng.between(1, 60)) * util::kSecond;
    const auto lease_id = reg.lease.id;
    if (fate < 0.6) {
      // Crash: renewals stop (release), the stale entry lingers until the
      // lease runs out. Mark for stale-time measurement.
      sched.schedule_at(sched.now() + lifetime,
                        [&crashed, &release, &sched, lease_id,
                         id = reg.service_id] {
                          release(lease_id);
                          crashed.push_back({id, sched.now()});
                        });
    } else if (fate < 0.8) {
      // Clean leave: cancel at the LUS immediately at end of life.
      sched.schedule_at(sched.now() + lifetime,
                        [&cancel, lease_id] { cancel(lease_id); });
    } else {
      ++alive_forever;
    }
    sched.run_for(100 * util::kMillisecond);  // staggered joins
  }

  sched.run_for(120 * util::kSecond);  // all lifetimes + leases settle
  result.stale_mean = stale.mean();
  result.stale_max = stale.max();
  result.renewal_msgs =
      batched ? lrm.batches_sent() : renewals.value() - renewals_before;
  result.final_population = lus->service_count();
  result.expected_population = alive_forever;
  return result;
}

int run_sweep() {
  std::puts("=== CLM-3: leasing keeps the network healthy (§IV.B) ===\n");
  std::puts("300 services; 60% crash, 20% leave cleanly, 20% stay; "
            "virtual-time simulation.");
  std::puts("Renewals via LeaseRenewalManager: individual = one message per "
            "lease renewal; batched = one renewAll per (shard, half-life "
            "window).\n");
  std::vector<std::vector<std::string>> rows;
  for (util::SimDuration lease :
       {1 * util::kSecond, 2 * util::kSecond, 5 * util::kSecond,
        10 * util::kSecond, 30 * util::kSecond}) {
    const ChurnResult indiv = run_churn(lease, /*batched=*/false);
    const ChurnResult batch = run_churn(lease, /*batched=*/true);
    rows.push_back({
        util::format_duration(lease),
        util::format("%.2fs", batch.stale_mean),
        util::format("%.2fs", batch.stale_max),
        std::to_string(indiv.renewal_msgs),
        std::to_string(batch.renewal_msgs),
        util::format("%.1fx", batch.renewal_msgs == 0
                                  ? 0.0
                                  : static_cast<double>(indiv.renewal_msgs) /
                                        static_cast<double>(
                                            batch.renewal_msgs)),
        util::format("%zu / %zu", batch.final_population,
                     batch.expected_population),
    });
  }
  std::puts(util::render_table({"lease", "mean stale", "max stale",
                                "msgs indiv", "msgs batched", "reduction",
                                "final pop (got/want)"},
                               rows)
                .c_str());
  std::puts("Expected shape: stale window grows with lease duration; renewal "
            "traffic shrinks with it; batching cuts messages by an order of "
            "magnitude on top; the registry always converges to exactly the "
            "still-alive population (self-healing).");
  return 0;
}

int run_smoke() {
  // CI gate at CLM-3's harshest point: 300 services renewing 1s leases.
  const util::SimDuration lease = 1 * util::kSecond;
  const ChurnResult indiv = run_churn(lease, /*batched=*/false);
  const ChurnResult batch = run_churn(lease, /*batched=*/true);
  const double reduction =
      batch.renewal_msgs == 0
          ? 0.0
          : static_cast<double>(indiv.renewal_msgs) /
                static_cast<double>(batch.renewal_msgs);
  std::printf("smoke: 300 services, 1s leases: %llu individual msgs, "
              "%llu batched msgs (%.1fx reduction)\n",
              static_cast<unsigned long long>(indiv.renewal_msgs),
              static_cast<unsigned long long>(batch.renewal_msgs), reduction);
  std::printf("smoke: convergence individual %zu/%zu, batched %zu/%zu\n",
              indiv.final_population, indiv.expected_population,
              batch.final_population, batch.expected_population);
  bool ok = true;
  if (reduction < 10.0) {
    std::puts("FAIL: batched renewal must send >= 10x fewer messages");
    ok = false;
  }
  if (indiv.final_population != indiv.expected_population ||
      batch.final_population != batch.expected_population) {
    std::puts("FAIL: both modes must converge to the still-alive population");
    ok = false;
  }
  std::puts(ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "smoke") == 0) return run_smoke();
  return run_sweep();
}
