// Tests for the chaos harness: seeded schedule generation, workload
// provisioning, and the acceptance run — a 100-provider deployment under a
// full fault schedule converges with every invariant intact.

#include <gtest/gtest.h>

#include <set>

#include "chaos/orchestrator.h"
#include "chaos/schedule.h"
#include "core/deployment.h"
#include "hist/store.h"

namespace sensorcer::chaos {
namespace {

using util::kSecond;

// --- conservation audit through the retention ladder ------------------------------

TEST(ReadingTracker, AuditFollowsReadingsThroughTierDemotion) {
  // Tiny raw tier: most of the observed history is demoted into rollup
  // buckets; conservation must hold through the whole ladder, not just the
  // individually-retrievable raw tail.
  hist::HistorianConfig config;
  config.series.raw_capacity = 128;
  config.series.block_readings = 32;
  config.max_bytes = 0;
  hist::HistorianStore store(config);

  ReadingTracker tracker;
  std::vector<sensor::Reading> batch;
  for (int i = 0; i < 1500; ++i) {
    const sensor::Reading r{static_cast<util::SimTime>(i) * kSecond,
                            static_cast<double>(i % 40),
                            i % 13 == 5 ? sensor::Quality::kBad
                                        : sensor::Quality::kGood,
                            0};
    tracker.observe("chaos-esp-tiered", r);
    batch.push_back(r);
  }
  store.append("chaos-esp-tiered", batch);
  ASSERT_GT(store.stats_snapshot().blocks_demoted, 0u)
      << "the raw tier must have overflowed into tiers for this test to bite";

  InvariantReport report;
  tracker.audit(store, report);
  EXPECT_EQ(report.readings_lost, 0u) << report.render();
  EXPECT_EQ(report.readings_duplicated, 0u) << report.render();
  EXPECT_TRUE(report.ok()) << report.render();
  EXPECT_GT(report.readings_tiered, 0u)
      << "demoted readings must be accounted by the tier audit";
  EXPECT_EQ(report.readings_expected, 1500u);
}

TEST(ReadingTracker, AuditFlagsReadingsTheHistorianNeverStored) {
  hist::HistorianStore store;
  ReadingTracker tracker;
  const sensor::Reading stored{kSecond, 1.0, sensor::Quality::kGood, 0};
  const sensor::Reading vanished{2 * kSecond, 2.0, sensor::Quality::kGood, 0};
  tracker.observe("s", stored);
  tracker.observe("s", vanished);
  store.append("s", {stored});

  InvariantReport report;
  tracker.audit(store, report);
  EXPECT_EQ(report.readings_lost, 1u);
  EXPECT_FALSE(report.ok());
}

// --- schedule generation ----------------------------------------------------------

TEST(ChaosSchedule, DeterministicInSeedAndConfig) {
  ScheduleConfig config;
  config.seed = 42;
  config.nodes = 6;
  const auto a = make_schedule(config);
  const auto b = make_schedule(config);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].action, b[i].action);
    EXPECT_EQ(a[i].node, b[i].node);
  }
  config.seed = 43;
  const auto c = make_schedule(config);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at != c[i].at || a[i].action != c[i].action;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosSchedule, InternallyConsistent) {
  ScheduleConfig config;
  config.seed = 7;
  config.nodes = 4;
  config.duration = 120 * kSecond;
  const auto events = make_schedule(config);
  ASSERT_FALSE(events.empty());

  std::set<std::size_t> dead;
  std::set<std::size_t> cut;
  bool loss = false;
  bool jobber_dead = false;
  util::SimTime last = 0;
  for (const ChaosEvent& e : events) {
    EXPECT_GE(e.at, last);  // sorted
    last = e.at;
    switch (e.action) {
      case ChaosAction::kKillNode:
        EXPECT_FALSE(dead.contains(e.node));
        dead.insert(e.node);
        // Never the whole fleet at once.
        EXPECT_LT(dead.size(), config.nodes);
        break;
      case ChaosAction::kRestartNode:
        EXPECT_TRUE(dead.contains(e.node));
        dead.erase(e.node);
        break;
      case ChaosAction::kPartitionNode:
        cut.insert(e.node);
        break;
      case ChaosAction::kHealNode:
        EXPECT_TRUE(cut.contains(e.node));
        cut.erase(e.node);
        break;
      case ChaosAction::kHealAll:
        cut.clear();
        break;
      case ChaosAction::kLossBurst:
        EXPECT_FALSE(loss);
        EXPECT_GT(e.rate, 0.0);
        loss = true;
        break;
      case ChaosAction::kLossEnd:
        EXPECT_TRUE(loss);
        loss = false;
        break;
      case ChaosAction::kLeaseStorm:
        EXPECT_GT(e.count, 0u);
        break;
      case ChaosAction::kKillJobber:
        EXPECT_FALSE(jobber_dead);
        jobber_dead = true;
        break;
      case ChaosAction::kReviveJobber:
        EXPECT_TRUE(jobber_dead);
        jobber_dead = false;
        break;
    }
  }
  // Every kill pairs with a restart, every burst ends, the Jobber revives.
  EXPECT_TRUE(dead.empty());
  EXPECT_FALSE(loss);
  EXPECT_FALSE(jobber_dead);
}

TEST(ChaosSchedule, RenderListsEveryEvent) {
  ScheduleConfig config;
  config.seed = 3;
  config.nodes = 3;
  const auto events = make_schedule(config);
  const std::string table = render_schedule(events);
  EXPECT_NE(table.find(chaos_action_name(events.front().action)),
            std::string::npos);
  // One row per event plus the header.
  std::size_t lines = 0;
  for (char ch : table) {
    if (ch == '\n') ++lines;
  }
  EXPECT_GE(lines, events.size());
}

// --- orchestrator setup -----------------------------------------------------------

TEST(ChaosOrchestratorTest, SetupProvisionsWorkloadFleet) {
  core::DeploymentConfig dconfig;
  dconfig.cybernodes = 4;
  dconfig.seed = 11;
  core::Deployment lab(dconfig);

  ChaosConfig config;
  config.seed = 11;
  config.providers = 16;
  config.composites = 2;
  config.workers = 3;
  ChaosOrchestrator chaos(lab, config);
  ASSERT_TRUE(chaos.setup().is_ok());
  EXPECT_FALSE(chaos.events().empty());
  EXPECT_NE(chaos.render_events().find("kill"), std::string::npos);

  EXPECT_EQ(lab.monitor().deployed_instances("chaos-esp").size(), 16u);
  EXPECT_EQ(lab.monitor().deployed_instances("chaos-worker-1").size(), 1u);
  EXPECT_EQ(lab.monitor().deployed_instances("chaos-csp-1").size(), 1u);
  // The composites really compute over their components.
  lab.pump(kSecond);
  auto value = lab.facade().get_value("chaos-csp-1");
  ASSERT_TRUE(value.is_ok()) << value.status().to_string();
  EXPECT_GT(value.value(), -40.0);
  EXPECT_LT(value.value(), 60.0);
  // Dependency edges: each CSP on its components, each ESP optionally on
  // the historian.
  EXPECT_GT(lab.monitor().dependencies().edge_count(), 16u);
}

TEST(ChaosOrchestratorTest, RefusesDeploymentWithoutCybernodes) {
  core::DeploymentConfig dconfig;
  dconfig.cybernodes = 0;
  core::Deployment lab(dconfig);
  ChaosOrchestrator chaos(lab, {});
  EXPECT_EQ(chaos.setup().code(), util::ErrorCode::kFailedPrecondition);
}

// --- the acceptance run -----------------------------------------------------------

TEST(ChaosRun, HundredProviderFleetConvergesWithInvariantsIntact) {
  core::DeploymentConfig dconfig;
  dconfig.cybernodes = 12;
  dconfig.seed = 7;
  core::Deployment lab(dconfig);

  ChaosConfig config;
  config.seed = 7;
  config.providers = 100;
  ChaosOrchestrator chaos(lab, config);
  ASSERT_TRUE(chaos.setup().is_ok());

  const InvariantReport report = chaos.run();

  EXPECT_TRUE(report.converged) << report.render();
  EXPECT_EQ(report.double_executions, 0u) << report.render();
  EXPECT_EQ(report.readings_lost, 0u) << report.render();
  EXPECT_EQ(report.readings_duplicated, 0u) << report.render();
  EXPECT_EQ(report.stale_registrations, 0u) << report.render();
  EXPECT_TRUE(report.ok()) << report.render();

  EXPECT_EQ(report.events_applied, chaos.events().size());
  EXPECT_GT(report.exertions_issued, 0u);
  EXPECT_GT(report.exertions_done, 0u);
  EXPECT_GT(report.readings_expected, 1000u);
  // The schedule actually bit: instances were lost and re-placed.
  EXPECT_GT(report.reprovisions, 0u) << report.render();
}

}  // namespace
}  // namespace sensorcer::chaos
