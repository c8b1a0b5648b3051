// Tests for the optimized CSP read path: the freshness-window collection
// cache (TTL semantics, quality/timestamp stamping, invalidation on
// composition and expression changes), single-flight coalescing of
// concurrent readers, the wire fan-out and its latency model
// (parallel, nested and sequential), and slot re-binding after component
// removal.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/deployment.h"
#include "obs/metrics.h"
#include "sorcer/exert.h"
#include "sorcer/jobber.h"

namespace sensorcer::core {
namespace {

using util::kMillisecond;
using util::kSecond;

std::uint64_t cache_hits() {
  return obs::metrics().counter("csp.cache_hits").value();
}
std::uint64_t cache_misses() {
  return obs::metrics().counter("csp.cache_misses").value();
}
std::uint64_t coalesced() {
  return obs::metrics().counter("csp.coalesced").value();
}

/// A deployment whose composites cache collections for 10 virtual seconds.
class ReadPathTest : public ::testing::Test {
 protected:
  ReadPathTest() : lab(config_with_freshness()) {
    lab.add_temperature_sensor("Neem-Sensor", 21.0);
    lab.add_temperature_sensor("Jade-Sensor", 22.0);
    lab.add_temperature_sensor("Diamond-Sensor", 23.0);
    lab.pump(kSecond);
  }

  static DeploymentConfig config_with_freshness() {
    DeploymentConfig config;
    config.collection.freshness = 10 * kSecond;
    return config;
  }

  std::shared_ptr<CompositeSensorProvider> composite_of_two() {
    auto csp = lab.manager().create_composite("C");
    EXPECT_TRUE(csp->add_component("Neem-Sensor").is_ok());
    EXPECT_TRUE(csp->add_component("Jade-Sensor").is_ok());
    return csp;
  }

  Deployment lab;
};

// --- freshness-window cache ------------------------------------------------------

TEST_F(ReadPathTest, FreshReadIsServedFromCache) {
  auto csp = composite_of_two();
  const auto misses0 = cache_misses();
  const auto hits0 = cache_hits();

  auto first = csp->get_value();
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(cache_misses(), misses0 + 1);

  // Virtual time has not moved: well inside the window, and the cached
  // component values make the read bit-for-bit reproducible.
  auto second = csp->get_value();
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(cache_hits(), hits0 + 1);
  EXPECT_EQ(cache_misses(), misses0 + 1);
  EXPECT_DOUBLE_EQ(second.value(), first.value());
  EXPECT_EQ(csp->last_collection_latency(), 0);  // no fan-out charged
}

TEST_F(ReadPathTest, CachedReadingKeepsCollectionTimestampAndQuality) {
  auto csp = composite_of_two();
  auto first = csp->get_reading();
  ASSERT_TRUE(first.is_ok());

  lab.pump(kSecond);  // move now() forward, but stay inside the window
  auto second = csp->get_reading();
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().timestamp, first.value().timestamp)
      << "cache-served reading must carry the collection time, not now()";
  EXPECT_LT(second.value().timestamp, lab.scheduler().now());
  EXPECT_EQ(second.value().quality, sensor::Quality::kGood);
  EXPECT_GT(second.value().sequence, first.value().sequence);
}

TEST_F(ReadPathTest, CacheExpiresAfterFreshnessWindow) {
  auto csp = composite_of_two();
  ASSERT_TRUE(csp->get_value().is_ok());
  const auto misses0 = cache_misses();

  lab.pump(11 * kSecond);  // past the 10 s window
  auto reading = csp->get_reading();
  ASSERT_TRUE(reading.is_ok());
  EXPECT_EQ(cache_misses(), misses0 + 1);
  EXPECT_EQ(reading.value().timestamp, lab.scheduler().now());
}

TEST_F(ReadPathTest, AddComponentInvalidatesCache) {
  auto csp = composite_of_two();
  ASSERT_TRUE(csp->get_value().is_ok());
  const auto misses0 = cache_misses();
  ASSERT_TRUE(csp->add_component("Diamond-Sensor").is_ok());
  ASSERT_TRUE(csp->get_value().is_ok());
  EXPECT_EQ(cache_misses(), misses0 + 1);
}

TEST_F(ReadPathTest, RemoveComponentInvalidatesCache) {
  auto csp = composite_of_two();
  ASSERT_TRUE(csp->get_value().is_ok());
  const auto misses0 = cache_misses();
  ASSERT_TRUE(csp->remove_component("Jade-Sensor").is_ok());
  ASSERT_TRUE(csp->get_value().is_ok());
  EXPECT_EQ(cache_misses(), misses0 + 1);
}

TEST_F(ReadPathTest, SetExpressionInvalidatesCache) {
  auto csp = composite_of_two();
  ASSERT_TRUE(csp->get_value().is_ok());
  const auto misses0 = cache_misses();
  ASSERT_TRUE(csp->set_expression("a - b").is_ok());
  auto value = csp->get_value();
  ASSERT_TRUE(value.is_ok());
  EXPECT_EQ(cache_misses(), misses0 + 1);
  // And the new expression governs the read immediately.
  EXPECT_LT(value.value(), 10.0);
}

TEST_F(ReadPathTest, ZeroFreshnessDisablesCache) {
  DeploymentConfig config;  // collection.freshness defaults to 0
  Deployment bare(config);
  bare.add_temperature_sensor("S1", 20.0);
  bare.pump(kSecond);
  auto csp = bare.manager().create_composite("C");
  ASSERT_TRUE(csp->add_component("S1").is_ok());
  const auto hits0 = cache_hits();
  const auto misses0 = cache_misses();
  ASSERT_TRUE(csp->get_value().is_ok());
  ASSERT_TRUE(csp->get_value().is_ok());
  EXPECT_EQ(cache_hits(), hits0);
  EXPECT_EQ(cache_misses(), misses0 + 2);
}

// --- single-flight coalescing ----------------------------------------------------

TEST_F(ReadPathTest, ConcurrentReadersCoalesceOntoOneFlight) {
  // freshness = 0 so every read wants a real collection; any reader that
  // arrives while another's fan-out is in flight must share it. Readers are
  // plain threads — never the deployment pool, which the flight itself
  // needs for its fan-out.
  DeploymentConfig config;
  Deployment bare(config);
  bare.add_temperature_sensor("S1", 20.0);
  bare.add_temperature_sensor("S2", 24.0);
  bare.pump(kSecond);
  auto csp = bare.manager().create_composite("C");
  ASSERT_TRUE(csp->add_component("S1").is_ok());
  ASSERT_TRUE(csp->add_component("S2").is_ok());

  const auto misses0 = cache_misses();
  const auto coalesced0 = coalesced();
  constexpr int kReaders = 8;
  constexpr int kRounds = 20;
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        if (!csp->get_value().is_ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  // Every read either flew (cache miss) or coalesced — nothing else.
  EXPECT_EQ((cache_misses() - misses0) + (coalesced() - coalesced0),
            static_cast<std::uint64_t>(kReaders * kRounds));
}

// --- fan-out latency model -------------------------------------------------------

TEST_F(ReadPathTest, DirectWireFanoutCostsSlowestChildPlusOneDispatch) {
  // No rendezvous peer: the CSP scatters its four children onto the fabric
  // itself and gathers them with one pump, so their round-trips overlap.
  DeploymentConfig config;
  config.with_jobber = false;
  config.with_spacer = false;
  config.sampling.sample_period = 0;
  Deployment bare(config);
  for (int i = 0; i < 4; ++i) {
    bare.add_temperature_sensor("S" + std::to_string(i), 20.0 + i);
  }
  bare.pump(kSecond);

  // One child's cost: a single read round-trip over the same fabric. The
  // four children are identical, so each costs exactly this.
  auto probe = sorcer::Task::make(
      "probe", sorcer::Signature{kSensorDataAccessorType, op::kGetValue, "S0"});
  ASSERT_TRUE(sorcer::exert(probe, bare.accessor()).is_ok());
  const util::SimDuration child = probe->latency();
  ASSERT_GT(child, 0);

  auto csp = bare.manager().create_composite("C");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(csp->add_component("S" + std::to_string(i)).is_ok());
  }
  ASSERT_TRUE(csp->get_value().is_ok());
  const util::SimDuration collected = csp->last_collection_latency();
  EXPECT_EQ(collected, child + sorcer::Jobber::kDispatchOverhead);
  EXPECT_LT(collected, 4 * child);
}

TEST_F(ReadPathTest, CspCollectsWithoutJobberHop) {
  // A Jobber is on the network, yet a collection scatters straight to the
  // four children: four wire calls, no job, and the same slowest-child
  // model as with no rendezvous peer at all.
  DeploymentConfig config;
  config.sampling.sample_period = 0;
  Deployment lab_with_jobber(config);
  ASSERT_NE(lab_with_jobber.jobber(), nullptr);
  for (int i = 0; i < 4; ++i) {
    lab_with_jobber.add_temperature_sensor("S" + std::to_string(i), 20.0 + i);
  }
  lab_with_jobber.pump(kSecond);

  auto probe = sorcer::Task::make(
      "probe", sorcer::Signature{kSensorDataAccessorType, op::kGetValue, "S0"});
  ASSERT_TRUE(sorcer::exert(probe, lab_with_jobber.accessor()).is_ok());
  const util::SimDuration child = probe->latency();
  ASSERT_GT(child, 0);

  auto csp = lab_with_jobber.manager().create_composite("C");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(csp->add_component("S" + std::to_string(i)).is_ok());
  }
  auto& wire_calls = obs::metrics().counter("invoke.wire_calls");
  auto& jobs = obs::metrics().counter("sorcer.jobber.jobs");
  const auto wire_calls0 = wire_calls.value();
  const auto jobs0 = jobs.value();
  ASSERT_TRUE(csp->get_value().is_ok());
  EXPECT_EQ(wire_calls.value(), wire_calls0 + 4);
  EXPECT_EQ(jobs.value(), jobs0);
  EXPECT_EQ(csp->last_collection_latency(),
            child + sorcer::Jobber::kDispatchOverhead);
}

/// A two-level tree: `fanout` composites under "root", each over `fanout`
/// zero-noise leaves. Returns the root.
std::shared_ptr<CompositeSensorProvider> two_level_tree(Deployment& lab,
                                                        int fanout) {
  int leaf = 0;
  auto root = lab.manager().create_composite("root");
  for (int i = 0; i < fanout; ++i) {
    const std::string inner_name = "inner-" + std::to_string(i);
    auto inner = lab.manager().create_composite(inner_name);
    for (int j = 0; j < fanout; ++j, ++leaf) {
      sensor::SignalModel model;
      model.base = 10.0 + leaf;
      model.amplitude = 0.0;
      model.noise_stddev = 0.0;
      sensor::Teds teds{sensor::SensorKind::kTemperature, "test", "zero",
                        std::to_string(leaf), -1e6, 1e6, 0.1, 0};
      const std::string leaf_name = "leaf-" + std::to_string(leaf);
      lab.add_sensor(leaf_name,
                     std::make_unique<sensor::SimulatedProbe>(
                         sensor::SimulatedDevice{
                             teds, model, static_cast<std::uint64_t>(leaf + 1)}));
      EXPECT_TRUE(inner->add_component(leaf_name).is_ok());
    }
    EXPECT_TRUE(root->add_component(inner_name).is_ok());
  }
  return root;
}

TEST_F(ReadPathTest, NestedParallelCollectionGrowsWithDepthOnly) {
  // Each level costs one child read plus one dispatch overhead, however
  // wide it is: widening adds siblings that overlap on the fabric, so the
  // root of a 2x2 tree and of an 8x8 tree collect in the same time.
  util::SimDuration latency[2] = {0, 0};
  for (int k = 0; k < 2; ++k) {
    const int fanout = k == 0 ? 2 : 8;
    DeploymentConfig config;
    config.sampling.sample_period = 0;
    Deployment tree_lab(config);
    auto root = two_level_tree(tree_lab, fanout);
    // Read the root the way a requestor does: an exertion on the fabric.
    auto read = sorcer::Task::make(
        "read",
        sorcer::Signature{kSensorDataAccessorType, op::kGetValue, "root"});
    ASSERT_TRUE(sorcer::exert(read, tree_lab.accessor()).is_ok());
    ASSERT_EQ(read->status(), sorcer::ExertStatus::kDone);
    // The leaf bases are 10 .. 10 + fanout^2 - 1; their mean is exact.
    EXPECT_DOUBLE_EQ(read->context().get_double(path::kValue).value_or(-1),
                     10.0 + (fanout * fanout - 1) / 2.0);
    latency[k] = root->last_collection_latency();

    // One level down: the same read of one inner composite on its own.
    auto inner = sorcer::Task::make(
        "inner",
        sorcer::Signature{kSensorDataAccessorType, op::kGetValue, "inner-0"});
    ASSERT_TRUE(sorcer::exert(inner, tree_lab.accessor()).is_ok());
    EXPECT_EQ(latency[k],
              inner->latency() + sorcer::Jobber::kDispatchOverhead)
        << "fan-out " << fanout;
  }
  ASSERT_GT(latency[0], 0);
  EXPECT_EQ(latency[1], latency[0]);
}

TEST_F(ReadPathTest, SequentialCollectionCostsSumOfChildren) {
  DeploymentConfig config;
  config.sampling.sample_period = 0;
  config.collection.flow = sorcer::Flow::kSequence;
  Deployment sequential(config);
  constexpr int kChildren = 4;
  for (int i = 0; i < kChildren; ++i) {
    sequential.add_temperature_sensor("S" + std::to_string(i), 20.0 + i);
  }
  sequential.pump(kSecond);

  auto probe = sorcer::Task::make(
      "probe", sorcer::Signature{kSensorDataAccessorType, op::kGetValue, "S0"});
  ASSERT_TRUE(sorcer::exert(probe, sequential.accessor()).is_ok());
  const util::SimDuration child = probe->latency();
  ASSERT_GT(child, 0);

  auto csp = sequential.manager().create_composite("C");
  for (int i = 0; i < kChildren; ++i) {
    ASSERT_TRUE(csp->add_component("S" + std::to_string(i)).is_ok());
  }
  ASSERT_TRUE(csp->get_value().is_ok());
  EXPECT_EQ(csp->last_collection_latency(),
            kChildren * (child + sorcer::Jobber::kDispatchOverhead));
}

// --- re-binding after composition changes ----------------------------------------

TEST_F(ReadPathTest, RemoveComponentRebindsSurvivingVariables) {
  // Three components bound to a, b, c with well-separated values. After
  // removing b's service, variable c must track its component's *shifted*
  // position in the collected values — not the stale index.
  Deployment wide{DeploymentConfig{}};
  wide.add_temperature_sensor("Low", 10.0);
  wide.add_temperature_sensor("Mid", 25.0);
  wide.add_temperature_sensor("High", 40.0);
  wide.pump(kSecond);
  auto csp = wide.manager().create_composite("C");
  ASSERT_TRUE(csp->add_component("Low").is_ok());    // a
  ASSERT_TRUE(csp->add_component("Mid").is_ok());    // b
  ASSERT_TRUE(csp->add_component("High").is_ok());   // c
  ASSERT_TRUE(csp->set_expression("c").is_ok());

  auto before = csp->get_value();
  ASSERT_TRUE(before.is_ok());
  EXPECT_GT(before.value(), 30.0);

  ASSERT_TRUE(csp->remove_component("Mid").is_ok());
  EXPECT_EQ(csp->expression(), "c");  // survives: it never referenced b
  auto after = csp->get_value();
  ASSERT_TRUE(after.is_ok());
  EXPECT_GT(after.value(), 30.0) << "c must still read the 'High' sensor";
}

}  // namespace
}  // namespace sensorcer::core
