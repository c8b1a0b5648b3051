// Tests for the unified invocation pipeline (sorcer/invoke): wire-backed
// request/response dispatch, deadlines under loss and partitions, retry
// with exclusion (service substitution over the fabric), liveness pings,
// endpoint lifecycle, the ordering of the path-intern streams, and the flat
// codec including its packed series column.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/legacy_codec.h"
#include "core/deployment.h"
#include "obs/metrics.h"
#include "sorcer/codec.h"
#include "sorcer/exert.h"
#include "sorcer/invoke.h"
#include "sorcer/provider.h"
#include "util/rng.h"

namespace sensorcer::core {
namespace {

using util::kMillisecond;
using util::kSecond;

DeploymentConfig quiet_config() {
  DeploymentConfig config;
  config.sampling.sample_period = 0;  // keep the fabric quiet for assertions
  return config;
}

sorcer::ExertionPtr read_task(const std::string& provider_name) {
  return sorcer::Task::make(
      "read:" + provider_name,
      sorcer::Signature{kSensorDataAccessorType, op::kGetValue,
                        provider_name});
}

std::uint64_t counter(const std::string& name) {
  return obs::metrics().counter(name).value();
}

// --- wire transport ----------------------------------------------------------

TEST(WireInvokeTest, TaskCrossesTheFabricAsRequestAndResponse) {
  Deployment lab(quiet_config());
  lab.add_temperature_sensor("Neem-Sensor", 21.5);
  lab.network().reset_stats();
  const auto wire_before = counter("invoke.wire_calls");

  auto task = read_task("Neem-Sensor");
  ASSERT_TRUE(sorcer::exert(task, lab.accessor()).is_ok());
  ASSERT_EQ(task->status(), sorcer::ExertStatus::kDone);
  EXPECT_TRUE(task->context().get_double(path::kValue).is_ok());
  EXPECT_EQ(counter("invoke.wire_calls") - wire_before, 1u);

  // The requestor endpoint sent a request and received a response; both
  // directions carried modeled payload bytes plus protocol headers.
  const auto& stats = lab.network().stats_for(lab.invoker().address());
  EXPECT_GE(stats.messages_sent, 1u);
  EXPECT_GE(stats.messages_received, 1u);
  EXPECT_GT(stats.payload_bytes_sent, 0u);
  EXPECT_GT(stats.header_bytes_sent, 0u);

  // The round trip costs at least two one-way fabric latencies.
  EXPECT_GE(task->latency(), 2 * lab.network().latency());
}

TEST(WireInvokeTest, JobberChildDispatchesAlsoCrossTheFabric) {
  Deployment lab(quiet_config());
  lab.add_temperature_sensor("Jade-Sensor", 22.4);
  lab.add_temperature_sensor("Coral-Sensor", 23.1);
  lab.network().reset_stats();

  auto job = sorcer::Job::make(
      "j", {sorcer::Flow::kParallel, sorcer::Access::kPush, true});
  job->add(read_task("Jade-Sensor"));
  job->add(read_task("Coral-Sensor"));
  ASSERT_TRUE(sorcer::exert(job, lab.accessor()).is_ok());
  ASSERT_EQ(job->status(), sorcer::ExertStatus::kDone);

  // One request to the Jobber plus one per child (the Jobber dispatches
  // children through the same deployment accessor): >= 3 requests out of
  // the requestor endpoint and >= 3 responses back.
  const auto& stats = lab.network().stats_for(lab.invoker().address());
  EXPECT_GE(stats.messages_sent, 3u);
  EXPECT_GE(stats.messages_received, 3u);

  // The Jobber's own endpoint saw its request and sent its response.
  ASSERT_TRUE(lab.accessor()
                  .find_servicer(sorcer::Signature{sorcer::type::kJobber,
                                                   "", ""})
                  .is_ok());
}

TEST(WireInvokeTest, FacadeReadRunsOverTheWire) {
  Deployment lab(quiet_config());
  lab.add_temperature_sensor("Diamond-Sensor", 20.8);
  lab.network().reset_stats();

  auto value = lab.facade().get_value("Diamond-Sensor");
  ASSERT_TRUE(value.is_ok());
  EXPECT_GT(lab.network().stats_for(lab.invoker().address()).messages_sent,
            0u);

  EXPECT_EQ(lab.facade().get_value("No-Such-Sensor").status().code(),
            util::ErrorCode::kNotFound);
}

// --- failure semantics -------------------------------------------------------

TEST(WireInvokeTest, TotalLossExpiresTheDeadlineWithTimeout) {
  DeploymentConfig config = quiet_config();
  config.invoke.call_timeout = 50 * kMillisecond;
  Deployment lab(config);
  lab.add_temperature_sensor("Lonely-Sensor");
  lab.network().set_loss_rate(1.0);
  const auto timeouts_before = counter("invoke.timeouts");

  const util::SimTime t0 = lab.now();
  auto task = read_task("Lonely-Sensor");  // pinned name: no substitution
  (void)sorcer::exert(task, lab.accessor());
  EXPECT_EQ(task->status(), sorcer::ExertStatus::kFailed);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kTimeout);
  EXPECT_GE(counter("invoke.timeouts") - timeouts_before, 1u);
  // The requestor really waited out the deadline in virtual time.
  EXPECT_GE(lab.now() - t0, config.invoke.call_timeout);

  // Healing the link makes the next call succeed.
  lab.network().set_loss_rate(0.0);
  auto retry = read_task("Lonely-Sensor");
  (void)sorcer::exert(retry, lab.accessor());
  EXPECT_EQ(retry->status(), sorcer::ExertStatus::kDone);
}

TEST(WireInvokeTest, IdleWindowsFastForwardToTheDeadline) {
  DeploymentConfig config = quiet_config();
  config.invoke.call_timeout = 50 * kMillisecond;
  Deployment lab(config);
  lab.add_temperature_sensor("Quiet-Sensor");
  lab.network().set_loss_rate(1.0);
  const auto idle_before = counter("invoke.idle_waits");

  const util::SimTime t0 = lab.now();
  auto task = read_task("Quiet-Sensor");  // pinned name: no substitution
  (void)sorcer::exert(task, lab.accessor());
  EXPECT_EQ(task->status(), sorcer::ExertStatus::kFailed);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kTimeout);

  // The request was lost, so the fabric had no event that could complete
  // the call: the pump jumped straight to the deadline instead of stepping
  // through unrelated far-future timers — and landed exactly on it.
  EXPECT_GE(counter("invoke.idle_waits") - idle_before, 1u);
  EXPECT_EQ(lab.now() - t0, config.invoke.call_timeout);
}

TEST(WireInvokeTest, PartitionTimesOutThenSubstitutesAnotherProvider) {
  DeploymentConfig config = quiet_config();
  config.invoke.call_timeout = 20 * kMillisecond;
  Deployment lab(config);
  auto esp_a = lab.add_temperature_sensor("Sensor-A", 20.0);
  auto esp_b = lab.add_temperature_sensor("Sensor-B", 30.0);

  // An unpinned signature may bind to either sensor; learn which one the
  // accessor resolves first, then partition the requestor away from it.
  const sorcer::Signature sig{kSensorDataAccessorType, op::kGetValue, ""};
  auto first = lab.accessor().resolve(sig);
  ASSERT_TRUE(first.is_ok());
  const auto victim = first.value().servicer;
  auto* victim_provider =
      dynamic_cast<sorcer::ServiceProvider*>(victim.get());
  ASSERT_NE(victim_provider, nullptr);
  lab.network().partition(lab.invoker().address(),
                          victim_provider->network_address());

  const auto timeouts_before = counter("invoke.timeouts");
  const auto subs_before = counter("sorcer.substitutions");
  const util::SimTime t0 = lab.now();
  auto task = sorcer::Task::make("read:any", sig);
  ASSERT_TRUE(sorcer::exert(task, lab.accessor()).is_ok());
  EXPECT_EQ(task->status(), sorcer::ExertStatus::kDone);
  EXPECT_TRUE(task->context().get_double(path::kValue).is_ok());

  // First attempt hit the deadline; exert retried with the victim excluded
  // and bound the surviving provider. The timed-out attempt is visible on
  // the virtual clock (task latency is reset by the substitution retry).
  EXPECT_GE(counter("invoke.timeouts") - timeouts_before, 1u);
  EXPECT_GE(counter("sorcer.substitutions") - subs_before, 1u);
  EXPECT_GE(lab.now() - t0, config.invoke.call_timeout);
}

TEST(WireInvokeTest, LateResponsesAreDroppedNotMisdelivered) {
  DeploymentConfig config = quiet_config();
  // Shorter than the round trip: one-way latency alone eats the budget.
  config.network_latency = 5 * kMillisecond;
  config.invoke.call_timeout = 6 * kMillisecond;
  Deployment lab(config);
  lab.add_temperature_sensor("Slow-Sensor");
  const auto late_before = counter("invoke.late_responses");

  auto task = read_task("Slow-Sensor");
  (void)sorcer::exert(task, lab.accessor());
  EXPECT_EQ(task->status(), sorcer::ExertStatus::kFailed);
  EXPECT_EQ(task->error().code(), util::ErrorCode::kTimeout);

  // Let the straggler response land: it must be counted and discarded.
  lab.pump(100 * kMillisecond);
  EXPECT_GE(counter("invoke.late_responses") - late_before, 1u);
}

// --- scatter-gather ----------------------------------------------------------

TEST(ScatterGatherTest, ParallelPushOverlapsRoundTripsOnTheFabric) {
  Deployment lab(quiet_config());
  for (int i = 0; i < 8; ++i) {
    lab.add_temperature_sensor("SG-" + std::to_string(i), 20.0 + i);
  }

  const auto run = [&lab](sorcer::Flow flow) {
    auto job = sorcer::Job::make("sg", {flow, sorcer::Access::kPush, true});
    for (int i = 0; i < 8; ++i) {
      job->add(read_task("SG-" + std::to_string(i)));
    }
    const util::SimTime t0 = lab.now();
    (void)sorcer::exert(job, lab.accessor());
    EXPECT_EQ(job->status(), sorcer::ExertStatus::kDone);
    return lab.now() - t0;
  };

  const util::SimDuration sequential = run(sorcer::Flow::kSequence);
  const auto saved_before = counter("invoke.overlap_saved_ns");
  const util::SimDuration scattered = run(sorcer::Flow::kParallel);

  // Eight equal children scattered as one batch cost ~the slowest child's
  // round-trip plus dispatch overhead, not eight round-trips.
  EXPECT_GT(scattered, 0);
  EXPECT_GE(sequential, 4 * scattered);
  // The fabric concurrency is accounted: serialized RTT sum minus the
  // actual batch window.
  EXPECT_GT(counter("invoke.overlap_saved_ns") - saved_before, 0u);
  // Every scattered call was gathered; nothing is left outstanding.
  EXPECT_EQ(obs::metrics().gauge("invoke.outstanding").value(), 0.0);
}

TEST(ScatterGatherTest, NestedDispatchPumpsTheSchedulerRecursively) {
  // Regression: a provider whose dispatch invokes downstream providers
  // mid-call (the CSP's fan-out runs inside its own wire dispatch event)
  // pumps the scheduler from a nested frame on the same stack. The guard
  // must accept this — it is the event loop recursing in time order — and
  // the nested batch must still gather correctly.
  Deployment lab(quiet_config());
  lab.add_temperature_sensor("Leaf-A", 10.0);
  lab.add_temperature_sensor("Leaf-B", 30.0);
  auto csp = lab.facade().create_local_service("Nested-Composite");
  ASSERT_NE(csp, nullptr);
  ASSERT_TRUE(
      lab.facade()
          .compose_service("Nested-Composite", {"Leaf-A", "Leaf-B"})
          .is_ok());

  auto value = lab.facade().get_value("Nested-Composite");
  ASSERT_TRUE(value.is_ok());
  // Average of the two leaves, modulo probe noise.
  EXPECT_GT(value.value(), 5.0);
  EXPECT_LT(value.value(), 35.0);
  EXPECT_EQ(obs::metrics().gauge("invoke.outstanding").value(), 0.0);
}

TEST(ScatterGatherTest, SlowChildSubstitutesWhileSiblingsComplete) {
  DeploymentConfig config = quiet_config();
  config.invoke.call_timeout = 20 * kMillisecond;
  Deployment lab(config);
  for (const char* name : {"Mix-A", "Mix-B", "Mix-C"}) {
    lab.add_temperature_sensor(name, 20.0);
  }

  // Learn which provider the unpinned signature binds first, partition the
  // requestor away from it, and pin the two sibling reads to the survivors.
  const sorcer::Signature sig{kSensorDataAccessorType, op::kGetValue, ""};
  auto first = lab.accessor().resolve(sig);
  ASSERT_TRUE(first.is_ok());
  auto* victim =
      dynamic_cast<sorcer::ServiceProvider*>(first.value().servicer.get());
  ASSERT_NE(victim, nullptr);
  lab.network().partition(lab.invoker().address(),
                          victim->network_address());
  std::vector<std::string> survivors;
  for (const char* name : {"Mix-A", "Mix-B", "Mix-C"}) {
    if (name != victim->provider_name()) survivors.push_back(name);
  }
  ASSERT_EQ(survivors.size(), 2u);

  const auto timeouts_before = counter("invoke.timeouts");
  const auto subs_before = counter("sorcer.substitutions");
  const util::SimTime t0 = lab.now();
  std::vector<sorcer::ExertionPtr> batch = {
      read_task(survivors[0]), read_task(survivors[1]),
      sorcer::Task::make("read:any", sig)};  // unpinned: may substitute
  (void)sorcer::exert_all(batch, lab.accessor());

  // The partitioned call hit its deadline and was re-issued with the victim
  // excluded while its siblings completed; every exertion still succeeds.
  for (const auto& task : batch) {
    EXPECT_EQ(task->status(), sorcer::ExertStatus::kDone) << task->name();
  }
  EXPECT_GE(counter("invoke.timeouts") - timeouts_before, 1u);
  EXPECT_GE(counter("sorcer.substitutions") - subs_before, 1u);
  // The slow child's deadline is visible on the virtual clock, and only
  // once: the siblings' windows overlapped it instead of queuing behind it.
  EXPECT_GE(lab.now() - t0, config.invoke.call_timeout);
  EXPECT_LT(lab.now() - t0, 2 * config.invoke.call_timeout);
}

TEST(ScatterGatherTest, EachTimedOutCallDropsItsOwnLateResponse) {
  DeploymentConfig config = quiet_config();
  // Shorter than the round trip: every call times out, every response is a
  // straggler.
  config.network_latency = 5 * kMillisecond;
  config.invoke.call_timeout = 6 * kMillisecond;
  Deployment lab(config);
  for (const char* name : {"Late-A", "Late-B", "Late-C"}) {
    lab.add_temperature_sensor(name, 20.0);
  }
  const auto timeouts_before = counter("invoke.timeouts");
  const auto late_before = counter("invoke.late_responses");

  std::vector<sorcer::ExertionPtr> batch = {
      read_task("Late-A"), read_task("Late-B"), read_task("Late-C")};
  const util::SimTime t0 = lab.now();
  (void)sorcer::exert_all(batch, lab.accessor());
  for (const auto& task : batch) {
    EXPECT_EQ(task->status(), sorcer::ExertStatus::kFailed);
    EXPECT_EQ(std::static_pointer_cast<sorcer::Task>(task)->error().code(),
              util::ErrorCode::kTimeout);
  }
  EXPECT_EQ(counter("invoke.timeouts") - timeouts_before, 3u);
  // The timed-out calls overlapped too: the batch waited one shared
  // deadline window, not three in sequence.
  EXPECT_LT(lab.now() - t0, 2 * config.invoke.call_timeout);

  // Let the stragglers land: each is dropped and counted per call.
  lab.pump(100 * kMillisecond);
  EXPECT_EQ(counter("invoke.late_responses") - late_before, 3u);
  EXPECT_EQ(obs::metrics().gauge("invoke.outstanding").value(), 0.0);
}

TEST(ScatterGatherTest, FacadeMultiReadGathersOneBatch) {
  Deployment lab(quiet_config());
  lab.add_temperature_sensor("Page-A", 20.0);
  lab.add_temperature_sensor("Page-B", 21.0);
  lab.add_temperature_sensor("Page-C", 22.0);

  auto values = lab.facade().get_values({"Page-A", "Page-B", "Page-C",
                                         "Page-Missing"});
  ASSERT_EQ(values.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(values[static_cast<std::size_t>(i)].is_ok());
  }
  EXPECT_EQ(values[3].status().code(), util::ErrorCode::kNotFound);
}

// --- pings -------------------------------------------------------------------

TEST(PingTest, ReachableProviderPongsWithinDeadline) {
  Deployment lab(quiet_config());
  ASSERT_FALSE(lab.cybernodes().empty());
  const auto target = lab.cybernodes()[0]->network_address();
  EXPECT_TRUE(lab.invoker().ping(target, 10 * kMillisecond).is_ok());
}

TEST(PingTest, PartitionedProviderTimesOut) {
  Deployment lab(quiet_config());
  ASSERT_FALSE(lab.cybernodes().empty());
  const auto target = lab.cybernodes()[0]->network_address();
  lab.network().partition(lab.invoker().address(), target);
  EXPECT_EQ(lab.invoker().ping(target, 10 * kMillisecond).code(),
            util::ErrorCode::kTimeout);
}

TEST(PingTest, DetachedAddressFailsFast) {
  Deployment lab(quiet_config());
  EXPECT_EQ(lab.invoker().ping(util::new_uuid(), 10 * kMillisecond).code(),
            util::ErrorCode::kNotFound);
}

// --- endpoint lifecycle ------------------------------------------------------

TEST(EndpointTest, ProviderDetachesItsEndpointOnDestruction) {
  util::Scheduler sched;
  simnet::Network net(sched);
  simnet::Address addr;
  {
    auto tasker = std::make_shared<sorcer::Tasker>("Transient");
    tasker->attach_network(net);
    addr = tasker->network_address();
    EXPECT_TRUE(net.is_attached(addr));
  }
  EXPECT_FALSE(net.is_attached(addr));
}

TEST(EndpointTest, ReattachKeepsTheAddressStable) {
  util::Scheduler sched;
  simnet::Network net(sched);
  auto tasker = std::make_shared<sorcer::Tasker>("Sticky");
  tasker->attach_network(net);
  const auto addr = tasker->network_address();
  tasker->attach_network(net);  // idempotent re-attach
  EXPECT_EQ(tasker->network_address(), addr);
  EXPECT_TRUE(net.is_attached(addr));
}

// --- intern-stream ordering --------------------------------------------------
//
// Path definitions ride only the first message that uses a path, so each
// directed stream must be encoded in send order and decoded in arrival
// order. Both tests run on cold intern tables and reuse one context shape,
// so the second response of each pair carries bare ids whose definitions
// ride the first.

struct EchoRig {
  util::Scheduler sched;
  simnet::Network net{sched};
  std::shared_ptr<sorcer::Tasker> tasker =
      std::make_shared<sorcer::Tasker>("Echo");
  sorcer::RemoteInvoker invoker{net};

  EchoRig() {
    const auto echo = [](sorcer::ServiceContext& ctx) {
      ctx.put("out/value", 42.0, sorcer::PathDirection::kOut);
      ctx.put("out/series", std::vector<double>{1.0, 2.0, 3.0},
              sorcer::PathDirection::kOut);
      return util::Status::ok();
    };
    tasker->add_operation("fast", echo, kMillisecond);
    tasker->add_operation("slow", echo, 50 * kMillisecond);
    tasker->attach_network(net);
  }

  static sorcer::ExertionPtr task(const char* selector) {
    auto t = sorcer::Task::make(
        selector, sorcer::Signature{sorcer::type::kTasker, selector, "Echo"});
    t->context().put("in/x", 1.0, sorcer::PathDirection::kIn);
    return t;
  }
};

void expect_echoed(const sorcer::ExertionPtr& t) {
  EXPECT_EQ(t->status(), sorcer::ExertStatus::kDone) << t->name();
  auto value = t->context().get_double("out/value");
  ASSERT_TRUE(value.is_ok()) << t->name();
  EXPECT_EQ(value.value(), 42.0);
  const std::vector<double>* series = t->context().peek_series("out/series");
  ASSERT_NE(series, nullptr) << t->name();
  EXPECT_EQ(*series, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(InternOrderTest, TimerCallInsideAnOuterGatherDecodesInArrivalOrder) {
  // The outer call's response is sent first and defines the response
  // paths. A timer (like a flow source's flush) fires inside the outer
  // gather and issues and gathers its own call to the same provider. Its
  // nested frame harvests the second response before the outer frame
  // harvests the first, so decoding at harvest time would hit unknown ids.
  EchoRig rig;
  const auto desyncs_before = counter("invoke.codec_desyncs.response");
  auto outer = EchoRig::task("fast");
  auto inner = EchoRig::task("fast");
  bool inner_ok = false;
  rig.sched.schedule_after(100, [&] {
    inner_ok = rig.invoker.invoke(rig.tasker, inner, nullptr).is_ok();
  });
  ASSERT_TRUE(rig.invoker.invoke(rig.tasker, outer, nullptr).is_ok());
  EXPECT_TRUE(inner_ok);
  expect_echoed(outer);
  expect_echoed(inner);
  EXPECT_EQ(counter("invoke.codec_desyncs.response") - desyncs_before, 0u);
}

TEST(InternOrderTest, FastReplyOvertakingASlowReplyDecodes) {
  // One batch to one provider: the slow op's response is held back 50 ms,
  // the fast op's 1 ms. The fast response goes out first, so it must be the
  // one that defines the paths: encoding at dispatch time would give the
  // definitions to the slow response still waiting to be sent.
  EchoRig rig;
  const auto desyncs_before = counter("invoke.codec_desyncs.response");
  auto slow = EchoRig::task("slow");
  auto fast = EchoRig::task("fast");
  sorcer::PendingCall calls[] = {
      rig.invoker.begin_invoke(rig.tasker, slow, nullptr),
      rig.invoker.begin_invoke(rig.tasker, fast, nullptr)};
  sorcer::PendingCall* open[] = {&calls[0], &calls[1]};
  rig.invoker.pump_until_all(open);
  for (sorcer::PendingCall& call : calls) {
    ASSERT_TRUE(call.completed());
    EXPECT_TRUE(call.result().is_ok());
  }
  expect_echoed(slow);
  expect_echoed(fast);
  EXPECT_EQ(counter("invoke.codec_desyncs.response") - desyncs_before, 0u);
}

// --- flat binary codec -------------------------------------------------------

/// A context exercising every ContextValue alternative plus awkward paths:
/// empty-string values, deep nesting, unicode path bytes.
sorcer::ServiceContext codec_sample_context() {
  sorcer::ServiceContext ctx("sample-ctx");
  ctx.put("", std::monostate{});  // empty path, empty value
  ctx.put("a/deeply/nested/sensor/path/value", 21.5,
          sorcer::PathDirection::kIn);
  ctx.put("count", std::int64_t{-12345678901}, sorcer::PathDirection::kOut);
  ctx.put("flags/ok", true);
  ctx.put("name", std::string("Neem \xc3\xa5\xc3\xa4\xc3\xb6"));
  ctx.put("empty-string", std::string(""));
  ctx.put("s\xc3\xa9ries/unicode-path", std::vector<double>{1.5, -2.25, 1e300});
  ctx.put("series/empty", std::vector<double>{});
  return ctx;
}

void expect_context_eq(const sorcer::ServiceContext& a,
                       const sorcer::ServiceContext& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.paths(), b.paths());
  for (const std::string& path : a.paths()) {
    const sorcer::ContextValue* va = a.find(path);
    const sorcer::ContextValue* vb = b.find(path);
    ASSERT_NE(va, nullptr) << path;
    ASSERT_NE(vb, nullptr) << path;
    EXPECT_TRUE(*va == *vb) << "value mismatch at '" << path << "'";
  }
  for (auto d : {sorcer::PathDirection::kIn, sorcer::PathDirection::kOut,
                 sorcer::PathDirection::kInOut}) {
    EXPECT_EQ(a.paths_with(d), b.paths_with(d));
  }
}

TEST(CodecTest, FlatRoundTripPreservesEveryAlternative) {
  const sorcer::ServiceContext original = codec_sample_context();
  sorcer::PathInternTable encode_side;
  sorcer::PathInternTable decode_side;
  sorcer::WireBuffer buf;
  sorcer::encode_context(original, encode_side, buf);

  sorcer::ServiceContext decoded;
  ASSERT_TRUE(
      sorcer::decode_context(buf.data(), buf.size(), decode_side, decoded)
          .is_ok());
  expect_context_eq(original, decoded);
}

TEST(CodecTest, EmptyContextRoundTrips) {
  sorcer::ServiceContext original;
  sorcer::PathInternTable table_enc, table_dec;
  sorcer::WireBuffer buf;
  sorcer::encode_context(original, table_enc, buf);
  sorcer::ServiceContext decoded;
  decoded.put("stale", 1.0);  // must be trimmed by the in-place reload
  ASSERT_TRUE(
      sorcer::decode_context(buf.data(), buf.size(), table_dec, decoded)
          .is_ok());
  EXPECT_EQ(decoded.size(), 0u);
  EXPECT_EQ(decoded.name(), "");
}

TEST(CodecTest, LegacyRoundTripMatchesFlat) {
  const sorcer::ServiceContext original = codec_sample_context();
  sorcer::WireBuffer legacy_buf;
  bench::encode_context_legacy(original, legacy_buf);
  sorcer::ServiceContext via_legacy;
  ASSERT_TRUE(bench::decode_context_legacy(legacy_buf.data(),
                                           legacy_buf.size(), via_legacy)
                  .is_ok());
  expect_context_eq(original, via_legacy);

  sorcer::PathInternTable table_enc, table_dec;
  sorcer::WireBuffer flat_buf;
  sorcer::encode_context(original, table_enc, flat_buf);
  sorcer::ServiceContext via_flat;
  ASSERT_TRUE(sorcer::decode_context(flat_buf.data(), flat_buf.size(),
                                     table_dec, via_flat)
                  .is_ok());
  expect_context_eq(via_legacy, via_flat);
}

TEST(CodecTest, InternWarmingShrinksTheSecondEncoding) {
  const sorcer::ServiceContext ctx = codec_sample_context();
  sorcer::PathInternTable encode_side;
  sorcer::PathInternTable decode_side;
  const auto hits_before = counter("invoke.intern_hits");

  sorcer::WireBuffer cold, warm;
  sorcer::encode_context(ctx, encode_side, cold);    // defines every path
  sorcer::encode_context(ctx, encode_side, warm);    // all ids, no literals
  EXPECT_LT(warm.size(), cold.size());
  EXPECT_GE(counter("invoke.intern_hits") - hits_before, ctx.size());

  // Both encodings decode identically through one decoder table: the cold
  // pass teaches it the ids the warm pass relies on.
  sorcer::ServiceContext from_cold, from_warm;
  ASSERT_TRUE(sorcer::decode_context(cold.data(), cold.size(), decode_side,
                                     from_cold)
                  .is_ok());
  ASSERT_TRUE(sorcer::decode_context(warm.data(), warm.size(), decode_side,
                                     from_warm)
                  .is_ok());
  expect_context_eq(from_cold, from_warm);
}

TEST(CodecTest, UnknownInternIdIsRejected) {
  const sorcer::ServiceContext ctx = codec_sample_context();
  sorcer::PathInternTable warm_encoder;
  sorcer::WireBuffer cold, warm;
  sorcer::encode_context(ctx, warm_encoder, cold);
  sorcer::encode_context(ctx, warm_encoder, warm);

  // A decoder that never saw the defining (cold) encoding cannot resolve
  // the warm one's bare ids.
  sorcer::PathInternTable fresh_decoder;
  sorcer::ServiceContext decoded;
  EXPECT_EQ(sorcer::decode_context(warm.data(), warm.size(), fresh_decoder,
                                   decoded)
                .code(),
            util::ErrorCode::kCodecDesync);
}

TEST(CodecTest, EncoderResetRecoversALostDefinitionStream) {
  const sorcer::ServiceContext ctx = codec_sample_context();
  sorcer::PathInternTable encoder;
  sorcer::WireBuffer cold, warm, recovered;
  sorcer::encode_context(ctx, encoder, cold);  // defines every path — "lost"
  sorcer::encode_context(ctx, encoder, warm);  // bare ids only

  sorcer::PathInternTable decoder;  // never saw `cold`
  sorcer::ServiceContext decoded;
  ASSERT_EQ(
      sorcer::decode_context(warm.data(), warm.size(), decoder, decoded)
          .code(),
      util::ErrorCode::kCodecDesync);

  // The loss-recovery path: the encoder resets its stream, the next
  // encoding re-defines every path inline under a higher epoch, and the
  // stranded decoder adopts it.
  encoder.reset();
  sorcer::encode_context(ctx, encoder, recovered);
  ASSERT_TRUE(sorcer::decode_context(recovered.data(), recovered.size(),
                                     decoder, decoded)
                  .is_ok());
  EXPECT_EQ(decoded.size(), ctx.size());

  // A stale pre-reset encoding arriving late must be rejected, not decoded
  // against the new stream's mappings.
  EXPECT_EQ(
      sorcer::decode_context(warm.data(), warm.size(), decoder, decoded)
          .code(),
      util::ErrorCode::kCodecDesync);
}

TEST(CodecTest, TruncatedEncodingIsRejectedNotCrashed) {
  const sorcer::ServiceContext ctx = codec_sample_context();
  sorcer::PathInternTable table;
  sorcer::WireBuffer buf;
  sorcer::encode_context(ctx, table, buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    sorcer::PathInternTable fresh;
    sorcer::ServiceContext decoded;
    (void)sorcer::decode_context(buf.data(), cut, fresh, decoded);
    // Any outcome but a crash/UB is fine; most cuts must report truncation.
  }
  SUCCEED();
}

TEST(CodecTest, DecodeReusesSeriesCapacityInPlace) {
  sorcer::ServiceContext src("frames");
  src.put("flow/values", std::vector<double>(256, 1.0));
  sorcer::PathInternTable enc, dec;
  sorcer::WireBuffer buf;
  sorcer::encode_context(src, enc, buf);

  sorcer::ServiceContext target;
  ASSERT_TRUE(
      sorcer::decode_context(buf.data(), buf.size(), dec, target).is_ok());
  const std::vector<double>* first = target.peek_series("flow/values");
  ASSERT_NE(first, nullptr);
  const double* backing = first->data();

  // Decoding the same shape again must land in the same heap storage.
  ASSERT_TRUE(
      sorcer::decode_context(buf.data(), buf.size(), dec, target).is_ok());
  const std::vector<double>* second = target.peek_series("flow/values");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->data(), backing);
}

// --- packed series column ----------------------------------------------------

constexpr std::uint8_t kModeRaw = 0;
constexpr std::uint8_t kModeDod = 1;
constexpr std::uint8_t kModeXor = 2;

std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Encoding of a context holding one series under path "s", with a fresh
/// intern table: epoch, name length, entry count, key, path length, 's'
/// and meta take one byte each, so the column starts at byte 7.
constexpr std::size_t kSeriesAt = 7;

sorcer::WireBuffer encode_series(const std::vector<double>& v) {
  sorcer::ServiceContext ctx;
  ctx.put("s", v);
  sorcer::PathInternTable table;
  sorcer::WireBuffer buf;
  sorcer::encode_context(ctx, table, buf);
  return buf;
}

std::uint8_t series_mode(const sorcer::WireBuffer& buf, std::size_t n) {
  return buf.at(kSeriesAt + varint_len(n));
}

std::size_t series_body_bytes(const sorcer::WireBuffer& buf, std::size_t n) {
  return buf.size() - kSeriesAt - varint_len(n) - 1;
}

/// Encode, decode with a fresh table, and compare every element's bits.
void expect_series_round_trip(const std::vector<double>& v, const char* what) {
  const sorcer::WireBuffer buf = encode_series(v);
  sorcer::PathInternTable table;
  sorcer::ServiceContext decoded;
  ASSERT_TRUE(
      sorcer::decode_context(buf.data(), buf.size(), table, decoded).is_ok())
      << what;
  const std::vector<double>* got = decoded.peek_series("s");
  ASSERT_NE(got, nullptr) << what;
  ASSERT_EQ(got->size(), v.size()) << what;
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::uint64_t want_bits = 0;
    std::uint64_t got_bits = 0;
    std::memcpy(&want_bits, &v[i], sizeof want_bits);
    std::memcpy(&got_bits, &(*got)[i], sizeof got_bits);
    ASSERT_EQ(got_bits, want_bits) << what << " @" << i;
  }
  EXPECT_LE(series_body_bytes(buf, v.size()), 8 * v.size()) << what;
}

double from_bits(std::uint64_t bits) {
  double d = 0;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

std::vector<double> one_hz_timestamps(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 6.0e8 + 1.0e6 * static_cast<double>(i);
  }
  return v;
}

std::vector<double> noise(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (double& d : v) d = rng.uniform(-1.0e6, 1.0e6);
  return v;
}

TEST(CodecTest, SeriesRoundTripsBitExactInEveryMode) {
  constexpr double kTwo53 = 9007199254740992.0;
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<std::pair<const char*, std::vector<double>>> columns = {
      {"empty", {}},
      {"one integer", {7.0}},
      {"one float", {21.5}},
      {"two", {1.0, -1.0}},
      {"nan payloads",
       {from_bits(0x7ff8000000000001ULL), from_bits(0xfff0000000000abcULL),
        std::numeric_limits<double>::quiet_NaN(),
        from_bits(0x7ff4000000000000ULL), 1.0}},
      {"infinities", {inf, -inf, inf, 0.5, -inf}},
      {"negative zero", {0.0, -0.0, 0.0, -0.0, 1.0, 2.0, 3.0}},
      {"negative zero only", {-0.0, -0.0, -0.0}},
      {"denormals", {denorm, -denorm, 2 * denorm, 1e-310, 0.0}},
      {"2^53 bounds", {kTwo53, -kTwo53, kTwo53, 0.0, -kTwo53}},
      {"past 2^53", {kTwo53 + 2, kTwo53, kTwo53 + 4, -kTwo53 - 2}},
      {"64-bit dod escape", {0.0, kTwo53, -kTwo53, kTwo53, -kTwo53, 0.0}},
      {"every dod class",
       {0, 1000, 2000, 3017, 3800, 6300, 106300, 4000000000, 4000000001}},
      {"1 Hz timestamps x4096", one_hz_timestamps(4096)},
      {"noise x4096", noise(4096, 7)},
      {"steady floats x4096", std::vector<double>(4096, 21.625)},
  };
  for (const auto& [what, v] : columns) expect_series_round_trip(v, what);
}

TEST(CodecTest, SeriesModeFollowsTheData) {
  const std::vector<double> ts = one_hz_timestamps(256);
  const sorcer::WireBuffer ts_buf = encode_series(ts);
  EXPECT_EQ(series_mode(ts_buf, ts.size()), kModeDod);
  // A fixed cadence costs one bit per element after the second: the first
  // value is a varint and the first delta one 32-bit dod class, so 256
  // points fit in 5 + ceil((37 + 254) / 8) = 42 bytes against 2048 raw.
  EXPECT_EQ(series_body_bytes(ts_buf, ts.size()), 42u);

  const std::vector<double> qualities(256, 0.0);
  EXPECT_EQ(series_mode(encode_series(qualities), 256), kModeDod);

  std::vector<double> slow(256);
  for (std::size_t i = 0; i < slow.size(); ++i) {
    slow[i] = 20.0 + 0.5 * static_cast<double>(i / 16);
  }
  EXPECT_EQ(series_mode(encode_series(slow), slow.size()), kModeXor);

  // Noise costs at most the mode byte over the raw layout, at every size:
  // XOR is kept only where it is strictly smaller than raw.
  for (std::size_t n : {1u, 2u, 3u, 17u, 256u, 4096u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const std::vector<double> v = noise(n, seed);
      const sorcer::WireBuffer buf = encode_series(v);
      EXPECT_LE(series_body_bytes(buf, n), 8 * n) << n << "/" << seed;
      if (series_mode(buf, n) != kModeRaw) {
        EXPECT_LT(series_body_bytes(buf, n), 8 * n) << n << "/" << seed;
      }
    }
  }
  EXPECT_EQ(series_mode(encode_series(noise(4096, 1)), 4096), kModeRaw);
  // The -0.0 guard: an otherwise-integer column with -0.0 is not dod.
  EXPECT_NE(series_mode(encode_series({1.0, -0.0, 3.0, 4.0}), 4), kModeDod);
}

TEST(CodecTest, SeriesCountersTrackRawAndWireBytes) {
  const auto raw_before = counter("invoke.series_raw_bytes");
  const auto wire_before = counter("invoke.series_wire_bytes");
  const std::vector<double> ts = one_hz_timestamps(512);
  const sorcer::WireBuffer buf = encode_series(ts);
  EXPECT_EQ(counter("invoke.series_raw_bytes") - raw_before, 8u * 512);
  EXPECT_EQ(counter("invoke.series_wire_bytes") - wire_before,
            1 + series_body_bytes(buf, ts.size()));
}

TEST(CodecTest, SeriesLegacyEnvelopeStaysRaw) {
  // The legacy codec is the frozen PERF-5 baseline: 8 bytes per element.
  sorcer::ServiceContext ctx;
  ctx.put("s", one_hz_timestamps(64));
  sorcer::WireBuffer legacy;
  bench::encode_context_legacy(ctx, legacy);
  EXPECT_GE(legacy.size(), 8u * 64);
  sorcer::ServiceContext decoded;
  ASSERT_TRUE(bench::decode_context_legacy(legacy.data(), legacy.size(),
                                           decoded)
                  .is_ok());
  EXPECT_EQ(*decoded.peek_series("s"), one_hz_timestamps(64));
}

/// A context with one series per mode plus scalar neighbours on both sides.
sorcer::ServiceContext series_fuzz_context() {
  sorcer::ServiceContext ctx("fuzz");
  ctx.put("a/before", 3.5);
  ctx.put("hist/timestamps", one_hz_timestamps(40));
  std::vector<double> slow(40);
  for (std::size_t i = 0; i < slow.size(); ++i) {
    slow[i] = 20.0 + 0.25 * static_cast<double>(i % 5);
  }
  ctx.put("hist/values", slow);
  ctx.put("hist/noise", noise(12, 3));
  ctx.put("z/after", std::string("tail"));
  return ctx;
}

TEST(CodecTest, SeriesFuzzContextUsesEveryMode) {
  const sorcer::ServiceContext ctx = series_fuzz_context();
  for (const char* path : {"hist/timestamps", "hist/values", "hist/noise"}) {
    const std::vector<double>* v = ctx.peek_series(path);
    ASSERT_NE(v, nullptr);
    expect_series_round_trip(*v, path);
  }
  EXPECT_EQ(series_mode(encode_series(one_hz_timestamps(40)), 40), kModeDod);
  EXPECT_EQ(series_mode(encode_series(*ctx.peek_series("hist/values")), 40),
            kModeXor);
  EXPECT_EQ(series_mode(encode_series(noise(12, 3)), 12), kModeRaw);
}

TEST(CodecTest, SeriesTruncationAtEveryCutPointIsRejected) {
  const sorcer::ServiceContext ctx = series_fuzz_context();
  sorcer::PathInternTable table;
  sorcer::WireBuffer buf;
  sorcer::encode_context(ctx, table, buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    // A copy of exactly `cut` bytes, so ASan catches any read past it.
    const std::vector<std::uint8_t> prefix(
        buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut));
    sorcer::PathInternTable fresh;
    sorcer::ServiceContext decoded;
    EXPECT_FALSE(sorcer::decode_context(prefix.data(), prefix.size(), fresh,
                                        decoded)
                     .is_ok())
        << "cut " << cut << " of " << buf.size();
  }
  sorcer::PathInternTable fresh;
  sorcer::ServiceContext whole;
  ASSERT_TRUE(
      sorcer::decode_context(buf.data(), buf.size(), fresh, whole).is_ok());
  expect_context_eq(ctx, whole);
}

TEST(CodecTest, SeriesByteFlipsNeverCrashOrOverAllocate) {
  const sorcer::ServiceContext ctx = series_fuzz_context();
  sorcer::PathInternTable table;
  sorcer::WireBuffer buf;
  sorcer::encode_context(ctx, table, buf);
  util::Rng rng(2024);
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<std::uint8_t> mutated = buf;
    const int flips = 1 + static_cast<int>(rng.below(3));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.below(255));
    }
    sorcer::PathInternTable fresh;
    sorcer::ServiceContext decoded;
    if (!sorcer::decode_context(mutated.data(), mutated.size(), fresh,
                                decoded)
             .is_ok()) {
      continue;
    }
    // Whatever decoded must fit what the bytes could carry: at most one
    // element per bit.
    for (const std::string& path : decoded.paths()) {
      if (const std::vector<double>* v = decoded.peek_series(path)) {
        EXPECT_LE(v->size(), 8 * mutated.size()) << "trial " << trial;
      }
    }
  }
}

TEST(CodecTest, SeriesCountBeyondTheBodyIsRejectedBeforeAllocating) {
  // Hand-built single-series encodings declaring far more elements than the
  // 16-byte body holds; a reserve() of the declared count would throw.
  for (std::uint8_t mode : {kModeRaw, kModeDod, kModeXor}) {
    for (std::uint64_t n : {std::uint64_t{1} << 40, std::uint64_t{1} << 61,
                            ~std::uint64_t{0} >> 1}) {
      sorcer::WireBuffer buf = {0, 0, 1, 1, 1, 's', 5};
      for (std::uint64_t v = n; ; v >>= 7) {
        if (v < 0x80) {
          buf.push_back(static_cast<std::uint8_t>(v));
          break;
        }
        buf.push_back(static_cast<std::uint8_t>(v) | 0x80);
      }
      buf.push_back(mode);
      buf.insert(buf.end(), 16, 0);
      sorcer::PathInternTable table;
      sorcer::ServiceContext decoded;
      EXPECT_FALSE(
          sorcer::decode_context(buf.data(), buf.size(), table, decoded)
              .is_ok())
          << "mode " << int(mode) << " n " << n;
    }
  }
}

TEST(CodecTest, WirePathWarmsInternTablesAcrossCalls) {
  Deployment lab(quiet_config());
  lab.add_temperature_sensor("Warm-Sensor", 21.0);

  auto first = read_task("Warm-Sensor");
  ASSERT_TRUE(sorcer::exert(first, lab.accessor()).is_ok());
  lab.network().reset_stats();
  auto second = read_task("Warm-Sensor");
  ASSERT_TRUE(sorcer::exert(second, lab.accessor()).is_ok());
  const auto warm_sent =
      lab.network().stats_for(lab.invoker().address()).payload_bytes_sent;

  lab.network().reset_stats();
  auto third = read_task("Warm-Sensor");
  ASSERT_TRUE(sorcer::exert(third, lab.accessor()).is_ok());
  const auto steady_sent =
      lab.network().stats_for(lab.invoker().address()).payload_bytes_sent;

  // Steady-state calls ship interned ids only — no larger than the warmed
  // second call, and both strictly smaller than a cold legacy envelope.
  sorcer::WireBuffer legacy;
  bench::encode_context_legacy(first->context(), legacy);
  EXPECT_LE(steady_sent, warm_sent);
  EXPECT_LT(steady_sent, legacy.size() + bench::kRequestEnvelopeBytes);
}

TEST(CodecTest, BufferPoolRecyclesAcrossRoundTrips) {
  auto pool = sorcer::BufferPool::make(4);
  const auto reuse_before = counter("invoke.pool_reuse");
  {
    auto handle = pool->acquire();
    handle->assign(128, 0xab);
  }  // handle returns its buffer to the pool
  EXPECT_EQ(pool->retained(), 1u);
  {
    auto recycled = pool->acquire();
    EXPECT_TRUE(recycled->empty());  // cleared on reuse
    EXPECT_GE(recycled->capacity(), 128u);
  }
  EXPECT_GE(counter("invoke.pool_reuse") - reuse_before, 1u);
}

TEST(CodecTest, BufferPoolSurvivesConcurrentRecycling) {
  // TSan-exercised: handles bounce between threads while the pool recycles
  // underneath them.
  auto pool = sorcer::BufferPool::make(8);
  std::vector<std::thread> workers;
  workers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&pool, t] {
      for (int i = 0; i < 500; ++i) {
        auto handle = pool->acquire();
        handle->push_back(static_cast<std::uint8_t>(t));
        handle->insert(handle->end(), 32, static_cast<std::uint8_t>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_LE(pool->retained(), 8u);
}

TEST(CodecTest, PoolOutlivedHandlesFreeInsteadOfCrashing) {
  sorcer::BufferPool::Handle survivor;
  {
    auto pool = sorcer::BufferPool::make(4);
    survivor = pool->acquire();
  }  // pool destroyed first
  survivor->push_back(1);
  survivor.reset();  // deleter finds the pool gone and frees
  SUCCEED();
}

TEST(CodecTest, ContextArenaStoresStableViews) {
  sorcer::ContextArena arena(64);  // tiny blocks to force growth
  std::vector<std::string_view> views;
  std::vector<std::string> sources;
  sources.reserve(100);
  for (int i = 0; i < 100; ++i) {
    sources.push_back("sensor/path/number/" + std::to_string(i));
    views.push_back(arena.store(sources.back()));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(views[i], sources[i]);
  EXPECT_GT(arena.bytes_allocated(), 0u);
}

TEST(CodecTest, ContextArenaRecyclesContextShells) {
  sorcer::ContextArena arena;
  sorcer::ServiceContext ctx = arena.acquire();
  ctx.put("a", std::vector<double>(64, 0.0));
  arena.release(std::move(ctx));
  EXPECT_EQ(arena.retained_contexts(), 1u);
  sorcer::ServiceContext again = arena.acquire();
  EXPECT_EQ(again.size(), 0u);  // logically cleared
  EXPECT_EQ(arena.retained_contexts(), 0u);
}

}  // namespace
}  // namespace sensorcer::core
