// Experiment CLM-6 (§IV.D): exertion federation — jobs over tasks under the
// two control strategies. Sweeps job fan-out and reports modeled (virtual)
// latency for sequential push, parallel push (Jobber) and pull with a
// worker crew (Spacer). Expected shape: sequence grows linearly with
// fan-out; parallel stays flat; pull interpolates by crew size.
//
// The wire-mode section reruns the fan-out sweep with every dispatch a
// request/response message pair on the simnet fabric: parallel push
// scatters all children and gathers them with one shared scheduler pump, so
// N round-trips overlap in virtual time instead of serializing.
//
// `bench_exertion wire` runs just the wire section; `bench_exertion smoke`
// runs a seconds-scale subset (marshalling table + wire sweep, CI under
// ASan). The marshalling micro-table compares the legacy string envelope
// against the flat interned codec (PERF-5) on real wall-clock time, payload
// bytes and heap allocations per call.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "registry/lease_renewal.h"
#include "simnet/network.h"
#include "sorcer/codec.h"
#include "sorcer/exert.h"
#include "sorcer/invoke.h"
#include "sorcer/jobber.h"
#include "sorcer/spacer.h"
#include "util/rng.h"
#include "util/strings.h"

// Counting allocator: every global new/delete bumps a relaxed counter so the
// marshalling table can report allocs/call. Delegates to malloc/free, so the
// sanitizers still see every allocation.
static std::atomic<std::uint64_t> g_alloc_count{0};

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace sensorcer;
using namespace sensorcer::sorcer;

namespace {

struct Fixture {
  util::Scheduler sched;
  std::shared_ptr<registry::LookupService> lus =
      std::make_shared<registry::LookupService>("lus", sched);
  registry::LeaseRenewalManager lrm{sched};
  ServiceAccessor accessor;
  ExertSpace space;
  std::shared_ptr<Tasker> tasker;
  std::shared_ptr<Jobber> jobber;
  std::shared_ptr<Spacer> spacer;

  explicit Fixture(std::size_t spacer_workers) {
    accessor.add_lookup(lus);
    tasker = std::make_shared<Tasker>("Worker");
    tasker->add_operation(
        "work", [](ServiceContext&) { return util::Status::ok(); },
        10 * util::kMillisecond);
    (void)tasker->join(lus, lrm, 3600 * util::kSecond);
    jobber = std::make_shared<Jobber>("Jobber", accessor);
    (void)jobber->join(lus, lrm, 3600 * util::kSecond);
    spacer = std::make_shared<Spacer>("Spacer", accessor, space,
                                      spacer_workers);
    (void)spacer->join(lus, lrm, 3600 * util::kSecond);
  }

};

std::shared_ptr<Job> make_job(std::size_t fanout, Flow flow, Access access) {
  auto job = Job::make("job", {flow, access, true});
  for (std::size_t i = 0; i < fanout; ++i) {
    job->add(Task::make("t" + std::to_string(i),
                        Signature{type::kTasker, "work", ""}));
  }
  return job;
}

// Same federation, but every service-to-service dispatch crosses the simnet
// fabric as a request/response message pair.
struct WireFixture {
  util::Scheduler sched;
  simnet::Network net{sched};
  std::shared_ptr<registry::LookupService> lus =
      std::make_shared<registry::LookupService>("lus", sched);
  registry::LeaseRenewalManager lrm{sched};
  ServiceAccessor accessor;
  ExertSpace space;
  RemoteInvoker invoker{net};
  std::shared_ptr<Tasker> tasker;
  std::shared_ptr<Jobber> jobber;
  std::shared_ptr<Spacer> spacer;

  explicit WireFixture(std::size_t spacer_workers) {
    accessor.add_lookup(lus);
    accessor.set_invoker(&invoker);
    tasker = std::make_shared<Tasker>("Worker");
    tasker->add_operation(
        "work", [](ServiceContext&) { return util::Status::ok(); },
        10 * util::kMillisecond);
    tasker->attach_network(net);
    (void)tasker->join(lus, lrm, 3600 * util::kSecond);
    jobber = std::make_shared<Jobber>("Jobber", accessor);
    jobber->attach_network(net);
    (void)jobber->join(lus, lrm, 3600 * util::kSecond);
    spacer = std::make_shared<Spacer>("Spacer", accessor, space,
                                      spacer_workers);
    spacer->attach_network(net);
    (void)spacer->join(lus, lrm, 3600 * util::kSecond);
  }
};

// Wire-mode fan-out sweep: elapsed fabric (virtual) time at the requestor,
// so overlapped round-trips show up directly. Sequence serializes one
// round-trip per child; scatter-gather parallel push overlaps them all in
// one shared scheduler pump, so the batch costs ~the slowest child.
void run_wire_section(bool smoke) {
  std::puts("Wire-mode fan-out sweep (200us one-way fabric "
            "latency; elapsed requestor time in virtual fabric time):");
  const std::vector<std::size_t> fanouts =
      smoke ? std::vector<std::size_t>{1, 8}
            : std::vector<std::size_t>{1, 2, 4, 8, 16, 32};
  std::vector<std::vector<std::string>> rows;
  for (std::size_t fanout : fanouts) {
    WireFixture fx(4);
    auto run = [&](Flow flow, Access access) -> util::SimDuration {
      auto job = make_job(fanout, flow, access);
      const util::SimTime t0 = fx.sched.now();
      (void)exert(job, fx.accessor);
      if (job->status() != ExertStatus::kDone) {
        std::puts("FAILED to execute wire-mode job");
        std::exit(1);
      }
      return fx.sched.now() - t0;
    };
    const auto seq = run(Flow::kSequence, Access::kPush);
    const auto par = run(Flow::kParallel, Access::kPush);
    const auto pull = run(Flow::kParallel, Access::kPull);
    rows.push_back({std::to_string(fanout), util::format_duration(seq),
                    util::format_duration(par), util::format_duration(pull),
                    util::format("%.1fx", static_cast<double>(seq) /
                                              static_cast<double>(par))});
  }
  std::puts(util::render_table({"tasks", "sequence push", "scatter-gather par",
                                "pull (4 workers)", "par speedup"},
                               rows)
                .c_str());
  std::puts("Expected shape: sequence ~ N x (RTT + 10ms service time); "
            "scatter-gather parallel push ~ one slowest child plus per-child "
            "dispatch overhead (>= 4x speedup by N=8); pull tracks the "
            "4-worker makespan model over the fabric.");
}

// --- PERF-5 marshalling micro-table -----------------------------------------
// Wall-clock encode+decode round trips for representative contexts, legacy
// string envelope vs flat interned codec. Legacy models the pre-flat wire
// path faithfully: a fresh payload buffer and a fresh decode target per call
// (nothing was pooled), full path strings on every entry, map-staged decode,
// 64-byte envelope. Flat runs warm: pooled buffer, per-pair intern tables,
// in-place reload into a recycled context, 28-byte envelope.

struct MarshalStats {
  double ns_per_call = 0;
  double bytes_per_call = 0;  // payload + envelope
  double allocs_per_call = 0;
};

template <typename Fn>
MarshalStats time_marshal(std::size_t iters, Fn&& per_call) {
  MarshalStats s;
  double bytes = 0;
  const std::uint64_t allocs0 =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) bytes += per_call();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs1 =
      g_alloc_count.load(std::memory_order_relaxed);
  const double n = static_cast<double>(iters);
  s.ns_per_call =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / n;
  s.bytes_per_call = bytes / n;
  s.allocs_per_call = static_cast<double>(allocs1 - allocs0) / n;
  return s;
}

MarshalStats marshal_legacy(const ServiceContext& src, std::size_t iters) {
  return time_marshal(iters, [&]() -> double {
    WireBuffer buf;
    encode_context_legacy(src, buf);
    ServiceContext dst;
    if (!decode_context_legacy(buf.data(), buf.size(), dst).is_ok()) {
      std::puts("FAILED: legacy decode error in marshalling table");
      std::exit(1);
    }
    return static_cast<double>(buf.size() + wire::kRequestEnvelopeBytes);
  });
}

MarshalStats marshal_flat(const ServiceContext& src, std::size_t iters) {
  auto pool = BufferPool::make();
  PathInternTable encode_side;
  PathInternTable decode_side;
  ServiceContext dst;
  // One warm-up round trip: interns every path on both sides and sizes the
  // recycled buffer/context, exactly like the second call on a live pair.
  {
    BufferPool::Handle buf = pool->acquire();
    encode_context(src, encode_side, *buf);
    (void)decode_context(buf->data(), buf->size(), decode_side, dst);
  }
  return time_marshal(iters, [&]() -> double {
    BufferPool::Handle buf = pool->acquire();
    encode_context(src, encode_side, *buf);
    if (!decode_context(buf->data(), buf->size(), decode_side, dst).is_ok()) {
      std::puts("FAILED: flat decode error in marshalling table");
      std::exit(1);
    }
    return static_cast<double>(buf->size() + wire::kFlatRequestEnvelopeBytes);
  });
}

void run_marshal_section(bool smoke) {
  std::puts("Marshalling micro-bench (PERF-5): encode+decode round trip per "
            "call, wall clock.");
  std::puts("legacy = string envelope, fresh buffer+context per call, +64B "
            "envelope; flat = warm interned codec, pooled buffer, recycled "
            "context, +28B envelope.");
  const std::size_t iters = smoke ? 20000 : 200000;

  // Representative wire payloads, smallest to largest.
  ServiceContext fanout("task");
  fanout.put("task/op", std::string("work"), PathDirection::kIn);
  fanout.put("task/arg/window", std::int64_t{64}, PathDirection::kIn);
  fanout.put("task/arg/threshold", 0.75, PathDirection::kIn);
  fanout.put("task/out/value", ContextValue{}, PathDirection::kOut);

  ServiceContext reply("read-reply");
  reply.put("sensor/name", std::string("building-3/floor-2/hvac/temp-11"),
            PathDirection::kIn);
  reply.put("sensor/value", 21.625);
  reply.put("sensor/timestamp", std::int64_t{1722470400123456});
  reply.put("sensor/quality", 0.98);
  reply.put("sensor/unit", std::string("celsius"));
  reply.put("sensor/stale", false);

  // Series-bearing payloads carry what the historian really ships: 1 Hz
  // microsecond timestamps, full-mantissa sensor noise, good-quality codes.
  util::Rng noise(5);
  ServiceContext batch("append-batch");
  {
    std::vector<double> ts(64), vals(64), quals(64);
    for (std::size_t i = 0; i < 64; ++i) {
      ts[i] = 1.7e15 + 1e6 * static_cast<double>(i);
      vals[i] = 21.0 + noise.gaussian(0.0, 0.15);
      quals[i] = 0.0;
    }
    batch.put("hist/sensor", std::string("building-3/floor-2/hvac/temp-11"),
              PathDirection::kIn);
    batch.put("hist/timestamps", std::move(ts), PathDirection::kIn);
    batch.put("hist/values", std::move(vals), PathDirection::kIn);
    batch.put("hist/qualities", std::move(quals), PathDirection::kIn);
  }

  // A historian downsample reply: bucket starts on a fixed 60 s grid and
  // bucket means, plus the request fields that ride back with it.
  ServiceContext downsample("downsample-reply");
  {
    std::vector<double> ts(256), means(256);
    for (std::size_t i = 0; i < 256; ++i) {
      ts[i] = 3.6e9 + 6e7 * static_cast<double>(i);
      means[i] = 21.0 + 0.5 * std::sin(static_cast<double>(i) / 20.0) +
                 noise.gaussian(0.0, 0.02);
    }
    downsample.put("hist/sensor",
                   std::string("building-3/floor-2/hvac/temp-11"),
                   PathDirection::kIn);
    downsample.put("hist/from", std::int64_t{3600000000}, PathDirection::kIn);
    downsample.put("hist/to", std::int64_t{18960000000}, PathDirection::kIn);
    downsample.put("hist/points", std::int64_t{256}, PathDirection::kIn);
    downsample.put("hist/timestamps", std::move(ts), PathDirection::kOut);
    downsample.put("hist/values", std::move(means), PathDirection::kOut);
    downsample.put("hist/source", std::string("tier60s"), PathDirection::kOut);
    downsample.put("hist/truncated", false, PathDirection::kOut);
  }

  struct Row {
    const char* label;
    const ServiceContext* ctx;
    bool asserted;  // the wire fan-out row carries the regression gate
  };
  const Row bench_rows[] = {{"fan-out task (4 entries)", &fanout, true},
                            {"sensor-read reply (6 entries)", &reply, false},
                            {"appendBatch (3x64-double series)", &batch,
                             false},
                            {"downsample reply (256 points)", &downsample,
                             false}};

  std::vector<std::vector<std::string>> rows;
  for (const Row& r : bench_rows) {
    const MarshalStats legacy = marshal_legacy(*r.ctx, iters);
    const MarshalStats flat = marshal_flat(*r.ctx, iters);
    const double ns_ratio = legacy.ns_per_call / flat.ns_per_call;
    const double byte_ratio = legacy.bytes_per_call / flat.bytes_per_call;
    rows.push_back(
        {r.label, util::format("%.0f", legacy.ns_per_call),
         util::format("%.0f", flat.ns_per_call),
         util::format("%.1fx", ns_ratio),
         util::format("%.0f", legacy.bytes_per_call),
         util::format("%.0f", flat.bytes_per_call),
         util::format("%.2fx", byte_ratio),
         util::format("%.1f", legacy.allocs_per_call),
         util::format("%.1f", flat.allocs_per_call)});
    if (r.asserted && (ns_ratio < 1.5 || byte_ratio < 1.25)) {
      std::printf("FAILED: flat codec regression on '%s' — need >=1.5x ns "
                  "and >=1.25x bytes over legacy, got %.2fx ns / %.2fx "
                  "bytes\n",
                  r.label, ns_ratio, byte_ratio);
      std::exit(1);
    }
  }
  std::puts(util::render_table({"context", "legacy ns", "flat ns", "ns ratio",
                                "legacy B", "flat B", "B ratio",
                                "legacy allocs", "flat allocs"},
                               rows)
                .c_str());
  std::puts("Expected shape: warm flat calls intern every path to a 1-byte "
            "id and reuse buffer/context storage, so allocs/call drop to ~0 "
            "and small-payload bytes shrink well past the 64B->28B envelope "
            "saving. Series rows win most on bytes: the flat codec packs "
            "timestamp and quality columns as delta-of-delta integers "
            "(~1 bit/point) and values as Gorilla XOR floats, against 8 raw "
            "bytes per point in the legacy envelope; their ns ratio is "
            "smaller because the bit coding costs more per point than a "
            "raw copy.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "wire" || mode == "smoke") {
    // Wire section only: `wire` for the full sweep (run_bench.sh appends it
    // to the default run anyway; this entry point exists for targeted runs),
    // `smoke` for the seconds-scale CI/ASan subset (which also gates on the
    // marshalling table so the codec perf floor is CI-enforced).
    std::puts("=== CLM-6: exertion federation — wire-mode section ===\n");
    if (mode == "smoke") run_marshal_section(true);
    run_wire_section(mode == "smoke");
    return 0;
  }

  std::puts("=== CLM-6: exertion federation — control-strategy latency ===\n");
  std::puts("Per-task service time 10ms (virtual); Spacer crew = 4.\n");

  std::vector<std::vector<std::string>> rows;
  for (std::size_t fanout : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    Fixture fx(4);
    auto seq = make_job(fanout, Flow::kSequence, Access::kPush);
    auto par = make_job(fanout, Flow::kParallel, Access::kPush);
    auto pull = make_job(fanout, Flow::kParallel, Access::kPull);
    (void)exert(seq, fx.accessor);
    (void)exert(par, fx.accessor);
    (void)exert(pull, fx.accessor);
    if (seq->status() != ExertStatus::kDone ||
        par->status() != ExertStatus::kDone ||
        pull->status() != ExertStatus::kDone) {
      std::puts("FAILED to execute jobs");
      return 1;
    }
    rows.push_back({std::to_string(fanout),
                    util::format_duration(seq->latency()),
                    util::format_duration(par->latency()),
                    util::format_duration(pull->latency()),
                    util::format("%.1fx", static_cast<double>(seq->latency()) /
                                              static_cast<double>(
                                                  par->latency()))});
  }
  std::puts(util::render_table({"tasks", "sequence push", "parallel push",
                                "pull (4 workers)", "par speedup"},
                               rows)
                .c_str());

  // Pull crew-size sweep at fixed fan-out.
  std::puts("Pull makespan vs worker-crew size (32 tasks):");
  std::vector<std::vector<std::string>> crew_rows;
  for (std::size_t workers : {1u, 2u, 4u, 8u, 16u, 32u}) {
    Fixture fx(workers);
    auto job = make_job(32, Flow::kParallel, Access::kPull);
    (void)exert(job, fx.accessor);
    crew_rows.push_back(
        {std::to_string(workers), util::format_duration(job->latency())});
  }
  std::puts(util::render_table({"workers", "makespan"}, crew_rows).c_str());

  std::puts("Expected shape: sequence latency linear in fan-out; parallel "
            "flat; pull interpolates with ceil(tasks/workers).\n");

  run_marshal_section(false);
  run_wire_section(false);
  return 0;
}
