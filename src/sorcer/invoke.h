#pragma once
// The service-to-service invocation pipeline.
//
// Every exertion dispatch — exert()'s task binding, the Jobber's child
// dispatch, space workers, the CSP's direct fan-out, facade reads — funnels
// through invoke_servicer(), which routes the call through the accessor's
// RemoteInvoker. The call really crosses the simnet fabric: the request
// context is marshalled by the flat codec (sorcer/codec.h) into a Message,
// sent under TCP protocol headers with trace-context propagation,
// dispatched provider-side by ServiceProvider's network handler, and
// answered the same way. The fabric charges the encoded bytes, so the bytes
// accounted are the bytes that crossed. Loss, partitions, bandwidth shaping
// and per-call deadlines (kTimeout) all come from the fabric for free —
// once calls are messages, they can be observed, dropped, and re-routed.
//
// The pipeline is asynchronous at its core: begin_invoke() scatters a
// request and hands back a PendingCall; pump_until_all() steps the
// scheduler once for every outstanding call, completing each as its
// response (or deadline) arrives. N overlapping round-trips therefore cost
// max(child latency), not the sum — fan-out concurrency lives in the
// messaging layer, not in threads. invoke() is the one-call degenerate
// case.
//
// A caller with no invoker, or a target not attached to the invoker's
// fabric, gets a plain direct call that charges no bytes.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "registry/transaction.h"
#include "simnet/network.h"
#include "sorcer/codec.h"
#include "sorcer/exertion.h"
#include "sorcer/servicer.h"

namespace sensorcer::sorcer {

class ServiceAccessor;
class ServiceProvider;

/// How invoke_servicer() reaches a provider: request/response Messages over
/// the simnet fabric, the only transport.
enum class Transport {
  kWire,
};

/// Wire-protocol topics (application dispatch tags on Messages).
namespace wire {
inline constexpr const char* kRequestTopic = "invoke.request";
inline constexpr const char* kResponseTopic = "invoke.response";
inline constexpr const char* kPingTopic = "invoke.ping";
inline constexpr const char* kPongTopic = "invoke.pong";

inline constexpr std::size_t kPingBytes = 16;

/// The legacy string envelope's fixed fields (call id + reply address +
/// signature), charged with encode_context_legacy() by the PERF-5 baseline.
inline constexpr std::size_t kRequestEnvelopeBytes = 64;

/// Envelope sizes for the flat binary codec (sorcer/codec.h): varint call
/// id + 16-byte reply uuid + interned signature id on the request, varint
/// call id + status code on the response.
inline constexpr std::size_t kFlatRequestEnvelopeBytes = 28;
inline constexpr std::size_t kFlatResponseEnvelopeBytes = 12;

/// Request body: the exertion rides by reference; `payload` is the
/// flat-codec encoding of its context (a pooled buffer — what the fabric's
/// payload_bytes charge is sized from). The provider decodes it into the
/// exertion's context before dispatch, which is the real marshalling work
/// a serialized transport would do.
struct Request {
  std::uint64_t call_id = 0;
  simnet::Address reply_to;
  ExertionPtr exertion;
  registry::Transaction* txn = nullptr;
  BufferPool::Handle payload;
  /// Loss recovery: the requestor failed to decode an earlier response
  /// (a definition-bearing message was dropped) — the provider must reset
  /// its response-intern table for reply_to before encoding.
  bool reset_reply_interning = false;
};

/// Response body. `transport_status` reports dispatch-layer failures only;
/// application failures travel inside the exertion itself. `payload` is the
/// flat-codec encoding of the post-dispatch context, decoded requestor-side
/// on gather.
struct Response {
  std::uint64_t call_id = 0;
  util::Status transport_status = util::Status::ok();
  BufferPool::Handle payload;
};
}  // namespace wire

struct InvokeConfig {
  /// Read by nothing; kept only because sensorcer_e2e/harness.cpp assigns it.
  Transport transport = Transport::kWire;
  /// Per-call deadline: how long (virtual time) a requestor pumps the fabric
  /// for a response before failing the call with kTimeout. Generous by
  /// default so a coordinated job's child round-trips fit inside the parent
  /// call; tests shrink it to observe deadline behaviour cheaply.
  util::SimDuration call_timeout = 2 * util::kSecond;
  /// Deadline for liveness pings (Rio monitor's provider health probes).
  util::SimDuration ping_timeout = 50 * util::kMillisecond;
};

/// One scattered invocation, owned by its issuer until gathered through
/// pump_until_all(). A call that never crossed the fabric — a target off
/// this invoker's fabric, or a send failure — is born completed with its
/// result already in place. Move-only: the invoker keeps only the call
/// id in its pending set; the handle is the sole completion slot.
class PendingCall {
 public:
  PendingCall() = default;
  PendingCall(PendingCall&&) noexcept = default;
  PendingCall& operator=(PendingCall&&) noexcept = default;
  PendingCall(const PendingCall&) = delete;
  PendingCall& operator=(const PendingCall&) = delete;

  [[nodiscard]] bool completed() const { return completed_; }
  /// The invocation outcome; valid only once completed().
  [[nodiscard]] util::Result<ExertionPtr>& result() { return *result_; }
  [[nodiscard]] const ExertionPtr& exertion() const { return exertion_; }
  /// Virtual-time deadline of the in-flight call (0 once born completed).
  [[nodiscard]] util::SimTime deadline() const { return deadline_; }

 private:
  friend class RemoteInvoker;

  std::uint64_t call_id_ = 0;  // 0 = never crossed the fabric
  util::SimTime started_ = 0;
  util::SimTime deadline_ = 0;
  util::SimDuration accrued_before_ = 0;
  util::SimDuration elapsed_ = 0;
  ExertionPtr exertion_;
  std::string target_name_;
  obs::Span span_;
  bool completed_ = false;
  std::optional<util::Result<ExertionPtr>> result_;
};

/// Client half of the pipeline ("requestor proxy" in SORCER terms — the
/// dynamically downloaded service stub). One per deployment; the accessor
/// hands it to every call site. It is single-threaded by design: the
/// issuer of a batch pumps the virtual-time scheduler until every response
/// lands, and nested dispatches (a provider invoking downstream providers
/// mid-call) pump the same scheduler recursively on the same stack, exactly
/// like the fabric's event loop unwinding in time order. Pumping from a
/// second thread is a bug and is guarded against.
class RemoteInvoker {
 public:
  RemoteInvoker(simnet::Network& net, InvokeConfig config = {});
  ~RemoteInvoker();

  RemoteInvoker(const RemoteInvoker&) = delete;
  RemoteInvoker& operator=(const RemoteInvoker&) = delete;

  /// Invoke `servicer->service(exertion, txn)` over the fabric. Targets
  /// that are not a ServiceProvider attached to this invoker's fabric get a
  /// direct call, so mixed deployments keep working. On deadline expiry the
  /// exertion is failed with kTimeout and returned (at-most-once semantics:
  /// the provider may still have executed; a late response is dropped).
  util::Result<ExertionPtr> invoke(const std::shared_ptr<Servicer>& servicer,
                                   const ExertionPtr& exertion,
                                   registry::Transaction* txn);

  /// Scatter half of invoke(): issue the request and return without
  /// waiting. The handle completes synchronously for anything that does not
  /// cross the fabric; otherwise gather it with pump_until_all(). Issuing N
  /// calls before gathering overlaps their round-trips on the fabric.
  PendingCall begin_invoke(const std::shared_ptr<Servicer>& servicer,
                           const ExertionPtr& exertion,
                           registry::Transaction* txn);

  /// Gather: step the scheduler once for *all* the given calls, completing
  /// each as its response lands or its deadline passes (timed-out ids leave
  /// the pending set, so their late responses are dropped and counted).
  /// Already-completed entries and nulls are skipped. Windows where the
  /// fabric has no event before the earliest deadline fast-forward straight
  /// to that deadline (invoke.idle_waits). Returns when every call is
  /// complete.
  void pump_until_all(std::span<PendingCall* const> calls);

  /// Liveness probe: round-trips a ping datagram to `target`. kTimeout when
  /// no pong arrives within the deadline (partitioned / detached / dead),
  /// kNotFound when the endpoint is not attached at all.
  util::Status ping(simnet::Address target, util::SimDuration timeout = 0);

  void set_call_timeout(util::SimDuration t) { config_.call_timeout = t; }
  [[nodiscard]] const InvokeConfig& config() const { return config_; }

  [[nodiscard]] simnet::Network& network() { return net_; }
  [[nodiscard]] simnet::Address address() const { return addr_; }

  /// Return a gathered call's shell for reuse: its string/span/result slots
  /// are cleared (capacity retained) and the next begin_invoke() recycles it
  /// instead of constructing fresh. Callers that batch (exert fan-out,
  /// invoke_servicer_all) recycle after harvesting outcomes.
  void recycle(PendingCall&& call);

  /// Per-peer codec state (intern tables + payload buffer pool); exposed so
  /// tests can observe intern warming and pool reuse.
  [[nodiscard]] const WireCodecState& codec_state() const { return codec_; }

 private:
  /// RAII nesting guard for scheduler pumping: nested frames on the pumping
  /// thread are legal (they ARE the event loop, recursing in time order);
  /// a pump from any other thread would interleave two event loops over one
  /// scheduler and is rejected.
  struct PumpGuard {
    explicit PumpGuard(RemoteInvoker& inv);
    ~PumpGuard();
    RemoteInvoker& inv;
  };
  friend struct PumpGuard;

  /// A response that landed but has not been gathered yet: the dispatch
  /// status (including the outcome of decoding its payload, which already
  /// happened on arrival) and when it arrived (virtual time).
  struct Arrival {
    util::Status status;
    util::SimTime at = 0;
  };

  /// Complete `call` from its arrived response (latency top-up from the
  /// response's arrival time, not the harvest time — an outer pump frame may
  /// gather it later) or, when `arrival` is null, from deadline expiry.
  void finish_call(PendingCall& call, const Arrival* arrival);
  /// Fabric handler. Decodes each response into its exertion's context as
  /// it arrives: the intern stream is consumed in arrival order, which is
  /// the provider's send (= encode) order.
  void on_message(const simnet::Message& msg);
  /// Pump the fabric until `call_id` completes or `deadline` passes.
  /// Returns true on completion.
  bool pump_until(std::uint64_t call_id, util::SimTime deadline);

  /// A recycled call shell, or a fresh one when the pool is dry.
  PendingCall acquire_call();

  simnet::Network& net_;
  InvokeConfig config_;
  simnet::Address addr_;
  std::uint64_t next_call_id_ = 1;
  /// In-flight call ids and the exertion each response decodes into (null
  /// for pings).
  std::unordered_map<std::uint64_t, ExertionPtr> pending_;
  std::unordered_map<std::uint64_t, Arrival> done_;
  WireCodecState codec_;
  // Providers whose response-intern stream we could not decode (a
  // definition-bearing response was lost): the next request to each carries
  // reset_reply_interning so the provider restarts its side.
  std::unordered_set<simnet::Address> reply_reset_;
  // Direct calls (targets off the fabric) complete without pumping and may
  // come from any thread, so the recycling pool takes a mutex.
  std::mutex call_pool_mu_;
  std::vector<PendingCall> call_pool_;
  int pump_depth_ = 0;
  std::thread::id pump_thread_{};
};

/// A bound stub: the pairing of a resolved Servicer proxy with the invoker
/// that reaches it. What the accessor's resolution hands back conceptually —
/// call sites that hold a provider across calls keep one of these instead
/// of re-deciding the transport each time.
class ServicerStub {
 public:
  ServicerStub(std::shared_ptr<Servicer> servicer, RemoteInvoker* invoker)
      : servicer_(std::move(servicer)), invoker_(invoker) {}

  util::Result<ExertionPtr> exert(const ExertionPtr& exertion,
                                  registry::Transaction* txn = nullptr);

  [[nodiscard]] const std::shared_ptr<Servicer>& servicer() const {
    return servicer_;
  }

 private:
  std::shared_ptr<Servicer> servicer_;
  RemoteInvoker* invoker_;  // null = plain direct call
};

/// The one call-site entry point: route `servicer->service(...)` through
/// `accessor`'s invoker (direct call, no bytes charged, when none is wired).
util::Result<ExertionPtr> invoke_servicer(
    ServiceAccessor& accessor, const std::shared_ptr<Servicer>& servicer,
    const ExertionPtr& exertion, registry::Transaction* txn);

/// How a batch dispatch actually progressed — callers pick their latency
/// model from it. kWire means the round-trips overlapped on the fabric, so
/// the batch window already elapsed in virtual time (modeling serialized
/// per-call costs on top would double-count); kSequence means the calls ran
/// one after another as direct calls (no invoker wired).
enum class FanOut { kSequence, kWire };

/// Batch counterpart of invoke_servicer(): dispatch every (servicer,
/// exertion) pair and gather them all. With an invoker the calls are
/// scattered through begin_invoke() and their round-trips overlap on the
/// fabric; without one they run sequentially. Outcomes land on the
/// exertions themselves.
FanOut invoke_servicer_all(
    ServiceAccessor& accessor,
    const std::vector<std::pair<std::shared_ptr<Servicer>, ExertionPtr>>&
        calls,
    registry::Transaction* txn = nullptr);

}  // namespace sensorcer::sorcer
