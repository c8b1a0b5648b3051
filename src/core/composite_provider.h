#pragma once
// Composite Sensor Provider (CSP) — the aggregate of §V.B.
//
// A CSP composes elementary and other composite sensor services, binds each
// component to a dynamically created expression variable (a, b, c, ... in
// composition order), collects component values through the exertion
// federation, and computes its own value from them. Because a CSP can
// contain CSPs, logical sensor networking — and all of network management —
// "is reduced to the management of a single CSP".
//
// The read path is optimized for heavy traffic:
//   * the per-component task signatures are prebuilt once and invalidated
//     only on composition changes (no per-read string assembly);
//   * reads newer than the policy's freshness window are served from the
//     cached collection without any fan-out;
//   * concurrent collections coalesce — N simultaneous readers pay one
//     fan-out (single-flight);
//   * the CSP scatters the prebuilt plan to its children itself, as one
//     scatter-gather batch overlapped on the fabric (exert_all — the
//     primitive a Jobber runs for a job's children), so a collection costs
//     the slowest child plus one dispatch overhead, and nested CSPs add one
//     fan-out level each. No rendezvous peer sits on the read path.

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/interfaces.h"
#include "core/sensor_computation.h"
#include "sorcer/accessor.h"
#include "sorcer/exert.h"
#include "sorcer/provider.h"
#include "util/scheduler.h"

namespace sensorcer::core {

/// How a CSP gathers component values.
struct CollectionPolicy {
  /// kParallel scatters the children as one batch overlapped on the fabric
  /// (slowest child + one dispatch overhead); kSequence exerts them one after
  /// another (sum of the children + one dispatch overhead each).
  sorcer::Flow flow = sorcer::Flow::kParallel;
  /// Strict: any unreachable component fails the read. Lenient: missing
  /// components are skipped — but only for the default (average)
  /// computation, since an expression needs every variable bound.
  bool strict = true;
  /// Reads within `freshness` of the last completed collection are served
  /// from the cached component values (stamped with the collection time);
  /// 0 disables the cache and every read re-collects.
  util::SimDuration freshness = 0;
};

class CompositeSensorProvider : public sorcer::ServiceProvider,
                                public SensorDataAccessor {
 public:
  CompositeSensorProvider(std::string name, sorcer::ServiceAccessor& accessor,
                          util::Scheduler& scheduler,
                          CollectionPolicy policy = {});

  // --- composition ---------------------------------------------------------

  /// Compose the sensor service registered under `service_name`. The
  /// component gets the next free variable ('a', 'b', ...). Fails when the
  /// service cannot be found, is not a SensorDataAccessor, or would create
  /// a containment cycle.
  util::Status add_component(const std::string& service_name);

  /// Remove a composed component by service name. Remaining components keep
  /// their variables; the expression is cleared if it referenced the freed
  /// variable, and re-bound to the shifted value order otherwise.
  util::Status remove_component(const std::string& service_name);

  [[nodiscard]] std::size_t component_count() const {
    return components_.size();
  }
  [[nodiscard]] std::vector<std::string> component_names() const;
  [[nodiscard]] std::vector<std::string> component_variables() const;

  // --- computation -----------------------------------------------------------

  /// Attach a compute expression over the component variables.
  util::Status set_expression(const std::string& source);
  [[nodiscard]] std::string expression() const {
    return computation_.expression_source();
  }

  // --- SensorDataAccessor ------------------------------------------------------

  util::Result<double> get_value() override;
  util::Result<sensor::Reading> get_reading() override;
  [[nodiscard]] SensorInfo info() const override;

  /// Failover hand-off: adopt the predecessor composite's composition and
  /// expression (components are re-resolved by name, so a cascade restart
  /// rebinds to whatever instances currently serve those names).
  void assume_state_from(sorcer::ServiceProvider& predecessor) override;

  /// Modeled latency of the most recent component collection (zero when the
  /// read was served from the freshness cache or coalesced onto another
  /// reader's flight). Charged on top of the getValue operation when the
  /// composite is read through an exertion.
  [[nodiscard]] util::SimDuration last_collection_latency() const {
    return last_collection_latency_.load(std::memory_order_relaxed);
  }

 protected:
  util::SimDuration extra_invocation_latency(
      const std::string& selector) const override {
    return selector == op::kGetValue ? last_collection_latency() : 0;
  }

 private:
  struct Component {
    registry::ServiceId id;
    std::string name;
    std::string variable;
  };

  /// One prebuilt fan-out step: the task name (the component's variable)
  /// and its resolved signature, cached across reads.
  struct PlanEntry {
    std::string task_name;
    sorcer::Signature signature;
  };

  /// Result of one collection: per-component values in composition order
  /// (nullopt = unreachable/failed) plus provenance for quality stamping.
  struct Collected {
    std::vector<std::optional<double>> values;
    util::SimTime at = 0;
    bool from_cache = false;
  };

  void install_operations();

  /// Collect current values of all components, honouring the freshness
  /// cache and coalescing concurrent callers onto one in-flight fan-out.
  Collected collect();

  /// The actual fan-out, overlapped or sequential per the policy's flow.
  /// Returns values + modeled latency.
  std::vector<std::optional<double>> fan_out(
      const std::vector<PlanEntry>& plan, util::SimDuration* latency);

  /// Shared implementation behind get_value/get_reading.
  util::Result<double> read_value(Collected* collected_out);

  /// Drop the cached collection (and, when `plan_too`, the prebuilt task
  /// signatures). Called on composition and expression changes.
  void invalidate_cache(bool plan_too);

  /// True if `candidate` (a composite) contains *this transitively.
  bool would_cycle(const SensorDataAccessor& candidate) const;

  sorcer::ServiceAccessor& accessor_;
  util::Scheduler& scheduler_;
  CollectionPolicy policy_;
  std::vector<Component> components_;
  SensorComputation computation_;
  std::size_t next_variable_ = 0;
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<util::SimDuration> last_collection_latency_{0};

  // Collection cache + single-flight state. `collect_mu_` guards everything
  // below; the fan-out itself runs with the mutex released so concurrent
  // readers can coalesce instead of queueing.
  std::mutex collect_mu_;
  std::condition_variable collect_cv_;
  std::vector<PlanEntry> plan_;       // empty = rebuild on next collect
  bool cache_valid_ = false;
  util::SimTime cache_time_ = 0;
  std::vector<std::optional<double>> cached_values_;
  bool collect_in_flight_ = false;
  std::thread::id collect_owner_{};       // thread driving the in-flight fan-out
  std::uint64_t collect_generation_ = 0;  // bumped when a flight lands
};

}  // namespace sensorcer::core
