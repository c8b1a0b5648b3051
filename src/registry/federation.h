#pragma once
// The federated Jini Lookup Service (LUS).
//
// Service providers register with a lease; requestors locate services by
// template; listeners receive remote events on registry transitions. Leases
// not renewed in time expire, and the service is disposed from the network —
// the health mechanism of §IV.B that the lease-churn experiment measures.
//
// PR 8 federates the registry: RegistryFederation consistent-hashes service
// ids across N LusShard partitions (shard.h) so registration, renewal and
// by-id lookup cost stay flat as the population grows toward the ROADMAP's
// 10^6-sensor target. Template lookups fan out only to the shards whose type
// index can match, renewals arrive in per-shard renewAll batches (a flat
// binary wire codec below models their real byte cost), and lease expiry is
// driven by per-shard min-heaps instead of full-map scans. Event
// registrations stay at the federation front: transitions are global, so
// sharding them would turn every registration into an all-shard broadcast.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "registry/shard.h"
#include "simnet/network.h"
#include "util/scheduler.h"
#include "util/status.h"

namespace sensorcer::registry {

/// Consistent-hash ring mapping service ids to shard indexes through virtual
/// nodes, so adding or removing a shard re-homes only ~1/N of the population
/// (Wiselib's partitioned-coordination argument, PAPERS.md).
class ConsistentRing {
 public:
  static constexpr std::size_t kVirtualNodes = 64;

  explicit ConsistentRing(std::uint32_t shards = 0);

  void add_shard(std::uint32_t shard);
  void remove_shard(std::uint32_t shard);

  /// Owning shard for `id`; the ring must be non-empty.
  [[nodiscard]] std::uint32_t shard_for(const util::Uuid& id) const;

  [[nodiscard]] std::size_t shard_count() const { return shards_; }

 private:
  std::size_t shards_ = 0;
  // (ring point, shard), sorted by point.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

/// One lease in a renewAll batch.
struct RenewItem {
  util::Uuid lease_id;
  util::SimDuration extension = 0;
};

/// Outcome of a renewAll batch: leases the shard refused (unknown/expired)
/// lapse individually; the rest were extended.
struct RenewOutcome {
  std::size_t renewed = 0;
  std::vector<util::Uuid> denied;
};

/// Flat binary wire format for the batched lease protocol, columnar in the
/// style of the sorcer flat exertion codec and built on the same byte
/// primitives (util/bytes.h). A renewAll request is `varint count · count
/// raw 16-byte lease ids · count delta-zigzag-varint extensions` — a
/// same-duration batch (the common case) costs ~17 bytes per lease after
/// the first.
namespace wirefmt {

void encode_renew_request(const std::vector<RenewItem>& items,
                          std::vector<std::uint8_t>& out);
util::Status decode_renew_request(const std::uint8_t* data, std::size_t size,
                                  std::vector<RenewItem>& into);
void encode_renew_response(const std::vector<util::Uuid>& denied,
                           std::vector<std::uint8_t>& out);
util::Status decode_renew_response(const std::uint8_t* data, std::size_t size,
                                   std::vector<util::Uuid>& into);

}  // namespace wirefmt

class RegistryFederation : public ServiceProxy {
 public:
  static constexpr std::size_t kDefaultShards = 4;

  /// `network` may be null for standalone/unit-test use; when present,
  /// every registry RPC is charged to it for traffic accounting.
  /// `sweep_period` controls how often expired leases are collected — the
  /// upper bound it adds to disposal latency is an ablation knob.
  /// `shards` is the initial partition count (>= 1).
  RegistryFederation(std::string name, util::Scheduler& scheduler,
                     simnet::Network* network = nullptr,
                     util::SimDuration sweep_period = 100 * util::kMillisecond,
                     std::size_t shards = kDefaultShards);

  ~RegistryFederation() override;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] simnet::Address address() const { return address_; }

  // --- registration -------------------------------------------------------

  /// Register (or re-register, keyed by item.id) a service for
  /// `lease_duration` of virtual time. A nil item id is assigned one. The
  /// granted lease carries its owning shard for batched renewal routing.
  ServiceRegistration register_service(ServiceItem item,
                                       util::SimDuration lease_duration);

  /// Extend a lease by `extension` from now. kNotFound for unknown/expired.
  /// Covers both service leases and event-registration leases, so a
  /// LeaseRenewalManager can keep notify() subscriptions alive too.
  util::Status renew_lease(const util::Uuid& lease_id,
                           util::SimDuration extension);

  /// Batched renewAll: extend every lease in `items` on `shard` (or the
  /// federation front's event leases for kEventLeaseShard) in one wire
  /// message. Denied leases lapse individually; the batch survives.
  RenewOutcome renew_batch(std::uint32_t shard,
                           const std::vector<RenewItem>& items);

  /// Cancel a lease, immediately disposing the service registration or
  /// event registration it guards.
  util::Status cancel_lease(const util::Uuid& lease_id);

  // --- lookup -------------------------------------------------------------

  /// All matching items, up to `max_matches`. Fans out to the shard subset
  /// whose type index can match (one shard for by-id templates).
  [[nodiscard]] std::vector<ServiceItem> lookup(
      const ServiceTemplate& tmpl, std::size_t max_matches = SIZE_MAX) const;

  /// First match or kNotFound.
  [[nodiscard]] util::Result<ServiceItem> lookup_one(
      const ServiceTemplate& tmpl) const;

  /// Update the attributes of a registered service (fires kMatchToMatch).
  util::Status modify_attributes(ServiceId service_id, Entry new_attributes);

  // --- events -------------------------------------------------------------

  /// Register interest in transitions of services matching `tmpl`.
  EventRegistration notify(ServiceTemplate tmpl, TransitionMask mask,
                           EventListener listener,
                           util::SimDuration lease_duration);

  /// Drop an event registration.
  util::Status cancel_notify(const util::Uuid& registration_id);

  // --- topology -----------------------------------------------------------

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Live registrations per shard (balance introspection).
  [[nodiscard]] std::vector<std::size_t> shard_sizes() const;

  /// Grow the federation by one shard, migrating the ~1/N of registrations
  /// the ring re-homes. Leases survive the move (id and expiration intact).
  void add_shard();

  /// Shrink by one shard (never below one), migrating its registrations to
  /// their new ring homes.
  void remove_shard();

  // --- introspection ------------------------------------------------------

  [[nodiscard]] std::size_t service_count() const;
  [[nodiscard]] bool contains(ServiceId id) const;
  [[nodiscard]] std::vector<ServiceItem> all_services() const;

  /// Registrations disposed because their lease ran out (not cancelled).
  [[nodiscard]] std::uint64_t expired_count() const;

  /// Event registrations dropped because their lease ran out.
  [[nodiscard]] std::uint64_t expired_event_count() const {
    return expired_events_;
  }

  /// Live event registrations.
  [[nodiscard]] std::size_t event_registration_count() const {
    return event_regs_.size();
  }

  /// Total lookup() calls served. Reads the process-wide obs counter
  /// `registry.lookups` (the old per-instance atomic migrated there), so
  /// callers measure deltas around the window of interest.
  [[nodiscard]] std::uint64_t lookup_count() const;

 private:
  struct EventReg {
    ServiceTemplate tmpl;
    TransitionMask mask;
    EventListener listener;
    Lease lease;
    std::uint64_t next_sequence = 1;
  };

  void sweep_expired();
  void fire(Transition transition, const ServiceItem& item);
  void charge_rpc(simnet::Address callee, std::size_t request_bytes,
                  std::size_t response_bytes) const;
  /// Shard indexes a template must consult: the owning shard for by-id,
  /// the type-index subset for typed templates, every shard otherwise.
  void shards_for_template(const ServiceTemplate& tmpl,
                           std::vector<std::uint32_t>& out) const;
  void migrate_to_ring_homes();
  void refresh_balance_gauges() const;
  RenewOutcome renew_events(const std::vector<RenewItem>& items);
  /// Extend an event-registration lease to now + extension; false when
  /// `lease_id` names no event registration.
  bool renew_event_lease(const util::Uuid& lease_id, util::SimTime now,
                         util::SimDuration extension);

  std::string name_;
  util::Scheduler& scheduler_;
  simnet::Network* network_;
  simnet::Address address_;
  util::TimerId sweep_timer_ = 0;

  ConsistentRing ring_;
  std::vector<std::unique_ptr<LusShard>> shards_;
  std::vector<simnet::Address> shard_addrs_;  // per-shard traffic accounting

  // Event registrations are front-resident (transitions are global).
  std::unordered_map<util::Uuid, EventReg> event_regs_;
  std::unordered_map<util::Uuid, util::Uuid> lease_to_event_;  // lease → reg
  ExpiryIndex event_expiry_;
  std::uint64_t expired_events_ = 0;

  // Scratch buffers reused across renew_batch calls (codec round-trips on
  // the live path without per-batch allocation churn).
  mutable std::vector<std::uint8_t> wire_scratch_;
  mutable std::vector<RenewItem> decode_scratch_;
};

}  // namespace sensorcer::registry
