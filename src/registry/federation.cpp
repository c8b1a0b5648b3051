#include "registry/federation.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/log.h"

namespace sensorcer::registry {

namespace {

struct LookupMetrics {
  obs::Gauge& services;
  obs::Counter& registrations;
  obs::Counter& renewals;
  obs::Counter& cancellations;
  obs::Counter& expirations;
  obs::Counter& lookups;
  obs::Counter& events;
  obs::Counter& renew_batches;
  obs::Counter& renew_batch_leases;
  obs::Counter& renew_denied;
  obs::Gauge& shards;
  obs::Gauge& shard_imbalance;
};

LookupMetrics& lookup_metrics() {
  static LookupMetrics m{obs::metrics().gauge("registry.services"),
                         obs::metrics().counter("registry.registrations"),
                         obs::metrics().counter("registry.renewals"),
                         obs::metrics().counter("registry.cancellations"),
                         obs::metrics().counter("registry.expirations"),
                         obs::metrics().counter("registry.lookups"),
                         obs::metrics().counter("registry.events"),
                         obs::metrics().counter("registry.renew_batches"),
                         obs::metrics().counter("registry.renew_batch_leases"),
                         obs::metrics().counter("registry.renew_denied"),
                         obs::metrics().gauge("registry.shards"),
                         obs::metrics().gauge("registry.shard_imbalance")};
  return m;
}

/// Per-shard population gauges for the health report's balance row. set()
/// semantics: the values reflect the most recently mutated federation.
obs::Gauge& shard_gauge(std::size_t shard) {
  static std::vector<obs::Gauge*> cache;
  while (cache.size() <= shard) {
    cache.push_back(&obs::metrics().gauge("registry.shard_services." +
                                          std::to_string(cache.size())));
  }
  return *cache[shard];
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t ring_point(std::uint32_t shard, std::size_t vnode) {
  return splitmix64(splitmix64(shard + 1) ^
                    (vnode * 0x9e3779b97f4a7c15ull));
}

// Modeled envelope bytes around a renewAll payload (header + op id + status),
// mirroring the flat exertion envelope sizes of the sorcer wire path.
constexpr std::size_t kBatchRequestEnvelope = 28;
constexpr std::size_t kBatchResponseEnvelope = 12;

}  // namespace

// --- ConsistentRing ---------------------------------------------------------

ConsistentRing::ConsistentRing(std::uint32_t shards) {
  for (std::uint32_t s = 0; s < shards; ++s) add_shard(s);
}

void ConsistentRing::add_shard(std::uint32_t shard) {
  ring_.reserve(ring_.size() + kVirtualNodes);
  for (std::size_t v = 0; v < kVirtualNodes; ++v) {
    ring_.emplace_back(ring_point(shard, v), shard);
  }
  std::sort(ring_.begin(), ring_.end());
  ++shards_;
}

void ConsistentRing::remove_shard(std::uint32_t shard) {
  std::erase_if(ring_, [shard](const auto& p) { return p.second == shard; });
  --shards_;
}

std::uint32_t ConsistentRing::shard_for(const util::Uuid& id) const {
  const std::uint64_t point = splitmix64(id.hi ^ (id.lo * 0xff51afd7ed558ccdull));
  // First virtual node clockwise of the id's point (wrapping).
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const auto& entry, std::uint64_t p) { return entry.first < p; });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

// --- wirefmt ----------------------------------------------------------------

namespace wirefmt {

namespace {

using util::bytes::put_u64;
using util::bytes::put_varint;
using util::bytes::Reader;
using util::bytes::unzigzag;
using util::bytes::zigzag;

util::Status truncated() {
  return {util::ErrorCode::kInvalidArgument, "truncated renewAll payload"};
}

}  // namespace

void encode_renew_request(const std::vector<RenewItem>& items,
                          std::vector<std::uint8_t>& out) {
  out.clear();
  put_varint(out, items.size());
  // Columnar: the lease-id column is incompressible (128-bit randoms); the
  // extension column delta-zigzags against the previous value so a
  // same-duration batch pays one byte per lease after the first.
  for (const RenewItem& item : items) {
    put_u64(out, item.lease_id.hi);
    put_u64(out, item.lease_id.lo);
  }
  std::int64_t prev = 0;
  for (const RenewItem& item : items) {
    put_varint(out, zigzag(item.extension - prev));
    prev = item.extension;
  }
}

util::Status decode_renew_request(const std::uint8_t* data, std::size_t size,
                                  std::vector<RenewItem>& into) {
  into.clear();
  Reader r{data, data + size};
  std::uint64_t count = 0;
  if (!r.varint(count)) return truncated();
  if (count > size / 16) {  // each id alone needs 16 bytes
    return {util::ErrorCode::kInvalidArgument, "renewAll count exceeds payload"};
  }
  into.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!r.u64(into[i].lease_id.hi) || !r.u64(into[i].lease_id.lo)) {
      return truncated();
    }
  }
  std::int64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t z = 0;
    if (!r.varint(z)) return truncated();
    prev += unzigzag(z);
    into[i].extension = prev;
  }
  return util::Status::ok();
}

void encode_renew_response(const std::vector<util::Uuid>& denied,
                           std::vector<std::uint8_t>& out) {
  out.clear();
  put_varint(out, denied.size());
  for (const util::Uuid& id : denied) {
    put_u64(out, id.hi);
    put_u64(out, id.lo);
  }
}

util::Status decode_renew_response(const std::uint8_t* data, std::size_t size,
                                   std::vector<util::Uuid>& into) {
  into.clear();
  Reader r{data, data + size};
  std::uint64_t count = 0;
  if (!r.varint(count)) return truncated();
  if (count > size / 16) {
    return {util::ErrorCode::kInvalidArgument, "denied count exceeds payload"};
  }
  into.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!r.u64(into[i].hi) || !r.u64(into[i].lo)) {
      return truncated();
    }
  }
  return util::Status::ok();
}

}  // namespace wirefmt

// --- RegistryFederation -----------------------------------------------------

RegistryFederation::RegistryFederation(std::string name,
                                       util::Scheduler& scheduler,
                                       simnet::Network* network,
                                       util::SimDuration sweep_period,
                                       std::size_t shards)
    : name_(std::move(name)),
      scheduler_(scheduler),
      network_(network),
      address_(util::new_uuid()),
      ring_(static_cast<std::uint32_t>(shards == 0 ? 1 : shards)) {
  const std::size_t n = shards == 0 ? 1 : shards;
  shards_.reserve(n);
  shard_addrs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<LusShard>(static_cast<std::uint32_t>(i)));
    shard_addrs_.push_back(util::new_uuid());
  }
  if (network_ != nullptr) {
    // The federation front is addressable so discovery can deliver unicast
    // requests to it. Shard addresses exist only for traffic attribution.
    network_->attach(address_, [](const simnet::Message&) {});
  }
  sweep_timer_ = scheduler_.schedule_every(sweep_period, [this] {
    sweep_expired();
  });
  lookup_metrics().shards.set(static_cast<double>(shard_count()));
}

RegistryFederation::~RegistryFederation() {
  scheduler_.cancel(sweep_timer_);
  if (network_ != nullptr) network_->detach(address_);
}

void RegistryFederation::charge_rpc(simnet::Address callee,
                                    std::size_t request_bytes,
                                    std::size_t response_bytes) const {
  if (network_ != nullptr) {
    network_->account_rpc(address_, callee, request_bytes, response_bytes);
  }
}

void RegistryFederation::refresh_balance_gauges() const {
  std::size_t max_size = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::size_t size = shards_[i]->size();
    shard_gauge(i).set(static_cast<double>(size));
    max_size = std::max(max_size, size);
    total += size;
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(shards_.size());
  lookup_metrics().shard_imbalance.set(
      mean > 0.0 ? static_cast<double>(max_size) / mean : 0.0);
}

ServiceRegistration RegistryFederation::register_service(
    ServiceItem item, util::SimDuration lease_duration) {
  if (item.id.is_nil()) item.id = util::new_uuid();

  const std::uint32_t home = ring_.shard_for(item.id);
  Lease lease{util::new_uuid(), scheduler_.now() + lease_duration,
              lease_duration, home};
  charge_rpc(shard_addrs_[home], item.wire_bytes(), /*response=*/32);

  const bool replaced = shards_[home]->register_service(item, lease);
  lookup_metrics().registrations.add(1);
  if (!replaced) lookup_metrics().services.add(1.0);
  refresh_balance_gauges();
  fire(Transition::kNoMatchToMatch, item);
  SENSORCER_LOG_DEBUG("lus", "%s: registered %s on shard %u", name_.c_str(),
                      item.attributes.get_string(attr::kName, "?").c_str(),
                      home);
  return {item.id, lease};
}

util::Status RegistryFederation::renew_lease(const util::Uuid& lease_id,
                                             util::SimDuration extension) {
  const util::SimTime now = scheduler_.now();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->renew(lease_id, now, extension)) {
      charge_rpc(shard_addrs_[i], 24, 8);
      lookup_metrics().renewals.add(1);
      return util::Status::ok();
    }
  }
  // Not a service lease — maybe an event-registration lease.
  if (!renew_event_lease(lease_id, now, extension)) {
    return {util::ErrorCode::kNotFound, "unknown or expired lease"};
  }
  charge_rpc(address_, 24, 8);
  lookup_metrics().renewals.add(1);
  return util::Status::ok();
}

bool RegistryFederation::renew_event_lease(const util::Uuid& lease_id,
                                           util::SimTime now,
                                           util::SimDuration extension) {
  auto ev = lease_to_event_.find(lease_id);
  if (ev == lease_to_event_.end()) return false;
  Lease& lease = event_regs_.at(ev->second).lease;
  lease.expiration = now + extension;
  lease.duration = extension;
  return true;
}

RenewOutcome RegistryFederation::renew_events(
    const std::vector<RenewItem>& items) {
  RenewOutcome outcome;
  const util::SimTime now = scheduler_.now();
  for (const RenewItem& item : items) {
    if (renew_event_lease(item.lease_id, now, item.extension)) {
      ++outcome.renewed;
    } else {
      outcome.denied.push_back(item.lease_id);
    }
  }
  return outcome;
}

RenewOutcome RegistryFederation::renew_batch(
    std::uint32_t shard, const std::vector<RenewItem>& items) {
  // Encode → decode the request through the wire codec so the charged bytes
  // are the real flat-encoded size and the decode path runs live.
  wirefmt::encode_renew_request(items, wire_scratch_);
  const std::size_t request_bytes = wire_scratch_.size() + kBatchRequestEnvelope;
  const util::Status decoded = wirefmt::decode_renew_request(
      wire_scratch_.data(), wire_scratch_.size(), decode_scratch_);

  RenewOutcome outcome;
  if (!decoded.is_ok()) {
    // Malformed batch: every lease is denied (cannot happen for a
    // self-encoded request; kept for protocol completeness).
    for (const RenewItem& item : items) outcome.denied.push_back(item.lease_id);
  } else if (shard == kEventLeaseShard) {
    outcome = renew_events(decode_scratch_);
  } else {
    const util::SimTime now = scheduler_.now();
    for (const RenewItem& item : decode_scratch_) {
      // The shard hint goes stale across reshards; fall back to a federation
      // search before denying so a migrated lease keeps renewing.
      bool renewed = shard < shards_.size() &&
                     shards_[shard]->renew(item.lease_id, now, item.extension);
      if (!renewed) {
        for (std::size_t i = 0; i < shards_.size() && !renewed; ++i) {
          if (i != shard) {
            renewed = shards_[i]->renew(item.lease_id, now, item.extension);
          }
        }
      }
      if (!renewed) {
        renewed = renew_event_lease(item.lease_id, now, item.extension);
      }
      if (renewed) {
        ++outcome.renewed;
      } else {
        outcome.denied.push_back(item.lease_id);
      }
    }
  }

  wirefmt::encode_renew_response(outcome.denied, wire_scratch_);
  const std::size_t response_bytes =
      wire_scratch_.size() + kBatchResponseEnvelope;
  const simnet::Address callee = shard == kEventLeaseShard ||
                                         shard >= shard_addrs_.size()
                                     ? address_
                                     : shard_addrs_[shard];
  charge_rpc(callee, request_bytes, response_bytes);
  lookup_metrics().renew_batches.add(1);
  lookup_metrics().renew_batch_leases.add(items.size());
  lookup_metrics().renewals.add(outcome.renewed);
  lookup_metrics().renew_denied.add(outcome.denied.size());
  return outcome;
}

util::Status RegistryFederation::cancel_lease(const util::Uuid& lease_id) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (auto item = shards_[i]->cancel(lease_id)) {
      charge_rpc(shard_addrs_[i], 24, 8);
      lookup_metrics().cancellations.add(1);
      lookup_metrics().services.sub(1.0);
      refresh_balance_gauges();
      fire(Transition::kMatchToNoMatch, *item);
      return util::Status::ok();
    }
  }
  auto ev = lease_to_event_.find(lease_id);
  if (ev == lease_to_event_.end()) {
    return {util::ErrorCode::kNotFound, "unknown or expired lease"};
  }
  charge_rpc(address_, 24, 8);
  lookup_metrics().cancellations.add(1);
  return cancel_notify(ev->second);
}

void RegistryFederation::shards_for_template(
    const ServiceTemplate& tmpl, std::vector<std::uint32_t>& out) const {
  out.clear();
  if (tmpl.id) {
    out.push_back(ring_.shard_for(*tmpl.id));
    return;
  }
  if (!tmpl.types.empty()) {
    // A match must implement every template type, so any single type's
    // shard subset bounds the fan-out; take the most selective one.
    std::vector<std::uint32_t> best;
    for (const auto& type : tmpl.types) {
      std::vector<std::uint32_t> with_type;
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (shards_[i]->has_type(type)) {
          with_type.push_back(static_cast<std::uint32_t>(i));
        }
      }
      if (best.empty() || with_type.size() < best.size()) {
        best = std::move(with_type);
        if (best.empty()) break;  // some type matches nowhere: empty result
      }
    }
    out = std::move(best);
    return;
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    out.push_back(static_cast<std::uint32_t>(i));
  }
}

std::vector<ServiceItem> RegistryFederation::lookup(
    const ServiceTemplate& tmpl, std::size_t max_matches) const {
  lookup_metrics().lookups.add(1);
  std::vector<std::uint32_t> targets;
  shards_for_template(tmpl, targets);
  std::vector<ServiceItem> out;
  for (const std::uint32_t t : targets) {
    // Each consulted shard is one fanned-out request — scoping the shard
    // subset is exactly what the type index buys at federation scale.
    charge_rpc(shard_addrs_[t], tmpl.attributes.wire_bytes() + 48, 0);
    shards_[t]->lookup_into(tmpl, out);
  }
  // Deterministic order (storage maps iterate in hash order, and shard fan
  // order must not show): order by name before truncating so lookup_one
  // always returns the same provider. partial_sort keeps truncated lookups
  // (the common lookup_one case over a large type bucket) at O(n).
  const auto by_name = [](const ServiceItem& a, const ServiceItem& b) {
    const auto an = a.attributes.get_string(attr::kName);
    const auto bn = b.attributes.get_string(attr::kName);
    return an != bn ? an < bn : a.id < b.id;
  };
  if (out.size() > max_matches) {
    std::partial_sort(out.begin(),
                      out.begin() + static_cast<std::ptrdiff_t>(max_matches),
                      out.end(), by_name);
    out.resize(max_matches);
  } else {
    std::sort(out.begin(), out.end(), by_name);
  }
  for (const auto& item : out) {
    charge_rpc(shard_addrs_[ring_.shard_for(item.id)], 0, item.wire_bytes());
  }
  return out;
}

util::Result<ServiceItem> RegistryFederation::lookup_one(
    const ServiceTemplate& tmpl) const {
  auto matches = lookup(tmpl, 1);
  if (matches.empty()) {
    return util::Status{util::ErrorCode::kNotFound,
                        "no service matches template"};
  }
  return matches.front();
}

util::Status RegistryFederation::modify_attributes(ServiceId service_id,
                                                   Entry new_attributes) {
  const std::uint32_t home = ring_.shard_for(service_id);
  charge_rpc(shard_addrs_[home], new_attributes.wire_bytes() + 16, 8);
  auto item = shards_[home]->modify_attributes(service_id,
                                               std::move(new_attributes));
  if (!item) {
    return {util::ErrorCode::kNotFound, "service not registered"};
  }
  fire(Transition::kMatchToMatch, *item);
  return util::Status::ok();
}

EventRegistration RegistryFederation::notify(ServiceTemplate tmpl,
                                             TransitionMask mask,
                                             EventListener listener,
                                             util::SimDuration lease_duration) {
  EventRegistration out;
  out.id = util::new_uuid();
  out.lease = Lease{util::new_uuid(), scheduler_.now() + lease_duration,
                    lease_duration, kEventLeaseShard};
  charge_rpc(address_, tmpl.attributes.wire_bytes() + 64, 48);
  event_regs_.emplace(
      out.id, EventReg{std::move(tmpl), mask, std::move(listener), out.lease});
  lease_to_event_.emplace(out.lease.id, out.id);
  event_expiry_.arm(out.lease.expiration, out.lease.id);
  return out;
}

util::Status RegistryFederation::cancel_notify(
    const util::Uuid& registration_id) {
  auto it = event_regs_.find(registration_id);
  if (it == event_regs_.end()) {
    return {util::ErrorCode::kNotFound, "unknown event registration"};
  }
  lease_to_event_.erase(it->second.lease.id);
  event_regs_.erase(it);
  return util::Status::ok();
}

std::vector<std::size_t> RegistryFederation::shard_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(shards_.size());
  for (const auto& shard : shards_) sizes.push_back(shard->size());
  return sizes;
}

void RegistryFederation::migrate_to_ring_homes() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    auto moved = shards_[i]->extract_if_not([this, i](const ServiceId& id) {
      return ring_.shard_for(id) == static_cast<std::uint32_t>(i);
    });
    for (auto& reg : moved) {
      const std::uint32_t home = ring_.shard_for(reg.item.id);
      reg.lease.shard = home;
      shards_[home]->adopt(std::move(reg));
    }
  }
}

void RegistryFederation::add_shard() {
  const auto idx = static_cast<std::uint32_t>(shards_.size());
  shards_.push_back(std::make_unique<LusShard>(idx));
  shard_addrs_.push_back(util::new_uuid());
  ring_.add_shard(idx);
  migrate_to_ring_homes();
  lookup_metrics().shards.set(static_cast<double>(shard_count()));
  refresh_balance_gauges();
}

void RegistryFederation::remove_shard() {
  if (shards_.size() <= 1) return;
  const auto idx = static_cast<std::uint32_t>(shards_.size() - 1);
  ring_.remove_shard(idx);
  // With the shard off the ring its keep-predicate is never true, so the
  // migration drains it completely into the surviving shards.
  migrate_to_ring_homes();
  shard_gauge(idx).set(0.0);
  shards_.pop_back();
  shard_addrs_.pop_back();
  lookup_metrics().shards.set(static_cast<double>(shard_count()));
  refresh_balance_gauges();
}

std::size_t RegistryFederation::service_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

bool RegistryFederation::contains(ServiceId id) const {
  return shards_[ring_.shard_for(id)]->contains(id);
}

std::vector<ServiceItem> RegistryFederation::all_services() const {
  return lookup(ServiceTemplate{});
}

std::uint64_t RegistryFederation::expired_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->expired();
  return total;
}

std::uint64_t RegistryFederation::lookup_count() const {
  return lookup_metrics().lookups.value();
}

void RegistryFederation::sweep_expired() {
  const util::SimTime now = scheduler_.now();

  // Expired event registrations are dropped (leases, again) — e.g. the
  // historian-push subscription of a crashed ESP stops receiving events.
  event_expiry_.drain(
      now,
      [this](const util::Uuid& lease_id) -> util::SimTime {
        auto it = lease_to_event_.find(lease_id);
        if (it == lease_to_event_.end()) return kLeaseGone;
        return event_regs_.at(it->second).lease.expiration;
      },
      [this](const util::Uuid& lease_id) {
        const util::Uuid reg_id = lease_to_event_.at(lease_id);
        lease_to_event_.erase(lease_id);
        event_regs_.erase(reg_id);
        ++expired_events_;
        lookup_metrics().expirations.add(1);
      });

  std::vector<ServiceItem> disposed;
  for (const auto& shard : shards_) shard->sweep(now, disposed);
  if (!disposed.empty()) {
    lookup_metrics().expirations.add(disposed.size());
    lookup_metrics().services.sub(static_cast<double>(disposed.size()));
    refresh_balance_gauges();
  }
  for (const auto& item : disposed) {
    SENSORCER_LOG_DEBUG("lus", "%s: lease expired for %s", name_.c_str(),
                        item.attributes.get_string(attr::kName, "?").c_str());
    fire(Transition::kMatchToNoMatch, item);
  }
}

void RegistryFederation::fire(Transition transition, const ServiceItem& item) {
  // Snapshot: listeners may add/cancel registrations from the callback.
  std::vector<std::pair<util::Uuid, ServiceEvent>> to_deliver;
  for (auto& [reg_id, reg] : event_regs_) {
    if ((reg.mask & static_cast<unsigned>(transition)) == 0) continue;
    if (!reg.tmpl.matches(item)) continue;
    ServiceEvent ev;
    ev.registration_id = reg_id;
    ev.sequence = reg.next_sequence++;
    ev.transition = transition;
    ev.item = item;
    ev.timestamp = scheduler_.now();
    to_deliver.emplace_back(reg_id, std::move(ev));
  }
  for (auto& [reg_id, ev] : to_deliver) {
    auto it = event_regs_.find(reg_id);
    if (it == event_regs_.end()) continue;
    charge_rpc(address_, 0, 96);  // event delivery counts as outbound traffic
    lookup_metrics().events.add(1);
    it->second.listener(ev);
  }
}

}  // namespace sensorcer::registry
