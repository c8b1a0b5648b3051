#include "sorcer/codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/gorilla.h"

namespace sensorcer::sorcer {

namespace {

struct CodecMetrics {
  obs::Counter& intern_hits;
  obs::Counter& intern_misses;
  obs::Counter& arena_bytes;
  obs::Counter& pool_acquires;
  obs::Counter& pool_reuse;
  obs::Counter& series_raw_bytes;
  obs::Counter& series_wire_bytes;
};

CodecMetrics& codec_metrics() {
  static CodecMetrics m{obs::metrics().counter("invoke.intern_hits"),
                        obs::metrics().counter("invoke.intern_misses"),
                        obs::metrics().counter("invoke.arena_bytes"),
                        obs::metrics().counter("invoke.pool_acquires"),
                        obs::metrics().counter("invoke.pool_reuse"),
                        obs::metrics().counter("invoke.series_raw_bytes"),
                        obs::metrics().counter("invoke.series_wire_bytes")};
  return m;
}

// --- primitive writers -------------------------------------------------------

using util::bytes::put_u64;
using util::bytes::put_varint;
using util::bytes::Reader;
using util::bytes::unzigzag;
using util::bytes::zigzag;
using util::gorilla::bits_double;
using util::gorilla::double_bits;

void put_bytes(WireBuffer& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}

util::Status truncated() {
  return {util::ErrorCode::kInvalidArgument, "truncated context encoding"};
}

// Type tags. Order matches the ContextValue variant alternatives.
enum : std::uint8_t {
  kTagNone = 0,
  kTagDouble = 1,
  kTagInt = 2,
  kTagBool = 3,
  kTagString = 4,
  kTagSeries = 5,
};

// --- series column ----------------------------------------------------------
//
//   [varint n][u8 mode][body]
//     kSeriesRaw: 8n raw LE bytes (also the only mode for n == 0)
//     kSeriesDod: zigzag varint first value, then one delta-of-delta class
//                 per later element (util/gorilla.h), zero-padded to a byte
//     kSeriesXor: 64 raw bits of the first value, then one XOR code per
//                 later element, zero-padded to a byte
//
// dod is chosen when every element is an exact integer within +-2^53 and
// none is -0.0 (timestamps, counts, quality codes); the bound keeps every
// delta and dod inside int64. Any other column tries XOR. Either packed body
// falls back to raw as soon as it would not be smaller.

enum : std::uint8_t { kSeriesRaw = 0, kSeriesDod = 1, kSeriesXor = 2 };

constexpr std::int64_t kMaxExactInt = std::int64_t{1} << 53;

bool exact_int(double d) {
  constexpr auto kLimit = static_cast<double>(kMaxExactInt);
  if (!(d >= -kLimit && d <= kLimit)) return false;  // NaN too
  const auto i = static_cast<std::int64_t>(d);
  return static_cast<double>(i) == d && !(i == 0 && std::signbit(d));
}

/// Append the dod body of an all-exact_int column; false (with `out` partly
/// written) once it reaches `limit` bytes past `body_at`.
bool put_dod_body(WireBuffer& out, const std::vector<double>& v,
                  std::size_t body_at, std::size_t limit) {
  auto prev = static_cast<std::int64_t>(v[0]);
  put_varint(out, zigzag(prev));
  util::gorilla::BitWriter w(out);
  std::int64_t prev_delta = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    const auto cur = static_cast<std::int64_t>(v[i]);
    const std::int64_t delta = cur - prev;
    util::gorilla::put_dod(w, delta - prev_delta);
    prev_delta = delta;
    prev = cur;
    if (out.size() - body_at >= limit) return false;
  }
  w.flush();
  return out.size() - body_at < limit;
}

bool put_xor_body(WireBuffer& out, const std::vector<double>& v,
                  std::size_t body_at, std::size_t limit) {
  util::gorilla::BitWriter w(out);
  util::gorilla::XorState state;
  state.prev_bits = double_bits(v[0]);
  w.put(state.prev_bits, 64);
  for (std::size_t i = 1; i < v.size(); ++i) {
    util::gorilla::put_xor(w, state, double_bits(v[i]));
    if (out.size() - body_at >= limit) return false;
  }
  w.flush();
  return out.size() - body_at < limit;
}

void put_series(WireBuffer& out, const std::vector<double>& v) {
  put_varint(out, v.size());
  const std::size_t mode_at = out.size();
  out.push_back(kSeriesRaw);
  const std::size_t body_at = out.size();
  const std::size_t raw_bytes = 8 * v.size();
  if (!v.empty()) {
    const bool ints = std::all_of(v.begin(), v.end(), exact_int);
    const bool packed = ints ? put_dod_body(out, v, body_at, raw_bytes)
                             : put_xor_body(out, v, body_at, raw_bytes);
    if (packed) {
      out[mode_at] = ints ? kSeriesDod : kSeriesXor;
    } else {
      out.resize(body_at);
      for (double d : v) put_u64(out, double_bits(d));
    }
  }
  codec_metrics().series_raw_bytes.add(raw_bytes);
  codec_metrics().series_wire_bytes.add(out.size() - mode_at);
}

/// Decode a series column into `v`, reusing its capacity.
bool get_series(Reader& r, std::vector<double>& v) {
  std::uint64_t n = 0;
  if (!r.varint(n) || !r.need(1)) return false;
  const std::uint8_t mode = *r.p++;
  // Reject a count the body cannot hold before reserving anything: raw
  // needs 8 bytes per element; dod at least one varint byte then one bit per
  // later element; XOR 64 bits then one bit per later element.
  const auto avail = static_cast<std::uint64_t>(r.end - r.p);
  switch (mode) {
    case kSeriesRaw:
      if (n > avail / 8) return false;
      break;
    case kSeriesDod:
      if (n > 0 && (avail == 0 || n - 1 > (avail - 1) * 8)) return false;
      break;
    case kSeriesXor:
      if (n > 0 && (avail < 8 || n - 1 > (avail - 8) * 8)) return false;
      break;
    default:
      return false;
  }
  v.clear();
  v.reserve(n);
  if (n == 0) return true;
  if (mode == kSeriesRaw) {
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t bits = 0;
      (void)r.u64(bits);
      v.push_back(bits_double(bits));
    }
    return true;
  }
  if (mode == kSeriesDod) {
    std::uint64_t first = 0;
    if (!r.varint(first)) return false;
    std::int64_t prev = unzigzag(first);
    util::gorilla::BitReader bits(r.p, static_cast<std::size_t>(r.end - r.p));
    std::int64_t prev_delta = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (i > 0) {
        std::int64_t dod = 0;
        if (!util::gorilla::get_dod(bits, dod)) return false;
        prev_delta = util::gorilla::wrapping_add(prev_delta, dod);
        prev = util::gorilla::wrapping_add(prev, prev_delta);
      }
      // The encoder picks dod only for values within +-2^53; anything else
      // is corruption.
      if (prev < -kMaxExactInt || prev > kMaxExactInt) return false;
      v.push_back(static_cast<double>(prev));
    }
    r.p += bits.bytes_used();
    return true;
  }
  util::gorilla::BitReader bits(r.p, static_cast<std::size_t>(r.end - r.p));
  util::gorilla::XorState state;
  if (!bits.get(64, state.prev_bits)) return false;
  v.push_back(bits_double(state.prev_bits));
  for (std::uint64_t i = 1; i < n; ++i) {
    if (!util::gorilla::get_xor(bits, state)) return false;
    v.push_back(bits_double(state.prev_bits));
  }
  r.p += bits.bytes_used();
  return true;
}

void encode_value(WireBuffer& out, const ContextValue& value) {
  struct Visitor {
    WireBuffer& out;
    void operator()(std::monostate) const {}
    void operator()(double d) const { put_u64(out, double_bits(d)); }
    void operator()(std::int64_t i) const { put_varint(out, zigzag(i)); }
    void operator()(bool b) const { out.push_back(b ? 1 : 0); }
    void operator()(const std::string& s) const {
      put_varint(out, s.size());
      put_bytes(out, s.data(), s.size());
    }
    void operator()(const std::vector<double>& v) const { put_series(out, v); }
  };
  std::visit(Visitor{out}, value);
}

std::uint8_t tag_of(const ContextValue& value) {
  return static_cast<std::uint8_t>(value.index());
}

/// Decode one value of `tag` into `slot`, reusing the slot's existing
/// alternative (string / series capacity) when the type matches.
bool decode_value(Reader& r, std::uint8_t tag, ContextValue& slot) {
  switch (tag) {
    case kTagNone:
      slot = std::monostate{};
      return true;
    case kTagDouble: {
      std::uint64_t bits = 0;
      if (!r.u64(bits)) return false;
      slot = bits_double(bits);
      return true;
    }
    case kTagInt: {
      std::uint64_t raw = 0;
      if (!r.varint(raw)) return false;
      slot = unzigzag(raw);
      return true;
    }
    case kTagBool: {
      if (!r.need(1)) return false;
      slot = (*r.p++ != 0);
      return true;
    }
    case kTagString: {
      std::uint64_t n = 0;
      std::string_view bytes;
      if (!r.varint(n) || !r.view(n, bytes)) return false;
      auto* s = std::get_if<std::string>(&slot);
      if (s == nullptr) {
        slot = std::string(bytes);
      } else {
        s->assign(bytes);  // reuse capacity
      }
      return true;
    }
    case kTagSeries: {
      auto* v = std::get_if<std::vector<double>>(&slot);
      if (v == nullptr) {
        slot = std::vector<double>{};
        v = std::get_if<std::vector<double>>(&slot);
      }
      return get_series(r, *v);
    }
    default:
      return false;
  }
}

}  // namespace

// --- ContextArena ------------------------------------------------------------

char* ContextArena::alloc(std::size_t n) {
  n = (n + 7) & ~std::size_t{7};
  if (blocks_.empty() || used_ + n > block_bytes_) {
    // Oversized requests get a dedicated block; used_ lands past
    // block_bytes_ so the next alloc opens a fresh standard block.
    const std::size_t size = n > block_bytes_ ? n : block_bytes_;
    blocks_.push_back(std::make_unique<char[]>(size));
    used_ = 0;
  }
  char* out = blocks_.back().get() + used_;
  used_ += n;
  total_ += n;
  codec_metrics().arena_bytes.add(n);
  return out;
}

std::string_view ContextArena::store(std::string_view s) {
  if (s.empty()) return {};
  char* p = alloc(s.size());
  std::memcpy(p, s.data(), s.size());
  return {p, s.size()};
}

ServiceContext ContextArena::acquire() {
  if (free_.empty()) return ServiceContext{};
  ServiceContext ctx = std::move(free_.back());
  free_.pop_back();
  ctx.reload_begin("");
  ctx.reload_end();  // logical clear, capacity retained
  return ctx;
}

void ContextArena::release(ServiceContext&& ctx) {
  if (free_.size() >= 16) return;  // let it deallocate
  free_.push_back(std::move(ctx));
}

// --- PathInternTable ---------------------------------------------------------

std::uint32_t PathInternTable::id_for(std::string_view path, bool& fresh) {
  auto it = ids_.find(path);
  if (it != ids_.end()) {
    fresh = false;
    codec_metrics().intern_hits.add(1);
    return it->second;
  }
  fresh = true;
  codec_metrics().intern_misses.add(1);
  const std::string_view stored = arena_.store(path);
  const auto id = static_cast<std::uint32_t>(by_id_.size());
  by_id_.push_back(stored);
  ids_.emplace(stored, id);
  return id;
}

void PathInternTable::define(std::uint32_t id, std::string_view path) {
  if (id < by_id_.size()) return;  // replayed definition
  const std::string_view stored = arena_.store(path);
  by_id_.resize(id + 1);
  by_id_[id] = stored;
  ids_.emplace(stored, id);
}

std::string_view PathInternTable::lookup(std::uint32_t id) const {
  if (id >= by_id_.size()) return {};
  return by_id_[id];
}

void PathInternTable::reset() {
  // Arena storage stays put (outstanding views may still point into it);
  // only the assignments are forgotten, so the next encode starts a fresh
  // definition stream under a new epoch.
  ids_.clear();
  by_id_.clear();
  ++epoch_;
}

PathInternTable::Adopt PathInternTable::adopt_epoch(std::uint32_t epoch) {
  if (epoch == epoch_) return Adopt::kCurrent;
  if (epoch < epoch_) return Adopt::kStale;
  ids_.clear();
  by_id_.clear();
  epoch_ = epoch;
  return Adopt::kAdopted;
}

// --- flat codec --------------------------------------------------------------

void encode_context(const ServiceContext& ctx, PathInternTable& interner,
                    WireBuffer& out) {
  out.clear();
  put_varint(out, interner.epoch());
  put_varint(out, ctx.name().size());
  put_bytes(out, ctx.name().data(), ctx.name().size());
  put_varint(out, ctx.size());
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const ServiceContext::EntryView e = ctx.entry_at(i);
    bool fresh = false;
    const std::uint32_t id = interner.id_for(e.path, fresh);
    put_varint(out, (static_cast<std::uint64_t>(id) << 1) | (fresh ? 1 : 0));
    if (fresh) {
      put_varint(out, e.path.size());
      put_bytes(out, e.path.data(), e.path.size());
    }
    out.push_back(static_cast<std::uint8_t>(
        tag_of(e.value) | (static_cast<std::uint8_t>(e.direction) << 4)));
    encode_value(out, e.value);
  }
}

util::Status decode_context(const std::uint8_t* data, std::size_t size,
                            PathInternTable& interner, ServiceContext& into) {
  Reader r{data, data + size};
  std::uint64_t epoch = 0;
  if (!r.varint(epoch)) return truncated();
  if (interner.adopt_epoch(static_cast<std::uint32_t>(epoch)) ==
      PathInternTable::Adopt::kStale) {
    return {util::ErrorCode::kCodecDesync,
            "stale intern epoch " + std::to_string(epoch)};
  }
  std::uint64_t name_len = 0;
  std::string_view name;
  if (!r.varint(name_len) || !r.view(name_len, name)) return truncated();
  std::uint64_t count = 0;
  if (!r.varint(count)) return truncated();

  into.reload_begin(name);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t key = 0;
    if (!r.varint(key)) return truncated();
    const auto id = static_cast<std::uint32_t>(key >> 1);
    std::string_view path;
    if (key & 1) {
      std::uint64_t len = 0;
      if (!r.varint(len) || !r.view(len, path)) return truncated();
      interner.define(id, path);
    } else {
      // Bounds-check the id itself: the empty path is a legal intern entry,
      // so an empty lookup() result cannot signal "unknown".
      if (id >= interner.size()) {
        // The message that carried this id's definition was dropped by the
        // fabric; the caller resets the stream (see PathInternTable::reset).
        return {util::ErrorCode::kCodecDesync,
                "unknown interned path id " + std::to_string(id)};
      }
      path = interner.lookup(id);
    }
    if (!r.need(1)) return truncated();
    const std::uint8_t meta = *r.p++;
    const std::uint8_t tag = meta & 0x0f;
    const auto dir = static_cast<PathDirection>((meta >> 4) & 0x03);
    ContextValue& slot = into.reload_slot(path, dir);
    if (!decode_value(r, tag, slot)) {
      return truncated();
    }
  }
  into.reload_end();
  return util::Status::ok();
}

// --- BufferPool --------------------------------------------------------------

std::shared_ptr<BufferPool> BufferPool::make(std::size_t max_retained) {
  return std::shared_ptr<BufferPool>(new BufferPool(max_retained));
}

BufferPool::Handle BufferPool::acquire() {
  std::unique_ptr<WireBuffer> buf;
  {
    std::lock_guard lock(mu_);
    if (!free_.empty()) {
      buf = std::move(free_.back());
      free_.pop_back();
    }
  }
  codec_metrics().pool_acquires.add(1);
  if (buf) {
    codec_metrics().pool_reuse.add(1);
    buf->clear();
  } else {
    buf = std::make_unique<WireBuffer>();
  }
  std::weak_ptr<BufferPool> weak = weak_from_this();
  WireBuffer* raw = buf.release();
  return Handle(raw, [weak](WireBuffer* b) {
    std::unique_ptr<WireBuffer> owned(b);
    if (auto pool = weak.lock()) pool->give_back(std::move(owned));
  });
}

void BufferPool::give_back(std::unique_ptr<WireBuffer> buf) {
  std::lock_guard lock(mu_);
  if (free_.size() < max_retained_) free_.push_back(std::move(buf));
}

std::size_t BufferPool::retained() const {
  std::lock_guard lock(mu_);
  return free_.size();
}

}  // namespace sensorcer::sorcer
