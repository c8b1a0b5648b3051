#include "bench/legacy_codec.h"

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/gorilla.h"

namespace sensorcer::bench {

namespace {

using sorcer::ContextValue;
using sorcer::PathDirection;
using sorcer::ServiceContext;
using sorcer::WireBuffer;
using util::bytes::put_u64;
using util::bytes::put_varint;
using util::bytes::Reader;
using util::gorilla::bits_double;
using util::gorilla::double_bits;

// Type tags: the ContextValue variant index, as in the flat codec.
enum : std::uint8_t {
  kTagNone = 0,
  kTagDouble = 1,
  kTagInt = 2,
  kTagBool = 3,
  kTagString = 4,
  kTagSeries = 5,
};

void put_bytes(WireBuffer& out, std::string_view s) {
  out.insert(out.end(), s.begin(), s.end());
}

void encode_value(WireBuffer& out, const ContextValue& value) {
  struct Visitor {
    WireBuffer& out;
    void operator()(std::monostate) const {}
    void operator()(double d) const { put_u64(out, double_bits(d)); }
    void operator()(std::int64_t i) const {
      put_varint(out, util::bytes::zigzag(i));
    }
    void operator()(bool b) const { out.push_back(b ? 1 : 0); }
    void operator()(const std::string& s) const {
      put_varint(out, s.size());
      put_bytes(out, s);
    }
    void operator()(const std::vector<double>& v) const {
      put_varint(out, v.size());
      for (double d : v) put_u64(out, double_bits(d));
    }
  };
  std::visit(Visitor{out}, value);
}

bool decode_value(Reader& r, std::uint8_t tag, ContextValue& slot) {
  std::uint64_t word = 0;
  switch (tag) {
    case kTagNone:
      slot = std::monostate{};
      return true;
    case kTagDouble:
      if (!r.u64(word)) return false;
      slot = bits_double(word);
      return true;
    case kTagInt:
      if (!r.varint(word)) return false;
      slot = util::bytes::unzigzag(word);
      return true;
    case kTagBool:
      if (!r.need(1)) return false;
      slot = (*r.p++ != 0);
      return true;
    case kTagString: {
      std::string_view bytes;
      if (!r.varint(word) || !r.view(word, bytes)) return false;
      slot = std::string(bytes);
      return true;
    }
    case kTagSeries: {
      // Reject a count the body cannot hold before reserving anything.
      if (!r.varint(word)) return false;
      if (word > static_cast<std::uint64_t>(r.end - r.p) / 8) return false;
      std::vector<double> v;
      v.reserve(word);
      for (std::uint64_t i = 0; i < word; ++i) {
        std::uint64_t bits = 0;
        (void)r.u64(bits);
        v.push_back(bits_double(bits));
      }
      slot = std::move(v);
      return true;
    }
    default:
      return false;
  }
}

util::Status truncated() {
  return {util::ErrorCode::kInvalidArgument, "truncated context encoding"};
}

}  // namespace

void encode_context_legacy(const ServiceContext& ctx, WireBuffer& out) {
  out.clear();
  put_varint(out, ctx.name().size());
  put_bytes(out, ctx.name());
  put_varint(out, ctx.size());
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const ServiceContext::EntryView e = ctx.entry_at(i);
    put_varint(out, e.path.size());
    put_bytes(out, e.path);
    out.push_back(static_cast<std::uint8_t>(
        e.value.index() | (static_cast<std::size_t>(e.direction) << 4)));
    encode_value(out, e.value);
  }
}

util::Status decode_context_legacy(const std::uint8_t* data, std::size_t size,
                                   ServiceContext& into) {
  Reader r{data, data + size};
  std::uint64_t name_len = 0;
  std::string_view name;
  if (!r.varint(name_len) || !r.view(name_len, name)) return truncated();
  std::uint64_t count = 0;
  if (!r.varint(count)) return truncated();

  // Reproduce the replaced design faithfully: a node-per-entry ordered map
  // built up per decode, then drained into the context. This is what every
  // wire hop paid before the flat codec.
  struct Slot {
    ContextValue value;
    PathDirection direction;
  };
  std::map<std::string, Slot> staged;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t len = 0;
    std::string_view path;
    if (!r.varint(len) || !r.view(len, path)) return truncated();
    if (!r.need(1)) return truncated();
    const std::uint8_t meta = *r.p++;
    Slot& slot = staged[std::string(path)];
    slot.direction = static_cast<PathDirection>((meta >> 4) & 0x03);
    if (!decode_value(r, meta & 0x0f, slot.value)) return truncated();
  }
  into.reload_begin(name);
  for (auto& [path, slot] : staged) {
    into.reload_slot(path, slot.direction) = std::move(slot.value);
  }
  into.reload_end();
  return util::Status::ok();
}

}  // namespace sensorcer::bench
