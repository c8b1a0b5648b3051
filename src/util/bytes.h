#pragma once
// Wire byte primitives: the one implementation of varints, zigzag and
// little-endian u64 shared by the flat exertion codec (sorcer/codec.cpp),
// the registry's renewAll payloads (registry/federation.cpp) and the
// historian's sealed-block footers (hist/block.cpp). Bit-level coding lives
// next door in util/gorilla.h.
//
//   varint: LEB128, 7 bits per byte, low group first, high bit = "more"; a
//           64-bit value takes at most 10 bytes
//   zigzag: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ... so small negatives stay
//           short as varints
//   u64:    8 bytes, least significant first
//
// Reader is a bounds-checked cursor: a truncated or corrupted input makes
// its getters return false instead of reading past the end, and a varint
// that carries more than 64 bits is rejected.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace sensorcer::util::bytes {

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t z) {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t raw[8];
  for (int i = 0; i < 8; ++i) raw[i] = static_cast<std::uint8_t>(v >> (8 * i));
  out.insert(out.end(), raw, raw + 8);
}

/// Unchecked load of 8 bytes at `p`; the caller has bounds-checked.
inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

struct Reader {
  const std::uint8_t* p;
  const std::uint8_t* end;

  [[nodiscard]] bool need(std::size_t n) const {
    return static_cast<std::size_t>(end - p) >= n;
  }

  bool varint(std::uint64_t& out) {
    out = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      if (p == end) return false;
      const std::uint8_t b = *p++;
      // The tenth byte holds bit 63 only: anything more overflows 64 bits.
      if (shift == 63 && b > 1) return false;
      out |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return true;
    }
    return false;
  }

  bool u64(std::uint64_t& out) {
    if (!need(8)) return false;
    out = load_u64(p);
    p += 8;
    return true;
  }

  bool view(std::size_t n, std::string_view& out) {
    if (!need(n)) return false;
    out = std::string_view(reinterpret_cast<const char*>(p), n);
    p += n;
    return true;
  }
};

}  // namespace sensorcer::util::bytes
