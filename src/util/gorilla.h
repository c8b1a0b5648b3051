#pragma once
// Gorilla bit coding: the one implementation shared by the historian's
// sealed blocks (hist/block.cpp) and the flat wire codec's series column
// (sorcer/codec.cpp).
//
// Both streams are MSB-first bit sequences. Integer runs (timestamps,
// counts) are coded as delta-of-delta classes, so a fixed cadence costs one
// bit per element:
//
//     '0'                    dod == 0
//     '10'    + 7 bits       dod in [-63, 64]        (stored dod + 63)
//     '110'   + 9 bits       dod in [-255, 256]      (stored dod + 255)
//     '1110'  + 12 bits      dod in [-2047, 2048]    (stored dod + 2047)
//     '11110' + 32 bits      dod fits int32          (two's complement)
//     '11111' + 64 bits      anything                (two's complement)
//
// Floating-point runs are coded as x = bits(value) XOR bits(previous), so a
// repeated value costs one bit and a slowly moving one only its changed
// mantissa bits:
//
//     '0'                    x == 0
//     '10'    + prev window  meaningful bits of x fit the previous
//                            leading/length window (stored in that window)
//     '11'    + 6b leading + 6b (meaningful - 1) + meaningful bits of x
//
// Every read is bounds-checked: a truncated or corrupted stream makes the
// getters return false instead of reading past the buffer. Decoding peeks a
// class prefix together with its short payload in one word load, then
// consumes what it used.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace sensorcer::util::gorilla {

inline std::uint64_t double_bits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

inline double bits_double(std::uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// Big-endian 64-bit load/store: the bit streams are MSB-first, so a
/// stream word is its eight bytes in big-endian order.
inline std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  if constexpr (std::endian::native == std::endian::little) {
    w = __builtin_bswap64(w);
  }
  return w;
}

inline void store_be64(std::uint8_t* p, std::uint64_t w) {
  if constexpr (std::endian::native == std::endian::little) {
    w = __builtin_bswap64(w);
  }
  std::memcpy(p, &w, sizeof(w));
}

/// MSB-first bit appender onto a caller-owned byte vector (so the wire codec
/// can write straight into a pooled buffer). Bits collect in a 64-bit
/// accumulator that spills whole words; flush() writes the partial tail, so
/// the vector lags the written bit count by up to eight bytes until then.
class BitWriter {
 public:
  explicit BitWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  /// Append the low `bits` bits of `v` (bits <= 64), most-significant first.
  void put(std::uint64_t v, unsigned bits) {
    if (bits == 0) return;
    if (bits < 64) v &= (std::uint64_t{1} << bits) - 1;
    if (fill_ + bits < 64) {
      acc_ = (acc_ << bits) | v;
      fill_ += bits;
      return;
    }
    // The word fills up: top it off, spill it, keep the remainder.
    const unsigned head = 64 - fill_;  // 1..64
    const unsigned rest = bits - head;  // 0..63
    acc_ = head == 64 ? v : (acc_ << head) | (v >> rest);
    const std::size_t at = out_.size();
    out_.resize(at + 8);
    store_be64(out_.data() + at, acc_);
    acc_ = rest == 0 ? 0 : v & ((std::uint64_t{1} << rest) - 1);
    fill_ = rest;
  }

  /// Write the pending bits, zero-padding the final partial byte.
  void flush() {
    if (fill_ == 0) return;
    const std::uint64_t word = acc_ << (64 - fill_);
    for (unsigned i = 0; i < (fill_ + 7) / 8; ++i) {
      out_.push_back(static_cast<std::uint8_t>(word >> (56 - 8 * i)));
    }
    acc_ = 0;
    fill_ = 0;
  }

 private:
  std::vector<std::uint8_t>& out_;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;  // bits pending in acc_, always < 64
};

/// Bounds-checked MSB-first bit reader over a byte span.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size, std::size_t bit_pos = 0)
      : data_(data), size_(size), bit_pos_(bit_pos) {}

  /// Read `bits` bits (<= 64) into `out`; false, without advancing, when the
  /// stream holds fewer.
  bool get(unsigned bits, std::uint64_t& out) {
    if (bit_pos_ + bits > size_ * 8) return false;
    if (bits == 0) {
      out = 0;
      return true;
    }
    const std::size_t byte = bit_pos_ >> 3;
    const auto offset = static_cast<unsigned>(bit_pos_ & 7);
    std::uint64_t v = 0;
    if (byte + 8 <= size_) {
      // Fast path: one big-endian word load covers offset + bits <= 64;
      // a wider window takes its last bits from the ninth byte, which the
      // bounds check above guarantees exists.
      v = (load_be64(data_ + byte) << offset) >> (64 - bits);
      if (offset + bits > 64) {
        const unsigned spill = offset + bits - 64;
        v |= static_cast<std::uint64_t>(data_[byte + 8]) >> (8 - spill);
      }
    } else {
      unsigned remaining = bits;
      std::size_t pos = bit_pos_;
      while (remaining > 0) {
        const auto off = static_cast<unsigned>(pos & 7);
        unsigned take = 8 - off;
        if (take > remaining) take = remaining;
        const std::uint64_t chunk =
            (static_cast<std::uint64_t>(data_[pos >> 3]) >> (8 - off - take)) &
            ((std::uint64_t{1} << take) - 1);
        v = (v << take) | chunk;
        pos += take;
        remaining -= take;
      }
    }
    bit_pos_ += bits;
    out = v;
    return true;
  }

  /// The next `bits` bits (1..56) without consuming them, zero-filled past
  /// the end of the stream. Decoders peek a prefix together with what
  /// follows it, check bits_left(), then skip() the bits they used.
  [[nodiscard]] std::uint64_t peek(unsigned bits) const {
    const std::size_t byte = bit_pos_ >> 3;
    std::uint64_t w = 0;
    if (byte + 8 <= size_) {
      w = load_be64(data_ + byte);
    } else if (byte < size_) {
      std::uint8_t tail[8] = {};
      std::memcpy(tail, data_ + byte, size_ - byte);
      w = load_be64(tail);
    }
    return (w << (bit_pos_ & 7)) >> (64 - bits);
  }

  [[nodiscard]] std::size_t bits_left() const { return size_ * 8 - bit_pos_; }

  /// Consume `bits` already peeked; the caller has checked bits_left().
  void skip(unsigned bits) { bit_pos_ += bits; }

  [[nodiscard]] std::size_t bit_pos() const { return bit_pos_; }
  /// Bytes consumed, counting a partially read final byte.
  [[nodiscard]] std::size_t bytes_used() const { return (bit_pos_ + 7) / 8; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t bit_pos_;
};

/// Two's-complement wrapping add (no signed-overflow UB on corrupt input).
inline std::int64_t wrapping_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

/// Sign-extend the low `bits` bits of `v`.
inline std::int64_t sign_extend(std::uint64_t v, unsigned bits) {
  if (bits >= 64) return static_cast<std::int64_t>(v);
  const std::uint64_t sign = std::uint64_t{1} << (bits - 1);
  return static_cast<std::int64_t>((v ^ sign) - sign);
}

inline void put_dod(BitWriter& w, std::int64_t dod) {
  // Prefix and payload go out as one put where they fit in 64 bits.
  if (dod == 0) {
    w.put(0, 1);
  } else if (dod >= -63 && dod <= 64) {
    w.put((std::uint64_t{0b10} << 7) | static_cast<std::uint64_t>(dod + 63),
          9);
  } else if (dod >= -255 && dod <= 256) {
    w.put((std::uint64_t{0b110} << 9) | static_cast<std::uint64_t>(dod + 255),
          12);
  } else if (dod >= -2047 && dod <= 2048) {
    w.put((std::uint64_t{0b1110} << 12) |
              static_cast<std::uint64_t>(dod + 2047),
          16);
  } else if (dod >= std::numeric_limits<std::int32_t>::min() &&
             dod <= std::numeric_limits<std::int32_t>::max()) {
    w.put((std::uint64_t{0b11110} << 32) |
              static_cast<std::uint64_t>(
                  static_cast<std::uint32_t>(static_cast<std::int32_t>(dod))),
          37);
  } else {
    w.put(0b11111, 5);
    w.put(static_cast<std::uint64_t>(dod), 64);
  }
}

inline bool get_dod(BitReader& r, std::int64_t& dod) {
  // One peek holds the class prefix (its leading ones) and, for the three
  // short classes, the payload too: '1110' + 12 bits is the widest.
  const std::uint64_t head = r.peek(16);
  const unsigned ones =
      std::min(5u, static_cast<unsigned>(std::countl_one(head << 48)));
  if (ones == 0) {
    if (r.bits_left() < 1) return false;
    r.skip(1);
    dod = 0;
    return true;
  }
  if (ones <= 3) {
    static constexpr unsigned kWidth[] = {0, 7, 9, 12};
    static constexpr std::int64_t kBias[] = {0, 63, 255, 2047};
    const unsigned len = ones + 1 + kWidth[ones];
    if (r.bits_left() < len) return false;
    r.skip(len);
    const std::uint64_t payload =
        (head >> (16 - len)) & ((std::uint64_t{1} << kWidth[ones]) - 1);
    dod = static_cast<std::int64_t>(payload) - kBias[ones];
    return true;
  }
  // '11110' + 32 bits or '11111' + 64 bits.
  if (r.bits_left() < 5) return false;
  r.skip(5);
  std::uint64_t bits = 0;
  if (ones == 4) {
    if (!r.get(32, bits)) return false;
    dod = sign_extend(bits, 32);
    return true;
  }
  if (!r.get(64, bits)) return false;
  dod = static_cast<std::int64_t>(bits);
  return true;
}

/// XOR-coder state: the previous value's bits and the last explicit
/// leading/meaningful window. Seed prev_bits with the run's first value,
/// which both formats store raw.
struct XorState {
  std::uint64_t prev_bits = 0;
  unsigned leading = 0;
  unsigned meaningful = 0;
  bool window_valid = false;
};

inline void put_xor(BitWriter& w, XorState& s, std::uint64_t bits) {
  const std::uint64_t x = bits ^ s.prev_bits;
  s.prev_bits = bits;
  if (x == 0) {
    w.put(0, 1);
    return;
  }
  const auto leading = static_cast<unsigned>(std::countl_zero(x));
  const auto trailing = static_cast<unsigned>(std::countr_zero(x));
  if (s.window_valid && leading >= s.leading &&
      trailing >= 64 - s.leading - s.meaningful) {
    const std::uint64_t bits_in_window = x >> (64 - s.leading - s.meaningful);
    if (s.meaningful <= 62) {
      w.put((std::uint64_t{0b10} << s.meaningful) | bits_in_window,
            s.meaningful + 2);
    } else {
      w.put(0b10, 2);
      w.put(bits_in_window, s.meaningful);
    }
    return;
  }
  const unsigned meaningful = 64 - leading - trailing;
  w.put((std::uint64_t{0b11} << 12) | (std::uint64_t{leading} << 6) |
            (meaningful - 1),
        14);
  w.put(x >> trailing, meaningful);
  s.leading = leading;
  s.meaningful = meaningful;
  s.window_valid = true;
}

inline bool get_xor(BitReader& r, XorState& s) {
  // One peek holds the control bits and a new window's 6b leading + 6b
  // (meaningful - 1).
  const std::uint64_t head = r.peek(14);
  if ((head >> 13) == 0) {  // '0': repeat of the previous value
    if (r.bits_left() < 1) return false;
    r.skip(1);
    return true;
  }
  std::uint64_t bits = 0;
  if ((head >> 12) == 0b10) {
    if (!s.window_valid || r.bits_left() < 2) return false;
    r.skip(2);
    if (!r.get(s.meaningful, bits)) return false;
  } else {
    if (r.bits_left() < 14) return false;
    const auto leading = static_cast<unsigned>((head >> 6) & 63);
    const auto meaningful = static_cast<unsigned>(head & 63) + 1;
    if (leading + meaningful > 64) return false;
    r.skip(14);
    if (!r.get(meaningful, bits)) return false;
    s.leading = leading;
    s.meaningful = meaningful;
    s.window_valid = true;
  }
  s.prev_bits ^= bits << (64 - s.leading - s.meaningful);
  return true;
}

}  // namespace sensorcer::util::gorilla
