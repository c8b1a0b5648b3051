#include "hist/block.h"

#include <limits>

#include "util/bytes.h"
#include "util/gorilla.h"

namespace sensorcer::hist {
namespace {

using util::bytes::load_u64;
using util::bytes::put_u64;
using util::gorilla::BitReader;
using util::gorilla::BitWriter;
using util::gorilla::bits_double;
using util::gorilla::double_bits;

// Serialized layout (little-endian, byte-addressed):
//
//   [0]  u8  magic 0x5B
//   [1]  u8  version (1)
//   [2]  u8  flags (bit0: quality section present)
//   [3]  u8  reserved
//   [4]  u32 count
//   [8]  u32 stream_bytes          (ts/value bitstream length)
//   [12] bitstream                 (delta-of-delta ts + XOR values)
//   [12 + stream_bytes] quality    (2 bits/reading, only if flags bit0)
//   tail: 64-byte footer           (see write_footer / read_footer)
//
// Bitstream: the first reading is stored raw (64-bit timestamp + 64-bit
// value bits); every later one appends its timestamp's delta-of-delta class
// and then its value's XOR code, both from util/gorilla.h.
constexpr std::uint8_t kMagic = 0x5B;
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kFlagQuality = 0x01;
constexpr std::size_t kHeaderBytes = 12;
constexpr std::size_t kFooterBytes = 64;

void put_u32(std::vector<std::uint8_t>& out, std::size_t at,
             std::uint32_t v) {
  out[at] = static_cast<std::uint8_t>(v);
  out[at + 1] = static_cast<std::uint8_t>(v >> 8);
  out[at + 2] = static_cast<std::uint8_t>(v >> 16);
  out[at + 3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::shared_ptr<const SealedBlock> SealedBlock::seal(
    const std::vector<sensor::Reading>& readings) {
  if (readings.empty() || readings.size() > std::numeric_limits<std::uint32_t>::max()) {
    return nullptr;
  }

  std::vector<std::uint8_t> stream_bytes;
  BitWriter stream(stream_bytes);
  util::SimTime prev_ts = 0;
  util::SimDuration prev_delta = 0;
  util::gorilla::XorState values;
  bool any_non_good = false;

  Footer footer;
  footer.first_ts = readings.front().timestamp;
  footer.last_ts = readings.back().timestamp;
  footer.count = static_cast<std::uint32_t>(readings.size());

  for (std::size_t i = 0; i < readings.size(); ++i) {
    const sensor::Reading& r = readings[i];
    const std::uint64_t vbits = double_bits(r.value);
    if (i == 0) {
      stream.put(static_cast<std::uint64_t>(r.timestamp), 64);
      stream.put(vbits, 64);
      prev_ts = r.timestamp;
      values.prev_bits = vbits;
    } else {
      const util::SimDuration delta = r.timestamp - prev_ts;
      util::gorilla::put_dod(stream, delta - prev_delta);
      prev_delta = delta;
      prev_ts = r.timestamp;
      util::gorilla::put_xor(stream, values, vbits);
    }

    if (r.quality != sensor::Quality::kGood) any_non_good = true;
    if (r.quality != sensor::Quality::kBad) {
      if (footer.good_count == 0 || r.value < footer.min) footer.min = r.value;
      if (footer.good_count == 0 || r.value > footer.max) footer.max = r.value;
      footer.sum += r.value;
      footer.last = r.value;
      footer.last_good_ts = r.timestamp;
      ++footer.good_count;
    }
  }

  stream.flush();

  auto block = std::shared_ptr<SealedBlock>(new SealedBlock());
  std::vector<std::uint8_t>& out = block->bytes_;
  std::size_t quality_bytes = any_non_good ? (readings.size() + 3) / 4 : 0;
  out.reserve(kHeaderBytes + stream_bytes.size() + quality_bytes +
              kFooterBytes);
  out.resize(kHeaderBytes, 0);
  out[0] = kMagic;
  out[1] = kVersion;
  out[2] = any_non_good ? kFlagQuality : 0;
  put_u32(out, 4, footer.count);
  put_u32(out, 8, static_cast<std::uint32_t>(stream_bytes.size()));
  out.insert(out.end(), stream_bytes.begin(), stream_bytes.end());

  if (any_non_good) {
    BitWriter qw(out);
    for (const sensor::Reading& r : readings) {
      qw.put(static_cast<std::uint64_t>(r.quality) & 0x3, 2);
    }
    qw.flush();
  }

  // 64-byte footer.
  put_u64(out, static_cast<std::uint64_t>(footer.first_ts));
  put_u64(out, static_cast<std::uint64_t>(footer.last_ts));
  std::size_t counts_at = out.size();
  out.resize(out.size() + 8, 0);
  put_u32(out, counts_at, footer.count);
  put_u32(out, counts_at + 4, footer.good_count);
  put_u64(out, double_bits(footer.min));
  put_u64(out, double_bits(footer.max));
  put_u64(out, double_bits(footer.sum));
  put_u64(out, double_bits(footer.last));
  put_u64(out, static_cast<std::uint64_t>(footer.last_good_ts));

  block->footer_ = footer;
  block->stream_bytes_ = stream_bytes.size();
  block->quality_offset_ = any_non_good ? kHeaderBytes + stream_bytes.size() : 0;
  return block;
}

util::Result<std::shared_ptr<const SealedBlock>> SealedBlock::open(
    std::vector<std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes + kFooterBytes) {
    return {util::ErrorCode::kInvalidArgument, "sealed block truncated"};
  }
  if (bytes[0] != kMagic) {
    return {util::ErrorCode::kInvalidArgument, "sealed block bad magic"};
  }
  if (bytes[1] != kVersion) {
    return {util::ErrorCode::kInvalidArgument, "sealed block bad version"};
  }
  const std::uint8_t flags = bytes[2];
  if ((flags & ~kFlagQuality) != 0) {
    return {util::ErrorCode::kInvalidArgument, "sealed block bad flags"};
  }
  const std::uint32_t count = get_u32(bytes.data() + 4);
  const std::uint32_t stream_bytes = get_u32(bytes.data() + 8);
  if (count == 0) {
    return {util::ErrorCode::kInvalidArgument, "sealed block empty"};
  }
  const std::size_t quality_bytes =
      (flags & kFlagQuality) != 0 ? (static_cast<std::size_t>(count) + 3) / 4
                                  : 0;
  const std::size_t expected = kHeaderBytes +
                               static_cast<std::size_t>(stream_bytes) +
                               quality_bytes + kFooterBytes;
  if (bytes.size() != expected) {
    return {util::ErrorCode::kInvalidArgument, "sealed block size mismatch"};
  }

  auto block = std::shared_ptr<SealedBlock>(new SealedBlock());
  const std::uint8_t* footer =
      bytes.data() + bytes.size() - kFooterBytes;
  Footer& f = block->footer_;
  f.first_ts = static_cast<util::SimTime>(load_u64(footer));
  f.last_ts = static_cast<util::SimTime>(load_u64(footer + 8));
  f.count = get_u32(footer + 16);
  f.good_count = get_u32(footer + 20);
  f.min = bits_double(load_u64(footer + 24));
  f.max = bits_double(load_u64(footer + 32));
  f.sum = bits_double(load_u64(footer + 40));
  f.last = bits_double(load_u64(footer + 48));
  f.last_good_ts = static_cast<util::SimTime>(load_u64(footer + 56));
  if (f.count != count || f.good_count > f.count ||
      f.last_ts < f.first_ts) {
    return {util::ErrorCode::kInvalidArgument, "sealed block bad footer"};
  }
  block->stream_bytes_ = stream_bytes;
  block->quality_offset_ =
      (flags & kFlagQuality) != 0 ? kHeaderBytes + stream_bytes : 0;
  block->bytes_ = std::move(bytes);
  return {std::shared_ptr<const SealedBlock>(std::move(block))};
}

void SealedBlock::add_footer_stats(AggregateStats& agg) const {
  if (footer_.good_count == 0) return;
  if (agg.count == 0 || footer_.min < agg.min) agg.min = footer_.min;
  if (agg.count == 0 || footer_.max > agg.max) agg.max = footer_.max;
  agg.sum += footer_.sum;
  agg.count += footer_.good_count;
  if (footer_.last_good_ts >= agg.last_ts) {
    agg.last = footer_.last;
    agg.last_ts = footer_.last_good_ts;
  }
}

SealedBlock::Cursor::Cursor(const SealedBlock& block) : block_(block) {}

bool SealedBlock::Cursor::next(sensor::Reading& out) {
  if (truncated_ || index_ >= block_.footer_.count) return false;

  BitReader stream(block_.bytes_.data() + kHeaderBytes, block_.stream_bytes_,
                   bit_pos_);
  if (index_ == 0) {
    std::uint64_t raw_ts = 0;
    if (!stream.get(64, raw_ts) || !stream.get(64, values_.prev_bits)) {
      truncated_ = true;
      return false;
    }
    prev_ts_ = static_cast<util::SimTime>(raw_ts);
    prev_delta_ = 0;
  } else {
    std::int64_t dod = 0;
    if (!util::gorilla::get_dod(stream, dod) ||
        !util::gorilla::get_xor(stream, values_)) {
      truncated_ = true;
      return false;
    }
    // Wrapping adds: a corrupted stream may carry any dod.
    prev_delta_ = util::gorilla::wrapping_add(prev_delta_, dod);
    prev_ts_ = util::gorilla::wrapping_add(prev_ts_, prev_delta_);
  }

  out.timestamp = prev_ts_;
  out.value = bits_double(values_.prev_bits);
  out.sequence = 0;
  out.quality = sensor::Quality::kGood;
  if (block_.quality_offset_ != 0) {
    const std::size_t byte = block_.quality_offset_ + index_ / 4;
    if (byte >= block_.bytes_.size() - kFooterBytes) {
      truncated_ = true;
      return false;
    }
    const unsigned shift = 6 - 2 * (index_ % 4);
    const unsigned q = (block_.bytes_[byte] >> shift) & 0x3;
    // Two-bit values cover the Quality enum exactly (kGood/kSuspect/kBad);
    // an out-of-range pattern from corruption degrades to kBad.
    out.quality = q <= 2 ? static_cast<sensor::Quality>(q)
                         : sensor::Quality::kBad;
  }

  bit_pos_ = stream.bit_pos();
  ++index_;
  return true;
}

std::shared_ptr<const TierBlock> TierBlock::from_sealed(
    const SealedBlock& block, util::SimDuration resolution) {
  auto tier = std::make_shared<TierBlock>();
  tier->resolution = resolution;
  tier->first_ts = block.first_ts();
  tier->last_ts = block.last_ts();
  SealedBlock::Cursor cursor = block.open_cursor();
  sensor::Reading r;
  while (cursor.next(r)) {
    if (r.quality == sensor::Quality::kBad) {
      ++tier->bad_dropped;
      continue;
    }
    const util::SimTime start = (r.timestamp / resolution) * resolution;
    if (tier->buckets.empty() || tier->buckets.back().start != start) {
      RollupBucket bucket;
      bucket.start = start;
      tier->buckets.push_back(bucket);
    }
    tier->buckets.back().add(r.timestamp, r.value);
    ++tier->readings;
  }
  return tier;
}

std::shared_ptr<const TierBlock> TierBlock::rebucket(
    const TierBlock& block, util::SimDuration resolution) {
  auto tier = std::make_shared<TierBlock>();
  tier->resolution = resolution;
  tier->first_ts = block.first_ts;
  tier->last_ts = block.last_ts;
  tier->readings = block.readings;
  tier->bad_dropped = block.bad_dropped;
  for (const RollupBucket& bucket : block.buckets) {
    const util::SimTime start = (bucket.start / resolution) * resolution;
    if (tier->buckets.empty() || tier->buckets.back().start != start) {
      RollupBucket merged;
      merged.start = start;
      tier->buckets.push_back(merged);
    }
    tier->buckets.back().merge(bucket);
  }
  return tier;
}

}  // namespace sensorcer::hist
