#pragma once
// Sealed, immutable, compressed storage blocks — the retention substrate of
// the historian's raw tier (ISSUE 10 tentpole).
//
// A SealedBlock is a Gorilla-style compressed run of time-ordered readings:
// timestamps are delta-of-delta encoded (a fixed-cadence sensor costs one
// bit per sample), values are XOR-encoded against their predecessor with a
// leading/meaningful-bit window (a quantized sensor that repeats values
// costs one bit per sample), and quality flags are packed two bits each in
// a separate section so the common all-good block pays nothing. A fixed
// footer carries the block's aggregate stats (count, good-only
// min/max/sum/last, timestamp bounds) so a stats query that fully covers a
// block folds the footer in without decoding a single reading.
//
// The read API is file-like, after the sense-and-respond file-system
// abstraction (PAPERS.md, Tilak et al.): open a cursor, iterate readings,
// or read the footer — the block itself is an opaque byte buffer that could
// equally live on disk or cross a process boundary. Decoding is hardened:
// every bit read is bounds-checked, so a truncated or corrupted buffer
// yields an error (or a clean prefix) instead of an overrun.
//
// A TierBlock is what a SealedBlock demotes into when it ages past the raw
// tier's retention horizon: the same readings re-expressed as time-aligned
// rollup buckets at a coarser resolution (1s, then 60s), so old history
// keeps answering aggregate queries instead of being silently dropped.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "hist/rollup.h"
#include "sensor/reading.h"
#include "util/gorilla.h"
#include "util/status.h"
#include "util/sim_time.h"

namespace sensorcer::hist {

class SealedBlock {
 public:
  /// Fixed-size trailer of every sealed block. Aggregates cover good and
  /// suspect readings only (kBad is excluded from aggregates on every
  /// historian path); count covers every reading in the block.
  struct Footer {
    util::SimTime first_ts = 0;
    util::SimTime last_ts = 0;
    std::uint32_t count = 0;
    std::uint32_t good_count = 0;  // good + suspect
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    double last = 0.0;  // last good/suspect value
    util::SimTime last_good_ts = 0;
  };

  /// Compress a non-empty, timestamp-sorted run of readings. Sequence
  /// numbers are not retained (the historian's query surface never exposes
  /// them; decoded readings carry sequence 0).
  static std::shared_ptr<const SealedBlock> seal(
      const std::vector<sensor::Reading>& readings);

  /// Open a block from its serialized bytes, validating the header, section
  /// sizes and footer. This is the fuzz/corruption entry point — and the
  /// seam a future on-disk backend reads through.
  static util::Result<std::shared_ptr<const SealedBlock>> open(
      std::vector<std::uint8_t> bytes);

  /// Sequential decoder over the block's readings, oldest first. All bit
  /// reads are bounds-checked: a malformed stream ends the iteration early
  /// with truncated() set instead of reading out of bounds.
  class Cursor {
   public:
    explicit Cursor(const SealedBlock& block);

    /// Decode the next reading; false at end-of-block or on a malformed
    /// stream (check truncated() to tell the two apart).
    bool next(sensor::Reading& out);

    [[nodiscard]] bool truncated() const { return truncated_; }
    [[nodiscard]] std::uint32_t decoded() const { return index_; }

   private:
    const SealedBlock& block_;
    std::size_t bit_pos_ = 0;  // into the ts/value stream
    std::uint32_t index_ = 0;
    util::SimTime prev_ts_ = 0;
    util::SimDuration prev_delta_ = 0;
    util::gorilla::XorState values_;
    bool truncated_ = false;
  };

  /// File-like open: a cursor positioned at the first reading.
  [[nodiscard]] Cursor open_cursor() const { return Cursor(*this); }

  /// Visit readings with from <= timestamp < until, oldest first, decoding
  /// at most up to the first reading past `until`.
  template <typename Fn>
  void for_each(util::SimTime from, util::SimTime until, Fn&& fn) const {
    Cursor cursor(*this);
    sensor::Reading r;
    while (cursor.next(r)) {
      if (r.timestamp >= until) break;
      if (r.timestamp >= from) fn(r);
    }
  }

  [[nodiscard]] const Footer& footer() const { return footer_; }
  [[nodiscard]] std::uint32_t count() const { return footer_.count; }
  [[nodiscard]] util::SimTime first_ts() const { return footer_.first_ts; }
  [[nodiscard]] util::SimTime last_ts() const { return footer_.last_ts; }

  /// Physical footprint: the serialized bytes (header + streams + footer).
  [[nodiscard]] std::size_t bytes() const { return bytes_.size(); }
  /// Logical footprint the block replaces: count * sizeof(Reading).
  [[nodiscard]] std::size_t uncompressed_bytes() const {
    return static_cast<std::size_t>(footer_.count) * sizeof(sensor::Reading);
  }

  /// Serialized form (for persistence tests and the corruption fuzz).
  [[nodiscard]] const std::vector<std::uint8_t>& raw_bytes() const {
    return bytes_;
  }

  /// Fold the footer's good-only aggregates into `agg` (the no-decode fast
  /// path of a stats query that fully covers this block).
  void add_footer_stats(AggregateStats& agg) const;

 private:
  SealedBlock() = default;

  std::vector<std::uint8_t> bytes_;
  Footer footer_;
  std::size_t stream_bytes_ = 0;   // ts/value bitstream length
  std::size_t quality_offset_ = 0;  // 0 when the block is all-good
};

/// A demoted block: the readings of one (or more) sealed blocks re-expressed
/// as rollup buckets at a coarser resolution. first_ts/last_ts keep the
/// exact reading bounds the tier block represents, so retention boundaries
/// stay exact across demotion (the chaos conservation audit depends on it).
struct TierBlock {
  util::SimDuration resolution = util::kSecond;
  util::SimTime first_ts = 0;
  util::SimTime last_ts = 0;
  std::uint64_t readings = 0;     // good + suspect readings aggregated
  std::uint64_t bad_dropped = 0;  // kBad readings not representable in buckets
  std::vector<RollupBucket> buckets;  // time-ordered, aligned to resolution

  [[nodiscard]] std::size_t bytes() const {
    return sizeof(TierBlock) + buckets.size() * sizeof(RollupBucket);
  }

  /// Demote a sealed block: decode and bucket every good/suspect reading.
  static std::shared_ptr<const TierBlock> from_sealed(
      const SealedBlock& block, util::SimDuration resolution);

  /// Re-demote to a coarser resolution by merging buckets (1s tier -> 60s
  /// tier); no decode involved.
  static std::shared_ptr<const TierBlock> rebucket(
      const TierBlock& block, util::SimDuration resolution);
};

}  // namespace sensorcer::hist
