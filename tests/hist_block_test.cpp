// Tests for the historian's compressed retention substrate (src/hist/block):
// Gorilla round-trip fidelity over adversarial value/timestamp patterns,
// footer aggregate correctness, serialized-form validation, truncation fuzz
// at every cut point and seeded byte-flip corruption fuzz (decode must never
// crash or over-produce), and tier-block demotion/rebucketing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "hist/block.h"
#include "util/rng.h"

namespace sensorcer::hist {
namespace {

using sensor::Quality;
using sensor::Reading;
using util::kSecond;

Reading make_reading(util::SimTime t, double v, Quality q = Quality::kGood) {
  return Reading{t, v, q, 0};
}

std::vector<Reading> decode_all(const SealedBlock& block) {
  std::vector<Reading> out;
  SealedBlock::Cursor cursor = block.open_cursor();
  Reading r;
  while (cursor.next(r)) out.push_back(r);
  return out;
}

void expect_round_trip(const std::vector<Reading>& readings,
                       const char* what) {
  auto block = SealedBlock::seal(readings);
  ASSERT_NE(block, nullptr) << what;
  const std::vector<Reading> got = decode_all(*block);
  ASSERT_EQ(got.size(), readings.size()) << what;
  for (std::size_t i = 0; i < readings.size(); ++i) {
    EXPECT_EQ(got[i].timestamp, readings[i].timestamp) << what << " @" << i;
    // Bit-exact value fidelity, NaN included: compare representations.
    std::uint64_t want_bits = 0;
    std::uint64_t got_bits = 0;
    std::memcpy(&want_bits, &readings[i].value, sizeof(want_bits));
    std::memcpy(&got_bits, &got[i].value, sizeof(got_bits));
    EXPECT_EQ(got_bits, want_bits) << what << " @" << i;
    EXPECT_EQ(got[i].quality, readings[i].quality) << what << " @" << i;
  }
  // And the serialized form re-opens to the same content.
  auto reopened = SealedBlock::open(block->raw_bytes());
  ASSERT_TRUE(reopened.is_ok()) << what;
  EXPECT_EQ(decode_all(*reopened.value()).size(), readings.size()) << what;
}

// --- round-trip property tests --------------------------------------------------------------

TEST(SealedBlock, RoundTripsSingleReading) {
  expect_round_trip({make_reading(12345, 3.25)}, "single");
  expect_round_trip({make_reading(0, 0.0, Quality::kBad)}, "single-bad");
  expect_round_trip({make_reading(-5 * kSecond, -1.5)}, "negative-ts");
}

TEST(SealedBlock, RejectsEmptyInput) {
  EXPECT_EQ(SealedBlock::seal({}), nullptr);
}

TEST(SealedBlock, RoundTripsConstantRun) {
  // The best case the format is built for: fixed cadence, repeated value.
  std::vector<Reading> run;
  for (int i = 0; i < 1000; ++i) {
    run.push_back(make_reading(i * kSecond, 21.5));
  }
  expect_round_trip(run, "constant");
  auto block = SealedBlock::seal(run);
  // One bit per timestamp + one per value after the first reading: the
  // steady run must compress far beyond the 5x the smoke bench demands.
  EXPECT_GT(block->uncompressed_bytes(), block->bytes() * 20);
}

TEST(SealedBlock, RoundTripsRandomWalks) {
  for (std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
    util::Rng rng(seed);
    std::vector<Reading> walk;
    util::SimTime t = static_cast<util::SimTime>(rng.between(0, kSecond));
    double v = rng.next_double() * 100.0;
    for (int i = 0; i < 700; ++i) {
      t += rng.between(1, 3 * kSecond);  // irregular cadence incl. 1µs steps
      v += rng.next_double() - 0.5;
      const double roll = rng.next_double();
      const Quality q = roll < 0.05   ? Quality::kBad
                        : roll < 0.15 ? Quality::kSuspect
                                      : Quality::kGood;
      walk.push_back(make_reading(t, v, q));
    }
    expect_round_trip(walk, "walk");
  }
}

TEST(SealedBlock, RoundTripsPathologicalValues) {
  const double inf = std::numeric_limits<double>::infinity();
  expect_round_trip(
      {make_reading(0, std::numeric_limits<double>::quiet_NaN()),
       make_reading(1, inf), make_reading(2, -inf),
       make_reading(3, std::numeric_limits<double>::denorm_min()),
       make_reading(4, -0.0), make_reading(5, 0.0),
       make_reading(6, std::numeric_limits<double>::max()),
       make_reading(7, std::numeric_limits<double>::lowest()),
       make_reading(8, 1e-300), make_reading(9, 1e300)},
      "pathological-values");
}

TEST(SealedBlock, RoundTripsPathologicalTimestamps) {
  // Hit every delta-of-delta bucket: 0, ±small, ±medium, ±large, 32-bit
  // two's-complement and the raw-64 escape.
  std::vector<Reading> readings;
  util::SimTime t = 0;
  const util::SimDuration deltas[] = {
      1,       1,          64,         1,      500,    500,       2048,
      1,       100'000,    100'000,    1,      40'000'000'000,    5,
      3'600 * kSecond,     1,          2,      3,      1};
  double v = 0.0;
  for (const util::SimDuration d : deltas) {
    t += d;
    readings.push_back(make_reading(t, v += 0.125));
  }
  expect_round_trip(readings, "pathological-deltas");
}

TEST(SealedBlock, RoundTripsQualityPatterns) {
  // Exercise the 2-bit quality packing across byte boundaries (counts not
  // divisible by 4) and the all-good fast path (no quality section at all).
  std::vector<Reading> mixed;
  for (int i = 0; i < 13; ++i) {
    mixed.push_back(make_reading(i, 1.0, static_cast<Quality>(i % 3)));
  }
  expect_round_trip(mixed, "mixed-quality");

  std::vector<Reading> good;
  for (int i = 0; i < 13; ++i) good.push_back(make_reading(i, 1.0));
  auto good_block = SealedBlock::seal(good);
  auto mixed_block = SealedBlock::seal(mixed);
  ASSERT_NE(good_block, nullptr);
  ASSERT_NE(mixed_block, nullptr);
  EXPECT_LT(good_block->bytes(), mixed_block->bytes())
      << "all-good blocks must not pay for a quality section";
}

// --- footer ---------------------------------------------------------------------------------

TEST(SealedBlock, FooterAggregatesExcludeBadReadings) {
  auto block = SealedBlock::seal({make_reading(10, 5.0),
                                  make_reading(20, 900.0, Quality::kBad),
                                  make_reading(30, -2.0, Quality::kSuspect),
                                  make_reading(40, 4.0),
                                  make_reading(50, -800.0, Quality::kBad)});
  ASSERT_NE(block, nullptr);
  const SealedBlock::Footer& f = block->footer();
  EXPECT_EQ(f.count, 5u);
  EXPECT_EQ(f.good_count, 3u);
  EXPECT_EQ(f.first_ts, 10);
  EXPECT_EQ(f.last_ts, 50);
  EXPECT_DOUBLE_EQ(f.min, -2.0);
  EXPECT_DOUBLE_EQ(f.max, 5.0);
  EXPECT_DOUBLE_EQ(f.sum, 7.0);
  EXPECT_DOUBLE_EQ(f.last, 4.0);
  EXPECT_EQ(f.last_good_ts, 40);

  AggregateStats agg;
  block->add_footer_stats(agg);
  EXPECT_EQ(agg.count, 3u);
  EXPECT_DOUBLE_EQ(agg.sum, 7.0);
  EXPECT_DOUBLE_EQ(agg.last, 4.0);
}

// --- truncation / corruption fuzz -----------------------------------------------------------

TEST(SealedBlock, OpenRejectsTruncationAtEveryCutPoint) {
  util::Rng rng(77);
  std::vector<Reading> readings;
  util::SimTime t = 0;
  for (int i = 0; i < 60; ++i) {
    t += rng.between(1, kSecond);
    readings.push_back(make_reading(
        t, rng.next_double(),
        rng.next_double() < 0.2 ? Quality::kSuspect : Quality::kGood));
  }
  auto block = SealedBlock::seal(readings);
  ASSERT_NE(block, nullptr);
  const std::vector<std::uint8_t>& bytes = block->raw_bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(cut));
    auto opened = SealedBlock::open(std::move(prefix));
    EXPECT_FALSE(opened.is_ok()) << "cut=" << cut;
  }
  EXPECT_TRUE(SealedBlock::open(bytes).is_ok());
}

TEST(SealedBlock, CorruptedBytesNeverCrashOrOverProduce) {
  util::Rng rng(4242);
  std::vector<Reading> readings;
  util::SimTime t = 0;
  for (int i = 0; i < 200; ++i) {
    t += rng.between(1, 2 * kSecond);
    readings.push_back(make_reading(t, rng.next_double() * 40.0,
                                    rng.next_double() < 0.1 ? Quality::kBad
                                                            : Quality::kGood));
  }
  auto block = SealedBlock::seal(readings);
  ASSERT_NE(block, nullptr);
  const std::vector<std::uint8_t>& pristine = block->raw_bytes();

  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> bytes = pristine;
    const std::size_t flips = 1 + rng.between(0, 4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t at =
          static_cast<std::size_t>(rng.between(0, bytes.size() - 1));
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng.between(0, 7));
    }
    auto opened = SealedBlock::open(std::move(bytes));
    if (!opened.is_ok()) continue;  // rejection is the common, fine outcome
    // A block that opened despite corruption may decode garbage, but it
    // must stay within bounds and never yield more than count readings.
    SealedBlock::Cursor cursor = opened.value()->open_cursor();
    Reading r;
    std::uint32_t n = 0;
    while (cursor.next(r)) ++n;
    EXPECT_LE(n, opened.value()->count()) << "trial " << trial;
  }
}

TEST(SealedBlock, CursorReportsTruncatedStreams) {
  std::vector<Reading> readings;
  for (int i = 0; i < 32; ++i) readings.push_back(make_reading(i * 10, 1.5 * i));
  auto block = SealedBlock::seal(readings);
  ASSERT_NE(block, nullptr);
  // Zero out the back half of the bitstream: the stream bits decode into
  // nonsense or run dry; the cursor must stop cleanly either way.
  std::vector<std::uint8_t> bytes = block->raw_bytes();
  const std::size_t stream_end = bytes.size() - 64;  // footer is 64 bytes
  for (std::size_t i = (stream_end + 12) / 2; i < stream_end; ++i) bytes[i] = 0;
  auto opened = SealedBlock::open(std::move(bytes));
  // Header/footer still line up, so open succeeds; decode stops early.
  if (opened.is_ok()) {
    SealedBlock::Cursor cursor = opened.value()->open_cursor();
    Reading r;
    std::uint32_t n = 0;
    while (cursor.next(r)) ++n;
    EXPECT_LE(n, opened.value()->count());
  }
}

// --- tier blocks ----------------------------------------------------------------------------

// --- format stability ------------------------------------------------------------------------

// The serialized block is a storage format: its bytes for a fixed input are
// pinned, so a refactor of the shared bit coders (util/gorilla.h) cannot
// silently change what a stored block means. The input touches every dod
// class, XOR window reuse and re-windowing, repeats, NaN, -0.0, inf, a
// denormal and both non-good qualities (so the quality section is present).
TEST(SealedBlock, SealBytesMatchTheGoldenFormat) {
  const std::int64_t deltas[] = {1000000, 1000000, 1000017, 999800, 1001500,
                                 1100000, 1000000, 8589934592LL, 1000000,
                                 1000000, 999999, 1000000, 1000040, 1000000,
                                 1000000};
  const double values[] = {21.5,   21.5,     21.625,    21.75, 21.5,
                           -0.0,   0.0,      1e300,     -3.25, 21.5,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           4.9e-324, 21.5, 21.5, 22.0};
  std::vector<Reading> readings;
  std::int64_t t = 1700000000000000LL;
  for (std::size_t i = 0; i < 16; ++i) {
    const Quality q = i == 4 ? Quality::kSuspect
                             : (i == 9 ? Quality::kBad : Quality::kGood);
    readings.push_back(make_reading(t, values[i], q));
    if (i < 15) t += deltas[i];
  }
  const char* kGoldenHex =
      "5b010100100000008900000000060a24181e40004035800000000000f0007a12"
      "01a406a1a20f84d5dd47808601afc0003018940003dfffcf2c183e7e37e43c88"
      "00759fe00000003ffe17b8181edf1ef21e44003acfffffffffe000f4240a00fe"
      "0000000000047f9b000000000004fa00080000000000028183f7ff0000000000"
      "001b3d00d60000000000062e4000e00000000000000040200000401e18240a06"
      "006c6bf518260a0600100000000f0000000000000000000ac0000000000000f0"
      "7f000000000000f87f00000000000036406c6bf518260a0600";

  auto block = SealedBlock::seal(readings);
  ASSERT_NE(block, nullptr);
  std::string hex;
  for (std::uint8_t b : block->raw_bytes()) {
    static const char kDigits[] = "0123456789abcdef";
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xf];
  }
  EXPECT_EQ(block->bytes(), 217u);
  EXPECT_EQ(hex, kGoldenHex);
}

TEST(TierBlock, DemotionBucketsGoodReadingsAndDropsBad) {
  std::vector<Reading> readings;
  for (int i = 0; i < 10; ++i) {
    readings.push_back(make_reading(i * 300'000, static_cast<double>(i),
                                    i % 3 == 2 ? Quality::kBad
                                               : Quality::kGood));
  }
  auto block = SealedBlock::seal(readings);
  ASSERT_NE(block, nullptr);
  auto tier = TierBlock::from_sealed(*block, kSecond);
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->readings + tier->bad_dropped, 10u);
  EXPECT_EQ(tier->bad_dropped, 3u);
  EXPECT_EQ(tier->first_ts, 0);
  EXPECT_EQ(tier->last_ts, 9 * 300'000);
  std::uint64_t bucketed = 0;
  for (const RollupBucket& b : tier->buckets) {
    EXPECT_EQ(b.start % kSecond, 0) << "bucket must align to resolution";
    bucketed += b.count;
  }
  EXPECT_EQ(bucketed, tier->readings);

  // Rebucketing to a coarser tier merges buckets, loses no readings.
  auto cold = TierBlock::rebucket(*tier, 60 * kSecond);
  ASSERT_NE(cold, nullptr);
  EXPECT_EQ(cold->readings, tier->readings);
  EXPECT_EQ(cold->buckets.size(), 1u);
  EXPECT_EQ(cold->buckets.front().count, tier->readings);
}

}  // namespace
}  // namespace sensorcer::hist
