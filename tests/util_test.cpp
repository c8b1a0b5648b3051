// Unit tests for the util foundation: ids, status/result, scheduler, rng,
// stats, strings, thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <set>
#include <vector>

#include "util/bytes.h"
#include "util/ids.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace sensorcer::util {
namespace {

// --- Uuid -------------------------------------------------------------------

TEST(Uuid, DefaultIsNil) {
  Uuid u;
  EXPECT_TRUE(u.is_nil());
}

TEST(Uuid, GeneratorNeverProducesNilOrDuplicates) {
  IdGenerator gen(7);
  std::set<std::string> seen;
  for (int i = 0; i < 10000; ++i) {
    Uuid u = gen.next();
    EXPECT_FALSE(u.is_nil());
    EXPECT_TRUE(seen.insert(u.to_string()).second) << "duplicate at " << i;
  }
}

TEST(Uuid, GeneratorsWithSameSeedAgree) {
  IdGenerator a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Uuid, ToStringHasCanonicalShape) {
  IdGenerator gen(1);
  const std::string s = gen.next().to_string();
  ASSERT_EQ(s.size(), 36u);
  EXPECT_EQ(s[8], '-');
  EXPECT_EQ(s[13], '-');
  EXPECT_EQ(s[18], '-');
  EXPECT_EQ(s[23], '-');
}

TEST(Uuid, ParseRoundTrips) {
  IdGenerator gen(99);
  for (int i = 0; i < 100; ++i) {
    const Uuid u = gen.next();
    EXPECT_EQ(Uuid::parse(u.to_string()), u);
  }
}

TEST(Uuid, ParseRejectsMalformedInput) {
  EXPECT_TRUE(Uuid::parse("").is_nil());
  EXPECT_TRUE(Uuid::parse("not-a-uuid").is_nil());
  EXPECT_TRUE(Uuid::parse("267c67a0-dd67-4b95-beb0-e6763e117bZZ").is_nil());
  EXPECT_TRUE(Uuid::parse("267c67a0dd674b95beb0e6763e117b03").is_nil());
}

TEST(Uuid, OrderingIsTotal) {
  Uuid a{1, 2}, b{1, 3}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
}

// --- Status / Result ----------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s{ErrorCode::kNotFound, "no such provider"};
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.to_string(), "NOT_FOUND: no such provider");
}

TEST(Result, HoldsValue) {
  Result<int> r{42};
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r{ErrorCode::kTimeout, "too slow"};
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kTimeout);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_STRNE(error_code_name(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

// --- Scheduler ----------------------------------------------------------------

TEST(Scheduler, FiresInTimestampOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(300, [&] { order.push_back(3); });
  sched.schedule_at(100, [&] { order.push_back(1); });
  sched.schedule_at(200, [&] { order.push_back(2); });
  sched.run_until(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 1000);
}

TEST(Scheduler, EqualTimestampsFireFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  sched.run_until(50);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(100, [&] { ++fired; });
  sched.schedule_at(200, [&] { ++fired; });
  EXPECT_EQ(sched.run_until(150), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, CancelPreventsFiring) {
  Scheduler sched;
  int fired = 0;
  const TimerId id = sched.schedule_at(100, [&] { ++fired; });
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));
  sched.run_until(1000);
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, RecurringFiresEveryPeriod) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_every(10, [&] { ++fired; });
  sched.run_until(100);
  EXPECT_EQ(fired, 10);
}

TEST(Scheduler, RecurringCanBeCancelledMidStream) {
  Scheduler sched;
  int fired = 0;
  TimerId id = sched.schedule_every(10, [&] { ++fired; });
  sched.run_until(35);
  EXPECT_TRUE(sched.cancel(id));
  sched.run_until(1000);
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, CallbackCanScheduleMoreWork) {
  Scheduler sched;
  std::vector<SimTime> times;
  sched.schedule_at(10, [&] {
    times.push_back(sched.now());
    sched.schedule_after(5, [&] { times.push_back(sched.now()); });
  });
  sched.run_until(100);
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Scheduler, PastEventsClampToNow) {
  Scheduler sched;
  sched.run_until(500);
  SimTime fired_at = -1;
  sched.schedule_at(100, [&] { fired_at = sched.now(); });
  sched.run_ready();
  EXPECT_EQ(fired_at, 500);
}

TEST(Scheduler, FormatDuration) {
  EXPECT_EQ(format_duration(17), "17us");
  EXPECT_EQ(format_duration(2500), "2.500ms");
  EXPECT_EQ(format_duration(3 * kSecond), "3.000s");
}

// --- Rng ------------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, GaussianMomentsAreClose) {
  Rng rng(13);
  StatAccumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.gaussian(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(Rng, BetweenIsInclusive) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(1, 3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
    saw_lo |= v == 1;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// --- Stats ----------------------------------------------------------------------

TEST(Stats, AccumulatorBasics) {
  StatAccumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_NEAR(acc.variance(), 1.25, 1e-12);
}

TEST(Stats, EmptyAccumulatorIsZero) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.min(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(Stats, PercentilesNearestRank) {
  PercentileTracker t;
  for (int i = 1; i <= 100; ++i) t.add(i);
  EXPECT_DOUBLE_EQ(t.p50(), 50.0);
  EXPECT_DOUBLE_EQ(t.p90(), 90.0);
  EXPECT_DOUBLE_EQ(t.p99(), 99.0);
  EXPECT_DOUBLE_EQ(t.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(t.percentile(100), 100.0);
}

TEST(Stats, PercentileOnEmptyIsZero) {
  PercentileTracker t;
  EXPECT_EQ(t.p50(), 0.0);
}

// --- strings --------------------------------------------------------------------

TEST(Strings, SplitPreservesEmptySegments) {
  EXPECT_EQ(split("a/b//c", '/'),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", '/'), (std::vector<std::string>{""}));
}

TEST(Strings, JoinInvertsSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(split(join(parts, "/"), '/'), parts);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("sensor/value", "sensor"));
  EXPECT_FALSE(starts_with("sensor", "sensor/value"));
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%s=%d", "n", 3), "n=3");
}

TEST(Strings, RenderTableAligns) {
  const std::string table =
      render_table({"name", "value"}, {{"a", "1"}, {"longer", "22"}});
  EXPECT_NE(table.find("| name   | value |"), std::string::npos);
  EXPECT_NE(table.find("| longer | 22    |"), std::string::npos);
}

// --- ThreadPool ------------------------------------------------------------------

TEST(ThreadPool, ExecutesSubmittedWork) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, RunsManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    (void)pool.submit([&] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      (void)pool.submit([&] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 100);
}

}  // namespace
}  // namespace sensorcer::util

namespace sensorcer::util {
namespace {

TEST(Result, MoveOutValue) {
  Result<std::string> r{std::string("payload")};
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

TEST(Log, LevelRoundTrip) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(before);
}

TEST(Scheduler, RunReadyFiresOnlyDueEvents) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(0, [&] { ++fired; });
  sched.schedule_at(10, [&] { ++fired; });
  EXPECT_EQ(sched.run_ready(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, FiredCountAccumulates) {
  Scheduler sched;
  for (int i = 0; i < 5; ++i) sched.schedule_at(i, [] {});
  sched.run_until(100);
  EXPECT_EQ(sched.fired_count(), 5u);
}

TEST(Rng, ExponentialMeanIsClose) {
  Rng rng(23);
  StatAccumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.exponential(4.0));
  EXPECT_NEAR(acc.mean(), 4.0, 0.1);
  EXPECT_GE(acc.min(), 0.0);
}

// --- Wire byte primitives ------------------------------------------------

TEST(Bytes, ZigzagVarintAndU64RoundTripAtTheExtremes) {
  using namespace bytes;
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
  EXPECT_EQ(zigzag(kMax), kAllOnes - 1);
  EXPECT_EQ(zigzag(kMin), kAllOnes);
  for (std::int64_t v : {kMin, kMin + 1, std::int64_t{-1}, std::int64_t{0},
                         std::int64_t{1}, kMax - 1, kMax}) {
    EXPECT_EQ(unzigzag(zigzag(v)), v);
  }

  // zigzag(INT64_MIN) is all ones: the longest varint, ten bytes whose last
  // carries bit 63 alone.
  std::vector<std::uint8_t> buf;
  put_varint(buf, zigzag(kMin));
  ASSERT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.back(), 0x01);
  Reader r{buf.data(), buf.data() + buf.size()};
  std::uint64_t v = 0;
  ASSERT_TRUE(r.varint(v));
  EXPECT_EQ(unzigzag(v), kMin);
  EXPECT_EQ(r.p, r.end);

  buf.clear();
  put_u64(buf, 0x0123456789abcdefull);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.front(), 0xef);  // least significant byte first
  EXPECT_EQ(load_u64(buf.data()), 0x0123456789abcdefull);
  Reader w{buf.data(), buf.data() + buf.size()};
  ASSERT_TRUE(w.u64(v));
  EXPECT_EQ(v, 0x0123456789abcdefull);
  EXPECT_EQ(w.p, w.end);
}

TEST(Bytes, OverlongAndTruncatedInputsAreRejected) {
  using namespace bytes;
  std::uint64_t v = 0;
  // A tenth byte above 1 carries bits past 64.
  std::vector<std::uint8_t> wide(9, 0xff);
  wide.push_back(0x02);
  Reader r1{wide.data(), wide.data() + wide.size()};
  EXPECT_FALSE(r1.varint(v));
  // Eleven bytes: the tenth still says "more".
  std::vector<std::uint8_t> eleven(10, 0x80);
  eleven.push_back(0x00);
  Reader r2{eleven.data(), eleven.data() + eleven.size()};
  EXPECT_FALSE(r2.varint(v));

  // Every cut of a full-width varint and of a u64 is truncated.
  std::vector<std::uint8_t> varint;
  put_varint(varint, ~std::uint64_t{0});
  for (std::size_t cut = 0; cut < varint.size(); ++cut) {
    Reader r{varint.data(), varint.data() + cut};
    EXPECT_FALSE(r.varint(v)) << "varint cut " << cut;
  }
  std::vector<std::uint8_t> word;
  put_u64(word, 42);
  for (std::size_t cut = 0; cut < word.size(); ++cut) {
    Reader r{word.data(), word.data() + cut};
    EXPECT_FALSE(r.u64(v)) << "u64 cut " << cut;
    EXPECT_EQ(r.p, word.data());  // a failed read does not advance
  }
}

}  // namespace
}  // namespace sensorcer::util
