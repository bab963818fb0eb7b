// Unit tests for common/: RNG determinism, clock-domain divider, statistics
// primitives, text tables and configuration validation.
#include <gtest/gtest.h>

#include <sstream>

#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace lazydram {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  unsigned equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_EQ(equal, 0u);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformityCoarse) {
  Rng rng(11);
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[static_cast<int>(rng.next_double() * 10)];
  for (const int b : buckets) {
    EXPECT_GT(b, n / 10 - n / 50);
    EXPECT_LT(b, n / 10 + n / 50);
  }
}

TEST(ClockDivider, Ratio924Over1400) {
  ClockDivider div(924, 1400);
  unsigned slow = 0;
  for (int i = 0; i < 1400; ++i) slow += div.tick();
  EXPECT_EQ(slow, 924u);
  EXPECT_EQ(div.slow_cycles(), 924u);
}

TEST(ClockDivider, NeverMoreThanOneTickWhenSlower) {
  ClockDivider div(3, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_LE(div.tick(), 1u);
}

TEST(ClockDivider, UnityRatioTicksEveryCycle) {
  ClockDivider div(5, 5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(div.tick(), 1u);
}

TEST(ClockDivider, ExactLongRunRatio) {
  ClockDivider div(924, 1400);
  for (int i = 0; i < 14000000; ++i) div.tick();
  EXPECT_EQ(div.slow_cycles(), 9240000u);
}

TEST(Histogram, BucketsAndRanges) {
  Histogram h(8);
  h.add(1, 3);
  h.add(2);
  h.add(8);
  h.add(20);  // Overflows into the pooled bucket.
  EXPECT_EQ(h.at(1), 3u);
  EXPECT_EQ(h.at(2), 1u);
  EXPECT_EQ(h.in_range(1, 2), 4u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.mean(), (3.0 * 1 + 2 + 8 + 20) / 6.0);
}

TEST(Histogram, OverflowBucketIsQueryable) {
  Histogram h(8);
  h.add(20);
  h.add(9, 2);
  EXPECT_EQ(h.bucket_count(), 10u);  // Keys 0..8 plus the overflow bucket.
  EXPECT_EQ(h.at(h.max_key() + 1), 3u);
  EXPECT_EQ(h.at(h.max_key() + 1), h.overflow());
}

TEST(Histogram, Percentile) {
  Histogram h(8);
  EXPECT_EQ(h.percentile(0.5), 0u);  // Empty.
  h.add(1, 50);
  h.add(4, 40);
  h.add(20, 10);  // Pooled into the overflow bucket.
  EXPECT_EQ(h.percentile(0.0), 1u);
  EXPECT_EQ(h.percentile(0.5), 1u);
  EXPECT_EQ(h.percentile(0.9), 4u);
  EXPECT_EQ(h.percentile(0.95), h.max_key() + 1);  // Falls in the overflow.
  EXPECT_EQ(h.percentile(1.0), h.max_key() + 1);
  EXPECT_EQ(h.percentile(7.0), h.max_key() + 1);  // Clamped.
}

TEST(Histogram, PercentileSingleSample) {
  Histogram h(8);
  h.add(5);
  // With one sample every percentile is that sample, including p0 and p100.
  EXPECT_EQ(h.percentile(0.0), 5u);
  EXPECT_EQ(h.percentile(0.5), 5u);
  EXPECT_EQ(h.percentile(1.0), 5u);
}

TEST(Histogram, PercentileAllMassInOverflow) {
  Histogram h(8);
  h.add(100, 7);  // Everything pools into the overflow bucket.
  EXPECT_EQ(h.percentile(0.0), h.max_key() + 1);
  EXPECT_EQ(h.percentile(0.5), h.max_key() + 1);
  EXPECT_EQ(h.percentile(1.0), h.max_key() + 1);
  // The overflow key is still legal input to at().
  EXPECT_EQ(h.at(h.percentile(0.5)), 7u);
}

// Regression: merge() must add buckets AND the true-key weighted sum
// element-wise. Replaying the other histogram through add() re-enters its
// overflow samples at the clamped key, corrupting the mean and making the
// result depend on which shard merged first.
TEST(Histogram, MergeIsExactAndOrderIndependentWithOverflow) {
  Histogram serial(8);
  Histogram a(8);
  Histogram b(8);
  // Shard a: in-range mass plus overflow at true key 20.
  const std::uint64_t shard_a[][2] = {{1, 3}, {8, 2}, {20, 4}};
  for (const auto& s : shard_a) {
    serial.add(s[0], s[1]);
    a.add(s[0], s[1]);
  }
  // Shard b: different in-range mass plus overflow at true key 100.
  const std::uint64_t shard_b[][2] = {{2, 5}, {100, 1}};
  for (const auto& s : shard_b) {
    serial.add(s[0], s[1]);
    b.add(s[0], s[1]);
  }

  Histogram ab(8);
  ab.merge(a);
  ab.merge(b);
  Histogram ba(8);
  ba.merge(b);
  ba.merge(a);

  for (const Histogram* m : {&ab, &ba}) {
    EXPECT_EQ(m->total(), serial.total());
    EXPECT_DOUBLE_EQ(m->mean(), serial.mean());  // True-key mean survives.
    for (std::uint64_t k = 0; k <= serial.max_key() + 1; ++k)
      EXPECT_EQ(m->at(k), serial.at(k)) << "bucket " << k;
    EXPECT_EQ(m->percentile(0.5), serial.percentile(0.5));
    EXPECT_EQ(m->percentile(1.0), serial.percentile(1.0));
  }
  // The naive replay-through-add() would have produced this corrupted mean;
  // make sure merge() does not.
  Histogram naive(8);
  naive.merge(a);
  for (std::uint64_t k = 0; k <= b.max_key() + 1; ++k)
    if (b.at(k) > 0) naive.add(k, b.at(k));
  EXPECT_NE(naive.mean(), serial.mean());
}

TEST(Histogram, PercentileP100IsMax) {
  Histogram h(64);
  h.add(3, 10);
  h.add(17, 5);
  h.add(42);
  EXPECT_EQ(h.percentile(1.0), 42u);  // p100 == max observed key, exactly.
}

TEST(Histogram, PercentileNearestRankNoFloatSkew) {
  // 0.07 * 100 = 7.000000000000001 in binary floating point; a naive
  // ceil() would skip past the 7th sample. Regression for the nearest-rank
  // epsilon fix.
  Histogram h(128);
  for (std::uint64_t k = 1; k <= 100; ++k) h.add(k);
  EXPECT_EQ(h.percentile(0.07), 7u);
  EXPECT_EQ(h.percentile(0.5), 50u);
  EXPECT_EQ(h.percentile(0.99), 99u);
}

TEST(Histogram, PercentileDegenerateInputs) {
  Histogram h(8);
  h.add(2, 3);
  h.add(6, 3);
  // Out-of-range p clamps to the first/last sample instead of misbehaving.
  EXPECT_EQ(h.percentile(-1.0), 2u);
  EXPECT_EQ(h.percentile(7.0), 6u);
}

TEST(Histogram, ResetClearsEverything) {
  Histogram h(4);
  h.add(2, 5);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.at(2), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Summary, TracksMinMaxMean) {
  Summary s;
  s.add(1.0);
  s.add(3.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(TextTable, AlignsAndCounts) {
  TextTable t({"A", "LongHeader"});
  t.add_row({"x", "1"});
  t.add_row({"yy", "2"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("LongHeader"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("x,1"), std::string::npos);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::pct(-0.123, 1), "-12.3%");
  EXPECT_EQ(TextTable::pct(0.05, 0), "+5%");
}

TEST(GpuConfig, DefaultsValidate) {
  GpuConfig cfg;
  cfg.validate();  // Must not abort.
  EXPECT_EQ(cfg.num_sms, 30u);
  EXPECT_EQ(cfg.num_channels, 6u);
  EXPECT_EQ(cfg.pending_queue_size, 128u);
  EXPECT_EQ(cfg.timing.tRC, 40u);
}

TEST(GpuConfig, RejectsMoreThan64BanksPerChannel) {
  // The controller's bank masks are one 64-bit word.
  GpuConfig cfg;
  cfg.banks_per_channel = 128;
  EXPECT_DEATH(cfg.validate(), "banks_per_channel must be at most 64");
  cfg.banks_per_channel = 64;
  cfg.validate();  // The largest legal value.
}

TEST(GpuConfig, DescribeMentionsKeyParameters) {
  GpuConfig cfg;
  bool found_timing = false;
  for (const auto& [key, value] : cfg.describe())
    if (value.find("tRC=40") != std::string::npos) found_timing = true;
  EXPECT_TRUE(found_timing);
}

TEST(CacheGeometry, SetCount) {
  const CacheGeometry geo{16 * 1024, 4, 128, 32};
  EXPECT_EQ(geo.num_sets(), 32u);
}

}  // namespace
}  // namespace lazydram
