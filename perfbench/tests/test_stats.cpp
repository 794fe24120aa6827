// Tests of the benchmark's pure helpers (src/stats.hpp): percentile choice,
// capacity from completion times, and failure counting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats.hpp"

namespace {

using namespace axbench;

std::vector<double> iota_ms(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = iota_ms(100);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(v, 0), 1);
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(Percentile, TailIsHighestWithTenBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
  Tail t = tail_percentile(iota_ms(1000));
  EXPECT_EQ(t.pct, 99.0);
  EXPECT_EQ(t.beyond, 10);
  EXPECT_EQ(t.n, 1000);
  EXPECT_EQ(t.value, 990);
  // 999 samples: p99 leaves 9 beyond, so the tail drops to p98.
  t = tail_percentile(iota_ms(999));
  EXPECT_EQ(t.pct, 98.0);
  EXPECT_GE(t.beyond, 10);
  // 512 samples (one pass over the test split): p98 leaves exactly 10.
  t = tail_percentile(iota_ms(512));
  EXPECT_EQ(t.pct, 98.0);
  EXPECT_EQ(t.beyond, 10);
  // 10,000 samples support p99.9.
  t = tail_percentile(iota_ms(10000));
  EXPECT_EQ(t.pct, 99.9);
  EXPECT_EQ(t.beyond, 10);
  // 100 samples: p90.
  EXPECT_EQ(tail_percentile(iota_ms(100)).pct, 90.0);
  // Too few samples for any percentile: the maximum, pct 0.
  t = tail_percentile(iota_ms(8));
  EXPECT_EQ(t.pct, 0.0);
  EXPECT_EQ(t.value, 8);
}

TEST(Percentile, UnservedCountsAboveAnyLimit) {
  auto v = iota_ms(1000);
  for (int i = 0; i < 11; ++i) v[static_cast<size_t>(i)] = kUnserved;
  const Tail t = tail_percentile(v);
  EXPECT_EQ(t.pct, 99.0);
  EXPECT_TRUE(std::isinf(t.value));
}

TEST(Percentile, MedianAveragesMiddlePairOfEvenCount) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_TRUE(std::isinf(median({1.0, kUnserved, kUnserved})));
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(Capacity, CompletionRateOverSecondHalf) {
  // A ramp of 100 requests while the pool fills, then one every 2 ms: the
  // second half sees only the steady 500 req/s.
  std::vector<double> done;
  for (int i = 0; i < 100; ++i) done.push_back(0.1 * i);
  for (int i = 0; i < 900; ++i) done.push_back(10.0 + 2.0 * i);
  EXPECT_NEAR(completion_rate(done), 500.0, 1e-9);
  // An unserved last request, or too few requests, gives no rate.
  done.back() = kUnserved;
  EXPECT_EQ(completion_rate(done), 0.0);
  EXPECT_EQ(completion_rate({1.0, 2.0, 3.0}), 0.0);
}

TEST(Capacity, ChunkRatesSkipRampAndDrain) {
  // Batches of 8 completing every 4 ms (2,000 req/s), after a slow ramp.
  std::vector<double> done;
  for (int i = 0; i < 16; ++i) done.push_back(100.0 * i);
  for (int b = 0; b < 40; ++b)
    for (int k = 0; k < 8; ++k) done.push_back(1600.0 + 4.0 * b);
  // Skipping the 16 ramp requests and the last 8: chunks of 64 (8 batches).
  const auto rates = chunk_rates(done, 16, 8, 64);
  ASSERT_EQ(rates.size(), 4u);  // (336 - 16 - 8) / 64
  for (size_t i = 1; i < rates.size(); ++i) EXPECT_NEAR(rates[i], 2000.0, 1e-9);
  // The first chunk's span starts at the last ramp completion.
  EXPECT_LT(rates[0], 2000.0);
  // An unserved request spoils only its own chunk.
  done[100] = kUnserved;
  EXPECT_EQ(chunk_rates(done, 16, 8, 64).size(), 3u);
  EXPECT_TRUE(chunk_rates(done, 0, 8, 64).empty());
}

TEST(Tally, FailuresCountShedRejectedAndFailed) {
  Tally a;
  a.sent = 100;
  a.served = 94;
  a.shed = 3;
  a.rejected = 2;
  a.failed = 1;
  EXPECT_EQ(a.failures(), 6);
  EXPECT_DOUBLE_EQ(a.ok_share(), 0.94);
  Tally b;
  b.sent = 100;
  b.served = 100;
  EXPECT_DOUBLE_EQ(b.ok_share(), 1.0);
  b.add(a);
  EXPECT_EQ(b.sent, 200);
  EXPECT_EQ(b.failures(), 6);
  EXPECT_DOUBLE_EQ(b.ok_share(), 194.0 / 200.0);
  EXPECT_DOUBLE_EQ(Tally{}.ok_share(), 1.0);
}

}  // namespace
