// PlanCache tests: key stability and identity, plan sharing across call
// sites (the lane/session topology of the serving runtime), LRU eviction at
// bounded capacity, eviction safety for live handles, and thread-safe
// concurrent acquire under eviction churn. The LUT-fingerprint tests pin the
// property the fault-injection experiments rely on: a mutated copy of a
// multiplier table can never alias the clean table's cached plans.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "axnn/axnn.hpp"

namespace axnn::kernels {
namespace {

approx::SignedMulTable trunc5_table() {
  return approx::SignedMulTable(axmul::make_lut("trunc5"));
}

/// Naive reference: C[M,N] = W ·~ X through the table.
std::vector<int32_t> naive_approx(const std::vector<int8_t>& w, const std::vector<int8_t>& x,
                                  int64_t m, int64_t k, int64_t n,
                                  const approx::SignedMulTable& tab) {
  std::vector<int32_t> c(static_cast<size_t>(m * n), 0);
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        const int8_t qw = w[static_cast<size_t>(i * k + kk)];
        if (qw != 0) acc += tab(x[static_cast<size_t>(kk * n + j)], qw);
      }
      c[static_cast<size_t>(i * n + j)] = acc;
    }
  return c;
}

std::vector<int8_t> pattern_operand(int64_t count, int lo, int hi, int seed) {
  std::vector<int8_t> v(static_cast<size_t>(count));
  const int span = hi - lo + 1;
  for (int64_t i = 0; i < count; ++i)
    v[static_cast<size_t>(i)] = static_cast<int8_t>(lo + (seed + 7 * i) % span);
  return v;
}

TEST(PlanKey, StableAcrossIdenticalInputs) {
  const approx::SignedMulTable tab = trunc5_table();
  const PlanKey a = make_int_key(OpKind::kApprox, {}, 16, 32, 24, Backend::kBlocked, &tab);
  const PlanKey b = make_int_key(OpKind::kApprox, {}, 16, 32, 24, Backend::kBlocked, &tab);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(PlanKeyHash{}(a), PlanKeyHash{}(b));
  EXPECT_EQ(a.to_string(), b.to_string());
  // A pristine table's fingerprint is memoized, so key construction is
  // repeatable even across separate copies of the same table.
  const approx::SignedMulTable copy = tab;
  const PlanKey c = make_int_key(OpKind::kApprox, {}, 16, 32, 24, Backend::kBlocked, &copy);
  EXPECT_TRUE(a == c);
}

TEST(PlanKey, DistinguishesEverythingThatChangesCodegen) {
  const approx::SignedMulTable tab = trunc5_table();
  const PlanKey base = make_int_key(OpKind::kApprox, {}, 16, 32, 24, Backend::kBlocked, &tab);
  EXPECT_FALSE(base ==
               make_int_key(OpKind::kApprox, {}, 17, 32, 24, Backend::kBlocked, &tab));
  EXPECT_FALSE(base ==
               make_int_key(OpKind::kExactInt, {}, 16, 32, 24, Backend::kBlocked, nullptr));
  EXPECT_FALSE(base ==
               make_int_key(OpKind::kApprox, {}, 16, 32, 24, Backend::kNaive, &tab));
  GemmDesc acc;
  acc.accumulate = true;
  EXPECT_FALSE(base == make_int_key(OpKind::kApprox, acc, 16, 32, 24, Backend::kBlocked, &tab));
}

TEST(PlanKey, MutatedTableNeverAliasesCleanPlans) {
  const approx::SignedMulTable clean = trunc5_table();
  approx::SignedMulTable faulty = clean;
  faulty.mutable_data()[approx::SignedMulTable::index(3, 5)] ^= 0x40;  // stuck bit
  EXPECT_TRUE(faulty.tainted());
  EXPECT_NE(clean.fingerprint(), faulty.fingerprint());

  const PlanKey kc = make_int_key(OpKind::kApprox, {}, 8, 16, 8, Backend::kBlocked, &clean);
  const PlanKey kf = make_int_key(OpKind::kApprox, {}, 8, 16, 8, Backend::kBlocked, &faulty);
  EXPECT_FALSE(kc == kf);

  PlanCache cache(8);
  const PlanHandle pc = cache.acquire(kc, &clean);
  const PlanHandle pf = cache.acquire(kf, &faulty);
  EXPECT_NE(pc.get(), pf.get());
  // Healing the fault (copy-assign from the clean table) restores the clean
  // fingerprint, so the repaired copy shares the clean table's plans again.
  faulty = clean;
  const PlanKey kh = make_int_key(OpKind::kApprox, {}, 8, 16, 8, Backend::kBlocked, &faulty);
  EXPECT_TRUE(kc == kh);
  EXPECT_EQ(cache.acquire(kh, &faulty).get(), pc.get());
}

TEST(PlanCacheTest, SharesOnePlanAcrossCallSites) {
  // Two memos model two lanes (or sessions) executing the same leaf shape:
  // both must resolve to the same underlying GemmPlan, acquired from the
  // global cache exactly once.
  const approx::SignedMulTable tab = trunc5_table();
  const PlanKey key = make_int_key(OpKind::kApprox, {}, 12, 48, 20, Backend::kBlocked, &tab);

  PlanMemo lane_a, lane_b;
  const PlanHandle& ha = lane_a.find_or_acquire(key, &tab);
  const PlanHandle& hb = lane_b.find_or_acquire(key, &tab);
  ASSERT_NE(ha.get(), nullptr);
  EXPECT_EQ(ha.get(), hb.get());

  // Repeat lookups hit the memo, not the mutex — and still count as cache
  // hits in the global stats (memos are a front-side cache).
  PlanCache::global().reset_stats();
  for (int i = 0; i < 5; ++i) (void)lane_a.find_or_acquire(key, &tab);
  const PlanCacheStats st = PlanCache::global().stats();
  EXPECT_EQ(st.hits, 5);
  EXPECT_EQ(st.misses, 0);

  const std::vector<PlanKey> memoized = lane_a.keys();
  ASSERT_EQ(memoized.size(), 1u);
  EXPECT_TRUE(memoized[0] == key);
}

TEST(PlanCacheTest, LruEvictionAtCapacity) {
  const approx::SignedMulTable tab = trunc5_table();
  auto key_m = [&](int64_t m) {
    return make_int_key(OpKind::kApprox, {}, m, 32, 16, Backend::kBlocked, &tab);
  };

  PlanCache cache(3);
  const PlanHandle p8 = cache.acquire(key_m(8), &tab);
  (void)cache.acquire(key_m(16), &tab);
  (void)cache.acquire(key_m(24), &tab);
  EXPECT_EQ(cache.stats().size, 3);
  EXPECT_EQ(cache.stats().evictions, 0);

  // Touch the oldest entry, then overflow: the least-recently-used entry is
  // now key_m(16), and it — not the touched key_m(8) — must be evicted.
  EXPECT_EQ(cache.acquire(key_m(8), &tab).get(), p8.get());
  (void)cache.acquire(key_m(40), &tab);
  EXPECT_EQ(cache.stats().size, 3);
  EXPECT_EQ(cache.stats().evictions, 1);

  cache.reset_stats();
  EXPECT_EQ(cache.acquire(key_m(8), &tab).get(), p8.get());  // survived (hit)
  EXPECT_EQ(cache.stats().hits, 1);
  (void)cache.acquire(key_m(16), &tab);  // evicted (miss → rebuild)
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(PlanCacheTest, EvictedPlanStaysValidForLiveHandles) {
  const approx::SignedMulTable tab = trunc5_table();
  constexpr int64_t m = 8, k = 32, n = 16;
  const PlanKey key = make_int_key(OpKind::kApprox, {}, m, k, n, Backend::kBlocked, &tab);

  PlanCache cache(1);
  const PlanHandle plan = cache.acquire(key, &tab);
  // Push the held plan out of the cache entirely.
  for (int64_t mm = 1; mm <= 4; ++mm)
    (void)cache.acquire(make_int_key(OpKind::kApprox, {}, mm, k, n, Backend::kBlocked, &tab),
                        &tab);
  EXPECT_EQ(cache.stats().size, 1);
  EXPECT_GE(cache.stats().evictions, 4);

  // The evicted plan still executes correctly — eviction only drops the
  // cache's reference, never the plan a handle keeps alive.
  const std::vector<int8_t> w = pattern_operand(m * k, -7, 7, 1);
  const std::vector<int8_t> x = pattern_operand(k * n, -128, 127, 3);
  std::vector<int32_t> c(static_cast<size_t>(m * n), 0);
  plan->run_int(w.data(), x.data(), c.data());
  EXPECT_EQ(c, naive_approx(w, x, m, k, n, tab));
}

TEST(PlanCacheTest, ConcurrentAcquireUnderEvictionChurn) {
  const approx::SignedMulTable tab = trunc5_table();
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  // Capacity below the working set: acquires constantly build and evict, so
  // this exercises the build-outside-the-lock race paths, not just lookups.
  PlanCache cache(4);

  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int64_t m = 4 + 4 * ((t + i) % 6);  // 6 distinct keys > capacity
        const PlanKey key =
            make_int_key(OpKind::kApprox, {}, m, 32, 16, Backend::kBlocked, &tab);
        const PlanHandle h = cache.acquire(key, &tab);
        if (h == nullptr || !(h->key() == key)) ++failures[static_cast<size_t>(t)];
      }
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[static_cast<size_t>(t)], 0);

  const PlanCacheStats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, int64_t{kThreads} * kIters);
  EXPECT_LE(st.size, 4);
}

}  // namespace
}  // namespace axnn::kernels
