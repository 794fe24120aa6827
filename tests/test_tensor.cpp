// Tests for the tensor substrate: Shape, Rng, Tensor, ops, GEMM, ThreadPool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "axnn/tensor/gemm.hpp"
#include "axnn/tensor/kernels.hpp"
#include "axnn/tensor/ops.hpp"
#include "axnn/tensor/rng.hpp"
#include "axnn/tensor/shape.hpp"
#include "axnn/tensor/tensor.hpp"
#include "axnn/tensor/threadpool.hpp"

namespace axnn {
namespace {

TEST(Shape, BasicProperties) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s[2], 4);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.to_string(), "[2, 3, 4]");
}

TEST(Shape, ScalarHasOneElement) {
  Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Shape, Equality) {
  EXPECT_EQ((Shape{2, 3}), (Shape{2, 3}));
  EXPECT_NE((Shape{2, 3}), (Shape{3, 2}));
  EXPECT_NE((Shape{2, 3}), (Shape{2, 3, 1}));
}

TEST(Shape, RejectsNegativeDims) {
  EXPECT_THROW((Shape{2, -1}), std::invalid_argument);
}

TEST(Shape, RejectsExcessRank) {
  EXPECT_THROW((Shape{1, 1, 1, 1, 1, 1, 1}), std::invalid_argument);
}

TEST(Shape, OutOfRangeAxisThrows) {
  Shape s{2, 3};
  EXPECT_THROW(s[2], std::out_of_range);
  EXPECT_THROW(s[-1], std::out_of_range);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(rng.uniform_int(10))];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - n / 50);
    EXPECT_LT(c, n / 10 + n / 50);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int64_t> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::set<int64_t> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 100u);
  EXPECT_NE(v[0] * 100 + v[1], 0 * 100 + 1);  // overwhelmingly likely moved
}

TEST(Rng, HashMixDeterministicAndSpread) {
  EXPECT_EQ(hash_mix(1, 2), hash_mix(1, 2));
  EXPECT_NE(hash_mix(1, 2), hash_mix(2, 1));
  EXPECT_NE(hash_mix(0, 0), 0u);
}

TEST(Tensor, FillAndAccess) {
  Tensor t(Shape{2, 3}, 1.5f);
  EXPECT_EQ(t.numel(), 6);
  EXPECT_FLOAT_EQ(t(1, 2), 1.5f);
  t(0, 1) = 2.0f;
  EXPECT_FLOAT_EQ(t[1], 2.0f);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t(Shape{4});
  EXPECT_THROW(t.at(4), std::out_of_range);
  EXPECT_THROW(t.at(-1), std::out_of_range);
  EXPECT_NO_THROW(t.at(3));
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t(Shape{2, 3});
  for (int64_t i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
  const Tensor r = t.reshaped(Shape{3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  for (int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(r[i], static_cast<float>(i));
  EXPECT_THROW(t.reshaped(Shape{4, 2}), std::invalid_argument);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor(Shape{2, 2}, std::vector<float>{1.0f}), std::invalid_argument);
}

TEST(Tensor, RandnStatistics) {
  Rng rng(5);
  const Tensor t = randn(Shape{4, 1000}, rng, 1.0f, 2.0f);
  EXPECT_NEAR(ops::mean(t), 1.0, 0.1);
}

TEST(Ops, AddSubMul) {
  Tensor a(Shape{3}, 2.0f), b(Shape{3}, 3.0f);
  EXPECT_FLOAT_EQ(ops::add(a, b)[0], 5.0f);
  EXPECT_FLOAT_EQ(ops::sub(a, b)[0], -1.0f);
  EXPECT_FLOAT_EQ(ops::mul(a, b)[0], 6.0f);
  EXPECT_THROW(ops::add(a, Tensor(Shape{4})), std::invalid_argument);
}

TEST(Ops, InplaceOps) {
  Tensor a(Shape{2}, 1.0f), b(Shape{2}, 2.0f);
  ops::add_inplace(a, b);
  EXPECT_FLOAT_EQ(a[0], 3.0f);
  ops::axpy_inplace(a, 0.5f, b);
  EXPECT_FLOAT_EQ(a[0], 4.0f);
  ops::scale_inplace(a, 2.0f);
  EXPECT_FLOAT_EQ(a[0], 8.0f);
}

TEST(Ops, Reductions) {
  Tensor a(Shape{4});
  a[0] = 1.0f; a[1] = -2.0f; a[2] = 3.0f; a[3] = -4.0f;
  EXPECT_DOUBLE_EQ(ops::sum(a), -2.0);
  EXPECT_DOUBLE_EQ(ops::mean(a), -0.5);
  EXPECT_FLOAT_EQ(ops::max_abs(a), 4.0f);
  EXPECT_DOUBLE_EQ(ops::sum_sq(a), 30.0);
}

TEST(Ops, Mse) {
  Tensor a(Shape{2}, 1.0f), b(Shape{2}, 3.0f);
  EXPECT_DOUBLE_EQ(ops::mse(a, b), 4.0);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(3);
  const Tensor logits = randn(Shape{5, 10}, rng, 0.0f, 3.0f);
  const Tensor p = ops::softmax(logits);
  for (int64_t i = 0; i < 5; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < 10; ++j) {
      EXPECT_GT(p(i, j), 0.0f);
      s += p(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxTemperatureFlattens) {
  Tensor logits(Shape{1, 3});
  logits[0] = 0.0f; logits[1] = 2.0f; logits[2] = 4.0f;
  const Tensor p1 = ops::softmax(logits, 1.0f);
  const Tensor p10 = ops::softmax(logits, 10.0f);
  // High temperature -> flatter distribution (paper's KD mechanism).
  EXPECT_LT(p10[2] - p10[0], p1[2] - p1[0]);
  EXPECT_GT(p10[0], p1[0]);
}

TEST(Ops, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(9);
  const Tensor logits = randn(Shape{3, 7}, rng);
  const Tensor lp = ops::log_softmax(logits, 2.0f);
  const Tensor p = ops::softmax(logits, 2.0f);
  for (int64_t i = 0; i < lp.numel(); ++i) EXPECT_NEAR(lp[i], std::log(p[i]), 1e-5);
}

TEST(Ops, SoftmaxInvariantToShift) {
  Tensor logits(Shape{1, 3});
  logits[0] = 1000.0f; logits[1] = 1001.0f; logits[2] = 1002.0f;  // stability
  const Tensor p = ops::softmax(logits);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-5);
  EXPECT_GT(p[2], p[1]);
}

TEST(Ops, ArgmaxAndAccuracy) {
  Tensor logits(Shape{2, 3}, 0.0f);
  logits(0, 1) = 1.0f;
  logits(1, 2) = 1.0f;
  const auto am = ops::argmax_rows(logits);
  EXPECT_EQ(am[0], 1);
  EXPECT_EQ(am[1], 2);
  EXPECT_DOUBLE_EQ(ops::accuracy(logits, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(ops::accuracy(logits, {1, 0}), 0.5);
}

TEST(Ops, RejectsBadTemperature) {
  Tensor logits(Shape{1, 2}, 0.0f);
  EXPECT_THROW(ops::softmax(logits, 0.0f), std::invalid_argument);
  EXPECT_THROW(ops::log_softmax(logits, -1.0f), std::invalid_argument);
}

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  Tensor c(Shape{m, n}, 0.0f);
  for (int64_t i = 0; i < m; ++i)
    for (int64_t kk = 0; kk < k; ++kk)
      for (int64_t j = 0; j < n; ++j) c(i, j) += a(i, kk) * b(kk, j);
  return c;
}

struct GemmDims {
  int64_t m, k, n;
};

class GemmSweep : public ::testing::TestWithParam<GemmDims> {};

TEST_P(GemmSweep, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 10007 + k * 101 + n);
  const Tensor a = randn(Shape{m, k}, rng);
  const Tensor b = randn(Shape{k, n}, rng);
  const Tensor c = matmul(a, b);
  const Tensor ref = naive_matmul(a, b);
  for (int64_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3f);
}

TEST_P(GemmSweep, TransposedVariantsConsistent) {
  const auto [m, k, n] = GetParam();
  Rng rng(m + k + n);
  const Tensor a = randn(Shape{m, k}, rng);
  const Tensor b = randn(Shape{k, n}, rng);
  const Tensor ref = naive_matmul(a, b);

  // gemm_nt: A[M,K] * (Bt[N,K])^T
  const Tensor bt = transpose(b);
  Tensor c1(Shape{m, n});
  kernels::gemm({.trans_b = true}, a.data(), bt.data(), c1.data(), m, k, n);
  for (int64_t i = 0; i < ref.numel(); ++i) EXPECT_NEAR(c1[i], ref[i], 1e-3f);

  // gemm_tn: (At[K,M])^T * B[K,N], accumulating into zeros
  const Tensor at = transpose(a);
  Tensor c2(Shape{m, n}, 0.0f);
  kernels::gemm({.trans_a = true, .accumulate = true}, at.data(), b.data(), c2.data(),
                m, k, n);
  for (int64_t i = 0; i < ref.numel(); ++i) EXPECT_NEAR(c2[i], ref[i], 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GemmSweep,
                         ::testing::Values(GemmDims{1, 1, 1}, GemmDims{2, 3, 4},
                                           GemmDims{5, 17, 3}, GemmDims{16, 16, 16},
                                           GemmDims{33, 7, 29}, GemmDims{64, 128, 9},
                                           GemmDims{128, 27, 256}));

TEST(Gemm, MatmulShapeChecks) {
  Tensor a(Shape{2, 3}), b(Shape{4, 2});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Gemm, TransposeRoundTrip) {
  Rng rng(21);
  const Tensor a = randn(Shape{5, 7}, rng);
  const Tensor att = transpose(transpose(a));
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(att[i], a[i]);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesEmptyAndSmallRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> total{0};
  pool.parallel_for(3, [&](int64_t b, int64_t e) { total += static_cast<int>(e - b); });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, ManyInvocationsStable) {
  ThreadPool pool(2);
  for (int iter = 0; iter < 100; ++iter) {
    std::atomic<int64_t> sum{0};
    pool.parallel_for(257, [&](int64_t b, int64_t e) {
      int64_t local = 0;
      for (int64_t i = b; i < e; ++i) local += i;
      sum += local;
    });
    EXPECT_EQ(sum.load(), 257 * 256 / 2);
  }
}

TEST(ThreadPool, TinyJobsFromTwoSubmittersStress) {
  // Each parallel_for keeps its Job on the submitter's stack, and the next
  // call reuses that stack slot at once. A worker finishing the last chunk
  // must be done with the Job before the submitter can see it complete —
  // many tiny jobs from two submitters make the window as wide as it gets
  // (the ThreadSanitizer CI job runs this).
  ThreadPool pool(4);
  constexpr int kJobs = 20000;
  const auto submitter = [&pool](int64_t* covered) {
    for (int j = 0; j < kJobs; ++j) {
      std::atomic<int64_t> items{0};
      pool.parallel_for(4, [&](int64_t b, int64_t e) { items += e - b; });
      *covered += items.load();
    }
  };
  int64_t covered_a = 0, covered_b = 0;
  std::thread a(submitter, &covered_a), b(submitter, &covered_b);
  a.join();
  b.join();
  EXPECT_EQ(covered_a, int64_t{4} * kJobs);
  EXPECT_EQ(covered_b, int64_t{4} * kJobs);
}

TEST(ThreadPool, WorkerExceptionRethrownOnSubmittingThread) {
  ThreadPool pool(4);
  // Every chunk throws; exactly one exception (the first) must surface, as a
  // normal catchable exception on the calling thread.
  EXPECT_THROW(pool.parallel_for(1000,
                                 [](int64_t b, int64_t) {
                                   throw std::out_of_range("chunk " + std::to_string(b));
                                 }),
               std::out_of_range);

  // Non-throwing chunks of a partially-failing invocation still run.
  std::vector<std::atomic<int>> hits(1000);
  try {
    pool.parallel_for(1000, [&](int64_t b, int64_t e) {
      if (b == 0) throw std::runtime_error("first chunk fails");
      for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
    });
    FAIL() << "expected the chunk exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first chunk fails");
  }
  int covered = 0;
  for (auto& h : hits) covered += h.load();
  EXPECT_GT(covered, 0);

  // The pool survives throwing tasks and keeps working.
  std::atomic<int64_t> sum{0};
  pool.parallel_for(257, [&](int64_t b, int64_t e) { sum += e - b; });
  EXPECT_EQ(sum.load(), 257);
}

TEST(ThreadPool, InlinePathPropagatesExceptions) {
  ThreadPool pool(1);  // single worker: parallel_for runs inline
  EXPECT_THROW(pool.parallel_for(10, [](int64_t, int64_t) { throw std::logic_error("inline"); }),
               std::logic_error);
  std::atomic<int64_t> sum{0};
  pool.parallel_for(10, [&](int64_t b, int64_t e) { sum += e - b; });
  EXPECT_EQ(sum.load(), 10);
}

TEST(ThreadPool, CurrentIsNullOutsideWorkersAndSetInside) {
  EXPECT_EQ(ThreadPool::current(), nullptr);
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  pool.parallel_for(
      8, [&](int64_t b, int64_t e) {
        // The chunk run by the submitting thread sees nullptr; worker chunks
        // see the owning pool.
        ThreadPool* cur = ThreadPool::current();
        if (cur == &pool) inside += static_cast<int>(e - b);
        else EXPECT_EQ(cur, nullptr);
        (void)b;
      },
      1);
  EXPECT_EQ(ThreadPool::current(), nullptr);  // unchanged on the caller
  (void)inside;  // how many chunks land on workers is scheduling-dependent
}

TEST(ThreadPool, NestedSamePoolParallelForRunsInline) {
  // Regression for the serving engine's nested use: a worker of a pool that
  // re-enters parallel_for on the SAME pool must run inline — enqueueing
  // would deadlock once every worker blocks waiting for chunks only the
  // blocked workers could execute, and oversubscribes before that.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  std::atomic<int> cross_thread_nested{0};
  pool.parallel_for(
      8, [&](int64_t ob, int64_t oe) {
        for (int64_t o = ob; o < oe; ++o) {
          const std::thread::id outer = std::this_thread::get_id();
          pool.parallel_for(
              8, [&](int64_t ib, int64_t ie) {
                if (std::this_thread::get_id() != outer) cross_thread_nested++;
                for (int64_t i = ib; i < ie; ++i) hits[static_cast<size_t>(o * 8 + i)]++;
              },
              1);
        }
      },
      1);
  // Nested chunks submitted from pool workers never leave their thread. The
  // submitting thread's own chunk is not a pool worker, so its nested call
  // may legitimately fan out — every element is still covered exactly once.
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedCrossPoolParallelForCompletes) {
  // The supported inter-op/intra-op split: workers of one pool drive
  // parallel_for on a different pool.
  ThreadPool inter(2), intra(2);
  std::vector<std::atomic<int>> hits(128);
  inter.parallel_for(
      4, [&](int64_t ob, int64_t oe) {
        for (int64_t o = ob; o < oe; ++o)
          intra.parallel_for(
              32, [&](int64_t ib, int64_t ie) {
                for (int64_t i = ib; i < ie; ++i) hits[static_cast<size_t>(o * 32 + i)]++;
              },
              1);
      },
      1);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PlanSplitPartitionsHardware) {
  // inter * intra never exceeds the planned-against hardware width.
  for (int hw = 1; hw <= 16; ++hw) {
    for (int hint = -2; hint <= 2 * hw; ++hint) {
      const auto s = ThreadPool::plan_split(hint, hw);
      EXPECT_GE(s.inter, 1);
      EXPECT_GE(s.intra, 1);
      EXPECT_LE(s.inter, hw);
      EXPECT_LE(s.inter * s.intra, std::max(hw, s.inter));
    }
  }
  EXPECT_EQ(ThreadPool::plan_split(1, 8).intra, 8);
  EXPECT_EQ(ThreadPool::plan_split(2, 8).intra, 4);
  EXPECT_EQ(ThreadPool::plan_split(3, 8).intra, 2);
  EXPECT_EQ(ThreadPool::plan_split(99, 8).inter, 8);
  EXPECT_EQ(ThreadPool::plan_split(99, 8).intra, 1);
  // hw = 0 resolves to the machine's hardware concurrency.
  const auto def = ThreadPool::plan_split(1, 0);
  EXPECT_GE(def.intra, 1);
}

TEST(ThreadPool, PlanSplitDegenerateInputs) {
  // One hardware thread: every hint collapses to the serial split — the
  // serving engine on a single-core box runs one lane, no intra fan-out.
  for (const int hint : {-3, 0, 1, 2, 64}) {
    const auto s = ThreadPool::plan_split(hint, 1);
    EXPECT_EQ(s.inter, 1) << "hint " << hint;
    EXPECT_EQ(s.intra, 1) << "hint " << hint;
  }
  // More requested lanes than threads: inter clamps to the hardware width
  // and each lane keeps exactly one kernel thread — never zero, never
  // oversubscribed.
  for (const int hw : {2, 3, 5}) {
    const auto s = ThreadPool::plan_split(hw + 7, hw);
    EXPECT_EQ(s.inter, hw);
    EXPECT_EQ(s.intra, 1);
    EXPECT_LE(s.inter * s.intra, hw);
  }
  // Nonsense hints clamp up to one coarse task with full intra width.
  EXPECT_EQ(ThreadPool::plan_split(0, 6).inter, 1);
  EXPECT_EQ(ThreadPool::plan_split(0, 6).intra, 6);
  EXPECT_EQ(ThreadPool::plan_split(-9, 4).inter, 1);
  EXPECT_EQ(ThreadPool::plan_split(-9, 4).intra, 4);
}

// ---------------------------------------------------------------------------
// Buffer pool: tensor storage recycles through size-class freelists.
// ---------------------------------------------------------------------------

TEST(BufferPool, RecyclesBlocksAcrossTensorLifetimes) {
  const Shape shape{4, 16, 8, 8};
  const float* first_block = nullptr;
  {
    Tensor warm(shape, 1.0f);
    first_block = warm.data();
  }  // block parks on its freelist
  buffer_pool_reset_stats();
  Tensor again(shape, 2.0f);
  // Same size class, nothing else competing: the freelist hands the block
  // straight back without touching the heap.
  EXPECT_EQ(again.data(), first_block);
  const BufferPoolStats s = buffer_pool_stats();
  EXPECT_GE(s.hits, 1);
  EXPECT_EQ(s.misses, 0);
  EXPECT_GT(s.hit_rate(), 0.99);
}

TEST(BufferPool, SteadyStateTensorChurnIsAllHits) {
  // Warm one block per class used, then churn: every construct/destruct
  // cycle after warm-up must be freelist-only.
  for (int round = 0; round < 2; ++round) {
    Tensor a(Shape{3, 5, 7, 9});
    TensorI8 b(Shape{129});
    TensorI32 c(Shape{64, 64});
    if (round == 0) buffer_pool_reset_stats();
  }
  const BufferPoolStats s = buffer_pool_stats();
  EXPECT_EQ(s.misses, 0);
  EXPECT_GE(s.hits, 3);
  EXPECT_GE(s.returned, 6);  // both rounds' blocks went back to the lists
}

TEST(BufferPool, TrimReleasesParkedBytes) {
  { Tensor t(Shape{1024}); }
  EXPECT_GT(buffer_pool_stats().cached_bytes, 0);
  buffer_pool_trim();
  EXPECT_EQ(buffer_pool_stats().cached_bytes, 0);
  // The pool stays usable after a trim.
  Tensor t(Shape{1024}, 3.0f);
  EXPECT_EQ(t[0], 3.0f);
}

TEST(BufferPool, StatsReportCapacity) {
  const BufferPoolStats s = buffer_pool_stats();
  EXPECT_GT(s.cap_bytes, 0);  // default cap is 256 MiB unless overridden
}

}  // namespace
}  // namespace axnn
