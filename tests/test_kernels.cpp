// Golden-reference tests for the unified axnn::kernels dispatch layer:
// kBlocked must agree with kNaive (the original triple-loop kernels) for
// every transpose/accumulate variant across odd shapes, the integer paths
// must match bit-for-bit, and results must be bit-identical across thread
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "axnn/approx/kernels.hpp"
#include "axnn/approx/approx_gemm.hpp"
#include "axnn/axmul/adder.hpp"
#include "axnn/axmul/registry.hpp"
#include "axnn/kernels/isa.hpp"
#include "axnn/kernels/plan.hpp"
#include "axnn/tensor/gemm.hpp"
#include "axnn/tensor/kernels.hpp"
#include "axnn/tensor/rng.hpp"
#include "axnn/tensor/tensor.hpp"
#include "axnn/tensor/threadpool.hpp"

namespace {

using namespace axnn;
using kernels::Backend;
using kernels::GemmDesc;

// 1..4 straddle the approx plans' scalar/vector kernel switch at M=4 (and
// the scalar kernel's 4-row groups); 8 and 16 sit on the vector kernels' 8-
// and 16-column strip edges.
constexpr int64_t kDims[] = {1, 2, 3, 4, 8, 16, 17, 64, 129};

std::vector<float> random_floats(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

std::vector<int8_t> random_i8(int64_t n, uint64_t seed, int lo, int hi) {
  Rng rng(seed);
  std::vector<int8_t> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<int8_t>(lo + rng.uniform_int(hi - lo + 1));
  return v;
}

void expect_close(const std::vector<float>& ref, const std::vector<float>& got,
                  int64_t k, const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  // Both backends accumulate in float (k rounding steps) except the naive
  // NT/TT paths, which use double; scale the tolerance with k.
  const float tol = 1e-5f * static_cast<float>(std::max<int64_t>(k, 1));
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(ref[i], got[i], tol * (1.0f + std::abs(ref[i])))
        << what << " at flat index " << i;
  }
}

// ---------------------------------------------------------------------------
// Float GEMM: blocked vs naive for every transpose/accumulate combination.
// ---------------------------------------------------------------------------

class FloatGolden : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(FloatGolden, BlockedMatchesNaive) {
  const auto [trans_a, trans_b, accumulate] = GetParam();
  const GemmDesc desc{.trans_a = trans_a, .trans_b = trans_b, .accumulate = accumulate};
  for (int64_t m : kDims) {
    for (int64_t k : kDims) {
      for (int64_t n : kDims) {
        const auto a = random_floats(m * k, 11 * m + k);
        const auto b = random_floats(k * n, 13 * k + n);
        const auto c0 = random_floats(m * n, 17 * m + n);
        std::vector<float> c_naive = c0;
        std::vector<float> c_blocked = c0;
        kernels::gemm(desc, a.data(), b.data(), c_naive.data(), m, k, n,
                      Backend::kNaive);
        kernels::gemm(desc, a.data(), b.data(), c_blocked.data(), m, k, n,
                      Backend::kBlocked);
        SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k << " n=" << n);
        expect_close(c_naive, c_blocked, k, "blocked vs naive");
      }
    }
  }
}

std::string variant_name(const ::testing::TestParamInfo<std::tuple<bool, bool, bool>>& info) {
  std::string s;
  s += std::get<0>(info.param) ? "TA" : "NA";
  s += std::get<1>(info.param) ? "TB" : "NB";
  s += std::get<2>(info.param) ? "Acc" : "Store";
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, FloatGolden,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                                            ::testing::Bool()),
                         variant_name);

TEST(Kernels, KZeroZeroesOrPreserves) {
  for (Backend backend : {Backend::kNaive, Backend::kBlocked}) {
    std::vector<float> c(6, 42.0f);
    kernels::gemm({}, nullptr, nullptr, c.data(), 2, 0, 3, backend);
    for (float v : c) EXPECT_EQ(v, 0.0f);
    std::vector<float> c2(6, 42.0f);
    kernels::gemm({.accumulate = true}, nullptr, nullptr, c2.data(), 2, 0, 3, backend);
    for (float v : c2) EXPECT_EQ(v, 42.0f);
  }
}

TEST(Kernels, EmptyOutputIsNoop) {
  kernels::gemm({}, nullptr, nullptr, nullptr, 0, 5, 3, Backend::kBlocked);
  kernels::gemm({}, nullptr, nullptr, nullptr, 3, 5, 0, Backend::kBlocked);
}

// ---------------------------------------------------------------------------
// Integer paths: approximate LUT, exact, adder-chained — bit-identical.
// ---------------------------------------------------------------------------

TEST(ApproxGolden, BlockedMatchesNaiveBitExact) {
  const approx::SignedMulTable tab(axmul::make_lut("trunc3"));
  for (int64_t m : kDims) {
    for (int64_t k : kDims) {
      for (int64_t n : kDims) {
        const auto w = random_i8(m * k, 3 * m + k, -7, 7);
        const auto x = random_i8(k * n, 5 * k + n, -127, 127);
        for (bool accumulate : {false, true}) {
          const GemmDesc desc{.accumulate = accumulate};
          std::vector<int32_t> c_naive(static_cast<size_t>(m * n), 9);
          std::vector<int32_t> c_blocked(static_cast<size_t>(m * n), 9);
          kernels::gemm_approx(desc, w.data(), x.data(), c_naive.data(), m, k, n, tab,
                               Backend::kNaive);
          kernels::gemm_approx(desc, w.data(), x.data(), c_blocked.data(), m, k, n,
                               tab, Backend::kBlocked);
          ASSERT_EQ(c_naive, c_blocked)
              << "m=" << m << " k=" << k << " n=" << n << " acc=" << accumulate;
        }
      }
    }
  }
}

TEST(ApproxGolden, ExactBlockedMatchesNaiveBitExact) {
  for (int64_t m : kDims) {
    for (int64_t k : kDims) {
      for (int64_t n : kDims) {
        const auto w = random_i8(m * k, 7 * m + k, -7, 7);
        const auto x = random_i8(k * n, 9 * k + n, -127, 127);
        std::vector<int32_t> c_naive(static_cast<size_t>(m * n));
        std::vector<int32_t> c_blocked(static_cast<size_t>(m * n));
        kernels::gemm_exact({}, w.data(), x.data(), c_naive.data(), m, k, n,
                            Backend::kNaive);
        kernels::gemm_exact({}, w.data(), x.data(), c_blocked.data(), m, k, n,
                            Backend::kBlocked);
        ASSERT_EQ(c_naive, c_blocked) << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ISA tiers: the vectorized blocked kernels must be bit-identical to the
// forced-scalar tier (the --no-simd / AXNN_SIMD=scalar escape hatch). Plans
// are keyed by ISA, so flipping it mid-process builds fresh plans for the
// scalar tier while the vector-tier plans stay cached and valid.
// ---------------------------------------------------------------------------

TEST(IsaGolden, ScalarTierMatchesVectorTierBitExact) {
  const kernels::Isa vector_isa = kernels::active_isa();
  if (vector_isa == kernels::Isa::kScalar)
    GTEST_SKIP() << "no vector ISA on this machine";
  const approx::SignedMulTable tab(axmul::make_lut("trunc3"));

  struct Restore {
    kernels::Isa isa;
    ~Restore() { kernels::set_isa(isa); }
  } restore{vector_isa};

  for (int64_t m : kDims) {
    for (int64_t k : kDims) {
      for (int64_t n : kDims) {
        const auto w = random_i8(m * k, 21 * m + k, -7, 7);
        const auto x = random_i8(k * n, 23 * k + n, -127, 127);
        const auto a = random_floats(m * k, 25 * m + k);
        const auto b = random_floats(k * n, 27 * k + n);
        std::vector<int32_t> approx_vec(static_cast<size_t>(m * n));
        std::vector<int32_t> exact_vec(static_cast<size_t>(m * n));
        std::vector<float> f32_vec(static_cast<size_t>(m * n));

        kernels::set_isa(vector_isa);
        kernels::gemm_approx({}, w.data(), x.data(), approx_vec.data(), m, k, n, tab,
                             Backend::kBlocked);
        kernels::gemm_exact({}, w.data(), x.data(), exact_vec.data(), m, k, n,
                            Backend::kBlocked);
        kernels::gemm({}, a.data(), b.data(), f32_vec.data(), m, k, n, Backend::kBlocked);

        kernels::set_isa(kernels::Isa::kScalar);
        std::vector<int32_t> approx_sc(static_cast<size_t>(m * n));
        std::vector<int32_t> exact_sc(static_cast<size_t>(m * n));
        std::vector<float> f32_sc(static_cast<size_t>(m * n));
        kernels::gemm_approx({}, w.data(), x.data(), approx_sc.data(), m, k, n, tab,
                             Backend::kBlocked);
        kernels::gemm_exact({}, w.data(), x.data(), exact_sc.data(), m, k, n,
                            Backend::kBlocked);
        kernels::gemm({}, a.data(), b.data(), f32_sc.data(), m, k, n, Backend::kBlocked);

        ASSERT_EQ(approx_vec, approx_sc) << "approx m=" << m << " k=" << k << " n=" << n;
        ASSERT_EQ(exact_vec, exact_sc) << "exact m=" << m << " k=" << k << " n=" << n;
        // Float is bit-stable across ISAs too: same operation order, no FMA.
        ASSERT_EQ(0, std::memcmp(f32_vec.data(), f32_sc.data(),
                                 f32_vec.size() * sizeof(float)))
            << "f32 m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(ApproxGolden, AccumBackendsAgree) {
  const approx::SignedMulTable tab(axmul::make_lut("trunc3"));
  const axmul::LoaAdder adder(4);
  const int64_t m = 17, k = 64, n = 33;
  const auto w = random_i8(m * k, 21, -7, 7);
  const auto x = random_i8(k * n, 22, -127, 127);
  std::vector<int32_t> c_naive(static_cast<size_t>(m * n), 5);
  std::vector<int32_t> c_blocked(static_cast<size_t>(m * n), 5);
  kernels::gemm_approx_accum({.accumulate = true}, w.data(), x.data(), c_naive.data(),
                             m, k, n, tab, adder, Backend::kNaive);
  kernels::gemm_approx_accum({.accumulate = true}, w.data(), x.data(),
                             c_blocked.data(), m, k, n, tab, adder,
                             Backend::kBlocked);
  EXPECT_EQ(c_naive, c_blocked);
}

TEST(ApproxGolden, TransposeFlagsRejected) {
  const approx::SignedMulTable tab(axmul::make_lut("trunc3"));
  std::vector<int8_t> w(4), x(4);
  std::vector<int32_t> c(4);
  EXPECT_THROW(kernels::gemm_approx({.trans_a = true}, w.data(), x.data(), c.data(), 2,
                                    2, 2, tab, Backend::kBlocked),
               std::invalid_argument);
  EXPECT_THROW(kernels::gemm_exact({.trans_b = true}, w.data(), x.data(), c.data(), 2,
                                   2, 2, Backend::kNaive),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Determinism: bit-identical results across thread counts.
// ---------------------------------------------------------------------------

TEST(Determinism, FloatBitIdenticalAcrossThreadCounts) {
  const int64_t m = 129, k = 129, n = 65;
  const auto a = random_floats(m * k, 31);
  const auto b = random_floats(k * n, 32);
  for (Backend backend : {Backend::kNaive, Backend::kBlocked}) {
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        const GemmDesc desc{.trans_a = trans_a, .trans_b = trans_b};
        ThreadPool p1(1);
        std::vector<float> ref(static_cast<size_t>(m * n));
        kernels::gemm(desc, a.data(), b.data(), ref.data(), m, k, n, backend, &p1);
        for (int threads : {2, 8}) {
          ThreadPool pn(threads);
          std::vector<float> got(static_cast<size_t>(m * n));
          kernels::gemm(desc, a.data(), b.data(), got.data(), m, k, n, backend, &pn);
          ASSERT_EQ(0, std::memcmp(ref.data(), got.data(),
                                   ref.size() * sizeof(float)))
              << kernels::backend_name(backend) << " ta=" << trans_a
              << " tb=" << trans_b << " threads=" << threads;
        }
      }
    }
  }
}

TEST(Determinism, ApproxBitIdenticalAcrossThreadCounts) {
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  const int64_t m = 65, k = 129, n = 33;
  const auto w = random_i8(m * k, 41, -7, 7);
  const auto x = random_i8(k * n, 42, -127, 127);
  for (Backend backend : {Backend::kNaive, Backend::kBlocked}) {
    ThreadPool p1(1);
    std::vector<int32_t> ref(static_cast<size_t>(m * n));
    kernels::gemm_approx({}, w.data(), x.data(), ref.data(), m, k, n, tab, backend,
                         &p1);
    for (int threads : {2, 8}) {
      ThreadPool pn(threads);
      std::vector<int32_t> got(static_cast<size_t>(m * n));
      kernels::gemm_approx({}, w.data(), x.data(), got.data(), m, k, n, tab, backend,
                           &pn);
      ASSERT_EQ(ref, got) << kernels::backend_name(backend)
                          << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Backend selection plumbing.
// ---------------------------------------------------------------------------

TEST(BackendConfig, NamesAndDefaultRoundTrip) {
  EXPECT_STREQ("naive", kernels::backend_name(Backend::kNaive));
  EXPECT_STREQ("blocked", kernels::backend_name(Backend::kBlocked));
  const Backend saved = kernels::default_backend();
  kernels::set_default_backend(Backend::kNaive);
  EXPECT_EQ(Backend::kNaive, kernels::default_backend());
  // A naive default forces auto_backend to naive regardless of shape.
  EXPECT_EQ(Backend::kNaive, kernels::auto_backend(512, 512, 512));
  kernels::set_default_backend(saved);
}

TEST(BackendConfig, PlansBindKernelByShape) {
  const Backend saved = kernels::default_backend();
  kernels::set_default_backend(Backend::kBlocked);
  // The backend does not depend on the shape; the plan does the choosing.
  EXPECT_EQ(Backend::kBlocked, kernels::auto_backend(1, 576, 1024));
  EXPECT_EQ(Backend::kBlocked, kernels::auto_backend(64, 3, 4));

  // Int plans: approx binds the vector strip kernels from 4 output rows up
  // and the scalar slices kernel below; exact binds the vector kernels at
  // every M. The scalar ISA binds the scalar kernels everywhere.
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  const bool vector_isa = kernels::active_isa() != kernels::Isa::kScalar;
  for (const kernels::OpKind op : {kernels::OpKind::kApprox, kernels::OpKind::kExactInt}) {
    for (int64_t m : {1, 2, 3, 4, 64}) {
      const auto* t = op == kernels::OpKind::kApprox ? &tab : nullptr;
      const kernels::PlanHandle plan = kernels::PlanCache::global().acquire(
          kernels::make_int_key(op, {}, m, 36, 256, Backend::kBlocked, t), t);
      const int64_t min_rows = op == kernels::OpKind::kApprox ? 4 : 1;
      EXPECT_EQ(vector_isa && m >= min_rows ? kernels::MicroKernel::kVectorInt
                                            : kernels::MicroKernel::kScalarInt,
                plan->kernel())
          << kernels::op_kind_name(op) << " m=" << m;
    }
  }

  // Float plans bind the plain loops exactly where float GEMMs always ran
  // them (m < 8, n < 16 or m*k*n < 2^16), so those results keep their bits.
  const struct {
    int64_t m, k, n;
    kernels::MicroKernel kernel;
  } shapes[] = {{4, 36, 8192, kernels::MicroKernel::kNaiveF32},
                {1, 576, 1024, kernels::MicroKernel::kNaiveF32},
                {64, 3, 4, kernels::MicroKernel::kNaiveF32},
                {64, 64, 15, kernels::MicroKernel::kNaiveF32},
                {8, 16, 511, kernels::MicroKernel::kNaiveF32},
                {8, 16, 512, kernels::MicroKernel::kBlockedF32},
                {64, 576, 1024, kernels::MicroKernel::kBlockedF32}};
  for (const auto& s : shapes) {
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        const GemmDesc desc{.trans_a = trans_a, .trans_b = trans_b, .accumulate = trans_a};
        const kernels::PlanHandle plan = kernels::PlanCache::global().acquire(
            kernels::make_f32_key(desc, s.m, s.k, s.n, Backend::kBlocked));
        EXPECT_EQ(s.kernel, plan->kernel()) << "m=" << s.m << " k=" << s.k << " n=" << s.n;
        if (s.kernel != kernels::MicroKernel::kNaiveF32) continue;
        const auto a = random_floats(s.m * s.k, 61 * s.m + s.k);
        const auto b = random_floats(s.k * s.n, 63 * s.k + s.n);
        const auto c0 = random_floats(s.m * s.n, 65 * s.m + s.n);
        std::vector<float> c_naive = c0, c_plan = c0;
        kernels::gemm(desc, a.data(), b.data(), c_naive.data(), s.m, s.k, s.n,
                      Backend::kNaive);
        kernels::gemm(desc, a.data(), b.data(), c_plan.data(), s.m, s.k, s.n);
        ASSERT_EQ(0, std::memcmp(c_naive.data(), c_plan.data(), c_plan.size() * sizeof(float)))
            << "m=" << s.m << " k=" << s.k << " n=" << s.n << " ta=" << trans_a
            << " tb=" << trans_b;
      }
    }
  }
  kernels::set_default_backend(saved);
}

TEST(BackendConfig, RowGrainScalesInverselyWithWork) {
  EXPECT_GE(kernels::row_grain(1, 1), kernels::row_grain(576, 1024));
  EXPECT_GE(kernels::row_grain(0, 0), int64_t{1});
  EXPECT_EQ(kernels::row_grain(1 << 5, 1 << 5), int64_t{1} << 5);
}

TEST(ThreadPoolGlobal, SetThreadsFailsLoudAfterFirstUse) {
  ThreadPool& pool = ThreadPool::global();  // force creation
  const int current = pool.size();
  EXPECT_NO_THROW(ThreadPool::set_global_threads(current));  // same size: no-op
  EXPECT_THROW(ThreadPool::set_global_threads(current + 1), std::logic_error);
}

// ---------------------------------------------------------------------------
// Deprecated float free-function wrappers must keep compiling and agreeing.
// (The axnn::approx int wrappers are gone; matmul_approx is the only
// remaining convenience and routes through the same dispatch.)
// ---------------------------------------------------------------------------

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
TEST(DeprecatedWrappers, StillComputeTheSameResults) {
  const int64_t m = 17, k = 33, n = 9;
  const auto a = random_floats(m * k, 51);
  const auto b = random_floats(k * n, 52);
  std::vector<float> ref(static_cast<size_t>(m * n));
  std::vector<float> got(static_cast<size_t>(m * n));

  kernels::gemm({}, a.data(), b.data(), ref.data(), m, k, n);
  gemm_f32(a.data(), b.data(), got.data(), m, k, n);
  expect_close(ref, got, k, "gemm_f32");

  kernels::gemm({.accumulate = true}, a.data(), b.data(), ref.data(), m, k, n);
  gemm_f32_acc(a.data(), b.data(), got.data(), m, k, n);
  expect_close(ref, got, k, "gemm_f32_acc");

  const auto bt = random_floats(n * k, 53);  // B stored [N,K]
  kernels::gemm({.trans_b = true}, a.data(), bt.data(), ref.data(), m, k, n);
  gemm_nt_f32(a.data(), bt.data(), got.data(), m, k, n);
  expect_close(ref, got, k, "gemm_nt_f32");

  const auto at = random_floats(k * m, 54);  // A stored [K,M]
  kernels::gemm({.trans_a = true, .accumulate = true}, at.data(), b.data(), ref.data(),
                m, k, n);
  gemm_tn_f32_acc(at.data(), b.data(), got.data(), m, k, n);
  expect_close(ref, got, k, "gemm_tn_f32_acc");
}
#pragma GCC diagnostic pop

// The tensor-level convenience agrees with the raw int dispatch it wraps.
TEST(MatmulApprox, MatchesKernelDispatch) {
  const int64_t m = 17, k = 33, n = 9;
  const approx::SignedMulTable tab(axmul::make_lut("trunc3"));
  const auto w = random_i8(m * k, 55, -7, 7);
  const auto xi = random_i8(k * n, 56, -127, 127);

  TensorI8 wt(Shape{m, k}), xt(Shape{k, n});
  std::copy(w.begin(), w.end(), wt.data());
  std::copy(xi.begin(), xi.end(), xt.data());

  std::vector<int32_t> iref(static_cast<size_t>(m * n));
  kernels::gemm_approx({}, w.data(), xi.data(), iref.data(), m, k, n, tab);
  const TensorI32 igot = approx::matmul_approx(wt, xt, tab);
  for (int64_t i = 0; i < igot.numel(); ++i) EXPECT_EQ(iref[static_cast<size_t>(i)], igot[i]);
}

}  // namespace
