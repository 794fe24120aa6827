// Golden-reference tests for the unified axnn::kernels dispatch layer:
// kBlocked must agree with kNaive (the original triple-loop kernels) for
// every transpose/accumulate variant across odd shapes, the integer paths
// must match bit-for-bit, and results must be bit-identical across thread
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "axnn/approx/kernels.hpp"
#include "axnn/approx/approx_gemm.hpp"
#include "axnn/axmul/adder.hpp"
#include "axnn/axmul/registry.hpp"
#include "axnn/kernels/checksum.hpp"
#include "axnn/kernels/int_gemm.hpp"
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

// Int GEMM operands over the whole 4-bit weight / 8-bit activation range,
// with the saturated −8 weight and −128 activation always present.
std::vector<int8_t> edge_weights(int64_t m, int64_t k, uint64_t seed) {
  auto w = random_i8(m * k, seed, -8, 7);
  w.front() = -8;
  return w;
}

std::vector<int8_t> edge_activations(int64_t k, int64_t n, uint64_t seed) {
  auto x = random_i8(k * n, seed, -128, 127);
  x.back() = -128;
  return x;
}

// The tables the int golden tests sweep: exact products and two depths on
// the closed-form kernel, and an EvoApprox-like table on the LUT kernels.
constexpr const char* kGoldenTables[] = {"exact", "trunc1", "trunc5", "evoa228"};

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
  for (const char* name : kGoldenTables) {
    const approx::SignedMulTable tab(axmul::make_lut(name));
    for (int64_t m : kDims) {
      for (int64_t k : kDims) {
        for (int64_t n : kDims) {
          const auto w = edge_weights(m, k, 3 * m + k);
          const auto x = edge_activations(k, n, 5 * k + n);
          for (bool accumulate : {false, true}) {
            const GemmDesc desc{.accumulate = accumulate};
            std::vector<int32_t> c_naive(static_cast<size_t>(m * n), 9);
            std::vector<int32_t> c_blocked(static_cast<size_t>(m * n), 9);
            kernels::gemm_approx(desc, w.data(), x.data(), c_naive.data(), m, k, n, tab,
                                 Backend::kNaive);
            kernels::gemm_approx(desc, w.data(), x.data(), c_blocked.data(), m, k, n,
                                 tab, Backend::kBlocked);
            ASSERT_EQ(c_naive, c_blocked) << name << " m=" << m << " k=" << k
                                          << " n=" << n << " acc=" << accumulate;
          }
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
// scalar tier while the vector-tier plans stay cached and valid. On AVX2 the
// truncated tables run the closed-form kernel, the scalar tier the slices
// LUT kernel.
// ---------------------------------------------------------------------------

TEST(IsaGolden, ScalarTierMatchesVectorTierBitExact) {
  const kernels::Isa vector_isa = kernels::active_isa();
  if (vector_isa == kernels::Isa::kScalar)
    GTEST_SKIP() << "no vector ISA on this machine";
  std::vector<approx::SignedMulTable> tabs;
  for (const char* name : kGoldenTables) tabs.emplace_back(axmul::make_lut(name));

  struct Restore {
    kernels::Isa isa;
    ~Restore() { kernels::set_isa(isa); }
  } restore{vector_isa};

  // Beyond kDims: row counts that leave the closed form's 4-row blocks 1, 2
  // or 3 remainder rows after one or two full blocks, and depths on both
  // sides of its int16 flush every 16 k-steps (and the LUT kernels' 8).
  constexpr int64_t kRows[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16, 17, 64, 129};
  constexpr int64_t kDepths[] = {1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 64, 129};
  for (int64_t m : kRows) {
    for (int64_t k : kDepths) {
      for (int64_t n : kDims) {
        const auto w = edge_weights(m, k, 21 * m + k);
        const auto x = edge_activations(k, n, 23 * k + n);
        const auto a = random_floats(m * k, 25 * m + k);
        const auto b = random_floats(k * n, 27 * k + n);
        const auto c0 = random_i8(m * n, 29 * m + n, -128, 127);
        // Per tier: every (table, accumulate) approx result, then exact, then f32.
        const auto run_tier = [&](kernels::Isa isa, std::vector<std::vector<int32_t>>& approx,
                                  std::vector<int32_t>& exact, std::vector<float>& f32) {
          kernels::set_isa(isa);
          for (const approx::SignedMulTable& tab : tabs) {
            for (bool accumulate : {false, true}) {
              approx.emplace_back(c0.begin(), c0.end());
              kernels::gemm_approx({.accumulate = accumulate}, w.data(), x.data(),
                                   approx.back().data(), m, k, n, tab, Backend::kBlocked);
            }
          }
          exact.resize(static_cast<size_t>(m * n));
          kernels::gemm_exact({}, w.data(), x.data(), exact.data(), m, k, n,
                              Backend::kBlocked);
          f32.resize(static_cast<size_t>(m * n));
          kernels::gemm({}, a.data(), b.data(), f32.data(), m, k, n, Backend::kBlocked);
        };
        std::vector<std::vector<int32_t>> approx_vec, approx_sc;
        std::vector<int32_t> exact_vec, exact_sc;
        std::vector<float> f32_vec, f32_sc;
        run_tier(vector_isa, approx_vec, exact_vec, f32_vec);
        run_tier(kernels::Isa::kScalar, approx_sc, exact_sc, f32_sc);

        for (size_t i = 0; i < approx_vec.size(); ++i)
          ASSERT_EQ(approx_vec[i], approx_sc[i])
              << kGoldenTables[i / 2] << " acc=" << i % 2 << " m=" << m << " k=" << k
              << " n=" << n;
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
}

TEST(BackendConfig, PlansBindKernelByShape) {
  // The backend does not depend on the shape; the plan does the choosing.
  EXPECT_EQ(Backend::kBlocked, kernels::auto_backend(1, 576, 1024));
  EXPECT_EQ(Backend::kBlocked, kernels::auto_backend(64, 3, 4));

  // Int plans: a truncated table (trunc5) binds the closed-form kernel at
  // every M on AVX2; any other approx table (evoa228) binds the vector strip
  // kernels from 4 output rows up and the scalar slices kernel below. Exact
  // int plans (weights wider than 4 bits) bind the scalar kernel at every M
  // on every ISA, and the scalar ISA binds the scalar kernels everywhere.
  const approx::SignedMulTable trunc5(axmul::make_lut("trunc5"));
  const approx::SignedMulTable evoa228(axmul::make_lut("evoa228"));
  const kernels::Isa isa = kernels::active_isa();
  const bool vector_isa = isa != kernels::Isa::kScalar;
  const struct {
    kernels::OpKind op;
    const approx::SignedMulTable* tab;
  } int_ops[] = {{kernels::OpKind::kApprox, &trunc5},
                 {kernels::OpKind::kApprox, &evoa228},
                 {kernels::OpKind::kExactInt, nullptr}};
  for (const auto& o : int_ops) {
    for (int64_t m : {1, 2, 3, 4, 64}) {
      const kernels::PlanHandle plan = kernels::PlanCache::global().acquire(
          kernels::make_int_key(o.op, {}, m, 36, 256, Backend::kBlocked, o.tab), o.tab);
      const bool approx = o.op == kernels::OpKind::kApprox;
      const kernels::MicroKernel want =
          o.tab == &trunc5 && isa == kernels::Isa::kAvx2 ? kernels::MicroKernel::kTruncInt
          : approx && vector_isa && m >= 4               ? kernels::MicroKernel::kVectorInt
                                                         : kernels::MicroKernel::kScalarInt;
      EXPECT_EQ(want, plan->kernel())
          << kernels::op_kind_name(o.op) << " " << (o.tab ? o.tab->name() : "") << " m=" << m;
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
}

// ---------------------------------------------------------------------------
// Closed-form tier: truncated tables are recognised by their contents and run
// without a table on AVX2; every other table keeps the LUT kernels.
// ---------------------------------------------------------------------------

kernels::PlanHandle approx_plan(const approx::SignedMulTable& tab, int64_t m, int64_t k,
                                int64_t n) {
  return kernels::PlanCache::global().acquire(
      kernels::make_int_key(kernels::OpKind::kApprox, {}, m, k, n, Backend::kBlocked, &tab),
      &tab);
}

// The LUT kernel an approx plan binds when no closed form applies.
kernels::MicroKernel lut_kernel(int64_t m) {
  return kernels::active_isa() != kernels::Isa::kScalar && m >= 4
             ? kernels::MicroKernel::kVectorInt
             : kernels::MicroKernel::kScalarInt;
}

TEST(ClosedForm, TruncatedTablesBindItWithTheirDepth) {
  const bool avx2 = kernels::active_isa() == kernels::Isa::kAvx2;
  for (int t = 0; t <= 11; ++t) {
    const std::string name = t == 0 ? "exact" : "trunc" + std::to_string(t);
    const approx::SignedMulTable tab(axmul::make_lut(name));
    for (int64_t m : {1, 4, 16}) {
      const kernels::PlanHandle plan = approx_plan(tab, m, 9, 64);
      EXPECT_EQ(avx2 ? kernels::MicroKernel::kTruncInt : lut_kernel(m), plan->kernel())
          << name << " m=" << m;
      EXPECT_EQ(avx2 ? t : -1, plan->truncation()) << name << " m=" << m;
    }
  }
  int evoa = 0;
  for (const axmul::MultiplierSpec& spec : axmul::paper_multipliers()) {
    if (spec.kind != axmul::MultiplierKind::kEvoApproxLike) continue;
    ++evoa;
    const approx::SignedMulTable tab(axmul::make_lut(spec.id));
    for (int64_t m : {1, 3, 4, 16}) {
      const kernels::PlanHandle plan = approx_plan(tab, m, 9, 64);
      EXPECT_EQ(lut_kernel(m), plan->kernel()) << spec.id << " m=" << m;
      EXPECT_EQ(-1, plan->truncation()) << spec.id << " m=" << m;
    }
  }
  EXPECT_EQ(8, evoa);
}

TEST(ClosedForm, MatchesEveryTruncatedTableOnTheWholeOperandDomain) {
  // One GEMM per table: 16 weight rows (every nibble), K = 1, 256 activation
  // columns (every byte), so C[w][a] must be exactly tab(a, w) — and 0 for
  // the zero weight, whatever the table holds there. Then the largest int16
  // partial a row sums before widening: 33 weights of −8 against
  // activations of 127, where at depths 0–3 every k-step adds
  // c_3·U_3 = −8·255 (16 k-steps reach −32,640, 17 would wrap).
  constexpr int64_t M = 16, N = 256;
  std::vector<int8_t> w(M), x(N);
  for (int64_t i = 0; i < M; ++i) w[static_cast<size_t>(i)] = static_cast<int8_t>(i - 8);
  for (int64_t j = 0; j < N; ++j) x[static_cast<size_t>(j)] = static_cast<int8_t>(j - 128);
  for (int t = 0; t <= 11; ++t) {
    const std::string name = t == 0 ? "exact" : "trunc" + std::to_string(t);
    const approx::SignedMulTable tab(axmul::make_lut(name));
    std::vector<int32_t> c(static_cast<size_t>(M * N), 7);
    kernels::gemm_approx({}, w.data(), x.data(), c.data(), M, 1, N, tab, Backend::kBlocked);
    for (int64_t i = 0; i < M; ++i)
      for (int64_t j = 0; j < N; ++j) {
        const int32_t qw = w[static_cast<size_t>(i)], qa = x[static_cast<size_t>(j)];
        ASSERT_EQ(qw == 0 ? 0 : tab(qa, qw), c[static_cast<size_t>(i * N + j)])
            << name << " a=" << qa << " w=" << qw;
      }
    const std::vector<int8_t> low(33, -8), high(33 * 16, 127);
    std::vector<int32_t> extreme(16, 7);
    kernels::gemm_approx({}, low.data(), high.data(), extreme.data(), 1, 33, 16, tab,
                         Backend::kBlocked);
    for (const int32_t v : extreme) ASSERT_EQ(33 * tab(127, -8), v) << name;
  }
}

TEST(ClosedForm, ProductNeverDecreasesWithTheWeightOnNonNegativeActivations) {
  // What the sentinel's row check relies on: for a ≥ 0 every closed-form
  // table's product is non-decreasing in the weight, so one weight fault's
  // per-column differences share a sign and cannot cancel in a row sum.
  for (int t = 0; t <= 11; ++t) {
    const std::string name = t == 0 ? "exact" : "trunc" + std::to_string(t);
    const approx::SignedMulTable tab(axmul::make_lut(name));
    for (int32_t a = 0; a <= 127; ++a)
      for (int32_t w = -8; w < 7; ++w)
        ASSERT_LE(tab(a, w), tab(a, w + 1)) << name << " a=" << a << " w=" << w;
  }
}

TEST(ClosedForm, CorruptedTruncatedTableRunsThroughTheLut) {
  // Fault injection: one trunc5 entry off by one. The copy's plan is a
  // distinct plan on the LUT kernels, and its results are the corrupted
  // table's, bit for bit.
  const approx::SignedMulTable clean(axmul::make_lut("trunc5"));
  approx::SignedMulTable bad = clean;
  bad.mutable_data()[approx::SignedMulTable::index(-77, 3)] += 1;
  const int64_t k = 20, n = 40;
  for (int64_t m : {2, 8}) {
    const kernels::PlanHandle clean_plan = approx_plan(clean, m, k, n);
    const kernels::PlanHandle bad_plan = approx_plan(bad, m, k, n);
    EXPECT_NE(clean_plan.get(), bad_plan.get()) << "m=" << m;
    EXPECT_EQ(lut_kernel(m), bad_plan->kernel()) << "m=" << m;
    EXPECT_EQ(-1, bad_plan->truncation()) << "m=" << m;

    auto w = edge_weights(m, k, 71 + m);
    auto x = edge_activations(k, n, 73 + m);
    w[1] = 3;
    x[static_cast<size_t>(n)] = -77;  // row 0 meets the corrupted entry at k = 1
    std::vector<int32_t> c_naive(static_cast<size_t>(m * n)), c_plan(c_naive.size()),
        c_clean(c_naive.size());
    kernels::gemm_approx({}, w.data(), x.data(), c_naive.data(), m, k, n, bad,
                         Backend::kNaive);
    kernels::gemm_approx({}, w.data(), x.data(), c_plan.data(), m, k, n, bad,
                         Backend::kBlocked);
    kernels::gemm_approx({}, w.data(), x.data(), c_clean.data(), m, k, n, clean,
                         Backend::kBlocked);
    EXPECT_EQ(c_naive, c_plan) << "m=" << m;
    EXPECT_EQ(c_clean[0] + 1, c_plan[0]) << "m=" << m;
  }
}

// ---------------------------------------------------------------------------
// Conv-plane GEMM: a stride-1 conv under the closed form reads X from its
// padded int8 plane; every other conv lowers the plane to columns.
// ---------------------------------------------------------------------------

struct PlaneCase {
  int64_t width, kernel, stride;
  int64_t groups = 1;
  int64_t height = 0;  ///< output height; 0: square
};

// X[k, n] of `x` (one group of `groups`) by direct taps: row
// (c·kernel + kh)·kernel + kw, column (b·oh + i)·ow + j.
std::vector<int8_t> lower_plane(const std::vector<int8_t>& plane, const kernels::ConvPlane& x,
                                int64_t groups, int64_t group) {
  const int64_t oh = x.oh(), ow = x.ow(), taps = x.kernel * x.kernel;
  const int64_t cg = x.channels / groups, k = cg * taps, n = x.batch * oh * ow;
  std::vector<int8_t> cols(static_cast<size_t>(k * n));
  for (int64_t r = 0; r < k; ++r) {
    const int64_t ch = group * cg + r / taps, kh = r / x.kernel % x.kernel, kw = r % x.kernel;
    for (int64_t col = 0; col < n; ++col) {
      const int64_t b = col / (oh * ow), i = col / ow % oh, j = col % ow;
      cols[static_cast<size_t>(r * n + col)] = plane[static_cast<size_t>(
          ((b * x.channels + ch) * x.ph + i * x.stride + kh) * x.pw + j * x.stride + kw)];
    }
  }
  return cols;
}

TEST(ClosedForm, PlaneGemmMatchesDenseGemmAndNaive) {
  // Eligible geometries (stride 1, kernel 1, 3 or 5, output width 4, 8, 16
  // or 32 with whole 16-column strips) read the plane on AVX2 and must give the accumulators
  // of the dense and naive GEMMs over the lowered columns; the others —
  // widths 5, 7 and 12, images of 12 or 8 outputs (strips would span two
  // images), stride 2, two groups, a LUT-only table — decline the plane and
  // run the dense GEMM. Every plane holds −128 and 127, and the weights hold
  // all 16 nibbles.
  const bool avx2 = kernels::active_isa() == kernels::Isa::kAvx2;
  std::vector<std::pair<std::string, bool>> tables{{"evoa228", false}};
  for (int t = 0; t <= 11; ++t)
    tables.emplace_back(t == 0 ? "exact" : "trunc" + std::to_string(t), true);
  const PlaneCase eligible[] = {{4, 3, 1}, {8, 3, 1}, {16, 3, 1}, {32, 3, 1}, {4, 1, 1},
                                {8, 1, 1}, {16, 1, 1}, {32, 1, 1}, {8, 5, 1}};
  const PlaneCase declined[] = {{5, 3, 1},       {7, 3, 1}, {12, 3, 1},   {12, 1, 1},
                                {8, 3, 2},       {8, 1, 2}, {8, 3, 1, 2}, {16, 1, 1, 2},
                                {4, 3, 1, 1, 3}, {8, 1, 1, 1, 1}};
  // Rows × input channels: 8 × 4 at every batch 1-8, then row counts that
  // leave the closed form's 4-row blocks 1, 2 or 3 remainder rows, with
  // depths K = channels·kernel² below, at and above its int16 flush (16
  // k-steps) and the LUT kernels' 8, at batches 1 and 2.
  struct Dims {
    int64_t rows, channels;
  };
  const Dims dims[] = {{8, 4}, {1, 8}, {2, 16}, {3, 17}, {5, 7}, {6, 9},
                       {7, 15}, {9, 1}, {16, 2}, {17, 3}};
  int64_t plane_runs = 0, eligible_inputs = 0;
  for (const auto& [name, truncated] : tables) {
    const approx::SignedMulTable tab(axmul::make_lut(name));
    for (const bool reads : {true, false})
      for (const PlaneCase& pc : reads ? std::vector<PlaneCase>(std::begin(eligible),
                                                                std::end(eligible))
                                       : std::vector<PlaneCase>(std::begin(declined),
                                                                std::end(declined)))
        for (const auto& [rows, channels] : dims)
        for (int64_t batch = 1; batch <= 8; ++batch) {
          if ((rows != 8 && batch > 2) || channels % pc.groups != 0) continue;
          if (reads && truncated) ++eligible_inputs;
          // An input of in_h × in_w with padding kernel/2 gives outputs of
          // pc.height × pc.width.
          const int64_t pad = pc.kernel / 2, height = pc.height > 0 ? pc.height : pc.width;
          const int64_t in_w = (pc.width - 1) * pc.stride + pc.kernel - 2 * pad;
          const int64_t in_h = (height - 1) * pc.stride + pc.kernel - 2 * pad;
          kernels::ConvPlane x{nullptr,        batch,     channels, in_h + 2 * pad,
                               in_w + 2 * pad, pc.kernel, pc.stride};
          ASSERT_EQ(pc.width, x.ow());
          ASSERT_EQ(height, x.oh());
          std::vector<int8_t> plane(static_cast<size_t>(batch * channels * x.ph * x.pw));
          Rng rng(static_cast<uint64_t>(97 * batch + pc.width + 7 * pc.kernel));
          for (int64_t p = 0; p < static_cast<int64_t>(plane.size()); ++p) {
            const int64_t i = p / x.pw % x.ph, j = p % x.pw;
            const bool border = i < pad || i >= x.ph - pad || j < pad || j >= x.pw - pad;
            plane[static_cast<size_t>(p)] =
                border ? 0 : static_cast<int8_t>(-128 + rng.uniform_int(256));
          }
          for (int64_t b = 0; b < batch; ++b) {  // the byte extremes in every image
            int8_t* img = plane.data() + b * channels * x.ph * x.pw;
            img[pad * x.pw + pad] = -128;
            img[(x.ph - pad - 1) * x.pw + x.pw - pad - 1] = 127;
          }
          x.data = plane.data();
          const int64_t m = rows, k = channels / pc.groups * pc.kernel * pc.kernel;
          const int64_t n = batch * x.oh() * x.ow();
          auto w = random_i8(m * k, static_cast<uint64_t>(31 * batch + k), -8, 7);
          for (int64_t i = 0; i < std::min<int64_t>(16, m * k); ++i)
            w[static_cast<size_t>(i)] = static_cast<int8_t>(i - 8);
          const auto cols = lower_plane(plane, x, pc.groups, 0);
          std::vector<int32_t> naive(static_cast<size_t>(m * n)), dense(naive.size());
          kernels::gemm_approx({}, w.data(), cols.data(), naive.data(), m, k, n, tab,
                               Backend::kNaive);
          kernels::gemm_approx({}, w.data(), cols.data(), dense.data(), m, k, n, tab,
                               Backend::kBlocked);
          SCOPED_TRACE(::testing::Message()
                       << name << " width=" << pc.width << " kernel=" << pc.kernel
                       << " height=" << height << " stride=" << pc.stride
                       << " groups=" << pc.groups << " rows=" << m << " k=" << k
                       << " batch=" << batch);
          ASSERT_EQ(naive, dense);
          const kernels::PlanHandle plan = approx_plan(tab, m, k, n);
          ASSERT_EQ(avx2 && truncated && reads, plan->reads_plane(x));
          std::vector<int32_t> from_plane(naive.size(), 7);
          if (!plan->reads_plane(x)) {
            EXPECT_THROW(kernels::gemm_approx_plane(w.data(), x, from_plane.data(), m, k, n,
                                                    tab),
                         std::invalid_argument);
            continue;
          }
          kernels::gemm_approx_plane(w.data(), x, from_plane.data(), m, k, n, tab);
          ASSERT_EQ(naive, from_plane);
          ++plane_runs;
        }
  }
  EXPECT_EQ(avx2 ? eligible_inputs : 0, plane_runs);
  EXPECT_EQ(12 * static_cast<int64_t>(std::size(eligible)) * (8 + 2 * 9), eligible_inputs);
}

// ---------------------------------------------------------------------------
// Table checksums (the sentinel's Σ_k S_k(X[k, n])): the vector tier, the
// scalar tier and the per-element definition agree on dense columns and on
// plane views.
// ---------------------------------------------------------------------------

// The plane views the checksum tests read: 2 channels with output widths 4,
// 8, 16 and 32 (kernels 1 and 3), width 5 and stride 2 (no strip layout
// reads those), each at batch 1-8, with a zero border; the interior bytes
// are byte(0), byte(1), … in plane order. fn(plane bytes, view) per view.
template <typename Byte, typename Fn>
void for_each_plane_view(Byte byte, Fn fn) {
  constexpr int64_t kChannels = 2;
  const PlaneCase cases[] = {{4, 3, 1},  {8, 3, 1},  {16, 3, 1}, {32, 3, 1}, {4, 1, 1},
                             {8, 1, 1},  {16, 1, 1}, {32, 1, 1}, {5, 3, 1}, {8, 3, 2}};
  for (const PlaneCase& pc : cases)
    for (int64_t batch = 1; batch <= 8; ++batch) {
      const int64_t pad = pc.kernel / 2;
      const int64_t in = (pc.width - 1) * pc.stride + pc.kernel - 2 * pad;
      kernels::ConvPlane x{nullptr,       batch,     kChannels, in + 2 * pad,
                           in + 2 * pad, pc.kernel, pc.stride};
      std::vector<int8_t> plane(static_cast<size_t>(batch * kChannels * x.ph * x.pw));
      int64_t next = 0;
      for (int64_t p = 0; p < static_cast<int64_t>(plane.size()); ++p) {
        const int64_t i = p / x.pw % x.ph, j = p % x.pw;
        const bool border = i < pad || i >= x.ph - pad || j < pad || j >= x.pw - pad;
        plane[static_cast<size_t>(p)] = border ? 0 : byte(next++);
      }
      x.data = plane.data();
      SCOPED_TRACE(::testing::Message() << "width=" << pc.width << " kernel=" << pc.kernel
                                        << " stride=" << pc.stride << " batch=" << batch);
      fn(plane, x);
    }
}

// The golden weights of the closed-form checksum tests: m rows of k random
// int4 weights whose column 0 is all −8 (C_k3 = −128 in a row of 16) and
// column 1 all ±7/±6.
std::vector<int8_t> checksum_weights(int64_t m, int64_t k, uint64_t seed) {
  auto w = random_i8(m * k, seed, -8, 7);
  constexpr int8_t kHigh[] = {7, -7, 6, -6};
  for (int64_t i = 0; i < m; ++i) {
    w[static_cast<size_t>(i * k)] = -8;
    w[static_cast<size_t>(i * k + 1)] = kHigh[i % 4];
  }
  return w;
}

// Σ_k S_k(X[k, j]) by definition, one element at a time.
std::vector<int64_t> checksum_by_definition(const kernels::ChecksumTable& t,
                                            const std::vector<int8_t>& cols, int64_t n) {
  std::vector<int64_t> sums(static_cast<size_t>(n), 0);
  for (int64_t kk = 0; kk < t.k; ++kk)
    for (int64_t j = 0; j < n; ++j)
      sums[static_cast<size_t>(j)] +=
          t.rows[256 * static_cast<size_t>(t.row_of[kk]) +
                 static_cast<uint8_t>(cols[static_cast<size_t>(kk * n + j)])];
  return sums;
}

TEST(TableChecksum, VectorTierMatchesScalarTierAndDefinition) {
  // Planes of 2 channels with output widths 4, 8, 16 and 32 (kernels 1 and
  // 3, batch 1-8) and the widths 5 and stride 2 that no strip layout reads;
  // the same X as dense columns, plus dense widths that leave a short last
  // strip. Every plane's interior cycles through all 256 byte values, −128
  // first. Rows: one shared row, K distinct rows, and K rows large enough
  // that only int64 sums are exact (the int64 fallback). Closed-form
  // checksums (GemmChecksum under exact and trunc1–11) of 1, 4, 15, 16, 17
  // and 33 golden rows, whose column 0 is all −8 (C_k3 = −128 in a row of
  // 16) and column 1 all ±7/±6, must give the sums of the rows S_k built
  // from the same weights and table, on both tiers.
  const kernels::Isa vector_isa = kernels::active_isa();
  struct Restore {
    kernels::Isa isa;
    ~Restore() { kernels::set_isa(isa); }
  } restore{vector_isa};
  const auto random_rows = [](int64_t count, int32_t mag, uint64_t seed) {
    Rng rng(seed);
    std::vector<int32_t> rows(static_cast<size_t>(256 * count));
    for (auto& v : rows) v = static_cast<int32_t>(rng.uniform_int(int64_t{2} * mag + 1) - mag);
    return rows;
  };
  // Runs both tiers on X given as dense columns and, when `plane` is set,
  // as that plane; each must equal the definition.
  const auto check = [&](const std::vector<int8_t>& cols, int64_t k, int64_t n,
                         const kernels::ConvPlane* plane) {
    const std::vector<int32_t> shared = random_rows(1, 1 << 20, 41 + k);
    const std::vector<int32_t> distinct = random_rows(k, 1 << 20, 43 + k);
    std::vector<int32_t> huge = random_rows(k, 1 << 20, 47 + k);
    for (auto& v : huge) v += (1 << 30) + (1 << 21);  // any two sum past 2^31
    std::vector<uint32_t> zero(static_cast<size_t>(k), 0), iota(static_cast<size_t>(k));
    for (int64_t kk = 0; kk < k; ++kk) iota[static_cast<size_t>(kk)] = static_cast<uint32_t>(kk);
    const kernels::ChecksumTable tables[] = {{shared.data(), zero.data(), k, true},
                                             {distinct.data(), iota.data(), k, true},
                                             {huge.data(), iota.data(), k, false}};
    for (const kernels::ChecksumTable& t : tables) {
      const std::vector<int64_t> want = checksum_by_definition(t, cols, n);
      if (!t.int32_sums) {  // the fallback is needed: int32 sums would wrap
        ASSERT_NE(want[0], static_cast<int32_t>(want[0]));
      }
      for (const kernels::Isa isa : {vector_isa, kernels::Isa::kScalar}) {
        kernels::set_isa(isa);
        std::vector<int64_t> got(static_cast<size_t>(n), -1);
        kernels::table_checksum(t, cols.data(), n, got.data());
        ASSERT_EQ(want, got) << "dense, " << kernels::isa_name(isa)
                             << " int32_sums=" << t.int32_sums;
        if (plane == nullptr) continue;
        std::fill(got.begin(), got.end(), -1);
        kernels::table_checksum(t, *plane, got.data());
        ASSERT_EQ(want, got) << "plane, " << kernels::isa_name(isa)
                             << " int32_sums=" << t.int32_sums;
      }
    }
    for (int depth = 0; depth <= 11; ++depth) {
      const std::string name = depth == 0 ? "exact" : "trunc" + std::to_string(depth);
      const approx::SignedMulTable tab(axmul::make_lut(name));
      for (const int64_t m : {1, 4, 15, 16, 17, 33}) {
        const auto w = checksum_weights(m, k, static_cast<uint64_t>(59 + 7 * m + k + depth));
        const kernels::GemmChecksum closed(w.data(), 1, m, k, tab);
        ASSERT_TRUE(closed.closed_form()) << name;
        // S_k by definition: the zero weight is skipped, as every kernel
        // skips it.
        std::vector<int32_t> rows(static_cast<size_t>(256 * k), 0);
        for (int64_t kk = 0; kk < k; ++kk)
          for (int32_t a = -128; a < 128; ++a)
            for (int64_t i = 0; i < m; ++i)
              if (const int8_t wv = w[static_cast<size_t>(i * k + kk)]; wv != 0)
                rows[static_cast<size_t>(256 * kk + static_cast<uint8_t>(a))] += tab(a, wv);
        const kernels::ChecksumTable by_rows{rows.data(), iota.data(), k, true};
        const std::vector<int64_t> want = checksum_by_definition(by_rows, cols, n);
        for (const kernels::Isa isa : {vector_isa, kernels::Isa::kScalar}) {
          kernels::set_isa(isa);
          SCOPED_TRACE(::testing::Message() << name << " rows=" << m << " "
                                            << kernels::isa_name(isa));
          std::vector<int64_t> got(static_cast<size_t>(n), -1);
          kernels::table_checksum(by_rows, cols.data(), n, got.data());
          ASSERT_EQ(want, got) << "rows, dense";
          std::fill(got.begin(), got.end(), -1);
          kernels::table_checksum(closed, 0, cols.data(), n, got.data());
          ASSERT_EQ(want, got) << "closed form, dense";
          if (plane == nullptr) continue;
          std::fill(got.begin(), got.end(), -1);
          kernels::table_checksum(by_rows, *plane, got.data());
          ASSERT_EQ(want, got) << "rows, plane";
          std::fill(got.begin(), got.end(), -1);
          kernels::table_checksum(closed, 0, *plane, got.data());
          ASSERT_EQ(want, got) << "closed form, plane";
        }
      }
    }
  };
  // Interior elements cycle through every byte, −128 first.
  for_each_plane_view(
      [](int64_t i) { return static_cast<int8_t>(static_cast<uint8_t>(128 + 37 * i)); },
      [&](const std::vector<int8_t>& plane, const kernels::ConvPlane& x) {
        const int64_t k = x.channels * x.kernel * x.kernel, n = x.batch * x.oh() * x.ow();
        check(lower_plane(plane, x, 1, 0), k, n, &x);
      });
  for (const int64_t n : {1, 7, 8, 15, 17, 40}) {  // dense only: short last strips
    SCOPED_TRACE(::testing::Message() << "dense n=" << n);
    check(random_i8(27 * n, static_cast<uint64_t>(53 + n), -128, 127), 27, n, nullptr);
  }
  {  // dense, every activation byte in turn, −128 first
    std::vector<int8_t> cols(27 * 256);
    for (size_t i = 0; i < cols.size(); ++i)
      cols[i] = static_cast<int8_t>(static_cast<uint8_t>(128 + i));
    SCOPED_TRACE("dense n=256, every byte");
    check(cols, 27, 256, nullptr);
  }
}

TEST(RowChecksum, BothTiersGiveTheNaiveRowSumsAndDeclineNegativeBytes) {
  // The row form of the closed-form checksum (exact and trunc1–11) on the
  // TableChecksum views with non-negative bytes, 0 and 127 included: dense
  // columns and, for the planes, the plane itself. Weights: 1, 4, 15, 16,
  // 17 and 33 golden rows. Both tiers must give Σ_n of the kNaive GEMM's
  // rows, and must decline X with one negative byte: the first element,
  // the last element of the last image, or one next to the zero border.
  const kernels::Isa vector_isa = kernels::active_isa();
  struct Restore {
    kernels::Isa isa;
    ~Restore() { kernels::set_isa(isa); }
  } restore{vector_isa};
  constexpr int64_t kRows[] = {1, 4, 15, 16, 17, 33};
  // Runs both tiers on X as dense columns and, when `plane` is set, as that
  // plane (whose bytes `bytes` holds); `where` lists elements of the plane,
  // or of the columns, that the decline cases make negative.
  const auto check = [&](const std::vector<int8_t>& cols, int64_t k, int64_t n,
                         const kernels::ConvPlane* plane, std::vector<int8_t>* bytes,
                         const std::vector<int64_t>& where) {
    for (int depth = 0; depth <= 11; ++depth) {
      const std::string name = depth == 0 ? "exact" : "trunc" + std::to_string(depth);
      const approx::SignedMulTable tab(axmul::make_lut(name));
      // One GEMM of the largest row count; the smaller ones are its first rows.
      const auto w = checksum_weights(kRows[std::size(kRows) - 1], k,
                                      static_cast<uint64_t>(61 + k + depth));
      std::vector<int32_t> c(static_cast<size_t>(kRows[std::size(kRows) - 1] * n));
      kernels::gemm_approx({}, w.data(), cols.data(), c.data(), kRows[std::size(kRows) - 1], k,
                           n, tab, Backend::kNaive);
      for (const int64_t m : kRows) {
        std::vector<int64_t> want(static_cast<size_t>(m), 0);
        for (int64_t i = 0; i < m; ++i)
          for (int64_t j = 0; j < n; ++j)
            want[static_cast<size_t>(i)] += c[static_cast<size_t>(i * n + j)];
        const kernels::GemmChecksum closed(w.data(), 1, m, k, tab);
        for (const kernels::Isa isa : {vector_isa, kernels::Isa::kScalar}) {
          kernels::set_isa(isa);
          SCOPED_TRACE(::testing::Message() << name << " rows=" << m << " "
                                            << kernels::isa_name(isa));
          std::vector<int64_t> got(static_cast<size_t>(m), -1);
          kernels::row_sums(c.data(), m, n, got.data());
          ASSERT_EQ(want, got) << "row sums of C";
          std::fill(got.begin(), got.end(), -1);
          ASSERT_TRUE(kernels::row_checksum(closed, 0, cols.data(), n, got.data())) << "dense";
          ASSERT_EQ(want, got) << "dense";
          if (plane != nullptr) {
            std::fill(got.begin(), got.end(), -1);
            ASSERT_TRUE(kernels::row_checksum(closed, 0, *plane, got.data())) << "plane";
            ASSERT_EQ(want, got) << "plane";
          }
          // One negative byte: declined on columns and on the plane.
          std::vector<int8_t> signed_cols = cols;
          for (const int64_t e : where) {
            int8_t& at = (plane != nullptr ? *bytes : signed_cols)[static_cast<size_t>(e)];
            const int8_t keep = at;
            at = -1;
            if (plane != nullptr)
              EXPECT_FALSE(kernels::row_checksum(closed, 0, *plane, got.data()))
                  << "plane element " << e;
            else
              EXPECT_FALSE(kernels::row_checksum(closed, 0, signed_cols.data(), n, got.data()))
                  << "column element " << e;
            at = keep;
          }
          if (plane != nullptr) {
            signed_cols[0] = -128;
            EXPECT_FALSE(kernels::row_checksum(closed, 0, signed_cols.data(), n, got.data()));
          }
        }
      }
    }
  };
  // Interior bytes cycle through 0…127.
  for_each_plane_view(
      [](int64_t i) { return static_cast<int8_t>(37 * i % 128); },
      [&](const std::vector<int8_t>& plane, const kernels::ConvPlane& x) {
        std::vector<int8_t> bytes = plane;
        kernels::ConvPlane view = x;
        view.data = bytes.data();
        const int64_t pad = x.kernel / 2;
        const int64_t k = x.channels * x.kernel * x.kernel, n = x.batch * x.oh() * x.ow();
        check(lower_plane(plane, x, 1, 0), k, n, &view, &bytes,
              {0, static_cast<int64_t>(bytes.size()) - 1, pad * x.pw + pad});
      });
  for (const int64_t n : {1, 7, 8, 15, 17, 40}) {  // dense only: short last strips
    SCOPED_TRACE(::testing::Message() << "dense n=" << n);
    auto cols = random_i8(27 * n, static_cast<uint64_t>(67 + n), 0, 127);
    cols[0] = 0;
    cols.back() = 127;
    check(cols, 27, n, nullptr, nullptr, {0, 27 * n - 1, 13 * n + n / 2});
  }
  {  // 300 images of 127: past 256 images the vector tier's int16 sums flush
    kernels::ConvPlane x{nullptr, 300, 2, 4, 4, 1, 1};
    std::vector<int8_t> bytes(300 * 2 * 16, 127);
    x.data = bytes.data();
    SCOPED_TRACE("batch 300 of 127");
    check(lower_plane(bytes, x, 1, 0), 2, 300 * 16, &x, &bytes, {0, 300 * 2 * 16 - 1});
  }
}

TEST(RowChecksum, RowSumsOfCAreExactOnBothTiers) {
  // The other side of the row check: Σ_j C[i, j] in int64, whatever the
  // int32 values, past the vector tier's 32,768 elements per int32 lane.
  const kernels::Isa vector_isa = kernels::active_isa();
  struct Restore {
    kernels::Isa isa;
    ~Restore() { kernels::set_isa(isa); }
  } restore{vector_isa};
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  for (const int64_t n : {1, 7, 8, 9, 40, 300001}) {
    constexpr int64_t m = 4;
    std::vector<int32_t> c(static_cast<size_t>(m * n));
    Rng rng(static_cast<uint64_t>(n));
    for (int64_t j = 0; j < n; ++j) {
      c[static_cast<size_t>(j)] = -1;
      c[static_cast<size_t>(n + j)] = kMin;
      c[static_cast<size_t>(2 * n + j)] = j % 2 == 0 ? kMax : kMin;
      c[static_cast<size_t>(3 * n + j)] =
          static_cast<int32_t>(rng.uniform_int(int64_t{1} << 32) - (int64_t{1} << 31));
    }
    std::vector<int64_t> want(static_cast<size_t>(m), 0);
    for (int64_t i = 0; i < m; ++i)
      for (int64_t j = 0; j < n; ++j)
        want[static_cast<size_t>(i)] += c[static_cast<size_t>(i * n + j)];
    for (const kernels::Isa isa : {vector_isa, kernels::Isa::kScalar}) {
      kernels::set_isa(isa);
      std::vector<int64_t> got(static_cast<size_t>(m), -1);
      kernels::row_sums(c.data(), m, n, got.data());
      EXPECT_EQ(want, got) << "n=" << n << " " << kernels::isa_name(isa);
    }
  }
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
