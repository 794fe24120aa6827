// Kernel microbenchmarks (google-benchmark): float GEMM, approximate LUT
// GEMM, im2col, the quantized conv prep, whole conv leaves on the cols and
// plane paths, the sentinel's table checksum and range scan, fake-quant —
// the per-iteration costs behind Table IV's overhead numbers. GEMM benches
// are parameterised over the kernel backend (0 = naive golden reference,
// 1 = cache-blocked) so `--benchmark_filter` can compare them directly; the
// ResNet20 conv shape M=64, K=576, N=1024 is the acceptance shape for the
// blocked kernels.
//
// The *Telemetry variants run the same GEMMs with an obs::Collector
// attached — their delta against the base benches is the telemetry
// overhead (acceptance: <3% on the ResNet20 shapes). main() is custom
// (not BENCHMARK_MAIN): it forwards --benchmark_* flags unchanged and
// additionally writes BENCH_micro_gemm.json in the harness report shape.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "axnn/approx/kernels.hpp"
#include "axnn/axmul/registry.hpp"
#include "axnn/core/profile.hpp"
#include "axnn/ge/monte_carlo.hpp"
#include "axnn/kernels/activations.hpp"
#include "axnn/kernels/checksum.hpp"
#include "axnn/kernels/int_gemm.hpp"
#include "axnn/kernels/isa.hpp"
#include "axnn/kernels/plan.hpp"
#include "axnn/nn/im2col.hpp"
#include "axnn/nn/qutils.hpp"
#include "axnn/obs/report.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/quant/quantizer.hpp"
#include "axnn/tensor/kernels.hpp"
#include "axnn/tensor/rng.hpp"

namespace {

using namespace axnn;

kernels::Backend backend_arg(const benchmark::State& state) {
  return state.range(0) == 0 ? kernels::Backend::kNaive : kernels::Backend::kBlocked;
}

void set_backend_label(benchmark::State& state) {
  state.SetLabel(kernels::backend_name(backend_arg(state)));
}

void BM_GemmF32(benchmark::State& state) {
  const int64_t n = state.range(1);
  Rng rng(1);
  const Tensor a = randn(Shape{n, n}, rng);
  const Tensor b = randn(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  set_backend_label(state);
  for (auto _ : state) {
    kernels::gemm({}, a.data(), b.data(), c.data(), n, n, n, backend_arg(state));
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmF32)
    ->ArgsProduct({{0, 1}, {32, 64, 128}})
    ->ArgNames({"backend", "n"});

// ResNet20 stage-3 conv as lowered by im2col: C[64,1024] = W[64,576]·X[576,1024].
void BM_GemmF32ResNet20(benchmark::State& state) {
  constexpr int64_t M = 64, K = 576, N = 1024;
  Rng rng(6);
  const Tensor a = randn(Shape{M, K}, rng);
  const Tensor b = randn(Shape{K, N}, rng);
  Tensor c(Shape{M, N});
  set_backend_label(state);
  for (auto _ : state) {
    kernels::gemm({}, a.data(), b.data(), c.data(), M, K, N, backend_arg(state));
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * M * K * N);
}
BENCHMARK(BM_GemmF32ResNet20)->Arg(0)->Arg(1)->ArgNames({"backend"});

TensorI8 random_i8(Shape shape, Rng& rng, int lo, int hi) {
  TensorI8 t(shape);
  for (int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<int8_t>(lo + rng.uniform_int(hi - lo + 1));
  return t;
}

void BM_GemmApproxLut(benchmark::State& state) {
  const int64_t n = state.range(1);
  Rng rng(2);
  const TensorI8 w = random_i8(Shape{n, n}, rng, -7, 7);
  const TensorI8 x = random_i8(Shape{n, n}, rng, -127, 127);
  TensorI32 c(Shape{n, n});
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  set_backend_label(state);
  for (auto _ : state) {
    kernels::gemm_approx({}, w.data(), x.data(), c.data(), n, n, n, tab,
                         backend_arg(state));
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmApproxLut)
    ->ArgsProduct({{0, 1}, {32, 64, 128}})
    ->ArgNames({"backend", "n"});

// Acceptance shape for the blocked approximate kernel: ResNet20 conv GEMM.
void BM_GemmApproxLutResNet20(benchmark::State& state) {
  constexpr int64_t M = 64, K = 576, N = 1024;
  Rng rng(7);
  const TensorI8 w = random_i8(Shape{M, K}, rng, -7, 7);
  const TensorI8 x = random_i8(Shape{K, N}, rng, -127, 127);
  TensorI32 c(Shape{M, N});
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  set_backend_label(state);
  for (auto _ : state) {
    kernels::gemm_approx({}, w.data(), x.data(), c.data(), M, K, N, tab,
                         backend_arg(state));
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * M * K * N);
}
BENCHMARK(BM_GemmApproxLutResNet20)->Arg(0)->Arg(1)->ArgNames({"backend"});

// Narrow shapes: before plans covered every int GEMM, a size cut-over sent
// all of these to the naive loop. ResNet-20's 4-output-channel leaves (27-
// and 36-deep patches at batch 1 and 8), its 1x1 downsample convs and the
// FC head; then depthwise-like 1- to 3-row GEMMs, where a LUT plan binds
// the scalar slices kernel instead of the vector strips.
struct Dims {
  int64_t m, k, n;
};
constexpr Dims kResNet20Narrow[] = {{4, 27, 2048}, {4, 36, 256}, {4, 36, 2048},
                                    {8, 4, 512},   {16, 8, 128}, {10, 16, 8}};
constexpr Dims kDepthwise[] = {
    {1, 9, 16}, {1, 9, 256}, {1, 9, 2048}, {2, 9, 256}, {3, 9, 256}};

/// One int GEMM of shape `d` per iteration through the named multiplier's
/// table. A 4-bit exact GEMM runs the trunc5 benchmarks' kernel: the closed
/// form (at depth 0) on AVX2, the LUT elsewhere.
void run_int_dims(benchmark::State& state, const Dims& d, const char* multiplier) {
  Rng rng(8);
  const TensorI8 w = random_i8(Shape{d.m, d.k}, rng, -7, 7);
  const TensorI8 x = random_i8(Shape{d.k, d.n}, rng, -127, 127);
  TensorI32 c(Shape{d.m, d.n});
  const approx::SignedMulTable tab(axmul::make_lut(multiplier));
  kernels::PlanMemo memo;  // as a layer resolves its plan
  state.SetLabel(std::string(kernels::backend_name(backend_arg(state))) + " " +
                 std::to_string(d.m) + "x" + std::to_string(d.k) + "x" + std::to_string(d.n));
  for (auto _ : state) {
    kernels::gemm_approx({}, w.data(), x.data(), c.data(), d.m, d.k, d.n, tab,
                         backend_arg(state), nullptr, &memo);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * d.m * d.k * d.n);
}

// trunc5: on AVX2 the closed-form kernel (no table), elsewhere the LUT.
void BM_GemmApproxLutResNet20Narrow(benchmark::State& state) {
  run_int_dims(state, kResNet20Narrow[state.range(1)], "trunc5");
}
BENCHMARK(BM_GemmApproxLutResNet20Narrow)
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3, 4, 5}})
    ->ArgNames({"backend", "shape"});

// evoa228 has no closed form: the LUT kernels on the same shapes.
void BM_GemmApproxEvoa228ResNet20Narrow(benchmark::State& state) {
  run_int_dims(state, kResNet20Narrow[state.range(1)], "evoa228");
}
BENCHMARK(BM_GemmApproxEvoa228ResNet20Narrow)
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3, 4, 5}})
    ->ArgNames({"backend", "shape"});

void BM_GemmApproxLutDepthwise(benchmark::State& state) {
  run_int_dims(state, kDepthwise[state.range(1)], "trunc5");
}
BENCHMARK(BM_GemmApproxLutDepthwise)
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3, 4}})
    ->ArgNames({"backend", "shape"});

void BM_GemmApproxEvoa228Depthwise(benchmark::State& state) {
  run_int_dims(state, kDepthwise[state.range(1)], "evoa228");
}
BENCHMARK(BM_GemmApproxEvoa228Depthwise)
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3, 4}})
    ->ArgNames({"backend", "shape"});

// Plan lifecycle on the acceptance shape. ColdPlan clears the global cache
// every iteration, so each run pays the full acquire: key fingerprinting,
// LUT re-layout into nibble slices + transposed lines, tile derivation.
// WarmPlan holds the handle and only executes. The delta is exactly what
// Engine::load's pre-warm removes from the serving steady state.
void BM_GemmApproxLutResNet20ColdPlan(benchmark::State& state) {
  constexpr int64_t M = 64, K = 576, N = 1024;
  Rng rng(7);
  const TensorI8 w = random_i8(Shape{M, K}, rng, -7, 7);
  const TensorI8 x = random_i8(Shape{K, N}, rng, -127, 127);
  TensorI32 c(Shape{M, N});
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  const kernels::PlanKey key = kernels::make_int_key(
      kernels::OpKind::kApprox, {}, M, K, N, kernels::Backend::kBlocked, &tab);
  for (auto _ : state) {
    kernels::PlanCache::global().clear();
    const kernels::PlanHandle plan = kernels::PlanCache::global().acquire(key, &tab);
    plan->run_int(w.data(), x.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * M * K * N);
}
BENCHMARK(BM_GemmApproxLutResNet20ColdPlan);

void BM_GemmApproxLutResNet20WarmPlan(benchmark::State& state) {
  constexpr int64_t M = 64, K = 576, N = 1024;
  Rng rng(7);
  const TensorI8 w = random_i8(Shape{M, K}, rng, -7, 7);
  const TensorI8 x = random_i8(Shape{K, N}, rng, -127, 127);
  TensorI32 c(Shape{M, N});
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  const kernels::PlanKey key = kernels::make_int_key(
      kernels::OpKind::kApprox, {}, M, K, N, kernels::Backend::kBlocked, &tab);
  const kernels::PlanHandle plan = kernels::PlanCache::global().acquire(key, &tab);
  for (auto _ : state) {
    plan->run_int(w.data(), x.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * M * K * N);
}
BENCHMARK(BM_GemmApproxLutResNet20WarmPlan);

// The raw-byte exact kernel, which only weights wider than 4 bits run.
void BM_GemmExactI32(benchmark::State& state) {
  const int64_t n = state.range(1);
  Rng rng(3);
  const TensorI8 w = random_i8(Shape{n, n}, rng, -7, 7);
  const TensorI8 x = random_i8(Shape{n, n}, rng, -127, 127);
  TensorI32 c(Shape{n, n});
  set_backend_label(state);
  for (auto _ : state) {
    kernels::gemm_exact({}, w.data(), x.data(), c.data(), n, n, n,
                        backend_arg(state));
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmExactI32)
    ->ArgsProduct({{0, 1}, {32, 64, 128}})
    ->ArgNames({"backend", "n"});

void BM_Im2col(benchmark::State& state) {
  const int64_t hw = state.range(0);
  Rng rng(4);
  const Tensor x = randn(Shape{8, 16, hw, hw}, rng);
  const nn::ConvGeom g = nn::ConvGeom::of(x.shape(), 3, 1, 1);
  for (auto _ : state) {
    Tensor cols = nn::im2col(x, g);
    benchmark::DoNotOptimize(cols.data());
  }
  state.SetItemsProcessed(state.iterations() * g.patch_rows() * g.out_cols());
}
BENCHMARK(BM_Im2col)->Arg(8)->Arg(16);

// ResNet-20 (fast profile) conv leaves by input c, hw, kernel k and stride
// s, batch 8: the stride-1 3x3 convs (3x16x16 stem, then 4x16x16, 8x8x8 and
// 16x4x4 stages; pad 1), the two stride-2 3x3 convs and the two stride-2 1x1
// shortcuts (pad 0).
constexpr int64_t kPrepShapes[][4] = {{3, 16, 3, 1}, {4, 16, 3, 1}, {8, 8, 3, 1}, {16, 4, 3, 1},
                                      {4, 16, 3, 2}, {8, 8, 3, 2},  {4, 16, 1, 2}, {8, 8, 1, 2}};

/// The leaf's float input, with NaN and ±inf planted when `specials`.
Tensor prep_input(const int64_t* shape, bool specials) {
  Rng rng(9);
  Tensor x = randn(Shape{8, shape[0], shape[1], shape[1]}, rng);
  if (specials) {
    const float inf = std::numeric_limits<float>::infinity();
    const float planted[] = {std::numeric_limits<float>::quiet_NaN(), inf, -inf};
    for (int64_t i = 5; i < x.numel(); i += 97) x[i] = planted[i % 3];
    x[x.numel() - 1] = planted[0];
  }
  return x;
}

/// Selects kernels::quantize_i8's or abs_scan's tier for a bench: 0 the
/// scalar tier, 1 the active ISA's (the same on a machine without AVX2).
/// Restores the active ISA when it goes out of scope.
struct TierScope {
  kernels::Isa active = kernels::active_isa();
  TierScope(benchmark::State& state, int64_t tier, const std::string& label) {
    if (tier == 0) kernels::set_isa(kernels::Isa::kScalar);
    state.SetLabel(label + " " + kernels::isa_name(kernels::active_isa()));
  }
  ~TierScope() { kernels::set_isa(active); }
  TierScope(const TierScope&) = delete;
  TierScope& operator=(const TierScope&) = delete;
};

// The quantized conv's prep at those leaves: float input to int8 columns
// (quantize_im2col, plane 0) or, for the stride-1 leaves, to padded int8
// planes (quantize_plane, plane 1, what a leaf that runs its GEMM from the
// plane does), each on both tiers of kernels::quantize_i8.
void BM_QuantizeIm2colResNet20(benchmark::State& state) {
  const int64_t shape[] = {state.range(0), state.range(1), state.range(2), state.range(3)};
  const bool plane = state.range(4) == 1;
  const Tensor x = prep_input(shape, false);
  const quant::QuantParams p{1.0f / 32.0f, 8};
  const nn::ConvGeom g = nn::ConvGeom::of(x.shape(), shape[2], shape[3], shape[2] / 2);
  const TierScope tier(state, state.range(5), plane ? "plane" : "cols");
  for (auto _ : state) {
    TensorI8 out = plane ? nn::quantize_plane(x, g, p) : nn::quantize_im2col(x, g, p);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          (plane ? x.numel() : g.patch_rows() * g.out_cols()));
}
/// Every kPrepShapes leaf on both tiers, plus the planes of the stride-1 ones.
void prep_args(benchmark::internal::Benchmark* b) {
  for (const auto& shape : kPrepShapes)
    for (const int64_t plane : {0, 1})
      for (const int64_t tier : {0, 1})
        if (plane == 0 || shape[3] == 1)
          b->Args({shape[0], shape[1], shape[2], shape[3], plane, tier});
}
BENCHMARK(BM_QuantizeIm2colResNet20)
    ->Apply(prep_args)
    ->ArgNames({"c", "hw", "k", "s", "plane", "tier"});

// The sentinel's range scan (kernels::abs_scan) over the same leaves'
// inputs, on both tiers, against the quantization range of step 1/32.
void BM_RangeScanResNet20(benchmark::State& state) {
  const int64_t shape[] = {state.range(0), state.range(1), state.range(2), state.range(3)};
  const Tensor x = prep_input(shape, false);
  const uint32_t limit = std::bit_cast<uint32_t>(127.0f / 32.0f);
  const TierScope tier(state, state.range(4), "scan");
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::abs_scan(x.data(), x.numel(), limit));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_RangeScanResNet20)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (const auto& shape : kPrepShapes)
        for (const int64_t tier : {0, 1}) b->Args({shape[0], shape[1], shape[2], shape[3], tier});
    })
    ->ArgNames({"c", "hw", "k", "s", "tier"});

// One stride-1 3x3 conv leaf of ResNet-20 (fast profile) at batch 8, from
// float input to int32 accumulators under trunc5, on the path it ships:
// path 0 lowers int8 columns (quantize_im2col) and runs the dense GEMM;
// path 1 quantizes the padded planes (quantize_plane) and runs the GEMM
// from them (gemm_approx_plane), the path every such leaf takes on AVX2.
// Shapes: the stem 3x16x16 -> 4 (4x27x2048), stage 1 4x16x16 -> 4
// (4x36x2048), stage 2 8x8x8 -> 8 (8x72x512), stage 3 16x4x4 -> 16
// (16x144x128).
struct ConvLeaf {
  int64_t c, hw, o;
};
constexpr ConvLeaf kResNet20Stride1[] = {{3, 16, 4}, {4, 16, 4}, {8, 8, 8}, {16, 4, 16}};

/// The operands of one kResNet20Stride1 leaf at batch `batch`: float input,
/// int4-range weights, its geometry and GEMM dims.
struct ConvLeafOperands {
  Tensor x;
  TensorI8 w;
  nn::ConvGeom g;
  int64_t m, k, n;
  ConvLeafOperands(const ConvLeaf& leaf, int64_t batch, uint64_t seed) {
    Rng rng(seed);
    x = randn(Shape{batch, leaf.c, leaf.hw, leaf.hw}, rng);
    g = nn::ConvGeom::of(x.shape(), 3, 1, 1);
    m = leaf.o;
    k = g.patch_rows();
    n = g.out_cols();
    w = random_i8(Shape{m, k}, rng, -8, 7);
  }
  kernels::ConvPlane plane(const TensorI8& planes) const {
    return {planes.data(), g.n, g.c, g.h + 2, g.w + 2, 3, 1};
  }
};

void BM_ConvLeafResNet20(benchmark::State& state) {
  const ConvLeaf& leaf = kResNet20Stride1[state.range(0)];
  const bool from_plane = state.range(1) == 1;
  const ConvLeafOperands op(leaf, 8, 10);
  const quant::QuantParams p{1.0f / 32.0f, 8};
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  kernels::PlanMemo memo;
  TensorI32 c(Shape{op.m, op.n});
  const kernels::PlanKey key =
      kernels::make_int_key(kernels::OpKind::kApprox, {}, op.m, op.k, op.n,
                            kernels::Backend::kBlocked, &tab);
  if (from_plane && !memo.find_or_acquire(key, &tab)->reads_plane(op.plane(TensorI8{}))) {
    state.SkipWithError("no plan reads conv planes on this ISA");
    return;
  }
  state.SetLabel(std::to_string(op.m) + "x" + std::to_string(op.k) + "x" +
                 std::to_string(op.n) + (from_plane ? " plane" : " cols"));
  for (auto _ : state) {
    if (from_plane) {
      const TensorI8 planes = nn::quantize_plane(op.x, op.g, p);
      kernels::gemm_approx_plane(op.w.data(), op.plane(planes), c.data(), op.m, op.k, op.n,
                                 tab, &memo);
    } else {
      const TensorI8 cols = nn::quantize_im2col(op.x, op.g, p);
      kernels::gemm_approx({}, op.w.data(), cols.data(), c.data(), op.m, op.k, op.n, tab,
                           &memo);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * op.m * op.k * op.n);
}
BENCHMARK(BM_ConvLeafResNet20)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->ArgNames({"shape", "plane"});

/// The input with every negative element set to zero, as a ReLU leaves it.
Tensor relu(Tensor x) {
  for (int64_t i = 0; i < x.numel(); ++i) x[i] = std::max(x[i], 0.0f);
  return x;
}

// The sentinel's table checksum Σ_k S_k(X[k, n]) on the same four leaves at
// batch 8. Tiers 0-2 gather from one distinct random 256-entry row per
// k-step (what tables without a closed form use): tier 0 the scalar tier on
// columns, tier 1 the AVX2 tier on columns, tier 2 the AVX2 tier read
// straight from the padded plane. Tiers 3 and 4 run the closed form the
// sentinel builds for the leaf's weights under trunc5 (one coefficient row
// of ≤ 16 weight rows) on the GEMM's AVX2 row blocks: tier 3 on columns,
// tier 4 from the plane (what a plane conv's column check runs). Tiers 5
// and 6 run the row check of the same checksum on the ReLU'd input (what
// every leaf fed by a ReLU runs): tier 5 from the plane, tier 6 from
// columns. The stem (shape 0) reads signed pixels, so the row check
// declines there: those two are reported skipped.
void BM_SentinelChecksumResNet20(benchmark::State& state) {
  ConvLeafOperands op(kResNet20Stride1[state.range(0)], 8, 14);
  const int64_t tier = state.range(1);
  if (tier > 0 && kernels::active_isa() != kernels::Isa::kAvx2) {
    state.SkipWithError("no AVX2 tier on this machine");
    return;
  }
  const bool row_check = tier >= 5, stem = state.range(0) == 0;
  if (row_check && !stem) op.x = relu(op.x);
  const quant::QuantParams p{1.0f / 32.0f, 8};
  TensorI8 cols;
  const TensorI8 planes = nn::quantize_plane(op.x, op.g, p, &cols);
  Rng rng(15);
  std::vector<int32_t> rows(static_cast<size_t>(256 * op.k));
  for (auto& v : rows) v = static_cast<int32_t>(rng.uniform_int(1 << 16)) - (1 << 15);
  std::vector<uint32_t> row_of(static_cast<size_t>(op.k));
  for (int64_t kk = 0; kk < op.k; ++kk) row_of[static_cast<size_t>(kk)] = static_cast<uint32_t>(kk);
  const kernels::ChecksumTable t{rows.data(), row_of.data(), op.k, true};
  const kernels::GemmChecksum closed(op.w.data(), 1, op.m, op.k,
                                     approx::SignedMulTable(axmul::make_lut("trunc5")));
  std::vector<int64_t> sums(static_cast<size_t>(op.n));
  if (row_check && stem) {
    if (kernels::row_checksum(closed, 0, op.plane(planes), sums.data()))
      state.SkipWithError("the row check accepted the stem's signed input");
    else
      state.SkipWithError("stem: signed input, the row check declines");
    return;
  }
  const kernels::Isa isa = kernels::active_isa();
  if (tier == 0) kernels::set_isa(kernels::Isa::kScalar);
  const char* const labels[] = {" scalar cols",           " avx2 cols",
                                " avx2 plane",            " avx2 closed-form cols",
                                " avx2 closed-form plane", " avx2 row-check plane",
                                " avx2 row-check cols"};
  state.SetLabel(std::to_string(op.k) + "x" + std::to_string(op.n) + labels[tier]);
  for (auto _ : state) {
    if (tier == 6)
      benchmark::DoNotOptimize(
          kernels::row_checksum(closed, 0, cols.data(), op.n, sums.data()));
    else if (tier == 5)
      benchmark::DoNotOptimize(kernels::row_checksum(closed, 0, op.plane(planes), sums.data()));
    else if (tier == 4)
      kernels::table_checksum(closed, 0, op.plane(planes), sums.data());
    else if (tier == 3)
      kernels::table_checksum(closed, 0, cols.data(), op.n, sums.data());
    else if (tier == 2)
      kernels::table_checksum(t, op.plane(planes), sums.data());
    else
      kernels::table_checksum(t, cols.data(), op.n, sums.data());
    benchmark::DoNotOptimize(sums.data());
    benchmark::ClobberMemory();
  }
  kernels::set_isa(isa);
  state.SetItemsProcessed(state.iterations() * op.k * op.n);
}
BENCHMARK(BM_SentinelChecksumResNet20)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1, 2, 3, 4, 5, 6}})
    ->ArgNames({"shape", "tier"});

void BM_FakeQuantize(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5);
  const Tensor x = randn(Shape{n}, rng);
  const quant::QuantParams p = quant::params_for_max_abs(3.0f, 8);
  for (auto _ : state) {
    Tensor q = quant::fake_quantize(x, p);
    benchmark::DoNotOptimize(q.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FakeQuantize)->Arg(1 << 14)->Arg(1 << 18);

void BM_LutCompile(benchmark::State& state) {
  for (auto _ : state) {
    const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
    benchmark::DoNotOptimize(tab.data());
  }
}
BENCHMARK(BM_LutCompile);

void BM_ErrorFitMonteCarlo(benchmark::State& state) {
  // The "<1 second" claim of paper Sec. IV-B for 50 MC simulations.
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  for (auto _ : state) {
    const auto fit = ge::fit_multiplier_error(tab);
    benchmark::DoNotOptimize(fit.k);
  }
}
BENCHMARK(BM_ErrorFitMonteCarlo);

// Telemetry overhead on the acceptance shapes: identical GEMM loops with a
// collector attached, so record_gemm (and its timing clock) is live.
// Compare against the base ResNet20 benches; acceptance is <3% delta.
void BM_GemmF32ResNet20Telemetry(benchmark::State& state) {
  constexpr int64_t M = 64, K = 576, N = 1024;
  Rng rng(6);
  const Tensor a = randn(Shape{M, K}, rng);
  const Tensor b = randn(Shape{K, N}, rng);
  Tensor c(Shape{M, N});
  obs::Collector collector({.timing = true});
  obs::ScopedCollector attach(collector);
  set_backend_label(state);
  for (auto _ : state) {
    kernels::gemm({}, a.data(), b.data(), c.data(), M, K, N, backend_arg(state));
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * M * K * N);
}
BENCHMARK(BM_GemmF32ResNet20Telemetry)->Arg(0)->Arg(1)->ArgNames({"backend"});

void BM_GemmApproxLutResNet20Telemetry(benchmark::State& state) {
  constexpr int64_t M = 64, K = 576, N = 1024;
  Rng rng(7);
  const TensorI8 w = random_i8(Shape{M, K}, rng, -7, 7);
  const TensorI8 x = random_i8(Shape{K, N}, rng, -127, 127);
  TensorI32 c(Shape{M, N});
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  obs::Collector collector({.timing = true});
  obs::ScopedCollector attach(collector);
  set_backend_label(state);
  for (auto _ : state) {
    kernels::gemm_approx({}, w.data(), x.data(), c.data(), M, K, N, tab,
                         backend_arg(state));
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * M * K * N);
}
BENCHMARK(BM_GemmApproxLutResNet20Telemetry)->Arg(0)->Arg(1)->ArgNames({"backend"});

/// Whether console output is coloured, as google-benchmark decides it for
/// its own console reporter: --benchmark_color=auto (the default) colours
/// only a terminal, any other value is read as a boolean. Read here because
/// benchmark::Initialize consumes the flag.
bool console_color(int argc, char** argv) {
  std::string value = "auto";
  constexpr std::string_view kFlag = "--benchmark_color=";
  for (int i = 1; i < argc; ++i)
    if (const std::string_view arg = argv[i]; arg.starts_with(kFlag))
      value = arg.substr(kFlag.size());
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (value == "auto") {
    const char* term = std::getenv("TERM");
    return isatty(STDOUT_FILENO) != 0 && term != nullptr && std::string_view(term) != "dumb";
  }
  return !(value == "0" || value == "f" || value == "n" || value == "false" || value == "no" ||
           value == "off");
}

/// Console output as usual, plus every finished run captured as one event
/// in the harness report.
class CaptureReporter : public benchmark::ConsoleReporter {
public:
  CaptureReporter(obs::RunReport& report, bool color)
      : ConsoleReporter(color ? OO_ColorTabular : OO_Tabular), report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      if (r.error_occurred) continue;
      obs::Json ev = obs::Json::object();
      ev["type"] = "benchmark";
      ev["name"] = r.benchmark_name();
      ev["iterations"] = static_cast<int64_t>(r.iterations);
      ev["real_time_ns"] = r.GetAdjustedRealTime();
      ev["cpu_time_ns"] = r.GetAdjustedCPUTime();
      report_.metric(r.benchmark_name(), r.GetAdjustedRealTime());
      report_.add_event(std::move(ev));
    }
  }

private:
  obs::RunReport& report_;
};

/// CI gate: the blocked int plans must be bit-identical to the naive golden
/// reference. Checked on the acceptance shape, odd shapes that stress
/// remainder handling, and the narrow shapes above (which cross the scalar/
/// vector kernel switch), for the exact path and two tables: trunc5 (the
/// closed-form kernel on AVX2) and evoa228 (the LUT kernels); then the
/// conv-plane GEMM against the dense one, the closed-form checksum of the
/// same leaves against the row checksum and the GEMM's column sums, their
/// row check against the GEMM's row sums on ReLU'd input (it must decline
/// signed input), and the quantize and range scan on the active ISA against
/// their scalar tiers. Returns false (and prints the first mismatch) on
/// divergence.
bool verify_simd_bit_identity() {
  std::vector<Dims> shapes = {{64, 576, 1024}, {7, 13, 17}, {1, 576, 1024}, {33, 65, 31}};
  shapes.insert(shapes.end(), std::begin(kResNet20Narrow), std::end(kResNet20Narrow));
  shapes.insert(shapes.end(), std::begin(kDepthwise), std::end(kDepthwise));
  const char* const multipliers[] = {"trunc5", "evoa228", nullptr};  // null: exact path
  for (const char* multiplier : multipliers) {
    const approx::SignedMulTable tab(axmul::make_lut(multiplier ? multiplier : "exact"));
    Rng rng(11);
    for (const Dims& s : shapes) {
      const TensorI8 w = random_i8(Shape{s.m, s.k}, rng, -8, 7);
      const TensorI8 x = random_i8(Shape{s.k, s.n}, rng, -128, 127);
      TensorI32 naive(Shape{s.m, s.n}), blocked(Shape{s.m, s.n});
      if (multiplier != nullptr) {
        kernels::gemm_approx({}, w.data(), x.data(), naive.data(), s.m, s.k, s.n, tab,
                             kernels::Backend::kNaive);
        kernels::gemm_approx({}, w.data(), x.data(), blocked.data(), s.m, s.k, s.n, tab,
                             kernels::Backend::kBlocked);
      } else {
        kernels::gemm_exact({}, w.data(), x.data(), naive.data(), s.m, s.k, s.n,
                            kernels::Backend::kNaive);
        kernels::gemm_exact({}, w.data(), x.data(), blocked.data(), s.m, s.k, s.n,
                            kernels::Backend::kBlocked);
      }
      for (int64_t i = 0; i < naive.numel(); ++i) {
        if (naive[i] != blocked[i]) {
          std::fprintf(stderr,
                       "SIMD divergence: %s [%lldx%lldx%lld] isa=%s elem %lld: "
                       "naive=%d blocked=%d\n",
                       multiplier ? multiplier : "exact", static_cast<long long>(s.m),
                       static_cast<long long>(s.k), static_cast<long long>(s.n),
                       kernels::isa_name(kernels::active_isa()), static_cast<long long>(i),
                       naive[i], blocked[i]);
          return false;
        }
      }
    }
  }
  // The conv-plane GEMM against the dense GEMM over the same plane's columns
  // and the naive one, on the four stride-1 ResNet-20 leaves at batch 1 and 8
  // (where a plan reads planes: the closed form on AVX2), and the leaves'
  // checksums on every ISA.
  const approx::SignedMulTable trunc5(axmul::make_lut("trunc5"));
  const quant::QuantParams p{1.0f / 32.0f, 8};
  for (const ConvLeaf& leaf : kResNet20Stride1)
    for (const int64_t batch : {1, 8}) {
      const ConvLeafOperands op(leaf, batch, 12);
      TensorI8 cols;
      const TensorI8 planes = nn::quantize_plane(op.x, op.g, p, &cols);
      const kernels::ConvPlane plane = op.plane(planes);
      const kernels::PlanHandle plan = kernels::PlanCache::global().acquire(
          kernels::make_int_key(kernels::OpKind::kApprox, {}, op.m, op.k, op.n,
                                kernels::Backend::kBlocked, &trunc5),
          &trunc5);
      const bool reads = plan->reads_plane(plane);
      TensorI32 naive(Shape{op.m, op.n}), dense(naive.shape()), from_plane(naive.shape());
      kernels::gemm_approx({}, op.w.data(), cols.data(), naive.data(), op.m, op.k, op.n,
                           trunc5, kernels::Backend::kNaive);
      kernels::gemm_approx({}, op.w.data(), cols.data(), dense.data(), op.m, op.k, op.n,
                           trunc5, kernels::Backend::kBlocked);
      if (reads)
        kernels::gemm_approx_plane(op.w.data(), plane, from_plane.data(), op.m, op.k, op.n,
                                   trunc5);
      for (int64_t i = 0; i < naive.numel(); ++i) {
        if (naive[i] != dense[i] || (reads && naive[i] != from_plane[i])) {
          std::fprintf(stderr,
                       "plane GEMM divergence: trunc5 [%lldx%lldx%lld] batch %lld elem %lld: "
                       "naive=%d dense=%d plane=%d\n",
                       static_cast<long long>(op.m), static_cast<long long>(op.k),
                       static_cast<long long>(op.n), static_cast<long long>(batch),
                       static_cast<long long>(i), naive[i], dense[i], from_plane[i]);
          return false;
        }
      }
      // The sentinel's closed-form checksum of these weights under trunc5,
      // from columns and from the plane, against the rows S_k built from
      // the same weights and table (gathered) and Σ_m of the naive GEMM.
      std::vector<int32_t> rows(static_cast<size_t>(256 * op.k), 0);
      std::vector<uint32_t> row_of(static_cast<size_t>(op.k));
      for (int64_t kk = 0; kk < op.k; ++kk) {
        row_of[static_cast<size_t>(kk)] = static_cast<uint32_t>(kk);
        for (int32_t a = -128; a < 128; ++a)
          for (int64_t i = 0; i < op.m; ++i)
            if (const int8_t wv = op.w[i * op.k + kk]; wv != 0)
              rows[static_cast<size_t>(256 * kk + static_cast<uint8_t>(a))] += trunc5(a, wv);
      }
      const kernels::GemmChecksum closed(op.w.data(), 1, op.m, op.k, trunc5);
      std::vector<int64_t> by_rows(static_cast<size_t>(op.n)), closed_cols(by_rows.size()),
          closed_plane(by_rows.size());
      kernels::table_checksum(kernels::ChecksumTable{rows.data(), row_of.data(), op.k, true},
                              cols.data(), op.n, by_rows.data());
      kernels::table_checksum(closed, 0, cols.data(), op.n, closed_cols.data());
      kernels::table_checksum(closed, 0, plane, closed_plane.data());
      for (int64_t j = 0; j < op.n; ++j) {
        int64_t colsum = 0;
        for (int64_t i = 0; i < op.m; ++i) colsum += naive[i * op.n + j];
        const size_t jj = static_cast<size_t>(j);
        if (by_rows[jj] != colsum || closed_cols[jj] != colsum || closed_plane[jj] != colsum) {
          std::fprintf(stderr,
                       "checksum divergence: trunc5 [%lldx%lldx%lld] batch %lld column %lld: "
                       "GEMM=%lld rows=%lld closed-form cols=%lld plane=%lld\n",
                       static_cast<long long>(op.m), static_cast<long long>(op.k),
                       static_cast<long long>(op.n), static_cast<long long>(batch),
                       static_cast<long long>(j), static_cast<long long>(colsum),
                       static_cast<long long>(by_rows[jj]),
                       static_cast<long long>(closed_cols[jj]),
                       static_cast<long long>(closed_plane[jj]));
          return false;
        }
      }
      // The row check must decline this signed input, and on the ReLU'd
      // input give Σ_n of the naive GEMM's rows from the plane and from
      // columns.
      std::vector<int64_t> row_plane(static_cast<size_t>(op.m)), row_cols(row_plane.size());
      if (kernels::row_checksum(closed, 0, plane, row_plane.data()) ||
          kernels::row_checksum(closed, 0, cols.data(), op.n, row_cols.data())) {
        std::fprintf(stderr,
                     "row check accepted a signed input: trunc5 [%lldx%lldx%lld] batch %lld\n",
                     static_cast<long long>(op.m), static_cast<long long>(op.k),
                     static_cast<long long>(op.n), static_cast<long long>(batch));
        return false;
      }
      TensorI8 relu_cols;
      const TensorI8 relu_planes = nn::quantize_plane(relu(op.x), op.g, p, &relu_cols);
      kernels::gemm_approx({}, op.w.data(), relu_cols.data(), naive.data(), op.m, op.k, op.n,
                           trunc5, kernels::Backend::kNaive);
      const bool plane_rows =
          kernels::row_checksum(closed, 0, op.plane(relu_planes), row_plane.data());
      const bool cols_rows =
          kernels::row_checksum(closed, 0, relu_cols.data(), op.n, row_cols.data());
      for (int64_t i = 0; i < op.m; ++i) {
        int64_t rowsum = 0;
        for (int64_t j = 0; j < op.n; ++j) rowsum += naive[i * op.n + j];
        const size_t ii = static_cast<size_t>(i);
        if (!plane_rows || !cols_rows || row_plane[ii] != rowsum || row_cols[ii] != rowsum) {
          std::fprintf(stderr,
                       "row check divergence: trunc5 [%lldx%lldx%lld] batch %lld row %lld: "
                       "GEMM=%lld plane=%lld%s cols=%lld%s\n",
                       static_cast<long long>(op.m), static_cast<long long>(op.k),
                       static_cast<long long>(op.n), static_cast<long long>(batch),
                       static_cast<long long>(i), static_cast<long long>(rowsum),
                       static_cast<long long>(row_plane[ii]), plane_rows ? "" : " (declined)",
                       static_cast<long long>(row_cols[ii]), cols_rows ? "" : " (declined)");
          return false;
        }
      }
    }
  // The vector tiers of the quantize and the range scan against their scalar
  // tiers, on every kPrepShapes leaf's input with NaN and ±inf planted: the
  // whole tensor quantized (as weights are), its padded planes and columns,
  // and the scan's max pattern and count.
  const kernels::Isa isa = kernels::active_isa();
  const uint32_t limit = std::bit_cast<uint32_t>(127.0f / 32.0f);
  for (const auto& shape : kPrepShapes) {
    const Tensor x = prep_input(shape, true);
    const nn::ConvGeom g = nn::ConvGeom::of(x.shape(), shape[2], shape[3], shape[2] / 2);
    TensorI8 whole[2], planes[2], cols[2];
    kernels::AbsScan scan[2];
    for (int tier = 0; tier < 2; ++tier) {
      kernels::set_isa(tier == 0 ? kernels::Isa::kScalar : isa);
      whole[tier] = nn::quantize_i8(x, p);
      planes[tier] = nn::quantize_plane(x, g, p, &cols[tier]);
      scan[tier] = kernels::abs_scan(x.data(), x.numel(), limit);
    }
    kernels::set_isa(isa);
    const auto same = [](const TensorI8& a, const TensorI8& b) {
      return a.shape() == b.shape() &&
             std::equal(a.data(), a.data() + a.numel(), b.data());
    };
    if (!same(whole[0], whole[1]) || !same(planes[0], planes[1]) || !same(cols[0], cols[1]) ||
        scan[0].max_bits != scan[1].max_bits || scan[0].above != scan[1].above) {
      std::fprintf(stderr,
                   "quantize/scan divergence: input 8x%lldx%lldx%lld k %lld s %lld isa=%s: "
                   "whole %s, planes %s, cols %s, scan max %08x/%08x above %lld/%lld\n",
                   static_cast<long long>(shape[0]), static_cast<long long>(shape[1]),
                   static_cast<long long>(shape[1]), static_cast<long long>(shape[2]),
                   static_cast<long long>(shape[3]), kernels::isa_name(isa),
                   same(whole[0], whole[1]) ? "equal" : "differ",
                   same(planes[0], planes[1]) ? "equal" : "differ",
                   same(cols[0], cols[1]) ? "equal" : "differ", scan[0].max_bits,
                   scan[1].max_bits, static_cast<long long>(scan[0].above),
                   static_cast<long long>(scan[1].above));
      return false;
    }
  }
  return true;
}

/// Median wall time of `reps` runs of fn().
double median_ms(int reps, void (*fn)(const void*), const void* ctx) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn(ctx);
    const auto t1 = std::chrono::steady_clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// Headline summary metrics: blocked-vs-naive speedup on the acceptance
/// shape (ISSUE acceptance: >= 4x) and the plan-cache hit rate accumulated
/// over the whole benchmark run.
void add_summary_metrics(obs::RunReport& report) {
  constexpr int64_t M = 64, K = 576, N = 1024;
  Rng rng(13);
  const TensorI8 w = random_i8(Shape{M, K}, rng, -7, 7);
  const TensorI8 x = random_i8(Shape{K, N}, rng, -127, 127);
  TensorI32 c(Shape{M, N});
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));

  struct Ctx {
    const TensorI8 *w, *x;
    TensorI32* c;
    const approx::SignedMulTable* tab;
    kernels::Backend be;
  };
  const auto run = +[](const void* p) {
    const Ctx& g = *static_cast<const Ctx*>(p);
    kernels::gemm_approx({}, g.w->data(), g.x->data(), g.c->data(), M, K, N, *g.tab, g.be);
  };
  Ctx naive{&w, &x, &c, &tab, kernels::Backend::kNaive};
  Ctx blocked{&w, &x, &c, &tab, kernels::Backend::kBlocked};
  run(&blocked);  // warm the plan before timing
  // Stats boundary: from here on every blocked run must hit the cache, so
  // the reported hit rate is the steady state (the ColdPlan bench above
  // deliberately cleared the cache over and over).
  kernels::PlanCache::global().reset_stats();
  const double naive_ms = median_ms(3, run, &naive);
  const double blocked_ms = median_ms(5, run, &blocked);
  const double speedup = blocked_ms > 0.0 ? naive_ms / blocked_ms : 0.0;

  const kernels::PlanCacheStats ps = kernels::PlanCache::global().stats();
  report.metric("isa", std::string(kernels::isa_name(kernels::active_isa())));
  report.metric("approx_resnet20_naive_ms", naive_ms);
  report.metric("approx_resnet20_blocked_ms", blocked_ms);
  report.metric("approx_resnet20_simd_speedup", speedup);
  report.metric("plan_cache_hit_rate", ps.hit_rate());
  report.metric("plan_cache_size", static_cast<double>(ps.size));
  std::printf("simd speedup (approx ResNet20 shape): %.2fx (%.2f ms -> %.2f ms), "
              "plan cache hit rate %.3f\n",
              speedup, naive_ms, blocked_ms, ps.hit_rate());
}

}  // namespace

int main(int argc, char** argv) {
  core::BenchProfile::from_env().apply();  // AXNN_THREADS pins the pool
  const bool color = console_color(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  obs::RunReport report("micro_gemm", "Kernel microbenchmarks (google-benchmark)");
  CaptureReporter reporter(report, color);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Bit-identity gate before the report is written: CI treats a nonzero exit
  // as a failed job, so a diverging vector kernel can never ship a report.
  const bool identical = verify_simd_bit_identity();
  report.metric("simd_bit_identical", identical ? 1.0 : 0.0);
  add_summary_metrics(report);

  report.write("BENCH_micro_gemm.json");
  report.write_jsonl("BENCH_micro_gemm.jsonl");
  std::printf("report: BENCH_micro_gemm.json\n");
  if (!identical) {
    std::fprintf(stderr, "FAIL: a vector kernel diverges from its reference\n");
    return 2;
  }
  return 0;
}
