// Tests for symmetric power-of-two quantization and calibration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "axnn/kernels/activations.hpp"
#include "axnn/kernels/isa.hpp"
#include "axnn/nn/qutils.hpp"
#include "axnn/quant/calibration.hpp"
#include "axnn/quant/quantizer.hpp"
#include "axnn/tensor/ops.hpp"

namespace axnn::quant {
namespace {

TEST(QuantParams, SymmetricBounds) {
  QuantParams p{1.0f, 8};
  EXPECT_EQ(p.qmax(), 127);
  EXPECT_EQ(p.qmin(), -127);
  QuantParams w{1.0f, 4};
  EXPECT_EQ(w.qmax(), 7);
  EXPECT_EQ(w.qmin(), -7);
}

TEST(RoundToPow2, SnapsToNearestPower) {
  EXPECT_FLOAT_EQ(round_to_pow2(1.0f), 1.0f);
  EXPECT_FLOAT_EQ(round_to_pow2(0.9f), 1.0f);
  EXPECT_FLOAT_EQ(round_to_pow2(1.3f), 1.0f);
  EXPECT_FLOAT_EQ(round_to_pow2(3.0f), 4.0f);
  EXPECT_FLOAT_EQ(round_to_pow2(0.02f), 0.015625f);
  EXPECT_THROW(round_to_pow2(0.0f), std::invalid_argument);
}

TEST(ParamsForMaxAbs, StepIsPow2AndCovers) {
  for (float ma : {0.1f, 0.73f, 1.0f, 5.3f, 100.0f}) {
    for (int bits : {4, 8}) {
      const QuantParams p = params_for_max_abs(ma, bits);
      // Power of two: log2 is integral.
      const float l = std::log2f(p.step);
      EXPECT_FLOAT_EQ(l, std::round(l));
      EXPECT_GE(p.range(), ma * 0.999f);
      // Not wastefully large: halving the step would fail to cover.
      EXPECT_LT(p.step * 0.5f * static_cast<float>(p.qmax()), ma);
    }
  }
}

TEST(ParamsForMaxAbs, DegenerateZeroTensor) {
  const QuantParams p = params_for_max_abs(0.0f, 8);
  EXPECT_GT(p.step, 0.0f);
}

TEST(Quantize, RoundTripWithinHalfStep) {
  Rng rng(1);
  const Tensor x = randn(Shape{1000}, rng, 0.0f, 0.3f);
  const QuantParams p = calibrate_max_abs(x, 8);
  const TensorI32 q = quantize(x, p);
  const Tensor xd = dequantize(q, p);
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(xd[i], x[i], 0.5f * p.step + 1e-6f);
}

TEST(Quantize, ClampsToRange) {
  Tensor x(Shape{3});
  x[0] = 100.0f; x[1] = -100.0f; x[2] = 0.0f;
  const QuantParams p{0.1f, 4};
  const TensorI32 q = quantize(x, p);
  EXPECT_EQ(q[0], 7);
  EXPECT_EQ(q[1], -7);
  EXPECT_EQ(q[2], 0);
}

TEST(Quantize, SaturatesHugeAndInfiniteValues) {
  // Activation bit flips produce values far past the int32 range; they must
  // saturate like fake_quantize does, not wrap (1e8 -> -127) or collapse to
  // 0 (1e30, inf) through an out-of-range integer conversion. The values
  // repeat over 67 elements, so they reach both the vectorized body of the
  // int8 quantizer's loop and its scalar tail.
  const float inf = std::numeric_limits<float>::infinity();
  const float vals[] = {1e8f, -1e8f, 1e30f, -1e30f, inf, -inf, 3.0f, -0.02f};
  Tensor x(Shape{67});
  for (int64_t i = 0; i < x.numel(); ++i) x[i] = vals[i % 8];
  const QuantParams p{1.0f / 32.0f, 8};
  const Tensor fq = fake_quantize(x, p);
  const TensorI8 q8 = nn::quantize_i8(x, p);
  const TensorI32 q32 = quantize(x, p);
  for (int64_t i = 0; i < x.numel(); ++i) {
    const auto level = static_cast<int32_t>(fq[i] / p.step);
    EXPECT_EQ(level, q8[i]) << "i=" << i << " x=" << x[i];
    EXPECT_EQ(level, q32[i]) << "i=" << i << " x=" << x[i];
  }
  EXPECT_EQ(127, q8[0]);
  EXPECT_EQ(-127, q8[5]);
  EXPECT_EQ(127, q8[64]);

  // NaN has no level; it maps to 0 so it contributes nothing to a GEMM.
  Tensor nan(Shape{1}, std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(0, nn::quantize_i8(nan, p)[0]);
  EXPECT_EQ(0, quantize(nan, p)[0]);
}

TEST(QuantizeLevel, MatchesNearbyintReference) {
  // quantize_level rounds with a float add/subtract pair instead of libm;
  // it must give the clamp-then-nearbyintf level on every kind of input.
  const auto reference = [](float x, float inv, int32_t lo, int32_t hi) {
    const float v = x * inv;
    return v == v ? static_cast<int32_t>(std::nearbyintf(
                        std::clamp(v, static_cast<float>(lo), static_cast<float>(hi))))
                  : 0;
  };
  const float inf = std::numeric_limits<float>::infinity();
  const float fmax = std::numeric_limits<float>::max();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float tiny = std::numeric_limits<float>::min();  // smallest normal
  // ±0, ±inf, ±FLT_MAX, the smallest and largest denormals, the smallest
  // normal, NaN, and every multiple of 2^-8 in [-130, 130].
  std::vector<float> base = {0.0f, -0.0f, inf, -inf, fmax, -fmax, denorm, -denorm,
                             tiny - denorm, denorm - tiny, tiny, -tiny,
                             std::numeric_limits<float>::quiet_NaN()};
  for (int i = -130 * 256; i <= 130 * 256; ++i) base.push_back(static_cast<float>(i) / 256.0f);

  // kernels::quantize_i8 on both tiers, on the first 0-70 values from a
  // start (the specials, or the ties at the end) and on all of them, at
  // pointer offsets 0-3: the AVX2 tier's 32-wide body, 8-wide step and
  // padded tail on unaligned data. Every byte must be quantize_level's, and
  // none past n written.
  const kernels::Isa vector_isa = kernels::active_isa();
  struct Restore {
    kernels::Isa isa;
    ~Restore() { kernels::set_isa(isa); }
  } restore{vector_isa};
  std::vector<int8_t> q;
  // The index of the first byte that differs, or -1.
  const auto first_mismatch = [&q](const float* x, int64_t n, const QuantParams& p) {
    constexpr int8_t kCanary = 0x5A;
    const float inv = 1.0f / p.step;
    q.assign(static_cast<size_t>(n + 8), kCanary);
    kernels::quantize_i8(x, q.data(), n, inv, p.qmin(), p.qmax());
    for (int64_t i = 0; i < n + 8; ++i) {
      const int8_t want =
          i < n ? static_cast<int8_t>(quantize_level(x[i], inv, p.qmin(), p.qmax())) : kCanary;
      if (q[static_cast<size_t>(i)] != want) return i;
    }
    return int64_t{-1};
  };

  for (const float step : {1.0f / 32.0f, 1.0f, 8.0f}) {
    // Ties and their neighbours sit at k + 0.5 in level space, i.e. at
    // (k + 0.5) * step in input space (exact: steps are powers of two).
    std::vector<float> xs = base;
    for (int k = -130; k <= 130; ++k) {
      const float tie = static_cast<float>(k) + 0.5f;
      for (const float t : {std::nextafter(tie, -inf), tie, std::nextafter(tie, inf)})
        xs.push_back(t * step);
    }
    for (const int bits : {2, 4, 8}) {
      const QuantParams p{step, bits};
      const float inv = 1.0f / step;
      int64_t mismatches = 0;
      for (const float x : xs) {
        const int32_t got = quantize_level(x, inv, p.qmin(), p.qmax());
        const int32_t want = reference(x, inv, p.qmin(), p.qmax());
        if (got != want && mismatches++ == 0)
          ADD_FAILURE() << "step " << step << " bits " << bits << " x=" << x << ": " << got
                        << " != " << want;
      }
      EXPECT_EQ(mismatches, 0) << "step " << step << " bits " << bits;
      for (const kernels::Isa isa : {vector_isa, kernels::Isa::kScalar}) {
        kernels::set_isa(isa);
        for (const int64_t offset : {0, 1, 2, 3})
          for (const int64_t start : {int64_t{0}, static_cast<int64_t>(xs.size()) - 80})
            for (int64_t n = 0; n <= 71; ++n) {
              const int64_t len = n <= 70 ? n : static_cast<int64_t>(xs.size()) - start - offset;
              ASSERT_EQ(-1, first_mismatch(xs.data() + start + offset, len, p))
                  << kernels::isa_name(isa) << " step " << step << " bits " << bits
                  << " start " << start + offset << " n " << len;
            }
      }
    }
  }
}

TEST(FakeQuantize, MatchesQuantizeDequantize) {
  Rng rng(2);
  const Tensor x = randn(Shape{500}, rng);
  const QuantParams p = calibrate_max_abs(x, 4);
  const Tensor fq = fake_quantize(x, p);
  const Tensor qd = dequantize(quantize(x, p), p);
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(fq[i], qd[i], 1e-6f);
}

TEST(FakeQuantize, IsIdempotent) {
  Rng rng(3);
  const Tensor x = randn(Shape{200}, rng);
  const QuantParams p = calibrate_max_abs(x, 8);
  const Tensor once = fake_quantize(x, p);
  const Tensor twice = fake_quantize(once, p);
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(once[i], twice[i]);
}

TEST(SteMask, BlocksSaturatedValues) {
  Tensor x(Shape{3});
  const QuantParams p{0.1f, 4};  // range 0.7
  x[0] = 0.5f; x[1] = 0.71f; x[2] = -2.0f;
  const Tensor m = ste_mask(x, p);
  EXPECT_FLOAT_EQ(m[0], 1.0f);
  EXPECT_FLOAT_EQ(m[1], 0.0f);
  EXPECT_FLOAT_EQ(m[2], 0.0f);
}

TEST(QuantizationMse, ZeroForRepresentableValues) {
  Tensor x(Shape{4});
  const QuantParams p{0.25f, 8};
  x[0] = 0.25f; x[1] = -0.5f; x[2] = 0.0f; x[3] = 1.75f;
  EXPECT_NEAR(quantization_mse(x, p), 0.0, 1e-12);
}

class BitWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitWidthSweep, MoreBitsNeverWorse) {
  const int bits = GetParam();
  Rng rng(42);
  const Tensor x = randn(Shape{2000}, rng);
  const QuantParams lo = calibrate_max_abs(x, bits);
  const QuantParams hi = calibrate_max_abs(x, bits + 1);
  EXPECT_LE(quantization_mse(x, hi), quantization_mse(x, lo) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Bits, BitWidthSweep, ::testing::Values(2, 3, 4, 5, 6, 7, 8));

TEST(Calibration, MinMseNeverWorseThanMaxAbs) {
  Rng rng(5);
  // Heavy-tailed data: min-MSE should saturate the outlier and win. The
  // bulk needs enough spread that covering the outlier (and crushing the
  // bulk into the rounding floor) costs more than clipping it.
  Tensor x = randn(Shape{4000}, rng, 0.0f, 0.5f);
  x[0] = 16.0f;  // one extreme outlier
  const QuantParams pm = calibrate_max_abs(x, 4);
  const QuantParams pq = calibrate_min_mse(x, 4);
  EXPECT_LE(quantization_mse(x, pq), quantization_mse(x, pm) + 1e-12);
  EXPECT_LT(pq.step, pm.step);  // the outlier gets clipped
}

TEST(Calibration, MinPropQEUsesFunctional) {
  Rng rng(6);
  const Tensor x = randn(Shape{100}, rng);
  // A functional that prefers the largest candidate step.
  int calls = 0;
  const QuantParams p = calibrate_min_prop_qe(x, 4, [&](const QuantParams& q) {
    ++calls;
    return -static_cast<double>(q.step);
  });
  EXPECT_GT(calls, 1);
  // Largest candidate = one doubling above max-abs.
  const QuantParams base = calibrate_max_abs(x, 4);
  EXPECT_FLOAT_EQ(p.step, base.step * 2.0f);
  EXPECT_THROW(calibrate_min_prop_qe(x, 4, nullptr), std::invalid_argument);
}

TEST(Calibration, CandidateStepsArePow2Ladder) {
  const auto cands = candidate_steps(1.0f, 8, 3, 2);
  ASSERT_EQ(cands.size(), 6u);
  for (size_t i = 1; i < cands.size(); ++i)
    EXPECT_FLOAT_EQ(cands[i].step, cands[i - 1].step * 2.0f);
}

TEST(RangeObserver, TracksMaxAbs) {
  RangeObserver obs;
  EXPECT_FALSE(obs.seen());
  Tensor x(Shape{3});
  x[0] = 0.5f; x[1] = -2.5f; x[2] = 1.0f;
  obs.observe(x);
  EXPECT_TRUE(obs.seen());
  EXPECT_FLOAT_EQ(obs.max_abs(), 2.5f);
  obs.observe_value(-3.0f);
  EXPECT_FLOAT_EQ(obs.max_abs(), 3.0f);
  obs.reset();
  EXPECT_FALSE(obs.seen());
  EXPECT_FLOAT_EQ(obs.max_abs(), 0.0f);
}

TEST(RangeObserver, MinMseSaturatesOutliers) {
  RangeObserver obs;
  Rng rng(7);
  Tensor x = randn(Shape{5000}, rng, 0.0f, 0.05f);
  x[0] = 8.0f;
  obs.observe(x);
  const QuantParams worst_case = obs.params(8);
  const QuantParams dist_aware = obs.params_min_mse(8);
  EXPECT_LT(dist_aware.step, worst_case.step);
}

TEST(RangeObserver, ReservoirDecimationKeepsWorking) {
  RangeObserver obs(64);  // tiny reservoir forces several decimations
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) obs.observe_value(static_cast<float>(rng.normal()));
  const QuantParams p = obs.params_min_mse(8);
  EXPECT_GT(p.step, 0.0f);
}

}  // namespace
}  // namespace axnn::quant
