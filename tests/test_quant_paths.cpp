// Property tests of the quantized execution paths across layer
// configurations: the approximate integer conv must equal a scalar
// reference that quantizes, multiplies through the behavioural model and
// accumulates — for every conv geometry (stride/padding/groups/kernel) —
// and the integer exact path must equal the float fake-quant arithmetic it
// replaced, bit for bit, in training forwards and backwards.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "axnn/approx/signed_lut.hpp"
#include "axnn/axmul/registry.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/linear.hpp"
#include "axnn/nn/qutils.hpp"
#include "axnn/quant/calibration.hpp"
#include "axnn/tensor/ops.hpp"

namespace axnn::nn {
namespace {

/// Scalar reference of the quantized-approximate convolution (Eq. 4):
/// quantize input and weights with the layer's params, slide the window,
/// multiply through the table, accumulate exactly, rescale, add bias.
Tensor reference_approx_conv(const Tensor& x, Conv2d& conv,
                             const approx::SignedMulTable& tab) {
  const auto& cfg = conv.config();
  const TensorI8 qx = quantize_i8(x, conv.act_qparams());
  const TensorI8 qw = quantize_i8(conv.weight().value, conv.weight_qparams());
  const float scale = conv.act_qparams().step * conv.weight_qparams().step;

  const int64_t n = x.shape()[0], h = x.shape()[2], w = x.shape()[3];
  const int64_t k = cfg.kernel, s = cfg.stride, p = cfg.padding;
  const int64_t cg = cfg.in_channels / cfg.groups;
  const int64_t og = cfg.out_channels / cfg.groups;
  const int64_t oh = (h + 2 * p - k) / s + 1;
  const int64_t ow = (w + 2 * p - k) / s + 1;

  Tensor y(Shape{n, cfg.out_channels, oh, ow});
  for (int64_t b = 0; b < n; ++b)
    for (int64_t oc = 0; oc < cfg.out_channels; ++oc) {
      const int64_t g = oc / og;
      const float bias = conv.has_bias() ? conv.bias_param().value[oc] : 0.0f;
      for (int64_t i = 0; i < oh; ++i)
        for (int64_t j = 0; j < ow; ++j) {
          int64_t acc = 0;
          for (int64_t ic = 0; ic < cg; ++ic)
            for (int64_t kh = 0; kh < k; ++kh)
              for (int64_t kw = 0; kw < k; ++kw) {
                const int64_t ih = i * s - p + kh;
                const int64_t iw = j * s - p + kw;
                if (ih < 0 || ih >= h || iw < 0 || iw >= w) continue;
                const int8_t qa = qx(b, g * cg + ic, ih, iw);
                // weight tensor is [O, Cg, k, k]
                const int8_t qq =
                    qw[((oc * cg + ic) * k + kh) * k + kw];
                acc += tab(qa, qq);
              }
          y(b, oc, i, j) = static_cast<float>(acc) * scale + bias;
        }
    }
  return y;
}

struct PathCase {
  int64_t in_ch, out_ch, kernel, stride, pad, groups, hw;
  const char* mult;
};

class ApproxConvPathSweep : public ::testing::TestWithParam<PathCase> {};

TEST_P(ApproxConvPathSweep, LayerMatchesScalarReference) {
  const PathCase pc = GetParam();
  Rng rng(static_cast<uint64_t>(pc.in_ch * 1000 + pc.out_ch * 100 + pc.hw));
  Conv2d conv({pc.in_ch, pc.out_ch, pc.kernel, pc.stride, pc.pad, pc.groups, true}, rng);
  for (int64_t i = 0; i < pc.out_ch; ++i)
    conv.bias_param().value[i] = 0.05f * static_cast<float>(i);
  const Tensor x = randn(Shape{2, pc.in_ch, pc.hw, pc.hw}, rng, 0.2f, 0.4f);
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);

  const approx::SignedMulTable tab(axmul::make_lut(pc.mult));
  const Tensor y = conv.forward(x, ExecContext::quant_approx(tab));
  const Tensor ref = reference_approx_conv(x, conv, tab);
  ASSERT_EQ(y.shape(), ref.shape());
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-3f) << "elem " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ApproxConvPathSweep,
    ::testing::Values(PathCase{3, 4, 3, 1, 1, 1, 6, "trunc3"},
                      PathCase{3, 4, 3, 1, 1, 1, 6, "trunc5"},
                      PathCase{3, 4, 3, 1, 1, 1, 6, "evoa228"},
                      PathCase{4, 6, 3, 2, 1, 1, 7, "trunc4"},
                      PathCase{4, 4, 3, 1, 1, 4, 6, "trunc4"},   // depthwise
                      PathCase{4, 8, 1, 1, 0, 2, 5, "evoa29"},   // grouped 1x1
                      PathCase{2, 3, 5, 2, 2, 1, 9, "trunc2"},   // 5x5 strided
                      PathCase{1, 1, 1, 1, 0, 1, 3, "trunc1"})); // degenerate

TEST(ApproxLinearPath, MatchesScalarReference) {
  Rng rng(77);
  Linear lin(11, 5, rng);
  const Tensor x = randn(Shape{4, 11}, rng, 0.2f, 0.4f);
  (void)lin.forward(x, ExecContext::calibrate());
  lin.finalize_calibration(quant::Calibration::kMinPropQE);

  const approx::SignedMulTable tab(axmul::make_lut("trunc4"));
  const Tensor y = lin.forward(x, ExecContext::quant_approx(tab));

  const TensorI8 qx = quantize_i8(x, lin.act_qparams());
  const TensorI8 qw = quantize_i8(lin.weight().value, lin.weight_qparams());
  const float scale = lin.act_qparams().step * lin.weight_qparams().step;
  for (int64_t i = 0; i < 4; ++i)
    for (int64_t j = 0; j < 5; ++j) {
      int64_t acc = 0;
      for (int64_t f = 0; f < 11; ++f) acc += tab(qx(i, f), qw(j, f));
      const float ref = static_cast<float>(acc) * scale + lin.bias_param().value[j];
      EXPECT_NEAR(y(i, j), ref, 1e-3f);
    }
}

TEST(QuantExactPath, MoreSevereMultiplierMoreOutputError) {
  // Monotonicity across the truncated family at the layer level.
  Rng rng(88);
  Conv2d conv({3, 8, 3, 1, 1, 1, false}, rng);
  Tensor x = randn(Shape{2, 3, 8, 8}, rng, 0.4f, 0.3f);
  for (int64_t i = 0; i < x.numel(); ++i) x[i] = std::max(0.0f, x[i]);
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);
  const Tensor ref = conv.forward(x, ExecContext::quant_exact());

  double prev = -1.0;
  for (int t = 1; t <= 5; ++t) {
    const approx::SignedMulTable tab(axmul::make_lut("trunc" + std::to_string(t)));
    const Tensor y = conv.forward(x, ExecContext::quant_approx(tab));
    const double err = ops::mse(y, ref);
    EXPECT_GE(err, prev - 1e-9) << "t=" << t;
    prev = err;
  }
}

TEST(QuantExactPath, RepeatedForwardIsDeterministic) {
  Rng rng(99);
  Conv2d conv({2, 3, 3, 1, 1, 1, true}, rng);
  const Tensor x = randn(Shape{2, 2, 6, 6}, rng, 0.0f, 0.5f);
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);
  const approx::SignedMulTable tab(axmul::make_lut("evoa228"));
  const Tensor y1 = conv.forward(x, ExecContext::quant_approx(tab));
  const Tensor y2 = conv.forward(x, ExecContext::quant_approx(tab));
  for (int64_t i = 0; i < y1.numel(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

TEST(QuantExactPath, PowerOfTwoStepsEverywhere) {
  // The paper's constraint: every calibrated step is a power of two.
  Rng rng(111);
  Conv2d conv({3, 4, 3, 1, 1, 1, true}, rng);
  const Tensor x = randn(Shape{2, 3, 6, 6}, rng, 0.0f, 0.7f);
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);
  for (const float step : {conv.weight_qparams().step, conv.act_qparams().step}) {
    const float l = std::log2f(step);
    EXPECT_FLOAT_EQ(l, std::round(l));
  }
}

// --- The integer exact path against a float fake-quant reference -----------

/// Bitwise equality: +0 and −0 differ.
void expect_same_bits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (int64_t i = 0; i < got.numel(); ++i)
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << what << " element " << i << ": " << got[i] << " vs " << want[i];
}

/// A quant_exact(true) forward and backward of `layer` against the float
/// fake-quant arithmetic, rebuilt here: `twin` (same geometry) holds the
/// fake-quantized weights and runs a float training pass on the
/// fake-quantized input, and its input gradient then passes the clipped-STE
/// mask. Output and input, weight and bias gradients must match bit for bit.
template <typename L>
void expect_matches_fake_quant_reference(L& layer, L& twin, const Tensor& x, Rng& rng) {
  twin.weight().value = quant::fake_quantize(layer.weight().value, layer.weight_qparams());
  twin.bias_param().value = layer.bias_param().value;
  layer.zero_grad();
  twin.zero_grad();

  const Tensor y = layer.forward(x, ExecContext::quant_exact(/*training=*/true));
  const Tensor xq = quant::fake_quantize(x, layer.act_qparams());
  expect_same_bits(y, twin.forward(xq, ExecContext::fp(/*training=*/true)), "output");

  const Tensor dy = randn(y.shape(), rng);
  const Tensor dx = layer.backward(dy);
  Tensor dx_ref = twin.backward(dy);
  const Tensor mask = quant::ste_mask(x, layer.act_qparams());
  for (int64_t i = 0; i < dx_ref.numel(); ++i) dx_ref[i] *= mask[i];
  expect_same_bits(dx, dx_ref, "input gradient");
  expect_same_bits(layer.weight().grad, twin.weight().grad, "weight gradient");
  expect_same_bits(layer.bias_param().grad, twin.bias_param().grad, "bias gradient");
}

template <typename L>
void calibrate(L& layer, const Tensor& x) {
  (void)layer.forward(x, ExecContext::calibrate());
  layer.finalize_calibration(quant::Calibration::kMinPropQE);
}

TEST(IntExactPath, ConvTrainingBitsMatchFakeQuantReference) {
  // Dense (the last one large enough for the blocked float kernels), grouped
  // and depthwise, with and without bias.
  for (const Conv2dConfig cfg : {Conv2dConfig{3, 4, 3, 1, 1, 1, true},
                                 Conv2dConfig{4, 6, 3, 1, 1, 2, true},
                                 Conv2dConfig{4, 4, 3, 2, 1, 4, false},
                                 Conv2dConfig{8, 16, 3, 1, 1, 1, true}}) {
    SCOPED_TRACE(testing::Message() << "groups " << cfg.groups << ", out " << cfg.out_channels);
    Rng rng(static_cast<uint64_t>(31 + cfg.groups * 7 + cfg.out_channels));
    Conv2d conv(cfg, rng), twin(cfg, rng);
    if (cfg.bias)
      for (int64_t i = 0; i < cfg.out_channels; ++i)
        conv.bias_param().value[i] = 0.03f * static_cast<float>(i) - 0.05f;
    const Tensor x = randn(Shape{2, cfg.in_channels, 8, 8}, rng, 0.1f, 0.6f);
    calibrate(conv, x);
    expect_matches_fake_quant_reference(conv, twin, x, rng);
  }
}

TEST(IntExactPath, LinearTrainingBitsMatchFakeQuantReference) {
  for (const int64_t batch : {3, 16}) {  // 16: large enough for the blocked float kernels
    Rng rng(static_cast<uint64_t>(41 + batch));
    Linear lin(64, 64, rng), twin(64, 64, rng);
    for (int64_t j = 0; j < 64; ++j) lin.bias_param().value[j] = 0.02f * static_cast<float>(j);
    const Tensor x = randn(Shape{batch, 64}, rng, 0.0f, 0.8f);
    calibrate(lin, x);
    expect_matches_fake_quant_reference(lin, twin, x, rng);
  }
}

TEST(IntExactPath, SignedZeroLevelsChangeNoBits) {
  // fake_quantize keeps nearbyintf's −0 for x in (−step/2, 0); the int8
  // levels hold +0. Inputs and weights full of such values (and outputs
  // that are exactly 0) give the same output and gradient bits either way.
  const quant::QuantParams act{0.0625f, 8}, wgt{0.125f, 4};
  Rng rng(53);
  const auto tiny_negatives = [&](Shape shape, float step, float big) {
    Tensor t(shape);
    for (int64_t i = 0; i < t.numel(); ++i)
      t[i] = i % 4 == 0 ? static_cast<float>(rng.uniform(-big, big))
                        : -static_cast<float>(rng.uniform(0.01, 0.49)) * step;
    return t;
  };
  const auto count_negative_zeros = [](const Tensor& t) {
    int64_t n = 0;
    for (int64_t i = 0; i < t.numel(); ++i) n += t[i] == 0.0f && std::signbit(t[i]) ? 1 : 0;
    return n;
  };

  Conv2d conv({2, 3, 3, 1, 1, 1, false}, rng), conv_twin({2, 3, 3, 1, 1, 1, false}, rng);
  conv.weight().value = tiny_negatives(conv.weight().value.shape(), wgt.step, 0.8f);
  conv.set_qparams(wgt, act);
  const Tensor xc = tiny_negatives(Shape{2, 2, 6, 6}, act.step, 4.0f);
  ASSERT_GT(count_negative_zeros(quant::fake_quantize(xc, act)), 0);
  ASSERT_GT(count_negative_zeros(quant::fake_quantize(conv.weight().value, wgt)), 0);
  EXPECT_EQ(count_negative_zeros(dequantize_i8(quantize_i8(xc, act), act)), 0);
  expect_matches_fake_quant_reference(conv, conv_twin, xc, rng);

  Linear lin(12, 5, rng, /*bias=*/false), lin_twin(12, 5, rng, /*bias=*/false);
  lin.weight().value = tiny_negatives(lin.weight().value.shape(), wgt.step, 0.8f);
  lin.set_qparams(wgt, act);
  Tensor xl = tiny_negatives(Shape{4, 12}, act.step, 4.0f);
  for (int64_t f = 0; f < 12; ++f) xl(0, f) = -0.25f * act.step;  // an all-zero input row
  const Tensor yl = lin.forward(xl, ExecContext::quant_exact());
  for (int64_t j = 0; j < 5; ++j) EXPECT_EQ(std::bit_cast<uint32_t>(yl(0, j)), 0u);  // +0
  expect_matches_fake_quant_reference(lin, lin_twin, xl, rng);
}

TEST(IntExactPath, PartialSumsPast2To24RoundOnceAtTheEnd) {
  // 8-bit weights and 2,048 inputs: the partial sums of q_x·q_w pass 2^24
  // units. The int path sums exactly and rounds once, float(Σ q_x·q_w)·s;
  // a float accumulation of the same products rounds its partial sums.
  constexpr int64_t kIn = 2048, kOut = 16, kBatch = 8;
  const quant::QuantParams qp{1.0f / 128.0f, 8};
  Rng rng(61);
  Linear lin(kIn, kOut, rng);
  lin.weight().value = rand_uniform(Shape{kOut, kIn}, rng, 0.7f, 0.99f);
  lin.set_qparams(qp, qp);
  const Tensor x = rand_uniform(Shape{kBatch, kIn}, rng, 0.7f, 0.99f);
  const Tensor y = lin.forward(x, ExecContext::quant_exact());

  const TensorI8 qx = quantize_i8(x, qp);
  const TensorI8 qw = quantize_i8(lin.weight().value, qp);
  const float s = qp.step * qp.step;
  int64_t max_sum = 0, float_sum_differs = 0;
  for (int64_t i = 0; i < kBatch; ++i)
    for (int64_t j = 0; j < kOut; ++j) {
      int64_t exact = 0;
      float partial = 0.0f;
      for (int64_t f = 0; f < kIn; ++f) {
        exact += int64_t{qx(i, f)} * qw(j, f);
        partial += (static_cast<float>(qx(i, f)) * qp.step) *
                   (static_cast<float>(qw(j, f)) * qp.step);
      }
      max_sum = std::max(max_sum, exact);
      const float want = static_cast<float>(exact) * s + lin.bias_param().value[j];
      ASSERT_EQ(std::bit_cast<uint32_t>(y(i, j)), std::bit_cast<uint32_t>(want))
          << "(" << i << ", " << j << ")";
      float_sum_differs += partial != want ? 1 : 0;
    }
  EXPECT_GT(max_sum, int64_t{1} << 24);
  EXPECT_GT(float_sum_differs, 0);
}

}  // namespace
}  // namespace axnn::nn
