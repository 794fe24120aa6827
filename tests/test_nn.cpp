// Tests for the NN layer stack: im2col, conv, linear, batchnorm,
// activations, pooling, containers, SGD, serialization.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "axnn/approx/signed_lut.hpp"
#include "axnn/axmul/registry.hpp"
#include "axnn/ge/error_fit.hpp"
#include "axnn/kernels/int_gemm.hpp"
#include "axnn/kernels/isa.hpp"
#include "axnn/kernels/plan.hpp"
#include "axnn/nn/activations.hpp"
#include "axnn/nn/batchnorm.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/linear.hpp"
#include "axnn/nn/loss.hpp"
#include "axnn/nn/monitor.hpp"
#include "axnn/nn/pooling.hpp"
#include "axnn/nn/qutils.hpp"
#include "axnn/nn/sequential.hpp"
#include "axnn/nn/serialize.hpp"
#include "axnn/nn/sgd.hpp"
#include "axnn/tensor/ops.hpp"

namespace axnn::nn {
namespace {

const ExecContext kFp = ExecContext::fp();
const ExecContext kFpTrain = ExecContext::fp(/*training=*/true);

TEST(Im2col, GeometryComputation) {
  const ConvGeom g = ConvGeom::of(Shape{2, 3, 8, 8}, 3, 1, 1);
  EXPECT_EQ(g.oh, 8);
  EXPECT_EQ(g.ow, 8);
  EXPECT_EQ(g.patch_rows(), 27);
  EXPECT_EQ(g.out_cols(), 128);
  const ConvGeom s2 = ConvGeom::of(Shape{1, 1, 8, 8}, 3, 2, 1);
  EXPECT_EQ(s2.oh, 4);
}

TEST(Im2col, ValuesAndPadding) {
  // 1x1x3x3 input, k=3, p=1: centre column equals the full image.
  Tensor x(Shape{1, 1, 3, 3});
  for (int64_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i + 1);
  const ConvGeom g = ConvGeom::of(x.shape(), 3, 1, 1);
  const Tensor cols = im2col(x, g);
  EXPECT_EQ(cols.shape(), (Shape{9, 9}));
  // Row 4 = (kh=1, kw=1) -> identity tap.
  for (int64_t p = 0; p < 9; ++p) EXPECT_FLOAT_EQ(cols(4, p), x[p]);
  // Row 0 = (kh=0, kw=0): output (0,0) reads x(-1,-1) = padding zero.
  EXPECT_FLOAT_EQ(cols(0, 0), 0.0f);
  // Output (2,2) with (kh=0,kw=0) reads x(1,1) = 5.
  EXPECT_FLOAT_EQ(cols(0, 8), 5.0f);
}

TEST(Im2col, Int8MatchesQuantizedFloatAndDirectTaps) {
  // quantize_im2col and quantize_plane's columns must give the bytes of
  // quantize_i8(im2col(x)), quantize_plane's planes the quantized input on
  // a zero border, and the float lowering must put every element at its
  // direct tap (out-of-image taps are zero), across the geometries the
  // layers use: stride-1 output widths 16, 8 and 4 take the fixed-width
  // copies, stride-2 widths 8 and 4 the fixed-width gathers, the others the
  // generic ones. Every third input is a special value (NaN, ±inf, ±1e30,
  // 3e9, exact half-steps, the saturation edge), so specials land both in
  // the vectorized body of a quantized row and in its scalar tail (rows of
  // up to 17 values; the whole plane is one row when there is no padding).
  const quant::QuantParams qp{1.0f / 32.0f, 8};
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            inf,
                            -inf,
                            1e30f,
                            -1e30f,
                            3e9f,
                            0.5f / 32,
                            -0.5f / 32,
                            1.5f / 32,
                            -2.5f / 32,
                            126.5f / 32,
                            -127.5f / 32};
  const auto bits = [](float v) { return std::bit_cast<uint32_t>(v); };
  Rng rng(7);
  int64_t fixed_width = 0, fixed_gather = 0, generic_width = 0;
  for (int64_t kernel : {1, 3})
    for (int64_t stride : {1, 2})
      for (int64_t pad : {0, 1})
        for (int64_t hw = 1; hw <= 17; ++hw)
          for (int64_t batch : {1, 3}) {
            if (hw + 2 * pad < kernel) continue;  // no output position
            Tensor x = randn(Shape{batch, 2, hw, hw}, rng);
            for (int64_t i = 0; i < x.numel(); i += 3)
              x[i] = specials[(i / 3) % std::size(specials)];
            const ConvGeom g = ConvGeom::of(x.shape(), kernel, stride, pad);
            const Tensor cols = im2col(x, g);
            const TensorI8 qcols = quantize_im2col(x, g, qp);
            const TensorI8 ref = quantize_i8(cols, qp);
            SCOPED_TRACE(::testing::Message() << "k=" << kernel << " s=" << stride
                                              << " p=" << pad << " hw=" << hw
                                              << " n=" << batch);
            ASSERT_EQ(qcols.shape(), ref.shape());
            ASSERT_EQ(0, std::memcmp(ref.data(), qcols.data(), static_cast<size_t>(ref.numel())));
            // quantize_plane keeps the padded planes and lowers the same
            // columns from them; so does plane_im2col from those planes.
            TensorI8 plane_cols;
            const TensorI8 planes = quantize_plane(x, g, qp, &plane_cols);
            ASSERT_EQ(plane_cols.shape(), ref.shape());
            ASSERT_EQ(0, std::memcmp(ref.data(), plane_cols.data(),
                                     static_cast<size_t>(ref.numel())));
            const int64_t ph = hw + 2 * pad;
            std::vector<int8_t> lowered(static_cast<size_t>(ref.numel()));
            plane_im2col(kernels::ConvPlane{planes.data(), batch, 2, ph, ph, kernel, stride},
                         lowered.data());
            ASSERT_EQ(0, std::memcmp(ref.data(), lowered.data(), lowered.size()));
            ASSERT_EQ(planes.shape(), (Shape{batch, 2, ph, ph}));
            for (int64_t e = 0; e < planes.numel(); ++e) {
              const int64_t i = e / ph % ph - pad, j = e % ph - pad, nc = e / (ph * ph);
              const bool inside = i >= 0 && i < hw && j >= 0 && j < hw;
              ASSERT_EQ(inside ? quant::quantize_level(x[(nc * hw + i) * hw + j], 32.0f, -127, 127)
                               : 0,
                        planes[e])
                  << "plane element " << e;
            }
            for (int64_t r = 0; r < g.patch_rows(); ++r)
              for (int64_t col = 0; col < g.out_cols(); ++col) {
                const int64_t kw = r % kernel, kh = r / kernel % kernel, c = r / kernel / kernel;
                const int64_t n = col / (g.oh * g.ow), oi = col / g.ow % g.oh, oj = col % g.ow;
                const int64_t ih = oi * stride - pad + kh, iw = oj * stride - pad + kw;
                const bool inside = ih >= 0 && ih < hw && iw >= 0 && iw < hw;
                const float tap = inside ? x[((n * 2 + c) * hw + ih) * hw + iw] : 0.0f;
                ASSERT_EQ(bits(tap), bits(cols(r, col))) << "r=" << r << " col=" << col;
                ASSERT_EQ(quant::quantize_level(tap, 32.0f, -127, 127), qcols(r, col))
                    << "r=" << r << " col=" << col << " tap=" << tap;
              }
            if (stride == 1 && (g.ow == 16 || g.ow == 8 || g.ow == 4))
              ++fixed_width;
            else if (stride == 2 && (g.ow == 8 || g.ow == 4))
              ++fixed_gather;
            else
              ++generic_width;
          }
  EXPECT_GT(fixed_width, 0);
  EXPECT_GT(fixed_gather, 0);
  EXPECT_GT(generic_width, 0);
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), c> == <x, col2im(c)> for random x, c — the defining property
  // of the backward scatter.
  Rng rng(3);
  const Tensor x = randn(Shape{2, 3, 6, 6}, rng);
  const ConvGeom g = ConvGeom::of(x.shape(), 3, 2, 1);
  const Tensor cols = im2col(x, g);
  const Tensor c = randn(cols.shape(), rng);
  const Tensor xback = col2im(c, g);
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < cols.numel(); ++i) lhs += static_cast<double>(cols[i]) * c[i];
  for (int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) * xback[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

Tensor naive_conv(const Tensor& x, const Tensor& w, const Tensor* bias, int64_t stride,
                  int64_t padding, int64_t groups) {
  const int64_t n = x.shape()[0], c = x.shape()[1], h = x.shape()[2], wd = x.shape()[3];
  const int64_t o = w.shape()[0], cg = w.shape()[1], k = w.shape()[2];
  const int64_t og = o / groups;
  const int64_t oh = (h + 2 * padding - k) / stride + 1;
  const int64_t ow = (wd + 2 * padding - k) / stride + 1;
  Tensor y(Shape{n, o, oh, ow}, 0.0f);
  for (int64_t b = 0; b < n; ++b)
    for (int64_t oc = 0; oc < o; ++oc) {
      const int64_t g = oc / og;
      for (int64_t i = 0; i < oh; ++i)
        for (int64_t j = 0; j < ow; ++j) {
          double acc = bias != nullptr ? (*bias)[oc] : 0.0;
          for (int64_t ic = 0; ic < cg; ++ic)
            for (int64_t kh = 0; kh < k; ++kh)
              for (int64_t kw = 0; kw < k; ++kw) {
                const int64_t ih = i * stride - padding + kh;
                const int64_t iw = j * stride - padding + kw;
                if (ih < 0 || ih >= h || iw < 0 || iw >= wd) continue;
                acc += static_cast<double>(x(b, g * cg + ic, ih, iw)) * w(oc, ic, kh, kw);
              }
          y(b, oc, i, j) = static_cast<float>(acc);
        }
    }
  (void)c;
  return y;
}

struct ConvCase {
  int64_t in_ch, out_ch, k, stride, pad, groups, hw;
};

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvSweep, ForwardMatchesNaiveReference) {
  const ConvCase cc = GetParam();
  Rng rng(99);
  Conv2d conv({cc.in_ch, cc.out_ch, cc.k, cc.stride, cc.pad, cc.groups, true}, rng);
  // Non-trivial bias.
  for (int64_t i = 0; i < cc.out_ch; ++i)
    conv.bias_param().value[i] = 0.1f * static_cast<float>(i);
  const Tensor x = randn(Shape{2, cc.in_ch, cc.hw, cc.hw}, rng);
  const Tensor y = conv.forward(x, kFp);
  const Tensor ref = naive_conv(x, conv.weight().value, &conv.bias_param().value, cc.stride,
                                cc.pad, cc.groups);
  ASSERT_EQ(y.shape(), ref.shape());
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], ref[i], 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConvSweep,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 1, 4},    // pointwise minimal
                      ConvCase{3, 8, 3, 1, 1, 1, 8},    // standard 3x3
                      ConvCase{4, 6, 3, 2, 1, 1, 9},    // strided, odd size
                      ConvCase{8, 8, 3, 1, 1, 8, 6},    // depthwise
                      ConvCase{4, 8, 1, 1, 0, 2, 5},    // grouped pointwise
                      ConvCase{2, 4, 5, 2, 2, 1, 11})); // 5x5 kernel

TEST(Conv2d, MacCount) {
  Rng rng(1);
  Conv2d conv({3, 8, 3, 1, 1, 1, false}, rng);
  const Tensor x(Shape{2, 3, 8, 8}, 0.0f);
  (void)conv.forward(x, kFp);
  // per sample: 8 * 3 * 9 * 64 = 13824; batch of 2.
  EXPECT_EQ(conv.last_mac_count(), 2 * 13824);
  EXPECT_EQ(conv.macs_per_sample(8, 8), 13824);
}

TEST(Conv2d, ConfigValidation) {
  Rng rng(1);
  EXPECT_THROW(Conv2d({0, 4, 3, 1, 1, 1, true}, rng), std::invalid_argument);
  EXPECT_THROW(Conv2d({3, 4, 3, 1, 1, 2, true}, rng), std::invalid_argument);  // 3 % 2
}

TEST(Conv2d, QuantForwardBeforeCalibrationThrows) {
  Rng rng(1);
  Conv2d conv({2, 2, 3, 1, 1, 1, true}, rng);
  const Tensor x(Shape{1, 2, 4, 4}, 0.5f);
  EXPECT_THROW(conv.forward(x, ExecContext::quant_exact()), std::logic_error);
}

TEST(Conv2d, QuantExactEqualsFakeQuantReference) {
  Rng rng(7);
  Conv2d conv({3, 4, 3, 1, 1, 1, true}, rng);
  const Tensor x = randn(Shape{2, 3, 6, 6}, rng, 0.0f, 0.5f);
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);

  const Tensor y = conv.forward(x, ExecContext::quant_exact());
  const Tensor xq = quant::fake_quantize(x, conv.act_qparams());
  const Tensor wq = quant::fake_quantize(conv.weight().value, conv.weight_qparams());
  const Tensor ref = naive_conv(xq, wq, &conv.bias_param().value, 1, 1, 1);
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], ref[i], 2e-3f);
}

TEST(Conv2d, ApproxWithExactTableMatchesQuantExact) {
  Rng rng(8);
  Conv2d conv({3, 4, 3, 1, 1, 1, true}, rng);
  const Tensor x = randn(Shape{2, 3, 6, 6}, rng, 0.0f, 0.5f);
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);

  const Tensor yq = conv.forward(x, ExecContext::quant_exact());
  const approx::SignedMulTable exact_tab;
  const Tensor ya = conv.forward(x, ExecContext::quant_approx(exact_tab));
  for (int64_t i = 0; i < yq.numel(); ++i) EXPECT_EQ(ya[i], yq[i]);
}

TEST(Conv2d, ApproxTruncatedReducesMagnitude) {
  Rng rng(9);
  Conv2d conv({3, 8, 3, 1, 1, 1, false}, rng);
  Tensor x = randn(Shape{2, 3, 8, 8}, rng, 0.5f, 0.3f);
  for (int64_t i = 0; i < x.numel(); ++i) x[i] = std::max(0.0f, x[i]);  // post-ReLU-like
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);

  const Tensor yq = conv.forward(x, ExecContext::quant_exact());
  const approx::SignedMulTable trunc(axmul::make_lut("trunc5"));
  const Tensor ya = conv.forward(x, ExecContext::quant_approx(trunc));
  EXPECT_LT(ops::sum(ya), ops::sum(yq));  // truncation under-estimates
  EXPECT_GT(ops::mse(ya, yq), 0.0);
}

TEST(Conv2d, FoldScaleShift) {
  Rng rng(10);
  Conv2d conv({2, 3, 3, 1, 1, 1, false}, rng);
  const Tensor x = randn(Shape{1, 2, 5, 5}, rng);
  const Tensor y0 = conv.forward(x, kFp);
  conv.fold_scale_shift({2.0f, 0.5f, 1.0f}, {0.1f, -0.2f, 0.0f});
  const Tensor y1 = conv.forward(x, kFp);
  for (int64_t i = 0; i < 5 * 5; ++i) {
    EXPECT_NEAR(y1[i], 2.0f * y0[i] + 0.1f, 1e-4f);                 // channel 0
    EXPECT_NEAR(y1[25 + i], 0.5f * y0[25 + i] - 0.2f, 1e-4f);       // channel 1
    EXPECT_NEAR(y1[50 + i], y0[50 + i], 1e-4f);                     // channel 2
  }
}

TEST(Linear, ForwardMatchesReference) {
  Rng rng(11);
  Linear lin(5, 3, rng);
  lin.bias_param().value[1] = 0.5f;
  const Tensor x = randn(Shape{4, 5}, rng);
  const Tensor y = lin.forward(x, kFp);
  for (int64_t i = 0; i < 4; ++i)
    for (int64_t j = 0; j < 3; ++j) {
      double acc = lin.bias_param().value[j];
      for (int64_t k = 0; k < 5; ++k) acc += static_cast<double>(x(i, k)) * lin.weight().value(j, k);
      EXPECT_NEAR(y(i, j), acc, 1e-4f);
    }
}

TEST(Linear, ApproxExactTableMatchesQuantExact) {
  Rng rng(12);
  Linear lin(9, 4, rng);
  const Tensor x = randn(Shape{3, 9}, rng, 0.0f, 0.5f);
  (void)lin.forward(x, ExecContext::calibrate());
  lin.finalize_calibration(quant::Calibration::kMinPropQE);
  const Tensor yq = lin.forward(x, ExecContext::quant_exact());
  const approx::SignedMulTable exact_tab;
  const Tensor ya = lin.forward(x, ExecContext::quant_approx(exact_tab));
  for (int64_t i = 0; i < yq.numel(); ++i) EXPECT_EQ(ya[i], yq[i]);
}

TEST(BatchNorm, NormalizesInTraining) {
  Rng rng(13);
  BatchNorm2d bn(3);
  const Tensor x = randn(Shape{4, 3, 5, 5}, rng, 2.0f, 3.0f);
  const Tensor y = bn.forward(x, kFpTrain);
  // Per-channel mean ~0, var ~1.
  const int64_t hw = 25;
  for (int64_t c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    for (int64_t b = 0; b < 4; ++b)
      for (int64_t i = 0; i < hw; ++i) mean += y(b, c, i / 5, i % 5);
    mean /= 4 * hw;
    for (int64_t b = 0; b < 4; ++b)
      for (int64_t i = 0; i < hw; ++i) {
        const double d = y(b, c, i / 5, i % 5) - mean;
        var += d * d;
      }
    var /= 4 * hw;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  Rng rng(14);
  BatchNorm2d bn(2);
  // Warm up the running statistics.
  for (int i = 0; i < 50; ++i) {
    const Tensor x = randn(Shape{8, 2, 4, 4}, rng, 1.0f, 2.0f);
    (void)bn.forward(x, kFpTrain);
  }
  const Tensor x = randn(Shape{8, 2, 4, 4}, rng, 1.0f, 2.0f);
  const Tensor y = bn.forward(x, kFp);
  EXPECT_NEAR(ops::mean(y), 0.0, 0.2);
}

TEST(BatchNorm, FoldIntoConvMatchesEval) {
  Rng rng(15);
  Conv2d conv({3, 4, 3, 1, 1, 1, false}, rng);
  BatchNorm2d bn(4);
  // Give BN non-trivial state.
  for (int i = 0; i < 30; ++i) {
    const Tensor x = randn(Shape{4, 3, 6, 6}, rng);
    (void)bn.forward(conv.forward(x, kFpTrain), kFpTrain);
  }
  bn.gamma().value[0] = 1.7f;
  bn.beta().value[2] = -0.4f;

  const Tensor x = randn(Shape{2, 3, 6, 6}, rng);
  const Tensor ref = bn.forward(conv.forward(x, kFp), kFp);
  bn.fold_into(conv);
  const Tensor folded = conv.forward(x, kFp);
  for (int64_t i = 0; i < ref.numel(); ++i) EXPECT_NEAR(folded[i], ref[i], 1e-3f);
}

TEST(Sequential, FoldBatchnormsRemovesBnLayers) {
  Rng rng(16);
  Sequential net;
  net.emplace<Conv2d>(Conv2dConfig{3, 4, 3, 1, 1, 1, false}, rng);
  net.emplace<BatchNorm2d>(4);
  net.emplace<ReLU>();
  net.emplace<Conv2d>(Conv2dConfig{4, 4, 3, 1, 1, 1, false}, rng);
  net.emplace<BatchNorm2d>(4);
  for (int i = 0; i < 20; ++i) {
    const Tensor x = randn(Shape{4, 3, 6, 6}, rng);
    (void)net.forward(x, kFpTrain);
  }
  const Tensor x = randn(Shape{2, 3, 6, 6}, rng);
  const Tensor ref = net.forward(x, kFp);
  EXPECT_EQ(net.size(), 5u);
  net.fold_batchnorms();
  EXPECT_EQ(net.size(), 3u);
  const Tensor folded = net.forward(x, kFp);
  for (int64_t i = 0; i < ref.numel(); ++i) EXPECT_NEAR(folded[i], ref[i], 1e-3f);
}

TEST(Activations, ReLUForwardBackward) {
  ReLU relu;
  Tensor x(Shape{4});
  x[0] = -1.0f; x[1] = 0.0f; x[2] = 2.0f; x[3] = -0.5f;
  const Tensor y = relu.forward(x, kFpTrain);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  Tensor dy(Shape{4}, 1.0f);
  const Tensor dx = relu.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[2], 1.0f);
}

TEST(Activations, ReLU6Saturates) {
  ReLU6 relu6;
  Tensor x(Shape{3});
  x[0] = -1.0f; x[1] = 3.0f; x[2] = 9.0f;
  const Tensor y = relu6.forward(x, kFpTrain);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 3.0f);
  EXPECT_FLOAT_EQ(y[2], 6.0f);
  Tensor dy(Shape{3}, 1.0f);
  const Tensor dx = relu6.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 1.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
}

// ---- inference forwards: no backward state, same bits ----

/// Bitwise equality (signed zeros and NaN payloads included).
void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<size_t>(a.numel())));
}

/// A GE fit whose linear region covers every accumulator, so a training
/// forward keeps the GE accumulators too.
ge::ErrorFit linear_fit() {
  ge::ErrorFit fit;
  fit.k = -0.25;
  fit.a = 1e9;
  fit.b = -1e9;
  return fit;
}

TEST(InferenceForward, BackwardThrowsNamingTheLayer) {
  Rng rng(30);
  Conv2d conv({2, 3, 3, 1, 1, 1, true}, rng);
  Linear lin(5, 3, rng);
  BatchNorm2d bn(2);
  ReLU relu;
  ReLU6 relu6;
  const Tensor fmap = randn(Shape{2, 2, 4, 4}, rng);
  const Tensor flat = randn(Shape{2, 5}, rng);
  const std::pair<Layer*, const Tensor*> cases[] = {
      {&conv, &fmap}, {&lin, &flat}, {&bn, &fmap}, {&relu, &fmap}, {&relu6, &fmap}};
  for (const auto& [layer, x] : cases) {
    // Never trained: nothing to differentiate.
    const Tensor y = layer->forward(*x, kFp);
    const Tensor dy(y.shape(), 1.0f);
    try {
      (void)layer->backward(dy);
      ADD_FAILURE() << layer->name() << ": backward after an inference forward did not throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(layer->name() + "::backward"), std::string::npos)
          << e.what();
    }
    // A training forward keeps the state; the next inference forward drops it.
    (void)layer->forward(*x, kFpTrain);
    EXPECT_NO_THROW((void)layer->backward(dy)) << layer->name();
    (void)layer->forward(*x, kFp);
    EXPECT_THROW((void)layer->backward(dy), std::logic_error) << layer->name();
  }
}

/// Inference and training forwards of one layer in each pair of contexts
/// produce the same bits, and a training forward in between changes
/// nothing for the next inference forward.
void expect_training_forward_changes_nothing(
    Layer& layer, const Tensor& x,
    const std::vector<std::pair<ExecContext, ExecContext>>& modes) {
  for (const auto& [infer, train] : modes) {
    ASSERT_FALSE(infer.training);
    ASSERT_TRUE(train.training);
    const Tensor yi = layer.forward(x, infer);
    expect_bitwise_equal(yi, layer.forward(x, train));
    expect_bitwise_equal(yi, layer.forward(x, infer));
  }
}

TEST(InferenceForward, Conv2dMatchesTrainingForwardBitwise) {
  const approx::SignedMulTable tab(axmul::make_lut("trunc4"));
  const ge::ErrorFit fit = linear_fit();
  const std::vector<std::pair<ExecContext, ExecContext>> modes = {
      {ExecContext::fp(), ExecContext::fp(true)},
      {ExecContext::quant_exact(), ExecContext::quant_exact(true)},
      {ExecContext::quant_approx(tab), ExecContext::quant_approx(tab, &fit, true)}};
  const Conv2dConfig cfgs[] = {
      {3, 4, 3, 1, 1, 1, true},   // bias
      {3, 4, 3, 2, 1, 1, false},  // no bias, strided
      {4, 6, 1, 1, 0, 2, true},   // grouped 1x1
      {4, 4, 3, 1, 1, 4, false},  // depthwise
  };
  for (const Conv2dConfig& cfg : cfgs) {
    Rng rng(31);
    Conv2d conv(cfg, rng);
    if (cfg.bias)
      for (int64_t i = 0; i < cfg.out_channels; ++i)
        conv.bias_param().value[i] = 0.05f * static_cast<float>(i) - 0.1f;
    const Tensor x = randn(Shape{2, cfg.in_channels, 6, 6}, rng, 0.0f, 0.5f);
    (void)conv.forward(x, ExecContext::calibrate());
    conv.finalize_calibration(quant::Calibration::kMinPropQE);
    SCOPED_TRACE(conv.name());
    expect_training_forward_changes_nothing(conv, x, modes);

    // The one-pass quantized epilogue keeps the bits of its two-pass form:
    // dequantize the [O, N*oh*ow] accumulators to floats, then scatter them
    // to NCHW adding the bias.
    const ConvGeom g = ConvGeom::of(x.shape(), cfg.kernel, cfg.stride, cfg.padding);
    const int64_t o = cfg.out_channels, og = o / cfg.groups;
    const int64_t kg = cfg.in_channels / cfg.groups * cfg.kernel * cfg.kernel;
    const int64_t p = g.out_cols(), hw = g.oh * g.ow;
    const TensorI8 qcols = quantize_i8(im2col(x, g), conv.act_qparams());
    const TensorI8 qw = quantize_i8(conv.weight().value, conv.weight_qparams());
    TensorI32 acc(Shape{o, p});
    for (int64_t grp = 0; grp < cfg.groups; ++grp)
      kernels::gemm_approx({}, qw.data() + grp * og * kg, qcols.data() + grp * kg * p,
                           acc.data() + grp * og * p, og, kg, p, tab);
    const float sx = conv.act_qparams().step, sw = conv.weight_qparams().step;
    Tensor out_mat(Shape{o, p});
    for (int64_t i = 0; i < acc.numel(); ++i) out_mat[i] = static_cast<float>(acc[i]) * sx * sw;
    Tensor ref(Shape{g.n, o, g.oh, g.ow});
    for (int64_t b = 0; b < g.n; ++b)
      for (int64_t ch = 0; ch < o; ++ch) {
        const float bias_v = cfg.bias ? conv.bias_param().value[ch] : 0.0f;
        for (int64_t i = 0; i < hw; ++i)
          ref[(b * o + ch) * hw + i] = out_mat[ch * p + b * hw + i] + bias_v;
      }
    expect_bitwise_equal(ref, conv.forward(x, ExecContext::quant_approx(tab)));
  }
}

/// Keeps what every on_leaf_gemm hands it: the columns X[k, n] and the
/// accumulators C[m, n] of each GEMM group. With `planes` it takes planes
/// and counts the plane hooks instead.
class RecordingMonitor final : public ForwardMonitor {
public:
  explicit RecordingMonitor(bool planes = false) : planes_(planes) {}
  bool force_exact(const Layer&) override { return false; }
  void on_leaf_input(const Layer&, const Tensor&) override {}
  bool on_leaf_gemm(const Layer&, int64_t, bool, const int8_t*, const int8_t* x, int32_t* c,
                    int64_t m, int64_t k, int64_t n, const approx::SignedMulTable*) override {
    cols.insert(cols.end(), x, x + k * n);
    acc.insert(acc.end(), c, c + m * n);
    return false;
  }
  bool takes_planes() const override { return planes_; }
  bool on_leaf_plane_gemm(const Layer&, bool, const int8_t*, const kernels::ConvPlane&,
                          int32_t*, int64_t, int64_t, int64_t,
                          const approx::SignedMulTable*) override {
    ++plane_gemms;
    return false;
  }
  std::vector<int8_t> cols;
  std::vector<int32_t> acc;
  int plane_gemms = 0;

private:
  bool planes_;
};

struct PlaneConvCase {
  Conv2dConfig cfg;
  int64_t hw;
  bool eligible;  ///< reads its plane where the closed form runs
};

/// Stride-1 convs whose output width is 4, 8, 16 or 32 (whole 16-column
/// strips) read their plane on AVX2 under a truncated table; width 6,
/// stride 2 and two groups lower columns.
const PlaneConvCase kPlaneConvCases[] = {
    {{3, 4, 3, 1, 1, 1, true}, 16, true},   {{4, 8, 3, 1, 1, 1, false}, 8, true},
    {{8, 5, 3, 1, 1, 1, true}, 4, true},    {{2, 4, 1, 1, 0, 1, true}, 32, true},
    {{3, 4, 3, 1, 1, 1, true}, 6, false},   {{4, 4, 3, 2, 1, 1, true}, 16, false},
    {{4, 6, 3, 1, 1, 2, true}, 8, false},
};

/// A calibrated conv of `pc` and an input batch of 3 for it.
std::pair<std::unique_ptr<Conv2d>, Tensor> plane_conv(const PlaneConvCase& pc) {
  Rng rng(static_cast<uint64_t>(40 + pc.hw + pc.cfg.out_channels));
  auto conv = std::make_unique<Conv2d>(pc.cfg, rng);
  Tensor x = randn(Shape{3, pc.cfg.in_channels, pc.hw, pc.hw}, rng, 0.1f, 0.6f);
  (void)conv->forward(x, ExecContext::calibrate());
  conv->finalize_calibration(quant::Calibration::kMinPropQE);
  return {std::move(conv), std::move(x)};
}

TEST(Conv2d, PlaneGemmGivesTheBitsOfTheColumnsPath) {
  // The same quantized forward with and without a monitor: the monitor's
  // columns are quantize_im2col's bytes, its accumulators the naive GEMM's
  // over them, and the outputs are equal bit for bit whether or not a
  // conv ran its GEMM from the plane (a monitor that takes planes gets the
  // plane hook exactly then). The table-less case is the quantized-exact
  // forward: it multiplies through the exact table, so its eligible convs
  // read their plane too, and its reference is gemm_exact.
  const bool avx2 = kernels::active_isa() == kernels::Isa::kAvx2;
  int64_t plane_convs = 0;
  for (const char* name : {"trunc5", "exact", "trunc11", "evoa228", "quant_exact"}) {
    const bool table = std::string(name) != "quant_exact";
    const approx::SignedMulTable tab(axmul::make_lut(table ? name : "exact"));
    const ExecContext ctx = table ? ExecContext::quant_approx(tab) : ExecContext::quant_exact();
    const bool truncated = std::string(name) != "evoa228";
    for (const PlaneConvCase& pc : kPlaneConvCases) {
      auto [conv, x] = plane_conv(pc);
      SCOPED_TRACE(::testing::Message() << name << " " << conv->name() << " hw=" << pc.hw
                                        << " stride=" << pc.cfg.stride);
      const ConvGeom g = ConvGeom::of(x.shape(), pc.cfg.kernel, pc.cfg.stride, pc.cfg.padding);
      const int64_t grp = pc.cfg.groups, og = pc.cfg.out_channels / grp;
      const int64_t kg = pc.cfg.in_channels / grp * pc.cfg.kernel * pc.cfg.kernel;
      const int64_t p = g.out_cols();
      const kernels::ConvPlane plane{nullptr, g.n, g.c, g.h + 2 * g.padding,
                                     g.w + 2 * g.padding, g.kernel, g.stride};
      const bool reads =
          kernels::PlanCache::global()
              .acquire(kernels::make_int_key(kernels::OpKind::kApprox, {}, og, kg, p,
                                             kernels::Backend::kBlocked, &tab),
                       &tab)
              ->reads_plane(plane);
      ASSERT_EQ(avx2 && truncated && pc.eligible, reads);
      plane_convs += reads ? 1 : 0;

      const Tensor y = conv->forward(x, ctx);
      RecordingMonitor mon, plane_mon(true);
      ExecContext watched = ctx;
      watched.monitor = &mon;
      expect_bitwise_equal(y, conv->forward(x, watched));
      watched.monitor = &plane_mon;
      expect_bitwise_equal(y, conv->forward(x, watched));
      EXPECT_EQ(reads ? 1 : 0, plane_mon.plane_gemms);

      const TensorI8 cols = quantize_im2col(x, g, conv->act_qparams());
      ASSERT_EQ(static_cast<size_t>(cols.numel()), mon.cols.size());
      ASSERT_EQ(0, std::memcmp(cols.data(), mon.cols.data(), mon.cols.size()));
      const TensorI8 qw = quantize_i8(conv->weight().value, conv->weight_qparams());
      std::vector<int32_t> naive(static_cast<size_t>(pc.cfg.out_channels * p));
      for (int64_t gi = 0; gi < grp; ++gi) {
        const int8_t* wg = qw.data() + gi * og * kg;
        const int8_t* xg = cols.data() + gi * kg * p;
        int32_t* cg = naive.data() + gi * og * p;
        if (table)
          kernels::gemm_approx({}, wg, xg, cg, og, kg, p, tab, kernels::Backend::kNaive);
        else
          kernels::gemm_exact({}, wg, xg, cg, og, kg, p, kernels::Backend::kNaive);
      }
      EXPECT_EQ(naive, mon.acc);
    }
  }
  EXPECT_EQ(avx2 ? 4 * 4 : 0, plane_convs);  // four closed-form cases, four eligible convs
}

TEST(Conv2d, PlaneGemmTrainingForwardKeepsTheDequantizedColumns) {
  // A training forward that runs its GEMM from the plane still keeps the
  // dequantized quantize_im2col columns: the weight gradient is the float
  // GEMM of dy against them.
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  for (const PlaneConvCase& pc : kPlaneConvCases) {
    if (!pc.eligible) continue;
    auto [conv, x] = plane_conv(pc);
    SCOPED_TRACE(::testing::Message() << conv->name() << " hw=" << pc.hw);
    conv->zero_grad();
    const Tensor y = conv->forward(x, ExecContext::quant_approx(tab, nullptr, true));
    expect_bitwise_equal(y, conv->forward(x, ExecContext::quant_approx(tab)));
    (void)conv->forward(x, ExecContext::quant_approx(tab, nullptr, true));
    Rng rng(5);
    const Tensor dy = randn(y.shape(), rng);
    (void)conv->backward(dy);

    const ConvGeom g = ConvGeom::of(x.shape(), pc.cfg.kernel, 1, pc.cfg.padding);
    const int64_t o = pc.cfg.out_channels, p = g.out_cols(), hw = g.oh * g.ow;
    const Tensor cols = dequantize_i8(quantize_im2col(x, g, conv->act_qparams()),
                                      conv->act_qparams());
    Tensor dy_mat(Shape{o, p});
    for (int64_t b = 0; b < g.n; ++b)
      for (int64_t ch = 0; ch < o; ++ch)
        for (int64_t i = 0; i < hw; ++i) dy_mat[ch * p + b * hw + i] = dy[(b * o + ch) * hw + i];
    Tensor dw(Shape{o, g.patch_rows()});
    kernels::gemm({.trans_b = true}, dy_mat.data(), cols.data(), dw.data(), o, p,
                  g.patch_rows());
    const Tensor& grad = conv->weight().grad;
    ASSERT_EQ(dw.numel(), grad.numel());
    for (int64_t i = 0; i < dw.numel(); ++i) ASSERT_EQ(dw[i], grad[i]) << "element " << i;
  }
}

TEST(InferenceForward, LinearMatchesTrainingForwardBitwise) {
  const approx::SignedMulTable tab(axmul::make_lut("trunc4"));
  const ge::ErrorFit fit = linear_fit();
  for (const bool bias : {true, false}) {
    Rng rng(32);
    Linear lin(9, 4, rng, bias);
    const Tensor x = randn(Shape{3, 9}, rng, 0.0f, 0.5f);
    (void)lin.forward(x, ExecContext::calibrate());
    lin.finalize_calibration(quant::Calibration::kMinPropQE);
    SCOPED_TRACE(bias ? "bias" : "no bias");
    expect_training_forward_changes_nothing(
        lin, x,
        {{ExecContext::fp(), ExecContext::fp(true)},
         {ExecContext::quant_exact(), ExecContext::quant_exact(true)},
         {ExecContext::quant_approx(tab), ExecContext::quant_approx(tab, &fit, true)}});
  }
}

TEST(InferenceForward, ActivationsMatchTrainingForwardBitwise) {
  Rng rng(33);
  Tensor x = randn(Shape{2, 3, 4, 4}, rng, 0.0f, 5.0f);
  x[0] = -0.0f;
  x[1] = 6.0f;
  x[2] = std::numeric_limits<float>::quiet_NaN();
  ReLU relu;
  ReLU6 relu6;
  expect_training_forward_changes_nothing(relu, x, {{kFp, kFpTrain}});
  expect_training_forward_changes_nothing(relu6, x, {{kFp, kFpTrain}});
}

TEST(Pooling, GlobalAvgPool) {
  Tensor x(Shape{1, 2, 2, 2});
  for (int64_t i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  GlobalAvgPool pool;
  const Tensor y = pool.forward(x, kFp);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y(0, 0), 1.5f);   // mean of 0..3
  EXPECT_FLOAT_EQ(y(0, 1), 5.5f);   // mean of 4..7
  Tensor dy(Shape{1, 2}, 4.0f);
  const Tensor dx = pool.backward(dy);
  for (int64_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(dx[i], 1.0f);
}

TEST(Pooling, AvgPool2x2) {
  Tensor x(Shape{1, 1, 2, 2});
  x[0] = 1.0f; x[1] = 2.0f; x[2] = 3.0f; x[3] = 4.0f;
  AvgPool2x2 pool;
  const Tensor y = pool.forward(x, kFp);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_THROW(pool.forward(Tensor(Shape{1, 1, 3, 3}), kFp), std::invalid_argument);
}

TEST(Loss, CrossEntropyKnownValue) {
  Tensor logits(Shape{1, 2}, 0.0f);  // uniform -> loss = ln 2
  const LossResult r = cross_entropy(logits, {0});
  EXPECT_NEAR(r.value, std::log(2.0), 1e-6);
  EXPECT_NEAR(r.grad(0, 0), 0.5f - 1.0f, 1e-6f);
  EXPECT_NEAR(r.grad(0, 1), 0.5f, 1e-6f);
}

TEST(Loss, CrossEntropyRejectsBadLabels) {
  Tensor logits(Shape{2, 3}, 0.0f);
  EXPECT_THROW(cross_entropy(logits, {0}), std::invalid_argument);
  EXPECT_THROW(cross_entropy(logits, {0, 5}), std::invalid_argument);
}

TEST(Loss, MseLossGradient) {
  Tensor a(Shape{2}, 1.0f), b(Shape{2}, 0.0f);
  const LossResult r = mse_loss(a, b);
  EXPECT_DOUBLE_EQ(r.value, 1.0);
  EXPECT_FLOAT_EQ(r.grad[0], 1.0f);  // 2*(1-0)/2
}

TEST(Sgd, GradientDescentReducesQuadratic) {
  // Minimise f(w) = 0.5 * w^2 by feeding grad = w.
  Param w(Tensor(Shape{1}, 4.0f));
  Sgd sgd({&w}, {0.1f, 0.0f, 0.0f, 0.1f, 0});
  for (int i = 0; i < 100; ++i) {
    w.grad[0] = w.value[0];
    sgd.step();
  }
  EXPECT_NEAR(w.value[0], 0.0f, 1e-3f);
}

TEST(Sgd, MomentumAcceleratesDescent) {
  Param w1(Tensor(Shape{1}, 4.0f)), w2(Tensor(Shape{1}, 4.0f));
  Sgd plain({&w1}, {0.01f, 0.0f, 0.0f, 0.1f, 0});
  Sgd mom({&w2}, {0.01f, 0.9f, 0.0f, 0.1f, 0});
  for (int i = 0; i < 20; ++i) {
    w1.grad[0] = w1.value[0];
    w2.grad[0] = w2.value[0];
    plain.step();
    mom.step();
    w1.zero_grad();
    w2.zero_grad();
  }
  EXPECT_LT(std::fabs(w2.value[0]), std::fabs(w1.value[0]));
}

TEST(Sgd, StepDecaySchedule) {
  Param w(Tensor(Shape{1}, 1.0f));
  Sgd sgd({&w}, {1.0f, 0.0f, 0.0f, 0.1f, 2});
  EXPECT_FLOAT_EQ(sgd.lr(), 1.0f);
  sgd.on_epoch_end();
  EXPECT_FLOAT_EQ(sgd.lr(), 1.0f);
  sgd.on_epoch_end();
  EXPECT_FLOAT_EQ(sgd.lr(), 0.1f);
  sgd.on_epoch_end();
  sgd.on_epoch_end();
  EXPECT_NEAR(sgd.lr(), 0.01f, 1e-6f);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Param w(Tensor(Shape{1}, 1.0f));
  Sgd sgd({&w}, {0.1f, 0.0f, 0.5f, 0.1f, 0});
  sgd.step();  // grad = 0, decay pulls toward zero
  EXPECT_LT(w.value[0], 1.0f);
}

TEST(Serialize, RoundTripPreservesParamsAndBuffers) {
  Rng rng(17);
  Sequential net;
  net.emplace<Conv2d>(Conv2dConfig{2, 3, 3, 1, 1, 1, true}, rng);
  net.emplace<BatchNorm2d>(3);
  net.emplace<ReLU>();
  // Mutate BN buffers.
  for (int i = 0; i < 5; ++i) (void)net.forward(randn(Shape{2, 2, 4, 4}, rng), kFpTrain);

  const std::string path =
      (std::filesystem::temp_directory_path() / "axnn_test_params.axnp").string();
  save_params(net, path);
  EXPECT_TRUE(is_param_file(path));

  Rng rng2(99);
  Sequential net2;
  net2.emplace<Conv2d>(Conv2dConfig{2, 3, 3, 1, 1, 1, true}, rng2);
  net2.emplace<BatchNorm2d>(3);
  net2.emplace<ReLU>();
  load_params(net2, path);

  const Tensor x = randn(Shape{1, 2, 4, 4}, rng);
  const Tensor y1 = net.forward(x, kFp);
  const Tensor y2 = net2.forward(x, kFp);
  for (int64_t i = 0; i < y1.numel(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
  std::filesystem::remove(path);
}

TEST(Serialize, MismatchedStructureThrows) {
  Rng rng(18);
  Sequential net;
  net.emplace<Linear>(4, 2, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "axnn_test_bad.axnp").string();
  save_params(net, path);
  Sequential other;
  other.emplace<Linear>(4, 3, rng);
  EXPECT_THROW(load_params(other, path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFile) {
  Sequential net;
  EXPECT_THROW(load_params(net, "/nonexistent/nope.axnp"), std::runtime_error);
  EXPECT_FALSE(is_param_file("/nonexistent/nope.axnp"));
}

TEST(LayerTree, CollectParamsAndCounts) {
  Rng rng(19);
  Sequential net;
  net.emplace<Conv2d>(Conv2dConfig{3, 4, 3, 1, 1, 1, true}, rng);   // 108 + 4
  net.emplace<Linear>(4, 2, rng);                                   // 8 + 2
  EXPECT_EQ(collect_params(net).size(), 4u);
  EXPECT_EQ(count_parameters(net), 108 + 4 + 8 + 2);
}

TEST(LayerTree, CopyStateTransfersEverything) {
  Rng rng(20);
  Sequential a, b;
  a.emplace<Conv2d>(Conv2dConfig{2, 2, 3, 1, 1, 1, true}, rng);
  a.emplace<BatchNorm2d>(2);
  b.emplace<Conv2d>(Conv2dConfig{2, 2, 3, 1, 1, 1, true}, rng);
  b.emplace<BatchNorm2d>(2);
  for (int i = 0; i < 5; ++i) (void)a.forward(randn(Shape{2, 2, 4, 4}, rng), kFpTrain);
  copy_state(a, b);
  const Tensor x = randn(Shape{1, 2, 4, 4}, rng);
  const Tensor ya = a.forward(x, kFp);
  const Tensor yb = b.forward(x, kFp);
  for (int64_t i = 0; i < ya.numel(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(LayerTree, ZeroGradRecursive) {
  Rng rng(21);
  Sequential net;
  net.emplace<Conv2d>(Conv2dConfig{1, 1, 3, 1, 1, 1, true}, rng);
  auto params = collect_params(net);
  params[0]->grad.fill(5.0f);
  net.zero_grad();
  EXPECT_FLOAT_EQ(params[0]->grad[0], 0.0f);
}

}  // namespace
}  // namespace axnn::nn
