// Numerical gradient checks for every differentiable layer, plus algebraic
// checks of the STE and GE backward paths (which are not differentiable and
// therefore verified against their defining equations instead).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>

#include "axnn/approx/signed_lut.hpp"
#include "axnn/axmul/registry.hpp"
#include "axnn/kd/distill.hpp"
#include "axnn/models/blocks.hpp"
#include "axnn/nn/activations.hpp"
#include "axnn/nn/batchnorm.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/linear.hpp"
#include "axnn/nn/loss.hpp"
#include "axnn/nn/pooling.hpp"
#include "axnn/nn/sequential.hpp"
#include "axnn/tensor/ops.hpp"

namespace axnn::nn {
namespace {

const ExecContext kFp = ExecContext::fp();
const ExecContext kFpTrain = ExecContext::fp(/*training=*/true);

/// Loss functional: L = sum(forward(x) * r) for a fixed random projection r.
/// Checks dL/dx (returned by backward(r)) and dL/dtheta (accumulated in
/// param grads) against central differences.
void gradcheck_layer(Layer& layer, const Tensor& x0, const ExecContext& ctx,
                     float tol = 2e-2f, int max_checks = 24) {
  Rng rng(4242);
  Tensor x = x0;
  Tensor y = layer.forward(x, ctx);
  const Tensor r = randn(y.shape(), rng);

  layer.zero_grad();
  y = layer.forward(x, ctx);
  const Tensor dx = layer.backward(r);

  const auto loss_at = [&]() {
    const Tensor yy = layer.forward(x, ctx);
    double s = 0.0;
    for (int64_t i = 0; i < yy.numel(); ++i) s += static_cast<double>(yy[i]) * r[i];
    return s;
  };

  const float eps = 1e-3f;
  // Input gradient.
  const int64_t stride_x = std::max<int64_t>(1, x.numel() / max_checks);
  for (int64_t i = 0; i < x.numel(); i += stride_x) {
    const float orig = x[i];
    x[i] = orig + eps;
    const double lp = loss_at();
    x[i] = orig - eps;
    const double lm = loss_at();
    x[i] = orig;
    const double num = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(dx[i], num, tol * std::max(1.0, std::abs(num))) << "input element " << i;
  }
  // Parameter gradients.
  for (Param* p : collect_params(layer)) {
    const int64_t stride_p = std::max<int64_t>(1, p->value.numel() / max_checks);
    for (int64_t i = 0; i < p->value.numel(); i += stride_p) {
      const float orig = p->value[i];
      p->value[i] = orig + eps;
      const double lp = loss_at();
      p->value[i] = orig - eps;
      const double lm = loss_at();
      p->value[i] = orig;
      const double num = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(p->grad[i], num, tol * std::max(1.0, std::abs(num)))
          << "param element " << i;
    }
  }
}

TEST(GradCheck, Conv2dStandard) {
  Rng rng(1);
  Conv2d conv({3, 4, 3, 1, 1, 1, true}, rng);
  gradcheck_layer(conv, randn(Shape{2, 3, 5, 5}, rng), kFpTrain);
}

TEST(GradCheck, Conv2dStridedNoBias) {
  Rng rng(2);
  Conv2d conv({2, 3, 3, 2, 1, 1, false}, rng);
  gradcheck_layer(conv, randn(Shape{2, 2, 6, 6}, rng), kFpTrain);
}

TEST(GradCheck, Conv2dDepthwise) {
  Rng rng(3);
  Conv2d conv({4, 4, 3, 1, 1, 4, true}, rng);
  gradcheck_layer(conv, randn(Shape{2, 4, 5, 5}, rng), kFpTrain);
}

TEST(GradCheck, Conv2dGrouped1x1) {
  Rng rng(4);
  Conv2d conv({4, 6, 1, 1, 0, 2, true}, rng);
  gradcheck_layer(conv, randn(Shape{2, 4, 4, 4}, rng), kFpTrain);
}

TEST(GradCheck, Linear) {
  Rng rng(5);
  Linear lin(7, 4, rng);
  gradcheck_layer(lin, randn(Shape{3, 7}, rng), kFpTrain);
}

TEST(GradCheck, BatchNormTraining) {
  Rng rng(6);
  BatchNorm2d bn(3);
  bn.gamma().value[1] = 1.4f;
  bn.beta().value[2] = -0.3f;
  // Slightly loose tolerance: the batch statistics couple all elements.
  gradcheck_layer(bn, randn(Shape{3, 3, 4, 4}, rng), kFpTrain, 4e-2f);
}

TEST(GradCheck, BatchNormEval) {
  // An eval-mode forward is inference only: it keeps no backward state, and
  // drops what the earlier training forwards kept.
  Rng rng(7);
  BatchNorm2d bn(2);
  for (int i = 0; i < 10; ++i) (void)bn.forward(randn(Shape{4, 2, 4, 4}, rng), kFpTrain);
  const Tensor y = bn.forward(randn(Shape{2, 2, 4, 4}, rng), kFp);
  EXPECT_THROW((void)bn.backward(Tensor(y.shape(), 1.0f)), std::logic_error);
}

TEST(GradCheck, GlobalAvgPool) {
  Rng rng(8);
  GlobalAvgPool pool;
  gradcheck_layer(pool, randn(Shape{2, 3, 4, 4}, rng), kFp);
}

TEST(GradCheck, AvgPool2x2) {
  Rng rng(9);
  AvgPool2x2 pool;
  gradcheck_layer(pool, randn(Shape{2, 2, 4, 4}, rng), kFp);
}

TEST(GradCheck, SequentialComposition) {
  Rng rng(10);
  Sequential net;
  net.emplace<Conv2d>(Conv2dConfig{2, 3, 3, 1, 1, 1, true}, rng);
  net.emplace<ReLU>();
  net.emplace<GlobalAvgPool>();
  net.emplace<Linear>(3, 2, rng);
  // ReLU kinks break central differences at 0; shift inputs away from 0.
  gradcheck_layer(net, randn(Shape{2, 2, 5, 5}, rng, 0.5f, 1.0f), kFpTrain, 4e-2f);
}

// Residual blocks contain BatchNorm; in training mode a single-element
// perturbation shifts the whole channel's batch statistics, which in turn
// moves every downstream ReLU relative to its kink — central differences
// become unreliable. Blocks therefore warm their running statistics, fold
// the BNs into the convolutions (the eval-mode function, as the ResNets
// deploy it) and are checked in training mode, the only mode that keeps
// backward state (the BN train-mode backward is covered by
// GradCheck.BatchNormTraining).
template <typename Block>
void warm_and_gradcheck(Block& block, const Tensor& x, Rng& rng, float tol) {
  for (int i = 0; i < 20; ++i)
    (void)block.forward(randn(x.shape(), rng, 0.2f, 0.8f), kFpTrain);
  block.fold_batchnorms();
  gradcheck_layer(block, x, kFpTrain, tol, 12);
}

TEST(GradCheck, BasicBlockResidual) {
  Rng rng(11);
  models::BasicBlock block(3, 3, 1, rng);
  warm_and_gradcheck(block, randn(Shape{2, 3, 4, 4}, rng, 0.3f, 1.0f), rng, 6e-2f);
}

TEST(GradCheck, BasicBlockDownsample) {
  Rng rng(12);
  models::BasicBlock block(2, 4, 2, rng);
  warm_and_gradcheck(block, randn(Shape{2, 2, 6, 6}, rng, 0.3f, 1.0f), rng, 6e-2f);
}

TEST(GradCheck, InvertedResidualWithSkip) {
  Rng rng(13);
  models::InvertedResidual block(4, 4, 1, 2, rng);
  EXPECT_TRUE(block.has_skip());
  warm_and_gradcheck(block, randn(Shape{2, 4, 4, 4}, rng, 0.3f, 0.7f), rng, 8e-2f);
}

TEST(GradCheck, InvertedResidualNoSkip) {
  Rng rng(14);
  models::InvertedResidual block(3, 5, 2, 2, rng);
  EXPECT_FALSE(block.has_skip());
  warm_and_gradcheck(block, randn(Shape{2, 3, 6, 6}, rng, 0.3f, 0.7f), rng, 8e-2f);
}

// ---- loss gradient checks (scalar losses, full finite differences) ----

void gradcheck_loss(const std::function<LossResult(const Tensor&)>& loss_fn, Tensor logits,
                    float tol = 1e-3f) {
  const LossResult r = loss_fn(logits);
  const float eps = 1e-3f;
  for (int64_t i = 0; i < logits.numel(); ++i) {
    const float orig = logits[i];
    logits[i] = orig + eps;
    const double lp = loss_fn(logits).value;
    logits[i] = orig - eps;
    const double lm = loss_fn(logits).value;
    logits[i] = orig;
    const double num = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(r.grad[i], num, tol * std::max(1.0, std::abs(num))) << "logit " << i;
  }
}

TEST(GradCheck, CrossEntropyLoss) {
  Rng rng(15);
  const std::vector<int> labels = {1, 0, 2};
  gradcheck_loss([&](const Tensor& y) { return cross_entropy(y, labels); },
                 randn(Shape{3, 3}, rng, 0.0f, 2.0f));
}

TEST(GradCheck, SoftCrossEntropyAllTemperatures) {
  Rng rng(16);
  const Tensor teacher = randn(Shape{2, 5}, rng, 0.0f, 2.0f);
  for (float t : {1.0f, 2.0f, 5.0f, 10.0f}) {
    gradcheck_loss(
        [&](const Tensor& y) { return kd::soft_cross_entropy(y, teacher, t); },
        randn(Shape{2, 5}, rng, 0.0f, 2.0f), 2e-3f);
  }
}

TEST(GradCheck, DistillationLoss) {
  Rng rng(17);
  const Tensor teacher = randn(Shape{3, 4}, rng, 0.0f, 2.0f);
  const std::vector<int> labels = {0, 3, 1};
  gradcheck_loss(
      [&](const Tensor& y) { return kd::distillation_loss(y, teacher, labels, 5.0f); },
      randn(Shape{3, 4}, rng, 0.0f, 2.0f), 2e-3f);
}

TEST(GradCheck, MseLoss) {
  Rng rng(18);
  const Tensor target = randn(Shape{4}, rng);
  gradcheck_loss([&](const Tensor& y) { return mse_loss(y, target); },
                 randn(Shape{4}, rng));
}

// ---- STE / GE backward (algebraic checks; quant forward is a staircase) ----

TEST(SteBackward, QuantExactGradMatchesFakeQuantReference) {
  // Eq. 5: the backward of the quantized layer is the exact-GEMM gradient
  // evaluated at the fake-quantized operands.
  Rng rng(19);
  Conv2d conv({2, 3, 3, 1, 1, 1, false}, rng);
  const Tensor x = randn(Shape{2, 2, 5, 5}, rng, 0.0f, 0.5f);
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);

  const ExecContext train = ExecContext::quant_exact(/*training=*/true);
  Tensor y = conv.forward(x, train);
  const Tensor r = randn(y.shape(), rng);
  conv.zero_grad();
  y = conv.forward(x, train);
  (void)conv.backward(r);
  const Tensor dw_quant = conv.weight().grad;

  // Reference: a float conv whose weights/input are pre-fake-quantized.
  Conv2d ref({2, 3, 3, 1, 1, 1, false}, rng);
  ref.weight().value = quant::fake_quantize(conv.weight().value, conv.weight_qparams());
  const Tensor xq = quant::fake_quantize(x, conv.act_qparams());
  (void)ref.forward(xq, kFpTrain);
  ref.zero_grad();
  (void)ref.forward(xq, kFpTrain);
  (void)ref.backward(r);
  for (int64_t i = 0; i < dw_quant.numel(); ++i)
    EXPECT_NEAR(dw_quant[i], ref.weight().grad[i], 1e-3f);
}

TEST(GeBackward, WeightGradScaledByOnePlusK) {
  // Eq. 12: with an error fit of slope k whose linear region covers every
  // accumulator, the GE weight gradient is exactly (1+k) times the STE one.
  Rng rng(20);
  Conv2d conv({2, 3, 3, 1, 1, 1, false}, rng);
  const Tensor x = randn(Shape{2, 2, 5, 5}, rng, 0.0f, 0.5f);
  (void)conv.forward(x, ExecContext::calibrate());
  conv.finalize_calibration(quant::Calibration::kMinPropQE);

  const approx::SignedMulTable tab(axmul::make_lut("trunc4"));
  Tensor y = conv.forward(x, ExecContext::quant_approx(tab, nullptr, /*training=*/true));
  const Tensor r = randn(y.shape(), rng);

  conv.zero_grad();
  (void)conv.forward(x, ExecContext::quant_approx(tab, nullptr, /*training=*/true));
  (void)conv.backward(r);
  const Tensor dw_ste = conv.weight().grad;

  ge::ErrorFit fit;
  fit.k = -0.25;
  fit.c = 0.0;
  fit.a = 1e9;   // linear region covers everything
  fit.b = -1e9;
  conv.zero_grad();
  (void)conv.forward(x, ExecContext::quant_approx(tab, &fit, /*training=*/true));
  (void)conv.backward(r);
  const Tensor dw_ge = conv.weight().grad;

  for (int64_t i = 0; i < dw_ste.numel(); ++i)
    EXPECT_NEAR(dw_ge[i], 0.75f * dw_ste[i], 1e-4f + 1e-4f * std::fabs(dw_ste[i]));
}

TEST(GeBackward, ConstantFitIsExactlySTE) {
  // Paper Sec. III-C: if df/dy == 0, GE backward == STE backward.
  Rng rng(21);
  Linear lin(6, 3, rng);
  const Tensor x = randn(Shape{4, 6}, rng, 0.0f, 0.5f);
  (void)lin.forward(x, ExecContext::calibrate());
  lin.finalize_calibration(quant::Calibration::kMinPropQE);

  const approx::SignedMulTable tab(axmul::make_lut("evoa228"));
  Tensor y = lin.forward(x, ExecContext::quant_approx(tab, nullptr, /*training=*/true));
  const Tensor r = randn(y.shape(), rng);

  lin.zero_grad();
  (void)lin.forward(x, ExecContext::quant_approx(tab, nullptr, /*training=*/true));
  (void)lin.backward(r);
  const Tensor dw_ste = lin.weight().grad;

  ge::ErrorFit fit;  // k == 0 -> constant
  fit.c = 42.0;
  fit.a = 100.0;
  fit.b = -100.0;
  lin.zero_grad();
  (void)lin.forward(x, ExecContext::quant_approx(tab, &fit, /*training=*/true));
  (void)lin.backward(r);
  for (int64_t i = 0; i < dw_ste.numel(); ++i)
    EXPECT_FLOAT_EQ(lin.weight().grad[i], dw_ste[i]);
}

TEST(GeBackward, ClampedRegionsGetNoScaling) {
  // Elements whose accumulator falls in the clamped region keep the plain
  // STE gradient (K = 0 there, Eq. 13).
  Rng rng(22);
  Linear lin(4, 2, rng);
  const Tensor x = randn(Shape{2, 4}, rng, 0.0f, 0.5f);
  (void)lin.forward(x, ExecContext::calibrate());
  lin.finalize_calibration(quant::Calibration::kMinPropQE);

  const approx::SignedMulTable tab(axmul::make_lut("trunc3"));
  Tensor y = lin.forward(x, ExecContext::quant_approx(tab, nullptr, /*training=*/true));
  const Tensor r(y.shape(), 1.0f);

  ge::ErrorFit fit;
  fit.k = -0.5;
  fit.c = 1e12;  // linear value always above a -> always clamped
  fit.a = 1.0;
  fit.b = -1.0;
  lin.zero_grad();
  (void)lin.forward(x, ExecContext::quant_approx(tab, &fit, /*training=*/true));
  (void)lin.backward(r);
  const Tensor dw_clamped = lin.weight().grad;

  lin.zero_grad();
  (void)lin.forward(x, ExecContext::quant_approx(tab, nullptr, /*training=*/true));
  (void)lin.backward(r);
  for (int64_t i = 0; i < dw_clamped.numel(); ++i)
    EXPECT_FLOAT_EQ(dw_clamped[i], lin.weight().grad[i]);
}

}  // namespace
}  // namespace axnn::nn
