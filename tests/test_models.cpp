// Tests for the model zoo: ResNet20/32, MobileNetV2, blocks, BN folding,
// parameter/MAC accounting.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <utility>

#include "axnn/approx/signed_lut.hpp"
#include "axnn/axmul/registry.hpp"
#include "axnn/models/blocks.hpp"
#include "axnn/nn/loss.hpp"
#include "axnn/nn/sgd.hpp"
#include "axnn/models/mobilenetv2.hpp"
#include "axnn/models/model_info.hpp"
#include "axnn/models/resnet.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/quant/calibration.hpp"
#include "axnn/tensor/ops.hpp"

namespace axnn::models {
namespace {

const nn::ExecContext kFp = nn::ExecContext::fp();
const nn::ExecContext kFpTrain = nn::ExecContext::fp(/*training=*/true);

TEST(ResNet, OutputShapeAndDeterminism) {
  auto net = make_resnet20(0.25f, 7);
  Rng rng(1);
  const Tensor x = randn(Shape{2, 3, 16, 16}, rng);
  const Tensor y = net->forward(x, kFp);
  EXPECT_EQ(y.shape(), (Shape{2, 10}));
  // Same seed -> identical weights -> identical outputs.
  auto net2 = make_resnet20(0.25f, 7);
  const Tensor y2 = net2->forward(x, kFp);
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], y2[i]);
}

TEST(ResNet, DepthsDiffer) {
  auto r20 = make_resnet20(0.25f);
  auto r32 = make_resnet32(0.25f);
  // ResNet32 has 6*5+2 = 32 conv-equivalent depth vs 20; more params.
  EXPECT_GT(nn::count_parameters(*r32), nn::count_parameters(*r20));
}

TEST(ResNet, FullWidthParameterCountNearPaper) {
  // Paper Table I: ResNet20 has ~0.3M params (CIFAR10 variant ~0.27M).
  auto net = make_resnet20(1.0f);
  const int64_t params = nn::count_parameters(*net);
  EXPECT_GT(params, 250000);
  EXPECT_LT(params, 350000);
  auto net32 = make_resnet32(1.0f);
  const int64_t params32 = nn::count_parameters(*net32);
  EXPECT_GT(params32, 430000);  // paper: ~0.5M
  EXPECT_LT(params32, 570000);
}

TEST(ResNet, MacCountScalesWithInputArea) {
  auto net = make_resnet20(0.25f);
  const auto i16 = inspect_model(*net, 3, 16, 16);
  const auto i32 = inspect_model(*net, 3, 32, 32);
  EXPECT_NEAR(static_cast<double>(i32.macs_per_sample) / static_cast<double>(i16.macs_per_sample),
              4.0, 0.3);
}

TEST(ResNet, FullWidthMacsNearPaper) {
  // Paper Table I: ResNet20 = 0.041 GMACs on 32x32 inputs.
  auto net = make_resnet20(1.0f);
  const auto info = inspect_model(*net, 3, 32, 32);
  EXPECT_GT(info.macs_per_sample, 30000000);
  EXPECT_LT(info.macs_per_sample, 50000000);
}

TEST(ResNet, TrainingReducesLoss) {
  // One SGD step on a fixed batch should reduce the loss (sanity of the full
  // backward path through residual blocks).
  auto net = make_resnet20(0.25f, 3);
  Rng rng(5);
  const Tensor x = randn(Shape{8, 3, 16, 16}, rng);
  const std::vector<int> labels = {0, 1, 2, 3, 4, 5, 6, 7};
  nn::Sgd sgd(nn::collect_params(*net), {0.05f, 0.0f, 0.0f, 0.1f, 0});
  const Tensor y0 = net->forward(x, kFpTrain);
  const double loss0 = nn::cross_entropy(y0, labels).value;
  double loss = loss0;
  for (int i = 0; i < 5; ++i) {
    net->zero_grad();
    const Tensor y = net->forward(x, kFpTrain);
    const auto l = nn::cross_entropy(y, labels);
    (void)net->backward(l.grad);
    sgd.step();
    loss = l.value;
  }
  EXPECT_LT(loss, loss0);
}

TEST(ResNet, FoldBatchnormsPreservesEvalOutput) {
  auto net = make_resnet20(0.25f, 11);
  Rng rng(6);
  // Realistic running stats before folding.
  for (int i = 0; i < 10; ++i) (void)net->forward(randn(Shape{8, 3, 16, 16}, rng), kFpTrain);
  const Tensor x = randn(Shape{4, 3, 16, 16}, rng);
  const Tensor ref = net->forward(x, kFp);
  const int64_t params_before = nn::count_parameters(*net);
  net->fold_batchnorms();
  const Tensor folded = net->forward(x, kFp);
  for (int64_t i = 0; i < ref.numel(); ++i) EXPECT_NEAR(folded[i], ref[i], 2e-2f);
  // BN gamma/beta disappear; conv biases appear.
  EXPECT_NE(nn::count_parameters(*net), params_before);
  EXPECT_TRUE(nn::collect_buffers(*net).empty());
}

TEST(MobileNetV2, OutputShapeSmallPreset) {
  auto net = make_mobilenet_v2({0.25f, 10, true, 3});
  Rng rng(7);
  const Tensor x = randn(Shape{2, 3, 16, 16}, rng);
  const Tensor y = net->forward(x, kFpTrain);
  EXPECT_EQ(y.shape(), (Shape{2, 10}));
}

TEST(MobileNetV2, FullPresetBiggerThanSmall) {
  auto small = make_mobilenet_v2({0.5f, 10, true, 3});
  auto full = make_mobilenet_v2({0.5f, 10, false, 3});
  EXPECT_GT(nn::count_parameters(*full), nn::count_parameters(*small));
}

TEST(MobileNetV2, FullWidthParamsNearPaper) {
  // Paper Table I: MobileNetV2 = 2.2M params.
  auto net = make_mobilenet_v2({1.0f, 10, /*small_preset=*/false, 3});
  const int64_t params = nn::count_parameters(*net);
  EXPECT_GT(params, 1700000);
  EXPECT_LT(params, 2700000);
}

TEST(MobileNetV2, BackwardRunsThroughInvertedResiduals) {
  auto net = make_mobilenet_v2({0.25f, 10, true, 3});
  Rng rng(8);
  const Tensor x = randn(Shape{2, 3, 16, 16}, rng);
  const std::vector<int> labels = {1, 2};
  net->zero_grad();
  const Tensor y = net->forward(x, kFpTrain);
  const auto l = nn::cross_entropy(y, labels);
  EXPECT_NO_THROW((void)net->backward(l.grad));
  // Every parameter receives some gradient signal.
  int64_t touched = 0;
  for (auto* p : nn::collect_params(*net))
    for (int64_t i = 0; i < p->grad.numel(); ++i) touched += (p->grad[i] != 0.0f);
  EXPECT_GT(touched, 0);
}

TEST(BasicBlock, IdentityShortcutShape) {
  Rng rng(9);
  BasicBlock block(4, 4, 1, rng);
  const Tensor x = randn(Shape{2, 4, 8, 8}, rng);
  EXPECT_EQ(block.forward(x, kFpTrain).shape(), x.shape());
  EXPECT_EQ(block.children().size(), 1u);  // no shortcut sequential
}

TEST(BasicBlock, DownsampleShortcutShape) {
  Rng rng(10);
  BasicBlock block(4, 8, 2, rng);
  const Tensor x = randn(Shape{2, 4, 8, 8}, rng);
  EXPECT_EQ(block.forward(x, kFpTrain).shape(), (Shape{2, 8, 4, 4}));
  EXPECT_EQ(block.children().size(), 2u);
}

TEST(BasicBlock, OutputIsNonNegative) {
  Rng rng(11);
  BasicBlock block(3, 3, 1, rng);
  const Tensor y = block.forward(randn(Shape{2, 3, 6, 6}, rng), kFpTrain);
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_GE(y[i], 0.0f);
}

/// Bitwise equality (signed zeros and NaN payloads included).
void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<size_t>(a.numel())));
}

/// Warm the BatchNorm running statistics, fold them into the convolutions
/// (so training and inference forwards compute the same function) and
/// calibrate the quantizers.
void warm_fold_calibrate(nn::Layer& net, const Shape& batch, Rng& rng) {
  for (int i = 0; i < 5; ++i) (void)net.forward(randn(batch, rng, 0.2f, 0.8f), kFpTrain);
  net.fold_batchnorms();
  (void)net.forward(randn(batch, rng, 0.2f, 0.8f), nn::ExecContext::calibrate());
  nn::finalize_calibration_recursive(net, quant::Calibration::kMinMse);
}

TEST(BasicBlock, BackwardAfterInferenceForwardThrows) {
  Rng rng(12);
  BasicBlock block(3, 3, 1, rng);
  const Tensor x = randn(Shape{2, 3, 6, 6}, rng);
  const Tensor y = block.forward(x, kFp);
  EXPECT_THROW((void)block.backward(Tensor(y.shape(), 1.0f)), std::logic_error);
  (void)block.forward(x, kFpTrain);
  EXPECT_NO_THROW((void)block.backward(Tensor(y.shape(), 1.0f)));
}

TEST(BasicBlock, InferenceForwardMatchesTrainingForwardBitwise) {
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  for (const int64_t stride : {1, 2}) {  // identity and projection shortcut
    Rng rng(13);
    BasicBlock block(4, stride == 1 ? 4 : 8, stride, rng);
    const Shape batch{2, 4, 6, 6};
    warm_fold_calibrate(block, batch, rng);
    const Tensor x = randn(batch, rng, 0.2f, 0.8f);
    for (const auto& [infer, train] :
         {std::pair{kFp, kFpTrain},
          std::pair{nn::ExecContext::quant_approx(tab),
                    nn::ExecContext::quant_approx(tab, nullptr, true)}}) {
      const Tensor yi = block.forward(x, infer);
      expect_bitwise_equal(yi, block.forward(x, train));
      expect_bitwise_equal(yi, block.forward(x, infer));
    }
  }
}

TEST(ResNet, FoldedTrunc5InferenceForwardMatchesTrainingForwardBitwise) {
  // The served configuration: BN folded, every leaf on trunc5 through a
  // resolved plan (with per-layer GE fits, which only training forwards
  // use).
  auto net = make_resnet20(0.25f, 14);
  Rng rng(15);
  const Shape batch{4, 3, 8, 8};
  warm_fold_calibrate(*net, batch, rng);
  nn::ResolveOptions ro;
  ro.fit_ge = true;
  const nn::PlanResolution res = nn::NetPlan::parse("default=trunc5").resolve(*net, ro);
  const auto ctx = nn::ExecContext{.mode = nn::ExecMode::kQuantApprox}.with_plan(res);
  auto train = ctx;
  train.training = true;
  const Tensor x = randn(batch, rng, 0.2f, 0.8f);
  const Tensor yi = net->forward(x, ctx);
  expect_bitwise_equal(yi, net->forward(x, train));
  expect_bitwise_equal(yi, net->forward(x, ctx));
}

TEST(InvertedResidual, SkipOnlyWhenShapePreserved) {
  Rng rng(12);
  EXPECT_TRUE(InvertedResidual(8, 8, 1, 6, rng).has_skip());
  EXPECT_FALSE(InvertedResidual(8, 16, 1, 6, rng).has_skip());
  EXPECT_FALSE(InvertedResidual(8, 8, 2, 6, rng).has_skip());
}

TEST(InvertedResidual, ExpandRatioOneSkipsExpansion) {
  Rng rng(13);
  InvertedResidual b1(8, 8, 1, 1, rng);
  InvertedResidual b6(8, 8, 1, 6, rng);
  EXPECT_LT(nn::count_parameters(b1), nn::count_parameters(b6));
  const Tensor x = randn(Shape{1, 8, 4, 4}, rng);
  EXPECT_EQ(b1.forward(x, kFpTrain).shape(), x.shape());
}

TEST(InvertedResidual, RejectsBadExpandRatio) {
  Rng rng(14);
  EXPECT_THROW(InvertedResidual(4, 4, 1, 0, rng), std::invalid_argument);
}

TEST(ModelInfo, InspectCountsBoth) {
  auto net = make_resnet20(0.25f);
  const auto info = inspect_model(*net, 3, 16, 16);
  EXPECT_GT(info.parameters, 0);
  EXPECT_GT(info.macs_per_sample, 0);
  EXPECT_EQ(info.parameters, nn::count_parameters(*net));
}

}  // namespace
}  // namespace axnn::models
