#include "axnn/models/blocks.hpp"

#include <stdexcept>

#include "axnn/nn/batchnorm.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/tensor/ops.hpp"

namespace axnn::models {

using nn::BatchNorm2d;
using nn::Conv2d;
using nn::Conv2dConfig;
using nn::ExecContext;
using nn::ReLU;
using nn::ReLU6;

BasicBlock::BasicBlock(int64_t in_channels, int64_t out_channels, int64_t stride, Rng& rng)
    : main_("basic_block_main") {
  main_.emplace<Conv2d>(
      Conv2dConfig{in_channels, out_channels, 3, stride, 1, 1, /*bias=*/false}, rng);
  main_.emplace<BatchNorm2d>(out_channels);
  main_.emplace<ReLU>();
  main_.emplace<Conv2d>(Conv2dConfig{out_channels, out_channels, 3, 1, 1, 1, false}, rng);
  main_.emplace<BatchNorm2d>(out_channels);

  if (stride != 1 || in_channels != out_channels) {
    shortcut_ = std::make_unique<nn::Sequential>("basic_block_shortcut");
    shortcut_->emplace<Conv2d>(
        Conv2dConfig{in_channels, out_channels, 1, stride, 0, 1, false}, rng);
    shortcut_->emplace<BatchNorm2d>(out_channels);
  }
}

Tensor BasicBlock::forward(const Tensor& x, const ExecContext& ctx) {
  // Telemetry path segments match children() order (plan paths; the names
  // are unique siblings, so no "#k" suffix is ever needed here). The
  // shortcut sum and the ReLU run in place on the main path's output.
  Tensor y;
  {
    obs::ScopedPath scope("basic_block_main");
    y = main_.forward(x, ctx);
  }
  if (shortcut_) {
    obs::ScopedPath scope("basic_block_shortcut");
    ops::add_inplace(y, shortcut_->forward(x, ctx));
  } else {
    ops::add_inplace(y, x);
  }
  relu_mask_.reset();
  if (ctx.training) {
    Tensor& m = relu_mask_.emplace(y.shape());
    for (int64_t i = 0; i < y.numel(); ++i) m[i] = y[i] > 0.0f ? 1.0f : 0.0f;
  }
  for (int64_t i = 0; i < y.numel(); ++i) y[i] = y[i] > 0.0f ? y[i] : 0.0f;
  return y;
}

Tensor BasicBlock::backward(const Tensor& dy) {
  if (!relu_mask_) nn::throw_no_backward_state(*this);
  if (dy.shape() != relu_mask_->shape())
    throw std::invalid_argument("BasicBlock::backward: dy shape mismatch");
  Tensor dz = ops::mul(dy, *relu_mask_);
  Tensor da = main_.backward(dz);
  Tensor db = shortcut_ ? shortcut_->backward(dz) : dz;
  return ops::add(da, db);
}

std::vector<nn::Layer*> BasicBlock::children() {
  std::vector<nn::Layer*> c{&main_};
  if (shortcut_) c.push_back(shortcut_.get());
  return c;
}

InvertedResidual::InvertedResidual(int64_t in_channels, int64_t out_channels, int64_t stride,
                                   int64_t expand_ratio, Rng& rng)
    : path_("inverted_residual_path") {
  if (expand_ratio < 1) throw std::invalid_argument("InvertedResidual: expand_ratio >= 1");
  const int64_t hidden = in_channels * expand_ratio;
  use_skip_ = (stride == 1 && in_channels == out_channels);

  if (expand_ratio != 1) {
    path_.emplace<Conv2d>(Conv2dConfig{in_channels, hidden, 1, 1, 0, 1, false}, rng);
    path_.emplace<BatchNorm2d>(hidden);
    path_.emplace<ReLU6>();
  }
  // Depthwise 3x3.
  path_.emplace<Conv2d>(Conv2dConfig{hidden, hidden, 3, stride, 1, hidden, false}, rng);
  path_.emplace<BatchNorm2d>(hidden);
  path_.emplace<ReLU6>();
  // Linear bottleneck projection.
  path_.emplace<Conv2d>(Conv2dConfig{hidden, out_channels, 1, 1, 0, 1, false}, rng);
  path_.emplace<BatchNorm2d>(out_channels);
}

Tensor InvertedResidual::forward(const Tensor& x, const ExecContext& ctx) {
  Tensor y;
  {
    obs::ScopedPath scope("inverted_residual_path");
    y = path_.forward(x, ctx);
  }
  if (use_skip_) ops::add_inplace(y, x);
  return y;
}

Tensor InvertedResidual::backward(const Tensor& dy) {
  Tensor dx = path_.backward(dy);
  if (use_skip_) ops::add_inplace(dx, dy);
  return dx;
}

}  // namespace axnn::models
