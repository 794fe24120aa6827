// axnn — composite residual blocks (ResNet basic block, MobileNetV2
// inverted residual).
#pragma once

#include <memory>
#include <optional>

#include "axnn/nn/activations.hpp"
#include "axnn/nn/sequential.hpp"

namespace axnn::models {

/// ResNet basic block: relu(main(x) + shortcut(x)), with
/// main = conv3x3(s)-bn-relu-conv3x3(1)-bn and shortcut = identity or
/// conv1x1(s)-bn when the shape changes.
class BasicBlock final : public nn::Layer {
public:
  BasicBlock(int64_t in_channels, int64_t out_channels, int64_t stride, Rng& rng);

  std::string name() const override { return "basic_block"; }
  Tensor forward(const Tensor& x, const nn::ExecContext& ctx) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<nn::Layer*> children() override;

private:
  nn::Sequential main_;
  std::unique_ptr<nn::Sequential> shortcut_;  ///< null = identity
  std::optional<Tensor> relu_mask_;  ///< kept only by a training forward
};

/// MobileNetV2 inverted residual: optional skip over
/// [1x1 expand - bn - relu6] (omitted when expand == 1), 3x3 depthwise(s) -
/// bn - relu6, 1x1 project - bn (linear bottleneck).
class InvertedResidual final : public nn::Layer {
public:
  InvertedResidual(int64_t in_channels, int64_t out_channels, int64_t stride,
                   int64_t expand_ratio, Rng& rng);

  std::string name() const override { return "inverted_residual"; }
  Tensor forward(const Tensor& x, const nn::ExecContext& ctx) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<nn::Layer*> children() override { return {&path_}; }

  bool has_skip() const { return use_skip_; }

private:
  nn::Sequential path_;
  bool use_skip_ = false;
};

}  // namespace axnn::models
