// axnn — activation layers (ReLU, ReLU6).
#pragma once

#include <optional>

#include "axnn/nn/layer.hpp"

namespace axnn::nn {

/// y = max(x, 0).
class ReLU final : public Layer {
public:
  std::string name() const override { return "relu"; }
  Tensor forward(const Tensor& x, const ExecContext& ctx) override;
  Tensor backward(const Tensor& dy) override;

private:
  std::optional<Tensor> mask_;  ///< gradient gate, kept only by a training forward
};

/// y = min(max(x, 0), 6) — MobileNetV2's bounded activation; the bound keeps
/// 8-bit activation ranges tight.
class ReLU6 final : public Layer {
public:
  std::string name() const override { return "relu6"; }
  Tensor forward(const Tensor& x, const ExecContext& ctx) override;
  Tensor backward(const Tensor& dy) override;

private:
  std::optional<Tensor> mask_;  ///< gradient gate, kept only by a training forward
};

}  // namespace axnn::nn
