#include "axnn/nn/activations.hpp"

#include <stdexcept>

namespace axnn::nn {

namespace {

/// dx = dy * mask, after a training forward kept the mask.
Tensor gate(const Layer& layer, const std::optional<Tensor>& mask, const Tensor& dy) {
  if (!mask) throw_no_backward_state(layer);
  if (dy.shape() != mask->shape())
    throw std::invalid_argument(layer.name() + "::backward: shape mismatch");
  Tensor dx(dy.shape());
  for (int64_t i = 0; i < dy.numel(); ++i) dx[i] = dy[i] * (*mask)[i];
  return dx;
}

}  // namespace

Tensor ReLU::forward(const Tensor& x, const ExecContext& ctx) {
  Tensor y(x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  mask_.reset();
  if (ctx.training) {
    Tensor& m = mask_.emplace(x.shape());
    for (int64_t i = 0; i < x.numel(); ++i) m[i] = x[i] > 0.0f ? 1.0f : 0.0f;
  }
  return y;
}

Tensor ReLU::backward(const Tensor& dy) { return gate(*this, mask_, dy); }

Tensor ReLU6::forward(const Tensor& x, const ExecContext& ctx) {
  Tensor y(x.shape());
  for (int64_t i = 0; i < x.numel(); ++i)
    y[i] = x[i] <= 0.0f ? 0.0f : (x[i] >= 6.0f ? 6.0f : x[i]);
  mask_.reset();
  if (ctx.training) {
    Tensor& m = mask_.emplace(x.shape());
    for (int64_t i = 0; i < x.numel(); ++i) m[i] = x[i] > 0.0f && x[i] < 6.0f ? 1.0f : 0.0f;
  }
  return y;
}

Tensor ReLU6::backward(const Tensor& dy) { return gate(*this, mask_, dy); }

}  // namespace axnn::nn
