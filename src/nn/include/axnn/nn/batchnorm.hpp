// axnn — 2-D batch normalization.
//
// Kept as an explicit float layer (MobileNetV2 path in the paper); for the
// ResNets the paper folds BN into the preceding convolution before
// quantization — see fold_into() and models::fold_batchnorms().
#pragma once

#include <optional>

#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/layer.hpp"

namespace axnn::nn {

class BatchNorm2d final : public Layer {
public:
  explicit BatchNorm2d(int64_t channels, float eps = 1e-5f, float momentum = 0.1f);

  std::string name() const override;
  Tensor forward(const Tensor& x, const ExecContext& ctx) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> buffers() override { return {&running_mean_, &running_var_}; }

  int64_t channels() const { return channels_; }
  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }
  float eps() const { return eps_; }

  /// Fold this layer's affine transform into the preceding convolution
  /// (y = gamma*(conv(x)-mean)/sqrt(var+eps) + beta). Uses running
  /// statistics; the BN layer must be removed from the graph afterwards.
  void fold_into(Conv2d& conv) const;

private:
  int64_t channels_;
  float eps_;
  float momentum_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;

  /// What backward needs, kept only by a training forward (batch
  /// statistics; an eval-mode forward is inference only).
  struct BackwardState {
    Tensor xhat{};    ///< normalized input, same shape as x
    Tensor invstd{};  ///< [C] 1/sqrt(batch var + eps)
  };
  std::optional<BackwardState> bwd_;
};

}  // namespace axnn::nn
