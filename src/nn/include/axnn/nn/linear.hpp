// axnn — fully-connected layer with a float and a quantized execution path.
//
// Same execution model as Conv2d: y[N, O] = x[N, F] · W[O, F]ᵀ + b, lowered
// in both quantized modes to the int8 GEMM W · xᵀ (the exact table for
// kQuantExact, the multiplier's for kQuantApprox). Per-layer multiplier
// / adder / mode / GE-fit heterogeneity resolves through plan_leaf_exec
// (axnn/nn/plan.hpp), exactly as in Conv2d.
#pragma once

#include <optional>

#include "axnn/kernels/plan.hpp"
#include "axnn/nn/layer.hpp"
#include "axnn/quant/calibration.hpp"

namespace axnn::nn {

class Linear final : public Layer {
public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias = true);

  std::string name() const override;
  Tensor forward(const Tensor& x, const ExecContext& ctx) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Param*> params() override;
  void finalize_calibration(quant::Calibration method) override;
  int64_t last_mac_count() const override { return last_macs_; }
  const kernels::PlanMemo* plan_memo() const override { return &plan_memo_; }

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }
  Param& weight() { return weight_; }
  Param& bias_param() { return bias_; }

  bool calibrated() const { return calibrated_; }
  const quant::QuantParams& weight_qparams() const { return wgt_qp_; }
  const quant::QuantParams& act_qparams() const { return act_qp_; }
  void set_qparams(const quant::QuantParams& wgt, const quant::QuantParams& act);

  /// See Conv2d::act_observer (sentinel range-guard calibration).
  const quant::RangeObserver& act_observer() const { return act_obs_; }

  /// See Conv2d::set_bit_widths — a multiplier table needs weight_bits
  /// <= 4; quantized-exact accepts [2, 8].
  void set_bit_widths(int weight_bits, int activation_bits);
  int weight_bits() const { return wgt_bits_; }
  int activation_bits() const { return act_bits_; }

private:
  int64_t in_ = 0, out_ = 0;
  bool has_bias_ = true;
  Param weight_;  ///< [O, F]
  Param bias_;    ///< [O]

  int wgt_bits_ = quant::kWeightBits;
  int act_bits_ = quant::kActivationBits;
  quant::QuantParams wgt_qp_{1.0f, quant::kWeightBits};
  quant::QuantParams act_qp_{1.0f, quant::kActivationBits};
  bool calibrated_ = false;
  quant::RangeObserver act_obs_;
  std::optional<Tensor> calib_x_;
  std::optional<Tensor> calib_out_fp_;

  /// What backward needs, kept only by a training forward.
  struct BackwardState {
    Tensor x{};         ///< effective input [N, F] (dequantized int8 when quantized)
    Tensor w{};         ///< effective weights [O, F], likewise
    Tensor act_mask{};  ///< STE clip mask (quant modes)
    Tensor acc{};       ///< integer accumulators [N, O] (GE only)
    const ge::ErrorFit* fit = nullptr;
  };
  std::optional<BackwardState> bwd_;

  int64_t last_macs_ = 0;
  std::string obs_path_;  ///< telemetry path captured at forward (backward reuses it)

  /// See Conv2d::plan_memo_ — per-leaf prepared-plan memo.
  mutable kernels::PlanMemo plan_memo_;
};

}  // namespace axnn::nn
