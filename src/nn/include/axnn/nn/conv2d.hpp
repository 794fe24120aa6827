// axnn — 2-D convolution with a float and a quantized execution path.
//
// Forward lowers to GEMM via im2col: out[O, P] = W[O, K] · cols[K, P] per
// group. Both quantized modes quantize the weights to int8 and run an
// integer GEMM through a multiplier table: the approximate multiplier's in
// kQuantApprox mode (Eq. 4), the exact table in kQuantExact mode (or when
// the monitor forces it; weights wider than 4 bits run the exact kernel on
// raw bytes). A stride-1 conv whose plan reads the padded int8 input plane
// (kernels::GemmPlan::reads_plane: the closed-form kernel, whole-row
// strips) quantizes its input into that plane (quantize_plane) and runs
// the GEMM from it, lowering columns only for a training forward's
// backward state, a monitor that does not take planes (the sentinel takes
// them) or the ge_residual diagnostics; every other quantized conv lowers
// its input straight to int8 columns (quantize_im2col: one pass, no int8
// copy of the input). The columns are
// the same bytes either way. The backward pass uses the straight-through
// estimator of the exact GEMM of the dequantized operands (Eq. 5),
// optionally refined by the gradient-estimation scale (1 + K) on the weight
// gradient (Eq. 12).
//
// Per-layer heterogeneity (mixed multipliers, adders, mode overrides, GE
// fits) comes from the execution plan: the forward resolves its effective
// parameters through plan_leaf_exec (axnn/nn/plan.hpp), which returns the
// plain context fields when no plan is attached.
#pragma once

#include <optional>

#include "axnn/kernels/plan.hpp"
#include "axnn/nn/im2col.hpp"
#include "axnn/nn/layer.hpp"
#include "axnn/quant/calibration.hpp"

namespace axnn::nn {

struct Conv2dConfig {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel = 3;
  int64_t stride = 1;
  int64_t padding = 1;
  int64_t groups = 1;   ///< in/out channels must be divisible; groups == in
                        ///< channels gives a depthwise convolution
  bool bias = true;
};

class Conv2d final : public Layer {
public:
  Conv2d(Conv2dConfig cfg, Rng& rng);

  std::string name() const override;
  Tensor forward(const Tensor& x, const ExecContext& ctx) override;
  Tensor backward(const Tensor& dy) override;
  std::vector<Param*> params() override;
  void finalize_calibration(quant::Calibration method) override;
  int64_t last_mac_count() const override { return last_macs_; }
  const kernels::PlanMemo* plan_memo() const override { return &plan_memo_; }

  const Conv2dConfig& config() const { return cfg_; }
  Param& weight() { return weight_; }
  Param& bias_param() { return bias_; }
  bool has_bias() const { return cfg_.bias; }

  bool calibrated() const { return calibrated_; }
  const quant::QuantParams& weight_qparams() const { return wgt_qp_; }
  const quant::QuantParams& act_qparams() const { return act_qp_; }
  void set_qparams(const quant::QuantParams& wgt, const quant::QuantParams& act);

  /// The activation range statistics gathered during kCalibrate passes
  /// (sentinel range-guard calibration). Unseen on cloned models, whose
  /// quantization state is copied without the observer reservoir.
  const quant::RangeObserver& act_observer() const { return act_obs_; }

  /// Override the quantization bit-widths before calibration (paper outlook:
  /// "extended for lower bitwidth quantization"). A multiplier table
  /// requires weight_bits <= 4 (the LUT's 4-bit operand); quantized-exact
  /// execution accepts any width in [2, 8] (wider than 4 bits, the exact
  /// kernel multiplies raw int8 bytes).
  void set_bit_widths(int weight_bits, int activation_bits);
  int weight_bits() const { return wgt_bits_; }
  int activation_bits() const { return act_bits_; }

  /// Per-output-channel affine fold (BatchNorm folding):
  /// W[o,...] *= scale[o]; b[o] = b[o]*scale[o] + shift[o].
  /// Enables the bias term if it was disabled.
  void fold_scale_shift(const std::vector<float>& scale, const std::vector<float>& shift);

  /// Analytic MACs for one sample with the given input spatial dims.
  int64_t macs_per_sample(int64_t h, int64_t w) const;

private:
  Tensor run_gemm_float(const Tensor& w_mat, const Tensor& cols) const;

  Conv2dConfig cfg_;
  Param weight_;  ///< [O, C/groups, k, k]
  Param bias_;    ///< [O] (zero-sized if disabled)

  // Quantization state.
  int wgt_bits_ = quant::kWeightBits;
  int act_bits_ = quant::kActivationBits;
  quant::QuantParams wgt_qp_{1.0f, quant::kWeightBits};
  quant::QuantParams act_qp_{1.0f, quant::kActivationBits};
  bool calibrated_ = false;
  quant::RangeObserver act_obs_;
  std::optional<Tensor> calib_cols_;    ///< cached cols for MinPropQE
  std::optional<Tensor> calib_out_fp_;  ///< cached FP out_mat for MinPropQE

  /// What backward needs, kept only by a training forward.
  struct BackwardState {
    Tensor cols{};      ///< effective cols [K, P] (dequantized int8 when quantized)
    Tensor w_mat{};     ///< effective weight matrix [O, K/groups-block], likewise
    Tensor act_mask{};  ///< STE clip mask in input layout (quant modes)
    Tensor acc{};       ///< integer accumulators [O, P] (GE only)
    const ge::ErrorFit* fit = nullptr;
  };
  std::optional<BackwardState> bwd_;

  // Per-forward state.
  ConvGeom geom_{};
  int64_t last_macs_ = 0;
  std::string obs_path_;  ///< telemetry path captured at forward (backward reuses it)

  /// Per-leaf plan memo: the forward/backward GEMMs of this layer resolve
  /// their prepared plans here without touching the global cache's mutex.
  /// mutable because run_gemm_float is const; a layer runs one forward at a
  /// time (the serving lanes each own a model replica).
  mutable kernels::PlanMemo plan_memo_;
};

}  // namespace axnn::nn
