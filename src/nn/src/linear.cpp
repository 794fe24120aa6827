#include "axnn/nn/linear.hpp"

#include <stdexcept>

#include "axnn/kernels/gemm.hpp"
#include "axnn/nn/monitor.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/nn/qutils.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/tensor/ops.hpp"
#include "leaf_gemm.hpp"
#include "obs_hooks.hpp"

namespace axnn::nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : in_(in_features), out_(out_features), has_bias_(bias) {
  if (in_ <= 0 || out_ <= 0) throw std::invalid_argument("Linear: features must be positive");
  weight_ = Param(kaiming_normal(Shape{out_, in_}, in_, rng));
  if (has_bias_) bias_ = Param(Tensor(Shape{out_}, 0.0f));
}

std::string Linear::name() const {
  return "linear_" + std::to_string(in_) + "->" + std::to_string(out_);
}

std::vector<Param*> Linear::params() {
  std::vector<Param*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

void Linear::set_qparams(const quant::QuantParams& wgt, const quant::QuantParams& act) {
  wgt_qp_ = wgt;
  act_qp_ = act;
  wgt_bits_ = wgt.bits;
  act_bits_ = act.bits;
  calibrated_ = true;
}

void Linear::set_bit_widths(int weight_bits, int activation_bits) {
  if (weight_bits < 2 || weight_bits > 8 || activation_bits < 2 || activation_bits > 8)
    throw std::invalid_argument("Linear::set_bit_widths: widths must be in [2, 8]");
  wgt_bits_ = weight_bits;
  act_bits_ = activation_bits;
  calibrated_ = false;
}

namespace {
Tensor linear_forward_float(const Tensor& x, const Tensor& w, const Tensor* bias,
                            kernels::PlanMemo* memo) {
  const int64_t n = x.shape()[0], f = x.shape()[1], o = w.shape()[0];
  Tensor y(Shape{n, o});
  kernels::gemm({.trans_b = true}, x.data(), w.data(), y.data(), n, f, o, memo);
  if (bias != nullptr)
    for (int64_t i = 0; i < n; ++i)
      for (int64_t j = 0; j < o; ++j) y(i, j) += (*bias)[j];
  return y;
}
}  // namespace

Tensor Linear::forward(const Tensor& x, const ExecContext& ctx) {
  if (x.shape().rank() != 2 || x.shape()[1] != in_)
    throw std::invalid_argument("Linear::forward: bad input shape " + x.shape().to_string());
  const int64_t n = x.shape()[0];
  last_macs_ = n * in_ * out_;
  bwd_.reset();  // only a training forward keeps backward state
  const Tensor* bias = has_bias_ ? &bias_.value : nullptr;
  const LeafExec ex = plan_leaf_exec(ctx, *this);

  // Telemetry (zero-overhead when disabled); see Conv2d::forward.
  const bool obs_on = obs::enabled();
  if (obs_on) obs_path_ = detail::leaf_obs_path(*this);
  obs::ScopedTimer timer("forward.ns", obs_path_);

  switch (ex.mode) {
    case ExecMode::kFloat:
    case ExecMode::kCalibrate: {
      Tensor y = linear_forward_float(x, weight_.value, bias, &plan_memo_);
      if (ex.mode == ExecMode::kCalibrate) {
        act_obs_.observe(x);
        calib_x_ = x;
        calib_out_fp_ = linear_forward_float(x, weight_.value, nullptr, &plan_memo_);
      }
      if (ctx.training) bwd_ = BackwardState{.x = x, .w = weight_.value};
      if (obs_on) detail::record_leaf_forward(obs_path_, ex.mode, last_macs_);
      return y;
    }

    case ExecMode::kQuantExact:
    case ExecMode::kQuantApprox: {
      if (!calibrated_) throw std::logic_error("Linear: quantized forward before calibration");
      detail::check_leaf_exec(ex, wgt_qp_.bits, "Linear");
      if (ctx.monitor != nullptr) ctx.monitor->on_leaf_input(*this, x);
      const TensorI8 qx = quantize_i8(x, act_qp_);
      const TensorI8 qw = quantize_i8(weight_.value, wgt_qp_);
      // The int GEMM computes W[O,F] · X[F,N]: transpose the activations so
      // they take the 8-bit operand role.
      TensorI8 qxt(Shape{in_, n});
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < in_; ++j) qxt(j, i) = qx(i, j);
      TensorI32 acc(Shape{out_, n});
      const bool exact = detail::runs_exact(*this, ex, ctx.monitor);
      detail::leaf_gemm(*this, ex, exact, detail::gemm_table(ex, exact, wgt_qp_.bits),
                        ctx.monitor, plan_memo_, obs_path_, 1, qw.data(), qxt.data(), acc.data(),
                        out_, in_, n);

      const float s = act_qp_.step * wgt_qp_.step;
      Tensor y(Shape{n, out_});
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < out_; ++j)
          y(i, j) = static_cast<float>(acc(j, i)) * s + (has_bias_ ? bias_.value[j] : 0.0f);

      if (ctx.training) {
        BackwardState& st = bwd_.emplace();
        st.x = dequantize_i8(qx, act_qp_);
        st.w = dequantize_i8(qw, wgt_qp_);
        st.act_mask = quant::ste_mask(x, act_qp_);
        if (ex.fit != nullptr && !ex.fit->is_constant()) {
          st.fit = ex.fit;
          st.acc = Tensor(Shape{n, out_});
          for (int64_t i = 0; i < n; ++i)
            for (int64_t j = 0; j < out_; ++j) st.acc(i, j) = static_cast<float>(acc(j, i));
        }
      }
      if (obs_on) {
        detail::record_leaf_forward(obs_path_, ex.mode, last_macs_);
        detail::record_act_clip_rate(obs_path_, x, act_qp_);
      }
      return y;
    }
  }
  throw std::logic_error("Linear::forward: unknown mode");
}

Tensor Linear::backward(const Tensor& dy) {
  if (!bwd_) throw_no_backward_state(*this);
  const BackwardState& st = *bwd_;
  const int64_t n = st.x.shape()[0];
  if (dy.shape() != Shape{n, out_})
    throw std::invalid_argument("Linear::backward: dy shape mismatch");

  if (has_bias_) {
    for (int64_t j = 0; j < out_; ++j) {
      double s = 0.0;
      for (int64_t i = 0; i < n; ++i) s += dy(i, j);
      bias_.grad[j] += static_cast<float>(s);
    }
  }

  const Tensor* dyw = &dy;
  Tensor dy_scaled;
  if (st.fit != nullptr) {
    dy_scaled = dy;
    for (int64_t i = 0; i < dy_scaled.numel(); ++i)
      dy_scaled[i] *= static_cast<float>(1.0 + st.fit->derivative(st.acc[i]));
    dyw = &dy_scaled;
    if (obs::enabled()) detail::record_ge_backward(obs_path_, *st.fit, st.acc);
  }

  // dW[O,F] += dyᵀ · x
  kernels::gemm({.trans_a = true, .accumulate = true}, dyw->data(), st.x.data(),
                weight_.grad.data(), out_, n, in_, &plan_memo_);

  // dx[N,F] = dy · W
  Tensor dx(Shape{n, in_});
  kernels::gemm({}, dy.data(), st.w.data(), dx.data(), n, out_, in_, &plan_memo_);
  if (!st.act_mask.empty())
    for (int64_t i = 0; i < dx.numel(); ++i) dx[i] *= st.act_mask[i];
  return dx;
}

void Linear::finalize_calibration(quant::Calibration method) {
  if (!act_obs_.seen())
    throw std::logic_error("Linear: finalize_calibration without calibration passes");
  act_qp_ = act_obs_.params_min_mse(act_bits_);

  switch (method) {
    case quant::Calibration::kMaxAbs:
      wgt_qp_ = quant::calibrate_max_abs(weight_.value, wgt_bits_);
      break;
    case quant::Calibration::kMinMse:
      wgt_qp_ = quant::calibrate_min_mse(weight_.value, wgt_bits_);
      break;
    case quant::Calibration::kMinPropQE: {
      if (!calib_x_ || !calib_out_fp_) {
        wgt_qp_ = quant::calibrate_min_mse(weight_.value, wgt_bits_);
        break;
      }
      wgt_qp_ = quant::calibrate_min_prop_qe(
          weight_.value, wgt_bits_, [&](const quant::QuantParams& p) {
            const Tensor wq = quant::fake_quantize(weight_.value, p);
            const Tensor out = linear_forward_float(*calib_x_, wq, nullptr, &plan_memo_);
            return ops::mse(out, *calib_out_fp_);
          });
      break;
    }
  }
  calibrated_ = true;
  calib_x_.reset();
  calib_out_fp_.reset();
}

}  // namespace axnn::nn
