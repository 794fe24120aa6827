#include "axnn/nn/conv2d.hpp"

#include <cmath>
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

namespace {

/// [N,O,oh,ow] feature map -> [O, N*oh*ow] GEMM layout.
Tensor to_mat(const Tensor& fmap) {
  const int64_t n = fmap.shape()[0], o = fmap.shape()[1];
  const int64_t hw = fmap.shape()[2] * fmap.shape()[3];
  Tensor mat(Shape{o, n * hw});
  for (int64_t b = 0; b < n; ++b)
    for (int64_t ch = 0; ch < o; ++ch) {
      const float* src = fmap.data() + (b * o + ch) * hw;
      float* dst = mat.data() + ch * (n * hw) + b * hw;
      for (int64_t p = 0; p < hw; ++p) dst[p] = src[p];
    }
  return mat;
}

/// The conv epilogue: one pass from the [O, N*oh*ow] GEMM result to the
/// NCHW output, out = value(elem) + bias. The quantized path's `value` is
/// (acc*sx)*sw, the float expression its former dequantize-then-add-bias
/// passes evaluated, with no float matrix in between; contraction into an
/// FMA is off for the library (src/CMakeLists.txt), so the bits hold on
/// every target.
template <typename T, typename Value>
Tensor to_nchw(const T* mat, const ConvGeom& g, int64_t out_channels, const Tensor* bias,
               Value value) {
  Tensor out(Shape{g.n, out_channels, g.oh, g.ow});
  const int64_t hw = g.oh * g.ow;
  const int64_t p_total = g.n * hw;
  for (int64_t b = 0; b < g.n; ++b)
    for (int64_t ch = 0; ch < out_channels; ++ch) {
      const float bias_v = bias != nullptr ? (*bias)[ch] : 0.0f;
      const T* src = mat + ch * p_total + b * hw;
      float* dst = out.data() + (b * out_channels + ch) * hw;
      for (int64_t p = 0; p < hw; ++p) dst[p] = value(src[p]) + bias_v;
    }
  return out;
}

}  // namespace

Conv2d::Conv2d(Conv2dConfig cfg, Rng& rng) : cfg_(cfg) {
  if (cfg_.in_channels <= 0 || cfg_.out_channels <= 0)
    throw std::invalid_argument("Conv2d: channels must be positive");
  if (cfg_.groups <= 0 || cfg_.in_channels % cfg_.groups || cfg_.out_channels % cfg_.groups)
    throw std::invalid_argument("Conv2d: channels must be divisible by groups");
  const int64_t cg = cfg_.in_channels / cfg_.groups;
  const int64_t fan_in = cg * cfg_.kernel * cfg_.kernel;
  weight_ = Param(kaiming_normal(Shape{cfg_.out_channels, cg, cfg_.kernel, cfg_.kernel},
                                 fan_in, rng));
  if (cfg_.bias) bias_ = Param(Tensor(Shape{cfg_.out_channels}, 0.0f));
}

std::string Conv2d::name() const {
  return "conv" + std::to_string(cfg_.kernel) + "x" + std::to_string(cfg_.kernel) + "_" +
         std::to_string(cfg_.in_channels) + "->" + std::to_string(cfg_.out_channels) +
         (cfg_.groups > 1 ? "_g" + std::to_string(cfg_.groups) : "");
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> p{&weight_};
  if (cfg_.bias) p.push_back(&bias_);
  return p;
}

void Conv2d::set_qparams(const quant::QuantParams& wgt, const quant::QuantParams& act) {
  wgt_qp_ = wgt;
  act_qp_ = act;
  wgt_bits_ = wgt.bits;
  act_bits_ = act.bits;
  calibrated_ = true;
}

void Conv2d::set_bit_widths(int weight_bits, int activation_bits) {
  if (weight_bits < 2 || weight_bits > 8 || activation_bits < 2 || activation_bits > 8)
    throw std::invalid_argument("Conv2d::set_bit_widths: widths must be in [2, 8]");
  wgt_bits_ = weight_bits;
  act_bits_ = activation_bits;
  calibrated_ = false;  // existing steps were chosen for the old widths
}

int64_t Conv2d::macs_per_sample(int64_t h, int64_t w) const {
  const int64_t oh = (h + 2 * cfg_.padding - cfg_.kernel) / cfg_.stride + 1;
  const int64_t ow = (w + 2 * cfg_.padding - cfg_.kernel) / cfg_.stride + 1;
  const int64_t cg = cfg_.in_channels / cfg_.groups;
  return cfg_.out_channels * cg * cfg_.kernel * cfg_.kernel * oh * ow;
}

Tensor Conv2d::run_gemm_float(const Tensor& w_mat, const Tensor& cols) const {
  const int64_t o = cfg_.out_channels, grp = cfg_.groups;
  const int64_t og = o / grp;
  const int64_t kg = w_mat.numel() / o;
  const int64_t p = cols.shape()[1];
  Tensor out(Shape{o, p});
  for (int64_t g = 0; g < grp; ++g)
    kernels::gemm({}, w_mat.data() + g * og * kg, cols.data() + g * kg * p,
                  out.data() + g * og * p, og, kg, p, &plan_memo_);
  return out;
}

Tensor Conv2d::forward(const Tensor& x, const ExecContext& ctx) {
  if (x.shape().rank() != 4 || x.shape()[1] != cfg_.in_channels)
    throw std::invalid_argument("Conv2d::forward: bad input shape " + x.shape().to_string());
  geom_ = ConvGeom::of(x.shape(), cfg_.kernel, cfg_.stride, cfg_.padding);
  const LeafExec ex = plan_leaf_exec(ctx, *this);
  bwd_.reset();  // only a training forward keeps backward state

  const int64_t o = cfg_.out_channels, grp = cfg_.groups;
  const int64_t og = o / grp;
  const int64_t cg = cfg_.in_channels / grp;
  const int64_t kg = cg * cfg_.kernel * cfg_.kernel;
  const int64_t p = geom_.out_cols();
  last_macs_ = og * kg * p * grp;

  const Shape wmat_shape{o, kg};
  const Tensor* bias = cfg_.bias ? &bias_.value : nullptr;

  // Telemetry (zero-overhead when disabled): capture the metric path once —
  // the backward pass runs outside the container scopes and reuses it.
  const bool obs_on = obs::enabled();
  if (obs_on) obs_path_ = detail::leaf_obs_path(*this);
  obs::ScopedTimer timer("forward.ns", obs_path_);

  switch (ex.mode) {
    case ExecMode::kFloat:
    case ExecMode::kCalibrate: {
      Tensor cols = im2col(x, geom_);
      // The GEMM reads the [O, C/groups, k, k] weights as the [O, K] matrix.
      Tensor out_mat = run_gemm_float(weight_.value, cols);
      if (ex.mode == ExecMode::kCalibrate) {
        act_obs_.observe(x);
        calib_cols_ = cols;
        calib_out_fp_ = out_mat;
      }
      if (ctx.training)
        bwd_ = BackwardState{.cols = std::move(cols),
                             .w_mat = weight_.value.reshaped(wmat_shape)};
      if (obs_on) detail::record_leaf_forward(obs_path_, ex.mode, last_macs_);
      return to_nchw(out_mat.data(), geom_, o, bias, [](float v) { return v; });
    }

    case ExecMode::kQuantExact:
    case ExecMode::kQuantApprox: {
      if (!calibrated_) throw std::logic_error("Conv2d: quantized forward before calibration");
      detail::check_leaf_exec(ex, wgt_qp_.bits, "Conv2d");
      if (ctx.monitor != nullptr) ctx.monitor->on_leaf_input(*this, x);
      // A conv whose plan reads the padded plane runs its GEMM from it and
      // lowers columns only for a consumer; every other conv lowers them.
      const bool exact = detail::runs_exact(*this, ex, ctx.monitor);
      const approx::SignedMulTable* tab = detail::gemm_table(ex, exact, wgt_qp_.bits);
      kernels::ConvPlane plane{nullptr, geom_.n, geom_.c, geom_.h + 2 * geom_.padding,
                               geom_.w + 2 * geom_.padding, geom_.kernel, geom_.stride};
      const bool from_plane = detail::reads_plane(ex, tab, plan_memo_, og, kg, p, plane);
      TensorI8 qcols, planes;
      if (from_plane)
        planes = quantize_plane(x, geom_, act_qp_,
                                detail::cols_consumed(ctx, ex) ? &qcols : nullptr);
      else
        qcols = quantize_im2col(x, geom_, act_qp_);
      plane.data = planes.data();
      const TensorI8 qw = quantize_i8(weight_.value, wgt_qp_);
      TensorI32 acc(Shape{o, p});
      detail::leaf_gemm(*this, ex, exact, tab, ctx.monitor, plan_memo_, obs_path_, grp,
                        qw.data(), qcols.data(), acc.data(), og, kg, p,
                        from_plane ? &plane : nullptr);
      if (ctx.training) {
        // The STE backward (Eq. 5) uses the *exact* GEMM of the quantized
        // values: keep them dequantized.
        BackwardState& st = bwd_.emplace();
        st.cols = dequantize_i8(qcols, act_qp_);
        st.w_mat = dequantize_i8(qw, wgt_qp_);
        st.w_mat.reshape(wmat_shape);
        st.act_mask = quant::ste_mask(x, act_qp_);
        if (ex.fit != nullptr && !ex.fit->is_constant()) {
          st.fit = ex.fit;
          st.acc = Tensor(acc.shape());
          for (int64_t i = 0; i < acc.numel(); ++i) st.acc[i] = static_cast<float>(acc[i]);
        }
      }
      if (obs_on) {
        detail::record_leaf_forward(obs_path_, ex.mode, last_macs_);
        detail::record_act_clip_rate(obs_path_, x, act_qp_);
      }
      const float sx = act_qp_.step, sw = wgt_qp_.step;
      return to_nchw(acc.data(), geom_, o, bias,
                     [sx, sw](int32_t a) { return static_cast<float>(a) * sx * sw; });
    }
  }
  throw std::logic_error("Conv2d::forward: unknown mode");
}

Tensor Conv2d::backward(const Tensor& dy) {
  if (!bwd_) throw_no_backward_state(*this);
  if (dy.shape() != Shape{geom_.n, cfg_.out_channels, geom_.oh, geom_.ow})
    throw std::invalid_argument("Conv2d::backward: dy shape mismatch");
  const BackwardState& st = *bwd_;
  const int64_t o = cfg_.out_channels, grp = cfg_.groups;
  const int64_t og = o / grp;
  const int64_t kg = st.w_mat.numel() / o;
  const int64_t p = geom_.out_cols();

  Tensor dy_mat = to_mat(dy);

  if (cfg_.bias) {
    for (int64_t ch = 0; ch < o; ++ch) {
      double s = 0.0;
      const float* row = dy_mat.data() + ch * p;
      for (int64_t j = 0; j < p; ++j) s += row[j];
      bias_.grad[ch] += static_cast<float>(s);
    }
  }

  // Gradient estimation (Eq. 12): scale the weight-gradient path by (1 + K),
  // where K is the derivative of the fitted error function evaluated at the
  // integer accumulator value of each output element.
  const Tensor* dyw = &dy_mat;
  Tensor dy_scaled;
  if (st.fit != nullptr) {
    dy_scaled = dy_mat;
    for (int64_t i = 0; i < dy_scaled.numel(); ++i)
      dy_scaled[i] *= static_cast<float>(1.0 + st.fit->derivative(st.acc[i]));
    dyw = &dy_scaled;
    if (obs::enabled()) detail::record_ge_backward(obs_path_, *st.fit, st.acc);
  }

  Tensor dw_mat(Shape{o, kg});
  for (int64_t g = 0; g < grp; ++g)
    kernels::gemm({.trans_b = true}, dyw->data() + g * og * p, st.cols.data() + g * kg * p,
                  dw_mat.data() + g * og * kg, og, p, kg, &plan_memo_);
  ops::add_inplace(weight_.grad, dw_mat.reshaped(weight_.grad.shape()));

  Tensor dcols(Shape{grp * kg, p}, 0.0f);
  for (int64_t g = 0; g < grp; ++g)
    kernels::gemm({.trans_a = true, .accumulate = true}, st.w_mat.data() + g * og * kg,
                  dy_mat.data() + g * og * p, dcols.data() + g * kg * p, kg, og, p,
                  &plan_memo_);
  Tensor dx = col2im(dcols, geom_);

  // Clipped STE on activations: gradients are blocked where the input
  // saturated the 8-bit range.
  if (!st.act_mask.empty()) {
    for (int64_t i = 0; i < dx.numel(); ++i) dx[i] *= st.act_mask[i];
  }
  return dx;
}

void Conv2d::finalize_calibration(quant::Calibration method) {
  if (!act_obs_.seen())
    throw std::logic_error("Conv2d: finalize_calibration without calibration passes");
  act_qp_ = act_obs_.params_min_mse(act_bits_);

  switch (method) {
    case quant::Calibration::kMaxAbs:
      wgt_qp_ = quant::calibrate_max_abs(weight_.value, wgt_bits_);
      break;
    case quant::Calibration::kMinMse:
      wgt_qp_ = quant::calibrate_min_mse(weight_.value, wgt_bits_);
      break;
    case quant::Calibration::kMinPropQE: {
      if (!calib_cols_ || !calib_out_fp_) {
        wgt_qp_ = quant::calibrate_min_mse(weight_.value, wgt_bits_);
        break;
      }
      const Shape wmat_shape{cfg_.out_channels, calib_cols_->shape()[0] / cfg_.groups};
      wgt_qp_ = quant::calibrate_min_prop_qe(
          weight_.value, wgt_bits_, [&](const quant::QuantParams& p) {
            const Tensor wq = quant::fake_quantize(weight_.value, p).reshaped(wmat_shape);
            const Tensor out = run_gemm_float(wq, *calib_cols_);
            return ops::mse(out, *calib_out_fp_);
          });
      break;
    }
  }
  calibrated_ = true;
  calib_cols_.reset();
  calib_out_fp_.reset();
}

void Conv2d::fold_scale_shift(const std::vector<float>& scale, const std::vector<float>& shift) {
  if (static_cast<int64_t>(scale.size()) != cfg_.out_channels ||
      static_cast<int64_t>(shift.size()) != cfg_.out_channels)
    throw std::invalid_argument("fold_scale_shift: size mismatch");
  const int64_t per_ch = weight_.value.numel() / cfg_.out_channels;
  for (int64_t ch = 0; ch < cfg_.out_channels; ++ch) {
    float* w = weight_.value.data() + ch * per_ch;
    for (int64_t i = 0; i < per_ch; ++i) w[i] *= scale[static_cast<size_t>(ch)];
  }
  if (!cfg_.bias) {
    bias_ = Param(Tensor(Shape{cfg_.out_channels}, 0.0f));
    cfg_.bias = true;
  }
  for (int64_t ch = 0; ch < cfg_.out_channels; ++ch)
    bias_.value[ch] = bias_.value[ch] * scale[static_cast<size_t>(ch)] +
                      shift[static_cast<size_t>(ch)];
  calibrated_ = false;  // folded weights need recalibration
}

}  // namespace axnn::nn
