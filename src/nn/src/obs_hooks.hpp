// axnn — internal telemetry helpers shared by the GEMM leaves (Conv2d /
// Linear). Every function here is called behind an obs::enabled() guard;
// none of them touch the computation, only the attached collector.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "axnn/ge/error_fit.hpp"
#include "axnn/nn/layer.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/quant/quantizer.hpp"
#include "axnn/tensor/tensor.hpp"

namespace axnn::nn::detail {

/// Metric path for a leaf: the thread-local container path when the leaf
/// runs inside an instrumented model, its own name when run bare.
inline std::string leaf_obs_path(const Layer& leaf) {
  std::string p = obs::current_path();
  return p.empty() ? leaf.name() : p;
}

inline const char* mode_metric(ExecMode m) {
  switch (m) {
    case ExecMode::kFloat: return "mode.float";
    case ExecMode::kCalibrate: return "mode.calibrate";
    case ExecMode::kQuantExact: return "mode.exact";
    case ExecMode::kQuantApprox: return "mode.approx";
  }
  return "mode.unknown";
}

/// Per-forward basics: call count, analytic MACs and exec-mode histogram.
inline void record_leaf_forward(const std::string& path, ExecMode mode, int64_t macs) {
  obs::Collector* c = obs::collector();
  if (c == nullptr) return;
  c->add(path, "forward.calls", 1.0);
  c->add(path, "forward.macs", static_cast<double>(macs));
  c->add(path, mode_metric(mode), 1.0);
}

/// Quantized forwards: the activation clip rate, the fraction of inputs
/// saturating the activation range (where quant::ste_mask is 0). Counted
/// from the input itself, so inference forwards report it without keeping
/// the mask.
inline void record_act_clip_rate(const std::string& path, const Tensor& x,
                                 const quant::QuantParams& p) {
  obs::Collector* c = obs::collector();
  if (c == nullptr || x.empty()) return;
  const float r = p.range();
  double inside = 0.0;
  for (int64_t i = 0; i < x.numel(); ++i) inside += std::fabs(x[i]) <= r ? 1.0 : 0.0;
  c->add(path, "act_clip_rate", 1.0 - inside / static_cast<double>(x.numel()));
}

/// GE backward: distribution of |K| = |f'(y)| over this pass's accumulator
/// values (Eq. 12-13) — how much correction GE is actually applying.
inline void record_ge_backward(const std::string& path, const ge::ErrorFit& fit,
                               const Tensor& acc) {
  obs::Collector* c = obs::collector();
  if (c == nullptr || acc.empty()) return;
  double sum = 0.0;
  double mn = std::numeric_limits<double>::infinity(), mx = -mn;
  for (int64_t i = 0; i < acc.numel(); ++i) {
    const double k = std::fabs(fit.derivative(acc[i]));
    sum += k;
    if (k < mn) mn = k;
    if (k > mx) mx = k;
  }
  c->add_samples(path, "ge.abs_k", sum, acc.numel(), mn, mx);
}

/// GE diagnostics (CollectorConfig::ge_residual): the observed accumulated
/// error eps = y~ - y per output element against the fit's prediction
/// f(y~). `approx` and `exact` are the approximate and exact int32
/// accumulators of the same quantized operands; an exact multiplier gives
/// eps == 0 and (with its constant-zero fit) a ~0 residual — the golden
/// telemetry check.
inline void record_ge_residual(const std::string& path, const ge::ErrorFit* fit,
                               const int32_t* approx, const int32_t* exact, int64_t n) {
  obs::Collector* c = obs::collector();
  if (c == nullptr || n <= 0) return;
  double eps_sum = 0.0, res_sum = 0.0;
  double eps_mn = std::numeric_limits<double>::infinity(), eps_mx = -eps_mn;
  double res_mn = eps_mn, res_mx = -eps_mn;
  for (int64_t i = 0; i < n; ++i) {
    const double eps = static_cast<double>(approx[i]) - static_cast<double>(exact[i]);
    const double ae = std::fabs(eps);
    eps_sum += ae;
    if (ae < eps_mn) eps_mn = ae;
    if (ae > eps_mx) eps_mx = ae;
    if (fit != nullptr) {
      const double r = std::fabs(fit->eval(static_cast<double>(approx[i])) - eps);
      res_sum += r;
      if (r < res_mn) res_mn = r;
      if (r > res_mx) res_mx = r;
    }
  }
  c->add_samples(path, "ge.eps_abs", eps_sum, n, eps_mn, eps_mx);
  if (fit != nullptr) c->add_samples(path, "ge.fit_residual", res_sum, n, res_mn, res_mx);
}

}  // namespace axnn::nn::detail
