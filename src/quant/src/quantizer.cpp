#include "axnn/quant/quantizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "axnn/obs/telemetry.hpp"

namespace axnn::quant {

void record_clip_rate(const Tensor& x, const QuantParams& p) {
  obs::Collector* c = obs::collector();
  if (c == nullptr || x.numel() == 0) return;
  const float inv = 1.0f / p.step;
  const float lo = static_cast<float>(p.qmin()), hi = static_cast<float>(p.qmax());
  int64_t clipped = 0;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float v = std::nearbyintf(x[i] * inv);
    if (v < lo || v > hi) ++clipped;
  }
  std::string path = obs::current_path();
  if (path.empty()) path = "quant";
  c->add(path, "quantize.clip_rate", static_cast<double>(clipped) / static_cast<double>(x.numel()));
}

float round_to_pow2(float step) {
  if (!(step > 0.0f)) throw std::invalid_argument("round_to_pow2: step must be positive");
  return std::exp2f(std::round(std::log2f(step)));
}

QuantParams params_for_max_abs(float max_abs, int bits) {
  if (bits < 2 || bits > 16) throw std::invalid_argument("params_for_max_abs: bits out of range");
  QuantParams p;
  p.bits = bits;
  if (max_abs <= 0.0f) {
    p.step = 1.0f;  // degenerate all-zero tensor; any step works
    return p;
  }
  const float ideal = max_abs / static_cast<float>(p.qmax());
  // Round *up* in log2 space so the range always covers max_abs.
  p.step = std::exp2f(std::ceil(std::log2f(ideal)));
  return p;
}

TensorI32 quantize(const Tensor& x, const QuantParams& p) {
  TensorI32 q(x.shape());
  const float inv = 1.0f / p.step;
  const int32_t lo = p.qmin(), hi = p.qmax();
  for (int64_t i = 0; i < x.numel(); ++i) q[i] = quantize_level(x[i], inv, lo, hi);
  if (obs::enabled()) record_clip_rate(x, p);
  return q;
}

Tensor dequantize(const TensorI32& q, const QuantParams& p) {
  Tensor x(q.shape());
  for (int64_t i = 0; i < q.numel(); ++i) x[i] = static_cast<float>(q[i]) * p.step;
  return x;
}

Tensor fake_quantize(const Tensor& x, const QuantParams& p) {
  Tensor out(x.shape());
  const float inv = 1.0f / p.step;
  const float lo = static_cast<float>(p.qmin()), hi = static_cast<float>(p.qmax());
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float v = std::clamp(std::nearbyintf(x[i] * inv), lo, hi);
    out[i] = v * p.step;
  }
  return out;
}

Tensor ste_mask(const Tensor& x, const QuantParams& p) {
  Tensor m(x.shape());
  const float r = p.range();
  for (int64_t i = 0; i < x.numel(); ++i) m[i] = (std::fabs(x[i]) <= r) ? 1.0f : 0.0f;
  return m;
}

double quantization_mse(const Tensor& x, const QuantParams& p) {
  double acc = 0.0;
  const float inv = 1.0f / p.step;
  const float lo = static_cast<float>(p.qmin()), hi = static_cast<float>(p.qmax());
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float v = std::clamp(std::nearbyintf(x[i] * inv), lo, hi) * p.step;
    const double d = static_cast<double>(x[i]) - v;
    acc += d * d;
  }
  return x.numel() ? acc / static_cast<double>(x.numel()) : 0.0;
}

}  // namespace axnn::quant
