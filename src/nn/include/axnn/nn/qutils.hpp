// axnn — small quantization helpers shared by the GEMM layers.
#pragma once

#include "axnn/obs/telemetry.hpp"
#include "axnn/quant/quantizer.hpp"
#include "axnn/tensor/tensor.hpp"

namespace axnn::nn {

/// q[i] = quant::quantize_level(x[i], inv, lo, hi) for i < n, narrowed to
/// int8. A loop over raw pointers with its count in a local: an int8 store
/// may alias anything, so a loop bounded by a tensor's numel() re-reads the
/// size after every store and does not vectorize; this one does.
inline void quantize_row_i8(const float* x, int8_t* q, int64_t n, float inv, int32_t lo,
                            int32_t hi) {
  for (int64_t i = 0; i < n; ++i)
    q[i] = static_cast<int8_t>(quant::quantize_level(x[i], inv, lo, hi));
}

/// Quantize a float tensor directly into int8 storage: quant::quantize's
/// levels (saturating, NaN -> 0), narrowed to int8, which always holds the
/// symmetric range of `p` for bits <= 8. Records quant::record_clip_rate
/// when a collector is attached.
inline TensorI8 quantize_i8(const Tensor& x, const quant::QuantParams& p) {
  TensorI8 q(x.shape());
  quantize_row_i8(x.data(), q.data(), x.numel(), 1.0f / p.step, p.qmin(), p.qmax());
  if (obs::enabled()) quant::record_clip_rate(x, p);
  return q;
}

/// Dequantize int8 values back to float: x~ = q * step.
inline Tensor dequantize_i8(const TensorI8& q, const quant::QuantParams& p) {
  Tensor x(q.shape());
  for (int64_t i = 0; i < q.numel(); ++i) x[i] = static_cast<float>(q[i]) * p.step;
  return x;
}

}  // namespace axnn::nn
