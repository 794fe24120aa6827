// axnn — small quantization helpers shared by the GEMM layers.
#pragma once

#include "axnn/kernels/activations.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/quant/quantizer.hpp"
#include "axnn/tensor/tensor.hpp"

namespace axnn::nn {

/// Quantize a float tensor directly into int8 storage: quant::quantize's
/// levels (saturating, NaN -> 0), narrowed to int8, which always holds the
/// symmetric range of `p` for bits <= 8, in one kernels::quantize_i8 call.
/// Records quant::record_clip_rate when a collector is attached.
inline TensorI8 quantize_i8(const Tensor& x, const quant::QuantParams& p) {
  TensorI8 q(x.shape());
  kernels::quantize_i8(x.data(), q.data(), x.numel(), 1.0f / p.step, p.qmin(), p.qmax());
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
