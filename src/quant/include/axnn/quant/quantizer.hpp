// axnn — symmetric linear quantization with power-of-two step sizes.
//
// Paper constraints (Sec. III):
//  * layer-wise quantization of parameters and activations;
//  * symmetric, no zero-point (eliminates GEMM cross-terms);
//  * step sizes rounded to the next power of two (shift-only rescaling);
//  * 8-bit activations, 4-bit weights ("8A4W").
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "axnn/tensor/tensor.hpp"

namespace axnn::quant {

inline constexpr int kActivationBits = 8;
inline constexpr int kWeightBits = 4;

/// Parameters of one symmetric linear quantizer q(x) = clamp(round(x/step)).
struct QuantParams {
  float step = 1.0f;  ///< quantization step (always a power of two here)
  int bits = 8;       ///< total bit-width including sign

  /// Symmetric integer bound: +-(2^(bits-1) - 1).
  int32_t qmax() const { return (1 << (bits - 1)) - 1; }
  int32_t qmin() const { return -qmax(); }

  /// Largest representable magnitude in real units.
  float range() const { return step * static_cast<float>(qmax()); }

  bool operator==(const QuantParams&) const = default;
};

/// Round a positive step size to the nearest power of two (in log2 space).
float round_to_pow2(float step);

/// Smallest power-of-two step covering max_abs with the given bit-width
/// (i.e. the next power of two >= max_abs / qmax).
QuantParams params_for_max_abs(float max_abs, int bits);

/// One integer level: round(x · inv) clamped to [lo, hi] (inv = 1/step).
/// The clamp happens in float, before the rounding, so values past the
/// int32 range and ±inf saturate to lo/hi exactly as fake_quantize does;
/// NaN maps to 0. Shared by quantize() and the int8 quantizer of the
/// approximate GEMM path so the two cannot drift apart.
///
/// Rounds half to even like std::nearbyintf, without the libm call: for
/// |c| <= 2^22, c + 1.5·2^23 lies in [2^23, 2^24), where floats are 1
/// apart, so the add rounds c to an integer and the subtract is exact
/// (|lo|, |hi| < 2^16). kernels::quantize_i8's scalar tier is a loop over
/// it, and its AVX2 tier the same expression in each lane. Only a zero's
/// sign differs (-0 gives +0), which the integer cannot show; fake_quantize
/// keeps nearbyintf for that reason.
inline int32_t quantize_level(float x, float inv, int32_t lo, int32_t hi) {
  constexpr float kShift = 12582912.0f;  // 1.5 * 2^23
  const float v = x * inv;
  const float c = std::min(std::max(v == v ? v : 0.0f, static_cast<float>(lo)),
                           static_cast<float>(hi));
  return static_cast<int32_t>((c + kShift) - kShift);
}

/// Telemetry of every real quantize (quantize, nn::quantize_i8,
/// nn::quantize_im2col): adds the fraction of x whose level rounds outside
/// [qmin, qmax] to the attached obs collector as "quantize.clip_rate" under
/// the current path ("quant" when none). A second pass over x, only when a
/// collector is attached; a no-op otherwise.
void record_clip_rate(const Tensor& x, const QuantParams& p);

/// Integer quantization: q = clamp(round(x / step), qmin, qmax), per
/// quantize_level.
TensorI32 quantize(const Tensor& x, const QuantParams& p);

/// Dequantization: x~ = q * step.
Tensor dequantize(const TensorI32& q, const QuantParams& p);

/// Fake quantization (quantize-dequantize in float): the candidate scoring
/// of MinPropQE calibration and the reference that tests hold the layers'
/// int8 paths to. No forward calls it, so it records no telemetry; the
/// backward of a quantized layer is the straight-through estimator,
/// implemented in the layers via `ste_mask`.
Tensor fake_quantize(const Tensor& x, const QuantParams& p);

/// STE clipping mask: 1 where x falls inside the representable range
/// (gradient passes), 0 where it saturates (gradient blocked). Matches the
/// clipped STE of Bengio et al. [18].
Tensor ste_mask(const Tensor& x, const QuantParams& p);

/// Mean squared quantization error of x under p.
double quantization_mse(const Tensor& x, const QuantParams& p);

}  // namespace axnn::quant
