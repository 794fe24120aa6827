// axnn — the float passes a quantized leaf runs ahead of its GEMM: the
// float→int8 quantize of its input (and of its weights, each forward) and
// the sentinel's range scan of the same input.
//
// Each has a scalar tier, the reference, and an AVX2 tier, dispatched on
// active_isa() like the GEMMs (AXNN_SIMD=scalar and AArch64 run the scalar
// tier). Both tiers give the same bytes and the same scan results for every
// input: the AVX2 quantize evaluates quant::quantize_level's float
// expression in each lane, in the same order, and the scan compares bit
// patterns, which has no rounding at all.
#pragma once

#include <cstdint>

#include "axnn/kernels/isa.hpp"

namespace axnn::kernels {

/// q[i] = quant::quantize_level(x[i], inv, lo, hi) as int8, for i < n, with
/// −128 ≤ lo ≤ hi ≤ 127 (bit widths 2–8). `isa` picks the tier: a caller
/// that quantizes a tensor in many short rows reads active_isa() once and
/// passes it to every row.
void quantize_i8(const float* x, int8_t* q, int64_t n, float inv, int32_t lo, int32_t hi,
                 Isa isa = active_isa());

/// What abs_scan finds: the largest bit pattern of |x[i]| (patterns of
/// non-negative floats order like their values, and every NaN's lies above
/// +inf's), and how many patterns exceed the limit.
struct AbsScan {
  uint32_t max_bits = 0;
  int64_t above = 0;
};

/// One pass over the bit patterns of |x[i]| (the float's bits with the sign
/// cleared), i < n: their maximum and the count above `limit`. The
/// sentinel's range guard.
AbsScan abs_scan(const float* x, int64_t n, uint32_t limit);

}  // namespace axnn::kernels
