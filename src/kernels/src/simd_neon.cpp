// axnn — NEON int GEMM kernels (aarch64). Same contract as the AVX2 TU:
// bit-identical to the naive reference (same int32 term multiset per output
// element), packed-weight layout shared with GemmPlan::pack_weights, LUT
// consumed in its transposed 256×16 line form.
//
// The geometry mirrors the AVX2 design at NEON width: 4-column strips, the
// per-k nibble→product register file R[16][4] built from 4 aligned line
// loads plus 4×4 in-register transposes — no per-element table walks in the
// inner loop.
#include "internal.hpp"

#if defined(AXNN_HAVE_NEON_TU)

#include <arm_neon.h>

namespace axnn::kernels::detail {

namespace {

constexpr int64_t F = kFuse;

/// Transpose a 4×4 int32 tile held in r[0..3].
inline void transpose4(int32x4_t r[4]) {
  const int32x4x2_t t0 = vtrnq_s32(r[0], r[1]);
  const int32x4x2_t t1 = vtrnq_s32(r[2], r[3]);
  r[0] = vcombine_s32(vget_low_s32(t0.val[0]), vget_low_s32(t1.val[0]));
  r[1] = vcombine_s32(vget_low_s32(t0.val[1]), vget_low_s32(t1.val[1]));
  r[2] = vcombine_s32(vget_high_s32(t0.val[0]), vget_high_s32(t1.val[0]));
  r[3] = vcombine_s32(vget_high_s32(t0.val[1]), vget_high_s32(t1.val[1]));
}

/// Build R[16][4] for 4 activation bytes: 16 line-quarter loads + 4
/// transposes. R[wn] = products of the 4 activations against nibble wn.
inline void build_r4(const int32_t* lines, const int8_t* xr, int32_t* rout) {
  const int32_t* l0 = lines + static_cast<size_t>(static_cast<uint8_t>(xr[0])) * 16;
  const int32_t* l1 = lines + static_cast<size_t>(static_cast<uint8_t>(xr[1])) * 16;
  const int32_t* l2 = lines + static_cast<size_t>(static_cast<uint8_t>(xr[2])) * 16;
  const int32_t* l3 = lines + static_cast<size_t>(static_cast<uint8_t>(xr[3])) * 16;
  for (int c = 0; c < 4; ++c) {  // nibble chunk 4c..4c+3
    int32x4_t r[4] = {vld1q_s32(l0 + 4 * c), vld1q_s32(l1 + 4 * c),
                      vld1q_s32(l2 + 4 * c), vld1q_s32(l3 + 4 * c)};
    transpose4(r);
    vst1q_s32(rout + (4 * c + 0) * 4, r[0]);
    vst1q_s32(rout + (4 * c + 1) * 4, r[1]);
    vst1q_s32(rout + (4 * c + 2) * 4, r[2]);
    vst1q_s32(rout + (4 * c + 3) * 4, r[3]);
  }
}

}  // namespace

void neon_approx_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                      int64_t k, int64_t n, const int32_t* lines, bool accumulate,
                      int64_t j0, int64_t j1) {
  alignas(64) int32_t R[F][16 * 4];
  const int64_t kmain = k - k % F;
  int64_t jj = j0;
  for (; jj + 4 <= j1; jj += 4) {
    if (!accumulate)
      for (int64_t i = 0; i < m; ++i) vst1q_s32(c + i * n + jj, vdupq_n_s32(0));
    int64_t kk = 0;
    for (; kk < kmain; kk += F) {
      for (int64_t f = 0; f < F; ++f) build_r4(lines, x + (kk + f) * n + jj, R[f]);
      const uint8_t* wg = wq + kk * m;
      for (int64_t i = 0; i < m; ++i) {
        const uint8_t* wn = wg + i * F;
        int32_t* cr = c + i * n + jj;
        int32x4_t acc = vld1q_s32(cr);
        for (int64_t f = 0; f < F; ++f)
          acc = vaddq_s32(acc, vld1q_s32(R[f] + static_cast<size_t>(wn[f]) * 4));
        vst1q_s32(cr, acc);
      }
    }
    for (; kk < k; ++kk) {  // k remainder: flat column layout wq[kk*m + i]
      build_r4(lines, x + kk * n + jj, R[0]);
      const uint8_t* wcol = wq + kk * m;
      for (int64_t i = 0; i < m; ++i) {
        int32_t* cr = c + i * n + jj;
        vst1q_s32(cr, vaddq_s32(vld1q_s32(cr),
                                vld1q_s32(R[0] + static_cast<size_t>(wcol[i]) * 4)));
      }
    }
  }
  for (; jj < j1; ++jj) {  // scalar tail (< 4 columns)
    for (int64_t i = 0; i < m; ++i) {
      int32_t acc = accumulate ? c[i * n + jj] : 0;
      int64_t kk = 0;
      for (; kk < kmain; kk += F) {
        const uint8_t* wn = wq + kk * m + i * F;
        for (int64_t f = 0; f < F; ++f)
          acc += lines[static_cast<size_t>(static_cast<uint8_t>(x[(kk + f) * n + jj])) * 16 +
                       wn[f]];
      }
      for (; kk < k; ++kk)
        acc += lines[static_cast<size_t>(static_cast<uint8_t>(x[kk * n + jj])) * 16 +
                     wq[kk * m + i]];
      c[i * n + jj] = acc;
    }
  }
}

}  // namespace axnn::kernels::detail

#endif  // AXNN_HAVE_NEON_TU
