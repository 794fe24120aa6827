// axnn — kernels-module internal interfaces shared between the dispatch
// TUs (gemm_f32.cpp, int_gemm.cpp, plan.cpp) and the per-ISA kernel TUs
// (simd_avx2.cpp, simd_neon.cpp), which are compiled with ISA-specific
// flags and must stay behind a C++-level firewall: nothing in this header
// may require vector intrinsics to declare.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace axnn {
class ThreadPool;
}

namespace axnn::approx {
class SignedMulTable;
}

namespace axnn::kernels {
struct AbsScan;
struct ChecksumTable;
struct ConvPlane;
struct GemmDesc;
}

namespace axnn::kernels::detail {

// The original triple-loop float kernels: the kNaive golden reference, and
// the kernel a float plan binds for problems too small to amortise packing.
void naive_f32(const GemmDesc& desc, const float* a, const float* b, float* c, int64_t m,
               int64_t k, int64_t n, ThreadPool& pool);

// Cache-blocked float kernel (scalar arithmetic, packs into per-thread
// scratch arenas). Called through GemmPlan::run.
void blocked_f32(const GemmDesc& desc, const float* a, const float* b, float* c,
                 int64_t m, int64_t k, int64_t n, ThreadPool& pool);

// Geometry of the vectorized int kernels. Columns are processed in strips
// of kStrip with kFuse k-steps fused per pass; the weight operand is packed
// column-major in groups of kFuse so each output row reads one contiguous
// kFuse-element group per pass. Packing (plan.cpp) shares these constants.
constexpr int64_t kStrip = 16;
constexpr int64_t kFuse = 8;

// ~32k MACs per parallel task (mirrors row_grain, but for column-strip
// partitioned kernels).
inline int64_t strip_grain(int64_t m, int64_t k) {
  const int64_t macs_per_strip = m * k * kStrip;
  if (macs_per_strip <= 0) return 1;
  const int64_t g = (int64_t{1} << 15) / macs_per_strip;
  return g < 1 ? 1 : g;
}

// Scalar blocked int kernels (moved verbatim from the pre-plan dispatch,
// except the packed LUT slices now arrive from the plan instead of being
// rebuilt per call). Partition rows over `pool` internally.
void blocked_approx_scalar(const int8_t* w, const int8_t* x, int32_t* c, int64_t m,
                           int64_t k, int64_t n, const int32_t* slices,
                           bool accumulate, ThreadPool& pool);
void blocked_exact_scalar(const int8_t* w, const int8_t* x, int32_t* c, int64_t m,
                          int64_t k, int64_t n, bool accumulate, ThreadPool& pool);

// The closed form's conv-plane variant (GemmPlan::run_plane). Strip s is
// output columns [16s, 16s + 16): 16 columns of one output row, or 2 or 4
// whole rows (ow = 8, 4) of one image. Its tap k reads the operand bytes at
// u + base(s) + toff[k], base(s) being the strip's first output position in
// the plane (b·image + i·pw + j) and toff[k] = (c·ph + kh)·pw + kw.
struct PlaneStrips {
  int64_t image;    ///< plane elements per image: channels·ph·pw
  int64_t pw;       ///< plane row pitch
  int64_t ohw, ow;  ///< output positions per image and per row
};

// toff[kk] = (c·ph + kh)·pw + kw for every k-step kk = (c·kernel + kh)·kernel
// + kw of the conv plane x: where a strip reads tap kk from its base.
void plane_tap_offsets(const ConvPlane& x, int32_t* toff);

// Whether every 16-column strip of an oh×ow output is 16 columns of one row
// or whole rows of one image: ow % 16 == 0, or ow ∈ {4, 8} with
// oh·ow % 16 == 0. The plane kernels read such strips.
inline bool whole_row_strips(int64_t oh, int64_t ow) {
  return ow % kStrip == 0 || ((ow == 4 || ow == 8) && oh * ow % kStrip == 0);
}

// The closed form (MicroKernel::kTruncInt) computes a truncated product
// sign(a)·sign(w)·Σ_j w_j·2^j·(|a| & ~(2^(t−j)−1)) as Σ_j c_j·U_j − 128·w:
// per weight the four signed coefficient bytes c_j = sign(w)·w_j·2^j (byte
// j, over the bits j of |w|; kTruncCoef by nibble), per activation the four
// unsigned operand bytes U_j = sign(a)·(|a| & mask_j) + 128. The sum is
// bilinear in the coefficient bytes, so a row may also hold bytewise sums of
// several weights' coefficients: the sentinel's checksum is one such row per
// group of ≤ 16 golden weight rows (kernels::GemmChecksum).
// truncation_depth(tab) is the t in 0..11 whose product `tab` holds outside
// the nibble-0 column, or -1: the one test of whether a table has a closed
// form (plans and checksums both ask it).
int truncation_depth(const approx::SignedMulTable& tab);
// The weight every kernel reads from the int8 w: its low nibble,
// sign-extended.
inline int32_t nibble_value(int8_t w) { return ((static_cast<uint8_t>(w) & 0xF) ^ 8) - 8; }
// Per weight nibble, its coefficient bytes c_j (byte j). Nibble 0 maps to
// zeros, the zero-weight skip.
inline constexpr std::array<int32_t, 16> kTruncCoef = [] {
  std::array<int32_t, 16> coef{};
  for (int32_t nibble = 0; nibble < 16; ++nibble) {
    const int32_t w = (nibble ^ 8) - 8;  // sign-extended, −8…7
    const int32_t s = w < 0 ? -1 : 1;
    const int32_t u = s * w;
    uint32_t bytes = 0;
    for (int j = 0; j < 4; ++j)
      bytes |= static_cast<uint32_t>(static_cast<uint8_t>(s * (u & (1 << j)))) << (8 * j);
    coef[static_cast<size_t>(nibble)] = static_cast<int32_t>(bytes);
  }
  return coef;
}();

// The closed form's rows, packed in blocks of kRowBlock: block b (rows
// b·kRowBlock …, R = min(kRowBlock, m − b·kRowBlock) of them) starts at
// coef + b·kRowBlock·k, and its R words of k-step kk are contiguous there.
// wsum[i] is row i's Σ_k Σ_j c_j (the weights' sum), taken back out as
// 128·wsum. A row sums `flush` k-steps in int16 before widening: a maddubs
// pair is at most 255·Σ|c_j| ≤ 2,040 per weight, so GEMM rows flush every
// 16 k-steps and a row of G summed weights every ⌊16/G⌋.
constexpr int64_t kRowBlock = 4;
struct ClosedFormRows {
  const int32_t* coef;
  const int32_t* wsum;
  int64_t m, k;
  int64_t flush;
};

template <typename Word>
void pack_row_blocks(int64_t m, int64_t k, int32_t* dst, Word word) {
  for (int64_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const int64_t r = m - i0 < kRowBlock ? m - i0 : kRowBlock;
    int32_t* block = dst + i0 * k;
    for (int64_t kk = 0; kk < k; ++kk)
      for (int64_t i = 0; i < r; ++i) block[kk * r + i] = word(i0 + i, kk);
  }
}

// Vectorized kernels: compute output columns [j0, j1) for every row. The
// weight operand arrives packed (plan.cpp layout: column-major in kFuse
// groups); `lines` is the transposed LUT (256 activation lines of 16 nibble
// products, 64-byte aligned, nibble-0 column zeroed). Bit-identical to the
// naive reference: same int32 product set per output element.
#if defined(AXNN_HAVE_AVX2_TU)
bool avx2_runtime_ok();
void avx2_approx_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                      int64_t k, int64_t n, const int32_t* lines, bool accumulate,
                      int64_t j0, int64_t j1);
// u[i] = the four operand bytes U_j = sign(a)·(|a| & mask_j) + 128 of
// a = x[i] at depth t, for i < count (a zero gives 0x80 in each byte).
void avx2_trunc_operands(const int8_t* x, int64_t count, int t, int32_t* u);
// The closed form over the dense X[k, n], columns [j0, j1): each strip of 16
// (the last may be shorter) first stages its operand bytes in `stage`
// (cols_stage_size(k) int32 of the caller's thread), then runs the row
// blocks over them.
inline int64_t cols_stage_size(int64_t k) { return kStrip * (k + 1) + k; }
void avx2_trunc_cols(const ClosedFormRows& w, const int8_t* x, int32_t* c, int64_t n, int t,
                     bool accumulate, int64_t j0, int64_t j1, int32_t* stage);
// The closed form without accumulate over plane strips [s0, s1), X read from
// the operand bytes `u` of a conv plane (see PlaneStrips).
void avx2_trunc_plane(const ClosedFormRows& w, const int32_t* u, const int32_t* toff,
                      int32_t* c, int64_t n, const PlaneStrips& g, int64_t s0, int64_t s1);
// The gather checksum (tables without a closed form; int32 sums, so
// t.int32_sums must hold) over the n columns of a stride-1 plane `x` of
// `channels` ph×pw planes per image under a kernel×kernel window. Strip s
// reads tap (c, kh, kw) at x + base(s) + (c·ph + kh)·pw + kw: whole-row
// strips as avx2_trunc_plane does, or, for one output row (g.ohw == g.ow),
// rows of 16 bytes whose last strip may be short.
void avx2_table_checksum(const ChecksumTable& t, const int8_t* x, int64_t channels,
                         int64_t ph, int64_t kernel, const PlaneStrips& g, int64_t n,
                         int64_t* sums);
// The row check's byte sums at depth t (kernels::row_checksum), each false as
// soon as it meets a negative byte. Dense: v[kk·4 + j] = Σ_j' Y_j(x[kk·n + j'])
// over the [k, n] X. Plane: s[(c·lp + p)·4 + j] = Σ_b Y_j(x[(b·channels + c)
// ·plane + p]) for p < plane, each channel's `plane` bytes summed over the
// batch (positions plane…lp, lp a multiple of 32, hold junk). Every sum must
// fit int32.
bool avx2_operand_sums(const int8_t* x, int64_t k, int64_t n, int t, int32_t* v);
bool avx2_plane_operand_sums(const int8_t* x, int64_t batch, int64_t channels, int64_t plane,
                             int64_t lp, int t, int32_t* s);
// row_sums[i] = Σ_kk Σ_j c_j·v[kk·4 + j] over the coefficient words
// coef[i·k + kk] (bytes c_j, each 0 or ±2^j), summed in int32: the caller
// proves it exact. v is scaled in place.
void avx2_row_dot(const int32_t* coef, int64_t m, int64_t k, int32_t* v, int64_t* row_sums);
// sums[i] = Σ_j c[i·n + j], exact (kernels::row_sums).
void avx2_row_sums(const int32_t* c, int64_t m, int64_t n, int64_t* sums);
// kernels::quantize_i8 and kernels::abs_scan, same results as their scalar
// tiers for every input.
void avx2_quantize_i8(const float* x, int8_t* q, int64_t n, float inv, int32_t lo, int32_t hi);
AbsScan avx2_abs_scan(const float* x, int64_t n, uint32_t limit);
#endif
#if defined(AXNN_HAVE_NEON_TU)
void neon_approx_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                      int64_t k, int64_t n, const int32_t* lines, bool accumulate,
                      int64_t j0, int64_t j1);
#endif

}  // namespace axnn::kernels::detail
