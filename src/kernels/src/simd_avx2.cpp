// axnn — AVX2 int GEMM kernels. This TU is compiled with -mavx2 and must
// only be *called* after a runtime CPU check (Isa::kAvx2 active).
//
// Bit-identity contract: every output element accumulates exactly the same
// multiset of int32 terms as the naive reference kernel. int32 addition is
// associative and commutative (wrap-around), so reordering is bit-exact; the
// zero-weight skip of the naive kernel is reproduced by zeroing the nibble-0
// column of the transposed LUT, and by nibble 0's zero coefficient bytes in
// the closed form.
//
// The LUT kernel avoids vpgatherdd entirely (slow on the virtualized
// cores we target): the plan stores the LUT transposed as 256 activation
// lines of 16 int32 — one 64-byte cache line each — so a k-step's 16-entry
// nibble→product register file R is built from plain aligned loads plus
// in-register 8×8 int32 transposes. Truncated multipliers skip the table:
// their product has a closed form, computed in row blocks of 4 rows × 16
// columns whose accumulators stay in registers for the whole k loop
// (closed_form_block). Column strips stage their operand bytes first
// (avx2_trunc_cols); a stride-1 conv reads them from its padded plane
// (avx2_trunc_plane). The sentinel's checksum of an exact or truncated
// table is one more closed-form row per ≤ 16 weight rows on the same block
// code; only tables without a closed form gather (avx2_table_checksum):
// their rows differ per k-step, so there is no product file to share
// across rows, and a gather pair per 16 columns and k-step beats the
// scalar lookups about 2.4× (bench_micro_gemm's SentinelChecksumResNet20).
#include "internal.hpp"

#if defined(AXNN_HAVE_AVX2_TU)

#include "axnn/kernels/activations.hpp"
#include "axnn/kernels/checksum.hpp"

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace axnn::kernels::detail {

bool avx2_runtime_ok() {
#if defined(__GNUC__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

namespace {

/// Transpose 8 rows of 8 int32 held in r[0..7], in registers.
inline void transpose8(__m256i r[8]) {
  __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
  __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
  __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
  __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
  __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
  __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
  __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
  __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
  __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

/// Build R[16][8] — per-nibble product vectors for 8 activation bytes — from
/// the transposed LUT: 16 aligned line loads + two 8×8 transposes, no
/// gathers. `lines` is 64-byte aligned, line a = products of activation a
/// against nibbles 0..15 (nibble 0 zeroed).
inline void build_r8(const int32_t* lines, const int8_t* xr, int32_t* rout) {
  __m256i lo[8], hi[8];
  for (int j = 0; j < 8; ++j) {
    const int32_t* line = lines + static_cast<size_t>(static_cast<uint8_t>(xr[j])) * 16;
    lo[j] = _mm256_load_si256(reinterpret_cast<const __m256i*>(line));
    hi[j] = _mm256_load_si256(reinterpret_cast<const __m256i*>(line + 8));
  }
  transpose8(lo);
  transpose8(hi);
  for (int wn = 0; wn < 8; ++wn) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(rout + wn * 8), lo[wn]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(rout + (wn + 8) * 8), hi[wn]);
  }
}

constexpr int64_t F = kFuse;
static_assert(kStrip == 16, "strip geometry baked into the kernels below");

}  // namespace

void avx2_approx_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                      int64_t k, int64_t n, const int32_t* lines, bool accumulate,
                      int64_t j0, int64_t j1) {
  alignas(64) int32_t R[F][16 * 16];  // [f][wn*8 .. | 16*8 + wn*8 ..] lo/hi halves
  const int64_t kmain = k - k % F;
  int64_t jj = j0;
  // --- 16-column strips ---
  for (; jj + 16 <= j1; jj += 16) {
    if (!accumulate)
      for (int64_t i = 0; i < m; ++i) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + i * n + jj),
                            _mm256_setzero_si256());
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + i * n + jj + 8),
                            _mm256_setzero_si256());
      }
    int64_t kk = 0;
    for (; kk < kmain; kk += F) {
      for (int64_t f = 0; f < F; ++f) {
        build_r8(lines, x + (kk + f) * n + jj, R[f]);
        build_r8(lines, x + (kk + f) * n + jj + 8, R[f] + 16 * 8);
      }
      const uint8_t* wg = wq + kk * m;  // F-group base: groups are contiguous
      for (int64_t i = 0; i < m; ++i) {
        const uint8_t* wn = wg + i * F;
        int32_t* cr = c + i * n + jj;
        __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr));
        __m256i a1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr + 8));
        for (int64_t f = 0; f < F; ++f) {
          const size_t o = static_cast<size_t>(wn[f]) * 8;
          a0 = _mm256_add_epi32(
              a0, _mm256_load_si256(reinterpret_cast<const __m256i*>(R[f] + o)));
          a1 = _mm256_add_epi32(
              a1, _mm256_load_si256(reinterpret_cast<const __m256i*>(R[f] + 16 * 8 + o)));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr), a0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr + 8), a1);
      }
    }
    for (; kk < k; ++kk) {  // k remainder: flat column layout wq[kk*m + i]
      build_r8(lines, x + kk * n + jj, R[0]);
      build_r8(lines, x + kk * n + jj + 8, R[0] + 16 * 8);
      const uint8_t* wcol = wq + kk * m;
      for (int64_t i = 0; i < m; ++i) {
        int32_t* cr = c + i * n + jj;
        const size_t o = static_cast<size_t>(wcol[i]) * 8;
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(cr),
            _mm256_add_epi32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr)),
                             _mm256_load_si256(reinterpret_cast<const __m256i*>(R[0] + o))));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(cr + 8),
            _mm256_add_epi32(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr + 8)),
                _mm256_load_si256(reinterpret_cast<const __m256i*>(R[0] + 16 * 8 + o))));
      }
    }
  }
  // --- one 8-column strip if at least 8 columns remain ---
  if (jj + 8 <= j1) {
    if (!accumulate)
      for (int64_t i = 0; i < m; ++i)
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + i * n + jj),
                            _mm256_setzero_si256());
    int64_t kk = 0;
    for (; kk < kmain; kk += F) {
      for (int64_t f = 0; f < F; ++f) build_r8(lines, x + (kk + f) * n + jj, R[f]);
      const uint8_t* wg = wq + kk * m;
      for (int64_t i = 0; i < m; ++i) {
        const uint8_t* wn = wg + i * F;
        int32_t* cr = c + i * n + jj;
        __m256i acc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr));
        for (int64_t f = 0; f < F; ++f)
          acc = _mm256_add_epi32(acc, _mm256_load_si256(reinterpret_cast<const __m256i*>(
                                          R[f] + static_cast<size_t>(wn[f]) * 8)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr), acc);
      }
    }
    for (; kk < k; ++kk) {
      build_r8(lines, x + kk * n + jj, R[0]);
      const uint8_t* wcol = wq + kk * m;
      for (int64_t i = 0; i < m; ++i) {
        int32_t* cr = c + i * n + jj;
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(cr),
            _mm256_add_epi32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr)),
                             _mm256_load_si256(reinterpret_cast<const __m256i*>(
                                 R[0] + static_cast<size_t>(wcol[i]) * 8))));
      }
    }
    jj += 8;
  }
  // --- scalar tail (< 8 columns) ---
  for (; jj < j1; ++jj) {
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

namespace {

/// 16 activation bytes of a strip row at x[off]. With fewer than 16 columns
/// left the row is still read whole while the operand (`size` bytes) extends
/// that far — columns never mix, and the extra ones are not stored — and
/// only its last rows go through a zero-padded copy.
inline __m128i load_strip_row(const int8_t* x, int64_t off, int64_t nc, int64_t size) {
  if (off + 16 <= size) return _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + off));
  alignas(16) int8_t pad[16] = {};
  std::memcpy(pad, x + off, static_cast<size_t>(nc));
  return _mm_load_si128(reinterpret_cast<const __m128i*>(pad));
}

/// Two k-steps (activation rows xa, xb) of a 16-column strip for the
/// closed-form kernel. Per column and step, the four unsigned bytes
/// U_j = Y_j + 128 with Y_j = sign(a)·(|a| & mask_j), j = 0..3, so one
/// maddubs against a row's broadcast coefficient bytes adds c0·U0 + c1·U1
/// and c2·U2 + c3·U3 per column. Y_j fits a signed byte, −128 included
/// (|a| = 128 only for a = −128). ua/ub[0] hold columns 0-7, [1] 8-15.
inline void build_u2(__m128i xa, __m128i xb, const __m256i mask[4], __m256i ua[2],
                     __m256i ub[2]) {
  const __m256i a = _mm256_inserti128_si256(_mm256_castsi128_si256(xa), xb, 1);
  const __m256i mag = _mm256_abs_epi8(a);  // 128 for a = −128, as an unsigned byte
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
  __m256i u[4];
  for (int j = 0; j < 4; ++j)
    u[j] = _mm256_xor_si256(_mm256_sign_epi8(_mm256_and_si256(mag, mask[j]), a), bias);
  // Interleave to [U0 U1 U2 U3] per column; lane 0 = step a, lane 1 = step b.
  const __m256i l01 = _mm256_unpacklo_epi8(u[0], u[1]);
  const __m256i h01 = _mm256_unpackhi_epi8(u[0], u[1]);
  const __m256i l23 = _mm256_unpacklo_epi8(u[2], u[3]);
  const __m256i h23 = _mm256_unpackhi_epi8(u[2], u[3]);
  const __m256i q0 = _mm256_unpacklo_epi16(l01, l23);  // columns 0-3
  const __m256i q1 = _mm256_unpackhi_epi16(l01, l23);  // columns 4-7
  const __m256i q2 = _mm256_unpacklo_epi16(h01, h23);  // columns 8-11
  const __m256i q3 = _mm256_unpackhi_epi16(h01, h23);  // columns 12-15
  ua[0] = _mm256_permute2x128_si256(q0, q1, 0x20);
  ub[0] = _mm256_permute2x128_si256(q0, q1, 0x31);
  ua[1] = _mm256_permute2x128_si256(q2, q3, 0x20);
  ub[1] = _mm256_permute2x128_si256(q2, q3, 0x31);
}

/// The byte masks ~(2^(t−j) − 1), j = 0..3, of depth t.
inline void trunc_masks(int t, __m256i mask[4]) {
  for (int j = 0; j < 4; ++j)
    mask[j] = _mm256_set1_epi8(static_cast<char>(~((1 << std::max(t - j, 0)) - 1)));
}

/// The operand bytes of a plane strip's 16 columns for one tap, from `u` at
/// the tap's offset: one row of 16 (L = 16), two rows of 8 or four rows of
/// 4, pw apart. [0] holds columns 0-7, [1] 8-15, as build_u2 lays them out.
template <int L>
inline void load_plane_operands(const int32_t* u, int64_t pw, __m256i out[2]) {
  const auto row8 = [](const int32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  };
  const auto rows4 = [](const int32_t* lo, const int32_t* hi) {
    return _mm256_inserti128_si256(
        _mm256_castsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(lo))),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi)), 1);
  };
  if constexpr (L == 16) {
    out[0] = row8(u);
    out[1] = row8(u + 8);
  } else if constexpr (L == 8) {
    out[0] = row8(u);
    out[1] = row8(u + pw);
  } else {
    static_assert(L == 4, "plane strips are rows of 16, 8 or 4 columns");
    out[0] = rows4(u, u + pw);
    out[1] = rows4(u + 2 * pw, u + 3 * pw);
  }
}

/// Calls body.template operator()<L>() with L the row length of g's strips,
/// which hold whole rows (detail::whole_row_strips): 16 columns of one row
/// (ow % 16 == 0), or 2 rows of 8 or 4 rows of 4.
template <typename Body>
inline void with_strip_rows(const PlaneStrips& g, Body&& body) {
  if (g.ow % kStrip == 0)
    body.template operator()<16>();
  else if (g.ow == 8)
    body.template operator()<8>();
  else
    body.template operator()<4>();
}

/// R rows of the closed form over one 16-column strip, into acc[r][0]
/// (columns 0-7) and acc[r][1] (8-15). Each k-step loads the strip's operand
/// bytes once, from base + toff[kk] as L-wide rows pw apart, and adds
/// Σ_j c_j·U_j per row and column with one maddubs per 8 columns into int16
/// partials, which widen into the int32 accumulators every `flush` k-steps
/// (the bound in ClosedFormRows). The accumulators start at −128·wsum,
/// taking back the U_j bias, and C is not touched inside the k loop.
template <int R, int L>
inline void closed_form_block(const int32_t* wp, const int32_t* wsum, const int32_t* base,
                              const int32_t* toff, int64_t k, int64_t pw, int64_t flush,
                              __m256i acc[R][2]) {
  const __m256i ones = _mm256_set1_epi16(1);
  for (int r = 0; r < R; ++r) acc[r][0] = acc[r][1] = _mm256_set1_epi32(-128 * wsum[r]);
  for (int64_t k0 = 0; k0 < k; k0 += flush) {
    const int64_t k1 = std::min(k, k0 + flush);
    __m256i s[R][2];
    for (int r = 0; r < R; ++r) s[r][0] = s[r][1] = _mm256_setzero_si256();
    for (int64_t kk = k0; kk < k1; ++kk) {
      __m256i u[2];
      load_plane_operands<L>(base + toff[kk], pw, u);
      for (int r = 0; r < R; ++r) {
        const __m256i cw = _mm256_set1_epi32(wp[kk * R + r]);
        s[r][0] = _mm256_add_epi16(s[r][0], _mm256_maddubs_epi16(u[0], cw));
        s[r][1] = _mm256_add_epi16(s[r][1], _mm256_maddubs_epi16(u[1], cw));
      }
    }
    for (int r = 0; r < R; ++r) {
      acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(s[r][0], ones));
      acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(s[r][1], ones));
    }
  }
}

/// Every row block of `w` over the strip at column jj (nc ≤ 16 columns; a
/// shorter strip reads and writes C through lane masks), each block's rows
/// of C stored once: overwritten, or added to with `accumulate`.
template <int L>
void closed_form_strip(const ClosedFormRows& w, const int32_t* base, const int32_t* toff,
                       int64_t pw, int32_t* c, int64_t n, int64_t jj, int64_t nc,
                       bool accumulate) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i keep[2] = {
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(nc)), lane),
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(nc) - 8), lane)};
  for (int64_t i0 = 0; i0 < w.m; i0 += kRowBlock) {
    const auto block = [&]<int R>() {
      __m256i acc[R][2];
      closed_form_block<R, L>(w.coef + i0 * w.k, w.wsum + i0, base, toff, w.k, pw, w.flush,
                              acc);
      for (int r = 0; r < R; ++r)
        for (int h = 0; h < 2; ++h) {
          int32_t* cr = c + (i0 + r) * n + jj + 8 * h;
          __m256i v = acc[r][h];
          if (nc == kStrip) {
            if (accumulate)
              v = _mm256_add_epi32(v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr)));
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr), v);
          } else {
            if (accumulate) v = _mm256_add_epi32(v, _mm256_maskload_epi32(cr, keep[h]));
            _mm256_maskstore_epi32(cr, keep[h], v);
          }
        }
    };
    switch (std::min(kRowBlock, w.m - i0)) {
      case 1:
        block.template operator()<1>();
        break;
      case 2:
        block.template operator()<2>();
        break;
      case 3:
        block.template operator()<3>();
        break;
      default:
        block.template operator()<4>();
    }
  }
}

}  // namespace

void avx2_trunc_cols(const ClosedFormRows& w, const int8_t* x, int32_t* c, int64_t n, int t,
                     bool accumulate, int64_t j0, int64_t j1, int32_t* stage) {
  __m256i mask[4];
  trunc_masks(t, mask);
  const int64_t k = w.k;
  // The staged operands of tap kk sit at 16·kk; the offsets follow them.
  int32_t* toff = stage + kStrip * (k + 1);
  for (int64_t kk = 0; kk < k; ++kk) toff[kk] = static_cast<int32_t>(kStrip * kk);
  const auto store = [](int32_t* p, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  };
  for (int64_t jj = j0; jj < j1; jj += kStrip) {
    // The last strip may hold fewer than 16 columns: the activations are
    // read by load_strip_row, C through lane masks.
    const int64_t nc = std::min(kStrip, j1 - jj);
    for (int64_t kk = 0; kk < k; kk += 2) {
      const int64_t off = kk * n + jj;
      __m256i ua[2], ub[2];
      build_u2(load_strip_row(x, off, nc, k * n),
               kk + 1 < k ? load_strip_row(x, off + n, nc, k * n) : _mm_setzero_si128(), mask,
               ua, ub);
      int32_t* sp = stage + kk * kStrip;
      store(sp, ua[0]);
      store(sp + 8, ua[1]);
      store(sp + 16, ub[0]);
      store(sp + 24, ub[1]);
    }
    closed_form_strip<16>(w, stage, toff, 0, c, n, jj, nc, accumulate);
  }
}

void avx2_trunc_operands(const int8_t* x, int64_t count, int t, int32_t* u) {
  __m256i mask[4];
  trunc_masks(t, mask);
  __m256i ua[2], ub[2];
  const auto store = [](int32_t* p, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  };
  int64_t i = 0;
  for (; i + 32 <= count; i += 32) {
    build_u2(_mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i)),
             _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i + 16)), mask, ua, ub);
    store(u + i, ua[0]);
    store(u + i + 8, ua[1]);
    store(u + i + 16, ub[0]);
    store(u + i + 24, ub[1]);
  }
  if (i == count) return;
  alignas(32) int8_t xt[32] = {};
  alignas(32) int32_t ut[32];
  std::memcpy(xt, x + i, static_cast<size_t>(count - i));
  build_u2(_mm_load_si128(reinterpret_cast<const __m128i*>(xt)),
           _mm_load_si128(reinterpret_cast<const __m128i*>(xt + 16)), mask, ua, ub);
  store(ut, ua[0]);
  store(ut + 8, ua[1]);
  store(ut + 16, ub[0]);
  store(ut + 24, ub[1]);
  std::memcpy(u + i, ut, static_cast<size_t>(count - i) * sizeof(int32_t));
}

void avx2_trunc_plane(const ClosedFormRows& w, const int32_t* u, const int32_t* toff,
                      int32_t* c, int64_t n, const PlaneStrips& g, int64_t s0, int64_t s1) {
  // The first strip's output position (b, i, j) by division, every later
  // one by stepping 16 positions: a strip is 16 columns of one row or whole
  // rows, so image and row ends are always crossed exactly.
  const int64_t oh = g.ohw / g.ow;
  int64_t jj = s0 * kStrip, b = jj / g.ohw, i = jj % g.ohw / g.ow, j = jj % g.ow;
  with_strip_rows(g, [&]<int L>() {
    for (int64_t s = s0; s < s1; ++s, jj += kStrip) {
      closed_form_strip<L>(w, u + b * g.image + i * g.pw + j, toff, g.pw, c, n, jj, kStrip,
                           false);
      for (j += kStrip; j >= g.ow; j -= g.ow) ++i;
      if (i == oh) {
        i = 0;
        ++b;
      }
    }
  });
}

namespace {

/// A checksum strip's 16 activation bytes at one tap: one row of 16 (L =
/// 16), two rows of 8 or four rows of 4, pw apart; nc < 16 (a short last
/// strip of one row) reads only nc bytes.
template <int L>
inline __m128i checksum_bytes(const int8_t* p, int64_t pw, int64_t nc) {
  if constexpr (L == 16) {
    if (nc == 16) return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    alignas(16) int8_t pad[16] = {};
    std::memcpy(pad, p, static_cast<size_t>(nc));
    return _mm_load_si128(reinterpret_cast<const __m128i*>(pad));
  } else if constexpr (L == 8) {
    return _mm_unpacklo_epi64(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)),
                              _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + pw)));
  } else {
    static_assert(L == 4, "checksum strips are rows of 16, 8 or 4 columns");
    int32_t r[4];
    for (int i = 0; i < 4; ++i) std::memcpy(&r[i], p + i * pw, sizeof(int32_t));
    return _mm_setr_epi32(r[0], r[1], r[2], r[3]);
  }
}

/// The k-loop of every strip: per tap one gather pair from the tap's row,
/// indexed by the zero-extended bytes, summed in two int32 registers (exact
/// under t.int32_sums). The strip's 16 sums are stored as int64.
template <int L>
void checksum_strips(const ChecksumTable& t, const int8_t* x, int64_t channels, int64_t ph,
                     int64_t kernel, const PlaneStrips& g, int64_t n, int64_t* sums) {
  const auto lo = [](__m256i v) { return _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)); };
  const auto hi = [](__m256i v) { return _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1)); };
  for (int64_t jj = 0; jj < n; jj += kStrip) {
    const int64_t nc = std::min(kStrip, n - jj), b = jj / g.ohw, r = jj - b * g.ohw;
    const int8_t* base = x + b * g.image + r / g.ow * g.pw + r % g.ow;
    __m256i s0 = _mm256_setzero_si256(), s1 = _mm256_setzero_si256();
    const uint32_t* row_of = t.row_of;
    for (int64_t c = 0; c < channels; ++c)
      for (int64_t kh = 0; kh < kernel; ++kh)
        for (int64_t kw = 0; kw < kernel; ++kw) {
          const __m128i a = checksum_bytes<L>(base + (c * ph + kh) * g.pw + kw, g.pw, nc);
          const int* row = t.rows + 256 * static_cast<size_t>(*row_of++);
          s0 = _mm256_add_epi32(s0, _mm256_i32gather_epi32(row, _mm256_cvtepu8_epi32(a), 4));
          s1 = _mm256_add_epi32(
              s1, _mm256_i32gather_epi32(row, _mm256_cvtepu8_epi32(_mm_srli_si128(a, 8)), 4));
        }
    const __m256i q[4] = {lo(s0), hi(s0), lo(s1), hi(s1)};
    alignas(32) int64_t out[kStrip];
    int64_t* dst = nc == kStrip ? sums + jj : out;
    for (int i = 0; i < 4; ++i) _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 4 * i), q[i]);
    if (nc < kStrip) std::memcpy(sums + jj, out, static_cast<size_t>(nc) * sizeof(int64_t));
  }
}

}  // namespace

void avx2_table_checksum(const ChecksumTable& t, const int8_t* x, int64_t channels,
                         int64_t ph, int64_t kernel, const PlaneStrips& g, int64_t n,
                         int64_t* sums) {
  if (g.ohw == g.ow)  // one output row: rows of 16, the last strip may be short
    checksum_strips<16>(t, x, channels, ph, kernel, g, n, sums);
  else
    with_strip_rows(
        g, [&]<int L>() { checksum_strips<L>(t, x, channels, ph, kernel, g, n, sums); });
}

namespace {

/// 32 bytes of x at `off`; past `size`, zeros.
inline __m256i load_bytes(const int8_t* x, int64_t off, int64_t size) {
  if (off + 32 <= size) return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + off));
  alignas(32) int8_t pad[32] = {};
  std::memcpy(pad, x + off, static_cast<size_t>(size - off));
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(pad));
}

/// Whether any byte of v has its sign bit set.
inline bool any_negative(__m256i v) { return _mm256_movemask_epi8(v) != 0; }

}  // namespace

bool avx2_operand_sums(const int8_t* x, int64_t k, int64_t n, int t, int32_t* v) {
  __m256i mask[4];
  trunc_masks(t, mask);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i lane = _mm256_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                                        17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
  // The bytes of a row's last, short chunk: lanes below n % 32.
  const __m256i tail = _mm256_cmpgt_epi8(_mm256_set1_epi8(static_cast<char>(n % 32)), lane);
  for (int64_t kk = 0; kk < k; ++kk) {
    // Per operand byte j, vpsadbw sums of 8 masked bytes each in 4 int64.
    __m256i acc[4] = {zero, zero, zero, zero}, seen = zero;
    const auto add = [&](__m256i a) {
      seen = _mm256_or_si256(seen, a);
      for (int j = 0; j < 4; ++j)
        acc[j] = _mm256_add_epi64(acc[j], _mm256_sad_epu8(_mm256_and_si256(a, mask[j]), zero));
    };
    const int64_t row = kk * n;
    int64_t j0 = 0;
    for (; j0 + 32 <= n; j0 += 32)
      add(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + row + j0)));
    if (j0 < n) add(_mm256_and_si256(load_bytes(x, row + j0, k * n), tail));
    if (any_negative(seen)) return false;
    for (int j = 0; j < 4; ++j) {
      const __m128i h = _mm_add_epi64(_mm256_castsi256_si128(acc[j]),
                                      _mm256_extracti128_si256(acc[j], 1));
      v[4 * kk + j] = static_cast<int32_t>(_mm_cvtsi128_si64(h) + _mm_extract_epi64(h, 1));
    }
  }
  return true;
}

bool avx2_plane_operand_sums(const int8_t* x, int64_t batch, int64_t channels, int64_t plane,
                             int64_t lp, int t, int32_t* s) {
  __m256i mask[4];
  trunc_masks(t, mask);
  const __m256i zero = _mm256_setzero_si256();
  const int64_t image = channels * plane, size = batch * image;
  // Two images' masked bytes (≤ 127 each) add within a byte, and 128 such
  // pairs within int16.
  constexpr int64_t kImagesPerFlush = 256;
  for (int64_t c = 0; c < channels; ++c)
    for (int64_t p0 = 0; p0 < plane; p0 += 32) {
      // A chunk of 32 positions of channel c over every image, two images
      // at a time, widened to int16 by unpacking: lo holds positions 0-7 and
      // 16-23, hi 8-15 and 24-31. A chunk past the channel's plane reads the
      // next channel's bytes into lanes nobody reads (their signs still
      // count: they are plane bytes too).
      __m256i seen = zero;
      for (int64_t b0 = 0; b0 < batch; b0 += kImagesPerFlush) {
        __m256i lo[4] = {zero, zero, zero, zero}, hi[4] = {zero, zero, zero, zero};
        const int64_t b1 = std::min(batch, b0 + kImagesPerFlush);
        for (int64_t b = b0; b < b1; b += 2) {
          const __m256i a = load_bytes(x, b * image + c * plane + p0, size);
          const __m256i a2 =
              b + 1 < b1 ? load_bytes(x, (b + 1) * image + c * plane + p0, size) : zero;
          seen = _mm256_or_si256(seen, _mm256_or_si256(a, a2));
          for (int j = 0; j < 4; ++j) {
            const __m256i y =
                _mm256_add_epi8(_mm256_and_si256(a, mask[j]), _mm256_and_si256(a2, mask[j]));
            lo[j] = _mm256_add_epi16(lo[j], _mm256_unpacklo_epi8(y, zero));
            hi[j] = _mm256_add_epi16(hi[j], _mm256_unpackhi_epi8(y, zero));
          }
        }
        // Interleave the four sums of each position: q holds positions
        // 2i, 2i+1 of lo's (or hi's) first 8 in its low lane, of its last 8
        // in its high lane.
        int32_t* d = s + (c * lp + p0) * 4;
        for (int h = 0; h < 2; ++h) {
          const __m256i* u = h == 0 ? lo : hi;
          const __m256i a = _mm256_unpacklo_epi16(u[0], u[1]);
          const __m256i b = _mm256_unpacklo_epi16(u[2], u[3]);
          const __m256i e = _mm256_unpackhi_epi16(u[0], u[1]);
          const __m256i f = _mm256_unpackhi_epi16(u[2], u[3]);
          const __m256i q[4] = {_mm256_unpacklo_epi32(a, b), _mm256_unpackhi_epi32(a, b),
                                _mm256_unpacklo_epi32(e, f), _mm256_unpackhi_epi32(e, f)};
          for (int i = 0; i < 4; ++i)
            for (int lane = 0; lane < 2; ++lane) {
              // lo covers positions 0-7 and 16-23, hi 8-15 and 24-31.
              auto* out = reinterpret_cast<__m256i*>(d + 4 * (8 * h + 16 * lane + 2 * i));
              __m256i w = _mm256_cvtepi16_epi32(lane == 0 ? _mm256_castsi256_si128(q[i])
                                                          : _mm256_extracti128_si256(q[i], 1));
              if (b0 > 0) w = _mm256_add_epi32(w, _mm256_loadu_si256(out));
              _mm256_storeu_si256(out, w);
            }
        }
      }
      if (any_negative(seen)) return false;
    }
  return true;
}

void avx2_row_dot(const int32_t* coef, int64_t m, int64_t k, int32_t* v, int64_t* row_sums) {
  // Every c_j is 0 or ±2^j, so with v scaled to v_j·2^j (in place) each
  // product is v's lane with c_j's sign: vpsignd, no multiply. Two k-steps
  // per vector: their 8 coefficient bytes widened against their 8 sums; an
  // odd last k-step adds its 4 products in lanes 0-3.
  const __m256i scale = _mm256_setr_epi32(0, 1, 2, 3, 0, 1, 2, 3);
  int64_t kk = 0;
  for (; kk + 2 <= k; kk += 2) {
    auto* p = reinterpret_cast<__m256i*>(v + 4 * kk);
    _mm256_storeu_si256(p, _mm256_sllv_epi32(_mm256_loadu_si256(p), scale));
  }
  if (kk < k) {
    auto* p = reinterpret_cast<__m128i*>(v + 4 * kk);
    _mm_storeu_si128(p, _mm_sllv_epi32(_mm_loadu_si128(p), _mm256_castsi256_si128(scale)));
  }
  for (int64_t i = 0; i < m; ++i) {
    const int32_t* w = coef + i * k;
    __m256i acc = _mm256_setzero_si256();
    for (kk = 0; kk + 2 <= k; kk += 2) {
      const __m256i cw =
          _mm256_cvtepi8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(w + kk)));
      acc = _mm256_add_epi32(
          acc, _mm256_sign_epi32(
                   _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + 4 * kk)), cw));
    }
    if (kk < k)
      acc = _mm256_add_epi32(
          acc, _mm256_inserti128_si256(
                   _mm256_setzero_si256(),
                   _mm_sign_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(v + 4 * kk)),
                                  _mm_cvtepi8_epi32(_mm_cvtsi32_si128(w[kk]))),
                   0));
    __m128i h = _mm_add_epi32(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
    h = _mm_add_epi32(h, _mm_shuffle_epi32(h, 0x4E));
    h = _mm_add_epi32(h, _mm_shuffle_epi32(h, 0xB1));
    row_sums[i] = _mm_cvtsi128_si32(h);
  }
}

void avx2_row_sums(const int32_t* c, int64_t m, int64_t n, int64_t* sums) {
  // Each element as its low 16 bits (0…65535) plus 65536 times its high 16
  // (−32768…32767), both halves summed in int32 lanes: exact for 32,768
  // elements per lane, then folded into int64.
  constexpr int64_t kBlock = 8 * 32768;
  const __m256i low = _mm256_set1_epi32(0xFFFF);
  const auto fold = [](__m256i v) {
    alignas(32) int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
    int64_t sum = 0;
    for (const int32_t lane : lanes) sum += lane;
    return sum;
  };
  for (int64_t i = 0; i < m; ++i) {
    const int32_t* row = c + i * n;
    int64_t sum = 0;
    for (int64_t j0 = 0; j0 < n; j0 += kBlock) {
      const int64_t j1 = std::min(n, j0 + kBlock);
      __m256i lo = _mm256_setzero_si256(), hi = _mm256_setzero_si256();
      int64_t j = j0;
      for (; j + 8 <= j1; j += 8) {
        const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j));
        lo = _mm256_add_epi32(lo, _mm256_and_si256(v, low));
        hi = _mm256_add_epi32(hi, _mm256_srai_epi32(v, 16));
      }
      // lo's lanes are non-negative sums below 2^31.
      sum += fold(lo) + 65536 * fold(hi);
      for (; j < j1; ++j) sum += row[j];
    }
    sums[i] = sum;
  }
}

namespace {

/// quant::quantize_level of 8 floats as int32 lanes: the same float
/// operations in the same order. The ordered compare zeroes NaN (+0, as the
/// scalar v == v ? v : 0 does); vmaxps and vminps pick the bound unless v
/// is past it, as std::max and std::min do (they differ only when both are
/// equal, and so are the values); the add and subtract of 1.5·2^23 round
/// half to even; the truncating convert meets an integer.
inline __m256i quantize_levels(const float* x, __m256 inv, __m256 lo, __m256 hi) {
  const __m256 shift = _mm256_set1_ps(12582912.0f);  // 1.5 * 2^23
  __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x), inv);
  v = _mm256_and_ps(v, _mm256_cmp_ps(v, v, _CMP_ORD_Q));
  v = _mm256_min_ps(_mm256_max_ps(v, lo), hi);
  return _mm256_cvttps_epi32(_mm256_sub_ps(_mm256_add_ps(v, shift), shift));
}

/// 8 int32 lanes in [−128, 127] as 8 bytes, in order.
inline __m128i narrow8(__m256i v) {
  const __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  return _mm_packs_epi16(w, w);
}

}  // namespace

void avx2_quantize_i8(const float* x, int8_t* q, int64_t n, float inv, int32_t lo, int32_t hi) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 vlo = _mm256_set1_ps(static_cast<float>(lo));
  const __m256 vhi = _mm256_set1_ps(static_cast<float>(hi));
  // 32 levels per iteration: the two packs interleave the four vectors'
  // 4-lane halves (a0-3 b0-3 c0-3 d0-3 | a4-7 b4-7 c4-7 d4-7), and the
  // permute puts the dwords back in order.
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i ab = _mm256_packs_epi32(quantize_levels(x + i, vinv, vlo, vhi),
                                          quantize_levels(x + i + 8, vinv, vlo, vhi));
    const __m256i cd = _mm256_packs_epi32(quantize_levels(x + i + 16, vinv, vlo, vhi),
                                          quantize_levels(x + i + 24, vinv, vlo, vhi));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i),
                        _mm256_permutevar8x32_epi32(_mm256_packs_epi16(ab, cd), order));
  }
  for (; i + 8 <= n; i += 8)
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i),
                     narrow8(quantize_levels(x + i, vinv, vlo, vhi)));
  if (i < n) {  // the last n % 8 values, through a zero-padded copy
    alignas(32) float pad[8] = {};
    int8_t out[8];
    std::memcpy(pad, x + i, static_cast<size_t>(n - i) * sizeof(float));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out),
                     narrow8(quantize_levels(pad, vinv, vlo, vhi)));
    std::memcpy(q + i, out, static_cast<size_t>(n - i));
  }
}

AbsScan avx2_abs_scan(const float* x, int64_t n, uint32_t limit) {
  // Every pattern is below 2^31, so signed compares order them exactly; a
  // limit at or past 2^31 − 1 has none above it.
  const __m256i magnitude = _mm256_set1_epi32(0x7FFFFFFF);
  const __m256i vlimit = _mm256_set1_epi32(static_cast<int32_t>(std::min(limit, 0x7FFFFFFFu)));
  const auto bits = [&](const float* p) {
    return _mm256_and_si256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)), magnitude);
  };
  // Each int32 lane counts at most kBlock / 8 patterns before it is folded
  // into the int64 count, so counts stay exact at any length.
  constexpr int64_t kBlock = int64_t{1} << 30;
  __m256i mx = _mm256_setzero_si256();
  AbsScan s;
  const auto fold = [&s](__m256i count) {
    alignas(32) int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), count);
    for (const int32_t lane : lanes) s.above -= lane;  // lanes count down
  };
  const auto above = [&](__m256i a, __m256i b) {
    return _mm256_add_epi32(_mm256_cmpgt_epi32(a, vlimit), _mm256_cmpgt_epi32(b, vlimit));
  };
  int64_t i = 0;
  while (i + 8 <= n) {
    const int64_t i1 = std::min(n, i + kBlock);
    __m256i count = _mm256_setzero_si256();
    for (; i + 32 <= i1; i += 32) {
      const __m256i a = bits(x + i), b = bits(x + i + 8), c = bits(x + i + 16),
                    d = bits(x + i + 24);
      mx = _mm256_max_epu32(mx, _mm256_max_epu32(_mm256_max_epu32(a, b), _mm256_max_epu32(c, d)));
      count = _mm256_add_epi32(count, _mm256_add_epi32(above(a, b), above(c, d)));
    }
    for (; i + 8 <= i1; i += 8) {
      const __m256i a = bits(x + i);
      mx = _mm256_max_epu32(mx, a);
      count = _mm256_add_epi32(count, _mm256_cmpgt_epi32(a, vlimit));
    }
    fold(count);
  }
  if (i < n) {  // the last n % 8 values, zero-padded: +0 is above no limit
    alignas(32) float pad[8] = {};
    std::memcpy(pad, x + i, static_cast<size_t>(n - i) * sizeof(float));
    const __m256i a = bits(pad);
    mx = _mm256_max_epu32(mx, a);
    fold(_mm256_cmpgt_epi32(a, vlimit));
  }
  __m128i m = _mm_max_epu32(_mm256_castsi256_si128(mx), _mm256_extracti128_si256(mx, 1));
  m = _mm_max_epu32(m, _mm_shuffle_epi32(m, 0x4E));
  m = _mm_max_epu32(m, _mm_shuffle_epi32(m, 0xB1));
  s.max_bits = static_cast<uint32_t>(_mm_cvtsi128_si32(m));
  return s;
}

}  // namespace axnn::kernels::detail

#endif  // AXNN_HAVE_AVX2_TU
