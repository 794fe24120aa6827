#include "axnn/kernels/checksum.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <cstdlib>
#include <limits>
#include <map>

#include "axnn/kernels/isa.hpp"
#include "axnn/kernels/plan.hpp"
#include "axnn/kernels/scratch.hpp"
#include "axnn/kernels/signed_lut.hpp"
#include "internal.hpp"

namespace axnn::kernels {

namespace {

/// Golden weight rows summed into one closed-form checksum row: its
/// coefficient bytes then stay within a signed byte (|c_2| + |c_3| ≤ 8 and
/// |c_0| + |c_1| ≤ 3 per weight, so |C_k2| + |C_k3| ≤ 128), and a maddubs
/// pair of G summed weights within 2,040·G.
constexpr int64_t kRowsPerSum = 16;

/// The scalar tiers: X row by row, every output position's sum in int64.
/// tap(kk) gives k-step kk's term, a callable from the activation byte (as
/// unsigned) to its int64 contribution.
template <typename Tap>
void scalar_walk(const ConvPlane& x, int64_t* sums, Tap tap) {
  const int64_t oh = x.oh(), ow = x.ow(), s = x.stride;
  const int64_t image = x.channels * x.ph * x.pw;
  std::fill(sums, sums + x.batch * oh * ow, int64_t{0});
  int64_t kk = 0;
  for (int64_t c = 0; c < x.channels; ++c)
    for (int64_t kh = 0; kh < x.kernel; ++kh)
      for (int64_t kw = 0; kw < x.kernel; ++kw) {
        const auto term = tap(kk++);
        const int8_t* at = x.data + (c * x.ph + kh) * x.pw + kw;
        int64_t* out = sums;
        for (int64_t b = 0; b < x.batch; ++b)
          for (int64_t i = 0; i < oh; ++i, out += ow) {
            const int8_t* xr = at + b * image + i * s * x.pw;
            for (int64_t j = 0; j < ow; ++j) out[j] += term(static_cast<uint8_t>(xr[j * s]));
          }
      }
}

/// Dense X[k, n] is the plane of k channels of one 1×n row under a 1×1
/// kernel: tap kk of column j is x[kk·n + j].
ConvPlane dense_plane(const int8_t* x, int64_t k, int64_t n) { return {x, 1, k, 1, n, 1, 1}; }

}  // namespace

void table_checksum(const ChecksumTable& t, const int8_t* x, int64_t n, int64_t* sums) {
  table_checksum(t, dense_plane(x, t.k, n), sums);
}

void table_checksum(const ChecksumTable& t, const ConvPlane& x, int64_t* sums) {
#if defined(AXNN_HAVE_AVX2_TU)
  // The vector tier sums in int32 and reads whole-row strips, or a single
  // output row (dense columns) in rows of 16 with a short last strip.
  const int64_t oh = x.oh(), ow = x.ow();
  const bool strips = detail::whole_row_strips(oh, ow) || (x.batch == 1 && oh == 1);
  if (active_isa() == Isa::kAvx2 && t.int32_sums && x.stride == 1 && strips) {
    const detail::PlaneStrips g{x.channels * x.ph * x.pw, x.pw, oh * ow, ow};
    detail::avx2_table_checksum(t, x.data, x.channels, x.ph, x.kernel, g, x.batch * oh * ow,
                                sums);
    return;
  }
#endif
  scalar_walk(x, sums, [&](int64_t kk) {
    const int32_t* row = t.rows + 256 * static_cast<size_t>(t.row_of[kk]);
    return [row](uint8_t a) { return int64_t{row[a]}; };
  });
}

GemmChecksum::GemmChecksum(const int8_t* w, int64_t groups, int64_t m, int64_t k,
                           const approx::SignedMulTable& tab)
    : m_(m), k_(k), depth_(detail::truncation_depth(tab)) {
  if (closed_form()) {
    // Per group, `lines_` rows of up to kRowsPerSum golden rows each: k-step
    // kk's word holds the bytewise sums C_kj = Σ_m c_j(W[m,kk]), the row's
    // weight sum the Σ_kk Σ_m W[m,kk] the closed form's bias takes back out.
    const int64_t per = std::clamp<int64_t>(m, 1, kRowsPerSum);
    lines_ = (m + per - 1) / per;
    flush_ = kRowsPerSum / per;
    coef_.resize(static_cast<size_t>(groups * lines_ * k));
    wsum_.assign(static_cast<size_t>(groups * lines_), 0);
    for (int64_t g = 0; g < groups; ++g) {
      const int8_t* wg = w + g * m * k;
      detail::pack_row_blocks(lines_, k, coef_.data() + g * lines_ * k, [&](int64_t r, int64_t kk) {
        std::array<int32_t, 4> cj{};
        for (int64_t i = r * per; i < std::min(m, (r + 1) * per); ++i) {
          const int32_t word = detail::kTruncCoef[static_cast<uint8_t>(wg[i * k + kk]) & 0xF];
          for (size_t j = 0; j < 4; ++j) cj[j] += static_cast<int8_t>(word >> (8 * j));
        }
        uint32_t bytes = 0;
        for (size_t j = 0; j < 4; ++j)
          bytes |= static_cast<uint32_t>(static_cast<uint8_t>(cj[j])) << (8 * j);
        return static_cast<int32_t>(bytes);
      });
      int64_t magnitude = 0;  // Σ |W|: 128× that bounds every column sum
      for (int64_t i = 0; i < m; ++i)
        for (int64_t kk = 0; kk < k; ++kk) {
          const int32_t v = detail::nibble_value(wg[i * k + kk]);
          wsum_[static_cast<size_t>(g * lines_ + i / per)] += v;
          magnitude += std::abs(v);
        }
      int32_sums_ = int32_sums_ && 128 * magnitude <= std::numeric_limits<int32_t>::max();
    }
    // The row check's coefficient words: each golden weight's c_j, and the
    // largest Σ_kk |W| of any row.
    row_coef_.resize(static_cast<size_t>(groups * m * k));
    for (int64_t i = 0; i < groups * m; ++i) {
      int64_t magnitude = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        const int8_t wv = w[i * k + kk];
        row_coef_[static_cast<size_t>(i * k + kk)] =
            detail::kTruncCoef[static_cast<uint8_t>(wv) & 0xF];
        magnitude += std::abs(detail::nibble_value(wv));
      }
      row_magnitude_ = std::max(row_magnitude_, magnitude);
    }
    return;
  }
  // S_k depends only on column k's histogram of weight nibbles, so columns
  // with equal histograms share one row (a depthwise leaf needs at most 16).
  // Zero weights are left out: every kernel skips them, and some tables
  // have T(a, 0) != 0. A group's column sums fit int32 when
  // Σ_k max_a |S_k(a)| does.
  using Histogram = std::array<int32_t, 16>;
  std::map<Histogram, uint32_t> row_of;
  std::vector<int64_t> row_max;  // max_a |S(a)| per row
  const int32_t* t = tab.data();
  row_of_.assign(static_cast<size_t>(groups * k), 0);
  for (int64_t g = 0; g < groups; ++g) {
    const int8_t* wg = w + g * m * k;
    int64_t bound = 0;
    for (int64_t kk = 0; kk < k; ++kk) {
      Histogram h{};
      for (int64_t i = 0; i < m; ++i)
        if (wg[i * k + kk] != 0) ++h[static_cast<size_t>(wg[i * k + kk]) & 0xF];
      auto [it, fresh] = row_of.emplace(h, static_cast<uint32_t>(row_of.size()));
      if (fresh) {
        int64_t mx = 0;
        for (size_t a = 0; a < 256; ++a) {
          int32_t s = 0;
          for (size_t nib = 1; nib < h.size(); ++nib) s += h[nib] * t[(a << 4) | nib];
          rows_.push_back(s);
          mx = std::max(mx, std::abs(static_cast<int64_t>(s)));
        }
        row_max.push_back(mx);
      }
      row_of_[static_cast<size_t>(g * k + kk)] = it->second;
      bound += row_max[it->second];
    }
    int32_sums_ = int32_sums_ && bound <= std::numeric_limits<int32_t>::max();
  }
}

namespace {

/// The closed-form checksum's scalar tier: Σ_kk Σ_j C_kkj·U_j(a) −
/// 128·Σ_kk Σ_m W[m,kk] in int64, with each k-step's coefficient bytes
/// summed over the group's rows and written as Σ_j C_kkj·Y_j(a), since
/// U_j = Y_j + 128 and Σ_j C_kkj is that k-step's weight sum.
void scalar_closed_form(const int32_t* coef, int64_t lines, int64_t k, int depth,
                        const ConvPlane& x, int64_t* sums) {
  std::array<std::array<int64_t, 4>, 256> y{};  // Y_j of each activation byte
  for (int32_t a = -128; a < 128; ++a)
    for (int j = 0; j < 4; ++j) {
      const int32_t kept = std::abs(a) & ~((1 << std::max(depth - j, 0)) - 1);
      y[static_cast<uint8_t>(a)][static_cast<size_t>(j)] = a < 0 ? -kept : kept;
    }
  scalar_walk(x, sums, [&](int64_t kk) {
    std::array<int64_t, 4> c{};  // k-step kk's words, summed over the rows
    for (int64_t i0 = 0; i0 < lines; i0 += detail::kRowBlock) {
      const int64_t rows = std::min(detail::kRowBlock, lines - i0);
      for (int64_t r = 0; r < rows; ++r)
        for (size_t j = 0; j < 4; ++j)
          c[j] += static_cast<int8_t>(coef[i0 * k + kk * rows + r] >> (8 * j));
    }
    return [c, &y](uint8_t a) {
      const std::array<int64_t, 4>& ya = y[a];
      return c[0] * ya[0] + c[1] * ya[1] + c[2] * ya[2] + c[3] * ya[3];
    };
  });
}

#if defined(AXNN_HAVE_AVX2_TU)
/// sums[j] = Σ_r c[r·n + j] over the `lines` int32 rows the vector tier
/// wrote.
void sum_lines(const int32_t* c, int64_t lines, int64_t n, int64_t* sums) {
  std::fill(sums, sums + n, int64_t{0});
  for (int64_t r = 0; r < lines; ++r)
    for (int64_t j = 0; j < n; ++j) sums[j] += c[r * n + j];
}
#endif

}  // namespace

void table_checksum(const GemmChecksum& c, int64_t group, const int8_t* x, int64_t n,
                    int64_t* sums) {
  const int64_t k = c.k_;
  if (!c.closed_form()) {
    table_checksum(ChecksumTable{c.rows_.data(), c.row_of_.data() + group * k, k, c.int32_sums_},
                   x, n, sums);
    return;
  }
  const int32_t* coef = c.coef_.data() + group * c.lines_ * k;
#if defined(AXNN_HAVE_AVX2_TU)
  if (active_isa() == Isa::kAvx2 && c.int32_sums_) {
    // The GEMM's column strips over the checksum rows.
    auto* out = scratch<int32_t>(ScratchSlot::kWeights, static_cast<size_t>(c.lines_ * n));
    const detail::ClosedFormRows rows{coef, c.wsum_.data() + group * c.lines_, c.lines_, k,
                                      c.flush_};
    detail::avx2_trunc_cols(
        rows, x, out, n, c.depth_, false, 0, n,
        scratch<int32_t>(ScratchSlot::kPlane, static_cast<size_t>(detail::cols_stage_size(k))));
    sum_lines(out, c.lines_, n, sums);
    return;
  }
#endif
  scalar_closed_form(coef, c.lines_, k, c.depth_, dense_plane(x, k, n), sums);
}

void table_checksum(const GemmChecksum& c, int64_t group, const ConvPlane& x, int64_t* sums) {
  const int64_t k = c.k_;
  if (!c.closed_form()) {
    table_checksum(ChecksumTable{c.rows_.data(), c.row_of_.data() + group * k, k, c.int32_sums_},
                   x, sums);
    return;
  }
  const int32_t* coef = c.coef_.data() + group * c.lines_ * k;
#if defined(AXNN_HAVE_AVX2_TU)
  const int64_t oh = x.oh(), ow = x.ow(), n = x.batch * oh * ow;
  if (active_isa() == Isa::kAvx2 && c.int32_sums_ && x.stride == 1 &&
      detail::whole_row_strips(oh, ow) && x.channels * x.ph * x.pw <= INT32_MAX) {
    // The GEMM's plane strips over the checksum rows, from the plane's
    // operand bytes at the table's depth.
    auto* toff = scratch<int32_t>(ScratchSlot::kWeights, static_cast<size_t>(k + c.lines_ * n));
    int32_t* out = toff + k;
    detail::plane_tap_offsets(x, toff);
    const int64_t count = x.batch * x.channels * x.ph * x.pw;
    auto* u = scratch<int32_t>(ScratchSlot::kPlane, static_cast<size_t>(count));
    detail::avx2_trunc_operands(x.data, count, c.depth_, u);
    const detail::ClosedFormRows rows{coef, c.wsum_.data() + group * c.lines_, c.lines_, k,
                                      c.flush_};
    const detail::PlaneStrips g{x.channels * x.ph * x.pw, x.pw, oh * ow, ow};
    detail::avx2_trunc_plane(rows, u, toff, out, n, g, 0, n / detail::kStrip);
    sum_lines(out, c.lines_, n, sums);
    return;
  }
#endif
  scalar_closed_form(coef, c.lines_, k, c.depth_, x, sums);
}

namespace {

/// Positions whose sums of bytes ≤ 127 the row check adds in int32: its
/// byte sums V and window sums stay exact below this many.
constexpr int64_t kMaxSummed = std::numeric_limits<int32_t>::max() / 127;

/// The closed form's operand masks at depth t: Y_j(a) = a & mask_j for a ≥ 0.
std::array<uint8_t, 4> operand_masks(int depth) {
  std::array<uint8_t, 4> masks{};
  for (int j = 0; j < 4; ++j)
    masks[static_cast<size_t>(j)] = static_cast<uint8_t>(~((1 << std::max(depth - j, 0)) - 1));
  return masks;
}

/// v[kk·4 + j] = Σ_j' Y_j(x[kk·n + j']) of the dense X[k, n], or false at
/// the first negative byte.
bool scalar_operand_sums(const int8_t* x, int64_t k, int64_t n, int depth, int32_t* v) {
  const std::array<uint8_t, 4> masks = operand_masks(depth);
  for (int64_t kk = 0; kk < k; ++kk) {
    std::array<int32_t, 4> sum{};
    for (const int8_t* a = x + kk * n; a < x + (kk + 1) * n; ++a) {
      if (*a < 0) return false;
      for (size_t j = 0; j < 4; ++j) sum[j] += *a & masks[j];
    }
    std::copy(sum.begin(), sum.end(), v + 4 * kk);
  }
  return true;
}

/// s[(c·lp + p)·4 + j] = Σ_b Y_j(plane[b, c, p]) for p < ph·pw: each
/// channel's masked plane summed over the batch, the four operand bytes of
/// a position side by side; or false at the first negative byte.
bool scalar_plane_operand_sums(const ConvPlane& x, int depth, int64_t lp, int32_t* s) {
  const std::array<uint8_t, 4> masks = operand_masks(depth);
  const int64_t plane = x.ph * x.pw;
  for (int64_t c = 0; c < x.channels; ++c) std::fill_n(s + c * lp * 4, plane * 4, 0);
  for (int64_t b = 0; b < x.batch; ++b)
    for (int64_t c = 0; c < x.channels; ++c) {
      const int8_t* a = x.data + (b * x.channels + c) * plane;
      int32_t* sc = s + c * lp * 4;
      for (int64_t p = 0; p < plane; ++p) {
        if (a[p] < 0) return false;
        for (size_t j = 0; j < 4; ++j) sc[p * 4 + static_cast<int64_t>(j)] += a[p] & masks[j];
      }
    }
  return true;
}

/// v[kk·4 + j] of every tap kk = (c·kernel + kh)·kernel + kw of the plane x:
/// the sum of S_cj (as scalar_plane_operand_sums lays it out) over the
/// tap's window, rows kh + stride·i (i < oh) by columns kw + stride·i'
/// (i' < ow). A window is its neighbour `stride` taps back, shifted by one
/// output: per kh, the column sums `col` (kernel·pw·4 int32) drop the row
/// the window leaves and add the one it enters, and so do the tap sums
/// along kw. Every loop runs over a position's four sums at once. Shared
/// by both tiers.
void window_sums(const ConvPlane& x, const int32_t* s, int64_t lp, int32_t* v,
                 int32_t* __restrict col) {
  const int64_t oh = x.oh(), ow = x.ow(), st = x.stride, kn = x.kernel;
  const int64_t row = 4 * x.pw;  // int32 per plane row
  for (int64_t c = 0; c < x.channels; ++c) {
    const int32_t* __restrict sc = s + c * lp * 4;
    for (int64_t kh = 0; kh < kn; ++kh) {
      int32_t* __restrict ck = col + kh * row;
      if (kh < st) {
        std::fill_n(ck, row, 0);
        for (int64_t i = 0; i < oh; ++i) {
          const int32_t* __restrict r = sc + (kh + st * i) * row;
          for (int64_t q = 0; q < row; ++q) ck[q] += r[q];
        }
      } else {
        const int32_t* __restrict back = ck - st * row;
        const int32_t* __restrict leave = sc + (kh - st) * row;
        const int32_t* __restrict enter = sc + (kh - st + st * oh) * row;
        for (int64_t q = 0; q < row; ++q) ck[q] = back[q] - leave[q] + enter[q];
      }
      int32_t* __restrict vk = v + 4 * (c * kn + kh) * kn;
      for (int64_t kw = 0; kw < kn; ++kw) {
        int32_t* __restrict out = vk + 4 * kw;
        if (kw < st) {
          std::fill_n(out, 4, 0);
          for (int64_t i = 0; i < ow; ++i)
            for (int64_t j = 0; j < 4; ++j) out[j] += ck[(kw + st * i) * 4 + j];
        } else {
          const int32_t* __restrict back = out - 4 * st;
          for (int64_t j = 0; j < 4; ++j)
            out[j] = back[j] - ck[(kw - st) * 4 + j] + ck[(kw - st + st * ow) * 4 + j];
        }
      }
    }
  }
}

/// row_sums[i] = Σ_kk Σ_j c_j(W[i, kk])·v[kk·4 + j] over group `group`'s
/// rows: in int32 on AVX2 when the row bound proves it exact (v is then
/// clobbered), else in int64.
void row_dot(const int32_t* coef, int64_t m, int64_t k, int64_t bound, int32_t* v,
             int64_t* row_sums) {
#if defined(AXNN_HAVE_AVX2_TU)
  if (active_isa() == Isa::kAvx2 && bound <= std::numeric_limits<int32_t>::max()) {
    detail::avx2_row_dot(coef, m, k, v, row_sums);
    return;
  }
#endif
  for (int64_t i = 0; i < m; ++i) {
    int64_t sum = 0;
    for (int64_t kk = 0; kk < k; ++kk) {
      const int32_t word = coef[i * k + kk];
      for (int j = 0; j < 4; ++j)
        sum += int64_t{static_cast<int8_t>(word >> (8 * j))} * v[4 * kk + j];
    }
    row_sums[i] = sum;
  }
}

}  // namespace

bool row_checksum(const GemmChecksum& c, int64_t group, const int8_t* x, int64_t n,
                  int64_t* row_sums) {
  const int64_t k = c.k_;
  if (!c.closed_form() || n > kMaxSummed) return false;
  auto* v = scratch<int32_t>(ScratchSlot::kWeights, static_cast<size_t>(4 * k));
  const bool non_negative =
#if defined(AXNN_HAVE_AVX2_TU)
      active_isa() == Isa::kAvx2 ? detail::avx2_operand_sums(x, k, n, c.depth_, v) :
#endif
                                 scalar_operand_sums(x, k, n, c.depth_, v);
  if (!non_negative) return false;
  row_dot(c.row_coef_.data() + group * c.m_ * k, c.m_, k, 127 * n * c.row_magnitude_, v,
          row_sums);
  return true;
}

bool row_checksum(const GemmChecksum& c, int64_t group, const ConvPlane& x, int64_t* row_sums) {
  const int64_t k = c.k_, plane = x.ph * x.pw;
  if (!c.closed_form() || x.batch * plane > kMaxSummed) return false;
  // Each channel's plane rounded up to whole 32-byte chunks.
  const int64_t lp = (plane + 31) / 32 * 32;
  auto* s = scratch<int32_t>(ScratchSlot::kPlane, static_cast<size_t>(x.channels * lp * 4));
  const bool non_negative =
#if defined(AXNN_HAVE_AVX2_TU)
      active_isa() == Isa::kAvx2
          ? detail::avx2_plane_operand_sums(x.data, x.batch, x.channels, plane, lp, c.depth_, s)
          :
#endif
          scalar_plane_operand_sums(x, c.depth_, lp, s);
  if (!non_negative) return false;
  auto* v = scratch<int32_t>(ScratchSlot::kWeights, static_cast<size_t>(4 * (k + x.kernel * x.pw)));
  window_sums(x, s, lp, v, v + 4 * k);
  row_dot(c.row_coef_.data() + group * c.m_ * k, c.m_, k,
          127 * x.batch * x.oh() * x.ow() * c.row_magnitude_, v, row_sums);
  return true;
}

void row_sums(const int32_t* c, int64_t m, int64_t n, int64_t* sums) {
#if defined(AXNN_HAVE_AVX2_TU)
  if (active_isa() == Isa::kAvx2) {
    detail::avx2_row_sums(c, m, n, sums);
    return;
  }
#endif
  for (int64_t i = 0; i < m; ++i) {
    int64_t sum = 0;
    for (const int32_t* e = c + i * n; e < c + (i + 1) * n; ++e) sum += *e;
    sums[i] = sum;
  }
}

}  // namespace axnn::kernels
