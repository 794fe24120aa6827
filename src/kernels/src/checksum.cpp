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
    : k_(k), depth_(detail::truncation_depth(tab)) {
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

}  // namespace axnn::kernels
