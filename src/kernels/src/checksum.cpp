#include "axnn/kernels/checksum.hpp"

#include <algorithm>

#include "axnn/kernels/isa.hpp"
#include "axnn/kernels/plan.hpp"
#include "internal.hpp"

namespace axnn::kernels {

namespace {

/// The scalar tier: X row by row, every output position's sum in int64.
void scalar_checksum(const ChecksumTable& t, const ConvPlane& x, int64_t* sums) {
  const int64_t oh = x.oh(), ow = x.ow(), s = x.stride;
  const int64_t image = x.channels * x.ph * x.pw;
  std::fill(sums, sums + x.batch * oh * ow, int64_t{0});
  const uint32_t* row_of = t.row_of;
  for (int64_t c = 0; c < x.channels; ++c)
    for (int64_t kh = 0; kh < x.kernel; ++kh)
      for (int64_t kw = 0; kw < x.kernel; ++kw) {
        const int32_t* row = t.rows + 256 * static_cast<size_t>(*row_of++);
        const int8_t* tap = x.data + (c * x.ph + kh) * x.pw + kw;
        int64_t* out = sums;
        for (int64_t b = 0; b < x.batch; ++b)
          for (int64_t i = 0; i < oh; ++i, out += ow) {
            const int8_t* xr = tap + b * image + i * s * x.pw;
            for (int64_t j = 0; j < ow; ++j) out[j] += row[static_cast<uint8_t>(xr[j * s])];
          }
      }
}

}  // namespace

void table_checksum(const ChecksumTable& t, const int8_t* x, int64_t n, int64_t* sums) {
  // Dense X[k, n] is the plane of k channels of one 1×n row under a 1×1
  // kernel: tap kk of column j is x[kk·n + j].
  table_checksum(t, ConvPlane{x, 1, t.k, 1, n, 1, 1}, sums);
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
  scalar_checksum(t, x, sums);
}

}  // namespace axnn::kernels
