#include "axnn/kernels/activations.hpp"

#include <algorithm>
#include <bit>

#include "axnn/quant/quantizer.hpp"
#include "internal.hpp"

namespace axnn::kernels {

void quantize_i8(const float* x, int8_t* q, int64_t n, float inv, int32_t lo, int32_t hi,
                 Isa isa) {
#if defined(AXNN_HAVE_AVX2_TU)
  if (isa == Isa::kAvx2) {
    detail::avx2_quantize_i8(x, q, n, inv, lo, hi);
    return;
  }
#endif
  (void)isa;
  for (int64_t i = 0; i < n; ++i)
    q[i] = static_cast<int8_t>(quant::quantize_level(x[i], inv, lo, hi));
}

AbsScan abs_scan(const float* x, int64_t n, uint32_t limit) {
#if defined(AXNN_HAVE_AVX2_TU)
  if (active_isa() == Isa::kAvx2) return detail::avx2_abs_scan(x, n, limit);
#endif
  AbsScan s;
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t a = std::bit_cast<uint32_t>(x[i]) & 0x7FFFFFFFu;
    s.max_bits = std::max(s.max_bits, a);
    s.above += a > limit ? 1 : 0;
  }
  return s;
}

}  // namespace axnn::kernels
