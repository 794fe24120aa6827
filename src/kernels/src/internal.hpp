// axnn — kernels-module internal interfaces shared between the dispatch
// TUs (gemm_f32.cpp, int_gemm.cpp, plan.cpp) and the per-ISA kernel TUs
// (simd_avx2.cpp, simd_neon.cpp), which are compiled with ISA-specific
// flags and must stay behind a C++-level firewall: nothing in this header
// may require vector intrinsics to declare.
#pragma once

#include <cstdint>

namespace axnn {
class ThreadPool;
}

namespace axnn::kernels {
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
// kFuse-byte group per pass. Packing (GemmPlan::pack_weights) shares these
// constants.
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

// Vectorized kernels: compute output columns [j0, j1) for every row. The
// weight operand arrives packed (GemmPlan::pack_weights layout: column-major
// in kFuse groups); `lines` is the transposed LUT (256 activation lines of
// 16 nibble products, 64-byte aligned, nibble-0 column zeroed). Bit-identical
// to the naive reference: same int32 product set per output element.
#if defined(AXNN_HAVE_AVX2_TU)
bool avx2_runtime_ok();
void avx2_approx_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                      int64_t k, int64_t n, const int32_t* lines, bool accumulate,
                      int64_t j0, int64_t j1);
void avx2_exact_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                     int64_t k, int64_t n, bool accumulate, int64_t j0, int64_t j1);
#endif
#if defined(AXNN_HAVE_NEON_TU)
void neon_approx_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                      int64_t k, int64_t n, const int32_t* lines, bool accumulate,
                      int64_t j0, int64_t j1);
void neon_exact_cols(const uint8_t* wq, const int8_t* x, int32_t* c, int64_t m,
                     int64_t k, int64_t n, bool accumulate, int64_t j0, int64_t j1);
#endif

}  // namespace axnn::kernels::detail
