// axnn — integer GEMM kernels behind the unified axnn::kernels dispatch.
//
// Shares GemmDesc/Backend with the float API (axnn/kernels/gemm.hpp).
// Operand layout is fixed for the int path — W:[M,K] int8 (int4-range
// weights), X:[K,N] int8 activations, C:[M,N] int32 accumulators — so the
// transpose flags of GemmDesc must be false (std::invalid_argument
// otherwise); `accumulate` is honoured.
//
// The kBlocked path runs through a prepared GemmPlan (axnn/kernels/plan.hpp)
// acquired from the global PlanCache at every shape: the plan binds its
// micro-kernel when it is built (approx: the closed form for exact and
// truncated tables on AVX2, else vector strips from 4 output rows up and the
// scalar slices kernel below; exact: the scalar kernel) and owns the LUT
// re-laid-out for that kernel (per-weight-nibble slices for the scalar
// kernel, a transposed 64-byte-per-activation layout for the vector
// kernels), so per-call work is just operand packing into pooled scratch.
// gemm_exact multiplies raw int8 weight bytes; it serves the weights wider
// than 4 bits that no table reads, since a 4-bit exact GEMM runs as
// gemm_approx through the exact table.
// Integer addition is exact and order-free, so every backend/ISA combination
// is bit-identical to the naive reference.
#pragma once

#include <cstdint>

#include "axnn/axmul/adder.hpp"
#include "axnn/kernels/gemm.hpp"
#include "axnn/kernels/signed_lut.hpp"

namespace axnn::kernels {

class PlanMemo;
struct ConvPlane;

/// C[M,N] (=|+=) W ·~ X through the multiplier LUT (paper Eq. 4). `memo`,
/// when given, is a per-call-site PlanMemo that resolves the plan without
/// touching the global cache's mutex on repeat shapes (layers pass their
/// own; one memo must not be shared across threads).
void gemm_approx(const GemmDesc& desc, const int8_t* w, const int8_t* x, int32_t* c,
                 int64_t m, int64_t k, int64_t n, const approx::SignedMulTable& tab,
                 Backend backend, ThreadPool* pool = nullptr, PlanMemo* memo = nullptr);
inline void gemm_approx(const GemmDesc& desc, const int8_t* w, const int8_t* x,
                        int32_t* c, int64_t m, int64_t k, int64_t n,
                        const approx::SignedMulTable& tab, PlanMemo* memo = nullptr) {
  gemm_approx(desc, w, x, c, m, k, n, tab, Backend::kBlocked, nullptr, memo);
}

/// gemm_approx (kBlocked, accumulate off) with X[k, n] the im2col lowering of
/// the conv plane `x`, read in place: the plan for (m, k, n, tab) must read
/// it (GemmPlan::reads_plane), else std::invalid_argument. Same accumulators.
void gemm_approx_plane(const int8_t* w, const ConvPlane& x, int32_t* c, int64_t m,
                       int64_t k, int64_t n, const approx::SignedMulTable& tab,
                       PlanMemo* memo = nullptr);
/// Whether gemm_approx_plane(·, x, ·, m, k, n, tab) reads `x`: the plan it
/// runs does (GemmPlan::reads_plane).
bool approx_reads_plane(const ConvPlane& x, int64_t m, int64_t k, int64_t n,
                        const approx::SignedMulTable& tab, PlanMemo* memo = nullptr);

/// C[M,N] (=|+=) W · X with exact int arithmetic on raw int8 weights: the
/// kernel of weights wider than 4 bits, and the naive reference.
void gemm_exact(const GemmDesc& desc, const int8_t* w, const int8_t* x, int32_t* c,
                int64_t m, int64_t k, int64_t n, Backend backend,
                ThreadPool* pool = nullptr, PlanMemo* memo = nullptr);
inline void gemm_exact(const GemmDesc& desc, const int8_t* w, const int8_t* x, int32_t* c,
                       int64_t m, int64_t k, int64_t n, PlanMemo* memo = nullptr) {
  gemm_exact(desc, w, x, c, m, k, n, Backend::kBlocked, nullptr, memo);
}

/// Approximate GEMM whose partial sums are combined through an adder model
/// (paper outlook: multiple approximation techniques). The adder chain fixes
/// the per-element reduction order, so both backends run the same
/// column-ordered loop; the backend argument only exists for dispatch
/// uniformity. One virtual call per MAC — evaluation passes only.
void gemm_approx_accum(const GemmDesc& desc, const int8_t* w, const int8_t* x,
                       int32_t* c, int64_t m, int64_t k, int64_t n,
                       const approx::SignedMulTable& tab, const axmul::Adder& adder,
                       Backend backend, ThreadPool* pool = nullptr);
inline void gemm_approx_accum(const GemmDesc& desc, const int8_t* w, const int8_t* x,
                              int32_t* c, int64_t m, int64_t k, int64_t n,
                              const approx::SignedMulTable& tab,
                              const axmul::Adder& adder) {
  gemm_approx_accum(desc, w, x, c, m, k, n, tab, adder, Backend::kBlocked, nullptr);
}

}  // namespace axnn::kernels
