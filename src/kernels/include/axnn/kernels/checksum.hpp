// axnn — table checksums: the column sums the sentinel's exact ABFT check
// compares an approximate GEMM against (DESIGN.md §5f).
//
// For C[m, n] = W ·~ X through a multiplier table T, every column satisfies
// Σ_m C[m, n] = Σ_k S_k(X[k, n]), with S_k(a) = Σ_{m: W[m,k]≠0} T(W[m,k], a)
// a 256-entry row per k-step. table_checksum computes the right-hand side
// from those rows, reading X as dense columns or straight from a conv's
// padded int8 plane, so a conv that ran its GEMM from the plane needs no
// columns to be checked. The ISA tier follows active_isa(): on AVX2, when
// int32 sums are exact, 16 columns at a time with the k-loop inside, each
// k-step one vpgatherdd pair from the step's row indexed by the 16
// activation bytes; the scalar tier walks X row by row in int64. Integer
// sums do not depend on order, so every tier gives the same sums.
#pragma once

#include <cstdint>

namespace axnn::kernels {

struct ConvPlane;

/// The rows S_k of one checksum: k-step kk reads the 256 int32 at
/// rows + 256·row_of[kk], indexed by the activation byte as unsigned.
struct ChecksumTable {
  const int32_t* rows = nullptr;
  const uint32_t* row_of = nullptr;
  int64_t k = 0;
  /// Whether Σ_kk max_a |S_kk(a)| < 2^31, so int32 column sums are exact;
  /// false leaves the checksum to the scalar tier, which sums in int64.
  bool int32_sums = false;
};

/// sums[j] = Σ_kk S_kk(X[kk, j]) for j < n, X the dense int8 [t.k, n].
void table_checksum(const ChecksumTable& t, const int8_t* x, int64_t n, int64_t* sums);

/// The same with X the im2col lowering of the conv plane `x`, read in place
/// (t.k = channels·kernel², one sum per output position: batch·oh·ow).
void table_checksum(const ChecksumTable& t, const ConvPlane& x, int64_t* sums);

}  // namespace axnn::kernels
