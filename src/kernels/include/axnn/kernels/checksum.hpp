// axnn — table checksums: the sums the sentinel's exact ABFT check compares
// an approximate GEMM against (DESIGN.md §5f), over columns or over rows.
//
// For C[m, n] = W ·~ X through a multiplier table T, every column satisfies
// Σ_m C[m, n] = Σ_k S_k(X[k, n]), with S_k(a) = Σ_{m: W[m,k]≠0} T(W[m,k], a).
// A GemmChecksum holds the right-hand side for a GEMM's golden weights
// under a pristine table, in one of two forms, and table_checksum evaluates
// it, reading X as dense columns or straight from a conv's padded int8
// plane, so a conv that ran its GEMM from the plane needs no columns to be
// checked.
//
//   * Closed form (exact and trunc1–11 tables). The closed-form GEMM sums
//     Σ_j c_j(w)·U_j(a), bilinear in the weight's coefficient bytes, so
//     S_k is one closed-form row whose coefficient bytes are
//     C_kj = Σ_m c_j(W[m,k]): one int32 word per k-step and group of ≤ 16
//     golden rows. On AVX2 it runs on the GEMM's own row-block code, from
//     operand bytes it builds itself at the table's depth; the scalar tier
//     evaluates the same sum in int64.
//   * Rows (every other table: EvoApprox, corrupted copies). S_k as a
//     256-entry int32 row per distinct weight histogram, indexed by the
//     activation byte. On AVX2, 16 columns at a time with the k-loop
//     inside, each k-step one vpgatherdd pair from the step's row; the
//     scalar tier walks X row by row in int64.
//
// A closed form also sums the other way: with Y_j(a) = U_j(a) − 128, every
// row satisfies Σ_n C[m, n] = Σ_k Σ_j c_j(W[m,k])·V_kj, V_kj = Σ_n Y_j(X[k, n]).
// row_checksum evaluates that from each golden row's coefficient bytes and
// byte sums V of X: one pass over the dense columns, or over a conv's
// plane, where a tap's V is a window sum of the batch's masked plane. It
// runs only when that pass finds every byte of X ≥ 0; then T(w, a) never
// decreases as w grows, so a single weight or table-entry fault cannot
// cancel within a row sum (DESIGN.md §5f).
//
// Integer sums do not depend on order, so every tier gives the same sums.
#pragma once

#include <cstdint>
#include <vector>

namespace axnn::approx {
class SignedMulTable;
}

namespace axnn::kernels {

struct ConvPlane;

/// A view of the rows S_k of one checksum: k-step kk reads the 256 int32 at
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

/// The checksum of a GEMM's weights W (`groups` row-major [m, k] blocks of
/// int4-range weights, read like every kernel reads them: the low nibble,
/// sign-extended) under the table `tab`; both are read only here.
class GemmChecksum {
public:
  GemmChecksum(const int8_t* w, int64_t groups, int64_t m, int64_t k,
               const approx::SignedMulTable& tab);

  /// Whether `tab` has a closed form (exact, trunc1–11): the checksum is
  /// coefficient words, else 256-entry rows.
  bool closed_form() const { return depth_ >= 0; }

private:
  friend void table_checksum(const GemmChecksum& c, int64_t group, const int8_t* x, int64_t n,
                             int64_t* sums);
  friend void table_checksum(const GemmChecksum& c, int64_t group, const ConvPlane& x,
                             int64_t* sums);
  friend bool row_checksum(const GemmChecksum& c, int64_t group, const int8_t* x, int64_t n,
                           int64_t* row_sums);
  friend bool row_checksum(const GemmChecksum& c, int64_t group, const ConvPlane& x,
                           int64_t* row_sums);

  int64_t m_ = 0, k_ = 0;
  int depth_ = -1;  ///< the closed form's truncation depth; -1: rows
  /// Every column sum fits int32, so the vector tier may sum in int32.
  bool int32_sums_ = true;
  /// Closed form: per group, `lines_` rows of coefficient words (one per
  /// ≤ 16 golden rows, in the GEMM's row blocks) and each row's weight sum;
  /// each row sums `flush_` k-steps in int16.
  int64_t lines_ = 0, flush_ = 0;
  std::vector<int32_t> coef_, wsum_;
  /// Closed form, the row check: per group, each golden row's coefficient
  /// words c_j(W[i, kk]) ([m, k], row-major), and the largest Σ_kk |W[i, kk]|
  /// of any row, which bounds a row sum by 127·n times it.
  std::vector<int32_t> row_coef_;
  int64_t row_magnitude_ = 0;
  /// Rows: row_of_[group·k + kk] selects a row of rows_ (columns with equal
  /// weight histograms share one).
  std::vector<int32_t> rows_;
  std::vector<uint32_t> row_of_;
};

/// sums[j] = Σ_m C[m, j] that group `group`'s GEMM over the dense X[k, n]
/// gives under the checksum's weights and table, for j < n.
void table_checksum(const GemmChecksum& c, int64_t group, const int8_t* x, int64_t n,
                    int64_t* sums);

/// The same with X the im2col lowering of the conv plane `x`, read in place.
void table_checksum(const GemmChecksum& c, int64_t group, const ConvPlane& x, int64_t* sums);

/// row_sums[i] = Σ_j C[i, j] that group `group`'s GEMM over the dense X[k, n]
/// gives under the checksum's weights and table, for i < m — when the
/// checksum has a closed form and every byte of X is ≥ 0. Otherwise it
/// returns false and row_sums is unspecified: the caller checks columns.
bool row_checksum(const GemmChecksum& c, int64_t group, const int8_t* x, int64_t n,
                  int64_t* row_sums);

/// The same with X the im2col lowering of the conv plane `x` (any stride),
/// read in place: every byte of the plane must be ≥ 0.
bool row_checksum(const GemmChecksum& c, int64_t group, const ConvPlane& x, int64_t* row_sums);

/// sums[i] = Σ_j c[i·n + j] in int64 for i < m: the row sums of a GEMM's
/// int32 C, the other side of the row check.
void row_sums(const int32_t* c, int64_t m, int64_t n, int64_t* sums);

}  // namespace axnn::kernels
