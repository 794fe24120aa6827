// axnn — the integer GEMM of a quantized conv/FC forward, shared by Conv2d
// and Linear (nn-internal). Both quantized modes run it: an exact leaf is a
// leaf without a multiplier table (plan_leaf_exec drops the table of every
// kQuantExact leaf), and with weights of at most 4 bits it multiplies
// through the pristine exact table, so exact and approximate leaves take the
// same kernels. The paper's power-of-two, zero-point-free quantizer makes
// its int8 GEMM the fake-quantized float GEMM, bit for bit, while partial
// sums stay below 2^24 units of s_x·s_w.
#pragma once

#include <cstdint>
#include <string>

#include "axnn/kernels/plan.hpp"
#include "axnn/nn/monitor.hpp"
#include "axnn/nn/plan.hpp"

namespace axnn::nn::detail {

/// Throw std::logic_error unless the leaf can run `ex`: kQuantApprox needs a
/// multiplier table, and a table reads 4-bit weight operands. Without a table
/// any width in [2, 8] runs (see gemm_table).
/// `who` prefixes the message ("Conv2d", "Linear").
void check_leaf_exec(const LeafExec& ex, int weight_bits, const char* who);

/// Whether the leaf runs exact products this pass: it has no table, or,
/// being a table leaf without an adder, the monitor forces it exact (asked
/// once, before the leaf picks its lowering).
bool runs_exact(const Layer& leaf, const LeafExec& ex, ForwardMonitor* monitor);

/// The table the leaf's GEMM multiplies through this pass: its own unless it
/// runs exact (`exact`, runs_exact). An exact leaf with weights of at most 4
/// bits takes one pristine exact table, whose plans run the closed form at
/// depth 0 on AVX2; wider weights get null and run gemm_exact on raw bytes.
const approx::SignedMulTable* gemm_table(const LeafExec& ex, bool exact, int weight_bits);

/// Whether the leaf's GEMM runs from the conv plane `x` instead of its
/// columns: it multiplies through `tab` (gemm_table) without an adder, and
/// the plan for `tab` reads the plane. kernels::approx_reads_plane decides,
/// from the kernel the plan binds and the conv geometry.
bool reads_plane(const LeafExec& ex, const approx::SignedMulTable* tab, kernels::PlanMemo& memo,
                 int64_t m, int64_t k, int64_t n, const kernels::ConvPlane& x);

/// Whether anything besides the GEMM reads the leaf's columns X[k, n] in
/// this forward: a training forward's backward state, an attached monitor
/// that does not take planes (on_leaf_gemm) or the ge_residual diagnostics
/// (an exact re-run).
bool cols_consumed(const ExecContext& ctx, const LeafExec& ex);

/// C_g[m,n] = W_g[m,k] · X_g[k,n] for each of `groups` groups stored back to
/// back (W_g at w + g·m·k, X_g at x + g·k·n, C_g at c + g·m·n). The kernel:
/// gemm_approx_accum when the leaf has an adder; gemm_exact when `tab`
/// (gemm_table) is null; gemm_approx through `tab` otherwise, from `plane`
/// when given (one group; reads_plane holds, and `x` may be null unless
/// cols_consumed). Every group not accumulated through an adder is reported
/// to the monitor as exact or approximate (`exact`, runs_exact), which may
/// repair C_g: with the plane when it ran from one and the monitor takes
/// planes, else with X_g. With a collector asking for ge_residual, an
/// approximate leaf re-runs its GEMM through the exact table and records
/// eps = y~ - y against its fit.
void leaf_gemm(const Layer& leaf, const LeafExec& ex, bool exact,
               const approx::SignedMulTable* tab, ForwardMonitor* monitor,
               kernels::PlanMemo& memo, const std::string& obs_path, int64_t groups,
               const int8_t* w, const int8_t* x, int32_t* c, int64_t m, int64_t k, int64_t n,
               const kernels::ConvPlane* plane = nullptr);

}  // namespace axnn::nn::detail
