#include "leaf_gemm.hpp"

#include <stdexcept>

#include "axnn/kernels/int_gemm.hpp"
#include "axnn/nn/exec.hpp"
#include "axnn/obs/telemetry.hpp"
#include "obs_hooks.hpp"

namespace axnn::nn::detail {

void check_leaf_exec(const LeafExec& ex, int weight_bits, const char* who) {
  if (ex.mode == ExecMode::kQuantApprox && ex.mul == nullptr)
    throw std::logic_error(std::string(who) + ": kQuantApprox requires a multiplier table");
  if (ex.mul != nullptr && weight_bits > 4)
    throw std::logic_error(std::string(who) +
                           ": approximate execution requires weight_bits <= 4 (LUT operand)");
}

namespace {

/// The pristine exact table every exact GEMM of at most 4-bit weights
/// multiplies through.
const approx::SignedMulTable& exact_table() {
  static const approx::SignedMulTable tab;
  return tab;
}

bool ge_residual_on(const LeafExec& ex) {
  if (ex.mul == nullptr || !obs::enabled()) return false;
  const obs::Collector* col = obs::collector();
  return col != nullptr && col->config().ge_residual;
}

}  // namespace

bool runs_exact(const Layer& leaf, const LeafExec& ex, ForwardMonitor* monitor) {
  return ex.mul == nullptr ||
         (monitor != nullptr && ex.adder == nullptr && monitor->force_exact(leaf));
}

const approx::SignedMulTable* gemm_table(const LeafExec& ex, bool exact, int weight_bits) {
  if (!exact) return ex.mul;
  return weight_bits <= 4 ? &exact_table() : nullptr;
}

bool reads_plane(const LeafExec& ex, const approx::SignedMulTable* tab, kernels::PlanMemo& memo,
                 int64_t m, int64_t k, int64_t n, const kernels::ConvPlane& x) {
  return tab != nullptr && ex.adder == nullptr &&
         kernels::approx_reads_plane(x, m, k, n, *tab, &memo);
}

bool cols_consumed(const ExecContext& ctx, const LeafExec& ex) {
  return ctx.training || (ctx.monitor != nullptr && !ctx.monitor->takes_planes()) ||
         ge_residual_on(ex);
}

void leaf_gemm(const Layer& leaf, const LeafExec& ex, bool exact,
               const approx::SignedMulTable* tab, ForwardMonitor* monitor,
               kernels::PlanMemo& memo, const std::string& obs_path, int64_t groups,
               const int8_t* w, const int8_t* x, int32_t* c, int64_t m, int64_t k, int64_t n,
               const kernels::ConvPlane* plane) {
  const approx::SignedMulTable* reported = exact ? nullptr : tab;
  for (int64_t g = 0; g < groups; ++g) {
    const int8_t* wg = w + g * m * k;
    const int8_t* xg = x != nullptr ? x + g * k * n : nullptr;
    int32_t* cg = c + g * m * n;
    if (ex.adder != nullptr)
      kernels::gemm_approx_accum({}, wg, xg, cg, m, k, n, *ex.mul, *ex.adder);
    else if (tab == nullptr)
      kernels::gemm_exact({}, wg, xg, cg, m, k, n, &memo);
    else if (plane != nullptr)
      kernels::gemm_approx_plane(wg, *plane, cg, m, k, n, *tab, &memo);
    else
      kernels::gemm_approx({}, wg, xg, cg, m, k, n, *tab, &memo);
    if (monitor == nullptr || ex.adder != nullptr) continue;
    if (plane != nullptr && monitor->takes_planes())
      monitor->on_leaf_plane_gemm(leaf, !exact, wg, *plane, cg, m, k, n, reported);
    else
      monitor->on_leaf_gemm(leaf, g, !exact, wg, xg, cg, m, k, n, reported);
  }

  if (!ge_residual_on(ex)) return;
  // Diagnostics: re-run the GEMM exactly to observe eps = y~ - y and its
  // residual against the GE fit (roughly doubles forward cost).
  TensorI32 ref(Shape{groups * m, n});
  for (int64_t g = 0; g < groups; ++g)
    kernels::gemm_approx({}, w + g * m * k, x + g * k * n, ref.data() + g * m * n, m, k, n,
                         exact_table(), &memo);
  record_ge_residual(obs_path, ex.fit, c, ref.data(), groups * m * n);
}

}  // namespace axnn::nn::detail
