// axnn — forward-pass monitor interface (runtime fault detection hooks).
//
// A ForwardMonitor observes the quantized GEMM leaves (Conv2d / Linear)
// while a network executes: it sees the pre-quantization activations of
// every leaf, every integer GEMM the leaf dispatches (operands and
// accumulators), and may rewrite an accumulator block in place (repair) or
// demand exact products for a leaf (degradation). The interface
// lives in nn so the layers need no knowledge of who is watching; the
// concrete implementation is axnn::sentinel::Sentinel (ABFT checksums +
// activation range guards, see DESIGN.md §5f).
//
// Contract with the leaves:
//   * Hooks fire only in quantized passes (kQuantExact / kQuantApprox); the
//     float and calibration paths never see the monitor.
//   * on_leaf_gemm is called once per GEMM group of every quantized pass,
//     exact or approximate (both run the integer path), after the kernel
//     wrote `c` — never for the adder-accumulation path (gemm_approx_accum
//     fixes its own reduction order; checksums over it would re-derive the
//     adder model). `x` is the dense X[k, n]: a conv that ran its GEMM from
//     its padded input plane lowers these columns for the monitor, unless
//     the monitor takes planes (takes_planes()): then the conv lowers none
//     for it and calls on_leaf_plane_gemm with the plane instead. The GEMM
//     itself is the same whether or not one watches.
//   * force_exact is asked only by leaves that would otherwise multiply
//     through a table without an adder, once per pass, after on_leaf_input
//     and before the leaf picks its lowering: a leaf forced exact runs like
//     every exact leaf, through the exact table (from its plane where the
//     plan reads it).
//   * A monitor must not change any tensor it is handed except `c`, and a
//     repair must leave `c` a valid [m, n] int32 accumulator block.
#pragma once

#include <cstdint>

#include "axnn/tensor/tensor.hpp"

namespace axnn::approx {
class SignedMulTable;
}

namespace axnn::kernels {
struct ConvPlane;
}

namespace axnn::nn {

class Layer;

class ForwardMonitor {
public:
  virtual ~ForwardMonitor() = default;

  /// Quantized passes ask this before dispatching the leaf's GEMM: true
  /// forces exact products for this pass (a degraded leaf keeps running,
  /// just without the approximate multiplier).
  virtual bool force_exact(const Layer& leaf) = 0;

  /// Pre-quantization activations of one leaf (range guard). `x` is the
  /// tensor the leaf is about to quantize — corrupted inter-layer
  /// activations are visible here before the quantizer clamps them.
  virtual void on_leaf_input(const Layer& leaf, const Tensor& x) = 0;

  /// One integer GEMM group C[m,n] = W[m,k] · X[k,n] just executed.
  /// `approx` tells whether the approximate multiplier ran (false = exact
  /// products: a kQuantExact leaf, or one forced exact); `tab` is its table
  /// (null when exact); `group` is the conv group index (0 for Linear). The
  /// monitor may rewrite `c` in place; return true when it did.
  virtual bool on_leaf_gemm(const Layer& leaf, int64_t group, bool approx,
                            const int8_t* w, const int8_t* x, int32_t* c, int64_t m,
                            int64_t k, int64_t n, const approx::SignedMulTable* tab) = 0;

  /// The plane hook, opt-in: a monitor that returns true here is handed a
  /// conv GEMM that ran from the conv's padded int8 plane as that plane
  /// (on_leaf_plane_gemm), and the conv lowers no columns for it. The
  /// default keeps columns: every GEMM reaches on_leaf_gemm.
  virtual bool takes_planes() const { return false; }

  /// on_leaf_gemm for a single-group conv GEMM whose X[k, n] is the im2col
  /// lowering of `x` (kernels::ConvPlane), exact or approximate with `tab`
  /// as on_leaf_gemm. Called only when takes_planes(); may rewrite `c`
  /// likewise.
  virtual bool on_leaf_plane_gemm(const Layer& /*leaf*/, bool /*approx*/, const int8_t* /*w*/,
                                  const kernels::ConvPlane& /*x*/, int32_t* /*c*/,
                                  int64_t /*m*/, int64_t /*k*/, int64_t /*n*/,
                                  const approx::SignedMulTable* /*tab*/) {
    return false;
  }
};

}  // namespace axnn::nn
