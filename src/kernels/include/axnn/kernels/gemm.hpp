// axnn — unified GEMM kernel dispatch (axnn::kernels).
//
// Every GEMM in the repo — float forward/backward, approximate LUT,
// quantized-exact — goes through this API. A GemmDesc names the operation
// (operand layouts + accumulate), a Backend names the implementation:
//
//   kNaive   — the original triple-loop kernels, kept verbatim as the golden
//              reference for tests and debugging.
//   kBlocked — prepared-plan execution behind kernels::PlanCache. Each plan
//              binds the micro-kernel that suits its shape when it is built
//              (axnn/kernels/plan.hpp): vectorized int strips for the ISA
//              selected at startup (axnn/kernels/isa.hpp), register-tiled
//              float blocks, or the plain loops where packing would not pay
//              for itself. Default.
//
// The process-wide default backend is kBlocked; override it with
// set_default_backend() or the environment variable AXNN_GEMM_BACKEND
// ("naive" | "blocked", read once at first use).
//
// Determinism: for a fixed backend, results are bit-identical across thread
// counts — work is partitioned over output rows (float) or column strips
// (int), and each output element's reduction order is fixed by the blocking,
// not the partition. The vectorized int kernels are additionally
// bit-identical to kNaive: int32 accumulation is exact and order-free, so
// any kernel that adds the same set of LUT products produces the same bits.
//
// Integer kernel overloads (approximate LUT / exact int8) live in
// axnn/kernels/int_gemm.hpp and share GemmDesc/Backend from here.
#pragma once

#include <cstdint>

namespace axnn {
class ThreadPool;
}

namespace axnn::kernels {

enum class Backend { kNaive, kBlocked };

const char* backend_name(Backend b);

/// Process-wide backend used when a call site doesn't pass one. Initialised
/// from AXNN_GEMM_BACKEND on first query (defaults to kBlocked).
Backend default_backend();
void set_default_backend(Backend b);

/// Backend for an m×k×n problem: the default backend at every shape. The
/// per-shape kernel choice lives inside the plan the backend resolves, so
/// callers never pick kernels by size.
inline Backend auto_backend(int64_t, int64_t, int64_t) { return default_backend(); }

/// Describes C = op(A)·op(B) (or += with accumulate). All matrices are
/// row-major; `m, k, n` are the *logical* GEMM dimensions, so A holds m×k
/// values stored as [M,K] (trans_a=false) or [K,M] (trans_a=true), and B
/// holds k×n values stored as [K,N] (trans_b=false) or [N,K] (trans_b=true).
struct GemmDesc {
  bool trans_a = false;
  bool trans_b = false;
  bool accumulate = false;
};

class PlanMemo;

/// Float GEMM: C[M,N] (=|+=) op(A)·op(B). `pool` selects the thread pool
/// (nullptr = the global pool); passing an explicit pool is how tests pin a
/// thread count without touching process-wide state. `memo`, when given, is
/// a per-call-site PlanMemo (axnn/kernels/plan.hpp) that resolves the plan
/// without the global cache's mutex on repeat shapes.
void gemm(const GemmDesc& desc, const float* a, const float* b, float* c, int64_t m,
          int64_t k, int64_t n, Backend backend, ThreadPool* pool = nullptr,
          PlanMemo* memo = nullptr);

/// The same on the default backend — what layers and tensor ops call.
inline void gemm(const GemmDesc& desc, const float* a, const float* b, float* c,
                 int64_t m, int64_t k, int64_t n, PlanMemo* memo = nullptr) {
  gemm(desc, a, b, c, m, k, n, default_backend(), nullptr, memo);
}

/// Rows-per-task grain so each parallel_for task carries enough MACs
/// (~32k · rows worth of k·n work) to amortise pool dispatch. Replaces the
/// old hardcoded grain constants.
int64_t row_grain(int64_t k, int64_t n);

}  // namespace axnn::kernels
