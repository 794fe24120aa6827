#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "axnn/kernels/int_gemm.hpp"
#include "axnn/kernels/plan.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/tensor/threadpool.hpp"
#include "internal.hpp"

namespace axnn::kernels {

namespace {

void check_desc(const GemmDesc& desc, const char* fn) {
  if (desc.trans_a || desc.trans_b)
    throw std::invalid_argument(std::string(fn) +
                                ": transposed operands are not supported on the int path");
}

ThreadPool& resolve_pool(ThreadPool* pool) {
  return pool != nullptr ? *pool : ThreadPool::global();
}

/// Handles the degenerate dims shared by every int kernel; returns true when
/// there is nothing left to compute.
bool handle_trivial(bool accumulate, int32_t* c, int64_t m, int64_t k, int64_t n) {
  if (m <= 0 || n <= 0) return true;
  if (k <= 0) {
    if (!accumulate) std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(int32_t));
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Naive backend (golden reference — the original loops).
// ---------------------------------------------------------------------------

void naive_approx(const int8_t* w, const int8_t* x, int32_t* c, int64_t m, int64_t k,
                  int64_t n, const approx::SignedMulTable& tab, bool accumulate,
                  ThreadPool& pool) {
  const int32_t* t = tab.data();
  pool.parallel_for(
      m,
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          int32_t* crow = c + i * n;
          if (!accumulate) std::memset(crow, 0, static_cast<size_t>(n) * sizeof(int32_t));
          const int8_t* wrow = w + i * k;
          for (int64_t kk = 0; kk < k; ++kk) {
            const int8_t qw = wrow[kk];
            if (qw == 0) continue;  // zero weight contributes exactly 0 in all models
            // Slice of the table for this weight nibble: index by activation byte.
            const int32_t* tw = t + (static_cast<size_t>(qw) & 0xF);
            const int8_t* xrow = x + kk * n;
            for (int64_t j = 0; j < n; ++j)
              crow[j] += tw[static_cast<size_t>(static_cast<uint8_t>(xrow[j])) << 4];
          }
        }
      },
      row_grain(k, n));
}

void naive_exact(const int8_t* w, const int8_t* x, int32_t* c, int64_t m, int64_t k,
                 int64_t n, bool accumulate, ThreadPool& pool) {
  pool.parallel_for(
      m,
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          int32_t* crow = c + i * n;
          if (!accumulate) std::memset(crow, 0, static_cast<size_t>(n) * sizeof(int32_t));
          const int8_t* wrow = w + i * k;
          for (int64_t kk = 0; kk < k; ++kk) {
            const int32_t qw = wrow[kk];
            if (qw == 0) continue;
            const int8_t* xrow = x + kk * n;
            for (int64_t j = 0; j < n; ++j) crow[j] += qw * xrow[j];
          }
        }
      },
      row_grain(k, n));
}

}  // namespace

// ---------------------------------------------------------------------------
// Scalar blocked kernels (detail) — the pre-plan blocked backend, now fed
// the packed LUT slices from the plan instead of re-packing per call.
// Register tiling processes MR_I weight rows per pass so every activation
// byte is loaded once and looked up MR_I times; the nibble-0 slice is zero,
// mirroring the naive kernel's zero-weight skip bit-for-bit.
// ---------------------------------------------------------------------------

namespace detail {

namespace {
constexpr int64_t MR_I = 4;    // weight rows per pass
constexpr int64_t NC_I = 512;  // output columns per block (2 KiB of C per row)
constexpr int64_t KF_I = 8;    // k-steps per pass of a remainder row
}  // namespace

void blocked_approx_scalar(const int8_t* w, const int8_t* x, int32_t* c, int64_t m,
                           int64_t k, int64_t n, const int32_t* slices,
                           bool accumulate, ThreadPool& pool) {
  const int32_t* t0 = slices;
  const uint8_t* xu = reinterpret_cast<const uint8_t*>(x);
  pool.parallel_for(
      m,
      [&](int64_t r0, int64_t r1) {
        for (int64_t jc = 0; jc < n; jc += NC_I) {
          const int64_t nc = std::min(NC_I, n - jc);
          int64_t i = r0;
          for (; i + MR_I <= r1; i += MR_I) {
            int32_t* c0 = c + (i + 0) * n + jc;
            int32_t* c1 = c + (i + 1) * n + jc;
            int32_t* c2 = c + (i + 2) * n + jc;
            int32_t* c3 = c + (i + 3) * n + jc;
            if (!accumulate) {
              std::memset(c0, 0, static_cast<size_t>(nc) * sizeof(int32_t));
              std::memset(c1, 0, static_cast<size_t>(nc) * sizeof(int32_t));
              std::memset(c2, 0, static_cast<size_t>(nc) * sizeof(int32_t));
              std::memset(c3, 0, static_cast<size_t>(nc) * sizeof(int32_t));
            }
            for (int64_t kk = 0; kk < k; ++kk) {
              const size_t n0 = static_cast<size_t>(w[(i + 0) * k + kk]) & 0xF;
              const size_t n1 = static_cast<size_t>(w[(i + 1) * k + kk]) & 0xF;
              const size_t n2 = static_cast<size_t>(w[(i + 2) * k + kk]) & 0xF;
              const size_t n3 = static_cast<size_t>(w[(i + 3) * k + kk]) & 0xF;
              if ((n0 | n1 | n2 | n3) == 0) continue;  // all-zero weights add 0
              const int32_t* t_0 = t0 + n0 * 256;
              const int32_t* t_1 = t0 + n1 * 256;
              const int32_t* t_2 = t0 + n2 * 256;
              const int32_t* t_3 = t0 + n3 * 256;
              const uint8_t* xrow = xu + kk * n + jc;
              for (int64_t j = 0; j < nc; ++j) {
                const uint8_t ua = xrow[j];
                c0[j] += t_0[ua];
                c1[j] += t_1[ua];
                c2[j] += t_2[ua];
                c3[j] += t_3[ua];
              }
            }
          }
          for (; i < r1; ++i) {  // remainder rows, one at a time
            // Up to KF_I k-steps per pass: each output element sums their
            // lookups in a register and touches C once per pass, not once
            // per k-step (this is the whole GEMM for 1- and 2-row plans).
            // A zero weight looks up the zero nibble-0 slice.
            int32_t* crow = c + i * n + jc;
            if (!accumulate) std::memset(crow, 0, static_cast<size_t>(nc) * sizeof(int32_t));
            for (int64_t kb = 0; kb < k; kb += KF_I) {
              const int64_t kf = std::min(KF_I, k - kb);
              const int32_t* tw[KF_I];
              const uint8_t* xr[KF_I];
              for (int64_t f = 0; f < kf; ++f) {
                tw[f] = t0 + (static_cast<size_t>(w[i * k + kb + f]) & 0xF) * 256;
                xr[f] = xu + (kb + f) * n + jc;
              }
              if (kf == KF_I) {
                for (int64_t j = 0; j < nc; ++j) {
                  int32_t sum = crow[j];
                  for (int64_t f = 0; f < KF_I; ++f) sum += tw[f][xr[f][j]];
                  crow[j] = sum;
                }
              } else {
                for (int64_t j = 0; j < nc; ++j) {
                  int32_t sum = crow[j];
                  for (int64_t f = 0; f < kf; ++f) sum += tw[f][xr[f][j]];
                  crow[j] = sum;
                }
              }
            }
          }
        }
      },
      std::max<int64_t>(row_grain(k, n), MR_I));
}

void blocked_exact_scalar(const int8_t* w, const int8_t* x, int32_t* c, int64_t m,
                          int64_t k, int64_t n, bool accumulate, ThreadPool& pool) {
  pool.parallel_for(
      m,
      [&](int64_t r0, int64_t r1) {
        for (int64_t jc = 0; jc < n; jc += NC_I) {
          const int64_t nc = std::min(NC_I, n - jc);
          int64_t i = r0;
          for (; i + MR_I <= r1; i += MR_I) {
            int32_t* c0 = c + (i + 0) * n + jc;
            int32_t* c1 = c + (i + 1) * n + jc;
            int32_t* c2 = c + (i + 2) * n + jc;
            int32_t* c3 = c + (i + 3) * n + jc;
            if (!accumulate) {
              std::memset(c0, 0, static_cast<size_t>(nc) * sizeof(int32_t));
              std::memset(c1, 0, static_cast<size_t>(nc) * sizeof(int32_t));
              std::memset(c2, 0, static_cast<size_t>(nc) * sizeof(int32_t));
              std::memset(c3, 0, static_cast<size_t>(nc) * sizeof(int32_t));
            }
            for (int64_t kk = 0; kk < k; ++kk) {
              const int32_t w0 = w[(i + 0) * k + kk];
              const int32_t w1 = w[(i + 1) * k + kk];
              const int32_t w2 = w[(i + 2) * k + kk];
              const int32_t w3 = w[(i + 3) * k + kk];
              if ((w0 | w1 | w2 | w3) == 0) continue;
              const int8_t* xrow = x + kk * n + jc;
              for (int64_t j = 0; j < nc; ++j) {
                const int32_t xv = xrow[j];
                c0[j] += w0 * xv;
                c1[j] += w1 * xv;
                c2[j] += w2 * xv;
                c3[j] += w3 * xv;
              }
            }
          }
          for (; i < r1; ++i) {
            int32_t* crow = c + i * n + jc;
            if (!accumulate) std::memset(crow, 0, static_cast<size_t>(nc) * sizeof(int32_t));
            for (int64_t kk = 0; kk < k; ++kk) {
              const int32_t qw = w[i * k + kk];
              if (qw == 0) continue;
              const int8_t* xrow = x + kk * n + jc;
              for (int64_t j = 0; j < nc; ++j) crow[j] += qw * xrow[j];
            }
          }
        }
      },
      std::max<int64_t>(row_grain(k, n), MR_I));
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Dispatch entries. kBlocked runs through a prepared plan from the global
// PlanCache; kNaive stays plan-free so the golden reference has no moving
// parts.
// ---------------------------------------------------------------------------

void gemm_approx(const GemmDesc& desc, const int8_t* w, const int8_t* x, int32_t* c,
                 int64_t m, int64_t k, int64_t n, const approx::SignedMulTable& tab,
                 Backend backend, ThreadPool* pool, PlanMemo* memo) {
  check_desc(desc, "kernels::gemm_approx");
  if (handle_trivial(desc.accumulate, c, m, k, n)) return;
  ThreadPool& p = resolve_pool(pool);
  const bool obs_on = obs::enabled();
  const bool obs_time = obs_on && obs::collector()->config().timing;
  const int64_t t0 = obs_time ? obs::now_ns() : 0;
  if (backend == Backend::kBlocked) {
    // A memo hit hands back its own handle: no shared_ptr copy per call.
    const PlanKey key = make_int_key(OpKind::kApprox, desc, m, k, n, backend, &tab);
    if (memo != nullptr)
      memo->find_or_acquire(key, &tab)->run_int(w, x, c, &p);
    else
      PlanCache::global().acquire(key, &tab)->run_int(w, x, c, &p);
  } else {
    naive_approx(w, x, c, m, k, n, tab, desc.accumulate, p);
  }
  if (obs_on) obs::record_gemm("gemm_approx", m * k * n, obs_time ? obs::now_ns() - t0 : -1);
}

void gemm_exact(const GemmDesc& desc, const int8_t* w, const int8_t* x, int32_t* c,
                int64_t m, int64_t k, int64_t n, Backend backend, ThreadPool* pool,
                PlanMemo* memo) {
  check_desc(desc, "kernels::gemm_exact");
  if (handle_trivial(desc.accumulate, c, m, k, n)) return;
  ThreadPool& p = resolve_pool(pool);
  const bool obs_on = obs::enabled();
  const bool obs_time = obs_on && obs::collector()->config().timing;
  const int64_t t0 = obs_time ? obs::now_ns() : 0;
  if (backend == Backend::kBlocked) {
    const PlanKey key = make_int_key(OpKind::kExactInt, desc, m, k, n, backend, nullptr);
    if (memo != nullptr)
      memo->find_or_acquire(key)->run_int(w, x, c, &p);
    else
      PlanCache::global().acquire(key)->run_int(w, x, c, &p);
  } else {
    naive_exact(w, x, c, m, k, n, desc.accumulate, p);
  }
  if (obs_on) obs::record_gemm("gemm_exact", m * k * n, obs_time ? obs::now_ns() - t0 : -1);
}

void gemm_approx_accum(const GemmDesc& desc, const int8_t* w, const int8_t* x, int32_t* c,
                       int64_t m, int64_t k, int64_t n, const approx::SignedMulTable& tab,
                       const axmul::Adder& adder, Backend backend, ThreadPool* pool) {
  check_desc(desc, "kernels::gemm_approx_accum");
  if (handle_trivial(desc.accumulate, c, m, k, n)) return;
  (void)backend;  // the adder chain fixes the reduction order; one impl serves both
  const bool obs_on = obs::enabled();
  const bool obs_time = obs_on && obs::collector()->config().timing;
  const int64_t t0 = obs_time ? obs::now_ns() : 0;
  const int32_t* t = tab.data();
  resolve_pool(pool).parallel_for(
      m,
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          int32_t* crow = c + i * n;
          const int8_t* wrow = w + i * k;
          // Accumulate column-wise per output element so the adder sees the
          // same reduction order as the hardware MAC chain.
          for (int64_t j = 0; j < n; ++j) {
            int32_t acc = desc.accumulate ? crow[j] : 0;
            for (int64_t kk = 0; kk < k; ++kk) {
              const int8_t qw = wrow[kk];
              if (qw == 0) continue;
              const int32_t p =
                  t[(static_cast<size_t>(static_cast<uint8_t>(x[kk * n + j])) << 4) |
                    (static_cast<size_t>(qw) & 0xF)];
              acc = adder.add(acc, p);
            }
            crow[j] = acc;
          }
        }
      },
      row_grain(k, n));
  if (obs_on)
    obs::record_gemm("gemm_approx_accum", m * k * n, obs_time ? obs::now_ns() - t0 : -1);
}

}  // namespace axnn::kernels
