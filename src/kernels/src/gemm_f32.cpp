#include <algorithm>
#include <cstring>

#include "axnn/kernels/gemm.hpp"
#include "axnn/kernels/plan.hpp"
#include "axnn/kernels/scratch.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/tensor/threadpool.hpp"
#include "internal.hpp"

namespace axnn::kernels {

namespace {

// ---------------------------------------------------------------------------
// Naive backend — the original triple-loop kernels, golden reference.
// ---------------------------------------------------------------------------

void naive_nn(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
              bool accumulate, ThreadPool& pool) {
  pool.parallel_for(
      m,
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const float* arow = a + i * k;
          float* crow = c + i * n;
          if (!accumulate) std::memset(crow, 0, static_cast<size_t>(n) * sizeof(float));
          for (int64_t kk = 0; kk < k; ++kk) {
            const float av = arow[kk];
            if (av == 0.0f) continue;
            const float* brow = b + kk * n;
            for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
          }
        }
      },
      row_grain(k, n));
}

void naive_nt(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
              bool accumulate, ThreadPool& pool) {
  pool.parallel_for(
      m,
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const float* arow = a + i * k;
          float* crow = c + i * n;
          for (int64_t j = 0; j < n; ++j) {
            const float* brow = b + j * k;
            double acc = 0.0;
            for (int64_t kk = 0; kk < k; ++kk) acc += static_cast<double>(arow[kk]) * brow[kk];
            if (accumulate)
              crow[j] += static_cast<float>(acc);
            else
              crow[j] = static_cast<float>(acc);
          }
        }
      },
      row_grain(k, n));
}

void naive_tn(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
              bool accumulate, ThreadPool& pool) {
  // C[M,N] (+)= Aᵀ·B with A:[K,M], B:[K,N]; output row i gathers column i of A.
  pool.parallel_for(
      m,
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          float* crow = c + i * n;
          if (!accumulate) std::memset(crow, 0, static_cast<size_t>(n) * sizeof(float));
          for (int64_t kk = 0; kk < k; ++kk) {
            const float av = a[kk * m + i];
            if (av == 0.0f) continue;
            const float* brow = b + kk * n;
            for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
          }
        }
      },
      row_grain(k, n));
}

void naive_tt(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
              bool accumulate, ThreadPool& pool) {
  pool.parallel_for(
      m,
      [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          float* crow = c + i * n;
          for (int64_t j = 0; j < n; ++j) {
            const float* bcol = b + j * k;
            double acc = 0.0;
            for (int64_t kk = 0; kk < k; ++kk)
              acc += static_cast<double>(a[kk * m + i]) * bcol[kk];
            if (accumulate)
              crow[j] += static_cast<float>(acc);
            else
              crow[j] = static_cast<float>(acc);
          }
        }
      },
      row_grain(k, n));
}

// ---------------------------------------------------------------------------
// Blocked backend — MC/KC/NC cache blocking, MR×NR register tiling, packed
// panels in per-thread scratch arenas. Transposes are absorbed by the
// packing, so one micro-kernel serves all four layout combinations.
// ---------------------------------------------------------------------------

constexpr int64_t MR = 4;   // rows per register tile
constexpr int64_t NR = 8;   // cols per register tile (4×8 accumulators fit 16 SSE regs)
constexpr int64_t MC = 64;  // rows per packed A block
constexpr int64_t KC = 256;  // k-depth per packed panel pair
constexpr int64_t NC = 256;  // cols per packed B block

/// apack: ceil(mc/MR) strips, each [kc][MR]; rows beyond mc zero-padded.
void pack_a(float* dst, const float* a, bool trans, int64_t m, int64_t k, int64_t i0,
            int64_t mc, int64_t kb, int64_t kc) {
  for (int64_t s = 0; s < mc; s += MR) {
    for (int64_t kk = 0; kk < kc; ++kk) {
      for (int64_t r = 0; r < MR; ++r) {
        const int64_t i = i0 + s + r;
        *dst++ = (s + r < mc) ? (trans ? a[(kb + kk) * m + i] : a[i * k + kb + kk]) : 0.0f;
      }
    }
  }
}

/// bpack: ceil(nc/NR) strips, each [kc][NR]; cols beyond nc zero-padded.
void pack_b(float* dst, const float* b, bool trans, int64_t k, int64_t n, int64_t kb,
            int64_t kc, int64_t jc, int64_t nc) {
  for (int64_t t = 0; t < nc; t += NR) {
    for (int64_t kk = 0; kk < kc; ++kk) {
      for (int64_t jj = 0; jj < NR; ++jj) {
        const int64_t j = jc + t + jj;
        *dst++ = (t + jj < nc) ? (trans ? b[j * k + kb + kk] : b[(kb + kk) * n + j]) : 0.0f;
      }
    }
  }
}

/// out[MR][NR] = Σ_kk apack_strip[kk][·] ⊗ bpack_strip[kk][·]. The local
/// accumulator array never escapes, so it stays in vector registers.
void micro_kernel(const float* __restrict ap, const float* __restrict bp, int64_t kc,
                  float* __restrict out) {
  float acc[MR * NR] = {};
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* av = ap + kk * MR;
    const float* bv = bp + kk * NR;
    for (int64_t r = 0; r < MR; ++r) {
      const float a = av[r];
      float* arow = acc + r * NR;
      for (int64_t j = 0; j < NR; ++j) arow[j] += a * bv[j];
    }
  }
  for (int64_t x = 0; x < MR * NR; ++x) out[x] = acc[x];
}

}  // namespace

namespace detail {

void naive_f32(const GemmDesc& desc, const float* a, const float* b, float* c, int64_t m,
               int64_t k, int64_t n, ThreadPool& pool) {
  if (!desc.trans_a && !desc.trans_b)
    naive_nn(a, b, c, m, k, n, desc.accumulate, pool);
  else if (!desc.trans_a)
    naive_nt(a, b, c, m, k, n, desc.accumulate, pool);
  else if (!desc.trans_b)
    naive_tn(a, b, c, m, k, n, desc.accumulate, pool);
  else
    naive_tt(a, b, c, m, k, n, desc.accumulate, pool);
}

void blocked_f32(const GemmDesc& desc, const float* a, const float* b, float* c,
                 int64_t m, int64_t k, int64_t n, ThreadPool& pool) {
  // Whole zero-padded strips: round the block edge up to MR/NR.
  constexpr size_t kApackElems = static_cast<size_t>((MC + MR - 1) / MR * MR) * KC;
  constexpr size_t kBpackElems = static_cast<size_t>((NC + NR - 1) / NR * NR) * KC;
  pool.parallel_for(
      m,
      [&](int64_t r0, int64_t r1) {
        float* apack = scratch<float>(ScratchSlot::kPackA, kApackElems);
        float* bpack = scratch<float>(ScratchSlot::kPackB, kBpackElems);
        float acc[MR * NR];
        for (int64_t jc = 0; jc < n; jc += NC) {
          const int64_t nc = std::min(NC, n - jc);
          for (int64_t kb = 0; kb < k; kb += KC) {
            const int64_t kc = std::min(KC, k - kb);
            pack_b(bpack, b, desc.trans_b, k, n, kb, kc, jc, nc);
            const bool store = (kb == 0) && !desc.accumulate;
            for (int64_t i0 = r0; i0 < r1; i0 += MC) {
              const int64_t mc = std::min(MC, r1 - i0);
              pack_a(apack, a, desc.trans_a, m, k, i0, mc, kb, kc);
              for (int64_t s = 0; s < mc; s += MR) {
                const int64_t mr = std::min(MR, mc - s);
                const float* ap = apack + (s / MR) * kc * MR;
                for (int64_t t = 0; t < nc; t += NR) {
                  const int64_t nr = std::min(NR, nc - t);
                  micro_kernel(ap, bpack + (t / NR) * kc * NR, kc, acc);
                  for (int64_t r = 0; r < mr; ++r) {
                    float* crow = c + (i0 + s + r) * n + jc + t;
                    const float* arow = acc + r * NR;
                    if (store)
                      for (int64_t j = 0; j < nr; ++j) crow[j] = arow[j];
                    else
                      for (int64_t j = 0; j < nr; ++j) crow[j] += arow[j];
                  }
                }
              }
            }
          }
        }
      },
      std::max<int64_t>(row_grain(k, n), MR));
}

}  // namespace detail

const char* backend_name(Backend b) {
  return b == Backend::kNaive ? "naive" : "blocked";
}

int64_t row_grain(int64_t k, int64_t n) {
  // ~32k MACs per task keeps dispatch overhead under ~1% on small matrices
  // while still splitting anything worth splitting.
  constexpr int64_t kMinMacsPerTask = 1 << 15;
  const int64_t per_row = std::max<int64_t>(1, k * n);
  return std::clamp<int64_t>(kMinMacsPerTask / per_row, 1, 1 << 20);
}

void gemm(const GemmDesc& desc, const float* a, const float* b, float* c, int64_t m,
          int64_t k, int64_t n, Backend backend, ThreadPool* pool, PlanMemo* memo) {
  if (m <= 0 || n <= 0) return;
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
  if (k <= 0) {
    if (!desc.accumulate) std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
    return;
  }
  const bool obs_on = obs::enabled();
  const bool obs_time = obs_on && obs::collector()->config().timing;
  const int64_t t0 = obs_time ? obs::now_ns() : 0;
  if (backend == Backend::kBlocked) {
    const PlanKey key = make_f32_key(desc, m, k, n, backend);
    if (memo != nullptr)
      memo->find_or_acquire(key)->run(a, b, c, &p);
    else
      PlanCache::global().acquire(key)->run(a, b, c, &p);
  } else {
    detail::naive_f32(desc, a, b, c, m, k, n, p);
  }
  if (obs_on) obs::record_gemm("gemm_f32", m * k * n, obs_time ? obs::now_ns() - t0 : -1);
}

}  // namespace axnn::kernels
