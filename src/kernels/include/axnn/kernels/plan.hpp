// axnn — prepared GEMM plans and the process-wide PlanCache.
//
// A GemmPlan is everything about executing one GEMM configuration that does
// not depend on the operand *values*: tile geometry, the micro-kernel chosen
// from the key (shape, op kind, ISA) when the plan is built, scratch sizes,
// and (for the approximate path) the LUT re-laid-out for that kernel.
// Executing a plan packs operands into pooled scratch and runs the
// micro-kernel — no per-call derivation, no heap allocation in steady state.
// Every per-shape kernel decision lives here; callers only pick a backend.
//
// Plans are immutable once built and shared by handle
// (shared_ptr<const GemmPlan>), so lanes, sessions and threads can execute
// the same plan concurrently. The PlanCache memoizes them under a PlanKey
// (op kind, GemmDesc flags, dims, backend, ISA, multiplier identity +
// content fingerprint) with LRU eviction at a bounded
// capacity; hit/miss/evict counters feed axnn::obs when telemetry is on.
//
// Poplibs' convolution plan cache is the architectural reference: derive
// once per (shape, config), execute many times, key on everything that
// changes codegen. The LUT fingerprint in the key is what keeps
// fault-injection experiments honest — a corrupted copy of a multiplier
// table can never alias the clean table's plans (SignedMulTable marks
// itself tainted on mutable_data() and is re-hashed per acquire), and since
// the closed-form tier is picked from the table's contents, never its name,
// a corrupted copy of a truncated table runs through the LUT kernels.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "axnn/kernels/gemm.hpp"
#include "axnn/kernels/isa.hpp"
#include "axnn/kernels/signed_lut.hpp"

namespace axnn::kernels {

enum class OpKind : uint8_t { kF32, kApprox, kExactInt };

const char* op_kind_name(OpKind op);

/// The micro-kernel a plan binds, chosen from its key (and, for approx
/// plans, the table's contents) when it is built:
///   kNaiveF32   — the plain float loops (same bits as Backend::kNaive), for
///                 problems too small to amortise packing: m < 8, n < 16 or
///                 m·k·n < 2^16;
///   kBlockedF32 — the cache-blocked, register-tiled float kernel, above that;
///   kScalarInt  — the scalar int kernels (per-nibble LUT slices for approx):
///                 approx plans under 4 output rows, every int plan on the
///                 scalar ISA, and every exact-int plan (weights wider than
///                 4 bits; narrower exact GEMMs multiply through the exact
///                 table);
///   kVectorInt  — the AVX2/NEON LUT column-strip kernels: approx plans from
///                 4 rows up;
///   kTruncInt   — the AVX2 closed-form kernel for truncated multipliers, at
///                 every row count: approx plans whose table equals the
///                 sign-magnitude truncated product for some depth t
///                 (GemmPlan::truncation()), compared entry by entry; the
///                 exact table is depth 0.
/// The int kernels are all bit-identical to the naive reference.
enum class MicroKernel : uint8_t {
  kNaiveF32,
  kBlockedF32,
  kScalarInt,
  kVectorInt,
  kTruncInt
};

struct PlanKey {
  OpKind op = OpKind::kF32;
  bool trans_a = false;
  bool trans_b = false;
  bool accumulate = false;
  Backend backend = Backend::kBlocked;
  Isa isa = Isa::kScalar;
  int64_t m = 0, k = 0, n = 0;
  /// Multiplier identity for kApprox: registry name + content fingerprint.
  /// Empty / 0 for kF32 and kExactInt.
  std::string multiplier;
  uint64_t lut_fp = 0;

  bool operator==(const PlanKey& o) const;
  /// Stable human-readable form, e.g.
  /// "approx[64x576x1024] blocked/avx2 mul=mul8s_1KV8 fp=9f3a" —
  /// what `axnn_cli inspect` prints per leaf.
  std::string to_string() const;
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const;
};

/// Convenience key builders. The int builder hashes the table (memoized
/// unless tainted) and records its registry name.
PlanKey make_f32_key(const GemmDesc& desc, int64_t m, int64_t k, int64_t n,
                     Backend backend);
PlanKey make_int_key(OpKind op, const GemmDesc& desc, int64_t m, int64_t k, int64_t n,
                     Backend backend, const approx::SignedMulTable* tab);

/// A convolution's X operand as its zero-padded int8 input plane instead of
/// im2col columns: X[(c·kernel + kh)·kernel + kw, (b·oh + i)·ow + j] is
/// data[((b·channels + c)·ph + i·stride + kh)·pw + j·stride + kw], with
/// oh = (ph − kernel)/stride + 1 and likewise ow.
struct ConvPlane {
  const int8_t* data = nullptr;  ///< [batch, channels, ph, pw], zero border
  int64_t batch = 0, channels = 0;
  int64_t ph = 0, pw = 0;  ///< padded plane height and width
  int64_t kernel = 1, stride = 1;
  int64_t oh() const { return (ph - kernel) / stride + 1; }
  int64_t ow() const { return (pw - kernel) / stride + 1; }
};

class GemmPlan {
public:
  struct Tile {
    int64_t mr = 0, nr = 0;  ///< register tile (float) / row group (int)
    int64_t mc = 0, kc = 0, nc = 0;  ///< cache block sizes
    int64_t kf = 0;  ///< fused k-steps per pass (vector int kernels)
  };

  ~GemmPlan();
  GemmPlan(const GemmPlan&) = delete;
  GemmPlan& operator=(const GemmPlan&) = delete;

  const PlanKey& key() const { return key_; }
  const Tile& tile() const { return tile_; }
  MicroKernel kernel() const { return kernel_; }
  /// Truncation depth t (0 = exact products) a kTruncInt plan computes; -1
  /// for every other kernel.
  int truncation() const { return trunc_; }

  /// Execute the plan. Operand pointers follow the conventions of
  /// kernels::gemm / gemm_approx / gemm_exact for the plan's op kind; dims
  /// are fixed by the key. run() is const and thread-safe — scratch lives in
  /// per-thread arenas, never in the plan.
  void run(const float* a, const float* b, float* c, ThreadPool* pool = nullptr) const;
  void run_int(const int8_t* w, const int8_t* x, int32_t* c,
               ThreadPool* pool = nullptr) const;

  /// Whether run_plane computes this plan's GEMM from `x` in place: the one
  /// test of which convs skip their im2col columns. True for a kTruncInt
  /// plan without accumulate whose X is the stride-1 lowering of all of x's
  /// channels (k = channels·kernel², n = batch·oh·ow), when every 16-column
  /// strip is whole output rows of one image or 16 columns of one row:
  /// ow % 16 == 0, or ow ∈ {4, 8} with oh·ow % 16 == 0. Every other plan,
  /// stride and width (and a grouped conv, whose k covers one group) reads
  /// columns through run_int.
  bool reads_plane(const ConvPlane& x) const;
  /// run_int with X read from `x` (reads_plane(x) must hold, else
  /// std::invalid_argument): the plane is turned into the closed form's
  /// operand bytes once per element, then each strip reads its taps at
  /// fixed offsets from its first output position. Same accumulators.
  void run_plane(const int8_t* w, const ConvPlane& x, int32_t* c,
                 ThreadPool* pool = nullptr) const;

private:
  friend class PlanCache;
  explicit GemmPlan(const PlanKey& key, const approx::SignedMulTable* tab);

  PlanKey key_;
  Tile tile_;
  MicroKernel kernel_;
  int trunc_ = -1;
  /// Approx LUT plans: the table in the bound kernel's layout. `slices_` =
  /// 16 per-nibble slices of 256 (kScalarInt); `lines_` = 256 activation
  /// lines of 16 (kVectorInt, one 64-byte cache line per activation byte).
  /// Nibble 0 is forced to zero so the zero-weight skip of the naive kernel
  /// is reproduced bit-for-bit. kTruncInt plans bake no table.
  int32_t* slices_ = nullptr;
  int32_t* lines_ = nullptr;
};

using PlanHandle = std::shared_ptr<const GemmPlan>;

struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t size = 0;
  int64_t capacity = 0;
  double hit_rate() const {
    const int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

/// Bounded, thread-safe, LRU-evicting plan memoizer. acquire() is the only
/// lookup path; handles keep evicted plans alive until their last user drops
/// them, so eviction is never use-after-free.
class PlanCache {
public:
  explicit PlanCache(size_t capacity = kDefaultCapacity);
  ~PlanCache();
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  static constexpr size_t kDefaultCapacity = 256;

  /// Process-wide cache shared by every lane/session/thread.
  static PlanCache& global();

  /// Return the plan for `key`, building it on miss. `tab` must be non-null
  /// for kApprox keys (the table the key was built from).
  PlanHandle acquire(const PlanKey& key, const approx::SignedMulTable* tab = nullptr);

  PlanCacheStats stats() const;
  /// Zero the hit/miss/evict counters (bench warm-up boundaries).
  void reset_stats();
  /// Count a PlanMemo hit as a cache hit (relaxed atomic, no mutex) — memos
  /// are a front-side cache of this cache, so stats().hit_rate() reflects
  /// every plan lookup, not only the ones that reached the mutex.
  void note_memo_hit();
  /// Drop every cached plan (cold-plan benchmarking). Live handles survive.
  void clear();
  void set_capacity(size_t capacity);

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Small per-call-site memo so hot leaves (conv2d/linear) skip the global
/// cache's mutex on every forward: remembers the last few (key → handle)
/// pairs this site acquired. Not thread-safe — embed one per layer instance
/// (layers are confined to one lane/thread at a time by the serving design).
class PlanMemo {
public:
  /// Handle for `key`, consulting the global cache only when this site has
  /// not seen the key recently.
  const PlanHandle& find_or_acquire(const PlanKey& key,
                                    const approx::SignedMulTable* tab = nullptr);
  void clear();

  /// Keys currently memoized at this site, most-recently-filled last —
  /// `axnn_cli inspect` walks these to print each leaf's resolved plans.
  std::vector<PlanKey> keys() const;

private:
  static constexpr size_t kSlots = 8;
  struct Entry {
    PlanKey key;
    PlanHandle handle;
  };
  Entry slots_[kSlots];
  size_t next_ = 0;
};

}  // namespace axnn::kernels
