#include "axnn/kernels/plan.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <climits>
#include <cstdio>
#include <cstring>
#include <list>
#include <mutex>
#include <new>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "axnn/kernels/scratch.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/tensor/threadpool.hpp"
#include "internal.hpp"

namespace axnn::kernels {

const char* op_kind_name(OpKind op) {
  switch (op) {
    case OpKind::kApprox:
      return "approx";
    case OpKind::kExactInt:
      return "exact_int";
    default:
      return "f32";
  }
}

// ---------------------------------------------------------------------------
// PlanKey
// ---------------------------------------------------------------------------

bool PlanKey::operator==(const PlanKey& o) const {
  return op == o.op && trans_a == o.trans_a && trans_b == o.trans_b &&
         accumulate == o.accumulate && backend == o.backend && isa == o.isa &&
         m == o.m && k == o.k && n == o.n && lut_fp == o.lut_fp && multiplier == o.multiplier;
}

std::string PlanKey::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s[%lldx%lldx%lld] %s/%s", op_kind_name(op),
                static_cast<long long>(m), static_cast<long long>(k),
                static_cast<long long>(n), backend_name(backend), isa_name(isa));
  std::string s(buf);
  if (trans_a) s += " tA";
  if (trans_b) s += " tB";
  if (accumulate) s += " acc";
  if (op == OpKind::kApprox) {
    std::snprintf(buf, sizeof(buf), " mul=%s fp=%04x",
                  multiplier.empty() ? "?" : multiplier.c_str(),
                  static_cast<unsigned>(lut_fp & 0xFFFF));
    s += buf;
  }
  return s;
}

size_t PlanKeyHash::operator()(const PlanKey& k) const {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(static_cast<uint64_t>(k.op));
  mix((k.trans_a ? 1u : 0u) | (k.trans_b ? 2u : 0u) | (k.accumulate ? 4u : 0u));
  mix(static_cast<uint64_t>(k.backend));
  mix(static_cast<uint64_t>(k.isa));
  mix(static_cast<uint64_t>(k.m));
  mix(static_cast<uint64_t>(k.k));
  mix(static_cast<uint64_t>(k.n));
  mix(k.lut_fp);
  for (const char c : k.multiplier) mix(static_cast<uint8_t>(c));
  return static_cast<size_t>(h);
}

PlanKey make_f32_key(const GemmDesc& desc, int64_t m, int64_t k, int64_t n,
                     Backend backend) {
  PlanKey key;
  key.op = OpKind::kF32;
  key.trans_a = desc.trans_a;
  key.trans_b = desc.trans_b;
  key.accumulate = desc.accumulate;
  key.backend = backend;
  key.isa = Isa::kScalar;  // float kernels are ISA-independent (scalar numerics)
  key.m = m;
  key.k = k;
  key.n = n;
  return key;
}

PlanKey make_int_key(OpKind op, const GemmDesc& desc, int64_t m, int64_t k, int64_t n,
                     Backend backend, const approx::SignedMulTable* tab) {
  PlanKey key;
  key.op = op;
  key.trans_a = desc.trans_a;
  key.trans_b = desc.trans_b;
  key.accumulate = desc.accumulate;
  key.backend = backend;
  key.isa = active_isa();
  key.m = m;
  key.k = k;
  key.n = n;
  if (op == OpKind::kApprox) {
    if (tab == nullptr)
      throw std::invalid_argument("kernels::make_int_key: approx key needs a table");
    key.multiplier = tab->name();
    key.lut_fp = tab->fingerprint();
  }
  return key;
}

// ---------------------------------------------------------------------------
// GemmPlan
// ---------------------------------------------------------------------------

namespace {

int32_t* alloc_lut(size_t elems) {
  return static_cast<int32_t*>(
      ::operator new(elems * sizeof(int32_t), std::align_val_t{64}));
}

void free_lut(int32_t* p) {
  if (p != nullptr) ::operator delete(p, std::align_val_t{64});
}

/// Whether this binary carries the column-strip kernels for `isa`.
bool has_vector_kernels([[maybe_unused]] Isa isa) {
#if defined(AXNN_HAVE_AVX2_TU)
  if (isa == Isa::kAvx2) return true;
#endif
#if defined(AXNN_HAVE_NEON_TU)
  if (isa == Isa::kNeon) return true;
#endif
  return false;
}

/// Truncated 8×4 product of the signed operands at depth t: the columns of
/// weight ≥ 2^t of the magnitudes' partial-product array, signed —
/// sign(a)·sign(w)·Σ_j w_j·2^j·(|a| & ~(2^(t−j)−1)) over the bits j of |w|.
int32_t truncated_product(int32_t qa, int32_t qw, int t) {
  const int32_t ua = qa < 0 ? -qa : qa;
  const int32_t uw = qw < 0 ? -qw : qw;
  int32_t p = 0;
  for (int j = 0; j < 4; ++j)
    if ((uw >> j) & 1) p += (ua & ~((1 << std::max(t - j, 0)) - 1)) << j;
  return (qa < 0) != (qw < 0) ? -p : p;
}

}  // namespace

namespace detail {

/// The depth t in 0..11 whose truncated product equals `tab` at every entry
/// outside the nibble-0 column (which every kernel forces to zero), or -1.
/// Decided from the contents alone, so a corrupted copy of a truncated table
/// (fault injection through mutable_data()) gets no closed form.
int truncation_depth(const approx::SignedMulTable& tab) {
  for (int t = 0; t < 12; ++t) {
    bool match = true;
    for (int32_t qa = -128; qa <= 127 && match; ++qa)
      for (int32_t qw = -8; qw <= 7 && match; ++qw)
        match = qw == 0 || tab(qa, qw) == truncated_product(qa, qw, t);
    if (match) return t;
  }
  return -1;
}

void plane_tap_offsets(const ConvPlane& x, int32_t* toff) {
  for (int64_t c = 0; c < x.channels; ++c)
    for (int64_t kh = 0; kh < x.kernel; ++kh)
      for (int64_t kw = 0; kw < x.kernel; ++kw)
        *toff++ = static_cast<int32_t>((c * x.ph + kh) * x.pw + kw);
}

}  // namespace detail

namespace {

/// Pack the m×k weight nibbles into the LUT strip kernels' layout: full
/// groups of kFuse k-steps as column-major panels, so a row's kFuse weights
/// for one fused pass are contiguous (dst[kk*m + i*kFuse + f]), then the
/// remainder k-steps flat column-major (dst[kk*m + i]).
void pack_weights(const int8_t* w, int64_t m, int64_t k, uint8_t* dst) {
  constexpr int64_t kf = detail::kFuse;
  const auto nibble = [](int8_t v) { return static_cast<uint8_t>(v & 0xF); };
  int64_t kk = 0;
  for (; kk + kf <= k; kk += kf)
    for (int64_t i = 0; i < m; ++i)
      for (int64_t f = 0; f < kf; ++f) dst[kk * m + i * kf + f] = nibble(w[i * k + kk + f]);
  for (; kk < k; ++kk)
    for (int64_t i = 0; i < m; ++i) dst[kk * m + i] = nibble(w[i * k + kk]);
}

/// The closed-form kernel's weights at wc: each weight's coefficient bytes
/// in row blocks (detail::pack_row_blocks), then each row's Σ_k w (wsum) of
/// the 4-bit weights every kernel reads, the sign-extended nibbles; m·k + m
/// int32 in all. GEMM rows hold one weight each, so they sum 16 k-steps in
/// int16.
detail::ClosedFormRows pack_closed_form(const int8_t* w, int64_t m, int64_t k, int32_t* wc) {
  detail::pack_row_blocks(m, k, wc, [&](int64_t i, int64_t kk) {
    return detail::kTruncCoef[static_cast<uint8_t>(w[i * k + kk]) & 0xF];
  });
  int32_t* wsum = wc + m * k;
  for (int64_t i = 0; i < m; ++i) {
    int32_t sum = 0;
    for (int64_t kk = 0; kk < k; ++kk) sum += detail::nibble_value(w[i * k + kk]);
    wsum[i] = sum;
  }
  return {wc, wsum, m, k, 16};
}

MicroKernel choose_kernel(const PlanKey& key) {
  if (key.op == OpKind::kF32) {
    // Packing pays off only with rows to fill the 4x8 register tiles and
    // enough work to amortise the B panel; below that the plain loops are
    // faster (4x36x8192: 266 us naive vs 451 us blocked) and keep the bits
    // every float caller has always seen at these shapes.
    const bool small = key.m < 8 || key.n < 16 || key.m * key.k * key.n < (int64_t{1} << 16);
    return small ? MicroKernel::kNaiveF32 : MicroKernel::kBlockedF32;
  }
  // The LUT strip kernel builds a 16-entry product file per activation byte
  // and k-step and shares it across the output rows: it needs 4 rows to beat
  // the scalar slices kernel (at 3 rows it is 1.1-1.3x slower, at 1 row 3x).
  // Exact int plans serve only weights wider than 4 bits (a 4-bit exact GEMM
  // multiplies through the exact table): the scalar kernel, on every ISA.
  return key.op == OpKind::kApprox && key.m >= 4 && has_vector_kernels(key.isa)
             ? MicroKernel::kVectorInt
             : MicroKernel::kScalarInt;
}

}  // namespace

GemmPlan::GemmPlan(const PlanKey& key, const approx::SignedMulTable* tab)
    : key_(key), kernel_(choose_kernel(key)) {
  if (key_.op == OpKind::kF32) {
    tile_ = Tile{4, 8, 64, 256, 256, 0};
    return;
  }
  tile_ = Tile{4, detail::kStrip, 0, 0, 512, detail::kFuse};
  if (key_.op == OpKind::kApprox) {
    if (tab == nullptr)
      throw std::invalid_argument("kernels::GemmPlan: approx plan needs a table");
    // On AVX2 a truncated multiplier runs from its closed form, reading no
    // table: about the cost of an exact product, at every row count.
    if (key_.isa == Isa::kAvx2 && has_vector_kernels(key_.isa)) {
      trunc_ = detail::truncation_depth(*tab);
      if (trunc_ >= 0) {
        kernel_ = MicroKernel::kTruncInt;
        return;
      }
    }
    // Bake the multiplier table for the bound kernel, nibble 0 forced to
    // zero so the zero-weight skip of the naive kernel is exactly an add of 0:
    //   slices_[wn*256 + a] — per-nibble slices, scalar kernel;
    //   lines_[a*16 + wn]   — per-activation lines (one 64B cache line
    //                         each), vector kernels.
    const int32_t* t = tab->data();
    const bool vector = kernel_ == MicroKernel::kVectorInt;
    int32_t*& lut = vector ? lines_ : slices_;
    lut = alloc_lut(16 * 256);
    for (size_t a = 0; a < 256; ++a)
      for (size_t wn = 0; wn < 16; ++wn)
        lut[vector ? a * 16 + wn : wn * 256 + a] = wn == 0 ? 0 : t[(a << 4) | wn];
  }
}

GemmPlan::~GemmPlan() {
  free_lut(slices_);
  free_lut(lines_);
}

void GemmPlan::run(const float* a, const float* b, float* c, ThreadPool* pool) const {
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
  const GemmDesc desc{key_.trans_a, key_.trans_b, key_.accumulate};
  if (kernel_ == MicroKernel::kNaiveF32)
    detail::naive_f32(desc, a, b, c, key_.m, key_.k, key_.n, p);
  else
    detail::blocked_f32(desc, a, b, c, key_.m, key_.k, key_.n, p);
}

void GemmPlan::run_int(const int8_t* w, const int8_t* x, int32_t* c,
                       ThreadPool* pool) const {
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
  const int64_t m = key_.m, k = key_.k, n = key_.n;
  const bool acc = key_.accumulate;
  const bool lut = key_.op == OpKind::kApprox;
  if (kernel_ == MicroKernel::kScalarInt) {
    // The scalar kernel consumes the row-major weights directly — no packing.
    if (lut)
      detail::blocked_approx_scalar(w, x, c, m, k, n, slices_, acc, p);
    else
      detail::blocked_exact_scalar(w, x, c, m, k, n, acc, p);
    return;
  }
  // Vector kernels (approx only): pack the weights once (per-thread arena,
  // no heap), then partition output columns over strips. Column-strip
  // partitioning keeps every output element's full reduction inside one
  // task, so results are bit-identical across thread counts. Packed
  // elements: the coefficient bytes of each weight plus the row sums
  // (kTruncInt) or the weight nibble (LUT).
  const size_t mk = static_cast<size_t>(m) * static_cast<size_t>(k);
  const bool closed_form = kernel_ == MicroKernel::kTruncInt;
  void* packed = scratch_bytes(
      ScratchSlot::kWeights,
      closed_form ? (mk + static_cast<size_t>(m)) * sizeof(int32_t) : mk);
  auto* wq = static_cast<uint8_t*>(packed);
  detail::ClosedFormRows rows{};
  if (closed_form)
    rows = pack_closed_form(w, m, k, static_cast<int32_t*>(packed));
  else
    pack_weights(w, m, k, wq);
  const int64_t nstrips = (n + detail::kStrip - 1) / detail::kStrip;
  p.parallel_for(
      nstrips,
      [&](int64_t s0, int64_t s1) {
        [[maybe_unused]] const int64_t j0 = s0 * detail::kStrip;
        [[maybe_unused]] const int64_t j1 = std::min(n, s1 * detail::kStrip);
#if defined(AXNN_HAVE_AVX2_TU)
        if (key_.isa == Isa::kAvx2) {
          if (closed_form)
            detail::avx2_trunc_cols(
                rows, x, c, n, trunc_, acc, j0, j1,
                scratch<int32_t>(ScratchSlot::kPlane,
                                 static_cast<size_t>(detail::cols_stage_size(k))));
          else
            detail::avx2_approx_cols(wq, x, c, m, k, n, lines_, acc, j0, j1);
        }
#endif
#if defined(AXNN_HAVE_NEON_TU)
        if (key_.isa == Isa::kNeon)
          detail::neon_approx_cols(wq, x, c, m, k, n, lines_, acc, j0, j1);
#endif
      },
      detail::strip_grain(m, k));
}

bool GemmPlan::reads_plane(const ConvPlane& x) const {
  if (kernel_ != MicroKernel::kTruncInt || key_.accumulate || x.stride != 1) return false;
  const int64_t oh = x.oh(), ow = x.ow();
  // Tap offsets are int32: one image's plane must fit.
  return detail::whole_row_strips(oh, ow) && oh > 0 && ow > 0 &&
         key_.k == x.channels * x.kernel * x.kernel &&
         key_.n == x.batch * oh * ow && x.channels * x.ph * x.pw <= INT32_MAX;
}

void GemmPlan::run_plane([[maybe_unused]] const int8_t* w, const ConvPlane& x,
                         [[maybe_unused]] int32_t* c, [[maybe_unused]] ThreadPool* pool) const {
  if (!reads_plane(x))
    throw std::invalid_argument("kernels::GemmPlan::run_plane: the plan does not read " +
                                key_.to_string() + " from this plane");
#if defined(AXNN_HAVE_AVX2_TU)
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
  const int64_t m = key_.m, k = key_.k, n = key_.n;
  // The packed weights, their row sums and each k-step's tap offset, then
  // the plane's operand bytes: all built here, before the strip tasks start,
  // and shared by them read-only.
  const size_t mk = static_cast<size_t>(m) * static_cast<size_t>(k);
  auto* wc = scratch<int32_t>(ScratchSlot::kWeights, mk + static_cast<size_t>(m + k));
  const detail::ClosedFormRows rows = pack_closed_form(w, m, k, wc);
  int32_t* toff = wc + mk + m;
  detail::plane_tap_offsets(x, toff);
  const int64_t count = x.batch * x.channels * x.ph * x.pw;
  auto* u = scratch<int32_t>(ScratchSlot::kPlane, static_cast<size_t>(count));
  detail::avx2_trunc_operands(x.data, count, trunc_, u);
  const detail::PlaneStrips g{x.channels * x.ph * x.pw, x.pw, x.oh() * x.ow(), x.ow()};
  p.parallel_for(
      n / detail::kStrip,
      [&](int64_t s0, int64_t s1) { detail::avx2_trunc_plane(rows, u, toff, c, n, g, s0, s1); },
      detail::strip_grain(m, k));
#endif
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

namespace {

void count_cache_event(const char* metric) {
  if (obs::enabled()) obs::collector()->add("kernels", metric, 1.0);
}

}  // namespace

struct PlanCache::Impl {
  mutable std::mutex mu;
  size_t capacity;
  /// Front = most recently used. The map holds iterators into the list.
  std::list<std::pair<PlanKey, PlanHandle>> lru;
  std::unordered_map<PlanKey, std::list<std::pair<PlanKey, PlanHandle>>::iterator,
                     PlanKeyHash>
      map;
  int64_t hits = 0, misses = 0, evictions = 0;
  /// PlanMemo front-side hits, folded into stats().hits (relaxed: counters
  /// only — no ordering requirement against the map).
  std::atomic<int64_t> memo_hits{0};

  void evict_over_capacity() {
    while (lru.size() > capacity) {
      map.erase(lru.back().first);
      lru.pop_back();
      ++evictions;
      count_cache_event("plan_cache.evict");
    }
  }
};

PlanCache::PlanCache(size_t capacity) : impl_(new Impl) {
  impl_->capacity = capacity > 0 ? capacity : 1;
}

PlanCache::~PlanCache() = default;

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

PlanHandle PlanCache::acquire(const PlanKey& key, const approx::SignedMulTable* tab) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  const auto it = impl_->map.find(key);
  if (it != impl_->map.end()) {
    impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
    ++impl_->hits;
    count_cache_event("plan_cache.hit");
    return it->second->second;
  }
  ++impl_->misses;
  count_cache_event("plan_cache.miss");
  PlanHandle handle(new GemmPlan(key, tab));
  impl_->lru.emplace_front(key, handle);
  impl_->map.emplace(key, impl_->lru.begin());
  impl_->evict_over_capacity();
  return handle;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  PlanCacheStats s;
  s.hits = impl_->hits + impl_->memo_hits.load(std::memory_order_relaxed);
  s.misses = impl_->misses;
  s.evictions = impl_->evictions;
  s.size = static_cast<int64_t>(impl_->lru.size());
  s.capacity = static_cast<int64_t>(impl_->capacity);
  return s;
}

void PlanCache::reset_stats() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->hits = impl_->misses = impl_->evictions = 0;
  impl_->memo_hits.store(0, std::memory_order_relaxed);
}

void PlanCache::note_memo_hit() {
  impl_->memo_hits.fetch_add(1, std::memory_order_relaxed);
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->map.clear();
  impl_->lru.clear();
}

void PlanCache::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->capacity = capacity > 0 ? capacity : 1;
  impl_->evict_over_capacity();
}

// ---------------------------------------------------------------------------
// PlanMemo
// ---------------------------------------------------------------------------

const PlanHandle& PlanMemo::find_or_acquire(const PlanKey& key,
                                            const approx::SignedMulTable* tab) {
  for (Entry& e : slots_)
    if (e.handle != nullptr && e.key == key) {
      PlanCache::global().note_memo_hit();
      return e.handle;
    }
  Entry& e = slots_[next_];
  next_ = (next_ + 1) % kSlots;
  e.handle = PlanCache::global().acquire(key, tab);
  e.key = key;
  return e.handle;
}

void PlanMemo::clear() {
  for (Entry& e : slots_) {
    e.handle.reset();
    e.key = PlanKey{};
  }
  next_ = 0;
}

std::vector<PlanKey> PlanMemo::keys() const {
  std::vector<PlanKey> out;
  // Walk in fill order: oldest surviving slot first, most recent last.
  for (size_t i = 0; i < kSlots; ++i) {
    const Entry& e = slots_[(next_ + i) % kSlots];
    if (e.handle != nullptr) out.push_back(e.key);
  }
  return out;
}

}  // namespace axnn::kernels
