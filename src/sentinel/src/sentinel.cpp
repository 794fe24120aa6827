#include "axnn/sentinel/sentinel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "axnn/axmul/registry.hpp"
#include "axnn/kernels/int_gemm.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/linear.hpp"
#include "axnn/nn/qutils.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/tensor/buffer_pool.hpp"

namespace axnn::sentinel {
namespace {

/// Violation events recorded per leaf before the event stream is muted for
/// that leaf (metrics keep counting) — a stuck-at LUT fault fires on every
/// batch and would otherwise flood the report.
constexpr int kEventCap = 32;

/// Range guard: flag inputs whose max |x| exceeds kRangeScale × the
/// calibrated bound, or whose clip rate exceeds
/// min(0.5, kClipScale × the calibrated clip rate + kClipFloor).
constexpr double kRangeScale = 4.0;
constexpr double kClipScale = 8.0;
constexpr double kClipFloor = 0.02;

/// Activation bytes a checksum-table row is indexed by.
constexpr int64_t kActs = 256;

}  // namespace

int64_t SentinelReport::total_checks() const {
  int64_t s = 0;
  for (const auto& l : leaves) s += l.gemm_checks + l.range_checks;
  return s;
}

int64_t SentinelReport::total_violations() const {
  int64_t s = 0;
  for (const auto& l : leaves) s += l.abft_violations + l.range_violations;
  return s;
}

int64_t SentinelReport::total_reexecs() const {
  int64_t s = 0;
  for (const auto& l : leaves) s += l.reexecs;
  return s;
}

int64_t SentinelReport::degraded_leaves() const {
  int64_t s = 0;
  for (const auto& l : leaves) s += l.degraded ? 1 : 0;
  return s;
}

double SentinelReport::violation_rate() const {
  const int64_t checks = total_checks();
  return checks > 0 ? static_cast<double>(total_violations()) / static_cast<double>(checks) : 0.0;
}

std::string SentinelReport::summary() const {
  int64_t abft = 0, range = 0;
  for (const auto& l : leaves) {
    abft += l.abft_violations;
    range += l.range_violations;
  }
  std::ostringstream os;
  os << leaves.size() << " leaves, " << (abft + range) << " violations (" << abft << " abft/"
     << range << " range), " << total_reexecs() << " re-execs, " << degraded_leaves()
     << " degraded";
  return os.str();
}

namespace {

// Counter folding saturates instead of wrapping: reports merged in a loop
// (long-lived serving engines fold per-lane/per-point reports every tick)
// must never turn a huge count into a negative one.
int64_t sat_add(int64_t a, int64_t b) {
  int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) return std::numeric_limits<int64_t>::max();
  return r;
}

}  // namespace

void SentinelReport::merge(const SentinelReport& other) {
  for (const auto& o : other.leaves) {
    LeafStats* mine = nullptr;
    for (auto& l : leaves)
      if (l.path == o.path) {
        mine = &l;
        break;
      }
    if (!mine) {
      leaves.push_back(o);
      continue;
    }
    mine->gemm_checks = sat_add(mine->gemm_checks, o.gemm_checks);
    mine->range_checks = sat_add(mine->range_checks, o.range_checks);
    mine->abft_violations = sat_add(mine->abft_violations, o.abft_violations);
    mine->range_violations = sat_add(mine->range_violations, o.range_violations);
    mine->reexecs = sat_add(mine->reexecs, o.reexecs);
    mine->degraded = mine->degraded || o.degraded;
  }
}

Sentinel::Sentinel(SentinelConfig cfg) : cfg_(cfg) {}

void Sentinel::calibrate_leaf(const nn::GemmLeaf& leaf, const std::string* mul_id) {
  LeafState st;
  st.path = leaf.path;
  st.index = static_cast<int64_t>(leaves_.size());
  st.stats.path = leaf.path;

  const quant::RangeObserver* ob = nullptr;
  quant::QuantParams act_qp;
  if (auto* cv = dynamic_cast<nn::Conv2d*>(leaf.layer)) {
    if (!cv->calibrated())
      throw std::logic_error("Sentinel: leaf '" + leaf.path +
                             "' is not calibrated; run the quantization stage first");
    st.groups = cv->config().groups;
    st.rows = cv->config().out_channels / st.groups;
    st.cols = leaf.dot_length;
    st.golden_w = nn::quantize_i8(cv->weight().value, cv->weight_qparams());
    ob = &cv->act_observer();
    act_qp = cv->act_qparams();
  } else if (auto* fc = dynamic_cast<nn::Linear*>(leaf.layer)) {
    if (!fc->calibrated())
      throw std::logic_error("Sentinel: leaf '" + leaf.path +
                             "' is not calibrated; run the quantization stage first");
    st.groups = 1;
    st.rows = fc->out_features();
    st.cols = fc->in_features();
    st.golden_w = nn::quantize_i8(fc->weight().value, fc->weight_qparams());
    ob = &fc->act_observer();
    act_qp = fc->act_qparams();
  } else {
    throw std::logic_error("Sentinel: leaf '" + leaf.path + "' is neither Conv2d nor Linear");
  }
  st.qrange = static_cast<double>(act_qp.range());
  st.range_bound = ob->seen() ? std::max(static_cast<double>(ob->max_abs()), st.qrange) : st.qrange;
  const double clip = ob->seen() ? ob->clip_fraction(act_qp) : 0.0;
  st.clip_limit = std::min(0.5, kClipScale * clip + kClipFloor);

  st.golden_wsum.assign(static_cast<size_t>(st.groups * st.cols), 0);
  for (int64_t g = 0; g < st.groups; ++g) {
    const int8_t* wg = st.golden_w.data() + g * st.rows * st.cols;
    for (int64_t kk = 0; kk < st.cols; ++kk) {
      int32_t s = 0;
      for (int64_t i = 0; i < st.rows; ++i) s += wg[i * st.cols + kk];
      st.golden_wsum[static_cast<size_t>(g * st.cols + kk)] = s;
    }
  }

  if (mul_id != nullptr) {
    st.golden_tab = golden_table_for(*mul_id);
    build_checksum_tables(st);
  }
  leaves_.emplace(leaf.layer, std::move(st));
}

void Sentinel::build_checksum_tables(LeafState& st) {
  // S_k depends only on column k's histogram of weight nibbles, so columns
  // with equal histograms share one row (a depthwise leaf needs at most 16).
  // Zero weights are left out: every kernel skips them, and some tables
  // have T(a, 0) != 0.
  using Histogram = std::array<int32_t, 16>;
  std::map<Histogram, uint32_t> row_of;
  const int32_t* t = st.golden_tab->data();
  st.table_row.assign(static_cast<size_t>(st.groups * st.cols), 0);
  for (int64_t g = 0; g < st.groups; ++g) {
    const int8_t* wg = st.golden_w.data() + g * st.rows * st.cols;
    for (int64_t kk = 0; kk < st.cols; ++kk) {
      Histogram h{};
      for (int64_t i = 0; i < st.rows; ++i)
        if (wg[i * st.cols + kk] != 0) ++h[static_cast<size_t>(wg[i * st.cols + kk]) & 0xF];
      auto [it, fresh] = row_of.emplace(h, static_cast<uint32_t>(row_of.size()));
      if (fresh) {
        for (int64_t a = 0; a < kActs; ++a) {
          int32_t s = 0;
          for (size_t nib = 1; nib < h.size(); ++nib)
            s += h[nib] * t[(static_cast<size_t>(a) << 4) | nib];
          st.tables.push_back(s);
        }
      }
      st.table_row[static_cast<size_t>(g * st.cols + kk)] = it->second;
    }
  }
}

const approx::SignedMulTable* Sentinel::golden_table_for(const std::string& mul_id) {
  auto it = golden_tabs_.find(mul_id);
  if (it == golden_tabs_.end())
    // Rebuild from the registry, not from the runtime table — pristine by
    // construction even if the caller's table is already corrupted.
    it = golden_tabs_.emplace(mul_id, approx::SignedMulTable(axmul::make_lut(mul_id))).first;
  return &it->second;
}

void Sentinel::calibrate_uniform(nn::Layer& root, const std::string& mul_id) {
  std::lock_guard<std::mutex> lk(mu_);
  leaves_.clear();
  resolution_ = nullptr;
  for (const nn::GemmLeaf& leaf : nn::enumerate_gemm_leaves(root)) calibrate_leaf(leaf, &mul_id);
}

void Sentinel::calibrate_plan(nn::Layer& root, nn::PlanResolution& resolution) {
  std::lock_guard<std::mutex> lk(mu_);
  (void)root;
  leaves_.clear();
  resolution_ = &resolution;
  for (const nn::ResolvedLayerPlan& e : resolution.entries()) {
    nn::GemmLeaf leaf;
    leaf.path = e.path;
    leaf.layer = e.layer;
    leaf.dot_length = e.dot_length;
    const bool exact_override =
        e.plan.mode.has_value() && *e.plan.mode != nn::ExecMode::kQuantApprox;
    if (exact_override) {
      calibrate_leaf(leaf, nullptr);
    } else if (e.mul != nullptr) {
      calibrate_leaf(leaf, &e.plan.multiplier);
    } else {
      // The leaf would run through the context-wide fallback table, whose
      // identity the resolution does not know — no checksum table can be
      // built.
      throw std::logic_error("Sentinel::calibrate_plan: leaf '" + e.path +
                             "' has no plan multiplier and no exact/float mode override; "
                             "use calibrate_uniform for context-fallback runs");
    }
  }
}

bool Sentinel::force_exact(const nn::Layer& leaf) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = leaves_.find(&leaf);
  return it != leaves_.end() && it->second.stats.degraded &&
         cfg_.policy.repair == DegradationPolicy::RepairMode::kExact;
}

void Sentinel::record_violation(LeafState& st, const char* kind, double deviation,
                                double tolerance) {
  if (!obs::enabled()) return;
  obs::Collector* c = obs::collector();
  c->add(st.path, std::string("sentinel.") + kind + "_violations", 1.0);
  if (st.events_emitted >= kEventCap) return;
  ++st.events_emitted;
  obs::Json ev = obs::Json::object();
  ev["type"] = "sentinel.violation";
  ev["kind"] = kind;
  ev["path"] = st.path;
  ev["deviation"] = deviation;
  ev["tolerance"] = tolerance;
  c->event(std::move(ev));
}

void Sentinel::maybe_degrade(LeafState& st, const nn::Layer& leaf) {
  if (st.stats.degraded) return;
  const int64_t threshold = std::max<int64_t>(1, cfg_.policy.degrade_after);
  if (st.stats.abft_violations < threshold) return;
  st.stats.degraded = true;
  bool rewrote = false;
  if (resolution_ != nullptr && cfg_.policy.repair == DegradationPolicy::RepairMode::kExact)
    rewrote = resolution_->override_mode(leaf, nn::ExecMode::kQuantExact);
  if (obs::enabled()) {
    obs::Collector* c = obs::collector();
    c->add(st.path, "sentinel.degraded", 1.0);
    obs::Json ev = obs::Json::object();
    ev["type"] = "sentinel.degraded";
    ev["path"] = st.path;
    ev["violations"] = static_cast<double>(st.stats.abft_violations);
    ev["plan_rewritten"] = rewrote;
    c->event(std::move(ev));
  }
}

void Sentinel::on_leaf_input(const nn::Layer& leaf, const Tensor& x) {
  if (!cfg_.range_guard) return;
  auto it = leaves_.find(&leaf);  // read-only after calibrate; no lock needed
  if (it == leaves_.end()) return;
  LeafState& st = it->second;

  const int64_t numel = x.numel();
  double mx = 0.0;
  int64_t clipped = 0;
  for (int64_t i = 0; i < numel; ++i) {
    const double a = std::fabs(static_cast<double>(x[i]));
    if (a > mx) mx = a;
    if (a > st.qrange) ++clipped;
  }
  const double clip_rate =
      numel > 0 ? static_cast<double>(clipped) / static_cast<double>(numel) : 0.0;
  const double bound = kRangeScale * st.range_bound;
  const bool bad = !std::isfinite(mx) || mx > bound || clip_rate > st.clip_limit;

  std::lock_guard<std::mutex> lk(mu_);
  ++st.stats.range_checks;
  if (bad) {
    ++st.stats.range_violations;
    record_violation(st, "range", mx > bound || !std::isfinite(mx) ? mx : clip_rate,
                     mx > bound || !std::isfinite(mx) ? bound : st.clip_limit);
  }
}

void Sentinel::repair(const LeafState& st, int64_t group, bool approx, const int8_t* x,
                      int32_t* c, int64_t n) const {
  // kGoldenTable restores the clean approximate result (golden weights +
  // registry-pristine table); kExact — or an exact-path GEMM — re-executes
  // the golden weights with the exact kernel.
  const int8_t* gw = st.golden_w.data() + group * st.rows * st.cols;
  if (approx && cfg_.policy.repair == DegradationPolicy::RepairMode::kGoldenTable)
    kernels::gemm_approx({}, gw, x, c, st.rows, st.cols, n, *st.golden_tab);
  else
    kernels::gemm_exact({}, gw, x, c, st.rows, st.cols, n);
}

bool Sentinel::on_leaf_gemm(const nn::Layer& leaf, int64_t group, bool approx,
                            const int8_t* /*w*/, const int8_t* x, int32_t* c, int64_t m,
                            int64_t k, int64_t n, const approx::SignedMulTable* /*tab*/) {
  auto it = leaves_.find(&leaf);  // read-only after calibrate; no lock needed
  if (it == leaves_.end()) return false;
  LeafState& st = it->second;
  // The checksums describe the calibrated geometry only; an approximate GEMM
  // on an exact-mode leaf has no table to check against.
  if (m != st.rows || k != st.cols || group >= st.groups || (approx && st.tables.empty()))
    return false;

  bool degraded = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    degraded = st.stats.degraded;
  }
  // A degraded leaf under kGoldenTable stops verifying: the runtime table
  // is no longer trusted, so every pass recomputes from the golden weights
  // and the registry-pristine table.
  if (degraded && cfg_.policy.repair == DegradationPolicy::RepairMode::kGoldenTable) {
    repair(st, group, approx, x, c, n);
    std::lock_guard<std::mutex> lk(mu_);
    ++st.stats.gemm_checks;
    ++st.stats.reexecs;
    return true;
  }

  // dev[n] = Σ_m C[m,n] − Σ_k S_k(X[k,n]), walking X row by row. Pooled: a
  // monitored forward runs this per leaf, and the serving steady state must
  // stay allocation-free (test_serve's instrumented operator new).
  std::vector<int64_t, PoolAllocator<int64_t>> dev(static_cast<size_t>(n), 0);
  for (int64_t i = 0; i < m; ++i) {
    const int32_t* row = c + i * n;
    for (int64_t j = 0; j < n; ++j) dev[static_cast<size_t>(j)] += row[j];
  }
  if (approx) {
    const uint32_t* rows = st.table_row.data() + group * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const int32_t* s = st.tables.data() + static_cast<size_t>(rows[kk]) * kActs;
      const uint8_t* xr = reinterpret_cast<const uint8_t*>(x + kk * n);
      for (int64_t j = 0; j < n; ++j) dev[static_cast<size_t>(j)] -= s[xr[j]];
    }
  } else {
    const int32_t* ws = st.golden_wsum.data() + group * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      if (ws[kk] == 0) continue;
      const int8_t* xr = x + kk * n;
      for (int64_t j = 0; j < n; ++j)
        dev[static_cast<size_t>(j)] -= static_cast<int64_t>(ws[kk]) * xr[j];
    }
  }
  int64_t worst = 0;
  for (const int64_t d : dev) worst = std::max(worst, d < 0 ? -d : d);

  const bool bad = worst != 0;
  if (bad) repair(st, group, approx, x, c, n);

  std::lock_guard<std::mutex> lk(mu_);
  ++st.stats.gemm_checks;
  if (bad) {
    ++st.stats.abft_violations;
    ++st.stats.reexecs;
    record_violation(st, "abft", static_cast<double>(worst), 0.0);
    maybe_degrade(st, leaf);
  }
  return bad;
}

SentinelReport Sentinel::report() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<const LeafState*> ordered;
  ordered.reserve(leaves_.size());
  for (const auto& [layer, st] : leaves_) ordered.push_back(&st);
  std::sort(ordered.begin(), ordered.end(),
            [](const LeafState* a, const LeafState* b) { return a->index < b->index; });
  SentinelReport rep;
  rep.leaves.reserve(ordered.size());
  for (const LeafState* st : ordered) rep.leaves.push_back(st->stats);
  return rep;
}

void Sentinel::reset_counters() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [layer, st] : leaves_) {
    LeafStats fresh;
    fresh.path = st.stats.path;
    st.stats = fresh;
    st.events_emitted = 0;
  }
}

}  // namespace axnn::sentinel
