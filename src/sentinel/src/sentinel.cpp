#include "axnn/sentinel/sentinel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "axnn/approx/kernels.hpp"
#include "axnn/axmul/registry.hpp"
#include "axnn/kernels/plan.hpp"
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

}  // namespace

int64_t SentinelReport::total_checks() const {
  int64_t s = 0;
  for (const auto& l : leaves) s += l.gemm_checks + l.range_checks;
  return s;
}

int64_t SentinelReport::total_violations() const {
  int64_t s = 0;
  for (const auto& l : leaves) s += l.abft_violations + l.weight_violations + l.range_violations;
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
  int64_t abft = 0, weight = 0, range = 0;
  for (const auto& l : leaves) {
    abft += l.abft_violations;
    weight += l.weight_violations;
    range += l.range_violations;
  }
  std::ostringstream os;
  os << leaves.size() << " leaves, " << (abft + weight + range) << " violations (" << abft
     << " abft/" << weight << " weight/" << range << " range), " << total_reexecs()
     << " re-execs, " << degraded_leaves() << " degraded";
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
    mine->weight_violations = sat_add(mine->weight_violations, o.weight_violations);
    mine->range_violations = sat_add(mine->range_violations, o.range_violations);
    mine->reexecs = sat_add(mine->reexecs, o.reexecs);
    mine->degraded = mine->degraded || o.degraded;
    mine->max_rel_dev = std::max(mine->max_rel_dev, o.max_rel_dev);
  }
}

Sentinel::Sentinel(SentinelConfig cfg) : cfg_(cfg) {}

void Sentinel::calibrate_leaf(const nn::GemmLeaf& leaf, const approx::SignedMulTable* tab,
                              const std::string& mul_id, bool runs_approx) {
  LeafState st;
  st.path = leaf.path;
  st.index = static_cast<int64_t>(leaves_.size());
  st.stats.path = leaf.path;

  int64_t groups = 0, rows = 0, cols = 0;
  if (auto* cv = dynamic_cast<nn::Conv2d*>(leaf.layer)) {
    if (!cv->calibrated())
      throw std::logic_error("Sentinel: leaf '" + leaf.path +
                             "' is not calibrated; run the quantization stage first");
    groups = cv->config().groups;
    rows = cv->config().out_channels / groups;
    cols = leaf.dot_length;
    st.golden_w = nn::quantize_i8(cv->weight().value, cv->weight_qparams());
    st.qrange = static_cast<double>(cv->act_qparams().range());
    const quant::RangeObserver& ob = cv->act_observer();
    st.range_bound = ob.seen() ? std::max(static_cast<double>(ob.max_abs()), st.qrange) : st.qrange;
    const double clip = ob.seen() ? ob.clip_fraction(cv->act_qparams()) : 0.0;
    st.clip_limit = std::min(0.5, cfg_.clip_scale * clip + cfg_.clip_floor);
  } else if (auto* fc = dynamic_cast<nn::Linear*>(leaf.layer)) {
    if (!fc->calibrated())
      throw std::logic_error("Sentinel: leaf '" + leaf.path +
                             "' is not calibrated; run the quantization stage first");
    groups = 1;
    rows = fc->out_features();
    cols = fc->in_features();
    st.golden_w = nn::quantize_i8(fc->weight().value, fc->weight_qparams());
    st.qrange = static_cast<double>(fc->act_qparams().range());
    const quant::RangeObserver& ob = fc->act_observer();
    st.range_bound = ob.seen() ? std::max(static_cast<double>(ob.max_abs()), st.qrange) : st.qrange;
    const double clip = ob.seen() ? ob.clip_fraction(fc->act_qparams()) : 0.0;
    st.clip_limit = std::min(0.5, cfg_.clip_scale * clip + cfg_.clip_floor);
  } else {
    throw std::logic_error("Sentinel: leaf '" + leaf.path + "' is neither Conv2d nor Linear");
  }

  st.rows_per_group = rows;
  st.golden_wsum.assign(static_cast<size_t>(groups * cols), 0);
  for (int64_t g = 0; g < groups; ++g) {
    const int8_t* wg = st.golden_w.data() + g * rows * cols;
    int64_t* sums = st.golden_wsum.data() + g * cols;
    for (int64_t kk = 0; kk < cols; ++kk) {
      int64_t s = 0;
      for (int64_t i = 0; i < rows; ++i) s += wg[i * cols + kk];
      sums[kk] = s;
    }
  }

  if (runs_approx && tab != nullptr) {
    st.fit = &fits_.fit_for_shape(*tab, mul_id, leaf.dot_length, cfg_.mc);
    st.elem_dev = (st.fit->a - st.fit->b) / 2.0;
    st.golden_tab = golden_table_for(mul_id);
  }

  leaves_.emplace(leaf.layer, std::move(st));
}

const approx::SignedMulTable* Sentinel::golden_table_for(const std::string& mul_id) {
  auto it = golden_tabs_.find(mul_id);
  if (it == golden_tabs_.end())
    // Rebuild from the registry, not from the runtime table — pristine by
    // construction even if the caller's table is already corrupted.
    it = golden_tabs_.emplace(mul_id, approx::SignedMulTable(axmul::make_lut(mul_id))).first;
  return &it->second;
}

void Sentinel::calibrate_uniform(nn::Layer& root, const approx::SignedMulTable& tab,
                                 const std::string& mul_id) {
  std::lock_guard<std::mutex> lk(mu_);
  leaves_.clear();
  resolution_ = nullptr;
  for (const nn::GemmLeaf& leaf : nn::enumerate_gemm_leaves(root))
    calibrate_leaf(leaf, &tab, mul_id, /*runs_approx=*/true);
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
      calibrate_leaf(leaf, nullptr, "", /*runs_approx=*/false);
    } else if (e.mul != nullptr) {
      calibrate_leaf(leaf, e.mul, e.plan.multiplier, /*runs_approx=*/true);
    } else {
      // The leaf would run through the context-wide fallback table, whose
      // identity the resolution does not know — no tolerance can be fitted.
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
  const int64_t checksum = st.stats.abft_violations + st.stats.weight_violations;
  const int64_t threshold = std::max<int64_t>(1, cfg_.policy.degrade_after);
  if (checksum < threshold) return;
  st.stats.degraded = true;
  bool rewrote = false;
  if (resolution_ != nullptr && cfg_.policy.rewrite_plan &&
      cfg_.policy.repair == DegradationPolicy::RepairMode::kExact)
    rewrote = resolution_->override_mode(leaf, nn::ExecMode::kQuantExact);
  if (obs::enabled()) {
    obs::Collector* c = obs::collector();
    c->add(st.path, "sentinel.degraded", 1.0);
    obs::Json ev = obs::Json::object();
    ev["type"] = "sentinel.degraded";
    ev["path"] = st.path;
    ev["violations"] = static_cast<double>(checksum);
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
  const double bound = cfg_.range_scale * st.range_bound;
  const bool bad = !std::isfinite(mx) || mx > bound || clip_rate > st.clip_limit;

  std::lock_guard<std::mutex> lk(mu_);
  ++st.stats.range_checks;
  if (bad) {
    ++st.stats.range_violations;
    record_violation(st, "range", mx > bound || !std::isfinite(mx) ? mx : clip_rate,
                     mx > bound || !std::isfinite(mx) ? bound : st.clip_limit);
  }
}

bool Sentinel::on_leaf_gemm(const nn::Layer& leaf, int64_t group, bool approx, const int8_t* w,
                            const int8_t* x, int32_t* c, int64_t m, int64_t k, int64_t n,
                            const approx::SignedMulTable* tab) {
  if (!cfg_.abft) return false;
  auto it = leaves_.find(&leaf);  // read-only after calibrate; no lock needed
  if (it == leaves_.end()) return false;
  LeafState& st = it->second;
  const bool golden_mode = cfg_.policy.repair == DegradationPolicy::RepairMode::kGoldenTable;

  // A degraded leaf under kGoldenTable stops verifying: the runtime table
  // is no longer trusted, so every pass recomputes from the golden weights
  // and the registry-pristine table — this also catches faults too small
  // for the calibrated tolerance.
  if (st.stats.degraded && golden_mode && cfg_.policy.reexec) {
    const int8_t* rw = (group + 1) * m * k <= static_cast<int64_t>(st.golden_w.numel())
                           ? st.golden_w.data() + group * m * k
                           : w;
    if (approx && st.golden_tab != nullptr)
      kernels::gemm_approx({}, rw, x, c, m, k, n, *st.golden_tab);
    else
      kernels::gemm_exact({}, rw, x, c, m, k, n);
    std::lock_guard<std::mutex> lk(mu_);
    ++st.stats.gemm_checks;
    ++st.stats.reexecs;
    return true;
  }

  // Pooled: a monitored forward runs this per leaf, and the serving steady
  // state must stay allocation-free (test_serve's instrumented operator new).
  std::vector<int64_t, PoolAllocator<int64_t>> actual(static_cast<size_t>(n));
  std::vector<int64_t, PoolAllocator<int64_t>> predicted(static_cast<size_t>(n));
  std::vector<int64_t, PoolAllocator<int64_t>> wsum(static_cast<size_t>(k));
  // Probe through the prepared plan the leaf just executed (every int GEMM
  // on the blocked backend runs one) — the weight column sums then walk the
  // plan's column-major nibble panel at unit stride instead of striding the
  // row-major operand. The key below matches the one the leaf's GEMM built,
  // so the acquire is a cache hit.
  const kernels::Backend abft_be = kernels::default_backend();
  if (abft_be == kernels::Backend::kBlocked && (!approx || tab != nullptr)) {
    const kernels::PlanKey key = kernels::make_int_key(
        approx ? kernels::OpKind::kApprox : kernels::OpKind::kExactInt, {}, m, k, n,
        abft_be, approx ? tab : nullptr);
    const kernels::PlanHandle plan = kernels::PlanCache::global().acquire(key, tab);
    kernels::abft_column_sums(*plan, w, x, c, m, k, n, actual.data(), predicted.data(),
                              wsum.data());
  } else {
    kernels::abft_column_sums(w, x, c, m, k, n, actual.data(), predicted.data(), wsum.data());
  }

  // Golden weight checksum: a corrupted weight operand is self-consistent
  // under ABFT, but its column sums no longer match the calibration capture.
  bool weight_bad = false;
  double weight_dev = 0.0;
  const int64_t* gold = nullptr;
  if ((group + 1) * k <= static_cast<int64_t>(st.golden_wsum.size())) {
    gold = st.golden_wsum.data() + group * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const double d = std::fabs(static_cast<double>(wsum[kk] - gold[kk]));
      if (d > 0.0) weight_bad = true;
      if (d > weight_dev) weight_dev = d;
    }
  }

  // ABFT column checksums against the calibrated tolerance. The prediction
  // is corrected by the expected accumulated approximation error
  // Σ_m f(c_mn) (the GE fit, evaluated at the approximate accumulators, the
  // same convention record_ge_residual uses); what remains is the fit
  // residual, bounded by tolerance_scale·M·elem_dev + tolerance_floor. The
  // exact path admits zero deviation.
  bool abft_bad = false;
  double worst_dev = 0.0;
  double tol = 0.0;
  if (!weight_bad) {
    tol = approx ? cfg_.tolerance_scale * static_cast<double>(m) * st.elem_dev +
                       cfg_.tolerance_floor
                 : 0.0;
    std::vector<double, PoolAllocator<double>> corr;  // pooled like the sums above
    if (approx && st.fit != nullptr && !st.fit->is_constant()) {
      corr.assign(static_cast<size_t>(n), 0.0);
      for (int64_t i = 0; i < m; ++i) {
        const int32_t* row = c + i * n;
        for (int64_t j = 0; j < n; ++j)
          corr[static_cast<size_t>(j)] += st.fit->eval(static_cast<double>(row[j]));
      }
    } else if (approx && st.fit != nullptr) {
      // Constant fit: f is flat, the correction is column-independent only
      // through eval(anything) = clamp(c) — still evaluate once per element.
      corr.assign(static_cast<size_t>(n), st.fit->eval(0.0) * static_cast<double>(m));
    }
    for (int64_t j = 0; j < n; ++j) {
      double dev = static_cast<double>(actual[static_cast<size_t>(j)] -
                                       predicted[static_cast<size_t>(j)]);
      if (!corr.empty()) dev -= corr[static_cast<size_t>(j)];
      const double adev = std::fabs(dev);
      if (adev > worst_dev) worst_dev = adev;
      if (adev > tol) abft_bad = true;
    }
  }

  // Repair the current pass. kGoldenTable restores the clean approximate
  // result (golden weights + registry-pristine table); kExact — or any
  // leaf without a golden table — re-executes with the exact kernel.
  bool repaired = false;
  if ((weight_bad || abft_bad) && cfg_.policy.reexec) {
    const int8_t* rw = w;
    if (weight_bad &&
        (group + 1) * m * k <= static_cast<int64_t>(st.golden_w.numel()))
      rw = st.golden_w.data() + group * m * k;
    if (approx && golden_mode && st.golden_tab != nullptr)
      kernels::gemm_approx({}, rw, x, c, m, k, n, *st.golden_tab);
    else
      kernels::gemm_exact({}, rw, x, c, m, k, n);
    repaired = true;
  }

  std::lock_guard<std::mutex> lk(mu_);
  ++st.stats.gemm_checks;
  if (weight_bad) {
    ++st.stats.weight_violations;
    record_violation(st, "weight", weight_dev, 0.0);
  } else if (abft_bad) {
    ++st.stats.abft_violations;
    record_violation(st, "abft", worst_dev, tol);
  } else {
    const double rel = worst_dev / std::max(tol, 1.0);
    if (rel > st.stats.max_rel_dev) st.stats.max_rel_dev = rel;
  }
  if (repaired) ++st.stats.reexecs;
  if (weight_bad || abft_bad) maybe_degrade(st, leaf);
  return repaired;
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
