#include <algorithm>
#include <cmath>
#include <map>

#include "axnn/axmul/registry.hpp"
#include "axnn/axmul/stats.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/search/search.hpp"

namespace axnn::search {

namespace {

/// Observed clip rate for a leaf: the mean of the rates its int8 quantizes
/// (activations, then weights) recorded under the leaf's path.
double leaf_clip_rate(const obs::Collector& col, const std::string& path) {
  const auto q = col.stat(path, "quantize.clip_rate");
  return q.count > 0 ? q.mean() : 0.0;
}

}  // namespace

SensitivityModel profile_sensitivity(nn::Sequential& model, const data::Dataset& sample,
                                     const std::vector<Candidate>& candidates,
                                     ge::FitRegistry& fits) {
  SensitivityModel out;
  const auto leaves = nn::enumerate_gemm_leaves(model);
  if (leaves.empty()) throw std::invalid_argument("profile_sensitivity: model has no GEMM leaves");
  if (sample.size() <= 0) throw std::invalid_argument("profile_sensitivity: empty sample");
  if (candidates.empty()) throw std::invalid_argument("profile_sensitivity: no candidates");

  // One instrumented exact forward: fills every leaf's MAC counter and
  // records quantizer clip rates under the leaf paths.
  obs::Collector col;
  {
    obs::ScopedCollector attach(col);
    (void)model.forward(sample.images, nn::ExecContext::quant_exact());
  }

  int64_t total_macs = 0;
  for (const auto& leaf : leaves) total_macs += leaf.layer->last_mac_count();
  if (total_macs <= 0) throw std::logic_error("profile_sensitivity: no MACs recorded");

  out.layers.reserve(leaves.size());
  for (const auto& leaf : leaves) {
    LayerSensitivity s;
    s.path = leaf.path;
    s.dot_length = leaf.dot_length;
    s.macs = leaf.layer->last_mac_count() / sample.size();
    s.mac_share = static_cast<double>(leaf.layer->last_mac_count()) /
                  static_cast<double>(total_macs);
    s.clip_rate = leaf_clip_rate(col, leaf.path);
    out.layers.push_back(std::move(s));
  }

  // Per-candidate ingredients shared across layers: the LUT (for the GE
  // fits) and its measured MRE. Memoized by multiplier id — width variants
  // of one multiplier share both.
  std::map<std::string, approx::SignedMulTable> tables;
  std::map<std::string, double> mre;
  for (const auto& c : candidates) {
    if (c.exact() || tables.count(c.multiplier)) continue;
    auto lut = axmul::make_lut(c.multiplier);
    mre[c.multiplier] = axmul::compute_error_stats(lut).mre;
    tables.emplace(c.multiplier, approx::SignedMulTable(std::move(lut)));
  }

  // proxy(layer, candidate): MAC share × candidate MRE × clip inflation ×
  // fit inflation × width inflation. The absolute scale is irrelevant (the
  // greedy driver only compares proxies and calibrates against measured
  // holdout deltas); what matters is monotonicity — bigger layers, noisier
  // multipliers, clippier activations and narrower widths all rank as more
  // damaging.
  out.proxy.assign(out.layers.size(), std::vector<double>(candidates.size(), 0.0));
  for (size_t ci = 0; ci < candidates.size(); ++ci) {
    const Candidate& c = candidates[ci];
    if (c.exact()) continue;
    const double width_infl =
        static_cast<double>(quant::kWeightBits * quant::kActivationBits) /
        static_cast<double>(std::max(1, c.weight_bits * c.activation_bits));
    for (size_t li = 0; li < out.layers.size(); ++li) {
      const LayerSensitivity& s = out.layers[li];
      // Accumulated-error magnitude at a typical dot-product scale: the GE
      // fit f(y) evaluated at ±y_typ, normalized so it contributes a
      // dimensionless inflation factor.
      const auto& fit =
          fits.fit_for_shape(tables.at(c.multiplier), c.multiplier, s.dot_length);
      const double y_typ = 32.0 * static_cast<double>(std::max<int64_t>(1, s.dot_length));
      const double fit_err = std::abs(fit.eval(y_typ)) + std::abs(fit.eval(-y_typ));
      const double fit_infl = 1.0 + fit_err / (2.0 * y_typ);
      out.proxy[li][ci] = s.mac_share * mre.at(c.multiplier) * (1.0 + s.clip_rate) *
                          fit_infl * width_infl;
    }
  }

  for (size_t li = 0; li < out.layers.size(); ++li)
    out.layers[li].max_proxy =
        *std::max_element(out.proxy[li].begin(), out.proxy[li].end());
  return out;
}

}  // namespace axnn::search
