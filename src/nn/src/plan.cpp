#include "axnn/nn/plan.hpp"

#include <sstream>
#include <stdexcept>

#include "axnn/axmul/registry.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/linear.hpp"

namespace axnn::nn {

std::vector<std::string> child_path_segments(Layer& node) {
  const auto children = node.children();
  // Occurrence-disambiguate repeated sibling names ("#k", 0-based) so every
  // path is unique; unique names stay suffix-free, which keeps common paths
  // short and stable when unrelated siblings (e.g. BatchNorms) disappear.
  std::map<std::string, int> total, seen;
  for (Layer* c : children) ++total[c->name()];
  std::vector<std::string> segs;
  segs.reserve(children.size());
  for (Layer* c : children) {
    std::string seg = c->name();
    if (total[seg] > 1) {
      seg += '#';
      seg += std::to_string(seen[c->name()]++);
    }
    segs.push_back(std::move(seg));
  }
  return segs;
}

namespace {

void walk_leaves(Layer& node, const std::string& prefix, std::vector<GemmLeaf>& out) {
  const auto children = node.children();
  const auto segs = child_path_segments(node);
  for (size_t ci = 0; ci < children.size(); ++ci) {
    Layer* c = children[ci];
    const std::string path = prefix.empty() ? segs[ci] : prefix + "/" + segs[ci];
    if (auto* conv = dynamic_cast<Conv2d*>(c)) {
      const auto& cfg = conv->config();
      out.push_back({path, c, true, (cfg.in_channels / cfg.groups) * cfg.kernel * cfg.kernel});
    } else if (auto* lin = dynamic_cast<Linear*>(c)) {
      out.push_back({path, c, false, lin->in_features()});
    } else {
      walk_leaves(*c, path, out);
    }
  }
}

/// True when `key` names `path` itself or a container above it.
bool path_matches(const std::string& key, const std::string& path) {
  if (key == path) return true;
  return path.size() > key.size() && path.compare(0, key.size(), key) == 0 &&
         path[key.size()] == '/';
}

void check_overrides_matched(const std::map<std::string, LayerPlan>& overrides,
                             const std::vector<GemmLeaf>& leaves, const char* what) {
  for (const auto& [key, plan] : overrides) {
    (void)plan;
    bool hit = false;
    for (const auto& leaf : leaves)
      if (path_matches(key, leaf.path)) {
        hit = true;
        break;
      }
    if (!hit) {
      std::ostringstream os;
      os << what << ": plan override '" << key << "' matches no conv/FC leaf; leaves are:";
      for (const auto& leaf : leaves) os << "\n  " << leaf.path;
      throw std::invalid_argument(os.str());
    }
  }
}

std::string mode_name(ExecMode m) {
  switch (m) {
    case ExecMode::kFloat: return "float";
    case ExecMode::kQuantExact: return "exact";
    case ExecMode::kQuantApprox: return "approx";
    case ExecMode::kCalibrate: break;
  }
  throw std::invalid_argument("LayerPlan: kCalibrate is not a valid mode override");
}

ExecMode mode_from_name(const std::string& s) {
  if (s == "float") return ExecMode::kFloat;
  if (s == "exact") return ExecMode::kQuantExact;
  if (s == "approx") return ExecMode::kQuantApprox;
  throw std::invalid_argument("NetPlan::parse: unknown mode '" + s +
                              "' (expected float|exact|approx)");
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\n");
  return s.substr(b, e - b + 1);
}

int parse_bits(const std::string& tok) {
  try {
    size_t pos = 0;
    const int v = std::stoi(tok, &pos);
    if (pos != tok.size()) throw std::invalid_argument(tok);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("NetPlan::parse: bad bit-width in '" + tok + "'");
  }
}

LayerPlan parse_spec(const std::string& spec) {
  LayerPlan p;
  std::string rest = spec;
  const auto colon = rest.find(':');
  p.multiplier = trim(rest.substr(0, colon));
  if (!p.multiplier.empty() && !axmul::find_spec(p.multiplier))
    throw std::invalid_argument("NetPlan::parse: unknown multiplier '" + p.multiplier + "'");
  rest = colon == std::string::npos ? "" : rest.substr(colon + 1);
  while (!rest.empty()) {
    const auto next = rest.find(':');
    const std::string tok = trim(rest.substr(0, next));
    rest = next == std::string::npos ? "" : rest.substr(next + 1);
    if (tok.empty()) continue;
    if (tok == "noge") {
      p.use_ge = false;
    } else if (tok.rfind("mode=", 0) == 0) {
      p.mode = mode_from_name(tok.substr(5));
    } else if (tok.rfind("add=", 0) == 0) {
      p.adder = tok.substr(4);
      (void)axmul::make_adder(p.adder);  // validate the id eagerly
    } else if (tok[0] == 'w') {
      p.weight_bits = parse_bits(tok.substr(1));
    } else if (tok[0] == 'a') {
      p.activation_bits = parse_bits(tok.substr(1));
    } else {
      throw std::invalid_argument("NetPlan::parse: unknown attribute '" + tok + "'");
    }
  }
  return p;
}

std::string spec_to_string(const LayerPlan& p) {
  std::string s = p.multiplier;
  if (p.weight_bits != quant::kWeightBits) s += ":w" + std::to_string(p.weight_bits);
  if (p.activation_bits != quant::kActivationBits) s += ":a" + std::to_string(p.activation_bits);
  if (!p.adder.empty()) s += ":add=" + p.adder;
  if (!p.use_ge) s += ":noge";
  if (p.mode) s += ":mode=" + mode_name(*p.mode);
  return s;
}

}  // namespace

std::vector<GemmLeaf> enumerate_gemm_leaves(Layer& root) {
  std::vector<GemmLeaf> out;
  // A bare conv/FC root is its own single leaf (path = its name).
  if (auto* conv = dynamic_cast<Conv2d*>(&root)) {
    const auto& cfg = conv->config();
    out.push_back({conv->name(), &root, true,
                   (cfg.in_channels / cfg.groups) * cfg.kernel * cfg.kernel});
  } else if (auto* lin = dynamic_cast<Linear*>(&root)) {
    out.push_back({lin->name(), &root, false, lin->in_features()});
  } else {
    walk_leaves(root, "", out);
  }
  return out;
}

const ResolvedLayerPlan* PlanResolution::find(const Layer& leaf) const {
  const auto it = by_layer_.find(&leaf);
  return it == by_layer_.end() ? nullptr : it->second;
}

void PlanResolution::require_approximable() const {
  std::ostringstream os;
  bool bad = false;
  for (const auto& e : entries_) {
    const bool exempt =
        e.plan.mode && (*e.plan.mode == ExecMode::kFloat || *e.plan.mode == ExecMode::kQuantExact);
    if (e.mul == nullptr && !exempt) {
      if (!bad) os << "PlanResolution: leaves without a multiplier (and no exact/float mode):";
      bad = true;
      os << "\n  " << e.path;
    }
  }
  if (bad) throw std::invalid_argument(os.str());
}

void PlanResolution::require_bit_widths() const {
  for (const auto& e : entries_) {
    int wgt = 0, act = 0;
    if (auto* conv = dynamic_cast<Conv2d*>(e.layer)) {
      wgt = conv->weight_bits();
      act = conv->activation_bits();
    } else if (auto* lin = dynamic_cast<Linear*>(e.layer)) {
      wgt = lin->weight_bits();
      act = lin->activation_bits();
    }
    if (wgt != e.plan.weight_bits || act != e.plan.activation_bits)
      throw std::invalid_argument(
          "PlanResolution: plan bit-widths at '" + e.path + "' (" +
          std::to_string(e.plan.weight_bits) + "W/" + std::to_string(e.plan.activation_bits) +
          "A) differ from the calibrated widths (" + std::to_string(wgt) + "W/" +
          std::to_string(act) + "A); apply_bit_widths + recalibrate first");
  }
}

NetPlan& NetPlan::set(std::string path, LayerPlan plan) {
  if (path.empty()) throw std::invalid_argument("NetPlan::set: empty path");
  overrides_[std::move(path)] = std::move(plan);
  return *this;
}

const LayerPlan& NetPlan::match(const std::string& path) const {
  const LayerPlan* best = nullptr;
  size_t best_len = 0;
  for (const auto& [key, plan] : overrides_) {
    if (!path_matches(key, path)) continue;
    if (best == nullptr || key.size() >= best_len) {
      best = &plan;
      best_len = key.size();
    }
  }
  return best != nullptr ? *best : uniform_;
}

NetPlan NetPlan::parse(const std::string& text) {
  NetPlan plan;
  std::string rest = text;
  while (!rest.empty()) {
    const auto semi = rest.find(';');
    const std::string entry = trim(rest.substr(0, semi));
    rest = semi == std::string::npos ? "" : rest.substr(semi + 1);
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("NetPlan::parse: entry '" + entry + "' has no '='");
    const std::string key = trim(entry.substr(0, eq));
    const LayerPlan lp = parse_spec(entry.substr(eq + 1));
    if (key == "default")
      plan.uniform_ = lp;
    else
      plan.set(key, lp);
  }
  return plan;
}

std::string NetPlan::to_string() const {
  std::string s = "default=" + spec_to_string(uniform_);
  for (const auto& [key, plan] : overrides_) s += "; " + key + "=" + spec_to_string(plan);
  return s;
}

void NetPlan::apply_bit_widths(Layer& root) const {
  const auto leaves = enumerate_gemm_leaves(root);
  check_overrides_matched(overrides_, leaves, "NetPlan::apply_bit_widths");
  for (const auto& leaf : leaves) {
    const LayerPlan& lp = match(leaf.path);
    if (auto* conv = dynamic_cast<Conv2d*>(leaf.layer))
      conv->set_bit_widths(lp.weight_bits, lp.activation_bits);
    else if (auto* lin = dynamic_cast<Linear*>(leaf.layer))
      lin->set_bit_widths(lp.weight_bits, lp.activation_bits);
  }
}

PlanResolution NetPlan::resolve(Layer& root, const ResolveOptions& opt) const {
  const auto leaves = enumerate_gemm_leaves(root);
  check_overrides_matched(overrides_, leaves, "NetPlan::resolve");

  PlanResolution res;
  res.entries_.reserve(leaves.size());
  for (const auto& leaf : leaves) {
    const LayerPlan& lp = match(leaf.path);
    if (lp.mode && *lp.mode == ExecMode::kCalibrate)
      throw std::invalid_argument("NetPlan::resolve: kCalibrate mode override at " + leaf.path);
    ResolvedLayerPlan e;
    e.path = leaf.path;
    e.plan = lp;
    e.layer = leaf.layer;
    e.dot_length = leaf.dot_length;
    if (!lp.multiplier.empty()) {
      auto it = res.tables_.find(lp.multiplier);
      if (it == res.tables_.end())
        it = res.tables_
                 .emplace(lp.multiplier, approx::SignedMulTable(axmul::make_lut(lp.multiplier)))
                 .first;
      e.mul = &it->second;
    }
    if (!lp.adder.empty()) {
      auto it = res.adders_.find(lp.adder);
      if (it == res.adders_.end())
        it = res.adders_.emplace(lp.adder, axmul::make_adder(lp.adder)).first;
      e.adder = it->second.get();
    }
    res.entries_.push_back(std::move(e));
  }

  // Second pass, after entries_ stopped growing: fits point into the
  // registry's node-stable maps, by_layer_ points into entries_.
  for (auto& e : res.entries_) {
    const bool forced_off = e.plan.mode && *e.plan.mode != ExecMode::kQuantApprox;
    if (opt.fit_ge && e.plan.use_ge && e.mul != nullptr && !forced_off) {
      const ge::ErrorFit& fit =
          res.fits_.fit_for_shape(*e.mul, e.plan.multiplier, e.dot_length, opt.mc);
      res.fits_.register_path(e.path, &fit);
      e.fit = &fit;
    }
    res.by_layer_.emplace(e.layer, &e);
  }
  return res;
}

LeafExec plan_leaf_exec(const ExecContext& ctx, const Layer& leaf) {
  LeafExec ex{ctx.mode, ctx.mul, ctx.ge_fit, ctx.adder};
  const ResolvedLayerPlan* rp =
      ctx.plan != nullptr && ctx.quantized() ? ctx.plan->find(leaf) : nullptr;
  if (rp != nullptr) {
    if (rp->plan.mode) ex.mode = *rp->plan.mode;
    if (rp->mul != nullptr) ex.mul = rp->mul;
    if (rp->adder != nullptr) ex.adder = rp->adder;
    // Per-layer fits drive the (1 + K) backward scale; like the uniform flow,
    // only training contexts carry them (evaluation stays pure STE-free).
    if (rp->fit != nullptr && ctx.training) ex.fit = rp->fit;
  }
  // Only an approximate leaf reads a table, an adder or a GE fit.
  if (ex.mode != ExecMode::kQuantApprox) return {.mode = ex.mode};
  return ex;
}

}  // namespace axnn::nn
