// axnn — per-layer execution plans (heterogeneous approximation).
//
// The paper evaluates *uniform* approximation: one multiplier, one GE fit
// and one bit-width pair for the whole network, all carried by ExecContext.
// This module generalizes that to a declarative plan:
//
//   LayerPlan  — what one conv/FC leaf should run: multiplier and adder by
//                registry id (so plans serialize), bit-widths, GE
//                eligibility, and an optional exec-mode override.
//   NetPlan    — a uniform default LayerPlan plus path-keyed overrides,
//                matched by longest '/'-boundary prefix. Parses from and
//                serializes to a one-line text form.
//   PlanResolution — a NetPlan materialized against a concrete model:
//                multiplier tables and adders built from the registry, GE
//                fits fitted per layer shape (FitRegistry), and a
//                leaf-pointer lookup used by Conv2d/Linear during forward.
//
// Layer paths are '/'-joined layer names from the root, with a "#k" suffix
// (0-based occurrence index) appended when a name repeats among siblings:
//
//   basic_block#2/basic_block_main/conv3x3_4->4#1
//
// BatchNorm folding removes BN children without renaming the convolutions
// around them, so paths are stable across fold_batchnorms().
//
// Equivalence guarantee: a uniform NetPlan (no overrides) resolved and
// attached to an ExecContext produces bit-identical logits to the plain
// ExecContext path in all four exec modes — the GE fit never enters the
// forward computation, and a table materialized from a registry id equals a
// caller-constructed table for the same id entry by entry.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "axnn/axmul/adder.hpp"
#include "axnn/ge/fit_registry.hpp"
#include "axnn/nn/layer.hpp"

namespace axnn::nn {

/// Declarative execution parameters for one conv/FC leaf. An override
/// REPLACES the uniform plan for the layers it matches (no field-wise
/// merging): unset fields mean their defaults, not "inherit".
struct LayerPlan {
  /// Multiplier registry id ("trunc5", "evoa228", ...). Empty = no plan
  /// table; the leaf falls back to the context-wide ExecContext::mul.
  std::string multiplier{};
  /// Adder registry id ("exact_add", "truncadd8", "loa8"). Empty = use the
  /// context adder (usually none => exact accumulation).
  std::string adder{};
  int weight_bits = quant::kWeightBits;
  int activation_bits = quant::kActivationBits;
  /// Eligible for a per-layer GE fit (only takes effect when the plan is
  /// resolved with ResolveOptions::fit_ge and a multiplier id is set).
  bool use_ge = true;
  /// Exec-mode override for quantized passes: kFloat / kQuantExact /
  /// kQuantApprox keep this leaf exact (or full-precision) while the rest of
  /// the network approximates, or vice versa. Ignored in kFloat/kCalibrate
  /// passes; kCalibrate is not a valid override.
  std::optional<ExecMode> mode = std::nullopt;
};

/// One conv/FC leaf discovered by walking a layer tree.
struct GemmLeaf {
  std::string path;
  Layer* layer = nullptr;
  bool is_conv = false;
  /// Accumulation length of one output element ((C/groups)*k*k for conv,
  /// in_features for FC) — the Monte-Carlo dot length for this layer's fit.
  int64_t dot_length = 0;
};

/// Depth-first enumeration of every Conv2d/Linear leaf with its path.
std::vector<GemmLeaf> enumerate_gemm_leaves(Layer& root);

/// Path segments of `node`'s direct children, exactly as plan paths build
/// them ("#k" occurrence suffix when a name repeats among siblings). The
/// containers use this to label telemetry scopes (obs::ScopedPath) so
/// collected metrics land under the same paths enumerate_gemm_leaves
/// reports.
std::vector<std::string> child_path_segments(Layer& node);

/// A LayerPlan bound to a concrete leaf, with registry objects materialized.
struct ResolvedLayerPlan {
  std::string path;
  LayerPlan plan;
  Layer* layer = nullptr;
  int64_t dot_length = 0;
  const approx::SignedMulTable* mul = nullptr;  ///< null = context fallback
  const axmul::Adder* adder = nullptr;          ///< null = context fallback
  const ge::ErrorFit* fit = nullptr;            ///< null = no per-layer fit
};

struct ResolveOptions {
  /// Fit a per-layer GE error function for every GE-eligible leaf that has
  /// a plan multiplier. Off by default so non-GE flows never pay the
  /// Monte-Carlo cost (and never silently enable GE).
  bool fit_ge = false;
  /// Monte-Carlo knobs for the fits; dot_length is overridden per layer.
  ge::McConfig mc;
};

/// A NetPlan materialized against one model instance. Owns the multiplier
/// tables, adders and GE fits its entries point to; move-only (entries hold
/// pointers into the owned storage). Valid for the model's lifetime — the
/// lookup is keyed by leaf addresses.
class PlanResolution {
public:
  PlanResolution() = default;
  PlanResolution(const PlanResolution&) = delete;
  PlanResolution& operator=(const PlanResolution&) = delete;
  PlanResolution(PlanResolution&&) = default;
  PlanResolution& operator=(PlanResolution&&) = default;

  /// Entry for a leaf of the resolved model; nullptr for unknown layers.
  const ResolvedLayerPlan* find(const Layer& leaf) const;

  /// All entries in depth-first model order.
  const std::vector<ResolvedLayerPlan>& entries() const { return entries_; }

  /// True when at least one entry carries a per-layer GE fit.
  bool has_fits() const { return fits_.num_paths() > 0; }

  /// The per-layer fits (inspection / reporting).
  const ge::FitRegistry& fits() const { return fits_; }

  /// Throw unless every leaf can execute a kQuantApprox pass without a
  /// context-wide fallback table: each entry needs a plan multiplier or an
  /// exact/float mode override. Call before running a plan-only context.
  void require_approximable() const;

  /// Throw unless every entry's plan bit-widths match the widths its leaf is
  /// currently quantized with. A plan asking for other widths would silently
  /// run with steps calibrated for the current widths, so a mismatch is an
  /// error, not a degradation: apply_bit_widths + recalibrate first. Both
  /// the Workbench (which calibrates once) and the serving engine (which
  /// admits tenant plans against already-calibrated weights) gate on this.
  void require_bit_widths() const;

private:
  friend class NetPlan;

  std::vector<ResolvedLayerPlan> entries_;
  std::unordered_map<const Layer*, const ResolvedLayerPlan*> by_layer_;
  std::map<std::string, approx::SignedMulTable> tables_;  ///< by multiplier id
  std::map<std::string, std::unique_ptr<axmul::Adder>> adders_;  ///< by adder id
  ge::FitRegistry fits_;
};

/// A uniform default plan plus path-keyed overrides.
class NetPlan {
public:
  NetPlan() = default;
  explicit NetPlan(LayerPlan uniform) : uniform_(std::move(uniform)) {}

  LayerPlan& uniform() { return uniform_; }
  const LayerPlan& uniform() const { return uniform_; }

  /// Override the plan for every leaf whose path equals `path` or starts
  /// with `path` + "/". The longest matching override wins; keys that match
  /// no leaf make resolve()/apply_bit_widths() throw (typo protection).
  NetPlan& set(std::string path, LayerPlan plan);

  const std::map<std::string, LayerPlan>& overrides() const { return overrides_; }

  /// The plan entry a leaf path resolves to (uniform when no override
  /// matches).
  const LayerPlan& match(const std::string& path) const;

  /// Text form: "default=<spec>; <path>=<spec>; ..." where <spec> is
  /// <multiplier>[:wN][:aN][:add=<adder>][:noge][:mode=float|exact|approx].
  /// parse(to_string()) round-trips.
  static NetPlan parse(const std::string& text);
  std::string to_string() const;

  /// Apply each leaf's plan bit-widths via set_bit_widths (invalidates the
  /// leaves' calibration; recalibrate afterwards). Throws on unmatched
  /// override keys.
  void apply_bit_widths(Layer& root) const;

  /// Materialize this plan against `root`: build tables/adders from the
  /// registry, optionally fit per-layer GE error functions, and index every
  /// leaf. Throws on unknown registry ids, unmatched override keys, or a
  /// kCalibrate mode override.
  PlanResolution resolve(Layer& root, const ResolveOptions& opt = {}) const;

private:
  LayerPlan uniform_;
  std::map<std::string, LayerPlan> overrides_;
};

/// Effective execution parameters of one conv/FC leaf under a context.
struct LeafExec {
  ExecMode mode = ExecMode::kFloat;
  const approx::SignedMulTable* mul = nullptr;
  const ge::ErrorFit* fit = nullptr;
  const axmul::Adder* adder = nullptr;
};

/// Resolve what a leaf should execute: the context fields, overridden by the
/// leaf's plan entry when ctx.plan is set and knows the leaf. Plan mode
/// overrides apply only in quantized passes (FP/calibrate passes ignore
/// plans entirely); per-layer GE fits apply only to training contexts,
/// mirroring the uniform flow where only the student context carries a fit.
/// A leaf that resolves to any mode but kQuantApprox gets no table, adder or
/// fit: a kQuantExact leaf multiplies exactly.
LeafExec plan_leaf_exec(const ExecContext& ctx, const Layer& leaf);

}  // namespace axnn::nn
