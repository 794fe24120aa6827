// axnn — automated per-layer multiplier search (DESIGN.md §5j).
//
// Closes the loop the paper leaves open: PR 3 made heterogeneous plans
// *expressible* (NetPlan per-layer overrides), this module makes them
// *discoverable*. Given a stage-1 (quantized, fine-tuned) Workbench, the
// search explores the multiplier registry × bit-width space per layer and
// emits a Pareto front of accuracy-vs-energy plans as a QoS ladder that
// qos::parse_points / `axnn_cli serve --qos` consume unmodified.
//
// Three stages, in the spirit of FAMES (arXiv 2411.18055) with the cheap
// architectural error proxy of arXiv 2408.12836:
//
//   1. sensitivity profiling — per (layer, candidate) proxies combining the
//      layer's MAC share and accumulation length, the candidate's measured
//      MRE, the GE error fit magnitude at the layer's shape (FitRegistry),
//      and observed quantizer clip rates (obs telemetry); calibrated
//      against reality with a few one-shot holdout-delta probes.
//   2. search driver — greedy downgrade in sensitivity order under a series
//      of energy budgets, local pairwise-swap refinement, and an optional
//      seeded evolutionary pass; accuracy is *measured* on the holdout for
//      every emitted plan, estimates only steer the combinatorial part.
//   3. Pareto emission — the non-dominated measured plans (uniform
//      baselines included, so the front weakly dominates every uniform by
//      construction), serialized through core::plan_io.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "axnn/core/pipeline.hpp"
#include "axnn/data/dataset.hpp"
#include "axnn/ge/fit_registry.hpp"
#include "axnn/nn/sequential.hpp"
#include "axnn/obs/json.hpp"
#include "axnn/quant/quantizer.hpp"

namespace axnn::search {

/// Everything one search run needs — designated-initializer style, like
/// core::ApproxStageSetup / serve::ModelSpec, so searches are drivable from
/// C++ and tests without string argv.
struct SearchSpec {
  /// Candidate multiplier registry ids. Empty = {trunc2..trunc5}.
  std::vector<std::string> multipliers{};
  /// Extra (weight_bits, activation_bits) pairs to search per layer beyond
  /// the calibrated widths. Every width pair other than the calibrated one
  /// costs a clone + recalibration per distinct width signature, and plans
  /// using them cannot be served against weights calibrated at the default
  /// widths — leave empty (the default) for servable ladders.
  std::vector<std::pair<int, int>> widths{};
  /// Drop emitted points with holdout accuracy below this ([0,1]; 0 = off).
  double accuracy_floor = 0.0;
  /// Drop emitted points with modeled energy per sample above this
  /// (estimate_mixed units; 0 = off).
  double energy_cap = 0.0;
  /// Total holdout-evaluation budget (baseline + uniforms + probes + final
  /// candidates). The search never runs more evaluations than this.
  int budget_evals = 32;
  /// Holdout size: the tail of the test split (disjoint from the head
  /// samples used for MAC/clip profiling), same convention as serve::Engine.
  int holdout = 96;
  /// Seed for the evolutionary pass; a fixed seed makes the whole search
  /// deterministic (tested).
  uint64_t seed = 0x5EA12C4;
  /// Pairwise-swap refinement rounds after each greedy assignment.
  int swap_rounds = 2;
  /// Evolutionary generations per energy budget (0 = greedy + swap only).
  int evolution_generations = 0;
  int population = 12;  ///< evolutionary population size
  /// Maximum emitted ladder points (<= plan_io::kMaxLadderPoints). The
  /// thinning is dominance-safe: every uniform baseline stays weakly
  /// dominated by some emitted point.
  int max_points = 8;
  bool verbose = false;
};

/// One per-layer assignment option: a multiplier (empty = exact mode) at a
/// bit-width pair.
struct Candidate {
  std::string multiplier{};
  int weight_bits = quant::kWeightBits;
  int activation_bits = quant::kActivationBits;

  bool exact() const { return multiplier.empty(); }
};

/// Per-layer profile: the facts the proxy combines, reported for
/// inspection (`sensitivity` in the JSON report).
struct LayerSensitivity {
  std::string path;
  int64_t dot_length = 0;  ///< accumulation length (Monte-Carlo shape)
  int64_t macs = 0;        ///< MACs per sample (profiled forward)
  double mac_share = 0.0;  ///< fraction of network MACs
  double clip_rate = 0.0;  ///< observed quantizer clip rate, [0,1]
  double max_proxy = 0.0;  ///< worst-case candidate proxy (ranking key)
};

/// The profiled proxy model: layers plus a proxy value per
/// (layer, candidate) pair. proxy[i][c] estimates the accuracy loss of
/// moving layer i (alone) to candidate c; 0 for exact candidates.
struct SensitivityModel {
  std::vector<LayerSensitivity> layers;
  std::vector<std::vector<double>> proxy;
};

/// Profile `model` (stage-1 weights, calibrated): one instrumented forward
/// of `sample` collects per-layer MAC counts and clip rates; FitRegistry
/// supplies a GE error fit per (candidate, accumulation length). `sample`
/// should be a few head samples of the test split — the holdout tail must
/// stay unseen. Throws std::invalid_argument on an empty sample or
/// candidate list.
SensitivityModel profile_sensitivity(nn::Sequential& model, const data::Dataset& sample,
                                     const std::vector<Candidate>& candidates,
                                     ge::FitRegistry& fits);

/// One measured point of the search: a concrete plan with its holdout
/// accuracy and modeled energy.
struct SearchPoint {
  std::string name;       ///< ladder point name (front points only)
  std::string plan_text;  ///< NetPlan text (parseable, servable)
  double holdout_acc = 0.0;
  double energy_per_sample = 0.0;  ///< estimate_mixed units (1.0/exact MAC)
  double energy_savings_pct = 0.0;
  bool uniform = false;  ///< a uniform single-multiplier baseline

  obs::Json to_json() const;
};

struct SearchResult {
  double baseline_acc = 0.0;  ///< all-exact plan on the same holdout
  double exact_energy = 0.0;  ///< all-exact energy per sample (= MACs)
  int evals_used = 0;         ///< holdout evaluations actually run
  std::vector<LayerSensitivity> sensitivity;
  /// Non-dominated measured plans, best accuracy first (ladder order).
  std::vector<SearchPoint> front;
  /// Measured uniform baselines (one per candidate multiplier at the
  /// calibrated widths) — each is weakly dominated by some front point.
  std::vector<SearchPoint> uniform_baselines;

  /// The front as a QoS ladder ("point <name> = <plan>" lines) via
  /// core::plan_io — loads unmodified through qos::parse_points and
  /// `axnn_cli serve --qos`.
  std::string to_ladder_text() const;
  obs::Json to_json() const;
};

/// Run the search against `wb`'s stage-1 model (run_quantization_stage
/// first; throws std::logic_error otherwise). The Workbench itself is
/// never mutated — evaluation happens on clones.
SearchResult run_search(core::Workbench& wb, const SearchSpec& spec);

}  // namespace axnn::search
