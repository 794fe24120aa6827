// axnn — runtime fault detection and graceful degradation (DESIGN.md §5f).
//
// The sentinel is a nn::ForwardMonitor that watches every quantized GEMM
// leaf for silent data corruption — the faults the resilience subsystem can
// plant (stuck-at LUT entries, weight bit flips, corrupted inter-layer
// activations) and real deployments fear. Two detectors:
//
//   * An exact table checksum (ABFT moved through the multiplier table).
//     Weights are frozen while serving and every kernel sums the same int32
//     LUT terms, so for C[M,N] = W ·~ X each column satisfies
//       Σ_m C[m,n] = Σ_k S_k(X[k,n]),  S_k(a) = Σ_{m: W[m,k]≠0} T(W[m,k], a)
//     exactly, where W are the golden weights captured at calibration and T
//     is the registry-pristine table. Any difference is a violation: a
//     corrupted LUT entry and a corrupted weight operand both break it.
//     The right-hand side is a kernels::GemmChecksum built at calibration
//     and evaluated by kernels::table_checksum: one closed-form row per
//     ≤ 16 golden rows for exact and truncated tables, 256-entry rows S_k
//     for every other table. Under a closed form, a GEMM whose X has no
//     negative byte (every leaf fed by a ReLU) is checked the other way,
//     each row satisfying
//       Σ_n C[m,n] = Σ_k Σ_j c_j(W[m,k])·V_kj,  V_kj = Σ_n Y_j(X[k,n])
//     (kernels::row_checksum: M sums instead of N, from one pass over the
//     plane or the columns). With a ≥ 0 the product never decreases in the
//     weight, so one weight or table-entry fault cannot cancel in a row
//     sum; signed X and LUT tables keep the column check. An exact GEMM
//     (kQuantExact leaves,
//     `mode=exact` plan entries, leaves forced exact) checks against the
//     closed-form checksum under the exact table. The sentinel takes
//     ForwardMonitor's plane hook: a conv that ran its GEMM from its padded
//     int8 plane, exact or approximate, is checked, and repaired, from that
//     plane, and lowers no columns for it. Every checksum reads 4-bit
//     weight operands, so calibration rejects wider weights.
//   * Activation range guards (Ranger-style). Each leaf's pre-quantization
//     inputs are checked against the bound and clip statistics the
//     quantizer's RangeObserver gathered during calibration, on |x|'s bit
//     patterns: NaN and ±inf always violate.
//
// Reaction is the DegradationPolicy: a violated GEMM is re-executed with the
// golden weights — by default through a pristine multiplier table rebuilt
// from the registry, restoring the clean *approximate* result the
// fine-tuned model expects (see DegradationPolicy::RepairMode for why exact
// arithmetic is the wrong repair target there). A leaf that keeps violating
// is degraded: under kGoldenTable every later pass recomputes from golden
// state; under kExact force_exact() starts returning true, so the leaf runs
// exact products and every later pass is still checked (and repaired from
// the golden weights). Every detection lands in obs
// events/metrics and in the structured SentinelReport.
//
// Thread safety: calibrate once, then concurrent forward passes may share
// one sentinel (counters and degradation flags are mutex-guarded;
// calibration state is read-only after calibrate). Calibrate against the
// weights the model will serve — fine-tuning invalidates the checksums.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "axnn/kernels/checksum.hpp"
#include "axnn/kernels/signed_lut.hpp"
#include "axnn/nn/monitor.hpp"
#include "axnn/nn/plan.hpp"

namespace axnn::sentinel {

/// What to do about detected violations. A violated GEMM is always
/// re-executed with the golden weights; `repair` picks the kernel.
struct DegradationPolicy {
  /// What a repair re-executes with.
  ///
  ///   * kGoldenTable (default): golden weights + a pristine copy of the
  ///     leaf's multiplier table rebuilt from the registry — restores the
  ///     *clean approximate* result bit-for-bit. This is the right target
  ///     for a model fine-tuned under the approximate multiplier: its
  ///     weights have adapted to the multiplier's systematic bias, and
  ///     exact arithmetic would re-introduce that bias with the opposite
  ///     sign (bench_sentinel_coverage measures a trunc5-fine-tuned
  ///     ResNet20 at ~25% accuracy under the exact multiplier vs ~88%
  ///     under clean trunc5).
  ///   * kExact: golden weights through the pristine exact table; on
  ///     degradation the leaf is forced to exact execution (force_exact) in
  ///     uniform and plan runs
  ///     alike. Right for models that were never fine-tuned under the
  ///     approximate multiplier, where exact execution is the gold standard.
  enum class RepairMode { kGoldenTable, kExact };
  RepairMode repair = RepairMode::kGoldenTable;
  /// Checksum violations at one leaf before it is degraded permanently:
  /// kGoldenTable then recomputes every pass from golden state; kExact
  /// forces exact execution. <= 0 degrades on the first violation.
  int degrade_after = 3;
};

struct SentinelConfig {
  /// Ranger-style activation range guards at each leaf input.
  bool range_guard = true;
  DegradationPolicy policy;
};

/// Per-leaf detection statistics (one row of the SentinelReport).
struct LeafStats {
  std::string path;
  int64_t gemm_checks = 0;       ///< integer GEMM groups verified
  int64_t range_checks = 0;      ///< leaf inputs scanned
  int64_t abft_violations = 0;   ///< row or column checksum mismatches (LUT or weight faults)
  int64_t range_violations = 0;  ///< inputs beyond range/clip bounds
  int64_t reexecs = 0;           ///< GEMMs repaired by re-execution
  bool degraded = false;         ///< permanently repaired / forced exact
};

struct SentinelReport {
  std::vector<LeafStats> leaves;

  int64_t total_checks() const;
  int64_t total_violations() const;  ///< abft + range
  int64_t total_reexecs() const;
  int64_t degraded_leaves() const;
  /// Violations per check over both detector families — the false-positive
  /// rate when the run is known fault-free.
  double violation_rate() const;
  /// One line: "3 leaves, 12 violations (8 abft/4 range), 8 re-execs, 1
  /// degraded".
  std::string summary() const;

  /// Fold another report in: counters add per path (matched by path, order
  /// preserved; unknown paths append), degraded flags OR. The serving
  /// engine merges its per-lane sentinels with this.
  void merge(const SentinelReport& other);
};

class Sentinel final : public nn::ForwardMonitor {
public:
  explicit Sentinel(SentinelConfig cfg = {});

  /// Calibrate for a uniform run: every leaf executes the registry
  /// multiplier `mul_id`. Captures golden weights, the checksums built from
  /// them under the registry-pristine table and the exact one, and
  /// activation bounds for every calibrated conv/FC leaf of `root`. Throws
  /// std::logic_error naming an uncalibrated leaf or one whose weights
  /// are wider than 4 bits.
  void calibrate_uniform(nn::Layer& root, const std::string& mul_id);

  /// Calibrate for a heterogeneous run over the resolution's leaves:
  /// per-leaf multipliers come from the resolution (leaves with exact/float
  /// mode overrides get exact-path state only). The resolution is not
  /// retained.
  void calibrate_plan(const nn::PlanResolution& resolution);

  // nn::ForwardMonitor:
  bool force_exact(const nn::Layer& leaf) override;
  void on_leaf_input(const nn::Layer& leaf, const Tensor& x) override;
  bool on_leaf_gemm(const nn::Layer& leaf, int64_t group, bool approx, const int8_t* w,
                    const int8_t* x, int32_t* c, int64_t m, int64_t k, int64_t n,
                    const approx::SignedMulTable* tab) override;
  /// The sentinel checks a plane conv from its plane: no columns lowered.
  bool takes_planes() const override { return true; }
  bool on_leaf_plane_gemm(const nn::Layer& leaf, bool approx, const int8_t* w,
                          const kernels::ConvPlane& x, int32_t* c, int64_t m, int64_t k,
                          int64_t n, const approx::SignedMulTable* tab) override;

  /// Snapshot of the per-leaf statistics (depth-first model order).
  SentinelReport report() const;

  /// report().total_violations() without the snapshot: the counters summed
  /// under the lock, nothing copied.
  int64_t total_violations() const;

  /// Zero every counter and degradation flag, keeping the calibration.
  /// (Measure false positives on a clean run, then reuse the sentinel.)
  void reset_counters();

private:
  struct LeafState {
    std::string path;
    int64_t index = 0;          ///< depth-first position (report order)
    /// Range guard bounds as bit patterns of |x| (which order like the
    /// values): kRangeScale × the calibrated max |x|, capped at the largest
    /// finite float, and the activation quantization range.
    uint32_t bound_bits = 0;
    uint32_t qrange_bits = 0;
    double clip_limit = 0.0;    ///< tolerated clip rate
    int64_t groups = 0, rows = 0, cols = 0;  ///< one group's GEMM is [rows, cols]
    TensorI8 golden_w;          ///< quantized weights at calibration
    /// Checksums of the golden weights: under the exact table (exact GEMMs),
    /// and under the pristine table (approximate GEMMs; empty for
    /// exact-mode leaves).
    std::optional<kernels::GemmChecksum> exact_checksum, checksum;
    /// Pristine multiplier table rebuilt from the registry at calibration
    /// (kGoldenTable repairs); null for exact-mode leaves.
    const approx::SignedMulTable* golden_tab = nullptr;
    LeafStats stats;
    int events_emitted = 0;     ///< obs event cap per leaf
  };

  /// A checked GEMM's X: dense columns, or the conv plane they lower from.
  struct Operand {
    const int8_t* cols;
    const kernels::ConvPlane* plane;
  };

  void calibrate_leaf(const nn::GemmLeaf& leaf, const std::string* mul_id);
  bool check(const nn::Layer& leaf, int64_t group, bool approx, const Operand& x, int32_t* c,
             int64_t m, int64_t k, int64_t n);
  void repair(const LeafState& st, int64_t group, bool approx, const Operand& x, int32_t* c,
              int64_t n) const;
  void record_violation(LeafState& st, const char* kind, double deviation, double tolerance);
  void maybe_degrade(LeafState& st);
  const approx::SignedMulTable* golden_table_for(const std::string& mul_id);

  SentinelConfig cfg_;
  std::unordered_map<const nn::Layer*, LeafState> leaves_;
  /// Registry-pristine tables shared by leaves, keyed by multiplier id.
  std::map<std::string, approx::SignedMulTable> golden_tabs_;
  /// golden_tabs_'s "exact": exact checksums and kExact repairs.
  const approx::SignedMulTable* exact_tab_ = nullptr;
  mutable std::mutex mu_;
};

}  // namespace axnn::sentinel
