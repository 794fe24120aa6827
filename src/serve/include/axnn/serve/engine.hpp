// axnn — batched multi-tenant serving runtime (DESIGN.md §5g, §5k).
//
// The serving engine is the one supported way to run inference with this
// library. Everything the lower layers expose piecemeal — Workbench training
// and calibration, NetPlan resolution, FitRegistry, sentinel calibration,
// obs telemetry — is sequenced behind a single entry point:
//
//   auto engine  = serve::Engine::load(spec);          // train/calibrate once
//   auto& tenant = engine->open_session("t1", plan);   // per-tenant plan
//   auto ticket  = tenant.submit(image);               // enqueue one request
//   auto result  = tenant.await(ticket);               // logits + latency
//
// Architecture:
//
//   * One Engine owns the trained model and N execution *lanes* — clone()d
//     model replicas, each driven by its own worker thread. Served forwards
//     keep no backward caches, but each conv/FC leaf still holds per-forward
//     members (geometry, MAC count, its plan memo), so a model instance is
//     single-flight; lanes are how the engine runs batches concurrently
//     without racing those members. ThreadPool::plan_split still sizes the intra-op pool, but the
//     requested lane count is honored even beyond the core count: lane
//     workers mostly wait, and lifecycle robustness (quarantine with
//     re-dispatch) needs real spare lanes more than it needs perfect
//     core-to-lane packing.
//   * A Session is one tenant: a NetPlan resolved against every lane
//     (multipliers, adders, bit-width checks, optional sentinel) over the
//     *shared* weights. Tenants differ only in plans — loading the model
//     once serves any number of approximation contracts.
//   * Requests from all sessions share one preallocated slot pool. submit()
//     copies the image into a free slot and links it into the session's
//     ring; after warmup the submit path performs no heap allocation
//     (asserted by test_serve). The dispatcher thread coalesces pending
//     slots into batches of up to `max_batch`, flushing early when the
//     oldest request's delay budget (`max_delay_us`) or explicit deadline
//     expires, and hands each batch to an idle healthy lane.
//
// Batching is bit-transparent: a request's logits are identical to a
// single-sample forward of the same image under the session's context, on
// both the exact and approximate paths (per-sample im2col columns and
// eval-mode BatchNorm make batch composition invisible).
//
// QoS (DESIGN.md §5h): when ModelSpec::qos_points names an operating-point
// ladder, every session opened with an empty plan serves the whole ladder —
// one resolved plan per (point, lane) over the same weights — and a
// qos::Governor moves the session's *active point* under load, energy,
// sentinel-health or lane-quarantine pressure. The swap is an epoch flip:
// the dispatcher stamps the active point into each batch when it gathers
// it, so a batch executes entirely under one point and every Result reports
// the point it ran under.
//
// Lifecycle robustness (DESIGN.md §5k): every submit resolves — to
// Outcome::kServed, kShed (admission policy under a full pool), kRejected
// (expired or infeasible deadline), or a per-request failure rethrown by
// await — never an engine-wide poisoning. A Watchdog quarantines lanes that
// blow their batch budget, fault, or accumulate sentinel-violation strikes;
// their in-flight batch is re-queued (bounded retries) and re-run on a
// healthy lane while golden-input probation probes decide readmission.
// reload() swaps weights / plans / the QoS ladder behind a dispatch pause
// with zero failed in-flight requests, and a CheckpointSet rotation
// (ModelSpec::checkpoint_dir) keeps crash-safe AXNP generations to reload
// from.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "axnn/core/pipeline.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/qos/governor.hpp"
#include "axnn/resilience/checkpoint.hpp"
#include "axnn/sentinel/sentinel.hpp"
#include "axnn/serve/admission.hpp"
#include "axnn/serve/watchdog.hpp"
#include "axnn/tensor/threadpool.hpp"

namespace axnn::serve {

/// Micro-batcher knobs.
struct BatchingConfig {
  /// Largest batch one dispatch executes; a full queue flushes immediately.
  int max_batch = 8;
  /// Delay budget of a partial batch: the dispatcher flushes whatever is
  /// pending once the oldest request has waited this long.
  int64_t max_delay_us = 2000;
  /// Slots in the shared request pool. What happens when every slot is in
  /// flight is the admission policy's call (block / shed). Must be
  /// >= max_batch.
  int queue_capacity = 64;
};

/// Everything Engine::load needs: which model to bring up, how to train /
/// restore it, and how to serve it.
struct ModelSpec {
  core::ModelKind model = core::ModelKind::kResNet20;
  core::BenchProfile profile;
  uint64_t data_seed = 0x51CA7;
  uint64_t model_seed = 42;
  bool use_cache = true;
  bool verbose = false;

  /// Default-session plan (NetPlan grammar, e.g. "default=trunc5").
  std::string plan = "default=trunc5";
  /// Run the approximation-stage fine-tuning for `plan` before serving
  /// (method/t2 below). Off = serve the stage-1 quantized weights directly.
  bool finetune = false;
  train::Method method = train::Method::kApproxKD_GE;
  float t2 = 5.0f;
  /// Distill stage 1 from the FP teacher (Workbench use_kd).
  bool kd_stage1 = true;

  /// Calibrate a sentinel per (lane, session) and attach it to every
  /// forward, so served traffic runs under fault detection.
  bool sentinel = false;
  sentinel::SentinelConfig sentinel_config;

  /// QoS operating-point ladder (qos::parse_points format). Non-empty turns
  /// the engine into a multi-point deployment: sessions opened with an empty
  /// plan serve the ladder under a governor, `plan` is ignored for them, and
  /// finetune (if on) tunes for point 0's plan. Empty = single-plan serving.
  std::string qos_points;
  qos::GovernorConfig governor;
  /// Holdout samples per point for the measured-accuracy metadata (taken
  /// from the tail of the test split; clamped to its size; 0 = skip).
  int64_t qos_holdout = 96;
  /// Timed single-sample forwards per point for the latency estimate (also
  /// the source of the admission service floor and the watchdog budget).
  int qos_latency_probes = 4;

  BatchingConfig batching;
  /// Concurrent batch lanes — each is one model replica with its own worker
  /// thread. Honored as requested (lanes beyond the core count timeshare);
  /// plan_split still sizes the intra-op conv pool from this hint.
  int lanes = 1;

  /// Pool-full / infeasible-deadline behavior (runtime-mutable via
  /// Engine::set_admission).
  AdmissionConfig admission;
  /// Straggler / fault quarantine and probation (runtime-mutable via
  /// Engine::set_watchdog).
  WatchdogConfig watchdog;

  /// Non-empty = keep crash-safe AXNP checkpoint generations of the served
  /// weights in this directory (rotation: checkpoint_keep newest, CRC
  /// verified on load with fallback to older generations). Engine::load
  /// writes the first generation; reload({.from_checkpoint = true}) restores
  /// the newest loadable one.
  std::string checkpoint_dir;
  int checkpoint_keep = 3;

  /// Pre-warm the kernel plan cache at load: forward one zero batch of every
  /// size in [1, max_batch] through each (lane, operating point) before the
  /// dispatcher starts, so every GEMM shape served traffic can produce has
  /// its prepared plan resolved into the per-leaf memos. The global
  /// PlanCache's capacity is raised, if needed, to hold every plan the
  /// warm-up touched. Steady-state forwards then never take the plan-cache
  /// mutex, never build a plan, and never allocate. Off = plans build lazily
  /// on first use.
  bool prewarm = true;
};

/// What Engine::reload swaps. Empty/false fields keep the current value;
/// everything is validated and staged *before* the dispatch pause, so a bad
/// reload throws without disturbing serving.
struct ReloadSpec {
  /// AXNP file to load into every lane ("" = keep current weights).
  std::string weights;
  /// Restore weights from the newest loadable checkpoint generation
  /// (requires ModelSpec::checkpoint_dir; mutually exclusive with
  /// `weights`).
  bool from_checkpoint = false;
  /// Replacement operating-point ladder (qos::parse_points format; "" =
  /// keep). Only legal on engines loaded with a ladder.
  std::string qos_points;
  /// Replacement plan for the single-plan default session ("" = keep).
  /// Ignored for ladder-serving default sessions.
  std::string plan;
  /// Re-measure ladder point metadata (holdout accuracy / energy / latency)
  /// after the swap. Automatic whenever weights or the ladder changed.
  bool remeasure = false;
};

/// How a request resolved. Shed and rejected are *outcomes*, not failures:
/// await() returns normally with an empty-logits Result so callers can tell
/// load shedding from a crashed batch (which rethrows).
enum class Outcome : int8_t {
  kServed = 0,   ///< executed; logits/top1/latency are real
  kShed = 1,     ///< dropped by admission policy under a full pool
  kRejected = 2, ///< refused at submit: expired or infeasible deadline
};

const char* to_string(Outcome o);

/// Handle for one submitted request. Move-free POD; await()ing a pooled
/// ticket twice throws (the slot is recycled on the first await). Shed /
/// rejected submits resolve instantly: their outcome rides in the ticket
/// itself and never consumes a slot.
struct Ticket {
  int slot = -1;
  uint64_t seq = 0;
  /// Instant resolution: -1 = pooled request, otherwise the Outcome the
  /// request resolved to at submit time.
  int8_t instant = -1;
};

/// Completed request.
struct Result {
  Outcome outcome = Outcome::kServed;
  Tensor logits;          ///< [num_classes]; empty unless kServed
  int top1 = -1;
  double latency_ms = 0;  ///< slot acquisition -> batch completion
  int batch_size = 0;     ///< size of the batch this request rode in
  bool deadline_met = true;
  /// Operating point the request's batch executed under (0 for single-plan
  /// sessions) — the reference for per-response bit-identity checks.
  int point = 0;
  std::string point_name;
};

/// Aggregate dispatcher counters (monotonic since load; every counter is an
/// atomic, so stats() is safe against the dispatcher and lane workers
/// without taking the dispatch lock).
struct EngineStats {
  int64_t requests = 0;       ///< completed (served) requests
  int64_t batches = 0;        ///< forward dispatches
  int64_t flush_full = 0;     ///< batches flushed because max_batch was hit
  int64_t flush_timer = 0;    ///< batches flushed by delay budget / deadline
  int64_t max_batch = 0;      ///< largest batch executed
  double mean_batch = 0.0;
  int64_t deadline_misses = 0;
  int64_t queue_full_waits = 0;  ///< submits that blocked on a full pool
  int64_t qos_transitions = 0;   ///< governor + manual point moves, all sessions
  // Lifecycle (DESIGN.md §5k):
  int64_t shed = 0;               ///< requests shed by admission policy
  int64_t rejected = 0;           ///< submits rejected (expired/infeasible deadline)
  int64_t failed_requests = 0;    ///< requests failed back to await() after retries
  int64_t quarantines = 0;        ///< lane quarantine events
  int64_t readmissions = 0;       ///< lanes readmitted after probation
  int64_t lanes_quarantined = 0;  ///< current gauge
  int64_t requeued_batches = 0;   ///< abandoned/faulted batches re-dispatched
  int64_t discarded_batches = 0;  ///< straggler results thrown away post-abandon
  int64_t probes = 0;             ///< probation probes executed
  int64_t reloads = 0;            ///< completed reload() calls
};

class Engine;

/// One tenant of an Engine: a resolved plan (and optional sentinel) per
/// lane over the shared weights. Sessions are created by open_session and
/// owned by the engine; handles stay valid until the engine is destroyed or
/// the session is close_session()ed. submit/await are thread-safe and may
/// be called from any thread.
class Session {
public:
  const std::string& name() const { return name_; }
  const std::string& plan_text() const { return plan_text_; }

  /// Enqueue one [C,H,W] (or [1,C,H,W]) image. `deadline_us` bounds how
  /// long the request may wait for batch-mates (0 = none): the dispatcher
  /// flushes a partial batch rather than let it expire in the queue. A
  /// *negative* deadline is already expired and resolves instantly as a
  /// rejected deadline miss without consuming a slot; an infeasible one is
  /// rejected when the admission config says so. Under a full pool the
  /// admission policy decides between blocking and shedding. Allocation-free
  /// after warmup.
  Ticket submit(const Tensor& chw, int64_t deadline_us = 0);

  /// Block until the request completes, return its result and recycle the
  /// slot. Shed/rejected tickets return instantly with the matching
  /// Outcome; a request whose batch kept failing past the retry budget
  /// rethrows that batch's error. A stale/duplicate pooled ticket throws
  /// std::logic_error.
  Result await(const Ticket& t);

  /// The exec context lane `lane` serves this session with under the
  /// *currently active* point — the reference for bit-identity checks
  /// against direct model forwards. The two-argument form addresses a
  /// specific ladder point (a Result's `point` field). Do not call
  /// concurrently with Engine::reload (the contexts are rebuilt).
  const nn::ExecContext& exec_context(int lane = 0) const;
  const nn::ExecContext& exec_context(int lane, int point) const;

  /// Operating-point surface. Single-plan sessions have exactly one point
  /// (index 0, named after the session); ladder sessions mirror the
  /// engine's operating-point set and are driven by the governor.
  int num_points() const { return static_cast<int>(points_.size()); }
  const std::string& point_name(int point) const;
  int active_point() const;
  /// Manual epoch flip (CLI / tests): in-flight batches finish under the
  /// point they were gathered with; later batches use `point`. Recorded as
  /// a kManual transition. Throws std::out_of_range on a bad index and
  /// std::logic_error on ungoverned (single-point) sessions.
  void set_active_point(int point);
  bool governed() const { return governor_ != nullptr; }
  /// Snapshot of this session's transitions (governor + manual).
  std::vector<qos::Transition> transitions() const;

  /// Merged sentinel report across lanes and points (empty when the engine
  /// was loaded without sentinel).
  sentinel::SentinelReport sentinel_report() const;

private:
  friend class Engine;
  Session() = default;

  /// Per-(point, lane) serving state; PlanResolution/Sentinel are
  /// unique_ptr-held for address stability (contexts and sentinels point
  /// into them).
  struct Lane {
    std::unique_ptr<nn::PlanResolution> resolution;
    std::unique_ptr<sentinel::Sentinel> sentinel;
    nn::ExecContext ctx;
    /// Sentinel violation total at the last batch finish on this (point,
    /// lane) — the watchdog's strike detector works on deltas.
    int64_t last_violations = 0;
  };

  Engine* engine_ = nullptr;
  std::string name_;
  std::string plan_text_;
  bool ladder_ = false;  ///< serves the engine's qos ladder
  std::vector<std::string> point_names_;
  std::vector<std::vector<Lane>> points_;  ///< [point][lane]
  std::unique_ptr<qos::Governor> governor_;
  /// Pending slot indices, fixed ring of queue_capacity entries (guarded by
  /// the engine mutex).
  std::vector<int> ring_;
  int ring_head_ = 0;
  int ring_count_ = 0;
  /// Slots currently owned by this session (pending + in flight + done but
  /// unawaited); close_session waits for it to reach zero.
  int live_slots_ = 0;
  bool closing_ = false;  ///< close_session in progress: submits throw

  // --- QoS state, all guarded by the engine mutex ---
  int active_point_ = 0;
  std::vector<int64_t> requests_per_point_;
  /// Completed-request latency window the governor computes p95 over.
  std::array<double, 128> lat_win_{};
  int lat_count_ = 0;
  int lat_idx_ = 0;
  double energy_accum_ = 0.0;       ///< estimated units served so far
  double last_energy_accum_ = 0.0;  ///< snapshot at the previous tick
  int64_t last_queue_full_waits_ = 0;
  int64_t last_sent_checks_ = 0;
  int64_t last_sent_violations_ = 0;
  int64_t last_sent_degraded_ = 0;
};

/// The serving runtime. load() is the only way to construct one.
class Engine {
public:
  static std::unique_ptr<Engine> load(ModelSpec spec);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const ModelSpec& spec() const { return spec_; }
  int lanes() const { return static_cast<int>(lanes_.size()); }
  int num_classes() const { return num_classes_; }

  /// The session created from spec.plan at load time.
  Session& session() { return *sessions_.front(); }

  /// Create a tenant serving `plan_text`. Resolves the plan against every
  /// lane (throws on unknown multipliers, unmatched paths, bit-width
  /// mismatches or non-approximable leaves; errors name the failing lane,
  /// point and stage) and, when the engine runs with sentinel, calibrates a
  /// per-lane sentinel for it. Duplicate names throw. An empty `plan_text`
  /// serves the engine default: the governed qos ladder when
  /// spec.qos_points is set, spec.plan otherwise.
  Session& open_session(const std::string& name, const std::string& plan_text);

  /// Gracefully close a tenant: new submits throw, every already-accepted
  /// request still executes (or sheds) and must be await()ed, then the
  /// session is destroyed and its name becomes reusable. Blocks until the
  /// session owns no slots — callers holding unawaited tickets must await
  /// them or close blocks forever. The "default" session cannot be closed.
  void close_session(const std::string& name);

  /// True when the engine serves a qos operating-point ladder.
  bool qos_enabled() const { return !qos_specs_.empty(); }
  /// The calibrated ladder (empty without qos): measured holdout accuracy,
  /// estimated energy per request, single-sample latency per point.
  const std::vector<qos::OperatingPoint>& operating_points() const { return points_meta_; }
  /// The "qos" report section: ladder metadata + per-session activity.
  qos::QosReport qos_report() const;

  // --- Lifecycle (DESIGN.md §5k) ---

  /// Swap weights / default plan / qos ladder without restarting: stages and
  /// validates everything first (a throw here leaves serving untouched),
  /// then pauses dispatch, waits for in-flight batches to finish under the
  /// old configuration (zero failed in-flight requests), rebuilds every
  /// session's per-point lanes — recalibrating sentinels and re-warming
  /// plans — and resumes. Requests pending in the queue across the pause
  /// execute under the *new* configuration (the same epoch-flip contract as
  /// governor point swaps). Concurrent reloads serialize.
  void reload(const ReloadSpec& r);

  /// Write a new checkpoint generation of the served weights (requires
  /// spec.checkpoint_dir). Returns the path written.
  std::string save_checkpoint();

  /// Runtime admission-policy flip (validated; takes effect on the next
  /// submit).
  void set_admission(const AdmissionConfig& cfg);
  AdmissionConfig admission() const;
  /// Runtime watchdog re-configuration (validated; keeps lane health).
  void set_watchdog(const WatchdogConfig& cfg);
  /// Current health of one lane / healthy-lane count (watchdog view).
  LaneHealth lane_health(int lane) const;
  int healthy_lanes() const;
  /// Calibrated admission service floor (fastest point's probe, ns).
  int64_t service_floor_ns() const;

  /// Install a chaos hook, called by every lane worker as `hook(lane,
  /// lane_batch_index)` right before the batch forward (a throw fails the
  /// batch, a sleep makes the lane a straggler; see chaos.hpp). Install
  /// while no traffic is in flight; pass nullptr to remove.
  void set_chaos(std::function<void(int lane, int64_t lane_batch)> hook);

  /// Block until every submitted request has completed (results may still
  /// be waiting for await()).
  void drain();

  EngineStats stats() const;

  /// Training-side handles, exposed for reference checks and tooling: the
  /// lane model and the dataset the engine was trained on.
  nn::Sequential& model(int lane = 0);
  const data::SyntheticCifar& data() const;

  /// Top-1 accuracy over the test set (up to `max_samples`, 0 = all),
  /// routed through submit/await — i.e. through the real batched serving
  /// path. Matches train::evaluate_accuracy under the session's context.
  double evaluate_accuracy(Session& s, int64_t max_samples = 0);

private:
  friend class Session;

  /// One request slot. input/logits are preallocated at load; submit only
  /// copies into them.
  struct Slot {
    Tensor input;   ///< [C,H,W]
    Tensor logits;  ///< [num_classes]
    Session* session = nullptr;
    int64_t submit_ns = 0;
    int64_t deadline_ns = 0;  ///< absolute; 0 = none
    int64_t flush_ns = 0;     ///< when the dispatcher must flush this slot
    uint64_t seq = 0;         ///< 0 = free/recycled
    bool done = false;
    bool failed = false;
    std::exception_ptr error;  ///< set when failed (rethrown by await)
    Outcome outcome = Outcome::kServed;
    int retries = 0;  ///< abandoned/faulted re-dispatches so far
    /// Abandoned stragglers may still read this slot's input; recycling is
    /// deferred until every pin is released (free_pending).
    int pinned = 0;
    bool free_pending = false;
    int batch_size = 0;
    int top1 = -1;
    double latency_ms = 0;
    bool deadline_met = true;
    int point = 0;  ///< operating point the batch executed under
  };

  /// One ready batch handed to a lane.
  struct BatchWork {
    Session* session = nullptr;
    int lane = -1;
    int count = 0;
    bool timer_flush = false;
    /// The watchdog abandoned this work (budget overrun): its slots were
    /// re-queued elsewhere and its eventual result must be discarded.
    bool abandoned = false;
    /// Active point at gather time — the epoch flip: the batch executes
    /// entirely under this point even if the governor moves mid-flight.
    int point = 0;
    /// Per-lane executed-batch index (the chaos schedule key).
    int64_t lane_batch = 0;
    std::vector<int> slots;  ///< slot indices, preallocated to max_batch
  };

  /// Per-lane execution state (worker thread + assignment mailbox). All
  /// fields except the thread handle are guarded by mu_.
  struct LaneState {
    std::thread worker;
    bool busy = false;            ///< executing a batch or a probe
    bool probe = false;           ///< current assignment is a probation probe
    int64_t busy_since_ns = 0;
    int64_t exec_batches = 0;     ///< batches started (chaos schedule index)
  };

  Engine() = default;

  void dispatcher_loop();
  void lane_loop(int lane);
  /// Gather up to max_batch pending slots of `s` into `work` (engine mutex
  /// held).
  void gather_batch(Session& s, BatchWork& work, int64_t now);
  /// Execute one gathered batch on its lane (no engine mutex held).
  void execute_batch(BatchWork& work);
  void finish_batch(BatchWork& work, const Tensor* logits, std::exception_ptr error);
  /// Watchdog sweep (mutex held): abandon overdue batches, requeue their
  /// slots, schedule probation probes on idle quarantined lanes.
  void watchdog_tick(int64_t now);
  /// Quarantine bookkeeping around watchdog_.quarantine (mutex held).
  void quarantine_lane(int lane, int64_t now, const std::string& reason);
  /// Re-queue `work`'s slots at the *front* of their session ring (mutex
  /// held); slots past the retry budget are failed instead. `pin` defers
  /// slot recycling until the abandoned straggler stops touching them.
  void requeue_work(BatchWork& work, std::exception_ptr error, bool pin, int64_t now);
  void resolve_slot_failed(Slot& slot, std::exception_ptr error, int64_t now);
  /// Shed one *queued* slot (mutex held): removed from its session ring and
  /// resolved done with Outcome::kShed.
  void shed_queued_slot(int idx, int64_t now);
  /// Run one golden-input probation probe on `lane` (no mutex held).
  bool run_probe(int lane);
  /// Release one straggler pin; completes the deferred recycle (mutex held).
  void unpin_slot(int idx);
  /// Recycle an awaited slot into the free ring, honoring pins (mutex held).
  void recycle_slot(int idx);
  /// Sample every governed session's signals and tick its governor (engine
  /// mutex held; called by the dispatcher every governor.tick_interval_ms).
  void governor_tick(int64_t now);
  /// Measure holdout accuracy / energy / latency metadata for every ladder
  /// point on lane 0 (dispatcher paused or not yet started).
  void measure_point_metadata(Session& def);
  /// Derive the admission service floor and watchdog budget from the
  /// calibrated metadata (or a direct probe when ungoverned).
  void calibrate_service_estimates(Session& def);
  /// Capture the golden probe reference (input + per-lane expected logits)
  /// from the current weights.
  void capture_golden(Session& def);
  /// Build per-(point, lane) serving state for `pts` (shared by
  /// open_session and reload; throws with session/point/lane/stage context).
  std::vector<std::vector<Session::Lane>> build_points(
      const std::string& name, const std::vector<qos::OperatingPointSpec>& pts);
  void prewarm_points(const std::vector<std::vector<Session::Lane>>& points);
  void record_transition(Session& s, const qos::Transition& t);
  void emit_lifecycle_event(const char* type, int lane, const std::string& detail);

  ModelSpec spec_;
  std::unique_ptr<core::Workbench> wb_;
  std::vector<std::unique_ptr<nn::Sequential>> lanes_;  ///< model replicas
  std::vector<std::unique_ptr<Session>> sessions_;
  int num_classes_ = 0;
  int64_t chw_ = 0;  ///< input numel per sample

  // QoS ladder (empty without spec.qos_points).
  std::vector<qos::OperatingPointSpec> qos_specs_;
  std::vector<qos::OperatingPoint> points_meta_;
  int64_t t0_ns_ = 0;             ///< load time; report times are relative
  int64_t last_gov_tick_ns_ = 0;  ///< guarded by mu_

  // Lifecycle state.
  AdmissionConfig admission_;            ///< guarded by mu_
  std::unique_ptr<Watchdog> watchdog_;   ///< guarded by mu_
  int64_t service_floor_ns_ = 0;         ///< guarded by mu_
  std::function<void(int, int64_t)> chaos_;  ///< set while idle
  std::unique_ptr<resilience::CheckpointSet> checkpoints_;
  std::mutex reload_mu_;   ///< serializes reload/open_session/close_session
  bool reload_pending_ = false;  ///< dispatch paused for a reload (mu_)
  Tensor golden_input_;    ///< probation probe input (immutable after load)
  Tensor golden_logits_;   ///< expected probe logits (rebuilt by reload)

  mutable std::mutex mu_;
  std::condition_variable cv_dispatch_;  ///< dispatcher wake-up
  std::condition_variable cv_lane_;      ///< lane-worker assignment
  std::condition_variable cv_done_;      ///< request completion
  std::condition_variable cv_free_;      ///< slot freed
  std::vector<Slot> slots_;
  std::vector<int> free_ring_;
  int free_head_ = 0;
  int free_count_ = 0;
  uint64_t next_seq_ = 1;
  int pending_total_ = 0;
  int inflight_ = 0;  ///< batches gathered and not yet finished/abandoned
  bool stop_ = false;

  // Stats: atomics so stats() never races the dispatcher or lane workers
  // (TSan-clean without snapshotting under mu_).
  std::atomic<int64_t> stat_requests_{0};
  std::atomic<int64_t> stat_batches_{0};
  std::atomic<int64_t> stat_flush_full_{0};
  std::atomic<int64_t> stat_flush_timer_{0};
  std::atomic<int64_t> stat_sum_batch_{0};
  std::atomic<int64_t> stat_max_batch_{0};
  std::atomic<int64_t> stat_deadline_misses_{0};
  std::atomic<int64_t> stat_queue_full_waits_{0};
  std::atomic<int64_t> stat_qos_transitions_{0};
  std::atomic<int64_t> stat_shed_{0};
  std::atomic<int64_t> stat_rejected_{0};
  std::atomic<int64_t> stat_failed_requests_{0};
  std::atomic<int64_t> stat_quarantines_{0};
  std::atomic<int64_t> stat_readmissions_{0};
  std::atomic<int64_t> stat_lanes_quarantined_{0};
  std::atomic<int64_t> stat_requeued_batches_{0};
  std::atomic<int64_t> stat_discarded_batches_{0};
  std::atomic<int64_t> stat_probes_{0};
  std::atomic<int64_t> stat_reloads_{0};

  std::vector<BatchWork> works_;       ///< one per lane, reused across dispatches
  std::vector<LaneState> lane_state_;  ///< one per lane
  std::thread dispatcher_;
};

}  // namespace axnn::serve
