// Shared declarations of the axnn benchmark program (axbench): workload
// constants, the metric sink behind the final JSON line, the in-memory span
// recorder of traced runs, and the entry points of the untraced and traced
// runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "axnn/axnn.hpp"
#include "stats.hpp"

namespace axbench {

using Clock = std::chrono::steady_clock;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}
inline double ms_since(int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-6; }

/// Size of the global compute pool in every benchmark process. One thread:
/// on a host whose cores other work shares, a parallel region waits for its
/// slowest chunk, and a 4-thread batch-8 forward swung between 4.3 and 16 ms
/// within seconds where a 1-thread one held 6.2-6.9 ms. The load generator
/// and the engine's dispatcher and lane threads come on top.
inline constexpr int kComputeThreads = 1;

/// Which half of the machine a thread runs on. With at least 4 CPUs the
/// server (the engine's dispatcher and lane threads, which inherit the CPUs
/// of the thread that calls Engine::load) gets the first half and the load
/// generator (submitter and collector) the second, so the generator's
/// wake-ups never take the lane's CPU, as with clients on another machine.
/// With fewer CPUs nothing is pinned.
enum class Side { kServer, kClient };
void pin_current_thread(Side side);

/// One serving workload's constants. The reason for each value is recorded
/// in perfbench/README.md; the run prints them all before measuring.
struct Workload {
  const char* name;
  axnn::core::ModelKind model;
  const char* plan;           ///< NetPlan text served
  bool sentinel;              ///< calibrated sentinel attached to every forward
  int64_t warmup_requests;    ///< untimed requests sent back to back
  double nominal_rps;         ///< Poisson arrival rate of the latency windows
  int64_t window_requests;    ///< requests per latency window
  int64_t capacity_requests;  ///< requests per capacity window
  int64_t min_windows;        ///< fewest windows of each kind per run
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Options shared by every run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cache_dir;  ///< Workbench weight cache
  std::string trace_out;  ///< spans file written by traced runs ("" = skip)
};

/// The serving/training configuration every run of a workload uses.
axnn::core::BenchProfile bench_profile(const RunOptions& opt);
axnn::serve::ModelSpec serve_spec(const Workload& w, const RunOptions& opt);
axnn::core::WorkbenchConfig workbench_config(const Workload& w, const RunOptions& opt);
/// The multiplier id of the workload's uniform plan ("default=<id>").
std::string uniform_multiplier(const Workload& w);

/// Named metric values, emitted as the run's final JSON line.
class Metrics {
public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Human-readable listing (one "name = value unit" line each).
  void print_table(const char* title) const;
  std::string json() const;
  /// Names of metrics whose value is NaN or infinite (a failed measurement).
  std::vector<std::string> non_finite() const;

private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Outcome of one run: what the final JSON line carries besides metrics.
struct RunResult {
  Metrics metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t gate_failures = 0;  ///< correctness mismatches (exit nonzero)
  void gate(bool ok, const std::string& what);
};

/// In-memory span log: name, start, end, parent and request id. Each thread
/// records into its own log (no locking on the hot path); logs are merged
/// and written when the run ends. Self time = duration minus the union of
/// the children's intervals.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  ///< global span id of the parent, -1 for roots
  int64_t req;     ///< request id, -1 when not request-scoped
  int64_t id;
};

class SpanLog {
public:
  /// Ids start at `id_base`; give each thread's log a disjoint range.
  explicit SpanLog(int64_t id_base) : next_id_(id_base) { spans_.reserve(1 << 14); }
  /// Open a span; returns its id. Close it with end().
  int64_t begin(const char* name, int64_t parent = -1, int64_t req = -1);
  void end(int64_t id);
  /// A span whose interval is already known (e.g. a replayed kernel time
  /// placed at its measured position).
  int64_t add(const char* name, int64_t start_ns, int64_t end_ns, int64_t parent,
              int64_t req = -1);
  std::vector<Span>& spans() { return spans_; }

private:
  std::vector<Span> spans_;
  int64_t next_id_;
};

/// Per-name totals over a set of spans (count, total, self time).
struct SpanTotals {
  int64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans);
/// Write spans as JSON lines (one span per line) to `path`.
void write_spans(const std::vector<Span>& spans, const std::string& path);

// --- Open-loop load generator ------------------------------------------------

/// Requests draw their images from the engine's test split; every tensor is
/// sliced before timing starts.
struct ServeInputs {
  std::vector<axnn::Tensor> images;  ///< one [1,C,H,W] tensor per test image
  std::vector<int> labels;
};
ServeInputs make_inputs(const axnn::serve::Engine& e);

/// Image index of each of `n` requests: back-to-back seeded permutations of
/// the `pool` test images, so n = k*pool visits every image exactly k times.
std::vector<int> request_order(int64_t n, int64_t pool, uint64_t seed);

struct PhaseSpec {
  double rate = 0;  ///< mean requests per second (Poisson arrivals)
  std::vector<int> order;  ///< image of each request; its size is the request count
  uint64_t seed = 0;       ///< arrival-time seed
  std::vector<char> keep;  ///< optional: keep request i's logits when keep[i]
  SpanLog* submit_log = nullptr;   ///< traced phase: spans around submit
  SpanLog* collect_log = nullptr;  ///< traced phase: spans around await
  int64_t parent_span = -1;
  int64_t req_base = 0;  ///< request ids of this phase start here
};

struct PhaseOut {
  Tally tally;
  std::vector<double> latency_ms;  ///< intended send -> await return; kUnserved if not served
  std::vector<double> done_ms;     ///< await return since the phase start; kUnserved if not served
  std::vector<double> late_ms;     ///< actual minus intended send time
  std::vector<double> submit_us;   ///< time inside Session::submit
  std::vector<double> engine_ms;   ///< Result::latency_ms (served requests)
  std::vector<int> batch;          ///< Result::batch_size (0 when not served)
  std::vector<int> point;          ///< Result::point
  std::vector<int> top1_ok;        ///< 1 when served with top-1 equal to the label
  std::vector<axnn::Tensor> logits;  ///< kept logits (PhaseSpec::keep), else empty
};

/// A phase of `n` Poisson arrivals at `rate`; its images and send times are
/// drawn from `seeds`.
PhaseSpec phase_spec(double rate, int64_t n, int64_t pool, std::mt19937_64& seeds);

/// Run one open-loop phase: a submitter thread sends each request at its
/// intended time (sleeping, never spinning), the calling thread awaits them
/// in order. Latency runs from the intended send time, so a stalled
/// submitter or a blocked submit counts against the requests it delays.
PhaseOut run_phase(axnn::serve::Session& s, const ServeInputs& in, const PhaseSpec& spec);

/// Block until no lane of `e` can run engine work (probation probes)
/// concurrently with a direct forward on Engine::model(). Call after every
/// submitted request was awaited.
void quiesce(axnn::serve::Engine& e);

/// One-line phase summary (rate, n, p50, tail with its percentile and count,
/// generator lateness, outcomes, mean batch).
void print_phase(const char* label, double rate, const PhaseOut& p);

/// Arrival rate that sends a phase back to back: far above any capacity, so
/// the submitter blocks on the full slot pool (kBlock) and the engine runs
/// full batches.
inline constexpr double kSaturateRps = 1e5;

/// Capacity chunks: 64 requests (8 full batches) each, skipping the first
/// 128 requests of a capacity window (the slot pool fills) and its last 64
/// (it drains).
inline constexpr size_t kCapacityChunk = 64;
inline constexpr size_t kCapacityHead = 128;
inline constexpr size_t kCapacityTail = 64;

/// Set-ups timed per run (setup_s is their median).
inline constexpr int kSetups = 3;

/// Empty the process-wide caches a set-up fills (the kernel plan cache and
/// the tensor buffer pool), so a repeated set-up pays what the first did.
void cold_caches();

/// Peak resident set of this process (VmHWM), MB.
double peak_rss_mb();

/// Host record printed by every run: nproc, ISA detected/active, thread pool
/// size, profile.
void print_host_record(const RunOptions& opt);

/// Untraced run: latency and capacity windows, end-to-end metrics.
void run_serve(const Workload& w, const RunOptions& opt, RunResult& out);
/// Traced run: serve-layer, nn/kernels/sentinel and train/kd/ge profiles of
/// the workload's model and plan.
void run_traced(const Workload& w, const RunOptions& opt, RunResult& out);
/// Untimed preparation: fill the Workbench cache for every model a workload
/// uses, so no timed run trains.
void prepare(const RunOptions& opt);

}  // namespace axbench
