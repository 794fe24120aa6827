// axbench — the axnn benchmark program. One process runs one workload once:
//
//   axbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --cache-dir <dir> [--trace-out <file>]
//   axbench --prepare --cache-dir <dir>
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs print
// the per-layer metrics. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is nonzero
// when a correctness gate failed. perfbench/run.py builds this binary and
// fills the weight cache before calling it.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace axbench {

using axnn::core::ModelKind;

const std::vector<Workload>& workloads() {
  // Constants and their reasons: perfbench/README.md ("Workloads").
  static const std::vector<Workload> w = {
      {.name = "serve-r20-trunc5", .model = ModelKind::kResNet20, .plan = "default=trunc5",
       .sentinel = false, .warmup_requests = 1024, .nominal_rps = 150, .window_requests = 256,
       .capacity_requests = 1024, .min_windows = 8},
      {.name = "serve-r20-trunc5-sentinel", .model = ModelKind::kResNet20,
       .plan = "default=trunc5", .sentinel = true, .warmup_requests = 1024, .nominal_rps = 150,
       .window_requests = 256, .capacity_requests = 1024, .min_windows = 8},
  };
  return w;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

axnn::core::BenchProfile bench_profile(const RunOptions& opt) {
  // The fast profile, independent of the AXNN_* environment, so every run
  // measures the same configuration.
  axnn::core::BenchProfile p;
  p.cache_dir = opt.cache_dir;
  p.threads = kComputeThreads;
  return p;
}

std::string uniform_multiplier(const Workload& w) {
  return axnn::nn::NetPlan::parse(w.plan).uniform().multiplier;
}

axnn::serve::ModelSpec serve_spec(const Workload& w, const RunOptions& opt) {
  axnn::serve::ModelSpec spec;  // engine defaults: 1 lane, batch 8, 2 ms, 64 slots, kBlock
  spec.model = w.model;
  spec.profile = bench_profile(opt);
  spec.plan = w.plan;
  spec.finetune = false;
  spec.sentinel = w.sentinel;
  return spec;
}

axnn::core::WorkbenchConfig workbench_config(const Workload& w, const RunOptions& opt) {
  axnn::core::WorkbenchConfig cfg;  // same seeds as ModelSpec: one shared cache entry
  cfg.model = w.model;
  cfg.profile = bench_profile(opt);
  return cfg;
}

// --- Metrics ---------------------------------------------------------------

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  values_[name] = {value, unit};
}

void Metrics::print_table(const char* title) const {
  std::printf("== %s\n", title);
  for (const auto& [name, vu] : values_)
    std::printf("  %-28s %14.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
}

std::string Metrics::json() const {
  std::string s = "{";
  char buf[96];
  bool first = true;
  for (const auto& [name, vu] : values_) {
    if (!first) s += ", ";
    first = false;
    // Non-finite values are not JSON numbers: written as null, which
    // run.py rejects, and main() fails the run's finiteness gate.
    if (std::isfinite(vu.first))
      std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    else
      std::snprintf(buf, sizeof buf, "null");
    s += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + vu.second + "\"}";
  }
  return s + "}";
}

std::vector<std::string> Metrics::non_finite() const {
  std::vector<std::string> names;
  for (const auto& [name, vu] : values_)
    if (!std::isfinite(vu.first)) names.push_back(name);
  return names;
}

void RunResult::gate(bool ok, const std::string& what) {
  std::printf("  gate %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) ++gate_failures;
}

// --- Spans -----------------------------------------------------------------

int64_t SpanLog::begin(const char* name, int64_t parent, int64_t req) {
  const int64_t id = next_id_++;
  spans_.push_back({name, now_ns(), -1, parent, req, id});
  return id;
}

void SpanLog::end(int64_t id) {
  // Spans close in LIFO order almost always; search from the back.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it)
    if (it->id == id) {
      it->end_ns = now_ns();
      return;
    }
}

int64_t SpanLog::add(const char* name, int64_t start_ns, int64_t end_ns, int64_t parent,
                     int64_t req) {
  const int64_t id = next_id_++;
  spans_.push_back({name, start_ns, end_ns, parent, req, id});
  return id;
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::map<int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans)
    if (s.parent >= 0) children[s.parent].push_back(&s);
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    if (s.end_ns < s.start_ns) continue;
    // Self time: duration minus the union of the children's intervals,
    // clipped to the parent.
    std::vector<std::pair<int64_t, int64_t>> iv;
    auto it = children.find(s.id);
    if (it != children.end())
      for (const Span* c : it->second)
        if (c->end_ns >= c->start_ns)
          iv.emplace_back(std::max(c->start_ns, s.start_ns), std::min(c->end_ns, s.end_ns));
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_b = 0, cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (e <= b) continue;
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    t.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6;
  }
  return out;
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& s : spans)
    f << "{\"id\":" << s.id << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"req\":" << s.req
      << "}\n";
}

// --- Host ------------------------------------------------------------------

namespace {

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) v.push_back(c);
    return v;
  }();
  return cpus;
}

}  // namespace

void pin_current_thread(Side side) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.size() < 4) return;
  const size_t half = cpus.size() / 2;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t i = side == Side::kServer ? 0 : half; i < (side == Side::kServer ? half : cpus.size());
       ++i)
    CPU_SET(cpus[i], &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0)
    throw std::runtime_error("pthread_setaffinity_np failed");
}

void cold_caches() {
  axnn::kernels::PlanCache::global().clear();
  axnn::buffer_pool_trim();
}

double peak_rss_mb() {
  // ru_maxrss is the process's peak resident set (VmHWM) in KiB on Linux.
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void print_host_record(const RunOptions& opt) {
  const axnn::core::BenchProfile p = bench_profile(opt);
  std::printf(
      "host: nproc=%u cpus=%zu (server/generator split: %s) isa_detected=%s isa_active=%s "
      "pool_threads=%d profile=%s "
      "(image %" PRId64 ", train %" PRId64 ", test %" PRId64 ", ft_epochs %d, ft_batch %" PRId64
      ")\n",
      std::thread::hardware_concurrency(), allowed_cpus().size(),
      allowed_cpus().size() >= 4 ? "halves" : "none",
      axnn::kernels::isa_name(axnn::kernels::detected_isa()),
      axnn::kernels::isa_name(axnn::kernels::active_isa()), axnn::ThreadPool::global().size(),
      p.full ? "full" : "fast", p.image_size, p.train_size, p.test_size, p.ft_epochs,
      p.ft_batch);
}

void prepare(const RunOptions& opt) {
  std::set<ModelKind> models;
  for (const Workload& w : workloads()) models.insert(w.model);
  for (ModelKind m : models) {
    Workload w = workloads().front();
    w.model = m;
    const int64_t t0 = now_ns();
    axnn::core::Workbench wb(workbench_config(w, opt));
    (void)wb.run_quantization_stage(/*use_kd=*/true);
    std::printf("prepared %s stage-1 weights in %.1f s\n",
                axnn::core::to_string(m).c_str(), ms_since(t0) / 1000.0);
  }
}

}  // namespace axbench

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "axbench: %s\nusage: axbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --cache-dir <dir> [--trace-out <file>]\n"
               "       axbench --prepare --cache-dir <dir>\nworkloads:",
               msg);
  for (const auto& w : axbench::workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace axbench;
  RunOptions opt;
  bool do_prepare = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::strtod(value().c_str(), nullptr);
    else if (a == "--trace") opt.trace = value() == "1";
    else if (a == "--cache-dir") opt.cache_dir = value();
    else if (a == "--trace-out") opt.trace_out = value();
    else if (a == "--prepare") do_prepare = true;
    else usage(("unknown argument " + a).c_str());
  }
  if (opt.cache_dir.empty()) usage("--cache-dir is required");
  try {
    bench_profile(opt).apply();  // pins the compute pool before any kernel runs
    if (do_prepare) {
      prepare(opt);
      return 0;
    }
    const Workload* w = find_workload(opt.workload);
    if (w == nullptr) usage(("unknown workload '" + opt.workload + "'").c_str());
    if (!(opt.seconds >= 1)) usage("--seconds must be >= 1");

    std::printf("workload %s seed %" PRIu64 " seconds %.0f trace %d\n", w->name, opt.seed,
                opt.seconds, opt.trace ? 1 : 0);
    print_host_record(opt);
    RunResult r;
    if (opt.trace)
      run_traced(*w, opt, r);
    else
      run_serve(*w, opt, r);
    r.metrics.print_table(opt.trace ? "per-layer metrics" : "end-to-end metrics");
    std::string bad;
    for (const std::string& name : r.metrics.non_finite()) bad += " " + name;
    r.gate(bad.empty(), "every metric is a finite number" + (bad.empty() ? "" : ":" + bad));
    std::printf("gates failed: %" PRId64 ", operations failed: %" PRId64 " of %" PRId64 "\n",
                r.gate_failures, r.failed, r.attempted);
    std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
                ", \"metrics\": %s}\n",
                r.gate_failures == 0 ? "true" : "false", r.attempted, r.failed,
                r.metrics.json().c_str());
    std::fflush(stdout);
    return r.gate_failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "axbench: error: %s\n", e.what());
    return 1;
  }
}
