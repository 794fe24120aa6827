// axnn_cli — command-line driver for the Algorithm-1 pipeline.
//
// Verb subcommands over one shared flag vocabulary:
//
//   axnn_cli train       [--model resnet20] [--full]        FP pre-training only
//   axnn_cli quantize    [--no-kd-stage1] ...               + 8A4W stage 1
//   axnn_cli approximate --multiplier trunc5 --method approxkd+ge --t2 5 ...
//   axnn_cli sweep       --method approxkd+ge               every paper multiplier
//   axnn_cli serve       --arrival poisson --rate 500 ...   batched serving runtime
//   axnn_cli search      --budget-evals 32 --emit out.plan  per-layer plan search
//   axnn_cli inspect     --multiplier trunc5                model + multiplier stats
//   axnn_cli list-multipliers [--json]                      registry at a glance
//
// Old spellings stay valid: `run` is an alias for `approximate`, a missing
// verb defaults to `approximate`, and `--list-multipliers` still works as a
// flag. Any verb accepts `--report out.json` (machine-readable RunReport,
// same schema as the bench harness) and `--timing` (attach a telemetry
// collector; per-layer timings land in the report or on stdout).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "axnn/axnn.hpp"

namespace {

using namespace axnn;

struct CliOptions {
  std::string verb = "approximate";
  core::ModelKind model = core::ModelKind::kResNet20;
  std::string multiplier = "trunc5";
  train::Method method = train::Method::kApproxKD_GE;
  std::optional<float> t2;
  std::optional<int> epochs;
  std::optional<float> lr;
  std::optional<int64_t> batch;
  std::optional<double> fault_rate;  ///< fault smoke sweep after run
  std::string fault_surface = "weights";  ///< weights | lut | activations
  bool sentinel = false;             ///< run the fault sweep under the sentinel
  std::optional<int> degrade_policy; ///< violations per leaf before degradation
  std::vector<std::string> plan_entries;  ///< repeated --plan key=spec overrides
  // serve verb
  std::vector<std::string> tenants;  ///< repeated --tenant name=plantext
  std::string arrival = "closed";    ///< closed | poisson | burst
  int requests = 128;
  int clients = 4;
  double rate_rps = 200.0;
  int burst = 16;
  std::optional<int> max_batch;
  std::optional<int64_t> batch_delay_us;
  std::optional<int64_t> deadline_us;
  std::optional<int> lanes;
  std::optional<uint64_t> seed;      ///< --seed: load-generator arrival/sample seed
  std::string qos_file;              ///< --qos: operating-point ladder file
  std::optional<double> energy_cap;  ///< --energy-cap-j: estimated units/s cap
  std::vector<std::string> governor_kv;  ///< --governor key=val,... entries
  bool serve_finetune = false;  ///< --finetune: approximation stage before serving
  std::string admission_policy;  ///< --admission: block | shed-newest | shed-deadline
  bool reject_infeasible = false;  ///< --reject-infeasible: deadline feasibility gate
  std::string checkpoint_dir;    ///< --checkpoint-dir: crash-safe weight rotation
  bool hot_reload = false;       ///< --reload: exercise the mid-traffic epoch flip
  // search verb
  std::vector<std::string> search_multipliers;  ///< --multipliers a,b,c
  std::vector<std::pair<int, int>> search_widths;  ///< --widths 3x8,2x8
  std::optional<double> accuracy_floor;  ///< --accuracy-floor: holdout floor, [0,1]
  std::optional<int> budget_evals;       ///< --budget-evals: holdout-eval budget
  std::optional<int> holdout;            ///< --holdout: holdout sample count
  std::optional<int> evolve;             ///< --evolve: evolutionary generations
  std::string emit_path;                 ///< --emit: write the ladder file here
  bool json = false;        ///< --json: machine-readable list-multipliers
  std::string report_path;  ///< --report: write a RunReport JSON here
  bool timing = false;      ///< --timing: attach a telemetry collector
  bool no_simd = false;     ///< --no-simd: pin the scalar kernels (bit-identity checks)
  bool kd_stage1 = true;
  bool full = false;
  bool verbose = false;
};

void print_usage() {
  std::printf(
      "usage: axnn_cli [train|quantize|approximate|sweep|serve|qos|search|inspect|list-multipliers] [options]\n"
      "  (no verb or 'run' = approximate; the stages nest: quantize runs train's\n"
      "   stage first, approximate runs both)\n"
      "  --model resnet20|resnet32|mobilenetv2   (default resnet20)\n"
      "  --multiplier <id>        registry id, e.g. trunc5, evoa228 (default trunc5)\n"
      "  --method normal|ge|alpha|approxkd|approxkd+ge   (default approxkd+ge)\n"
      "  --t2 <temp>              distillation temperature (default: by MRE)\n"
      "  --epochs <n>             fine-tuning epochs (default: profile)\n"
      "  --lr <f>                 fine-tuning learning rate\n"
      "  --batch <n>              fine-tuning batch size\n"
      "  --fault-rate <p>         after 'approximate': re-evaluate under bit flips at\n"
      "                           per-element rate p in [0, 1] (fault smoke check)\n"
      "  --fault-surface <s>      what --fault-rate corrupts: weights (default), lut\n"
      "                           (stuck-at faults in the multiplier table), or\n"
      "                           activations (transient inter-layer flips)\n"
      "  --sentinel               run the fault sweep under the runtime sentinel\n"
      "                           (ABFT checksums, range guards, degradation) and\n"
      "                           report detected violations + recovered accuracy\n"
      "  --degrade-policy <n>     checksum violations at one layer before the\n"
      "                           sentinel degrades it to golden re-execution (default 3)\n"
      "  --plan <key>=<spec>      per-layer plan override, repeatable; key is a layer\n"
      "                           path prefix (see 'inspect' for paths) or 'default',\n"
      "                           spec is <mul>[:wN][:aN][:add=<adder>][:noge]\n"
      "                           [:mode=float|exact|approx]. --multiplier stays the\n"
      "                           default for unmatched layers.\n"
      "serve options (batched multi-tenant runtime, DESIGN.md §5g):\n"
      "  --arrival closed|poisson|burst   traffic shape (default closed)\n"
      "  --requests <n>           total requests per session (default 128)\n"
      "  --clients <n>            closed-loop concurrency (default 4)\n"
      "  --rate <rps>             poisson offered load in req/s (default 200)\n"
      "  --burst <n>              burst wave size (default 16)\n"
      "  --deadline-us <n>        per-request deadline; 0 = none (default 0)\n"
      "  --max-batch <n>          micro-batcher coalescing limit (default 8)\n"
      "  --batch-delay-us <n>     micro-batcher max hold time (default 2000)\n"
      "  --lanes <n>              model replicas for parallel batches (default 1)\n"
      "  --tenant <name>=<plan>   extra session on its own plan, repeatable,\n"
      "                           e.g. --tenant premium=default=exact_8x4\n"
      "  --seed <n>               load-generator seed (arrival schedule + sample\n"
      "                           selection) for reproducible load runs\n"
      "  --finetune               run the approximation stage before serving\n"
      "  --admission <policy>     full-pool admission: block (default, backpressure),\n"
      "                           shed-newest (drop the incoming request), or\n"
      "                           shed-deadline (evict the least-viable queued one)\n"
      "  --reject-infeasible      reject submits whose deadline sits below the\n"
      "                           calibrated service floor instead of serving late\n"
      "  --checkpoint-dir <dir>   keep crash-safe AXNP generations of the served\n"
      "                           weights here (CRC-verified, keep-N rotation)\n"
      "  --reload                 mid-traffic, save a checkpoint and atomically\n"
      "                           reload from it (hot-reload smoke; defaults\n"
      "                           --checkpoint-dir to <cache-dir>/serve_ckpt)\n"
      "qos options (adaptive operating points, DESIGN.md §5h; also the 'qos' verb,\n"
      "which loads the engine and prints the calibrated ladder without traffic):\n"
      "  --qos <file>             operating-point ladder ('point <name> = <plan>'\n"
      "                           per line); sessions with no --tenant plan serve it\n"
      "                           under the governor\n"
      "  --energy-cap-j <x>       energy budget in estimated units/s (1 unit = one\n"
      "                           exact MAC); the governor sheds down-ladder when the\n"
      "                           rolling estimate exceeds it\n"
      "  --governor <k=v,...>     governor knobs: tick-ms, dwell-ms, recover-ms,\n"
      "                           p95-ms (step down when observed p95 exceeds it),\n"
      "                           queue-high, violation-rate\n"
      "search options (automated per-layer plan search, DESIGN.md §5j; emits a\n"
      "Pareto front of accuracy-vs-energy plans as a --qos ladder):\n"
      "  --multipliers <a,b,..>   candidate registry ids (default trunc2..trunc5)\n"
      "  --widths <WxA,..>        extra weight-x-activation bit widths per layer,\n"
      "                           e.g. 3x8,2x8 (default: calibrated widths only;\n"
      "                           heterogeneous-width plans are not servable)\n"
      "  --accuracy-floor <p>     drop points below this holdout accuracy in [0,1]\n"
      "  --energy-cap-j <x>       (reused) drop points above this energy/sample\n"
      "  --budget-evals <n>       total holdout-evaluation budget (default 32)\n"
      "  --holdout <n>            holdout samples from the test tail (default 96)\n"
      "  --evolve <gens>          evolutionary generations per budget (default 0)\n"
      "  --emit <file>            write the searched ladder here; serve it with\n"
      "                           axnn_cli serve --qos <file>\n"
      "  --json                   list-multipliers: machine-readable JSON to stdout\n"
      "  --report <out.json>      write a machine-readable run report (bench-harness\n"
      "                           schema; events also land in <out>.jsonl)\n"
      "  --timing                 collect per-layer telemetry; merged into --report\n"
      "                           or summarised on stdout\n"
      "  --no-simd                force the scalar GEMM kernels (same as AXNN_SIMD=\n"
      "                           scalar); the escape hatch for verifying SIMD\n"
      "                           bit-identity and for debugging vector kernels\n"
      "  --list-multipliers       alias for the list-multipliers verb\n"
      "  --no-kd-stage1           plain fine-tuning in the quantization stage\n"
      "  --full                   paper-scale profile (same as AXNN_REPRO_FULL=1)\n"
      "  --verbose                per-epoch progress\n");
}

bool parse_method(const std::string& s, train::Method& out) {
  if (s == "normal") out = train::Method::kNormal;
  else if (s == "ge") out = train::Method::kGE;
  else if (s == "alpha") out = train::Method::kAlpha;
  else if (s == "approxkd") out = train::Method::kApproxKD;
  else if (s == "approxkd+ge") out = train::Method::kApproxKD_GE;
  else return false;
  return true;
}

bool parse_model(const std::string& s, core::ModelKind& out) {
  if (s == "resnet20") out = core::ModelKind::kResNet20;
  else if (s == "resnet32") out = core::ModelKind::kResNet32;
  else if (s == "mobilenetv2") out = core::ModelKind::kMobileNetV2;
  else return false;
  return true;
}

bool parse_verb(const std::string& s, std::string& out) {
  if (s == "train" || s == "quantize" || s == "approximate" || s == "sweep" ||
      s == "serve" || s == "qos" || s == "search" || s == "inspect" ||
      s == "list-multipliers") {
    out = s;
    return true;
  }
  if (s == "run") {  // pre-verb spelling
    out = "approximate";
    return true;
  }
  return false;
}

std::optional<CliOptions> parse(int argc, char** argv) {
  CliOptions opt;
  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    if (!parse_verb(argv[i], opt.verb)) {
      std::fprintf(stderr, "unknown command '%s'\n", argv[i]);
      print_usage();
      return std::nullopt;
    }
    ++i;
  }
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--model") {
      const char* v = next();
      if (v == nullptr || !parse_model(v, opt.model)) return std::nullopt;
    } else if (arg == "--multiplier") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.multiplier = v;
    } else if (arg == "--method") {
      const char* v = next();
      if (v == nullptr || !parse_method(v, opt.method)) return std::nullopt;
    } else if (arg == "--t2") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.t2 = static_cast<float>(std::atof(v));
    } else if (arg == "--epochs") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.epochs = std::atoi(v);
    } else if (arg == "--lr") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.lr = static_cast<float>(std::atof(v));
    } else if (arg == "--batch") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.batch = std::atoll(v);
    } else if (arg == "--fault-rate") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      char* end = nullptr;
      const double rate = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(rate) || rate < 0.0 || rate > 1.0) {
        std::fprintf(stderr, "invalid --fault-rate '%s': expected a probability in [0, 1]\n", v);
        return std::nullopt;
      }
      opt.fault_rate = rate;
    } else if (arg == "--fault-surface") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      const std::string s = v;
      if (s != "weights" && s != "lut" && s != "activations") {
        std::fprintf(stderr, "invalid --fault-surface '%s': expected weights|lut|activations\n",
                     v);
        return std::nullopt;
      }
      opt.fault_surface = s;
    } else if (arg == "--sentinel") {
      opt.sentinel = true;
    } else if (arg == "--degrade-policy") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      char* end = nullptr;
      const long n = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || n < 0 || n > 1000000) {
        std::fprintf(stderr, "invalid --degrade-policy '%s': expected a non-negative count\n", v);
        return std::nullopt;
      }
      opt.degrade_policy = static_cast<int>(n);
    } else if (arg == "--plan") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.plan_entries.emplace_back(v);
    } else if (arg == "--arrival") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      const std::string s = v;
      if (s != "closed" && s != "poisson" && s != "burst") {
        std::fprintf(stderr, "invalid --arrival '%s': expected closed|poisson|burst\n", v);
        return std::nullopt;
      }
      opt.arrival = s;
    } else if (arg == "--requests") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.requests = std::atoi(v);
      if (opt.requests <= 0) {
        std::fprintf(stderr, "invalid --requests '%s': expected a positive count\n", v);
        return std::nullopt;
      }
    } else if (arg == "--clients") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.clients = std::atoi(v);
      if (opt.clients <= 0) {
        std::fprintf(stderr, "invalid --clients '%s': expected a positive count\n", v);
        return std::nullopt;
      }
    } else if (arg == "--rate") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.rate_rps = std::atof(v);
      if (!(opt.rate_rps > 0.0)) {
        std::fprintf(stderr, "invalid --rate '%s': expected req/s > 0\n", v);
        return std::nullopt;
      }
    } else if (arg == "--burst") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.burst = std::atoi(v);
      if (opt.burst <= 0) {
        std::fprintf(stderr, "invalid --burst '%s': expected a positive count\n", v);
        return std::nullopt;
      }
    } else if (arg == "--deadline-us") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.deadline_us = std::atoll(v);
    } else if (arg == "--max-batch") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.max_batch = std::atoi(v);
    } else if (arg == "--batch-delay-us") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.batch_delay_us = std::atoll(v);
    } else if (arg == "--lanes") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.lanes = std::atoi(v);
    } else if (arg == "--tenant") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      if (std::strchr(v, '=') == nullptr) {
        std::fprintf(stderr, "invalid --tenant '%s': expected <name>=<plan text>\n", v);
        return std::nullopt;
      }
      opt.tenants.emplace_back(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      char* end = nullptr;
      const unsigned long long s = std::strtoull(v, &end, 0);
      if (end == v || *end != '\0') {
        std::fprintf(stderr, "invalid --seed '%s': expected an unsigned integer\n", v);
        return std::nullopt;
      }
      opt.seed = static_cast<uint64_t>(s);
    } else if (arg == "--qos") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.qos_file = v;
    } else if (arg == "--energy-cap-j") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      char* end = nullptr;
      const double cap = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(cap) || cap <= 0.0) {
        std::fprintf(stderr, "invalid --energy-cap-j '%s': expected units/s > 0\n", v);
        return std::nullopt;
      }
      opt.energy_cap = cap;
    } else if (arg == "--governor") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      std::string entry;
      std::istringstream items(v);
      while (std::getline(items, entry, ',')) {
        if (entry.find('=') == std::string::npos) {
          std::fprintf(stderr, "invalid --governor entry '%s': expected key=value\n",
                       entry.c_str());
          return std::nullopt;
        }
        opt.governor_kv.push_back(entry);
      }
    } else if (arg == "--finetune") {
      opt.serve_finetune = true;
    } else if (arg == "--admission") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      serve::AdmissionPolicy p;
      if (!serve::parse_admission_policy(v, p)) {
        std::fprintf(stderr,
                     "invalid --admission '%s': expected block|shed-newest|shed-deadline\n", v);
        return std::nullopt;
      }
      opt.admission_policy = v;
    } else if (arg == "--reject-infeasible") {
      opt.reject_infeasible = true;
    } else if (arg == "--checkpoint-dir") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.checkpoint_dir = v;
    } else if (arg == "--reload") {
      opt.hot_reload = true;
    } else if (arg == "--multipliers") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      std::string id;
      std::istringstream items(v);
      while (std::getline(items, id, ','))
        if (!id.empty()) opt.search_multipliers.push_back(id);
      if (opt.search_multipliers.empty()) {
        std::fprintf(stderr, "invalid --multipliers '%s': expected id[,id...]\n", v);
        return std::nullopt;
      }
    } else if (arg == "--widths") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      std::string pair;
      std::istringstream items(v);
      while (std::getline(items, pair, ',')) {
        int w = 0, a = 0;
        char tail = '\0';
        if (std::sscanf(pair.c_str(), "%dx%d%c", &w, &a, &tail) != 2) {
          std::fprintf(stderr, "invalid --widths entry '%s': expected WxA, e.g. 3x8\n",
                       pair.c_str());
          return std::nullopt;
        }
        opt.search_widths.emplace_back(w, a);
      }
    } else if (arg == "--accuracy-floor") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      char* end = nullptr;
      const double floor = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(floor) || floor < 0.0 || floor > 1.0) {
        std::fprintf(stderr, "invalid --accuracy-floor '%s': expected a fraction in [0, 1]\n",
                     v);
        return std::nullopt;
      }
      opt.accuracy_floor = floor;
    } else if (arg == "--budget-evals") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      char* end = nullptr;
      const long n = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || n <= 0 || n > 100000) {
        std::fprintf(stderr, "invalid --budget-evals '%s': expected a positive count\n", v);
        return std::nullopt;
      }
      opt.budget_evals = static_cast<int>(n);
    } else if (arg == "--holdout") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      char* end = nullptr;
      const long n = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || n <= 0) {
        std::fprintf(stderr, "invalid --holdout '%s': expected a positive count\n", v);
        return std::nullopt;
      }
      opt.holdout = static_cast<int>(n);
    } else if (arg == "--evolve") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      char* end = nullptr;
      const long n = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || n < 0 || n > 10000) {
        std::fprintf(stderr, "invalid --evolve '%s': expected a generation count\n", v);
        return std::nullopt;
      }
      opt.evolve = static_cast<int>(n);
    } else if (arg == "--emit") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.emit_path = v;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--report") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.report_path = v;
    } else if (arg == "--timing") {
      opt.timing = true;
    } else if (arg == "--no-simd") {
      opt.no_simd = true;
    } else if (arg == "--list-multipliers") {
      opt.verb = "list-multipliers";
    } else if (arg == "--no-kd-stage1") {
      opt.kd_stage1 = false;
    } else if (arg == "--full") {
      opt.full = true;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return std::nullopt;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  return opt;
}

core::Workbench make_workbench(const CliOptions& opt) {
  core::WorkbenchConfig cfg;
  cfg.model = opt.model;
  if (opt.full) setenv("AXNN_REPRO_FULL", "1", 1);
  cfg.profile = core::BenchProfile::from_env();
  cfg.profile.apply();
  cfg.verbose = opt.verbose;
  return core::Workbench(cfg);
}

float pick_t2(const CliOptions& opt, const axmul::MultiplierSpec& spec) {
  if (opt.t2) return *opt.t2;
  if (spec.paper_mre < 0.03) return 2.0f;
  if (spec.paper_mre < 0.13) return 5.0f;
  return 10.0f;
}

train::FineTuneConfig make_ft(const CliOptions& opt, const core::Workbench& wb) {
  train::FineTuneConfig fc = wb.default_ft_config();
  if (opt.epochs) fc.epochs = *opt.epochs;
  if (opt.lr) fc.lr = *opt.lr;
  if (opt.batch) fc.batch_size = *opt.batch;
  fc.verbose = opt.verbose;
  return fc;
}

// Compose the effective plan text from --multiplier (the default) and the
// repeated --plan overrides. A later `--plan default=...` wins over
// --multiplier because NetPlan::parse keeps the last default entry.
std::string compose_plan_text(const CliOptions& opt) {
  std::string text = "default=" + opt.multiplier;
  for (const auto& e : opt.plan_entries) text += "; " + e;
  return text;
}

void report_table(obs::RunReport* report, const std::string& key, const core::Table& t) {
  if (report != nullptr) report->add_table(key, t.headers(), t.rows());
}

// The multiplier registry at a glance: measured MRE (Eq. 14 over the full
// signed 4x8-bit operand grid), whether the GE fit classifies the error as
// biased (a non-constant fit => GE has something to compensate) and the
// per-MAC energy savings. Needs no Workbench, so it runs instantly. With
// --json the same facts go to stdout as one machine-readable document
// (plus the bit widths each id supports in plan specs).
int cmd_list_multipliers(const CliOptions& opt, obs::RunReport* report) {
  const auto kind_name = [](axmul::MultiplierKind k) {
    switch (k) {
      case axmul::MultiplierKind::kExact: return "exact";
      case axmul::MultiplierKind::kTruncated: return "trunc";
      case axmul::MultiplierKind::kEvoApproxLike: return "evoapprox";
    }
    return "?";
  };
  core::Table table({"id", "kind", "MRE[%]", "paper[%]", "bias", "savings[%]"});
  obs::Json list = obs::Json::array();
  for (const auto& spec : axmul::paper_multipliers()) {
    obs::Json j = obs::Json::object();
    j["id"] = spec.id;
    j["kind"] = kind_name(spec.kind);
    j["paper_mre"] = spec.paper_mre;
    j["energy_savings_pct"] = spec.energy_savings_pct;
    // Widths a plan spec may pin with :wN/:aN (search space bounds) and
    // the calibrated defaults a bare spec means.
    obs::Json widths = obs::Json::object();
    widths["weight_bits"] = static_cast<int64_t>(quant::kWeightBits);
    widths["activation_bits"] = static_cast<int64_t>(quant::kActivationBits);
    widths["min_bits"] = static_cast<int64_t>(2);
    widths["max_bits"] = static_cast<int64_t>(8);
    j["supported_widths"] = std::move(widths);
    if (spec.kind == axmul::MultiplierKind::kExact) {
      table.add_row({spec.id, kind_name(spec.kind), "0.00", "0.0", "unbiased", "0"});
      j["mre"] = 0.0;
      j["bias"] = "unbiased";
      list.push_back(std::move(j));
      continue;
    }
    const auto stats = axmul::compute_error_stats(*axmul::make_multiplier(spec));
    const approx::SignedMulTable tab(axmul::make_lut(spec.id));
    const ge::ErrorFit fit = ge::fit_multiplier_error(tab, {});
    char mre[32], paper[32], savings[32];
    std::snprintf(mre, sizeof mre, "%.2f", 100.0 * stats.mre);
    std::snprintf(paper, sizeof paper, "%.1f", 100.0 * spec.paper_mre);
    std::snprintf(savings, sizeof savings, "%.0f", spec.energy_savings_pct);
    table.add_row({spec.id, kind_name(spec.kind), mre, paper,
                   fit.is_constant() ? "unbiased" : "biased", savings});
    j["mre"] = stats.mre;
    j["bias"] = fit.is_constant() ? "unbiased" : "biased";
    list.push_back(std::move(j));
  }
  if (opt.json) {
    obs::Json doc = obs::Json::object();
    doc["multipliers"] = std::move(list);
    std::printf("%s\n", doc.dump(2).c_str());
  } else {
    table.print();
  }
  report_table(report, "multipliers", table);
  return 0;
}

int cmd_inspect(const CliOptions& opt, obs::RunReport* report) {
  core::Workbench wb = make_workbench(opt);
  const auto info = wb.info();
  // Kernel execution environment: which vector ISA the startup probe
  // selected (and whether it was clamped by AXNN_SIMD / --no-simd) and the
  // plan cache geometry.
  std::printf("kernels: isa %s (detected %s), plan cache capacity %lld\n",
              kernels::isa_name(kernels::active_isa()),
              kernels::isa_name(kernels::detected_isa()),
              static_cast<long long>(kernels::PlanCache::global().stats().capacity));
  std::printf("model %s: %lld params, %lld MACs/sample, FP acc %.2f%%\n", info.name.c_str(),
              static_cast<long long>(info.parameters),
              static_cast<long long>(info.macs_per_sample), 100.0 * wb.fp_accuracy());
  const auto spec = axmul::find_spec(opt.multiplier);
  if (!spec) {
    std::fprintf(stderr, "unknown multiplier '%s'\n", opt.multiplier.c_str());
    return 1;
  }
  const auto stats = axmul::compute_error_stats(*axmul::make_multiplier(*spec));
  const auto fit = wb.fit_error(opt.multiplier);
  const auto energy = energy::estimate(info.macs_per_sample, *spec);
  std::printf("multiplier %s: MRE %.2f%% (paper %.1f%%), bias %.2f, savings %.0f%%\n",
              spec->id.c_str(), 100.0 * stats.mre, 100.0 * spec->paper_mre, stats.mean_error,
              spec->energy_savings_pct);
  std::printf("GE fit: %s\n", fit.to_string().c_str());
  std::printf("network energy: %.0f -> %.0f units (%.0f%% savings)\n", energy.exact_energy,
              energy.approx_energy, energy.savings_pct);
  // One warm-up forward (float path, batch of 1) so every GEMM leaf resolves
  // its prepared plans into its per-leaf memo; the keys printed below are
  // exactly what the serving engine pre-warms at load.
  {
    auto [images, labels] = wb.data().test.slice(0, 1);
    (void)labels;
    (void)wb.model().forward(images, nn::ExecContext{});
  }
  std::printf("plan-addressable layers (use these paths with --plan):\n");
  core::Table leaves({"path", "kind", "dot_length", "plan"});
  for (const auto& leaf : nn::enumerate_gemm_leaves(wb.model())) {
    std::string plans;
    if (const kernels::PlanMemo* memo = leaf.layer->plan_memo()) {
      for (const auto& key : memo->keys()) {
        if (!plans.empty()) plans += ", ";
        plans += key.to_string();
      }
    }
    if (plans.empty()) plans = "-";
    std::printf("  %-52s %s dot=%-6lld %s\n", leaf.path.c_str(), leaf.is_conv ? "conv" : "fc  ",
                static_cast<long long>(leaf.dot_length), plans.c_str());
    leaves.add_row({leaf.path, leaf.is_conv ? "conv" : "fc",
                    std::to_string(leaf.dot_length), plans});
  }
  const kernels::PlanCacheStats pstats = kernels::PlanCache::global().stats();
  std::printf("plan cache: %lld plans, %lld hits / %lld misses (%.0f%% hit rate)\n",
              static_cast<long long>(pstats.size), static_cast<long long>(pstats.hits),
              static_cast<long long>(pstats.misses), 100.0 * pstats.hit_rate());
  if (report != nullptr) {
    report->metric("fp_acc", wb.fp_accuracy());
    report->metric("parameters", info.parameters);
    report->metric("macs_per_sample", info.macs_per_sample);
    report->metric("multiplier_mre", stats.mre);
    report->metric("isa", std::string(kernels::isa_name(kernels::active_isa())));
    report->metric("plan_cache_size", pstats.size);
    report->metric("plan_cache_hit_rate", pstats.hit_rate());
    report->set("ge_fit", core::to_json(fit));
    report->set("energy", core::to_json(energy));
    report_table(report, "layers", leaves);
  }
  return 0;
}

int cmd_train(const CliOptions& opt, obs::RunReport* report) {
  core::Workbench wb = make_workbench(opt);
  const auto info = wb.info();
  std::printf("model %s: %lld params, %lld MACs/sample\n", info.name.c_str(),
              static_cast<long long>(info.parameters),
              static_cast<long long>(info.macs_per_sample));
  std::printf("FP pre-training done: %.2f%% test accuracy\n", 100.0 * wb.fp_accuracy());
  if (report != nullptr) {
    report->metric("fp_acc", wb.fp_accuracy());
    report->metric("parameters", info.parameters);
    report->metric("macs_per_sample", info.macs_per_sample);
  }
  return 0;
}

// Run the quantization stage (after FP pre-training) and report the 8A4W
// accuracies around it. Returns the workbench so 'approximate' can continue.
train::FineTuneResult run_stage1(const CliOptions& opt, core::Workbench& wb,
                                 obs::RunReport* report) {
  const auto s1 = wb.run_quantization_stage(opt.kd_stage1);
  std::printf("FP %.2f%% | 8A4W %.2f%% -> %.2f%% (%s stage 1)\n", 100.0 * wb.fp_accuracy(),
              100.0 * wb.quant_acc_before_ft(), 100.0 * s1.final_acc,
              opt.kd_stage1 ? "KD" : "normal");
  if (report != nullptr) {
    report->metric("fp_acc", wb.fp_accuracy());
    report->metric("quant_acc_before_ft", wb.quant_acc_before_ft());
    report->metric("stage1_acc", s1.final_acc);
    report->set("stage1", core::to_json(s1));
  }
  return s1;
}

int cmd_quantize(const CliOptions& opt, obs::RunReport* report) {
  core::Workbench wb = make_workbench(opt);
  (void)run_stage1(opt, wb, report);
  return 0;
}

int cmd_approximate(const CliOptions& opt, obs::RunReport* report) {
  const auto spec = axmul::find_spec(opt.multiplier);
  if (!spec) {
    std::fprintf(stderr, "unknown multiplier '%s'\n", opt.multiplier.c_str());
    return 1;
  }
  core::Workbench wb = make_workbench(opt);
  (void)run_stage1(opt, wb, report);

  const float t2 = pick_t2(opt, *spec);
  const bool use_plan = !opt.plan_entries.empty();
  const std::string label = use_plan ? compose_plan_text(opt) : opt.multiplier;
  auto setup = use_plan
                   ? core::ApproxStageSetup::with_plan(nn::NetPlan::parse(label), opt.method, t2)
                   : core::ApproxStageSetup::uniform(opt.multiplier, opt.method, t2);
  setup.finetune = make_ft(opt, wb);
  const auto run = wb.run_approximation_stage(setup);
  if (use_plan && run.plan_fits > 0)
    std::printf("plan: %zu per-layer GE fits\n", run.plan_fits);
  std::printf("%s + %s (T2=%.0f): %.2f%% -> %.2f%% (best %.2f%%) in %.1fs\n",
              label.c_str(), train::to_string(opt.method).c_str(), t2,
              100.0 * run.initial_acc, 100.0 * run.result.final_acc,
              100.0 * run.result.best_acc, run.result.seconds);
  if (!run.result.health.clean())
    std::printf("health: %s\n", run.result.health.summary().c_str());
  if (report != nullptr) report->set("run", core::to_json(run));

  if (opt.fault_rate) {
    // Fault-sweep smoke check: corrupt a copy of the fine-tuned model on the
    // selected surface and re-evaluate; with --sentinel, evaluate a second
    // time under the runtime monitor and report what it detected/recovered
    // (see bench_fault_sweep / bench_sentinel_coverage for full tables).
    resilience::FaultSpec fs;
    fs.rate = *opt.fault_rate;
    fs.seed = 0xFA17;
    if (opt.fault_surface == "lut") {
      fs.kind = resilience::FaultKind::kStuckAt;
      fs.bit_hi = 12;  // within the 4x8-bit product range
    } else if (opt.fault_surface == "activations") {
      fs.bit_hi = 27;  // spare the top exponent bits: corrupt, don't nuke
    }
    const resilience::FaultInjector inj(fs);
    auto faulty = wb.clone();
    approx::SignedMulTable tab(axmul::make_lut(opt.multiplier));
    nn::PlanResolution res;  // must outlive the evaluations below

    // Calibrate the sentinel against the *clean* clone — the golden weights
    // and checksum tables must describe the fault-free state.
    sentinel::SentinelConfig sc;
    if (opt.degrade_policy) sc.policy.degrade_after = *opt.degrade_policy;
    sentinel::Sentinel sent(sc);
    if (opt.sentinel) {
      if (use_plan) {
        res = nn::NetPlan::parse(label).resolve(*faulty);
        sent.calibrate_plan(*faulty, res);
      } else {
        sent.calibrate_uniform(*faulty, opt.multiplier);
      }
    } else if (use_plan) {
      res = nn::NetPlan::parse(label).resolve(*faulty);
    }

    if (opt.fault_surface == "weights") {
      std::vector<Tensor*> values;
      for (nn::Param* p : nn::collect_params(*faulty)) values.push_back(&p->value);
      resilience::corrupt_tensors(values, inj);
    } else if (opt.fault_surface == "lut") {
      resilience::corrupt_lut(tab, inj);
    }

    nn::ExecContext eval_ctx = nn::ExecContext::quant_approx(tab);
    if (use_plan) eval_ctx = eval_ctx.with_plan(res);
    if (opt.fault_surface == "activations") eval_ctx = eval_ctx.with_faults(inj);

    const double acc = train::evaluate_accuracy(*faulty, wb.data().test, eval_ctx);
    std::printf("fault sweep: %s flip rate %g -> %.2f%% (clean %.2f%%, %lld bits flipped)\n",
                opt.fault_surface.c_str(), *opt.fault_rate, 100.0 * acc,
                100.0 * run.result.final_acc, static_cast<long long>(inj.flips()));
    if (report != nullptr) {
      report->metric("fault_rate", *opt.fault_rate);
      report->metric("fault_surface", opt.fault_surface);
      report->metric("fault_acc", acc);
      report->metric("fault_bits_flipped", inj.flips());
    }

    if (opt.sentinel) {
      const double guarded =
          train::evaluate_accuracy(*faulty, wb.data().test, eval_ctx.with_monitor(sent));
      const auto rep = sent.report();
      std::printf("sentinel: %.2f%% under faults (unguarded %.2f%%) | %s\n", 100.0 * guarded,
                  100.0 * acc, rep.summary().c_str());
      if (report != nullptr) {
        report->metric("sentinel_acc", guarded);
        report->set("sentinel", core::to_json(rep));
      }
    }
  }
  return 0;
}

int cmd_sweep(const CliOptions& opt, obs::RunReport* report) {
  core::Workbench wb = make_workbench(opt);
  const auto s1 = run_stage1(opt, wb, report);
  core::Table table({"multiplier", "initial[%]", "final[%]"});
  for (const auto& spec : axmul::paper_multipliers()) {
    if (spec.kind == axmul::MultiplierKind::kExact) continue;
    const double initial = wb.approx_initial_accuracy(spec.id);
    if (s1.final_acc - initial <= 0.01) {
      table.add_row({spec.id, core::Table::pct(initial), "-"});
      continue;
    }
    auto setup = core::ApproxStageSetup::uniform(spec.id, opt.method, pick_t2(opt, spec));
    setup.finetune = make_ft(opt, wb);
    const auto run = wb.run_approximation_stage(setup);
    table.add_row({spec.id, core::Table::pct(initial),
                   core::Table::pct(run.result.final_acc)});
    std::printf("  %s done\n", spec.id.c_str());
  }
  table.print();
  report_table(report, "sweep", table);
  return 0;
}

// Governor knob spellings shared by `serve` and `qos`.
bool apply_governor_flags(const CliOptions& opt, qos::GovernorConfig& g) {
  for (const auto& entry : opt.governor_kv) {
    const size_t eq = entry.find('=');
    const std::string key = entry.substr(0, eq);
    const std::string val = entry.substr(eq + 1);
    if (key == "tick-ms") g.tick_interval_ms = std::atoll(val.c_str());
    else if (key == "dwell-ms") g.dwell_ms = std::atoll(val.c_str());
    else if (key == "recover-ms") g.recover_ms = std::atoll(val.c_str());
    else if (key == "p95-ms") g.p95_high_ms = std::atof(val.c_str());
    else if (key == "queue-high") g.queue_high = std::atoi(val.c_str());
    else if (key == "violation-rate") g.violation_rate_high = std::atof(val.c_str());
    else {
      std::fprintf(stderr,
                   "unknown --governor key '%s' (want tick-ms|dwell-ms|recover-ms|p95-ms|"
                   "queue-high|violation-rate)\n",
                   key.c_str());
      return false;
    }
  }
  return true;
}

// Fill the qos-related ModelSpec fields from --qos/--energy-cap-j/--governor.
// Returns false (with a message) on an unreadable file or bad knob.
bool apply_qos_flags(const CliOptions& opt, serve::ModelSpec& spec) {
  if (!opt.qos_file.empty()) {
    std::ifstream in(opt.qos_file);
    if (!in) {
      std::fprintf(stderr, "cannot read --qos file '%s'\n", opt.qos_file.c_str());
      return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    spec.qos_points = ss.str();
  }
  if (opt.energy_cap) spec.governor.energy_cap_per_s = *opt.energy_cap;
  if (!apply_governor_flags(opt, spec.governor)) return false;
  // Operator ergonomics: with a request deadline but no explicit p95
  // threshold, govern against the deadline itself.
  if (spec.governor.p95_high_ms == 0.0 && opt.deadline_us && *opt.deadline_us > 0)
    spec.governor.p95_high_ms = static_cast<double>(*opt.deadline_us) / 1000.0;
  return true;
}

void print_qos_points(const serve::Engine& engine, obs::RunReport* report) {
  core::Table t({"#", "point", "holdout acc[%]", "energy/req", "savings[%]", "lat est[ms]",
                 "plan"});
  int idx = 0;
  for (const auto& p : engine.operating_points()) {
    t.add_row({std::to_string(idx++), p.name, core::Table::pct(p.holdout_acc),
               core::Table::num(p.energy_per_req, 0), core::Table::num(p.energy_savings_pct, 1),
               core::Table::num(p.latency_est_ms, 2),
               p.plan_text.size() > 48 ? p.plan_text.substr(0, 45) + "..." : p.plan_text});
  }
  std::printf("\n-- operating points (ladder order: 0 = best effort) --\n");
  t.print();
  if (report != nullptr) {
    report->set("qos", engine.qos_report().to_json());
    report->add_table("qos_points", t.headers(), t.rows());
  }
}

// Bring up the serving engine (DESIGN.md §5g) and drive it with the
// requested traffic shape. The default session serves the composed
// --multiplier/--plan text — or, with --qos, the governed operating-point
// ladder; each --tenant name=plan opens another session over the same
// weights and gets its own load run, so one invocation exercises true
// multi-tenant batching. Reports land under "serving" in the --report JSON
// (definitions.servingReport, same rows as bench_serving_load), plus "qos"
// (definitions.qosReport) when a ladder is active.
int cmd_serve(const CliOptions& opt, obs::RunReport* report) {
  serve::ModelSpec spec;
  spec.model = opt.model;
  if (opt.full) setenv("AXNN_REPRO_FULL", "1", 1);
  spec.profile = core::BenchProfile::from_env();
  spec.verbose = opt.verbose;
  spec.plan = compose_plan_text(opt);
  spec.kd_stage1 = opt.kd_stage1;
  spec.finetune = opt.serve_finetune;
  spec.method = opt.method;
  if (const auto mul = axmul::find_spec(opt.multiplier)) spec.t2 = pick_t2(opt, *mul);
  spec.sentinel = opt.sentinel;
  if (opt.degrade_policy) spec.sentinel_config.policy.degrade_after = *opt.degrade_policy;
  if (opt.max_batch) spec.batching.max_batch = *opt.max_batch;
  if (opt.batch_delay_us) spec.batching.max_delay_us = *opt.batch_delay_us;
  if (opt.lanes) spec.lanes = *opt.lanes;
  spec.batching.queue_capacity =
      std::max(spec.batching.queue_capacity, spec.batching.max_batch);
  if (!opt.admission_policy.empty())
    serve::parse_admission_policy(opt.admission_policy, spec.admission.policy);
  spec.admission.reject_infeasible = opt.reject_infeasible;
  spec.checkpoint_dir = opt.checkpoint_dir;
  if (opt.hot_reload && spec.checkpoint_dir.empty())
    spec.checkpoint_dir = spec.profile.cache_dir + "/serve_ckpt";
  if (!apply_qos_flags(opt, spec)) return 1;

  auto engine = serve::Engine::load(spec);
  std::printf("engine up: %d lane(s), max_batch %d, max_delay %lldus\n", engine->lanes(),
              spec.batching.max_batch, static_cast<long long>(spec.batching.max_delay_us));

  std::vector<serve::Session*> sessions{&engine->session()};
  for (const auto& t : opt.tenants) {
    const size_t eq = t.find('=');
    sessions.push_back(&engine->open_session(t.substr(0, eq), t.substr(eq + 1)));
  }

  serve::LoadSpec load;
  if (opt.arrival == "poisson") load.arrival = serve::Arrival::kPoisson;
  else if (opt.arrival == "burst") load.arrival = serve::Arrival::kBurst;
  load.requests = opt.requests;
  load.clients = opt.clients;
  load.rate_rps = opt.rate_rps;
  load.burst = opt.burst;
  if (opt.deadline_us) load.deadline_us = *opt.deadline_us;
  if (opt.seed) load.seed = *opt.seed;

  obs::Json serving = obs::Json::array();
  core::Table table({"session", "plan", "scenario", "req", "mean batch", "thr [req/s]",
                     "p50 [ms]", "p99 [ms]", "misses"});
  for (serve::Session* s : sessions) {
    // --reload: while the first session's traffic is live, save a checkpoint
    // and atomically restore from it — the epoch flip may not lose a request
    // (the served/shed/rejected tallies below account for every submit).
    std::thread reloader;
    if (opt.hot_reload && s == sessions.front()) {
      reloader = std::thread([&engine] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        try {
          const std::string saved = engine->save_checkpoint();
          serve::ReloadSpec rs;
          rs.from_checkpoint = true;
          engine->reload(rs);
          std::printf("hot reload: restored %s under live traffic\n", saved.c_str());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "hot reload failed: %s\n", e.what());
        }
      });
    }
    const serve::LoadReport r = serve::run_load(*engine, *s, engine->data().test, load);
    if (reloader.joinable()) reloader.join();
    std::printf("%s (%s): %.1f req/s, p50 %.2fms p95 %.2fms p99 %.2fms, mean batch %.2f\n",
                s->name().c_str(), r.scenario.c_str(), r.throughput_rps, r.latency.p50,
                r.latency.p95, r.latency.p99, r.mean_batch);
    obs::Json row = r.to_json();
    row["session"] = s->name();
    serving.push_back(std::move(row));
    // A governed session's plan text is the whole multi-line ladder —
    // summarize it instead of wrecking the table layout.
    const std::string plan_cell =
        s->governed() ? "qos ladder (" + std::to_string(s->num_points()) +
                            " points, active=" + s->point_name(s->active_point()) + ")"
                      : s->plan_text();
    table.add_row({s->name(), plan_cell, r.scenario,
                   core::Table::num(static_cast<double>(r.requests), 0),
                   core::Table::num(r.mean_batch, 2), core::Table::num(r.throughput_rps, 1),
                   core::Table::num(r.latency.p50, 2), core::Table::num(r.latency.p99, 2),
                   core::Table::num(static_cast<double>(r.deadline_misses), 0)});
    if (opt.sentinel) {
      const auto rep = s->sentinel_report();
      std::printf("  sentinel[%s]: %s\n", s->name().c_str(), rep.summary().c_str());
    }
  }
  table.print();
  report_table(report, "serve", table);

  const serve::EngineStats stats = engine->stats();
  std::printf("engine totals: %lld requests in %lld batches (mean %.2f, max %lld), "
              "%lld timer flushes\n",
              static_cast<long long>(stats.requests), static_cast<long long>(stats.batches),
              stats.mean_batch, static_cast<long long>(stats.max_batch),
              static_cast<long long>(stats.flush_timer));
  if (stats.shed + stats.rejected + stats.reloads > 0)
    std::printf("lifecycle: %lld shed, %lld rejected, %lld reload(s)\n",
                static_cast<long long>(stats.shed), static_cast<long long>(stats.rejected),
                static_cast<long long>(stats.reloads));
  if (report != nullptr) {
    report->set("serving", std::move(serving));
    report->metric("requests", stats.requests);
    report->metric("batches", stats.batches);
    report->metric("mean_batch", stats.mean_batch);
    report->metric("deadline_misses", stats.deadline_misses);
    report->metric("shed", stats.shed);
    report->metric("rejected", stats.rejected);
    report->metric("reloads", stats.reloads);
  }
  if (engine->qos_enabled()) {
    const qos::QosReport qr = engine->qos_report();
    std::printf("%s\n", qr.summary().c_str());
    print_qos_points(*engine, report);
    if (report != nullptr) report->metric("qos_transitions", stats.qos_transitions);
  }
  return 0;
}

// `qos` verb: load the engine with an operating-point ladder and print the
// calibrated metadata (holdout accuracy, energy, latency estimate) without
// driving traffic — the offline half of the governor story.
int cmd_qos(const CliOptions& opt, obs::RunReport* report) {
  if (opt.qos_file.empty()) {
    std::fprintf(stderr, "the qos command requires --qos <points.plan>\n");
    return 1;
  }
  serve::ModelSpec spec;
  spec.model = opt.model;
  if (opt.full) setenv("AXNN_REPRO_FULL", "1", 1);
  spec.profile = core::BenchProfile::from_env();
  spec.verbose = opt.verbose;
  spec.kd_stage1 = opt.kd_stage1;
  spec.finetune = opt.serve_finetune;
  spec.method = opt.method;
  if (const auto mul = axmul::find_spec(opt.multiplier)) spec.t2 = pick_t2(opt, *mul);
  spec.sentinel = opt.sentinel;
  if (opt.lanes) spec.lanes = *opt.lanes;
  if (!apply_qos_flags(opt, spec)) return 1;

  auto engine = serve::Engine::load(spec);
  std::printf("engine up: %d lane(s), %zu operating point(s)\n", engine->lanes(),
              engine->operating_points().size());
  print_qos_points(*engine, report);
  return 0;
}

// Automated per-layer plan search (DESIGN.md §5j): stage-1 workbench ->
// search::run_search under a SearchSpec built from the flags -> Pareto
// front on stdout (+ report), optionally emitted as a --qos ladder file.
int cmd_search(const CliOptions& opt, obs::RunReport* report) {
  core::Workbench wb = make_workbench(opt);
  const auto stage1 = wb.run_quantization_stage(opt.kd_stage1);
  std::printf("FP %.2f%% | stage-1 %.2f%%\n", 100.0 * wb.fp_accuracy(),
              100.0 * stage1.final_acc);

  search::SearchSpec spec;
  if (!opt.search_multipliers.empty()) spec.multipliers = opt.search_multipliers;
  spec.widths = opt.search_widths;
  if (opt.accuracy_floor) spec.accuracy_floor = *opt.accuracy_floor;
  if (opt.energy_cap) spec.energy_cap = *opt.energy_cap;
  if (opt.budget_evals) spec.budget_evals = *opt.budget_evals;
  if (opt.holdout) spec.holdout = *opt.holdout;
  if (opt.seed) spec.seed = *opt.seed;
  if (opt.evolve) spec.evolution_generations = *opt.evolve;
  spec.verbose = opt.verbose;

  const search::SearchResult result = search::run_search(wb, spec);
  std::printf("search: %d holdout evals, exact baseline %.2f%% at %.0f units/sample\n",
              result.evals_used, 100.0 * result.baseline_acc, result.exact_energy);

  core::Table front({"point", "holdout[%]", "energy[units]", "savings[%]", "plan"});
  for (const auto& p : result.front)
    front.add_row({p.name, core::Table::num(100.0 * p.holdout_acc, 2),
                   core::Table::num(p.energy_per_sample, 0),
                   core::Table::num(p.energy_savings_pct, 1), p.plan_text});
  front.print();
  report_table(report, "search_front", front);

  core::Table uniforms({"baseline", "holdout[%]", "energy[units]", "savings[%]"});
  for (const auto& p : result.uniform_baselines)
    uniforms.add_row({p.name, core::Table::num(100.0 * p.holdout_acc, 2),
                      core::Table::num(p.energy_per_sample, 0),
                      core::Table::num(p.energy_savings_pct, 1)});
  std::printf("\n-- uniform baselines (all weakly dominated by the front) --\n");
  uniforms.print();
  report_table(report, "search_uniforms", uniforms);
  if (report != nullptr) report->metric("search", result.to_json());

  if (!opt.emit_path.empty()) {
    std::ofstream out(opt.emit_path);
    if (!out) {
      std::fprintf(stderr, "cannot write --emit file '%s'\n", opt.emit_path.c_str());
      return 1;
    }
    out << result.to_ladder_text();
    std::printf("\nladder: %s (serve it: axnn_cli serve --qos %s)\n", opt.emit_path.c_str(),
                opt.emit_path.c_str());
  }
  return 0;
}

int dispatch(const CliOptions& opt, obs::RunReport* report) {
  if (opt.verb == "list-multipliers") return cmd_list_multipliers(opt, report);
  if (opt.verb == "inspect") return cmd_inspect(opt, report);
  if (opt.verb == "train") return cmd_train(opt, report);
  if (opt.verb == "quantize") return cmd_quantize(opt, report);
  if (opt.verb == "approximate") return cmd_approximate(opt, report);
  if (opt.verb == "sweep") return cmd_sweep(opt, report);
  if (opt.verb == "serve") return cmd_serve(opt, report);
  if (opt.verb == "qos") return cmd_qos(opt, report);
  if (opt.verb == "search") return cmd_search(opt, report);
  std::fprintf(stderr, "unknown command '%s'\n", opt.verb.c_str());
  print_usage();
  return 1;
}

// --timing without --report: summarise the per-path wall-clock totals on
// stdout so the flag is useful interactively.
void print_timing_summary(const obs::Collector& collector) {
  core::Table table({"path", "metric", "calls", "total[ms]", "mean[us]"});
  for (const auto& [path, metrics] : collector.metrics()) {
    for (const auto& [metric, stat] : metrics) {
      if (metric.size() < 3 || metric.compare(metric.size() - 3, 3, ".ns") != 0) continue;
      table.add_row({path, metric, std::to_string(stat.count),
                     core::Table::num(stat.sum / 1e6, 1),
                     core::Table::num(stat.mean() / 1e3, 1)});
    }
  }
  std::printf("\n-- telemetry timings --\n");
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  // Every failure path exits with a one-line error and nonzero status; an
  // unhandled-exception abort from a CLI tool is never acceptable.
  try {
    const auto opt = parse(argc, argv);
    if (!opt) return 1;
    if (opt->no_simd) axnn::kernels::set_isa(axnn::kernels::Isa::kScalar);

    std::optional<obs::RunReport> report;
    if (!opt->report_path.empty())
      report.emplace("cli_" + opt->verb, "axnn_cli " + opt->verb);

    obs::Collector collector({.timing = true});
    std::optional<obs::ScopedCollector> attach;
    if (opt->timing) attach.emplace(collector);

    const int rc = dispatch(*opt, report ? &*report : nullptr);

    attach.reset();
    if (opt->timing && !report) print_timing_summary(collector);
    if (report) {
      if (opt->timing) report->merge_telemetry(collector);
      report->metric("exit_code", rc);
      report->write(opt->report_path);
      if (!report->events().empty()) {
        std::string jsonl = opt->report_path;
        if (jsonl.size() > 5 && jsonl.compare(jsonl.size() - 5, 5, ".json") == 0)
          jsonl.resize(jsonl.size() - 5);
        report->write_jsonl(jsonl + ".jsonl");
      }
      std::printf("report: %s\n", opt->report_path.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "error: unknown exception\n");
  }
  return 1;
}
