// Traced run: per-layer metrics from spans the benchmark records around its
// own calls into serve, nn, kernels, sentinel, train/kd/ge and tensor. No
// library code is instrumented; per-leaf times come from a benchmark-owned
// nn::ForwardMonitor that timestamps the leaf hooks.
//
// Every workload's traced run profiles every layer for the workload's model
// and plan: the serve layer under the workload's traffic, one batch-1..8
// forward ledger with kernel replays (with the sentinel when the workload
// attaches it), and replayed ApproxKD+GE training steps (paper Algorithm 1,
// second loop), which no end-to-end workload runs.
#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <random>

#include "bench.hpp"

namespace axbench {

namespace {

using axnn::Tensor;
using axnn::nn::ExecContext;
using axnn::nn::Layer;

/// Wraps the context's monitor (the sentinel, when attached): forwards every
/// hook to it, never forces exact on its own, timestamps leaf input and GEMM
/// events, and optionally copies GEMM operands for kernel replays. Time spent
/// copying is hidden from the timeline; time spent in the wrapped monitor is
/// accounted per leaf.
class RecordingMonitor final : public axnn::nn::ForwardMonitor {
public:
  struct Gemm {
    size_t leaf;
    bool approx;
    const axnn::approx::SignedMulTable* tab;
    int64_t m, k, n;
    std::vector<int8_t> w, x;
    std::vector<int32_t> c;
  };
  struct Leaf {
    const Layer* layer;
    int64_t t_in, t_last, t_end;  ///< effective timeline, ns
    int64_t inner_window = 0;     ///< wrapped-monitor time before the last GEMM
    int64_t inner_post = 0;       ///< wrapped-monitor time after it
    int64_t inner_pending = 0;
  };

  RecordingMonitor(axnn::nn::ForwardMonitor* inner, bool capture)
      : inner_(inner), capture_(capture) {}

  void start() {
    leaves_.clear();
    gemms_.clear();
    hidden_ = 0;
    t_start_ = eff();
  }
  void finish() { close_leaf(eff()); }

  bool force_exact(const Layer& l) override {
    if (inner_ == nullptr) return false;
    const int64_t a = now_ns();
    const bool r = inner_->force_exact(l);
    if (!leaves_.empty()) leaves_.back().inner_pending += now_ns() - a;
    return r;
  }

  void on_leaf_input(const Layer& l, const Tensor& x) override {
    const int64_t te = eff();
    close_leaf(te);
    leaves_.push_back({&l, te, te, -1});
    if (inner_ != nullptr) {
      const int64_t a = now_ns();
      inner_->on_leaf_input(l, x);
      leaves_.back().inner_pending += now_ns() - a;
    }
  }

  bool on_leaf_gemm(const Layer& l, int64_t group, bool approx, const int8_t* w,
                    const int8_t* x, int32_t* c, int64_t m, int64_t k, int64_t n,
                    const axnn::approx::SignedMulTable* tab) override {
    const int64_t te = eff();
    Leaf& lf = leaves_.back();
    lf.t_last = te;
    lf.inner_window += lf.inner_pending;
    lf.inner_pending = 0;
    if (capture_) {
      const int64_t a = now_ns();
      gemms_.push_back({leaves_.size() - 1, approx, tab, m, k, n,
                        std::vector<int8_t>(w, w + m * k), std::vector<int8_t>(x, x + k * n),
                        std::vector<int32_t>(c, c + m * n)});
      hidden_ += now_ns() - a;
    }
    bool r = false;
    if (inner_ != nullptr) {
      const int64_t a = now_ns();
      r = inner_->on_leaf_gemm(l, group, approx, w, x, c, m, k, n, tab);
      lf.inner_pending += now_ns() - a;
    }
    return r;
  }

  const std::vector<Leaf>& leaves() const { return leaves_; }
  std::vector<Gemm>& gemms() { return gemms_; }
  int64_t head_ns() const { return leaves_.empty() ? 0 : leaves_.front().t_in - t_start_; }
  int64_t eff() const { return now_ns() - hidden_; }

private:
  void close_leaf(int64_t te) {
    if (leaves_.empty() || leaves_.back().t_end >= 0) return;
    Leaf& lf = leaves_.back();
    lf.t_end = te;
    lf.inner_post = lf.inner_pending;
    lf.inner_pending = 0;
  }

  axnn::nn::ForwardMonitor* inner_;
  bool capture_;
  std::vector<Leaf> leaves_;
  std::vector<Gemm> gemms_;
  int64_t hidden_ = 0;
  int64_t t_start_ = 0;
};

double median_ms_of(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = now_ns();
    fn();
    t.push_back(ms_since(t0));
  }
  return median(t);
}

/// part / whole, 0 when whole is 0 (nothing happened).
double ratio(int64_t part, int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

void run_gemm(const RecordingMonitor::Gemm& g, int32_t* c, axnn::kernels::PlanMemo& memo) {
  const auto be = axnn::kernels::auto_backend(g.m, g.k, g.n);
  if (g.approx)
    axnn::kernels::gemm_approx({}, g.w.data(), g.x.data(), c, g.m, g.k, g.n, *g.tab, be,
                               nullptr, &memo);
  else
    axnn::kernels::gemm_exact({}, g.w.data(), g.x.data(), c, g.m, g.k, g.n, be, nullptr,
                              &memo);
}

struct LeafRow {
  std::string path;
  int64_t m = 0, k = 0, n = 0, groups = 0;
  double prep_ms = 0, gemm_ms = 0, post_ms = 0, sentinel_ms = 0;
};

struct ForwardProfile {
  std::array<double, 9> fwd_ms{};  ///< untraced median per batch size 1..8
  double gemm_ms[9] = {};          ///< replayed GEMM sum (b1, b8)
  int64_t macs[9] = {};
  double prep_ms_b8 = 0, post_ms_b8 = 0, sentinel_ms_b8 = 0, head_ms_b8 = 0;
  double ref_ms_b8 = 0;     ///< untraced batch-8 forward interleaved with the traced passes
  double traced_ms_b8 = 0;  ///< median over traced passes of the pass's leaf sum
  double pair_diff_ms_b8 = 0;  ///< median over pairs of leaf sum minus untraced forward
  int64_t gemm_over_window = 0;  ///< leaves whose replayed GEMM exceeds their window
  int64_t gemm_calls_b8 = 0;
  double naive_share_b8 = 0, gmacs_b8 = 0, peak_gmacs = 0;
  double sentinel_overhead_ms_b8 = 0;
  int64_t replays = 0, replay_mismatch = 0;
  std::vector<LeafRow> leaves_b8;
};

constexpr int kFwdReps = 15;
constexpr int kReplayReps = 25;
constexpr int kTracedReps = 41;

ForwardProfile profile_forward(axnn::nn::Sequential& model, const ExecContext& ctx,
                               const axnn::data::Dataset& test, uint64_t seed, SpanLog& log,
                               int64_t parent) {
  ForwardProfile fp;
  const axnn::approx::SignedMulTable* peak_tab = nullptr;
  std::mt19937_64 rng(seed);
  const auto batch = [&](int64_t b) {
    return test.slice(static_cast<int64_t>(rng() % static_cast<uint64_t>(test.size() - b)), b)
        .first;
  };
  std::map<const Layer*, std::string> paths;
  for (const auto& leaf : axnn::nn::enumerate_gemm_leaves(model)) paths[leaf.layer] = leaf.path;

  // Untraced forward per batch size (the reference the trace reconciles to).
  const int64_t sp_fwd = log.begin("nn.forward.untraced", parent);
  for (int64_t b = 1; b <= 8; ++b) {
    const Tensor x = batch(b);
    for (int r = 0; r < 2; ++r) (void)model.forward(x, ctx);
    fp.fwd_ms[static_cast<size_t>(b)] =
        median_ms_of(kFwdReps, [&] { (void)model.forward(x, ctx); });
  }
  log.end(sp_fwd);

  // Sentinel overhead: the session context against the same context without
  // its monitor, interleaved.
  {
    const int64_t sp = log.begin("sentinel.overhead", parent);
    const Tensor x = batch(8);
    ExecContext bare = ctx;
    bare.monitor = nullptr;
    std::vector<double> with, without;
    for (int r = 0; r < kFwdReps; ++r) {
      int64_t t0 = now_ns();
      (void)model.forward(x, ctx);
      with.push_back(ms_since(t0));
      t0 = now_ns();
      (void)model.forward(x, bare);
      without.push_back(ms_since(t0));
    }
    fp.sentinel_overhead_ms_b8 = median(with) - median(without);
    log.end(sp);
  }

  for (int64_t b : {int64_t{1}, int64_t{8}}) {
    const Tensor x = batch(b);
    // Capture pass: GEMM operands and accumulators for the replays.
    RecordingMonitor cap(ctx.monitor, /*capture=*/true);
    ExecContext cctx = ctx;
    cctx.monitor = &cap;
    cap.start();
    (void)model.forward(x, cctx);
    cap.finish();

    // Kernel replays on the captured operands: the bit-exact gate first,
    // then timing rounds of one replay of every GEMM. Rounds interleave the
    // GEMMs (and, at batch 8, the traced passes) so that a host slowdown
    // spreads over all leaves and both sides of the attribution check.
    const auto& gemms = cap.gemms();
    int64_t sp_rep = log.begin("kernels.replay", parent);
    std::vector<std::unique_ptr<axnn::kernels::PlanMemo>> memos(cap.leaves().size());
    for (auto& m : memos) m = std::make_unique<axnn::kernels::PlanMemo>();
    std::vector<std::vector<int32_t>> out_c;
    int64_t naive_macs = 0;
    for (const auto& g : gemms) {
      std::vector<int32_t> c(g.c.size());
      run_gemm(g, c.data(), *memos[g.leaf]);
      ++fp.replays;
      if (c != g.c) ++fp.replay_mismatch;
      out_c.push_back(std::move(c));
      fp.macs[b] += g.m * g.k * g.n;
      if (axnn::kernels::auto_backend(g.m, g.k, g.n) == axnn::kernels::Backend::kNaive)
        naive_macs += g.m * g.k * g.n;
    }
    std::vector<std::vector<double>> gemm_samples(gemms.size());
    const auto replay_round = [&] {
      for (size_t i = 0; i < gemms.size(); ++i) {
        const int64_t t0 = now_ns();
        run_gemm(gemms[i], out_c[i].data(), *memos[gemms[i].leaf]);
        gemm_samples[i].push_back(ms_since(t0));
      }
    };
    const auto leaf_gemm_ms = [&] {
      std::vector<double> leaf(cap.leaves().size(), 0.0);
      for (size_t i = 0; i < gemms.size(); ++i) leaf[gemms[i].leaf] += median(gemm_samples[i]);
      return leaf;
    };
    if (b != 8) {
      for (int r = 0; r < kReplayReps; ++r) replay_round();
      log.end(sp_rep);
      for (double t : leaf_gemm_ms()) fp.gemm_ms[b] += t;
      continue;
    }
    log.end(sp_rep);
    for (const auto& g : gemms)
      if (g.approx) {
        peak_tab = g.tab;
        break;
      }
    fp.gemm_calls_b8 = static_cast<int64_t>(gemms.size());
    fp.naive_share_b8 = ratio(naive_macs, fp.macs[8]);

    // Timing passes (no copies): per-leaf windows, medians over passes.
    const size_t nl = cap.leaves().size();
    std::vector<std::vector<double>> window(nl), post(nl), sent(nl);
    std::vector<double> head, ref, traced;
    int64_t last_sp = -1;
    RecordingMonitor rec(ctx.monitor, /*capture=*/false);
    ExecContext tctx = ctx;
    tctx.monitor = &rec;
    const auto untraced_pass = [&] {
      const int64_t t0 = now_ns();
      (void)model.forward(x, ctx);
      ref.push_back(ms_since(t0));
    };
    for (int r = 0; r < kTracedReps; ++r) {
      // Each traced pass is paired with an untraced one, alternating which
      // runs first: the reference the per-pass leaf sums reconcile to,
      // measured under the same host conditions.
      if (r % 2 == 0) untraced_pass();
      const int64_t sp = log.begin("nn.forward.traced", parent);
      rec.start();
      (void)model.forward(x, tctx);
      rec.finish();
      log.end(sp);
      if (r % 2 != 0) untraced_pass();
      sp_rep = log.begin("kernels.replay", parent);
      replay_round();
      log.end(sp_rep);
      last_sp = sp;
      if (rec.leaves().size() != nl) throw std::runtime_error("leaf count changed between passes");
      // The pass's leaf sum: head + per leaf (prep + GEMM + post + sentinel),
      // where prep + GEMM is the window from on_leaf_input to the last
      // on_leaf_gemm.
      double sum = static_cast<double>(rec.head_ns()) * 1e-6;
      for (size_t i = 0; i < nl; ++i) {
        const auto& lf = rec.leaves()[i];
        window[i].push_back(static_cast<double>(lf.t_last - lf.t_in - lf.inner_window) * 1e-6);
        post[i].push_back(static_cast<double>(lf.t_end - lf.t_last - lf.inner_post) * 1e-6);
        sent[i].push_back(static_cast<double>(lf.inner_window + lf.inner_post) * 1e-6);
        sum += window[i].back() + post[i].back() + sent[i].back();
      }
      traced.push_back(sum);
      head.push_back(static_cast<double>(rec.head_ns()) * 1e-6);
    }
    const std::vector<double> leaf_gemm = leaf_gemm_ms();
    for (double t : leaf_gemm) fp.gemm_ms[8] += t;
    fp.gmacs_b8 = static_cast<double>(fp.macs[8]) / fp.gemm_ms[8] / 1e6;
    // Span tree of the last traced pass: leaf spans with their replayed GEMM.
    for (size_t i = 0; i < nl; ++i) {
      const auto& lf = rec.leaves()[i];
      const int64_t ls = log.add("nn.leaf", lf.t_in, lf.t_end, last_sp);
      const auto g_ns = static_cast<int64_t>(leaf_gemm[i] * 1e6);
      log.add("kernels.gemm", std::max(lf.t_in, lf.t_last - g_ns), lf.t_last, ls);
      if (lf.inner_post + lf.inner_window > 0)
        log.add("sentinel.hooks", lf.t_last, lf.t_last + lf.inner_post + lf.inner_window, ls);
    }
    fp.head_ms_b8 = median(head);
    fp.ref_ms_b8 = median(ref);
    fp.traced_ms_b8 = median(traced);
    // Per-pair differences cancel host slowdowns that span both passes of
    // a pair, which sit a few milliseconds apart.
    std::vector<double> diff;
    for (size_t r = 0; r < traced.size(); ++r) diff.push_back(traced[r] - ref[r]);
    fp.pair_diff_ms_b8 = median(diff);
    for (size_t i = 0; i < nl; ++i) {
      LeafRow row;
      const Layer* layer = cap.leaves()[i].layer;
      row.path = paths.count(layer) ? paths[layer] : "?";
      for (const auto& g : cap.gemms())
        if (g.leaf == i) {
          row.m = g.m;
          row.k = g.k;
          row.n = g.n;
          ++row.groups;
        }
      row.gemm_ms = leaf_gemm[i];
      row.prep_ms = median(window[i]) - row.gemm_ms;
      row.post_ms = median(post[i]);
      row.sentinel_ms = median(sent[i]);
      // Attribution check: the replayed GEMM must fit in the in-forward
      // window that contains the real one (prep >= 0).
      if (row.prep_ms < 0) ++fp.gemm_over_window;
      fp.prep_ms_b8 += row.prep_ms;
      fp.post_ms_b8 += row.post_ms;
      fp.sentinel_ms_b8 += row.sentinel_ms;
      fp.leaves_b8.push_back(row);
    }
  }

  // Peak reference: the same op (the table the model ran with; exact when no
  // leaf approximated) at 64x576x1024 on seeded operands.
  {
    const int64_t sp = log.begin("kernels.peak", parent);
    RecordingMonitor::Gemm ref{0, peak_tab != nullptr, peak_tab, 64, 576, 1024, {}, {}, {}};
    std::mt19937 orng(static_cast<uint32_t>(seed));
    ref.w.resize(64 * 576);
    ref.x.resize(576 * 1024);
    for (auto& v : ref.w) v = static_cast<int8_t>(static_cast<int>(orng() % 16) - 8);
    for (auto& v : ref.x) v = static_cast<int8_t>(static_cast<int>(orng() % 256) - 128);
    std::vector<int32_t> c(64 * 1024);
    axnn::kernels::PlanMemo memo;
    run_gemm(ref, c.data(), memo);
    const double ms = median_ms_of(10, [&] { run_gemm(ref, c.data(), memo); });
    fp.peak_gmacs = 64.0 * 576.0 * 1024.0 / ms / 1e6;
    log.end(sp);
  }
  return fp;
}

struct TrainProfile {
  double fit_ms = 0;
  std::vector<double> step, fwd, teacher, loss, bwd, sgd, self;
  double ge_extra_ms = 0, eval_ms = 0;
};

constexpr int kTrainSteps = 100;  // p90 has exactly 10 samples beyond
constexpr int kGePairs = 20;
constexpr float kT2 = 5.0f;  // distillation temperature of ApproxKD+GE (paper Table IV)

TrainProfile profile_train(const Workload& w, const RunOptions& opt, SpanLog& log,
                           int64_t parent) {
  using axnn::nn::ExecMode;
  TrainProfile tp;
  const std::string mul = uniform_multiplier(w);
  const int64_t sp_wb = log.begin("core.workbench", parent);
  axnn::core::Workbench wb(workbench_config(w, opt));
  (void)wb.run_quantization_stage(/*use_kd=*/true);
  log.end(sp_wb);

  const int64_t sp_fit = log.begin("ge.fit_error", parent);
  int64_t t0 = now_ns();
  const axnn::ge::ErrorFit fit = wb.fit_error(mul);
  tp.fit_ms = ms_since(t0);
  log.end(sp_fit);

  auto student = wb.clone();
  auto teacher = wb.clone();
  const axnn::nn::PlanResolution res = axnn::nn::NetPlan::parse(w.plan).resolve(*student);
  const ExecContext ctx_ge{.mode = ExecMode::kQuantApprox, .ge_fit = &fit, .training = true,
                           .plan = &res};
  const ExecContext ctx_plain{.mode = ExecMode::kQuantApprox, .training = true, .plan = &res};
  const ExecContext ctx_eval{.mode = ExecMode::kQuantApprox, .plan = &res};
  const ExecContext ctx_teacher = ExecContext::quant_exact();
  const axnn::train::FineTuneConfig fc = wb.default_ft_config();
  axnn::nn::SgdConfig sc;
  sc.lr = fc.lr;
  sc.momentum = fc.momentum;
  sc.decay_factor = fc.lr_decay;
  sc.decay_every_epochs = fc.decay_every;
  axnn::nn::Sgd sgd(axnn::nn::collect_params(*student), sc);

  const axnn::data::Dataset& train = wb.data().train;
  std::vector<int64_t> idx(static_cast<size_t>(train.size()));
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int64_t>(i);
  std::mt19937_64 rng(opt.seed);
  std::shuffle(idx.begin(), idx.end(), rng);
  int64_t cursor = 0;
  const auto next_batch = [&] {
    if (cursor + fc.batch_size > train.size()) cursor = 0;
    auto b = train.gather(idx, cursor, fc.batch_size);
    cursor += fc.batch_size;
    return b;
  };

  // One ApproxKD+GE step; spans around each public call when traced.
  const auto step = [&](bool traced) {
    auto [images, labels] = next_batch();
    const int64_t s0 = now_ns();
    const int64_t sp = traced ? log.begin("train.step", parent) : -1;
    int64_t a = now_ns(), s;
    student->zero_grad();
    s = traced ? log.begin("nn.train_forward", sp) : -1;
    const Tensor logits = student->forward(images, ctx_ge);
    if (traced) log.end(s);
    const double f_ms = ms_since(a);
    a = now_ns();
    s = traced ? log.begin("kd.teacher_forward", sp) : -1;
    const Tensor tl = teacher->forward(images, ctx_teacher);
    if (traced) log.end(s);
    const double t_ms = ms_since(a);
    a = now_ns();
    s = traced ? log.begin("kd.distillation_loss", sp) : -1;
    const axnn::nn::LossResult loss = axnn::kd::distillation_loss(logits, tl, labels, kT2);
    if (traced) log.end(s);
    const double l_ms = ms_since(a);
    a = now_ns();
    s = traced ? log.begin("nn.backward", sp) : -1;
    (void)student->backward(loss.grad);
    if (traced) log.end(s);
    const double b_ms = ms_since(a);
    a = now_ns();
    s = traced ? log.begin("nn.sgd_step", sp) : -1;
    sgd.step();
    if (traced) log.end(s);
    const double g_ms = ms_since(a);
    if (traced) log.end(sp);
    const double total = ms_since(s0);
    if (!traced) return;
    tp.step.push_back(total);
    tp.fwd.push_back(f_ms);
    tp.teacher.push_back(t_ms);
    tp.loss.push_back(l_ms);
    tp.bwd.push_back(b_ms);
    tp.sgd.push_back(g_ms);
    tp.self.push_back(total - (f_ms + t_ms + l_ms + b_ms + g_ms));
  };
  for (int i = 0; i < 3; ++i) step(false);  // warm-up
  for (int i = 0; i < kTrainSteps; ++i) step(true);

  // GE backward overhead: backward after a GE forward minus backward after
  // a plain forward, interleaved on the same batches, no update.
  {
    const int64_t sp = log.begin("ge.backward_pairs", parent);
    std::vector<double> with, without;
    for (int i = 0; i < kGePairs; ++i) {
      auto [images, labels] = next_batch();
      for (bool ge : {false, true}) {
        student->zero_grad();
        const Tensor logits = student->forward(images, ge ? ctx_ge : ctx_plain);
        const Tensor tl = teacher->forward(images, ctx_teacher);
        const auto loss = axnn::kd::distillation_loss(logits, tl, labels, kT2);
        const int64_t b0 = now_ns();
        (void)student->backward(loss.grad);
        (ge ? with : without).push_back(ms_since(b0));
      }
    }
    tp.ge_extra_ms = median(with) - median(without);
    log.end(sp);
  }

  {
    const int64_t sp = log.begin("train.evaluate_accuracy", parent);
    tp.eval_ms = median_ms_of(3, [&] {
      (void)axnn::train::evaluate_accuracy(*student, wb.data().test, ctx_eval, fc.eval_batch);
    });
    log.end(sp);
  }
  return tp;
}

}  // namespace

void run_traced(const Workload& w, const RunOptions& opt, RunResult& out) {
  SpanLog log(0), sub_log(int64_t{1} << 40);
  Metrics& m = out.metrics;
  const int64_t root = log.begin("run");
  std::mt19937_64 seeds(opt.seed * 0x9E3779B97F4A7C15ULL + 2);

  // --- serve ---------------------------------------------------------------
  int64_t sp = log.begin("serve.Engine::load", root);
  pin_current_thread(Side::kServer);
  auto engine = axnn::serve::Engine::load(serve_spec(w, opt));
  pin_current_thread(Side::kClient);
  log.end(sp);
  axnn::serve::Session& session = engine->session();
  const ServeInputs in = make_inputs(*engine);
  const auto pool = static_cast<int64_t>(in.images.size());
  const auto phase = [&](int64_t n, double rate, SpanLog* sub, SpanLog* col, int64_t parent,
                         int64_t base) {
    PhaseSpec ps = phase_spec(rate, n, pool, seeds);
    ps.submit_log = sub;
    ps.collect_log = col;
    ps.parent_span = parent;
    ps.req_base = base;
    return run_phase(session, in, ps);
  };
  // Saturating warm-up, as in the untimed run.
  (void)phase(w.warmup_requests, kSaturateRps, nullptr, nullptr, -1, 0);
  const PhaseOut plain = phase(pool, w.nominal_rps, nullptr, nullptr, -1, 0);
  print_phase("untraced", w.nominal_rps, plain);

  const auto st0 = engine->stats();
  const auto pc0 = axnn::kernels::PlanCache::global().stats();
  const auto bp0 = axnn::buffer_pool_stats();
  sp = log.begin("serve.phase", root);
  const PhaseOut traced = phase(pool, w.nominal_rps, &sub_log, &log, sp, 0);
  log.end(sp);
  const auto st1 = engine->stats();
  const auto pc1 = axnn::kernels::PlanCache::global().stats();
  const auto bp1 = axnn::buffer_pool_stats();
  const auto sr = session.sentinel_report();
  print_phase("traced", w.nominal_rps, traced);
  std::printf("  sentinel (since load): %s; quarantines %" PRId64 ", probes %" PRId64 "\n",
              sr.summary().c_str(), st1.quarantines, st1.probes);

  // --- nn / kernels / sentinel ---------------------------------------------
  quiesce(*engine);
  sp = log.begin("nn.profile", root);
  const ForwardProfile fp = profile_forward(engine->model(0), session.exec_context(0),
                                            engine->data().test, seeds(), log, sp);
  log.end(sp);

  std::vector<double> wait;
  int64_t batch_sum = 0;
  size_t ei = 0;
  for (size_t i = 0; i < traced.batch.size(); ++i) {
    const int b = traced.batch[i];
    if (b <= 0) continue;
    batch_sum += b;
    wait.push_back(traced.engine_ms[ei++] - fp.fwd_ms[static_cast<size_t>(std::min(b, 8))]);
  }
  const Tail submit_tail = tail_percentile(traced.submit_us);
  const Tail wait_tail = tail_percentile(wait);
  const Tail late_tail = tail_percentile(traced.late_ms);
  const int64_t served = traced.tally.served;
  m.set("serve.submit_us.p99", submit_tail.value, "us");
  m.set("serve.wait_ms.p50", median(wait), "ms");
  m.set("serve.wait_ms.p99", wait_tail.value, "ms");
  m.set("serve.batch_mean", ratio(batch_sum, served), "count");
  m.set("serve.flush_full_share",
        ratio(st1.flush_full - st0.flush_full, st1.batches - st0.batches), "fraction");
  m.set("serve.requeued",
        static_cast<double>(st1.requeued_batches - st0.requeued_batches + st1.discarded_batches -
                            st0.discarded_batches),
        "count");
  m.set("serve.gen_late_ms.p99", late_tail.value, "ms");
  m.set("serve.quarantines", static_cast<double>(st1.quarantines), "count");
  const int64_t plan_hits = pc1.hits - pc0.hits, pool_hits = bp1.hits - bp0.hits;
  m.set("kernels.plan_hit_rate", ratio(plan_hits, plan_hits + pc1.misses - pc0.misses),
        "fraction");
  m.set("tensor.pool_hit_rate", ratio(pool_hits, pool_hits + bp1.misses - bp0.misses),
        "fraction");
  // Sentinel counters since load: the warm-up holds the early degradations,
  // which the report must show.
  m.set("sentinel.reexec_per_req", ratio(sr.total_reexecs(), st1.requests), "count");
  m.set("sentinel.fp_rate", ratio(sr.total_violations(), sr.total_checks()), "fraction");
  m.set("sentinel.degraded", static_cast<double>(sr.degraded_leaves()), "count");
  m.set("sentinel.overhead_ms.b8", fp.sentinel_overhead_ms_b8, "ms");
  std::printf("  tails over %" PRId64 " requests: submit p%g, wait p%g, lateness p%g\n",
              submit_tail.n, submit_tail.pct, wait_tail.pct, late_tail.pct);

  m.set("nn.fwd_ms.b1", fp.fwd_ms[1], "ms");
  m.set("nn.fwd_ms.b8", fp.fwd_ms[8], "ms");
  m.set("nn.prep_ms.b8", fp.prep_ms_b8, "ms");
  m.set("nn.post_ms.b8", fp.post_ms_b8, "ms");
  m.set("nn.gemm_calls", static_cast<double>(fp.gemm_calls_b8), "count");
  m.set("kernels.gemm_ms.b1", fp.gemm_ms[1], "ms");
  m.set("kernels.gemm_ms.b8", fp.gemm_ms[8], "ms");
  m.set("kernels.gmacs.b8", fp.gmacs_b8, "GMAC/s");
  m.set("kernels.peak_frac.b8", fp.gmacs_b8 / fp.peak_gmacs, "fraction");
  m.set("kernels.naive_share.b8", fp.naive_share_b8, "fraction");
  m.set("kernels.macs_per_req", static_cast<double>(fp.macs[1]), "count");
  std::printf("  forward ms by batch size:");
  for (int b = 1; b <= 8; ++b) std::printf(" b%d %.3f", b, fp.fwd_ms[static_cast<size_t>(b)]);
  std::printf("\n  per-leaf ledger (batch 8): %zu leaves, %" PRId64
              " GEMM calls, peak %.2f GMAC/s\n",
              fp.leaves_b8.size(), fp.gemm_calls_b8, fp.peak_gmacs);
  std::printf("    %-4s %-40s %6s %6s %6s %5s %9s %9s %9s %9s\n", "leaf", "path", "M", "K", "N",
              "grp", "prep ms", "gemm ms", "post ms", "sent ms");
  for (size_t i = 0; i < fp.leaves_b8.size(); ++i) {
    const LeafRow& r = fp.leaves_b8[i];
    std::printf("    %-4zu %-40s %6" PRId64 " %6" PRId64 " %6" PRId64 " %5" PRId64
                " %9.4f %9.4f %9.4f %9.4f\n",
                i, r.path.c_str(), r.m, r.k, r.n, r.groups, r.prep_ms, r.gemm_ms, r.post_ms,
                r.sentinel_ms);
  }
  // The ledger names ResNet-20's 22 leaves; other models report their first
  // 22 in forward order (the full ledger is printed above).
  for (size_t i = 0; i < 22; ++i) {
    char name[40];
    std::snprintf(name, sizeof name, "kernels.leaf%02zu_ms.b8", i);
    m.set(name, i < fp.leaves_b8.size() ? fp.leaves_b8[i].gemm_ms : 0.0, "ms");
  }
  out.gate(fp.replay_mismatch == 0,
           "kernel replays reproduce captured accumulators (" + std::to_string(fp.replays) +
               " replays, " + std::to_string(fp.replay_mismatch) + " differ)");

  // Reconciliation: each traced pass's leaf sum (head + prep + GEMM + post
  // + sentinel over the leaves, which covers the traced forward) against the
  // untraced forward paired with it; the residual is the median difference
  // over the pairs, as a share of the untraced median: what the tracer adds
  // or loses. Separately, no leaf's replayed GEMM may exceed its in-forward
  // window (prep >= 0).
  constexpr double kFwdTolerancePct = 10.0;
  const double fwd_res = -fp.pair_diff_ms_b8 / fp.ref_ms_b8 * 100.0;
  const bool fwd_ok = std::abs(fwd_res) <= kFwdTolerancePct && fp.gemm_over_window == 0;
  std::printf("  reconcile forward b8: untraced %.3f ms, leaf sum %.3f ms (medians of %d paired "
              "passes; median pair difference %+.3f ms; prep %.3f gemm %.3f post %.3f sentinel %.3f head %.3f), unexplained "
              "%.2f%% (tolerance %.0f%%); %" PRId64 " leaves with replayed GEMM > window%s\n",
              fp.ref_ms_b8, fp.traced_ms_b8, kTracedReps, fp.pair_diff_ms_b8, fp.prep_ms_b8,
              fp.gemm_ms[8],
              fp.post_ms_b8, fp.sentinel_ms_b8, fp.head_ms_b8, fwd_res, kFwdTolerancePct,
              fp.gemm_over_window, fwd_ok ? "" : "  NOT RECONCILED");
  m.set("trace.fwd_residual_pct", fwd_res, "%");

  const double overhead_pct = (median(traced.latency_ms) - median(plain.latency_ms)) /
                        median(plain.latency_ms) * 100.0;
  engine.reset();

  // --- train / kd / ge -------------------------------------------------------
  sp = log.begin("train.profile", root);
  const TrainProfile tp = profile_train(w, opt, log, sp);
  log.end(sp);
  const Tail step_tail = tail_percentile(tp.step);
  m.set("train.step_ms.p50", median(tp.step), "ms");
  m.set("train.step_ms.p90", step_tail.value, "ms");
  m.set("nn.train_fwd_ms", median(tp.fwd), "ms");
  m.set("kd.teacher_ms", median(tp.teacher), "ms");
  m.set("kd.loss_ms", median(tp.loss), "ms");
  m.set("nn.bwd_ms", median(tp.bwd), "ms");
  m.set("train.sgd_ms", median(tp.sgd), "ms");
  m.set("ge.bwd_extra_ms", tp.ge_extra_ms, "ms");
  m.set("ge.fit_ms", tp.fit_ms, "ms");
  m.set("train.eval_ms", tp.eval_ms, "ms");
  constexpr double kStepTolerancePct = 5.0;
  const double step_res = median(tp.self) / median(tp.step) * 100.0;
  std::printf("  reconcile train step: %zu steps, p50 %.3f ms, p%g %.3f ms; fwd %.3f teacher %.3f "
              "loss %.3f bwd %.3f sgd %.3f; unexplained %.2f%% (tolerance %.0f%%)%s\n",
              tp.step.size(), median(tp.step), step_tail.pct, step_tail.value, median(tp.fwd),
              median(tp.teacher), median(tp.loss), median(tp.bwd), median(tp.sgd), step_res,
              kStepTolerancePct, std::abs(step_res) <= kStepTolerancePct ? "" : "  NOT RECONCILED");
  m.set("trace.step_residual_pct", step_res, "%");
  m.set("trace.overhead_pct", overhead_pct, "%");
  m.set("process.peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("  tracing overhead: %.2f%% of the untraced request latency (p50)\n",
              overhead_pct);
  log.end(root);

  // Self-time summary and the span file.
  std::vector<Span> all = log.spans();
  all.insert(all.end(), sub_log.spans().begin(), sub_log.spans().end());
  std::printf("  spans: %zu\n    %-26s %8s %12s %12s\n", all.size(), "name", "count", "total ms",
              "self ms");
  for (const auto& [name, t] : span_totals(all))
    std::printf("    %-26s %8" PRId64 " %12.3f %12.3f\n", name.c_str(), t.count, t.total_ms,
                t.self_ms);
  if (!opt.trace_out.empty()) write_spans(all, opt.trace_out);

  out.attempted = plain.tally.sent + traced.tally.sent + fp.replays;
  out.failed = plain.tally.failures() + traced.tally.failures();
  m.set("trace.unreconciled",
        (fwd_ok ? 0.0 : 1.0) +
            (std::abs(step_res) <= kStepTolerancePct ? 0.0 : 1.0),
        "count");
}

}  // namespace axbench
