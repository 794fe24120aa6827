#include "axnn/serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "axnn/energy/energy.hpp"
#include "axnn/kernels/plan.hpp"
#include "axnn/nn/serialize.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/train/evaluate.hpp"

namespace axnn::serve {

namespace {

int argmax_row(const float* row, int n) {
  int best = 0;
  for (int j = 1; j < n; ++j)
    if (row[j] > row[best]) best = j;
  return best;
}

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kServed: return "served";
    case Outcome::kShed: return "shed";
    case Outcome::kRejected: return "rejected";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Session

Ticket Session::submit(const Tensor& chw, int64_t deadline_us) {
  Engine& e = *engine_;
  if (chw.numel() != e.chw_)
    throw std::invalid_argument("Session::submit: expected " + std::to_string(e.chw_) +
                                " input elements, got " + std::to_string(chw.numel()));
  // An already-expired deadline resolves right here: it is a deadline miss
  // by definition, and burning a batch slot on work nobody can use would
  // only delay feasible requests behind it.
  if (deadline_us < 0) {
    e.stat_rejected_.fetch_add(1, kRelaxed);
    e.stat_deadline_misses_.fetch_add(1, kRelaxed);
    return Ticket{-1, 0, static_cast<int8_t>(Outcome::kRejected)};
  }
  const int64_t now = obs::now_ns();
  const int64_t deadline_ns = deadline_us > 0 ? now + deadline_us * 1000 : 0;

  std::unique_lock<std::mutex> lk(e.mu_);
  for (;;) {
    if (closing_)
      throw std::logic_error("Session::submit: session '" + name_ + "' is closing");
    if (e.stop_) throw std::runtime_error("Session::submit: engine is shutting down");
    // kShedByDeadline victim: the queued request with the earliest deadline
    // (least slack — the one most likely to miss anyway). Requests without
    // deadlines are never evicted.
    int victim_idx = -1;
    int64_t victim_deadline = 0;
    if (e.free_count_ == 0 && e.admission_.policy == AdmissionPolicy::kShedByDeadline) {
      for (const auto& sp : e.sessions_) {
        const Session& s = *sp;
        for (int i = 0; i < s.ring_count_; ++i) {
          const int idx = s.ring_[static_cast<size_t>(
              (s.ring_head_ + i) % static_cast<int>(s.ring_.size()))];
          const int64_t d = e.slots_[static_cast<size_t>(idx)].deadline_ns;
          if (d != 0 && (victim_deadline == 0 || d < victim_deadline)) {
            victim_deadline = d;
            victim_idx = idx;
          }
        }
      }
    }
    const AdmissionAction action = decide(e.admission_, e.free_count_, obs::now_ns(),
                                          deadline_ns, victim_deadline, e.service_floor_ns_);
    if (action == AdmissionAction::kAdmit) break;
    switch (action) {
      case AdmissionAction::kReject:
        e.stat_rejected_.fetch_add(1, kRelaxed);
        e.stat_deadline_misses_.fetch_add(1, kRelaxed);
        return Ticket{-1, 0, static_cast<int8_t>(Outcome::kRejected)};
      case AdmissionAction::kShedIncoming:
        e.stat_shed_.fetch_add(1, kRelaxed);
        return Ticket{-1, 0, static_cast<int8_t>(Outcome::kShed)};
      case AdmissionAction::kEvictQueued:
        e.shed_queued_slot(victim_idx, obs::now_ns());
        [[fallthrough]];  // the evicted slot frees once its owner awaits
      case AdmissionAction::kBlock:
        e.stat_queue_full_waits_.fetch_add(1, kRelaxed);
        e.cv_free_.wait(lk, [&] { return e.free_count_ > 0 || e.stop_ || closing_; });
        break;
      case AdmissionAction::kAdmit:
        break;  // unreachable
    }
  }

  const int idx = e.free_ring_[static_cast<size_t>(e.free_head_)];
  e.free_head_ = (e.free_head_ + 1) % static_cast<int>(e.free_ring_.size());
  --e.free_count_;

  Engine::Slot& slot = e.slots_[static_cast<size_t>(idx)];
  slot.session = this;
  slot.seq = e.next_seq_++;
  slot.done = false;
  slot.failed = false;
  slot.error = nullptr;
  slot.outcome = Outcome::kServed;
  slot.retries = 0;
  slot.submit_ns = now;
  slot.deadline_ns = deadline_ns;
  slot.flush_ns = now + e.spec_.batching.max_delay_us * 1000;
  if (slot.deadline_ns != 0 && slot.deadline_ns < slot.flush_ns)
    slot.flush_ns = slot.deadline_ns;
  std::copy(chw.data(), chw.data() + chw.numel(), slot.input.data());

  ring_[static_cast<size_t>((ring_head_ + ring_count_) % static_cast<int>(ring_.size()))] = idx;
  ++ring_count_;
  ++live_slots_;
  ++e.pending_total_;
  e.cv_dispatch_.notify_one();
  return Ticket{idx, slot.seq, -1};
}

Result Session::await(const Ticket& t) {
  // Instantly-resolved tickets (shed / rejected) carry their outcome and
  // never touched a slot; synthesizing the Result here keeps them stateless
  // (awaiting one twice returns the same answer).
  if (t.instant >= 0) {
    Result r;
    r.outcome = static_cast<Outcome>(t.instant);
    r.deadline_met = false;
    r.point_name = point_names_.empty() ? name_ : point_names_.front();
    return r;
  }
  Engine& e = *engine_;
  if (t.slot < 0 || t.slot >= static_cast<int>(e.slots_.size()) || t.seq == 0)
    throw std::logic_error("Session::await: invalid ticket");
  std::unique_lock<std::mutex> lk(e.mu_);
  Engine::Slot& slot = e.slots_[static_cast<size_t>(t.slot)];
  if (slot.seq != t.seq)
    throw std::logic_error("Session::await: stale ticket (already awaited?)");
  e.cv_done_.wait(lk, [&] { return slot.done; });

  const auto release = [&] {
    slot.seq = 0;
    slot.done = false;
    slot.failed = false;
    slot.session = nullptr;
    --live_slots_;
    if (closing_ && live_slots_ == 0) e.cv_done_.notify_all();
    e.recycle_slot(t.slot);
  };

  if (slot.failed) {
    const std::exception_ptr err = slot.error;
    slot.error = nullptr;
    release();
    std::rethrow_exception(err);
  }
  Result r;
  r.outcome = slot.outcome;
  if (slot.outcome == Outcome::kServed) {
    r.logits = slot.logits;
    r.top1 = slot.top1;
  }
  r.latency_ms = slot.latency_ms;
  r.batch_size = slot.batch_size;
  r.deadline_met = slot.deadline_met;
  r.point = slot.point;
  r.point_name = point_names_[static_cast<size_t>(slot.point)];
  release();
  return r;
}

const nn::ExecContext& Session::exec_context(int lane) const {
  return exec_context(lane, active_point());
}

const nn::ExecContext& Session::exec_context(int lane, int point) const {
  return points_.at(static_cast<size_t>(point)).at(static_cast<size_t>(lane)).ctx;
}

const std::string& Session::point_name(int point) const {
  return point_names_.at(static_cast<size_t>(point));
}

int Session::active_point() const {
  std::lock_guard<std::mutex> lk(engine_->mu_);
  return active_point_;
}

void Session::set_active_point(int point) {
  Engine& e = *engine_;
  std::lock_guard<std::mutex> lk(e.mu_);
  if (!governor_)
    throw std::logic_error("Session::set_active_point: session '" + name_ +
                           "' serves a single fixed plan");
  if (point < 0 || point >= num_points())
    throw std::out_of_range("Session::set_active_point: point " + std::to_string(point) +
                            " out of range [0, " + std::to_string(num_points()) + ")");
  if (point == active_point_) return;
  const qos::Transition t = governor_->force(point, obs::now_ns());
  active_point_ = point;
  e.record_transition(*this, t);
}

std::vector<qos::Transition> Session::transitions() const {
  std::lock_guard<std::mutex> lk(engine_->mu_);
  return governor_ ? governor_->transitions() : std::vector<qos::Transition>{};
}

sentinel::SentinelReport Session::sentinel_report() const {
  // points_ is swapped by Engine::reload; hold the engine mutex so the walk
  // never observes a half-swapped layout.
  std::lock_guard<std::mutex> lk(engine_->mu_);
  sentinel::SentinelReport merged;
  for (const auto& point : points_)
    for (const auto& lane : point)
      if (lane.sentinel) merged.merge(lane.sentinel->report());
  return merged;
}

// ---------------------------------------------------------------------------
// Engine lifecycle

std::unique_ptr<Engine> Engine::load(ModelSpec spec) {
  if (spec.batching.max_batch < 1 || spec.batching.queue_capacity < spec.batching.max_batch)
    throw std::invalid_argument("Engine::load: need 1 <= max_batch <= queue_capacity");
  if (spec.lanes < 1) throw std::invalid_argument("Engine::load: lanes must be >= 1");
  spec.admission.validate();
  spec.watchdog.validate();
  if (spec.checkpoint_keep < 1)
    throw std::invalid_argument("Engine::load: checkpoint_keep must be >= 1");
  // Validate the QoS ladder before any training happens — a bad points file
  // must fail in milliseconds, not after the quantization stage.
  std::vector<qos::OperatingPointSpec> qspecs;
  if (!spec.qos_points.empty()) {
    qspecs = qos::parse_points(spec.qos_points);
    spec.governor.validate();
    if (spec.qos_holdout < 0)
      throw std::invalid_argument("Engine::load: qos_holdout must be >= 0");
    if (spec.qos_latency_probes < 1)
      throw std::invalid_argument("Engine::load: qos_latency_probes must be >= 1");
  }

  // The lane count is honored as requested: lifecycle robustness needs real
  // spare lanes (a quarantined lane's batch re-runs on another replica) even
  // on a machine with fewer cores — lane workers mostly block, so
  // oversubscription just timeshares. plan_split still sizes the intra-op
  // conv pool around the lanes that can actually run concurrently.
  const ThreadPool::Split split = ThreadPool::plan_split(spec.lanes);
  if (split.inter > 1) {
    try {
      ThreadPool::set_global_threads(split.intra);
    } catch (const std::logic_error&) {
      // Global pool already pinned; lanes still work, kernels keep its size.
    }
  }

  std::unique_ptr<Engine> e(new Engine());
  e->spec_ = spec;
  e->qos_specs_ = std::move(qspecs);
  e->t0_ns_ = obs::now_ns();
  e->admission_ = spec.admission;
  e->watchdog_ = std::make_unique<Watchdog>(spec.watchdog, spec.lanes);
  if (!spec.checkpoint_dir.empty())
    e->checkpoints_ = std::make_unique<resilience::CheckpointSet>(
        resilience::CheckpointConfig{spec.checkpoint_dir, "model", spec.checkpoint_keep});

  core::WorkbenchConfig wcfg;
  wcfg.model = spec.model;
  wcfg.profile = spec.profile;
  wcfg.data_seed = spec.data_seed;
  wcfg.model_seed = spec.model_seed;
  wcfg.use_cache = spec.use_cache;
  wcfg.verbose = spec.verbose;
  e->wb_ = std::make_unique<core::Workbench>(wcfg);
  (void)e->wb_->run_quantization_stage(spec.kd_stage1);
  if (spec.finetune) {
    // With a qos ladder the fine-tune targets the best-effort point — the
    // one the deployment serves whenever it can afford to.
    const std::string& tune_plan =
        e->qos_specs_.empty() ? spec.plan : e->qos_specs_.front().plan_text;
    (void)e->wb_->run_approximation_stage(
        core::ApproxStageSetup::with_plan(nn::NetPlan::parse(tune_plan), spec.method, spec.t2));
  }

  // Lane construction is all-or-nothing: a throw here unwinds the partially
  // built engine (unique_ptr-owned lanes) and names the lane that failed.
  for (int i = 0; i < spec.lanes; ++i) {
    try {
      e->lanes_.push_back(e->wb_->clone());
    } catch (const std::exception& ex) {
      throw std::runtime_error("Engine::load: lane " + std::to_string(i) +
                               " (clone): " + ex.what());
    }
  }

  const data::Dataset& test = e->wb_->data().test;
  e->chw_ = test.channels() * test.height() * test.width();

  Session& def = e->open_session("default", "");

  // Probe once through lane 0: pins num_classes and warms the conv geometry
  // caches for the single-sample shape.
  const Tensor probe =
      e->lanes_[0]->forward(test.slice(0, 1).first, def.exec_context(0));
  e->num_classes_ = static_cast<int>(probe.shape()[probe.shape().rank() - 1]);

  if (e->qos_enabled()) {
    // Calibrate per-point metadata on lane 0, then rebuild the default
    // session's governor over the measured ladder (no ticks have run yet;
    // sessions opened later get the measured metadata directly).
    e->measure_point_metadata(def);
    def.governor_ = std::make_unique<qos::Governor>(spec.governor, e->points_meta_);
  }
  e->calibrate_service_estimates(def);
  e->capture_golden(def);
  if (e->checkpoints_) (void)e->save_checkpoint();

  if (spec.prewarm) e->prewarm_points(def.points_);

  const int cap = spec.batching.queue_capacity;
  e->slots_.resize(static_cast<size_t>(cap));
  e->free_ring_.resize(static_cast<size_t>(cap));
  for (int i = 0; i < cap; ++i) {
    e->slots_[static_cast<size_t>(i)].input = Tensor(Shape{e->chw_});
    e->slots_[static_cast<size_t>(i)].logits = Tensor(Shape{e->num_classes_});
    e->free_ring_[static_cast<size_t>(i)] = i;
  }
  e->free_count_ = cap;

  e->works_.resize(static_cast<size_t>(spec.lanes));
  for (auto& w : e->works_) w.slots.resize(static_cast<size_t>(spec.batching.max_batch));

  e->lane_state_ = std::vector<LaneState>(static_cast<size_t>(spec.lanes));
  for (int i = 0; i < spec.lanes; ++i)
    e->lane_state_[static_cast<size_t>(i)].worker =
        std::thread([raw = e.get(), i] { raw->lane_loop(i); });
  e->dispatcher_ = std::thread([raw = e.get()] { raw->dispatcher_loop(); });
  return e;
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_dispatch_.notify_all();
  cv_lane_.notify_all();
  cv_free_.notify_all();
  cv_done_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  for (auto& ls : lane_state_)
    if (ls.worker.joinable()) ls.worker.join();
}

std::vector<std::vector<Session::Lane>> Engine::build_points(
    const std::string& name, const std::vector<qos::OperatingPointSpec>& pts) {
  std::vector<std::vector<Session::Lane>> points;
  for (size_t pi = 0; pi < pts.size(); ++pi) {
    // A failure anywhere below leaks nothing (the half-built state is
    // value-owned and never installed) and names the point, lane and stage
    // that failed. Validation errors stay std::invalid_argument.
    const auto context = [&](size_t lane, const char* stage) {
      return "serve: session '" + name + "' point '" + pts[pi].name + "' lane " +
             std::to_string(lane) + " (" + stage + "): ";
    };
    const nn::NetPlan plan = [&] {
      try {
        return nn::NetPlan::parse(pts[pi].plan_text);
      } catch (const std::exception& ex) {
        throw std::invalid_argument(context(0, "parse") + ex.what());
      }
    }();
    std::vector<Session::Lane> lanes;
    for (size_t i = 0; i < lanes_.size(); ++i) {
      const char* stage = "resolve";
      try {
        Session::Lane lane;
        // Serving never fits GE (default ResolveOptions: fits are
        // training-only and plan_leaf_exec ignores them in eval contexts) —
        // resolution cost stays table-building only.
        lane.resolution = std::make_unique<nn::PlanResolution>(plan.resolve(*lanes_[i]));
        stage = "validate";
        lane.resolution->require_approximable();
        lane.resolution->require_bit_widths();
        lane.ctx =
            nn::ExecContext{.mode = nn::ExecMode::kQuantApprox}.with_plan(*lane.resolution);
        if (spec_.sentinel) {
          stage = "sentinel-calibrate";
          lane.sentinel = std::make_unique<sentinel::Sentinel>(spec_.sentinel_config);
          lane.sentinel->calibrate_plan(*lane.resolution);
          lane.ctx = lane.ctx.with_monitor(*lane.sentinel);
        }
        lanes.push_back(std::move(lane));
      } catch (const std::invalid_argument& ex) {
        throw std::invalid_argument(context(i, stage) + ex.what());
      } catch (const std::exception& ex) {
        throw std::runtime_error(context(i, stage) + ex.what());
      }
    }
    points.push_back(std::move(lanes));
  }
  return points;
}

Session& Engine::open_session(const std::string& name, const std::string& plan_text) {
  std::lock_guard<std::mutex> rlk(reload_mu_);
  for (const auto& s : sessions_)
    if (s->name() == name)
      throw std::invalid_argument("Engine::open_session: duplicate session '" + name + "'");

  // An empty plan serves the engine default: the qos ladder when one is
  // configured, spec.plan otherwise. A non-empty plan pins the session to
  // that single point (no governor), qos or not.
  const bool ladder = qos_enabled() && plan_text.empty();
  std::vector<qos::OperatingPointSpec> pts;
  if (ladder)
    pts = qos_specs_;
  else
    pts.push_back(qos::OperatingPointSpec{name, plan_text.empty() ? spec_.plan : plan_text});

  auto session = std::unique_ptr<Session>(new Session());
  session->engine_ = this;
  session->name_ = name;
  session->ladder_ = ladder;
  session->plan_text_ = ladder ? qos::to_text(qos_specs_) : pts.front().plan_text;
  session->ring_.resize(static_cast<size_t>(spec_.batching.queue_capacity));
  session->requests_per_point_.assign(pts.size(), 0);
  for (const auto& p : pts) session->point_names_.push_back(p.name);
  session->points_ = build_points(name, pts);

  if (ladder) {
    // The ladder metadata may not be measured yet (the default session is
    // opened before measure_point_metadata runs; load() rebuilds its
    // governor afterwards). Fall back to name-only metadata.
    std::vector<qos::OperatingPoint> meta = points_meta_;
    if (meta.empty())
      for (const auto& p : pts) meta.push_back(qos::OperatingPoint{p.name, p.plan_text});
    session->governor_ = std::make_unique<qos::Governor>(spec_.governor, std::move(meta));
  }

  std::lock_guard<std::mutex> lk(mu_);
  sessions_.push_back(std::move(session));
  return *sessions_.back();
}

void Engine::close_session(const std::string& name) {
  if (name == "default")
    throw std::invalid_argument("Engine::close_session: the default session cannot be closed");
  std::lock_guard<std::mutex> rlk(reload_mu_);
  std::unique_lock<std::mutex> lk(mu_);
  Session* target = nullptr;
  for (const auto& sp : sessions_)
    if (sp->name() == name) target = sp.get();
  if (!target)
    throw std::invalid_argument("Engine::close_session: no session '" + name + "'");
  if (target->closing_)
    throw std::logic_error("Engine::close_session: session '" + name + "' already closing");
  // Flip closing_ first so racing submits start throwing, then wait for
  // every slot the session still owns (queued, in flight, or done but not
  // yet awaited) to come home. Queued work still executes — close is a
  // drain, not an abort.
  target->closing_ = true;
  cv_free_.notify_all();  // wake submits blocked on backpressure
  cv_done_.wait(lk, [&] { return target->live_slots_ == 0 || stop_; });
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->get() == target) {
      sessions_.erase(it);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Calibration

void Engine::measure_point_metadata(Session& def) {
  const data::Dataset& test = wb_->data().test;
  const Tensor probe_img = test.slice(0, 1).first;
  const axmul::MultiplierSpec exact_spec = axmul::find_spec("exact").value();

  // Holdout split: the tail of the test set, disjoint from the head that
  // accuracy benches/evaluate_accuracy conventionally sample first.
  const int64_t h = std::min<int64_t>(spec_.qos_holdout, test.size());
  data::Dataset holdout;
  if (h > 0) {
    auto sl = test.slice(test.size() - h, h);
    holdout.images = sl.first;
    holdout.labels = std::move(sl.second);
  }

  points_meta_.clear();
  for (size_t p = 0; p < qos_specs_.size(); ++p) {
    const nn::PlanResolution& res = *def.points_[p][0].resolution;
    // Metadata forwards run without the sentinel monitor so calibration
    // passes never pollute serving-side violation counters.
    const nn::ExecContext ctx =
        nn::ExecContext{.mode = nn::ExecMode::kQuantApprox}.with_plan(res);

    qos::OperatingPoint op{qos_specs_[p].name, qos_specs_[p].plan_text};

    // Latency: mean of single-sample forwards on lane 0 (also refreshes
    // each leaf's last_mac_count for the energy estimate below).
    const int64_t t0 = obs::now_ns();
    for (int r = 0; r < spec_.qos_latency_probes; ++r) (void)lanes_[0]->forward(probe_img, ctx);
    op.latency_est_ms = static_cast<double>(obs::now_ns() - t0) / 1e6 /
                        static_cast<double>(spec_.qos_latency_probes);

    std::vector<std::pair<int64_t, axmul::MultiplierSpec>> shares;
    for (const auto& en : res.entries()) {
      const bool exact_mode = en.plan.mode.has_value() && *en.plan.mode != nn::ExecMode::kQuantApprox;
      shares.emplace_back(en.layer->last_mac_count(),
                          (exact_mode || en.plan.multiplier.empty())
                              ? exact_spec
                              : axmul::find_spec(en.plan.multiplier).value());
    }
    const energy::EnergyEstimate est = energy::estimate_mixed(shares);
    op.energy_per_req = est.approx_energy;
    op.energy_savings_pct = est.savings_pct;

    if (h > 0) op.holdout_acc = train::evaluate_accuracy(*lanes_[0], holdout, ctx, 32);
    points_meta_.push_back(std::move(op));
  }
}

void Engine::calibrate_service_estimates(Session& def) {
  // Admission floor: the fastest point's single-request estimate — a
  // deadline is infeasible only when *no* point can meet it. Watchdog
  // budget: the slowest point's estimate scaled to a full batch.
  double fastest_ms = 0.0, slowest_ms = 0.0;
  if (!points_meta_.empty()) {
    for (const auto& op : points_meta_) {
      if (fastest_ms == 0.0 || op.latency_est_ms < fastest_ms) fastest_ms = op.latency_est_ms;
      slowest_ms = std::max(slowest_ms, op.latency_est_ms);
    }
  } else {
    // Single-plan engine: probe the default plan directly on lane 0 (the
    // monitor is stripped so calibrated sentinel counters stay clean).
    const Tensor probe_img = wb_->data().test.slice(0, 1).first;
    nn::ExecContext ctx = def.points_[0][0].ctx;
    ctx.monitor = nullptr;
    const int probes = std::max(1, spec_.qos_latency_probes);
    const int64_t t0 = obs::now_ns();
    for (int r = 0; r < probes; ++r) (void)lanes_[0]->forward(probe_img, ctx);
    fastest_ms = slowest_ms =
        static_cast<double>(obs::now_ns() - t0) / 1e6 / static_cast<double>(probes);
  }
  service_floor_ns_ = static_cast<int64_t>(fastest_ms * 1e6);
  watchdog_->set_calibrated_budget_ns(static_cast<int64_t>(
      spec_.watchdog.budget_factor * slowest_ms * 1e6 * spec_.batching.max_batch));
}

void Engine::capture_golden(Session& def) {
  // The probation reference: one test image and its exact logits under the
  // default session's point 0 on lane 0. Every lane replica is a clone of
  // the same weights running the same deterministic kernels, so a healthy
  // lane reproduces these logits bit-exactly; a corrupted replica cannot.
  golden_input_ = wb_->data().test.slice(0, 1).first;
  nn::ExecContext ctx = def.points_[0][0].ctx;
  ctx.monitor = nullptr;
  golden_logits_ = lanes_[0]->forward(golden_input_, ctx);
}

void Engine::prewarm_points(const std::vector<std::vector<Session::Lane>>& points) {
  // Resolve every plan served traffic can need — each (point, lane, batch
  // size) combination maps to a fixed set of GEMM shapes — so the
  // dispatcher's steady state is pure plan execution: no cache mutex, no
  // plan construction, no heap allocation. Zero inputs: plans are keyed by
  // shape and multiplier, never by operand values. The warm-up context
  // drops the sentinel monitor so calibrated check counters stay clean.
  const data::Dataset& test = wb_->data().test;
  const auto warm_all = [&] {
    for (const auto& point : points) {
      for (size_t lane = 0; lane < lanes_.size(); ++lane) {
        nn::ExecContext warm_ctx = point[lane].ctx;
        warm_ctx.monitor = nullptr;
        for (int b = 1; b <= spec_.batching.max_batch; ++b) {
          const Tensor warm(Shape{b, test.channels(), test.height(), test.width()}, 0.0f);
          (void)lanes_[lane]->forward(warm, warm_ctx);
        }
      }
    }
  };
  // The global plan cache must hold the whole warm set, or served traffic
  // would miss and build plans again. When the warm-up evicted, every plan
  // it touched is either still cached or was evicted after its last use, so
  // size + evictions bounds the set: grow the capacity to that (never
  // shrink it) and warm again.
  kernels::PlanCache& cache = kernels::PlanCache::global();
  const int64_t evicted_before = cache.stats().evictions;
  warm_all();
  const kernels::PlanCacheStats after = cache.stats();
  if (after.evictions > evicted_before) {
    cache.set_capacity(static_cast<size_t>(
        std::max(after.capacity, after.size + after.evictions - evicted_before)));
    warm_all();
  }
}

// ---------------------------------------------------------------------------
// Reload & checkpoints

void Engine::reload(const ReloadSpec& r) {
  // One lifecycle mutation at a time; open_session/close_session also hold
  // reload_mu_, so the session list is frozen for the whole reload.
  std::lock_guard<std::mutex> rlk(reload_mu_);

  // --- Stage & validate: everything that can fail, fails here, before
  // serving is disturbed in any way. ---
  if (r.from_checkpoint && !r.weights.empty())
    throw std::invalid_argument("Engine::reload: weights and from_checkpoint are exclusive");
  if (r.from_checkpoint && !checkpoints_)
    throw std::logic_error("Engine::reload: engine was loaded without checkpoint_dir");
  if (!r.qos_points.empty() && qos_specs_.empty())
    throw std::logic_error("Engine::reload: engine was loaded without a qos ladder");
  std::vector<qos::OperatingPointSpec> new_specs;
  if (!r.qos_points.empty()) new_specs = qos::parse_points(r.qos_points);
  if (!r.plan.empty()) (void)nn::NetPlan::parse(r.plan);

  // Weights are validated into a scratch clone first: the AXNP CRC and
  // shape checks (and, for checkpoints, the generation fallback walk) all
  // happen against throwaway state.
  std::string weights_path;
  if (r.from_checkpoint) {
    auto scratch = wb_->clone();
    weights_path =
        checkpoints_->load_latest([&](const std::string& p) { nn::load_params(*scratch, p); });
  } else if (!r.weights.empty()) {
    auto scratch = wb_->clone();
    nn::load_params(*scratch, r.weights);
    weights_path = r.weights;
  }
  const bool weights_changed = !weights_path.empty();
  const bool ladder_changed = !new_specs.empty();

  // --- Pause dispatch and wait out the in-flight epoch. Queued requests
  // stay queued (they will execute under the new configuration); in-flight
  // batches finish normally under the old one — nothing fails. ---
  std::unique_lock<std::mutex> lk(mu_);
  reload_pending_ = true;
  cv_dispatch_.notify_all();
  cv_dispatch_.wait(lk, [&] {
    if (inflight_ != 0) return false;
    for (const auto& ls : lane_state_)
      if (ls.busy) return false;
    return true;
  });

  try {
    // --- Heavy rebuild, off the dispatch mutex (submits keep queueing).
    // No forward can run: dispatch is paused, probes are gated on
    // !reload_pending_, and every lane is idle. ---
    lk.unlock();
    if (weights_changed)
      for (auto& lane : lanes_) nn::load_params(*lane, weights_path);
    if (ladder_changed) qos_specs_ = new_specs;
    if (!r.plan.empty()) spec_.plan = r.plan;

    struct Staged {
      Session* session;
      std::vector<std::string> names;
      std::vector<std::vector<Session::Lane>> points;
    };
    std::vector<Staged> staged;
    for (const auto& sp : sessions_) {
      Session& s = *sp;
      std::vector<qos::OperatingPointSpec> pts;
      if (s.ladder_)
        pts = qos_specs_;
      else if (s.name_ == "default")
        pts.push_back(qos::OperatingPointSpec{s.name_, spec_.plan});
      else
        pts.push_back(qos::OperatingPointSpec{s.name_, s.plan_text_});
      Staged st;
      st.session = &s;
      for (const auto& p : pts) st.names.push_back(p.name);
      // Rebuilds resolutions AND recalibrates sentinels: new weights mean
      // new golden checksums, so the old calibration is void.
      st.points = build_points(s.name_, pts);
      staged.push_back(std::move(st));
    }

    // --- Swap: the epoch flip. Every session's serving state changes in
    // one critical section; the first post-reload batch is gathered against
    // the new points. ---
    lk.lock();
    for (auto& st : staged) {
      Session& s = *st.session;
      std::swap(s.points_, st.points);
      s.point_names_ = std::move(st.names);
      if (s.ladder_) s.plan_text_ = qos::to_text(qos_specs_);
      else if (s.name_ == "default") s.plan_text_ = spec_.plan;
      s.active_point_ = 0;
      s.requests_per_point_.assign(s.point_names_.size(), 0);
      s.lat_count_ = 0;
      s.lat_idx_ = 0;
      s.last_sent_checks_ = 0;
      s.last_sent_violations_ = 0;
      s.last_sent_degraded_ = 0;
    }
    lk.unlock();

    // --- Recalibrate the derived state against the new epoch (dispatch is
    // still paused, so lane 0 is free for metadata forwards). ---
    Session& def = *sessions_.front();
    if (qos_enabled() && (weights_changed || ladder_changed || r.remeasure))
      measure_point_metadata(def);
    for (const auto& sp : sessions_)
      if (sp->ladder_)
        sp->governor_ = std::make_unique<qos::Governor>(spec_.governor, points_meta_);
    calibrate_service_estimates(def);
    capture_golden(def);
    if (spec_.prewarm) prewarm_points(def.points_);

    lk.lock();
  } catch (...) {
    // Staging already validated everything that can reasonably fail; if the
    // rebuild still threw, resuming dispatch on half-swapped state would
    // serve garbage. Fail loudly instead.
    if (!lk.owns_lock()) lk.lock();
    reload_pending_ = false;
    cv_dispatch_.notify_all();
    throw;
  }
  stat_reloads_.fetch_add(1, kRelaxed);
  reload_pending_ = false;
  cv_dispatch_.notify_all();
  lk.unlock();
  emit_lifecycle_event("reload", -1,
                       weights_changed ? ("weights=" + weights_path) : "plans");
}

std::string Engine::save_checkpoint() {
  if (!checkpoints_)
    throw std::logic_error("Engine::save_checkpoint: engine was loaded without checkpoint_dir");
  // reload_mu_ keeps a concurrent reload from swapping weights mid-save;
  // forwards never mutate parameters, so serving can continue.
  std::lock_guard<std::mutex> rlk(reload_mu_);
  return checkpoints_->save(
      [&](const std::string& path) { nn::save_params(*lanes_[0], path); });
}

// ---------------------------------------------------------------------------
// Runtime configuration & introspection

void Engine::set_admission(const AdmissionConfig& cfg) {
  cfg.validate();
  std::lock_guard<std::mutex> lk(mu_);
  admission_ = cfg;
  // A policy flip away from kBlock should release currently-parked submits
  // so they re-decide under the new policy.
  cv_free_.notify_all();
}

AdmissionConfig Engine::admission() const {
  std::lock_guard<std::mutex> lk(mu_);
  return admission_;
}

void Engine::set_watchdog(const WatchdogConfig& cfg) {
  cfg.validate();
  std::lock_guard<std::mutex> lk(mu_);
  watchdog_->set_config(cfg);
  cv_dispatch_.notify_all();
}

LaneHealth Engine::lane_health(int lane) const {
  std::lock_guard<std::mutex> lk(mu_);
  return watchdog_->health(lane);
}

int Engine::healthy_lanes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return watchdog_->healthy();
}

int64_t Engine::service_floor_ns() const {
  std::lock_guard<std::mutex> lk(mu_);
  return service_floor_ns_;
}

void Engine::set_chaos(std::function<void(int lane, int64_t lane_batch)> hook) {
  std::lock_guard<std::mutex> lk(mu_);
  chaos_ = std::move(hook);
}

nn::Sequential& Engine::model(int lane) { return *lanes_.at(static_cast<size_t>(lane)); }

const data::SyntheticCifar& Engine::data() const { return wb_->data(); }

EngineStats Engine::stats() const {
  EngineStats s;
  s.requests = stat_requests_.load(kRelaxed);
  s.batches = stat_batches_.load(kRelaxed);
  s.flush_full = stat_flush_full_.load(kRelaxed);
  s.flush_timer = stat_flush_timer_.load(kRelaxed);
  s.max_batch = stat_max_batch_.load(kRelaxed);
  s.mean_batch = s.batches > 0
                     ? static_cast<double>(stat_sum_batch_.load(kRelaxed)) /
                           static_cast<double>(s.batches)
                     : 0.0;
  s.deadline_misses = stat_deadline_misses_.load(kRelaxed);
  s.queue_full_waits = stat_queue_full_waits_.load(kRelaxed);
  s.qos_transitions = stat_qos_transitions_.load(kRelaxed);
  s.shed = stat_shed_.load(kRelaxed);
  s.rejected = stat_rejected_.load(kRelaxed);
  s.failed_requests = stat_failed_requests_.load(kRelaxed);
  s.quarantines = stat_quarantines_.load(kRelaxed);
  s.readmissions = stat_readmissions_.load(kRelaxed);
  s.lanes_quarantined = stat_lanes_quarantined_.load(kRelaxed);
  s.requeued_batches = stat_requeued_batches_.load(kRelaxed);
  s.discarded_batches = stat_discarded_batches_.load(kRelaxed);
  s.probes = stat_probes_.load(kRelaxed);
  s.reloads = stat_reloads_.load(kRelaxed);
  return s;
}

qos::QosReport Engine::qos_report() const {
  std::lock_guard<std::mutex> lk(mu_);
  qos::QosReport r;
  r.points = points_meta_;
  r.t0_ns = t0_ns_;
  const int64_t now = obs::now_ns();
  for (const auto& sp : sessions_) {
    const Session& s = *sp;
    if (!s.governor_) continue;
    qos::SessionQos q;
    q.session = s.name_;
    q.active = s.active_point_;
    q.requests_per_point = s.requests_per_point_;
    q.time_in_point_ms = s.governor_->time_in_point_ms(now);
    q.transitions = s.governor_->transitions();
    r.sessions.push_back(std::move(q));
  }
  return r;
}

void Engine::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return (pending_total_ == 0 && inflight_ == 0) || stop_; });
}

// ---------------------------------------------------------------------------
// Slot bookkeeping (engine mutex held)

void Engine::recycle_slot(int idx) {
  Slot& slot = slots_[static_cast<size_t>(idx)];
  if (slot.pinned > 0) {
    // An abandoned straggler may still read this slot's input; hand it back
    // to the pool only when the last pin drops (unpin_slot).
    slot.free_pending = true;
    return;
  }
  free_ring_[static_cast<size_t>((free_head_ + free_count_) %
                                 static_cast<int>(free_ring_.size()))] = idx;
  ++free_count_;
  cv_free_.notify_one();
}

void Engine::unpin_slot(int idx) {
  Slot& slot = slots_[static_cast<size_t>(idx)];
  if (--slot.pinned > 0) return;
  if (slot.free_pending) {
    slot.free_pending = false;
    free_ring_[static_cast<size_t>((free_head_ + free_count_) %
                                   static_cast<int>(free_ring_.size()))] = idx;
    ++free_count_;
    cv_free_.notify_one();
  }
}

void Engine::resolve_slot_failed(Slot& slot, std::exception_ptr error, int64_t now) {
  slot.failed = true;
  slot.error = error ? error
                     : std::make_exception_ptr(std::runtime_error(
                           "serve: request abandoned after " + std::to_string(slot.retries) +
                           " re-dispatches (lane budget overruns)"));
  slot.done = true;
  slot.latency_ms = static_cast<double>(now - slot.submit_ns) / 1e6;
  stat_failed_requests_.fetch_add(1, kRelaxed);
}

void Engine::shed_queued_slot(int idx, int64_t now) {
  Slot& slot = slots_[static_cast<size_t>(idx)];
  Session& s = *slot.session;
  // Unlink from the session's pending ring, preserving order of the rest.
  const int size = static_cast<int>(s.ring_.size());
  int pos = -1;
  for (int i = 0; i < s.ring_count_; ++i)
    if (s.ring_[static_cast<size_t>((s.ring_head_ + i) % size)] == idx) {
      pos = i;
      break;
    }
  if (pos < 0) return;  // raced off the ring; caller re-decides
  for (int i = pos; i + 1 < s.ring_count_; ++i)
    s.ring_[static_cast<size_t>((s.ring_head_ + i) % size)] =
        s.ring_[static_cast<size_t>((s.ring_head_ + i + 1) % size)];
  --s.ring_count_;
  --pending_total_;
  slot.outcome = Outcome::kShed;
  slot.done = true;
  slot.deadline_met = false;
  slot.batch_size = 0;
  slot.top1 = -1;
  slot.point = s.active_point_;
  slot.latency_ms = static_cast<double>(now - slot.submit_ns) / 1e6;
  stat_shed_.fetch_add(1, kRelaxed);
  cv_done_.notify_all();
}

void Engine::requeue_work(BatchWork& work, std::exception_ptr error, bool pin, int64_t now) {
  // Re-insert at the ring *front*, reverse order, so the batch's requests
  // keep their original FIFO position for the re-dispatch.
  for (int i = work.count - 1; i >= 0; --i) {
    const int idx = work.slots[static_cast<size_t>(i)];
    Slot& slot = slots_[static_cast<size_t>(idx)];
    if (pin) ++slot.pinned;
    if (++slot.retries > watchdog_->config().max_retries) {
      resolve_slot_failed(slot, error, now);
      continue;
    }
    Session& s = *slot.session;
    const int size = static_cast<int>(s.ring_.size());
    s.ring_head_ = (s.ring_head_ - 1 + size) % size;
    s.ring_[static_cast<size_t>(s.ring_head_)] = idx;
    ++s.ring_count_;
    ++pending_total_;
  }
  --inflight_;
  stat_requeued_batches_.fetch_add(1, kRelaxed);
  cv_done_.notify_all();
  cv_dispatch_.notify_one();
}

void Engine::quarantine_lane(int lane, int64_t now, const std::string& reason) {
  if (!watchdog_->quarantine(lane, now, reason)) return;
  stat_quarantines_.fetch_add(1, kRelaxed);
  stat_lanes_quarantined_.fetch_add(1, kRelaxed);
  emit_lifecycle_event("lane_quarantined", lane, reason);
}

void Engine::emit_lifecycle_event(const char* type, int lane, const std::string& detail) {
  if (!obs::enabled()) return;
  obs::Json ev = obs::Json::object();
  ev["type"] = type;
  if (lane >= 0) ev["lane"] = lane;
  ev["detail"] = detail;
  ev["t_ms"] = static_cast<double>(obs::now_ns() - t0_ns_) / 1e6;
  obs::collector()->event(std::move(ev));
}

// ---------------------------------------------------------------------------
// Dispatcher & lane workers

void Engine::gather_batch(Session& s, BatchWork& work, int64_t now) {
  const int take = std::min(s.ring_count_, spec_.batching.max_batch);
  work.session = &s;
  work.count = take;
  work.timer_flush = s.ring_count_ < spec_.batching.max_batch;
  work.abandoned = false;
  // Epoch flip: stamp the active point now, under the mutex. The batch
  // executes entirely under this point even if the governor (or a manual
  // set_active_point) moves the session before it finishes.
  work.point = s.active_point_;
  for (int i = 0; i < take; ++i) {
    const int idx = s.ring_[static_cast<size_t>(s.ring_head_)];
    s.ring_head_ = (s.ring_head_ + 1) % static_cast<int>(s.ring_.size());
    work.slots[static_cast<size_t>(i)] = idx;
  }
  s.ring_count_ -= take;
  pending_total_ -= take;
  ++inflight_;
  (void)now;
}

void Engine::execute_batch(BatchWork& work) {
  Session& s = *work.session;
  const int b = work.count;
  Tensor batch(Shape{b, wb_->data().test.channels(), wb_->data().test.height(),
                     wb_->data().test.width()});
  for (int i = 0; i < b; ++i) {
    const Slot& slot = slots_[static_cast<size_t>(work.slots[static_cast<size_t>(i)])];
    std::copy(slot.input.data(), slot.input.data() + chw_, batch.data() + i * chw_);
  }
  Tensor out;
  std::exception_ptr error;
  const int64_t t0 = obs::enabled() ? obs::now_ns() : 0;
  try {
    if (chaos_) chaos_(work.lane, work.lane_batch);
    out = lanes_[static_cast<size_t>(work.lane)]->forward(batch,
                                                          s.exec_context(work.lane, work.point));
    if (out.numel() != static_cast<int64_t>(b) * num_classes_)
      throw std::logic_error("serve: unexpected logits shape from lane forward");
  } catch (...) {
    error = std::current_exception();
  }
  if (obs::enabled() && !error) {
    obs::Collector* c = obs::collector();
    c->add("serve/" + s.name(), "batch.size", static_cast<double>(b));
    c->add("serve/" + s.name(), "batch.ns", static_cast<double>(obs::now_ns() - t0));
  }
  finish_batch(work, error ? nullptr : &out, error);
}

void Engine::finish_batch(BatchWork& work, const Tensor* logits, std::exception_ptr error) {
  const int64_t now = obs::now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  LaneState& ls = lane_state_[static_cast<size_t>(work.lane)];

  if (work.abandoned) {
    // The watchdog already re-queued this batch on a healthy lane; whatever
    // the straggler computed is stale. Drop the pins so the slots can
    // recycle, discard the result, free the lane (it stays quarantined
    // until probation clears it).
    for (int i = 0; i < work.count; ++i) unpin_slot(work.slots[static_cast<size_t>(i)]);
    stat_discarded_batches_.fetch_add(1, kRelaxed);
    ls.busy = false;
    cv_dispatch_.notify_all();
    return;
  }

  Session& sess = *work.session;
  if (error) {
    // A faulting lane is a sick lane: quarantine it and give the batch's
    // requests another chance on a healthy replica (bounded by the per-slot
    // retry budget — requests from a poisoned *input* would otherwise
    // bounce forever).
    std::string what = "execution fault";
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& ex) {
      what = std::string("execution fault: ") + ex.what();
    } catch (...) {
    }
    quarantine_lane(work.lane, now, what);
    requeue_work(work, error, /*pin=*/false, now);
    ls.busy = false;
    cv_dispatch_.notify_all();
    return;
  }

  for (int i = 0; i < work.count; ++i) {
    Slot& slot = slots_[static_cast<size_t>(work.slots[static_cast<size_t>(i)])];
    const float* row = logits->data() + static_cast<int64_t>(i) * num_classes_;
    std::copy(row, row + num_classes_, slot.logits.data());
    slot.top1 = argmax_row(row, num_classes_);
    slot.outcome = Outcome::kServed;
    slot.batch_size = work.count;
    slot.point = work.point;
    slot.latency_ms = static_cast<double>(now - slot.submit_ns) / 1e6;
    slot.deadline_met = slot.deadline_ns == 0 || now <= slot.deadline_ns;
    if (!slot.deadline_met) stat_deadline_misses_.fetch_add(1, kRelaxed);
    slot.done = true;
    // Feed the governor's latency window (fixed ring, no allocation).
    sess.lat_win_[static_cast<size_t>(sess.lat_idx_)] = slot.latency_ms;
    sess.lat_idx_ = (sess.lat_idx_ + 1) % static_cast<int>(sess.lat_win_.size());
    sess.lat_count_ = std::min(sess.lat_count_ + 1, static_cast<int>(sess.lat_win_.size()));
  }
  sess.requests_per_point_[static_cast<size_t>(work.point)] += work.count;
  if (sess.ladder_ && !points_meta_.empty())
    sess.energy_accum_ +=
        points_meta_[static_cast<size_t>(work.point)].energy_per_req * work.count;

  // Sentinel strike detection: a lane whose batches keep tripping the
  // sentinel has a replica-local problem (the other lanes run the same
  // plan over the same weights without violations) — strike it out.
  Session::Lane& lane_ctx =
      sess.points_[static_cast<size_t>(work.point)][static_cast<size_t>(work.lane)];
  if (lane_ctx.sentinel) {
    const int64_t total = lane_ctx.sentinel->total_violations();
    const int64_t delta = total - lane_ctx.last_violations;
    lane_ctx.last_violations = total;
    if (watchdog_->on_batch_violations(work.lane, delta, now)) {
      stat_quarantines_.fetch_add(1, kRelaxed);
      stat_lanes_quarantined_.fetch_add(1, kRelaxed);
      emit_lifecycle_event("lane_quarantined", work.lane, watchdog_->lane(work.lane).reason);
    }
  }

  --inflight_;
  stat_batches_.fetch_add(1, kRelaxed);
  stat_requests_.fetch_add(work.count, kRelaxed);
  stat_sum_batch_.fetch_add(work.count, kRelaxed);
  int64_t prev_max = stat_max_batch_.load(kRelaxed);
  while (prev_max < work.count &&
         !stat_max_batch_.compare_exchange_weak(prev_max, work.count, kRelaxed)) {
  }
  if (work.timer_flush)
    stat_flush_timer_.fetch_add(1, kRelaxed);
  else
    stat_flush_full_.fetch_add(1, kRelaxed);
  ls.busy = false;
  cv_done_.notify_all();
  cv_dispatch_.notify_all();
}

bool Engine::run_probe(int lane) {
  // The default session's point 0 context on this lane, monitor stripped
  // (a probe must not disturb sentinel counters). The copy happens under
  // mu_ (open_session may grow sessions_ concurrently); reload cannot swap
  // the contexts mid-probe — the lane is busy, and reload waits for idle.
  nn::ExecContext ctx;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ctx = sessions_.front()->points_[0][static_cast<size_t>(lane)].ctx;
    ctx.monitor = nullptr;
  }
  bool pass = false;
  try {
    const Tensor out = lanes_[static_cast<size_t>(lane)]->forward(golden_input_, ctx);
    pass = out.numel() == golden_logits_.numel() &&
           std::equal(out.data(), out.data() + out.numel(), golden_logits_.data());
  } catch (...) {
    pass = false;
  }

  const int64_t now = obs::now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  stat_probes_.fetch_add(1, kRelaxed);
  if (watchdog_->on_probe_result(lane, pass, now)) {
    stat_readmissions_.fetch_add(1, kRelaxed);
    stat_lanes_quarantined_.fetch_sub(1, kRelaxed);
    emit_lifecycle_event("lane_readmitted", lane, "probation passed");
  }
  LaneState& ls = lane_state_[static_cast<size_t>(lane)];
  ls.busy = false;
  ls.probe = false;
  cv_dispatch_.notify_all();
  return pass;
}

void Engine::lane_loop(int lane) {
  LaneState& ls = lane_state_[static_cast<size_t>(lane)];
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    cv_lane_.wait(lk, [&] { return stop_ || ls.busy; });
    if (stop_) return;
    const bool probe = ls.probe;
    lk.unlock();
    if (probe)
      (void)run_probe(lane);
    else
      execute_batch(works_[static_cast<size_t>(lane)]);
    lk.lock();
  }
}

void Engine::watchdog_tick(int64_t now) {
  const WatchdogConfig& cfg = watchdog_->config();
  for (int i = 0; i < static_cast<int>(lane_state_.size()); ++i) {
    LaneState& ls = lane_state_[static_cast<size_t>(i)];
    BatchWork& work = works_[static_cast<size_t>(i)];
    if (cfg.enabled && ls.busy && !ls.probe && !work.abandoned &&
        watchdog_->overdue(ls.busy_since_ns, now)) {
      // Straggler: the lane blew its batch budget. Abandon the batch — the
      // slots go back to the front of their queue (pinned: the straggler
      // may still be reading their inputs) and re-run on a healthy lane;
      // the straggler's eventual result is discarded in finish_batch.
      work.abandoned = true;
      quarantine_lane(i, now,
                      "batch budget overrun (> " +
                          std::to_string(watchdog_->budget_ns() / 1'000'000) + "ms)");
      requeue_work(work, nullptr, /*pin=*/true, now);
    }
    if (!ls.busy && !reload_pending_ && watchdog_->health(i) == LaneHealth::kQuarantined &&
        watchdog_->probe_due(i, now)) {
      ls.busy = true;
      ls.probe = true;
      ls.busy_since_ns = now;
      watchdog_->probe_started(i, now);
      cv_lane_.notify_all();
    }
  }
}

void Engine::governor_tick(int64_t now) {
  const double dt_s =
      last_gov_tick_ns_ > 0 ? static_cast<double>(now - last_gov_tick_ns_) / 1e9 : 0.0;
  for (auto& sp : sessions_) {
    Session& s = *sp;
    if (!s.governor_) continue;
    qos::GovernorSignals sig;
    sig.now_ns = now;
    if (s.lat_count_ > 0) {
      // p95 of the completed-request window; fixed-size scratch, no heap.
      std::array<double, 128> tmp;
      const int n = s.lat_count_;
      std::copy(s.lat_win_.begin(), s.lat_win_.begin() + n, tmp.begin());
      const int k = std::min(n - 1, static_cast<int>(std::ceil(0.95 * n)) - 1);
      std::nth_element(tmp.begin(), tmp.begin() + std::max(0, k), tmp.begin() + n);
      sig.p95_ms = tmp[static_cast<size_t>(std::max(0, k))];
    }
    sig.queue_depth = s.ring_count_;
    // queue_full_waits is pool-global (slots are shared), so every governed
    // session sees the engine-wide backpressure — shedding anywhere helps.
    const int64_t waits = stat_queue_full_waits_.load(kRelaxed);
    sig.queue_full_waits = waits - s.last_queue_full_waits_;
    s.last_queue_full_waits_ = waits;
    if (dt_s > 0)
      sig.energy_rate = (s.energy_accum_ - s.last_energy_accum_) / dt_s;
    s.last_energy_accum_ = s.energy_accum_;
    if (spec_.sentinel) {
      sentinel::SentinelReport rep;
      for (const auto& point : s.points_)
        for (const auto& lane : point)
          if (lane.sentinel) rep.merge(lane.sentinel->report());
      const int64_t checks = rep.total_checks();
      const int64_t violations = rep.total_violations();
      const int64_t degraded = rep.degraded_leaves();
      const int64_t dc = checks - s.last_sent_checks_;
      const int64_t dv = violations - s.last_sent_violations_;
      sig.violation_rate = dc > 0 ? static_cast<double>(dv) / static_cast<double>(dc) : 0.0;
      sig.new_degraded = degraded - s.last_sent_degraded_;
      s.last_sent_checks_ = checks;
      s.last_sent_violations_ = violations;
      s.last_sent_degraded_ = degraded;
    }
    // Quarantined lanes are shrunk capacity: sustained health pressure
    // until probation readmits them.
    sig.lanes_quarantined = watchdog_->quarantined();
    if (const auto t = s.governor_->update(sig)) {
      s.active_point_ = t->to;
      record_transition(s, *t);
    }
  }
  last_gov_tick_ns_ = now;
}

void Engine::record_transition(Session& s, const qos::Transition& t) {
  stat_qos_transitions_.fetch_add(1, kRelaxed);
  // Start the latency window fresh: samples measured under the old point
  // would otherwise keep re-triggering (or masking) pressure on the new one
  // for a full window.
  s.lat_count_ = 0;
  s.lat_idx_ = 0;
  if (obs::enabled()) {
    obs::Json ev = obs::Json::object();
    ev["type"] = "qos_transition";
    ev["session"] = s.name_;
    ev["from"] = s.point_names_[static_cast<size_t>(t.from)];
    ev["to"] = s.point_names_[static_cast<size_t>(t.to)];
    ev["cause"] = qos::to_string(t.cause);
    ev["detail"] = t.detail;
    ev["t_ms"] = static_cast<double>(t.t_ns - t0_ns_) / 1e6;
    obs::collector()->event(std::move(ev));
  }
}

void Engine::dispatcher_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    if (stop_) return;
    const int64_t now = obs::now_ns();
    if (qos_enabled() &&
        now - last_gov_tick_ns_ >= spec_.governor.tick_interval_ms * 1'000'000)
      governor_tick(now);
    watchdog_tick(now);

    // Assign ready sessions (full batch, or the oldest slot's flush time
    // has passed) to idle lanes. Quarantined lanes take no traffic — unless
    // *every* lane is quarantined, where availability beats purity: serving
    // on a suspect replica is better than serving nothing, and probation
    // keeps running either way.
    int assigned = 0;
    int64_t earliest_flush = 0;
    if (!reload_pending_) {
      const bool any_healthy = watchdog_->healthy() > 0;
      int next_lane = 0;
      const int nlanes = static_cast<int>(lane_state_.size());
      const auto claim_lane = [&]() -> int {
        for (; next_lane < nlanes; ++next_lane) {
          const LaneState& ls = lane_state_[static_cast<size_t>(next_lane)];
          if (ls.busy) continue;
          if (any_healthy && watchdog_->health(next_lane) == LaneHealth::kQuarantined)
            continue;
          return next_lane++;
        }
        return -1;
      };
      for (auto& sp : sessions_) {
        Session& s = *sp;
        if (s.ring_count_ == 0) continue;
        const Slot& oldest =
            slots_[static_cast<size_t>(s.ring_[static_cast<size_t>(s.ring_head_)])];
        const bool full = s.ring_count_ >= spec_.batching.max_batch;
        const bool expired = now >= oldest.flush_ns;
        int lane = -1;
        if ((full || expired) && (lane = claim_lane()) >= 0) {
          BatchWork& work = works_[static_cast<size_t>(lane)];
          work.lane = lane;
          gather_batch(s, work, now);
          LaneState& ls = lane_state_[static_cast<size_t>(lane)];
          work.lane_batch = ls.exec_batches++;
          ls.busy = true;
          ls.probe = false;
          ls.busy_since_ns = now;
          ++assigned;
          if (s.ring_count_ > 0) {
            const Slot& next =
                slots_[static_cast<size_t>(s.ring_[static_cast<size_t>(s.ring_head_)])];
            if (earliest_flush == 0 || next.flush_ns < earliest_flush)
              earliest_flush = next.flush_ns;
          }
        } else if (!full || lane < 0) {
          if (earliest_flush == 0 || oldest.flush_ns < earliest_flush)
            earliest_flush = oldest.flush_ns;
        }
      }
    }
    if (assigned > 0) {
      cv_lane_.notify_all();
      continue;  // more sessions may be ready; re-scan before sleeping
    }

    // Sleep until the next actionable moment: a pending slot's flush, the
    // governor tick, a busy lane's budget expiry, or a quarantined lane's
    // next probation probe.
    int64_t next_ns = 0;
    const auto fold = [&](int64_t t) {
      if (t > 0 && (next_ns == 0 || t < next_ns)) next_ns = t;
    };
    if (pending_total_ > 0 && !reload_pending_) fold(earliest_flush);
    if (qos_enabled()) fold(last_gov_tick_ns_ + spec_.governor.tick_interval_ms * 1'000'000);
    if (watchdog_->config().enabled) {
      for (int i = 0; i < static_cast<int>(lane_state_.size()); ++i) {
        const LaneState& ls = lane_state_[static_cast<size_t>(i)];
        if (ls.busy && !ls.probe && !works_[static_cast<size_t>(i)].abandoned)
          fold(ls.busy_since_ns + watchdog_->budget_ns());
        if (!ls.busy && !reload_pending_ &&
            watchdog_->health(i) == LaneHealth::kQuarantined)
          fold(watchdog_->lane(i).last_probe_ns +
               watchdog_->config().probation_interval_ms * 1'000'000);
      }
    }
    if (next_ns > 0) {
      const int64_t wait_ns = std::max<int64_t>(100'000, next_ns - obs::now_ns());
      cv_dispatch_.wait_for(lk, std::chrono::nanoseconds(wait_ns));
    } else {
      // Note: during a reload pause, pending work is not actionable — stay
      // asleep until the reload completes and notifies. An idle quarantined
      // lane is actionable (its probation probe must be timed): without it a
      // straggler that finishes *after* the queue drained would leave its
      // lane quarantined forever — nothing else ever wakes the dispatcher.
      cv_dispatch_.wait(lk, [&] {
        if (stop_) return true;
        if (reload_pending_) return false;
        if (pending_total_ > 0) return true;
        if (watchdog_->config().enabled)
          for (int i = 0; i < static_cast<int>(lane_state_.size()); ++i)
            if (!lane_state_[static_cast<size_t>(i)].busy &&
                watchdog_->health(i) == LaneHealth::kQuarantined)
              return true;
        return false;
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Evaluation through the serving path

double Engine::evaluate_accuracy(Session& s, int64_t max_samples) {
  const data::Dataset& ds = wb_->data().test;
  int64_t n = ds.size();
  if (max_samples > 0) n = std::min(n, max_samples);
  const int64_t window = spec_.batching.queue_capacity;
  std::vector<Ticket> tickets(static_cast<size_t>(window));
  int64_t correct = 0;
  for (int64_t base = 0; base < n; base += window) {
    const int64_t count = std::min(window, n - base);
    for (int64_t i = 0; i < count; ++i)
      tickets[static_cast<size_t>(i)] = s.submit(ds.slice(base + i, 1).first);
    for (int64_t i = 0; i < count; ++i) {
      const Result r = s.await(tickets[static_cast<size_t>(i)]);
      if (r.top1 == ds.labels[static_cast<size_t>(base + i)]) ++correct;
    }
  }
  return n > 0 ? static_cast<double>(correct) / static_cast<double>(n) : 0.0;
}

}  // namespace axnn::serve
