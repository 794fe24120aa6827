// QoS governor under pressure: shed accuracy, not latency (DESIGN.md §5h).
//
// Brings up a trunc5-fine-tuned ResNet-20 behind a three-point operating
// ladder over one weight set:
//
//   0 accurate    default=trunc5                 (best accuracy, LUT path)
//   1 balanced    half the leaves mode=exact     (middle ground)
//   2 throughput  default=trunc5:mode=exact      (~3x faster integer kernels,
//                                                 accuracy pays for it)
//
// and demonstrates the two acceptance scenarios:
//
//   * Load ramp — an open-loop Poisson arrival rate deliberately above the
//     accurate point's capacity. The governor must step the session down
//     (kLoad), the saturated segment's p95 must stay under the deployment
//     deadline (ungoverned it would grow with the queue, unboundedly), and
//     once the ramp ends the session must recover to point 0 (kRecovery).
//     The accuracy cost is the *designed* ladder margin, not collapse to
//     noise — asserted on the measured per-point holdout metadata.
//   * Fault-then-recover — exponent bit flips planted in the served conv/FC
//     weights (bench_sentinel_coverage's weight-fault machinery). The
//     sentinel repairs every violated GEMM from golden state, so requests
//     keep succeeding; the governor sees the violation rate and steps down
//     (kHealth). Restoring the weights calms the signal and the session
//     recovers to point 0. Zero failed requests throughout.
#include <chrono>
#include <thread>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace axnn;

// The ladder over the model's own leaf paths. Exact-mode share is the
// latency axis for a trunc5-fine-tuned model: the integer kernel is ~3x
// faster than the LUT walk, and the fine-tuned weights lose accuracy under
// exact arithmetic (DESIGN.md §5h) — faster AND worse, exactly what a
// load-shedding ladder wants.
std::string build_ladder(const core::BenchProfile& profile) {
  auto probe = models::make_resnet20(profile.resnet_width);
  const auto leaves = nn::enumerate_gemm_leaves(*probe);
  std::string balanced = "default=trunc5";
  for (size_t i = 0; i < leaves.size(); i += 2)
    balanced += "; " + leaves[i].path + "=trunc5:mode=exact";
  return qos::to_text({{"accurate", "default=trunc5"},
                       {"balanced", balanced},
                       {"throughput", "default=trunc5:mode=exact"}});
}

core::Table transition_table(serve::Session& session) {
  const std::vector<qos::Transition> log = session.transitions();
  core::Table tt({"t [ms]", "from", "to", "cause", "detail"});
  const int64_t t0 = log.empty() ? 0 : log.front().t_ns;
  for (const auto& t : log)
    tt.add_row({core::Table::num(static_cast<double>(t.t_ns - t0) / 1e6, 0),
                session.point_name(t.from), session.point_name(t.to), qos::to_string(t.cause),
                t.detail});
  return tt;
}

/// Failure path: surface what the governor saw before bailing.
int fail(obs::bench::BenchContext& ctx, serve::Session& session, const char* msg) {
  std::printf("FAIL: %s\n", msg);
  std::printf("sentinel: %s\n", session.sentinel_report().summary().c_str());
  std::printf("-- governor transitions at failure --\n");
  bench::emit_table(ctx, "qos_transitions", transition_table(session));
  return 1;
}

bool has_step(const std::vector<qos::Transition>& ts, qos::Cause cause, bool down) {
  for (const auto& t : ts)
    if (t.cause == cause && (down ? t.to > t.from : t.to < t.from)) return true;
  return false;
}

/// Poll until the governed session sits at `target` (idle governor ticks
/// drive recovery without traffic).
bool wait_for_point(serve::Session& s, int target, int timeout_ms) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < until) {
    if (s.active_point() == target) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return s.active_point() == target;
}

}  // namespace

AXNN_BENCH_CASE(qos_ramp, "QoS governor: degrade accuracy, not latency, under load and faults") {
  serve::ModelSpec spec;
  spec.model = core::ModelKind::kResNet20;
  spec.profile = core::BenchProfile::from_env();
  // Fine-tune under trunc5 so the ladder's accuracy spread is real: the
  // adapted weights score high on the LUT path and measurably lower under
  // exact arithmetic.
  spec.finetune = true;
  spec.method = train::Method::kNormal;
  spec.t2 = bench::best_t2_for(axmul::find_spec("trunc5").value());
  spec.qos_points = build_ladder(spec.profile);
  spec.sentinel = true;
  // Never degrade leaves permanently: repairs keep requests correct while
  // the violation *rate* keeps firing until the weights are restored — the
  // sustained health signal the governor acts on.
  spec.sentinel_config.policy.degrade_after = 1'000'000;
  // The range guard checks the whole batched activation, so one extreme
  // sample trips the check for all of them — at max_batch=8 that false
  // positives at a few percent per check on clean traffic, enough to fake
  // a health signal. The exact table checksum (which detects the planted
  // faults below) has no false positives; run on it alone.
  spec.sentinel_config.range_guard = false;
  spec.governor.tick_interval_ms = 10;
  spec.governor.dwell_ms = 150;
  spec.governor.recover_ms = 2000;
  spec.governor.queue_high = 24;
  spec.governor.react_to_backpressure = true;
  spec.governor.violation_rate_high = 0.02;
  spec.batching.max_batch = 8;
  spec.batching.max_delay_us = 2000;
  spec.batching.queue_capacity = 64;

  auto engine = serve::Engine::load(spec);
  serve::Session& session = engine->session();
  const data::Dataset& pool = engine->data().test;
  const auto& points = engine->operating_points();

  core::Table pt({"#", "point", "holdout acc[%]", "energy/req", "lat est[ms]"});
  for (size_t i = 0; i < points.size(); ++i)
    pt.add_row({core::Table::num(static_cast<double>(i), 0), points[i].name,
                bench::pct(points[i].holdout_acc), core::Table::num(points[i].energy_per_req, 0),
                core::Table::num(points[i].latency_est_ms, 2)});
  std::printf("-- operating points --\n");
  bench::emit_table(ctx, "qos_points", pt);

  const double acc0 = points.front().holdout_acc;
  const double acc_floor = points.back().holdout_acc;
  const double lat0 = points.front().latency_est_ms;
  const double lat_floor = points.back().latency_est_ms;
  ctx.metric("acc_point0", acc0);
  ctx.metric("acc_floor", acc_floor);
  ctx.metric("lat_point0_ms", lat0);
  ctx.metric("lat_floor_ms", lat_floor);

  // The ladder must actually trade accuracy for latency: the floor is
  // faster, cheaper on accuracy by a designed margin, and still far from
  // the 10% random-guess noise floor.
  if (lat_floor >= lat0) {
    std::printf("FAIL: ladder floor is not faster (%.2fms vs %.2fms)\n", lat_floor, lat0);
    return 1;
  }
  if (acc0 - acc_floor < 0.05) {
    std::printf("FAIL: ladder sheds no meaningful accuracy (%.3f vs %.3f)\n", acc0, acc_floor);
    return 1;
  }
  if (acc_floor < 0.15) {
    std::printf("FAIL: floor accuracy %.3f is at the noise floor\n", acc_floor);
    return 1;
  }

  // -- Phase A: load ramp. --
  // Point 0's real capacity on this machine: a short closed-loop segment
  // measures achieved throughput including batching, dispatch and the load
  // generator's own CPU share. (The metadata latency estimate is a bare
  // per-lane forward — far too optimistic to derive arrival rates from.)
  // Closed loop keeps queue depth <= clients, so the governor holds.
  serve::LoadSpec probe;
  probe.arrival = serve::Arrival::kClosed;
  probe.clients = 4;
  probe.requests = 192;
  probe.seed = 11;
  const serve::LoadReport rp = serve::run_load(*engine, session, pool, probe);
  const double cap0_rps = rp.throughput_rps;
  std::printf("probe: %.1f rps closed-loop capacity, active=%s\n", cap0_rps,
              session.point_name(session.active_point()).c_str());
  ctx.metric("cap0_rps", cap0_rps);
  if (session.active_point() != 0)
    return fail(ctx, session, "closed-loop probe pushed the session off point 0");

  // Warm segment well inside point 0's capacity: the governor must hold.
  serve::LoadSpec warm;
  warm.arrival = serve::Arrival::kPoisson;
  warm.rate_rps = std::max(5.0, 0.25 * cap0_rps);
  warm.requests = static_cast<int>(std::max(32.0, std::min(256.0, 1.2 * warm.rate_rps)));
  warm.seed = 17;
  const serve::LoadReport rw = serve::run_load(*engine, session, pool, warm);
  std::printf("warm:  %.1f rps offered, p95 %.2fms, active=%s\n", warm.rate_rps, rw.latency.p95,
              session.point_name(session.active_point()).c_str());
  if (session.active_point() != 0)
    return fail(ctx, session, "warm traffic pushed the session off point 0");

  // Saturating segment: offered load halfway between point 0's measured
  // capacity and the floor's estimated one (per the latency-estimate
  // ratio) — overloads the accurate point, absorbable once the governor
  // steps down. Two sub-segments: a short *trigger* that must produce the
  // kLoad step-down, then — after a drain, so the trigger backlog does not
  // leak into the intended-arrival accounting — a *sustained* segment at
  // the same rate whose steady-state p95 must hold the deployment SLO
  // (100 mean point-0 service times). Ungoverned, this rate accrues
  // queueing delay linearly for the whole segment and blows far past it.
  const double floor_ratio = lat0 / lat_floor;
  const double deadline_ms = 100.0 * (1000.0 / cap0_rps);
  serve::LoadSpec sat;
  sat.arrival = serve::Arrival::kPoisson;
  sat.rate_rps = cap0_rps * (1.0 + 0.5 * (floor_ratio - 1.0));
  sat.requests = static_cast<int>(std::max(256.0, std::min(1024.0, 1.5 * sat.rate_rps)));
  sat.seed = 29;
  const serve::LoadReport rs = serve::run_load(*engine, session, pool, sat);
  const int sat_point = session.active_point();
  std::printf("ramp:  %.1f rps offered (cap0 %.1f), p95 %.2fms, active=%s\n", sat.rate_rps,
              cap0_rps, rs.latency.p95, session.point_name(sat_point).c_str());
  ctx.metric("sat_rate_rps", sat.rate_rps);
  ctx.metric("sat_active_point", sat_point);
  if (sat_point == 0 || !has_step(session.transitions(), qos::Cause::kLoad, /*down=*/true))
    return fail(ctx, session, "saturating load produced no kLoad step-down");

  engine->drain();
  serve::LoadSpec sustain = sat;
  sustain.requests = static_cast<int>(std::max(512.0, std::min(2048.0, 3.0 * sat.rate_rps)));
  sustain.seed = 31;
  const serve::LoadReport rh = serve::run_load(*engine, session, pool, sustain);
  std::printf("hold:  p95 %.2fms (deadline %.2fms), active=%s\n", rh.latency.p95, deadline_ms,
              session.point_name(session.active_point()).c_str());
  ctx.metric("sustain_p95_ms", rh.latency.p95);
  ctx.metric("deadline_ms", deadline_ms);
  if (rh.latency.p95 >= deadline_ms) {
    std::printf("governed p95 %.2fms vs %.2fms deadline\n", rh.latency.p95, deadline_ms);
    return fail(ctx, session, "governed p95 missed the deadline");
  }

  // Ramp over: idle governor ticks must walk the session back to point 0.
  const bool recovered = wait_for_point(session, 0, 15000);
  std::printf("calm:  active=%s after ramp\n",
              session.point_name(session.active_point()).c_str());
  if (!recovered || !has_step(session.transitions(), qos::Cause::kRecovery, /*down=*/false))
    return fail(ctx, session, "session did not recover to point 0 after the ramp");
  ctx.metric("load_recovered", 1.0);

  // -- Phase B: fault, serve through it, recover. --
  // Snapshot the served weights, then plant exponent bit flips exactly as
  // bench_sentinel_coverage does. Checksum repairs from the golden weights
  // keep every response correct; the violation rate is the governor's
  // health signal.
  engine->drain();
  std::vector<Tensor*> weights;
  for (const auto& leaf : nn::enumerate_gemm_leaves(engine->model(0))) {
    if (auto* c = dynamic_cast<nn::Conv2d*>(leaf.layer)) weights.push_back(&c->weight().value);
    if (auto* l = dynamic_cast<nn::Linear*>(leaf.layer)) weights.push_back(&l->weight().value);
  }
  std::vector<Tensor> golden;
  golden.reserve(weights.size());
  for (const Tensor* w : weights) golden.push_back(*w);
  resilience::FaultSpec fs;
  fs.rate = 1e-2;
  fs.bit_lo = 23;  // exponent flips: large magnitude errors, still finite
  fs.bit_hi = 30;
  fs.seed = 7;
  resilience::corrupt_tensors(weights, resilience::FaultInjector(fs));

  serve::LoadSpec fault;
  fault.arrival = serve::Arrival::kPoisson;
  fault.rate_rps = std::max(5.0, 0.3 * cap0_rps);
  fault.requests = static_cast<int>(std::max(96.0, std::min(512.0, 2.0 * fault.rate_rps)));
  fault.seed = 43;
  const serve::LoadReport rf = serve::run_load(*engine, session, pool, fault);
  const int fault_point = session.active_point();
  const sentinel::SentinelReport srep = session.sentinel_report();
  std::printf("fault: %lld/%d requests served, active=%s, sentinel: %s\n",
              static_cast<long long>(rf.requests), fault.requests,
              session.point_name(fault_point).c_str(), srep.summary().c_str());
  ctx.metric("fault_requests", rf.requests);
  ctx.metric("fault_violations", srep.total_violations());
  ctx.metric("fault_active_point", fault_point);
  if (rf.requests != fault.requests) {
    std::printf("served %lld of %d requests\n", static_cast<long long>(rf.requests),
                fault.requests);
    return fail(ctx, session, "requests failed under faults");
  }
  if (fault_point == 0 || !has_step(session.transitions(), qos::Cause::kHealth, /*down=*/true))
    return fail(ctx, session, "weight faults produced no kHealth step-down");

  // Repair the deployment: restore the golden weights. Violations stop, the
  // calm window fills, the governor steps back up.
  engine->drain();
  for (size_t i = 0; i < weights.size(); ++i) *weights[i] = golden[i];
  const bool healed = wait_for_point(session, 0, 15000);
  std::printf("heal:  active=%s after weight restore\n",
              session.point_name(session.active_point()).c_str());
  if (!healed)
    return fail(ctx, session, "session did not recover to point 0 after the repair");
  ctx.metric("fault_recovered", 1.0);

  // Transition log + structured qos section.
  std::printf("\n-- governor transitions --\n");
  bench::emit_table(ctx, "qos_transitions", transition_table(session));
  ctx.report.set("qos", engine->qos_report().to_json());

  const serve::EngineStats stats = engine->stats();
  ctx.metric("qos_transitions", stats.qos_transitions);
  ctx.metric("total_requests", stats.requests);
  return 0;
}
