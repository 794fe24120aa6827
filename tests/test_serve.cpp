// Serving runtime tests: batched-vs-sequential bit-identity on the exact and
// approximate paths, deadline-driven partial flushes, multi-tenant isolation
// under concurrent submits, allocation-free submit path, and the load
// generator. One engine (micro profile) is shared by the whole suite —
// loading trains a model, which dominates the suite's runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <thread>
#include <vector>

#include "axnn/axnn.hpp"

// --- Global allocation counter -------------------------------------------
// Counts operator-new calls made by the *calling thread* while armed, so the
// dispatcher thread's batch-assembly allocations (which are allowed) never
// leak into the measurement.
namespace {
thread_local bool t_count_allocs = false;
thread_local int64_t t_alloc_count = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (t_count_allocs) ++t_alloc_count;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace axnn::serve {
namespace {

constexpr int kMaxBatch = 4;
constexpr int kQueueCapacity = 16;
constexpr const char* kApproxPlan = "default=trunc5";
constexpr const char* kExactPlan = "default=trunc5:mode=exact";

ModelSpec micro_spec() {
  ModelSpec spec;
  spec.model = core::ModelKind::kResNet20;
  spec.profile.image_size = 8;
  spec.profile.train_size = 160;
  spec.profile.test_size = 80;
  spec.profile.resnet_width = 0.25f;
  spec.profile.fp_epochs = 4;
  spec.profile.ft_epochs = 2;
  spec.profile.ft_batch = 40;
  spec.profile.quant_epochs = 1;
  spec.profile.decay_every = 2;
  spec.profile.cache_dir =
      (std::filesystem::temp_directory_path() / "axnn_serve_cache").string();
  spec.use_cache = false;
  spec.plan = kApproxPlan;
  spec.finetune = false;
  spec.batching.max_batch = kMaxBatch;
  spec.batching.max_delay_us = 20000;
  spec.batching.queue_capacity = kQueueCapacity;
  // Two lanes regardless of core count: the lifecycle tests need a healthy
  // lane to re-run batches abandoned on a quarantined one.
  spec.lanes = 2;
  return spec;
}

class ServeFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    engine_ = Engine::load(micro_spec()).release();
    exact_ = &engine_->open_session("exact", kExactPlan);
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    exact_ = nullptr;
  }

  static Engine* engine_;
  static Session* exact_;  ///< tenant serving the exact-mode plan
};

Engine* ServeFixture::engine_ = nullptr;
Session* ServeFixture::exact_ = nullptr;

/// Reference logits: a direct single-sample forward of lane 0 under the
/// session's own context. Only valid while no requests are in flight (a
/// lane's model runs one forward at a time).
Tensor reference_logits(Engine& e, Session& s, const Tensor& sample) {
  return e.model(0).forward(sample, s.exec_context(0));
}

TEST_F(ServeFixture, LoadValidatesSpec) {
  ModelSpec bad = micro_spec();
  bad.batching.queue_capacity = 2;  // < max_batch
  EXPECT_THROW(Engine::load(bad), std::invalid_argument);
  EXPECT_THROW(engine_->open_session("default", kApproxPlan), std::invalid_argument);
  EXPECT_THROW(engine_->open_session("bad-plan", "default=no_such_mul"),
               std::invalid_argument);
  // Bit-width changes require recalibration; the engine refuses the tenant.
  EXPECT_THROW(engine_->open_session("bad-widths", "default=trunc5:w3"),
               std::invalid_argument);
}

TEST_F(ServeFixture, BatchedMatchesSequentialExactAndApprox) {
  const data::Dataset& test = engine_->data().test;
  for (Session* s : {&engine_->session(), exact_}) {
    std::vector<Ticket> tickets;
    for (int i = 0; i < kMaxBatch; ++i)
      tickets.push_back(s->submit(test.slice(i, 1).first));
    std::vector<Result> results;
    for (const Ticket& t : tickets) results.push_back(s->await(t));
    engine_->drain();

    for (int i = 0; i < kMaxBatch; ++i) {
      // All four requests ride one full-batch flush...
      EXPECT_EQ(results[static_cast<size_t>(i)].batch_size, kMaxBatch);
      // ...yet every sample's logits are bit-identical to its own
      // single-sample forward.
      const Tensor ref = reference_logits(*engine_, *s, test.slice(i, 1).first);
      ASSERT_EQ(ref.numel(), results[static_cast<size_t>(i)].logits.numel());
      for (int64_t j = 0; j < ref.numel(); ++j)
        ASSERT_EQ(ref[j], results[static_cast<size_t>(i)].logits[j])
            << "session " << s->name() << " sample " << i << " logit " << j;
    }
  }
  // The two plans genuinely serve different arithmetic.
  const Tensor a = reference_logits(*engine_, engine_->session(), test.slice(0, 1).first);
  const Tensor b = reference_logits(*engine_, *exact_, test.slice(0, 1).first);
  bool differs = false;
  for (int64_t j = 0; j < a.numel() && !differs; ++j) differs = a[j] != b[j];
  EXPECT_TRUE(differs);
}

TEST_F(ServeFixture, DeadlineExpiryFlushesPartialBatch) {
  const EngineStats before = engine_->stats();
  // One lone request with a 1 ms deadline: the batcher must not hold it for
  // the 20 ms delay budget waiting for batch-mates.
  const Ticket t =
      engine_->session().submit(engine_->data().test.slice(0, 1).first, /*deadline_us=*/1000);
  const Result r = engine_->session().await(t);
  EXPECT_EQ(r.batch_size, 1);
  EXPECT_LT(r.latency_ms, 20.0);
  const EngineStats after = engine_->stats();
  EXPECT_EQ(after.flush_timer, before.flush_timer + 1);
  EXPECT_EQ(after.requests, before.requests + 1);
}

TEST_F(ServeFixture, MultiTenantIsolationUnderConcurrentSubmits) {
  const data::Dataset& test = engine_->data().test;
  constexpr int kRequests = 40;  // > queue_capacity: exercises backpressure
  std::atomic<int> mismatches{0};

  auto client = [&](Session* s, std::vector<Result>* out) {
    for (int i = 0; i < kRequests; ++i)
      out->push_back(s->await(s->submit(test.slice(i % test.size(), 1).first)));
  };
  std::vector<Result> approx_results, exact_results;
  std::thread ta(client, &engine_->session(), &approx_results);
  std::thread tb(client, exact_, &exact_results);
  ta.join();
  tb.join();
  engine_->drain();

  // Every result matches its own session's reference — concurrent tenants
  // never leak each other's plan (tables, mode overrides) into a batch.
  for (int i = 0; i < kRequests; ++i) {
    const Tensor sample = test.slice(i % test.size(), 1).first;
    const Tensor ra = reference_logits(*engine_, engine_->session(), sample);
    const Tensor re = reference_logits(*engine_, *exact_, sample);
    for (int64_t j = 0; j < ra.numel(); ++j) {
      if (approx_results[static_cast<size_t>(i)].logits[j] != ra[j]) ++mismatches;
      if (exact_results[static_cast<size_t>(i)].logits[j] != re[j]) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ServeFixture, SubmitIsAllocationFreeAfterWarmup) {
  Session& s = engine_->session();
  const Tensor sample = engine_->data().test.slice(0, 1).first;
  // Warmup: every slot has been through one submit/await cycle.
  for (int round = 0; round < 2; ++round) {
    std::vector<Ticket> warm;
    for (int i = 0; i < kQueueCapacity; ++i) warm.push_back(s.submit(sample));
    for (const Ticket& t : warm) (void)s.await(t);
  }
  engine_->drain();

  Ticket tickets[kQueueCapacity];
  t_alloc_count = 0;
  t_count_allocs = true;
  for (int i = 0; i < kQueueCapacity; ++i) tickets[i] = s.submit(sample);
  t_count_allocs = false;
  EXPECT_EQ(t_alloc_count, 0) << "submit path allocated on the steady state";
  for (const Ticket& t : tickets) (void)s.await(t);
}

/// The full batched conv forward — the call the dispatcher makes per flush —
/// must not touch the heap on the steady state: activation/im2col tensors
/// recycle through the buffer pool, GEMMs resolve prepared plans via each
/// layer's memo, parallel_for dispatch uses the pre-sized task ring, and a
/// sentinel's ABFT scratch is pooled too. Runs it on this thread (the
/// allocation counter is thread-local) under the session's own context.
void expect_forward_allocation_free(Engine& engine, Session& s) {
  engine.drain();
  const Tensor batch = engine.data().test.slice(0, kMaxBatch).first;
  const nn::ExecContext ctx = s.exec_context(0);
  // Warmup: first pass builds plans and populates pool freelists; a couple
  // more let every transient block class reach its steady-state population.
  for (int i = 0; i < 3; ++i) (void)engine.model(0).forward(batch, ctx);

  t_alloc_count = 0;
  t_count_allocs = true;
  const Tensor logits = engine.model(0).forward(batch, ctx);
  t_count_allocs = false;
  EXPECT_EQ(logits.shape()[0], kMaxBatch);
  EXPECT_EQ(t_alloc_count, 0) << "batched forward allocated on the steady state";
}

TEST_F(ServeFixture, BatchedForwardIsAllocationFreeAfterWarmup) {
  ASSERT_EQ(engine_->session().exec_context(0).monitor, nullptr);
  expect_forward_allocation_free(*engine_, engine_->session());
}

TEST(EngineSentinel, BatchedForwardIsAllocationFreeAfterWarmup) {
  // The same forward with the sentinel checking every leaf GEMM: under the
  // approximate plan, and under one whose first conv and FC are exact.
  ModelSpec spec = micro_spec();
  spec.sentinel = true;
  const std::unique_ptr<Engine> engine = Engine::load(spec);
  ASSERT_NE(engine->session().exec_context(0).monitor, nullptr);
  expect_forward_allocation_free(*engine, engine->session());

  const auto leaves = nn::enumerate_gemm_leaves(engine->model(0));
  ASSERT_GE(leaves.size(), 2u);
  Session& mixed =
      engine->open_session("mixed", std::string(kApproxPlan) + "; " + leaves.front().path +
                                        "=trunc5:mode=exact; " + leaves.back().path +
                                        "=trunc5:mode=exact");
  ASSERT_NE(mixed.exec_context(0).monitor, nullptr);
  expect_forward_allocation_free(*engine, mixed);
}

TEST(EnginePlanCache, LoadGrowsCapacityToHoldThePrewarmSet) {
  // Three points with distinct multipliers need more plans than the tiny
  // capacity below, and more per leaf than a PlanMemo keeps, so served
  // batches go to the global cache. Load must grow it to hold everything
  // its prewarm touched; traffic at every point then never builds a plan.
  kernels::PlanCache& cache = kernels::PlanCache::global();
  const int64_t saved_capacity = cache.stats().capacity;
  cache.clear();
  cache.set_capacity(8);
  ModelSpec spec = micro_spec();
  spec.qos_points =
      "point t5 = default=trunc5\npoint t4 = default=trunc4\npoint t3 = default=trunc3\n";
  spec.qos_holdout = 16;
  spec.qos_latency_probes = 1;
  spec.governor.react_to_backpressure = false;  // only the manual flips below
  spec.batching.max_delay_us = 2000;
  const std::unique_ptr<Engine> engine = Engine::load(spec);
  const kernels::PlanCacheStats loaded = cache.stats();
  EXPECT_GT(loaded.capacity, 8);
  EXPECT_LE(loaded.size, loaded.capacity);

  cache.reset_stats();
  Session& s = engine->session();
  const data::Dataset& test = engine->data().test;
  for (int point = 0; point < 3; ++point) {
    engine->drain();
    s.set_active_point(point);
    for (int b = 1; b <= kMaxBatch; ++b) {
      std::vector<Ticket> tickets;
      for (int i = 0; i < b; ++i) tickets.push_back(s.submit(test.slice(i, 1).first));
      for (const Ticket& t : tickets) EXPECT_EQ(Outcome::kServed, s.await(t).outcome);
    }
  }
  engine->drain();
  const kernels::PlanCacheStats served = cache.stats();
  EXPECT_GT(served.hits, 0);
  EXPECT_EQ(served.misses, 0) << "served traffic built plans after load";
  cache.set_capacity(static_cast<size_t>(saved_capacity));
}

TEST_F(ServeFixture, DoubleAwaitThrows) {
  Session& s = engine_->session();
  const Ticket t = s.submit(engine_->data().test.slice(0, 1).first);
  (void)s.await(t);
  EXPECT_THROW(s.await(t), std::logic_error);
  EXPECT_THROW(s.await(Ticket{}), std::logic_error);
  EXPECT_THROW(s.submit(Tensor(Shape{3})), std::invalid_argument);
}

TEST_F(ServeFixture, EvaluateAccuracyMatchesDirect) {
  constexpr int64_t kSamples = 48;
  const double served = engine_->evaluate_accuracy(engine_->session(), kSamples);
  const data::Dataset& test = engine_->data().test;
  data::Dataset subset;
  auto [images, labels] = test.slice(0, kSamples);
  subset.images = std::move(images);
  subset.labels = std::move(labels);
  const double direct = train::evaluate_accuracy(engine_->model(0), subset,
                                                 engine_->session().exec_context(0));
  EXPECT_DOUBLE_EQ(served, direct);
}

TEST_F(ServeFixture, LoadGeneratorScenarios) {
  const data::Dataset& pool = engine_->data().test;
  for (const Arrival arrival : {Arrival::kClosed, Arrival::kPoisson, Arrival::kBurst}) {
    LoadSpec spec;
    spec.arrival = arrival;
    spec.requests = 24;
    spec.clients = 4;
    spec.rate_rps = 2000.0;
    spec.burst = 8;
    spec.deadline_us = 5000;
    const LoadReport r = run_load(*engine_, engine_->session(), pool, spec);
    EXPECT_EQ(r.scenario, to_string(arrival));
    EXPECT_EQ(r.requests, 24);
    EXPECT_GT(r.batches, 0);
    EXPECT_GT(r.throughput_rps, 0.0);
    EXPECT_LE(r.latency.p50, r.latency.p95);
    EXPECT_LE(r.latency.p95, r.latency.p99);
    EXPECT_LE(r.latency.p99, r.latency.max);
    EXPECT_GE(r.mean_batch, 1.0);
    const obs::Json j = r.to_json();
    EXPECT_NE(j.find("p99_ms"), nullptr);
  }
  const EngineStats stats = engine_->stats();
  EXPECT_GT(stats.batches, 0);
  EXPECT_GE(stats.max_batch, 1);
}

// --- Lifecycle: pure state machines (no engine) ---------------------------

TEST(AdmissionTest, DecisionTable) {
  AdmissionConfig cfg;  // kBlock, no feasibility check
  const int64_t now = 1'000'000'000;
  // Free slots always admit, whatever the policy.
  for (const AdmissionPolicy p :
       {AdmissionPolicy::kBlock, AdmissionPolicy::kShedNewest, AdmissionPolicy::kShedByDeadline}) {
    cfg.policy = p;
    EXPECT_EQ(decide(cfg, 3, now, 0, 0, 0), AdmissionAction::kAdmit);
  }
  // Full pool: policy decides.
  cfg.policy = AdmissionPolicy::kBlock;
  EXPECT_EQ(decide(cfg, 0, now, 0, 0, 0), AdmissionAction::kBlock);
  cfg.policy = AdmissionPolicy::kShedNewest;
  EXPECT_EQ(decide(cfg, 0, now, 0, 0, 0), AdmissionAction::kShedIncoming);
  // kShedByDeadline: evict the queued request with the least slack, but only
  // when it is no more viable than the incoming one.
  cfg.policy = AdmissionPolicy::kShedByDeadline;
  const int64_t soon = now + 1'000'000, late = now + 9'000'000;
  EXPECT_EQ(decide(cfg, 0, now, /*deadline=*/0, /*victim=*/soon, 0),
            AdmissionAction::kEvictQueued);  // incoming is best-effort
  EXPECT_EQ(decide(cfg, 0, now, late, soon, 0), AdmissionAction::kEvictQueued);
  EXPECT_EQ(decide(cfg, 0, now, soon, late, 0),
            AdmissionAction::kShedIncoming);  // incoming least viable
  EXPECT_EQ(decide(cfg, 0, now, soon, /*victim=*/0, 0),
            AdmissionAction::kShedIncoming);  // no queued victim has a deadline
  // Infeasible deadlines are rejected before anything else — even with room.
  cfg.policy = AdmissionPolicy::kBlock;
  cfg.reject_infeasible = true;
  const int64_t floor_ns = 2'000'000;
  EXPECT_EQ(decide(cfg, 3, now, now + 1'000'000, 0, floor_ns), AdmissionAction::kReject);
  EXPECT_EQ(decide(cfg, 3, now, now + 3'000'000, 0, floor_ns), AdmissionAction::kAdmit);
  EXPECT_EQ(decide(cfg, 3, now, 0, 0, floor_ns), AdmissionAction::kAdmit);  // no deadline
  EXPECT_EQ(decide(cfg, 3, now, now + 1'000'000, 0, /*floor=*/0),
            AdmissionAction::kAdmit);  // uncalibrated: feasibility not checked
  cfg.service_margin = 2.0;  // margin widens the rejection band
  EXPECT_EQ(decide(cfg, 3, now, now + 3'000'000, 0, floor_ns), AdmissionAction::kReject);

  AdmissionConfig bad;
  bad.service_margin = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(AdmissionTest, PolicyParseRoundTrip) {
  for (const AdmissionPolicy p :
       {AdmissionPolicy::kBlock, AdmissionPolicy::kShedNewest, AdmissionPolicy::kShedByDeadline}) {
    AdmissionPolicy out;
    ASSERT_TRUE(parse_admission_policy(to_string(p), out));
    EXPECT_EQ(out, p);
  }
  AdmissionPolicy out;
  EXPECT_FALSE(parse_admission_policy("yolo", out));
}

TEST(WatchdogTest, BudgetOverrideAndCalibratedFloor) {
  WatchdogConfig cfg;
  cfg.min_budget_ms = 50;
  Watchdog wd(cfg, 2);
  EXPECT_EQ(wd.budget_ns(), 50'000'000);  // uncalibrated: the floor
  wd.set_calibrated_budget_ns(80'000'000);
  EXPECT_EQ(wd.budget_ns(), 80'000'000);
  wd.set_calibrated_budget_ns(10'000'000);  // below the floor: floored
  EXPECT_EQ(wd.budget_ns(), 50'000'000);
  cfg.budget_ms = 7;  // explicit override wins over both
  wd.set_config(cfg);
  EXPECT_EQ(wd.budget_ns(), 7'000'000);
  EXPECT_FALSE(wd.overdue(/*busy_since=*/0, /*now=*/7'000'000));
  EXPECT_TRUE(wd.overdue(0, 7'000'001));
  cfg.enabled = false;
  wd.set_config(cfg);
  EXPECT_FALSE(wd.overdue(0, 1'000'000'000));

  WatchdogConfig bad;
  bad.probation_passes = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_THROW(Watchdog(WatchdogConfig{}, 0), std::invalid_argument);
}

TEST(WatchdogTest, QuarantineProbationAndStrikes) {
  WatchdogConfig cfg;
  cfg.violation_strikes = 3;
  cfg.probation_interval_ms = 10;
  cfg.probation_passes = 2;
  Watchdog wd(cfg, 2);
  int64_t now = 1'000'000'000;

  EXPECT_TRUE(wd.quarantine(0, now, "stuck"));
  EXPECT_FALSE(wd.quarantine(0, now, "again"));  // already quarantined
  EXPECT_EQ(wd.healthy(), 1);
  EXPECT_EQ(wd.quarantined(), 1);
  EXPECT_EQ(wd.health(0), LaneHealth::kQuarantined);
  EXPECT_EQ(wd.lane(0).reason, "stuck");
  EXPECT_EQ(wd.quarantines_total(), 1);

  // The first probe waits a full probation interval after quarantine.
  EXPECT_FALSE(wd.probe_due(0, now + 9'999'999));
  EXPECT_TRUE(wd.probe_due(0, now + 10'000'000));
  EXPECT_FALSE(wd.probe_due(1, now + 10'000'000));  // healthy lanes: never
  wd.probe_started(0, now += 10'000'000);
  EXPECT_FALSE(wd.on_probe_result(0, /*pass=*/true, now));   // 1 of 2
  EXPECT_FALSE(wd.on_probe_result(0, /*pass=*/false, now));  // a failure resets
  EXPECT_FALSE(wd.on_probe_result(0, true, now));
  EXPECT_TRUE(wd.on_probe_result(0, true, now));  // 2 consecutive: readmitted
  EXPECT_EQ(wd.health(0), LaneHealth::kHealthy);
  EXPECT_EQ(wd.readmissions_total(), 1);

  // Sentinel-violation strikes are consecutive; a clean batch resets them.
  EXPECT_FALSE(wd.on_batch_violations(1, 2, now));
  EXPECT_FALSE(wd.on_batch_violations(1, 1, now));
  EXPECT_FALSE(wd.on_batch_violations(1, 0, now));  // reset
  EXPECT_FALSE(wd.on_batch_violations(1, 1, now));
  EXPECT_FALSE(wd.on_batch_violations(1, 1, now));
  EXPECT_TRUE(wd.on_batch_violations(1, 1, now));  // third consecutive strike
  EXPECT_EQ(wd.health(1), LaneHealth::kQuarantined);
  EXPECT_NE(wd.lane(1).reason.find("3 consecutive"), std::string::npos);
}

TEST(ChaosTest, InjectorFiresScheduledWindows) {
  ChaosSpec spec;
  spec.seed = 7;
  spec.stalls.push_back({/*lane=*/0, /*from=*/1, /*to=*/2, /*stall_ms=*/1});
  spec.faults.push_back({/*lane=*/1, /*from=*/0, /*to=*/0});
  ChaosInjector chaos(spec);
  chaos(0, 0);  // before the stall window: no-op
  chaos(0, 1);
  chaos(0, 2);
  chaos(0, 3);  // past the window
  EXPECT_EQ(chaos.stalls_fired(), 2);
  EXPECT_THROW(chaos(1, 0), ChaosFault);
  chaos(1, 1);  // past the fault window
  EXPECT_EQ(chaos.faults_fired(), 1);
  chaos(2, 0);  // unscheduled lane
  EXPECT_EQ(chaos.stalls_fired(), 2);
  EXPECT_EQ(chaos.faults_fired(), 1);
}

// --- Lifecycle: engine integration ----------------------------------------

TEST_F(ServeFixture, ExpiredDeadlineRejectsInstantlyWithoutASlot) {
  Session& s = engine_->session();
  engine_->drain();
  const EngineStats before = engine_->stats();

  const Ticket t = s.submit(engine_->data().test.slice(0, 1).first, /*deadline_us=*/-1);
  EXPECT_EQ(t.instant, static_cast<int8_t>(Outcome::kRejected));
  const Result r = s.await(t);
  EXPECT_EQ(r.outcome, Outcome::kRejected);
  EXPECT_FALSE(r.deadline_met);
  EXPECT_EQ(r.logits.numel(), 0);
  EXPECT_EQ(r.batch_size, 0);
  // Instant tickets are stateless: awaiting twice returns the same answer.
  EXPECT_EQ(s.await(t).outcome, Outcome::kRejected);

  const EngineStats after = engine_->stats();
  EXPECT_EQ(after.rejected, before.rejected + 1);
  EXPECT_EQ(after.deadline_misses, before.deadline_misses + 1);
  // No slot was consumed, no batch ran.
  EXPECT_EQ(after.batches, before.batches);
  EXPECT_EQ(after.requests, before.requests);
}

TEST_F(ServeFixture, InfeasibleDeadlineRejectedWhenConfigured) {
  Session& s = engine_->session();
  engine_->drain();
  // Load calibrated a service floor from latency probes.
  EXPECT_GT(engine_->service_floor_ns(), 0);

  AdmissionConfig strict;
  strict.reject_infeasible = true;
  engine_->set_admission(strict);
  EXPECT_TRUE(engine_->admission().reject_infeasible);

  const EngineStats before = engine_->stats();
  // 1 µs of slack is below any calibrated floor for this model.
  const Ticket t = s.submit(engine_->data().test.slice(0, 1).first, /*deadline_us=*/1);
  EXPECT_EQ(t.instant, static_cast<int8_t>(Outcome::kRejected));
  EXPECT_EQ(s.await(t).outcome, Outcome::kRejected);
  EXPECT_EQ(engine_->stats().rejected, before.rejected + 1);

  // A generous deadline still serves.
  const Result ok = s.await(s.submit(engine_->data().test.slice(0, 1).first, 5'000'000));
  EXPECT_EQ(ok.outcome, Outcome::kServed);

  AdmissionConfig bad;
  bad.service_margin = -1.0;
  EXPECT_THROW(engine_->set_admission(bad), std::invalid_argument);
  engine_->set_admission(AdmissionConfig{});
}

TEST_F(ServeFixture, ShedNewestUnderFullPool) {
  Session& s = engine_->session();
  engine_->drain();
  AdmissionConfig shed;
  shed.policy = AdmissionPolicy::kShedNewest;
  engine_->set_admission(shed);
  const EngineStats before = engine_->stats();

  // Fill the pool: slots stay owned until awaited, even once executed.
  const Tensor sample = engine_->data().test.slice(0, 1).first;
  std::vector<Ticket> held;
  for (int i = 0; i < kQueueCapacity; ++i) held.push_back(s.submit(sample));
  // The pool is exhausted: the next submit sheds instantly instead of
  // blocking.
  const Ticket extra = s.submit(sample);
  EXPECT_EQ(extra.instant, static_cast<int8_t>(Outcome::kShed));
  const Result r = s.await(extra);
  EXPECT_EQ(r.outcome, Outcome::kShed);
  EXPECT_EQ(r.logits.numel(), 0);

  for (const Ticket& t : held) EXPECT_EQ(s.await(t).outcome, Outcome::kServed);
  const EngineStats after = engine_->stats();
  EXPECT_EQ(after.shed, before.shed + 1);
  EXPECT_EQ(after.queue_full_waits, before.queue_full_waits);  // nobody blocked
  engine_->set_admission(AdmissionConfig{});
}

TEST_F(ServeFixture, CloseSessionRacesInflightTrafficAndDrain) {
  const data::Dataset& test = engine_->data().test;
  Session& eph = engine_->open_session("ephemeral", kApproxPlan);

  // Phase 1: concurrent tenant traffic racing engine drains.
  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      int i = c;
      while (!stop.load()) {
        const Result r = eph.await(eph.submit(test.slice(i++ % test.size(), 1).first));
        r.outcome == Outcome::kServed ? ++served : ++bad;
      }
    });
  }
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    engine_->drain();  // must coexist with live submits
  }
  stop = true;
  for (auto& t : clients) t.join();
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(bad.load(), 0);

  // Phase 2: close while a ticket is still unawaited. close_session blocks
  // until the session owns no slots, and submits racing it throw.
  const Ticket held = eph.submit(test.slice(0, 1).first);
  std::thread closer([&] { engine_->close_session("ephemeral"); });
  for (;;) {
    try {
      const Ticket t = eph.submit(test.slice(0, 1).first);
      (void)eph.await(t);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } catch (const std::logic_error&) {
      break;  // closing_ observed: new submits are refused
    }
  }
  // The accepted request still resolves; only then can the close finish.
  EXPECT_EQ(eph.await(held).outcome, Outcome::kServed);
  closer.join();

  // The name is reusable, and the engine still serves.
  EXPECT_THROW(engine_->close_session("ephemeral"), std::invalid_argument);
  EXPECT_THROW(engine_->close_session("default"), std::invalid_argument);
  Session& again = engine_->open_session("ephemeral", kApproxPlan);
  EXPECT_EQ(again.await(again.submit(test.slice(0, 1).first)).outcome, Outcome::kServed);
  engine_->close_session("ephemeral");
}

TEST_F(ServeFixture, ReloadValidatesBeforePausingDispatch) {
  ReloadSpec both;
  both.weights = "weights.axnp";
  both.from_checkpoint = true;
  EXPECT_THROW(engine_->reload(both), std::invalid_argument);
  ReloadSpec ckpt;
  ckpt.from_checkpoint = true;  // engine loaded without checkpoint_dir
  EXPECT_THROW(engine_->reload(ckpt), std::logic_error);
  EXPECT_THROW(engine_->save_checkpoint(), std::logic_error);
  ReloadSpec ladder;
  ladder.qos_points = "full:default=trunc5";  // engine loaded without a ladder
  EXPECT_THROW(engine_->reload(ladder), std::logic_error);
  ReloadSpec badplan;
  badplan.plan = "default=no_such_mul";
  EXPECT_THROW(engine_->reload(badplan), std::invalid_argument);
  // A failed reload leaves serving untouched.
  Session& s = engine_->session();
  EXPECT_EQ(s.await(s.submit(engine_->data().test.slice(0, 1).first)).outcome,
            Outcome::kServed);
}

TEST_F(ServeFixture, ReloadSwapsDefaultPlanUnderLiveTraffic) {
  const data::Dataset& test = engine_->data().test;
  Session& s = engine_->session();
  engine_->drain();
  const EngineStats before = engine_->stats();

  // Background traffic across the swap: zero failed requests is the reload
  // contract, not best-effort.
  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::atomic<int> errors{0};
  std::thread traffic([&] {
    int i = 0;
    while (!stop.load()) {
      try {
        const Result r = s.await(s.submit(test.slice(i++ % test.size(), 1).first));
        if (r.outcome == Outcome::kServed) ++served;
      } catch (...) {
        ++errors;
        break;
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  ReloadSpec to_exact;
  to_exact.plan = kExactPlan;
  engine_->reload(to_exact);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stop = true;
  traffic.join();
  engine_->drain();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(served.load(), 0);

  // The default session now serves exact arithmetic: bit-identical to the
  // "exact" tenant's reference.
  const Tensor sample = test.slice(0, 1).first;
  const Result r = s.await(s.submit(sample));
  engine_->drain();
  const Tensor exact_ref = reference_logits(*engine_, *exact_, sample);
  ASSERT_EQ(r.logits.numel(), exact_ref.numel());
  for (int64_t j = 0; j < exact_ref.numel(); ++j) ASSERT_EQ(r.logits[j], exact_ref[j]);

  // Swap back; the approximate path returns bit-identically too.
  ReloadSpec to_approx;
  to_approx.plan = kApproxPlan;
  engine_->reload(to_approx);
  const Result r2 = s.await(s.submit(sample));
  engine_->drain();
  const Tensor approx_ref = reference_logits(*engine_, s, sample);
  bool differs = false;
  for (int64_t j = 0; j < approx_ref.numel(); ++j) {
    ASSERT_EQ(r2.logits[j], approx_ref[j]);
    differs = differs || approx_ref[j] != exact_ref[j];
  }
  EXPECT_TRUE(differs);

  const EngineStats after = engine_->stats();
  EXPECT_EQ(after.reloads, before.reloads + 2);
  EXPECT_EQ(after.failed_requests, before.failed_requests);
}

TEST_F(ServeFixture, StalledLaneIsQuarantinedBatchRetriedElsewhereAndReadmitted) {
  Session& s = engine_->session();
  const data::Dataset& test = engine_->data().test;
  engine_->drain();
  ASSERT_EQ(engine_->lanes(), 2);
  ASSERT_EQ(engine_->healthy_lanes(), 2);
  const EngineStats before = engine_->stats();

  // Tight explicit budget so the stall trips deterministically; quick
  // probation so the test doesn't dawdle.
  WatchdogConfig wd;
  wd.budget_ms = 150;
  wd.probation_interval_ms = 25;
  wd.probation_passes = 2;
  engine_->set_watchdog(wd);
  // Stall the next batch dispatched to lane 0 well past the budget.
  std::atomic<bool> armed{true};
  engine_->set_chaos([&](int lane, int64_t) {
    if (lane == 0 && armed.exchange(false))
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
  });

  // One full batch lands on lane 0 (the first idle lane), stalls, is
  // abandoned by the watchdog and re-run on lane 1 — every request still
  // serves.
  std::vector<Ticket> tickets;
  for (int i = 0; i < kMaxBatch; ++i) tickets.push_back(s.submit(test.slice(i, 1).first));
  for (const Ticket& t : tickets) {
    const Result r = s.await(t);
    EXPECT_EQ(r.outcome, Outcome::kServed);
    EXPECT_EQ(r.batch_size, kMaxBatch);
  }
  EngineStats after = engine_->stats();
  EXPECT_EQ(after.quarantines, before.quarantines + 1);
  EXPECT_EQ(after.requeued_batches, before.requeued_batches + 1);
  EXPECT_EQ(after.failed_requests, before.failed_requests);

  // Probation: golden-input probes on the lane's own worker readmit it once
  // the straggler finishes sleeping and the probes pass.
  for (int i = 0; i < 1000 && engine_->healthy_lanes() < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(engine_->healthy_lanes(), 2);
  EXPECT_EQ(engine_->lane_health(0), LaneHealth::kHealthy);
  after = engine_->stats();
  EXPECT_EQ(after.readmissions, before.readmissions + 1);
  EXPECT_EQ(after.lanes_quarantined, 0);
  EXPECT_GE(after.probes, before.probes + wd.probation_passes);
  // The straggler's late result was discarded, not delivered.
  EXPECT_EQ(after.discarded_batches, before.discarded_batches + 1);

  engine_->set_chaos(nullptr);
  engine_->set_watchdog(WatchdogConfig{});

  // The readmitted lane serves bit-identical traffic again.
  engine_->drain();
  const Tensor sample = test.slice(0, 1).first;
  const Result r = s.await(s.submit(sample));
  engine_->drain();
  const Tensor ref = reference_logits(*engine_, s, sample);
  for (int64_t j = 0; j < ref.numel(); ++j) ASSERT_EQ(r.logits[j], ref[j]);
}

}  // namespace
}  // namespace axnn::serve
