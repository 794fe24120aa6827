// Tests for the runtime sentinel (DESIGN.md §5f): the exact table checksum
// (zero tolerance on every registry multiplier, LUT and weight faults alike),
// golden repair, range guards, and the degradation policy — including the
// acceptance-criterion proof that a fault-free forward is bit-identical with
// the sentinel attached.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>

#include "axnn/approx/signed_lut.hpp"
#include "axnn/axmul/registry.hpp"
#include "axnn/core/report_adapters.hpp"
#include "axnn/data/synthetic.hpp"
#include "axnn/nn/activations.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/linear.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/nn/pooling.hpp"
#include "axnn/nn/qutils.hpp"
#include "axnn/nn/sequential.hpp"
#include "axnn/resilience/fault.hpp"
#include "axnn/sentinel/sentinel.hpp"
#include "axnn/train/evaluate.hpp"

namespace axnn::sentinel {
namespace {

data::SyntheticCifar micro_data() {
  data::SyntheticConfig cfg;
  cfg.image_size = 8;
  cfg.train_size = 120;
  cfg.test_size = 60;
  cfg.noise_sigma = 0.35f;
  cfg.bleed_prob = 0.2f;
  return data::make_synthetic_cifar(cfg);
}

std::unique_ptr<nn::Sequential> micro_net(uint64_t seed = 3) {
  Rng rng(seed);
  auto net = std::make_unique<nn::Sequential>("micro");
  net->emplace<nn::Conv2d>(nn::Conv2dConfig{3, 8, 3, 1, 1, 1, true}, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Conv2d>(nn::Conv2dConfig{8, 8, 3, 2, 1, 1, true}, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::GlobalAvgPool>();
  net->emplace<nn::Linear>(8, 10, rng);
  return net;
}

void expect_bit_identical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << "element " << i;
}

bool any_element_differs(const Tensor& a, const Tensor& b) {
  for (int64_t i = 0; i < a.numel(); ++i)
    if (a[i] != b[i]) return true;
  return false;
}

/// Calibrated micro model and a test batch.
class SentinelFixture : public ::testing::Test {
protected:
  void SetUp() override {
    data_ = micro_data();
    net_ = micro_net();
    train::calibrate_model(*net_, data_.train, 60, 30, quant::Calibration::kMinPropQE);
    batch_ = data_.test.slice(0, 24).first;
  }

  data::SyntheticCifar data_;
  std::unique_ptr<nn::Sequential> net_;
  Tensor batch_;
};

TEST_F(SentinelFixture, FaultFreeExactForwardBitIdentical) {
  const approx::SignedMulTable tab(axmul::make_lut("exact"));
  Sentinel s;
  s.calibrate_uniform(*net_, "exact");

  // Approximate context with the exact multiplier: the monitored forward
  // must reproduce the unmonitored one bit for bit, with zero violations.
  const auto ctx = nn::ExecContext::quant_approx(tab);
  const Tensor y0 = net_->forward(batch_, ctx);
  const Tensor y1 = net_->forward(batch_, ctx.with_monitor(s));
  expect_bit_identical(y0, y1);

  const SentinelReport rep = s.report();
  EXPECT_EQ(rep.total_violations(), 0);
  EXPECT_GT(rep.total_checks(), 0);
  EXPECT_EQ(rep.degraded_leaves(), 0);

  // Same guarantee on the plain quantized-exact path (range guards only).
  s.reset_counters();
  const Tensor e0 = net_->forward(batch_, nn::ExecContext::quant_exact());
  const Tensor e1 = net_->forward(batch_, nn::ExecContext::quant_exact().with_monitor(s));
  expect_bit_identical(e0, e1);
  const SentinelReport rep2 = s.report();
  EXPECT_EQ(rep2.total_violations(), 0);
  ASSERT_EQ(rep2.leaves.size(), 3u);
  for (const auto& l : rep2.leaves) EXPECT_GT(l.range_checks, 0);
}

TEST_F(SentinelFixture, CleanApproximateRunHasNoFalsePositives) {
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  Sentinel s;
  s.calibrate_uniform(*net_, "trunc5");

  // Several fault-free approximate batches: the table checksum is exact, so
  // the genuine approximation error raises no violation at tolerance zero.
  const auto ctx = nn::ExecContext::quant_approx(tab).with_monitor(s);
  for (int64_t off = 0; off + 20 <= 60; off += 20)
    (void)net_->forward(data_.test.slice(off, 20).first, ctx);

  const SentinelReport rep = s.report();
  EXPECT_EQ(rep.total_violations(), 0) << rep.summary();
  EXPECT_GT(rep.total_checks(), 0);
}

TEST_F(SentinelFixture, LutFaultsDetectedRepairedAndDegraded) {
  const approx::SignedMulTable clean(axmul::make_lut("trunc5"));
  SentinelConfig cfg;
  cfg.policy.degrade_after = 1;  // degrade on the first checksum violation
  Sentinel s(cfg);
  s.calibrate_uniform(*net_, "trunc5");

  // Heavy stuck-at corruption in a copy of the table (calibration saw the
  // clean one, as a deployment would).
  approx::SignedMulTable bad(axmul::make_lut("trunc5"));
  resilience::FaultSpec spec;
  spec.rate = 0.3;
  spec.kind = resilience::FaultKind::kStuckAt;
  spec.bit_lo = 8;
  spec.bit_hi = 16;
  spec.seed = 99;
  resilience::FaultInjector inj(spec);
  resilience::corrupt_lut(bad, inj);

  const Tensor y1 = net_->forward(batch_, nn::ExecContext::quant_approx(bad).with_monitor(s));
  const SentinelReport rep = s.report();
  EXPECT_GT(rep.total_violations(), 0);
  EXPECT_GT(rep.total_reexecs(), 0);
  ASSERT_EQ(rep.degraded_leaves(), 3) << rep.summary();  // every leaf tripped

  // Every leaf now recomputes from golden state (default kGoldenTable
  // repair), so passes through the corrupted table are bit-identical to a
  // clean trunc5 forward — the faulty LUT is never consulted again, and
  // the model keeps the approximate semantics it was calibrated for.
  const Tensor want = net_->forward(batch_, nn::ExecContext::quant_approx(clean));
  const Tensor y2 = net_->forward(batch_, nn::ExecContext::quant_approx(bad).with_monitor(s));
  expect_bit_identical(want, y2);

  // The degraded pass skips verification: violations did not keep growing.
  const SentinelReport rep2 = s.report();
  EXPECT_EQ(rep2.total_violations(), rep.total_violations());
}

TEST_F(SentinelFixture, ExactRepairModeDegradesToExactKernel) {
  const approx::SignedMulTable clean(axmul::make_lut("trunc5"));
  SentinelConfig cfg;
  cfg.policy.degrade_after = 1;
  cfg.policy.repair = DegradationPolicy::RepairMode::kExact;
  Sentinel s(cfg);
  s.calibrate_uniform(*net_, "trunc5");

  approx::SignedMulTable bad(axmul::make_lut("trunc5"));
  resilience::FaultSpec spec;
  spec.rate = 0.3;
  spec.kind = resilience::FaultKind::kStuckAt;
  spec.bit_lo = 8;
  spec.bit_hi = 16;
  spec.seed = 99;
  resilience::FaultInjector inj(spec);
  resilience::corrupt_lut(bad, inj);

  (void)net_->forward(batch_, nn::ExecContext::quant_approx(bad).with_monitor(s));
  ASSERT_EQ(s.report().degraded_leaves(), 3) << s.report().summary();

  // kExact degradation forces the leaves through the exact integer kernel:
  // the second pass is bit-identical to an exact-multiplier forward.
  const approx::SignedMulTable exact(axmul::make_lut("exact"));
  const Tensor want = net_->forward(batch_, nn::ExecContext::quant_approx(exact));
  const Tensor y2 = net_->forward(batch_, nn::ExecContext::quant_approx(bad).with_monitor(s));
  expect_bit_identical(want, y2);
}

TEST_F(SentinelFixture, WeightFaultsRepairedFromGoldenCopy) {
  const approx::SignedMulTable tab(axmul::make_lut("exact"));
  SentinelConfig cfg;
  cfg.policy.degrade_after = 1000000;  // repair every pass, never degrade
  Sentinel s(cfg);
  s.calibrate_uniform(*net_, "exact");

  const auto ctx = nn::ExecContext::quant_approx(tab);
  const Tensor clean = net_->forward(batch_, ctx);

  // Flip exponent bits in every GEMM weight tensor (biases untouched so the
  // golden repair can restore the output exactly). bit_hi=30 keeps the top
  // exponent bit and the sign intact — corrupted but finite weights.
  std::vector<Tensor*> weights;
  for (const auto& leaf : nn::enumerate_gemm_leaves(*net_)) {
    if (auto* c = dynamic_cast<nn::Conv2d*>(leaf.layer)) weights.push_back(&c->weight().value);
    if (auto* l = dynamic_cast<nn::Linear*>(leaf.layer)) weights.push_back(&l->weight().value);
  }
  ASSERT_EQ(weights.size(), 3u);
  resilience::FaultSpec spec;
  spec.rate = 0.05;
  spec.bit_lo = 23;
  spec.bit_hi = 30;
  spec.seed = 7;
  resilience::FaultInjector inj(spec);
  resilience::corrupt_tensors(weights, inj);

  const Tensor broken = net_->forward(batch_, ctx);
  ASSERT_TRUE(any_element_differs(clean, broken));  // the faults really bite

  // The monitored forward detects the column-checksum mismatch and re-runs
  // each GEMM with the golden quantized weights captured at calibration.
  const Tensor repaired = net_->forward(batch_, ctx.with_monitor(s));
  expect_bit_identical(clean, repaired);
  const SentinelReport rep = s.report();
  EXPECT_GT(rep.total_reexecs(), 0);
  EXPECT_EQ(rep.degraded_leaves(), 0);
  int64_t abft_violations = 0;
  for (const auto& l : rep.leaves) abft_violations += l.abft_violations;
  EXPECT_GT(abft_violations, 0);
}

TEST_F(SentinelFixture, RangeGuardFlagsOutOfRangeActivations) {
  Sentinel s;
  s.calibrate_uniform(*net_, "exact");

  Tensor blown = batch_;
  for (int64_t i = 0; i < blown.numel(); ++i) blown[i] *= 1000.0f;
  (void)net_->forward(blown, nn::ExecContext::quant_exact().with_monitor(s));

  const SentinelReport rep = s.report();
  int64_t range_violations = 0;
  for (const auto& l : rep.leaves) range_violations += l.range_violations;
  EXPECT_GT(range_violations, 0);
  // Range guards warn; they never degrade a leaf on their own.
  EXPECT_EQ(rep.degraded_leaves(), 0);
}

TEST_F(SentinelFixture, PlanRewriteDemotesDegradedLeavesToExactMode) {
  nn::LayerPlan uniform;
  uniform.multiplier = "trunc5";
  nn::NetPlan plan(uniform);
  nn::PlanResolution res = plan.resolve(*net_);

  SentinelConfig cfg;
  cfg.policy.degrade_after = 1;
  cfg.policy.repair = DegradationPolicy::RepairMode::kExact;  // plan rewrite mode
  Sentinel s(cfg);
  s.calibrate_plan(*net_, res);

  // Weight corruption on the first conv only: exactly one leaf must degrade
  // and have its plan entry rewritten to the exact quantized mode.
  auto leaves = nn::enumerate_gemm_leaves(*net_);
  ASSERT_EQ(leaves.size(), 3u);
  auto* conv0 = dynamic_cast<nn::Conv2d*>(leaves[0].layer);
  ASSERT_NE(conv0, nullptr);
  resilience::FaultSpec spec;
  spec.rate = 0.1;
  spec.bit_lo = 23;
  spec.bit_hi = 30;
  spec.seed = 21;
  resilience::FaultInjector inj(spec);
  resilience::corrupt_tensors({&conv0->weight().value}, inj);

  const approx::SignedMulTable fallback(axmul::make_lut("exact"));
  const auto ctx = nn::ExecContext::quant_approx(fallback).with_plan(res).with_monitor(s);
  (void)net_->forward(batch_, ctx);

  const SentinelReport rep = s.report();
  EXPECT_EQ(rep.degraded_leaves(), 1) << rep.summary();
  const nn::ResolvedLayerPlan* entry = res.find(*leaves[0].layer);
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(entry->plan.mode.has_value());
  EXPECT_EQ(*entry->plan.mode, nn::ExecMode::kQuantExact);
  // The healthy leaves keep their approximate plan.
  for (size_t i = 1; i < leaves.size(); ++i) {
    const nn::ResolvedLayerPlan* e = res.find(*leaves[i].layer);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->plan.mode.has_value()) << leaves[i].path;
  }

  // A later pass runs the rewritten plan without further violations: the
  // demoted leaf takes the exact fake-quant path and is no longer checked.
  const Tensor y = net_->forward(batch_, ctx);
  for (int64_t i = 0; i < y.numel(); ++i) ASSERT_TRUE(std::isfinite(y[i]));
  EXPECT_EQ(s.report().total_violations(), rep.total_violations());
}

TEST_F(SentinelFixture, ReportSummaryJsonAndReset) {
  const approx::SignedMulTable tab(axmul::make_lut("exact"));
  Sentinel s;
  s.calibrate_uniform(*net_, "exact");
  (void)net_->forward(batch_, nn::ExecContext::quant_approx(tab).with_monitor(s));

  const SentinelReport rep = s.report();
  EXPECT_NE(rep.summary().find("leaves"), std::string::npos);
  const std::string json = core::to_json(rep).dump();
  EXPECT_NE(json.find("violation_rate"), std::string::npos);
  EXPECT_NE(json.find("leaves"), std::string::npos);
  EXPECT_NE(json.find("gemm_checks"), std::string::npos);

  s.reset_counters();
  const SentinelReport zero = s.report();
  EXPECT_EQ(zero.total_checks(), 0);
  EXPECT_EQ(zero.total_violations(), 0);
  ASSERT_EQ(zero.leaves.size(), rep.leaves.size());  // calibration survives
}

/// Records one (activation, weight) operand pair that the first leaf GEMM
/// it sees multiplies.
class FirstGemmRecorder final : public nn::ForwardMonitor {
public:
  bool force_exact(const nn::Layer&) override { return false; }
  void on_leaf_input(const nn::Layer&, const Tensor&) override {}
  bool on_leaf_gemm(const nn::Layer&, int64_t, bool, const int8_t* w, const int8_t* x, int32_t*,
                    int64_t, int64_t k, int64_t n, const approx::SignedMulTable*) override {
    for (int64_t kk = 0; kk < k && qw == 0; ++kk)  // row 0 of W
      for (int64_t j = 0; j < n && qw == 0; ++j)
        if (w[kk] != 0 && x[kk * n + j] != 0) {
          qa = x[kk * n + j];
          qw = w[kk];
        }
    return false;
  }
  int32_t qa = 0, qw = 0;
};

TEST_F(SentinelFixture, OffByOneLutEntryIsFlaggedAndRepaired) {
  // A single product the batch uses is off by one: far below any
  // statistical tolerance, but the table checksum has none.
  const approx::SignedMulTable clean(axmul::make_lut("trunc5"));
  FirstGemmRecorder rec;
  (void)net_->forward(batch_, nn::ExecContext::quant_approx(clean).with_monitor(rec));
  ASSERT_NE(rec.qw, 0);
  approx::SignedMulTable bad(axmul::make_lut("trunc5"));
  bad.mutable_data()[approx::SignedMulTable::index(rec.qa, rec.qw)] += 1;

  SentinelConfig cfg;
  cfg.policy.degrade_after = 1000000;  // repair every pass, never degrade
  Sentinel s(cfg);
  s.calibrate_uniform(*net_, "trunc5");
  const Tensor want = net_->forward(batch_, nn::ExecContext::quant_approx(clean));
  const Tensor got = net_->forward(batch_, nn::ExecContext::quant_approx(bad).with_monitor(s));

  const SentinelReport rep = s.report();
  ASSERT_FALSE(rep.leaves.empty());
  EXPECT_GT(rep.leaves[0].abft_violations, 0) << rep.summary();
  EXPECT_GT(rep.total_reexecs(), 0);
  expect_bit_identical(want, got);
}

TEST(SentinelExactness, EveryRegistryTableIsCleanOnGroupedAndDepthwiseLeaves) {
  // Zero tolerance must hold for every multiplier: exact, trunc1-5 and the
  // eight EvoApprox-like tables (evoa249 has T(a, 0) != 0, which the kernels
  // never add), on dense, grouped and depthwise GEMMs.
  const data::SyntheticCifar data = micro_data();
  Rng rng(5);
  nn::Sequential net("grouped");
  net.emplace<nn::Conv2d>(nn::Conv2dConfig{3, 8, 3, 1, 1, 1, true}, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2d>(nn::Conv2dConfig{8, 8, 3, 1, 1, 2, true}, rng);  // 2 groups
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2d>(nn::Conv2dConfig{8, 8, 3, 2, 1, 8, true}, rng);  // depthwise
  net.emplace<nn::ReLU>();
  net.emplace<nn::GlobalAvgPool>();
  net.emplace<nn::Linear>(8, 10, rng);
  train::calibrate_model(net, data.train, 60, 30, quant::Calibration::kMinPropQE);
  const Tensor batch = data.test.slice(0, 16).first;

  // Zero weights are present, so T(a, 0) would matter if it were added.
  int64_t zeros = 0;
  for (const auto& leaf : nn::enumerate_gemm_leaves(net))
    if (auto* c = dynamic_cast<nn::Conv2d*>(leaf.layer)) {
      const TensorI8 q = nn::quantize_i8(c->weight().value, c->weight_qparams());
      for (int64_t i = 0; i < q.numel(); ++i) zeros += q.data()[i] == 0 ? 1 : 0;
    }
  ASSERT_GT(zeros, 0);

  ASSERT_EQ(axmul::paper_multipliers().size(), 14u);
  for (const auto& spec : axmul::paper_multipliers()) {
    const std::string& id = spec.id;
    const approx::SignedMulTable tab(axmul::make_lut(id));
    Sentinel s;
    s.calibrate_uniform(net, id);
    const auto ctx = nn::ExecContext::quant_approx(tab);
    const Tensor y0 = net.forward(batch, ctx);
    const Tensor y1 = net.forward(batch, ctx.with_monitor(s));
    expect_bit_identical(y0, y1);
    const SentinelReport rep = s.report();
    EXPECT_EQ(rep.total_violations(), 0) << id << ": " << rep.summary();
    EXPECT_EQ(rep.total_reexecs(), 0) << id;
    EXPECT_GT(rep.total_checks(), 0) << id;
  }
}

TEST_F(SentinelFixture, ReportAndResetRaceFreeAgainstMonitoredForwards) {
  // One thread serves monitored forwards while another snapshots and resets
  // the counters; a ThreadSanitizer build must stay silent.
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  Sentinel s;
  s.calibrate_uniform(*net_, "trunc5");
  const auto ctx = nn::ExecContext::quant_approx(tab).with_monitor(s);
  const Tensor want = net_->forward(batch_, nn::ExecContext::quant_approx(tab));

  {
    std::jthread reader([&](std::stop_token stop) {  // stopped and joined at scope exit
      while (!stop.stop_requested()) {
        (void)s.report();
        s.reset_counters();
      }
    });
    for (int i = 0; i < 8; ++i) expect_bit_identical(want, net_->forward(batch_, ctx));
  }
  EXPECT_EQ(s.report().total_violations(), 0);
}

TEST(SentinelCalibration, UncalibratedModelThrows) {
  auto net = micro_net();
  Sentinel s;
  EXPECT_THROW(s.calibrate_uniform(*net, "exact"), std::logic_error);
}

// --- SentinelReport::merge edge cases --------------------------------------
// The serving engine folds one report per (point, lane) into a session-level
// view; these pin down the fold's semantics on the shapes the engine
// produces.

namespace {

LeafStats leaf(const std::string& path, int64_t checks, int64_t viols, bool degraded = false) {
  LeafStats st;
  st.path = path;
  st.gemm_checks = checks;
  st.abft_violations = viols;
  st.degraded = degraded;
  return st;
}

}  // namespace

TEST(SentinelReportMerge, EmptyReportsAreIdentity) {
  SentinelReport empty;
  SentinelReport some;
  some.leaves.push_back(leaf("conv1", 10, 2));

  // empty.merge(some): adopts the other side's rows.
  SentinelReport a = empty;
  a.merge(some);
  ASSERT_EQ(a.leaves.size(), 1u);
  EXPECT_EQ(a.leaves[0].gemm_checks, 10);

  // some.merge(empty): unchanged.
  SentinelReport b = some;
  b.merge(empty);
  ASSERT_EQ(b.leaves.size(), 1u);
  EXPECT_EQ(b.total_checks(), some.total_checks());

  SentinelReport c;
  c.merge(SentinelReport{});
  EXPECT_TRUE(c.leaves.empty());
  EXPECT_EQ(c.total_checks(), 0);
  EXPECT_DOUBLE_EQ(c.violation_rate(), 0.0);
}

TEST(SentinelReportMerge, DisjointLeafSetsAppendInOrder) {
  SentinelReport a;
  a.leaves.push_back(leaf("conv1", 4, 1));
  a.leaves.push_back(leaf("conv2", 6, 0));
  SentinelReport b;
  b.leaves.push_back(leaf("fc", 8, 2));
  b.leaves.push_back(leaf("conv9", 2, 0));

  a.merge(b);
  ASSERT_EQ(a.leaves.size(), 4u);
  // Own rows keep their order; unknown paths append in the other report's
  // order — the engine's per-point reports stay readable after the fold.
  EXPECT_EQ(a.leaves[0].path, "conv1");
  EXPECT_EQ(a.leaves[1].path, "conv2");
  EXPECT_EQ(a.leaves[2].path, "fc");
  EXPECT_EQ(a.leaves[3].path, "conv9");
  EXPECT_EQ(a.total_checks(), 4 + 6 + 8 + 2);
  EXPECT_EQ(a.total_violations(), 1 + 2);
}

TEST(SentinelReportMerge, OverlappingPathsSumOrAndMax) {
  SentinelReport a;
  a.leaves.push_back(leaf("conv1", 4, 1, /*degraded=*/false));
  SentinelReport b;
  LeafStats other = leaf("conv1", 6, 2, /*degraded=*/true);
  other.range_checks = 3;
  other.reexecs = 2;
  b.leaves.push_back(other);

  a.merge(b);
  ASSERT_EQ(a.leaves.size(), 1u);
  const LeafStats& m = a.leaves[0];
  EXPECT_EQ(m.gemm_checks, 10);
  EXPECT_EQ(m.range_checks, 3);
  EXPECT_EQ(m.abft_violations, 3);
  EXPECT_EQ(m.reexecs, 2);
  EXPECT_TRUE(m.degraded);  // OR: degraded anywhere is degraded
}

TEST(SentinelReportMerge, CountersSaturateInsteadOfWrapping) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  SentinelReport a;
  a.leaves.push_back(leaf("conv1", kMax - 5, kMax - 5));
  SentinelReport b;
  b.leaves.push_back(leaf("conv1", 100, 100));

  a.merge(b);
  // Adding past INT64_MAX must clamp, not overflow into UB / negatives.
  EXPECT_EQ(a.leaves[0].gemm_checks, kMax);
  EXPECT_EQ(a.leaves[0].abft_violations, kMax);
  EXPECT_GE(a.total_violations(), 0);

  // Repeated merges stay pinned at the ceiling.
  a.merge(b);
  EXPECT_EQ(a.leaves[0].gemm_checks, kMax);
}

}  // namespace
}  // namespace axnn::sentinel
