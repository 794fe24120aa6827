// Tests for the runtime sentinel (DESIGN.md §5f): the exact table checksum
// (zero tolerance on every registry multiplier, LUT and weight faults alike),
// golden repair, range guards, and the degradation policy — including the
// acceptance-criterion proof that a fault-free forward is bit-identical with
// the sentinel attached.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <thread>

#include "axnn/approx/signed_lut.hpp"
#include "axnn/axmul/registry.hpp"
#include "axnn/core/report_adapters.hpp"
#include "axnn/data/synthetic.hpp"
#include "axnn/kernels/isa.hpp"
#include "axnn/kernels/plan.hpp"
#include "axnn/nn/activations.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/linear.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/nn/pooling.hpp"
#include "axnn/nn/qutils.hpp"
#include "axnn/nn/sequential.hpp"
#include "axnn/resilience/fault.hpp"
#include "axnn/sentinel/sentinel.hpp"
#include "axnn/tensor/buffer_pool.hpp"
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

  // Same guarantee on the plain quantized-exact path: its integer GEMMs get
  // the exact column-sum check, and none of them violates it.
  s.reset_counters();
  const Tensor e0 = net_->forward(batch_, nn::ExecContext::quant_exact());
  const Tensor e1 = net_->forward(batch_, nn::ExecContext::quant_exact().with_monitor(s));
  expect_bit_identical(e0, e1);
  const SentinelReport rep2 = s.report();
  EXPECT_EQ(rep2.total_violations(), 0);
  ASSERT_EQ(rep2.leaves.size(), 3u);
  for (const auto& l : rep2.leaves) {
    EXPECT_GT(l.gemm_checks, 0) << l.path;
    EXPECT_GT(l.range_checks, 0) << l.path;
  }
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

  // kExact degradation forces the leaves through the exact table: the
  // second pass is bit-identical to an exact-multiplier forward, and its
  // exact GEMMs, which the LUT fault does not reach, pass the exact
  // checksum.
  const approx::SignedMulTable exact(axmul::make_lut("exact"));
  const Tensor want = net_->forward(batch_, nn::ExecContext::quant_approx(exact));
  const SentinelReport before = s.report();
  const Tensor y2 = net_->forward(batch_, nn::ExecContext::quant_approx(bad).with_monitor(s));
  expect_bit_identical(want, y2);
  const SentinelReport after = s.report();
  for (size_t i = 0; i < after.leaves.size(); ++i) {
    EXPECT_GT(after.leaves[i].gemm_checks, before.leaves[i].gemm_checks) << after.leaves[i].path;
    EXPECT_EQ(after.leaves[i].abft_violations, before.leaves[i].abft_violations)
        << after.leaves[i].path;
  }
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

TEST_F(SentinelFixture, RangeGuardFlagsNonFiniteActivations) {
  // Corrupted floats are often NaN or ±inf; each, planted in one element of
  // the first leaf's input, is a range violation there. The clean batch
  // raises none.
  const auto ctx = nn::ExecContext::quant_exact();
  Sentinel s;
  s.calibrate_uniform(*net_, "exact");
  (void)net_->forward(batch_, ctx.with_monitor(s));
  ASSERT_EQ(s.report().total_violations(), 0) << s.report().summary();
  for (const float v : {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()}) {
    s.reset_counters();
    Tensor bad = batch_;
    bad[5] = v;
    (void)net_->forward(bad, ctx.with_monitor(s));
    const SentinelReport rep = s.report();
    EXPECT_EQ(rep.leaves.at(0).range_violations, 1) << v << ": " << rep.summary();
  }
}

TEST_F(SentinelFixture, TotalViolationsMatchesTheReport) {
  // The engine reads total_violations() once per batch; it must count what
  // report() does, after faults of both kinds and after a reset.
  approx::SignedMulTable bad(axmul::make_lut("trunc5"));
  resilience::FaultSpec spec;
  spec.rate = 0.3;
  spec.kind = resilience::FaultKind::kStuckAt;
  spec.bit_lo = 8;
  spec.bit_hi = 16;
  spec.seed = 99;
  resilience::FaultInjector inj(spec);
  resilience::corrupt_lut(bad, inj);
  Sentinel s;
  s.calibrate_uniform(*net_, "trunc5");
  Tensor blown = batch_;
  for (int64_t i = 0; i < blown.numel(); ++i) blown[i] *= 1000.0f;
  (void)net_->forward(blown, nn::ExecContext::quant_approx(bad).with_monitor(s));

  const SentinelReport rep = s.report();
  int64_t abft = 0, range = 0;
  for (const auto& l : rep.leaves) {
    abft += l.abft_violations;
    range += l.range_violations;
  }
  ASSERT_GT(abft, 0);
  ASSERT_GT(range, 0);
  EXPECT_EQ(s.total_violations(), rep.total_violations());
  s.reset_counters();
  EXPECT_EQ(s.total_violations(), 0);
  EXPECT_EQ(s.total_violations(), s.report().total_violations());
}

/// Flips exponent bits in the first conv's weights (bias untouched, so a
/// golden repair restores the output exactly).
void corrupt_first_conv_weights(nn::Sequential& net) {
  auto* conv0 = dynamic_cast<nn::Conv2d*>(nn::enumerate_gemm_leaves(net).at(0).layer);
  ASSERT_NE(conv0, nullptr);
  resilience::FaultSpec spec;
  spec.rate = 0.1;
  spec.bit_lo = 23;
  spec.bit_hi = 30;
  spec.seed = 21;
  resilience::FaultInjector inj(spec);
  resilience::corrupt_tensors({&conv0->weight().value}, inj);
}

/// "default=trunc5" with the first leaf overridden to `mode=exact`.
nn::PlanResolution first_leaf_exact_plan(nn::Sequential& net) {
  const std::string first = nn::enumerate_gemm_leaves(net).at(0).path;
  return nn::NetPlan::parse("default=trunc5; " + first + "=trunc5:mode=exact").resolve(net);
}

/// Forwards every hook to a sentinel, counting which GEMM hook each leaf
/// got; it takes planes only when `planes`, and otherwise gets columns. For
/// the leaf `watch` it keeps the GEMM's C as the kernel left it and the
/// smallest byte of X.
class HookProbe final : public nn::ForwardMonitor {
public:
  HookProbe(Sentinel& s, bool planes) : s_(s), planes_(planes) {}
  bool force_exact(const nn::Layer& l) override { return s_.force_exact(l); }
  void on_leaf_input(const nn::Layer& l, const Tensor& x) override { s_.on_leaf_input(l, x); }
  bool on_leaf_gemm(const nn::Layer& l, int64_t group, bool approx, const int8_t* w,
                    const int8_t* x, int32_t* c, int64_t m, int64_t k, int64_t n,
                    const approx::SignedMulTable* tab) override {
    ++cols[&l];
    if (&l == watch) keep(c, m * n, x, x + k * n);
    return s_.on_leaf_gemm(l, group, approx, w, x, c, m, k, n, tab);
  }
  bool takes_planes() const override { return planes_; }
  bool on_leaf_plane_gemm(const nn::Layer& l, bool approx, const int8_t* w,
                          const kernels::ConvPlane& x, int32_t* c, int64_t m, int64_t k,
                          int64_t n, const approx::SignedMulTable* tab) override {
    ++planes[&l];
    if (&l == watch) keep(c, m * n, x.data, x.data + x.batch * x.channels * x.ph * x.pw);
    return s_.on_leaf_plane_gemm(l, approx, w, x, c, m, k, n, tab);
  }
  std::map<const nn::Layer*, int> cols, planes;
  const nn::Layer* watch = nullptr;
  std::vector<int32_t> watched_c;
  int8_t watched_min_x = 0;

private:
  void keep(const int32_t* c, int64_t size, const int8_t* x0, const int8_t* x1) {
    watched_c.assign(c, c + size);
    watched_min_x = *std::min_element(x0, x1);
  }

private:
  Sentinel& s_;
  bool planes_;
};

/// Whether `leaf` (a stride-1 conv of the micro model) runs its trunc5 GEMM
/// from its padded plane: on AVX2, under the closed-form kernel.
bool runs_from_plane(const nn::Conv2d& conv, const Tensor& batch,
                     const approx::SignedMulTable& tab) {
  const auto& cfg = conv.config();
  const nn::ConvGeom g = nn::ConvGeom::of(batch.shape(), cfg.kernel, cfg.stride, cfg.padding);
  const kernels::ConvPlane plane{nullptr, g.n, g.c, g.h + 2 * g.padding, g.w + 2 * g.padding,
                                 g.kernel, g.stride};
  const kernels::PlanKey key =
      kernels::make_int_key(kernels::OpKind::kApprox, {}, cfg.out_channels, g.patch_rows(),
                            g.out_cols(), kernels::Backend::kBlocked, &tab);
  return kernels::PlanCache::global().acquire(key, &tab)->reads_plane(plane);
}

TEST_F(SentinelFixture, PlaneConvIsCheckedFromItsPlaneWithoutColumns) {
  // The first conv (stride 1, 8x8 outputs) runs trunc5 from its padded
  // plane on AVX2. With the sentinel attached it still does: the sentinel
  // takes the plane hook, and the conv lowers no columns for it, so the
  // forward makes exactly one pool allocation fewer than with a monitor
  // that asks for columns.
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  const auto leaves = nn::enumerate_gemm_leaves(*net_);
  auto* conv0 = dynamic_cast<nn::Conv2d*>(leaves.at(0).layer);
  ASSERT_NE(conv0, nullptr);
  if (!runs_from_plane(*conv0, batch_, tab)) GTEST_SKIP() << "no plane GEMM on this ISA";
  Sentinel s;
  s.calibrate_uniform(*net_, "trunc5");
  EXPECT_TRUE(s.takes_planes());
  const auto ctx = nn::ExecContext::quant_approx(tab);
  const Tensor want = net_->forward(batch_, ctx);

  int64_t allocs[2] = {};
  for (const bool planes : {true, false}) {
    HookProbe probe(s, planes);
    (void)net_->forward(batch_, ctx.with_monitor(probe));  // warm the plans and the pool
    probe.cols.clear();
    probe.planes.clear();
    buffer_pool_reset_stats();
    expect_bit_identical(want, net_->forward(batch_, ctx.with_monitor(probe)));
    const BufferPoolStats ps = buffer_pool_stats();
    allocs[planes ? 0 : 1] = ps.hits + ps.misses;
    EXPECT_EQ(probe.planes[conv0], planes ? 1 : 0);
    EXPECT_EQ(probe.cols[conv0], planes ? 0 : 1);
    for (size_t i = 1; i < leaves.size(); ++i) {  // stride 2 and the FC: columns
      EXPECT_EQ(probe.planes[leaves[i].layer], 0) << leaves[i].path;
      EXPECT_EQ(probe.cols[leaves[i].layer], 1) << leaves[i].path;
    }
  }
  EXPECT_EQ(allocs[0] + 1, allocs[1]);  // the first conv's columns
  const SentinelReport rep = s.report();
  EXPECT_EQ(rep.total_violations(), 0) << rep.summary();
  EXPECT_EQ(rep.leaves.at(0).gemm_checks, 4);
}

TEST(SentinelPlaneConv, WeightFaultRepairedUnderBothPoliciesAndOnceDegraded) {
  // A weight fault on the plane conv is detected from the plane and
  // repaired bit-identically from the plane: through the pristine table
  // under kGoldenTable (before and after degradation), and through the exact
  // table under kExact, whose degraded leaf is forced exact, keeps reading
  // its plane and stays checked from it.
  const data::SyntheticCifar data = micro_data();
  const Tensor batch = data.test.slice(0, 24).first;
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  const auto ctx = nn::ExecContext::quant_approx(tab);
  for (const auto mode :
       {DegradationPolicy::RepairMode::kGoldenTable, DegradationPolicy::RepairMode::kExact}) {
    const bool golden = mode == DegradationPolicy::RepairMode::kGoldenTable;
    SCOPED_TRACE(golden ? "kGoldenTable" : "kExact");
    auto net = micro_net();
    train::calibrate_model(*net, data.train, 60, 30, quant::Calibration::kMinPropQE);
    const nn::Layer* conv0 = nn::enumerate_gemm_leaves(*net).at(0).layer;
    if (!runs_from_plane(dynamic_cast<const nn::Conv2d&>(*conv0), batch, tab))
      GTEST_SKIP() << "no plane GEMM on this ISA";
    // kGoldenTable restores clean trunc5; kExact runs the first conv exact.
    const Tensor want =
        golden ? net->forward(batch, ctx)
               : net->forward(batch, nn::ExecContext{.mode = nn::ExecMode::kQuantApprox}
                                         .with_plan(first_leaf_exact_plan(*net)));

    SentinelConfig cfg;
    cfg.policy.repair = mode;
    cfg.policy.degrade_after = 2;
    Sentinel s(cfg);
    s.calibrate_uniform(*net, "trunc5");
    HookProbe probe(s, true);
    // A repair from the plane lowers no columns: no repaired pass takes
    // more pool buffers than a fault-free one.
    buffer_pool_reset_stats();
    (void)net->forward(batch, ctx.with_monitor(probe));
    const int64_t clean_buffers = buffer_pool_stats().hits + buffer_pool_stats().misses;
    corrupt_first_conv_weights(*net);
    ASSERT_TRUE(any_element_differs(want, net->forward(batch, ctx)));  // the fault bites

    for (int pass = 0; pass < 4; ++pass) {
      SCOPED_TRACE(::testing::Message() << "pass " << pass);
      const int planes_before = probe.planes[conv0], cols_before = probe.cols[conv0];
      const SentinelReport before = s.report();
      buffer_pool_reset_stats();
      expect_bit_identical(want, net->forward(batch, ctx.with_monitor(probe)));
      EXPECT_LE(buffer_pool_stats().hits + buffer_pool_stats().misses, clean_buffers);
      const LeafStats l0 = s.report().leaves.at(0);
      EXPECT_EQ(l0.degraded, pass >= 1);
      EXPECT_EQ(l0.reexecs, before.leaves.at(0).reexecs + 1);
      // Checked every pass, except a degraded kGoldenTable leaf, which
      // recomputes from golden state unchecked.
      EXPECT_EQ(l0.abft_violations, before.leaves.at(0).abft_violations +
                                        (golden && pass >= 2 ? 0 : 1));
      // A kExact-degraded leaf is forced exact: the exact table's closed
      // form reads the same plane, so every pass reaches the plane hook.
      EXPECT_EQ(probe.planes[conv0] - planes_before, 1);
      EXPECT_EQ(probe.cols[conv0] - cols_before, 0);
    }
  }
}

/// Conv2d{3,8,3,1,1} → ReLU → Conv2d{8,8,3,1,1} → ReLU → pool → FC on 8×8
/// images: the second conv is stride 1 and reads a ReLU'd plane.
std::unique_ptr<nn::Sequential> relu_fed_net() {
  Rng rng(3);
  auto net = std::make_unique<nn::Sequential>("relu_fed");
  net->emplace<nn::Conv2d>(nn::Conv2dConfig{3, 8, 3, 1, 1, 1, true}, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Conv2d>(nn::Conv2dConfig{8, 8, 3, 1, 1, 1, true}, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::GlobalAvgPool>();
  net->emplace<nn::Linear>(8, 10, rng);
  return net;
}

/// Negates the weight of `conv` whose quantized value has the largest
/// magnitude in output row 0, at flat index `at` if given: one weight fault.
void negate_one_weight(nn::Conv2d& conv, int64_t at = -1) {
  const TensorI8 q = nn::quantize_i8(conv.weight().value, conv.weight_qparams());
  const int64_t k = q.numel() / conv.config().out_channels;
  if (at < 0) {
    at = 0;
    for (int64_t i = 1; i < k; ++i)
      if (std::abs(q[i]) > std::abs(q[at])) at = i;
  }
  ASSERT_NE(q[at], 0);
  conv.weight().value[at] = -conv.weight().value[at];
}

/// "default=trunc5" with leaf `index` overridden to `mode=exact`.
nn::PlanResolution leaf_exact_plan(nn::Sequential& net, size_t index) {
  const std::string path = nn::enumerate_gemm_leaves(net).at(index).path;
  return nn::NetPlan::parse("default=trunc5; " + path + "=trunc5:mode=exact").resolve(net);
}

TEST(SentinelRowCheck, WeightFaultOnReluFedConvIsCaughtFromItsPlaneAndRepaired) {
  // The second conv reads a ReLU'd plane, so the sentinel checks it by row
  // sums. One weight fault there shifts every column's product the same
  // way (T(w, a) is monotone in w for a ≥ 0), so its row sum moves: the
  // fault is detected from the plane and repaired bit for bit under both
  // policies, from the plane, with no more pool buffers than a clean pass.
  const data::SyntheticCifar data = micro_data();
  const Tensor batch = data.test.slice(0, 24).first;
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  const auto ctx = nn::ExecContext::quant_approx(tab);
  for (const auto mode :
       {DegradationPolicy::RepairMode::kGoldenTable, DegradationPolicy::RepairMode::kExact}) {
    const bool golden = mode == DegradationPolicy::RepairMode::kGoldenTable;
    SCOPED_TRACE(golden ? "kGoldenTable" : "kExact");
    auto net = relu_fed_net();
    train::calibrate_model(*net, data.train, 60, 30, quant::Calibration::kMinPropQE);
    auto& conv1 = dynamic_cast<nn::Conv2d&>(*nn::enumerate_gemm_leaves(*net).at(1).layer);
    if (!runs_from_plane(conv1, Tensor(Shape{24, 8, 8, 8}), tab))
      GTEST_SKIP() << "no plane GEMM on this ISA";
    const Tensor want =
        golden ? net->forward(batch, ctx)
               : net->forward(batch, nn::ExecContext{.mode = nn::ExecMode::kQuantApprox}
                                         .with_plan(leaf_exact_plan(*net, 1)));
    SentinelConfig cfg;
    cfg.policy.repair = mode;
    cfg.policy.degrade_after = 1000000;  // repair every pass, never degrade
    Sentinel s(cfg);
    s.calibrate_uniform(*net, "trunc5");
    HookProbe probe(s, true);
    probe.watch = &conv1;
    buffer_pool_reset_stats();
    (void)net->forward(batch, ctx.with_monitor(probe));
    const int64_t clean_buffers = buffer_pool_stats().hits + buffer_pool_stats().misses;
    for (const LeafStats& l : s.report().leaves) ASSERT_EQ(l.abft_violations, 0) << l.path;
    negate_one_weight(conv1);
    ASSERT_TRUE(any_element_differs(want, net->forward(batch, ctx)));  // the fault bites

    for (int pass = 0; pass < 2; ++pass) {
      SCOPED_TRACE(::testing::Message() << "pass " << pass);
      const SentinelReport before = s.report();
      const int planes_before = probe.planes[&conv1], cols_before = probe.cols[&conv1];
      buffer_pool_reset_stats();
      expect_bit_identical(want, net->forward(batch, ctx.with_monitor(probe)));
      EXPECT_LE(buffer_pool_stats().hits + buffer_pool_stats().misses, clean_buffers);
      EXPECT_GE(probe.watched_min_x, 0);  // a non-negative plane: the row check
      EXPECT_EQ(probe.planes[&conv1] - planes_before, 1);
      EXPECT_EQ(probe.cols[&conv1] - cols_before, 0);
      const SentinelReport now = s.report();
      EXPECT_EQ(now.leaves.at(1).abft_violations, before.leaves.at(1).abft_violations + 1);
      EXPECT_EQ(now.leaves.at(1).reexecs, before.leaves.at(1).reexecs + 1);
      for (const size_t i : {size_t{0}, size_t{2}})
        EXPECT_EQ(now.leaves.at(i).abft_violations, 0) << now.leaves.at(i).path;
    }
  }
}

TEST(SentinelRowCheck, SignedStemKeepsTheColumnCheckForFaultsThatCancelInRows) {
  // One weight fault in the stem, on a tap that reads +a at one output and
  // −a at another (every other pixel 0). The closed-form product is odd in
  // a, so the two columns' differences cancel in the row sum: a row check
  // would miss this fault. The stem's input is signed, so the sentinel
  // checks columns, flags the fault and repairs it.
  const data::SyntheticCifar data = micro_data();
  const approx::SignedMulTable tab(axmul::make_lut("trunc5"));
  const auto ctx = nn::ExecContext::quant_approx(tab);
  auto net = micro_net();
  train::calibrate_model(*net, data.train, 60, 30, quant::Calibration::kMinPropQE);
  auto& stem = dynamic_cast<nn::Conv2d&>(*nn::enumerate_gemm_leaves(*net).at(0).layer);
  // Row 0's centre tap of channel 0 (weight index 4) reads pixel (2, 2) at
  // output (2, 2) and pixel (5, 5) at output (5, 5).
  Tensor image(Shape{1, 3, 8, 8});
  const float a = 100.0f * stem.act_qparams().step;
  image[2 * 8 + 2] = a;
  image[5 * 8 + 5] = -a;
  const Tensor clean = net->forward(image, ctx);

  SentinelConfig cfg;
  cfg.policy.degrade_after = 1000000;
  Sentinel s(cfg);
  s.calibrate_uniform(*net, "trunc5");
  HookProbe probe(s, true);
  probe.watch = &stem;
  expect_bit_identical(clean, net->forward(image, ctx.with_monitor(probe)));
  const std::vector<int32_t> clean_c = probe.watched_c;
  negate_one_weight(stem, 4);

  const Tensor repaired = net->forward(image, ctx.with_monitor(probe));
  const SentinelReport rep = s.report();
  EXPECT_EQ(rep.leaves.at(0).abft_violations, 1) << rep.summary();
  EXPECT_EQ(rep.leaves.at(0).reexecs, 1);
  expect_bit_identical(clean, repaired);
  // The fault as the kernel computed it: columns differ, row sums do not.
  const int64_t n = 64;
  ASSERT_EQ(probe.watched_c.size(), clean_c.size());
  EXPECT_LT(probe.watched_min_x, 0);
  int64_t columns_changed = 0;
  for (size_t i = 0; i < clean_c.size() / n; ++i) {
    int64_t before = 0, after = 0;
    for (size_t j = 0; j < n; ++j) {
      before += clean_c[i * n + j];
      after += probe.watched_c[i * n + j];
      columns_changed += clean_c[i * n + j] != probe.watched_c[i * n + j] ? 1 : 0;
    }
    EXPECT_EQ(before, after) << "row " << i;
  }
  EXPECT_EQ(columns_changed, 2);
}

TEST_F(SentinelFixture, WeightFaultOnExactModeLeafRepairedFromGoldenCopy) {
  // A `mode=exact` plan leaf runs the exact integer kernel, so it gets the
  // golden column-sum check like every other quantized GEMM.
  const nn::PlanResolution res = first_leaf_exact_plan(*net_);
  const auto ctx = nn::ExecContext{.mode = nn::ExecMode::kQuantApprox}.with_plan(res);
  const Tensor clean = net_->forward(batch_, ctx);

  SentinelConfig cfg;
  cfg.policy.degrade_after = 1000000;  // repair every pass, never degrade
  Sentinel s(cfg);
  s.calibrate_plan(res);
  corrupt_first_conv_weights(*net_);
  ASSERT_TRUE(any_element_differs(clean, net_->forward(batch_, ctx)));  // the faults bite

  expect_bit_identical(clean, net_->forward(batch_, ctx.with_monitor(s)));
  const SentinelReport rep = s.report();
  ASSERT_EQ(rep.leaves.size(), 3u);
  EXPECT_GT(rep.leaves[0].gemm_checks, 0);
  EXPECT_GT(rep.leaves[0].abft_violations, 0) << rep.summary();
  EXPECT_GT(rep.leaves[0].reexecs, 0);
  for (size_t i = 1; i < rep.leaves.size(); ++i)
    EXPECT_EQ(rep.leaves[i].abft_violations, 0) << rep.leaves[i].path;
  EXPECT_EQ(rep.degraded_leaves(), 0);
}

TEST_F(SentinelFixture, DegradedLeafRunsExactAndStaysChecked) {
  nn::LayerPlan uniform;
  uniform.multiplier = "trunc5";
  const nn::PlanResolution res = nn::NetPlan(uniform).resolve(*net_);
  // What a repaired pass must give: the clean model with the first conv
  // exact (golden weights) and the other leaves on trunc5.
  const nn::PlanResolution mixed = first_leaf_exact_plan(*net_);
  const Tensor want =
      net_->forward(batch_, nn::ExecContext{.mode = nn::ExecMode::kQuantApprox}.with_plan(mixed));

  SentinelConfig cfg;
  cfg.policy.degrade_after = 1;
  cfg.policy.repair = DegradationPolicy::RepairMode::kExact;
  Sentinel s(cfg);
  s.calibrate_plan(res);
  corrupt_first_conv_weights(*net_);  // exactly one leaf must degrade

  const auto ctx =
      nn::ExecContext{.mode = nn::ExecMode::kQuantApprox}.with_plan(res).with_monitor(s);
  (void)net_->forward(batch_, ctx);
  SentinelReport prev = s.report();
  ASSERT_EQ(prev.degraded_leaves(), 1) << prev.summary();
  ASSERT_TRUE(prev.leaves[0].degraded);

  // Degradation forces the leaf exact through the monitor; the resolution
  // is untouched.
  for (const auto& e : res.entries()) EXPECT_FALSE(e.plan.mode.has_value()) << e.path;

  // Every later pass still checks the degraded leaf: its still-corrupted
  // weights are flagged and repaired from the golden copy each time.
  for (int pass = 0; pass < 3; ++pass) {
    expect_bit_identical(want, net_->forward(batch_, ctx));
    const SentinelReport now = s.report();
    EXPECT_GT(now.leaves[0].gemm_checks, prev.leaves[0].gemm_checks) << "pass " << pass;
    EXPECT_GT(now.leaves[0].abft_violations, prev.leaves[0].abft_violations) << "pass " << pass;
    EXPECT_GT(now.leaves[0].reexecs, prev.leaves[0].reexecs) << "pass " << pass;
    for (size_t i = 1; i < now.leaves.size(); ++i) EXPECT_FALSE(now.leaves[i].degraded);
    prev = now;
  }
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

TEST(SentinelCalibration, WeightsWiderThanFourBitsThrowNamingTheLeaf) {
  // Every checksum reads 4-bit weight operands, so a leaf quantized to 5
  // bits cannot be checked, not even as a `mode=exact` plan leaf.
  const data::SyntheticCifar data = micro_data();
  auto net = micro_net();
  const std::string first = nn::enumerate_gemm_leaves(*net).at(0).path;
  dynamic_cast<nn::Conv2d&>(*nn::enumerate_gemm_leaves(*net).at(0).layer).set_bit_widths(5, 8);
  train::calibrate_model(*net, data.train, 60, 30, quant::Calibration::kMinPropQE);
  const nn::PlanResolution res =
      nn::NetPlan::parse("default=trunc5; " + first + "=trunc5:w5:mode=exact").resolve(*net);
  for (const bool uniform : {true, false}) {
    SCOPED_TRACE(uniform ? "calibrate_uniform" : "calibrate_plan");
    Sentinel s;
    try {
      if (uniform)
        s.calibrate_uniform(*net, "exact");
      else
        s.calibrate_plan(res);
      ADD_FAILURE() << "no std::logic_error";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + first + "' has 5-bit weights"),
                std::string::npos)
          << e.what();
    }
  }
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
