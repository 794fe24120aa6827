// Plan-search tests: Pareto-dominance utilities (strict/non-strict, tie
// handling), plan-spec round trips through core::plan_io for both grammars,
// spec validation, and end-to-end search determinism under a fixed seed on
// a micro Workbench (one stage-1 training shared by the whole suite).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "axnn/axnn.hpp"

namespace axnn {
namespace {

using search::Objective;

// --- Pareto utilities ------------------------------------------------------

TEST(Pareto, StrictAndWeakDominance) {
  const Objective better{0.9, 100.0}, worse{0.8, 200.0};
  EXPECT_TRUE(search::dominates(better, worse));
  EXPECT_FALSE(search::dominates(worse, better));
  EXPECT_TRUE(search::weakly_dominates(better, worse));

  // Equal points: weak dominance both ways, strict neither way.
  EXPECT_TRUE(search::weakly_dominates(better, better));
  EXPECT_FALSE(search::dominates(better, better));

  // One objective better, one worse: incomparable.
  const Objective cheap{0.8, 50.0};
  EXPECT_FALSE(search::dominates(better, cheap));
  EXPECT_FALSE(search::dominates(cheap, better));
  EXPECT_FALSE(search::weakly_dominates(cheap, better));

  // Equal on one axis, better on the other: strict.
  const Objective same_acc_cheaper{0.9, 50.0};
  EXPECT_TRUE(search::dominates(same_acc_cheaper, better));
  EXPECT_FALSE(search::dominates(better, same_acc_cheaper));
}

TEST(Pareto, FrontFiltersDominatedAndKeepsFirstOfTies) {
  const std::vector<Objective> pts = {
      {0.90, 100.0},  // front
      {0.80, 200.0},  // dominated by 0
      {0.85, 50.0},   // front
      {0.90, 100.0},  // duplicate of 0 — dropped (first survives)
      {0.95, 300.0},  // front (best accuracy)
      {0.85, 50.0},   // duplicate of 2 — dropped
  };
  const auto front = search::pareto_front(pts);
  EXPECT_EQ(front, (std::vector<size_t>{0, 2, 4}));

  // Guarantee: every point is weakly dominated by some front member.
  for (size_t i = 0; i < pts.size(); ++i) {
    bool covered = false;
    for (size_t f : front) covered = covered || search::weakly_dominates(pts[f], pts[i]);
    EXPECT_TRUE(covered) << "point " << i << " not covered by the front";
  }
}

TEST(Pareto, EmptyAndSingleton) {
  EXPECT_TRUE(search::pareto_front({}).empty());
  EXPECT_EQ(search::pareto_front({{0.5, 1.0}}), std::vector<size_t>{0});
}

// --- plan_io: unified plan-spec parsing ------------------------------------

TEST(PlanIo, MultiLinePlanParsesAndRoundTrips) {
  const std::string text =
      "# heterogeneous plan, one override per line\n"
      "default=trunc5\n"
      "\n"
      "fc=trunc2:noge\n";
  const nn::NetPlan plan = core::plan_io::parse_plan(text);
  EXPECT_EQ(plan.uniform().multiplier, "trunc5");
  ASSERT_EQ(plan.overrides().size(), 1u);
  EXPECT_EQ(plan.overrides().at("fc").multiplier, "trunc2");
  EXPECT_FALSE(plan.overrides().at("fc").use_ge);

  const auto doc = core::plan_io::parse(text);
  EXPECT_FALSE(doc.ladder);
  ASSERT_EQ(doc.entries.size(), 1u);
  EXPECT_EQ(doc.entries[0].plan_text, "default=trunc5; fc=trunc2:noge");
  EXPECT_EQ(core::plan_io::parse(core::plan_io::to_text(doc)), doc);
}

TEST(PlanIo, PlanErrorsNameTheLine) {
  try {
    (void)core::plan_io::parse_plan("default=trunc5\n# fine\nfc=nosuchmul\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
  // A 'point' line inside a plan file is a grammar mix, named by line.
  try {
    (void)core::plan_io::parse("default=trunc5\npoint fast = default=trunc2\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(PlanIo, LadderParsesRoundTripsAndMatchesQos) {
  const std::string text =
      "# ladder\n"
      "point hi = default=trunc2\n"
      "point lo = default=trunc5:mode=exact; fc=trunc5\n";
  const auto ladder = core::plan_io::parse_ladder(text);
  ASSERT_EQ(ladder.size(), 2u);
  EXPECT_EQ(ladder[0].name, "hi");
  EXPECT_EQ(ladder[1].plan_text, "default=trunc5:mode=exact; fc=trunc5");
  EXPECT_EQ(core::plan_io::parse_ladder(core::plan_io::to_text(ladder)), ladder);

  // The qos entry point is a thin wrapper over the same parser.
  const auto qos_pts = qos::parse_points(text);
  ASSERT_EQ(qos_pts.size(), ladder.size());
  for (size_t i = 0; i < ladder.size(); ++i) {
    EXPECT_EQ(qos_pts[i].name, ladder[i].name);
    EXPECT_EQ(qos_pts[i].plan_text, ladder[i].plan_text);
  }

  const auto doc = core::plan_io::parse(text);
  EXPECT_TRUE(doc.ladder);
  ASSERT_EQ(doc.entries.size(), 2u);
  EXPECT_EQ(core::plan_io::parse(core::plan_io::to_text(doc)), doc);
}

TEST(PlanIo, LadderErrorsNameTheLineAndCaller) {
  try {
    (void)core::plan_io::parse_ladder("point a = default=trunc5\npoint a = default=trunc5\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate"), std::string::npos) << what;
  }
  // The qos wrapper keeps its historical error prefix.
  try {
    (void)qos::parse_points("point bad! = default=trunc5\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("qos::parse_points: line 1"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)core::plan_io::parse_ladder("# nothing\n"), std::invalid_argument);
  EXPECT_THROW((void)core::plan_io::parse(""), std::invalid_argument);
}

// --- run_search on a micro Workbench ---------------------------------------

core::WorkbenchConfig micro_config() {
  core::WorkbenchConfig cfg;
  cfg.model = core::ModelKind::kResNet20;
  cfg.profile.image_size = 8;
  cfg.profile.train_size = 160;
  cfg.profile.test_size = 80;
  cfg.profile.resnet_width = 0.25f;
  cfg.profile.fp_epochs = 4;
  cfg.profile.ft_epochs = 2;
  cfg.profile.ft_batch = 40;
  cfg.profile.quant_epochs = 1;
  cfg.profile.decay_every = 2;
  cfg.profile.cache_dir =
      (std::filesystem::temp_directory_path() / "axnn_search_cache").string();
  cfg.use_cache = false;
  return cfg;
}

search::SearchSpec micro_search_spec() {
  search::SearchSpec spec;
  spec.multipliers = {"trunc2", "trunc5"};
  spec.budget_evals = 12;
  spec.holdout = 40;
  spec.seed = 7;
  spec.evolution_generations = 2;
  spec.population = 6;
  return spec;
}

class SearchFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    wb_ = new core::Workbench(micro_config());
    (void)wb_->run_quantization_stage(/*use_kd=*/true);
  }
  static void TearDownTestSuite() {
    delete wb_;
    wb_ = nullptr;
  }

  static core::Workbench* wb_;
};

core::Workbench* SearchFixture::wb_ = nullptr;

TEST_F(SearchFixture, RejectsBadSpecs) {
  search::SearchSpec spec = micro_search_spec();
  spec.multipliers = {"nosuchmul"};
  EXPECT_THROW((void)search::run_search(*wb_, spec), std::invalid_argument);

  spec = micro_search_spec();
  spec.budget_evals = 2;  // cannot even measure baseline + uniforms + 1
  EXPECT_THROW((void)search::run_search(*wb_, spec), std::invalid_argument);

  spec = micro_search_spec();
  spec.max_points = 0;
  EXPECT_THROW((void)search::run_search(*wb_, spec), std::invalid_argument);

  spec = micro_search_spec();
  spec.widths = {{1, 8}};  // below the supported range
  EXPECT_THROW((void)search::run_search(*wb_, spec), std::invalid_argument);

  // A direct call with no candidates has nothing to rank a leaf by.
  std::unique_ptr<nn::Sequential> model = wb_->clone();
  data::Dataset sample;
  auto head = wb_->data().test.slice(0, 8);
  sample.images = head.first;
  sample.labels = std::move(head.second);
  ge::FitRegistry fits;
  EXPECT_THROW((void)search::profile_sensitivity(*model, sample, {}, fits),
               std::invalid_argument);
}

/// Keeps each leaf's input as the quantized forward hands it over.
class LeafInputRecorder final : public nn::ForwardMonitor {
public:
  bool force_exact(const nn::Layer&) override { return false; }
  void on_leaf_input(const nn::Layer& leaf, const Tensor& x) override { inputs[&leaf] = x; }
  bool on_leaf_gemm(const nn::Layer&, int64_t, bool, const int8_t*, const int8_t*, int32_t*,
                    int64_t, int64_t, int64_t, const approx::SignedMulTable*) override {
    return false;
  }
  std::map<const nn::Layer*, Tensor> inputs;
};

/// The fake-quant clip rate: the share of x whose nearbyintf level falls
/// outside [qmin, qmax].
double fake_quant_clip_rate(const Tensor& x, const quant::QuantParams& p) {
  int64_t clipped = 0;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float v = std::nearbyintf(x[i] * (1.0f / p.step));
    clipped += v < static_cast<float>(p.qmin()) || v > static_cast<float>(p.qmax()) ? 1 : 0;
  }
  return static_cast<double>(clipped) / static_cast<double>(x.numel());
}

TEST_F(SearchFixture, ProfiledClipRateIsTheMeanOfActivationAndWeightRates) {
  std::unique_ptr<nn::Sequential> model = wb_->clone();
  data::Dataset sample;
  auto head = wb_->data().test.slice(0, 8);
  sample.images = head.first;
  sample.labels = std::move(head.second);
  LeafInputRecorder rec;
  (void)model->forward(sample.images, nn::ExecContext::quant_exact().with_monitor(rec));

  ge::FitRegistry fits;
  const search::SensitivityModel sens =
      search::profile_sensitivity(*model, sample, {search::Candidate{}}, fits);
  const auto leaves = nn::enumerate_gemm_leaves(*model);
  ASSERT_EQ(sens.layers.size(), leaves.size());
  int nonzero = 0;
  for (size_t i = 0; i < leaves.size(); ++i) {
    const Tensor* w = nullptr;
    quant::QuantParams wqp, aqp;
    if (auto* c = dynamic_cast<nn::Conv2d*>(leaves[i].layer)) {
      w = &c->weight().value;
      wqp = c->weight_qparams();
      aqp = c->act_qparams();
    } else if (auto* l = dynamic_cast<nn::Linear*>(leaves[i].layer)) {
      w = &l->weight().value;
      wqp = l->weight_qparams();
      aqp = l->act_qparams();
    }
    ASSERT_NE(w, nullptr);
    ASSERT_EQ(rec.inputs.count(leaves[i].layer), 1u) << leaves[i].path;
    const double want = (fake_quant_clip_rate(rec.inputs.at(leaves[i].layer), aqp) +
                         fake_quant_clip_rate(*w, wqp)) /
                        2.0;
    EXPECT_DOUBLE_EQ(sens.layers[i].clip_rate, want) << leaves[i].path;
    nonzero += want > 0.0 ? 1 : 0;
  }
  EXPECT_GT(nonzero, 0);
}

TEST_F(SearchFixture, DeterministicAndDominatesUniforms) {
  const search::SearchSpec spec = micro_search_spec();
  const search::SearchResult a = search::run_search(*wb_, spec);
  const search::SearchResult b = search::run_search(*wb_, spec);

  // Determinism under a fixed seed: identical fronts, point for point.
  ASSERT_EQ(a.front.size(), b.front.size());
  for (size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].name, b.front[i].name);
    EXPECT_EQ(a.front[i].plan_text, b.front[i].plan_text);
    EXPECT_DOUBLE_EQ(a.front[i].holdout_acc, b.front[i].holdout_acc);
    EXPECT_DOUBLE_EQ(a.front[i].energy_per_sample, b.front[i].energy_per_sample);
  }
  EXPECT_EQ(a.to_ladder_text(), b.to_ladder_text());
  EXPECT_EQ(a.evals_used, b.evals_used);

  // Budget respected; front present and ladder-ordered (accuracy desc).
  ASSERT_FALSE(a.front.empty());
  EXPECT_LE(a.evals_used, spec.budget_evals);
  EXPECT_LE(static_cast<int>(a.front.size()), spec.max_points);
  for (size_t i = 1; i < a.front.size(); ++i)
    EXPECT_GE(a.front[i - 1].holdout_acc, a.front[i].holdout_acc);

  // Every uniform baseline is weakly dominated by some front point.
  ASSERT_EQ(a.uniform_baselines.size(), spec.multipliers.size());
  for (const auto& ub : a.uniform_baselines) {
    bool covered = false;
    for (const auto& fp : a.front)
      covered = covered || search::weakly_dominates({fp.holdout_acc, fp.energy_per_sample},
                                                    {ub.holdout_acc, ub.energy_per_sample});
    EXPECT_TRUE(covered) << ub.name << " not dominated by the front";
  }

  // The emitted ladder is directly consumable by the QoS machinery.
  const auto pts = qos::parse_points(a.to_ladder_text());
  ASSERT_EQ(pts.size(), a.front.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].name, a.front[i].name);
    EXPECT_EQ(pts[i].plan_text, a.front[i].plan_text);
  }

  // Sensitivity profile covers every GEMM leaf, shares sum to ~1.
  EXPECT_FALSE(a.sensitivity.empty());
  double share = 0.0;
  for (const auto& s : a.sensitivity) share += s.mac_share;
  EXPECT_NEAR(share, 1.0, 1e-9);
}

}  // namespace
}  // namespace axnn
