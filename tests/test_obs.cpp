// Observability layer tests: Json round-trips, collector aggregation,
// per-layer path telemetry on a real (nested) model, bit-identical forwards
// with collection off vs on, and the GE residual golden check.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>

#include "axnn/axmul/registry.hpp"
#include "axnn/core/pipeline.hpp"
#include "axnn/core/profile.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/obs/json.hpp"
#include "axnn/obs/report.hpp"
#include "axnn/obs/telemetry.hpp"
#include "axnn/train/evaluate.hpp"

namespace axnn {
namespace {

using core::ApproxStageSetup;
using core::BenchProfile;
using core::ModelKind;
using core::Workbench;
using core::WorkbenchConfig;
using obs::Json;

BenchProfile micro_profile() {
  BenchProfile p;
  p.image_size = 8;
  p.train_size = 160;
  p.test_size = 80;
  p.resnet_width = 0.25f;
  p.mobilenet_width = 0.25f;
  p.fp_epochs = 4;
  p.ft_epochs = 2;
  p.ft_batch = 40;
  p.quant_epochs = 1;
  p.decay_every = 2;
  p.cache_dir = (std::filesystem::temp_directory_path() / "axnn_obs_cache").string();
  return p;
}

WorkbenchConfig micro_config(ModelKind kind = ModelKind::kResNet20) {
  WorkbenchConfig cfg;
  cfg.model = kind;
  cfg.profile = micro_profile();
  cfg.calib_samples = 80;
  cfg.use_cache = false;
  return cfg;
}

TEST(Json, DumpParseRoundTrip) {
  Json j = Json::object();
  j["s"] = "he\"llo\nworld";
  j["n"] = 1.5;
  j["i"] = int64_t{42};
  j["b"] = true;
  j["nul"] = Json();
  Json arr = Json::array();
  arr.push_back(1.0);
  arr.push_back("two");
  Json nested = Json::object();
  nested["k"] = -3.25;
  arr.push_back(std::move(nested));
  j["arr"] = std::move(arr);

  const Json back = Json::parse(j.dump(2));
  EXPECT_EQ(back.dump(), j.dump());
  EXPECT_EQ(back.find("s")->str(), "he\"llo\nworld");
  EXPECT_DOUBLE_EQ(back.find("arr")->items()[2].find("k")->number(), -3.25);
  EXPECT_TRUE(back.find("nul")->is_null());
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  Json j = Json::object();
  j["nan"] = std::nan("");
  j["inf"] = HUGE_VAL;
  const Json back = Json::parse(j.dump());
  EXPECT_TRUE(back.find("nan")->is_null());
  EXPECT_TRUE(back.find("inf")->is_null());
}

TEST(Telemetry, CollectorAggregatesAndScopesRestore) {
  EXPECT_FALSE(obs::enabled());
  obs::Collector outer;
  {
    obs::ScopedCollector attach(outer);
    EXPECT_TRUE(obs::enabled());
    obs::collector()->add("a/b", "m", 1.0);
    obs::collector()->add("a/b", "m", 3.0);
    obs::Collector inner;
    {
      obs::ScopedCollector attach2(inner);
      obs::collector()->add("x", "m", 7.0);
    }
    EXPECT_EQ(obs::collector(), &outer);  // previous collector restored
  }
  EXPECT_FALSE(obs::enabled());
  const auto st = outer.stat("a/b", "m");
  EXPECT_EQ(st.count, 2);
  EXPECT_DOUBLE_EQ(st.sum, 4.0);
  EXPECT_DOUBLE_EQ(st.min, 1.0);
  EXPECT_DOUBLE_EQ(st.max, 3.0);
  EXPECT_DOUBLE_EQ(st.mean(), 2.0);
  EXPECT_EQ(outer.stat("x", "m").count, 0);  // inner scope didn't leak
}

TEST(Telemetry, ScopedPathBuildsSlashJoinedPaths) {
  EXPECT_EQ(obs::current_path(), "");
  obs::Collector c;
  obs::ScopedCollector attach(c);
  obs::ScopedPath a("block");
  {
    obs::ScopedPath b("conv#0");
    EXPECT_EQ(obs::current_path(), "block/conv#0");
  }
  EXPECT_EQ(obs::current_path(), "block");
}

TEST(Report, RoundTripThroughParser) {
  obs::RunReport report("unit", "Unit-test report");
  report.metric("acc", 0.75);
  report.add_table("t", {"a", "b"}, {{"1", "2"}, {"3", "4"}});
  Json ev = Json::object();
  ev["type"] = "epoch";
  ev["n"] = 1;
  report.add_event(std::move(ev));

  obs::Collector c;
  c.add("layer/conv", "forward.macs", 100.0);
  report.merge_telemetry(c);

  const Json back = Json::parse(report.to_string());
  EXPECT_EQ(back.find("schema_version")->number(), obs::kReportSchemaVersion);
  EXPECT_EQ(back.find("name")->str(), "unit");
  EXPECT_DOUBLE_EQ(back.find("metrics")->find("acc")->number(), 0.75);
  const Json* table = back.find("tables")->find("t");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->find("rows")->items()[1].items()[0].str(), "3");
  const Json* stat = back.find("telemetry")->find("layer/conv")->find("forward.macs");
  ASSERT_NE(stat, nullptr);
  EXPECT_DOUBLE_EQ(stat->find("sum")->number(), 100.0);
  EXPECT_EQ(stat->find("count")->number(), 1.0);
  EXPECT_EQ(report.events().size(), 1u);
}

TEST(TelemetryModel, ForwardIsBitIdenticalWithCollectorOnOrOff) {
  // MobileNetV2 included so ge_residual's exact re-GEMM covers grouped /
  // depthwise convolutions, not just dense ResNet ones.
  for (const ModelKind kind : {ModelKind::kResNet20, ModelKind::kMobileNetV2}) {
    Workbench wb(micro_config(kind));
    (void)wb.run_quantization_stage(/*use_kd=*/false);
    const auto batch = wb.data().test.slice(0, 16);
    const approx::SignedMulTable tab(axmul::make_lut("trunc3"));

    for (const nn::ExecContext& ctx :
         {nn::ExecContext::fp(), nn::ExecContext::quant_exact(),
          nn::ExecContext::quant_approx(tab)}) {
      const Tensor off = wb.model().forward(batch.first, ctx);
      obs::Collector c({.timing = true, .ge_residual = true});
      Tensor on;
      {
        obs::ScopedCollector attach(c);
        on = wb.model().forward(batch.first, ctx);
      }
      const Tensor off2 = wb.model().forward(batch.first, ctx);
      ASSERT_EQ(off.numel(), on.numel());
      EXPECT_EQ(std::memcmp(off.data(), on.data(), sizeof(float) * off.numel()), 0);
      EXPECT_EQ(std::memcmp(off.data(), off2.data(), sizeof(float) * off.numel()), 0);
    }
  }
}

TEST(TelemetryModel, PerLayerPathsMatchPlanAddressableLeaves) {
  Workbench wb(micro_config());
  (void)wb.run_quantization_stage(/*use_kd=*/false);
  const auto batch = wb.data().test.slice(0, 8);

  obs::Collector c;
  {
    obs::ScopedCollector attach(c);
    (void)wb.model().forward(batch.first, nn::ExecContext::quant_exact());
  }

  // Every plan-addressable GEMM leaf (nested ResNet blocks included, with
  // their '#k' sibling disambiguators) must have recorded one forward under
  // exactly its NetPlan path.
  const auto metrics = c.metrics();
  for (const auto& leaf : nn::enumerate_gemm_leaves(wb.model())) {
    const auto it = metrics.find(leaf.path);
    ASSERT_NE(it, metrics.end()) << "no telemetry under path " << leaf.path;
    const auto calls = it->second.find("forward.calls");
    ASSERT_NE(calls, it->second.end()) << leaf.path;
    EXPECT_EQ(calls->second.count, 1) << leaf.path;
    EXPECT_GT(it->second.at("forward.macs").sum, 0.0) << leaf.path;
    // An inference forward keeps no STE mask, yet reports the clip rate.
    const auto clip = it->second.find("act_clip_rate");
    ASSERT_NE(clip, it->second.end()) << leaf.path;
    EXPECT_EQ(clip->second.count, 1) << leaf.path;
    EXPECT_GE(clip->second.sum, 0.0) << leaf.path;
    EXPECT_LE(clip->second.sum, 1.0) << leaf.path;
  }
  // And nesting really occurred: at least one path has depth >= 3 segments.
  bool nested = false;
  for (const auto& [path, unused] : metrics) {
    (void)unused;
    if (std::count(path.begin(), path.end(), '/') >= 2) nested = true;
  }
  EXPECT_TRUE(nested);
}

TEST(TelemetryModel, GeResidualIsZeroForExactMultiplier) {
  Workbench wb(micro_config());
  (void)wb.run_quantization_stage(/*use_kd=*/false);

  obs::Collector c({.timing = false, .ge_residual = true});
  {
    obs::ScopedCollector attach(c);
    (void)wb.run_approximation_stage(
        ApproxStageSetup::uniform("exact", train::Method::kApproxKD_GE, 1.0f));
  }

  // Golden check: with the exact multiplier the observed per-accumulator
  // error ε (approx − exact re-run) is identically zero, and any recorded
  // fit residual |f(y) − ε| is zero too.
  bool saw_eps = false;
  for (const auto& [path, metrics] : c.metrics()) {
    const auto eps = metrics.find("ge.eps_abs");
    if (eps != metrics.end()) {
      saw_eps = true;
      EXPECT_EQ(eps->second.max, 0.0) << path;
    }
    const auto res = metrics.find("ge.fit_residual");
    if (res != metrics.end()) {
      EXPECT_NEAR(res->second.max, 0.0, 1e-9) << path;
    }
  }
  EXPECT_TRUE(saw_eps);
}

}  // namespace
}  // namespace axnn
