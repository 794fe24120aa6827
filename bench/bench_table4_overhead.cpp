// Table IV — computational overhead of ApproxKD and GE relative to normal
// fine-tuning.
//
// Paper: normal fine-tuning takes 2027 s for 30 epochs in ProxSim;
// ApproxKD + GE adds only ~17%. The reproduction times the same four
// configurations over identical epochs/batches and reports the relative
// overhead (absolute seconds differ — CPU simulator vs their GPU).
//
// One fine-tuning run per method is a sample, not a measurement: on a shared
// host the same run moves by tens of percent. So the four methods run in
// kRounds interleaved rounds (normal, GE, ApproxKD, ApproxKD+GE each round),
// and a method's overhead is the median over rounds of its time over that
// round's normal run, which a slow stretch of the host inflates on both
// sides of the ratio alike.
#include <algorithm>

#include "bench_common.hpp"

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace

AXNN_BENCH_CASE(table4_overhead, "Table IV — fine-tuning overhead") {
  using namespace axnn;

  const auto profile = core::BenchProfile::from_env();
  core::Workbench wb(bench::workbench_config(core::ModelKind::kResNet20));
  (void)wb.run_quantization_stage(/*use_kd=*/true);

  auto fc = wb.default_ft_config();
  fc.epochs = profile.full ? 5 : 3;  // timing runs; accuracy is irrelevant
  fc.eval_every_epoch = false;

  struct Config {
    const char* name;
    train::Method method;
    double paper_overhead_pct;  // vs normal, from Table IV
  };
  const std::vector<Config> configs = {
      {"normal", train::Method::kNormal, 0.0},
      {"GE", train::Method::kGE, 5.0},
      {"ApproxKD", train::Method::kApproxKD, 13.0},
      {"ApproxKD+GE", train::Method::kApproxKD_GE, 17.0},
  };
  constexpr int kRounds = 5;

  // seconds[i][r]: method i in round r; configs[0] is the normal run.
  std::vector<std::vector<double>> seconds(configs.size());
  std::vector<std::vector<double>> ratio(configs.size());
  for (int r = 0; r < kRounds; ++r)
    for (size_t i = 0; i < configs.size(); ++i) {
      auto setup = core::ApproxStageSetup::uniform("trunc5", configs[i].method, 5.0f);
      setup.finetune = fc;
      const double s = wb.run_approximation_stage(setup).result.seconds;
      seconds[i].push_back(s);
      ratio[i].push_back(s / seconds[0][static_cast<size_t>(r)]);
    }

  core::Table table({"Method", "median s", "min-max s", "overhead vs normal[%]",
                     "paper overhead[%]"});
  for (size_t i = 0; i < configs.size(); ++i) {
    const auto [lo, hi] = std::minmax_element(seconds[i].begin(), seconds[i].end());
    const double overhead_pct = (median(ratio[i]) - 1.0) * 100.0;
    table.add_row({configs[i].name, core::Table::num(median(seconds[i]), 2),
                   core::Table::num(*lo, 2) + "-" + core::Table::num(*hi, 2),
                   core::Table::num(overhead_pct, 1),
                   core::Table::num(configs[i].paper_overhead_pct, 0)});
    ctx.metric(std::string("seconds.") + configs[i].name, median(seconds[i]));
    ctx.metric(std::string("overhead_pct.") + configs[i].name, overhead_pct);
  }
  std::printf("%d interleaved rounds; overhead = median over rounds of seconds / that "
              "round's normal seconds\n",
              kRounds);
  bench::emit_table(ctx, "table4", table);
  return 0;
}
