// Sentinel coverage sweep: detection and false-positive rates plus recovered
// accuracy for the runtime fault sentinel (DESIGN.md §5f) on ResNet20/trunc5.
//
// Three questions, matching the subsystem's acceptance criteria:
//   * False positives — the table checksum is exact (tolerance zero), so a
//     fault-free approximate run must record no checksum violation at all;
//     the bench exits 1 if it does. Accuracy must stay intact.
//   * LUT faults — sweep stuck-at defect rates in the multiplier table; at a
//     rate where the unguarded model loses >= 5 accuracy points, the
//     sentinel (re-execution through the registry-pristine table +
//     degradation) must recover at least half of the lost accuracy.
//   * Weight faults — exponent bit flips in conv/FC weight tensors break the
//     same checksum; the repair re-executes with the golden weights.
// Every repair restores the clean result bit for bit, so the bench also
// exits 1 when any row of either fault table classifies a different number
// of images correctly (summed over the seeds) than the fault-free guarded
// run: a fault the sentinel missed or repaired wrongly.
#include <cmath>
#include <memory>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace axnn;

constexpr uint64_t kSeeds[] = {11, 23, 47};

/// Test images `model` classifies correctly under `ctx`.
int64_t correct_count(nn::Layer& model, const data::Dataset& ds, const nn::ExecContext& ctx) {
  return std::llround(train::evaluate_accuracy(model, ds, ctx) * static_cast<double>(ds.size()));
}

}  // namespace

AXNN_BENCH_CASE(sentinel_coverage,
                "Sentinel coverage: detection / false positives / recovered accuracy") {
  const std::string mult = "trunc5";

  core::Workbench wb(bench::workbench_config(core::ModelKind::kResNet20));
  (void)wb.run_quantization_stage(/*use_kd=*/true);
  const auto spec = axmul::find_spec(mult).value();
  (void)wb.run_approximation_stage(
      core::ApproxStageSetup::uniform(mult, train::Method::kNormal, bench::best_t2_for(spec)));
  auto model = wb.clone();

  const approx::SignedMulTable clean_tab(axmul::make_lut(mult));
  const double clean_acc =
      train::evaluate_accuracy(*model, wb.data().test, nn::ExecContext::quant_approx(clean_tab));
  std::printf("  clean approximate accuracy: %s%%\n", bench::pct(clean_acc).c_str());
  ctx.metric("clean_acc", clean_acc);
  const approx::SignedMulTable exact_tab(axmul::make_lut("exact"));
  const double exact_acc =
      train::evaluate_accuracy(*model, wb.data().test, nn::ExecContext::quant_approx(exact_tab));
  std::printf("  same weights under the exact multiplier: %s%%\n", bench::pct(exact_acc).c_str());
  ctx.metric("exact_mul_acc", exact_acc);

  // -- False positives: fault-free approximate run under the sentinel. --
  sentinel::SentinelConfig scfg;
  scfg.policy.degrade_after = 1;  // stuck-at defects persist: degrade fast
  sentinel::Sentinel sent(scfg);
  sent.calibrate_uniform(*model, mult);
  const double acc_ff = train::evaluate_accuracy(
      *model, wb.data().test, nn::ExecContext::quant_approx(clean_tab).with_monitor(sent));
  const sentinel::SentinelReport rep_ff = sent.report();
  const double fp_rate = rep_ff.violation_rate();
  std::printf("  fault-free: %s%% acc, %lld violations / %lld checks (fp rate %.4f%%)\n",
              bench::pct(acc_ff).c_str(), static_cast<long long>(rep_ff.total_violations()),
              static_cast<long long>(rep_ff.total_checks()), 100.0 * fp_rate);
  ctx.metric("fault_free_acc", acc_ff);
  ctx.metric("false_positive_rate", fp_rate);
  ctx.report.set("sentinel_fault_free", core::to_json(rep_ff));
  int64_t ff_checksum = 0;
  for (const auto& l : rep_ff.leaves) ff_checksum += l.abft_violations;
  if (ff_checksum != 0) {
    std::fprintf(stderr, "FAIL: %lld checksum violations on the fault-free run\n",
                 static_cast<long long>(ff_checksum));
    return 1;
  }
  // Every guarded row below must classify, over the seeds, as many images
  // correctly as the fault-free guarded run.
  const int64_t ff_correct = std::llround(acc_ff * static_cast<double>(wb.data().test.size()));
  const int64_t want_correct = ff_correct * static_cast<int64_t>(std::size(kSeeds));
  int lost_rows = 0;
  const auto check_row = [&](const char* table, double rate, int64_t correct) {
    if (correct == want_correct) return;
    ++lost_rows;
    std::fprintf(stderr,
                 "FAIL: %s faults at rate %g: %lld images correct under the sentinel over %zu "
                 "seeds, fault-free %lld\n",
                 table, rate, static_cast<long long>(correct), std::size(kSeeds),
                 static_cast<long long>(want_correct));
  };

  // -- LUT fault sweep: stuck-at defects in the product table. --
  const double rates[] = {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2};
  core::Table lut({"fault rate", "unguarded[%]", "sentinel[%]", "recovered[%]", "detected",
                   "violations", "degraded leaves"});
  double recovery_at_5pt = -1.0, rate_at_5pt = 0.0, loss_at_5pt = 0.0;
  for (const double rate : rates) {
    double unguarded = 0.0, guarded = 0.0;
    int detected = 0;
    int64_t degraded = 0, violations = 0, guarded_correct = 0;
    for (const uint64_t seed : kSeeds) {
      approx::SignedMulTable bad(axmul::make_lut(mult));
      resilience::FaultSpec fs;
      fs.rate = rate;
      fs.kind = resilience::FaultKind::kStuckAt;
      fs.bit_hi = 12;  // stuck bits within the 8x4 product magnitude range
      fs.seed = seed;
      resilience::corrupt_lut(bad, resilience::FaultInjector(fs));

      unguarded +=
          train::evaluate_accuracy(*model, wb.data().test, nn::ExecContext::quant_approx(bad));
      sent.reset_counters();  // fresh detection state, calibration kept
      const int64_t correct = correct_count(
          *model, wb.data().test, nn::ExecContext::quant_approx(bad).with_monitor(sent));
      guarded_correct += correct;
      guarded += static_cast<double>(correct) / static_cast<double>(wb.data().test.size());
      const sentinel::SentinelReport rep = sent.report();
      if (rep.total_violations() > 0) ++detected;
      violations += rep.total_violations();
      degraded += rep.degraded_leaves();
    }
    const double n = static_cast<double>(std::size(kSeeds));
    unguarded /= n;
    guarded /= n;
    const double lost = clean_acc - unguarded;
    const double recovered = lost > 1e-9 ? (guarded - unguarded) / lost : 0.0;
    lut.add_row({core::Table::num(rate, 5), bench::pct(unguarded), bench::pct(guarded),
                 core::Table::num(100.0 * recovered, 1),
                 core::Table::num(detected, 0) + "/" + core::Table::num(std::size(kSeeds), 0),
                 core::Table::num(static_cast<double>(violations) / n, 1),
                 core::Table::num(static_cast<double>(degraded) / n, 1)});
    check_row("LUT", rate, guarded_correct);
    if (recovery_at_5pt < 0.0 && lost >= 0.05) {
      recovery_at_5pt = recovered;
      rate_at_5pt = rate;
      loss_at_5pt = lost;
    }
  }
  std::printf("\n-- LUT stuck-at faults (mean over %zu seeds) --\n", std::size(kSeeds));
  bench::emit_table(ctx, "sentinel_lut", lut);
  if (recovery_at_5pt >= 0.0) {
    std::printf("  at rate %g the unguarded model loses %.1f points; sentinel recovers %.0f%%\n",
                rate_at_5pt, 100.0 * loss_at_5pt, 100.0 * recovery_at_5pt);
    ctx.metric("rate_at_5pt_loss", rate_at_5pt);
    ctx.metric("loss_at_5pt", loss_at_5pt);
    ctx.metric("recovery_at_5pt", recovery_at_5pt);
  } else {
    std::printf("  no swept rate lost >= 5 accuracy points unguarded\n");
  }
  ctx.report.set("sentinel_lut_last", core::to_json(sent.report()));

  // -- Weight faults: exponent flips in conv/FC weights, golden repair. --
  core::Table wt({"fault rate", "unguarded[%]", "sentinel[%]", "recovered[%]"});
  for (const double rate : {1e-3, 1e-2}) {
    double unguarded = 0.0, guarded = 0.0;
    int64_t guarded_correct = 0;
    for (const uint64_t seed : kSeeds) {
      auto copy = wb.clone();
      nn::copy_state(*model, *copy);
      // Calibrate against the clean weights, as a deployment would, then
      // corrupt. bit range [23, 30): exponent flips that change magnitude
      // drastically but keep every weight finite.
      sentinel::Sentinel ws;
      ws.calibrate_uniform(*copy, mult);
      std::vector<Tensor*> weights;
      for (const auto& leaf : nn::enumerate_gemm_leaves(*copy)) {
        if (auto* c = dynamic_cast<nn::Conv2d*>(leaf.layer)) weights.push_back(&c->weight().value);
        if (auto* l = dynamic_cast<nn::Linear*>(leaf.layer)) weights.push_back(&l->weight().value);
      }
      resilience::FaultSpec fs;
      fs.rate = rate;
      fs.bit_lo = 23;
      fs.bit_hi = 30;
      fs.seed = seed;
      resilience::corrupt_tensors(weights, resilience::FaultInjector(fs));

      unguarded +=
          train::evaluate_accuracy(*copy, wb.data().test, nn::ExecContext::quant_approx(clean_tab));
      const int64_t correct = correct_count(
          *copy, wb.data().test, nn::ExecContext::quant_approx(clean_tab).with_monitor(ws));
      guarded_correct += correct;
      guarded += static_cast<double>(correct) / static_cast<double>(wb.data().test.size());
    }
    check_row("weight", rate, guarded_correct);
    const double n = static_cast<double>(std::size(kSeeds));
    unguarded /= n;
    guarded /= n;
    const double lost = clean_acc - unguarded;
    const double recovered = lost > 1e-9 ? (guarded - unguarded) / lost : 0.0;
    wt.add_row({core::Table::num(rate, 5), bench::pct(unguarded), bench::pct(guarded),
                core::Table::num(100.0 * recovered, 1)});
  }
  std::printf("\n-- weight faults in conv/FC tensors (mean over %zu seeds) --\n",
              std::size(kSeeds));
  bench::emit_table(ctx, "sentinel_weights", wt);

  if (lost_rows > 0) {
    std::fprintf(stderr, "FAIL: %d fault rows lost detection or repair\n", lost_rows);
    return 1;
  }
  return 0;
}
