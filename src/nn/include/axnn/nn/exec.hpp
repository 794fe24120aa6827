// axnn — per-pass execution context.
//
// The same network object executes in four modes, reproducing the paper's
// cross-layer flow:
//   kFloat      : full-precision forward/backward (pre-training, teacher).
//   kCalibrate  : FP forward that additionally observes activation ranges
//                 and caches calibration inputs for MinPropQE.
//   kQuantExact : 8A4W quantized forward with exact arithmetic
//                 (quantization stage, the frozen KD teacher): the int8 GEMM
//                 through the exact table. Power-of-two steps and no zero
//                 point make it equal the fake-quantized float GEMM while
//                 partial sums stay below 2^24 units of s_x·s_w.
//   kQuantApprox: 8A4W forward where every conv/FC GEMM multiplies through
//                 an approximate-multiplier table (approximation stage).
//                 Both quantized modes run the same int8 path; only the
//                 table differs.
#pragma once

#include "axnn/approx/signed_lut.hpp"
#include "axnn/axmul/adder.hpp"
#include "axnn/ge/error_fit.hpp"
#include "axnn/quant/calibration.hpp"
#include "axnn/resilience/fault.hpp"

namespace axnn::nn {

class PlanResolution;  // axnn/nn/plan.hpp
class ForwardMonitor;  // axnn/nn/monitor.hpp

enum class ExecMode { kFloat, kCalibrate, kQuantExact, kQuantApprox };

struct ExecContext {
  ExecMode mode = ExecMode::kFloat;
  /// Multiplier table for kQuantApprox; ignored otherwise.
  const approx::SignedMulTable* mul = nullptr;
  /// Optional gradient-estimation fit (paper Sec. III-B). When set and the
  /// fit has a non-zero slope, conv/FC weight gradients are scaled by
  /// (1 + K); when null or constant, the backward pass is the plain STE.
  const ge::ErrorFit* ge_fit = nullptr;
  /// True during training passes (controls BatchNorm statistics).
  bool training = false;
  /// Optional approximate accumulator (paper outlook: multiple
  /// approximation techniques): when set, conv/FC partial sums are combined
  /// through this adder model instead of exact addition. Evaluation-oriented
  /// (one virtual call per MAC).
  const axmul::Adder* adder = nullptr;
  /// Optional fault injector (resilience subsystem): when set, Sequential
  /// containers corrupt the activations flowing between their children, so
  /// any forward pass can run under seeded bit flips. The root Sequential
  /// calls faults->begin_pass() once per forward (see fault_pass_begun);
  /// drivers never call it themselves.
  const resilience::FaultInjector* faults = nullptr;
  /// Optional per-layer execution plan (axnn/nn/plan.hpp): when set, conv/FC
  /// leaves look up their resolved plan entry and let it override mul /
  /// ge_fit / adder / mode in quantized passes. The resolution must outlive
  /// the context. Null reproduces the pre-plan uniform behavior exactly.
  const PlanResolution* plan = nullptr;
  /// Optional forward monitor (axnn/nn/monitor.hpp): when set, quantized
  /// conv/FC leaves report their pre-quantization activations and integer
  /// GEMMs to it, and let it repair accumulators or force exact products.
  /// Non-const: monitors accumulate detection state across passes.
  /// The monitor must outlive the context. Null costs nothing.
  ForwardMonitor* monitor = nullptr;
  /// Set by the outermost Sequential after it calls faults->begin_pass(), so
  /// nested containers sharing the context do not advance the pass counter
  /// again. Not meant to be set by drivers.
  bool fault_pass_begun = false;

  bool quantized() const {
    return mode == ExecMode::kQuantExact || mode == ExecMode::kQuantApprox;
  }

  // Factories name every field they set (designated initializers), so adding
  // a member to this struct can never silently shift a positional argument
  // into the wrong slot or default-initialize a trailing field by accident.
  static ExecContext fp(bool training = false) {
    return {.mode = ExecMode::kFloat, .training = training};
  }
  static ExecContext calibrate() { return {.mode = ExecMode::kCalibrate}; }
  static ExecContext quant_exact(bool training = false) {
    return {.mode = ExecMode::kQuantExact, .training = training};
  }
  static ExecContext quant_approx(const approx::SignedMulTable& mul,
                                  const ge::ErrorFit* fit = nullptr, bool training = false) {
    return {.mode = ExecMode::kQuantApprox, .mul = &mul, .ge_fit = fit, .training = training};
  }

  /// Chainable setter routing conv/FC partial sums through an adder model
  /// (the gemm_approx_accum path). The adder must outlive the context.
  ExecContext with_adder(const axmul::Adder& a) const {
    ExecContext c = *this;
    c.adder = &a;
    return c;
  }

  /// Chainable setter running the forward pass under fault injection
  /// (activation bit flips between layers). The injector must outlive the
  /// context.
  ExecContext with_faults(const resilience::FaultInjector& f) const {
    ExecContext c = *this;
    c.faults = &f;
    return c;
  }

  /// Chainable setter attaching a resolved per-layer plan. The resolution
  /// must outlive the context.
  ExecContext with_plan(const PlanResolution& p) const {
    ExecContext c = *this;
    c.plan = &p;
    return c;
  }

  /// Chainable setter attaching a forward monitor (sentinel). The monitor
  /// must outlive the context.
  ExecContext with_monitor(ForwardMonitor& m) const {
    ExecContext c = *this;
    c.monitor = &m;
    return c;
  }
};

}  // namespace axnn::nn
