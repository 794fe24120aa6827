// axnn — layer interface and parameter container.
//
// Autograd model: an explicit layer graph. Each layer keeps what its own
// backward needs during a training forward (ExecContext::training);
// Network/Sequential calls backward in reverse order. Composite blocks
// (residual, inverted-residual) are layers themselves and wire their
// internal data flow explicitly. This mirrors the structure of
// approximate-DNN simulators (ProxSim): one conv/FC GEMM choke point per
// layer where quantization and approximation attach.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "axnn/nn/exec.hpp"
#include "axnn/quant/quantizer.hpp"
#include "axnn/tensor/tensor.hpp"

namespace axnn::kernels {
class PlanMemo;
}

namespace axnn::nn {

/// A trainable tensor with its gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;

  Param() = default;
  explicit Param(Tensor v) : value(std::move(v)), grad(value.shape(), 0.0f) {}

  void zero_grad() { grad.fill(0.0f); }
};

class Layer {
public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;

  /// Forward pass. With ctx.training set it also keeps the state backward
  /// needs (valid until the next forward); any other forward is inference
  /// only: it keeps no backward state and drops what an earlier training
  /// forward kept.
  virtual Tensor forward(const Tensor& x, const ExecContext& ctx) = 0;

  /// Backward pass: consumes dL/d(output), returns dL/d(input) and
  /// accumulates parameter gradients. Must follow a training forward with
  /// the same batch; a layer that keeps tensors for backward (Conv2d,
  /// Linear, BatchNorm2d, ReLU, ReLU6, BasicBlock) throws std::logic_error
  /// after any other forward. The pools keep only their input shape and
  /// differentiate after any forward.
  virtual Tensor backward(const Tensor& dy) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Non-trainable state tensors (e.g. BatchNorm running statistics) that
  /// must be included when copying or serializing a model.
  virtual std::vector<Tensor*> buffers() { return {}; }

  /// Child layers (for recursive traversal; empty for leaf layers).
  virtual std::vector<Layer*> children() { return {}; }

  /// Finish quantization calibration: convert observed ranges / cached
  /// calibration inputs into quantization parameters. Called once after one
  /// or more kCalibrate forwards.
  virtual void finalize_calibration(quant::Calibration /*method*/) {}

  /// Multiply-accumulate operations executed by the last forward (whole
  /// batch; 0 for non-GEMM layers).
  virtual int64_t last_mac_count() const { return 0; }

  /// The per-leaf plan memo (GEMM leaves only; nullptr elsewhere). After a
  /// forward, its keys() name the prepared plans this leaf executes —
  /// `axnn_cli inspect` prints them.
  virtual const kernels::PlanMemo* plan_memo() const { return nullptr; }

  /// Fold BatchNorm layers into their preceding convolutions wherever the
  /// graph allows (the paper folds BN in the ResNets before quantization).
  /// Default implementation recurses into children; Sequential additionally
  /// merges adjacent conv+BN pairs in its own list.
  virtual void fold_batchnorms() {
    for (Layer* c : children()) c->fold_batchnorms();
  }

  void zero_grad() {
    for (Param* p : params()) p->zero_grad();
    for (Layer* c : children()) c->zero_grad();
  }
};

/// Throws the std::logic_error a backward raises when the last forward was
/// not a training forward, naming `layer`.
[[noreturn]] void throw_no_backward_state(const Layer& layer);

/// Depth-first collection of all parameters in a layer tree.
std::vector<Param*> collect_params(Layer& root);

/// Depth-first collection of all non-trainable buffers in a layer tree.
std::vector<Tensor*> collect_buffers(Layer& root);

/// Depth-first sum of last-forward MAC counts.
int64_t collect_mac_count(Layer& root);

/// Total number of trainable scalar parameters.
int64_t count_parameters(Layer& root);

/// Copy parameter values and buffers from one layer tree to a structurally
/// identical one (teacher snapshots in the KD flow). Throws on mismatch.
void copy_state(Layer& src, Layer& dst);

}  // namespace axnn::nn
