#include "axnn/nn/sequential.hpp"

#include <optional>
#include <stdexcept>

#include "axnn/nn/batchnorm.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/plan.hpp"
#include "axnn/obs/telemetry.hpp"

namespace axnn::nn {

Tensor Sequential::forward(const Tensor& x, const ExecContext& ctx) {
  // Root-of-pass detection: the first Sequential to see an injector-carrying
  // context begins the pass and marks the context copy it hands down, so the
  // (pass, site) sequence is identical to the old driver-called contract.
  if (ctx.faults != nullptr && !ctx.fault_pass_begun) {
    ctx.faults->begin_pass();
    ExecContext inner = ctx;
    inner.fault_pass_begun = true;
    return forward(x, inner);
  }
  if (layers_.empty()) return x;
  // Telemetry scopes each child under its plan-path segment so leaf metrics
  // aggregate per plan-addressable path; the scopes only touch a
  // thread-local string.
  const bool obs_on = obs::enabled();
  const auto segs = obs_on ? child_path_segments(*this) : std::vector<std::string>{};
  // The first child reads x itself; each later one reads its predecessor's
  // output, so the input is never copied.
  Tensor h;
  const Tensor* in = &x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    std::optional<obs::ScopedPath> scope;
    if (obs_on) scope.emplace(segs[i]);
    h = layers_[i]->forward(*in, ctx);
    // Resilience: bit flips in the activations flowing between layers
    // (nested Sequentials inject between their own children too).
    if (ctx.faults != nullptr) ctx.faults->corrupt(h);
    in = &h;
  }
  return h;
}

void Sequential::fold_batchnorms() {
  for (size_t i = 0; i + 1 < layers_.size();) {
    auto* conv = dynamic_cast<Conv2d*>(layers_[i].get());
    auto* bn = dynamic_cast<BatchNorm2d*>(layers_[i + 1].get());
    if (conv != nullptr && bn != nullptr) {
      bn->fold_into(*conv);
      layers_.erase(layers_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      // Re-check the same position: the next layer could be another BN only
      // in malformed graphs, but the re-check is harmless.
    } else {
      ++i;
    }
  }
  for (auto& l : layers_) l->fold_batchnorms();
}

void throw_no_backward_state(const Layer& layer) {
  throw std::logic_error(layer.name() +
                         "::backward: no training forward to differentiate (backward state "
                         "is kept only when ExecContext::training is set)");
}

std::vector<Param*> collect_params(Layer& root) {
  std::vector<Param*> out;
  for (Param* p : root.params()) out.push_back(p);
  for (Layer* c : root.children()) {
    const auto sub = collect_params(*c);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

std::vector<Tensor*> collect_buffers(Layer& root) {
  std::vector<Tensor*> out;
  for (Tensor* b : root.buffers()) out.push_back(b);
  for (Layer* c : root.children()) {
    const auto sub = collect_buffers(*c);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

int64_t count_parameters(Layer& root) {
  int64_t n = 0;
  for (Param* p : collect_params(root)) n += p->value.numel();
  return n;
}

void copy_state(Layer& src, Layer& dst) {
  const auto ps = collect_params(src), pd = collect_params(dst);
  if (ps.size() != pd.size()) throw std::invalid_argument("copy_state: parameter count mismatch");
  for (size_t i = 0; i < ps.size(); ++i) {
    if (!ps[i]->value.same_shape(pd[i]->value))
      throw std::invalid_argument("copy_state: parameter shape mismatch");
    pd[i]->value = ps[i]->value;
  }
  const auto bs = collect_buffers(src), bd = collect_buffers(dst);
  if (bs.size() != bd.size()) throw std::invalid_argument("copy_state: buffer count mismatch");
  for (size_t i = 0; i < bs.size(); ++i) {
    if (!bs[i]->same_shape(*bd[i]))
      throw std::invalid_argument("copy_state: buffer shape mismatch");
    *bd[i] = *bs[i];
  }
}

int64_t collect_mac_count(Layer& root) {
  int64_t macs = root.last_mac_count();
  for (Layer* c : root.children()) macs += collect_mac_count(*c);
  return macs;
}

void finalize_calibration_recursive(Layer& root, quant::Calibration method) {
  root.finalize_calibration(method);
  for (Layer* c : root.children()) finalize_calibration_recursive(*c, method);
}

void set_bit_widths_recursive(Layer& root, int weight_bits, int activation_bits) {
  NetPlan plan;
  plan.uniform().weight_bits = weight_bits;
  plan.uniform().activation_bits = activation_bits;
  plan.apply_bit_widths(root);
}

}  // namespace axnn::nn
