#include "axnn/nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>

namespace axnn::nn {

BatchNorm2d::BatchNorm2d(int64_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(Tensor(Shape{channels}, 1.0f)),
      beta_(Tensor(Shape{channels}, 0.0f)),
      running_mean_(Shape{channels}, 0.0f),
      running_var_(Shape{channels}, 1.0f) {
  if (channels <= 0) throw std::invalid_argument("BatchNorm2d: channels must be positive");
}

std::string BatchNorm2d::name() const { return "bn_" + std::to_string(channels_); }

Tensor BatchNorm2d::forward(const Tensor& x, const ExecContext& ctx) {
  if (x.shape().rank() != 4 || x.shape()[1] != channels_)
    throw std::invalid_argument("BatchNorm2d::forward: bad input shape");
  const int64_t n = x.shape()[0], h = x.shape()[2], w = x.shape()[3];
  const int64_t m = n * h * w;  // samples per channel
  const int64_t hw = h * w;

  bwd_.reset();  // only a training forward keeps backward state
  Tensor ch_mean(Shape{channels_});
  Tensor ch_invstd(Shape{channels_});

  if (ctx.training) {
    for (int64_t c = 0; c < channels_; ++c) {
      double mean = 0.0;
      for (int64_t b = 0; b < n; ++b) {
        const float* p = x.data() + (b * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) mean += p[i];
      }
      mean /= static_cast<double>(m);
      double var = 0.0;
      for (int64_t b = 0; b < n; ++b) {
        const float* p = x.data() + (b * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) {
          const double d = p[i] - mean;
          var += d * d;
        }
      }
      var /= static_cast<double>(m);
      ch_mean[c] = static_cast<float>(mean);
      ch_invstd[c] = static_cast<float>(1.0 / std::sqrt(var + eps_));
      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] +
                         momentum_ * static_cast<float>(mean);
      running_var_[c] = (1.0f - momentum_) * running_var_[c] + momentum_ * static_cast<float>(var);
    }
  } else {
    for (int64_t c = 0; c < channels_; ++c) {
      ch_mean[c] = running_mean_[c];
      ch_invstd[c] = 1.0f / std::sqrt(running_var_[c] + eps_);
    }
  }

  Tensor y(x.shape());
  Tensor xhat = ctx.training ? Tensor(x.shape()) : Tensor{};
  for (int64_t b = 0; b < n; ++b)
    for (int64_t c = 0; c < channels_; ++c) {
      const float mu = ch_mean[c], is = ch_invstd[c];
      const float g = gamma_.value[c], be = beta_.value[c];
      const int64_t off = (b * channels_ + c) * hw;
      const float* px = x.data() + off;
      float* ph = ctx.training ? xhat.data() + off : nullptr;
      float* py = y.data() + off;
      for (int64_t i = 0; i < hw; ++i) {
        const float xh = (px[i] - mu) * is;
        if (ph != nullptr) ph[i] = xh;
        py[i] = g * xh + be;
      }
    }
  if (ctx.training) bwd_ = BackwardState{.xhat = std::move(xhat), .invstd = std::move(ch_invstd)};
  return y;
}

// The training-mode backward: batch statistics couple every element of a
// channel, hence the two correction sums.
Tensor BatchNorm2d::backward(const Tensor& dy) {
  if (!bwd_) throw_no_backward_state(*this);
  const BackwardState& st = *bwd_;
  if (dy.shape() != st.xhat.shape())
    throw std::invalid_argument("BatchNorm2d::backward: dy shape mismatch");
  const int64_t n = dy.shape()[0], h = dy.shape()[2], w = dy.shape()[3];
  const int64_t hw = h * w;
  const int64_t m = n * hw;
  const double inv_m = 1.0 / static_cast<double>(m);

  Tensor dx(dy.shape());
  for (int64_t c = 0; c < channels_; ++c) {
    const float g = gamma_.value[c], is = st.invstd[c];
    // Accumulate dgamma/dbeta and the correction sums.
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (int64_t b = 0; b < n; ++b) {
      const float* pdy = dy.data() + (b * channels_ + c) * hw;
      const float* ph = st.xhat.data() + (b * channels_ + c) * hw;
      for (int64_t i = 0; i < hw; ++i) {
        sum_dy += pdy[i];
        sum_dy_xhat += static_cast<double>(pdy[i]) * ph[i];
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
    beta_.grad[c] += static_cast<float>(sum_dy);

    for (int64_t b = 0; b < n; ++b) {
      const float* pdy = dy.data() + (b * channels_ + c) * hw;
      const float* ph = st.xhat.data() + (b * channels_ + c) * hw;
      float* pdx = dx.data() + (b * channels_ + c) * hw;
      for (int64_t i = 0; i < hw; ++i) {
        const double t =
            static_cast<double>(pdy[i]) - inv_m * sum_dy - inv_m * sum_dy_xhat * ph[i];
        pdx[i] = static_cast<float>(g * is * t);
      }
    }
  }
  return dx;
}

void BatchNorm2d::fold_into(Conv2d& conv) const {
  if (conv.config().out_channels != channels_)
    throw std::invalid_argument("fold_into: channel mismatch");
  std::vector<float> scale(static_cast<size_t>(channels_));
  std::vector<float> shift(static_cast<size_t>(channels_));
  for (int64_t c = 0; c < channels_; ++c) {
    const float is = 1.0f / std::sqrt(running_var_[c] + eps_);
    scale[static_cast<size_t>(c)] = gamma_.value[c] * is;
    shift[static_cast<size_t>(c)] = beta_.value[c] - running_mean_[c] * gamma_.value[c] * is;
  }
  conv.fold_scale_shift(scale, shift);
}

}  // namespace axnn::nn
