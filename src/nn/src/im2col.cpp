#include "axnn/nn/im2col.hpp"

#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "axnn/kernels/plan.hpp"
#include "axnn/nn/qutils.hpp"
#include "axnn/tensor/buffer_pool.hpp"
#include "axnn/tensor/threadpool.hpp"

namespace axnn::nn {

ConvGeom ConvGeom::of(const Shape& x, int64_t kernel, int64_t stride, int64_t padding) {
  if (x.rank() != 4) throw std::invalid_argument("ConvGeom: expected NCHW input");
  ConvGeom g;
  g.n = x[0];
  g.c = x[1];
  g.h = x[2];
  g.w = x[3];
  g.kernel = kernel;
  g.stride = stride;
  g.padding = padding;
  g.oh = (g.h + 2 * padding - kernel) / stride + 1;
  g.ow = (g.w + 2 * padding - kernel) / stride + 1;
  if (g.oh <= 0 || g.ow <= 0) throw std::invalid_argument("ConvGeom: non-positive output dims");
  return g;
}

namespace {

/// `rows` rows of W elements from `src` (advancing by `pitch`) to `dst`
/// (contiguous), taking every S-th element: a compile-time width and step
/// make each row one fixed-size move (S = 1) or a fixed gather.
template <int64_t W, int64_t S, typename T>
void copy_rows(T* dst, const T* src, int64_t rows, int64_t pitch) {
  for (int64_t i = 0; i < rows; ++i, dst += W, src += pitch) {
    if constexpr (S == 1)
      std::memcpy(dst, src, W * sizeof(T));
    else
      for (int64_t j = 0; j < W; ++j) dst[j] = src[j * S];
  }
}

/// `rows` rows of w contiguous elements from `src` into `dst`, `pitch`
/// apart: one fixed-size move per row at widths 16, 8 and 4.
template <typename T>
void scatter_rows(T* dst, const T* src, int64_t rows, int64_t w, int64_t pitch) {
  const auto move = [&](auto width) {
    for (int64_t i = 0; i < rows; ++i, dst += pitch, src += width)
      std::memcpy(dst, src, static_cast<size_t>(width) * sizeof(T));
  };
  if (w == 16)
    move(std::integral_constant<int64_t, 16>{});
  else if (w == 8)
    move(std::integral_constant<int64_t, 8>{});
  else if (w == 4)
    move(std::integral_constant<int64_t, 4>{});
  else
    move(w);
}

/// Writes the k·k cols rows of input plane (n, c) from `src`, the plane
/// zero-padded to pitch w + 2·padding: tap (kh, kw) of output (i, j) reads
/// src[(i·stride + kh)·pitch + j·stride + kw]. Stride-1 output widths 16, 8
/// and 4 and stride-2 widths 8 and 4 take fixed-width rows; other widths a
/// runtime-length copy (stride 1) or the element loop. The geometry is held
/// in locals, which an int8 store could otherwise force the loops to reload.
template <typename T>
void emit_patch_rows(const T* src, int64_t n, int64_t c, const ConvGeom& g, T* cols) {
  const int64_t k = g.kernel, s = g.stride, oh = g.oh, ow = g.ow;
  const int64_t pw = g.w + 2 * g.padding, pitch = s * pw, cols_n = g.out_cols();
  T* out = cols + c * k * k * cols_n + n * oh * ow;
  for (int64_t kh = 0; kh < k; ++kh)
    for (int64_t kw = 0; kw < k; ++kw, out += cols_n) {
      const T* base = src + kh * pw + kw;
      if (s == 1 && ow == 16)
        copy_rows<16, 1>(out, base, oh, pitch);
      else if (s == 1 && ow == 8)
        copy_rows<8, 1>(out, base, oh, pitch);
      else if (s == 1 && ow == 4)
        copy_rows<4, 1>(out, base, oh, pitch);
      else if (s == 2 && ow == 8)
        copy_rows<8, 2>(out, base, oh, pitch);
      else if (s == 2 && ow == 4)
        copy_rows<4, 2>(out, base, oh, pitch);
      else if (s == 1)
        for (int64_t i = 0; i < oh; ++i)
          std::memcpy(out + i * ow, base + i * pw, static_cast<size_t>(ow) * sizeof(T));
      else
        for (int64_t i = 0; i < oh; ++i)
          for (int64_t j = 0; j < ow; ++j) out[i * ow + j] = base[i * pitch + j * s];
    }
}

/// One task per input plane (n, c): `fill_row(src, dst, len)` writes len
/// input values into the interior of the zero-padded plane, row by row (as
/// one row when there is no padding, since the rows are then contiguous),
/// and emit_patch_rows copies the plane's cols rows out of it when `cols`
/// is given. With `staged`, a padded plane is instead filled in one call
/// into a contiguous staging row and then copied into the padded plane row
/// by row: a quantizing fill of one row of 16, 8 or 4 values barely reaches
/// its vector body (a plain copy gains nothing from staging). The planes
/// land in `planes` ([N, C, H+2p, W+2p], border already zero) when given;
/// otherwise each chunk reuses one pooled buffer whose border stays zero.
/// Either way steady-state forwards stay allocation-free.
template <typename T, typename FillRow>
void lower(const Tensor& x, const ConvGeom& g, T* planes, T* cols, bool staged,
           FillRow fill_row) {
  const int64_t pad = g.padding, pw = g.w + 2 * pad, hw = g.h * g.w;
  const int64_t plane = (g.h + 2 * pad) * pw;
  const int64_t rows = pad > 0 ? g.h : 1, len = pad > 0 ? g.w : hw;
  const bool stage = staged && pad > 0;
  parallel_for(g.n * g.c, [&](int64_t p0, int64_t p1) {
    std::vector<T, PoolAllocator<T>> own(planes != nullptr ? 0 : static_cast<size_t>(plane),
                                         T{});
    std::vector<T, PoolAllocator<T>> row(stage ? static_cast<size_t>(hw) : 0);
    for (int64_t pc = p0; pc < p1; ++pc) {
      T* dst = planes != nullptr ? planes + pc * plane : own.data();
      const float* src = x.data() + pc * hw;
      if (stage) {
        fill_row(src, row.data(), hw);
        scatter_rows(dst + pad * pw + pad, row.data(), g.h, g.w, pw);
      } else {
        for (int64_t r = 0; r < rows; ++r)
          fill_row(src + r * len, dst + (pad + r) * pw + pad, len);
      }
      if (cols != nullptr) emit_patch_rows(dst, pc / g.c, pc % g.c, g, cols);
    }
  });
}

/// lower() quantizing x with `p` through kernels::quantize_i8, its tier
/// picked once for the whole tensor; records quantize.clip_rate over x when
/// a collector is attached, as quantize_i8(x, p) does.
void quantize_lower(const Tensor& x, const ConvGeom& g, const quant::QuantParams& p,
                    int8_t* planes, int8_t* cols) {
  const float inv = 1.0f / p.step;
  const int32_t lo = p.qmin(), hi = p.qmax();
  const kernels::Isa isa = kernels::active_isa();
  lower<int8_t>(x, g, planes, cols, true,
                [inv, lo, hi, isa](const float* src, int8_t* dst, int64_t len) {
                  kernels::quantize_i8(src, dst, len, inv, lo, hi, isa);
                });
  if (obs::enabled()) quant::record_clip_rate(x, p);
}

}  // namespace

Tensor im2col(const Tensor& x, const ConvGeom& g) {
  Tensor cols(Shape{g.patch_rows(), g.out_cols()});
  lower<float>(x, g, nullptr, cols.data(), false,
               [](const float* src, float* dst, int64_t len) {
                 std::memcpy(dst, src, static_cast<size_t>(len) * sizeof(float));
               });
  return cols;
}

TensorI8 quantize_im2col(const Tensor& x, const ConvGeom& g, const quant::QuantParams& p) {
  TensorI8 cols(Shape{g.patch_rows(), g.out_cols()});
  quantize_lower(x, g, p, nullptr, cols.data());
  return cols;
}

TensorI8 quantize_plane(const Tensor& x, const ConvGeom& g, const quant::QuantParams& p,
                        TensorI8* cols) {
  TensorI8 planes(Shape{g.n, g.c, g.h + 2 * g.padding, g.w + 2 * g.padding});
  if (cols != nullptr) *cols = TensorI8(Shape{g.patch_rows(), g.out_cols()});
  quantize_lower(x, g, p, planes.data(), cols != nullptr ? cols->data() : nullptr);
  return planes;
}

void plane_im2col(const kernels::ConvPlane& x, int8_t* cols) {
  // The planes are already padded: lower them under a padding-0 geometry.
  const ConvGeom g{x.batch, x.channels, x.ph, x.pw, x.kernel, x.stride, 0, x.oh(), x.ow()};
  for (int64_t pc = 0; pc < g.n * g.c; ++pc)
    emit_patch_rows(x.data + pc * g.h * g.w, pc / g.c, pc % g.c, g, cols);
}

Tensor col2im(const Tensor& cols, const ConvGeom& g) {
  Tensor dx(Shape{g.n, g.c, g.h, g.w}, 0.0f);
  const int64_t rows = g.patch_rows();
  const int64_t cols_n = g.out_cols();
  if (cols.shape() != Shape{rows, cols_n})
    throw std::invalid_argument("col2im: cols shape mismatch");
  const float* cd = cols.data();
  float* xd = dx.data();

  // Parallelise over input channels: every cols row with the same channel c
  // scatters only into that channel's planes, so channels are independent.
  parallel_for(g.c, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      for (int64_t kh = 0; kh < g.kernel; ++kh) {
        for (int64_t kw = 0; kw < g.kernel; ++kw) {
          const int64_t r = (c * g.kernel + kh) * g.kernel + kw;
          const float* crow = cd + r * cols_n;
          for (int64_t n = 0; n < g.n; ++n) {
            float* xplane = xd + (n * g.c + c) * g.h * g.w;
            for (int64_t i = 0; i < g.oh; ++i) {
              const int64_t ih = i * g.stride - g.padding + kh;
              if (ih < 0 || ih >= g.h) continue;
              const float* cpos = crow + (n * g.oh + i) * g.ow;
              float* xrow = xplane + ih * g.w;
              for (int64_t j = 0; j < g.ow; ++j) {
                const int64_t iw = j * g.stride - g.padding + kw;
                if (iw >= 0 && iw < g.w) xrow[iw] += cpos[j];
              }
            }
          }
        }
      }
    }
  });
  return dx;
}

}  // namespace axnn::nn
