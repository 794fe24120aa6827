#include "axnn/nn/im2col.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

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
/// (contiguous): a compile-time width makes each row one fixed-size move.
template <int64_t W, typename T>
void copy_rows(T* dst, const T* src, int64_t rows, int64_t pitch) {
  for (int64_t i = 0; i < rows; ++i, dst += W, src += pitch) std::memcpy(dst, src, W * sizeof(T));
}

/// Writes the k·k cols rows of input plane (n, c) from `src`, the plane
/// zero-padded to pitch w + 2·padding: tap (kh, kw) of output (i, j) reads
/// src[(i·stride + kh)·pitch + j·stride + kw]. The geometry is held in
/// locals, which an int8 store could otherwise force the loops to reload.
template <typename T>
void emit_patch_rows(const T* src, int64_t n, int64_t c, const ConvGeom& g, T* cols) {
  const int64_t k = g.kernel, s = g.stride, oh = g.oh, ow = g.ow;
  const int64_t pw = g.w + 2 * g.padding, cols_n = g.out_cols();
  T* out = cols + c * k * k * cols_n + n * oh * ow;
  for (int64_t kh = 0; kh < k; ++kh)
    for (int64_t kw = 0; kw < k; ++kw, out += cols_n) {
      const T* base = src + kh * pw + kw;
      if (s != 1) {
        T* dst = out;
        for (int64_t i = 0; i < oh; ++i, dst += ow) {
          const T* row = base + i * s * pw;
          for (int64_t j = 0; j < ow; ++j) dst[j] = row[j * s];
        }
        continue;
      }
      switch (ow) {
        case 16: copy_rows<16>(out, base, oh, pw); break;
        case 8: copy_rows<8>(out, base, oh, pw); break;
        case 4: copy_rows<4>(out, base, oh, pw); break;
        default:
          for (int64_t i = 0; i < oh; ++i)
            std::memcpy(out + i * ow, base + i * pw, static_cast<size_t>(ow) * sizeof(T));
      }
    }
}

/// One task per input plane (n, c): `fill_row(src, dst, len)` writes len
/// input values into the interior of a zero-padded buffer, row by row (as
/// one row when there is no padding, since the rows are then contiguous),
/// and emit_patch_rows copies the plane's cols rows out of it. Each chunk
/// owns one pooled buffer whose border stays zero, so steady-state forwards
/// stay allocation-free.
template <typename T, typename FillRow>
BasicTensor<T> lower(const Tensor& x, const ConvGeom& g, FillRow fill_row) {
  BasicTensor<T> cols(Shape{g.patch_rows(), g.out_cols()});
  T* const out = cols.data();
  const int64_t pad = g.padding, pw = g.w + 2 * pad;
  const size_t plane = static_cast<size_t>((g.h + 2 * pad) * pw);
  const int64_t rows = pad > 0 ? g.h : 1, len = pad > 0 ? g.w : g.h * g.w;
  parallel_for(g.n * g.c, [&](int64_t p0, int64_t p1) {
    std::vector<T, PoolAllocator<T>> padded(plane, T{});
    T* const interior = padded.data() + pad * pw + pad;
    for (int64_t pc = p0; pc < p1; ++pc) {
      const float* src = x.data() + pc * g.h * g.w;
      for (int64_t r = 0; r < rows; ++r) fill_row(src + r * len, interior + r * pw, len);
      emit_patch_rows(padded.data(), pc / g.c, pc % g.c, g, out);
    }
  });
  return cols;
}

}  // namespace

Tensor im2col(const Tensor& x, const ConvGeom& g) {
  return lower<float>(x, g, [](const float* src, float* dst, int64_t len) {
    std::memcpy(dst, src, static_cast<size_t>(len) * sizeof(float));
  });
}

TensorI8 quantize_im2col(const Tensor& x, const ConvGeom& g, const quant::QuantParams& p) {
  const float inv = 1.0f / p.step;
  const int32_t lo = p.qmin(), hi = p.qmax();
  TensorI8 cols = lower<int8_t>(x, g, [inv, lo, hi](const float* src, int8_t* dst, int64_t len) {
    quantize_row_i8(src, dst, len, inv, lo, hi);
  });
  if (obs::enabled()) quant::record_clip_rate(x, p);
  return cols;
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
