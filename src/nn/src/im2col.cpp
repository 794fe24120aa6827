#include "axnn/nn/im2col.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

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

template <typename T>
BasicTensor<T> im2col_impl(const BasicTensor<T>& x, const ConvGeom& g) {
  const int64_t cols_n = g.out_cols();
  BasicTensor<T> cols(Shape{g.patch_rows(), cols_n});
  const int64_t pad = g.padding;
  const int64_t pw = g.w + 2 * pad;
  const size_t plane = static_cast<size_t>((g.h + 2 * pad) * pw);
  const size_t in_row = static_cast<size_t>(g.w) * sizeof(T);
  const size_t out_row = static_cast<size_t>(g.ow) * sizeof(T);

  // One task per input plane (n, c): copy the plane into a zero-padded
  // buffer once, then every patch row of channel c reads image n's output
  // rows out of it with one fixed-width copy each — out-of-image taps land
  // on the zero border, so no element is bounds-tested. The buffer is
  // pooled storage, so steady-state forwards stay allocation-free.
  parallel_for(g.n * g.c, [&](int64_t p0, int64_t p1) {
    std::vector<T, PoolAllocator<T>> padded(pad > 0 ? plane : 0, T{});
    for (int64_t pc = p0; pc < p1; ++pc) {
      const int64_t n = pc / g.c, c = pc % g.c;
      const T* src = x.data() + pc * g.h * g.w;
      if (pad > 0) {
        for (int64_t ih = 0; ih < g.h; ++ih)
          std::memcpy(padded.data() + (ih + pad) * pw + pad, src + ih * g.w, in_row);
        src = padded.data();
      }
      for (int64_t kh = 0; kh < g.kernel; ++kh)
        for (int64_t kw = 0; kw < g.kernel; ++kw) {
          const int64_t r = (c * g.kernel + kh) * g.kernel + kw;
          T* dst = cols.data() + r * cols_n + n * g.oh * g.ow;
          for (int64_t i = 0; i < g.oh; ++i, dst += g.ow) {
            const T* row = src + (i * g.stride + kh) * pw + kw;
            if (g.stride == 1) {
              std::memcpy(dst, row, out_row);
            } else {
              for (int64_t j = 0; j < g.ow; ++j) dst[j] = row[j * g.stride];
            }
          }
        }
    }
  });
  return cols;
}

}  // namespace

Tensor im2col(const Tensor& x, const ConvGeom& g) { return im2col_impl(x, g); }

TensorI8 im2col_i8(const TensorI8& x, const ConvGeom& g) { return im2col_impl(x, g); }

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
