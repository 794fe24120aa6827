// axnn — im2col / col2im lowering for GEMM-based convolution.
//
// Every lowering works one input plane (n, c) at a time: the plane goes into
// a zero-padded buffer once (copied by im2col, quantized by quantize_im2col
// and quantize_plane), then each of its k·k cols rows is gathered out of
// that buffer. Out-of-image taps land on the zero border, so no element is
// bounds-tested; stride-1 rows of width 16, 8 or 4 and stride-2 rows of
// width 8 or 4 are one fixed-width copy or gather per output row.
// quantize_plane keeps the padded int8 planes: a stride-1 conv whose plan
// reads them (kernels::GemmPlan::reads_plane) runs its GEMM from them and
// lowers columns only for a consumer that reads X[k, n].
#pragma once

#include <cstdint>

#include "axnn/quant/quantizer.hpp"
#include "axnn/tensor/tensor.hpp"

namespace axnn::kernels {
struct ConvPlane;
}

namespace axnn::nn {

struct ConvGeom {
  int64_t n, c, h, w;        ///< input [N, C, H, W]
  int64_t kernel, stride, padding;
  int64_t oh, ow;            ///< output spatial dims

  static ConvGeom of(const Shape& x, int64_t kernel, int64_t stride, int64_t padding);
  int64_t patch_rows() const { return c * kernel * kernel; }  ///< K dimension
  int64_t out_cols() const { return n * oh * ow; }            ///< P dimension
};

/// x [N,C,H,W] -> cols [C*k*k, N*oh*ow]; out-of-image taps are zero.
/// Row index = (c*k + kh)*k + kw; column index = (n*oh + i)*ow + j.
Tensor im2col(const Tensor& x, const ConvGeom& g);

/// The quantized conv's int8 columns in one pass over x, byte for byte
/// quantize_i8(im2col(x, g), p): each plane is quantized straight into the
/// padded buffer, so no int8 copy of x is made. Records quantize.clip_rate
/// over x when a collector is attached, as quantize_i8(x, p) does.
TensorI8 quantize_im2col(const Tensor& x, const ConvGeom& g, const quant::QuantParams& p);

/// The quantized conv input as its zero-padded int8 planes
/// [N, C, H+2p, W+2p], the operand kernels::ConvPlane describes, and, when
/// `cols` is given, quantize_im2col's columns lowered from those planes in
/// the same pass. Records quantize.clip_rate over x like quantize_im2col.
TensorI8 quantize_plane(const Tensor& x, const ConvGeom& g, const quant::QuantParams& p,
                        TensorI8* cols = nullptr);

/// The columns X[k, n] of the padded int8 planes `x` (kernels::ConvPlane's
/// indexing) into `cols` [channels·kernel², batch·oh·ow], byte for byte the
/// columns quantize_plane emits alongside those planes.
void plane_im2col(const kernels::ConvPlane& x, int8_t* cols);

/// Scatter-add of cols gradients back to the input layout (adjoint of
/// im2col).
Tensor col2im(const Tensor& cols, const ConvGeom& g);

}  // namespace axnn::nn
