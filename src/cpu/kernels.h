#pragma once
// Golden reference kernels.
//
// These serve two roles: (1) the functional oracle the accelerator's results
// are tested against, and (2) the functional implementation of layers that
// fall back to the host CPU (im2col when there is no on-the-fly unit,
// softmax/layernorm/GELU for BERT, global average pooling, ...). All integer
// kernels follow the same quantization pipeline as the accelerator:
// int8 inputs, int32 accumulation, activation, rounding right-shift,
// saturation to int8.

#include <cstdint>

#include "src/base/tensor.h"
#include "src/base/types.h"

namespace gemmini::ref {

/// C[M x N] = saturate(shift(act(A[M x K] * B[K x N] + bias[N])))
/// `bias` may be null. Quantized int8 pipeline.
///
/// Blocked implementation: B is packed into transposed column panels so the
/// inner loop is a contiguous, k-unrolled dot product over raw row pointers.
/// Bit-for-bit identical to gemm_i8_naive (integer accumulation is exact and
/// the float path preserves the naive accumulation order).
void gemm_i8(const TensorI8& a, const TensorI8& b, const std::int32_t* bias,
             TensorI8& c, unsigned out_shift, Activation act);

/// fp32 variant; `bias` may be null.
void gemm_f32(const TensorF32& a, const TensorF32& b, const float* bias,
              TensorF32& c, Activation act);

/// Raw int32 accumulation (no requantization) — used to test the
/// accumulator path in isolation.
void gemm_i8_acc_i32(const TensorI8& a, const TensorI8& b, TensorI32& c);

// ---- Naive reference loops -------------------------------------------------
// The original scalar i/j/k implementations, retained as the equivalence
// oracle for the blocked kernels above and as the baseline of the int8
// speedup gate (tests/timing_test.cc).
void gemm_i8_naive(const TensorI8& a, const TensorI8& b,
                   const std::int32_t* bias, TensorI8& c, unsigned out_shift,
                   Activation act);
void gemm_f32_naive(const TensorF32& a, const TensorF32& b, const float* bias,
                    TensorF32& c, Activation act);
void gemm_i8_acc_i32_naive(const TensorI8& a, const TensorI8& b,
                           TensorI32& c);

/// Parameters of a 2-D convolution over NHWC tensors.
struct ConvParams {
  unsigned stride = 1;
  unsigned padding = 0;
  unsigned out_shift = 0;
  Activation act = Activation::kNone;
};

/// out[N,OH,OW,OC] = conv(in[N,IH,IW,IC], w[KH,KW,IC,OC]) with the int8
/// pipeline. `bias` (length OC) may be null.
void conv2d_i8(const TensorI8& in, const TensorI8& w, const std::int32_t* bias,
               TensorI8& out, const ConvParams& p);

/// Depthwise convolution: w[KH,KW,C]; channel c of the output depends only
/// on channel c of the input (the MobileNetV2 layer type).
void depthwise_conv2d_i8(const TensorI8& in, const TensorI8& w,
                         const std::int32_t* bias, TensorI8& out,
                         const ConvParams& p);

/// im2col: flattens conv patches into a [N*OH*OW, KH*KW*IC] matrix, the form
/// the spatial array multiplies. This is the work the host CPU performs when
/// the accelerator lacks the on-the-fly im2col block (Fig. 7).
void im2col_i8(const TensorI8& in, unsigned kh, unsigned kw, unsigned stride,
               unsigned padding, TensorI8& out);

/// Max pooling over NHWC.
void maxpool_i8(const TensorI8& in, unsigned window, unsigned stride,
                unsigned padding, TensorI8& out);

/// Global average pooling: [N,H,W,C] -> [N,C].
void global_avgpool_i8(const TensorI8& in, TensorI8& out);

/// Residual addition through the accumulator's read-out pipeline:
/// out = saturate(act(a + b)) with int32 accumulation and a zero output
/// shift — bit-identical to the accelerator's accumulate-on-write resadd.
void resadd_i8(const TensorI8& a, const TensorI8& b, TensorI8& out,
               Activation act);

/// Conv output spatial size helper.
inline unsigned conv_out_dim(unsigned in, unsigned k, unsigned stride,
                             unsigned padding) {
  return (in + 2 * padding - k) / stride + 1;
}

/// Sign-extends one packed int4 nibble (low nibble first within each byte).
/// This is the DMA's dequant-on-mvin rule; the int4 difftests unpack with it.
inline std::int8_t unpack_int4(const std::uint8_t* packed, std::size_t idx) {
  const std::uint8_t nib = (idx & 1)
                               ? static_cast<std::uint8_t>(packed[idx >> 1] >> 4)
                               : static_cast<std::uint8_t>(packed[idx >> 1] & 0xF);
  return static_cast<std::int8_t>(static_cast<std::int8_t>(nib << 4) >> 4);
}

/// Unpacks a [k x n] packed-int4 weight matrix (row stride ceil(n/2) bytes)
/// into an int8 tensor — the reference dequant oracle.
void unpack_int4_matrix(const std::uint8_t* packed, std::uint64_t k,
                        std::uint64_t n, TensorI8& out);

// ---- Float kernels used for CPU-resident BERT ops -------------------------
void softmax_f32(const TensorF32& in, TensorF32& out);     // rows of a matrix
void layernorm_f32(const TensorF32& in, TensorF32& out);   // per row
void gelu_f32(const TensorF32& in, TensorF32& out);

}  // namespace gemmini::ref
