#include "src/accel/accumulator.h"

#include <algorithm>

namespace gemmini {

void Accumulator::write_row_i32(std::uint64_t row, const std::int32_t* src,
                                unsigned n, bool accumulate) {
  GEMMINI_CHECK(n <= dim_ && dtype_ == DType::kInt8);
  auto* dst = reinterpret_cast<std::int32_t*>(row_ptr(row));
  if (accumulate) {
    for (unsigned i = 0; i < n; ++i) {
      dst[i] = saturating_add_i32(dst[i], src[i]);
    }
  } else {
    std::copy(src, src + n, dst);
  }
}

void Accumulator::write_row_f32(std::uint64_t row, const float* src,
                                unsigned n, bool accumulate) {
  GEMMINI_CHECK(n <= dim_ && dtype_ == DType::kFp32);
  auto* dst = reinterpret_cast<float*>(row_ptr(row));
  if (accumulate) {
    for (unsigned i = 0; i < n; ++i) dst[i] += src[i];
  } else {
    std::copy(src, src + n, dst);
  }
}

void Accumulator::readout_i8(std::uint64_t row, unsigned n, unsigned shift,
                             Activation act, std::int8_t* dst) const {
  const std::int32_t* src = row_i32(row);
  for (unsigned i = 0; i < n; ++i) {
    dst[i] = quantize_i32_to_i8(src[i], shift, act);
  }
}

void Accumulator::readout_f32(std::uint64_t row, unsigned n, Activation act,
                              float* dst) const {
  const float* src = row_f32(row);
  // Identity read-out is a straight row copy; the activation branch stays
  // out of the element loop either way.
  if (act == Activation::kNone) {
    std::copy(src, src + n, dst);
    return;
  }
  for (unsigned i = 0; i < n; ++i) {
    dst[i] = apply_activation_f32(src[i], act);
  }
}

}  // namespace gemmini
