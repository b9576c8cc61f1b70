#include "src/accel/accumulator.h"

#include <algorithm>

#include "src/fault/fault.h"

namespace gemmini {

void Accumulator::write_row_i32(std::uint64_t row, const std::int32_t* src,
                                unsigned n, bool accumulate) {
  GEMMINI_CHECK(row < rows_ && n <= dim_ && dtype_ == DType::kInt8);
  std::int32_t* dst = i32_.data() + row * dim_;
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
  GEMMINI_CHECK(row < rows_ && n <= dim_ && dtype_ == DType::kFp32);
  float* dst = f32_.data() + row * dim_;
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

Cycle Accumulator::reserve(std::uint64_t row, std::uint64_t nrows, Cycle t,
                           Cycle cycles) {
  GEMMINI_CHECK_MSG(row + nrows <= rows_,
                    "accumulator range [" << row << ", " << row + nrows
                                          << ") exceeds " << rows_);
  const unsigned first = bank_of(row);
  const unsigned last = nrows == 0 ? first : bank_of(row + nrows - 1);
  Cycle start = t;
  for (unsigned b = first; b <= last; ++b) {
    start = std::max(start, bank_busy_[b]);
  }
  const Cycle done = start + cycles;
  for (unsigned b = first; b <= last; ++b) bank_busy_[b] = done;
  stats_.rows += nrows;
  // Fault layer: one flip draw per reservation over the touched region.
  if (injector_ && nrows > 0) {
    std::uint64_t bit = 0;
    if (injector_->draw_sram_flip(true, region_bits(nrows), done, &bit)) {
      corrupt_bit(row, bit);
    }
  }
  return done;
}

}  // namespace gemmini
