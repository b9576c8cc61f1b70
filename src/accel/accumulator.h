#pragma once
// Accumulator SRAM (Fig. 1): a LocalMemory of wider-than-input rows with
// accumulate-on-write, plus the read-out pipeline (matrix-scalar multiply /
// bitshift / ReLU) that converts accumulator values back to the input type
// on MVOUT.
//
// Elements are int32 for int8 configs and float for fp32 configs; both are
// 4 bytes, viewed in place over the memory's byte rows.

#include <cstdint>

#include "src/accel/local_memory.h"
#include "src/arch/config.h"
#include "src/base/fixed.h"
#include "src/base/observers.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/isa/isa.h"

namespace gemmini {

class Accumulator : public LocalMemory {
 public:
  explicit Accumulator(const GemminiConfig& cfg, Observers obs = {})
      : LocalMemory(/*accumulator=*/true, cfg.acc_rows(), cfg.acc_row_bytes(),
                    cfg.acc_banks, obs),
        dtype_(cfg.dtype),
        dim_(cfg.dim()) {}

  unsigned dim() const { return dim_; }

  // ---- Functional ---------------------------------------------------------
  /// Write `n` elements into row `row`; `accumulate` selects += vs =.
  void write_row_i32(std::uint64_t row, const std::int32_t* src, unsigned n,
                     bool accumulate);
  void write_row_f32(std::uint64_t row, const float* src, unsigned n,
                     bool accumulate);

  const std::int32_t* row_i32(std::uint64_t row) const {
    GEMMINI_CHECK(dtype_ == DType::kInt8);
    return reinterpret_cast<const std::int32_t*>(row_ptr(row));
  }
  const float* row_f32(std::uint64_t row) const {
    GEMMINI_CHECK(dtype_ == DType::kFp32);
    return reinterpret_cast<const float*>(row_ptr(row));
  }

  /// Read-out pipeline: int32 accumulator -> activation -> rounding shift ->
  /// saturating int8. Produces `n` output elements from row `row`.
  void readout_i8(std::uint64_t row, unsigned n, unsigned shift,
                  Activation act, std::int8_t* dst) const;
  /// fp32 read-out: activation only.
  void readout_f32(std::uint64_t row, unsigned n, Activation act,
                   float* dst) const;

 private:
  DType dtype_;
  unsigned dim_;
};

/// The local memory a LocalAddr names: its timing, hazards and faults.
inline LocalMemory& local_memory(LocalAddr a, Scratchpad& sp,
                                 Accumulator& acc) {
  if (a.is_acc()) return acc;
  return sp;
}

}  // namespace gemmini
