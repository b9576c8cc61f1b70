#pragma once
// Spatial-array execute unit: PRELOAD latches a weight tile into the array,
// COMPUTE streams an activation tile through it and deposits results at the
// destination named by the preceding PRELOAD. Functional semantics are
// identical for both dataflows (C = A x B + D); timing comes from
// arch::SpatialArrayModel, and the transposer adds a dim-cycle pass when
// A must be transposed (required for OS-dataflow matmuls).

#include <cstdint>
#include <vector>

#include "src/accel/accumulator.h"
#include "src/arch/config.h"
#include "src/arch/spatial_array.h"
#include "src/base/observers.h"
#include "src/isa/isa.h"

namespace gemmini {

/// CONFIG_EX state, owned by the controller.
struct ExConfigState {
  Dataflow dataflow = Dataflow::kWeightStationary;
  Activation activation = Activation::kNone;
  unsigned out_shift = 0;
  bool a_transpose = false;
};

class ExecUnit {
 public:
  ExecUnit(const GemminiConfig& cfg, Scratchpad& sp, Accumulator& acc,
           Observers obs = {})
      : cfg_(cfg), model_(cfg_), sp_(sp), acc_(acc), injector_(obs.faults),
        b_t_i8_(static_cast<std::size_t>(cfg.dim()) * cfg.dim(), 0),
        b_t_f32_(static_cast<std::size_t>(cfg.dim()) * cfg.dim(), 0.0f),
        a_row_i8_(cfg.dim(), 0),
        a_row_f32_(cfg.dim(), 0.0f),
        sums_i64_(cfg.dim(), 0),
        out_i32_(cfg.dim(), 0),
        out_f32_(cfg.dim(), 0.0f) {}

  /// PRELOAD: latch B (rows x cols from scratchpad; garbage = zero tile) and
  /// remember the C destination for subsequent COMPUTEs. The array streams
  /// and lands in one pass, so every Occupancy here has free_at == done_at.
  Occupancy preload(const Instruction& inst, Cycle start, bool functional);

  /// COMPUTE (preloaded or accumulated) against the latched tile.
  Occupancy compute(const Instruction& inst, const ExConfigState& ex,
                    Cycle start, bool functional);

  /// Useful MACs of a COMPUTE against the latched tile (utilization).
  std::uint64_t macs(const Instruction& inst) const {
    return static_cast<std::uint64_t>(inst.rows) * inst.cols * c_n();
  }

  /// The C destination currently latched, and the rows a COMPUTE writes
  /// there (for hazard tracking).
  LocalAddr c_dest() const { return c_dest_; }
  unsigned c_rows(const Instruction& inst) const {
    return c_rows_ ? c_rows_ : inst.rows;
  }

 private:
  /// Output columns of the latched C tile (0 = the full array width).
  unsigned c_n() const { return c_cols_ == 0 ? cfg_.dim() : c_cols_; }
  void latch_b(LocalAddr b, unsigned rows, unsigned cols);
  /// Stages op(A) row `r` (transpose/garbage/out-of-range handled) into the
  /// contiguous a_row_* buffer, length k.
  void gather_a_row_i8(const Instruction& inst, const ExConfigState& ex,
                       unsigned r, unsigned m, unsigned k);
  void gather_a_row_f32(const Instruction& inst, const ExConfigState& ex,
                        unsigned r, unsigned m, unsigned k);

  const GemminiConfig& cfg_;
  SpatialArrayModel model_;
  Scratchpad& sp_;
  Accumulator& acc_;
  fault::Injector* injector_;

  // Latched weight tile, stored transposed (bt[c * dim + r]) so COMPUTE's
  // inner dot products are contiguous. Both domains exist; only the config's
  // dtype is used.
  std::vector<std::int8_t> b_t_i8_;
  std::vector<float> b_t_f32_;
  // Pre-laid-out per-row staging buffers (gathered A row, dots, output row).
  std::vector<std::int8_t> a_row_i8_;
  std::vector<float> a_row_f32_;
  std::vector<std::int64_t> sums_i64_;
  std::vector<std::int32_t> out_i32_;
  std::vector<float> out_f32_;
  LocalAddr c_dest_ = LocalAddr::garbage();
  unsigned c_rows_ = 0;
  unsigned c_cols_ = 0;
};

}  // namespace gemmini
