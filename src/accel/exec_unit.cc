#include "src/accel/exec_unit.h"

#include <algorithm>
#include <cstring>

#include "src/base/fixed.h"
#include "src/fault/fault.h"

namespace gemmini {

void ExecUnit::latch_b(LocalAddr b, unsigned rows, unsigned cols) {
  // PRELOAD with a garbage B address *keeps* the currently latched tile —
  // the idiom the software stack uses to reuse one weight tile across many
  // A tiles (preload(GARBAGE, C') + compute.accumulated).
  if (b.is_garbage()) return;
  const unsigned dim = cfg_.dim();
  GEMMINI_CHECK(rows <= dim && cols <= dim);
  GEMMINI_CHECK_MSG(!b.is_acc(), "PRELOAD reads B from the scratchpad");
  // The tile is stored *transposed* (bt[c * dim + r]) so each COMPUTE output
  // column reads one contiguous lane; whole scratchpad rows are streamed in
  // with the dtype branch hoisted out of the loops.
  if (cfg_.dtype == DType::kInt8) {
    std::fill(b_t_i8_.begin(), b_t_i8_.end(), std::int8_t{0});
    for (unsigned r = 0; r < rows; ++r) {
      const std::int8_t* row =
          reinterpret_cast<const std::int8_t*>(sp_.row_ptr(b.row() + r));
      for (unsigned c = 0; c < cols; ++c) b_t_i8_[c * dim + r] = row[c];
    }
  } else {
    std::fill(b_t_f32_.begin(), b_t_f32_.end(), 0.0f);
    for (unsigned r = 0; r < rows; ++r) {
      const float* row = reinterpret_cast<const float*>(sp_.row_ptr(b.row() + r));
      for (unsigned c = 0; c < cols; ++c) b_t_f32_[c * dim + r] = row[c];
    }
  }
}

Occupancy ExecUnit::preload(const Instruction& inst, Cycle start,
                            bool functional) {
  const Cycle cycles = model_.preload_cycles(inst.rows);
  Cycle t;
  if (!inst.local.is_garbage()) {
    // Stream B rows out of the scratchpad (waits for the banks).
    t = sp_.reserve(inst.local.row(), inst.rows, start, cycles);
  } else {
    t = start + cycles;
  }
  if (functional) latch_b(inst.local, inst.rows, inst.cols);
  c_dest_ = inst.local2;
  c_rows_ = inst.rows2;
  c_cols_ = inst.cols2;
  return {t, t};
}

void ExecUnit::gather_a_row_i8(const Instruction& inst, const ExConfigState& ex,
                               unsigned r, unsigned m, unsigned k) {
  std::int8_t* dst = a_row_i8_.data();
  if (inst.local.is_garbage() || (ex.a_transpose && r >= k) ||
      (!ex.a_transpose && r >= m)) {
    std::memset(dst, 0, k);
    return;
  }
  if (!ex.a_transpose) {
    std::memcpy(dst, sp_.row_ptr(inst.local.row() + r), k);
    return;
  }
  // op(A) row r under transposition = column r of the stored tile, striding
  // across the first min(m, k) scratchpad rows; rows past m read as zero.
  const unsigned lim = std::min(m, k);
  for (unsigned kk = 0; kk < lim; ++kk) {
    dst[kk] =
        static_cast<std::int8_t>(sp_.row_ptr(inst.local.row() + kk)[r]);
  }
  if (lim < k) std::memset(dst + lim, 0, k - lim);
}

void ExecUnit::gather_a_row_f32(const Instruction& inst,
                                const ExConfigState& ex, unsigned r,
                                unsigned m, unsigned k) {
  float* dst = a_row_f32_.data();
  if (inst.local.is_garbage() || (ex.a_transpose && r >= k) ||
      (!ex.a_transpose && r >= m)) {
    std::fill(dst, dst + k, 0.0f);
    return;
  }
  if (!ex.a_transpose) {
    std::memcpy(dst, sp_.row_ptr(inst.local.row() + r),
                static_cast<std::size_t>(k) * sizeof(float));
    return;
  }
  const unsigned lim = std::min(m, k);
  for (unsigned kk = 0; kk < lim; ++kk) {
    dst[kk] =
        reinterpret_cast<const float*>(sp_.row_ptr(inst.local.row() + kk))[r];
  }
  if (lim < k) std::fill(dst + lim, dst + k, 0.0f);
}

Occupancy ExecUnit::compute(const Instruction& inst, const ExConfigState& ex,
                            Cycle start, bool functional) {
  const unsigned dim = cfg_.dim();
  const unsigned m = inst.rows;       // A rows
  const unsigned k = inst.cols;       // A cols == B rows
  const unsigned n = c_n();
  GEMMINI_CHECK(m <= dim && k <= dim && n <= dim);

  // Timing: stream A out of the scratchpad, flow through the array, land in
  // the destination memory.
  Cycle t = start;
  if (!inst.local.is_garbage()) {
    t = sp_.reserve(inst.local.row(), m, t, 1);
  }
  const bool pipelined = inst.op == Opcode::kComputeAccumulated;
  Cycle lat = model_.compute_cycles(ex.dataflow, m, k, pipelined);
  if (ex.a_transpose) {
    GEMMINI_CHECK_MSG(cfg_.has_transposer,
                      "a_transpose requires the transposer block");
    lat += dim;  // extra pass through the transposer pipeline
  }
  t += lat;
  if (c_dest_.is_garbage()) return {t, t};
  LocalMemory& dest = local_memory(c_dest_, sp_, acc_);
  t = dest.reserve(c_dest_.row(), c_rows(inst), t - 1, 1);
  if (!functional) return {t, t};

  // ---- Functional matmul: C = op(A) x B + D --------------------------------
  // Per output row: gather op(A) row r once into a contiguous staging buffer,
  // run contiguous dot products against the transposed B tile, fold in D,
  // then commit the whole row. The dtype branch is hoisted out of the loops.
  const unsigned out_rows = c_rows(inst);
  const LocalAddr d = inst.local2;
  if (cfg_.dtype == DType::kInt8) {
    std::int32_t* out = out_i32_.data();
    for (unsigned r = 0; r < out_rows; ++r) {
      gather_a_row_i8(inst, ex, r, m, k);
      const std::int8_t* ar = a_row_i8_.data();
      std::int64_t* sums = sums_i64_.data();
      for (unsigned c = 0; c < n; ++c) {
        const std::int8_t* bt = b_t_i8_.data() + c * dim;
        std::int32_t s = 0;  // |a*b| <= 2^14, dim <= 256: no overflow
        for (unsigned kk = 0; kk < k; ++kk) {
          s += static_cast<std::int32_t>(ar[kk]) * bt[kk];
        }
        sums[c] = s;
      }
      if (!d.is_garbage() && r < inst.rows2) {
        const unsigned dn = std::min(n, static_cast<unsigned>(inst.cols2));
        if (d.is_acc()) {
          const std::int32_t* drow = acc_.row_i32(d.row() + r);
          for (unsigned c = 0; c < dn; ++c) sums[c] += drow[c];
        } else {
          const std::int8_t* drow =
              reinterpret_cast<const std::int8_t*>(sp_.row_ptr(d.row() + r));
          for (unsigned c = 0; c < dn; ++c) sums[c] += drow[c];
        }
      }
      for (unsigned c = 0; c < n; ++c) {
        out[c] = static_cast<std::int32_t>(
            std::clamp<std::int64_t>(sums[c], INT32_MIN, INT32_MAX));
      }
      if (c_dest_.is_acc()) {
        acc_.write_row_i32(c_dest_.row() + r, out, n, c_dest_.accumulate());
      } else {
        std::uint8_t* row = sp_.row_ptr(c_dest_.row() + r);
        for (unsigned c = 0; c < n; ++c) {
          row[c] = static_cast<std::uint8_t>(
              quantize_i32_to_i8(out[c], ex.out_shift, ex.activation));
        }
      }
    }
  } else {
    float* out = out_f32_.data();
    for (unsigned r = 0; r < out_rows; ++r) {
      gather_a_row_f32(inst, ex, r, m, k);
      const float* ar = a_row_f32_.data();
      for (unsigned c = 0; c < n; ++c) {
        const float* bt = b_t_f32_.data() + c * dim;
        float sum = 0.0f;
        for (unsigned kk = 0; kk < k; ++kk) sum += ar[kk] * bt[kk];
        out[c] = sum;
      }
      if (!d.is_garbage() && r < inst.rows2) {
        const unsigned dn = std::min(n, static_cast<unsigned>(inst.cols2));
        if (d.is_acc()) {
          const float* drow = acc_.row_f32(d.row() + r);
          for (unsigned c = 0; c < dn; ++c) out[c] += drow[c];
        } else {
          const float* drow =
              reinterpret_cast<const float*>(sp_.row_ptr(d.row() + r));
          for (unsigned c = 0; c < dn; ++c) out[c] += drow[c];
        }
      }
      if (c_dest_.is_acc()) {
        acc_.write_row_f32(c_dest_.row() + r, out, n, c_dest_.accumulate());
      } else {
        float* row = reinterpret_cast<float*>(sp_.row_ptr(c_dest_.row() + r));
        for (unsigned c = 0; c < n; ++c) {
          row[c] = apply_activation_f32(out[c], ex.activation);
        }
      }
    }
  }

  // Fault layer: a transient error in the array corrupts one bit of the
  // just-written tile (after the commit, so the flip survives the write).
  // Draws happen only on functional tile commits, so draw order is fixed
  // for a given workload.
  std::uint64_t bit = 0;
  if (injector_ &&
      injector_->draw_exec_tile_error(dest.region_bits(out_rows), t, &bit)) {
    dest.corrupt_bit(c_dest_.row(), bit);
  }
  return {t, t};
}

}  // namespace gemmini
