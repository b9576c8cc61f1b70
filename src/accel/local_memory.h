#pragma once
// Banked local SRAM (Fig. 1 "Scratchpad Bank 0..K" and the accumulator).
//
// Functional: raw byte storage, row-granular (a scratchpad row holds dim
// input elements, an accumulator row dim accumulator elements). Timing:
// per-bank busy-until timelines; an access occupying rows in a bank waits
// for that bank, which is how DMA fills and spatial-array reads conflict
// (the design reason Gemmini banks its local memories).
//
// Dependency management (Fig. 1 "Dependency Mgmt"): the real controller
// tracks RAW/WAR/WAW hazards between the load, execute and store pipelines
// on local rows. Every unit reports an instruction as one Occupancy:
// `free_at`, when the unit (and the rows it streams) can take the next
// instruction, and `done_at`, when its results have landed. The hazard
// rule, per row:
//   * a reader releases its rows to the next writer at its free_at;
//   * a writer passes its rows to the next writer at its free_at and to
//     readers at its done_at.
// So back-to-back writers pipeline (the DMA and the local write ports keep
// per-row order — this is what makes MVIN/MVIN-accumulate residual
// additions stream in the RTL), while a reader waits for the data itself.
// The execute unit's results land when it frees (free_at == done_at).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/arch/config.h"
#include "src/base/observers.h"
#include "src/base/status.h"
#include "src/base/types.h"

namespace gemmini {

/// One instruction's time in a unit (DMA engine, execute unit): the unit
/// can start its next instruction at `free_at`; the results land at
/// `done_at` (>= free_at).
struct Occupancy {
  Cycle free_at;
  Cycle done_at;
};

class LocalMemory {
 public:
  /// Everything the memory counts, since the last reset_stats().
  struct Stats {
    std::uint64_t rows = 0;  ///< rows touched by reservations (SRAM energy)
    std::uint64_t bank_conflict_cycles = 0;
  };

  /// `accumulator` selects the fault layer's flip rate and names the
  /// memory in range errors.
  LocalMemory(bool accumulator, std::uint64_t rows, std::uint64_t row_bytes,
              unsigned banks, Observers obs)
      : accumulator_(accumulator),
        row_bytes_(row_bytes),
        rows_(rows),
        bank_rows_(rows / banks),
        data_(rows * row_bytes, 0),
        bank_busy_(banks, 0),
        write_free_(rows, 0),
        write_done_(rows, 0),
        read_free_(rows, 0),
        injector_(obs.faults) {}

  std::uint64_t rows() const { return rows_; }
  std::uint64_t row_bytes() const { return row_bytes_; }
  unsigned bank_of(std::uint64_t row) const {
    return static_cast<unsigned>(row / bank_rows_);
  }

  // ---- Functional -------------------------------------------------------
  std::uint8_t* row_ptr(std::uint64_t row) {
    GEMMINI_CHECK_MSG(row < rows_, name() << " row " << row << " out of "
                                          << rows_);
    return data_.data() + row * row_bytes_;
  }
  const std::uint8_t* row_ptr(std::uint64_t row) const {
    GEMMINI_CHECK(row < rows_);
    return data_.data() + row * row_bytes_;
  }

  // ---- Timing -------------------------------------------------------------
  /// Reserve rows [row, row+nrows) starting at `t` for `cycles` cycles.
  /// Returns the access completion (start after all touched banks free).
  Cycle reserve(std::uint64_t row, std::uint64_t nrows, Cycle t, Cycle cycles);

  // ---- Hazards (the rule in the header comment) ---------------------------
  /// Earliest time a *read* of the range may begin.
  Cycle read_ready(std::uint64_t row, std::uint64_t nrows) const {
    Cycle t = 0;
    for (std::uint64_t r = row; r < row + nrows; ++r) {
      t = std::max(t, write_done_[r]);
    }
    return t;
  }
  /// Earliest time a *write* of the range may begin.
  Cycle write_ready(std::uint64_t row, std::uint64_t nrows) const {
    Cycle t = 0;
    for (std::uint64_t r = row; r < row + nrows; ++r) {
      t = std::max({t, write_free_[r], read_free_[r]});
    }
    return t;
  }
  void record_read(std::uint64_t row, std::uint64_t nrows, Occupancy occ) {
    GEMMINI_CHECK(row + nrows <= rows_);
    for (std::uint64_t r = row; r < row + nrows; ++r) {
      read_free_[r] = std::max(read_free_[r], occ.free_at);
    }
  }
  void record_write(std::uint64_t row, std::uint64_t nrows, Occupancy occ) {
    GEMMINI_CHECK(row + nrows <= rows_);
    for (std::uint64_t r = row; r < row + nrows; ++r) {
      write_free_[r] = std::max(write_free_[r], occ.free_at);
      write_done_[r] = std::max(write_done_[r], occ.done_at);
    }
  }

  /// Clears the bank and hazard timelines (keeps the stored data).
  void reset_time();

  // ---- Fault layer ----------------------------------------------------------
  /// Flip bit `bit` of the region starting at `row` (SRAM flips, and the
  /// exec unit's transient tile errors landing in this memory).
  void corrupt_bit(std::uint64_t row, std::uint64_t bit) {
    GEMMINI_CHECK(row * row_bytes_ + bit / 8 < data_.size());
    data_[row * row_bytes_ + bit / 8] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
  }
  /// Bits covered by `nrows` rows (for fault-region sizing).
  std::uint64_t region_bits(std::uint64_t nrows) const {
    return nrows * row_bytes_ * 8;
  }

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  const char* name() const {
    return accumulator_ ? "accumulator" : "scratchpad";
  }

  bool accumulator_;
  std::uint64_t row_bytes_;
  std::uint64_t rows_;
  std::uint64_t bank_rows_;
  std::vector<std::uint8_t> data_;
  std::vector<Cycle> bank_busy_;
  std::vector<Cycle> write_free_, write_done_, read_free_;
  fault::Injector* injector_;
  Stats stats_;
};

/// The scratchpad: a LocalMemory with the scratchpad's geometry (each row
/// holds dim() input elements).
class Scratchpad : public LocalMemory {
 public:
  explicit Scratchpad(const GemminiConfig& cfg, Observers obs = {})
      : LocalMemory(/*accumulator=*/false, cfg.sp_rows(), cfg.sp_row_bytes(),
                    cfg.sp_banks, obs) {}
};

}  // namespace gemmini
