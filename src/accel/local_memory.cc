#include "src/accel/local_memory.h"

#include <algorithm>

#include "src/fault/fault.h"

namespace gemmini {

Cycle LocalMemory::reserve(std::uint64_t row, std::uint64_t nrows, Cycle t,
                           Cycle cycles) {
  GEMMINI_CHECK_MSG(row + nrows <= rows_,
                    name() << " range [" << row << ", " << row + nrows
                           << ") exceeds " << rows_ << " rows");
  const unsigned first = bank_of(row);
  const unsigned last = nrows == 0 ? first : bank_of(row + nrows - 1);
  Cycle start = t;
  for (unsigned b = first; b <= last; ++b) {
    start = std::max(start, bank_busy_[b]);
  }
  if (start > t) stats_.bank_conflict_cycles += start - t;
  const Cycle done = start + cycles;
  for (unsigned b = first; b <= last; ++b) {
    bank_busy_[b] = done;
  }
  stats_.rows += nrows;
  // Fault layer: an SRAM cell in the reserved region may flip (one draw per
  // reservation — an access-correlated model, not time-based decay).
  if (injector_ && nrows > 0) {
    std::uint64_t bit = 0;
    if (injector_->draw_sram_flip(accumulator_, region_bits(nrows), done,
                                  &bit)) {
      corrupt_bit(row, bit);
    }
  }
  return done;
}

void LocalMemory::reset_time() {
  for (std::vector<Cycle>* v :
       {&bank_busy_, &write_free_, &write_done_, &read_free_}) {
    std::fill(v->begin(), v->end(), 0);
  }
}

}  // namespace gemmini
