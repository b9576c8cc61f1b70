#pragma once
// DMA engine (Fig. 1): moves data between main memory (virtual addresses)
// and the local scratchpad/accumulator.
//
// Every DRAM-side row of an MVIN/MVOUT is translated through the
// TranslationSystem (private TLB -> optional shared TLB -> PTW), then split
// into line-sized requests into the shared MemorySystem. Requests pipeline
// through a bounded in-flight window (dma_max_inflight), so DMA throughput
// is limited by min(bus bandwidth, inflight * latency product) exactly as in
// the RTL. Functional mode moves real bytes; timing mode moves only time.

#include <deque>
#include <vector>

#include "src/accel/accumulator.h"
#include "src/arch/config.h"
#include "src/base/observers.h"
#include "src/base/types.h"
#include "src/isa/isa.h"
#include "src/mem/memsys.h"
#include "src/vm/translation.h"

namespace gemmini {

class DmaEngine {
 public:
  /// Everything the engine counts, since the last reset_stats().
  struct Stats {
    std::uint64_t load_bytes = 0;   ///< DRAM -> local (MVIN)
    std::uint64_t store_bytes = 0;  ///< local -> DRAM (MVOUT)
  };

  DmaEngine(const GemminiConfig& cfg, MemorySystem& mem,
            TranslationSystem& translation, Scratchpad& sp, Accumulator& acc,
            RequestorId requestor, Observers obs = {})
      : cfg_(cfg),
        mem_(mem),
        translation_(translation),
        sp_(sp),
        acc_(acc),
        requestor_(requestor),
        obs_(obs) {}

  // Both transfers return their Occupancy: `free_at` is when the DMA
  // front-end finishes injecting requests (the next MVIN/MVOUT can start
  // then — the engine is pipelined); `done_at` is when the last byte lands
  // (dependent computes wait for this).

  /// Executes an MVIN: rows x cols elements from DRAM (row stride
  /// `stride_bytes`, scaled by `scale`) into consecutive local rows starting
  /// at `dst`. With `int4`, each DRAM row holds (cols+1)/2 bytes of packed
  /// two's-complement nibbles (low nibble first) that are sign-extended to
  /// int8 on the way into the scratchpad — dequant-on-mvin, so the array
  /// computes in int8 while DRAM traffic halves.
  Occupancy mvin(const AddressSpace& as, VAddr dram,
                 std::uint64_t stride_bytes, float scale, LocalAddr dst,
                 unsigned rows, unsigned cols, Cycle start, bool functional,
                 bool int4 = false);

  /// Executes an MVOUT: rows x cols elements from local rows starting at
  /// `src` to DRAM. Accumulator sources pass through the read-out pipeline
  /// (shift + activation for int8 configs).
  Occupancy mvout(const AddressSpace& as, VAddr dram,
                  std::uint64_t stride_bytes, LocalAddr src, unsigned rows,
                  unsigned cols, unsigned out_shift, Activation act,
                  Cycle start, bool functional);

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// Drops in-flight state (absolute times) between independent runs.
  void reset_time() {
    read_inflight_.clear();
    write_inflight_.clear();
  }

 private:
  /// Streams `bytes` at virtual address `va` through the memory system with
  /// the bounded in-flight window: free at the next request's issue slot,
  /// done at the last completion. With `data`, each chunk is also copied
  /// between `data` and PhysMem (into PhysMem when `write`) after its
  /// access — the engine's only touch of PhysMem.
  Occupancy stream(const AddressSpace& as, VAddr va, std::uint64_t bytes,
                   bool write, Cycle issue, std::uint8_t* data = nullptr);

  const GemminiConfig& cfg_;
  MemorySystem& mem_;
  TranslationSystem& translation_;
  Scratchpad& sp_;
  Accumulator& acc_;
  RequestorId requestor_;
  Observers obs_;
  // Reads and writes have independent in-flight windows, mirroring the
  // RTL's separate load/store reservation stations: a backlog of store
  // completions must not stall load issue.
  std::deque<Cycle> read_inflight_;
  std::deque<Cycle> write_inflight_;
  /// Functional-path staging buffer, reused across transfers so each
  /// mvin/mvout doesn't pay a zero-initialization of the whole payload.
  std::vector<std::uint8_t> stage_;
  Stats stats_;
};

}  // namespace gemmini
