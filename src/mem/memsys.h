#pragma once
// MemorySystem: the SoC's shared memory hierarchy.
//
//   requestor --(system bus)--> shared L2 --(memory bus)--> DRAM
//
// Timestamped, event-style timing: each access carries its issue cycle and
// the model returns its completion cycle, mutating bus/bank/cache state along
// the way. Multiple requestors (host CPUs, per-core accelerator DMAs, the
// shared PTW) interleave by issuing in global time order; arbitration falls
// out of the busy-until bookkeeping. Functional payloads live in PhysMem.
//
// The DRAM end is a cycle-driven memory controller (src/mem/dram.h):
// multi-channel, per-bank queues, FCFS/FR-FCFS scheduling, refresh windows
// and a buffered write queue. L2 refills take its read path; dirty-victim
// writebacks take its fire-and-forget write path, which buffers when write
// queueing is configured.

#include <cstdint>
#include <memory>

#include "src/base/observers.h"
#include "src/base/types.h"
#include "src/mem/bus.h"
#include "src/mem/cache.h"
#include "src/mem/dram.h"
#include "src/mem/phys_mem.h"
#include "src/trace/trace.h"

namespace gemmini {

struct MemSysConfig {
  BusConfig system_bus{};         // requestors <-> L2
  CacheConfig l2{};               // shared last-level cache
  BusConfig memory_bus{.width_bytes = 16};  // L2 <-> DRAM
  DramConfig dram{};

  void validate() const {
    system_bus.validate();
    l2.validate();
    memory_bus.validate();
    dram.validate();
  }
};

class MemorySystem {
 public:
  /// `obs` is shared with both buses and the DRAM model (the injector
  /// reaches the DRAM read path); the memory system itself emits the L2
  /// hit/miss events. It counts nothing itself: its buses, L2 and DRAM each
  /// keep their own typed stats.
  explicit MemorySystem(const MemSysConfig& cfg, Observers obs = {});

  // The SoC's translation and DMA units hold references into this object.
  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  /// Timing access: `bytes` at physical address `addr`, issued at cycle `t`.
  /// Returns the completion cycle. Splits across cache lines; state (cache
  /// contents, row buffers, bus occupancy) mutates in call order, so callers
  /// must issue in approximately nondecreasing global time.
  Cycle access(PAddr addr, std::uint64_t bytes, bool write, Cycle t,
               RequestorId requestor);

  PhysMem& phys() { return phys_; }
  const PhysMem& phys() const { return phys_; }

  Cache& l2() { return *l2_; }
  const Cache& l2() const { return *l2_; }
  Bus& system_bus() { return sysbus_; }
  const Bus& system_bus() const { return sysbus_; }
  Bus& memory_bus() { return membus_; }
  const Bus& memory_bus() const { return membus_; }
  Dram& dram() { return dram_; }
  const Dram& dram() const { return dram_; }

  const MemSysConfig& config() const { return cfg_; }

  /// Resets *timing* state (bus/bank busy-until) without touching cache
  /// contents or data; used between benchmark repetitions that share warmed
  /// state.
  void reset_time();

  /// Full reset: timing + cache tags. Data in PhysMem persists.
  void reset_all();

  /// Zeroes the counts of both buses, the L2 and DRAM.
  void reset_stats();

 private:
  MemSysConfig cfg_;
  trace::Tracer* tracer_;
  PhysMem phys_;
  Bus sysbus_;
  std::unique_ptr<Cache> l2_;
  Bus membus_;
  Dram dram_;
};

}  // namespace gemmini
