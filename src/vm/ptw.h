#pragma once
// Page-table walker.
//
// The paper's case-study SoC has exactly one PTW shared by the host CPU and
// the accelerator ("Our design includes only one PTW, shared by both the CPU
// and the accelerator, which is suitable for low-power devices"), so walks
// serialize. Each walk performs kPtLevels dependent 8-byte loads through the
// *shared memory system*, which means hot PTEs naturally get cached in L2 —
// the same effect the RTL exhibits. Non-leaf PTEs also land in a small
// PTE cache: one fully associative true-LRU `LruSets` (src/base/lru.h) keyed
// on the PTE's physical address.

#include "src/base/lru.h"
#include "src/base/types.h"
#include "src/mem/memsys.h"
#include "src/vm/page_table.h"

namespace gemmini {

struct PtwConfig {
  Cycle setup_latency = 2;  ///< request hand-off into the walker
  /// Rocket's PTW caches non-leaf PTEs, so walks within a warm 2 MB region
  /// load only the leaf level from memory. 0 disables the cache.
  unsigned pte_cache_entries = 8;
};

class PageTableWalker {
 public:
  /// Everything the walker counts, since the last reset_stats().
  struct Stats {
    std::uint64_t walks = 0;
    std::uint64_t queue_cycles = 0;  ///< waiting behind an earlier walk
    std::uint64_t pte_loads = 0;     ///< PTE reads sent to memory
  };

  PageTableWalker(const PtwConfig& cfg, MemorySystem& mem,
                  RequestorId requestor)
      : cfg_(cfg),
        mem_(mem),
        requestor_(requestor),
        pte_cache_(1, cfg.pte_cache_entries) {}

  struct WalkResult {
    PAddr ppn_base = 0;  ///< physical page base of the leaf
    Cycle done = 0;
  };

  /// Walks `va` in address space `as`, starting no earlier than `t`.
  /// A single walker port: concurrent walks queue behind each other.
  WalkResult walk(const AddressSpace& as, VAddr va, Cycle t);

  const Stats& stats() const { return stats_; }
  /// Drops in-flight state (absolute times); the PTE cache stays warm.
  void reset_time() { busy_until_ = 0; }
  /// Drops every PTE-cache entry (a cold walker).
  void flush() { pte_cache_.flush(); }
  void reset_stats() { stats_ = Stats{}; }

 private:
  PtwConfig cfg_;
  MemorySystem& mem_;
  RequestorId requestor_;
  Cycle busy_until_ = 0;
  Stats stats_;
  LruSets<> pte_cache_;
};

}  // namespace gemmini
