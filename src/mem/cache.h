#pragma once
// Set-associative, write-back, write-allocate cache timing model: the SoC's
// shared L2. Purely a tag store: data payloads live in PhysMem. The tags are
// one `LruSets` (src/base/lru.h) keyed on the line number, so a line's set
// is `line % sets`, its payload is its dirty bit, and an evicted line's
// address is `key * line_bytes`.
//
// The cache is shared by all requestors on the SoC (host CPUs, accelerator
// DMAs, the page-table walker), which is what produces the paper's Fig. 9
// contention effects and its observation that accelerator PTE walks can hit
// in L2.

#include <cstdint>

#include "src/base/lru.h"
#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/base/types.h"

namespace gemmini {

struct CacheConfig {
  std::uint64_t size_bytes = 1ull << 20;  ///< total capacity (default 1 MiB)
  unsigned ways = 8;
  unsigned line_bytes = 64;
  Cycle hit_latency = 20;  ///< L2 hit latency seen by the accelerator

  unsigned num_sets() const {
    GEMMINI_CHECK(ways > 0 && line_bytes > 0);
    return static_cast<unsigned>(size_bytes / (ways * line_bytes));
  }
  void validate() const;
};

/// Result of a single line access.
struct CacheAccess {
  bool hit = false;
  bool writeback = false;   ///< a dirty victim must be written to DRAM
  PAddr victim_line = 0;    ///< line address of the victim (if writeback)
};

class Cache {
 public:
  /// Everything the cache counts, since the last reset_stats().
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;  ///< dirty victims evicted

    double miss_rate() const { return safe_ratio(misses, hits + misses); }
  };

  explicit Cache(const CacheConfig& cfg);

  /// Access one cache line containing `addr`. Allocates on miss and reports
  /// whether a dirty victim was evicted. The tag store is shared: per-
  /// requestor accounting lives on the buses and DRAM.
  CacheAccess access_line(PAddr addr, bool write);

  /// True if the line containing `addr` is currently resident (no state
  /// change).
  bool probe(PAddr addr) const;

  /// Invalidate everything (e.g. across benchmark repetitions).
  void flush();

  const CacheConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  std::uint64_t line_of(PAddr a) const { return a / cfg_.line_bytes; }

  CacheConfig cfg_;
  LruSets<bool> tags_;  ///< payload: the line is dirty
  Stats stats_;
};

}  // namespace gemmini
