#pragma once
// The accelerator's virtual-address translation system (paper §V-A).
//
// Two-level TLB hierarchy: a small private TLB inside the accelerator's DMA,
// backed by an optional larger shared L2 TLB, backed by a single shared PTW.
// Optionally, two "filter registers" — one caching the last translated read
// page, one the last written page — let the DMA skip the TLB entirely (zero
// latency) when consecutive requests touch the same virtual page, and remove
// read/write contention over TLB LRU state. This is exactly the Fig. 8b
// optimization.

#include <optional>

#include "src/base/observers.h"
#include "src/base/types.h"
#include "src/vm/page_table.h"
#include "src/vm/ptw.h"
#include "src/vm/tlb.h"

namespace gemmini {

struct TranslationConfig {
  TlbConfig private_tlb{.entries = 16, .ways = 0, .hit_latency = 4};
  /// Shared L2 TLB; `entries == 0` disables it (the Fig. 8 "0" column).
  TlbConfig l2_tlb{.entries = 512, .ways = 4, .hit_latency = 14};
  bool filter_registers = false;
  PtwConfig ptw{};
};

/// Where a translation was satisfied — for statistics and tests.
enum class TranslationLevel : std::uint8_t {
  kFilterRegister,
  kPrivateTlb,
  kSharedTlb,
  kPageWalk,
};

struct Translation {
  PAddr paddr = 0;
  Cycle done = 0;
  TranslationLevel level = TranslationLevel::kPrivateTlb;
};

class TranslationSystem {
 public:
  /// What the translation system counts itself (its TLBs keep their own
  /// hit/miss counts), since the last reset_stats().
  struct Stats {
    std::uint64_t filter_hits = 0;
    std::uint64_t flushes = 0;
  };

  /// `ptw` may be shared with other translation systems (multi-core SoCs
  /// share the single walker, and CPUs contend for it). `obs.trace`
  /// receives TLB-miss and page-walk spans; `obs.faults` injects transient
  /// translation faults.
  TranslationSystem(const TranslationConfig& cfg, PageTableWalker& ptw,
                    Observers obs = {});

  Translation translate(const AddressSpace& as, VAddr va, bool is_write,
                        Cycle t);

  /// Context switch: invalidate TLBs and filter registers.
  void flush();

  const Tlb& private_tlb() const { return private_; }
  const Stats& stats() const { return stats_; }
  const TranslationConfig& config() const { return cfg_; }
  /// Zeroes this system's counts and those of its TLBs.
  void reset_stats();

  /// Hit rate counting filter-register hits as private-TLB hits (the paper
  /// reports "private TLB hit rate (including hits on the filter registers)
  /// reached 90%").
  double effective_private_hit_rate() const;

 private:
  TranslationConfig cfg_;
  Tlb private_;
  std::optional<Tlb> l2_;
  PageTableWalker& ptw_;
  Observers obs_;
  Stats stats_;

  struct FilterReg {
    bool valid = false;
    std::uint64_t vpn = 0;
    PAddr ppn_base = 0;
  };
  FilterReg read_filter_, write_filter_;
};

}  // namespace gemmini
