#pragma once
// TLB model: fully-associative (private accelerator TLBs are small, 4..64
// entries) or set-associative for the larger shared L2 TLB. The entries are
// one true-LRU `LruSets` (src/base/lru.h) keyed on the VPN, with the PPN as
// payload; fully associative means one set.
//
// Tracks hit/miss counters and same-page-as-last-request statistics split by
// read/write (the paper reports 87% of consecutive reads and 83% of
// consecutive writes touch the same page, motivating the filter registers of
// Fig. 8b). The windowed miss rate of Fig. 4 is not kept here: the SoC
// publishes the hit/miss counts as `core<N>.tlb.{hits,misses}`, and the
// metrics sampler windows them into the Report's counter timelines.

#include <cstddef>
#include <cstdint>
#include <optional>

#include "src/base/lru.h"
#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/base/types.h"

namespace gemmini {

struct TlbConfig {
  unsigned entries = 16;
  unsigned ways = 0;  ///< 0 => fully associative
  Cycle hit_latency = 4;

  void validate() const {
    GEMMINI_CONFIG_REQUIRE(entries > 0, "TLB needs at least one entry");
    if (ways != 0) {
      GEMMINI_CONFIG_REQUIRE(entries % ways == 0,
                             "TLB entries must divide evenly into ways");
    }
  }
};

class Tlb {
 public:
  /// Everything the TLB counts, since the last reset_stats().
  struct Stats {
    std::uint64_t read_requests = 0;
    std::uint64_t write_requests = 0;
    std::uint64_t read_same_page = 0;   ///< same page as the previous read
    std::uint64_t write_same_page = 0;  ///< same page as the previous write
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Hits on a same-page repeat of a hit, served from the remembered
    /// entry without a set scan (a subset of `hits`: a host-side fast path
    /// with identical architectural behavior, not a modeled structure).
    std::uint64_t fastpath_hits = 0;

    double hit_rate() const { return safe_ratio(hits, hits + misses); }
    /// Fraction of consecutive read (write) requests to the same page.
    double consecutive_same_page_rate(bool writes) const {
      const std::uint64_t total = writes ? write_requests : read_requests;
      return total <= 1
                 ? 0.0
                 : safe_ratio(writes ? write_same_page : read_same_page,
                              total - 1);
    }
  };

  explicit Tlb(const TlbConfig& cfg);

  /// Looks up `vpn`. Returns the mapped PPN on hit.
  std::optional<std::uint64_t> lookup(std::uint64_t vpn, bool is_write);

  /// Installs vpn -> ppn, evicting LRU within the set if full.
  void fill(std::uint64_t vpn, std::uint64_t ppn);

  /// Invalidates everything (context switch / OS noise model).
  void flush();

  const TlbConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  /// Zeroes the counts.
  void reset_stats() { stats_ = Stats{}; }

 private:
  /// One request stream's (read or write) previous lookup since the last
  /// flush: the same-page statistics compare against `vpn`, and when that
  /// lookup hit, a same-page repeat re-validates the entry at `idx` instead
  /// of scanning its set.
  struct Stream {
    bool seen = false;
    std::uint64_t vpn = 0;
    bool hit = false;
    std::size_t idx = 0;
  };

  TlbConfig cfg_;
  LruSets<std::uint64_t> entries_;  ///< payload: the PPN
  Stats stats_;
  Stream read_, write_;
};

}  // namespace gemmini
