// Memory substrate tests: physical memory, cache replacement/writeback, the
// LRU stack property of every tag store, DRAM row buffers, bus arbitration,
// and the composed memory system.

#include <gtest/gtest.h>

#include <array>

#include "src/base/lru.h"
#include "src/base/rng.h"
#include "src/mem/bus.h"
#include "src/mem/cache.h"
#include "src/mem/dram.h"
#include "src/mem/memsys.h"
#include "src/mem/phys_mem.h"
#include "src/soc/soc.h"
#include "src/vm/tlb.h"

namespace gemmini {
namespace {

TEST(PhysMem, ReadWriteRoundTrip) {
  PhysMem m;
  const std::uint32_t v = 0xdeadbeef;
  m.write_scalar(0x1000, v);
  EXPECT_EQ(m.read_scalar<std::uint32_t>(0x1000), v);
}

TEST(PhysMem, UntouchedReadsZero) {
  PhysMem m;
  EXPECT_EQ(m.read_scalar<std::uint64_t>(0x555000), 0u);
  EXPECT_EQ(m.resident_pages(), 0u);
}

TEST(PhysMem, CrossPageWrite) {
  PhysMem m;
  std::uint8_t buf[8192];
  for (std::size_t i = 0; i < sizeof(buf); ++i) buf[i] = i & 0xff;
  m.write(kPageBytes - 100, buf, sizeof(buf));
  std::uint8_t out[8192];
  m.read(kPageBytes - 100, out, sizeof(out));
  EXPECT_EQ(0, std::memcmp(buf, out, sizeof(buf)));
  EXPECT_EQ(m.resident_pages(), 3u);
}

TEST(FrameAllocator, AllocatesDistinctAlignedFrames) {
  FrameAllocator fa(0x8000'0000ull);
  const PAddr a = fa.alloc_frame();
  const PAddr b = fa.alloc_frame();
  EXPECT_NE(a, b);
  EXPECT_EQ(page_offset(a), 0u);
  EXPECT_EQ(b - a, kPageBytes);
}

TEST(Cache, HitAfterMiss) {
  Cache c(CacheConfig{.size_bytes = 4096, .ways = 2, .line_bytes = 64});
  EXPECT_FALSE(c.access_line(0x100, false).hit);
  EXPECT_TRUE(c.access_line(0x100, false).hit);
  EXPECT_TRUE(c.access_line(0x13f, false).hit);   // same line
  EXPECT_FALSE(c.access_line(0x140, false).hit);  // next line
}

TEST(Cache, LruEviction) {
  // 2-way, line 64, size 128 => 1 set.
  Cache c(CacheConfig{.size_bytes = 128, .ways = 2, .line_bytes = 64});
  c.access_line(0 * 64, false);  // A
  c.access_line(1 * 64, false);  // B
  c.access_line(0 * 64, false);  // touch A (B is now LRU)
  c.access_line(2 * 64, false);  // C evicts B
  EXPECT_TRUE(c.probe(0 * 64));
  EXPECT_FALSE(c.probe(1 * 64));
  EXPECT_TRUE(c.probe(2 * 64));
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  Cache c(CacheConfig{.size_bytes = 128, .ways = 2, .line_bytes = 64});
  c.access_line(0, true);  // dirty A
  c.access_line(64, false);
  const CacheAccess r = c.access_line(128, false);  // evicts dirty A
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_line, 0u);
}

TEST(Cache, WritebackVictimAddressReconstruction) {
  CacheConfig cfg{.size_bytes = 1 << 14, .ways = 4, .line_bytes = 64};
  Cache c(cfg);
  const PAddr victim = 0x4'2940;  // arbitrary line-aligned address
  c.access_line(victim, true);
  // Fill the same set with conflicting lines to force the eviction.
  const std::uint64_t set_stride = 64ull * cfg.num_sets();
  CacheAccess last;
  for (unsigned i = 1; i <= cfg.ways; ++i) {
    last = c.access_line(victim + i * set_stride, false);
  }
  EXPECT_TRUE(last.writeback);
  EXPECT_EQ(last.victim_line, victim & ~63ull);
}

TEST(Cache, MissRateTracksAccesses) {
  Cache c(CacheConfig{.size_bytes = 4096, .ways = 4, .line_bytes = 64});
  for (int i = 0; i < 32; ++i) c.access_line(i * 64, false);
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 1.0);
  for (int i = 0; i < 32; ++i) c.access_line(i * 64, false);
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 0.5);
}

TEST(Cache, FlushInvalidatesEverything) {
  Cache c(CacheConfig{.size_bytes = 4096, .ways = 4, .line_bytes = 64});
  c.access_line(0, true);
  c.flush();
  EXPECT_FALSE(c.probe(0));
}

TEST(Cache, ConfigValidation) {
  CacheConfig bad;
  bad.line_bytes = 48;  // not a power of two
  EXPECT_THROW(bad.validate(), ConfigError);
  CacheConfig bad2;
  bad2.ways = 0;
  EXPECT_THROW(bad2.validate(), ConfigError);
}

// ---- Stack property of true LRU ---------------------------------------------
// Mattson et al. (1970): at equal set count, a true-LRU store with one more
// way holds every key the smaller store holds, after every access, so it
// never misses more on the same key stream. Checked on the bare tag store,
// the L2 and a fully associative TLB over seeded key streams with locality.
// A store that stamps only on install (FIFO) fails it.

/// Keys from [0, universe): half re-touch one of the last eight keys, half
/// are drawn afresh.
class LocalityStream {
 public:
  LocalityStream(std::uint64_t seed, std::uint64_t universe)
      : rng_(seed), universe_(universe) {
    for (auto& k : recent_) k = rng_.next_below(universe_);
  }
  std::uint64_t next() {
    const std::uint64_t key = rng_.next_double() < 0.5
                                  ? recent_[rng_.next_below(recent_.size())]
                                  : rng_.next_below(universe_);
    recent_[pos_++ % recent_.size()] = key;
    return key;
  }

 private:
  Rng rng_;
  std::uint64_t universe_;
  std::array<std::uint64_t, 8> recent_{};
  std::size_t pos_ = 0;
};

/// Drives `small` and `big` with one key stream. `access(store, key)` returns
/// whether it hit; `resident(store, key)` must not change the store.
template <typename Store, typename Access, typename Resident>
void expect_stack_property(Store small, Store big, std::uint64_t universe,
                           std::uint64_t seed, Access access,
                           Resident resident) {
  LocalityStream keys(seed, universe);
  std::uint64_t small_misses = 0, big_misses = 0, violations = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t key = keys.next();
    small_misses += !access(small, key);
    big_misses += !access(big, key);
    for (std::uint64_t k = 0; k < universe; ++k) {
      violations += resident(small, k) && !resident(big, k);
    }
    violations += big_misses > small_misses;
  }
  EXPECT_EQ(violations, 0u) << "universe " << universe << ", seed " << seed;
  EXPECT_GT(small_misses, universe);  // the stream really evicts
}

TEST(LruStackProperty, TagStore) {
  const auto access = [](LruSets<>& s, std::uint64_t key) {
    if (s.find(key) != nullptr) return true;
    s.install(key, {});
    return false;
  };
  const auto resident = [](const LruSets<>& s, std::uint64_t key) {
    return s.contains(key);
  };
  for (unsigned sets : {1u, 4u}) {
    for (unsigned ways = 1; ways <= 6; ++ways) {
      expect_stack_property(LruSets<>(sets, ways), LruSets<>(sets, ways + 1),
                            4 * sets * (ways + 1), 100 * sets + ways, access,
                            resident);
    }
  }
}

TEST(LruStackProperty, Cache) {
  const auto access = [](Cache& c, std::uint64_t line) {
    return c.access_line(line * 64, /*write=*/line % 3 == 0).hit;
  };
  const auto resident = [](const Cache& c, std::uint64_t line) {
    return c.probe(line * 64);
  };
  for (unsigned sets : {1u, 4u}) {
    for (unsigned ways = 1; ways <= 6; ++ways) {
      const auto cache = [&](unsigned w) {
        return Cache(CacheConfig{.size_bytes = 64ull * sets * w, .ways = w,
                                 .line_bytes = 64});
      };
      expect_stack_property(cache(ways), cache(ways + 1),
                            4 * sets * (ways + 1), 200 * sets + ways, access,
                            resident);
    }
  }
}

TEST(LruStackProperty, FullyAssociativeTlb) {
  const auto access = [](Tlb& t, std::uint64_t vpn) {
    if (t.lookup(vpn, /*is_write=*/vpn % 3 == 0)) return true;
    t.fill(vpn, vpn + 1000);
    return false;
  };
  // Tlb has no side-effect-free probe: look up in a copy.
  const auto resident = [](const Tlb& t, std::uint64_t vpn) {
    Tlb copy = t;
    return copy.lookup(vpn, false).has_value();
  };
  for (unsigned entries = 1; entries <= 8; ++entries) {
    expect_stack_property(Tlb(TlbConfig{.entries = entries}),
                          Tlb(TlbConfig{.entries = entries + 1}),
                          4 * (entries + 1), 300 + entries, access, resident);
  }
}

TEST(Bus, SerializesOverlappingTransfers) {
  Bus bus(BusConfig{.width_bytes = 16});
  const Cycle t1 = bus.transfer(0, 64, {0});  // 4 cycles: done at 4
  EXPECT_EQ(t1, 4u);
  const Cycle t2 = bus.transfer(0, 64, {1});  // waits for the bus
  EXPECT_EQ(t2, 8u);
  const Cycle t3 = bus.transfer(100, 16, {0});  // idle bus
  EXPECT_EQ(t3, 101u);
}

TEST(Dram, RowHitFasterThanMiss) {
  DramConfig cfg;
  Dram d(cfg);
  const Cycle first = d.access(0, 64, 0, {0});
  const Cycle second = d.access(64, 64, first, {0}) - first;
  EXPECT_GT(first, second);  // second access hits the open row
  EXPECT_EQ(d.stats().totals().row_hits, 1u);
  EXPECT_EQ(d.stats().totals().row_misses, 1u);
}

TEST(Dram, BankHashSpreadsLargeStrides) {
  DramConfig cfg;
  Dram d(cfg);
  // Streams 1 MB apart must not all collide in one bank (the XOR hash).
  const unsigned b0 = d.bank_of(0);
  const unsigned b1 = d.bank_of(1 << 20);
  const unsigned b2 = d.bank_of(2 << 20);
  EXPECT_FALSE(b0 == b1 && b1 == b2);
}

TEST(Dram, SameBankRowConflictSerializes) {
  DramConfig cfg;
  Dram d(cfg);
  // Find two different rows that genuinely collide under the bank hash.
  std::uint64_t other_row = 0;
  for (std::uint64_t r = 1; r < 4096; ++r) {
    if (d.bank_of(r * cfg.row_bytes) == d.bank_of(0)) {
      other_row = r;
      break;
    }
  }
  ASSERT_NE(other_row, 0u);
  const Cycle same1 = d.access(0, 64, 0, {0});
  const Cycle same2 = d.access(other_row * cfg.row_bytes, 64, 0, {0});
  EXPECT_GT(same2, same1);  // same bank, different row: serialized

  // A row in a *different* bank overlaps its activate latency.
  std::uint64_t other_bank_row = 0;
  for (std::uint64_t r = 1; r < 4096; ++r) {
    if (d.bank_of(r * cfg.row_bytes) != d.bank_of(0)) {
      other_bank_row = r;
      break;
    }
  }
  Dram d2(cfg);
  d2.access(0, 64, 0, {0});
  const Cycle other_bank =
      d2.access(other_bank_row * cfg.row_bytes, 64, 0, {0});
  EXPECT_LT(other_bank, same2);
}

TEST(Dram, OpenRowStreamsAtBurstRate) {
  DramConfig cfg;
  Dram d(cfg);
  // After the first (miss) access, sequential lines in the same row stream
  // at roughly the channel burst rate, not one full CAS per line.
  const Cycle first = d.access(0, 64, 0, {0});
  // The second access refills the command pipeline (one CAS latency); all
  // later ones stream at burst rate.
  Cycle prev = d.access(64, 64, 0, {0});
  EXPECT_GT(prev, first);
  for (int i = 2; i <= 8; ++i) {
    const Cycle done = d.access(i * 64ull, 64, 0, {0});
    EXPECT_LE(done - prev, 8u);  // ~4-cycle bursts
    prev = done;
  }
}

TEST(DramConfigValidation, RejectsZeroChannels) {
  DramConfig bad;
  bad.channels = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
}

TEST(DramConfigValidation, RejectsNonPowerOfTwoRows) {
  DramConfig bad;
  bad.row_bytes = 3000;
  EXPECT_THROW(bad.validate(), ConfigError);
  DramConfig bad2;
  bad2.interleave_bytes = 48;
  EXPECT_THROW(bad2.validate(), ConfigError);
}

TEST(DramConfigValidation, RejectsRefreshIntervalShorterThanLatency) {
  DramConfig bad;
  bad.refresh_interval = 50;
  bad.refresh_latency = 80;
  EXPECT_THROW(bad.validate(), ConfigError);
  // A refresh latency with no interval is equally meaningless.
  DramConfig orphan;
  orphan.refresh_latency = 10;
  EXPECT_THROW(orphan.validate(), ConfigError);
}

TEST(DramConfigValidation, RejectsDrainFloorAtOrAboveDepth) {
  DramConfig bad;
  bad.write_queue_depth = 4;
  bad.write_drain_floor = 4;
  EXPECT_THROW(bad.validate(), ConfigError);
  // A drain floor with no write queue would silently degrade to
  // write-through; reject the half-configured queue instead.
  DramConfig orphan;
  orphan.write_drain_floor = 4;
  EXPECT_THROW(orphan.validate(), ConfigError);
}

TEST(DramConfigValidation, AcceptsFullControllerConfig) {
  DramConfig ok;
  ok.channels = 4;
  ok.scheduler = DramScheduler::kFrFcfs;
  ok.interleave = DramInterleave::kXorFold;
  ok.refresh_interval = 7800;
  ok.refresh_latency = 280;
  ok.write_queue_depth = 16;
  ok.write_drain_floor = 4;
  EXPECT_NO_THROW(ok.validate());
}

TEST(DramConfigValidation, SocConfigValidateCoversTheDramSection) {
  // The DRAM knobs must fail at SocConfig::validate (and therefore at
  // sim::Session::build) rather than deep inside SoC elaboration.
  SocConfig cfg;
  cfg.mem.dram.channels = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  SocConfig cfg2;
  cfg2.mem.dram.refresh_interval = 10;
  cfg2.mem.dram.refresh_latency = 20;
  EXPECT_THROW(cfg2.validate(), ConfigError);
}

TEST(Dram, RefreshStallsIssuesAndClosesRows) {
  DramConfig cfg;
  cfg.refresh_interval = 1000;
  cfg.refresh_latency = 200;
  Dram d(cfg);
  // t=0 lands inside the first refresh window: the issue stalls to 200.
  const Cycle first = d.access(0, 64, 0, {0});
  EXPECT_GE(first, 200 + cfg.row_miss_latency);
  EXPECT_GT(d.stats().totals().refresh_stall_cycles, 0u);
  EXPECT_EQ(d.stats().totals().refresh_periods, 1u);
  // Same row, same refresh period: still open, row hit.
  d.access(64, 64, first, {0});
  EXPECT_EQ(d.stats().totals().row_hits, 1u);
  // Next period: the all-bank refresh closed the row, so the same row
  // misses again.
  d.access(128, 64, 1500, {0});
  EXPECT_EQ(d.stats().totals().row_misses, 2u);
  EXPECT_EQ(d.stats().totals().refresh_periods, 2u);  // each counted once
}

TEST(Dram, ChannelInterleaveSpreadsALineStream) {
  DramConfig cfg;
  cfg.channels = 2;
  cfg.interleave = DramInterleave::kCacheline;
  Dram d(cfg);
  for (int i = 0; i < 16; ++i) {
    d.access(static_cast<PAddr>(i) * 64, 64, static_cast<Cycle>(i) * 10, {0});
  }
  ASSERT_EQ(d.stats().channels.size(), 2u);
  EXPECT_EQ(d.stats().channels[0].accesses, 8u);
  EXPECT_EQ(d.stats().channels[1].accesses, 8u);
  // Per-requestor channel split sums back to the requestor total.
  const Dram::RequestorStats& rs = d.stats().requestors.front();
  EXPECT_EQ(rs.channel_bytes.at(0) + rs.channel_bytes.at(1), rs.bytes);
}

TEST(Dram, TwoChannelsFinishAStreamNoLaterThanOne) {
  auto last_completion = [](unsigned channels) {
    DramConfig cfg;
    cfg.channels = channels;
    cfg.interleave = DramInterleave::kCacheline;
    Dram d(cfg);
    Cycle last = 0;
    // A back-to-back line stream: bandwidth-bound on one channel.
    for (int i = 0; i < 64; ++i) {
      last = std::max(last, d.access(static_cast<PAddr>(i) * 64, 64, 0, {0}));
    }
    return last;
  };
  EXPECT_LE(last_completion(2), last_completion(1));
}

TEST(Dram, FrFcfsReadBypassesBufferedRowMissWrites) {
  DramConfig base;
  base.write_queue_depth = 8;
  base.write_drain_floor = 0;
  // A row that genuinely collides with row 0's bank under the bank hash.
  Dram probe(base);
  std::uint64_t other_row = 0;
  for (std::uint64_t r = 1; r < 4096; ++r) {
    if (probe.bank_of(r * base.row_bytes) == probe.bank_of(0)) {
      other_row = r;
      break;
    }
  }
  ASSERT_NE(other_row, 0u);

  auto read_completion = [&](DramScheduler sched) {
    DramConfig cfg = base;
    cfg.scheduler = sched;
    Dram d(cfg);
    d.access(0, 64, 0, {0});  // opens row 0
    // A row-conflicting writeback sits buffered in front of the read.
    d.write(other_row * cfg.row_bytes, 64, 90, {0});
    return d.access(64, 64, 100, {0});  // row-0 hit candidate
  };
  const Cycle fcfs = read_completion(DramScheduler::kFcfs);
  const Cycle frfcfs = read_completion(DramScheduler::kFrFcfs);
  // FCFS services the older row-miss write first; FR-FCFS lets the row-hit
  // read bypass it.
  EXPECT_LT(frfcfs, fcfs);
}

TEST(Dram, WriteQueueForceDrainsAtDepth) {
  DramConfig cfg;
  cfg.write_queue_depth = 4;
  cfg.write_drain_floor = 1;
  Dram d(cfg);
  for (int i = 0; i < 3; ++i) {
    d.write(static_cast<PAddr>(i) * 4096, 64, static_cast<Cycle>(i), {0});
  }
  EXPECT_EQ(d.pending_writes(), 3u);
  EXPECT_EQ(d.stats().totals().accesses, 0u);  // nothing issued yet
  d.write(3 * 4096, 64, 3, {0});  // hits the depth: drain to 1
  EXPECT_EQ(d.pending_writes(), 1u);
  EXPECT_EQ(d.stats().totals().write_drains, 1u);
  EXPECT_EQ(d.stats().totals().writes_buffered, 4u);
  EXPECT_EQ(d.stats().totals().accesses, 3u);
  d.drain_writes();
  EXPECT_EQ(d.pending_writes(), 0u);
  EXPECT_EQ(d.stats().totals().accesses, 4u);
  EXPECT_EQ(d.stats().totals().writes, 4u);
}

TEST(Dram, ResetTimeClearsQueuesResetStatsClearsCounts) {
  DramConfig cfg;
  cfg.channels = 2;
  cfg.write_queue_depth = 8;
  cfg.write_drain_floor = 2;
  Dram d(cfg);
  d.access(0, 64, 0, {0});
  d.write(4096, 64, 10, {1});
  EXPECT_EQ(d.pending_writes(), 1u);
  d.reset_time();
  EXPECT_EQ(d.pending_writes(), 0u);
  EXPECT_EQ(d.stats().totals().accesses, 1u);  // timing reset keeps counts
  d.reset_stats();
  EXPECT_TRUE(d.stats().requestors.empty());
  ASSERT_EQ(d.stats().channels.size(), 2u);
  for (unsigned c = 0; c < 2; ++c) {
    const Dram::ChannelStats& cs = d.stats().channels[c];
    EXPECT_EQ(cs.channel, c);
    EXPECT_EQ(cs.accesses, 0u);
    EXPECT_EQ(cs.writes_buffered, 0u);
  }
}

TEST(MemSys, HitLatencyLowerThanMiss) {
  MemorySystem m(MemSysConfig{});
  const Cycle miss = m.access(0x1000, 64, false, 0, {0});
  m.reset_time();
  const Cycle hit = m.access(0x1000, 64, false, 0, {0});
  EXPECT_LT(hit, miss);
  EXPECT_EQ(m.l2().stats().hits, 1u);
}

TEST(MemSys, LargeAccessSplitsIntoLines) {
  MemorySystem m(MemSysConfig{});
  m.access(0, 1024, false, 0, {0});
  EXPECT_EQ(m.l2().stats().misses, 1024u / m.config().l2.line_bytes);
}

TEST(MemSys, WritebackTrafficReachesDram) {
  MemSysConfig cfg;
  cfg.l2.size_bytes = 4096;  // tiny L2 to force evictions
  cfg.l2.ways = 2;
  MemorySystem m(cfg);
  for (PAddr a = 0; a < 64 * 1024; a += 64) {
    m.access(a, 64, true, a, {0});
  }
  // Re-stream: every line dirty-evicted must have produced a writeback.
  EXPECT_GT(m.l2().stats().writebacks, 0u);
}

TEST(MemSys, SharedRequestorsContend) {
  MemorySystem m(MemSysConfig{});
  // Two requestors issuing at the same instant: the second completes later.
  const Cycle a = m.access(0x0000, 64, false, 0, {0});
  const Cycle b = m.access(0x8000, 64, false, 0, {1});
  EXPECT_GT(b, a);
}

}  // namespace
}  // namespace gemmini
