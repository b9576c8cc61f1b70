// Virtual-memory substrate tests: page tables, TLB behavior, PTW timing,
// the two-level translation system, and the filter-register optimization.

#include <gtest/gtest.h>

#include "src/mem/memsys.h"
#include "src/vm/page_table.h"
#include "src/vm/ptw.h"
#include "src/vm/tlb.h"
#include "src/vm/translation.h"

namespace gemmini {
namespace {

struct VmFixture : ::testing::Test {
  VmFixture()
      : mem(MemSysConfig{}),
        frames(0x8000'0000ull),
        as(mem.phys(), frames),
        ptw(PtwConfig{}, mem, RequestorId{100}) {}
  MemorySystem mem;
  FrameAllocator frames;
  AddressSpace as;
  PageTableWalker ptw;
};

TEST_F(VmFixture, MapTranslateRoundTrip) {
  as.map_page(0x1'0000'0000ull, 0x9000'0000ull);
  EXPECT_EQ(as.translate(0x1'0000'0123ull), 0x9000'0123ull);
}

TEST_F(VmFixture, AllocMapsWholeRange) {
  const VAddr base = as.alloc(3 * kPageBytes + 100);
  for (VAddr va = base; va < base + 3 * kPageBytes + 100; va += 512) {
    EXPECT_NO_FATAL_FAILURE(as.translate(va));
  }
  EXPECT_GE(as.mapped_pages(), 4u);
}

TEST_F(VmFixture, DistinctAllocationsDistinctFrames) {
  const VAddr a = as.alloc(kPageBytes);
  const VAddr b = as.alloc(kPageBytes);
  EXPECT_NE(page_base(as.translate(a)), page_base(as.translate(b)));
}

TEST_F(VmFixture, VirtReadWriteRoundTrip) {
  const VAddr va = as.alloc(3 * kPageBytes);
  std::vector<std::uint8_t> in(2 * kPageBytes + 77);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = (i * 7) & 0xff;
  as.write_virt(va + 100, in.data(), in.size());  // crosses pages
  std::vector<std::uint8_t> out(in.size());
  as.read_virt(va + 100, out.data(), out.size());
  EXPECT_EQ(in, out);
}

TEST_F(VmFixture, WalkVisitsEachLevelRootFirst) {
  const VAddr va = as.alloc(kPageBytes);
  std::vector<PAddr> ptes;
  const PAddr frame = as.walk(va, [&](unsigned level, PAddr pte) {
    EXPECT_EQ(level, ptes.size());
    ptes.push_back(pte);
  });
  ASSERT_EQ(ptes.size(), kPtLevels);
  // Root-level PTE lives inside the root page.
  EXPECT_EQ(page_base(ptes.front()), as.root());
  // Leaf PTE must decode to the mapped frame.
  const Pte leaf{mem.phys().read_scalar<std::uint64_t>(ptes.back())};
  EXPECT_TRUE(leaf.valid());
  EXPECT_TRUE(leaf.leaf());
  EXPECT_EQ(leaf.target(), frame);
  EXPECT_EQ(frame, page_base(as.translate(va)));
}

TEST_F(VmFixture, PtwProducesCorrectFrameAndTakesTime) {
  const VAddr va = as.alloc(kPageBytes);
  const auto r = ptw.walk(as, va, 1000);
  EXPECT_EQ(r.ppn_base, page_base(as.translate(va)));
  EXPECT_GT(r.done, 1000u);  // three dependent PTE loads
  EXPECT_EQ(ptw.stats().pte_loads, 3u);
}

TEST_F(VmFixture, PtwSerializesConcurrentWalks) {
  const VAddr a = as.alloc(kPageBytes), b = as.alloc(kPageBytes);
  const auto r1 = ptw.walk(as, a, 0);
  const auto r2 = ptw.walk(as, b, 0);  // issued at the same time
  EXPECT_GE(r2.done, r1.done);         // single walker: queued
  EXPECT_GT(ptw.stats().queue_cycles, 0u);
}

TEST(Tlb, HitAfterFill) {
  Tlb tlb(TlbConfig{.entries = 4});
  EXPECT_FALSE(tlb.lookup(7, false).has_value());
  tlb.fill(7, 0x9000);
  const auto hit = tlb.lookup(7, false);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0x9000u);
}

TEST(Tlb, LruEvictionOrder) {
  Tlb tlb(TlbConfig{.entries = 2});
  tlb.fill(1, 0x100);
  tlb.fill(2, 0x200);
  tlb.lookup(1, false);  // touch 1
  tlb.fill(3, 0x300);    // evicts 2
  EXPECT_TRUE(tlb.lookup(1, false).has_value());
  EXPECT_FALSE(tlb.lookup(2, false).has_value());
  EXPECT_TRUE(tlb.lookup(3, false).has_value());
}

TEST(Tlb, SetAssociativeMapsVpnsToSets) {
  // 4 entries, 2 ways => 2 sets; VPNs 0 and 2 share set 0.
  Tlb tlb(TlbConfig{.entries = 4, .ways = 2});
  tlb.fill(0, 0x100);
  tlb.fill(2, 0x200);
  tlb.fill(4, 0x300);  // set 0 again: evicts LRU (vpn 0)
  EXPECT_FALSE(tlb.lookup(0, false).has_value());
  EXPECT_TRUE(tlb.lookup(2, false).has_value());
  EXPECT_TRUE(tlb.lookup(4, false).has_value());
}

TEST(Tlb, FlushEmptiesEverything) {
  Tlb tlb(TlbConfig{.entries = 8});
  for (std::uint64_t v = 0; v < 8; ++v) tlb.fill(v, v << 12);
  tlb.flush();
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_FALSE(tlb.lookup(v, false).has_value());
  }
}

TEST(Tlb, ConsecutiveSamePageTracking) {
  Tlb tlb(TlbConfig{.entries = 8});
  // reads: pages 1,1,1,2 => 2 of 3 consecutive pairs same.
  tlb.lookup(1, false);
  tlb.lookup(1, false);
  tlb.lookup(1, false);
  tlb.lookup(2, false);
  EXPECT_NEAR(tlb.stats().consecutive_same_page_rate(false), 2.0 / 3.0, 1e-9);
  // Writes tracked separately.
  tlb.lookup(5, true);
  tlb.lookup(5, true);
  EXPECT_NEAR(tlb.stats().consecutive_same_page_rate(true), 1.0, 1e-9);
}

struct TranslationFixture : VmFixture {
  TranslationSystem make(unsigned priv_entries, unsigned l2_entries,
                         bool filters) {
    TranslationConfig cfg;
    cfg.private_tlb.entries = priv_entries;
    cfg.l2_tlb.entries = l2_entries;
    cfg.filter_registers = filters;
    return TranslationSystem(cfg, ptw);
  }
};

TEST_F(TranslationFixture, WalkThenTlbHit) {
  auto ts = make(4, 32, false);
  const VAddr va = as.alloc(kPageBytes);
  const auto t1 = ts.translate(as, va, false, 0);
  EXPECT_EQ(t1.level, TranslationLevel::kPageWalk);
  EXPECT_EQ(t1.paddr, as.translate(va));
  const auto t2 = ts.translate(as, va + 8, false, t1.done);
  EXPECT_EQ(t2.level, TranslationLevel::kPrivateTlb);
  EXPECT_EQ(t2.paddr, as.translate(va + 8));
  EXPECT_LT(t2.done - t1.done, t1.done);  // hit far cheaper than walk
}

TEST_F(TranslationFixture, SharedTlbCatchesPrivateEvictions) {
  auto ts = make(/*priv=*/2, /*l2=*/64, false);
  std::vector<VAddr> vas;
  for (int i = 0; i < 8; ++i) vas.push_back(as.alloc(kPageBytes));
  for (const VAddr va : vas) ts.translate(as, va, false, 0);
  // All 8 pages overflowed the 2-entry private TLB but fit in the shared
  // one: re-touching them must hit the shared level, not the walker.
  const std::uint64_t walks_before = ptw.stats().walks;
  for (const VAddr va : vas) {
    const auto t = ts.translate(as, va, false, 100000);
    EXPECT_NE(t.level, TranslationLevel::kPageWalk);
  }
  EXPECT_EQ(ptw.stats().walks, walks_before);
}

TEST_F(TranslationFixture, FilterRegisterZeroLatency) {
  auto ts = make(4, 0, true);
  const VAddr va = as.alloc(kPageBytes);
  ts.translate(as, va, false, 0);
  const auto t = ts.translate(as, va + 64, false, 5000);
  EXPECT_EQ(t.level, TranslationLevel::kFilterRegister);
  EXPECT_EQ(t.done, 5000u);  // zero-cycle hit
  EXPECT_EQ(t.paddr, as.translate(va + 64));
}

TEST_F(TranslationFixture, ReadWriteFiltersIndependent) {
  auto ts = make(4, 0, true);
  const VAddr ra = as.alloc(kPageBytes), wa = as.alloc(kPageBytes);
  ts.translate(as, ra, false, 0);
  ts.translate(as, wa, true, 0);
  // Alternating read/write to the two pages never misses the filters.
  const std::uint64_t misses_before = ts.private_tlb().stats().misses;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(ts.translate(as, ra + i, false, 1000 + i).level,
              TranslationLevel::kFilterRegister);
    EXPECT_EQ(ts.translate(as, wa + i, true, 1000 + i).level,
              TranslationLevel::kFilterRegister);
  }
  EXPECT_EQ(ts.private_tlb().stats().misses, misses_before);
}

TEST_F(TranslationFixture, WithoutFiltersReadsAndWritesContend) {
  // 1-entry private TLB, no L2 TLB: alternating read/write pages evict each
  // other every time — the paper's motivation for the filter registers.
  auto ts = make(1, 0, false);
  const VAddr ra = as.alloc(kPageBytes), wa = as.alloc(kPageBytes);
  ts.translate(as, ra, false, 0);
  const std::uint64_t walks_before = ptw.stats().walks;
  for (int i = 0; i < 8; ++i) {
    ts.translate(as, wa, true, 100 + i);
    ts.translate(as, ra, false, 200 + i);
  }
  EXPECT_EQ(ptw.stats().walks - walks_before, 16u);
}

TEST_F(TranslationFixture, FlushDropsFilterAndTlbs) {
  auto ts = make(4, 32, true);
  const VAddr va = as.alloc(kPageBytes);
  ts.translate(as, va, false, 0);
  ts.flush();
  const auto t = ts.translate(as, va, false, 1000);
  EXPECT_EQ(t.level, TranslationLevel::kPageWalk);
}

TEST_F(TranslationFixture, EffectiveHitRateCountsFilters) {
  auto ts = make(4, 0, true);
  const VAddr va = as.alloc(kPageBytes);
  ts.translate(as, va, false, 0);  // walk
  for (int i = 0; i < 99; ++i) ts.translate(as, va, false, 10 + i);
  EXPECT_NEAR(ts.effective_private_hit_rate(), 0.99, 0.011);
}

// ---- TLB last-page fast path -----------------------------------------------
// A one-entry filter per request stream sits in front of the set scan; it
// must be architecturally invisible (identical hits/misses/LRU) while
// recording its own fastpath_hits counter, and must drop on page crossings,
// evictions, and shootdowns.

TEST(TlbFastPath, SamePageStreakHitsFilter) {
  Tlb tlb(TlbConfig{.entries = 4});
  tlb.fill(10, 0x9000);
  EXPECT_EQ(tlb.lookup(10, false), 0x9000u);  // scan hit, arms the filter
  EXPECT_EQ(tlb.stats().fastpath_hits, 0u);
  EXPECT_EQ(tlb.lookup(10, false), 0x9000u);
  EXPECT_EQ(tlb.lookup(10, false), 0x9000u);
  EXPECT_EQ(tlb.stats().fastpath_hits, 2u);
  EXPECT_EQ(tlb.stats().hits, 3u);  // fast hits are still architectural hits
  EXPECT_EQ(tlb.stats().misses, 0u);
}

TEST(TlbFastPath, PageCrossingInvalidatesFilter) {
  Tlb tlb(TlbConfig{.entries = 4});
  tlb.fill(10, 0x9000);
  tlb.fill(11, 0xa000);
  tlb.lookup(10, false);                      // arms filter on vpn 10
  EXPECT_EQ(tlb.lookup(10, false), 0x9000u);  // fast
  EXPECT_EQ(tlb.stats().fastpath_hits, 1u);
  EXPECT_EQ(tlb.lookup(11, false), 0xa000u);  // page cross: full scan
  EXPECT_EQ(tlb.stats().fastpath_hits, 1u);
  // Filter now tracks vpn 11; returning to 10 scans again.
  EXPECT_EQ(tlb.lookup(10, false), 0x9000u);
  EXPECT_EQ(tlb.stats().fastpath_hits, 1u);
  EXPECT_EQ(tlb.lookup(10, false), 0x9000u);  // fast again
  EXPECT_EQ(tlb.stats().fastpath_hits, 2u);
}

TEST(TlbFastPath, ShootdownClearsFilter) {
  Tlb tlb(TlbConfig{.entries = 4});
  tlb.fill(10, 0x9000);
  tlb.lookup(10, false);
  tlb.lookup(10, false);
  EXPECT_EQ(tlb.stats().fastpath_hits, 1u);
  tlb.flush();
  tlb.fill(10, 0x9000);
  // Post-flush streak must re-scan before the filter re-arms, even though
  // the same vpn is re-installed.
  EXPECT_EQ(tlb.lookup(10, false), 0x9000u);
  EXPECT_EQ(tlb.stats().fastpath_hits, 1u);
  EXPECT_EQ(tlb.lookup(10, false), 0x9000u);
  EXPECT_EQ(tlb.stats().fastpath_hits, 2u);
}

TEST(TlbFastPath, StaleFilterAfterEvictionFallsThrough) {
  Tlb tlb(TlbConfig{.entries = 2});
  tlb.fill(1, 0x1000);
  tlb.lookup(1, false);
  tlb.lookup(1, false);  // filter armed on vpn 1
  tlb.fill(2, 0x2000);
  tlb.lookup(2, false);
  tlb.fill(3, 0x3000);  // evicts vpn 1 (LRU)
  const std::uint64_t fast_before = tlb.stats().fastpath_hits;
  // Filter still remembers vpn 1's slot, but the entry now holds vpn 3: the
  // fast path must re-validate and report an architectural miss.
  EXPECT_FALSE(tlb.lookup(1, false).has_value());
  EXPECT_EQ(tlb.stats().fastpath_hits, fast_before);
}

TEST(TlbFastPath, FastHitsRefreshLru) {
  Tlb tlb(TlbConfig{.entries = 2});
  tlb.fill(1, 0x1000);
  tlb.fill(2, 0x2000);
  tlb.lookup(1, true);   // scan hit: arms the *write* filter on vpn 1
  tlb.lookup(2, false);  // scan hit: vpn 2's stamp now exceeds vpn 1's
  tlb.lookup(1, true);   // fast hit; must restamp vpn 1 above vpn 2
  EXPECT_EQ(tlb.stats().fastpath_hits, 1u);
  // If the fast path failed to refresh LRU, vpn 1 (stale stamp) would be the
  // victim here instead of vpn 2.
  tlb.fill(3, 0x3000);
  EXPECT_TRUE(tlb.lookup(1, false).has_value());
  EXPECT_FALSE(tlb.lookup(2, false).has_value());
}

TEST(TlbFastPath, ReadAndWriteStreamsAreIndependent) {
  Tlb tlb(TlbConfig{.entries = 4});
  tlb.fill(10, 0x9000);
  tlb.fill(20, 0xb000);
  tlb.lookup(10, false);  // arm read filter
  tlb.lookup(20, true);   // arm write filter
  // Interleaved same-page streaks stay fast in both streams.
  EXPECT_EQ(tlb.lookup(10, false), 0x9000u);
  EXPECT_EQ(tlb.lookup(20, true), 0xb000u);
  EXPECT_EQ(tlb.lookup(10, false), 0x9000u);
  EXPECT_EQ(tlb.lookup(20, true), 0xb000u);
  EXPECT_EQ(tlb.stats().fastpath_hits, 4u);
}

TEST_F(TranslationFixture, FastPathKeepsTranslationResultsIdentical) {
  // Stream many translations with and without same-page streaks; results and
  // timing must be a pure function of the request sequence (the fast path
  // only skips the host-side scan).
  auto ts = make(4, 0, false);
  const VAddr base = as.alloc(8 * kPageBytes);
  Cycle t = 0;
  std::vector<PAddr> got;
  for (int rep = 0; rep < 3; ++rep) {
    for (VAddr off : std::initializer_list<VAddr>{0, 64, 128, kPageBytes, kPageBytes + 8,
                      2 * kPageBytes, 2 * kPageBytes + 16}) {
      const auto tr = ts.translate(as, base + off, false, t);
      got.push_back(tr.paddr);
      t = tr.done + 1;
    }
  }
  // Every paddr must agree with the functional page-table walk.
  std::size_t i = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (VAddr off : std::initializer_list<VAddr>{0, 64, 128, kPageBytes, kPageBytes + 8,
                      2 * kPageBytes, 2 * kPageBytes + 16}) {
      EXPECT_EQ(got[i++], as.translate(base + off));
    }
  }
  // And the private TLB's fast path actually engaged on the streaks.
  EXPECT_GT(ts.private_tlb().stats().fastpath_hits, 0u);
}

TEST_F(TranslationFixture, PteWalksBenefitFromL2Cache) {
  auto ts = make(1, 0, false);
  const VAddr a = as.alloc(kPageBytes);
  const VAddr b = a + kPageBytes - kPageBytes;  // same page; force evictions
  (void)b;
  const auto w1 = ts.translate(as, a, false, 0);
  // Evict with another page, then walk `a` again: the PTE lines are now in
  // L2, so the second walk is faster.
  const VAddr other = as.alloc(kPageBytes);
  ts.translate(as, other, false, w1.done);
  const Cycle t0 = 1'000'000;
  const auto w2 = ts.translate(as, a, false, t0);
  EXPECT_EQ(w2.level, TranslationLevel::kPageWalk);
  EXPECT_LT(w2.done - t0, w1.done);
}

}  // namespace
}  // namespace gemmini
