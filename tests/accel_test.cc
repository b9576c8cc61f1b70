// Accelerator component tests: DMA data movement, accumulator semantics,
// hazard-driven overlap, scratchpad banking, peripherals, reporting.

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/cpu/kernels.h"
#include "src/runtime/kernels_accel.h"
#include "src/trace/trace.h"
#include "tests/test_util.h"

namespace gemmini {
namespace {

using test::AccelHarness;

TEST(Dma, MvinMvoutRoundTrip) {
  AccelHarness h;
  Rng rng(1);
  TensorI8 t({16, 16});
  t.randomize(rng);
  const VAddr src = h.upload(t);
  const VAddr dst = h.as.alloc(16 * 16 + 4096);

  Program prog{make_config_ld(16, 1.0f, 0), make_config_st(16),
               make_mvin(src, LocalAddr::sp_row(0), 16, 16),
               make_mvout(dst, LocalAddr::sp_row(0), 16, 16), make_fence()};
  h.accel.run(prog, h.as);
  EXPECT_EQ((h.download<std::int8_t>(dst, {16, 16})), t);
}

TEST(Dma, MvinScaleAppliesOnLoad) {
  AccelHarness h;
  TensorI8 t({1, 4});
  t[0] = 100; t[1] = -50; t[2] = 3; t[3] = -128;
  const VAddr src = h.upload(t);
  const VAddr dst = h.as.alloc(4096);
  Program prog{make_config_ld(4, 0.5f, 0), make_config_st(4),
               make_mvin(src, LocalAddr::sp_row(0), 1, 4),
               make_mvout(dst, LocalAddr::sp_row(0), 1, 4), make_fence()};
  h.accel.run(prog, h.as);
  const TensorI8 got = h.download<std::int8_t>(dst, {1, 4});
  EXPECT_EQ(got[0], 50);
  EXPECT_EQ(got[1], -25);
  EXPECT_EQ(got[2], 2);    // 1.5 rounds to even? nearbyint(1.5) = 2
  EXPECT_EQ(got[3], -64);
}

TEST(Dma, StridedMvinGathersRows) {
  AccelHarness h;
  // A 4x8 matrix; load a 4x4 sub-block with row stride 8.
  TensorI8 t({4, 8});
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<std::int8_t>(i);
  const VAddr src = h.upload(t);
  const VAddr dst = h.as.alloc(4096);
  Program prog{make_config_ld(8, 1.0f, 0), make_config_st(4),
               make_mvin(src + 2, LocalAddr::sp_row(0), 4, 4),
               make_mvout(dst, LocalAddr::sp_row(0), 4, 4), make_fence()};
  h.accel.run(prog, h.as);
  const TensorI8 got = h.download<std::int8_t>(dst, {4, 4});
  for (unsigned r = 0; r < 4; ++r) {
    for (unsigned c = 0; c < 4; ++c) {
      EXPECT_EQ(got.at(r, c), t.at(r, c + 2));
    }
  }
}

TEST(Dma, PageCrossingRoundTrips) {
  // Functional copies follow each chunk's timed translation; transfers that
  // cross a page must still land every byte where read_virt finds it.
  AccelHarness h;
  constexpr unsigned kRows = 16, kCols = 16;
  const std::uint64_t row_bytes = kCols;
  const VAddr src = h.as.alloc(3 * kPageBytes);
  const VAddr dst = h.as.alloc(3 * kPageBytes);
  std::vector<std::uint8_t> pattern(3 * kPageBytes);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  h.as.write_virt(src, pattern.data(), pattern.size());
  const std::vector<std::uint8_t> untouched(3 * kPageBytes, 0xA5);

  // Each case moves kRows rows with DRAM stride `stride` from `src + from`
  // to `dst + to`, through local memory `local`.
  const auto round_trip = [&](std::uint64_t stride, std::uint64_t from,
                              std::uint64_t to, LocalAddr local) {
    h.as.write_virt(dst, untouched.data(), untouched.size());
    const Program prog{
        make_config_ex(Dataflow::kWeightStationary, Activation::kNone, 0),
        make_config_ld(stride, 1.0f, 0), make_config_st(stride),
        make_mvin(src + from, local, kRows, kCols),
        make_mvout(dst + to, local, kRows, kCols), make_fence()};
    h.accel.run(prog, h.as);
    std::vector<std::uint8_t> got(3 * kPageBytes);
    h.as.read_virt(dst, got.data(), got.size());
    for (std::uint64_t i = 0; i < got.size(); ++i) {
      std::uint8_t want = 0xA5;
      if (i >= to && (i - to) / stride < kRows &&
          (i - to) % stride < row_bytes) {
        want = pattern[from + (i - to) / stride * stride + (i - to) % stride];
      }
      ASSERT_EQ(got[i], want) << "stride " << stride << " byte " << i;
    }
  };

  // One contiguous burst starting mid-line, 100 bytes before a page end.
  round_trip(row_bytes, kPageBytes - 100, kPageBytes - 100,
             LocalAddr::sp_row(0));
  // Strided rows: the 6th row straddles the page boundary on both sides.
  round_trip(40, kPageBytes - 5 * 40 - 7, kPageBytes - 5 * 40 - 9,
             LocalAddr::sp_row(0));
  // Accumulator source: the read-out pipeline's rows cross a page on MVOUT.
  round_trip(row_bytes, 2 * kPageBytes - 64 - 3, kPageBytes - 37,
             LocalAddr::acc_row(0, false));
}

TEST(Accumulator, AccumulateBitAddsMvins) {
  AccelHarness h;
  TensorI8 a({1, 16}), b({1, 16});
  Rng rng(3);
  a.randomize(rng);
  b.randomize(rng);
  const VAddr va = h.upload(a), vb = h.upload(b);
  const VAddr out = h.as.alloc(4096);
  Program prog{make_config_ex(Dataflow::kWeightStationary, Activation::kNone,
                              0),
               make_config_ld(16, 1.0f, 0), make_config_st(16),
               make_mvin(va, LocalAddr::acc_row(0, false), 1, 16),
               make_mvin(vb, LocalAddr::acc_row(0, true), 1, 16),
               make_mvout(out, LocalAddr::acc_row(0, false), 1, 16),
               make_fence()};
  h.accel.run(prog, h.as);
  const TensorI8 got = h.download<std::int8_t>(out, {1, 16});
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(got[i], saturate_i8(static_cast<std::int32_t>(a[i]) + b[i]));
  }
}

TEST(Accumulator, ReadoutShiftAndRelu) {
  AccelHarness h;
  TensorI8 a({1, 4});
  a[0] = 100; a[1] = -100; a[2] = 31; a[3] = -31;
  const VAddr va = h.upload(a);
  const VAddr out = h.as.alloc(4096);
  Program prog{make_config_ex(Dataflow::kWeightStationary, Activation::kRelu,
                              2),
               make_config_ld(4, 1.0f, 0), make_config_st(4),
               make_mvin(va, LocalAddr::acc_row(0, false), 1, 4),
               make_mvout(out, LocalAddr::acc_row(0, false), 1, 4),
               make_fence()};
  h.accel.run(prog, h.as);
  const TensorI8 got = h.download<std::int8_t>(out, {1, 4});
  EXPECT_EQ(got[0], 25);
  EXPECT_EQ(got[1], 0);   // ReLU before shift
  EXPECT_EQ(got[2], 8);   // 7.75 -> 8
  EXPECT_EQ(got[3], 0);
}

TEST(Resadd, MatchesReferenceIncludingSaturation) {
  AccelHarness h;
  Rng rng(4);
  const std::uint64_t elems = 1000;
  TensorI8 a({elems}), b({elems}), expect({elems});
  a.randomize(rng);
  b.randomize(rng);
  ref::resadd_i8(a, b, expect, Activation::kRelu);
  const VAddr va = h.upload(a), vb = h.upload(b);
  const VAddr out = h.as.alloc(elems + 4096);
  const Program prog =
      emit_resadd(h.config, va, vb, out, elems, Activation::kRelu);
  h.accel.run(prog, h.as);
  const TensorI8 got = h.download<std::int8_t>(out, {elems});
  for (std::uint64_t i = 0; i < elems; ++i) {
    ASSERT_EQ(got[i], expect[i]) << "i=" << i;
  }
}

TEST(Controller, LoadComputeStoreOverlap) {
  // Two independent (mvin, compute, mvout) chains on disjoint rows must
  // overlap: total time well under 2x one chain.
  AccelHarness h;
  h.accel.set_functional(false);
  const VAddr a = h.as.alloc(1 << 20);
  auto chain = [&](std::uint32_t sp_base, std::uint32_t acc_base,
                   VAddr va) -> Program {
    return {make_mvin(va, LocalAddr::sp_row(sp_base), 16, 16),
            make_preload(LocalAddr::sp_row(sp_base),
                         LocalAddr::acc_row(acc_base, false), 16, 16, 16, 16),
            make_compute(LocalAddr::sp_row(sp_base), LocalAddr::garbage(), 16,
                         16, 0, 0, true),
            make_mvout(va + (1 << 18), LocalAddr::acc_row(acc_base, false), 16,
                       16)};
  };
  Program one = chain(0, 0, a);
  one.insert(one.begin(), make_config_ld(16, 1.0f, 0));
  one.insert(one.begin() + 1, make_config_st(16));
  const Cycle t_one = h.accel.run(one, h.as);

  AccelHarness h2;
  h2.accel.set_functional(false);
  const VAddr a2 = h2.as.alloc(1 << 20);
  Program two{make_config_ld(16, 1.0f, 0), make_config_st(16)};
  // Use a *different* bank for the second chain so DMA and EX don't fight.
  const std::uint32_t other_bank =
      static_cast<std::uint32_t>(h2.config.sp_bank_rows());
  Program c1 = chain(0, 0, a2);
  Program c2 = chain(other_bank, 16, a2 + (1 << 16));
  two.insert(two.end(), c1.begin(), c1.end());
  two.insert(two.end(), c2.begin(), c2.end());
  const Cycle t_two = h2.accel.run(two, h2.as);
  EXPECT_LT(t_two, 2 * t_one);
}

TEST(Controller, HazardsSerializeDependentOps) {
  // compute reading rows written by mvin must start after the mvin ends.
  AccelHarness h;
  h.accel.set_functional(false);
  const VAddr a = h.as.alloc(1 << 16);
  Program prog{make_config_ld(16, 1.0f, 0),
               make_mvin(a, LocalAddr::sp_row(0), 16, 16),
               make_preload(LocalAddr::sp_row(0), LocalAddr::acc_row(0, false),
                            16, 16, 16, 16)};
  h.accel.run(prog, h.as);
  const auto& rep = h.accel.report();
  // The preload could not have started before the mvin finished; the
  // frontier reflects the serialized chain.
  EXPECT_GE(rep.finish, rep.load_busy);
}

TEST(Controller, FenceDrainsAllPipes) {
  AccelHarness h;
  h.accel.set_functional(false);
  const VAddr a = h.as.alloc(1 << 16);
  Program prog{make_config_ld(16, 1.0f, 0),
               make_mvin(a, LocalAddr::sp_row(0), 16, 16), make_fence(),
               make_mvin(a + 4096, LocalAddr::sp_row(256), 16, 16)};
  const Cycle end = h.accel.run(prog, h.as);
  EXPECT_GT(end, 0u);
}

TEST(Controller, FlushClearsTlbState) {
  AccelHarness h;
  h.accel.set_functional(false);
  const VAddr a = h.as.alloc(1 << 16);
  Program prog{make_config_ld(16, 1.0f, 0),
               make_mvin(a, LocalAddr::sp_row(0), 16, 16)};
  h.accel.run(prog, h.as);
  const std::uint64_t misses1 =
      h.accel.translation().private_tlb().stats().misses;
  Program prog2{make_flush(),
                make_mvin(a, LocalAddr::sp_row(16), 16, 16)};
  h.accel.run(prog2, h.as);
  EXPECT_GT(h.accel.translation().private_tlb().stats().misses, misses1);
}

/// One traced event, as EveryIssueTimePinned pins it.
struct Span {
  trace::EventKind kind;
  Cycle begin, end;
  std::uint64_t arg;
  friend bool operator==(const Span&, const Span&) = default;
};

TEST(Controller, EveryIssueTimePinned) {
  // Instruction-level timing of one hand-built program: every traced span
  // (instruction, DMA burst, translation) and the whole report are pinned,
  // so a refactor of the issue path that moves any issue time, busy count
  // or event order fails here first. The program covers each unit entry
  // point and a RAW, WAR and WAW case on each memory.
  GemminiConfig cfg = GemminiConfig::paper_default();
  MemorySystem mem{MemSysConfig{}};
  FrameAllocator frames(0x8000'0000ull);
  AddressSpace as(mem.phys(), frames);
  PageTableWalker ptw(cfg.translation.ptw, mem, RequestorId{100});
  trace::Tracer tracer(1 << 12);
  Accelerator accel(cfg, mem, ptw, RequestorId{0}, Observers{&tracer});
  const VAddr in = as.alloc(1 << 14);
  const VAddr out = as.alloc(1 << 12);

  // Each hazard case below is the constraint that sets its instruction's
  // start; the pinned spans show it (e.g. the WAR MVIN starts exactly when
  // the PRELOAD reading its rows ends).
  const auto acc = [](std::uint32_t row, bool accumulate = false) {
    return LocalAddr::acc_row(row, accumulate);
  };
  const auto sp = LocalAddr::sp_row;
  const Program prog{
      make_config_ex(Dataflow::kWeightStationary, Activation::kNone, 0),
      make_config_ld(16, 1.0f, 0), make_config_ld(64, 1.0f, 1),
      make_config_st(16),
      make_mvin(in, sp(0), 16, 16),                 // contiguous
      make_mvin(in + 4096, sp(16), 8, 16, 1),       // strided
      make_mvin(in + 8192, acc(16, true), 16, 16),  // accumulate
      make_preload(sp(16), acc(0), 8, 16, 16, 16),  // real B; RAW sp
      make_mvin(in + 12288, sp(16), 8, 16),         // WAR sp on that B
      // D from the accumulator: RAW acc on the accumulate MVIN.
      make_compute(sp(0), acc(16), 16, 8, 16, 16, true),
      make_mvin(in + 8192, acc(8, true), 8, 16),  // WAW acc on the tile's C
      make_mvout(out, acc(0), 8, 16),             // RAW acc on the tile's C
      make_mvin(in + 8192, acc(0, true), 8, 16),  // WAR acc on that MVOUT
      make_mvin(in + 12288, sp(32), 16, 16),
      // Garbage B keeps the latched tile.
      make_preload(LocalAddr::garbage(), sp(32), 16, 16, 16, 16),
      // Garbage A, D from the scratchpad; WAW sp on the MVIN to C's rows.
      make_compute(LocalAddr::garbage(), sp(16), 16, 16, 8, 16, false),
      make_mvout(out + 2048, sp(32), 16, 16),  // RAW sp on the tile's C
      make_fence(),
      make_preload(sp(0), LocalAddr::garbage(), 16, 16, 16, 16),
      make_compute(sp(0), LocalAddr::garbage(), 16, 16, 0, 0,
                   true),  // garbage C
  };
  accel.run(prog, as);

  std::vector<Span> got;
  for (const trace::TraceEvent& e : tracer.snapshot()) {
    got.push_back({e.kind, e.begin, e.end, e.arg});
  }
  using enum trace::EventKind;
  const std::vector<Span> want{
      {kPtwWalk, 18, 347, 0},
      {kTlbMiss, 0, 347, 0},
      {kDmaBurstRead, 0, 497, 256},
      {kMvin, 0, 498, 256},
      {kPtwWalk, 369, 394, 0},
      {kTlbMiss, 351, 394, 0},
      {kDmaBurstRead, 351, 503, 16},
      {kDmaBurstRead, 395, 533, 16},
      {kDmaBurstRead, 396, 537, 16},
      {kDmaBurstRead, 397, 541, 16},
      {kDmaBurstRead, 398, 545, 16},
      {kDmaBurstRead, 399, 549, 16},
      {kDmaBurstRead, 400, 553, 16},
      {kDmaBurstRead, 401, 557, 16},
      {kMvin, 351, 558, 128},
      {kPtwWalk, 420, 445, 0},
      {kTlbMiss, 402, 445, 0},
      {kDmaBurstRead, 402, 595, 256},
      {kMvin, 402, 596, 256},
      {kPreload, 558, 566, 0},
      {kPtwWalk, 584, 609, 0},
      {kTlbMiss, 566, 609, 0},
      {kDmaBurstRead, 566, 751, 128},
      {kMvin, 566, 752, 128},
      {kTile, 596, 801, 2048},
      {kDmaBurstRead, 801, 833, 128},
      {kMvin, 801, 834, 128},
      {kPtwWalk, 853, 878, 0},
      {kTlbMiss, 835, 878, 0},
      {kDmaBurstWrite, 835, 1020, 128},
      {kMvout, 801, 1020, 128},
      {kDmaBurstRead, 880, 915, 128},
      {kMvin, 880, 916, 128},
      {kDmaBurstRead, 882, 1028, 256},
      {kMvin, 882, 1029, 256},
      {kPreload, 801, 817, 0},
      {kTile, 886, 1030, 4096},
      {kDmaBurstWrite, 1031, 1185, 256},
      {kMvout, 1030, 1185, 256},
      {kPreload, 1185, 1201, 0},
      {kTile, 1201, 1250, 4096},
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i])
        << "span " << i << ": " << trace::event_kind_name(got[i].kind) << " ["
        << got[i].begin << ", " << got[i].end << "] arg " << got[i].arg;
  }
  const AccelReport want_report{.finish = 1250,
                                .instructions = 15,
                                .macs = 10240,
                                .tiles = 3,
                                .load_busy = 502,
                                .exec_busy = 438,
                                .store_busy = 95};
  EXPECT_EQ(accel.report(), want_report);
}

TEST(Report, MacsAndUtilizationTracked) {
  AccelHarness h;
  h.accel.set_functional(false);
  const VAddr a = h.as.alloc(1 << 16);
  Program prog{make_config_ld(16, 1.0f, 0),
               make_mvin(a, LocalAddr::sp_row(0), 16, 16),
               make_preload(LocalAddr::sp_row(0), LocalAddr::acc_row(0, false),
                            16, 16, 16, 16),
               make_compute(LocalAddr::sp_row(0), LocalAddr::garbage(), 16, 16,
                            0, 0, true),
               make_fence()};
  h.accel.run(prog, h.as);
  EXPECT_EQ(h.accel.report().macs, 16u * 16 * 16);
  EXPECT_GT(h.accel.report().exec_busy, 0u);
  EXPECT_GT(h.accel.report().utilization(h.config, h.accel.frontier()), 0.0);
}

TEST(Scratchpad, BankConflictsDelaySecondAccess) {
  GemminiConfig cfg = GemminiConfig::paper_default();
  Scratchpad sp(cfg);
  const Cycle t1 = sp.reserve(0, 16, 0, 16);
  EXPECT_EQ(t1, 16u);
  // Same bank: serialized.
  const Cycle t2 = sp.reserve(0, 16, 0, 16);
  EXPECT_EQ(t2, 32u);
  // Different bank: parallel.
  const Cycle t3 = sp.reserve(cfg.sp_bank_rows(), 16, 0, 16);
  EXPECT_EQ(t3, 16u);
  EXPECT_GT(sp.stats().bank_conflict_cycles, 0u);
}

TEST(Scratchpad, OutOfRangeAborts) {
  GemminiConfig cfg = GemminiConfig::paper_default();
  Scratchpad sp(cfg);
  EXPECT_DEATH(sp.reserve(cfg.sp_rows(), 1, 0, 1), "");
}

TEST(Peripherals, ScalarMulStreamsAndScales) {
  AccelHarness h;
  TensorI8 t({64});
  for (std::size_t i = 0; i < 64; ++i) t[i] = static_cast<std::int8_t>(i - 32);
  const VAddr in = h.upload(t);
  const VAddr out = h.as.alloc(4096);
  const Program prog = emit_scalar_mul(h.config, in, out, 64, 2.0f);
  h.accel.run(prog, h.as);
  const TensorI8 got = h.download<std::int8_t>(out, {64});
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(got[i], saturate_i8(2 * static_cast<std::int32_t>(t[i])));
  }
}

TEST(Peripherals, PoolingRequiresEngine) {
  GemminiConfig cfg = GemminiConfig::paper_default();
  cfg.has_pooling = false;
  EXPECT_THROW(emit_pool(cfg, 0x1000, 0x2000, 1024, 256, 2, 2), RuntimeError);
}

TEST(Peripherals, TransposeRequiresTransposer) {
  GemminiConfig cfg = GemminiConfig::paper_default();
  cfg.has_transposer = false;
  test::AccelHarness h(cfg);
  h.accel.set_functional(false);
  Program prog{
      make_config_ex(Dataflow::kWeightStationary, Activation::kNone, 0,
                     /*a_transpose=*/true),
      make_preload(LocalAddr::garbage(), LocalAddr::acc_row(0, false), 0, 0,
                   16, 16),
      make_compute(LocalAddr::sp_row(0), LocalAddr::garbage(), 16, 16, 0, 0,
                   true)};
  EXPECT_DEATH(h.accel.run(prog, h.as), "transposer");
}

}  // namespace
}  // namespace gemmini
