// DMA and controller timing-model tests: pipelining, coalescing, blocking
// TLB misses, in-flight windows, and the spatial-array latency model.

#include <gtest/gtest.h>

#include "src/arch/spatial_array.h"
#include "tests/test_util.h"

namespace gemmini {
namespace {

using test::AccelHarness;

Cycle time_mvins(AccelHarness& h, unsigned count, std::uint64_t stride,
                 unsigned rows = 16, unsigned cols = 16) {
  const VAddr base = h.as.alloc(16 << 20);
  Program prog{make_config_ld(stride, 1.0f, 0)};
  for (unsigned i = 0; i < count; ++i) {
    prog.push_back(make_mvin(base + i * rows * stride,
                             LocalAddr::sp_row((i * rows) % 8192), rows,
                             cols));
  }
  prog.push_back(make_fence());
  h.accel.set_functional(false);
  return h.accel.run(prog, h.as);
}

TEST(DmaTiming, ContiguousStreamsApproachBusBandwidth) {
  AccelHarness h;
  // 512 x 16-row contiguous mvins = 128 KB. Bus is 16 B/cycle => >= 8192
  // cycles; the warm stream should land within ~2.5x of that.
  const Cycle t = time_mvins(h, 512, /*stride=*/16);
  EXPECT_GE(t, 8192u);
  EXPECT_LT(t, 21000u);
}

TEST(DmaTiming, StridedCostsMoreThanContiguous) {
  AccelHarness h1, h2;
  const Cycle contiguous = time_mvins(h1, 256, 16);
  const Cycle strided = time_mvins(h2, 256, 4096);  // one row per page!
  EXPECT_GT(strided, contiguous);
}

TEST(DmaTiming, MoreInflightSlotsNeverSlower) {
  GemminiConfig small_cfg = GemminiConfig::paper_default();
  small_cfg.dma_max_inflight = 2;
  GemminiConfig big_cfg = GemminiConfig::paper_default();
  big_cfg.dma_max_inflight = 128;
  AccelHarness hs(small_cfg), hb(big_cfg);
  const Cycle slow = time_mvins(hs, 128, 64, 16, 16);
  const Cycle fast = time_mvins(hb, 128, 64, 16, 16);
  EXPECT_LE(fast, slow);
  EXPECT_LT(fast, slow * 9 / 10);  // and meaningfully so
}

TEST(DmaTiming, TlbMissesAreBlocking) {
  // One page per row with a big TLB: the first pass walks every page, a
  // second pass over the *same* addresses hits the warm TLB and runs
  // substantially faster — the miss cost is real, blocking time.
  GemminiConfig big_tlb = GemminiConfig::paper_default();
  big_tlb.translation.private_tlb.entries = 512;
  big_tlb.translation.l2_tlb.entries = 0;
  big_tlb.translation.ptw.pte_cache_entries = 0;  // make walks expensive
  AccelHarness h(big_tlb);
  h.accel.set_functional(false);
  const VAddr base = h.as.alloc(16 << 20);
  Program prog{make_config_ld(4096, 1.0f, 0)};
  for (unsigned i = 0; i < 24; ++i) {  // 384 pages, fits the 512-entry TLB
    prog.push_back(make_mvin(base + i * 16 * 4096,
                             LocalAddr::sp_row((i * 16) % 8192), 16, 16));
  }
  prog.push_back(make_fence());
  const Cycle cold = h.accel.run(prog, h.as);
  h.accel.reset_time();
  h.ptw.reset_time();
  h.mem.reset_all();  // drop L2 contents; only the TLB stays warm
  const Cycle warm = h.accel.run(prog, h.as);
  EXPECT_LT(warm * 12 / 10, cold);
}

TEST(DmaTiming, PteCacheShortensWalks) {
  GemminiConfig no_cache = GemminiConfig::paper_default();
  no_cache.translation.private_tlb.entries = 4;
  no_cache.translation.l2_tlb.entries = 0;
  no_cache.translation.ptw.pte_cache_entries = 0;
  GemminiConfig cached = no_cache;
  cached.translation.ptw.pte_cache_entries = 8;
  AccelHarness h1(no_cache), h2(cached);
  const Cycle slow = time_mvins(h1, 256, 4096);
  const Cycle fast = time_mvins(h2, 256, 4096);
  EXPECT_LT(fast, slow);
}

TEST(SpatialModel, PipelinedComputeSkipsFill) {
  const GemminiConfig cfg = GemminiConfig::paper_default();
  const SpatialArrayModel m(cfg);
  const Cycle fresh =
      m.compute_cycles(Dataflow::kWeightStationary, 16, 16, false);
  const Cycle pipelined =
      m.compute_cycles(Dataflow::kWeightStationary, 16, 16, true);
  EXPECT_EQ(pipelined, 16u);
  EXPECT_EQ(fresh, 16u + 32u);  // + mesh_rows + mesh_cols
}

TEST(SpatialModel, OsDataflowScalesWithK) {
  const GemminiConfig cfg = GemminiConfig::paper_default();
  const SpatialArrayModel m(cfg);
  EXPECT_GT(m.compute_cycles(Dataflow::kOutputStationary, 1, 16, true),
            m.compute_cycles(Dataflow::kOutputStationary, 1, 4, true));
}

TEST(SpatialModel, UtilizationFullTileIsHigh) {
  const GemminiConfig cfg = GemminiConfig::paper_default();
  const SpatialArrayModel m(cfg);
  EXPECT_DOUBLE_EQ(
      m.utilization(Dataflow::kWeightStationary, 16, 16, 16, true), 1.0);
  // Depthwise-like skinny tile: k=9, n=1 => terrible utilization.
  EXPECT_LT(m.utilization(Dataflow::kWeightStationary, 16, 9, 1, true), 0.05);
}

TEST(SpatialModel, PreloadStreamsKRows) {
  const GemminiConfig cfg = GemminiConfig::paper_default();
  const SpatialArrayModel m(cfg);
  EXPECT_EQ(m.preload_cycles(16), 16u);
  EXPECT_EQ(m.preload_cycles(0), 1u);
  EXPECT_EQ(m.peak_macs_per_cycle(), 256u);
}

TEST(RobTiming, TinyRobSerializes) {
  GemminiConfig tiny = GemminiConfig::paper_default();
  tiny.rob_entries = 1;
  AccelHarness h1(tiny);
  AccelHarness h2;  // default 16 entries
  const Cycle serial = time_mvins(h1, 128, 64);
  const Cycle overlapped = time_mvins(h2, 128, 64);
  EXPECT_LT(overlapped, serial);
}

}  // namespace
}  // namespace gemmini
