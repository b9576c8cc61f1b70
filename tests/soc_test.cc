// Full-SoC integration tests: functional end-to-end inference, tiling-
// independence of results, multi-core contention, OS noise, and the
// direction of the paper's headline effects.

#include <gtest/gtest.h>

#include <type_traits>

#include "src/dnn/zoo.h"
#include "src/model/lowering/pipeline.h"
#include "src/model/runner.h"
#include "src/soc/soc.h"

namespace gemmini {
namespace {

// Components reference sibling members and the SoC's observers, so none of
// the owning objects may be copied or moved.
static_assert(!std::is_move_constructible_v<Soc>);
static_assert(!std::is_move_constructible_v<MemorySystem>);
static_assert(!std::is_move_constructible_v<Accelerator>);
static_assert(!std::is_copy_assignable_v<Soc>);

Model tiny_cnn() {
  ModelBuilder b("tiny-cnn");
  b.input(12, 12, 8);
  const int c1 = b.conv(16, 3, 1, 1, Activation::kRelu);
  const int c2 = b.conv(16, 3, 1, 1, Activation::kNone, c1);
  const int r = b.resadd(c1, c2, Activation::kRelu);
  b.maxpool(2, 2, 0, r);
  b.global_avgpool();
  b.dense(10);
  return b.build();
}

std::vector<std::int8_t> run_functional(const SocConfig& soc_cfg,
                                        const Model& m, std::uint64_t seed) {
  Soc soc(soc_cfg);
  soc.set_functional(true);
  lowering::PipelineOptions opts;
  opts.functional = true;
  opts.seed = seed;
  const LoweredModel lowered = lowering::compile(
      m, soc_cfg.accel, soc_cfg.cpu, soc.address_space(0), opts);
  soc.run(lowered.stream);
  const std::size_t out_idx = m.layers().size() - 1;
  std::vector<std::int8_t> out(m.shape(out_idx).elems());
  soc.address_space(0).read_virt(lowered.layer_output[out_idx], out.data(),
                                 out.size());
  return out;
}

TEST(SocFunctional, EndToEndProducesNonTrivialOutput) {
  const auto out = run_functional(SocConfig{}, tiny_cnn(), 42);
  int nonzero = 0;
  for (const auto v : out) nonzero += (v != 0);
  EXPECT_GT(nonzero, 0);
}

TEST(SocFunctional, DeterministicAcrossRuns) {
  const Model m = tiny_cnn();
  EXPECT_EQ(run_functional(SocConfig{}, m, 7), run_functional(SocConfig{}, m, 7));
}

TEST(SocFunctional, SeedChangesOutput) {
  const Model m = tiny_cnn();
  EXPECT_NE(run_functional(SocConfig{}, m, 1), run_functional(SocConfig{}, m, 2));
}

TEST(SocFunctional, ResultIndependentOfTilingAndMemory) {
  // The same model with radically different hardware (scratchpad size, TLBs,
  // L2, dataflow tile shapes) must produce bit-identical results — tiling
  // only changes *when* data moves, never *what* is computed.
  const Model m = tiny_cnn();
  const auto base = run_functional(SocConfig{}, m, 9);

  SocConfig small = SocConfig{};
  small.accel.sp_capacity_bytes = 32 * 1024;
  small.accel.acc_capacity_bytes = 8 * 1024;
  small.accel.translation.private_tlb.entries = 4;
  small.accel.translation.l2_tlb.entries = 0;
  small.mem.l2.size_bytes = 64 * 1024;
  EXPECT_EQ(run_functional(small, m, 9), base);

  SocConfig filters = SocConfig{};
  filters.accel.translation.filter_registers = true;
  EXPECT_EQ(run_functional(filters, m, 9), base);

  SocConfig im2col_unit = SocConfig{};
  im2col_unit.accel.has_im2col = true;
  EXPECT_EQ(run_functional(im2col_unit, m, 9), base);
}

TEST(SocFunctional, ResultIndependentOfArrayDim) {
  const Model m = tiny_cnn();
  SocConfig dim8 = SocConfig{};
  dim8.accel.array = SpatialArrayGeometry{8, 8, 1, 1};
  EXPECT_EQ(run_functional(dim8, m, 9), run_functional(SocConfig{}, m, 9));
}

TEST(SocFunctional, MobileNetStyleDepthwiseBlockWorks) {
  ModelBuilder b("dw-block");
  b.input(10, 10, 8);
  b.conv(24, 1, 1, 0, Activation::kRelu6);
  b.dwconv(3, 2, 1, Activation::kRelu6);
  b.conv(8, 1, 1, 0, Activation::kNone);
  const auto out = run_functional(SocConfig{}, b.build(), 5);
  int nonzero = 0;
  for (const auto v : out) nonzero += (v != 0);
  EXPECT_GT(nonzero, 0);
}

TEST(SocTiming, AccelArrivesFasterThanCpuBaseline) {
  const Model m = tiny_cnn();
  SocConfig cfg;
  Soc soc(cfg);
  const LoweredModel lowered =
      lowering::compile(m, cfg.accel, cfg.cpu, soc.address_space(0));
  const CoreResult r = soc.run(lowered.stream);
  const Cycle baseline = cpu_baseline_cycles(m, cfg.cpu);
  EXPECT_LT(r.finish, baseline);
}

TEST(SocTiming, TagsAccountForLayerTypes) {
  const Model m = tiny_cnn();
  SocConfig cfg;
  Soc soc(cfg);
  const LoweredModel lowered =
      lowering::compile(m, cfg.accel, cfg.cpu, soc.address_space(0));
  const CoreResult r = soc.run(lowered.stream);
  EXPECT_GT(r.cycles_by_tag.at("conv"), 0u);
  EXPECT_GT(r.cycles_by_tag.at("resadd"), 0u);
  EXPECT_GT(r.cycles_by_tag.at("matmul"), 0u);
  Cycle sum = 0;
  for (const auto& [tag, c] : r.cycles_by_tag) sum += c;
  EXPECT_LE(sum, r.finish + 1);
}

TEST(SocTiming, DualCoreSlowerPerStreamThanSingle) {
  const Model m = tiny_cnn();
  SocConfig cfg;
  cfg.cores = 2;
  Soc soc(cfg);
  const LoweredModel l0 =
      lowering::compile(m, cfg.accel, cfg.cpu, soc.address_space(0));
  const LoweredModel l1 =
      lowering::compile(m, cfg.accel, cfg.cpu, soc.address_space(1));

  // Single stream alone...
  const CoreResult alone = soc.run(l0.stream);
  // ...vs two streams contending for L2/bus/DRAM/PTW.
  soc.reset_all();
  const auto both = soc.run_parallel({&l0.stream, &l1.stream});
  EXPECT_GE(both[0].finish, alone.finish);
  EXPECT_GE(both[1].finish, alone.finish);
}

TEST(SocTiming, OsNoiseAddsTimeAndFlushes) {
  const Model m = tiny_cnn();
  SocConfig quiet;
  Soc soc_quiet(quiet);
  const LoweredModel lq =
      lowering::compile(m, quiet.accel, quiet.cpu, soc_quiet.address_space(0));
  const Cycle t_quiet = soc_quiet.run(lq.stream).finish;

  SocConfig noisy = quiet;
  noisy.os.enabled = true;
  noisy.os.period_cycles = t_quiet / 8 + 1;
  Soc soc_noisy(noisy);
  const LoweredModel ln =
      lowering::compile(m, noisy.accel, noisy.cpu, soc_noisy.address_space(0));
  const CoreResult rn = soc_noisy.run(ln.stream);
  EXPECT_GT(rn.finish, t_quiet);
  EXPECT_GT(rn.cycles_by_tag.at("os"), 0u);
  EXPECT_GT(soc_noisy.accelerator(0).translation().stats().flushes, 0u);
}

TEST(SocTiming, FilterRegistersNeverHurt) {
  const Model m = tiny_cnn();
  SocConfig plain;
  plain.accel.translation.private_tlb.entries = 4;
  plain.accel.translation.l2_tlb.entries = 0;
  Soc s1(plain);
  const LoweredModel l1 =
      lowering::compile(m, plain.accel, plain.cpu, s1.address_space(0));
  const Cycle t_plain = s1.run(l1.stream).finish;

  SocConfig filt = plain;
  filt.accel.translation.filter_registers = true;
  Soc s2(filt);
  const LoweredModel l2 =
      lowering::compile(m, filt.accel, filt.cpu, s2.address_space(0));
  const Cycle t_filt = s2.run(l2.stream).finish;
  EXPECT_LE(t_filt, t_plain);
}

TEST(SocConfigs, PaperPresetsValidate) {
  EXPECT_NO_THROW(SocConfig::base_1mb_l2().validate());
  EXPECT_NO_THROW(SocConfig::big_sp().validate());
  EXPECT_NO_THROW(SocConfig::big_l2().validate());
  EXPECT_EQ(SocConfig::big_l2().mem.l2.size_bytes, 2ull << 20);
  EXPECT_EQ(SocConfig::big_sp().accel.sp_capacity_bytes, 512u * 1024);
}

TEST(SocConfigs, RejectsZeroCores) {
  SocConfig cfg;
  cfg.cores = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

}  // namespace
}  // namespace gemmini
