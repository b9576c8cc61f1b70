// Golden cycle counts: the simulator's pinned timing. Three workloads have
// produced the same cycle counts since the first hot-path overhaul, and an
// optimization that moves any of them changed timing semantics, not just
// host speed. Change a constant below ONLY in a change that deliberately
// alters the timing model, and say so in its description.
//
// Every observer (trace recorder, metric registry + sampler, energy meter,
// fault injector armed at zero rates) must be purely observational, so each
// golden workload is also run under each of them and under all at once.

#include <gtest/gtest.h>

#include <ostream>

#include "src/base/rng.h"
#include "src/base/tensor.h"
#include "src/cpu/kernels.h"
#include "src/dnn/zoo.h"
#include "src/runtime/conv.h"
#include "src/runtime/matmul.h"
#include "src/sim/session.h"

namespace gemmini {
namespace {

constexpr Cycle kTiledMatmulCycles = 309917;  // 320^3 int8, paper default
constexpr Cycle kConv3x3Cycles = 1087553;     // 56x56x64 3x3, im2col unit
constexpr Cycle kResnetSliceCycles = 9355595;  // zoo ResNet-50 at 32x32

// The controller's counters behind each golden: retired instructions and
// COMPUTE tiles, and each pipeline's busy cycles. A change that keeps the
// finish cycle but moves work between the load, execute and store pipes
// shows up here.
struct Busy {
  std::uint64_t instructions, tiles;
  Cycle load, exec, store;
};
constexpr Busy kTiledMatmulBusy{19600, 8000, 80096, 225313, 20530};
constexpr Busy kConv3x3Busy{67888, 28224, 391302, 689472, 35967};
constexpr Busy kResnetSliceBusy{318814, 103168, 3983727, 5404937, 92123};

void ExpectBusy(const AccelReport& r, const Busy& want) {
  EXPECT_EQ(r.instructions, want.instructions);
  EXPECT_EQ(r.tiles, want.tiles);
  EXPECT_EQ(r.load_busy, want.load);
  EXPECT_EQ(r.exec_busy, want.exec);
  EXPECT_EQ(r.store_busy, want.store);
}

struct Observers {
  const char* name;
  bool trace = false;
  bool metrics = false;
  bool energy = false;
  bool faults = false;  // injector built, every rate zero
};

void PrintTo(const Observers& o, std::ostream* os) { *os << o.name; }

class GoldenCycles : public ::testing::TestWithParam<Observers> {
 protected:
  sim::Session session(SocConfig cfg, bool functional = true) const {
    const Observers& o = GetParam();
    if (o.faults) {
      cfg.faults.enabled = true;
      cfg.faults.seed = 99;
    }
    auto b =
        sim::Session::builder(std::move(cfg)).functional(functional).seed(7);
    if (o.trace) b.trace(trace::TraceConfig::enabled_default());
    if (o.metrics) b.metrics(metrics::MetricsConfig::enabled_default());
    if (o.energy) b.energy(energy::EnergyConfig::enabled_default());
    return b.build();
  }
};

VAddr upload(sim::Session& s, const TensorI8& t) {
  const VAddr va = s.address_space().alloc(t.size() + 4096);
  s.address_space().write_virt(va, t.data(), t.size());
  return va;
}

TEST_P(GoldenCycles, TiledMatmul) {
  Rng rng(7);
  TensorI8 a({320, 320}), b({320, 320});
  a.randomize(rng);
  b.randomize(rng);

  SocConfig cfg;
  cfg.accel = GemminiConfig::paper_default();
  sim::Session s = session(cfg);
  MatmulParams p;
  p.a = upload(s, a);
  p.b = upload(s, b);
  p.c = s.address_space().alloc(320 * 320 + 8192);
  p.m = p.k = p.n = 320;
  p.out_shift = 7;
  p.act = Activation::kRelu;
  const Program prog = emit_tiled_matmul(s.config().accel, p);
  EXPECT_EQ(s.accelerator().run(prog, s.address_space()), kTiledMatmulCycles);
  EXPECT_EQ(s.accelerator().report().macs, 320u * 320 * 320);
  ExpectBusy(s.accelerator().report(), kTiledMatmulBusy);

  TensorI8 got({320, 320}), expect({320, 320});
  s.address_space().read_virt(p.c, got.data(), got.size());
  ref::gemm_i8(a, b, nullptr, expect, 7, Activation::kRelu);
  EXPECT_TRUE(got == expect);
}

TEST_P(GoldenCycles, Conv3x3) {
  // ResNet-stage-2-shaped layer: 56x56x64 -> 56x56x64, stride 1, pad 1.
  ConvShape shape;
  shape.ih = shape.iw = 56;
  shape.ic = shape.oc = 64;
  shape.kh = shape.kw = 3;
  shape.stride = 1;
  shape.padding = 1;
  Rng rng(11);
  TensorI8 in({1, shape.ih, shape.iw, shape.ic});
  TensorI8 w({static_cast<std::size_t>(shape.patch_cols()), shape.oc});
  in.randomize(rng);
  w.randomize(rng);

  SocConfig cfg;
  cfg.accel = GemminiConfig::paper_default();
  cfg.accel.has_im2col = true;
  sim::Session s = session(cfg);
  ConvBuffers buf;
  buf.input = upload(s, in);
  buf.weights = upload(s, w);
  buf.output = s.address_space().alloc(shape.out_rows() * shape.oc + 8192);
  buf.im2col_scratch = s.address_space().alloc(shape.im2col_bytes(1) + 8192);
  const ConvPlan plan =
      emit_conv(s.config().accel, shape, buf, 7, Activation::kRelu);
  EXPECT_EQ(s.accelerator().run(plan.program, s.address_space()),
            kConv3x3Cycles);
  ExpectBusy(s.accelerator().report(), kConv3x3Busy);
}

TEST_P(GoldenCycles, ResnetSlice) {
  // Moving real data must not change timing: functional and timing-only
  // runs take the same cycles.
  SocConfig cfg = SocConfig::base_1mb_l2();
  cfg.accel.has_im2col = true;
  for (const bool functional : {true, false}) {
    sim::Session s = session(cfg, functional);
    const sim::Report r = s.run(zoo::resnet50(32));
    EXPECT_EQ(r.cycles, kResnetSliceCycles)
        << (functional ? "functional" : "timing only");
    ASSERT_EQ(r.per_core.size(), 1u);
    ExpectBusy(r.per_core[0].accel, kResnetSliceBusy);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Observers, GoldenCycles,
    ::testing::Values(Observers{"none"}, Observers{"trace", true},
                      Observers{"metrics", false, true},
                      Observers{"energy", false, false, true},
                      Observers{"faults", false, false, false, true},
                      Observers{"all", true, true, true, true}),
    [](const ::testing::TestParamInfo<Observers>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace gemmini
