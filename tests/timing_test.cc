// Host-speed gates: the blocked int8 GEMM must stay >= 5x the naive loops
// it replaced, and attaching the metric registry and sampler must cost a
// full-model run at most 5% host time. Both compare process CPU time, best
// of several interleaved reps, so a busy host neither preempts the
// measurement nor slows only one side. ctest runs this suite alone
// (RUN_SERIAL). Both gates hold for the Release build only (the blocked
// GEMM relies on -O3 vectorization) and skip in every other build type and
// in sanitized builds. Each test prints what it measured.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <vector>

#include "src/base/rng.h"
#include "src/base/tensor.h"
#include "src/cpu/kernels.h"
#include "src/dnn/zoo.h"
#include "src/sim/session.h"

namespace gemmini {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !GEMMINI_RELEASE_BUILD
constexpr bool kTimingMeaningful = false;
#else
constexpr bool kTimingMeaningful = true;
#endif

/// Process CPU seconds spent in `fn`.
template <typename Fn>
double cpu_s(Fn&& fn) {
  const std::clock_t t0 = std::clock();
  fn();
  return static_cast<double>(std::clock() - t0) / CLOCKS_PER_SEC;
}

TEST(GemmSpeedup, BlockedI8AtLeast5xNaive) {
  // The int8 GEMM is the functional inference pipeline's hot loop. The fp32
  // kernel is not gated: its per-output serial FMA chain (needed for a
  // bit-exact accumulation order) caps its speedup lower.
  if (!kTimingMeaningful) GTEST_SKIP() << "not a Release build, or sanitized";
  Rng rng(42);
  TensorI8 a({512, 512}), b({512, 512}), c({512, 512});
  a.randomize(rng);
  b.randomize(rng);
  std::vector<std::int32_t> bias(512);
  for (auto& v : bias) v = rng.next_range(-1000, 1000);

  double blocked = 1e300, naive = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    blocked = std::min(blocked, cpu_s([&] {
      ref::gemm_i8(a, b, bias.data(), c, 6, Activation::kRelu);
    }));
    naive = std::min(naive, cpu_s([&] {
      ref::gemm_i8_naive(a, b, bias.data(), c, 6, Activation::kRelu);
    }));
  }
  std::printf("gemm_i8 512^3: blocked %.2f ms, naive %.2f ms, %.2fx\n",
              blocked * 1e3, naive * 1e3, naive / blocked);
  EXPECT_GE(naive / blocked, 5.0);
}

TEST(MetricsOverhead, ResnetSliceAtMost5Percent) {
  // The zoo ResNet-50 at 32x32, the heaviest golden workload, is what a grid
  // sweep pays per point; the registry and sampler must add <= 5% to it.
  // Session construction is outside the timed span.
  if (!kTimingMeaningful) GTEST_SKIP() << "not a Release build, or sanitized";
  SocConfig cfg = SocConfig::base_1mb_l2();
  cfg.accel.has_im2col = true;
  const Model model = zoo::resnet50(32);
  auto run = [&](bool with_metrics) {
    auto b = sim::Session::builder(cfg);
    if (with_metrics) b.metrics(metrics::MetricsConfig::enabled_default());
    sim::Session s = b.build();
    return cpu_s([&] { s.run(model); });
  };

  double off = 1e300, on = 1e300;
  for (int rep = 0; rep < 7; ++rep) {
    off = std::min(off, run(false));
    on = std::min(on, run(true));
  }
  const double overhead = on / off - 1.0;
  std::printf("resnet50(32): metrics off %.1f ms, on %.1f ms, %+.2f%%\n",
              off * 1e3, on * 1e3, overhead * 100);
  EXPECT_LE(overhead, 0.05);
}

}  // namespace
}  // namespace gemmini
