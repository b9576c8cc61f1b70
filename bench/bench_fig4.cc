// Fig. 4: local (private) TLB miss rate profiled over a full ResNet-50
// inference on a Gemmini-generated accelerator.
//
// Paper: "the miss rate occasionally climbs to 20-30% of recent requests,
// due to the tiled nature of DNN workloads" — orders of magnitude above
// CPU-workload TLB miss rates.

#include <cstdio>
#include <cstdlib>

#include "src/core/gemmini.h"

using namespace gemmini;

int main() {
  std::printf("=== Fig. 4: TLB miss rate over a full ResNet-50 inference ===\n\n");
  const bool fast = std::getenv("GEMMINI_BENCH_FAST") != nullptr;

  SocConfig cfg = SocConfig::base_1mb_l2();
  cfg.accel.has_im2col = true;
  // A small private TLB (as in the paper's profiling config) with windowed
  // miss-rate profiling.
  cfg.accel.translation.private_tlb.entries = 8;
  cfg.accel.translation.l2_tlb_present = false;
  cfg.accel.translation.profile_window = 250000;

  sim::Session session = sim::Session::builder(cfg).build();
  const sim::Report r = session.run(zoo::resnet50(fast ? 96 : 224));

  const Tlb& tlb = session.soc().accelerator(0).translation().private_tlb();
  const TimeSeries& series = tlb.miss_series();

  std::printf("run: %lu cycles; private TLB: %lu hits, %lu misses "
              "(hit rate %.1f%%)\n\n",
              static_cast<unsigned long>(r.cycles),
              static_cast<unsigned long>(tlb.stats().hits),
              static_cast<unsigned long>(tlb.stats().misses),
              100.0 * tlb.stats().hit_rate());

  std::printf("miss rate per %luK-cycle window (each # = 1%%):\n",
              static_cast<unsigned long>(series.window_cycles() / 1000));
  for (std::size_t w = 0; w < series.num_windows(); ++w) {
    if (series.totals(w) == 0) continue;
    const double rate = series.rate(w);
    std::printf("%6zu | %-35.*s| %5.1f%%\n", w,
                static_cast<int>(rate * 100.0 + 0.5),
                "###################################", 100.0 * rate);
  }
  std::printf("\npeak windowed miss rate: %.1f%%  (paper: spikes to 20-30%%)\n",
              100.0 * series.max_rate());
  std::printf("consecutive same-page reads:  %.0f%%  (paper: 87%%)\n",
              100.0 * tlb.stats().consecutive_same_page_rate(false));
  std::printf("consecutive same-page writes: %.0f%%  (paper: 83%%)\n",
              100.0 * tlb.stats().consecutive_same_page_rate(true));
  return 0;
}
