// Virtual-address-translation co-design (paper §V-A, Fig. 8): sweep private
// and shared TLB sizes for the Fig. 9 Base SoC (`SocConfig::base_1mb_l2()`,
// im2col unit on) running ResNet-50, with and without the filter-register
// optimization, and find the cheapest translation system within 2% of peak
// performance. The paper ran this study on its low-power edge SoC;
// tests/paper_test.cc grades the paper's Fig. 8 claims.
//
// The 2 x 2 x 2 = 8-point grid runs as one `sim::Sweep` across 4 worker
// threads — each point on its own SoC — and the per-point TLB hit rates
// come out of the `sim::Report`'s per-core translation statistics.
//
//   $ ./example_tlb_codesign [--fast]   (--fast uses a 96x96 input)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/gemmini.h"

using namespace gemmini;

int main(int argc, char** argv) {
  const bool fast = argc > 1 && std::strcmp(argv[1], "--fast") == 0;
  const Model model = zoo::resnet50(fast ? 96 : 224);

  struct Point {
    unsigned priv, shared;
    bool filters;
  };
  std::vector<Point> points;
  sim::Sweep sweep;
  for (const bool filters : {false, true}) {
    for (const unsigned priv : {4u, 16u}) {
      for (const unsigned shared : {0u, 512u}) {
        SocConfig cfg = SocConfig::base_1mb_l2();
        cfg.accel.has_im2col = true;
        cfg.accel.translation.private_tlb.entries = priv;
        cfg.accel.translation.l2_tlb.entries = shared;
        cfg.accel.translation.filter_registers = filters;
        std::string name = "p";
        name += std::to_string(priv);
        name += "-s";
        name += std::to_string(shared);
        name += filters ? "-filt" : "-nofilt";
        points.push_back({priv, shared, filters});
        sweep.add(std::move(name), std::move(cfg), model);
      }
    }
  }

  // Tiling is a translation lever too: staging tiles that move fewer DMA
  // bytes issue fewer translated requests. Ride the paper's pick (4-entry
  // private TLB + filters, no shared TLB) through the sweep once more with
  // the search-based tiling policy — policies slot into a SweepPoint the
  // same way a config does.
  {
    SocConfig cfg = SocConfig::base_1mb_l2();
    cfg.accel.has_im2col = true;
    cfg.accel.translation.private_tlb.entries = 4;
    cfg.accel.translation.l2_tlb.entries = 0;
    cfg.accel.translation.filter_registers = true;
    sim::SessionOptions exhaustive;
    exhaustive.tiling = std::make_shared<const lowering::ExhaustiveTiling>();
    sweep.add({"p4-s0-filt-exhaustive", std::move(cfg), sim::Inference{model},
               std::move(exhaustive)});
  }

  const std::vector<sim::Report> reports = sweep.run({.threads = 4});
  // "best" stays a hardware-grid baseline: the appended tiling-policy
  // point is reported against it, not folded into it.
  Cycle best = kCycleMax;
  for (std::size_t i = 0; i < points.size(); ++i) {
    best = std::min(best, reports[i].cycles);
  }

  std::printf("%-8s %-8s %-8s %-14s %-10s %s\n", "private", "L2-TLB",
              "filters", "cycles", "hit-rate", "vs-best");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const sim::Report& r = reports[i];
    std::printf("%-8u %-8u %-8s %-14lu %-10.1f %+.1f%%\n", p.priv, p.shared,
                p.filters ? "yes" : "no",
                static_cast<unsigned long>(r.cycles),
                100.0 * r.per_core[0].effective_private_tlb_hit_rate,
                100.0 * (static_cast<double>(r.cycles) /
                             static_cast<double>(best) -
                         1.0));
  }

  const sim::Report& exh = reports.back();
  std::printf("%-8s %-8s %-8s %-14lu %-10s %+.1f%%  (exhaustive tiling)\n",
              "4", "0", "yes", static_cast<unsigned long>(exh.cycles), "-",
              100.0 * (static_cast<double>(exh.cycles) /
                           static_cast<double>(best) -
                       1.0));

  // The paper's conclusion: a 4-entry private TLB + filter registers and NO
  // shared L2 TLB lands within ~2% of the best configuration.
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    if (p.priv == 4 && p.shared == 0 && p.filters) {
      const double loss = static_cast<double>(reports[i].cycles) /
                              static_cast<double>(best) -
                          1.0;
      std::printf("\n4-entry private TLB + filter registers, no L2 TLB: "
                  "%.1f%% from peak (paper: ~2%%)\n",
                  100.0 * loss);
    }
  }
  return 0;
}
