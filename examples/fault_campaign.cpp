// Seeded fault-injection campaign over the reliability axis (src/fault/):
// rerun one workload N times per fault configuration, flipping DRAM bits at
// a fixed per-burst rate, and classify every run against the fault-free
// golden output as masked / corrected / detected / SDC.
//
// Three columns share one model and one SoC:
//   * base        — fault layer disabled; the golden reference column.
//   * ecc-on      — single-bit flips with SECDED ECC: every flip must be
//                   corrected (zero silent data corruption), at the cost of
//                   the correction latency charged to the read path.
//   * ecc-off     — the same flip rate with ECC off: flips land silently and
//                   some runs show up as SDC, which is the point — it shows
//                   what the ECC column is buying.
//
// The second half poisons one point of a sweep with an impossible watchdog
// budget to demonstrate fail-soft isolation: the poisoned point reports
// status "error" while its neighbours complete normally.
//
//   $ ./example_fault_campaign

#include <cstdio>

#include "src/core/gemmini.h"

using namespace gemmini;

int main() {
  const Model workload = zoo::squeezenet_v11(48);

  fault::FaultConfig baseline;  // disabled: the fault-free reference column
  baseline.name = "base";

  fault::FaultConfig ecc_on;
  ecc_on.enabled = true;
  ecc_on.name = "ecc-on";
  ecc_on.seed = 42;
  ecc_on.dram_read_flip_rate = 0.02;
  ecc_on.dram_flip_bits = 1;
  ecc_on.ecc.enabled = true;

  // Single-bit flips at a low rate are mostly masked even without ECC (they
  // land in bursts whose bits never reach the output); make the unprotected
  // column noisier so the silent-corruption outcome actually shows up.
  fault::FaultConfig ecc_off = ecc_on;
  ecc_off.name = "ecc-off";
  ecc_off.ecc.enabled = false;
  ecc_off.dram_read_flip_rate = 0.2;
  ecc_off.dram_flip_bits = 4;

  // `fault::FaultConfig{}` (disabled) is the fault-free baseline column,
  // where the Campaign runs once as a plain inference; only the armed
  // columns rerun. Campaigns need functional points so the output can be
  // diffed against the golden run.
  SocConfig base;
  base.accel.has_im2col = true;
  const auto reports =
      sim::Experiment(base)
          .functional()
          .fault_configs({baseline, ecc_on, ecc_off})
          .workload(sim::Campaign{workload, 8})
          .run({.threads = 2});

  std::printf("%-28s %-10s %-7s %-7s %-9s %-9s %-5s %-9s\n", "column",
              "cycles", "flips", "masked", "corrected", "detected", "sdc",
              "sdc_rate");
  for (const sim::Report& r : reports) {
    const sim::ReliabilityReport& rel = r.reliability;
    std::printf("%-28s %-10lu %-7lu %-7u %-9u %-9u %-5u %-9.3f\n",
                r.point.c_str(), static_cast<unsigned long>(r.cycles),
                static_cast<unsigned long>(rel.injection.dram_read_flips),
                rel.masked, rel.corrected, rel.detected, rel.sdc,
                rel.sdc_rate);
  }

  std::printf("\nFail-soft sweep (middle point poisoned with a 1000-cycle "
              "watchdog):\n");
  sim::Sweep sweep;
  SocConfig ok_cfg;
  ok_cfg.accel.has_im2col = true;
  SocConfig poisoned = ok_cfg;
  poisoned.max_cycles = 1000;  // far below what the workload needs
  sweep.add("healthy-a", ok_cfg, workload);
  sweep.add("poisoned", poisoned, workload);
  sweep.add("healthy-b", ok_cfg, workload);
  for (const sim::Report& r : sweep.run({.threads = 3})) {
    if (r.status == "ok") {
      std::printf("  %-10s ok     %lu cycles\n", r.point.c_str(),
                  static_cast<unsigned long>(r.cycles));
    } else {
      std::printf("  %-10s error  %s\n", r.point.c_str(), r.error.c_str());
    }
  }
  return 0;
}
