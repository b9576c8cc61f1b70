// Quickstart: the "hello world" of the simulation stack, through the
// unified `sim::Session` facade.
//
// A Session owns the whole system for one experiment — config, SoC,
// address spaces, accelerator, estimates — so there is exactly one object
// to build, whichever layer of the stack you want to exercise:
//
//   * push-button:  session.run(model)        -> sim::Report
//   * tuned C API:  emit_tiled_matmul + session.accelerator().run(...)
//   * raw state:    session.address_space() / session.soc()
//
// This example drives the *low-level* layer: generate an accelerator,
// multiply two matrices on it, and check the result against the CPU
// reference (paper §III-B).
//
//   $ ./example_quickstart

#include <cstdio>

#include "src/core/gemmini.h"

using namespace gemmini;

int main() {
  // 1. Configure the template: a 16x16 weight-stationary systolic array
  //    with a 256 KB scratchpad — the paper's default instantiation.
  GemminiConfig cfg = GemminiConfig::paper_default();
  std::printf("Generated '%s': %ux%u PEs, %lu KB scratchpad, %lu KB acc\n",
              cfg.name.c_str(), cfg.array.dim_rows(), cfg.array.dim_cols(),
              static_cast<unsigned long>(cfg.sp_capacity_bytes / 1024),
              static_cast<unsigned long>(cfg.acc_capacity_bytes / 1024));

  // 2. Build the session: one builder call validates everything (array
  //    geometry, CPU cost model, memory system, OS noise) and elaborates a
  //    single-core SoC. `functional()` makes real int8 data flow through
  //    the simulated memory hierarchy instead of just time.
  SocConfig soc;
  soc.accel = cfg;
  sim::Session session = sim::Session::builder(soc).functional().build();
  AddressSpace& as = session.address_space();

  // The shared memory substrate under it: a cycle-driven DRAM controller
  // (channels x banks, scheduling policy, address interleave). The default
  // is the golden-cycle configuration — 1 channel, FCFS, no refresh; crank
  // `mem().dram` for multi-channel FR-FCFS experiments.
  const DramConfig& dram = session.config().mem.dram;
  std::printf("Memory: %u-channel DRAM (%u banks/ch, %s scheduler, %s "
              "interleave), %lu KB L2\n",
              dram.channels, dram.banks, dram_scheduler_name(dram.scheduler),
              dram_interleave_name(dram.interleave),
              static_cast<unsigned long>(
                  session.config().mem.l2.size_bytes / 1024));

  // 3. Allocate and fill matrices in the process's virtual address space.
  const std::uint64_t m = 64, k = 96, n = 48;
  Rng rng(2024);
  TensorI8 a({m, k}), b({k, n});
  a.randomize(rng);
  b.randomize(rng);
  const VAddr va = as.alloc(m * k + 4096);
  const VAddr vb = as.alloc(k * n + 4096);
  const VAddr vc = as.alloc(m * n + 4096);
  as.write_virt(va, a.data(), a.size());
  as.write_virt(vb, b.data(), b.size());

  // 4. Emit the tiled matmul with the runtime's auto-tiling heuristic and
  //    run it through the session-owned cycle-level accelerator model.
  MatmulParams p;
  p.a = va;
  p.b = vb;
  p.c = vc;
  p.m = m;
  p.k = k;
  p.n = n;
  p.out_shift = 10;
  p.act = Activation::kRelu;
  const Program prog = emit_tiled_matmul(session.config().accel, p);
  std::printf("Program: %zu RoCC instructions\n", prog.size());

  const Cycle cycles = session.accelerator().run(prog, as);

  // 5. Verify against the golden reference.
  TensorI8 expect({m, n}), got({m, n});
  ref::gemm_i8(a, b, nullptr, expect, 10, Activation::kRelu);
  as.read_virt(vc, got.data(), got.size());
  const bool ok = got == expect;

  const auto& rep = session.accelerator().report();
  std::printf("Ran %lu x %lu x %lu matmul in %lu cycles "
              "(%.1f%% array utilization): %s\n",
              static_cast<unsigned long>(m), static_cast<unsigned long>(k),
              static_cast<unsigned long>(n),
              static_cast<unsigned long>(cycles),
              100.0 * rep.utilization(session.config().accel, cycles),
              ok ? "MATCHES reference" : "MISMATCH");

  // 6. The same session also answers the synthesis-substitute questions
  //    (area / fmax / power — embedded in every push-button sim::Report)
  //    and emits the per-instantiation C header.
  const sim::Estimates est = session.estimates();
  std::printf("Estimates: %.0f Kum2, fmax %.2f GHz, %.1f mW\n",
              est.area.total_um2 / 1000.0, est.fmax_ghz, est.power_mw);
  std::printf("\n--- generated gemmini_params.h (excerpt) ---\n%.400s...\n",
              session.params_header().c_str());

  // 7. The compile side mirrors the run side: `plan()` pushes a model
  //    through the staged lowering pipeline (placement -> tiling ->
  //    allocation) and returns every decision — placement targets, staging
  //    tiles, VA layout, quantization shifts — before a single cycle is
  //    simulated. `session.run(plan)` executes it; Plan::to_json dumps it.
  const sim::Plan plan = session.plan(zoo::squeezenet_v11(64));
  unsigned accel_layers = 0;
  for (const sim::PlannedLayer& l : plan.layers) {
    accel_layers += l.target == lowering::LayerTarget::kAccel;
  }
  std::printf("\nCompiled %s with %s placement + %s tiling: %zu layers "
              "(%u on the accelerator), %.1f KB weights, %.2f MB modeled "
              "DMA traffic\n",
              plan.model().name().c_str(), plan.placement_policy.c_str(),
              plan.tiling_policy.c_str(), plan.layers.size(), accel_layers,
              plan.weight_bytes / 1024.0, plan.modeled_dma_bytes() / 1e6);
  return ok ? 0 : 1;
}
