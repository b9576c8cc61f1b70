// Serving soak: drive the multi-core SoC with open-loop Poisson traffic
// (src/serve/) and walk the offered load through saturation, printing the
// goodput-vs-offered-load curve with exact tail latencies at every point.
//
// The interesting physics: below capacity the p99 hugs the single-inference
// latency; as the offered load crosses the calibrated capacity the queue —
// not the accelerator — becomes the product, goodput flattens at the
// capacity ceiling, and the bounded admission queue starts shedding so tail
// latency stays finite instead of growing with the backlog.
//
// The second half holds the load at 2x capacity and compares scheduling
// policies: FIFO (baseline), EDF with preemption (spends the overload on
// the requests whose deadlines are still winnable), and size-capped dynamic
// batching (amortizes the OS switch and serves batch tails from warm
// caches, buying back goodput).
//
//   $ ./example_serving_soak

#include <cstdio>
#include <vector>

#include "src/core/gemmini.h"

using namespace gemmini;

int main() {
  SocConfig cfg = SocConfig::base_1mb_l2();
  cfg.accel.has_im2col = true;
  cfg.cores = 2;
  const Model model = zoo::squeezenet_v11(48);

  // Calibrate the capacity from one real cycle-accurate inference, the same
  // number the serving layer uses for its own cold service time.
  sim::Session probe = sim::Session::builder(cfg).build();
  const Cycle cold = probe.run(model).cycles;
  const double capacity = cfg.cores * 1e6 / static_cast<double>(cold);
  std::printf("%s on %u cores: %llu cycles/inference -> capacity %.2f "
              "req/Mcycle\n\n",
              model.name().c_str(), cfg.cores,
              static_cast<unsigned long long>(cold), capacity);

  serve::ServeSpec spec;
  spec.arrivals.horizon_cycles = 60 * cold;
  spec.arrivals.seed = 21;
  spec.scheduler.admission_capacity = 32;

  // Part 1: the soak — offered load from 10% to 300% of capacity under the
  // default FIFO policy, one sweep column per load. One request class: the
  // model itself, with an SLO of 4x its solo latency.
  serve::ServeSpec soak_spec = spec;
  soak_spec.classes.push_back(
      serve::RequestClass{model.name(), model, 1.0, 4 * cold});
  std::vector<double> loads;
  sim::Experiment soak_grid(cfg);
  for (const double frac : {0.1, 0.5, 0.9, 1.2, 2.0, 3.0}) {
    loads.push_back(frac * capacity);
    soak_spec.arrivals.requests_per_mcycle = loads.back();
    soak_grid.workload(sim::Serve{soak_spec});
  }
  const std::vector<sim::Report> soak = soak_grid.run();

  std::printf("%-10s %10s %12s %12s %12s %8s %6s %6s\n", "load/cap",
              "offered", "p50(cyc)", "p99(cyc)", "p99.9(cyc)", "goodput",
              "shed", "miss");
  for (std::size_t i = 0; i < soak.size(); ++i) {
    const sim::ServerStats& st = soak[i].server;
    std::printf("%-10.2f %10.3f %12llu %12llu %12llu %8.3f %6llu %6llu\n",
                loads[i] / capacity, st.offered_per_mcycle,
                static_cast<unsigned long long>(st.p50),
                static_cast<unsigned long long>(st.p99),
                static_cast<unsigned long long>(st.p999),
                st.goodput_per_mcycle,
                static_cast<unsigned long long>(st.shed),
                static_cast<unsigned long long>(st.deadline_misses));
  }

  // Part 2: policy shoot-out at 2x capacity on a two-class mix. A single
  // class makes EDF degenerate to FIFO (deadline = arrival + constant), so
  // blend an interactive class with a tight SLO against a throughput class
  // with none — now EDF spends the overload on the winnable deadlines and
  // batching groups the throughput class. Each column replaces the spec's
  // scheduler wholesale, so each carries its own admission bound.
  serve::ServeSpec mix = spec;
  mix.arrivals.requests_per_mcycle = 2.0 * capacity;
  mix.classes.push_back(
      serve::RequestClass{"interactive", model, 3.0, 2 * cold});
  mix.classes.push_back(serve::RequestClass{"bulk", model, 1.0, 0});
  serve::ServeConfig fifo;
  fifo.admission_capacity = 32;
  serve::ServeConfig edf = fifo;
  edf.policy = serve::ServePolicy::kEdf;
  serve::ServeConfig batch = fifo;
  batch.policy = serve::ServePolicy::kBatch;
  batch.max_batch = 4;
  std::printf("\npolicies at 2x capacity (interactive deadline %llu "
              "cycles, 3:1 mix with deadline-free bulk):\n",
              static_cast<unsigned long long>(2 * cold));
  sim::Experiment duel_grid(cfg);
  for (const serve::ServeConfig& policy : {fifo, edf, batch}) {
    mix.scheduler = policy;
    duel_grid.workload(sim::Serve{mix});
  }
  const std::vector<sim::Report> duel = duel_grid.run();
  std::printf("%-10s %12s %12s %8s %6s %6s %8s\n", "policy", "p50(cyc)",
              "p99(cyc)", "goodput", "shed", "miss", "switches");
  for (const sim::Report& r : duel) {
    const sim::ServerStats& st = r.server;
    std::printf("%-10s %12llu %12llu %8.3f %6llu %6llu %8llu\n",
                st.policy.c_str(),
                static_cast<unsigned long long>(st.p50),
                static_cast<unsigned long long>(st.p99),
                st.goodput_per_mcycle,
                static_cast<unsigned long long>(st.shed),
                static_cast<unsigned long long>(st.deadline_misses),
                static_cast<unsigned long long>(st.context_switches));
  }
  return 0;
}
