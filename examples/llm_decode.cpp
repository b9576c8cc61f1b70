// LLM decode under the memory system's design axes: the KV-cache-resident
// autoregressive workload (src/llm/) swept across DRAM channel counts,
// request schedulers and cache layouts, at batch 1 and batch 8.
//
// Decode is the anti-CNN workload — every generated token re-streams the
// weights and the whole KV cache, so cycles-per-token tracks the DRAM
// controller, not the spatial array. The sweep makes that visible:
//
//   * more channels  -> fewer cycles per token (bandwidth-bound);
//   * FR-FCFS        -> bigger win than on conv nets (GEMV streams leave
//                       row-hit locality the in-order scheduler squanders);
//   * head-major     -> higher row-hit rate than token-major at decode
//                       (dense per-head cache reads vs hidden-strided ones);
//   * batch 8        -> amortizes the weight stream over 8 token rows.
//
//   $ ./llm_decode

#include <cstdio>
#include <vector>

#include "src/core/gemmini.h"

using namespace gemmini;

int main() {
  llm::DecodeConfig base;
  base.hidden = 256;
  base.heads = 4;
  base.layers = 2;
  base.prompt_tokens = 16;
  base.decode_steps = 8;

  // A contended memory system (write queue + periodic refresh, XOR-folded
  // interleave) — request scheduling only matters when the controller has a
  // queue to reorder; on an idle DRAM, FR-FCFS degenerates to FCFS.
  SocConfig soc = SocConfig::base_1mb_l2();
  soc.mem.dram.interleave = DramInterleave::kXorFold;
  soc.mem.dram.write_queue_depth = 16;
  soc.mem.dram.write_drain_floor = 4;
  soc.mem.dram.refresh_interval = 7800;
  soc.mem.dram.refresh_latency = 280;

  sim::Experiment ex(soc);
  ex.dram_channels({1, 2, 4})
      .dram_schedulers({DramScheduler::kFcfs, DramScheduler::kFrFcfs});
  for (const unsigned batch : {1u, 8u}) {
    for (const llm::KvLayout layout :
         {llm::KvLayout::kHeadMajor, llm::KvLayout::kTokenMajor}) {
      llm::DecodeConfig c = base;
      c.batch = batch;
      c.kv_layout = layout;
      ex.workload(sim::Decode{c});
    }
  }
  const std::vector<sim::Report> reports = ex.run();

  std::printf("%-44s %-8s %-12s %-10s %-12s\n", "point", "tokens",
              "cyc/token", "row-hit", "decode-cyc");
  for (const sim::Report& r : reports) {
    std::printf("%-44s %-8lu %-12lu %-10.3f %-12lu\n", r.point.c_str(),
                static_cast<unsigned long>(r.llm.tokens),
                static_cast<unsigned long>(r.llm.cycles_per_token),
                r.substrate.dram_row_hit_rate,
                static_cast<unsigned long>(r.llm.decode_cycles));
  }

  // Pull out the batch-1 head-major column to show the controller story.
  std::printf("\nBatch-1 head-major, FR-FCFS vs FCFS by channel count:\n");
  for (const unsigned ch : {1u, 2u, 4u}) {
    Cycle fcfs = 0, frfcfs = 0;
    for (const sim::Report& r : reports) {
      const std::string want = std::to_string(ch) + "ch";
      if (r.point.find(want) != 0 || r.point.find("-b1-") == std::string::npos ||
          r.point.find("head-major") == std::string::npos) {
        continue;
      }
      if (r.point.find("frfcfs") != std::string::npos) {
        frfcfs = r.llm.cycles_per_token;
      } else {
        fcfs = r.llm.cycles_per_token;
      }
    }
    std::printf("  %uch: fcfs %lu -> frfcfs %lu cyc/token (%.1f%%)\n", ch,
                static_cast<unsigned long>(fcfs),
                static_cast<unsigned long>(frfcfs),
                fcfs > 0 ? 100.0 * (1.0 - static_cast<double>(frfcfs) /
                                              static_cast<double>(fcfs))
                         : 0.0);
  }
  return 0;
}
