#pragma once
// LLM decode workload generator — KV-cache-resident autoregressive decode.
//
// Transformer decode is the anti-CNN workload: after a prefill pass over the
// prompt, every generated token is one sweep of GEMV-shaped matmuls (m = 1
// at batch 1, fattening to m = batch) plus an attention read of the whole
// KV cache — a DRAM-resident tensor that grows by one row per token. CNNs
// amortize weight traffic over large output tiles; decode re-streams the
// weights and the cache every step, so the workload is memory-bound and its
// throughput tracks the DRAM controller, not the array.
//
// The generator does NOT go through the graph IR: a per-step Model would
// reallocate the cache every token. Instead it lays out weights, KV cache
// and activations once in the session's address space (per-layer base
// addresses, configurable cache layout) and assembles a single WorkStream —
// prefill steps tagged "prefill", token steps tagged "decode" — whose RoCC
// programs stream the cache through the same DMA/TLB/DRAM path every other
// workload uses. Session::run_stream executes it; llm::run_decode wraps the
// result in a Report with the LlmStats section and per-layer arithmetic
// intensity filled in.
//
// Cache layouts (the experiment axis):
//  * kHeadMajor: one contiguous [max_ctx x head_dim] matrix per (layer,
//    batch-elem, head). Attention reads are dense streams (row-buffer
//    friendly); appends scatter head_dim-byte rows across head regions.
//  * kTokenMajor: one contiguous [max_ctx x hidden] matrix per (layer,
//    batch-elem); token rows append contiguously, but each head's attention
//    read strides by `hidden` bytes per row (row-buffer hostile).
//
// Weights can be stored as packed int4 nibbles (DecodeConfig::int4_weights);
// the DMA dequantizes on MVIN, halving weight traffic — the knob that shifts
// the GEMV roofline.

#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/config.h"
#include "src/base/types.h"
#include "src/cpu/cost_model.h"
#include "src/runtime/workstream.h"
#include "src/sim/report.h"
#include "src/vm/page_table.h"

namespace gemmini::sim {
class Session;
}  // namespace gemmini::sim

namespace gemmini::llm {

enum class KvLayout : std::uint8_t {
  kHeadMajor,   ///< [layer][batch][head][token][head_dim]
  kTokenMajor,  ///< [layer][batch][token][head][head_dim]
};

const char* kv_layout_name(KvLayout layout);

/// One decode experiment: model geometry plus serving shape. Defaults are a
/// small-but-honest transformer that keeps simulated runs fast while the
/// cache still dwarfs the scratchpad.
struct DecodeConfig {
  std::string name = "llm";
  std::uint64_t hidden = 256;  ///< model width; head_dim = hidden / heads
  unsigned heads = 4;
  unsigned ffn_mult = 4;  ///< FFN width = ffn_mult * hidden
  unsigned layers = 2;
  std::uint64_t prompt_tokens = 16;  ///< prefill length per batch element
  std::uint64_t decode_steps = 8;    ///< tokens generated per batch element
  unsigned batch = 1;
  KvLayout kv_layout = KvLayout::kHeadMajor;
  bool int4_weights = false;
  /// Cache capacity in tokens; 0 = prompt_tokens + decode_steps (exact fit).
  std::uint64_t max_ctx = 0;

  std::uint64_t ctx_capacity() const {
    return max_ctx != 0 ? max_ctx : prompt_tokens + decode_steps;
  }
  std::uint64_t head_dim() const { return hidden / heads; }
  std::uint64_t ffn_dim() const {
    return hidden * static_cast<std::uint64_t>(ffn_mult);
  }

  /// Sweep-friendly label, e.g. "llm-h256-l2-b4-t8-head-major-int4".
  std::string label() const;

  /// Geometry sanity (divisibility, nonzero extents, cache capacity).
  /// Throws ConfigError.
  void validate() const;
};

/// A decode workload assembled against one address space: the stream plus
/// the footprint/traffic accounting run_decode folds into the Report.
struct DecodeWorkload {
  WorkStream stream;
  std::uint64_t weight_bytes = 0;    ///< as stored (packed when int4)
  std::uint64_t kv_cache_bytes = 0;  ///< K+V, all layers and batch elems
  std::uint64_t prefill_macs = 0;
  std::uint64_t decode_macs = 0;
  /// Aggregated per transformer layer: qkv / attention / ffn groups.
  std::vector<sim::LayerIntensity> layer_intensity;
};

/// Lays out weights, KV cache and activations in `as` (materializing random
/// int8/int4 contents when `functional`) and assembles the full
/// prefill-then-decode WorkStream. `accel` fixes DIM-alignment; `cpu` prices
/// the CPU-resident steps (softmax, dispatch).
DecodeWorkload build_decode_workload(const DecodeConfig& cfg,
                                     const GemminiConfig& accel,
                                     const CpuCostModel& cpu, AddressSpace& as,
                                     std::uint64_t seed, bool functional);

/// End-to-end: build the workload in `session`'s address space, run it, and
/// return a Report with llm stats, per-layer arithmetic intensity and the
/// prefill/decode cycle split filled in. Each call allocates fresh buffers;
/// use one Session per config point (as the sweep driver does).
sim::Report run_decode(sim::Session& session, const DecodeConfig& cfg);

}  // namespace gemmini::llm
