#pragma once
// sim::Plan — the first-class intermediate artifact of the staged lowering
// pipeline (the compile-side counterpart of sim::Report).
//
// A Plan records every decision the compiler made for one model on one
// accelerator instantiation, phase by phase:
//
//   placement  — accelerator-vs-CPU target per layer (PlacementPolicy)
//   tiling     — per-matmul staging TileShape + modeled DMA traffic
//                (TilingPolicy)
//   allocation — virtual-address layout of every buffer (outputs, weights,
//                biases, im2col scratch) and per-layer quantization shifts
//
// The fourth phase, emission, consumes a Plan and produces the runnable
// WorkStream (lowering::emit_stream); it is deliberately *not* part of the
// Plan, so a Plan can be built once, inspected, dumped as deterministic
// JSON, mutated (e.g. set_tile to hand-tune one layer), and re-emitted.
//
// Determinism contract: building a Plan for the same model + config +
// policies in a fresh Session always produces byte-identical JSON — across
// runs, processes and sweep worker threads. Policies must be deterministic
// for this to hold (see lowering/policy.h).

#include <cstdint>
#include <string>
#include <vector>

#include "src/model/graph.h"
#include "src/model/lowering/policy.h"
#include "src/runtime/tiling.h"

namespace gemmini::sim {

/// One allocated virtual-memory buffer. va == 0 means "not allocated"
/// (e.g. no bias, no scratch needed). `bytes` is the reserved allocation
/// size (padded to whole scratchpad rows plus a guard row), so [va,
/// va + bytes) is exactly the region the address space handed out.
struct PlannedBuffer {
  VAddr va = 0;
  std::uint64_t bytes = 0;

  friend bool operator==(const PlannedBuffer&, const PlannedBuffer&) = default;
};

/// The tiling decision for a layer that lowers to matmul(s).
struct PlannedMatmul {
  MatmulDims dims{};  ///< one matmul's problem size
  TileShape tile{};   ///< staging tile chosen by the TilingPolicy
  std::uint64_t count = 1;  ///< identical matmuls (depthwise: one per channel)

  friend bool operator==(const PlannedMatmul&, const PlannedMatmul&) = default;
};

/// Per-layer record: placement target, tiling (when the layer is a lowered
/// matmul), quantization shift, and the allocated buffers.
struct PlannedLayer {
  std::size_t index = 0;
  std::string kind;  ///< layer_kind_name
  std::string tag;   ///< Fig. 9 accounting tag ("conv", "matmul", ...)
  lowering::LayerTarget target = lowering::LayerTarget::kNone;

  bool has_matmul = false;
  PlannedMatmul matmul;
  unsigned out_shift = 0;

  /// Modeled DRAM traffic of this layer's accelerator programs (0 for
  /// CPU-placed layers; emission charges those through the CPU cost model).
  std::uint64_t dma_bytes = 0;

  PlannedBuffer output;
  PlannedBuffer weights;
  PlannedBuffer bias;
  PlannedBuffer scratch;

  friend bool operator==(const PlannedLayer&, const PlannedLayer&) = default;
};

/// Modeled DRAM traffic of `pl`, an accelerator-placed matmul layer, at its
/// current tile: `matmul.count` tiled matmuls, with a bias row iff `pl` has
/// a bias buffer, and with packed-nibble B iff `spec` (the model layer `pl`
/// plans) has int4 weights. Every phase that prices a planned matmul uses
/// this, so tiling, allocation and set_tile agree.
std::uint64_t matmul_dma_bytes(const PlannedLayer& pl, const LayerSpec& spec,
                               const GemminiConfig& cfg);

/// The compiled plan for one model on one instantiation. Carries a copy of
/// the model so emission and re-runs are self-contained.
class Plan {
 public:
  explicit Plan(Model model) : model_(std::move(model)) {}

  const Model& model() const { return model_; }

  // ---- Compile record (filled by the pipeline stages) ----------------------
  std::string config;            ///< GemminiConfig::name
  std::string placement_policy;  ///< PlacementPolicy::name()
  std::string tiling_policy;     ///< TilingPolicy::name()
  bool functional = false;
  std::uint64_t seed = 1;
  /// SoC core whose address space the buffers were allocated in. Plans for
  /// cores other than 0 are per-core compile records (run_multicore builds
  /// one per core); Session::run(Plan) executes core-0 plans only.
  unsigned core = 0;

  VAddr input = 0;
  std::uint64_t input_bytes = 0;
  std::uint64_t weight_bytes = 0;  ///< useful (unpadded) weight+bias bytes

  /// One entry per model layer, aligned with Model::layers() indices.
  std::vector<PlannedLayer> layers;

  // ---- Inspection ----------------------------------------------------------
  /// Sum of the per-layer modeled DMA traffic.
  std::uint64_t modeled_dma_bytes() const;

  /// Deterministic JSON (stable key order; byte-identical for equal plans).
  std::string to_json(int indent = 0) const;

  // ---- Mutation ------------------------------------------------------------
  /// Overrides the staging tile of layer `layer` (which must lower to a
  /// matmul). The override's budget feasibility is checked at emission,
  /// via the same validate_tiles path manual tiles use; the layer's
  /// modeled DMA traffic is updated here so dumped plans stay consistent.
  void set_tile(std::size_t layer, TileShape tile, const GemminiConfig& cfg);

 private:
  Model model_;
};

}  // namespace gemmini::sim
