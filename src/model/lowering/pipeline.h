#pragma once
// The staged lowering pipeline: the push-button compiler behind
// `sim::Session`.
//
//     Model ──placement──▶ targets ──tiling──▶ tiles ──allocation──▶ Plan
//                                                                      │
//                                   WorkStream ◀────────emission───────┘
//
// `build_plan` runs the first three phases against pluggable policies and
// returns the sim::Plan compile record; `emit_stream` (emission.h) turns a
// plan into the runnable WorkStream. `compile` is the one-shot composition
// of the two. Each phase is also callable on its own (placement.h /
// tiling.h / allocation.h) for tools that want to intercept the pipeline
// mid-flight.

#include <memory>

#include "src/arch/config.h"
#include "src/cpu/cost_model.h"
#include "src/model/lowering/allocation.h"
#include "src/model/lowering/emission.h"
#include "src/model/lowering/placement.h"
#include "src/model/lowering/policy.h"
#include "src/model/lowering/tiling.h"
#include "src/sim/plan.h"
#include "src/vm/page_table.h"

namespace gemmini::lowering {

struct PipelineOptions {
  /// Functional mode: lowering materializes real int8 weights/inputs (and
  /// the SoC moves real data). Timing-only (the default) moves only time.
  bool functional = false;
  /// Seed for functional-mode weight/input initialization.
  std::uint64_t seed = 1;
  /// nullptr = DefaultPlacement / HeuristicTiling (the paper's heuristics;
  /// golden cycle counts are pinned against these defaults).
  std::shared_ptr<const PlacementPolicy> placement;
  std::shared_ptr<const TilingPolicy> tiling;
};

/// Phases 1-3: placement -> tiling -> allocation. Allocates (and, in
/// functional mode, materializes) every buffer in `as` immediately.
sim::Plan build_plan(const Model& model, const GemminiConfig& cfg,
                     AddressSpace& as, const PipelineOptions& opts = {});

/// The whole pipeline: build_plan + emit_stream.
LoweredModel compile(const Model& model, const GemminiConfig& cfg,
                     const CpuCostModel& cpu, AddressSpace& as,
                     const PipelineOptions& opts = {});

}  // namespace gemmini::lowering
