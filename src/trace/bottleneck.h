#pragma once
// Bottleneck attribution: folds a recorded trace into a per-layer table
// that answers "where did this layer's cycles actually go?".
//
// Each layer's wall-clock span (the union of its WorkStep spans on the
// traced core) is decomposed into DISJOINT components:
//
//   cpu          host-CPU-resident work (im2col, special ops, dispatch)
//   compute      spatial-array preloads + compute tiles
//   translation  TLB-miss resolution and page walks
//   dram         DRAM bank access windows (row hits + misses)
//   bus_wait     stalled waiting for a bus grant (contention)
//   dma          remaining DMA streaming time (bus occupancy, line hits)
//   other        everything uncovered: dispatch gaps, hazard stalls,
//                local-SRAM reserve conflicts
//
// Overlapping activity is resolved by that priority order (while the array
// computes, concurrent DMA is latency-hidden and therefore *not* the
// bottleneck), so the components always sum EXACTLY to the span — a
// property tests assert, and what makes rows comparable across layers.
//
// Each row also cross-references estimate/roofline.h: measured MACs/cycle
// over the span vs. the roofline-attainable rate at the layer's modeled
// arithmetic intensity, so a glance separates "running at the roof" from
// "leaving performance on the table".

#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/config.h"
#include "src/mem/memsys.h"
#include "src/sim/plan.h"
#include "src/trace/trace.h"

namespace gemmini::trace {

struct LayerBottleneck {
  std::size_t layer = 0;  ///< Model layer index
  std::string name;       ///< LayerSpec::name
  std::string kind;       ///< layer_kind_name
  std::string tag;        ///< Fig. 9 accounting tag

  Cycle span = 0;  ///< wall-clock cycles the layer occupied its core

  // Disjoint decomposition; sums exactly to `span`.
  Cycle cpu = 0;
  Cycle compute = 0;
  Cycle translation = 0;
  Cycle dram = 0;
  Cycle bus_wait = 0;
  Cycle dma = 0;
  Cycle other = 0;

  // Roofline cross-reference.
  std::uint64_t macs = 0;
  std::uint64_t dma_bytes = 0;  ///< modeled DRAM traffic (from the plan)
  double measured_macs_per_cycle = 0;
  double attainable_macs_per_cycle = 0;
  bool memory_bound = false;

  /// The components, largest first, as (name, cycles) pairs. `other` is
  /// included; zero components are skipped.
  std::vector<std::pair<std::string, Cycle>> top_components() const;

  friend bool operator==(const LayerBottleneck&, const LayerBottleneck&) =
      default;
};

struct BottleneckReport {
  std::vector<LayerBottleneck> layers;  ///< only layers that ran (span > 0)
  std::uint64_t dropped_events = 0;     ///< ring overflow; >0 means the
                                        ///< earliest layers may be partial

  /// Human-readable table (one row per layer, top-3 components named).
  std::string to_string() const;

  friend bool operator==(const BottleneckReport&, const BottleneckReport&) =
      default;
};

/// Attributes `events` (record order, as snapshotted from a Tracer) for the
/// layers of `plan`, on core `core`. `accel`/`mem` parameterize the
/// roofline cross-reference; `dropped` is the Tracer's overflow count.
BottleneckReport attribute_bottlenecks(const std::vector<TraceEvent>& events,
                                       const sim::Plan& plan,
                                       const GemminiConfig& accel,
                                       const MemSysConfig& mem,
                                       unsigned core = 0,
                                       std::uint64_t dropped = 0);

}  // namespace gemmini::trace
