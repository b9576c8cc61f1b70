#pragma once
// Cycle-level timing model of the two-level spatial array (paper Fig. 2).
//
// Throughput is one input row per cycle regardless of tile decomposition —
// the tile/PE split trades *clock frequency and area* (see estimate/) against
// pipelining, not cycles-per-operation. What the cycle model captures:
//
//  * WS (weight stationary): PRELOAD streams the K x N weight tile into the
//    array in K cycles; COMPUTE streams M rows of A through in M cycles.
//  * OS (output stationary): partial sums stay in the PEs; COMPUTE streams
//    the K-deep reduction through in K cycles.
//  * Fill and drain, in both dataflows: every compute.preloaded (after a
//    fresh PRELOAD) adds mesh_rows + mesh_cols cycles; a compute.accumulated
//    streams into the already-full pipeline and adds none. The execute unit
//    returns all of it as occupancy (free_at == done_at).
//  * Sub-tile operands (M, K or N < dim) still occupy the whole array for
//    the same latency — this under-utilization is what makes depthwise
//    convolutions map poorly (the paper's MobileNetV2 discussion).

#include <algorithm>

#include "src/arch/config.h"
#include "src/base/status.h"
#include "src/base/types.h"

namespace gemmini {

class SpatialArrayModel {
 public:
  explicit SpatialArrayModel(const GemminiConfig& cfg) : cfg_(cfg) {}

  /// Cycles for PRELOAD of a K x N weight tile (K rows stream in).
  Cycle preload_cycles(unsigned k_rows) const {
    GEMMINI_CHECK(k_rows <= cfg_.array.dim_rows());
    // Streaming K rows; at least one cycle even for a zero preload
    // (clearing the stationary registers).
    return std::max<Cycle>(1, k_rows);
  }

  /// Cycles for a COMPUTE of A (m_rows x k) against the preloaded tile.
  /// `pipelined` is true for compute.accumulated instructions: the weight
  /// tile is unchanged, so rows stream into an already-full pipeline and no
  /// fill/drain is charged (the RTL's back-to-back throughput). A fresh
  /// PRELOAD (compute.preloaded) drains and refills the array.
  Cycle compute_cycles(Dataflow df, unsigned m_rows, unsigned k_depth,
                       bool pipelined = false) const {
    const unsigned fill =
        pipelined ? 0 : cfg_.array.mesh_rows + cfg_.array.mesh_cols;
    switch (df) {
      case Dataflow::kWeightStationary:
        // M rows of A stream through.
        return std::max<Cycle>(1, m_rows) + fill;
      case Dataflow::kOutputStationary:
        // K-deep reduction streams through; outputs stay resident.
        return std::max<Cycle>(1, k_depth) + fill;
      case Dataflow::kBoth:
        GEMMINI_CHECK_MSG(false, "compute_cycles needs a concrete dataflow");
    }
    return 0;
  }

  /// Peak MACs per cycle.
  std::uint64_t peak_macs_per_cycle() const { return cfg_.array.num_pes(); }

  /// Utilization of one compute instruction: useful MACs / (PEs * cycles).
  double utilization(Dataflow df, unsigned m, unsigned k, unsigned n,
                     bool pipelined = false) const {
    const double useful = static_cast<double>(m) * k * n;
    const double occupied =
        static_cast<double>(peak_macs_per_cycle()) *
        static_cast<double>(compute_cycles(df, m, k, pipelined));
    return occupied == 0 ? 0.0 : useful / occupied;
  }

 private:
  const GemminiConfig& cfg_;
};

}  // namespace gemmini
