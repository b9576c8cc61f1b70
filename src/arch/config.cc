#include "src/arch/config.h"

namespace gemmini {

void GemminiConfig::validate() const {
  GEMMINI_CONFIG_REQUIRE(array.mesh_rows > 0 && array.mesh_cols > 0 &&
                             array.tile_rows > 0 && array.tile_cols > 0,
                         "spatial array dimensions must be positive");
  GEMMINI_CONFIG_REQUIRE(array.dim_rows() == array.dim_cols(),
                         "runtime requires a square spatial array, got "
                             << array.dim_rows() << "x" << array.dim_cols());
  GEMMINI_CONFIG_REQUIRE(sp_banks > 0 && acc_banks > 0,
                         "need at least one scratchpad/accumulator bank");
  GEMMINI_CONFIG_REQUIRE(sp_capacity_bytes % (sp_banks * sp_row_bytes()) == 0,
                         "scratchpad capacity must divide evenly into banks "
                         "of whole rows");
  GEMMINI_CONFIG_REQUIRE(acc_capacity_bytes % acc_row_bytes() == 0,
                         "accumulator capacity must hold whole rows");
  GEMMINI_CONFIG_REQUIRE(sp_rows() >= 4ull * dim(),
                         "scratchpad too small: need at least 4*dim rows");
  GEMMINI_CONFIG_REQUIRE(acc_rows() >= dim(),
                         "accumulator must hold at least one dim x dim tile");
  GEMMINI_CONFIG_REQUIRE(dma_max_inflight > 0, "DMA needs inflight slots");
  GEMMINI_CONFIG_REQUIRE(dma_req_bytes >= sp_row_bytes() ||
                             sp_row_bytes() % dma_req_bytes == 0 ||
                             dma_req_bytes % sp_row_bytes() == 0,
                         "DMA request size and row size must tile evenly");
  GEMMINI_CONFIG_REQUIRE(rob_entries > 0, "ROB needs entries");
  GEMMINI_CONFIG_REQUIRE(clock_ghz > 0, "clock must be positive");
  translation.private_tlb.validate();
  if (translation.l2_tlb.entries > 0) {
    translation.l2_tlb.validate();
  }
}

GemminiConfig GemminiConfig::paper_default() {
  GemminiConfig cfg;
  cfg.name = "paper-default-16x16";
  cfg.array = SpatialArrayGeometry{16, 16, 1, 1};
  cfg.validate();
  return cfg;
}

GemminiConfig GemminiConfig::systolic_16x16() {
  GemminiConfig cfg = paper_default();
  cfg.name = "systolic-16x16";
  return cfg;
}

GemminiConfig GemminiConfig::vector_16x16() {
  GemminiConfig cfg;
  cfg.name = "vector-1x16-of-16x1";
  // 16 parallel vector engines, each a 16-deep combinational MAC chain.
  cfg.array = SpatialArrayGeometry{.mesh_rows = 1,
                                   .mesh_cols = 16,
                                   .tile_rows = 16,
                                   .tile_cols = 1};
  cfg.validate();
  return cfg;
}

GemminiConfig GemminiConfig::edge() {
  GemminiConfig cfg = paper_default();
  cfg.name = "edge-16x16";
  cfg.translation.private_tlb.entries = 4;
  cfg.translation.l2_tlb.entries = 0;
  cfg.validate();
  return cfg;
}

GemminiConfig GemminiConfig::big_sp() {
  GemminiConfig cfg = paper_default();
  cfg.name = "big-sp-16x16";
  cfg.sp_capacity_bytes = 512 * 1024;
  cfg.acc_capacity_bytes = 512 * 1024;
  cfg.validate();
  return cfg;
}

}  // namespace gemmini
