#pragma once
// GemminiConfig — the generator's architectural template (paper §III-A).
//
// The spatial array is a two-level hierarchy: a mesh of *tiles* connected
// through pipeline registers, where each tile is a rectangular array of
// *PEs* connected combinationally (Fig. 2). mesh=16x16 with 1x1 tiles gives
// the fully-pipelined TPU-like systolic array; mesh=1x16 with 16x1 tiles
// gives NVDLA-like parallel vector engines (MAC reduction chains); anything
// in between is legal (Fig. 3).
//
// The template also covers datatypes (int8 inference / fp32 training),
// dataflow (weight- or output-stationary, design- or run-time selected),
// scratchpad/accumulator geometry, the optional peripheral blocks (im2col,
// pooling, transposer), DMA parameters, and the virtual-address translation
// system of §V-A.

#include <cstdint>
#include <string>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/vm/translation.h"

namespace gemmini {

struct SpatialArrayGeometry {
  unsigned mesh_rows = 16;
  unsigned mesh_cols = 16;
  unsigned tile_rows = 1;
  unsigned tile_cols = 1;

  unsigned dim_rows() const { return mesh_rows * tile_rows; }
  unsigned dim_cols() const { return mesh_cols * tile_cols; }
  unsigned num_pes() const { return dim_rows() * dim_cols(); }
  unsigned num_tiles() const { return mesh_rows * mesh_cols; }
  /// Longest combinational MAC chain inside a tile — sets the critical path.
  unsigned chain_length() const {
    return tile_rows > tile_cols ? tile_rows : tile_cols;
  }
};

struct GemminiConfig {
  std::string name = "gemmini";

  SpatialArrayGeometry array{};
  Dataflow dataflow = Dataflow::kBoth;
  DType dtype = DType::kInt8;

  // Local memories (explicitly managed; Fig. 1).
  std::uint64_t sp_capacity_bytes = 256 * 1024;
  unsigned sp_banks = 4;
  std::uint64_t acc_capacity_bytes = 64 * 1024;
  unsigned acc_banks = 2;

  // Optional peripheral compute blocks.
  bool has_im2col = false;     ///< on-the-fly im2col unit (Fig. 7 study)
  bool has_pooling = true;     ///< max-pooling engine
  bool has_transposer = true;  ///< needed for A^T in OS dataflow
  bool has_activations = true; ///< ReLU / ReLU6 + bitshift block

  // DMA engine. The RTL's reservation station holds 16 in-flight *mvin/
  // mvout entries*, each of which can have all of its (up to dim) row
  // requests outstanding on TileLink — so the request-level window is
  // entries x rows.
  unsigned dma_max_inflight = 64;  ///< outstanding memory requests
  unsigned dma_req_bytes = 64;     ///< request granularity (one L2 line)

  // ROB / issue queues in the controller.
  unsigned rob_entries = 16;

  // Virtual-address translation (private TLB, optional shared L2 TLB, PTW).
  TranslationConfig translation{};

  double clock_ghz = 1.0;  ///< the paper evaluates at 1 GHz

  // ---- Derived quantities ------------------------------------------------
  std::size_t input_bytes() const { return dtype_bytes(dtype); }
  std::size_t acc_bytes() const { return acc_dtype_bytes(dtype); }

  /// Square tile dimension used by the runtime's data staging. Gemmini's
  /// software stack assumes DIM x DIM blocks.
  unsigned dim() const { return array.dim_rows(); }

  /// Scratchpad rows: each row holds dim() input elements.
  std::uint64_t sp_rows() const {
    return sp_capacity_bytes / (dim() * input_bytes());
  }
  std::uint64_t sp_bank_rows() const { return sp_rows() / sp_banks; }

  /// Accumulator rows: each row holds dim() accumulator elements.
  std::uint64_t acc_rows() const {
    return acc_capacity_bytes / (dim() * acc_bytes());
  }

  std::uint64_t sp_row_bytes() const { return dim() * input_bytes(); }
  std::uint64_t acc_row_bytes() const { return dim() * acc_bytes(); }

  void validate() const;

  // ---- Presets (the configurations used in the paper) --------------------
  /// 16x16 systolic, 256 KB scratchpad, 64 KB accumulator — Fig. 6 config.
  static GemminiConfig paper_default();
  /// TPU-like: fully pipelined 16x16 mesh of 1x1 tiles (Fig. 3 left).
  static GemminiConfig systolic_16x16();
  /// NVDLA-like: 1x16 mesh of 16x1 combinational tiles (Fig. 3 right).
  static GemminiConfig vector_16x16();
  /// Low-power edge config of §V-A (16x16 mesh, 256 KB sp, 1 PTW).
  static GemminiConfig edge();
  /// Fig. 9 "BigSP": doubled scratchpad + accumulator.
  static GemminiConfig big_sp();
};

}  // namespace gemmini
