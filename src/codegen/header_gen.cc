#include "src/codegen/header_gen.h"

#include <fstream>
#include <sstream>

#include "src/base/status.h"

namespace gemmini {

std::string generate_params_header(const GemminiConfig& cfg) {
  cfg.validate();
  std::ostringstream oss;
  oss << "// Auto-generated by the Gemmini generator for configuration '"
      << cfg.name << "'.\n"
      << "// Do not edit; regenerate with gemmini::write_params_header().\n"
      << "#ifndef GEMMINI_PARAMS_H\n"
      << "#define GEMMINI_PARAMS_H\n\n"
      << "#include <stdint.h>\n\n"
      << "#define DIM " << cfg.dim() << "\n"
      << "#define ADDR_LEN 32\n"
      << "#define BANK_NUM " << cfg.sp_banks << "\n"
      << "#define BANK_ROWS " << cfg.sp_bank_rows() << "\n"
      << "#define ACC_ROWS " << cfg.acc_rows() << "\n"
      << "#define MAX_BYTES 64\n"
      << "#define MAX_BLOCK_LEN (MAX_BYTES / (DIM * "
      << cfg.input_bytes() << "))\n\n"
      << "#define MESH_ROWS " << cfg.array.mesh_rows << "\n"
      << "#define MESH_COLS " << cfg.array.mesh_cols << "\n"
      << "#define TILE_ROWS " << cfg.array.tile_rows << "\n"
      << "#define TILE_COLS " << cfg.array.tile_cols << "\n\n";

  if (cfg.dtype == DType::kInt8) {
    oss << "typedef int8_t elem_t;\n"
        << "#define ELEM_T_IS_FLOAT 0\n"
        << "typedef int32_t acc_t;\n"
        << "typedef int64_t full_t;\n";
  } else {
    oss << "typedef float elem_t;\n"
        << "#define ELEM_T_IS_FLOAT 1\n"
        << "typedef float acc_t;\n"
        << "typedef double full_t;\n";
  }
  oss << "\n#define HAS_MVIN_SCALE 1\n"
      << "#define HAS_IM2COL " << (cfg.has_im2col ? 1 : 0) << "\n"
      << "#define HAS_POOLING " << (cfg.has_pooling ? 1 : 0) << "\n"
      << "#define HAS_TRANSPOSER " << (cfg.has_transposer ? 1 : 0) << "\n"
      << "#define HAS_ACTIVATIONS " << (cfg.has_activations ? 1 : 0) << "\n\n"
      << "#define DATAFLOW_WS "
      << (cfg.dataflow != Dataflow::kOutputStationary ? 1 : 0) << "\n"
      << "#define DATAFLOW_OS "
      << (cfg.dataflow != Dataflow::kWeightStationary ? 1 : 0) << "\n\n"
      << "#define ROB_ENTRIES " << cfg.rob_entries << "\n"
      << "#define DMA_MAX_INFLIGHT " << cfg.dma_max_inflight << "\n"
      << "#define TLB_ENTRIES " << cfg.translation.private_tlb.entries
      << "\n"
      << "#define L2_TLB_ENTRIES " << cfg.translation.l2_tlb.entries << "\n"
      << "#define HAS_TLB_FILTER_REGS "
      << (cfg.translation.filter_registers ? 1 : 0) << "\n\n"
      << "#endif  // GEMMINI_PARAMS_H\n";
  return oss.str();
}

void write_params_header(const GemminiConfig& cfg, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw RuntimeError("cannot write header to " + path);
  f << generate_params_header(cfg);
}

}  // namespace gemmini
