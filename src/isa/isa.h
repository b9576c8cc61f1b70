#pragma once
// Gemmini's RoCC-style ISA.
//
// The generated accelerator is driven by custom RISC-V instructions carrying
// two 64-bit operands (rs1, rs2) plus a funct field. We model the decoded
// form as a tagged struct for simulation speed, and provide encode()/decode()
// to the packed RoCC format for fidelity (round-trip tested).
//
// Local (scratchpad/accumulator) addresses follow the real encoding:
//   bit 31: accumulator space
//   bit 30: accumulate-on-write (accumulator only)
//   bits 29..0: row index
//   all-ones: "garbage" (operand absent)
//
// MVIN/MVOUT rs2 packs (rows << 48) | (cols << 32) | local_addr.

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"

namespace gemmini {

/// A 32-bit local address in the accelerator's private memories.
class LocalAddr {
 public:
  static constexpr std::uint32_t kGarbage = 0xFFFF'FFFFu;
  static constexpr std::uint32_t kAccBit = 1u << 31;
  static constexpr std::uint32_t kAccumulateBit = 1u << 30;
  static constexpr std::uint32_t kRowMask = (1u << 30) - 1;

  constexpr LocalAddr() : raw_(kGarbage) {}
  constexpr explicit LocalAddr(std::uint32_t raw) : raw_(raw) {}

  static constexpr LocalAddr garbage() { return LocalAddr(kGarbage); }
  static constexpr LocalAddr sp_row(std::uint32_t row) {
    return LocalAddr(row & kRowMask);
  }
  static constexpr LocalAddr acc_row(std::uint32_t row,
                                     bool accumulate = false) {
    return LocalAddr((row & kRowMask) | kAccBit |
                     (accumulate ? kAccumulateBit : 0u));
  }

  constexpr std::uint32_t raw() const { return raw_; }
  constexpr bool is_garbage() const { return raw_ == kGarbage; }
  constexpr bool is_acc() const {
    return !is_garbage() && (raw_ & kAccBit) != 0;
  }
  constexpr bool accumulate() const {
    return is_acc() && (raw_ & kAccumulateBit) != 0;
  }
  constexpr std::uint32_t row() const { return raw_ & kRowMask; }

  friend constexpr bool operator==(LocalAddr a, LocalAddr b) {
    return a.raw_ == b.raw_;
  }

 private:
  std::uint32_t raw_;
};

enum class Opcode : std::uint8_t {
  kConfigEx,
  kConfigLd,
  kConfigSt,
  kMvin,
  kMvout,
  kPreload,
  kComputePreloaded,   ///< matmul using the tile latched by PRELOAD
  kComputeAccumulated, ///< matmul reusing the previously latched tile
  kFence,
  kFlush,              ///< TLB flush (context switch)
};

const char* opcode_name(Opcode op);

/// Decoded instruction. One struct (not a variant) keeps the hot loop simple
/// and the program representation compact; unused fields are zero. Fields
/// are laid out widest first so the struct packs into 48 bytes — a lowered
/// program holds one per command, and serve calibration keeps several
/// programs alive at once.
struct Instruction {
  // 64-bit operands.
  VAddr dram_addr = 0;             ///< MVIN / MVOUT
  std::uint64_t stride_bytes = 0;  ///< CONFIG_LD / CONFIG_ST

  // Local addresses: MVIN/MVOUT, PRELOAD B / COMPUTE A, then the second
  // operand (PRELOAD C / COMPUTE D).
  LocalAddr local = LocalAddr::garbage();
  LocalAddr local2 = LocalAddr::garbage();
  float ld_scale = 1.0f;  ///< CONFIG_LD

  // Operand dimensions.
  std::uint16_t rows = 0;
  std::uint16_t cols = 0;
  std::uint16_t rows2 = 0;
  std::uint16_t cols2 = 0;
  std::uint16_t pool_window = 0;  ///< CONFIG_ST (0 = off)
  std::uint16_t pool_stride = 0;  ///< CONFIG_ST

  Opcode op = Opcode::kFence;
  std::uint8_t ld_channel = 0;  ///< which CONFIG_LD stride applies (0..2)
  Dataflow dataflow = Dataflow::kWeightStationary;  ///< CONFIG_EX
  Activation activation = Activation::kNone;        ///< CONFIG_EX
  std::uint8_t out_shift = 0;                       ///< CONFIG_EX
  bool a_transpose = false;  ///< CONFIG_EX (transposer)
  bool ld_int4 = false;      ///< CONFIG_LD (packed int4)

  std::string to_string() const;
};
static_assert(sizeof(Instruction) == 48,
              "Instruction grew: keep its fields ordered widest first");

/// Builder helpers — the runtime uses these to emit programs.
Instruction make_config_ex(Dataflow df, Activation act, unsigned out_shift,
                           bool a_transpose = false);
/// `int4` marks the channel as moving packed int4 data: DRAM rows are
/// (cols+1)/2 bytes of two-nibble pairs, sign-extended to int8 on the way
/// into the scratchpad (dequant-on-mvin).
Instruction make_config_ld(std::uint64_t stride_bytes, float scale = 1.0f,
                           unsigned channel = 0, bool int4 = false);
Instruction make_config_st(std::uint64_t stride_bytes,
                           unsigned pool_window = 0, unsigned pool_stride = 0);
Instruction make_mvin(VAddr dram, LocalAddr dst, unsigned rows, unsigned cols,
                      unsigned channel = 0);
Instruction make_mvout(VAddr dram, LocalAddr src, unsigned rows,
                       unsigned cols);
Instruction make_preload(LocalAddr b, LocalAddr c, unsigned b_rows,
                         unsigned b_cols, unsigned c_rows, unsigned c_cols);
Instruction make_compute(LocalAddr a, LocalAddr d, unsigned a_rows,
                         unsigned a_cols, unsigned d_rows, unsigned d_cols,
                         bool preloaded);
Instruction make_fence();
Instruction make_flush();

using Program = std::vector<Instruction>;

/// Packed RoCC form: funct7-style selector plus two 64-bit register operands.
struct RoccCommand {
  std::uint8_t funct = 0;
  std::uint64_t rs1 = 0;
  std::uint64_t rs2 = 0;
};

/// Encodes to / decodes from the packed RoCC format. Round-trip preserving
/// for all instruction kinds (tested in tests/isa_test.cc).
RoccCommand encode(const Instruction& inst);
Instruction decode(const RoccCommand& cmd);

/// Human-readable disassembly of a whole program.
std::string disassemble(const Program& prog);

}  // namespace gemmini
