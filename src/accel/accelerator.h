#pragma once
// The generated accelerator (Fig. 1), cycle-level.
//
// A three-pipeline controller (load / execute / store) walks the RoCC
// program in order, issuing each data instruction through one routine as
// soon as (a) its pipeline is free, (b) its operand rows clear RAW/WAR/WAW
// hazards (each LocalMemory keeps its rows' hazard timelines), and (c) a
// ROB slot is available. The unit's Occupancy then frees the pipe and the
// source rows at `free_at` and retires the instruction at `done_at`.
// Independent loads, computes and stores therefore overlap — the
// double-buffering emitted by the runtime turns into real latency hiding,
// exactly as in the RTL's dependency-managed queues.
//
// The accelerator supports incremental stepping so multiple accelerators can
// co-simulate against one shared memory system (multi-core SoCs, Fig. 9).

#include <array>
#include <cstdint>
#include <memory>

#include "src/accel/accumulator.h"
#include "src/accel/dma.h"
#include "src/accel/exec_unit.h"
#include "src/arch/config.h"
#include "src/isa/isa.h"
#include "src/mem/memsys.h"
#include "src/trace/trace.h"
#include "src/vm/ptw.h"
#include "src/vm/translation.h"

namespace gemmini {

/// Aggregate performance report for a program (or accumulated across many):
/// the accelerator controller's own counts, zeroed by reset_stats().
struct AccelReport {
  Cycle finish = 0;            ///< completion of everything issued
  std::uint64_t instructions = 0;
  std::uint64_t macs = 0;
  std::uint64_t tiles = 0;     ///< COMPUTE instructions retired
  Cycle load_busy = 0;
  Cycle exec_busy = 0;
  Cycle store_busy = 0;

  double utilization(const GemminiConfig& cfg, Cycle span) const {
    const double peak = static_cast<double>(cfg.array.num_pes()) *
                        static_cast<double>(span);
    return peak == 0 ? 0.0 : static_cast<double>(macs) / peak;
  }

  friend bool operator==(const AccelReport&, const AccelReport&) = default;
};

class Accelerator {
 public:
  /// `ptw` is shared SoC-wide (single walker, as in the paper's edge SoC).
  /// `obs` reaches every owned unit (SRAMs, translation, DMA, exec);
  /// `obs.trace` also receives instruction-level spans (MVIN/MVOUT,
  /// preloads, compute tiles).
  Accelerator(const GemminiConfig& cfg, MemorySystem& mem,
              PageTableWalker& ptw, RequestorId requestor, Observers obs = {});

  // The owned DMA and exec units hold references to sibling members.
  Accelerator(const Accelerator&) = delete;
  Accelerator& operator=(const Accelerator&) = delete;

  /// Functional mode moves real data through PhysMem; timing mode moves only
  /// time (used for full-DNN benchmark sweeps).
  void set_functional(bool functional) { functional_ = functional; }
  bool functional() const { return functional_; }

  // ---- Stepping interface (multi-core co-simulation) ----------------------
  /// Begin executing `prog` against `as`, no earlier than cycle `t`.
  /// The program and address space must outlive the run.
  void start(const Program* prog, const AddressSpace* as, Cycle t);
  bool done() const { return prog_ == nullptr || pc_ >= prog_size_; }
  /// Executes exactly one instruction; no-op when done.
  void step();
  /// Earliest time the *next* instruction could issue (scheduling hint).
  Cycle next_issue_hint() const;
  /// Completion frontier of everything issued so far.
  Cycle frontier() const { return frontier_; }

  // ---- Convenience ---------------------------------------------------------
  /// Runs a whole program; returns its completion cycle.
  Cycle run(const Program& prog, const AddressSpace& as, Cycle start_at = 0);

  // ---- Introspection --------------------------------------------------------
  const GemminiConfig& config() const { return cfg_; }
  Scratchpad& scratchpad() { return sp_; }
  const Scratchpad& scratchpad() const { return sp_; }
  Accumulator& accumulator() { return acc_; }
  const Accumulator& accumulator() const { return acc_; }
  DmaEngine& dma() { return dma_; }
  const DmaEngine& dma() const { return dma_; }
  TranslationSystem& translation() { return translation_; }
  const TranslationSystem& translation() const { return translation_; }
  const AccelReport& report() const { return report_; }

  /// Zeroes the report and the counts of every owned unit (SRAMs, DMA,
  /// translation).
  void reset_stats();

  /// Reset all *timing* state between independent experiments (keeps
  /// functional memories).
  void reset_time();

 private:
  /// One pipeline: when it can issue next, and the report counter its
  /// occupancy adds to.
  struct Pipe {
    Cycle free = 0;
    Cycle AccelReport::*busy;
  };
  /// Index into pipes_ of the pipeline `op` issues on; kNoPipe for CONFIG,
  /// FENCE and FLUSH.
  enum PipeIndex : std::size_t { kLoadPipe, kExecPipe, kStorePipe, kNoPipe };
  static PipeIndex pipe_of(Opcode op);

  /// A local-memory range an instruction reads or writes (`mem` null: none,
  /// e.g. a garbage address).
  struct Operand {
    LocalMemory* mem = nullptr;
    std::uint64_t row = 0;
    std::uint64_t rows = 0;
    bool write = false;
  };
  using Operands = std::array<Operand, 3>;

  void exec_one(const Instruction& inst);
  /// Issues a data instruction: gates on its pipe, operand hazards and the
  /// ROB, runs `unit(start) -> Occupancy`, then applies the hazard rule
  /// (local_memory.h), adds the busy cycles, traces `kind` over
  /// [start, done_at] with `trace_arg` and retires at done_at.
  template <typename Unit>
  void issue(const Instruction& inst, trace::EventKind kind,
             const Operands& ops, std::uint64_t trace_arg, Unit unit);
  Cycle rob_gate(Cycle start);
  void retire(Cycle end);

  GemminiConfig cfg_;
  trace::Tracer* tracer_;
  bool functional_ = true;

  Scratchpad sp_;
  Accumulator acc_;
  TranslationSystem translation_;
  DmaEngine dma_;
  ExecUnit exec_;

  // CONFIG state (program order).
  struct LdChannel {
    std::uint64_t stride = 0;
    float scale = 1.0f;
    bool int4 = false;
  };
  std::array<LdChannel, 3> ld_{};
  std::uint64_t st_stride_ = 0;
  ExConfigState ex_state_{};

  // Pipeline timelines (load, execute, store), indexed by pipe_of().
  std::array<Pipe, kNoPipe> pipes_{{{0, &AccelReport::load_busy},
                                    {0, &AccelReport::exec_busy},
                                    {0, &AccelReport::store_busy}}};
  Cycle frontier_ = 0;

  // ROB occupancy: completion times of in-flight instructions (ring).
  std::vector<Cycle> rob_;
  std::size_t rob_head_ = 0;

  // Current program.
  const Program* prog_ = nullptr;
  const AddressSpace* as_ = nullptr;
  std::size_t pc_ = 0;
  std::size_t prog_size_ = 0;
  Cycle start_at_ = 0;

  AccelReport report_;
};

}  // namespace gemmini
