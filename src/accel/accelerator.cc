#include "src/accel/accelerator.h"

#include <algorithm>

namespace gemmini {

Accelerator::Accelerator(const GemminiConfig& cfg, MemorySystem& mem,
                         PageTableWalker& ptw, RequestorId requestor,
                         Observers obs)
    : cfg_(cfg),
      tracer_(obs.trace),
      sp_(cfg_, obs),
      acc_(cfg_, obs),
      translation_(cfg_.translation, ptw, obs),
      dma_(cfg_, mem, translation_, sp_, acc_, requestor, obs),
      exec_(cfg_, sp_, acc_, obs),
      rob_(cfg_.rob_entries, 0) {
  cfg_.validate();
}

void Accelerator::start(const Program* prog, const AddressSpace* as,
                        Cycle t) {
  GEMMINI_CHECK_MSG(done(), "previous program still running");
  prog_ = prog;
  as_ = as;
  pc_ = 0;
  prog_size_ = prog == nullptr ? 0 : prog->size();
  start_at_ = t;
  for (const Pipe& p : pipes_) start_at_ = std::max(start_at_, p.free);
}

Accelerator::PipeIndex Accelerator::pipe_of(Opcode op) {
  switch (op) {
    case Opcode::kMvin: return kLoadPipe;
    case Opcode::kPreload:
    case Opcode::kComputePreloaded:
    case Opcode::kComputeAccumulated: return kExecPipe;
    case Opcode::kMvout: return kStorePipe;
    default: return kNoPipe;
  }
}

Cycle Accelerator::next_issue_hint() const {
  if (done()) return kCycleMax;
  const PipeIndex p = pipe_of((*prog_)[pc_].op);
  return p == kNoPipe ? start_at_ : std::max(start_at_, pipes_[p].free);
}

Cycle Accelerator::rob_gate(Cycle start) {
  // The instruction occupying the reused ROB slot must have completed.
  return std::max(start, rob_[rob_head_]);
}

void Accelerator::retire(Cycle end) {
  rob_[rob_head_] = end;
  rob_head_ = (rob_head_ + 1) % rob_.size();
  frontier_ = std::max(frontier_, end);
  ++report_.instructions;
}

void Accelerator::step() {
  if (done()) return;
  exec_one((*prog_)[pc_]);
  ++pc_;
  if (pc_ >= prog_size_) {
    prog_ = nullptr;  // never dangle past the end of a program
    as_ = nullptr;
  }
}

Cycle Accelerator::run(const Program& prog, const AddressSpace& as,
                       Cycle start_cycle) {
  start(&prog, &as, start_cycle);
  while (!done()) step();
  return frontier_;
}

template <typename Unit>
void Accelerator::issue(const Instruction& inst, trace::EventKind kind,
                        const Operands& ops, std::uint64_t trace_arg,
                        Unit unit) {
  Pipe& pipe = pipes_[pipe_of(inst.op)];
  Cycle start = std::max(start_at_, pipe.free);
  for (const Operand& o : ops) {
    if (o.mem == nullptr) continue;
    start = std::max(start, o.write ? o.mem->write_ready(o.row, o.rows)
                                    : o.mem->read_ready(o.row, o.rows));
  }
  start = rob_gate(start);
  const Occupancy occ = unit(start);
  for (const Operand& o : ops) {
    if (o.mem == nullptr) continue;
    if (o.write) {
      o.mem->record_write(o.row, o.rows, occ);
    } else {
      o.mem->record_read(o.row, o.rows, occ);
    }
  }
  pipe.free = occ.free_at;
  report_.*pipe.busy += occ.free_at - start;
  if (tracer_) tracer_->span(kind, start, occ.done_at, trace_arg);
  retire(occ.done_at);
}

void Accelerator::exec_one(const Instruction& inst) {
  // Operand builders: a garbage address names no operand. A and B always
  // come from the scratchpad (as ExecUnit reads them); MVIN/MVOUT rows, D
  // and C name their memory.
  auto sp = [&](LocalAddr a, std::uint64_t rows) {
    return a.is_garbage() ? Operand{} : Operand{&sp_, a.row(), rows, false};
  };
  auto local = [&](LocalAddr a, std::uint64_t rows, bool write) {
    return a.is_garbage()
               ? Operand{}
               : Operand{&local_memory(a, sp_, acc_), a.row(), rows, write};
  };
  // MVIN and MVOUT trace their payload bytes.
  const std::uint64_t bytes =
      std::uint64_t{inst.rows} * inst.cols * cfg_.input_bytes();
  switch (inst.op) {
    case Opcode::kConfigEx: {
      ex_state_.dataflow = inst.dataflow;
      ex_state_.activation = inst.activation;
      ex_state_.out_shift = inst.out_shift;
      ex_state_.a_transpose = inst.a_transpose;
      GEMMINI_CHECK_MSG(
          cfg_.dataflow == Dataflow::kBoth || cfg_.dataflow == inst.dataflow,
          "dataflow not supported by this instantiation");
      break;
    }
    case Opcode::kConfigLd: {
      ld_[inst.ld_channel].stride = inst.stride_bytes;
      ld_[inst.ld_channel].scale = inst.ld_scale;
      ld_[inst.ld_channel].int4 = inst.ld_int4;
      break;
    }
    case Opcode::kConfigSt: {
      st_stride_ = inst.stride_bytes;
      break;
    }
    case Opcode::kMvin: {
      // The load pipe frees as soon as the last request has issued (the DMA
      // is pipelined across MVINs); dependents wait for the data.
      const auto& ch = ld_[inst.ld_channel];
      issue(inst, trace::EventKind::kMvin,
            {local(inst.local, inst.rows, true)}, bytes, [&](Cycle start) {
              return dma_.mvin(*as_, inst.dram_addr, ch.stride, ch.scale,
                               inst.local, inst.rows, inst.cols, start,
                               functional_, ch.int4);
            });
      break;
    }
    case Opcode::kMvout: {
      // Local rows are free for reuse once read into the store stream; the
      // DRAM write drains in the background (but FENCE waits for it).
      issue(inst, trace::EventKind::kMvout,
            {local(inst.local, inst.rows, false)}, bytes, [&](Cycle start) {
              return dma_.mvout(*as_, inst.dram_addr, st_stride_, inst.local,
                                inst.rows, inst.cols, ex_state_.out_shift,
                                ex_state_.activation, start, functional_);
            });
      break;
    }
    case Opcode::kPreload: {
      issue(inst, trace::EventKind::kPreload, {sp(inst.local, inst.rows)}, 0,
            [&](Cycle start) {
              return exec_.preload(inst, start, functional_);
            });
      break;
    }
    case Opcode::kComputePreloaded:
    case Opcode::kComputeAccumulated: {
      const std::uint64_t macs = exec_.macs(inst);
      report_.macs += macs;
      ++report_.tiles;
      issue(inst, trace::EventKind::kTile,
            {sp(inst.local, inst.rows), local(inst.local2, inst.rows2, false),
             local(exec_.c_dest(), exec_.c_rows(inst), true)},
            macs, [&](Cycle start) {
              return exec_.compute(inst, ex_state_, start, functional_);
            });
      break;
    }
    case Opcode::kFence: {
      Cycle t = frontier_;
      for (const Pipe& p : pipes_) t = std::max(t, p.free);
      for (Pipe& p : pipes_) p.free = t;
      break;
    }
    case Opcode::kFlush: {
      translation_.flush();
      break;
    }
  }
  report_.finish = frontier_;
}

void Accelerator::reset_stats() {
  report_ = AccelReport{};
  sp_.reset_stats();
  acc_.reset_stats();
  dma_.reset_stats();
  translation_.reset_stats();
}

void Accelerator::reset_time() {
  sp_.reset_time();
  acc_.reset_time();
  dma_.reset_time();
  for (Pipe& p : pipes_) p.free = 0;
  frontier_ = 0;
  std::fill(rob_.begin(), rob_.end(), 0);
  rob_head_ = 0;
}

}  // namespace gemmini
