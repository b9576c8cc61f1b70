#include "src/accel/accelerator.h"

#include <algorithm>

#include "src/trace/trace.h"

namespace gemmini {

Accelerator::Accelerator(const GemminiConfig& cfg, MemorySystem& mem,
                         PageTableWalker& ptw, RequestorId requestor,
                         Observers obs)
    : cfg_(cfg),
      mem_(mem),
      tracer_(obs.trace),
      sp_(cfg_, obs),
      acc_(cfg_, obs),
      translation_(cfg_.translation, ptw, obs),
      dma_(cfg_, mem_, translation_, sp_, acc_, requestor, obs),
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
  start_at_ = std::max({t, ld_free_, ex_free_, st_free_});
}

Cycle Accelerator::next_issue_hint() const {
  if (done()) return kCycleMax;
  const Instruction& inst = (*prog_)[pc_];
  Cycle base = start_at_;
  switch (inst.op) {
    case Opcode::kMvin: return std::max(base, ld_free_);
    case Opcode::kMvout: return std::max(base, st_free_);
    case Opcode::kPreload:
    case Opcode::kComputePreloaded:
    case Opcode::kComputeAccumulated: return std::max(base, ex_free_);
    default: return base;
  }
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

void Accelerator::exec_one(const Instruction& inst) {
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
      pool_window_ = inst.pool_window;
      pool_stride_ = inst.pool_stride;
      break;
    }
    case Opcode::kMvin: {
      LocalMemory& dst = local_memory(inst.local, sp_, acc_);
      Cycle start = std::max(start_at_, ld_free_);
      start = std::max(start, dst.write_ready(inst.local.row(), inst.rows));
      start = rob_gate(start);
      const auto& ch = ld_[inst.ld_channel];
      const DmaEngine::XferResult xr =
          dma_.mvin(*as_, inst.dram_addr, ch.stride, ch.scale, inst.local,
                    inst.rows, inst.cols, start, functional_, ch.int4);
      // Dependents wait for the data; the load pipe itself frees as soon as
      // the last request has issued (the DMA is pipelined across MVINs).
      dst.record_write(inst.local.row(), inst.rows, xr.issue_done,
                       xr.data_done);
      ld_free_ = xr.issue_done;
      report_.load_busy += xr.issue_done - start;
      if (tracer_) {
        tracer_->span(trace::EventKind::kMvin, start, xr.data_done,
                      static_cast<std::uint64_t>(inst.rows) * inst.cols *
                          cfg_.input_bytes());
      }
      retire(xr.data_done);
      break;
    }
    case Opcode::kMvout: {
      LocalMemory& src = local_memory(inst.local, sp_, acc_);
      Cycle start = std::max(start_at_, st_free_);
      start = std::max(start, src.read_ready(inst.local.row(), inst.rows));
      start = rob_gate(start);
      const DmaEngine::XferResult xr = dma_.mvout(
          *as_, inst.dram_addr, st_stride_, inst.local, inst.rows, inst.cols,
          ex_state_.out_shift, ex_state_.activation, start, functional_);
      // Local rows are free for reuse once read into the store stream;
      // the DRAM write drains in the background (but FENCE waits for it).
      src.record_read(inst.local.row(), inst.rows, xr.issue_done);
      st_free_ = xr.issue_done;
      report_.store_busy += xr.issue_done - start;
      if (tracer_) {
        tracer_->span(trace::EventKind::kMvout, start, xr.data_done,
                      static_cast<std::uint64_t>(inst.rows) * inst.cols *
                          cfg_.input_bytes());
      }
      retire(xr.data_done);
      break;
    }
    case Opcode::kPreload: {
      Cycle start = std::max(start_at_, ex_free_);
      if (!inst.local.is_garbage()) {
        start = std::max(start, sp_.read_ready(inst.local.row(), inst.rows));
      }
      start = rob_gate(start);
      const Cycle end = exec_.preload(inst, start, functional_);
      if (!inst.local.is_garbage()) {
        sp_.record_read(inst.local.row(), inst.rows, end);
      }
      ex_free_ = end;
      report_.exec_busy += end - start;
      if (tracer_) tracer_->span(trace::EventKind::kPreload, start, end);
      retire(end);
      break;
    }
    case Opcode::kComputePreloaded:
    case Opcode::kComputeAccumulated: {
      Cycle start = std::max(start_at_, ex_free_);
      if (!inst.local.is_garbage()) {
        start = std::max(start, sp_.read_ready(inst.local.row(), inst.rows));
      }
      LocalMemory& d = local_memory(inst.local2, sp_, acc_);
      if (!inst.local2.is_garbage()) {
        start = std::max(start, d.read_ready(inst.local2.row(), inst.rows2));
      }
      const LocalAddr c = exec_.c_dest();
      LocalMemory& dest = local_memory(c, sp_, acc_);
      const unsigned c_rows = exec_.c_rows() ? exec_.c_rows() : inst.rows;
      if (!c.is_garbage()) {
        start = std::max(start, dest.write_ready(c.row(), c_rows));
      }
      start = rob_gate(start);
      const std::uint64_t macs_before = report_.macs;
      const Cycle end =
          exec_.compute(inst, ex_state_, start, functional_, report_.macs);
      if (tracer_) {
        tracer_->span(trace::EventKind::kTile, start, end,
                      report_.macs - macs_before);
      }
      ++report_.tiles;
      if (!inst.local.is_garbage()) {
        sp_.record_read(inst.local.row(), inst.rows, end);
      }
      if (!inst.local2.is_garbage()) {
        d.record_read(inst.local2.row(), inst.rows2, end);
      }
      if (!c.is_garbage()) dest.record_write(c.row(), c_rows, end, end);
      ex_free_ = end;
      report_.exec_busy += end - start;
      retire(end);
      break;
    }
    case Opcode::kFence: {
      const Cycle t = std::max({ld_free_, ex_free_, st_free_, frontier_});
      ld_free_ = ex_free_ = st_free_ = t;
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
  ld_free_ = ex_free_ = st_free_ = frontier_ = 0;
  std::fill(rob_.begin(), rob_.end(), 0);
  rob_head_ = 0;
}

}  // namespace gemmini
