#pragma once
// Shared helpers for the test suite: a small SoC fixture with a functional
// accelerator, tensor round-trip helpers through simulated virtual memory,
// and the contended memory-controller config the scheduling tests share.

#include <cstdint>
#include <memory>

#include "src/accel/accelerator.h"
#include "src/arch/config.h"
#include "src/base/rng.h"
#include "src/base/tensor.h"
#include "src/mem/memsys.h"
#include "src/soc/soc.h"
#include "src/vm/page_table.h"
#include "src/vm/ptw.h"

namespace gemmini::test {

/// A single-accelerator harness wired to its own memory system and address
/// space, in functional mode.
struct AccelHarness {
  explicit AccelHarness(GemminiConfig cfg = GemminiConfig::paper_default(),
                        MemSysConfig mem_cfg = MemSysConfig{})
      : config(std::move(cfg)),
        mem(mem_cfg),
        frames(0x8000'0000ull),
        as(mem.phys(), frames),
        ptw(config.translation.ptw, mem, RequestorId{100}),
        accel(config, mem, ptw, RequestorId{0}) {
    accel.set_functional(true);
  }

  /// Allocates and uploads a row-major matrix; returns its VA.
  template <typename T>
  VAddr upload(const Tensor<T>& t) {
    const std::uint64_t bytes = t.size() * sizeof(T) + 4096;
    const VAddr va = as.alloc(bytes);
    as.write_virt(va, t.data(), t.size() * sizeof(T));
    return va;
  }

  /// Downloads a matrix of the given shape from VA.
  template <typename T>
  Tensor<T> download(VAddr va, std::vector<std::size_t> shape) {
    Tensor<T> t(std::move(shape));
    as.read_virt(va, t.data(), t.size() * sizeof(T));
    return t;
  }

  GemminiConfig config;
  MemorySystem mem;
  FrameAllocator frames;
  AddressSpace as;
  PageTableWalker ptw;
  Accelerator accel;
};

/// The Fig. 9 Base SoC (im2col unit on) behind a contended memory
/// controller: XOR-folded line interleave, a 16-deep write queue draining
/// to 4, and DDR4-like periodic refresh.
inline SocConfig contended_soc(DramScheduler sched, unsigned channels = 2) {
  SocConfig cfg = SocConfig::base_1mb_l2();
  cfg.accel.has_im2col = true;
  cfg.mem.dram.channels = channels;
  cfg.mem.dram.scheduler = sched;
  cfg.mem.dram.interleave = DramInterleave::kXorFold;
  cfg.mem.dram.write_queue_depth = 16;
  cfg.mem.dram.write_drain_floor = 4;
  cfg.mem.dram.refresh_interval = 7800;
  cfg.mem.dram.refresh_latency = 280;
  return cfg;
}

}  // namespace gemmini::test
