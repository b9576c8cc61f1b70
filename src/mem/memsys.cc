#include "src/mem/memsys.h"

#include <algorithm>

namespace gemmini {

MemorySystem::MemorySystem(const MemSysConfig& cfg, Observers obs)
    : cfg_(cfg),
      tracer_(obs.trace),
      sysbus_(cfg.system_bus, "sysbus", trace::Unit::kSystemBus, obs),
      l2_(std::make_unique<Cache>(cfg.l2)),
      membus_(cfg.memory_bus, "membus", trace::Unit::kMemoryBus, obs),
      dram_(cfg.dram, obs) {
  cfg_.validate();
}

Cycle MemorySystem::access(PAddr addr, std::uint64_t bytes, bool write,
                           Cycle t, RequestorId requestor) {
  const unsigned line = cfg_.l2.line_bytes;
  Cycle done = t;
  PAddr cur = addr;
  std::uint64_t remaining = bytes;
  while (remaining > 0) {
    const std::uint64_t in_line =
        std::min<std::uint64_t>(remaining, line - (cur % line));

    // System bus carries the request (and its data beat) to the L2.
    const Cycle at_l2 = sysbus_.transfer(t, in_line, requestor);

    const CacheAccess ca = l2_->access_line(cur, write);
    if (tracer_) {
      tracer_->instant(ca.hit ? trace::EventKind::kL2Hit
                              : trace::EventKind::kL2Miss,
                       at_l2, in_line, requestor.value);
    }
    Cycle line_done = at_l2 + cfg_.l2.hit_latency;
    if (!ca.hit) {
      // Refill from DRAM over the memory bus; latency is serial:
      // bus to DRAM, DRAM access, bus back (folded into DRAM burst).
      const Cycle at_dram = membus_.transfer(line_done, line, requestor);
      line_done = dram_.access(cur - (cur % line), line, at_dram, requestor);
    }
    if (ca.writeback) {
      // Dirty victim drains to DRAM in the background; it occupies the
      // memory bus and DRAM but does not delay this request's completion.
      // The DRAM side goes through the controller's write path: issued
      // immediately in write-through mode, queued (and scheduled against
      // reads by the channel's policy) when write buffering is on.
      const Cycle wb_at = membus_.transfer(line_done, line, requestor);
      dram_.write(ca.victim_line, line, wb_at, requestor);
    }
    done = std::max(done, line_done);
    cur += in_line;
    remaining -= in_line;
  }
  return done;
}

void MemorySystem::reset_time() {
  sysbus_.reset_time();
  membus_.reset_time();
  dram_.reset_time();
}

void MemorySystem::reset_all() {
  reset_time();
  l2_->flush();
}

void MemorySystem::reset_stats() {
  sysbus_.reset_stats();
  membus_.reset_stats();
  l2_->reset_stats();
  dram_.reset_stats();
}

}  // namespace gemmini
