#include "src/trace/trace.h"

namespace gemmini::trace {

const char* unit_name(Unit u) {
  switch (u) {
    case Unit::kSoc: return "soc";
    case Unit::kCpu: return "cpu";
    case Unit::kDmaLoad: return "dma.load";
    case Unit::kDmaStore: return "dma.store";
    case Unit::kExec: return "exec";
    case Unit::kSystemBus: return "bus.system";
    case Unit::kMemoryBus: return "bus.memory";
    case Unit::kDram: return "dram";
    case Unit::kL2: return "l2";
    case Unit::kTranslation: return "translation";
  }
  return "?";
}

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kLayerSpan: return "layer";
    case EventKind::kCpuStep: return "cpu_step";
    case EventKind::kOsSwitch: return "os_switch";
    case EventKind::kMvin: return "mvin";
    case EventKind::kMvout: return "mvout";
    case EventKind::kDmaBurstRead: return "dma_read";
    case EventKind::kDmaBurstWrite: return "dma_write";
    case EventKind::kPreload: return "preload";
    case EventKind::kTile: return "tile";
    case EventKind::kBusGrant: return "bus_grant";
    case EventKind::kBusWait: return "bus_wait";
    case EventKind::kDramRowHit: return "row_hit";
    case EventKind::kDramRowMiss: return "row_miss";
    case EventKind::kL2Hit: return "l2_hit";
    case EventKind::kL2Miss: return "l2_miss";
    case EventKind::kTlbMiss: return "tlb_miss";
    case EventKind::kPtwWalk: return "ptw_walk";
    case EventKind::kDramRefresh: return "refresh";
    case EventKind::kDramQueueWait: return "queue_wait";
    case EventKind::kDramWriteDrain: return "write_drain";
    case EventKind::kFaultInject: return "fault";
    case EventKind::kFaultEccCorrect: return "ecc_correct";
    case EventKind::kFaultDmaRetry: return "dma_retry";
    case EventKind::kFaultTransRetry: return "trans_retry";
  }
  return "?";
}

Unit event_kind_unit(EventKind k) {
  switch (k) {
    case EventKind::kLayerSpan:
    case EventKind::kOsSwitch: return Unit::kSoc;
    case EventKind::kCpuStep: return Unit::kCpu;
    case EventKind::kMvin:
    case EventKind::kDmaBurstRead: return Unit::kDmaLoad;
    case EventKind::kMvout:
    case EventKind::kDmaBurstWrite: return Unit::kDmaStore;
    case EventKind::kPreload:
    case EventKind::kTile: return Unit::kExec;
    case EventKind::kBusGrant:
    case EventKind::kBusWait: return Unit::kSystemBus;  // overridden by site
    case EventKind::kDramRowHit:
    case EventKind::kDramRowMiss:
    case EventKind::kDramRefresh:
    case EventKind::kDramQueueWait:
    case EventKind::kDramWriteDrain: return Unit::kDram;
    case EventKind::kL2Hit:
    case EventKind::kL2Miss: return Unit::kL2;
    case EventKind::kTlbMiss:
    case EventKind::kPtwWalk: return Unit::kTranslation;
    case EventKind::kFaultInject: return Unit::kSoc;  // overridden by site
    case EventKind::kFaultEccCorrect: return Unit::kDram;
    case EventKind::kFaultDmaRetry: return Unit::kDmaLoad;  // overridden by site
    case EventKind::kFaultTransRetry: return Unit::kTranslation;
  }
  return Unit::kSoc;
}

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  events_.reserve(capacity_);
}

void Tracer::record(const TraceEvent& e) {
  if (events_.size() < capacity_) {
    events_.push_back(e);
    return;
  }
  // Full: overwrite the oldest event, keep the most recent window.
  events_[head_] = e;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(head_ + i) % events_.size()]);
  }
  return out;
}

void Tracer::clear() {
  events_.clear();
  head_ = 0;
  dropped_ = 0;
}

}  // namespace gemmini::trace
