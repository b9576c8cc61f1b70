#pragma once
// Cycle-level trace subsystem: the simulator as a measurement instrument.
//
// Every timed component (DMA, exec unit, buses, DRAM banks, L2, TLBs, PTW,
// CPU steps, OS noise) can emit structured TraceEvents through the Tracer
// the Soc hands down in its Observers (src/base/observers.h). Tracing is
// purely observational: no instrumentation site ever feeds back into
// timing, so cycle counts are bit-identical with tracing on and off
// (asserted by tests/trace_test.cc against the golden counts).
//
// Off costs one predictable branch per instrumentation site: components
// hold a `trace::Tracer*` that is nullptr unless a session was built with
// `.trace(...)`.
//
// The Tracer records into a preallocated ring (oldest event dropped on
// overflow, drop count reported). Exporters live next door: perfetto.h
// renders the buffer as a Chrome/Perfetto trace.json (one track per core x
// unit), bottleneck.h folds it into a per-layer attribution table.

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/types.h"

namespace gemmini::trace {

/// Hardware unit an event belongs to. Together with the issuing core this
/// names the Perfetto track the event renders on.
enum class Unit : std::uint8_t {
  kSoc,          ///< layer spans, OS-noise switches
  kCpu,          ///< host-CPU work steps
  kDmaLoad,      ///< MVIN front-end + read bursts
  kDmaStore,     ///< MVOUT front-end + write bursts
  kExec,         ///< spatial-array preloads and compute tiles
  kSystemBus,    ///< requestors <-> L2
  kMemoryBus,    ///< L2 <-> DRAM
  kDram,         ///< bank row hits / misses
  kL2,           ///< shared-cache hits / misses
  kTranslation,  ///< TLB misses and page walks
};
inline constexpr unsigned kNumUnits = 10;

const char* unit_name(Unit u);

/// What happened. Spans carry begin < end; instants have begin == end.
enum class EventKind : std::uint8_t {
  kLayerSpan,   ///< one WorkStep of a layer (arg = step index)
  kCpuStep,     ///< CPU-resident work (im2col, special, dispatch)
  kOsSwitch,    ///< OS-noise preemption (ASID flush included)
  kMvin,        ///< whole MVIN instruction (arg = bytes)
  kMvout,       ///< whole MVOUT instruction (arg = bytes)
  kDmaBurstRead,   ///< one coalesced read stream (arg = bytes)
  kDmaBurstWrite,  ///< one coalesced write stream (arg = bytes)
  kPreload,     ///< weight tile latched into the array
  kTile,        ///< one COMPUTE tile through the array (arg = MACs)
  kBusGrant,    ///< bus occupied by a transfer (arg = bytes)
  kBusWait,     ///< requestor stalled waiting for the bus (arg = bytes)
  kDramRowHit,  ///< open-row access (arg = bytes, arg2 = global bank id)
  kDramRowMiss, ///< precharge+activate access (arg = bytes, arg2 = global bank id)
  kL2Hit,       ///< line hit in the shared cache
  kL2Miss,      ///< line missed (refill charged to DRAM events)
  kTlbMiss,     ///< private-TLB miss, span until resolution
  kPtwWalk,     ///< page-table walk through the shared walker
  kDramRefresh,   ///< issue stalled in a refresh window (arg2 = global bank)
  kDramQueueWait, ///< request queued behind a busy bank (arg2 = global bank)
  kDramWriteDrain, ///< forced write-queue drain episode (arg = bytes, arg2 = channel)
  kFaultInject,    ///< instant: a fault was injected (arg = site payload)
  kFaultEccCorrect, ///< span: ECC correction latency on a DRAM read (arg = bytes)
  kFaultDmaRetry,  ///< span: a timed-out DMA chunk re-issuing (arg = attempt)
  kFaultTransRetry, ///< span: transient translation fault penalty
};

const char* event_kind_name(EventKind k);
/// The track a kind renders on (fixed kind -> unit mapping).
Unit event_kind_unit(EventKind k);

/// One structured trace record. POD, 40 bytes, preallocated in bulk by the
/// Tracer's ring. `core` and `layer` come from the Tracer's context (the
/// SoC sets it to the advancing core/layer before each step, so events on
/// shared substrate are attributed to the core that issued them); -1 means
/// "outside any core/layer". `unit` is normally derived from the kind; the
/// generic Bus overrides it to name which bus (system vs memory) it is.
struct TraceEvent {
  Cycle begin = 0;
  Cycle end = 0;
  std::uint64_t arg = 0;   ///< kind-specific payload (bytes, MACs, step)
  EventKind kind = EventKind::kLayerSpan;
  Unit unit = Unit::kSoc;
  std::int16_t core = -1;
  std::int32_t layer = -1;
  std::int32_t requestor = -1;  ///< RequestorId::value; -1 = not a request
  std::uint32_t arg2 = 0;       ///< secondary payload (DRAM bank index)

  bool is_instant() const { return begin == end; }

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Recorder configuration, consumed by sim::Session::Builder::trace().
struct TraceConfig {
  bool enabled = false;
  /// Ring capacity in events (40 B each; the default holds ~1M events,
  /// enough for a scaled-zoo inference without drops).
  std::size_t buffer_events = 1u << 20;
  /// If non-empty, drivers that own the session (Sweep::run_point) write
  /// the Perfetto trace.json here after the run.
  std::string export_path;

  static TraceConfig enabled_default() {
    TraceConfig cfg;
    cfg.enabled = true;
    return cfg;
  }
};

/// The recorder every instrumented component holds (as a possibly-null
/// pointer): a bounded ring of `capacity` events plus the attribution
/// context — which core and which model layer the SoC is currently
/// advancing — so substrate events (bus, DRAM, L2) inherit the requestor's
/// context without the substrate knowing anything about cores or layers.
/// When the ring is full the oldest event is overwritten and the drop
/// counter increments: a profiling run that outgrows its buffer keeps the
/// most recent window instead of silently truncating the tail.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  void set_context(std::int16_t core, std::int32_t layer) {
    core_ = core;
    layer_ = layer;
  }
  void clear_context() { set_context(-1, -1); }

  /// Records a [begin, end] span (or an instant when begin == end) on the
  /// kind's default unit/track.
  void span(EventKind kind, Cycle begin, Cycle end, std::uint64_t arg = 0,
            std::int32_t requestor = -1, std::uint32_t arg2 = 0) {
    span_on(event_kind_unit(kind), kind, begin, end, arg, requestor, arg2);
  }

  /// Same, on an explicit unit (the generic Bus passes kSystemBus or
  /// kMemoryBus depending on which bus it was instantiated as).
  void span_on(Unit unit, EventKind kind, Cycle begin, Cycle end,
               std::uint64_t arg = 0, std::int32_t requestor = -1,
               std::uint32_t arg2 = 0) {
    record({.begin = begin, .end = end, .arg = arg, .kind = kind,
            .unit = unit, .core = core_, .layer = layer_,
            .requestor = requestor, .arg2 = arg2});
  }

  void instant(EventKind kind, Cycle at, std::uint64_t arg = 0,
               std::int32_t requestor = -1, std::uint32_t arg2 = 0) {
    span(kind, at, at, arg, requestor, arg2);
  }

  std::size_t size() const { return events_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_; }
  bool empty() const { return events_.empty(); }

  /// Events in record order (oldest surviving first).
  std::vector<TraceEvent> snapshot() const;

  /// Forgets all events and the drop count (between runs of one session).
  void clear();

 private:
  void record(const TraceEvent& e);

  std::size_t capacity_;
  std::vector<TraceEvent> events_;  ///< reserved to capacity_ up front
  std::size_t head_ = 0;            ///< oldest element once wrapped
  std::uint64_t dropped_ = 0;
  std::int16_t core_ = -1;
  std::int32_t layer_ = -1;
};

}  // namespace gemmini::trace
