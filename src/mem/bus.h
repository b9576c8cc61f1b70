#pragma once
// Shared bus with bandwidth-limited, FIFO-arbitrated occupancy.
//
// The SoC has two buses, as in the Chipyard SoCs the paper instantiates:
// a system bus connecting host CPUs and accelerator DMAs to the shared L2,
// and a memory bus connecting the L2 to DRAM. Each transfer occupies the bus
// for ceil(bytes / width) cycles; a request arriving while the bus is busy
// waits, which is the mechanism behind multi-core contention in Fig. 9.
//
// Accounting is kept per requestor (who moved how many bytes, who ate how
// many wait cycles) — the raw material for the sim::Report substrate table
// and the "sysbus"/"membus" metrics the Soc publishes. When the Observers
// carry a trace::Tracer, every grant (and any wait preceding it) is emitted
// as a span on this bus's track; tracing is observational and never alters
// busy_until_ bookkeeping.

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/observers.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/trace/trace.h"

namespace gemmini {

struct BusConfig {
  unsigned width_bytes = 16;  ///< bytes transferred per cycle (128-bit TL-C)
  void validate() const {
    GEMMINI_CONFIG_REQUIRE(width_bytes > 0, "bus width must be positive");
  }
};

class Bus {
 public:
  /// Per-requestor share of this bus's traffic and contention.
  struct RequestorStats {
    int requestor = 0;
    std::uint64_t bytes = 0;
    std::uint64_t wait_cycles = 0;

    friend bool operator==(const RequestorStats&, const RequestorStats&) =
        default;
  };

  /// Everything this bus counts, since the last reset_stats().
  struct Stats {
    std::vector<RequestorStats> requestors;  ///< first-seen order

    std::uint64_t bytes() const {
      std::uint64_t n = 0;
      for (const RequestorStats& rs : requestors) n += rs.bytes;
      return n;
    }
    std::uint64_t wait_cycles() const {
      std::uint64_t n = 0;
      for (const RequestorStats& rs : requestors) n += rs.wait_cycles;
      return n;
    }
  };

  /// `unit` names the track this bus's spans render on.
  explicit Bus(const BusConfig& cfg, std::string name = "bus",
               trace::Unit unit = trace::Unit::kSystemBus, Observers obs = {})
      : cfg_(cfg), name_(std::move(name)), tracer_(obs.trace), unit_(unit) {
    cfg_.validate();
  }

  /// Requests the bus at time `t` for a `bytes`-byte transfer. Returns the
  /// cycle at which the transfer completes; the bus is busy until then.
  Cycle transfer(Cycle t, std::uint64_t bytes, RequestorId requestor) {
    const Cycle occupancy =
        (bytes + cfg_.width_bytes - 1) / cfg_.width_bytes;
    const Cycle start = t > busy_until_ ? t : busy_until_;
    RequestorStats& rs = requestor_stats(requestor.value);
    if (start > t) {
      rs.wait_cycles += start - t;
      if (tracer_) {
        tracer_->span_on(unit_, trace::EventKind::kBusWait, t, start, bytes,
                         requestor.value);
      }
    }
    busy_until_ = start + occupancy;
    rs.bytes += bytes;
    if (tracer_) {
      tracer_->span_on(unit_, trace::EventKind::kBusGrant, start, busy_until_,
                       bytes, requestor.value);
    }
    return busy_until_;
  }

  void reset_time() { busy_until_ = 0; }
  void reset_stats() { stats_ = Stats{}; }

  const BusConfig& config() const { return cfg_; }
  const std::string& name() const { return name_; }
  const Stats& stats() const { return stats_; }

 private:
  RequestorStats& requestor_stats(int id) {
    // A handful of requestors per SoC (cores + PTW): linear scan beats any
    // map on this hot path.
    for (RequestorStats& rs : stats_.requestors) {
      if (rs.requestor == id) return rs;
    }
    stats_.requestors.push_back(RequestorStats{id, 0, 0});
    return stats_.requestors.back();
  }

  BusConfig cfg_;
  std::string name_;
  trace::Tracer* tracer_;
  trace::Unit unit_;
  Cycle busy_until_ = 0;
  Stats stats_;
};

}  // namespace gemmini
