#pragma once
// serve::ServeScheduler — bounded admission queue + pluggable dispatch.
//
// The scheduler owns the single admission queue in front of the SoC's
// per-core run slots. Arrivals are admitted while the queue has room and
// shed (rejected; the Server counts them) once it is full — the open-loop
// generator never slows down, so a saturated SoC must shed instead of
// growing an unbounded backlog. Dispatch order is a policy:
//
//   * kFifo  — strict arrival order;
//   * kEdf   — earliest absolute deadline first (no-deadline requests sort
//              last); with `preempt`, an arrival with an earlier deadline
//              can evict the running request with the latest deadline;
//   * kBatch — FIFO head, extended with queued requests of the *same
//              class* up to `max_batch`. A batch runs as one process on
//              one core: the first request pays the cold service time,
//              the rest the warm (cache-resident) time, and the whole
//              batch pays one OS context switch instead of B.
//
// The scheduler is pure bookkeeping — no simulator types, no wall clock —
// so policies are unit-testable and deterministic by construction. The
// admission queue's depth is tracked time-weighted (gemmini::TimeWeighted)
// for the ServerStats section.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/serve/traffic.h"

namespace gemmini::serve {

enum class ServePolicy : std::uint8_t { kFifo, kEdf, kBatch };

const char* serve_policy_name(ServePolicy p);

struct ServeConfig {
  ServePolicy policy = ServePolicy::kFifo;
  /// kBatch: max requests (same class) dispatched together. Others: 1.
  unsigned max_batch = 4;
  /// Admission-queue bound; arrivals beyond it are shed. 0 = unbounded.
  std::size_t admission_capacity = 0;
  /// kEdf: allow an earlier-deadline arrival to preempt a running request
  /// (the resumed remainder pays another OS switch).
  bool preempt = true;

  void validate() const;
  /// Point-label form: "fifo", "edf", "edf-np", "batch4".
  std::string label() const;
};

class ServeScheduler {
 public:
  /// A queued unit of work. `remaining > 0` marks a preempted request that
  /// resumes with that much service already scaled and scheduled.
  struct Pending {
    Request req;
    Cycle remaining = 0;
  };

  explicit ServeScheduler(ServeConfig cfg);

  const ServeConfig& config() const { return cfg_; }

  /// Admits `r` at time `now`; false = shed (queue at capacity).
  bool admit(const Request& r, Cycle now);

  /// Preempted work re-enters the queue. Bypasses the capacity check —
  /// admitted work is never shed retroactively.
  void requeue(Pending p, Cycle now);

  /// Dequeues the next dispatch under the policy ([] if the queue is
  /// empty). kBatch may return several same-class requests; a preempted
  /// resume is always dispatched alone.
  std::vector<Pending> next_batch(Cycle now);

  bool empty() const { return queue_.empty(); }
  std::size_t depth() const { return queue_.size(); }

  /// Earliest absolute deadline currently queued (kCycleMax if none).
  Cycle earliest_deadline() const;

  /// Time-weighted queue depth over every admit/requeue/dispatch event.
  const TimeWeighted& depth_stat() const { return depth_stat_; }
  /// Closes the depth integral at end of run.
  void finish(Cycle now) { depth_stat_.finish(now); }

 private:
  std::size_t pick_index() const;

  ServeConfig cfg_;
  std::deque<Pending> queue_;  ///< arrival order (FIFO order for ties)
  TimeWeighted depth_stat_;
};

}  // namespace gemmini::serve
