#include "src/serve/scheduler.h"

#include <algorithm>

namespace gemmini::serve {

const char* serve_policy_name(ServePolicy p) {
  switch (p) {
    case ServePolicy::kFifo: return "fifo";
    case ServePolicy::kEdf: return "edf";
    case ServePolicy::kBatch: return "batch";
  }
  return "?";
}

void ServeConfig::validate() const {
  GEMMINI_CONFIG_REQUIRE(max_batch >= 1,
                         "serve::ServeConfig: max_batch must be >= 1");
}

std::string ServeConfig::label() const {
  switch (policy) {
    case ServePolicy::kFifo: return "fifo";
    case ServePolicy::kEdf: return preempt ? "edf" : "edf-np";
    case ServePolicy::kBatch: return "batch" + std::to_string(max_batch);
  }
  return "?";
}

ServeScheduler::ServeScheduler(ServeConfig cfg) : cfg_(cfg) {
  cfg_.validate();
}

bool ServeScheduler::admit(const Request& r, Cycle now) {
  if (cfg_.admission_capacity > 0 &&
      queue_.size() >= cfg_.admission_capacity) {
    return false;
  }
  queue_.push_back(Pending{r, 0});
  depth_stat_.record(now, static_cast<double>(queue_.size()));
  return true;
}

void ServeScheduler::requeue(Pending p, Cycle now) {
  queue_.push_back(std::move(p));
  depth_stat_.record(now, static_cast<double>(queue_.size()));
}

Cycle ServeScheduler::earliest_deadline() const {
  Cycle best = kCycleMax;
  for (const Pending& p : queue_) {
    if (p.req.deadline != 0 && p.req.deadline < best) best = p.req.deadline;
  }
  return best;
}

std::size_t ServeScheduler::pick_index() const {
  if (cfg_.policy != ServePolicy::kEdf) return 0;
  // EDF: earliest absolute deadline; no-deadline requests sort after every
  // deadlined one; FIFO (queue position == arrival order) breaks ties.
  std::size_t best = 0;
  Cycle best_dl = queue_[0].req.deadline == 0 ? kCycleMax
                                              : queue_[0].req.deadline;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    const Cycle dl = queue_[i].req.deadline == 0 ? kCycleMax
                                                 : queue_[i].req.deadline;
    if (dl < best_dl) {
      best = i;
      best_dl = dl;
    }
  }
  return best;
}

std::vector<ServeScheduler::Pending> ServeScheduler::next_batch(Cycle now) {
  std::vector<Pending> out;
  if (queue_.empty()) return out;

  const std::size_t head = pick_index();
  out.push_back(queue_[head]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(head));

  // A preempted resume carries pre-scaled service; never merge it into a
  // fresh batch. Batching otherwise extends the head with queued requests
  // of the same class, in arrival order — the warm-cache benefit only
  // exists within one class (same weights, same working set).
  if (cfg_.policy == ServePolicy::kBatch && out[0].remaining == 0) {
    for (std::size_t i = 0;
         i < queue_.size() && out.size() < cfg_.max_batch;) {
      if (queue_[i].req.cls == out[0].req.cls && queue_[i].remaining == 0) {
        out.push_back(queue_[i]);
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  depth_stat_.record(now, static_cast<double>(queue_.size()));
  return out;
}

}  // namespace gemmini::serve
