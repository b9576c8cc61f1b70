#include "src/vm/ptw.h"

namespace gemmini {

PageTableWalker::WalkResult PageTableWalker::walk(const AddressSpace& as,
                                                  VAddr va, Cycle t) {
  ++stats_.walks;
  Cycle now = (t > busy_until_ ? t : busy_until_) + cfg_.setup_latency;
  if (busy_until_ > t) stats_.queue_cycles += busy_until_ - t;

  WalkResult r;
  r.ppn_base = as.walk(va, [&](unsigned level, PAddr pte) {
    // Non-leaf PTEs hit the walker's PTE cache after the first walk in the
    // region (1-cycle lookup); leaf PTEs always load from memory.
    const bool leaf = level + 1 == kPtLevels;
    if (!leaf && pte_cache_.find(pte) != nullptr) {
      now += 1;
      return;
    }
    now = mem_.access(pte, sizeof(std::uint64_t), /*write=*/false, now,
                      requestor_);
    ++stats_.pte_loads;
    if (!leaf) pte_cache_.install(pte, {});
  });
  busy_until_ = now;
  r.done = now;
  return r;
}

}  // namespace gemmini
