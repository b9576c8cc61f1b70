#include "src/vm/ptw.h"

#include <algorithm>

namespace gemmini {

bool PageTableWalker::pte_cache_lookup(PAddr pte_addr) {
  ++pte_cache_clock_;
  for (auto& e : pte_cache_) {
    if (e.valid && e.addr == pte_addr) {
      e.lru = pte_cache_clock_;
      return true;
    }
  }
  return false;
}

void PageTableWalker::pte_cache_fill(PAddr pte_addr) {
  if (pte_cache_.empty()) return;
  PteCacheEntry* victim = &pte_cache_[0];
  for (auto& e : pte_cache_) {
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (e.lru < victim->lru) victim = &e;
  }
  victim->valid = true;
  victim->addr = pte_addr;
  victim->lru = pte_cache_clock_;
}

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
    if (!leaf && pte_cache_lookup(pte)) {
      now += 1;
      return;
    }
    now = mem_.access(pte, sizeof(std::uint64_t), /*write=*/false, now,
                      requestor_);
    ++stats_.pte_loads;
    if (!leaf) pte_cache_fill(pte);
  });
  busy_until_ = now;
  r.done = now;
  return r;
}

void PageTableWalker::flush() {
  std::fill(pte_cache_.begin(), pte_cache_.end(), PteCacheEntry{});
  pte_cache_clock_ = 0;
}

}  // namespace gemmini
