#include "src/vm/translation.h"

#include "src/fault/fault.h"
#include "src/trace/trace.h"

namespace gemmini {

TranslationSystem::TranslationSystem(const TranslationConfig& cfg,
                                     PageTableWalker& ptw, Observers obs)
    : cfg_(cfg),
      private_(cfg.private_tlb),
      ptw_(ptw),
      obs_(obs) {
  if (cfg_.l2_tlb.entries > 0) {
    l2_.emplace(cfg_.l2_tlb);
  }
}

Translation TranslationSystem::translate(const AddressSpace& as, VAddr va,
                                         bool is_write, Cycle t) {
  const std::uint64_t vpn = page_number(va);
  Translation out;

  // Fault layer: a transient translation fault (parity error in the TLB
  // lookup, dropped walk response) is retried after a fixed penalty — the
  // access still translates correctly, it just arrives later.
  if (obs_.faults) t += obs_.faults->on_translate(t);

  // Filter registers: zero-latency bypass when the same page repeats within
  // the read (or write) stream. Crucially this also *skips* the TLB lookup,
  // so reads and writes stop evicting each other's LRU state.
  if (cfg_.filter_registers) {
    FilterReg& f = is_write ? write_filter_ : read_filter_;
    if (f.valid && f.vpn == vpn) {
      ++stats_.filter_hits;
      out.paddr = f.ppn_base | page_offset(va);
      out.done = t;  // 0-cycle hit
      out.level = TranslationLevel::kFilterRegister;
      return out;
    }
  }

  Cycle now = t;
  PAddr ppn_base = 0;
  if (auto ppn = private_.lookup(vpn, is_write)) {
    now += cfg_.private_tlb.hit_latency;
    ppn_base = *ppn;
    out.level = TranslationLevel::kPrivateTlb;
  } else {
    now += cfg_.private_tlb.hit_latency;  // discover the miss first
    bool filled = false;
    if (l2_) {
      if (auto ppn = l2_->lookup(vpn, is_write)) {
        now += cfg_.l2_tlb.hit_latency;
        ppn_base = *ppn;
        out.level = TranslationLevel::kSharedTlb;
        filled = true;
      } else {
        now += cfg_.l2_tlb.hit_latency;  // L2 TLB lookup also took time
      }
    }
    if (!filled) {
      const Cycle walk_start = now;
      const auto walk = ptw_.walk(as, va, now);
      now = walk.done;
      ppn_base = walk.ppn_base;
      out.level = TranslationLevel::kPageWalk;
      if (l2_) l2_->fill(vpn, walk.ppn_base);
      if (obs_.trace) {
        obs_.trace->span(trace::EventKind::kPtwWalk, walk_start, now);
      }
    }
    private_.fill(vpn, ppn_base);
    // The whole miss-resolution window (L2 TLB probe and, on a full miss,
    // the page walk) is one translation span.
    if (obs_.trace) obs_.trace->span(trace::EventKind::kTlbMiss, t, now);
  }

  if (cfg_.filter_registers) {
    FilterReg& f = is_write ? write_filter_ : read_filter_;
    f.valid = true;
    f.vpn = vpn;
    f.ppn_base = ppn_base;
  }

  out.paddr = ppn_base | page_offset(va);
  out.done = now;
  return out;
}

void TranslationSystem::flush() {
  private_.flush();
  if (l2_) l2_->flush();
  read_filter_ = FilterReg{};
  write_filter_ = FilterReg{};
  ++stats_.flushes;
}

void TranslationSystem::reset_stats() {
  stats_ = Stats{};
  private_.reset_stats();
  if (l2_) l2_->reset_stats();
}

double TranslationSystem::effective_private_hit_rate() const {
  const double filter_hits = static_cast<double>(stats_.filter_hits);
  const double tlb_hits = static_cast<double>(private_.stats().hits);
  const double tlb_misses = static_cast<double>(private_.stats().misses);
  const double total = filter_hits + tlb_hits + tlb_misses;
  return total == 0 ? 0.0 : (filter_hits + tlb_hits) / total;
}

}  // namespace gemmini
