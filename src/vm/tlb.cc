#include "src/vm/tlb.h"

#include <limits>

namespace gemmini {

Tlb::Tlb(const TlbConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  entries_.assign(cfg_.entries, Entry{});
}

std::optional<std::uint64_t> Tlb::lookup(std::uint64_t vpn, bool is_write) {
  // Consecutive same-page profiling (pre-lookup, per request stream).
  if (is_write) {
    ++stats_.write_requests;
    if (have_last_write_ && last_write_vpn_ == vpn) {
      ++stats_.write_same_page;
    }
    have_last_write_ = true;
    last_write_vpn_ = vpn;
  } else {
    ++stats_.read_requests;
    if (have_last_read_ && last_read_vpn_ == vpn) {
      ++stats_.read_same_page;
    }
    have_last_read_ = true;
    last_read_vpn_ = vpn;
  }

  // Last-page fast path: a one-entry filter per request stream in front of
  // the set scan. Same-page streaks resolve against the remembered entry
  // directly; the entry is re-validated (flush / eviction / refill may have
  // replaced it), and all architectural bookkeeping — hit counters and LRU
  // refresh — is identical to the scanning path, so timing and statistics
  // are unchanged.
  LastHit& last = is_write ? last_write_hit_ : last_read_hit_;
  if (last.valid && last.vpn == vpn) {
    Entry& e = entries_[last.idx];
    if (e.valid && e.vpn == vpn) {
      e.lru = ++lru_clock_;
      ++stats_.hits;
      ++stats_.fastpath_hits;
      return e.ppn;
    }
    last.valid = false;  // stale: entry was evicted or remapped
  }

  const unsigned set = set_of(vpn);
  Entry* base = &entries_[static_cast<std::size_t>(set) * set_ways()];
  ++lru_clock_;
  for (unsigned w = 0; w < set_ways(); ++w) {
    Entry& e = base[w];
    if (e.valid && e.vpn == vpn) {
      e.lru = lru_clock_;
      ++stats_.hits;
      last.valid = true;
      last.vpn = vpn;
      last.idx = static_cast<std::size_t>(set) * set_ways() + w;
      return e.ppn;
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

void Tlb::fill(std::uint64_t vpn, std::uint64_t ppn) {
  const unsigned set = set_of(vpn);
  Entry* base = &entries_[static_cast<std::size_t>(set) * set_ways()];
  ++lru_clock_;
  Entry* victim = nullptr;
  for (unsigned w = 0; w < set_ways(); ++w) {
    if (base[w].valid && base[w].vpn == vpn) {
      victim = &base[w];  // refresh in place
      break;
    }
    if (!base[w].valid && victim == nullptr) victim = &base[w];
  }
  if (victim == nullptr) {
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (unsigned w = 0; w < set_ways(); ++w) {
      if (base[w].lru < oldest) {
        oldest = base[w].lru;
        victim = &base[w];
      }
    }
  }
  victim->valid = true;
  victim->vpn = vpn;
  victim->ppn = ppn;
  victim->lru = lru_clock_;
}

void Tlb::flush() {
  for (auto& e : entries_) e = Entry{};
  have_last_read_ = have_last_write_ = false;
  // Shootdown also drops the last-page filters: the remembered entries are
  // gone, and a post-flush streak must re-walk like the RTL would.
  last_read_hit_ = LastHit{};
  last_write_hit_ = LastHit{};
}

}  // namespace gemmini
