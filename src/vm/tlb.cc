#include "src/vm/tlb.h"

namespace gemmini {

Tlb::Tlb(const TlbConfig& cfg)
    : cfg_(cfg),
      entries_(cfg.ways == 0 ? 1 : cfg.entries / cfg.ways,
               cfg.ways == 0 ? cfg.entries : cfg.ways) {
  cfg_.validate();
}

std::optional<std::uint64_t> Tlb::lookup(std::uint64_t vpn, bool is_write) {
  Stream& s = is_write ? write_ : read_;
  const bool same_page = s.seen && s.vpn == vpn;
  ++(is_write ? stats_.write_requests : stats_.read_requests);
  if (same_page) ++(is_write ? stats_.write_same_page : stats_.read_same_page);

  // Fast path: a same-page repeat of a hit re-validates the remembered entry
  // (a flush, eviction or refill may have replaced it) instead of scanning
  // the set. find_at stamps the entry like find, so LRU state and hit counts
  // are those of the scan.
  if (same_page && s.hit) {
    if (const auto* e = entries_.find_at(s.idx, vpn)) {
      ++stats_.hits;
      ++stats_.fastpath_hits;
      return e->payload;
    }
  }

  s.seen = true;
  s.vpn = vpn;
  const auto* e = entries_.find(vpn);
  s.hit = e != nullptr;
  if (e == nullptr) {
    ++stats_.misses;
    return std::nullopt;
  }
  s.idx = entries_.index_of(*e);
  ++stats_.hits;
  return e->payload;
}

void Tlb::fill(std::uint64_t vpn, std::uint64_t ppn) {
  entries_.install(vpn, ppn);
}

void Tlb::flush() {
  entries_.flush();
  // A shootdown also forgets both streams: a post-flush streak must scan
  // (and miss) like the RTL would.
  read_ = Stream{};
  write_ = Stream{};
}

}  // namespace gemmini
