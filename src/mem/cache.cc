#include "src/mem/cache.h"

#include <limits>

namespace gemmini {

void CacheConfig::validate() const {
  GEMMINI_CONFIG_REQUIRE(line_bytes >= 8 && (line_bytes & (line_bytes - 1)) == 0,
                         "cache line size must be a power of two >= 8, got "
                             << line_bytes);
  GEMMINI_CONFIG_REQUIRE(ways >= 1, "cache must have at least 1 way");
  GEMMINI_CONFIG_REQUIRE(size_bytes % (static_cast<std::uint64_t>(ways) * line_bytes) == 0,
                         "cache size " << size_bytes
                                       << " not divisible by ways*line");
  GEMMINI_CONFIG_REQUIRE(num_sets() >= 1, "cache must have at least 1 set");
}

Cache::Cache(const CacheConfig& cfg, std::string name)
    : cfg_(cfg), name_(std::move(name)) {
  cfg_.validate();
  num_sets_ = cfg_.num_sets();
  lines_.assign(static_cast<std::size_t>(num_sets_) * cfg_.ways, Line{});
}

CacheAccess Cache::access_line(PAddr addr, bool write) {
  const std::uint64_t line = line_addr(addr);
  const std::uint64_t set = set_index(line);
  const std::uint64_t tag = tag_of(line);
  Line* base = &lines_[set * cfg_.ways];

  CacheAccess result;
  ++lru_clock_;

  // Hit path.
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    Line& l = base[w];
    if (l.valid && l.tag == tag) {
      l.lru = lru_clock_;
      l.dirty = l.dirty || write;
      ++stats_.hits;
      result.hit = true;
      return result;
    }
  }

  // Miss: pick invalid way, else LRU victim.
  ++stats_.misses;
  Line* victim = nullptr;
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
  }
  if (victim == nullptr) {
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (unsigned w = 0; w < cfg_.ways; ++w) {
      if (base[w].lru < oldest) {
        oldest = base[w].lru;
        victim = &base[w];
      }
    }
    if (victim->dirty) {
      ++stats_.writebacks;
      result.writeback = true;
      result.victim_line =
          (victim->tag * num_sets_ + set) * cfg_.line_bytes;
    }
  }

  victim->valid = true;
  victim->dirty = write;
  victim->tag = tag;
  victim->lru = lru_clock_;
  return result;
}

bool Cache::probe(PAddr addr) const {
  const std::uint64_t line = line_addr(addr);
  const std::uint64_t set = set_index(line);
  const std::uint64_t tag = tag_of(line);
  const Line* base = &lines_[set * cfg_.ways];
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

void Cache::flush() {
  for (auto& l : lines_) l = Line{};
}

}  // namespace gemmini
