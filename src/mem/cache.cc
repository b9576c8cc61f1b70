#include "src/mem/cache.h"

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

namespace {
const CacheConfig& validated(const CacheConfig& cfg) {
  cfg.validate();
  return cfg;
}
}  // namespace

Cache::Cache(const CacheConfig& cfg)
    : cfg_(validated(cfg)), tags_(cfg_.num_sets(), cfg_.ways) {}

CacheAccess Cache::access_line(PAddr addr, bool write) {
  const std::uint64_t line = line_of(addr);
  CacheAccess result;
  if (auto* e = tags_.find(line)) {
    e->payload = e->payload || write;
    ++stats_.hits;
    result.hit = true;
    return result;
  }
  ++stats_.misses;
  const auto victim = tags_.install(line, write);
  if (victim.valid() && victim.payload) {
    ++stats_.writebacks;
    result.writeback = true;
    result.victim_line = victim.key * cfg_.line_bytes;
  }
  return result;
}

bool Cache::probe(PAddr addr) const { return tags_.contains(line_of(addr)); }

void Cache::flush() { tags_.flush(); }

}  // namespace gemmini
