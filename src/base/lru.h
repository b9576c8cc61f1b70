#pragma once
// Set-associative tag store with true-LRU replacement: the one replacement
// policy of the SoC's tag stores. The shared L2 (src/mem/cache.h), both TLB
// levels (src/vm/tlb.h) and the page-table walker's PTE cache
// (src/vm/ptw.h) each hold one `LruSets`.
//
// A key lives in set `key % sets`. `install` places it by one rule: the way
// already holding the key, else the set's first invalid way, else its least
// recently used way. Every hit (`find`, `find_at`) and every `install` stamps
// its entry with the next tick of the store's clock, so a set's LRU order is
// the order of last use. True LRU has the stack property (Mattson et al.,
// IBM Systems Journal 1970): at equal set count, every key resident with w
// ways is also resident with w+1, so the larger store never misses more on
// the same key stream. tests/mem_test.cc checks it on this class, the L2 and
// a TLB.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gemmini {

/// Payload of a store that only records presence (the PTE cache).
struct NoPayload {};

template <typename Payload = NoPayload>
class LruSets {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t stamp = 0;  ///< clock tick of the last use; 0 = invalid
    [[no_unique_address]] Payload payload{};

    bool valid() const { return stamp != 0; }
  };

  /// `ways == 0` gives a store that holds nothing.
  LruSets(unsigned sets, unsigned ways)
      : sets_(sets), ways_(ways),
        entries_(static_cast<std::size_t>(sets) * ways) {}

  /// The entry holding `key`, stamped most recently used; null on a miss.
  Entry* find(std::uint64_t key) {
    Entry* e = const_cast<Entry*>(lookup(key));
    if (e != nullptr) e->stamp = ++clock_;
    return e;
  }

  /// `find` for a key remembered at entry `idx`: the entry, stamped most
  /// recently used, if it still holds `key`; null otherwise.
  Entry* find_at(std::size_t idx, std::uint64_t key) {
    Entry& e = entries_[idx];
    if (!e.valid() || e.key != key) return nullptr;
    e.stamp = ++clock_;
    return &e;
  }

  /// True if `key` is resident. Changes no state.
  bool contains(std::uint64_t key) const { return lookup(key) != nullptr; }

  /// Places `key` with `payload` (see the rule above) and stamps it. Returns
  /// a copy of the valid entry it evicted, or an invalid entry when it took
  /// a free way or refreshed `key` in place.
  Entry install(std::uint64_t key, const Payload& payload) {
    if (ways_ == 0) return Entry{};
    Entry* set = entries_.data() + first_way(key);
    Entry* way = set;
    for (unsigned w = 0; w < ways_; ++w) {
      Entry& e = set[w];
      if (e.valid() && e.key == key) {
        way = &e;
        break;
      }
      // Invalid ways carry stamp 0, so the first minimum is the first
      // invalid way if there is one, else the LRU way.
      if (e.stamp < way->stamp) way = &e;
    }
    Entry evicted;
    if (way->key != key) evicted = *way;
    *way = Entry{key, ++clock_, payload};
    return evicted;
  }

  /// Invalidates every entry.
  void flush() {
    std::fill(entries_.begin(), entries_.end(), Entry{});
    clock_ = 0;
  }

  /// Position of `e` in the store, for `find_at`.
  std::size_t index_of(const Entry& e) const {
    return static_cast<std::size_t>(&e - entries_.data());
  }

 private:
  std::size_t first_way(std::uint64_t key) const {
    return key % sets_ * ways_;
  }
  const Entry* lookup(std::uint64_t key) const {
    const Entry* set = entries_.data() + first_way(key);
    for (unsigned w = 0; w < ways_; ++w) {
      if (set[w].valid() && set[w].key == key) return &set[w];
    }
    return nullptr;
  }

  unsigned sets_;
  unsigned ways_;
  std::vector<Entry> entries_;  // sets_ * ways_, set-major
  std::uint64_t clock_ = 0;
};

}  // namespace gemmini
