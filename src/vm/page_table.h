#pragma once
// Sv39-style 3-level page tables stored in simulated physical memory.
//
// Gemmini is "the first infrastructure that provides hardware support for
// virtual memory without the need for any special driver software"; its DMA
// translates virtual addresses through TLBs backed by a page-table walker.
// We reproduce the structure: 4 KiB pages, 9 bits of VPN per level, 8-byte
// PTEs that live in PhysMem so that walker accesses exercise the real memory
// hierarchy (and PTEs get cached in the shared L2, as on the real SoC).
// One page-walk loop, AddressSpace::walk, serves both the untimed
// translate() and the timed PageTableWalker, which charges each PTE load.

#include <cstdint>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/mem/phys_mem.h"

namespace gemmini {

/// PTE layout (simplified Sv39): bit 0 = valid, bit 1 = leaf,
/// bits 63..12 = physical page base.
struct Pte {
  std::uint64_t raw = 0;
  bool valid() const { return raw & 1; }
  bool leaf() const { return raw & 2; }
  PAddr target() const { return raw & ~kPageOffsetMask; }
  static Pte make(PAddr target, bool leaf) {
    return Pte{(target & ~kPageOffsetMask) | (leaf ? 2u : 0u) | 1u};
  }
};

inline constexpr unsigned kVpnBitsPerLevel = 9;
inline constexpr unsigned kPtLevels = 3;
inline constexpr unsigned kPtesPerPage = 1u << kVpnBitsPerLevel;  // 512

/// VPN slice for level `level`, where level 0 is the root.
inline unsigned vpn_slice(VAddr va, unsigned level) {
  const unsigned shift =
      kPageShift + kVpnBitsPerLevel * (kPtLevels - 1 - level);
  return static_cast<unsigned>((va >> shift) & (kPtesPerPage - 1));
}

/// One process address space: a page-table tree plus a bump allocator for
/// virtual ranges. The software stack calls `alloc` the way a user program
/// would call malloc; pages are mapped eagerly to fresh physical frames.
class AddressSpace {
 public:
  AddressSpace(PhysMem& mem, FrameAllocator& frames,
               VAddr va_base = 0x1'0000'0000ull);

  /// Maps the page containing `va` to physical frame `pa` (both page-
  /// aligned). Intermediate tables are allocated on demand.
  void map_page(VAddr va, PAddr pa);

  /// Allocates `bytes` of fresh, mapped virtual memory (page-granular
  /// backing, byte-granular addresses) and returns its base VA.
  VAddr alloc(std::uint64_t bytes);

  /// Walks the page table for `va`, root first: calls `load(level,
  /// pte_addr)` before reading each level's PTE, and returns the leaf's
  /// physical page base. GEMMINI_CHECKs that the mapping exists. The timed
  /// page-table walker charges each PTE load through `load`.
  template <typename Load>
  PAddr walk(VAddr va, Load&& load) const {
    PAddr table = root_;
    for (unsigned level = 0;; ++level) {
      const PAddr slot = table + vpn_slice(va, level) * sizeof(std::uint64_t);
      load(level, slot);
      const Pte pte{mem_.read_scalar<std::uint64_t>(slot)};
      GEMMINI_CHECK_MSG(pte.valid(), "page fault: unmapped VA");
      if (level + 1 == kPtLevels) {
        GEMMINI_CHECK_MSG(pte.leaf(), "page walk found no leaf");
        return pte.target();
      }
      GEMMINI_CHECK_MSG(!pte.leaf(), "superpages not supported");
      table = pte.target();
    }
  }

  /// Walks the table functionally (no timing). Returns the translated
  /// physical address; GEMMINI_CHECKs that the mapping exists.
  PAddr translate(VAddr va) const;

  PAddr root() const { return root_; }
  std::uint64_t mapped_pages() const { return mapped_pages_; }

  /// Functional virtual-memory copies for the runtime: one translate() per
  /// page touched. (const: they mutate the referenced PhysMem, not the
  /// mapping itself.)
  void write_virt(VAddr va, const void* src, std::size_t bytes) const;
  void read_virt(VAddr va, void* dst, std::size_t bytes) const;

 private:
  PhysMem& mem_;
  FrameAllocator& frames_;
  PAddr root_;
  VAddr next_va_;
  std::uint64_t mapped_pages_ = 0;
};

}  // namespace gemmini
