#include "src/vm/page_table.h"

#include <algorithm>

namespace gemmini {

AddressSpace::AddressSpace(PhysMem& mem, FrameAllocator& frames, VAddr va_base)
    : mem_(mem), frames_(frames), root_(frames.alloc_frame()),
      next_va_(va_base) {}

void AddressSpace::map_page(VAddr va, PAddr pa) {
  GEMMINI_CHECK_MSG(page_offset(va) == 0 && page_offset(pa) == 0,
                    "map_page requires page-aligned addresses");
  PAddr table = root_;
  for (unsigned level = 0; level < kPtLevels - 1; ++level) {
    const PAddr slot = table + vpn_slice(va, level) * sizeof(std::uint64_t);
    Pte pte{mem_.read_scalar<std::uint64_t>(slot)};
    if (!pte.valid()) {
      const PAddr next = frames_.alloc_frame();
      pte = Pte::make(next, /*leaf=*/false);
      mem_.write_scalar<std::uint64_t>(slot, pte.raw);
    }
    GEMMINI_CHECK_MSG(!pte.leaf(), "unexpected superpage in walk");
    table = pte.target();
  }
  const PAddr slot =
      table + vpn_slice(va, kPtLevels - 1) * sizeof(std::uint64_t);
  mem_.write_scalar<std::uint64_t>(slot, Pte::make(pa, /*leaf=*/true).raw);
  ++mapped_pages_;
}

VAddr AddressSpace::alloc(std::uint64_t bytes) {
  if (bytes == 0) bytes = 1;
  const VAddr base = next_va_;
  const VAddr end = base + bytes;
  VAddr va = page_base(base);
  // base is always page-aligned by construction (we bump in page units),
  // but keep the loop robust to future sub-page packing.
  for (; va < end; va += kPageBytes) {
    map_page(va, frames_.alloc_frame());
  }
  next_va_ = va;
  return base;
}

PAddr AddressSpace::translate(VAddr va) const {
  return walk(va, [](unsigned, PAddr) {}) | page_offset(va);
}

void AddressSpace::write_virt(VAddr va, const void* src,
                              std::size_t bytes) const {
  const auto* p = static_cast<const std::uint8_t*>(src);
  for (std::size_t off = 0, chunk; off < bytes; off += chunk) {
    chunk = std::min<std::size_t>(bytes - off,
                                  kPageBytes - page_offset(va + off));
    mem_.write(translate(va + off), p + off, chunk);
  }
}

void AddressSpace::read_virt(VAddr va, void* dst, std::size_t bytes) const {
  auto* p = static_cast<std::uint8_t*>(dst);
  for (std::size_t off = 0, chunk; off < bytes; off += chunk) {
    chunk = std::min<std::size_t>(bytes - off,
                                  kPageBytes - page_offset(va + off));
    mem_.read(translate(va + off), p + off, chunk);
  }
}

}  // namespace gemmini
