#include "src/accel/dma.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "src/base/fixed.h"
#include "src/fault/fault.h"
#include "src/trace/trace.h"

namespace gemmini {

Occupancy DmaEngine::stream(const AddressSpace& as, VAddr va,
                            std::uint64_t bytes, bool write, Cycle issue,
                            std::uint8_t* data) {
  Occupancy r{issue, issue};
  std::deque<Cycle>& inflight_ = write ? write_inflight_ : read_inflight_;
  std::uint64_t remaining = bytes;
  VAddr cur = va;
  while (remaining > 0) {
    // Chunks never cross a page (re-translate at page boundaries) and are at
    // most one DMA request (= one L2 line) long.
    const std::uint64_t to_page_end = kPageBytes - page_offset(cur);
    const std::uint64_t chunk =
        std::min({remaining, to_page_end,
                  static_cast<std::uint64_t>(cfg_.dma_req_bytes)});

    // One request enters the pipe per cycle; a full in-flight window stalls
    // the issue stage until the oldest request retires.
    Cycle slot = r.free_at;
    if (inflight_.size() >= cfg_.dma_max_inflight) {
      slot = std::max(slot, inflight_.front());
      inflight_.pop_front();
    }
    // Private-TLB (and filter-register) hits are pipelined with issue: they
    // add latency to *this* request without blocking the next from entering
    // the pipe. Misses are blocking, as in the RTL's TLB: the DMA stalls
    // until the shared-TLB lookup or page walk resolves — this is why TLB
    // sizing matters so much in the paper's Fig. 8.
    const Translation tr = translation_.translate(as, cur, write, slot);
    Cycle req_t = std::max(tr.done, slot);
    Cycle done = mem_.access(tr.paddr, chunk, write, req_t, requestor_);
    // Fault layer: a transfer may time out. Each retry waits out the timeout
    // plus an exponential backoff, then re-arbitrates the bus for real (the
    // re-issued access mutates bus/bank state again, charging real cycles).
    // Exhausting the retry budget aborts the run — a *detected* outcome.
    if (obs_.faults) {
      unsigned attempt = 0;
      while (obs_.faults->draw_dma_timeout()) {
        const auto& fc = obs_.faults->config();
        if (attempt >= fc.dma_max_retries) {
          obs_.faults->note_dma_abort();
          std::ostringstream oss;
          oss << "dma: " << (write ? "write" : "read") << " of " << chunk
              << " bytes at VA 0x" << std::hex << cur << std::dec
              << " (requestor " << requestor_.value << ") timed out after "
              << fc.dma_max_retries << " retries (cycle " << req_t << ")";
          throw RuntimeError(oss.str());
        }
        const Cycle lost_at = std::max(done, req_t + fc.dma_timeout_cycles);
        const Cycle retry_at = lost_at + (fc.dma_retry_backoff << attempt);
        obs_.faults->note_dma_retry(write, attempt, req_t, retry_at);
        req_t = retry_at;
        done = mem_.access(tr.paddr, chunk, write, req_t, requestor_);
        ++attempt;
      }
    }
    // The bytes move at the physical address the timed lookup returned,
    // after the access that carried them (DRAM read flips included).
    if (data) {
      if (write) {
        mem_.phys().write(tr.paddr, data, chunk);
      } else {
        mem_.phys().read(tr.paddr, data, chunk);
      }
      data += chunk;
    }
    inflight_.push_back(done);
    r.done_at = std::max(r.done_at, done);
    const bool blocking_miss = tr.level == TranslationLevel::kSharedTlb ||
                               tr.level == TranslationLevel::kPageWalk;
    r.free_at = blocking_miss ? tr.done + 1 : slot + 1;
    cur += chunk;
    remaining -= chunk;
  }
  if (obs_.trace) {
    obs_.trace->span(write ? trace::EventKind::kDmaBurstWrite
                           : trace::EventKind::kDmaBurstRead,
                     issue, r.done_at, bytes, requestor_.value);
  }
  (write ? stats_.store_bytes : stats_.load_bytes) += bytes;
  return r;
}

Occupancy DmaEngine::mvin(const AddressSpace& as, VAddr dram,
                          std::uint64_t stride_bytes, float scale,
                          LocalAddr dst, unsigned rows, unsigned cols,
                          Cycle start, bool functional, bool int4) {
  GEMMINI_CHECK_MSG(!dst.is_garbage(), "mvin needs a destination");
  GEMMINI_CHECK_MSG(cols <= cfg_.dim(), "mvin cols " << cols << " > dim");
  GEMMINI_CHECK_MSG(!int4 || (!dst.is_acc() && cfg_.dtype == DType::kInt8),
                    "int4 mvin dequantizes into the int8 scratchpad");
  const std::size_t elem = cfg_.input_bytes();
  // DRAM-side row width: packed int4 rows carry two elements per byte, so
  // the memory system (and the row-hit behavior under study) sees half the
  // traffic of the equivalent int8 load.
  const std::uint64_t row_bytes =
      int4 ? (static_cast<std::uint64_t>(cols) + 1) / 2
           : static_cast<std::uint64_t>(cols) * elem;

  // Consecutive rows that are contiguous in DRAM (stride == row width)
  // coalesce into one burst, so the memory system sees line-sized requests
  // instead of row-sized ones — matching the RTL DMA's request coalescing.
  const unsigned burst = stride_bytes == row_bytes ? rows : 1;
  LocalMemory& local = local_memory(dst, sp_, acc_);
  // Functional runs stream the whole transfer into a staging buffer, then
  // convert it row-by-row with the dtype/destination branch hoisted out of
  // the loops.
  if (functional) stage_.resize(row_bytes * rows);
  std::uint8_t* const buf_data = stage_.data();
  Occupancy occ{start, start};
  for (unsigned r = 0; r < rows; r += burst) {
    const Occupancy s =
        stream(as, dram + r * stride_bytes, burst * row_bytes,
               /*write=*/false, occ.free_at,
               functional ? buf_data + r * row_bytes : nullptr);
    occ.free_at = s.free_at;
    // Local write happens when the data lands.
    occ.done_at = std::max(occ.done_at,
                           local.reserve(dst.row() + r, burst, s.done_at, 1));
  }

  if (functional) {
    if (dst.is_acc()) {
      // Input-typed payload widened into the accumulator, honoring the
      // accumulate bit (this is how residual additions run on Gemmini).
      if (cfg_.dtype == DType::kInt8) {
        std::vector<std::int32_t> wide(cols);
        for (unsigned r = 0; r < rows; ++r) {
          const auto* src = reinterpret_cast<const std::int8_t*>(
              buf_data + static_cast<std::size_t>(r) * row_bytes);
          for (unsigned c = 0; c < cols; ++c) {
            wide[c] = static_cast<std::int32_t>(scale_i8(src[c], scale));
          }
          acc_.write_row_i32(dst.row() + r, wide.data(), cols,
                             dst.accumulate());
        }
      } else if (scale == 1.0f) {
        for (unsigned r = 0; r < rows; ++r) {
          const auto* src = reinterpret_cast<const float*>(
              buf_data + static_cast<std::size_t>(r) * row_bytes);
          acc_.write_row_f32(dst.row() + r, src, cols, dst.accumulate());
        }
      } else {
        std::vector<float> wide(cols);
        for (unsigned r = 0; r < rows; ++r) {
          const auto* src = reinterpret_cast<const float*>(
              buf_data + static_cast<std::size_t>(r) * row_bytes);
          for (unsigned c = 0; c < cols; ++c) wide[c] = src[c] * scale;
          acc_.write_row_f32(dst.row() + r, wide.data(), cols,
                             dst.accumulate());
        }
      }
    } else if (int4) {
      // Unpack two's-complement nibbles (low nibble first) and sign-extend
      // into the int8 scratchpad row.
      for (unsigned r = 0; r < rows; ++r) {
        const std::uint8_t* src =
            buf_data + static_cast<std::size_t>(r) * row_bytes;
        std::uint8_t* row = sp_.row_ptr(dst.row() + r);
        for (unsigned c = 0; c < cols; ++c) {
          const std::uint8_t nib =
              (c & 1) ? static_cast<std::uint8_t>(src[c >> 1] >> 4)
                      : static_cast<std::uint8_t>(src[c >> 1] & 0xF);
          std::int8_t v = static_cast<std::int8_t>(
              static_cast<std::int8_t>(nib << 4) >> 4);
          if (scale != 1.0f) v = scale_i8(v, scale);
          row[c] = static_cast<std::uint8_t>(v);
        }
        std::fill(row + cols, row + sp_.row_bytes(), 0);
      }
    } else if (cfg_.dtype == DType::kInt8 && scale != 1.0f) {
      for (unsigned r = 0; r < rows; ++r) {
        const auto* src = reinterpret_cast<const std::int8_t*>(
            buf_data + static_cast<std::size_t>(r) * row_bytes);
        std::uint8_t* row = sp_.row_ptr(dst.row() + r);
        for (unsigned c = 0; c < cols; ++c) {
          row[c] = static_cast<std::uint8_t>(scale_i8(src[c], scale));
        }
        std::fill(row + row_bytes, row + sp_.row_bytes(), 0);
      }
    } else {
      for (unsigned r = 0; r < rows; ++r) {
        std::uint8_t* row = sp_.row_ptr(dst.row() + r);
        const std::uint8_t* src =
            buf_data + static_cast<std::size_t>(r) * row_bytes;
        std::copy(src, src + row_bytes, row);
        // Zero-pad the rest of the row so partial tiles compute correctly.
        std::fill(row + row_bytes, row + sp_.row_bytes(), 0);
      }
    }
  }
  return occ;
}

Occupancy DmaEngine::mvout(const AddressSpace& as, VAddr dram,
                           std::uint64_t stride_bytes, LocalAddr src,
                           unsigned rows, unsigned cols, unsigned out_shift,
                           Activation act, Cycle start, bool functional) {
  GEMMINI_CHECK_MSG(!src.is_garbage(), "mvout needs a source");
  GEMMINI_CHECK_MSG(cols <= cfg_.dim(), "mvout cols " << cols << " > dim");
  const std::size_t elem = cfg_.input_bytes();
  const std::uint64_t row_bytes = static_cast<std::uint64_t>(cols) * elem;

  // Contiguous output rows coalesce into one burst (see mvin).
  const unsigned burst = stride_bytes == row_bytes ? rows : 1;
  LocalMemory& local = local_memory(src, sp_, acc_);
  // Functional runs assemble each burst's output rows in a staging buffer
  // (read-out pipeline applied for accumulator sources) right after the
  // burst's local read, then stream them out.
  if (functional) stage_.resize(row_bytes * rows);
  std::uint8_t* const buf_data = stage_.data();
  Occupancy occ{start, start};
  for (unsigned r = 0; r < rows; r += burst) {
    // Local read first (1 cycle per row through the read-out pipeline)...
    const Cycle read_done =
        local.reserve(src.row() + r, burst, occ.free_at, burst);
    if (functional) {
      for (unsigned i = r; i < r + burst; ++i) {
        std::uint8_t* out =
            buf_data + static_cast<std::size_t>(i) * row_bytes;
        if (!src.is_acc()) {
          const std::uint8_t* row = sp_.row_ptr(src.row() + i);
          std::copy(row, row + row_bytes, out);
        } else if (cfg_.dtype == DType::kInt8) {
          acc_.readout_i8(src.row() + i, cols, out_shift, act,
                          reinterpret_cast<std::int8_t*>(out));
        } else {
          acc_.readout_f32(src.row() + i, cols, act,
                           reinterpret_cast<float*>(out));
        }
      }
    }
    // ...then the write stream to memory.
    const Occupancy s =
        stream(as, dram + r * stride_bytes, burst * row_bytes,
               /*write=*/true, read_done - burst + 1,
               functional ? buf_data + r * row_bytes : nullptr);
    occ.free_at = std::max(occ.free_at + burst, s.free_at);
    occ.done_at = std::max(occ.done_at, s.done_at);
  }
  return occ;
}

}  // namespace gemmini
