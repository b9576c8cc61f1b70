#pragma once
// Deterministic fault-injection and resilience layer.
//
// A seeded FaultConfig drives one fault::Injector per Soc. The injector
// reaches the timed components as the `faults` member of the Soc's
// Observers (src/base/observers.h), next to the tracer: every site holds a
// possibly-null pointer, so the zero-fault default pays one predictable
// branch and stays bit-identical to the golden cycle counts.
//
// Injection sites (all seeded, all deterministic):
//   * DRAM read bit-flips at Dram::issue — with an optional SECDED ECC model.
//     Single-bit flips under ECC are *corrected*: no data corruption, but the
//     correction latency is charged to the request's completion. Multi-bit
//     flips under ECC are *detected-uncorrectable*: the corruption persists
//     in PhysMem (DRAM keeps the bad word until overwritten) and is counted.
//     With ECC off every flip is *silent* and persists.
//   * Scratchpad / accumulator SRAM flips at LocalMemory::reserve.
//   * Translation faults at TranslationSystem::translate — a transient fault
//     re-walks, charged as a fixed latency penalty.
//   * DMA transfer timeouts at DmaEngine::stream — bounded retry with
//     exponential backoff; each retry re-arbitrates the bus and is charged
//     real cycles. Exhausting the retry budget throws (a *detected* outcome).
//   * Exec-unit transient tile errors at ExecUnit::compute — a bit flip in
//     the destination rows of the just-computed tile.
//
// Each fault target draws from its own Rng stream (seeded from the campaign
// seed xor a per-target salt), and a disabled target (rate == 0) consumes no
// draws — enabling one fault class never perturbs another's sequence.
//
// DRAM read flips land in PhysMem before the DMA copies the chunk that read
// them: the DMA moves each chunk's bytes right after its timed access.
// PTW traffic (kPtwRequestor) is excluded from DRAM data flips: the page
// walk reads its PTEs from PhysMem to find each translation's frame, so
// corrupted page tables would break it. This models a machine whose page
// tables live in protected, ECC-scrubbed memory.

#include <cstdint>
#include <string>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/trace/trace.h"

namespace gemmini {
class PhysMem;
}  // namespace gemmini

namespace gemmini::fault {

/// SECDED ECC on the DRAM read path.
struct EccConfig {
  bool enabled = false;
  /// Extra cycles charged to a request whose data needed correction. The
  /// syndrome check itself is pipelined and free; only the correct-and-replay
  /// path costs time (QC-LDPC-style decoders are similar: detection is cheap,
  /// correction is the costed mechanism).
  Cycle correction_latency = 3;
};

/// Per-target fault rates. All rates are per-event probabilities in [0, 1]:
/// per DRAM read burst, per SRAM buffer reservation, per translation, per DMA
/// chunk, per compute tile. `enabled == false` (the default) compiles the
/// whole layer down to a null pointer — bit-identical golden cycles.
struct FaultConfig {
  bool enabled = false;
  std::string name;         ///< sweep-axis label (empty -> positional)
  std::uint64_t seed = 1;   ///< campaign seed; run i uses seed + i

  // DRAM read-path flips.
  double dram_read_flip_rate = 0.0;
  unsigned dram_flip_bits = 1;  ///< bits flipped per event (1 = SECDED-correctable)
  EccConfig ecc{};

  // SRAM flips in the scratchpad / accumulator, drawn per reserve().
  double sp_flip_rate = 0.0;
  double acc_flip_rate = 0.0;

  // Transient translation faults: the access re-walks after a fixed penalty.
  double translation_fault_rate = 0.0;
  Cycle translation_fault_penalty = 200;

  // DMA transfer timeouts with bounded retry + exponential backoff.
  double dma_timeout_rate = 0.0;
  Cycle dma_timeout_cycles = 500;  ///< cycles lost before the timeout fires
  unsigned dma_max_retries = 3;
  Cycle dma_retry_backoff = 16;    ///< base backoff; retry i waits base << i

  // Exec-unit transient tile errors (bit flip in the tile's destination).
  double exec_tile_error_rate = 0.0;

  void validate() const;
};

/// Injection counters, aggregated into Report::reliability. All exact.
struct FaultStats {
  std::uint64_t dram_read_flips = 0;   ///< flip events drawn on DRAM reads
  std::uint64_t ecc_corrected = 0;
  std::uint64_t ecc_detected_uncorrectable = 0;
  std::uint64_t silent_flips = 0;      ///< ECC off: corruption nobody saw
  Cycle ecc_correction_cycles = 0;
  std::uint64_t sp_flips = 0;
  std::uint64_t acc_flips = 0;
  std::uint64_t translation_faults = 0;
  Cycle translation_fault_cycles = 0;
  std::uint64_t dma_timeouts = 0;
  std::uint64_t dma_retries = 0;
  Cycle dma_retry_cycles = 0;
  std::uint64_t dma_aborts = 0;        ///< retry budget exhausted (throws)
  std::uint64_t exec_tile_errors = 0;

  std::uint64_t total_injected() const {
    return dram_read_flips + sp_flips + acc_flips + translation_faults +
           dma_timeouts + exec_tile_errors;
  }

  FaultStats& operator+=(const FaultStats& o);
  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

/// One Rng stream per target so fault classes are independent.
enum class Target : unsigned {
  kDramRead,
  kSpSram,
  kAccSram,
  kTranslation,
  kDmaTimeout,
  kExecTile,
  kNumTargets,
};

/// The per-Soc injector. Single-threaded like the rest of a Session, so the
/// sequential draw order is deterministic for a fixed config and workload.
class Injector {
 public:
  explicit Injector(const FaultConfig& cfg, trace::Tracer* tracer = nullptr);

  /// The Soc attaches its physical memory after constructing MemorySystem;
  /// DRAM flips persist there (DRAM keeps corrupted words until overwritten).
  void attach_phys(PhysMem* phys) { phys_ = phys; }

  /// Re-seeds every stream and zeroes the counters (Soc::reset_time), so
  /// repeated runs of one Session see identical fault sequences.
  void reset();

  const FaultConfig& config() const { return cfg_; }
  const FaultStats& stats() const { return stats_; }

  /// DRAM read completing at `done`: maybe flip bits in [addr, addr+bytes).
  /// Returns extra completion latency (ECC correction); corruption, if any,
  /// is applied to the attached PhysMem.
  Cycle on_dram_read(PAddr addr, std::uint64_t bytes, Cycle done,
                     int requestor);

  /// SRAM reservation covering `region_bits` bits at time `at`. Returns true
  /// and the bit to flip (caller owns the backing store).
  bool draw_sram_flip(bool accumulator, std::uint64_t region_bits, Cycle at,
                      std::uint64_t* bit);

  /// Translation starting at `t`: returns the (possibly zero) fault penalty.
  Cycle on_translate(Cycle t);

  /// One draw per DMA chunk attempt (including retries of the same chunk).
  bool draw_dma_timeout();
  void note_dma_retry(bool is_write, unsigned attempt, Cycle begin, Cycle end);
  void note_dma_abort() { ++stats_.dma_aborts; }

  /// Compute tile finishing at `at` whose destination covers `region_bits`.
  bool draw_exec_tile_error(std::uint64_t region_bits, Cycle at,
                            std::uint64_t* bit);

 private:
  /// rate <= 0 short-circuits *without consuming a draw*.
  bool fires(Target t, double rate) {
    if (rate <= 0.0) return false;
    return rng_[static_cast<unsigned>(t)].next_double() < rate;
  }
  std::uint64_t pick(Target t, std::uint64_t bound) {
    return rng_[static_cast<unsigned>(t)].next_below(bound);
  }
  void corrupt_dram(PAddr addr, std::uint64_t bytes, unsigned nbits);

  FaultConfig cfg_;
  trace::Tracer* tracer_;
  PhysMem* phys_ = nullptr;
  Rng rng_[static_cast<unsigned>(Target::kNumTargets)];
  FaultStats stats_;
};

}  // namespace gemmini::fault
