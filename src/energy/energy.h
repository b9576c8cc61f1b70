#pragma once
// energy:: — command-level energy metering for the simulated SoC.
//
// The estimate layer (src/estimate/power_model.h) prices *static* power from
// the instantiation alone; this subsystem prices *behaviour*: every DRAM
// column command, row activate/precharge, refresh period, DMA byte, exec MAC
// and scratchpad/accumulator row access carries a configured picojoule
// price, so a row-thrashing schedule and a row-friendly one no longer cost
// the same joules.
//
// The meter literally prices the existing counts. Components never see it:
// they count DRAM commands, refresh periods, MACs, DMA bytes and SRAM rows
// once, in their own typed stats structs. The meter is only the quantized
// price table; the Soc hands it those counts to publish the "energy.*"
// counters at each sampler window close, and the Session asks for the same
// tally to build Report::energy. Metering is observational only: it never
// feeds back into timing, so golden cycle counts are bit-identical on and
// off, and a session without `.metrics()` keeps no registry at all.
//
// Accounting is *integer femtojoules*. Config prices are doubles in pJ for
// ergonomics, but each is quantized exactly once (at meter construction) to
// a uint64 femtojoule rate; every energy is then count x rate in integers.
// That makes every derived number — totals, per-channel splits, per-window
// power timelines — bit-exact, so cross-point merging and the sampler
// reconciliation invariant (sum(window deltas) == total) hold exactly, not
// approximately.
//
// Registry names (all values in fJ):
//   energy.dram.{act,pre,rd,wr,ref,io}_fj   per-command-kind totals
//   energy.dram.ch<N>.fj                    per-channel totals
//   energy.core<N>.{exec,dma,sp,acc}_fj     per-core component totals
// Invariant: sum over kinds == sum over channels (both sides count every
// DRAM command exactly once).

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/metrics/metrics.h"

namespace gemmini::energy {

/// Per-event energy prices, in picojoules. All default to zero, so a
/// default-constructed price table meters nothing (and `EnergyConfig` with
/// zero prices is exactly as if energy were never enabled — the
/// zero-overhead-off contract extends to the report bytes).
struct EnergyPrices {
  // DRAM command-level prices, per command the controller issued.
  double dram_act_pj = 0.0;  ///< row activate (charged per row miss)
  double dram_pre_pj = 0.0;  ///< row precharge (charged per row miss)
  double dram_rd_pj = 0.0;   ///< read column command
  double dram_wr_pj = 0.0;   ///< write column command
  double dram_ref_pj = 0.0;  ///< all-bank refresh, per channel per period
  double dram_io_pj_per_byte = 0.0;  ///< data-bus transfer, per byte

  // Accelerator-side per-access prices.
  double exec_mac_pj = 0.0;       ///< per int8 MAC retired by the array
  double dma_pj_per_byte = 0.0;   ///< DMA engine + NoC, per byte streamed
  double sp_row_pj = 0.0;         ///< scratchpad SRAM, per row touched
  double acc_row_pj = 0.0;        ///< accumulator SRAM, per row touched

  /// Static (leakage + clock tree) power. `static_mw > 0` is an explicit
  /// override in milliwatts; otherwise `static_from_model` derives it from
  /// estimate::PowerModel::accelerator_mw for the session's config. Both
  /// off (the defaults) means no static charge.
  bool static_from_model = false;
  double static_mw = 0.0;

  /// True when any price would ever charge energy.
  bool any() const {
    return dram_act_pj > 0 || dram_pre_pj > 0 || dram_rd_pj > 0 ||
           dram_wr_pj > 0 || dram_ref_pj > 0 || dram_io_pj_per_byte > 0 ||
           exec_mac_pj > 0 || dma_pj_per_byte > 0 || sp_row_pj > 0 ||
           acc_row_pj > 0 || static_from_model || static_mw > 0;
  }

  /// DDR4-class defaults (order-of-magnitude honest, not vendor-calibrated):
  /// ~1 nJ activate+precharge pair, ~10 pJ column commands, ~5 pJ/byte IO,
  /// sub-pJ on-chip events, static from the estimate-layer power model.
  static EnergyPrices ddr4_default() {
    EnergyPrices p;
    p.dram_act_pj = 600.0;
    p.dram_pre_pj = 400.0;
    p.dram_rd_pj = 10.0;
    p.dram_wr_pj = 12.0;
    p.dram_ref_pj = 2000.0;
    p.dram_io_pj_per_byte = 5.0;
    p.exec_mac_pj = 0.2;
    p.dma_pj_per_byte = 1.0;
    p.sp_row_pj = 4.0;
    p.acc_row_pj = 8.0;
    p.static_from_model = true;
    return p;
  }

  void validate() const {
    GEMMINI_CONFIG_REQUIRE(
        dram_act_pj >= 0 && dram_pre_pj >= 0 && dram_rd_pj >= 0 &&
            dram_wr_pj >= 0 && dram_ref_pj >= 0 && dram_io_pj_per_byte >= 0 &&
            exec_mac_pj >= 0 && dma_pj_per_byte >= 0 && sp_row_pj >= 0 &&
            acc_row_pj >= 0 && static_mw >= 0,
        "energy prices must be non-negative");
  }
};

struct EnergyConfig {
  bool enabled = false;
  EnergyPrices prices{};

  /// A meter is only built when this is true: enabled with an all-zero
  /// price table is exactly "off", which is what makes the zero-price
  /// report byte-identical to a session built without energy at all.
  bool active() const { return enabled && prices.any(); }

  static EnergyConfig enabled_default() {
    EnergyConfig cfg;
    cfg.enabled = true;
    cfg.prices = EnergyPrices::ddr4_default();
    return cfg;
  }

  void validate() const { prices.validate(); }
};

/// One DRAM channel's command counts for a run, as the controller kept them.
struct DramCounts {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_misses = 0;       ///< each one an ACT + PRE pair
  std::uint64_t bytes = 0;
  std::uint64_t refresh_periods = 0;  ///< all-bank refresh periods entered
};

/// One core's accelerator-side counts for a run.
struct CoreCounts {
  std::uint64_t macs = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t sp_rows = 0;   ///< scratchpad rows touched
  std::uint64_t acc_rows = 0;  ///< accumulator rows touched
};

/// A run's dynamic energy in fJ, priced from its counts. The per-kind DRAM
/// totals and the per-channel totals partition the same commands.
struct Tally {
  std::uint64_t dram_act = 0, dram_pre = 0, dram_rd = 0, dram_wr = 0;
  std::uint64_t dram_ref = 0, dram_io = 0;
  std::vector<std::uint64_t> dram_channel;
  struct Core {
    std::uint64_t exec = 0, dma = 0, sp = 0, acc = 0;
  };
  std::vector<Core> cores;

  /// Writes the tally as the "energy.*" counters listed above.
  void publish(metrics::Registry& reg) const;
};

/// The quantized price table. Holds no counts: the Soc hands it each run's
/// component counts and it returns (or publishes) their energy.
class EnergyMeter {
 public:
  /// Quantizes a picojoule price to integer femtojoules, once.
  static std::uint64_t to_fj(double pj) {
    return pj <= 0 ? 0 : static_cast<std::uint64_t>(std::llround(pj * 1000.0));
  }

  /// `static_mw` is the *resolved* static power (override or model-derived;
  /// the session computes it, because only the session sees the config and
  /// the power model). `clock_ghz` converts it to an fJ/cycle rate and
  /// backs the fJ->watts conversions.
  EnergyMeter(const EnergyConfig& cfg, double static_mw, double clock_ghz);

  const EnergyConfig& config() const { return cfg_; }
  double clock_ghz() const { return clock_ghz_; }
  double static_mw() const { return static_mw_; }
  std::uint64_t static_fj_per_cycle() const { return static_fj_per_cycle_; }

  /// fJ -> watts over a span of cycles at the meter's clock:
  /// W = fJ * 1e-15 / (cycles / (GHz * 1e9)) = fJ * GHz * 1e-6 / cycles.
  double watts(std::uint64_t fj, Cycle cycles) const {
    if (cycles == 0) return 0.0;
    return static_cast<double>(fj) * clock_ghz_ * 1e-6 /
           static_cast<double>(cycles);
  }

  /// Prices one run: every DRAM column command (RD or WR plus per-byte IO,
  /// plus ACT+PRE on a row miss), every refresh period, and each core's
  /// MACs, DMA bytes and SRAM rows.
  Tally price(const std::vector<DramCounts>& channels,
              const std::vector<CoreCounts>& cores) const;

 private:
  EnergyConfig cfg_;
  double static_mw_;
  double clock_ghz_;

  // Quantized price table (fJ).
  std::uint64_t act_fj_, pre_fj_, rd_fj_, wr_fj_, ref_fj_, io_byte_fj_;
  std::uint64_t mac_fj_, dma_byte_fj_, sp_row_fj_, acc_row_fj_;
  std::uint64_t static_fj_per_cycle_;
};

}  // namespace gemmini::energy
