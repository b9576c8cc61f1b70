#include "src/energy/energy.h"

namespace gemmini::energy {

EnergyMeter::EnergyMeter(const EnergyConfig& cfg, double static_mw,
                         double clock_ghz)
    : cfg_(cfg),
      static_mw_(static_mw),
      clock_ghz_(clock_ghz > 0 ? clock_ghz : 1.0) {
  cfg_.validate();
  const EnergyPrices& p = cfg_.prices;
  act_fj_ = to_fj(p.dram_act_pj);
  pre_fj_ = to_fj(p.dram_pre_pj);
  rd_fj_ = to_fj(p.dram_rd_pj);
  wr_fj_ = to_fj(p.dram_wr_pj);
  ref_fj_ = to_fj(p.dram_ref_pj);
  io_byte_fj_ = to_fj(p.dram_io_pj_per_byte);
  mac_fj_ = to_fj(p.exec_mac_pj);
  dma_byte_fj_ = to_fj(p.dma_pj_per_byte);
  sp_row_fj_ = to_fj(p.sp_row_pj);
  acc_row_fj_ = to_fj(p.acc_row_pj);
  // Static power as an fJ/cycle rate: mW / GHz == pJ/cycle, quantized once
  // so that (rate x cycles) sums are exact integers like everything else.
  static_fj_per_cycle_ = to_fj(static_mw_ / clock_ghz_);
}

Tally EnergyMeter::price(const std::vector<DramCounts>& channels,
                         const std::vector<CoreCounts>& cores) const {
  Tally t;
  for (const DramCounts& c : channels) {
    const std::uint64_t act = c.row_misses * act_fj_;
    const std::uint64_t pre = c.row_misses * pre_fj_;
    const std::uint64_t rd = c.reads * rd_fj_;
    const std::uint64_t wr = c.writes * wr_fj_;
    const std::uint64_t ref = c.refresh_periods * ref_fj_;
    const std::uint64_t io = c.bytes * io_byte_fj_;
    t.dram_act += act;
    t.dram_pre += pre;
    t.dram_rd += rd;
    t.dram_wr += wr;
    t.dram_ref += ref;
    t.dram_io += io;
    t.dram_channel.push_back(act + pre + rd + wr + ref + io);
  }
  for (const CoreCounts& c : cores) {
    t.cores.push_back({c.macs * mac_fj_, c.dma_bytes * dma_byte_fj_,
                       c.sp_rows * sp_row_fj_, c.acc_rows * acc_row_fj_});
  }
  return t;
}

void Tally::publish(metrics::Registry& reg) const {
  reg.counter("energy.dram.act_fj").set(dram_act);
  reg.counter("energy.dram.pre_fj").set(dram_pre);
  reg.counter("energy.dram.rd_fj").set(dram_rd);
  reg.counter("energy.dram.wr_fj").set(dram_wr);
  reg.counter("energy.dram.ref_fj").set(dram_ref);
  reg.counter("energy.dram.io_fj").set(dram_io);
  for (std::size_t ch = 0; ch < dram_channel.size(); ++ch) {
    reg.counter("energy.dram.ch" + std::to_string(ch) + ".fj")
        .set(dram_channel[ch]);
  }
  for (std::size_t i = 0; i < cores.size(); ++i) {
    const std::string p = "energy.core" + std::to_string(i) + ".";
    reg.counter(p + "exec_fj").set(cores[i].exec);
    reg.counter(p + "dma_fj").set(cores[i].dma);
    reg.counter(p + "sp_fj").set(cores[i].sp);
    reg.counter(p + "acc_fj").set(cores[i].acc);
  }
}

}  // namespace gemmini::energy
