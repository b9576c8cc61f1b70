// Tests for the fault-injection & resilience subsystem: seeded injection
// determinism, ECC semantics on the DRAM read path, DMA retry/abort, the
// SoC watchdog, fail-soft sweeps, and fault campaigns (classification
// against a fault-free golden run).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/model/graph.h"
#include "src/sim/experiment.h"
#include "src/sim/report.h"
#include "src/sim/session.h"
#include "src/trace/trace.h"

namespace gemmini {
namespace {

// Small but representative: conv (im2col DMA traffic + tiles) into a dense
// head whose logits make output corruption visible.
Model tiny_model() {
  ModelBuilder b("fault-tiny");
  b.input(12, 12, 8);
  b.conv(16, 3, 1, 1, Activation::kRelu);
  b.dense(10);
  return b.build();
}

SocConfig fault_base() {
  SocConfig cfg;
  cfg.faults.enabled = true;
  cfg.faults.seed = 99;
  return cfg;
}

sim::Session make_session(const SocConfig& cfg, bool functional = true) {
  return sim::Session::builder(cfg).functional(functional).seed(7).build();
}

std::vector<std::uint8_t> read_output(sim::Session& s) {
  const LoweredModel& lm = s.last_lowered();
  std::vector<std::uint8_t> out(lm.layer_bytes.back());
  s.address_space().read_virt(lm.layer_output.back(), out.data(), out.size());
  return out;
}

// ---- Config validation ------------------------------------------------------

TEST(FaultConfig, ValidatesRatesAndShape) {
  fault::FaultConfig fc;
  fc.enabled = true;
  fc.dram_read_flip_rate = 1.5;
  EXPECT_THROW(fc.validate(), ConfigError);

  fault::FaultConfig bits;
  bits.enabled = true;
  bits.dram_flip_bits = 0;
  EXPECT_THROW(bits.validate(), ConfigError);

  // Disabled configs skip validation entirely (rates may be garbage while
  // the axis is parked).
  fault::FaultConfig off;
  off.dram_read_flip_rate = 7.0;
  EXPECT_NO_THROW(off.validate());

  SocConfig cfg;
  cfg.faults.enabled = true;
  cfg.faults.sp_flip_rate = -0.5;
  EXPECT_THROW(sim::Session::builder(cfg).build(), ConfigError);
}

// ---- Zero-fault bit-identity ------------------------------------------------

TEST(FaultInjection, ZeroRateRunsAreBitIdentical) {
  const Model m = tiny_model();
  sim::Session plain = make_session(SocConfig{});
  const sim::Report base = plain.run(m);

  // Injector present but every rate zero: no draws, no perturbation.
  SocConfig armed = fault_base();
  sim::Session with_injector = make_session(armed);
  const sim::Report armed_rep = with_injector.run(m);
  EXPECT_EQ(armed_rep.cycles, base.cycles);
  EXPECT_EQ(armed_rep.cycles_by_tag, base.cycles_by_tag);
  EXPECT_TRUE(armed_rep.reliability.enabled);
  EXPECT_EQ(armed_rep.reliability.injection.total_injected(), 0u);

  // Rates set but the layer disabled: no injector is even built.
  SocConfig disarmed;
  disarmed.faults.dram_read_flip_rate = 0.5;
  disarmed.faults.dma_timeout_rate = 0.5;
  sim::Session off = make_session(disarmed);
  const sim::Report off_rep = off.run(m);
  EXPECT_EQ(off_rep.cycles, base.cycles);
  EXPECT_FALSE(off_rep.reliability.enabled);
}

TEST(FaultInjection, SameSeedReproducesSameRun) {
  SocConfig cfg = fault_base();
  cfg.faults.dram_read_flip_rate = 0.05;
  cfg.faults.ecc.enabled = true;
  sim::Session a = make_session(cfg);
  sim::Session b = make_session(cfg);
  const sim::Report ra = a.run(tiny_model());
  const sim::Report rb = b.run(tiny_model());
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(ra.to_json(), rb.to_json());
  // And repeated runs of one session re-seed via Soc::reset_time.
  const sim::Report ra2 = a.run(tiny_model());
  EXPECT_EQ(ra2.reliability.injection, ra.reliability.injection);
}

// ---- DRAM flips & ECC -------------------------------------------------------

TEST(FaultInjection, EccCorrectsSingleBitFlips) {
  const Model m = tiny_model();
  sim::Session golden = make_session(SocConfig{});
  const sim::Report gr = golden.run(m);
  const auto golden_out = read_output(golden);

  SocConfig cfg = fault_base();
  cfg.faults.dram_read_flip_rate = 0.05;
  cfg.faults.dram_flip_bits = 1;
  cfg.faults.ecc.enabled = true;
  sim::Session s = make_session(cfg);
  const sim::Report r = s.run(m);

  const auto& inj = r.reliability.injection;
  EXPECT_GT(inj.dram_read_flips, 0u);
  EXPECT_EQ(inj.ecc_corrected, inj.dram_read_flips);
  EXPECT_EQ(inj.ecc_detected_uncorrectable, 0u);
  EXPECT_EQ(inj.silent_flips, 0u);
  EXPECT_GT(inj.ecc_correction_cycles, 0u);
  // Correction never corrupts data, and its latency is charged.
  EXPECT_EQ(read_output(s), golden_out);
  EXPECT_GE(r.cycles, gr.cycles);
}

TEST(FaultInjection, SilentFlipsCorruptOutputWithoutEcc) {
  const Model m = tiny_model();
  sim::Session golden = make_session(SocConfig{});
  golden.run(m);
  const auto golden_out = read_output(golden);

  SocConfig cfg = fault_base();
  cfg.faults.dram_read_flip_rate = 0.3;
  cfg.faults.dram_flip_bits = 4;
  sim::Session s = make_session(cfg);
  s.run(m);
  const auto& inj = s.soc().fault_injector()->stats();
  EXPECT_GT(inj.silent_flips, 0u);
  EXPECT_EQ(inj.ecc_corrected, 0u);
  EXPECT_NE(read_output(s), golden_out);
}

TEST(FaultInjection, MultiBitFlipsAreDetectedUncorrectable) {
  SocConfig cfg = fault_base();
  cfg.faults.dram_read_flip_rate = 0.1;
  cfg.faults.dram_flip_bits = 2;  // beyond SECDED correction
  cfg.faults.ecc.enabled = true;
  sim::Session s = make_session(cfg);
  s.run(tiny_model());
  const auto& inj = s.soc().fault_injector()->stats();
  EXPECT_GT(inj.ecc_detected_uncorrectable, 0u);
  EXPECT_EQ(inj.ecc_corrected, 0u);
  EXPECT_EQ(inj.silent_flips, 0u);
}

// ---- SRAM, translation, exec ------------------------------------------------

TEST(FaultInjection, SramFlipCountersTrack) {
  SocConfig cfg = fault_base();
  cfg.faults.sp_flip_rate = 0.05;
  cfg.faults.acc_flip_rate = 0.05;
  sim::Session s = make_session(cfg);
  s.run(tiny_model());
  const auto& inj = s.soc().fault_injector()->stats();
  // Exact counts and output bytes pin where the flips land: one draw per
  // reservation, over the reserved rows' bytes of the chosen memory.
  EXPECT_EQ(inj.sp_flips, 79u);
  EXPECT_EQ(inj.acc_flips, 21u);
  const std::vector<std::uint8_t> expected = {
      187, 22, 18, 128, 255, 236, 243, 24, 127, 244, 0, 0, 0, 0, 0, 0,
      0,   0,  0,  0,   0,   0,   0,   0,  0,   0,   0, 0, 0, 0, 0, 0};
  EXPECT_EQ(read_output(s), expected);
}

TEST(FaultInjection, TranslationFaultsChargeFixedPenalty) {
  const sim::Report base = make_session(SocConfig{}).run(tiny_model());

  SocConfig cfg = fault_base();
  cfg.faults.translation_fault_rate = 0.02;
  cfg.faults.translation_fault_penalty = 200;
  sim::Session s = make_session(cfg);
  const sim::Report r = s.run(tiny_model());
  const auto& inj = r.reliability.injection;
  EXPECT_GT(inj.translation_faults, 0u);
  EXPECT_EQ(inj.translation_fault_cycles, inj.translation_faults * 200u);
  EXPECT_GT(r.cycles, base.cycles);
}

TEST(FaultInjection, ExecTileErrorsCorruptComputedOutput) {
  const Model m = tiny_model();
  sim::Session golden = make_session(SocConfig{});
  golden.run(m);
  const auto golden_out = read_output(golden);

  SocConfig cfg = fault_base();
  cfg.faults.exec_tile_error_rate = 0.1;
  sim::Session s = make_session(cfg);
  s.run(m);
  EXPECT_EQ(s.soc().fault_injector()->stats().exec_tile_errors, 24u);
  EXPECT_NE(read_output(s), golden_out);
  const std::vector<std::uint8_t> expected = {
      253, 128, 18, 229, 128, 237, 128, 23, 127, 245, 0, 0, 0, 0, 0, 0,
      0,   0,   0,  0,   0,   0,   0,   0,  0,   0,   0, 0, 0, 0, 0, 0};
  EXPECT_EQ(read_output(s), expected);
}

// ---- DMA retry --------------------------------------------------------------

TEST(FaultInjection, DmaRetriesChargeRealCycles) {
  const sim::Report base = make_session(SocConfig{}).run(tiny_model());

  SocConfig cfg = fault_base();
  cfg.faults.dma_timeout_rate = 0.01;
  sim::Session s = make_session(cfg);
  const sim::Report r = s.run(tiny_model());
  const auto& inj = r.reliability.injection;
  EXPECT_GT(inj.dma_timeouts, 0u);
  EXPECT_EQ(inj.dma_retries, inj.dma_timeouts);
  EXPECT_GT(inj.dma_retry_cycles, 0u);
  EXPECT_EQ(inj.dma_aborts, 0u);
  EXPECT_GT(r.cycles, base.cycles);
}

TEST(FaultInjection, DmaRetryExhaustionAborts) {
  SocConfig cfg = fault_base();
  cfg.faults.dma_timeout_rate = 1.0;  // every attempt times out
  cfg.faults.dma_max_retries = 3;
  sim::Session s = make_session(cfg);
  EXPECT_THROW(s.run(tiny_model()), RuntimeError);
  const auto& inj = s.soc().fault_injector()->stats();
  EXPECT_EQ(inj.dma_aborts, 1u);
  EXPECT_EQ(inj.dma_retries, 3u);
}

// ---- Watchdog ---------------------------------------------------------------

TEST(Watchdog, SingleCoreHangThrowsStructuredError) {
  SocConfig cfg;
  cfg.name = "wd-test";
  cfg.max_cycles = 1000;
  sim::Session s = make_session(cfg, /*functional=*/false);
  try {
    s.run(tiny_model());
    FAIL() << "watchdog should have fired";
  } catch (const WatchdogError& e) {
    EXPECT_EQ(e.soc_name(), "wd-test");
    EXPECT_EQ(e.limit(), 1000u);
    EXPECT_GT(e.cycles(), 1000u);
    EXPECT_EQ(e.core(), 0u);
    EXPECT_LT(e.steps_done(), e.steps_total());
    const std::string msg = e.what();
    EXPECT_NE(msg.find("watchdog"), std::string::npos);
    EXPECT_NE(msg.find("wd-test"), std::string::npos);
  }
}

TEST(Watchdog, FiresOnMulticoreRuns) {
  SocConfig cfg;
  cfg.cores = 2;
  cfg.max_cycles = 2000;
  sim::Session s = sim::Session::builder(cfg).build();
  EXPECT_THROW(s.run_multicore(tiny_model()), WatchdogError);
}

TEST(Watchdog, GenerousBudgetDoesNotFire) {
  SocConfig cfg;
  cfg.max_cycles = 1u << 30;
  sim::Session s = make_session(cfg);
  EXPECT_NO_THROW(s.run(tiny_model()));
}

TEST(Watchdog, ValidatesAgainstOsSwitchCost) {
  SocConfig cfg;
  cfg.os.enabled = true;
  cfg.max_cycles = cfg.os.switch_cost_cycles;  // not > switch cost
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg.max_cycles = 0;  // watchdog off is always fine
  EXPECT_NO_THROW(cfg.validate());
}

// ---- Fail-soft sweeps -------------------------------------------------------

sim::Sweep poisoned_sweep() {
  sim::Sweep sw;
  SocConfig ok1;
  ok1.name = "ok1";
  sw.add("p0", ok1, tiny_model());
  SocConfig poisoned;
  poisoned.name = "poisoned";
  poisoned.max_cycles = 500;  // watchdog kills this point at run time
  sw.add("p1", poisoned, tiny_model());
  SocConfig ok2;
  ok2.name = "ok2";
  ok2.mem.l2.size_bytes = 2ull << 20;
  sw.add("p2", ok2, tiny_model());
  return sw;
}

TEST(FailSoftSweep, PoisonedPointDoesNotLoseTheOthers) {
  const sim::Sweep sw = poisoned_sweep();
  const std::vector<sim::Report> reports = sw.run({.threads = 2});
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].status, "ok");
  EXPECT_GT(reports[0].cycles, 0u);
  EXPECT_EQ(reports[1].status, "error");
  EXPECT_EQ(reports[1].point, "p1");
  EXPECT_EQ(reports[1].config, "poisoned");
  EXPECT_NE(reports[1].error.find("watchdog"), std::string::npos);
  EXPECT_EQ(reports[1].cycles, 0u);
  EXPECT_EQ(reports[2].status, "ok");
  EXPECT_GT(reports[2].cycles, 0u);
}

TEST(FailSoftSweep, DeterministicAcrossThreadCounts) {
  const sim::Sweep sw = poisoned_sweep();
  const std::string serial = sim::reports_to_json(sw.run({.threads = 1}));
  EXPECT_EQ(serial, sim::reports_to_json(sw.run({.threads = 2})));
  EXPECT_EQ(serial, sim::reports_to_json(sw.run({.threads = 4})));
}

TEST(FailSoftSweep, StrictModePreservesRethrow) {
  const sim::Sweep sw = poisoned_sweep();
  try {
    sw.run({.threads = 2, .strict = true});
    FAIL() << "strict sweep should rethrow the poisoned point";
  } catch (const RuntimeError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("p1"), std::string::npos);
    EXPECT_NE(msg.find("watchdog"), std::string::npos);
  }
}

TEST(FailSoftSweep, ErrorReportSerializesStatus) {
  const std::vector<sim::Report> reports =
      poisoned_sweep().run({.threads = 1});
  const std::string json = reports[1].to_json();
  EXPECT_NE(json.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("watchdog"), std::string::npos);
  EXPECT_NE(reports[0].to_json().find("\"status\":\"ok\""),
            std::string::npos);
}

// ---- Fault campaigns --------------------------------------------------------

fault::FaultConfig ecc_single_bit() {
  fault::FaultConfig fc;
  fc.enabled = true;
  fc.name = "ecc1b";
  fc.seed = 5;
  fc.dram_read_flip_rate = 0.05;
  fc.dram_flip_bits = 1;
  fc.ecc.enabled = true;
  return fc;
}

TEST(FaultCampaign, EccOnCorrectsEverySingleBitFlip) {
  const std::vector<sim::Report> reports =
      sim::Experiment(SocConfig{})
          .functional()
          .fault_configs({ecc_single_bit()})
          .workload(sim::Campaign{tiny_model(), 4})
          .run({.threads = 2});
  ASSERT_EQ(reports.size(), 1u);
  const sim::ReliabilityReport& rel = reports[0].reliability;
  EXPECT_TRUE(rel.enabled);
  EXPECT_EQ(rel.campaign_runs, 4u);
  ASSERT_EQ(rel.run_outcomes.size(), 4u);
  EXPECT_GT(rel.injection.ecc_corrected, 0u);
  EXPECT_EQ(rel.injection.ecc_corrected, rel.injection.dram_read_flips);
  EXPECT_GT(rel.corrected, 0u);
  EXPECT_EQ(rel.sdc, 0u);
  EXPECT_EQ(rel.detected, 0u);
  EXPECT_EQ(rel.masked + rel.corrected, 4u);
  EXPECT_EQ(rel.sdc_rate, 0.0);
  EXPECT_GT(rel.golden_cycles, 0u);
  // The campaign report's timing numbers are the golden run's.
  EXPECT_EQ(reports[0].cycles, rel.golden_cycles);
}

TEST(FaultCampaign, SilentCorruptionClassifiesAsSdc) {
  fault::FaultConfig fc;
  fc.enabled = true;
  fc.name = "noecc";
  fc.seed = 5;
  fc.dram_read_flip_rate = 0.3;
  fc.dram_flip_bits = 4;
  const std::vector<sim::Report> reports =
      sim::Experiment(SocConfig{})
          .functional()
          .fault_configs({fc})
          .workload(sim::Campaign{tiny_model(), 3})
          .run({.threads = 1});
  ASSERT_EQ(reports.size(), 1u);
  const sim::ReliabilityReport& rel = reports[0].reliability;
  EXPECT_GT(rel.sdc, 0u);
  EXPECT_GT(rel.sdc_rate, 0.0);
}

TEST(FaultCampaign, BaselineColumnRunsOnceWithoutCampaign) {
  fault::FaultConfig baseline;  // disabled: a fault-free column
  baseline.name = "base";
  const std::vector<sim::Report> reports =
      sim::Experiment(SocConfig{})
          .functional()
          .fault_configs({baseline, ecc_single_bit()})
          .workload(sim::Campaign{tiny_model(), 2})
          .run({.threads = 2});
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].point, "base/fault-tiny");
  EXPECT_FALSE(reports[0].reliability.enabled);
  EXPECT_EQ(reports[0].reliability.campaign_runs, 0u);
  EXPECT_EQ(reports[1].point, "ecc1b/fault-tiny");
  EXPECT_EQ(reports[1].reliability.campaign_runs, 2u);
}

TEST(FaultCampaign, ByteIdenticalAcrossRepeatsAndThreadCounts) {
  auto run_with = [](unsigned threads) {
    return sim::reports_to_json(sim::Experiment(SocConfig{})
                                    .functional()
                                    .fault_configs({ecc_single_bit()})
                                    .workload(sim::Campaign{tiny_model(), 3})
                                    .run({.threads = threads}));
  };
  const std::string first = run_with(1);
  EXPECT_EQ(first, run_with(1));  // repeatable
  EXPECT_EQ(first, run_with(2));  // thread-count independent
  EXPECT_EQ(first, run_with(4));
}

TEST(FaultCampaign, RequiresFunctionalSingleCore) {
  // Single-core is structural (a Campaign has no multicore flag); the
  // functional and faults-enabled requirements are checked at run time.
  sim::SweepPoint p{"bad", SocConfig{}, sim::Campaign{tiny_model(), 2}};
  p.config.faults = ecc_single_bit();
  EXPECT_THROW(sim::Sweep::run_point(p), ConfigError);

  p.options.functional = true;
  p.config.faults.enabled = false;
  EXPECT_THROW(sim::Sweep::run_point(p), ConfigError);
}

TEST(FaultCampaign, GoldenRunExportsTraceAndReportsEnergy) {
  // A traced campaign point traces its golden run; that trace is exported
  // like any other traced point's, and the golden run carries the meter.
  trace::TraceConfig tc = trace::TraceConfig::enabled_default();
  tc.export_path = ::testing::TempDir() + "fault_campaign_golden_trace.json";
  std::remove(tc.export_path.c_str());
  const std::vector<sim::Report> reports =
      sim::Experiment(SocConfig{})
          .functional()
          .fault_configs({ecc_single_bit()})
          .workload(sim::Campaign{tiny_model(), 2})
          .energy()
          .trace_point("ecc1b/fault-tiny", tc)
          .run({.threads = 1});
  ASSERT_EQ(reports.size(), 1u);
  const sim::Report& rep = reports[0];
  EXPECT_EQ(rep.status, "ok") << rep.error;
  EXPECT_EQ(rep.reliability.campaign_runs, 2u);
  EXPECT_FALSE(rep.bottlenecks.empty());
  EXPECT_TRUE(rep.energy.enabled);
  EXPECT_TRUE(std::ifstream(tc.export_path).good())
      << "no trace at " << tc.export_path;
  std::remove(tc.export_path.c_str());
}

// ---- Trace integration ------------------------------------------------------

TEST(FaultTrace, EccCorrectionsAppearInTheTrace) {
  SocConfig cfg = fault_base();
  cfg.faults.dram_read_flip_rate = 0.05;
  cfg.faults.ecc.enabled = true;
  sim::Session s = sim::Session::builder(cfg)
                       .functional()
                       .seed(7)
                       .trace(trace::TraceConfig::enabled_default())
                       .build();
  const sim::Report r = s.run(tiny_model());
  const auto events = s.trace_buffer().snapshot();
  const auto corrections =
      std::count_if(events.begin(), events.end(), [](const auto& e) {
        return e.kind == trace::EventKind::kFaultEccCorrect;
      });
  EXPECT_EQ(static_cast<std::uint64_t>(corrections),
            r.reliability.injection.ecc_corrected);
  // Fault events don't break bottleneck attribution.
  EXPECT_FALSE(r.bottlenecks.empty());
}

TEST(FaultTrace, DroppedEventsSurfaceInReportWhenBufferWraps) {
  SocConfig cfg;
  trace::TraceConfig tc;
  tc.enabled = true;
  tc.buffer_events = 64;  // far too small for a whole run
  sim::Session s = sim::Session::builder(cfg).trace(tc).build();
  const sim::Report r = s.run(tiny_model());
  EXPECT_GT(r.trace_dropped_events, 0u);
  EXPECT_EQ(r.trace_dropped_events, s.trace_buffer().dropped());
}

}  // namespace
}  // namespace gemmini
