// Energy subsystem tests (src/energy/ + the wiring through Dram,
// Accelerator, Session, Experiment): price quantization, the
// zero-price/zero-overhead-off contract (reports byte-identical to a
// session built without energy), exact per-kind vs per-channel
// reconciliation against the independently collected substrate counters,
// scheduler ordering (FR-FCFS <= FCFS in cycles and DRAM energy on the
// same stream, on the default controller and on every scaled zoo model
// under a contended one), the power-over-time timeline (windows sum exactly to the
// total), the successive-halving search (matches the exhaustive optimum,
// byte-identical across thread counts, power-budget feasibility), and
// regression tests for the derived-rate edge cases (dram_row_hit_rate /
// goodput_per_mcycle on empty runs) plus the OpenMetrics name-sanitization
// rules. Golden cycles with the meter attached are pinned in golden_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/dnn/zoo.h"
#include "src/energy/energy.h"
#include "src/metrics/metrics.h"
#include "src/metrics/openmetrics.h"
#include "src/sim/experiment.h"
#include "src/sim/report.h"
#include "src/sim/session.h"
#include "tests/test_util.h"

namespace gemmini {
namespace {

// ---- Price table and quantization ------------------------------------------

TEST(EnergyPrices, QuantizationAndActivation) {
  EXPECT_EQ(energy::EnergyMeter::to_fj(0.0), 0u);
  EXPECT_EQ(energy::EnergyMeter::to_fj(-3.0), 0u);
  EXPECT_EQ(energy::EnergyMeter::to_fj(1.0), 1000u);
  EXPECT_EQ(energy::EnergyMeter::to_fj(0.2), 200u);
  EXPECT_EQ(energy::EnergyMeter::to_fj(600.0), 600000u);

  energy::EnergyConfig cfg;
  EXPECT_FALSE(cfg.active());  // disabled
  cfg.enabled = true;
  EXPECT_FALSE(cfg.active());  // enabled but all-zero prices
  cfg.prices.dram_rd_pj = 1.0;
  EXPECT_TRUE(cfg.active());

  EXPECT_TRUE(energy::EnergyPrices::ddr4_default().any());
  EXPECT_TRUE(energy::EnergyConfig::enabled_default().active());
}

TEST(EnergyPrices, NegativePricesRejected) {
  energy::EnergyConfig cfg = energy::EnergyConfig::enabled_default();
  cfg.prices.dram_act_pj = -1.0;
  EXPECT_THROW(sim::Session::builder().energy(cfg).build(), ConfigError);
}

// ---- Zero-overhead-off: reports byte-identical -----------------------------

TEST(EnergySession, ZeroPricesYieldByteIdenticalReport) {
  const Model m = zoo::squeezenet_v11(48);
  sim::Session off = sim::Session::builder().build();
  const sim::Report r_off = off.run(m);

  // Enabled with an all-zero price table builds no meter at all.
  energy::EnergyConfig zero;
  zero.enabled = true;
  sim::Session on = sim::Session::builder().energy(zero).build();
  const sim::Report r_on = on.run(m);

  EXPECT_FALSE(on.energy_metering());
  EXPECT_FALSE(r_on.energy.enabled);
  EXPECT_EQ(r_on, r_off);
  EXPECT_EQ(r_on.to_json(2), r_off.to_json(2));
}

TEST(EnergySession, RunIdenticalApartFromEnergySection) {
  // A full Session::run with the meter attached reproduces the
  // energy-off report exactly once the energy section itself is blanked
  // (metering is observational; the hidden metrics registry stays out of
  // Report::metrics).
  const Model m = zoo::squeezenet_v11(48);
  sim::Session off = sim::Session::builder().build();
  sim::Report r_off = off.run(m);

  sim::Session on = sim::Session::builder()
                        .energy(energy::EnergyConfig::enabled_default())
                        .build();
  sim::Report r_on = on.run(m);

  EXPECT_TRUE(on.energy_metering());
  EXPECT_FALSE(on.metering());  // the backing registry stays hidden
  EXPECT_FALSE(r_on.metrics.enabled);
  EXPECT_TRUE(r_on.energy.enabled);
  EXPECT_GT(r_on.energy.total_fj, 0u);
  EXPECT_EQ(r_on.cycles, r_off.cycles);
  r_on.energy = sim::EnergyReport{};
  EXPECT_EQ(r_on, r_off);
}

TEST(EnergySession, EnergySectionIndependentOfMetrics) {
  // The meter prices the components' own counts, not registry counters, so
  // attaching the metrics registry changes nothing in the energy section —
  // sampling only adds the power-over-time windows.
  const Model m = zoo::squeezenet_v11(48);
  auto run_with = [&m](const metrics::MetricsConfig& mcfg) {
    return sim::Session::builder()
        .metrics(mcfg)
        .energy(energy::EnergyConfig::enabled_default())
        .build()
        .run(m)
        .energy;
  };
  const sim::EnergyReport without = run_with(metrics::MetricsConfig{});
  ASSERT_TRUE(without.enabled);
  EXPECT_TRUE(without.window_fj.empty());

  metrics::MetricsConfig totals_only = metrics::MetricsConfig::enabled_default();
  totals_only.sample_interval_cycles = 0;
  EXPECT_EQ(run_with(totals_only), without);

  sim::EnergyReport sampled =
      run_with(metrics::MetricsConfig::enabled_default());
  EXPECT_FALSE(sampled.window_fj.empty());
  sampled.sample_interval = 0;
  sampled.window_fj.clear();
  sampled.window_watts.clear();
  EXPECT_EQ(sampled, without);
}

// ---- Exact reconciliation ---------------------------------------------------

TEST(EnergySession, CommandEnergyReconcilesWithSubstrateCounters) {
  // rd == wr price lets the column-command energy be recomputed from the
  // per-channel access counts alone; act/pre from row misses; io from
  // bytes. Everything must match bit-exactly — integer fJ accounting.
  energy::EnergyConfig cfg;
  cfg.enabled = true;
  cfg.prices.dram_act_pj = 3.0;
  cfg.prices.dram_pre_pj = 2.0;
  cfg.prices.dram_rd_pj = 5.0;
  cfg.prices.dram_wr_pj = 5.0;
  cfg.prices.dram_ref_pj = 7.0;
  cfg.prices.dram_io_pj_per_byte = 1.0;
  cfg.prices.exec_mac_pj = 0.2;
  cfg.prices.dma_pj_per_byte = 1.0;
  cfg.prices.sp_row_pj = 4.0;
  cfg.prices.acc_row_pj = 8.0;

  SocConfig soc;
  soc.mem.dram.refresh_interval = 7800;  // refresh is off by default
  soc.mem.dram.refresh_latency = 160;
  sim::Session s = sim::Session::builder(soc).energy(cfg).build();
  const sim::Report rep = s.run(zoo::squeezenet_v11(48));
  ASSERT_TRUE(rep.energy.enabled);
  const sim::EnergyReport& e = rep.energy;

  std::uint64_t accesses = 0, row_misses = 0, bytes = 0;
  for (const sim::DramChannelTraffic& ch : rep.substrate.dram_channels) {
    accesses += ch.accesses;
    row_misses += ch.row_misses;
    bytes += ch.bytes;
  }
  ASSERT_GT(accesses, 0u);
  EXPECT_EQ(e.dram_act_fj, row_misses * 3000u);
  EXPECT_EQ(e.dram_pre_fj, row_misses * 2000u);
  EXPECT_EQ(e.dram_rd_fj + e.dram_wr_fj, accesses * 5000u);
  EXPECT_EQ(e.dram_io_fj, bytes * 1000u);
  EXPECT_GT(e.dram_ref_fj, 0u);

  // Per-kind and per-channel splits partition the same commands.
  EXPECT_EQ(e.dram_fj, e.dram_act_fj + e.dram_pre_fj + e.dram_rd_fj +
                           e.dram_wr_fj + e.dram_ref_fj + e.dram_io_fj);
  std::uint64_t ch_sum = 0;
  for (const std::uint64_t ch_fj : e.dram_channel_fj) ch_sum += ch_fj;
  EXPECT_EQ(ch_sum, e.dram_fj);

  // Core-side energy reconciles against the report's own activity
  // counters, and the per-core split partitions the core-side total.
  EXPECT_EQ(e.exec_fj, rep.per_core[0].accel.macs * 200u);
  EXPECT_GT(e.dma_fj, 0u);
  EXPECT_GT(e.sp_fj, 0u);
  EXPECT_GT(e.acc_fj, 0u);
  std::uint64_t core_sum = 0;
  for (const std::uint64_t c : e.core_fj) core_sum += c;
  EXPECT_EQ(core_sum, e.exec_fj + e.dma_fj + e.sp_fj + e.acc_fj);

  // No static price configured: the total is pure activity energy.
  EXPECT_EQ(e.static_fj, 0u);
  EXPECT_EQ(e.total_fj,
            e.dram_fj + e.exec_fj + e.dma_fj + e.sp_fj + e.acc_fj);
  EXPECT_DOUBLE_EQ(e.total_j, static_cast<double>(e.total_fj) * 1e-15);
  EXPECT_GT(e.avg_power_watts, 0.0);
  EXPECT_GT(e.edp_joule_seconds, 0.0);
}

TEST(EnergySession, StaticPowerOverrideChargesPerCycle) {
  energy::EnergyConfig cfg;
  cfg.enabled = true;
  cfg.prices.static_mw = 100.0;  // explicit override: 100 mW at 1 GHz
  sim::Session s = sim::Session::builder().energy(cfg).build();
  const sim::Report rep = s.run(zoo::squeezenet_v11(48));
  ASSERT_TRUE(rep.energy.enabled);
  // 100 mW / 1 GHz = 100 pJ/cycle = 100000 fJ/cycle.
  EXPECT_EQ(rep.energy.static_fj, rep.cycles * 100000u);
  EXPECT_EQ(rep.energy.total_fj, rep.energy.static_fj);
  // 100 mW of static power over any span averages to exactly 0.1 W.
  EXPECT_DOUBLE_EQ(rep.energy.avg_power_watts, 0.1);
}

TEST(EnergySession, FrFcfsUsesNoMoreDramEnergyThanFcfs) {
  // Row hits skip the ACT+PRE pair, so wherever FR-FCFS wins row hits it
  // must also win DRAM energy: same commands, fewer row cycles charged.
  // Checked on the default controller and, for every scaled zoo model, on a
  // contended two-channel one, where a shorter run also pays for fewer
  // refresh periods.
  struct Case {
    SocConfig soc;
    Model model;
  };
  std::vector<Case> cases = {{SocConfig{}, zoo::squeezenet_v11(48)}};
  for (Model& m : zoo::all_paper_models_scaled()) {
    cases.push_back({test::contended_soc(DramScheduler::kFcfs), std::move(m)});
  }
  for (const Case& c : cases) {
    auto run_with = [&c](DramScheduler sched) {
      SocConfig cfg = c.soc;
      cfg.mem.dram.scheduler = sched;
      return sim::Session::builder(std::move(cfg))
          .energy(energy::EnergyConfig::enabled_default())
          .build()
          .run(c.model);
    };
    const sim::Report fcfs = run_with(DramScheduler::kFcfs);
    const sim::Report frfcfs = run_with(DramScheduler::kFrFcfs);
    ASSERT_TRUE(fcfs.energy.enabled);
    ASSERT_TRUE(frfcfs.energy.enabled);
    EXPECT_LE(frfcfs.cycles, fcfs.cycles) << c.model.name();
    EXPECT_GE(frfcfs.substrate.dram_row_hit_rate,
              fcfs.substrate.dram_row_hit_rate)
        << c.model.name();
    EXPECT_LE(frfcfs.energy.dram_act_fj, fcfs.energy.dram_act_fj)
        << c.model.name();
    EXPECT_LE(frfcfs.energy.dram_fj, fcfs.energy.dram_fj) << c.model.name();
  }
}

// ---- Power-over-time timeline ----------------------------------------------

TEST(EnergySession, PowerTimelineWindowsSumToTotalEnergy) {
  metrics::MetricsConfig mcfg = metrics::MetricsConfig::enabled_default();
  mcfg.sample_interval_cycles = 50000;
  sim::Session s = sim::Session::builder()
                       .metrics(mcfg)
                       .energy(energy::EnergyConfig::enabled_default())
                       .build();
  const sim::Report rep = s.run(zoo::squeezenet_v11(48));
  ASSERT_TRUE(rep.energy.enabled);
  ASSERT_TRUE(rep.metrics.enabled);
  const sim::EnergyReport& e = rep.energy;

  EXPECT_EQ(e.sample_interval, 50000u);
  ASSERT_EQ(e.window_fj.size(), rep.metrics.windows);
  ASSERT_EQ(e.window_watts.size(), e.window_fj.size());
  ASSERT_GT(e.window_fj.size(), 1u);

  // The invariant the tentpole gates on: the per-window energies
  // integrate exactly (integer fJ) to the end-of-run total.
  std::uint64_t sum = 0;
  for (const std::uint64_t w : e.window_fj) sum += w;
  EXPECT_EQ(sum, e.total_fj);

  // Every full window's watts follows from its fJ at the session clock.
  const double ghz = s.config().accel.clock_ghz;
  for (std::size_t w = 0; w + 1 < e.window_fj.size(); ++w) {
    EXPECT_DOUBLE_EQ(e.window_watts[w], static_cast<double>(e.window_fj[w]) *
                                            ghz * 1e-6 / 50000.0);
  }
}

TEST(EnergySession, AvgPowerGaugeRidesOpenMetricsExport) {
  metrics::MetricsConfig mcfg = metrics::MetricsConfig::enabled_default();
  sim::Session s = sim::Session::builder()
                       .metrics(mcfg)
                       .energy(energy::EnergyConfig::enabled_default())
                       .build();
  const sim::Report rep = s.run(zoo::squeezenet_v11(48));
  ASSERT_TRUE(rep.energy.enabled);
  const std::string om = s.openmetrics();
  EXPECT_NE(om.find("gemmini_energy_dram_act_fj_total "), std::string::npos);
  EXPECT_NE(om.find("gemmini_energy_core0_exec_fj_total "),
            std::string::npos);
  EXPECT_NE(om.find("# TYPE gemmini_energy_avg_power_watts gauge\n"),
            std::string::npos);
}

// ---- Successive-halving search ----------------------------------------------

sim::Experiment search_grid() {
  sim::Experiment exp;
  exp.model(zoo::squeezenet_v11(48))
      .dram_channels({1, 2})
      .dram_schedulers({DramScheduler::kFcfs, DramScheduler::kFrFcfs})
      .energy(energy::EnergyConfig::enabled_default());
  return exp;
}

TEST(EnergySearch, MatchesExhaustiveOptimum) {
  const sim::Experiment exp = search_grid();

  // Exhaustive reference: full-fidelity run of the whole grid.
  const std::vector<sim::Report> all = exp.run({.threads = 1});
  ASSERT_EQ(all.size(), 4u);
  std::size_t best_i = 0;
  for (std::size_t i = 1; i < all.size(); ++i) {
    if (all[i].cycles < all[best_i].cycles) best_i = i;
  }

  sim::SearchSpec spec;
  spec.objective = sim::SearchSpec::Objective::kCycles;
  spec.threads = 1;
  const sim::SearchResult res = exp.search(spec);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.best_point, all[best_i].point);
  EXPECT_EQ(res.best.cycles, all[best_i].cycles);
  EXPECT_EQ(res.best, all[best_i]);

  // The halving schedule: one quarter-fidelity rung over the whole grid,
  // then the survivors at full fidelity — cheaper than exhaustive.
  ASSERT_EQ(res.rungs.size(), 2u);
  EXPECT_DOUBLE_EQ(res.rungs[0].fraction, 0.25);
  EXPECT_EQ(res.rungs[0].points.size(), 4u);
  EXPECT_DOUBLE_EQ(res.rungs[1].fraction, 1.0);
  EXPECT_EQ(res.rungs[1].points.size(), 2u);
  EXPECT_EQ(res.evaluations, 6u);

  // EDP objective picks the same winner here (it wins on both axes).
  sim::SearchSpec edp = spec;
  edp.objective = sim::SearchSpec::Objective::kEdp;
  const sim::SearchResult res_edp = exp.search(edp);
  ASSERT_TRUE(res_edp.found);
  EXPECT_EQ(res_edp.best_point, res.best_point);
}

TEST(EnergySearch, ByteIdenticalAcrossThreadCounts) {
  const sim::Experiment exp = search_grid();
  sim::SearchSpec spec;
  spec.objective = sim::SearchSpec::Objective::kEnergy;

  auto run_at = [&](unsigned threads) {
    sim::SearchSpec s = spec;
    s.threads = threads;
    return exp.search(s);
  };
  const sim::SearchResult r1 = run_at(1);
  const sim::SearchResult r2 = run_at(2);
  const sim::SearchResult r4 = run_at(4);

  for (const sim::SearchResult* r : {&r2, &r4}) {
    EXPECT_EQ(r->found, r1.found);
    EXPECT_EQ(r->best_point, r1.best_point);
    EXPECT_EQ(r->best, r1.best);
    EXPECT_EQ(r->best.to_json(2), r1.best.to_json(2));
    EXPECT_EQ(r->evaluations, r1.evaluations);
    ASSERT_EQ(r->finalists.size(), r1.finalists.size());
    for (std::size_t i = 0; i < r1.finalists.size(); ++i) {
      EXPECT_EQ(r->finalists[i].point, r1.finalists[i].point);
      EXPECT_EQ(r->finalists[i].grid_index, r1.finalists[i].grid_index);
      EXPECT_EQ(r->finalists[i].cycles, r1.finalists[i].cycles);
      EXPECT_EQ(r->finalists[i].objective, r1.finalists[i].objective);
      EXPECT_EQ(r->finalists[i].feasible, r1.finalists[i].feasible);
    }
    ASSERT_EQ(r->rungs.size(), r1.rungs.size());
    for (std::size_t i = 0; i < r1.rungs.size(); ++i) {
      EXPECT_EQ(r->rungs[i].fraction, r1.rungs[i].fraction);
      EXPECT_EQ(r->rungs[i].points, r1.rungs[i].points);
    }
  }
}

TEST(EnergySearch, PowerBudgetConstrainsFeasibility) {
  const sim::Experiment exp = search_grid();
  sim::SearchSpec spec;
  spec.objective = sim::SearchSpec::Objective::kCycles;
  spec.threads = 1;

  // An absurdly tight budget makes every candidate infeasible.
  spec.power_budget_watts = 1e-12;
  const sim::SearchResult none = exp.search(spec);
  EXPECT_FALSE(none.found);
  ASSERT_FALSE(none.finalists.empty());
  for (const sim::SearchCandidate& c : none.finalists) {
    EXPECT_FALSE(c.feasible);
    EXPECT_EQ(c.status, "ok");
    EXPECT_GT(c.avg_power_watts, spec.power_budget_watts);
  }

  // A generous budget changes nothing relative to unconstrained search.
  spec.power_budget_watts = 1e6;
  const sim::SearchResult open = exp.search(spec);
  ASSERT_TRUE(open.found);
  spec.power_budget_watts = 0;
  EXPECT_EQ(open.best_point, exp.search(spec).best_point);

  // A budget halfway between the grid's power extremes splits it: the
  // search must return the exhaustive optimum among the feasible points.
  const std::vector<sim::Report> all = exp.run({.threads = 1});
  double min_w = 1e300, max_w = 0;
  for (const sim::Report& r : all) {
    min_w = std::min(min_w, r.energy.avg_power_watts);
    max_w = std::max(max_w, r.energy.avg_power_watts);
  }
  spec.objective = sim::SearchSpec::Objective::kEdp;
  spec.power_budget_watts = (min_w + max_w) / 2;
  const sim::Report* best = nullptr;
  for (const sim::Report& r : all) {
    if (r.energy.avg_power_watts <= spec.power_budget_watts &&
        (best == nullptr ||
         r.energy.edp_joule_seconds < best->energy.edp_joule_seconds)) {
      best = &r;
    }
  }
  ASSERT_NE(best, nullptr);
  const sim::SearchResult split = exp.search(spec);
  ASSERT_TRUE(split.found);
  EXPECT_EQ(split.best_point, best->point);
}

TEST(EnergySearch, ConfigErrors) {
  // Energy/EDP objectives and power budgets need the meter.
  sim::Experiment no_energy;
  no_energy.model(zoo::squeezenet_v11(48)).dram_channels({1, 2});
  sim::SearchSpec spec;
  spec.objective = sim::SearchSpec::Objective::kEnergy;
  EXPECT_THROW(no_energy.search(spec), ConfigError);
  spec.objective = sim::SearchSpec::Objective::kCycles;
  spec.power_budget_watts = 1.0;
  EXPECT_THROW(no_energy.search(spec), ConfigError);
  spec.power_budget_watts = 0;
  EXPECT_NO_THROW(no_energy.search(spec));

  sim::SearchSpec bad = spec;
  bad.eta = 1;
  EXPECT_THROW(search_grid().search(bad), ConfigError);
  bad = spec;
  bad.min_fraction = 0.0;
  EXPECT_THROW(search_grid().search(bad), ConfigError);
  bad = spec;
  bad.min_rung_points = 0;
  EXPECT_THROW(search_grid().search(bad), ConfigError);
}

// ---- Derived-rate regressions ----------------------------------------------

TEST(EnergyRegression, DramRowHitRateZeroAccessesSerializesAsZero) {
  // A report with no DRAM traffic must carry rate 0 (not NaN, which would
  // serialize as null and break downstream JSON consumers).
  sim::Report rep;
  EXPECT_EQ(rep.substrate.dram_row_hit_rate, 0.0);
  const std::string json = rep.to_json(2);
  EXPECT_NE(json.find("\"dram_row_hit_rate\": 0"), std::string::npos);
  EXPECT_EQ(json.find("null,\n"), std::string::npos);
}

TEST(EnergyRegression, GoodputZeroRequestRunReportsZero) {
  // A serving window that admits no requests (rate so low the horizon
  // closes first) has makespan 0; goodput must report 0, not NaN/inf.
  serve::ServeSpec spec;
  spec.classes.push_back(
      serve::RequestClass{"sq", zoo::squeezenet_v11(48), 1.0, 0});
  spec.arrivals.kind = serve::ArrivalKind::kFixed;
  spec.arrivals.requests_per_mcycle = 0.001;
  spec.arrivals.horizon_cycles = 1000;
  const sim::Report rep = sim::Sweep::run_point(
      sim::SweepPoint{"empty-serve", SocConfig{}, sim::Serve{spec}});
  EXPECT_EQ(rep.server.offered, 0u);
  EXPECT_EQ(rep.server.makespan, 0u);
  EXPECT_EQ(rep.server.goodput_per_mcycle, 0.0);
  EXPECT_NE(rep.to_json(2).find("\"goodput_per_mcycle\": 0"),
            std::string::npos);
}

TEST(EnergyRegression, TimeWeightedZeroSpanMeanIsLastValue) {
  // All records at one instant: the mean is the value, not 0/0.
  TimeWeighted tw;
  tw.record(100, 7.5);
  tw.record(100, 3.5);
  EXPECT_EQ(tw.duration(), 0u);
  EXPECT_DOUBLE_EQ(tw.mean(), 3.5);
}

// ---- OpenMetrics sanitization ----------------------------------------------

TEST(EnergyOpenMetrics, NameSanitizationCharset) {
  using metrics::sanitize_metric_name;
  EXPECT_EQ(sanitize_metric_name("gemmini", "dram.ch0.row_hits"),
            "gemmini_dram_ch0_row_hits");
  // Colons are no longer passed through (reserved for recording rules).
  EXPECT_EQ(sanitize_metric_name("gemmini", "a:b"), "gemmini_a_b");
  EXPECT_EQ(sanitize_metric_name("gemmini", "sp\xC3\xA9 ed"),
            "gemmini_sp___ed");
  // Leading digits are not legal metric-name starts.
  EXPECT_EQ(sanitize_metric_name("", "0abc"), "_0abc");
  EXPECT_EQ(sanitize_metric_name("", "energy.core0.exec"),
            "energy_core0_exec");
}

TEST(EnergyOpenMetrics, LabelValueEscaping) {
  using metrics::escape_label_value;
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escape_label_value("line\nbreak"), "line\\nbreak");
}

TEST(EnergyOpenMetrics, CollidingNamesGetDeterministicSuffixes) {
  metrics::Registry reg;
  reg.counter("a.b").add(1);
  reg.counter("a_b").add(2);
  reg.counter("a_b_2").add(3);  // already claims the first fallback
  const std::string om = metrics::to_openmetrics(reg, "g");
  // Name order: "a.b" < "a_b" < "a_b_2". "a.b" claims g_a_b; "a_b"
  // collides and takes g_a_b_2... which "a_b_2" then also collides with,
  // landing on g_a_b_2_2.
  EXPECT_NE(om.find("g_a_b_total 1\n"), std::string::npos);
  EXPECT_NE(om.find("g_a_b_2_total 2\n"), std::string::npos);
  EXPECT_NE(om.find("g_a_b_2_2_total 3\n"), std::string::npos);

  // Cross-section collisions (a counter and a gauge sharing a name)
  // resolve the same way: later sections claim later.
  metrics::Registry reg2;
  reg2.counter("x").add(4);
  reg2.gauge("x").set(1.5);
  const std::string om2 = metrics::to_openmetrics(reg2, "g");
  EXPECT_NE(om2.find("# TYPE g_x counter\n"), std::string::npos);
  EXPECT_NE(om2.find("g_x_total 4\n"), std::string::npos);
  EXPECT_NE(om2.find("# TYPE g_x_2 gauge\n"), std::string::npos);
  EXPECT_NE(om2.find("g_x_2 1.5\n"), std::string::npos);
}

}  // namespace
}  // namespace gemmini
