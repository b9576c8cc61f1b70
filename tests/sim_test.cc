// Tests for the unified simulation facade: sim::Session (builder,
// validation, push-button runs, report consistency), sim::Sweep /
// sim::Experiment (grid expansion, parallel determinism), the shared
// sim::parallel_for worker pool, and sim::Report (JSON serialization).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/dnn/zoo.h"
#include "src/model/lowering/pipeline.h"
#include "src/sim/experiment.h"
#include "src/sim/parallel.h"
#include "src/sim/report.h"
#include "src/sim/session.h"

namespace gemmini {
namespace {

// ---- Session ----------------------------------------------------------------

TEST(SimSession, BuilderValidatesOnce) {
  // A broken accelerator template surfaces at build() with the session
  // named, not later inside the SoC constructor.
  sim::Session::Builder b;
  SocConfig cfg;
  cfg.name = "broken";
  cfg.accel.sp_capacity_bytes = 100;
  b.soc(cfg);
  try {
    b.build();
    FAIL() << "build() should have thrown";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("broken"), std::string::npos);
  }
}

TEST(SimSession, ValidatesCpuCostModel) {
  SocConfig cfg;
  cfg.cpu.cycles_per_mac_i8 = 0;  // previously skipped by validate()
  EXPECT_THROW(cfg.validate(), ConfigError);
  EXPECT_THROW(sim::Session::builder(cfg).build(), ConfigError);
}

TEST(SimSession, ValidatesOsNoiseModel) {
  SocConfig cfg;
  cfg.os.enabled = true;
  cfg.os.period_cycles = 0;  // scheduler could never make progress
  EXPECT_THROW(cfg.validate(), ConfigError);

  SocConfig cfg2;
  cfg2.os.enabled = true;
  cfg2.os.switch_cost_cycles = cfg2.os.period_cycles;  // cost >= period
  EXPECT_THROW(cfg2.validate(), ConfigError);

  SocConfig ok;
  ok.os.enabled = true;
  EXPECT_NO_THROW(ok.validate());
}

TEST(SimSession, ValidatesDramControllerAtBuildTime) {
  // The DRAM section of the SocConfig fails at Session::build() — wrapped
  // as a ConfigError naming the session — not deep in SoC elaboration.
  SocConfig zero_channels;
  zero_channels.mem.dram.channels = 0;
  EXPECT_THROW(zero_channels.validate(), ConfigError);
  EXPECT_THROW(sim::Session::builder(zero_channels).build(), ConfigError);

  SocConfig bad_rows;
  bad_rows.mem.dram.row_bytes = 3000;  // not a power of two
  EXPECT_THROW(sim::Session::builder(bad_rows).build(), ConfigError);

  SocConfig bad_refresh;
  bad_refresh.mem.dram.refresh_interval = 50;
  bad_refresh.mem.dram.refresh_latency = 80;  // longer than the interval
  EXPECT_THROW(sim::Session::builder(bad_refresh).build(), ConfigError);

  SocConfig ok;
  ok.mem.dram.channels = 2;
  ok.mem.dram.scheduler = DramScheduler::kFrFcfs;
  ok.mem.dram.refresh_interval = 7800;
  ok.mem.dram.refresh_latency = 280;
  ok.mem.dram.write_queue_depth = 16;
  ok.mem.dram.write_drain_floor = 4;
  EXPECT_NO_THROW(sim::Session::builder(ok).build());
}

TEST(SimSession, ReportIsConsistent) {
  SocConfig cfg;
  cfg.accel.has_im2col = true;
  sim::Session session = sim::Session::builder(cfg).build();
  const sim::Report r = session.run(zoo::squeezenet_v11(64));
  EXPECT_EQ(r.model, "squeezenet_v1.1");
  EXPECT_EQ(r.cores, 1u);
  ASSERT_EQ(r.per_core.size(), 1u);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_EQ(r.cycles, r.per_core[0].cycles);
  EXPECT_GT(r.fps, 0.0);
  EXPECT_NEAR(r.seconds, static_cast<double>(r.cycles) / 1e9, 1e-12);
  EXPECT_GT(r.speedup, 10.0);
  EXPECT_GT(r.array_utilization, 0.0);
  EXPECT_LT(r.array_utilization, 1.0);
  EXPECT_GT(r.per_core[0].accel.macs, 0u);
  // Estimates ride along in the report.
  EXPECT_GT(r.estimates.area.total_um2, 900000.0);
  EXPECT_NEAR(r.estimates.fmax_ghz, 1.89, 0.02);
  EXPECT_GT(r.estimates.power_mw, 1.0);
  // The tag breakdown accounts the run.
  Cycle tagged = 0;
  for (const auto& [tag, c] : r.cycles_by_tag) tagged += c;
  EXPECT_GT(tagged, 0u);
}

TEST(SimSession, RepeatedRunsReportPerRunSubstrateCounts) {
  // Every Report section describes its own run: on each run of one Session
  // the substrate L2/DRAM totals and the private-TLB hit rate equal that
  // run's registry counters (the registry is reset per run), not a tally
  // accumulated since the Session was built.
  sim::Session s = sim::Session::builder()
                       .metrics(metrics::MetricsConfig::enabled_default())
                       .build();
  const Model m = zoo::squeezenet_v11(48);
  for (int run = 1; run <= 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    const sim::Report r = s.run(m);
    const std::map<std::string, std::uint64_t>& c = r.metrics.counters;
    EXPECT_EQ(r.substrate.l2_hits, c.at("l2.hits"));
    EXPECT_EQ(r.substrate.l2_misses, c.at("l2.misses"));
    ASSERT_FALSE(r.substrate.dram_channels.empty());
    for (const sim::DramChannelTraffic& ch : r.substrate.dram_channels) {
      EXPECT_EQ(ch.accesses,
                c.at("dram.ch" + std::to_string(ch.channel) + ".accesses"));
    }
    const std::uint64_t tlb_hits = c.at("core0.tlb.hits");
    const std::uint64_t tlb_misses = c.at("core0.tlb.misses");
    ASSERT_GT(tlb_hits + tlb_misses, 0u);
    EXPECT_DOUBLE_EQ(r.per_core[0].private_tlb_hit_rate,
                     static_cast<double>(tlb_hits) /
                         static_cast<double>(tlb_hits + tlb_misses));
  }
}

TEST(SimSession, AllPaperModelsRunScaled) {
  // The whole zoo, scaled, through the push-button facade — every layer
  // kind the lowering supports (conv, depthwise, dense, pools, resadd,
  // softmax/layernorm/gelu) exercised end to end.
  for (const Model& m : zoo::all_paper_models_scaled()) {
    SocConfig cfg;
    cfg.accel.has_im2col = true;
    sim::Session session = sim::Session::builder(cfg).build();
    const sim::Report r = session.run(m);
    EXPECT_GT(r.cycles, 0u) << m.name();
    EXPECT_GT(r.speedup, 1.0) << m.name();
    EXPECT_GT(r.per_core[0].accel.instructions, 0u) << m.name();
  }
}

TEST(SimSession, FunctionalRunMaterializesData) {
  SocConfig cfg;
  cfg.accel.has_im2col = true;
  sim::Session session =
      sim::Session::builder(cfg).functional().seed(7).build();
  // ResNet-50's dense head keeps logits nonzero after quantization (the
  // averaged squeezenet conv head rounds to all-zero at this scale).
  const Model m = zoo::resnet50(32);
  const sim::Report r = session.run(m);
  EXPECT_GT(r.cycles, 0u);
  // Read the logits back out of simulated memory via the lowering layout.
  const std::size_t out = m.layers().size() - 1;
  std::vector<std::int8_t> logits(m.shape(out).elems());
  session.address_space().read_virt(session.last_lowered().layer_output[out],
                                    logits.data(), logits.size());
  int nonzero = 0;
  for (const auto v : logits) nonzero += (v != 0);
  EXPECT_GT(nonzero, 0);
}

TEST(SimSession, MulticoreReportHasPerCoreBreakdown) {
  SocConfig cfg;
  cfg.cores = 2;
  sim::Session session = sim::Session::builder(cfg).build();
  const sim::Report r = session.run_multicore(zoo::squeezenet_v11(64));
  EXPECT_EQ(r.cores, 2u);
  ASSERT_EQ(r.per_core.size(), 2u);
  EXPECT_GT(r.per_core[0].cycles, 0u);
  EXPECT_GT(r.per_core[1].cycles, 0u);
  EXPECT_EQ(r.cycles,
            std::max(r.per_core[0].cycles, r.per_core[1].cycles));
  // Shared-substrate contention: both cores slower than a solo run.
  SocConfig solo_cfg;
  sim::Session solo = sim::Session::builder(solo_cfg).build();
  const Cycle solo_cycles = solo.run(zoo::squeezenet_v11(64)).cycles;
  EXPECT_GT(r.per_core[0].cycles, solo_cycles);
  EXPECT_GT(r.per_core[1].cycles, solo_cycles);
}

TEST(SimSession, MatchesDirectPipelinePlusSocRun) {
  // The push-button facade adds nothing to the timing: compiling and
  // running by hand through the pipeline + SoC reports identical cycles.
  SocConfig cfg;
  cfg.accel.has_im2col = true;
  const Model m = zoo::squeezenet_v11(64);
  sim::Session session = sim::Session::builder(cfg).build();
  const Cycle via_session = session.run(m).cycles;

  Soc soc(cfg);
  const LoweredModel lowered =
      lowering::compile(m, cfg.accel, cfg.cpu, soc.address_space(0), {});
  const CoreResult r = soc.run(lowered.stream);
  EXPECT_EQ(via_session, r.finish);
}

// ---- Report JSON ------------------------------------------------------------

TEST(SimReport, JsonIsDeterministicAndStructured) {
  SocConfig cfg;
  sim::Session s1 = sim::Session::builder(cfg).build();
  sim::Session s2 = sim::Session::builder(cfg).build();
  const Model m = zoo::squeezenet_v11(64);
  const sim::Report r1 = s1.run(m);
  const sim::Report r2 = s2.run(m);
  EXPECT_EQ(r1, r2);
  const std::string json = r1.to_json(2);
  EXPECT_EQ(json, r2.to_json(2));
  // Structural spot checks.
  for (const char* key :
       {"\"model\"", "\"cycles\"", "\"cycles_by_tag\"", "\"per_core\"",
        "\"substrate\"", "\"estimates\"", "\"fmax_ghz\"", "\"l2_miss_rate\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Compact mode emits no newlines.
  EXPECT_EQ(r1.to_json(0).find('\n'), std::string::npos);
}

// ---- parallel_for -------------------------------------------------------------

TEST(SimParallelFor, EveryIndexRunsExactlyOnce) {
  for (const unsigned threads : {0u, 1u, 4u, 64u}) {
    std::vector<std::atomic<int>> runs(500);
    sim::parallel_for(runs.size(), threads, [&](std::size_t i) { ++runs[i]; });
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i << ", threads " << threads;
    }
  }
  sim::parallel_for(0, 4, [](std::size_t) { FAIL() << "n = 0 runs nothing"; });
}

TEST(SimParallelFor, LowestIndexExceptionWins) {
  // Index 3 stalls before throwing, so on a pool the later failures are
  // raised first in wall-clock time; the lowest index still wins.
  for (const unsigned threads : {1u, 4u}) {
    for (int rep = 0; rep < 3; ++rep) {
      try {
        sim::parallel_for(32, threads, [](std::size_t i) {
          if (i == 3) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
          if (i == 3 || i == 5 || i == 17) {
            throw RuntimeError("index " + std::to_string(i));
          }
        });
        FAIL() << "parallel_for should have thrown";
      } catch (const RuntimeError& e) {
        EXPECT_STREQ(e.what(), "index 3") << "threads " << threads;
      }
    }
  }
}

TEST(SimParallelFor, NestedCallRunsInline) {
  std::vector<std::thread::id> outer(4);
  std::vector<std::vector<std::thread::id>> inner(
      4, std::vector<std::thread::id>(8));
  sim::parallel_for(outer.size(), 4, [&](std::size_t i) {
    outer[i] = std::this_thread::get_id();
    sim::parallel_for(inner[i].size(), 4, [&](std::size_t j) {
      inner[i][j] = std::this_thread::get_id();
    });
  });
  for (std::size_t i = 0; i < outer.size(); ++i) {
    for (const std::thread::id id : inner[i]) EXPECT_EQ(id, outer[i]);
  }
}

// ---- Sweep / Experiment -----------------------------------------------------

TEST(SimSweep, ParallelResultsAreByteIdenticalToSerial) {
  // The acceptance gate: a >= 8-point grid on >= 4 worker threads must
  // produce reports byte-identical to the serial run.
  sim::Experiment exp;
  SocConfig base;
  base.accel.has_im2col = true;
  exp = sim::Experiment(base);
  exp.scratchpad_sizes({128u << 10, 256u << 10})
      .l2_sizes({1u << 20, 2u << 20})
      .models({zoo::squeezenet_v11(48), zoo::mobilenet_v2(48)});
  const sim::Sweep sweep = exp.sweep();
  ASSERT_GE(sweep.size(), 8u);

  const auto serial = sweep.run({.threads = 1});
  const auto parallel = sweep.run({.threads = 4});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "point " << serial[i].point;
  }
  EXPECT_EQ(sim::reports_to_json(serial, 2), sim::reports_to_json(parallel, 2));
}

TEST(SimSweep, ReportsArriveInPointOrder) {
  sim::Sweep sweep;
  SocConfig cfg;
  sweep.add("a", cfg, zoo::squeezenet_v11(48));
  sweep.add("b", cfg, zoo::mobilenet_v2(48));
  sweep.add("c", cfg, zoo::bert_base(16, 1));
  const auto reports = sweep.run({.threads = 3});
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].point, "a");
  EXPECT_EQ(reports[1].point, "b");
  EXPECT_EQ(reports[2].point, "c");
  EXPECT_EQ(reports[2].model, "bert-base");
}

TEST(SimSweep, InvalidPointFailsDeterministically) {
  sim::Sweep sweep;
  SocConfig ok;
  SocConfig bad;
  bad.name = "bad-point";
  bad.accel.rob_entries = 0;
  sweep.add("ok", ok, zoo::squeezenet_v11(48));
  sweep.add("bad", bad, zoo::squeezenet_v11(48));
  // Fail-soft default: the invalid point becomes an error report, the
  // valid one still completes.
  const auto reports = sweep.run({.threads = 2});
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].status, "ok");
  EXPECT_GT(reports[0].cycles, 0u);
  EXPECT_EQ(reports[1].status, "error");
  EXPECT_NE(reports[1].error.find("ROB"), std::string::npos);
  // Strict opt-in restores the historical abort, named by point order.
  try {
    sweep.run({.threads = 2, .strict = true});
    FAIL() << "strict sweep should have thrown";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("bad"), std::string::npos);
  }
}

TEST(SimSweep, RunPointMatchesDirectRunPathForEveryWorkload) {
  // Every workload kind, run through Sweep::run_point, reports exactly what
  // its direct API reports once `point` is stamped: the dispatch adds the
  // label and nothing else, and drops none of the point's observers.
  const Model m = zoo::squeezenet_v11(32);
  const metrics::MetricsConfig mc = metrics::MetricsConfig::enabled_default();
  const energy::EnergyConfig ec = energy::EnergyConfig::enabled_default();
  auto session = [&](const SocConfig& cfg, bool functional = false) {
    return sim::Session::builder(cfg)
        .functional(functional)
        .metrics(mc)
        .energy(ec)
        .build();
  };
  auto run_point = [&](sim::SweepPoint p) {
    p.metrics = mc;
    if (!std::holds_alternative<sim::Serve>(p.workload)) p.energy = ec;
    const sim::Report rep = sim::Sweep::run_point(p);
    EXPECT_EQ(rep.status, "ok") << p.name << ": " << rep.error;
    EXPECT_EQ(rep.point, p.name);
    return rep;
  };
  auto stamped = [](sim::Report rep, const std::string& point) {
    rep.point = point;
    return rep.to_json();
  };
  SocConfig one;
  SocConfig two;
  two.cores = 2;

  EXPECT_EQ(run_point({"inf", one, sim::Inference{m}}).to_json(),
            stamped(session(one).run(m), "inf"));
  EXPECT_EQ(run_point({"mc", two, sim::Inference{m, true}}).to_json(),
            stamped(session(two).run_multicore(m), "mc"));

  llm::DecodeConfig dc;
  dc.hidden = 128;
  dc.decode_steps = 2;
  sim::Session decode = session(one);
  EXPECT_EQ(run_point({"dec", one, sim::Decode{dc}}).to_json(),
            stamped(llm::run_decode(decode, dc), "dec"));

  serve::ServeSpec spec;
  spec.classes = {{"sq", m, 1.0, 0}};
  spec.arrivals.horizon_cycles = 2'000'000;
  serve::ServerOptions opts;
  opts.metrics = mc;
  EXPECT_EQ(run_point({"srv", two, sim::Serve{spec}}).to_json(),
            stamped(serve::Server(two, spec, opts).run(), "srv"));

  // A campaign reports its fault-free golden run plus the reliability
  // section the classified reruns fill.
  SocConfig faulty;
  faulty.faults.enabled = true;
  faulty.faults.seed = 5;
  faulty.faults.dram_read_flip_rate = 0.05;
  faulty.faults.ecc.enabled = true;
  SocConfig golden = faulty;
  golden.faults.enabled = false;
  const sim::Report direct = session(golden, /*functional=*/true).run(m);
  sim::Report campaign = run_point(
      {"camp", faulty, sim::Campaign{m, 2}, /*functional=*/true});
  EXPECT_EQ(campaign.reliability.campaign_runs, 2u);
  EXPECT_EQ(campaign.reliability.golden_cycles, direct.cycles);
  campaign.reliability = direct.reliability;
  EXPECT_EQ(campaign.to_json(), stamped(direct, "camp"));
}

TEST(SimExperiment, GridExpansionNamesAxes) {
  sim::Experiment exp;
  exp.core_counts({1, 2})
      .scratchpad_sizes({128u << 10, 256u << 10})
      .model(zoo::squeezenet_v11(48));
  const sim::Sweep sweep = exp.sweep();
  ASSERT_EQ(sweep.size(), 4u);
  EXPECT_EQ(sweep.points()[0].name, "sp128K-c1/squeezenet_v1.1");
  EXPECT_EQ(sweep.points()[3].name, "sp256K-c2/squeezenet_v1.1");
  EXPECT_EQ(sweep.points()[3].config.cores, 2u);
  EXPECT_EQ(sweep.points()[3].config.accel.sp_capacity_bytes, 256u << 10);
}

TEST(SimExperiment, DramAxesExpandGridWithLabels) {
  sim::Experiment exp;
  exp.dram_channels({1, 2})
      .dram_schedulers({DramScheduler::kFcfs, DramScheduler::kFrFcfs})
      .dram_interleaves({DramInterleave::kXorFold})
      .model(zoo::squeezenet_v11(48));
  const sim::Sweep sweep = exp.sweep();
  ASSERT_EQ(sweep.size(), 4u);
  EXPECT_EQ(sweep.points()[0].name, "1ch-fcfs-il-xor/squeezenet_v1.1");
  EXPECT_EQ(sweep.points()[3].name, "2ch-frfcfs-il-xor/squeezenet_v1.1");
  EXPECT_EQ(sweep.points()[3].config.mem.dram.channels, 2u);
  EXPECT_EQ(sweep.points()[3].config.mem.dram.scheduler,
            DramScheduler::kFrFcfs);
  EXPECT_EQ(sweep.points()[3].config.mem.dram.interleave,
            DramInterleave::kXorFold);
}

TEST(SimExperiment, DramAxesExclusiveWithExplicitConfigs) {
  sim::Experiment exp;
  exp.configs({SocConfig::base_1mb_l2()})
      .dram_channels({1, 2})
      .model(zoo::squeezenet_v11(48));
  EXPECT_THROW(exp.sweep(), ConfigError);
}

TEST(SimExperiment, RequiresModels) {
  sim::Experiment exp;
  EXPECT_THROW(exp.sweep(), ConfigError);
}

TEST(SimExperiment, ExplicitConfigsExclusiveWithAxes) {
  sim::Experiment exp;
  exp.configs({SocConfig::base_1mb_l2()})
      .core_counts({1, 2})
      .model(zoo::squeezenet_v11(48));
  EXPECT_THROW(exp.sweep(), ConfigError);
}

// ---- pipeline compile entry point ------------------------------------------

TEST(PipelineCompile, SingleAddressSpaceEntryPoint) {
  SocConfig cfg;
  Soc soc(cfg);
  const Model m = zoo::squeezenet_v11(48);
  const LoweredModel lowered =
      lowering::compile(m, cfg.accel, cfg.cpu, soc.address_space(0), {});
  EXPECT_FALSE(lowered.stream.steps.empty());
  EXPECT_GT(lowered.stream.total_instructions(), 0u);
  EXPECT_EQ(lowered.layer_output.size(), m.layers().size());
}

}  // namespace
}  // namespace gemmini
