// Trace-subsystem tests: zero-overhead-off invariance (cycle counts
// bit-identical with tracing on and off), ring-buffer overflow semantics,
// byte-identical trace.json across repeated sessions and under Experiment
// worker threads, bottleneck components summing exactly to layer spans,
// and the per-requestor substrate accounting.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/dnn/zoo.h"
#include "src/llm/decode.h"
#include "src/sim/experiment.h"
#include "src/sim/session.h"
#include "src/trace/bottleneck.h"
#include "src/trace/perfetto.h"
#include "src/trace/trace.h"

namespace gemmini {
namespace {

SocConfig test_config() {
  SocConfig cfg = SocConfig::base_1mb_l2();
  cfg.accel.has_im2col = true;
  return cfg;
}

sim::Session traced_session(const SocConfig& cfg,
                            std::size_t buffer_events = 1u << 20) {
  trace::TraceConfig tc = trace::TraceConfig::enabled_default();
  tc.buffer_events = buffer_events;
  return sim::Session::builder(cfg).trace(tc).build();
}

// ---- Observational-only: golden cycle invariance ---------------------------

TEST(TraceInvariance, CyclesBitIdenticalWithTracingOnAndOff) {
  const SocConfig cfg = test_config();
  const Model m = zoo::squeezenet_v11(64);

  sim::Session plain = sim::Session::builder(cfg).build();
  sim::Session traced = traced_session(cfg);
  const sim::Report r_plain = plain.run(m);
  const sim::Report r_traced = traced.run(m);

  EXPECT_EQ(r_plain.cycles, r_traced.cycles);
  EXPECT_EQ(r_plain.cycles_by_tag, r_traced.cycles_by_tag);
  EXPECT_EQ(r_plain.substrate.l2_misses, r_traced.substrate.l2_misses);
  // The traced report additionally carries the bottleneck table.
  EXPECT_TRUE(r_plain.bottlenecks.empty());
  EXPECT_FALSE(r_traced.bottlenecks.empty());
}

TEST(TraceInvariance, MulticoreCyclesUnchanged) {
  SocConfig cfg = test_config();
  cfg.cores = 2;
  const Model m = zoo::squeezenet_v11(48);
  sim::Session plain = sim::Session::builder(cfg).build();
  sim::Session traced = traced_session(cfg);
  EXPECT_EQ(plain.run_multicore(m).cycles, traced.run_multicore(m).cycles);
}

TEST(TraceInvariance, MultiChannelRefreshControllerStillObservational) {
  // The full DRAM controller feature set — 2 channels, XOR-fold interleave,
  // FR-FCFS, write buffering, periodic refresh — emits the new controller
  // events (refresh, queue wait, write drain) when traced, and cycle counts
  // stay bit-identical traced vs untraced.
  SocConfig cfg = test_config();
  cfg.mem.dram.channels = 2;
  cfg.mem.dram.interleave = DramInterleave::kXorFold;
  cfg.mem.dram.scheduler = DramScheduler::kFrFcfs;
  cfg.mem.dram.write_queue_depth = 16;
  cfg.mem.dram.write_drain_floor = 4;
  cfg.mem.dram.refresh_interval = 7800;
  cfg.mem.dram.refresh_latency = 280;
  const Model m = zoo::squeezenet_v11(64);

  sim::Session plain = sim::Session::builder(cfg).build();
  sim::Session traced = traced_session(cfg);
  const sim::Report r_plain = plain.run(m);
  const sim::Report r_traced = traced.run(m);
  EXPECT_EQ(r_plain.cycles, r_traced.cycles);
  EXPECT_EQ(r_plain.cycles_by_tag, r_traced.cycles_by_tag);
  EXPECT_EQ(r_plain.substrate.dram_channels, r_traced.substrate.dram_channels);

  // The controller states show up as trace events on the DRAM unit.
  bool saw_refresh = false, saw_queue_wait = false;
  for (const trace::TraceEvent& e : traced.trace_buffer().snapshot()) {
    saw_refresh |= e.kind == trace::EventKind::kDramRefresh;
    saw_queue_wait |= e.kind == trace::EventKind::kDramQueueWait;
    if (e.kind == trace::EventKind::kDramRefresh ||
        e.kind == trace::EventKind::kDramQueueWait ||
        e.kind == trace::EventKind::kDramWriteDrain) {
      EXPECT_EQ(e.unit, trace::Unit::kDram);
    }
  }
  EXPECT_TRUE(saw_refresh);
  EXPECT_TRUE(saw_queue_wait);
}

TEST(TraceInvariance, OverflowingBufferStillObservational) {
  // Even when the ring thrashes (drops on almost every record), timing is
  // untouched.
  const SocConfig cfg = test_config();
  const Model m = zoo::squeezenet_v11(48);
  sim::Session plain = sim::Session::builder(cfg).build();
  sim::Session tiny = traced_session(cfg, /*buffer_events=*/128);
  EXPECT_EQ(plain.run(m).cycles, tiny.run(m).cycles);
  EXPECT_GT(tiny.trace_buffer().dropped(), 0u);
}

// ---- Ring buffer ------------------------------------------------------------

TEST(TracerRing, OldestDroppedOnOverflowWithExactDropCount) {
  trace::Tracer tracer(4);
  for (std::uint64_t i = 0; i < 11; ++i) {
    tracer.instant(trace::EventKind::kL2Hit, i, /*arg=*/i);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.dropped(), 7u);  // events 0..6 overwritten; exact count
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].begin, i + 7);  // oldest surviving first
    EXPECT_EQ(events[i].arg, i + 7);
  }
  tracer.clear();
  EXPECT_TRUE(tracer.empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerRing, DroppedCountReachesTheReport) {
  const SocConfig cfg = test_config();
  sim::Session tiny = traced_session(cfg, /*buffer_events=*/128);
  const sim::Report r = tiny.run(zoo::squeezenet_v11(48));
  EXPECT_EQ(tiny.trace_buffer().size(), 128u);
  EXPECT_GT(r.trace_dropped_events, 0u);
  EXPECT_EQ(r.trace_dropped_events, tiny.trace_buffer().dropped());
}

// ---- Deterministic export ---------------------------------------------------

TEST(TraceExport, ByteIdenticalAcrossRepeatedSessions) {
  const SocConfig cfg = test_config();
  const Model m = zoo::squeezenet_v11(64);
  sim::Session s1 = traced_session(cfg);
  sim::Session s2 = traced_session(cfg);
  s1.run(m);
  s2.run(m);
  const std::string j1 = s1.trace_json();
  const std::string j2 = s2.trace_json();
  EXPECT_FALSE(j1.empty());
  EXPECT_EQ(j1, j2);
  EXPECT_NE(j1.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j1.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceExport, RunClearsThePreviousTrace) {
  // run() clears the ring first, so every run's artifact stands alone.
  // (Repeat runs of one session re-lower at fresh virtual addresses and so
  // are only near-identical in cycles — byte-identical artifacts are the
  // fresh-session guarantee above.)
  const SocConfig cfg = test_config();
  sim::Session s = traced_session(cfg);
  s.run(zoo::squeezenet_v11(64));
  const std::size_t events_big = s.trace_buffer().size();
  s.run(zoo::squeezenet_v11(32));  // much smaller run
  EXPECT_LT(s.trace_buffer().size(), events_big);  // not accumulated
  // The fresh artifact starts at the SoC time origin again.
  const auto events = s.trace_buffer().snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().begin, 0u);
}

TEST(TraceExport, ByteIdenticalUnderExperimentWorkerThreads) {
  // The traced sweep point must produce the same artifact whether the grid
  // runs serially or fanned across a pool.
  auto run_grid = [](const std::string& export_path, unsigned threads) {
    trace::TraceConfig tc = trace::TraceConfig::enabled_default();
    tc.export_path = export_path;
    sim::Experiment exp(SocConfig::base_1mb_l2());
    return exp
        .l2_sizes({1u << 20, 2u << 20})
        .models({zoo::squeezenet_v11(48), zoo::mobilenet_v2(48)})
        .trace_point("l22M/mobilenetv2", tc)
        .run({.threads = threads});
  };
  const std::string path_serial = "trace_test_serial.json";
  const std::string path_parallel = "trace_test_parallel.json";
  const auto serial = run_grid(path_serial, 1);
  const auto parallel = run_grid(path_parallel, 4);

  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
  };
  const std::string t_serial = slurp(path_serial);
  const std::string t_parallel = slurp(path_parallel);
  EXPECT_FALSE(t_serial.empty());
  EXPECT_EQ(t_serial, t_parallel);
  std::remove(path_serial.c_str());
  std::remove(path_parallel.c_str());

  // The traced point's report (bottleneck table included) is identical
  // too, and only that point carries one.
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]);
    EXPECT_EQ(serial[i].bottlenecks.empty(),
              serial[i].point != "l22M/mobilenetv2");
  }
}

// ---- Bottleneck attribution -------------------------------------------------

TEST(Bottlenecks, ComponentsSumExactlyToLayerSpans) {
  const SocConfig cfg = test_config();
  sim::Session s = traced_session(cfg);
  const sim::Report r = s.run(zoo::squeezenet_v11(64));
  ASSERT_FALSE(r.bottlenecks.empty());
  for (const trace::LayerBottleneck& l : r.bottlenecks) {
    EXPECT_GT(l.span, 0u);
    EXPECT_EQ(l.cpu + l.compute + l.translation + l.dram + l.bus_wait +
                  l.dma + l.other,
              l.span)
        << "layer " << l.layer << " (" << l.kind << ")";
  }
}

TEST(Bottlenecks, EveryComputeLayerAppearsOnce) {
  const SocConfig cfg = test_config();
  sim::Session s = traced_session(cfg);
  const Model m = zoo::squeezenet_v11(64);
  const sim::Report r = s.run(m);
  // Every non-input layer ran on core 0, so every one gets a row.
  EXPECT_EQ(r.bottlenecks.size(), m.layers().size() - 1);
  for (std::size_t i = 0; i < r.bottlenecks.size(); ++i) {
    EXPECT_EQ(r.bottlenecks[i].layer, i + 1);
  }
}

TEST(Bottlenecks, RooflineCrossReferenceIsConsistent) {
  const SocConfig cfg = test_config();
  sim::Session s = traced_session(cfg);
  const sim::Report r = s.run(zoo::squeezenet_v11(64));
  const double peak = static_cast<double>(cfg.accel.array.num_pes());
  for (const trace::LayerBottleneck& l : r.bottlenecks) {
    EXPECT_LE(l.attainable_macs_per_cycle, peak);
    if (l.macs > 0) {
      // Measured throughput can never exceed the hardware peak.
      EXPECT_LE(l.measured_macs_per_cycle, peak);
    }
  }
  // SqueezeNet's convolutions do real work on the array.
  bool some_compute = false;
  for (const auto& l : r.bottlenecks) some_compute |= l.compute > 0;
  EXPECT_TRUE(some_compute);
}

TEST(Bottlenecks, LaterPlanDoesNotCorruptAttribution) {
  // plan() compiles without running: the trace buffer still holds the last
  // run's events, and attribution must keep using *that* run's plan.
  const SocConfig cfg = test_config();
  sim::Session s = traced_session(cfg);
  s.run(zoo::squeezenet_v11(64));
  const trace::BottleneckReport before = s.bottlenecks();
  s.plan(zoo::alexnet(63));  // different model, compile only
  const trace::BottleneckReport after = s.bottlenecks();
  EXPECT_EQ(before, after);
  EXPECT_EQ(after.layers.front().kind, "conv");
  // A later run_stream executes the caller's stream, not a plan: its
  // events must not be attributed to the earlier model's layers.
  const sim::Report decode = llm::run_decode(s, llm::DecodeConfig{});
  EXPECT_TRUE(decode.bottlenecks.empty());
}

TEST(Bottlenecks, TopComponentsSortedDescending) {
  trace::LayerBottleneck l;
  l.span = 100;
  l.compute = 50;
  l.dma = 30;
  l.dram = 15;
  l.other = 5;
  const auto top = l.top_components();
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].first, "compute");
  EXPECT_EQ(top[1].first, "dma");
  EXPECT_EQ(top[2].first, "dram");
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].second, top[i].second);
  }
}

// ---- Per-requestor substrate accounting ------------------------------------

TEST(RequestorStats, SurfacedInReportAndConsistent) {
  const SocConfig cfg = test_config();
  sim::Session s = sim::Session::builder(cfg).build();
  const sim::Report r = s.run(zoo::squeezenet_v11(64));
  ASSERT_FALSE(r.substrate.per_requestor.empty());

  std::uint64_t sysbus_bytes = 0, dram_accesses = 0;
  bool saw_core0 = false;
  for (const sim::RequestorTraffic& rq : r.substrate.per_requestor) {
    saw_core0 |= rq.requestor == 0;
    sysbus_bytes += rq.sysbus_bytes;
    dram_accesses += rq.dram_row_hits + rq.dram_row_misses;
  }
  EXPECT_TRUE(saw_core0);  // the accelerator DMA moved data
  EXPECT_GT(sysbus_bytes, 0u);
  EXPECT_GT(dram_accesses, 0u);
  // Per-requestor shares add up to the aggregate counters.
  EXPECT_EQ(sysbus_bytes, s.soc().memory().system_bus().stats().bytes());
  EXPECT_EQ(dram_accesses, s.soc().memory().dram().stats().totals().accesses);
}

TEST(RequestorStats, PerRunNotCumulative) {
  // The SoC zeroes the per-requestor tables at run start, so a Report's
  // table describes only its own run — consistent with the trace.
  const SocConfig cfg = test_config();
  const Model m = zoo::squeezenet_v11(48);
  sim::Session s = sim::Session::builder(cfg).build();
  auto total_sysbus = [](const sim::Report& r) {
    std::uint64_t bytes = 0;
    for (const auto& rq : r.substrate.per_requestor) bytes += rq.sysbus_bytes;
    return bytes;
  };
  const std::uint64_t first = total_sysbus(s.run(m));
  const std::uint64_t second = total_sysbus(s.run(m));
  EXPECT_GT(second, 0u);
  EXPECT_LT(second, first + first / 2);  // not first + second run combined
}

TEST(RequestorStats, PtwShowsUpAsRequestor100) {
  // Shrink the TLBs so walks definitely hit memory.
  SocConfig cfg = test_config();
  cfg.accel.translation.private_tlb.entries = 2;
  cfg.accel.translation.l2_tlb.entries = 0;
  sim::Session s = sim::Session::builder(cfg).build();
  const sim::Report r = s.run(zoo::squeezenet_v11(48));
  bool saw_ptw = false;
  for (const sim::RequestorTraffic& rq : r.substrate.per_requestor) {
    if (rq.requestor == 100) {
      saw_ptw = true;
      EXPECT_GT(rq.sysbus_bytes, 0u);
    }
  }
  EXPECT_TRUE(saw_ptw);
}

TEST(RequestorStats, ChannelCountersSumToTotalsInReport) {
  SocConfig cfg = test_config();
  cfg.mem.dram.channels = 2;
  cfg.mem.dram.interleave = DramInterleave::kXorFold;
  cfg.mem.dram.scheduler = DramScheduler::kFrFcfs;
  cfg.mem.dram.write_queue_depth = 16;
  cfg.mem.dram.write_drain_floor = 4;
  sim::Session s = sim::Session::builder(cfg).build();
  const sim::Report r = s.run(zoo::squeezenet_v11(48));

  // Per-requestor: the per-channel byte split sums to the requestor's DRAM
  // total, for every row (zero-traffic rows report zeroed splits).
  std::uint64_t requestor_dram_bytes = 0;
  for (const sim::RequestorTraffic& rq : r.substrate.per_requestor) {
    ASSERT_EQ(rq.dram_channel_bytes.size(), 2u);
    EXPECT_EQ(rq.dram_channel_bytes[0] + rq.dram_channel_bytes[1],
              rq.dram_bytes);
    requestor_dram_bytes += rq.dram_bytes;
  }

  // Per-channel: channel rows are indexed, both saw traffic, and their sum
  // equals both the requestor-side sum and the controller's aggregate.
  ASSERT_EQ(r.substrate.dram_channels.size(), 2u);
  std::uint64_t channel_bytes = 0, channel_accesses = 0;
  for (std::size_t i = 0; i < r.substrate.dram_channels.size(); ++i) {
    const sim::DramChannelTraffic& ch = r.substrate.dram_channels[i];
    EXPECT_EQ(ch.channel, i);
    EXPECT_GT(ch.accesses, 0u);
    EXPECT_EQ(ch.row_hits + ch.row_misses, ch.accesses);
    channel_bytes += ch.bytes;
    channel_accesses += ch.accesses;
  }
  EXPECT_EQ(channel_bytes, requestor_dram_bytes);
  EXPECT_EQ(channel_accesses,
            s.soc().memory().dram().stats().totals().accesses);

  // And the channel table serializes into the Report JSON.
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"dram_channels\""), std::string::npos);
  EXPECT_NE(json.find("\"dram_channel_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait_cycles\""), std::string::npos);
}

TEST(RequestorStats, MulticoreSplitsTraffic) {
  SocConfig cfg = test_config();
  cfg.cores = 2;
  sim::Session s = sim::Session::builder(cfg).build();
  const sim::Report r = s.run_multicore(zoo::squeezenet_v11(48));
  bool saw0 = false, saw1 = false;
  for (const sim::RequestorTraffic& rq : r.substrate.per_requestor) {
    if (rq.requestor == 0) saw0 = rq.sysbus_bytes > 0;
    if (rq.requestor == 1) saw1 = rq.sysbus_bytes > 0;
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);
}

// ---- Event taxonomy sanity --------------------------------------------------

TEST(TraceEvents, AllExpectedKindsAppear) {
  const SocConfig cfg = test_config();
  sim::Session s = traced_session(cfg);
  s.run(zoo::squeezenet_v11(64));
  bool seen[32] = {};
  for (const trace::TraceEvent& e : s.trace_buffer().snapshot()) {
    seen[static_cast<unsigned>(e.kind)] = true;
    EXPECT_GE(e.end, e.begin);
  }
  using K = trace::EventKind;
  for (K k : {K::kLayerSpan, K::kCpuStep, K::kMvin, K::kMvout,
              K::kDmaBurstRead, K::kDmaBurstWrite, K::kPreload, K::kTile,
              K::kBusGrant, K::kBusWait, K::kDramRowHit, K::kDramRowMiss,
              K::kL2Hit, K::kL2Miss, K::kTlbMiss, K::kPtwWalk}) {
    EXPECT_TRUE(seen[static_cast<unsigned>(k)])
        << "missing " << trace::event_kind_name(k);
  }
}

TEST(TraceEvents, OsSwitchesRecordedWhenNoiseOn) {
  SocConfig cfg = test_config();
  cfg.os.enabled = true;
  cfg.os.period_cycles = 20000;
  sim::Session s = traced_session(cfg);
  s.run(zoo::squeezenet_v11(48));
  std::uint64_t os_events = 0;
  for (const trace::TraceEvent& e : s.trace_buffer().snapshot()) {
    os_events += e.kind == trace::EventKind::kOsSwitch;
  }
  EXPECT_GT(os_events, 0u);
}

}  // namespace
}  // namespace gemmini
