// Telemetry subsystem tests (src/metrics/ + the wiring through Session,
// Sweep, serve::Server and llm::run_decode): log2 histogram bucket
// semantics, registry merge determinism, the sampler's reconciliation
// invariant (sum of per-window counter deltas == end-of-run total),
// metrics-off/on report identity, thread-count byte-identity of metric
// sections and merged metrics, OpenMetrics formatting, serve request-span
// round-trips through the Perfetto export, and the llm KV-footprint gauge
// timeline. Golden cycles with metrics on are pinned in golden_test.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/dnn/zoo.h"
#include "src/llm/decode.h"
#include "src/metrics/metrics.h"
#include "src/metrics/openmetrics.h"
#include "src/serve/server.h"
#include "src/sim/experiment.h"
#include "src/sim/report.h"
#include "src/sim/session.h"

namespace gemmini {
namespace {

// ---- Histogram log2 bucket semantics ---------------------------------------

TEST(MetricsHistogram, Log2BucketBoundaries) {
  metrics::Histogram h;
  // Bucket 0 holds zeros; bucket i holds values of bit width i, i.e. the
  // range [2^(i-1), 2^i - 1].
  EXPECT_EQ(h.bucket_index(0), 0u);
  EXPECT_EQ(h.bucket_index(1), 1u);
  EXPECT_EQ(h.bucket_index(2), 2u);
  EXPECT_EQ(h.bucket_index(3), 2u);
  EXPECT_EQ(h.bucket_index(4), 3u);
  EXPECT_EQ(h.bucket_index(7), 3u);
  EXPECT_EQ(h.bucket_index(8), 4u);
  EXPECT_EQ(h.bucket_index((1ull << 20) - 1), 20u);
  EXPECT_EQ(h.bucket_index(1ull << 20), 21u);
  // Inclusive upper bounds mirror the same edges.
  EXPECT_EQ(h.upper_bound(0), 0u);
  EXPECT_EQ(h.upper_bound(1), 1u);
  EXPECT_EQ(h.upper_bound(2), 3u);
  EXPECT_EQ(h.upper_bound(3), 7u);
  EXPECT_EQ(h.upper_bound(20), (1ull << 20) - 1);

  h.record(0);
  h.record(1);
  h.record(6);
  h.record(7);
  h.record(8);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 0u);
  EXPECT_EQ(h.buckets()[3], 2u);
  EXPECT_EQ(h.buckets()[4], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 22u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_DOUBLE_EQ(h.mean(), 22.0 / 5.0);
}

TEST(MetricsHistogram, OverflowBucketCatchesWideValues) {
  // Default shape: bucket 0 + 32 width buckets + overflow = 34. Every
  // value of width > 32 lands in the last bucket, whose upper bound is the
  // +Inf sentinel.
  metrics::Histogram h;
  ASSERT_EQ(h.buckets().size(), metrics::Histogram::kDefaultBuckets);
  const std::size_t last = h.buckets().size() - 1;
  EXPECT_EQ(h.bucket_index((1ull << 32) - 1), 32u);
  EXPECT_EQ(h.bucket_index(1ull << 32), last);
  EXPECT_EQ(h.bucket_index(~std::uint64_t{0}), last);
  EXPECT_EQ(h.upper_bound(last), ~std::uint64_t{0});
  h.record(1ull << 40);
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.buckets()[last], 2u);

  // A deliberately tiny histogram: everything wider than 2 bits overflows.
  metrics::Histogram tiny(4);
  EXPECT_EQ(tiny.bucket_index(3), 2u);
  EXPECT_EQ(tiny.bucket_index(4), 3u);
  EXPECT_EQ(tiny.bucket_index(1000), 3u);
  EXPECT_EQ(tiny.upper_bound(2), 3u);
  EXPECT_EQ(tiny.upper_bound(3), ~std::uint64_t{0});
}

// ---- Registry: handle stability + deterministic merge ----------------------

TEST(MetricsRegistry, ResetKeepsHandlesValid) {
  metrics::Registry reg;
  metrics::Counter* c = &reg.counter("x");
  metrics::Gauge* g = &reg.gauge("y");
  metrics::Histogram* h = &reg.histogram("z");
  c->add(7);
  g->set(3.5);
  h->record(9);
  reg.reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
  // The cached pointers still address the live registry entries.
  c->add(1);
  EXPECT_EQ(reg.counter("x").value(), 1u);
}

TEST(MetricsRegistry, MergeIsOrderIndependent) {
  // sim::merge_metrics is the one merge of metrics sections.
  auto make = [](std::uint64_t c, double g, std::uint64_t hv) {
    metrics::Metrics m(metrics::MetricsConfig::enabled_default());
    m.registry().counter("c").add(c);
    m.registry().gauge("g").set(g);
    m.registry().histogram("h").record(hv);
    sim::Report r;
    r.metrics = sim::snapshot_metrics(m);
    return r;
  };
  const sim::Report a = make(10, 2.0, 4);
  const sim::Report b = make(32, 5.0, 70);
  const sim::MetricsReport ab = sim::merge_metrics({a, b});
  const sim::MetricsReport ba = sim::merge_metrics({b, a});

  // Counters and histograms add; gauges take the max — all commutative.
  for (const sim::MetricsReport* m : {&ab, &ba}) {
    EXPECT_EQ(m->counters.at("c"), 42u);
    EXPECT_DOUBLE_EQ(m->gauges.at("g"), 5.0);
    const sim::HistogramReport& h = m->histograms.at("h");
    EXPECT_EQ(h.count, 2u);
    EXPECT_EQ(h.sum, 74u);
    EXPECT_EQ(h.min, 4u);
    EXPECT_EQ(h.max, 70u);
  }
  EXPECT_EQ(sim::metrics_to_json(ab), sim::metrics_to_json(ba));
}

// ---- Sampler: windows, zero-padding, reconciliation ------------------------

TEST(MetricsSampler, CounterDeltasReconcileExactly) {
  metrics::Registry reg;
  metrics::TimeSeriesSampler s(reg, 10);
  metrics::Counter& c = reg.counter("bytes");
  s.begin();
  c.add(3);
  s.advance_to(10);  // window 0 closes with delta 3
  c.add(4);
  s.advance_to(35);  // boundaries 20 and 30 close (deltas 4, 0)
  c.add(5);
  s.finish(35);  // one final partial window (delta 5)
  ASSERT_EQ(s.windows(), 4u);
  const auto& cs = s.counter_series().at("bytes");
  EXPECT_EQ(cs.deltas, (std::vector<std::uint64_t>{3, 4, 0, 5}));
  std::uint64_t total = 0;
  for (std::uint64_t d : cs.deltas) total += d;
  EXPECT_EQ(total, c.value());
}

TEST(MetricsSampler, LateRegisteredMetricsZeroPad) {
  metrics::Registry reg;
  metrics::TimeSeriesSampler s(reg, 10);
  reg.counter("early").add(1);
  s.begin();
  s.advance_to(20);  // two windows with only "early" registered
  reg.counter("late").add(9);   // lazily created mid-run
  reg.gauge("depth").set(2.0);  // likewise
  s.finish(25);
  ASSERT_EQ(s.windows(), 3u);
  const auto& late = s.counter_series().at("late");
  EXPECT_EQ(late.deltas, (std::vector<std::uint64_t>{0, 0, 9}));
  const auto& depth = s.gauge_series().at("depth");
  ASSERT_EQ(depth.size(), 3u);
  EXPECT_DOUBLE_EQ(depth[0], 0.0);
  EXPECT_DOUBLE_EQ(depth[1], 0.0);
  EXPECT_DOUBLE_EQ(depth[2], 2.0);
}

// ---- Observational only (metrics off == metrics on) ------------------------

TEST(MetricsSession, ReportIdenticalApartFromMetricsSection) {
  // A full Session::run with metrics on reproduces the metrics-off report
  // exactly once the metrics section itself is blanked.
  const Model m = zoo::squeezenet_v11(48);
  sim::Session off = sim::Session::builder().build();
  sim::Report r_off = off.run(m);

  metrics::MetricsConfig cfg = metrics::MetricsConfig::enabled_default();
  cfg.sample_interval_cycles = 50000;
  sim::Session on = sim::Session::builder().metrics(cfg).build();
  sim::Report r_on = on.run(m);

  EXPECT_EQ(r_on.cycles, r_off.cycles);
  EXPECT_TRUE(r_on.metrics.enabled);
  EXPECT_FALSE(r_off.metrics.enabled);
  r_on.metrics = sim::MetricsReport{};
  EXPECT_EQ(r_on, r_off);
}

// ---- End-to-end timelines through Session::run -----------------------------

TEST(MetricsSession, TimelinesReconcileWithEndOfRunCounters) {
  metrics::MetricsConfig cfg = metrics::MetricsConfig::enabled_default();
  cfg.sample_interval_cycles = 50000;
  sim::Session s = sim::Session::builder().metrics(cfg).build();
  const sim::Report rep = s.run(zoo::squeezenet_v11(48));

  ASSERT_TRUE(rep.metrics.enabled);
  EXPECT_EQ(rep.metrics.sample_interval, 50000u);
  EXPECT_GT(rep.metrics.windows, 1u);
  ASSERT_FALSE(rep.metrics.counters.empty());
  ASSERT_FALSE(rep.metrics.counter_timelines.empty());

  // The reconciliation invariant, for every sampled counter: the timeline
  // is exactly `windows` long and sums to the end-of-run total.
  for (const auto& [name, timeline] : rep.metrics.counter_timelines) {
    ASSERT_EQ(timeline.size(), rep.metrics.windows) << name;
    std::uint64_t total = 0;
    for (std::uint64_t d : timeline) total += d;
    ASSERT_TRUE(rep.metrics.counters.count(name)) << name;
    EXPECT_EQ(total, rep.metrics.counters.at(name)) << name;
  }
  for (const auto& [name, timeline] : rep.metrics.gauge_timelines) {
    EXPECT_EQ(timeline.size(), rep.metrics.windows) << name;
  }

  // The expected instrument families are all present.
  for (const char* name :
       {"core0.exec.macs", "core0.dma.load_bytes", "core0.tlb.hits",
        "l2.hits", "dram.ch0.accesses", "dram.ch0.row_hits",
        "sysbus.bytes"}) {
    EXPECT_TRUE(rep.metrics.counters.count(name)) << name;
    EXPECT_TRUE(rep.metrics.counter_timelines.count(name)) << name;
  }
  EXPECT_FALSE(rep.metrics.histograms.empty());

  // Cross-checks of every published family against the Report sections
  // built from the same component counts. Per-requestor names appear only
  // once a requestor used that unit, so absent means zero there.
  const std::map<std::string, std::uint64_t>& c = rep.metrics.counters;
  const auto or_zero = [&c](const std::string& name) -> std::uint64_t {
    const auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
  };
  EXPECT_EQ(c.at("core0.exec.macs"), rep.per_core[0].accel.macs);
  EXPECT_GT(c.at("core0.exec.tiles"), 0u);
  EXPECT_EQ(c.at("l2.hits"), rep.substrate.l2_hits);
  EXPECT_EQ(c.at("l2.misses"), rep.substrate.l2_misses);

  ASSERT_FALSE(rep.substrate.dram_channels.empty());
  for (const sim::DramChannelTraffic& ch : rep.substrate.dram_channels) {
    const std::string p = "dram.ch" + std::to_string(ch.channel);
    EXPECT_EQ(c.at(p + ".accesses"), ch.accesses) << p;
    EXPECT_EQ(c.at(p + ".bytes"), ch.bytes) << p;
    EXPECT_EQ(c.at(p + ".row_hits"), ch.row_hits) << p;
    EXPECT_EQ(c.at(p + ".row_misses"), ch.row_misses) << p;
  }

  std::uint64_t sysbus = 0, sysbus_wait = 0, membus = 0, membus_wait = 0;
  const sim::RequestorTraffic* core0 = nullptr;
  for (const sim::RequestorTraffic& rq : rep.substrate.per_requestor) {
    const std::string id = std::to_string(rq.requestor);
    EXPECT_EQ(or_zero("sysbus.req" + id + ".bytes"), rq.sysbus_bytes) << id;
    EXPECT_EQ(or_zero("sysbus.req" + id + ".wait_cycles"),
              rq.sysbus_wait_cycles) << id;
    EXPECT_EQ(or_zero("membus.req" + id + ".bytes"), rq.membus_bytes) << id;
    EXPECT_EQ(or_zero("membus.req" + id + ".wait_cycles"),
              rq.membus_wait_cycles) << id;
    EXPECT_EQ(or_zero("dram.req" + id + ".bytes"), rq.dram_bytes) << id;
    EXPECT_EQ(or_zero("dram.req" + id + ".row_hits"), rq.dram_row_hits) << id;
    EXPECT_EQ(or_zero("dram.req" + id + ".row_misses"), rq.dram_row_misses)
        << id;
    sysbus += rq.sysbus_bytes;
    sysbus_wait += rq.sysbus_wait_cycles;
    membus += rq.membus_bytes;
    membus_wait += rq.membus_wait_cycles;
    if (rq.requestor == 0) core0 = &rq;
  }
  EXPECT_EQ(c.at("sysbus.bytes"), sysbus);
  EXPECT_EQ(c.at("sysbus.wait_cycles"), sysbus_wait);
  EXPECT_EQ(c.at("membus.bytes"), membus);
  EXPECT_EQ(c.at("membus.wait_cycles"), membus_wait);

  // Core 0's only memory traffic is its DMA (page walks have their own
  // requestor id), so its DMA bytes are its system-bus bytes.
  ASSERT_NE(core0, nullptr);
  EXPECT_GT(c.at("core0.dma.load_bytes"), 0u);
  EXPECT_EQ(c.at("core0.dma.load_bytes") + c.at("core0.dma.store_bytes"),
            core0->sysbus_bytes);

  const double hits = static_cast<double>(c.at("core0.tlb.hits"));
  const double misses = static_cast<double>(c.at("core0.tlb.misses"));
  const double filter = static_cast<double>(c.at("core0.tlb.filter_hits"));
  ASSERT_GT(hits + misses, 0.0);
  EXPECT_DOUBLE_EQ(rep.per_core[0].private_tlb_hit_rate,
                   hits / (hits + misses));
  EXPECT_DOUBLE_EQ(rep.per_core[0].effective_private_tlb_hit_rate,
                   (filter + hits) / (filter + hits + misses));
}

TEST(MetricsSession, OpenMetricsExportIsDeterministic) {
  metrics::MetricsConfig cfg = metrics::MetricsConfig::enabled_default();
  sim::Session s1 = sim::Session::builder().metrics(cfg).build();
  sim::Session s2 = sim::Session::builder().metrics(cfg).build();
  s1.run(zoo::squeezenet_v11(48));
  s2.run(zoo::squeezenet_v11(48));
  const std::string om = s1.openmetrics();
  EXPECT_EQ(om, s2.openmetrics());
  EXPECT_NE(om.find("# TYPE gemmini_core0_exec_macs counter\n"),
            std::string::npos);
  EXPECT_NE(om.find("gemmini_core0_exec_macs_total "), std::string::npos);
  EXPECT_NE(om.find("_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_TRUE(om.ends_with("# EOF\n"));
}

// ---- Sweep integration: thread-count byte-identity + merge -----------------

TEST(MetricsSweep, MetricsAreByteIdenticalAcrossThreadCounts) {
  metrics::MetricsConfig cfg = metrics::MetricsConfig::enabled_default();
  cfg.sample_interval_cycles = 50000;
  sim::Experiment exp;
  exp.scratchpad_sizes({128u << 10, 256u << 10})
      .models({zoo::squeezenet_v11(48), zoo::mobilenet_v2(48)})
      .metrics(cfg);
  const sim::Sweep sweep = exp.sweep();
  ASSERT_EQ(sweep.size(), 4u);

  const auto r1 = sweep.run({.threads = 1});
  const auto r2 = sweep.run({.threads = 2});
  const auto r4 = sweep.run({.threads = 4});
  for (std::size_t i = 0; i < r1.size(); ++i) {
    ASSERT_TRUE(r1[i].metrics.enabled) << r1[i].point;
    EXPECT_EQ(r1[i], r2[i]) << r1[i].point;
    EXPECT_EQ(r1[i], r4[i]) << r1[i].point;
  }
  EXPECT_EQ(sim::reports_to_json(r1, 2), sim::reports_to_json(r2, 2));
  EXPECT_EQ(sim::reports_to_json(r1, 2), sim::reports_to_json(r4, 2));

  // The cross-point merge is equally thread-count independent, and its
  // counters are the exact sums of the per-point counters.
  const sim::MetricsReport m1 = sim::merge_metrics(r1);
  EXPECT_EQ(sim::metrics_to_json(m1, 2), sim::metrics_to_json(sim::merge_metrics(r2), 2));
  EXPECT_EQ(sim::metrics_to_json(m1, 2), sim::metrics_to_json(sim::merge_metrics(r4), 2));
  std::uint64_t macs = 0;
  for (const auto& r : r1) macs += r.metrics.counters.at("core0.exec.macs");
  EXPECT_EQ(m1.counters.at("core0.exec.macs"), macs);
  EXPECT_EQ(m1.windows, std::max({r1[0].metrics.windows, r1[1].metrics.windows,
                                  r1[2].metrics.windows,
                                  r1[3].metrics.windows}));
}

// ---- Serving spans + request-track Perfetto round-trip ---------------------

Model tiny_serve_model() {
  ModelBuilder b("metrics-serve-tiny");
  b.input(12, 12, 8);
  b.conv(16, 3, 1, 1, Activation::kRelu);
  b.dense(10);
  return b.build();
}

serve::ServeSpec tiny_serve_spec() {
  serve::ServeSpec spec;
  spec.arrivals.requests_per_mcycle = 4.0;
  spec.arrivals.horizon_cycles = 2'000'000;
  spec.arrivals.seed = 9;
  spec.classes.push_back(
      serve::RequestClass{"tiny", tiny_serve_model(), 1.0, 600'000});
  return spec;
}

TEST(MetricsServe, RequestSpansAreCoherentAndMetricsReconcile) {
  serve::ServerOptions opts;
  opts.metrics = metrics::MetricsConfig::enabled_default();
  opts.metrics.sample_interval_cycles = 100'000;
  serve::Server server(SocConfig{}, tiny_serve_spec(), opts);
  const sim::Report rep = server.run();

  const sim::ServerStats& st = rep.server;
  ASSERT_TRUE(st.enabled);
  ASSERT_FALSE(st.spans.empty());
  EXPECT_EQ(st.spans.size(), st.offered);
  std::uint64_t completed = 0, shed = 0, misses = 0;
  for (const sim::RequestSpan& sp : st.spans) {
    EXPECT_LE(sp.arrival, sp.dispatch);
    EXPECT_LE(sp.dispatch, sp.complete);
    if (sp.shed) {
      ++shed;
      EXPECT_FALSE(sp.ok);
    } else {
      EXPECT_LT(sp.dispatch, sp.complete);
      ++completed;
    }
    misses += sp.deadline_miss;
  }
  EXPECT_EQ(shed, st.shed);
  EXPECT_EQ(completed, st.completed + st.errors);
  EXPECT_EQ(misses, st.deadline_misses);

  // serve.* counters agree with the traffic statistics.
  ASSERT_TRUE(rep.metrics.enabled);
  EXPECT_EQ(rep.metrics.counters.at("serve.offered"), st.offered);
  EXPECT_EQ(rep.metrics.counters.at("serve.completed"), st.completed);
  EXPECT_EQ(rep.metrics.counters.at("serve.shed"), st.shed);
  EXPECT_EQ(rep.metrics.counters.at("serve.deadline_misses"),
            st.deadline_misses);
  for (const auto& [name, timeline] : rep.metrics.counter_timelines) {
    std::uint64_t total = 0;
    for (std::uint64_t d : timeline) total += d;
    EXPECT_EQ(total, rep.metrics.counters.at(name)) << name;
  }
}

TEST(MetricsServe, RequestTraceJsonRoundTripsDeterministically) {
  serve::ServerOptions opts;
  opts.metrics = metrics::MetricsConfig::enabled_default();
  opts.metrics.sample_interval_cycles = 100'000;
  serve::Server s1(SocConfig{}, tiny_serve_spec(), opts);
  serve::Server s2(SocConfig{}, tiny_serve_spec(), opts);
  const sim::Report r1 = s1.run();
  const sim::Report r2 = s2.run();
  EXPECT_EQ(r1.server.spans, r2.server.spans);

  const std::string t1 = serve::request_trace_json(r1, 2);
  EXPECT_EQ(t1, serve::request_trace_json(r2, 2));
  // Request tracks and metric counter tracks are both present.
  EXPECT_NE(t1.find("\"requests\""), std::string::npos);
  EXPECT_NE(t1.find("\"queue\""), std::string::npos);
  EXPECT_NE(t1.find("\"metrics\""), std::string::npos);
  EXPECT_NE(t1.find("\"serve.queue_depth\""), std::string::npos);
}

// ---- LLM decode: KV-footprint gauge timeline -------------------------------

TEST(MetricsLlm, KvBytesGaugeTimelineIsNonDecreasing) {
  llm::DecodeConfig cfg;
  cfg.hidden = 128;
  cfg.heads = 4;
  cfg.layers = 2;
  cfg.prompt_tokens = 8;
  cfg.decode_steps = 6;
  cfg.batch = 2;

  metrics::MetricsConfig mcfg = metrics::MetricsConfig::enabled_default();
  mcfg.sample_interval_cycles = 20000;
  sim::Session s = sim::Session::builder().metrics(mcfg).build();
  const sim::Report rep = llm::run_decode(s, cfg);

  ASSERT_TRUE(rep.metrics.enabled);
  ASSERT_TRUE(rep.metrics.gauges.count("llm.kv_bytes"));
  // The final footprint is the full KV cache for prompt + generated tokens.
  EXPECT_DOUBLE_EQ(rep.metrics.gauges.at("llm.kv_bytes"),
                   static_cast<double>(rep.llm.kv_cache_bytes));

  const auto& timeline = rep.metrics.gauge_timelines.at("llm.kv_bytes");
  ASSERT_GE(timeline.size(), 2u);
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_LE(timeline[i - 1], timeline[i]) << "window " << i;
  }
  EXPECT_DOUBLE_EQ(timeline.back(),
                   static_cast<double>(rep.llm.kv_cache_bytes));
}

}  // namespace
}  // namespace gemmini
