// Tests for the serving layer (src/serve/): arrival-process determinism and
// JSON round-trips, scheduler policies (FIFO / EDF / batching), bounded
// admission, the exact-percentile reporting, the load -> 0 identity with
// Session::run, thread-count byte-identity of serve sweeps and of concurrent
// calibration, calibration errors raised in class order, and the
// fault-layer error-response contract under traffic.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/dnn/zoo.h"
#include "src/model/graph.h"
#include "src/model/lowering/policy.h"
#include "src/serve/scheduler.h"
#include "src/serve/server.h"
#include "src/serve/traffic.h"
#include "src/sim/experiment.h"
#include "src/sim/report.h"
#include "src/sim/session.h"

namespace gemmini {
namespace {

Model tiny_model(const std::string& name = "serve-tiny") {
  ModelBuilder b(name);
  b.input(12, 12, 8);
  b.conv(16, 3, 1, 1, Activation::kRelu);
  b.dense(10);
  return b.build();
}

/// Session::run cycles for `m` on `cfg` — the serving layer's cold
/// calibration reference.
Cycle session_cycles(const SocConfig& cfg, const Model& m) {
  auto s = sim::Session::builder(cfg).build();
  return s.run(m).cycles;
}

serve::ServeSpec one_class_spec(const Model& m, Cycle deadline = 0) {
  serve::ServeSpec spec;
  spec.classes.push_back(serve::RequestClass{m.name(), m, 1.0, deadline});
  return spec;
}

// ---- Config validation ------------------------------------------------------

TEST(ServeConfig, Validation) {
  serve::ArrivalConfig bad_rate;
  bad_rate.requests_per_mcycle = 0;
  EXPECT_THROW(bad_rate.validate(), ConfigError);

  serve::ArrivalConfig no_trace;
  no_trace.kind = serve::ArrivalKind::kTrace;
  EXPECT_THROW(no_trace.validate(), ConfigError);

  serve::ServeConfig bad_batch;
  bad_batch.max_batch = 0;
  EXPECT_THROW(bad_batch.validate(), ConfigError);

  serve::ServeConfig edf;
  edf.policy = serve::ServePolicy::kEdf;
  EXPECT_EQ(edf.label(), "edf");
  edf.preempt = false;
  EXPECT_EQ(edf.label(), "edf-np");
  serve::ServeConfig batch;
  batch.policy = serve::ServePolicy::kBatch;
  batch.max_batch = 8;
  EXPECT_EQ(batch.label(), "batch8");
}

// ---- Arrival process --------------------------------------------------------

TEST(ArrivalProcess, DeterministicAndSorted) {
  serve::ArrivalConfig cfg;
  cfg.requests_per_mcycle = 5.0;
  cfg.horizon_cycles = 3'000'000;
  cfg.seed = 42;
  serve::ArrivalProcess a(cfg, {serve::RequestClass{"t", tiny_model(), 1.0,
                                                    50'000}});
  serve::ArrivalProcess b(cfg, {serve::RequestClass{"t", tiny_model(), 1.0,
                                                    50'000}});
  const auto ra = a.generate();
  const auto rb = b.generate();
  EXPECT_EQ(ra, rb);
  EXPECT_GT(ra.size(), 3u);
  for (std::size_t i = 1; i < ra.size(); ++i) {
    EXPECT_LE(ra[i - 1].arrival, ra[i].arrival);
    EXPECT_EQ(ra[i].id, ra[i - 1].id + 1);
  }
  for (const serve::Request& r : ra) {
    EXPECT_EQ(r.deadline, r.arrival + 50'000);
  }
}

TEST(ArrivalProcess, FixedIntervalMatchesRate) {
  serve::ArrivalConfig cfg;
  cfg.kind = serve::ArrivalKind::kFixed;
  cfg.requests_per_mcycle = 10.0;  // every 100k cycles
  cfg.horizon_cycles = 1'000'000;
  serve::ArrivalProcess a(cfg, {serve::RequestClass{"t", tiny_model(), 1.0,
                                                    0}});
  const auto rs = a.generate();
  ASSERT_EQ(rs.size(), 9u);  // 100k..900k, horizon-exclusive
  EXPECT_EQ(rs[0].arrival, 100'000u);
  EXPECT_EQ(rs[1].arrival - rs[0].arrival, 100'000u);
}

TEST(ArrivalProcess, TraceRoundTripsThroughJson) {
  serve::ArrivalConfig cfg;
  cfg.requests_per_mcycle = 8.0;
  cfg.horizon_cycles = 2'000'000;
  cfg.seed = 7;
  std::vector<serve::RequestClass> classes;
  classes.push_back(serve::RequestClass{"a", tiny_model("a"), 3.0, 40'000});
  classes.push_back(serve::RequestClass{"b", tiny_model("b"), 1.0, 0});
  serve::ArrivalProcess proc(cfg, classes);
  const auto orig = proc.generate();
  ASSERT_FALSE(orig.empty());
  // Both classes should appear under a 3:1 mix at this volume.
  bool saw[2] = {false, false};
  for (const serve::Request& r : orig) saw[r.cls] = true;
  EXPECT_TRUE(saw[0]);
  EXPECT_TRUE(saw[1]);

  // String round-trip.
  EXPECT_EQ(proc.from_json(proc.to_json(orig)), orig);

  // File round-trip, and replay through the kTrace generator.
  const std::string path =
      ::testing::TempDir() + "serve_trace_roundtrip.json";
  proc.save_trace(path, orig);
  EXPECT_EQ(proc.load_trace(path), orig);
  serve::ArrivalConfig replay;
  replay.kind = serve::ArrivalKind::kTrace;
  replay.trace_path = path;
  serve::ArrivalProcess rproc(replay, classes);
  EXPECT_EQ(rproc.generate(), orig);
  std::remove(path.c_str());
}

TEST(ArrivalProcess, MalformedTraceThrows) {
  serve::ArrivalConfig cfg;
  serve::ArrivalProcess proc(cfg, {serve::RequestClass{"t", tiny_model(), 1.0,
                                                       0}});
  EXPECT_THROW(proc.from_json("not json"), RuntimeError);
  EXPECT_THROW(proc.from_json("[{\"id\": 0}]"), RuntimeError);  // no arrival
  // Out-of-range class index.
  EXPECT_THROW(proc.from_json("[{\"id\": 0, \"class\": 9, \"arrival\": 5}]"),
               RuntimeError);
}

TEST(ArrivalProcess, DecodeTraceRoundTripsBitExact) {
  serve::ArrivalConfig cfg;
  cfg.requests_per_mcycle = 8.0;
  cfg.horizon_cycles = 2'000'000;
  cfg.seed = 9;
  std::vector<serve::RequestClass> classes;
  classes.push_back(serve::RequestClass{"conv", tiny_model("conv"), 1.0,
                                        40'000});
  serve::RequestClass llm{"llm", tiny_model("llm"), 1.0, 0};
  llm.decode = true;
  llm.decode_tokens = 16;
  classes.push_back(llm);
  serve::ArrivalProcess proc(cfg, classes);
  const auto orig = proc.generate();
  ASSERT_FALSE(orig.empty());
  // Decode requests carry the class token budget; single-shot ones carry 0.
  bool saw_decode = false;
  for (const serve::Request& r : orig) {
    EXPECT_EQ(r.tokens, r.cls == 1 ? 16u : 0u);
    saw_decode |= r.cls == 1;
  }
  EXPECT_TRUE(saw_decode);
  // The tokens field survives serialization: request equality AND the JSON
  // text itself round-trip bit-exactly.
  const std::string json = proc.to_json(orig);
  EXPECT_NE(json.find("\"tokens\": 16"), std::string::npos);
  const auto back = proc.from_json(json);
  EXPECT_EQ(back, orig);
  EXPECT_EQ(proc.to_json(back), json);
}

TEST(ArrivalProcess, MalformedTokensFieldThrows) {
  serve::ArrivalConfig cfg;
  serve::ArrivalProcess proc(cfg, {serve::RequestClass{"t", tiny_model(), 1.0,
                                                       0}});
  // Negative and fractional token counts are rejected, not truncated.
  EXPECT_THROW(proc.from_json("[{\"arrival\": 5, \"tokens\": -3}]"),
               RuntimeError);
  EXPECT_THROW(proc.from_json("[{\"arrival\": 5, \"tokens\": 1.5}]"),
               RuntimeError);
}

// ---- Scheduler --------------------------------------------------------------

TEST(ServeScheduler, FifoOrderAndBoundedAdmission) {
  serve::ServeConfig cfg;
  cfg.admission_capacity = 2;
  serve::ServeScheduler s(cfg);
  serve::Request r0{0, 0, 10, 0}, r1{1, 0, 11, 0}, r2{2, 0, 12, 0};
  EXPECT_TRUE(s.admit(r0, 10));
  EXPECT_TRUE(s.admit(r1, 11));
  EXPECT_FALSE(s.admit(r2, 12));  // full -> shed
  EXPECT_EQ(s.depth(), 2u);       // the shed request never queued
  auto b = s.next_batch(13);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].req.id, 0u);
}

TEST(ServeScheduler, EdfPicksEarliestDeadline) {
  serve::ServeConfig cfg;
  cfg.policy = serve::ServePolicy::kEdf;
  serve::ServeScheduler s(cfg);
  s.admit(serve::Request{0, 0, 1, 0}, 1);       // no deadline -> last
  s.admit(serve::Request{1, 0, 2, 9'000}, 2);
  s.admit(serve::Request{2, 0, 3, 5'000}, 3);
  EXPECT_EQ(s.earliest_deadline(), 5'000u);
  EXPECT_EQ(s.next_batch(4)[0].req.id, 2u);
  EXPECT_EQ(s.next_batch(5)[0].req.id, 1u);
  EXPECT_EQ(s.next_batch(6)[0].req.id, 0u);
}

TEST(ServeScheduler, BatchGroupsSameClassOnly) {
  serve::ServeConfig cfg;
  cfg.policy = serve::ServePolicy::kBatch;
  cfg.max_batch = 3;
  serve::ServeScheduler s(cfg);
  s.admit(serve::Request{0, 0, 1, 0}, 1);
  s.admit(serve::Request{1, 1, 2, 0}, 2);  // other class: not merged
  s.admit(serve::Request{2, 0, 3, 0}, 3);
  s.admit(serve::Request{3, 0, 4, 0}, 4);
  auto b = s.next_batch(5);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0].req.id, 0u);
  EXPECT_EQ(b[1].req.id, 2u);
  EXPECT_EQ(b[2].req.id, 3u);
  EXPECT_EQ(s.next_batch(6)[0].req.id, 1u);
  EXPECT_GT(s.depth_stat().max(), 0.0);
}

TEST(Server, RefusesASpecWithoutClassesAtConstruction) {
  EXPECT_THROW(serve::Server(SocConfig{}, serve::ServeSpec{}), ConfigError);
}

// ---- Server: the load -> 0 identity ----------------------------------------

TEST(Server, SingleRequestReducesToSessionLatency) {
  const Model m = tiny_model();
  SocConfig cfg;
  const Cycle session_lat = session_cycles(cfg, m);

  serve::ServeSpec spec = one_class_spec(m);
  spec.arrivals.kind = serve::ArrivalKind::kFixed;
  spec.arrivals.requests_per_mcycle = 0.001;  // offered load -> 0
  spec.arrivals.horizon_cycles = 2'000'000'000;
  spec.arrivals.max_requests = 1;
  serve::Server server(cfg, spec);
  const sim::Report rep = server.run();

  EXPECT_EQ(rep.server.offered, 1u);
  EXPECT_EQ(rep.server.completed, 1u);
  EXPECT_EQ(rep.server.shed, 0u);
  EXPECT_EQ(rep.server.context_switches, 0u);
  // The lone request's latency is *exactly* the single-inference cycle
  // count: no queueing, no contention scaling, no switch cost.
  EXPECT_EQ(rep.server.p50, session_lat);
  EXPECT_EQ(rep.server.max_latency, session_lat);
  EXPECT_EQ(rep.server.p50, rep.server.p999);
}

// ---- Server: decode classes -------------------------------------------------

TEST(Server, DecodeRequestsAddTokensAndPerTokenTails) {
  const Model m = tiny_model();
  SocConfig cfg;
  const Cycle cold = session_cycles(cfg, m);

  auto make_spec = [&](bool decode) {
    serve::ServeSpec spec = one_class_spec(m);
    if (decode) {
      spec.classes[0].decode = true;
      spec.classes[0].decode_tokens = 16;
    }
    spec.arrivals.kind = serve::ArrivalKind::kFixed;
    spec.arrivals.requests_per_mcycle = 0.001;  // no queueing
    spec.arrivals.horizon_cycles = 2'000'000'000;
    spec.arrivals.max_requests = 1;
    return spec;
  };

  serve::Server plain_server(cfg, make_spec(false));
  const sim::Report plain = plain_server.run();
  serve::Server decode_server(cfg, make_spec(true));
  const sim::Report dec = decode_server.run();

  // Single-shot serving is unchanged: the load -> 0 identity still holds
  // and no token statistics appear.
  EXPECT_EQ(plain.server.p50, cold);
  EXPECT_EQ(plain.server.tokens, 0u);
  EXPECT_EQ(plain.server.per_class[0].tokens, 0u);
  EXPECT_EQ(plain.server.per_class[0].p50_per_token, 0u);

  // The decode request generated 16 tokens: latency grows by 16 warm
  // per-token passes and the per-token percentiles are exact.
  const sim::ServerStats& st = dec.server;
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.tokens, 16u);
  EXPECT_EQ(st.per_class[0].tokens, 16u);
  EXPECT_GT(st.p50, cold);
  const Cycle warm = (st.p50 - cold) / 16;
  EXPECT_GT(warm, 0u);
  EXPECT_LE(warm, cold);
  EXPECT_EQ(st.per_class[0].p50_per_token, st.p50 / 16);
  EXPECT_EQ(st.per_class[0].p50_per_token, st.per_class[0].p95_per_token);
  EXPECT_EQ(st.per_class[0].p95_per_token, st.per_class[0].p99_per_token);
  EXPECT_DOUBLE_EQ(st.per_class[0].mean_per_token,
                   static_cast<double>(st.p50 / 16));
}

// ---- Server: percentiles and saturation -------------------------------------

TEST(Server, PercentilesMonotoneInOfferedLoadOn2Cores) {
  const Model m = tiny_model();
  SocConfig cfg;
  cfg.cores = 2;
  const Cycle cold = session_cycles(cfg, m);
  // Total capacity of 2 cores, in requests per megacycle.
  const double capacity = 2.0 * 1e6 / static_cast<double>(cold);

  std::vector<double> loads = {0.2 * capacity, 0.8 * capacity,
                               3.0 * capacity};
  std::vector<sim::Report> reports;
  for (const double load : loads) {
    serve::ServeSpec spec = one_class_spec(m);
    spec.arrivals.requests_per_mcycle = load;
    spec.arrivals.horizon_cycles = 60 * cold;
    spec.arrivals.seed = 5;
    serve::Server server(cfg, spec);
    reports.push_back(server.run());
  }
  for (const sim::Report& r : reports) {
    const sim::ServerStats& st = r.server;
    EXPECT_GT(st.completed, 0u);
    EXPECT_LE(st.p50, st.p95);
    EXPECT_LE(st.p95, st.p99);
    EXPECT_LE(st.p99, st.p999);
    EXPECT_LE(st.p999, st.max_latency);
    EXPECT_GE(st.mean_latency, static_cast<double>(cold));
    EXPECT_LE(st.goodput_per_mcycle, st.offered_per_mcycle + 1e-9);
    EXPECT_LE(st.goodput_per_mcycle, capacity * 1.1);
  }
  // Tail latency grows with offered load...
  EXPECT_LE(reports[0].server.p99, reports[1].server.p99);
  EXPECT_LT(reports[1].server.p99, reports[2].server.p99);
  // ...and goodput, bounded at every load by the offered rate and by
  // capacity (10% slack covers switch costs and end effects), saturates
  // instead of tracking the offered rate.
  const sim::ServerStats& over = reports[2].server;
  EXPECT_LT(over.goodput_per_mcycle, over.offered_per_mcycle);
  // The overloaded run kept a deep queue; the light run stayed shallow.
  EXPECT_GT(over.avg_queue_depth, reports[0].server.avg_queue_depth);
  EXPECT_GE(over.max_queue_depth, over.avg_queue_depth);
}

// ---- Server: EDF vs FIFO under overload -------------------------------------

TEST(Server, EdfBeatsFifoOnDeadlineMissesUnderOverload) {
  const Model m = tiny_model();
  SocConfig cfg;
  const Cycle cold = session_cycles(cfg, m);

  // A burst that overloads one core: three loose-deadline requests arrive
  // just before three tight-deadline ones. FIFO serves the loose trio
  // first and the tight trio misses; EDF reorders (and preempts) so the
  // tight trio fits.
  std::vector<serve::RequestClass> classes;
  classes.push_back(serve::RequestClass{"loose", m, 1.0, 0});
  classes.push_back(serve::RequestClass{"tight", m, 1.0, 0});
  std::vector<serve::Request> burst;
  for (std::uint64_t i = 0; i < 3; ++i) {
    burst.push_back(serve::Request{i, 0, 10 + i, 10 + i + 100 * cold});
  }
  for (std::uint64_t i = 3; i < 6; ++i) {
    burst.push_back(
        serve::Request{i, 1, 20 + i, 20 + i + (i - 2) * cold + cold / 2});
  }
  serve::ArrivalConfig acfg;  // only used to host the trace
  acfg.kind = serve::ArrivalKind::kTrace;
  acfg.trace_path =
      ::testing::TempDir() + "serve_overload_trace.json";
  serve::ArrivalProcess proc(acfg, classes);
  proc.save_trace(acfg.trace_path, burst);

  auto run_policy = [&](serve::ServePolicy policy) {
    serve::ServeSpec spec;
    spec.classes = classes;
    spec.arrivals = acfg;
    spec.scheduler.policy = policy;
    spec.trace_missed = true;
    serve::Server server(cfg, spec);
    return server.run();
  };
  const sim::Report fifo = run_policy(serve::ServePolicy::kFifo);
  const sim::Report edf = run_policy(serve::ServePolicy::kEdf);

  EXPECT_EQ(fifo.server.completed, 6u);
  EXPECT_EQ(edf.server.completed, 6u);
  EXPECT_GT(fifo.server.deadline_misses, edf.server.deadline_misses);
  // The per-class split blames the tight class under FIFO.
  EXPECT_GT(fifo.server.per_class[1].deadline_misses, 0u);
  // Miss attribution: the FIFO run re-traced the missing class and got a
  // bottleneck table whose components were recorded per layer.
  EXPECT_FALSE(fifo.server.miss_bottlenecks.empty());
  std::remove(acfg.trace_path.c_str());
}

// ---- Server: batching -------------------------------------------------------

TEST(Server, BatchingBeatsFifoOnBurstMakespan) {
  const Model m = tiny_model();
  SocConfig cfg;
  serve::ServeSpec spec = one_class_spec(m);
  spec.arrivals.kind = serve::ArrivalKind::kFixed;
  spec.arrivals.requests_per_mcycle = 1000.0;  // a burst: 1 req / kilocycle
  spec.arrivals.max_requests = 8;
  spec.arrivals.horizon_cycles = 1'000'000;

  serve::Server fifo_server(cfg, spec);
  const sim::Report fifo = fifo_server.run();

  spec.scheduler.policy = serve::ServePolicy::kBatch;
  spec.scheduler.max_batch = 8;
  serve::Server batch_server(cfg, spec);
  const sim::Report batch = batch_server.run();

  EXPECT_EQ(fifo.server.completed, 8u);
  EXPECT_EQ(batch.server.completed, 8u);
  EXPECT_GT(batch.server.batches, 0u);
  // Batching pays one context switch per batch instead of per request and
  // serves the batch tail from warm caches: the burst drains sooner.
  EXPECT_LT(batch.server.makespan, fifo.server.makespan);
  EXPECT_LT(batch.server.context_switches, fifo.server.context_switches);
}

// ---- Server: bounded admission sheds ----------------------------------------

TEST(Server, BoundedAdmissionShedsAndBalances) {
  const Model m = tiny_model();
  SocConfig cfg;
  serve::ServeSpec spec = one_class_spec(m);
  spec.arrivals.kind = serve::ArrivalKind::kFixed;
  spec.arrivals.requests_per_mcycle = 2000.0;
  spec.arrivals.max_requests = 12;
  spec.arrivals.horizon_cycles = 10'000'000;
  spec.scheduler.admission_capacity = 3;

  serve::Server server(cfg, spec);
  const sim::Report rep = server.run();
  const sim::ServerStats& st = rep.server;
  EXPECT_EQ(st.offered, 12u);
  EXPECT_GT(st.shed, 0u);
  EXPECT_EQ(st.offered, st.admitted + st.shed);
  EXPECT_EQ(st.completed, st.admitted);  // no faults: every admit completes
  EXPECT_LE(st.max_queue_depth, 3.0);
}

// ---- Server: fault-layer integration ----------------------------------------

TEST(Server, DetectedFaultAbortIsErrorResponseNotCrash) {
  const Model m = tiny_model();
  SocConfig cfg;
  cfg.faults.enabled = true;
  cfg.faults.seed = 3;
  cfg.faults.dma_timeout_rate = 1.0;  // every DMA times out...
  cfg.faults.dma_max_retries = 1;     // ...and the retry budget dies fast
  serve::ServeSpec spec = one_class_spec(m);
  spec.arrivals.kind = serve::ArrivalKind::kFixed;
  spec.arrivals.requests_per_mcycle = 1.0;
  spec.arrivals.max_requests = 3;
  spec.arrivals.horizon_cycles = 100'000'000;

  serve::Server server(cfg, spec);
  const sim::Report rep = server.run();  // must not throw
  EXPECT_EQ(rep.status, "ok");
  EXPECT_EQ(rep.server.errors, 3u);
  EXPECT_EQ(rep.server.completed, 0u);
  EXPECT_EQ(rep.server.errors + rep.server.completed, rep.server.admitted);
  EXPECT_TRUE(rep.reliability.enabled);
}

// ---- Server: concurrent calibration -----------------------------------------

/// A 4-core SoC serving two request classes: four calibration probes (cold
/// and contended per class) for the worker pool.
struct TwoClassScenario {
  SocConfig cfg;
  serve::ServeSpec spec;

  TwoClassScenario() {
    cfg.cores = 4;
    spec.classes = {{"tiny", tiny_model("tiny"), 3.0, 0},
                    {"wide", wide_model(), 1.0, 0}};
    spec.arrivals.requests_per_mcycle = 40.0;
    spec.arrivals.horizon_cycles = 2'000'000;
    spec.arrivals.seed = 9;
    spec.scheduler.policy = serve::ServePolicy::kBatch;
    spec.scheduler.max_batch = 2;
  }

  static Model wide_model() {
    ModelBuilder b("wide");
    b.input(16, 16, 16);
    b.conv(32, 3, 1, 1, Activation::kRelu);
    b.dense(10);
    return b.build();
  }
};

TEST(ServerCalibration, TwoClassFourCoreByteIdenticalInAndOutOfSweeps) {
  const TwoClassScenario sc;
  const std::string first = serve::Server(sc.cfg, sc.spec).run().to_json();
  EXPECT_EQ(serve::Server(sc.cfg, sc.spec).run().to_json(), first);

  // Two points, so a 4-thread sweep runs each Server on a pool worker (its
  // calibration inline); the 1-thread sweep calibrates on the pool.
  sim::Sweep sweep;
  for (const char* name : {"a", "b"}) {
    sweep.add({name, sc.cfg, sim::Serve{sc.spec}});
  }
  const std::vector<sim::Report> r1 = sweep.run({.threads = 1});
  const std::vector<sim::Report> r4 = sweep.run({.threads = 4});
  EXPECT_EQ(sim::reports_to_json(r1), sim::reports_to_json(r4));
  for (sim::Report r : r1) {
    EXPECT_EQ(r.status, "ok");
    EXPECT_GT(r.server.completed, 0u);
    r.point.clear();
    EXPECT_EQ(r.to_json(), first);
  }
}

/// Default placement, except that planning a model named in `failing`
/// throws; the first failing model stalls before throwing, so on a pool a
/// later class's error is raised first in wall-clock time.
class FailingPlacement final : public lowering::PlacementPolicy {
 public:
  explicit FailingPlacement(std::vector<std::string> failing)
      : failing_(std::move(failing)) {}
  std::string name() const override { return "failing"; }
  lowering::LayerTarget place(const Model& model, std::size_t layer,
                              const GemminiConfig& cfg) const override {
    for (std::size_t i = 0; i < failing_.size(); ++i) {
      if (model.name() != failing_[i]) continue;
      if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw RuntimeError("placement refused " + model.name());
    }
    return lowering::DefaultPlacement().place(model, layer, cfg);
  }

 private:
  std::vector<std::string> failing_;
};

TEST(ServerCalibration, FirstFailingClassInClassOrderIsRaised) {
  TwoClassScenario sc;
  sc.spec.classes.push_back({"late", tiny_model("late"), 1.0, 0});
  serve::ServerOptions opts;
  opts.placement =
      std::make_shared<const FailingPlacement>(std::vector<std::string>{
          "wide", "late"});
  for (int rep = 0; rep < 3; ++rep) {
    try {
      serve::Server(sc.cfg, sc.spec, opts).run();
      FAIL() << "calibration should have thrown";
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find("placement refused wide"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---- Sweep integration ------------------------------------------------------

TEST(ServeSweep, ByteIdenticalAcross1_2_4WorkerThreads) {
  serve::ServeSpec spec;
  spec.arrivals.horizon_cycles = 4'000'000;
  spec.arrivals.seed = 11;
  spec.classes = {{"serve-tiny", tiny_model(), 1.0, 400'000}};

  auto make_exp = [&]() {
    sim::Experiment ex(SocConfig{});
    for (const double load : {2.0, 20.0}) {
      for (const serve::ServeConfig& policy :
           {serve::ServeConfig{},
            serve::ServeConfig{serve::ServePolicy::kEdf, 1, 0, true}}) {
        serve::ServeSpec sp = spec;
        sp.arrivals.requests_per_mcycle = load;
        sp.scheduler = policy;
        ex.workload(sim::Serve{sp});
      }
    }
    return ex;
  };
  const std::vector<sim::Report> r1 = make_exp().run({.threads = 1});
  const std::vector<sim::Report> r2 = make_exp().run({.threads = 2});
  const std::vector<sim::Report> r4 = make_exp().run({.threads = 4});
  ASSERT_EQ(r1.size(), 4u);
  EXPECT_EQ(sim::reports_to_json(r1), sim::reports_to_json(r2));
  EXPECT_EQ(sim::reports_to_json(r1), sim::reports_to_json(r4));
  for (const sim::Report& r : r1) {
    EXPECT_EQ(r.status, "ok");
    EXPECT_TRUE(r.server.enabled);
    EXPECT_GT(r.server.offered, 0u);
  }
  // Point labels encode both serving axes.
  EXPECT_EQ(r1[0].point, "load2-fifo/serve-tiny");
  EXPECT_EQ(r1[3].point, "load20-edf/serve-tiny");
}

TEST(ServeSweep, MulticoreTraceAndEnergyAreRefused) {
  // A Server schedules requests across the cores itself (sim::Serve has no
  // multicore flag), and has no single Session to trace or meter: these
  // settings fail instead of being dropped.
  auto exp = [] {
    serve::ServeSpec spec;
    spec.arrivals.horizon_cycles = 1'000'000;
    spec.classes = {{"serve-tiny", tiny_model(), 1.0, 0}};
    return sim::Experiment(SocConfig{}).workload(sim::Serve{spec});
  };
  for (const sim::Report& rep :
       {exp().trace_point("serve-tiny").run().at(0),
        exp().energy().run().at(0)}) {
    EXPECT_EQ(rep.status, "error");
    EXPECT_EQ(rep.point, "serve-tiny");
    EXPECT_NE(rep.error.find("'serve-tiny'"), std::string::npos) << rep.error;
    EXPECT_NE(rep.error.find("ServeSpec::trace_missed"), std::string::npos)
        << rep.error;
  }
}

TEST(ServeSweep, DirectServerRefusesTraceAndEnergy) {
  // The Server constructor is the one gate: a direct Server refuses what a
  // serve sweep point does, with the same message.
  serve::ServeSpec spec;
  spec.classes = {{"tiny", tiny_model(), 1.0, 0}};
  serve::ServerOptions traced;
  traced.trace.enabled = true;
  serve::ServerOptions metered;
  metered.energy = energy::EnergyConfig::enabled_default();
  for (const serve::ServerOptions& opts : {traced, metered}) {
    try {
      serve::Server(SocConfig{}, spec, opts);
      FAIL() << "the Server should refuse a trace or an energy meter";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'tiny'"), std::string::npos) << what;
      EXPECT_NE(what.find("ServeSpec::trace_missed"), std::string::npos)
          << what;
    }
  }
}

// ---- DRAM queue-depth reuse -------------------------------------------------

TEST(DramQueueDepth, SurfacesTimeWeightedStats) {
  SocConfig cfg;
  cfg.mem.dram.write_queue_depth = 8;  // buffered writes exercise the queue
  auto s = sim::Session::builder(cfg).build();
  const sim::Report rep = s.run(tiny_model());
  ASSERT_FALSE(rep.substrate.dram_channels.empty());
  const sim::DramChannelTraffic& ch = rep.substrate.dram_channels[0];
  EXPECT_GT(ch.accesses, 0u);
  EXPECT_GT(ch.max_queue_depth, 0.0);
  EXPECT_GE(ch.max_queue_depth, ch.avg_queue_depth);
  EXPECT_GE(ch.avg_queue_depth, 0.0);
}

}  // namespace
}  // namespace gemmini
