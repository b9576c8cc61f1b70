#include "benchmark/workloads.h"

#include <exception>
#include <sstream>
#include <stdexcept>

#include "src/dnn/zoo.h"
#include "src/llm/decode.h"
#include "src/serve/server.h"
#include "src/sim/experiment.h"
#include "src/sim/session.h"

namespace bench {

using gemmini::Cycle;
using gemmini::Model;
using gemmini::SocConfig;
namespace sim = gemmini::sim;

// ---- SpanLog ----------------------------------------------------------------

int SpanLog::open(const char* name) {
  Span s;
  s.name = name;
  s.rep = rep_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_s = now();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

double SpanLog::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = now();
  stack_.pop_back();
  return s.end_s - s.start_s;
}

std::string SpanLog::to_chrome_json() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::ostringstream out;
  out.precision(12);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = s.end_s - s.start_s;
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_s * 1e6
        << ",\"dur\":" << dur * 1e6 << ",\"args\":{\"rep\":" << s.rep
        << ",\"parent\":\""
        << (s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name
                          : std::string())
        << "\",\"self_us\":" << (dur - child_s[i]) * 1e6 << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

// ---- Shared helpers ---------------------------------------------------------

namespace {

std::string error_of(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// Report::to_json under a span, as every user of a Report would call it.
/// Returns "" or why the serialized report is unusable.
std::string serialize(SpanLog& log, Rep& rep, const sim::Report& r) {
  const std::string json =
      log.timed("report.to_json", &rep.json_s, [&] { return r.to_json(); });
  return json.empty() ? "empty report JSON" : "";
}

/// The first non-empty reason, or "".
std::string first_error(std::initializer_list<std::string> reasons) {
  for (const std::string& r : reasons) {
    if (!r.empty()) return r;
  }
  return "";
}

/// Checks every counter timeline sums to its end-of-run total, and that
/// the DRAM energy split by command kind equals the split by channel.
std::string observer_invariants(const sim::Report& r) {
  const sim::MetricsReport& m = r.metrics;
  if (m.enabled && m.sample_interval > 0) {
    for (const auto& [name, total] : m.counters) {
      const auto it = m.counter_timelines.find(name);
      std::uint64_t sum = 0;
      if (it != m.counter_timelines.end()) {
        for (const std::uint64_t v : it->second) sum += v;
      }
      if (sum != total) return "timeline of " + name + " does not sum to total";
    }
  }
  const sim::EnergyReport& e = r.energy;
  if (e.enabled) {
    const std::uint64_t kinds = e.dram_act_fj + e.dram_pre_fj + e.dram_rd_fj +
                                e.dram_wr_fj + e.dram_ref_fj + e.dram_io_fj;
    std::uint64_t channels = 0;
    for (const std::uint64_t v : e.dram_channel_fj) channels += v;
    if (kinds != e.dram_fj || channels != e.dram_fj) {
      return "DRAM energy by kind != by channel";
    }
  }
  return "";
}

/// Host time of a rep as a user pays it, destructors included: everything
/// since construction except what is added to `excluded` (the benchmark's
/// own checks and stand-in set-up).
struct RepClock {
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  double excluded = 0;

  double wall() const { return seconds_since(start) - excluded; }
};

SocConfig with_im2col(SocConfig cfg) {
  cfg.accel.has_im2col = true;
  return cfg;
}

// ---- zoo_functional -----------------------------------------------------------
// The five scaled paper models with real int8 data on the Base SoC, one
// cold Session per model. Carries the functional data path (PhysMem copies,
// exec-unit arithmetic, weight materialisation in lowering) on the default
// single-channel FCFS memory system.
class ZooFunctional final : public Workload {
 public:
  ZooFunctional(std::uint64_t seed, bool oracle)
      : seed_(seed),
        cfg_(with_im2col(SocConfig::base_1mb_l2())),
        models_(gemmini::zoo::all_paper_models_scaled()) {
    if (!oracle) return;
    // The whole model on the host CPU through the reference kernels: an
    // independent path to the same final-layer bytes. Computed once, untimed.
    for (const Model& m : models_) {
      sim::Session s =
          sim::Session::builder(cfg_)
              .functional(true)
              .seed(seed_)
              .placement(
                  std::make_shared<const gemmini::lowering::CpuOnlyPlacement>())
              .build();
      s.run(m);
      oracle_.push_back(final_layer(s, m));
    }
  }

  Rep run(Variant v, SpanLog& log) override {
    RepClock clock;
    Rep rep;
    for (std::size_t i = 0; i < models_.size(); ++i) {
      const Model& m = models_[i];
      rep.errors.emplace_back();
      sim::Session::Builder b =
          sim::Session::builder(cfg_).functional(true).seed(seed_);
      if (v == Variant::kTraced) {
        b.trace(gemmini::trace::TraceConfig::enabled_default())
            .metrics(gemmini::metrics::MetricsConfig::enabled_default());
      } else if (v == Variant::kObservers) {
        b.metrics(gemmini::metrics::MetricsConfig::enabled_default())
            .energy(gemmini::energy::EnergyConfig::enabled_default());
      }
      try {
        sim::Session s = log.timed("session.build", &rep.build_s,
                                   [&] { return b.build(); });
        const sim::Plan plan = log.timed("model.plan", &rep.compile_s,
                                         [&] { return s.plan(m); });
        rep.reports.push_back(
            log.timed("soc.run", &rep.run_s, [&] { return s.run(plan); }));
        const std::string json_error = serialize(log, rep, rep.reports.back());
        rep.errors.back() = log.timed("check", &clock.excluded, [&] {
          const bool oracle_ok =
              oracle_.empty() || final_layer(s, m) == oracle_[i];
          return first_error(
              {json_error,
               oracle_ok ? "" : m.name() + ": final layer differs from CPU-only",
               observer_invariants(rep.reports.back())});
        });
      } catch (...) {
        rep.reports.emplace_back();
        rep.errors.back() = error_of(std::current_exception());
      }
    }
    rep.setup_s = rep.build_s + rep.compile_s;
    rep.wall_s = clock.wall();
    return rep;
  }

 private:
  static std::vector<std::int8_t> final_layer(sim::Session& s, const Model& m) {
    const std::size_t out = m.layers().size() - 1;
    std::vector<std::int8_t> bytes(m.shape(out).elems());
    s.address_space().read_virt(s.last_lowered().layer_output[out],
                                bytes.data(), bytes.size());
    return bytes;
  }

  std::uint64_t seed_;
  SocConfig cfg_;
  std::vector<Model> models_;
  std::vector<std::vector<std::int8_t>> oracle_;
};

// ---- zoo_sweep -----------------------------------------------------------------
// The Fig. 9 grid {Base, BigSP, BigL2} x the five scaled models, timing
// only, through Experiment::run on two threads: the design-space use.
// Moves no data and attaches no observers, so it bypasses zoo_functional's
// data path.
class ZooSweep final : public Workload {
 public:
  ZooSweep()
      : cfgs_({with_im2col(SocConfig::base_1mb_l2()),
               with_im2col(SocConfig::big_sp()),
               with_im2col(SocConfig::big_l2())}) {
    // Workers claim points in grid order. Longest first (alexnet, resnet50,
    // mobilenetv2, bert, squeezenet: ~0.5 to 0.04 s each) so both workers
    // finish together; in paper order the wall time depended on which
    // worker happened to claim the last long point.
    const std::vector<Model> zoo = gemmini::zoo::all_paper_models_scaled();
    for (const std::size_t i : {1, 0, 3, 4, 2}) models_.push_back(zoo[i]);
  }

  Rep run(Variant v, SpanLog& log) override {
    RepClock clock;
    Rep rep;
    if (v == Variant::kTimed) {
      // Experiment::run sets up each point inside its worker pool, out of
      // reach of a timer. Set-up is measured here instead, by doing the
      // same per-point work (Session build + plan) serially, outside wall.
      log.timed("setup", &clock.excluded, [&] {
        for (const SocConfig& cfg : cfgs_) {
          for (const Model& m : models_) {
            sim::Session s = log.timed("session.build", &rep.build_s, [&] {
              return sim::Session::builder(cfg).build();
            });
            log.timed("model.plan", &rep.compile_s, [&] { return s.plan(m); });
          }
        }
      });
    }
    sim::Experiment ex;
    ex.configs(cfgs_).models(models_);
    if (v == Variant::kTraced) {
      ex.trace_point(cfgs_[0].name + "/" + models_[1].name())  // resnet50
          .metrics();
    } else if (v == Variant::kObservers) {
      ex.metrics().energy();
    }
    sim::SweepOptions opts;
    opts.threads = v == Variant::kProfile ? 1 : 2;
    try {
      rep.reports =
          log.timed("sim.sweep_run", &rep.run_s, [&] { return ex.run(opts); });
    } catch (...) {
      rep.reports.assign(cfgs_.size() * models_.size(), sim::Report{});
      rep.errors.assign(rep.reports.size(), error_of(std::current_exception()));
      return rep;
    }
    for (const sim::Report& r : rep.reports) {
      rep.errors.push_back(
          first_error({serialize(log, rep, r),
                       r.status == "ok" ? "" : r.point + ": " + r.error}));
    }
    rep.setup_s = rep.build_s + rep.compile_s;
    rep.wall_s = clock.wall();
    return rep;
  }

 private:
  std::vector<SocConfig> cfgs_;
  std::vector<Model> models_;
};

// ---- decode_metered --------------------------------------------------------------
// Batch-1 transformer decode, timing only, on the contended memory system
// (4 MB L2, 2 channels, FR-FCFS, XOR-fold, write queue, refresh) with the
// metrics and energy observers attached. Memory-bound: the DRAM controller
// dominates and KV appends put writes beside reads. Bypasses the graph IR.
class DecodeMetered final : public Workload {
 public:
  DecodeMetered() : cfg_(with_im2col(SocConfig::base_1mb_l2())) {
    cfg_.mem.l2.size_bytes = 4ull << 20;
    cfg_.mem.dram.channels = 2;
    cfg_.mem.dram.scheduler = gemmini::DramScheduler::kFrFcfs;
    cfg_.mem.dram.interleave = gemmini::DramInterleave::kXorFold;
    cfg_.mem.dram.write_queue_depth = 16;
    cfg_.mem.dram.write_drain_floor = 4;
    cfg_.mem.dram.refresh_interval = 7800;
    cfg_.mem.dram.refresh_latency = 280;
    dc_.hidden = 512;
    dc_.heads = 8;
    dc_.prompt_tokens = 128;
    dc_.decode_steps = 32;
    dc_.batch = 1;
    dc_.kv_layout = gemmini::llm::KvLayout::kHeadMajor;
    dc_.validate();
  }

  Rep run(Variant v, SpanLog& log) override {
    RepClock clock;
    Rep rep;
    rep.errors.emplace_back();
    sim::Session::Builder b = sim::Session::builder(cfg_);
    if (v != Variant::kObservers) {
      b.metrics(gemmini::metrics::MetricsConfig::enabled_default())
          .energy(gemmini::energy::EnergyConfig::enabled_default());
    }
    if (v == Variant::kTraced) {
      b.trace(gemmini::trace::TraceConfig::enabled_default());
    }
    try {
      sim::Session s =
          log.timed("session.build", &rep.build_s, [&] { return b.build(); });
      const gemmini::llm::DecodeWorkload w =
          log.timed("llm.build_workload", &rep.compile_s, [&] {
            return gemmini::llm::build_decode_workload(
                dc_, s.config().accel, s.config().cpu, s.address_space(0),
                s.seed(), s.functional());
          });
      const Cycle baseline =
          s.config().cpu.gemm_cycles(w.prefill_macs + w.decode_macs);
      rep.reports.push_back(log.timed("soc.run", &rep.run_s, [&] {
        return s.run_stream(w.stream, dc_.label(), baseline);
      }));
      fill_llm(rep.reports.back(), w);
      const std::string json_error = serialize(log, rep, rep.reports.back());
      rep.errors.back() = log.timed("check", &clock.excluded, [&] {
        return first_error(
            {json_error, observer_invariants(rep.reports.back())});
      });
    } catch (...) {
      rep.reports.emplace_back();
      rep.errors.back() = error_of(std::current_exception());
    }
    rep.setup_s = rep.build_s + rep.compile_s;
    rep.wall_s = clock.wall();
    return rep;
  }

  bool observers_in_timed() const override { return true; }

 private:
  /// The decode headline numbers llm::run_decode would attach; the
  /// benchmark calls the two halves separately to time set-up apart.
  void fill_llm(sim::Report& r, const gemmini::llm::DecodeWorkload& w) const {
    const auto tag = [&r](const char* t) -> Cycle {
      const auto it = r.cycles_by_tag.find(t);
      return it == r.cycles_by_tag.end() ? 0 : it->second;
    };
    r.llm.enabled = true;
    r.llm.tokens = dc_.decode_steps * dc_.batch;
    r.llm.prefill_cycles = tag("prefill");
    r.llm.decode_cycles = tag("decode");
    r.llm.cycles_per_token = static_cast<double>(r.llm.decode_cycles) /
                             static_cast<double>(r.llm.tokens);
    r.llm.kv_cache_bytes = w.kv_cache_bytes;
    if (r.energy.enabled) {
      r.energy.energy_per_token_pj = static_cast<double>(r.energy.total_fj) /
                                     1000.0 /
                                     static_cast<double>(r.llm.tokens);
    }
  }

  SocConfig cfg_;
  gemmini::llm::DecodeConfig dc_;
};

// ---- serve_multicore -------------------------------------------------------------
// A 4-core Base SoC serving an open-loop Poisson mix (squeezenet 3 : mobilenet
// 1) under batching dispatch. Host time goes to calibration: cold runs, warm
// reruns that keep L2/TLB contents, and 4-stream run_multicore contention.
// The arrival seed is the benchmark seed.
class ServeMulticore final : public Workload {
 public:
  // 0.3 x the 4-core solo capacity: 4 / (0.75 x 1,038,502 + 0.25 x
  // 3,504,317 cold cycles) = 2.417 requests/Mcycle. The horizon offers about
  // 5,100 requests.
  static constexpr double kRequestsPerMcycle = 0.725;
  static constexpr Cycle kHorizonCycles = 7'034'000'000;

  explicit ServeMulticore(std::uint64_t seed)
      : cfg_(with_im2col(SocConfig::base_1mb_l2())) {
    cfg_.cores = 4;
    const Model sq = gemmini::zoo::squeezenet_v11(64);
    const Model mb = gemmini::zoo::mobilenet_v2(64);
    spec_.enabled = true;
    spec_.classes = {{sq.name(), sq, 3.0}, {mb.name(), mb, 1.0}};
    spec_.arrivals.kind = gemmini::serve::ArrivalKind::kPoisson;
    spec_.arrivals.requests_per_mcycle = kRequestsPerMcycle;
    spec_.arrivals.horizon_cycles = kHorizonCycles;
    spec_.arrivals.seed = seed;
    spec_.scheduler.policy = gemmini::serve::ServePolicy::kBatch;
    spec_.scheduler.max_batch = 4;
    spec_.scheduler.admission_capacity = 256;
  }

  Rep run(Variant v, SpanLog& log) override {
    RepClock clock;
    Rep rep;
    rep.errors.emplace_back();
    gemmini::serve::ServeSpec spec = spec_;
    spec.trace_missed = v == Variant::kTraced;
    gemmini::serve::ServerOptions opts;
    if (v == Variant::kTraced || v == Variant::kObservers) {
      opts.metrics = gemmini::metrics::MetricsConfig::enabled_default();
    }
    try {
      // Set-up: each class's deadline is a multiple of its solo cycles on
      // this SoC (4x squeezenet, 8x mobilenet), then the server is built.
      gemmini::serve::Server server = log.timed("setup", &rep.setup_s, [&] {
        const Cycle solos[] = {4, 8};
        for (std::size_t i = 0; i < spec.classes.size(); ++i) {
          gemmini::serve::RequestClass& c = spec.classes[i];
          sim::Session s = log.timed("session.build", &rep.build_s, [&] {
            return sim::Session::builder(cfg_).build();
          });
          const sim::Plan p = log.timed("model.plan", &rep.compile_s,
                                        [&] { return s.plan(c.model); });
          c.deadline_cycles =
              solos[i] * log.timed("soc.run", nullptr,
                                   [&] { return s.run(p).cycles; });
        }
        return gemmini::serve::Server(cfg_, spec, opts);
      });
      rep.reports.push_back(
          log.timed("serve.run", &rep.run_s, [&] { return server.run(); }));
      const std::string json_error = serialize(log, rep, rep.reports.back());
      rep.errors.back() = log.timed("check", &clock.excluded, [&] {
        return first_error({json_error, invariants(rep.reports.back().server)});
      });
    } catch (...) {
      rep.reports.emplace_back();
      rep.errors.back() = error_of(std::current_exception());
    }
    rep.wall_s = clock.wall();
    return rep;
  }

 private:
  static std::string invariants(const sim::ServerStats& st) {
    if (!(st.p50 <= st.p99 && st.p99 <= st.max_latency)) {
      return "latency percentiles out of order";
    }
    if (st.offered != st.completed + st.shed + st.errors) {
      return "offered != completed + shed + errors";
    }
    if (st.completed == 0) return "no request completed";
    return "";
  }

  SocConfig cfg_;
  gemmini::serve::ServeSpec spec_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "zoo_functional", "zoo_sweep", "decode_metered", "serve_multicore"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool oracle) {
  if (name == "zoo_functional") {
    return std::make_unique<ZooFunctional>(seed, oracle);
  }
  if (name == "zoo_sweep") return std::make_unique<ZooSweep>();
  if (name == "decode_metered") return std::make_unique<DecodeMetered>();
  if (name == "serve_multicore") return std::make_unique<ServeMulticore>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---- Per-layer counters -------------------------------------------------------

namespace {

bool matches(const std::string& name, const char* prefix, const char* suffix) {
  const std::string p = prefix;
  const std::string s = suffix;
  return name.size() >= p.size() + s.size() && name.compare(0, p.size(), p) == 0 &&
         name.compare(name.size() - s.size(), s.size(), s) == 0;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

std::map<std::string, double> layer_metrics(
    const std::vector<sim::Report>& reports) {
  std::map<std::string, double> m;
  double util_weighted = 0, core_cycles = 0;
  double tlb_hits = 0, row_hits = 0, dram_depth = 0, dram_channels = 0;
  double llm_cycles = 0, llm_decode_cycles = 0;
  for (const sim::Report& r : reports) {
    for (const sim::CoreReport& c : r.per_core) {
      m["accel.macs"] += static_cast<double>(c.accel.macs);
      m["accel.exec_busy_cycles"] += static_cast<double>(c.accel.exec_busy);
      m["accel.load_busy_cycles"] += static_cast<double>(c.accel.load_busy);
      m["accel.store_busy_cycles"] += static_cast<double>(c.accel.store_busy);
      m["cpu.cycles"] += static_cast<double>(c.cpu_cycles);
      util_weighted += c.array_utilization * static_cast<double>(c.cycles);
      core_cycles += static_cast<double>(c.cycles);
    }
    const sim::SubstrateStats& sub = r.substrate;
    m["l2.hits"] += static_cast<double>(sub.l2_hits);
    m["l2.misses"] += static_cast<double>(sub.l2_misses);
    for (const sim::RequestorTraffic& t : sub.per_requestor) {
      m["bus.bytes"] += static_cast<double>(t.sysbus_bytes + t.membus_bytes);
      m["bus.wait_cycles"] +=
          static_cast<double>(t.sysbus_wait_cycles + t.membus_wait_cycles);
    }
    for (const sim::DramChannelTraffic& ch : sub.dram_channels) {
      m["dram.accesses"] += static_cast<double>(ch.accesses);
      m["dram.queue_wait_cycles"] += static_cast<double>(ch.queue_wait_cycles);
      m["dram.refresh_stall_cycles"] +=
          static_cast<double>(ch.refresh_stall_cycles);
      m["dram.write_drains"] += static_cast<double>(ch.write_drains);
      row_hits += static_cast<double>(ch.row_hits);
      dram_depth += ch.avg_queue_depth;
      dram_channels += 1;
    }
    auto bottlenecks = r.bottlenecks;
    bottlenecks.insert(bottlenecks.end(), r.server.miss_bottlenecks.begin(),
                       r.server.miss_bottlenecks.end());
    for (const gemmini::trace::LayerBottleneck& b : bottlenecks) {
      m["bottleneck.compute_cycles"] += static_cast<double>(b.compute);
      m["bottleneck.dma_cycles"] += static_cast<double>(b.dma);
      m["bottleneck.translation_cycles"] += static_cast<double>(b.translation);
      m["bottleneck.bus_wait_cycles"] += static_cast<double>(b.bus_wait);
      m["bottleneck.dram_cycles"] += static_cast<double>(b.dram);
      m["bottleneck.cpu_cycles"] += static_cast<double>(b.cpu);
    }
    for (const sim::LayerIntensity& l : r.layer_intensity) {
      m["lowering.modeled_dma_bytes"] += static_cast<double>(l.dram_bytes);
    }
    m["trace.dropped_events"] += static_cast<double>(r.trace_dropped_events);
    const sim::MetricsReport& reg = r.metrics;
    m["metrics.sampler_windows"] += static_cast<double>(reg.windows);
    for (const auto& [name, v] : reg.counters) {
      const double x = static_cast<double>(v);
      if (matches(name, "core", ".tlb.hits")) tlb_hits += x;
      if (matches(name, "core", ".tlb.misses")) m["tlb.misses"] += x;
      if (matches(name, "core", ".tlb.filter_hits")) m["tlb.filter_hits"] += x;
      if (matches(name, "core", ".dma.load_bytes") ||
          matches(name, "core", ".dma.store_bytes")) {
        m["dma.bytes"] += x;
      }
    }
    for (const auto& [name, h] : reg.histograms) {
      if (matches(name, "step_cycles.", "")) {
        m["soc.steps"] += static_cast<double>(h.count);
      }
    }
    if (r.llm.enabled) {
      m["llm.kv_cache_bytes"] += static_cast<double>(r.llm.kv_cache_bytes);
      m["llm.cycles_per_token"] += r.llm.cycles_per_token;
      m["energy.pj_per_token"] += r.energy.energy_per_token_pj;
      llm_cycles += static_cast<double>(r.cycles);
      llm_decode_cycles += static_cast<double>(r.llm.decode_cycles);
    }
    const sim::ServerStats& st = r.server;
    if (st.enabled) {
      m["serve.completed"] += static_cast<double>(st.completed);
      m["serve.shed"] += static_cast<double>(st.shed);
      m["serve.deadline_misses"] += static_cast<double>(st.deadline_misses);
      m["serve.avg_queue_depth"] += st.avg_queue_depth;
      m["serve.context_switches"] += static_cast<double>(st.context_switches);
      m["serve.p50_cycles"] += static_cast<double>(st.p50);
      m["serve.p99_cycles"] += static_cast<double>(st.p99);
      m["serve.goodput_per_mcyc"] += st.goodput_per_mcycle;
      for (const sim::RequestSpan& sp : st.spans) {
        if (sp.ok && sp.complete - sp.arrival > st.p99) {
          m["serve.samples_beyond_p99"] += 1;
        }
      }
    }
  }
  m["accel.utilization"] = ratio(util_weighted, core_cycles);
  m["tlb.hit_rate"] = ratio(tlb_hits, tlb_hits + m["tlb.misses"]);
  m["l2.miss_rate"] = ratio(m["l2.misses"], m["l2.hits"] + m["l2.misses"]);
  m["dram.row_hit_rate"] = ratio(row_hits, m["dram.accesses"]);
  m["dram.avg_queue_depth"] = ratio(dram_depth, dram_channels);
  m["llm.decode_cycle_share"] = ratio(llm_decode_cycles, llm_cycles);
  return m;
}

std::string simulated_fingerprint(const sim::Report& r) {
  sim::Report s = r;
  s.metrics = {};
  s.energy = {};
  s.bottlenecks.clear();
  s.trace_dropped_events = 0;
  s.server.miss_bottlenecks.clear();
  return s.to_json();
}

}  // namespace bench
