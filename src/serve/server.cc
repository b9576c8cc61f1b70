#include "src/serve/server.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "src/base/stats.h"
#include "src/sim/parallel.h"
#include "src/trace/perfetto.h"

namespace gemmini::serve {

void ServeSpec::validate() const {
  arrivals.validate();
  scheduler.validate();
  GEMMINI_CONFIG_REQUIRE(!classes.empty(),
                         "serve::ServeSpec: at least one request class");
  for (const RequestClass& c : classes) {
    GEMMINI_CONFIG_REQUIRE(!c.model.layers().empty(),
                           "serve::ServeSpec: class '" << c.name
                                                       << "' has an empty model");
  }
}

std::string ServeSpec::label() const {
  std::string out;
  for (const RequestClass& c : classes) {
    if (!out.empty()) out += "+";
    out += c.name;
  }
  return out;
}

Server::Server(SocConfig config, ServeSpec spec, ServerOptions opts)
    : config_(std::move(config)), spec_(std::move(spec)), opts_(std::move(opts)) {
  spec_.validate();
  GEMMINI_CONFIG_REQUIRE(
      !opts_.trace.enabled && !opts_.energy.active(),
      "serve::Server '" + spec_.label() +
          "': takes no trace or energy meter; use ServeSpec::trace_missed "
          "for per-request bottlenecks");
}

sim::Session Server::make_session(const SocConfig& cfg, bool with_trace) const {
  // The probes carry the compile-side options only: the serving layer
  // meters itself (see ServerOptions), and the constructor refused a trace
  // and an energy meter.
  return sim::Session::builder(cfg)
      .options(opts_)
      .metrics({})
      .trace(with_trace ? trace::TraceConfig::enabled_default()
                        : trace::TraceConfig{})
      .build();
}

std::vector<Server::Calibration> Server::calibrate() const {
  SocConfig cfg = config_;
  cfg.faults.enabled = false;  // service times are calibrated fault-free
  const bool multicore = config_.cores > 1;
  const std::size_t probes_per_class = multicore ? 2 : 1;
  std::vector<Calibration> cal(spec_.classes.size());

  // The probes share no state — each elaborates its own Session — so they
  // run on the shared worker pool (inline when this server is itself a
  // Sweep worker's point). Probe order is class order, cold before
  // contended, so the pool's lowest-index rethrow raises the error the
  // serial loop would have.
  sim::parallel_for(
      spec_.classes.size() * probes_per_class, /*threads=*/0,
      [&](std::size_t i) {
        const Model& model = spec_.classes[i / probes_per_class].model;
        Calibration& c = cal[i / probes_per_class];
        sim::Session s = make_session(cfg, /*with_trace=*/false);
        if (i % probes_per_class == 0) {
          c.cold = s.run(model).cycles;
          // Warm re-run: timing reset only, so L2/TLB contents survive —
          // the service time of a batch's second and later requests.
          s.soc().reset_time();
          c.warm = s.soc().run(s.last_lowered().stream).finish;
        } else {
          // Fully contended bound: every core streaming this model against
          // the shared L2/bus/DRAM at once.
          c.contended = s.run_multicore(model).cycles;
        }
      });

  for (Calibration& c : cal) {
    if (c.warm > c.cold) c.warm = c.cold;
    if (!multicore || c.contended < c.cold) c.contended = c.cold;
  }
  return cal;
}

double Server::contention_factor(const Calibration& cal, unsigned busy) const {
  const unsigned n = config_.cores;
  if (n <= 1 || busy <= 1 || cal.cold == 0) return 1.0;
  if (busy > n) busy = n;
  const double full =
      static_cast<double>(cal.contended) / static_cast<double>(cal.cold);
  return 1.0 + (static_cast<double>(busy - 1) / static_cast<double>(n - 1)) *
                   (full - 1.0);
}

sim::Report Server::run() {
  ArrivalProcess proc(spec_.arrivals, spec_.classes);
  const std::vector<Request> requests = proc.generate();

  const unsigned ncores = config_.cores;
  const bool faulty = config_.faults.enabled;
  const std::size_t nclasses = spec_.classes.size();

  const std::vector<Calibration> cal = calibrate();

  sim::Report rep;
  sim::ServerStats& st = rep.server;
  st.enabled = true;
  st.policy = spec_.scheduler.label();
  st.arrival = arrival_kind_name(spec_.arrivals.kind);
  st.per_class.resize(nclasses);
  for (std::size_t i = 0; i < nclasses; ++i) {
    st.per_class[i].name = spec_.classes[i].name;
  }

  ServeScheduler sched(spec_.scheduler);
  // Per-request lifecycle spans, keyed (and later reported) by id.
  std::map<std::uint64_t, sim::RequestSpan> spans;

  struct CoreState {
    bool busy = false;
    Cycle busy_until = 0;
    bool dirty = false;  ///< ran something before (next dispatch pays a switch)
    std::vector<ServeScheduler::Pending> batch;
  };
  std::vector<CoreState> cores(ncores);

  // Serving-layer telemetry: its own collector (the calibration/per-request
  // Sessions inside are throwaway probes — metering them would double-count
  // traffic), driven on the event-loop clock, which is non-decreasing. As
  // with Soc::publish_metrics, the registry is a view: `publish` writes the
  // typed stats and the current queue/in-flight levels into it at run
  // start, before each window the sampler closes, and at the end.
  std::unique_ptr<metrics::Metrics> met;
  auto publish = [&] {
    metrics::Registry& reg = met->registry();
    reg.counter("serve.offered").set(st.offered);
    reg.counter("serve.admitted").set(st.admitted);
    reg.counter("serve.shed").set(st.shed);
    reg.counter("serve.completed").set(st.completed);
    reg.counter("serve.errors").set(st.errors);
    reg.counter("serve.deadline_misses").set(st.deadline_misses);
    reg.counter("serve.preemptions").set(st.preemptions);
    std::size_t inflight = 0;
    for (const CoreState& c : cores) inflight += c.batch.size();
    reg.gauge("serve.queue_depth").set(static_cast<double>(sched.depth()));
    reg.gauge("serve.inflight").set(static_cast<double>(inflight));
  };
  if (opts_.metrics.enabled) {
    met = std::make_unique<metrics::Metrics>(opts_.metrics);
    met->begin_run();
    publish();
  }

  std::vector<Cycle> samples;  ///< ok-response latencies (exact percentiles)
  std::vector<std::vector<Cycle>> cls_samples(nclasses);
  double latency_sum = 0;
  std::vector<double> cls_latency_sum(nclasses, 0.0);
  // Per-token latency samples (latency / tokens) for decode requests only.
  std::vector<std::vector<Cycle>> cls_tok_samples(nclasses);
  std::vector<double> cls_tok_sum(nclasses, 0.0);
  std::set<std::uint64_t> errored;  ///< request ids whose faulty run threw
  bool have_miss = false;
  unsigned miss_cls = 0;

  auto busy_count = [&cores]() {
    unsigned n = 0;
    for (const CoreState& c : cores) n += c.busy ? 1 : 0;
    return n;
  };

  // A faulty dispatch actually runs the request through a fresh Session
  // with the campaign seed convention (faults.seed + id). A throw — DMA
  // abort, watchdog — is a detected error *response*: the request occupies
  // the core for the calibrated cold time and completes as an error.
  auto run_faulty = [&](const Request& r) -> std::pair<bool, Cycle> {
    SocConfig cfg = config_;
    cfg.faults.seed = config_.faults.seed + r.id;
    sim::Session s = make_session(cfg, /*with_trace=*/false);
    try {
      return {false, s.run(spec_.classes[r.cls].model).cycles};
    } catch (const std::exception&) {
      return {true, cal[r.cls].cold};
    }
  };

  auto complete_core = [&](std::size_t ci, Cycle t) {
    CoreState& c = cores[ci];
    for (const ServeScheduler::Pending& p : c.batch) {
      const Request& r = p.req;
      sim::ServeClassStats& cs = st.per_class[r.cls];
      sim::RequestSpan& sp = spans[r.id];
      sp.complete = t;
      sp.core = static_cast<unsigned>(ci);
      if (faulty && errored.count(r.id) != 0) {
        ++st.errors;
        ++cs.errors;
        sp.ok = false;
        continue;
      }
      const Cycle lat = t - r.arrival;
      samples.push_back(lat);
      cls_samples[r.cls].push_back(lat);
      latency_sum += static_cast<double>(lat);
      cls_latency_sum[r.cls] += static_cast<double>(lat);
      if (r.tokens > 0) {
        const Cycle per_tok = lat / r.tokens;
        cls_tok_samples[r.cls].push_back(per_tok);
        cls_tok_sum[r.cls] += static_cast<double>(per_tok);
        st.tokens += r.tokens;
        cs.tokens += r.tokens;
      }
      ++st.completed;
      ++cs.completed;
      if (r.deadline != 0 && t > r.deadline) {
        ++st.deadline_misses;
        ++cs.deadline_misses;
        sp.deadline_miss = true;
        if (!have_miss) {
          have_miss = true;
          miss_cls = r.cls;
        }
      } else {
        ++st.good;
      }
    }
    if (t > st.makespan) st.makespan = t;
    c.batch.clear();
    c.busy = false;
  };

  auto dispatch_idle = [&](Cycle t) {
    while (!sched.empty()) {
      std::size_t ci = ncores;
      for (std::size_t i = 0; i < ncores; ++i) {
        if (!cores[i].busy) {
          ci = i;
          break;
        }
      }
      if (ci == ncores) break;
      std::vector<ServeScheduler::Pending> batch = sched.next_batch(t);
      CoreState& c = cores[ci];
      const unsigned busy_after = busy_count() + 1;

      Cycle base;
      if (batch[0].remaining > 0) {
        // Preempted resume: the remainder was scaled when first dispatched.
        base = batch[0].remaining;
      } else if (faulty) {
        Cycle sum = 0;
        for (const ServeScheduler::Pending& p : batch) {
          auto [err, cycles] = run_faulty(p.req);
          if (err) errored.insert(p.req.id);
          // Decode requests pay `tokens` extra warm per-token passes on
          // top of the (possibly faulty) prefill run.
          sum += cycles + p.req.tokens * cal[p.req.cls].warm;
        }
        const double f = contention_factor(cal[batch[0].req.cls], busy_after);
        base = static_cast<Cycle>(
            std::llround(static_cast<double>(sum) * f));
      } else {
        const Calibration& k = cal[batch[0].req.cls];
        // cold prefill + warm tail of the batch + one warm pass per
        // generated token (decode classes; tokens == 0 for single-shot
        // requests recovers the plain inference cost exactly).
        Cycle tokens = 0;
        for (const ServeScheduler::Pending& p : batch) tokens += p.req.tokens;
        const Cycle solo = k.cold +
                           static_cast<Cycle>(batch.size() - 1) * k.warm +
                           tokens * k.warm;
        const double f = contention_factor(k, busy_after);
        base = static_cast<Cycle>(
            std::llround(static_cast<double>(solo) * f));
      }

      // Every dispatch onto a core that ran before is a context switch
      // (the OS model's cost; switches flush accelerator translation
      // state, which is why warmth never crosses a batch boundary). The
      // first dispatch on a fresh core charges nothing — a lone request on
      // an idle SoC costs exactly Session::run's cycles.
      const Cycle sw = c.dirty ? config_.os.switch_cost_cycles : 0;
      if (sw > 0) ++st.context_switches;
      if (batch.size() > 1) ++st.batches;
      c.dirty = true;
      c.busy = true;
      c.batch = std::move(batch);
      c.busy_until = t + sw + (base > 0 ? base : 1);
      for (const ServeScheduler::Pending& p : c.batch) {
        spans[p.req.id].dispatch = t;
      }
    }
  };

  // EDF preemption: a newly admitted request with an earlier deadline
  // evicts the running work with the *latest* deadline (no-deadline work
  // counts as latest). The victim's remaining service re-queues and its
  // resume pays another switch.
  auto maybe_preempt = [&](const Request& r, Cycle t) {
    std::size_t vi = ncores;
    Cycle vdl = 0;
    for (std::size_t i = 0; i < ncores; ++i) {
      const CoreState& c = cores[i];
      if (!c.busy) return;  // an idle core exists; dispatch handles it
      Cycle dl = kCycleMax;
      for (const ServeScheduler::Pending& p : c.batch) {
        const Cycle d = p.req.deadline == 0 ? kCycleMax : p.req.deadline;
        if (d < dl) dl = d;
      }
      if (vi == ncores || dl > vdl) {
        vi = i;
        vdl = dl;
      }
    }
    if (vi == ncores || vdl <= r.deadline) return;
    CoreState& c = cores[vi];
    const Cycle rem = c.busy_until > t ? c.busy_until - t : 1;
    for (ServeScheduler::Pending& p : c.batch) {
      p.remaining = rem;
      spans[p.req.id].preemptions += 1;
      sched.requeue(std::move(p), t);
    }
    c.batch.clear();
    c.busy = false;
    ++st.preemptions;
  };

  // Discrete-event loop: at each step handle the earliest event;
  // completions before arrivals on ties, then fill idle cores. Fixed
  // ordering + the seeded generator = byte-identical reports.
  std::size_t ai = 0;
  while (true) {
    Cycle tc = kCycleMax;
    std::size_t ci = ncores;
    for (std::size_t i = 0; i < ncores; ++i) {
      if (cores[i].busy && cores[i].busy_until < tc) {
        tc = cores[i].busy_until;
        ci = i;
      }
    }
    const Cycle ta = ai < requests.size() ? requests[ai].arrival : kCycleMax;
    if (tc == kCycleMax && ta == kCycleMax) break;
    const Cycle t = tc <= ta ? tc : ta;
    if (met && met->sampler().due(t)) {
      publish();
      met->advance_to(t);
    }
    if (tc <= ta) {
      complete_core(ci, tc);
      dispatch_idle(tc);
    } else {
      const Request& r = requests[ai++];
      ++st.offered;
      ++st.per_class[r.cls].offered;
      sim::RequestSpan& sp = spans[r.id];
      sp.id = r.id;
      sp.cls = r.cls;
      sp.arrival = r.arrival;
      if (!sched.admit(r, ta)) {
        ++st.shed;
        ++st.per_class[r.cls].shed;
        sp.shed = true;
        sp.ok = false;
        sp.dispatch = ta;
        sp.complete = ta;
      } else {
        ++st.admitted;
        if (spec_.scheduler.policy == ServePolicy::kEdf &&
            spec_.scheduler.preempt && r.deadline != 0) {
          maybe_preempt(r, ta);
        }
      }
      dispatch_idle(ta);
    }
  }
  sched.finish(st.makespan);

  // ---- Statistics -----------------------------------------------------------
  std::sort(samples.begin(), samples.end());
  st.p50 = percentile_sorted(samples, 50.0);
  st.p95 = percentile_sorted(samples, 95.0);
  st.p99 = percentile_sorted(samples, 99.0);
  st.p999 = percentile_sorted(samples, 99.9);
  st.max_latency = samples.empty() ? 0 : samples.back();
  st.mean_latency =
      samples.empty() ? 0.0 : latency_sum / static_cast<double>(samples.size());
  for (std::size_t i = 0; i < nclasses; ++i) {
    sim::ServeClassStats& cs = st.per_class[i];
    std::vector<Cycle>& s = cls_samples[i];
    std::sort(s.begin(), s.end());
    cs.p50 = percentile_sorted(s, 50.0);
    cs.p95 = percentile_sorted(s, 95.0);
    cs.p99 = percentile_sorted(s, 99.0);
    cs.p999 = percentile_sorted(s, 99.9);
    cs.max_latency = s.empty() ? 0 : s.back();
    cs.mean_latency =
        s.empty() ? 0.0 : cls_latency_sum[i] / static_cast<double>(s.size());
    std::vector<Cycle>& ts = cls_tok_samples[i];
    std::sort(ts.begin(), ts.end());
    cs.p50_per_token = percentile_sorted(ts, 50.0);
    cs.p95_per_token = percentile_sorted(ts, 95.0);
    cs.p99_per_token = percentile_sorted(ts, 99.0);
    cs.mean_per_token =
        ts.empty() ? 0.0 : cls_tok_sum[i] / static_cast<double>(ts.size());
  }
  st.avg_queue_depth = sched.depth_stat().mean();
  st.max_queue_depth = sched.depth_stat().max();

  st.spans.reserve(spans.size());
  for (auto& [id, sp] : spans) st.spans.push_back(std::move(sp));

  if (met) {
    publish();
    met->finish_run(st.makespan);
    rep.metrics = sim::snapshot_metrics(*met);
  }

  if (spec_.arrivals.kind == ArrivalKind::kTrace) {
    const Cycle span = requests.empty() ? 0 : requests.back().arrival + 1;
    st.offered_per_mcycle =
        span == 0 ? 0.0
                  : static_cast<double>(st.offered) * 1e6 /
                        static_cast<double>(span);
  } else {
    st.offered_per_mcycle = spec_.arrivals.requests_per_mcycle;
  }
  if (st.makespan > 0) {
    st.goodput_per_mcycle = static_cast<double>(st.good) * 1e6 /
                            static_cast<double>(st.makespan);
  }

  // Deadline-miss attribution: re-run the first missing class through a
  // traced session and attach its per-layer bottleneck table.
  if (spec_.trace_missed && have_miss) {
    SocConfig cfg = config_;
    cfg.faults.enabled = false;
    sim::Session traced = make_session(cfg, /*with_trace=*/true);
    sim::Report tr = traced.run(spec_.classes[miss_cls].model);
    st.miss_bottlenecks = std::move(tr.bottlenecks);
  }

  // ---- Report skeleton ------------------------------------------------------
  rep.config = config_.name;
  rep.model = spec_.label();
  rep.cores = ncores;
  rep.cycles = st.makespan;
  rep.seconds = static_cast<double>(rep.cycles) /
                (config_.accel.clock_ghz * 1e9);
  rep.fps = rep.seconds > 0
                ? static_cast<double>(st.good) / rep.seconds
                : 0.0;
  rep.estimates = sim::estimate(config_);
  if (faulty) {
    rep.reliability.enabled = true;
    rep.reliability.seed = config_.faults.seed;
  }
  return rep;
}

std::string request_trace_json(const sim::Report& rep, int indent) {
  trace::PerfettoOptions opts;
  opts.label = rep.config + "/" + rep.model;
  opts.indent = indent;
  opts.requests.reserve(rep.server.spans.size());
  for (const sim::RequestSpan& sp : rep.server.spans) {
    trace::RequestTrackSpan r;
    r.id = sp.id;
    r.cls = sp.cls < rep.server.per_class.size()
                ? rep.server.per_class[sp.cls].name
                : std::to_string(sp.cls);
    r.arrival = sp.arrival;
    r.dispatch = sp.dispatch;
    r.complete = sp.complete;
    r.core = sp.core;
    r.preemptions = sp.preemptions;
    r.shed = sp.shed;
    r.deadline_miss = sp.deadline_miss;
    opts.requests.push_back(std::move(r));
  }
  // Sampled serving timelines ride along as counter tracks so the request
  // spans can be read against queue depth and in-flight batch size.
  opts.counters = sim::counter_tracks(rep.metrics);
  return trace::to_perfetto_json({}, opts);
}

}  // namespace gemmini::serve
