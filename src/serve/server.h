#pragma once
// serve::Server — closed simulation of an open-loop serving scenario.
//
// The Server turns the single-inference simulator into a traffic simulator:
// a seeded ArrivalProcess emits timestamped requests over a mix of request
// classes, a ServeScheduler packs them onto the SoC's cores, and the result
// is a sim::Report whose `server` section carries exact tail latencies,
// shed counts and per-class deadline misses.
//
// The per-request service times are *calibrated, not guessed*: for every
// request class the Server runs the real cycle-accurate Session once cold
// (full reset — exactly Session::run), once warm (timing reset only, cache
// and TLB contents kept — the tail of a batch), and, on multi-core configs,
// once with every core running concurrently (run_multicore — the fully
// contended bound). The discrete-event serving loop then composes those
// calibrated numbers:
//
//   * a dispatch of batch size B costs cold + (B-1)*warm, plus one warm
//     pass per generated token for decode-class requests (Request::tokens;
//     single-shot requests have tokens == 0 and the formula reduces to the
//     plain inference cost) — warmth exists only within a batch, because
//     every batch boundary is a context switch and the OS switch model
//     flushes accelerator translation state (src/cpu/cost_model.h);
//   * every dispatch on a core that ran something before charges the OS
//     model's switch_cost_cycles (the first dispatch on an idle SoC is
//     free, which is what makes a single request at offered load -> 0
//     reduce *exactly* to Session::run's cycle count);
//   * with k of N cores busy, service is scaled linearly between the solo
//     and fully-contended calibrations — shared L2/bus/DRAM contention
//     priced from measurement instead of a magic constant;
//   * EDF preemption re-queues the victim's remaining cycles; the resume
//     pays another context switch.
//
// The calibration probes — per class, cold then warm on one Session, plus
// the contended run on its own Session — share no state, so they run
// concurrently on the shared worker pool (sim::parallel_for). When the
// Server is itself a point on a Sweep worker, they run inline on that
// worker instead. Each probe writes only its own class's slot and an error
// surfaces in class order (cold before contended), so the result does not
// depend on how the probes were scheduled.
//
// Everything runs on the simulated clock with the seeded Rng, so a server
// run is byte-identical across repeats, across Sweep worker threads, and
// whether its calibration ran concurrently or inline.
//
// Fault integration: if the SocConfig has `faults.enabled`, every dispatch
// actually re-runs the class model through a fresh faulty Session (seed =
// faults.seed + request id, the campaign convention). A run that throws —
// DMA abort, watchdog — is a *detected error response*: the request
// completes with `errors += 1` instead of crashing the server, the
// fail-soft contract under traffic. Calibration always uses a fault-free
// clone of the config.

#include <cstdint>
#include <string>
#include <vector>

#include "src/serve/scheduler.h"
#include "src/serve/traffic.h"
#include "src/sim/report.h"
#include "src/sim/session.h"
#include "src/soc/soc.h"

namespace gemmini::serve {

/// Everything a serving scenario adds on top of a SocConfig. Carried by
/// value on sweep points (sim::Serve).
struct ServeSpec {
  /// Ignored: a sweep point serves when its workload is sim::Serve. Kept
  /// only until benchmark/workloads.cc stops setting it.
  bool enabled = false;
  ArrivalConfig arrivals{};
  /// Request classes; at least one.
  std::vector<RequestClass> classes;
  ServeConfig scheduler{};
  /// Re-run the first deadline-missing request's class through a traced
  /// session and attach the bottleneck attribution to the report
  /// (ServerStats::miss_bottlenecks).
  bool trace_missed = false;

  void validate() const;
  /// The serve Report's `model`: the class names joined with "+".
  std::string label() const;
};

/// A Server takes the ordinary session options. The compile-side knobs
/// (functional, seed, placement, tiling) reach every internal Session
/// (calibration, faulty per-request runs, miss attribution). `metrics`
/// meters the serving layer itself, not those probe Sessions: "serve.*"
/// counters plus the queue-depth and in-flight-batch gauges, sampled on the
/// event-loop clock when `sample_interval_cycles > 0`, land in
/// Report::metrics. Per-request spans (ServerStats::spans) are always
/// recorded. A Server has no single Session to trace or meter, so the
/// constructor refuses `trace.enabled` and an active `energy` with a
/// ConfigError (ServeSpec::trace_missed traces a missed request's class).
using ServerOptions = sim::SessionOptions;

class Server {
 public:
  Server(SocConfig config, ServeSpec spec, ServerOptions opts = {});

  /// Runs the serving scenario to completion (every admitted request
  /// finishes) and returns the report: `cycles` is the makespan, the
  /// `server` section the traffic statistics, `estimates` the usual
  /// synthesis substitutes. Deterministic for a given (config, spec).
  sim::Report run();

  const SocConfig& config() const { return config_; }
  const ServeSpec& spec() const { return spec_; }

 private:
  struct Calibration {
    Cycle cold = 0;       ///< Session::run cycles (full reset)
    Cycle warm = 0;       ///< re-run with timing reset only (caches kept)
    Cycle contended = 0;  ///< run_multicore finish (all cores busy)
  };

  sim::Session make_session(const SocConfig& cfg, bool with_trace) const;
  /// One Calibration per class, in class order (see the header comment).
  std::vector<Calibration> calibrate() const;
  /// Linear interpolation between solo and fully-contended service for
  /// `busy` busy cores (this dispatch included) out of N.
  double contention_factor(const Calibration& cal, unsigned busy) const;

  SocConfig config_;
  ServeSpec spec_;
  ServerOptions opts_;
};

/// Renders a serve report's per-request spans — and, when the report
/// carries sampled metric timelines, those as counter tracks — as a
/// Perfetto-loadable trace.json. Deterministic: equal reports serialize
/// byte-identically, so request tracks round-trip across sessions and
/// sweep worker threads.
std::string request_trace_json(const sim::Report& rep, int indent = 0);

}  // namespace gemmini::serve
