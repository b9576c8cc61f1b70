#pragma once
// sim::Session — the unified entry point of the simulation stack.
//
// A Session owns the whole config -> SoC -> address-space -> lowering -> run
// chain for one experiment. It replaces the hand-wired pattern every example
// used to repeat (build a SocConfig, construct a Soc, fetch an AddressSpace,
// call lower_model, run the WorkStream, stitch three result structs
// together) with a builder and two run calls:
//
//   auto session = sim::Session::builder()
//                      .soc(SocConfig::base_1mb_l2())
//                      .functional(true)   // real data, not just time
//                      .seed(7)
//                      .build();           // validates once, clear errors
//   sim::Report r = session.run(zoo::resnet50(64));
//
// The Session validates its configuration exactly once, at build() time, and
// reports problems as ConfigError with the offending config named. Runs are
// repeatable: timing and cache state are reset before each run.
//
// The compile side mirrors the run side: `plan()` pushes a model through
// the staged lowering pipeline (placement -> tiling -> allocation, see
// src/model/lowering/) under the session's pluggable policies and returns
// the `sim::Plan` compile record — inspect it, dump it as JSON, mutate it
// (set_tile), then `run(plan)`. The builder's `placement()`/`tiling()` swap
// the paper's heuristics for alternatives such as
// `lowering::ExhaustiveTiling`.
//
// Low-level work (hand-emitted programs, raw accelerator access) still goes
// through the same session — `address_space()` / `accelerator()` / `soc()`
// expose the owned instances — so one object is the root of every
// experiment, whichever layer of the stack it exercises.
//
// `sim::Sweep` (experiment.h) fans many Sessions across worker threads.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/energy/energy.h"
#include "src/metrics/metrics.h"
#include "src/model/graph.h"
#include "src/model/lowering/pipeline.h"
#include "src/model/runner.h"
#include "src/sim/plan.h"
#include "src/sim/report.h"
#include "src/soc/soc.h"
#include "src/trace/bottleneck.h"
#include "src/trace/perfetto.h"
#include "src/trace/trace.h"

namespace gemmini::sim {

/// Every session knob, declared once. The Builder, sweep points
/// (SweepPoint::options), Experiment and serve::Server all carry this one
/// value. The lowering base holds the compile-side knobs (functional,
/// seed, placement, tiling); sweeps share its policy objects across worker
/// threads, so policies must be deterministic and thread-safe under const
/// access (every shipped policy is). The observers below are observational
/// only: cycle counts are bit-identical with each on or off.
struct SessionOptions : lowering::PipelineOptions {
  /// Cycle-level trace recorder (src/trace/): every timed component records
  /// structured events into a preallocated ring. Inspect through
  /// trace_buffer()/trace_json()/bottlenecks() or the Report's bottleneck
  /// table.
  trace::TraceConfig trace{};
  /// Metrics registry (src/metrics/): counters, gauges and histograms from
  /// every timed component, plus cycle-windowed timelines when
  /// `sample_interval_cycles > 0`. Lands in Report::metrics, the
  /// openmetrics() text endpoint and Perfetto counter tracks.
  metrics::MetricsConfig metrics{};
  /// Command-level energy meter (src/energy/): DRAM ACT/PRE/RD/WR/REF + IO
  /// prices on the controller's issue path, exec MAC / DMA byte / SRAM row
  /// prices on the accelerator, static power from the estimate-layer power
  /// model (or an explicit override), folded into Report::energy. An
  /// all-zero price table gives a Report byte-identical to one without
  /// energy. The meter prices the components' own counts, so it needs no
  /// metrics registry; with `metrics` the "energy.*" counters (and the
  /// power-over-time timeline) are published there too.
  energy::EnergyConfig energy{};
};

/// Area / fmax / power / timing-closure estimates for one SoC config — a
/// pure function of the config (no SoC is elaborated).
Estimates estimate(const SocConfig& cfg);

class Session {
 public:
  /// Fluent configuration for a Session. All setters return *this; build()
  /// validates the assembled SocConfig once and constructs the SoC.
  class Builder {
   public:
    /// Replaces the whole SoC config (accel + cpu + mem + os + cores).
    Builder& soc(SocConfig cfg) {
      cfg_ = std::move(cfg);
      return *this;
    }
    /// Replaces every session option at once. The setters below each write
    /// one SessionOptions field (documented there).
    Builder& options(SessionOptions opts) {
      opts_ = std::move(opts);
      return *this;
    }
    Builder& functional(bool on = true) {
      opts_.functional = on;
      return *this;
    }
    Builder& seed(std::uint64_t s) {
      opts_.seed = s;
      return *this;
    }
    Builder& placement(std::shared_ptr<const lowering::PlacementPolicy> p) {
      opts_.placement = std::move(p);
      return *this;
    }
    Builder& tiling(std::shared_ptr<const lowering::TilingPolicy> t) {
      opts_.tiling = std::move(t);
      return *this;
    }
    Builder& trace(trace::TraceConfig cfg) {
      opts_.trace = std::move(cfg);
      return *this;
    }
    Builder& metrics(metrics::MetricsConfig cfg) {
      opts_.metrics = std::move(cfg);
      return *this;
    }
    Builder& energy(energy::EnergyConfig cfg) {
      opts_.energy = std::move(cfg);
      return *this;
    }

    const SocConfig& config() const { return cfg_; }

    /// Validates the configuration (accelerator template, CPU cost model,
    /// memory system, OS noise model) and elaborates the SoC. Throws
    /// ConfigError naming the session on any invalid field.
    Session build() const;

   private:
    SocConfig cfg_{};
    SessionOptions opts_{};
  };

  static Builder builder() { return Builder{}; }
  static Builder builder(SocConfig cfg) { return Builder{}.soc(std::move(cfg)); }

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  // ---- Compilation ---------------------------------------------------------
  /// Compiles `model` for core `core` through the staged lowering pipeline
  /// (placement -> tiling -> allocation) under the session's policies,
  /// returning the sim::Plan compile record. Allocation happens immediately
  /// in that core's address space (and, in functional mode, weights/input
  /// are materialized), so a plan is built once and can then be inspected,
  /// dumped as JSON, mutated, and run any number of times. Throws
  /// RuntimeError if `core` is out of range; plans for cores other than 0
  /// are inspection records (run(Plan) executes core-0 plans only).
  Plan plan(const Model& model, unsigned core = 0);

  // ---- Push-button runs ----------------------------------------------------
  /// Compiles (with the session's policies) and runs `model` on core 0.
  /// Repeatable; all timing state is reset first.
  Report run(const Model& model);

  /// Emits and runs a previously built (possibly mutated) plan on core 0.
  /// Tile overrides are validated against the budget at emission. The plan
  /// must have been built by this session (its buffers live in this
  /// session's address space).
  Report run(const Plan& plan);

  /// Compiles one copy of `model` per core and runs them concurrently
  /// against the shared L2/bus/DRAM. The report's `cycles` is the SoC-level
  /// finish (slowest core); per-core detail is in `per_core`.
  Report run_multicore(const Model& model);

  /// Runs a caller-assembled WorkStream on core 0 and wraps the result in a
  /// full Report (per-core counters, substrate, estimates). Timing and cache
  /// state are reset first, but address-space allocations and functional
  /// memory contents are kept — workload generators (src/llm/) allocate and
  /// materialize buffers against address_space(0), then hand the stream
  /// here. `model_name` labels the report; `cpu_baseline` (0 = unknown)
  /// feeds the speedup headline.
  Report run_stream(const WorkStream& stream, const std::string& model_name,
                    Cycle cpu_baseline = 0);

  // ---- Introspection -------------------------------------------------------
  /// The SoC's validated config is the single source of truth.
  const SocConfig& config() const { return soc_->config(); }
  bool functional() const { return opts_.functional; }
  std::uint64_t seed() const { return opts_.seed; }

  /// Layout of the most recent run()'s core-0 lowering: buffer VAs for
  /// reading inputs/outputs back out of simulated memory in functional mode.
  /// Empty after run_stream().
  const LoweredModel& last_lowered() const { return last_lowered_; }

  /// The plan behind the most recent run() or run_multicore() (core 0).
  /// GEMMINI_CHECKs that the last run executed a plan: plan() alone does not
  /// set it, and run_stream() clears it.
  const Plan& last_plan() const {
    GEMMINI_CHECK_MSG(last_plan_.has_value(),
                      "last_plan(): the last run executed no plan");
    return *last_plan_;
  }

  /// Estimates for this instantiation (also embedded in every Report).
  Estimates estimates() const;
  /// The generated gemmini_params.h contents.
  std::string params_header() const;

  // ---- Tracing -------------------------------------------------------------
  /// True iff the session was built with `.trace(...)` and an enabled
  /// config. The buffer holds the most recent run (run() clears it first).
  bool tracing() const { return tracer_ != nullptr; }
  /// The recorder and its event ring. GEMMINI_CHECKs that tracing is on.
  const trace::Tracer& trace_buffer() const;
  /// The most recent run as a Perfetto-loadable trace.json (deterministic:
  /// equal runs serialize byte-identically).
  std::string trace_json(int indent = 0) const;
  /// Writes trace_json to `path`; returns false on I/O failure.
  bool write_trace(const std::string& path, int indent = 0) const;
  /// Per-layer bottleneck attribution of the most recent traced *run*, for
  /// one core (multicore runs record every core's events; attribute each
  /// core separately — note run_multicore compiles one identical plan per
  /// core, so the core-0 plan describes every core's layers). Always uses
  /// last_plan(): a later plan() call (which compiles without running)
  /// cannot mis-attribute the recorded events, and a run_stream() has no
  /// plan to attribute to.
  trace::BottleneckReport bottlenecks(unsigned core = 0) const;

  // ---- Metrics -------------------------------------------------------------
  /// True iff the session was built with `.metrics(...)` and an enabled
  /// config. The registry holds the most recent run (runs reset it first).
  bool metering() const { return metrics_ != nullptr; }
  /// The live metrics collector. GEMMINI_CHECKs that metering is on.
  metrics::Metrics& metrics() const;
  /// The most recent run's registry rendered as OpenMetrics/Prometheus
  /// exposition text (deterministic). GEMMINI_CHECKs that metering is on.
  std::string openmetrics() const;
  /// Writes openmetrics() to `path`; returns false on I/O failure.
  bool write_openmetrics(const std::string& path) const;

  // ---- Energy --------------------------------------------------------------
  /// True iff the session was built with `.energy(...)` and an active
  /// config (enabled + at least one non-zero price).
  bool energy_metering() const { return meter_ != nullptr; }
  /// The attached meter; nullptr when energy is off.
  const energy::EnergyMeter* energy_meter() const { return meter_.get(); }

  // ---- Low-level access (the session still owns everything) ---------------
  Soc& soc() { return *soc_; }
  const Soc& soc() const { return *soc_; }
  AddressSpace& address_space(unsigned core = 0) {
    return soc_->address_space(core);
  }
  Accelerator& accelerator(unsigned core = 0) {
    return soc_->accelerator(core);
  }

 private:
  Session(const SocConfig& cfg, SessionOptions opts);

  Report make_report(const Model& model,
                     const std::vector<CoreResult>& results);
  Report make_report(const std::string& model_name, Cycle cpu_baseline,
                     const std::vector<CoreResult>& results);
  /// Derives the energy section bit-exactly from the SoC's priced counts
  /// (plus the static rate x `cycles`) and, when sampling, the "energy.*"
  /// timelines; meter_ must be non-null.
  EnergyReport derive_energy(Cycle cycles) const;
  /// Every run starts here: cold SoC timing and cache state, empty trace.
  void begin_run();
  trace::PerfettoOptions perfetto_options(int indent) const;

  SessionOptions opts_;
  // Heap-allocated so the Tracer pointer held by the SoC's components stays
  // stable across Session moves.
  std::unique_ptr<trace::Tracer> tracer_;
  // Heap-allocated for the same reason as the Tracer: the SoC holds
  // pointers to both, which must survive Session moves.
  std::unique_ptr<metrics::Metrics> metrics_;
  std::unique_ptr<energy::EnergyMeter> meter_;
  /// SoC finish of the most recent run (drives the Perfetto power track's
  /// final partial window).
  Cycle last_finish_ = 0;
  std::unique_ptr<Soc> soc_;
  /// The lowering and plan behind the most recent run (and so behind the
  /// events in the trace ring). Empty after run_stream(), whose stream is
  /// the caller's.
  LoweredModel last_lowered_;
  std::optional<Plan> last_plan_;
};

}  // namespace gemmini::sim
