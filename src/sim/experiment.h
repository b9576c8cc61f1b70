#pragma once
// sim::Sweep / sim::Experiment — the design-space-exploration driver.
//
// A Sweep is an ordered list of independent experiment points (one SocConfig
// + one typed Workload each). `run()` fans the points across a pool of worker
// threads; every worker elaborates its *own* Session (own Soc, own memory
// system, own address spaces), so points never share mutable simulator state
// and the result vector is deterministic: byte-identical reports whether the
// sweep runs on one thread or sixteen. That property is what lets
// design-space sweeps use all host cores without giving up the golden-cycle
// reproducibility the repo's perf harness enforces.
//
//   sim::Sweep sweep;
//   for (const auto& cfg : configs)
//     sweep.add(cfg.name, cfg, zoo::resnet50(96));
//   std::vector<sim::Report> reports = sweep.run({.threads = 8});
//
// Experiment is the grid builder on top: give it a base SocConfig plus the
// axes to vary (array geometry, scratchpad size, L2 size, core count, model
// list) and it emits the cartesian-product Sweep with stable point names.
//
//   auto reports = sim::Experiment(SocConfig::base_1mb_l2())
//                      .geometries({{16, 16, 1, 1}, {1, 16, 16, 1}})
//                      .scratchpad_sizes({256 << 10, 512 << 10})
//                      .models(zoo::all_paper_models_scaled())
//                      .run();

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/energy/energy.h"
#include "src/llm/decode.h"
#include "src/model/graph.h"
#include "src/model/lowering/policy.h"
#include "src/serve/server.h"
#include "src/sim/report.h"
#include "src/sim/session.h"
#include "src/soc/soc.h"
#include "src/trace/trace.h"

namespace gemmini::sim {

/// One graph-IR inference: Session::run, or Session::run_multicore (one
/// stream per core) when `multicore`.
struct Inference {
  Model model;
  bool multicore = false;
};
/// Autoregressive LLM decode (llm::run_decode): the KV-cache-resident
/// WorkStream instead of a graph-IR lowering.
struct Decode {
  llm::DecodeConfig config;
};
/// Serving scenario (serve::Server): open-loop traffic over `spec.classes`
/// plus the scheduler; the Report's `server` section carries the traffic
/// statistics. A serve point takes no trace or energy meter (see
/// ServeSpec::trace_missed for per-request bottlenecks).
struct Serve {
  serve::ServeSpec spec;
};
/// Fault campaign: a fault-free golden run of `model` supplies the report
/// (timing, observers, reference output), then `runs` reruns with fault
/// seeds base+0..base+runs-1 are classified against it (masked / corrected
/// / detected / sdc) in the `reliability` section. Requires `functional`
/// (output comparison) and `config.faults.enabled`.
struct Campaign {
  Model model;
  unsigned runs = 0;
};
/// What a sweep point runs. Each kind is its own type, so a point cannot
/// mix kinds (a multicore decode, a serving campaign): the variant rules
/// those out, not a runtime check.
using Workload = std::variant<Inference, Decode, Serve, Campaign>;

/// One independent experiment: a config, a workload, and how to run it.
/// `placement`/`tiling` select the lowering-pipeline policies for this
/// point (nullptr = the paper's default heuristics). Policy objects are
/// shared across worker threads, so they must be deterministic and
/// thread-safe under const access — every shipped policy is.
struct SweepPoint {
  std::string name;  ///< unique label, copied into Report::point
  SocConfig config;
  Workload workload;
  bool functional = false;
  std::uint64_t seed = 1;
  std::shared_ptr<const lowering::PlacementPolicy> placement{};
  std::shared_ptr<const lowering::TilingPolicy> tiling{};
  /// Cycle-level tracing for this point (disabled by default — tracing a
  /// whole grid would be enormous; see Experiment::trace_point). When
  /// enabled, the point's Report carries the bottleneck table and, if
  /// `trace.export_path` is set, the Perfetto trace.json is written there.
  /// A campaign traces its golden run.
  trace::TraceConfig trace{};
  /// Telemetry for this point: the metric registry (and, when
  /// `sample_interval_cycles > 0`, the cycle-windowed sampler) rides every
  /// run path — Session, serve::Server, llm decode — and lands in the
  /// point's Report::metrics. Observational only; cheap enough to leave on
  /// for a whole grid (merge with sim::merge_metrics afterwards).
  metrics::MetricsConfig metrics{};
  /// Energy metering for this point (src/energy/): when active, the
  /// Session run paths (inference, multicore, llm decode and a campaign's
  /// golden run) carry the command-level DRAM/SRAM/MAC energy meter and the
  /// point's Report::energy section is filled. Observational only — golden
  /// cycles are bit-identical with the meter attached. A serve point
  /// rejects an active meter (its report aggregates many runs; energy
  /// accounting there is out of scope).
  energy::EnergyConfig energy{};
};

struct SweepOptions {
  /// Worker threads; 0 = one per host hardware thread. Results do not
  /// depend on this value.
  unsigned threads = 0;
  /// Strict mode restores the historical contract: the first failing point
  /// (by point order, not thread timing) aborts the whole sweep with a
  /// RuntimeError. The default is fail-soft — a throwing point yields a
  /// Report with `status == "error"` while every other point completes.
  bool strict = false;
};

class Sweep {
 public:
  Sweep& add(SweepPoint point);
  /// Convenience: timing-mode single-core Inference point.
  Sweep& add(std::string name, SocConfig config, Model model);

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const std::vector<SweepPoint>& points() const { return points_; }

  /// Runs every point, fanned across the worker pool, and returns reports
  /// in point order. Fail-soft by default: a point whose config fails
  /// validation (or whose run throws) contributes a Report with
  /// `status == "error"` and the exception message in `error`, and the rest
  /// of the grid still completes — one poisoned point cannot lose the other
  /// N-1 results. `opts.strict` restores the abort-on-first-failure
  /// contract; in both modes the outcome is deterministic across thread
  /// counts (errors are attributed by point order, not thread timing).
  std::vector<Report> run(const SweepOptions& opts = {}) const;

  /// Runs one point exactly as the pool workers would (used by the
  /// determinism test and anyone wanting a single point re-run).
  static Report run_point(const SweepPoint& point);

 private:
  std::vector<SweepPoint> points_;
};

/// Configuration for Experiment::search() — a successive-halving driver
/// over the experiment's grid. Candidates are first raced on cheap
/// low-fidelity proxies (a prefix of each model's layer list), the worst
/// `1 - 1/eta` fraction is dropped each rung, and only the survivors pay
/// for a full-fidelity evaluation. The final rung always runs the complete
/// model, so the winner's Report is exact; with `power_budget_watts > 0`
/// candidates whose full-fidelity average power exceeds the budget are
/// ranked infeasible (after every feasible candidate) regardless of their
/// objective value.
struct SearchSpec {
  enum class Objective {
    kCycles,  ///< minimize end-to-end cycles
    kEnergy,  ///< minimize total energy (requires Experiment::energy())
    kEdp,     ///< minimize energy-delay product (requires energy())
  };
  Objective objective = Objective::kCycles;
  /// Power-feasibility constraint on the *full-fidelity* run; 0 disables.
  /// Requires Experiment::energy() so average power is meterable.
  double power_budget_watts = 0;
  /// Halving factor: each rung keeps ceil(n / eta) candidates. Must be >= 2.
  unsigned eta = 2;
  /// Stop halving once this few candidates survive; they go straight to
  /// the full-fidelity rung. Must be >= 1.
  unsigned min_rung_points = 2;
  /// Layer-prefix fraction of the first (cheapest) rung, in (0, 1]. Each
  /// rung multiplies it by eta until it reaches 1. A fraction f evaluates
  /// the first max(1, ceil(layers * f)) layers of every model.
  double min_fraction = 0.25;
  /// Worker threads for each rung's sweep (see SweepOptions::threads).
  /// Results are byte-identical at any thread count.
  unsigned threads = 0;
};

/// One candidate's final-rung outcome, in rank order (best first).
struct SearchCandidate {
  std::string point;         ///< sweep-point label
  std::size_t grid_index = 0;  ///< position in the exhaustive grid
  Cycle cycles = 0;
  double energy_j = 0;
  double avg_power_watts = 0;
  double edp_joule_seconds = 0;
  double objective = 0;    ///< the value ranked on
  bool feasible = true;    ///< met the power budget (always true when 0)
  std::string status;      ///< "ok" or "error"
  std::string error;
};

/// One successive-halving rung: which points ran at which fidelity.
struct SearchRung {
  double fraction = 0;  ///< layer-prefix fraction (1 = full fidelity)
  std::vector<std::string> points;
};

struct SearchResult {
  /// True when at least one finalist completed and met the power budget.
  bool found = false;
  /// Winner's label and full-fidelity report (valid when `found`).
  std::string best_point;
  Report best;
  /// Every final-rung candidate, ranked: feasible before infeasible,
  /// errors last, objective ascending within each class.
  std::vector<SearchCandidate> finalists;
  /// The halving schedule actually executed, first (cheapest) rung first.
  std::vector<SearchRung> rungs;
  /// Total points simulated across all rungs (the cost the halving paid;
  /// compare against grid size x rung count for the exhaustive cost).
  std::size_t evaluations = 0;
};

/// Cartesian-product grid builder over the template's main design axes.
/// Unset axes stay at the base config's value. Point names encode only the
/// axes that vary, so reports stay readable at any grid size.
class Experiment {
 public:
  explicit Experiment(SocConfig base = SocConfig{});

  Experiment& model(Model m);
  Experiment& models(std::vector<Model> ms);
  Experiment& geometries(std::vector<SpatialArrayGeometry> gs);
  /// Scratchpad capacities (accumulator capacity is left at base).
  Experiment& scratchpad_sizes(std::vector<std::uint64_t> bytes);
  Experiment& l2_sizes(std::vector<std::uint64_t> bytes);
  Experiment& core_counts(std::vector<unsigned> cores);
  /// DRAM controller axes: channel counts, request schedulers, and address
  /// interleaving policies (src/mem/dram.h). Like every other per-axis
  /// setter they expand the cartesian grid; point labels encode the value
  /// ("2ch", "frfcfs", "il-xor").
  Experiment& dram_channels(std::vector<unsigned> channels);
  Experiment& dram_schedulers(std::vector<DramScheduler> schedulers);
  Experiment& dram_interleaves(std::vector<DramInterleave> interleaves);
  /// Pre-built config variants (e.g. the Fig. 9 Base/BigSP/BigL2 trio);
  /// mutually exclusive with the per-axis setters above.
  Experiment& configs(std::vector<SocConfig> cfgs);
  /// Lowering-policy grid axes (compose with every other axis, including
  /// explicit configs). Point labels use each policy's name(). An empty
  /// vector (the default) leaves the pipeline on the paper's heuristics.
  Experiment& placement_policies(
      std::vector<std::shared_ptr<const lowering::PlacementPolicy>> ps);
  Experiment& tiling_policies(
      std::vector<std::shared_ptr<const lowering::TilingPolicy>> ts);

  /// Fault-model axis: one grid column per FaultConfig (composes with every
  /// other axis, including explicit configs). Point labels use each
  /// config's `name`, falling back to "f<i>". A disabled entry (e.g. a
  /// fault-free baseline column) is carried through as-is.
  Experiment& fault_configs(std::vector<fault::FaultConfig> fcs);
  /// Runs every fault-enabled point as an N-run seeded Campaign instead of
  /// an Inference. Implies nothing for fault-free points.
  /// Requires functional() and single-core points.
  Experiment& fault_campaign(unsigned runs);
  /// Serving scenario (src/serve/): every point runs serve::Server with
  /// this spec instead of a single inference. When `spec.classes` is
  /// empty, each point serves its own model as a single request class
  /// (deadline = spec.default_deadline_cycles). Composes with every config
  /// axis; mutually exclusive with fault_campaign() and multicore() (the
  /// server schedules requests across the cores itself).
  Experiment& serve(serve::ServeSpec spec);
  /// LLM decode workload (src/llm/): every point runs the autoregressive
  /// decode WorkStream built from this base config instead of a graph-IR
  /// inference; the proxy model supplies point labels. Composes with every
  /// config axis (DRAM channels/schedulers, geometry, ...); mutually
  /// exclusive with model()/models(), serve() and fault_campaign().
  Experiment& llm(llm::DecodeConfig base);
  /// LLM axes (require llm()): one grid column per value, overriding the
  /// base decode config. Labels come from DecodeConfig::label(), which
  /// encodes batch ("b4"), decode steps ("t8"), layout and int4.
  Experiment& llm_batches(std::vector<unsigned> batches);
  Experiment& llm_kv_layouts(std::vector<llm::KvLayout> layouts);
  Experiment& llm_decode_steps(std::vector<std::uint64_t> steps);
  Experiment& llm_int4(std::vector<bool> int4);
  /// Serving axis: one grid column per offered load (requests per
  /// megacycle), overriding the ServeSpec's arrival rate. Labels encode
  /// the value ("load2.5"). Requires serve().
  Experiment& offered_loads(std::vector<double> loads);
  /// Serving axis: one grid column per scheduler policy, overriding the
  /// ServeSpec's scheduler. Labels use ServeConfig::label() ("fifo",
  /// "edf", "batch4"). Requires serve().
  Experiment& serve_policies(std::vector<serve::ServeConfig> policies);
  /// Forwarded into SweepOptions::strict by run().
  Experiment& strict(bool on = true);

  Experiment& multicore(bool on = true);
  Experiment& functional(bool on = true);
  Experiment& seed(std::uint64_t s);

  /// Traces exactly one sweep point (cycle-level events + bottleneck table
  /// in its Report, trace.json at `cfg.export_path` if set). `point_name`
  /// must match the point's final label — the same string reports carry in
  /// Report::point; sweep() throws if no point matches.
  Experiment& trace_point(std::string point_name,
                          trace::TraceConfig cfg =
                              trace::TraceConfig::enabled_default());

  /// Telemetry for *every* sweep point (unlike trace_point, metrics are
  /// cheap enough to leave on grid-wide); see SweepPoint::metrics.
  Experiment& metrics(metrics::MetricsConfig cfg =
                          metrics::MetricsConfig::enabled_default());

  /// Energy metering for *every* sweep point; see SweepPoint::energy.
  /// Required by search() when the objective or the power budget needs
  /// energy numbers.
  Experiment& energy(energy::EnergyConfig cfg =
                         energy::EnergyConfig::enabled_default());

  /// Expands the grid into a Sweep (configs x models, in axis order).
  Sweep sweep() const;
  /// sweep().run(opts).
  std::vector<Report> run(const SweepOptions& opts = {}) const;

  /// Successive-halving design-space search over this experiment's grid
  /// (see SearchSpec). Works on plain inference grids only — serve(),
  /// fault_campaign() and llm() points have no layer-prefix proxy and are
  /// rejected. Deterministic: byte-identical SearchResult at any
  /// `spec.threads`, and the final rung's winner matches what an exhaustive
  /// full-fidelity sweep would pick under the same objective + budget.
  SearchResult search(const SearchSpec& spec = {}) const;

 private:
  SocConfig base_;
  std::vector<Model> models_;
  std::vector<SpatialArrayGeometry> geometries_;
  std::vector<std::uint64_t> sp_sizes_;
  std::vector<std::uint64_t> l2_sizes_;
  std::vector<unsigned> core_counts_;
  std::vector<unsigned> dram_channels_;
  std::vector<DramScheduler> dram_schedulers_;
  std::vector<DramInterleave> dram_interleaves_;
  std::vector<SocConfig> explicit_configs_;
  std::vector<std::shared_ptr<const lowering::PlacementPolicy>>
      placement_policies_;
  std::vector<std::shared_ptr<const lowering::TilingPolicy>> tiling_policies_;
  std::vector<fault::FaultConfig> fault_configs_;
  std::optional<serve::ServeSpec> serve_spec_;
  std::vector<double> offered_loads_;
  std::vector<serve::ServeConfig> serve_policies_;
  std::optional<llm::DecodeConfig> llm_base_;
  std::vector<unsigned> llm_batches_;
  std::vector<llm::KvLayout> llm_layouts_;
  std::vector<std::uint64_t> llm_steps_;
  std::vector<bool> llm_int4_;
  unsigned campaign_runs_ = 0;
  bool strict_ = false;
  bool multicore_ = false;
  bool functional_ = false;
  std::uint64_t seed_ = 1;
  std::string trace_point_name_;
  trace::TraceConfig trace_cfg_{};
  metrics::MetricsConfig metrics_cfg_{};
  energy::EnergyConfig energy_cfg_{};
};

}  // namespace gemmini::sim
