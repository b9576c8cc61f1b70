#include "src/sim/experiment.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <tuple>
#include <type_traits>

#include "src/sim/parallel.h"

namespace gemmini::sim {

Sweep& Sweep::add(SweepPoint point) {
  points_.push_back(std::move(point));
  return *this;
}

Sweep& Sweep::add(std::string name, SocConfig config, Model model) {
  return add(SweepPoint{std::move(name), std::move(config),
                        Inference{std::move(model)}});
}

namespace {

Session build_session(const SweepPoint& point, const SocConfig& cfg,
                      bool with_trace) {
  return Session::builder(cfg)
      .functional(point.functional)
      .seed(point.seed)
      .placement(point.placement)
      .tiling(point.tiling)
      .trace(with_trace ? point.trace : trace::TraceConfig{})
      .metrics(point.metrics)
      .energy(point.energy)
      .build();
}

/// Runs `run` on the point's traced Session over `cfg` and writes the
/// Perfetto trace to `trace.export_path` when the point is traced.
template <typename Run>
Report run_session(const SweepPoint& point, const SocConfig& cfg, Run&& run) {
  Session session = build_session(point, cfg, /*with_trace=*/true);
  Report rep = run(session);
  if (session.tracing() && !point.trace.export_path.empty() &&
      !session.write_trace(point.trace.export_path)) {
    throw RuntimeError("sweep point '" + point.name +
                       "': could not write trace to " +
                       point.trace.export_path);
  }
  return rep;
}

/// The last run's final-layer output bytes.
std::vector<std::uint8_t> read_output(Session& session) {
  const LoweredModel& lowered = session.last_lowered();
  std::vector<std::uint8_t> out(lowered.layer_bytes.back());
  session.address_space().read_virt(lowered.layer_output.back(), out.data(),
                                    out.size());
  return out;
}

/// Fault campaign for one sweep point: a fault-free golden run supplies the
/// report (timing, observers, reference output), then `c.runs` fresh
/// sessions rerun the same workload with fault seeds base+i and each run is
/// classified against the golden output:
///
///   threw                      -> "detected"  (watchdog, DMA abort, ...)
///   mismatch, ECC flagged any  -> "detected"
///   mismatch, nothing flagged  -> "sdc"       (silent data corruption)
///   match, ECC corrected any   -> "corrected"
///   match otherwise            -> "masked"
Report run_campaign(const SweepPoint& point, const Campaign& c) {
  GEMMINI_CONFIG_REQUIRE(point.config.faults.enabled,
                         "sweep point '" + point.name +
                             "': a campaign needs config.faults.enabled");
  GEMMINI_CONFIG_REQUIRE(point.functional,
                         "sweep point '" + point.name +
                             "': fault campaigns compare outputs, so the "
                             "point must be functional");

  SocConfig golden_cfg = point.config;
  golden_cfg.faults.enabled = false;
  std::vector<std::uint8_t> golden_out;
  Report rep = run_session(point, golden_cfg, [&](Session& golden) {
    Report r = golden.run(c.model);
    golden_out = read_output(golden);
    return r;
  });

  ReliabilityReport& rel = rep.reliability;
  rel.enabled = true;
  rel.seed = point.config.faults.seed;
  rel.campaign_runs = c.runs;
  rel.golden_cycles = rep.cycles;

  auto classify = [&rel](unsigned& count, const char* outcome) {
    ++count;
    rel.run_outcomes.push_back(outcome);
  };
  unsigned faulty_runs = 0;
  for (unsigned i = 0; i < c.runs; ++i) {
    SocConfig cfg = point.config;
    cfg.faults.seed = point.config.faults.seed + i;
    Session session = build_session(point, cfg, /*with_trace=*/false);
    bool threw = false;
    try {
      session.run(c.model);
    } catch (const std::exception&) {
      threw = true;
    }
    const fault::FaultStats stats = session.soc().fault_injector()->stats();
    rel.injection += stats;
    if (stats.total_injected() > 0) ++faulty_runs;

    const bool mismatch = threw || read_output(session) != golden_out;
    if (threw || (mismatch && stats.ecc_detected_uncorrectable > 0)) {
      classify(rel.detected, "detected");
    } else if (mismatch) {
      classify(rel.sdc, "sdc");
    } else if (stats.ecc_corrected > 0) {
      classify(rel.corrected, "corrected");
    } else {
      classify(rel.masked, "masked");
    }
  }

  if (c.runs > 0) {
    rel.sdc_rate = static_cast<double>(rel.sdc) / static_cast<double>(c.runs);
  }
  if (faulty_runs > 0) {
    rel.detection_rate =
        static_cast<double>(rel.corrected + rel.detected) /
        static_cast<double>(faulty_runs);
  }
  return rep;
}

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

/// The fail-soft stand-in for a point whose run threw: the labels (`model`
/// as a successful run would report it) and the exception message survive
/// in the point's report slot, the rest stays default-initialized.
Report error_report(const SweepPoint& point, std::string message) {
  Report rep;
  rep.point = point.name;
  rep.status = "error";
  rep.error = std::move(message);
  rep.config = point.config.name;
  rep.model = std::visit(
      Overloaded{[](const Decode& w) { return w.config.label(); },
                 [](const Serve& w) { return w.spec.label(); },
                 [](const auto& w) { return w.model.name(); }},
      point.workload);
  return rep;
}

}  // namespace

Report Sweep::run_point(const SweepPoint& point) {
  Report rep = std::visit(
      Overloaded{
          [&](const Inference& w) {
            return run_session(point, point.config, [&](Session& s) {
              return w.multicore ? s.run_multicore(w.model) : s.run(w.model);
            });
          },
          [&](const Decode& w) {
            return run_session(point, point.config, [&](Session& s) {
              return llm::run_decode(s, w.config);
            });
          },
          [&](const Serve& w) {
            // A Server has no single Session to trace or meter: refuse
            // those settings rather than drop them.
            GEMMINI_CONFIG_REQUIRE(
                !point.trace.enabled && !point.energy.active(),
                "sweep point '" + point.name +
                    "': serve points take no trace or energy meter; use "
                    "ServeSpec::trace_missed for per-request bottlenecks");
            return serve::Server(point.config, w.spec,
                                 {point.functional, point.seed,
                                  point.placement, point.tiling,
                                  point.metrics})
                .run();
          },
          [&](const Campaign& w) { return run_campaign(point, w); },
      },
      point.workload);
  rep.point = point.name;
  return rep;
}

std::vector<Report> Sweep::run(const SweepOptions& opts) const {
  // Which worker runs which point is scheduling-dependent; the *result* is
  // not, because every point elaborates its own SoC and writes only its own
  // slot (see parallel_for's contract).
  //
  // Fail-soft (the default): a throwing point becomes an error report in
  // its own slot and the pool keeps claiming — one poisoned config cannot
  // lose the other N-1 results, and the report vector is byte-identical at
  // any thread count because the error text depends only on the point.
  //
  // Strict: the point's failure propagates, so the pool stops claiming new
  // points and rethrows the lowest-indexed failure — a failed sweep aborts
  // promptly, and its error is named by point order, not thread timing.
  std::vector<Report> reports(points_.size());
  parallel_for(points_.size(), opts.threads, [&](std::size_t i) {
    std::string error;
    try {
      reports[i] = run_point(points_[i]);
      return;
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown error";
    }
    if (opts.strict) {
      throw RuntimeError("sweep point " + std::to_string(i) + " '" +
                         points_[i].name + "' failed: " + error);
    }
    reports[i] = error_report(points_[i], std::move(error));
  });
  return reports;
}

// ---- Experiment -------------------------------------------------------------

namespace {

std::string human_bytes(const char* prefix, std::uint64_t bytes) {
  std::ostringstream oss;
  oss << prefix;
  if (bytes >= (1ull << 20) && bytes % (1ull << 20) == 0) {
    oss << (bytes >> 20) << "M";
  } else if (bytes >= 1024 && bytes % 1024 == 0) {
    oss << (bytes >> 10) << "K";
  } else {
    oss << bytes << "B";
  }
  return oss.str();
}

/// An axis's values, or just `base` when the axis is unset.
template <typename T>
std::vector<T> axis_or(const std::vector<T>& axis,
                       std::type_identity_t<T> base) {
  return axis.empty() ? std::vector<T>{std::move(base)} : axis;
}

/// Appends `part` to a point label, "-"-separated; an empty part adds
/// nothing.
void append_label(std::string& label, const std::string& part) {
  if (part.empty()) return;
  if (!label.empty()) label += "-";
  label += part;
}

}  // namespace

Experiment::Experiment(SocConfig base) : base_(std::move(base)) {}

Experiment& Experiment::model(Model m) {
  models_.push_back(std::move(m));
  return *this;
}
Experiment& Experiment::models(std::vector<Model> ms) {
  for (Model& m : ms) models_.push_back(std::move(m));
  return *this;
}
Experiment& Experiment::geometries(std::vector<SpatialArrayGeometry> gs) {
  geometries_ = std::move(gs);
  return *this;
}
Experiment& Experiment::scratchpad_sizes(std::vector<std::uint64_t> bytes) {
  sp_sizes_ = std::move(bytes);
  return *this;
}
Experiment& Experiment::l2_sizes(std::vector<std::uint64_t> bytes) {
  l2_sizes_ = std::move(bytes);
  return *this;
}
Experiment& Experiment::core_counts(std::vector<unsigned> cores) {
  core_counts_ = std::move(cores);
  return *this;
}
Experiment& Experiment::dram_channels(std::vector<unsigned> channels) {
  dram_channels_ = std::move(channels);
  return *this;
}
Experiment& Experiment::dram_schedulers(std::vector<DramScheduler> schedulers) {
  dram_schedulers_ = std::move(schedulers);
  return *this;
}
Experiment& Experiment::dram_interleaves(
    std::vector<DramInterleave> interleaves) {
  dram_interleaves_ = std::move(interleaves);
  return *this;
}
Experiment& Experiment::configs(std::vector<SocConfig> cfgs) {
  explicit_configs_ = std::move(cfgs);
  return *this;
}
Experiment& Experiment::placement_policies(
    std::vector<std::shared_ptr<const lowering::PlacementPolicy>> ps) {
  placement_policies_ = std::move(ps);
  return *this;
}
Experiment& Experiment::tiling_policies(
    std::vector<std::shared_ptr<const lowering::TilingPolicy>> ts) {
  tiling_policies_ = std::move(ts);
  return *this;
}
Experiment& Experiment::fault_configs(std::vector<fault::FaultConfig> fcs) {
  fault_configs_ = std::move(fcs);
  return *this;
}
Experiment& Experiment::fault_campaign(unsigned runs) {
  campaign_runs_ = runs;
  return *this;
}
Experiment& Experiment::serve(serve::ServeSpec spec) {
  serve_spec_ = std::move(spec);
  return *this;
}
Experiment& Experiment::llm(llm::DecodeConfig base) {
  llm_base_ = std::move(base);
  return *this;
}
Experiment& Experiment::llm_batches(std::vector<unsigned> batches) {
  llm_batches_ = std::move(batches);
  return *this;
}
Experiment& Experiment::llm_kv_layouts(std::vector<llm::KvLayout> layouts) {
  llm_layouts_ = std::move(layouts);
  return *this;
}
Experiment& Experiment::llm_decode_steps(std::vector<std::uint64_t> steps) {
  llm_steps_ = std::move(steps);
  return *this;
}
Experiment& Experiment::llm_int4(std::vector<bool> int4) {
  llm_int4_ = std::move(int4);
  return *this;
}
Experiment& Experiment::offered_loads(std::vector<double> loads) {
  offered_loads_ = std::move(loads);
  return *this;
}
Experiment& Experiment::serve_policies(std::vector<serve::ServeConfig> policies) {
  serve_policies_ = std::move(policies);
  return *this;
}
Experiment& Experiment::strict(bool on) {
  strict_ = on;
  return *this;
}
Experiment& Experiment::multicore(bool on) {
  multicore_ = on;
  return *this;
}
Experiment& Experiment::functional(bool on) {
  functional_ = on;
  return *this;
}
Experiment& Experiment::seed(std::uint64_t s) {
  seed_ = s;
  return *this;
}
Experiment& Experiment::trace_point(std::string point_name,
                                    trace::TraceConfig cfg) {
  trace_point_name_ = std::move(point_name);
  trace_cfg_ = std::move(cfg);
  trace_cfg_.enabled = true;
  return *this;
}
Experiment& Experiment::metrics(metrics::MetricsConfig cfg) {
  metrics_cfg_ = std::move(cfg);
  metrics_cfg_.enabled = true;
  return *this;
}
Experiment& Experiment::energy(energy::EnergyConfig cfg) {
  energy_cfg_ = std::move(cfg);
  energy_cfg_.enabled = true;
  return *this;
}

Sweep Experiment::sweep() const {
  GEMMINI_CONFIG_REQUIRE(!models_.empty() || llm_base_.has_value(),
                         "sim::Experiment: add at least one model (or llm())");
  GEMMINI_CONFIG_REQUIRE(models_.empty() || !llm_base_.has_value(),
                         "sim::Experiment: llm() replaces the model list; do "
                         "not combine it with model()/models()");
  GEMMINI_CONFIG_REQUIRE(
      llm_base_.has_value() || (llm_batches_.empty() && llm_layouts_.empty() &&
                                llm_steps_.empty() && llm_int4_.empty()),
      "sim::Experiment: llm_batches()/llm_kv_layouts()/llm_decode_steps()/"
      "llm_int4() need llm()");
  GEMMINI_CONFIG_REQUIRE(
      !multicore_ || (!llm_base_ && !serve_spec_ && campaign_runs_ == 0),
      "sim::Experiment: multicore() applies to inference points only (llm() "
      "decodes on one core, serve() schedules requests across the cores "
      "itself, and fault campaigns are single-core)");
  GEMMINI_CONFIG_REQUIRE(!llm_base_ || (!serve_spec_ && campaign_runs_ == 0),
                         "sim::Experiment: llm() excludes serve() and "
                         "fault_campaign()");
  GEMMINI_CONFIG_REQUIRE(
      explicit_configs_.empty() ||
          (geometries_.empty() && sp_sizes_.empty() && l2_sizes_.empty() &&
           core_counts_.empty() && dram_channels_.empty() &&
           dram_schedulers_.empty() && dram_interleaves_.empty()),
      "sim::Experiment: configs() cannot be combined with per-axis setters");
  GEMMINI_CONFIG_REQUIRE(campaign_runs_ == 0 || functional_,
                         "sim::Experiment: fault_campaign() compares outputs, "
                         "so it needs functional()");
  GEMMINI_CONFIG_REQUIRE(campaign_runs_ == 0 || !serve_spec_,
                         "sim::Experiment: fault_campaign() and serve() are "
                         "mutually exclusive (serving runs classify faulty "
                         "requests as error responses instead)");
  GEMMINI_CONFIG_REQUIRE(
      serve_spec_ || (offered_loads_.empty() && serve_policies_.empty()),
      "sim::Experiment: offered_loads()/serve_policies() need serve()");
  for (const double l : offered_loads_) {
    GEMMINI_CONFIG_REQUIRE(l > 0, "sim::Experiment: offered_loads entries "
                                  "must be > 0 requests/Mcycle (got "
                                      << l << ")");
  }

  // Expand the config grid one axis at a time, tagging each variant with
  // the axes that produced it.
  struct Variant {
    SocConfig cfg;
    std::string label;
  };
  std::vector<Variant> variants;
  auto expand = [&variants](auto&& apply, std::size_t count) {
    if (count == 0) return;
    std::vector<Variant> next;
    next.reserve(variants.size() * count);
    for (const Variant& v : variants) {
      for (std::size_t i = 0; i < count; ++i) {
        Variant nv = v;
        append_label(nv.label, apply(nv.cfg, i));
        next.push_back(std::move(nv));
      }
    }
    variants = std::move(next);
  };
  if (!explicit_configs_.empty()) {
    for (const SocConfig& cfg : explicit_configs_) {
      variants.push_back({cfg, cfg.name});
    }
  } else {
    variants.push_back({base_, ""});
    expand(
        [this](SocConfig& cfg, std::size_t i) {
          const SpatialArrayGeometry& g = geometries_[i];
          cfg.accel.array = g;
          std::ostringstream oss;
          oss << "g" << g.mesh_rows << "x" << g.mesh_cols << "x" << g.tile_rows
              << "x" << g.tile_cols;
          return oss.str();
        },
        geometries_.size());
    expand(
        [this](SocConfig& cfg, std::size_t i) {
          cfg.accel.sp_capacity_bytes = sp_sizes_[i];
          return human_bytes("sp", sp_sizes_[i]);
        },
        sp_sizes_.size());
    expand(
        [this](SocConfig& cfg, std::size_t i) {
          cfg.mem.l2.size_bytes = l2_sizes_[i];
          return human_bytes("l2", l2_sizes_[i]);
        },
        l2_sizes_.size());
    expand(
        [this](SocConfig& cfg, std::size_t i) {
          cfg.cores = core_counts_[i];
          return "c" + std::to_string(core_counts_[i]);
        },
        core_counts_.size());
    expand(
        [this](SocConfig& cfg, std::size_t i) {
          cfg.mem.dram.channels = dram_channels_[i];
          return std::to_string(dram_channels_[i]) + "ch";
        },
        dram_channels_.size());
    expand(
        [this](SocConfig& cfg, std::size_t i) {
          cfg.mem.dram.scheduler = dram_schedulers_[i];
          return std::string(dram_scheduler_name(dram_schedulers_[i]));
        },
        dram_schedulers_.size());
    expand(
        [this](SocConfig& cfg, std::size_t i) {
          cfg.mem.dram.interleave = dram_interleaves_[i];
          return std::string("il-") +
                 dram_interleave_name(dram_interleaves_[i]);
        },
        dram_interleaves_.size());
  }
  // The fault-model axis composes with every config axis, including
  // explicit configs: each FaultConfig replaces the variant's `faults`
  // wholesale, so a disabled entry doubles as a fault-free baseline column.
  expand(
      [this](SocConfig& cfg, std::size_t i) {
        cfg.faults = fault_configs_[i];
        return cfg.faults.name.empty() ? "f" + std::to_string(i)
                                       : cfg.faults.name;
      },
      fault_configs_.size());

  // Workload columns: the llm decode grid (batch x layout x steps x int4
  // around the llm() base config), or the serving grid (offered load x
  // scheduler policy x model), or the model list; an unset axis keeps the
  // base value. A column's `axes` extend the point's config label; its
  // `name` (the model's, or the decode config's label) follows the "/".
  struct Column {
    std::string axes;
    std::string name;
    Workload workload;
  };
  std::vector<Column> columns;
  if (llm_base_.has_value()) {
    for (const unsigned b : axis_or(llm_batches_, llm_base_->batch)) {
      for (const llm::KvLayout layout :
           axis_or(llm_layouts_, llm_base_->kv_layout)) {
        for (const std::uint64_t t :
             axis_or(llm_steps_, llm_base_->decode_steps)) {
          for (const bool i4 : axis_or(llm_int4_, llm_base_->int4_weights)) {
            llm::DecodeConfig c = *llm_base_;
            c.batch = b;
            c.kv_layout = layout;
            c.decode_steps = t;
            c.int4_weights = i4;
            c.validate();
            columns.push_back({"", c.label(), Decode{std::move(c)}});
          }
        }
      }
    }
  } else if (serve_spec_) {
    std::vector<std::pair<double, std::string>> loads;  // 0 = keep spec rate
    for (const double l : offered_loads_) {
      std::ostringstream oss;
      oss << "load" << l;
      loads.push_back({l, oss.str()});
    }
    if (loads.empty()) loads.push_back({0.0, ""});
    std::vector<std::pair<serve::ServeConfig, std::string>> pols;
    for (const serve::ServeConfig& sc : serve_policies_) {
      pols.push_back({sc, sc.label()});
    }
    if (pols.empty()) pols.push_back({serve_spec_->scheduler, ""});
    for (const auto& [load, load_label] : loads) {
      for (const auto& [sc, sc_label] : pols) {
        std::string axes = load_label;
        append_label(axes, sc_label);
        for (const Model& m : models_) {
          serve::ServeSpec sp = *serve_spec_;
          if (load > 0) sp.arrivals.requests_per_mcycle = load;
          sp.scheduler = sc;
          if (sp.classes.empty()) {
            sp.classes.push_back(serve::RequestClass{
                m.name(), m, 1.0, sp.default_deadline_cycles});
          }
          columns.push_back({axes, m.name(), Serve{std::move(sp)}});
        }
      }
    }
  } else {
    for (const Model& m : models_) {
      columns.push_back({"", m.name(), Inference{m, multicore_}});
    }
  }

  // The lowering-policy axes compose with every config axis (they are
  // orthogonal to the SocConfig, so they combine with explicit configs
  // too). An unset axis contributes one "default" column with no label.
  Sweep sw;
  for (const Variant& v : variants) {
    for (const auto& pp : axis_or(placement_policies_, nullptr)) {
      for (const auto& tp : axis_or(tiling_policies_, nullptr)) {
        for (const Column& col : columns) {
          std::string label = v.label;
          append_label(label, pp ? pp->name() : "");
          append_label(label, tp ? tp->name() : "");
          append_label(label, col.axes);
          SweepPoint p{label.empty() ? col.name : label + "/" + col.name,
                       v.cfg,
                       col.workload,
                       functional_,
                       seed_,
                       pp,
                       tp};
          // Campaigns only make sense for fault-enabled points; a baseline
          // column in the faults axis runs once, normally.
          if (campaign_runs_ > 0 && v.cfg.faults.enabled) {
            p.workload = Campaign{std::get<Inference>(col.workload).model,
                                  campaign_runs_};
          }
          p.metrics = metrics_cfg_;
          p.energy = energy_cfg_;
          if (!trace_point_name_.empty() && p.name == trace_point_name_) {
            p.trace = trace_cfg_;
          }
          sw.add(std::move(p));
        }
      }
    }
  }
  if (!trace_point_name_.empty()) {
    bool found = false;
    for (const SweepPoint& p : sw.points()) found |= p.trace.enabled;
    GEMMINI_CONFIG_REQUIRE(found, "sim::Experiment: trace_point '" +
                                      trace_point_name_ +
                                      "' matches no sweep point");
  }
  return sw;
}

std::vector<Report> Experiment::run(const SweepOptions& opts) const {
  SweepOptions o = opts;
  o.strict = o.strict || strict_;
  return sweep().run(o);
}

// ---- Successive-halving search ---------------------------------------------

namespace {

/// Layer-prefix proxy at fraction `f`: the first max(1, ceil(L * f))
/// layers. Valid for any prefix length because layer inputs only ever
/// reference earlier layers (the graph IR is producer-before-consumer).
Model prefix_model(const Model& m, double fraction) {
  const std::vector<LayerSpec>& ls = m.layers();
  const std::size_t total = ls.size();
  std::size_t k = static_cast<std::size_t>(
      std::ceil(static_cast<double>(total) * fraction));
  if (k < 1) k = 1;
  if (k > total) k = total;
  return Model(m.name(), {ls.begin(), ls.begin() + static_cast<long>(k)});
}

double search_objective(const Report& rep, SearchSpec::Objective obj) {
  switch (obj) {
    case SearchSpec::Objective::kCycles:
      return static_cast<double>(rep.cycles);
    case SearchSpec::Objective::kEnergy:
      return static_cast<double>(rep.energy.total_fj);
    case SearchSpec::Objective::kEdp:
      return rep.energy.edp_joule_seconds;
  }
  return 0.0;
}

}  // namespace

SearchResult Experiment::search(const SearchSpec& spec) const {
  GEMMINI_CONFIG_REQUIRE(spec.eta >= 2,
                         "sim::Experiment::search: eta must be >= 2 (got "
                             << spec.eta << ")");
  GEMMINI_CONFIG_REQUIRE(spec.min_rung_points >= 1,
                         "sim::Experiment::search: min_rung_points must be "
                         ">= 1");
  GEMMINI_CONFIG_REQUIRE(
      spec.min_fraction > 0 && spec.min_fraction <= 1,
      "sim::Experiment::search: min_fraction must be in (0, 1] (got "
          << spec.min_fraction << ")");
  const bool needs_energy = spec.objective != SearchSpec::Objective::kCycles ||
                            spec.power_budget_watts > 0;
  GEMMINI_CONFIG_REQUIRE(
      !needs_energy || energy_cfg_.active(),
      "sim::Experiment::search: an energy/EDP objective or a power budget "
      "needs the energy meter; call .energy() with nonzero prices first");

  const Sweep grid = sweep();
  for (const SweepPoint& p : grid.points()) {
    GEMMINI_CONFIG_REQUIRE(
        std::holds_alternative<Inference>(p.workload),
        "sim::Experiment::search: point '" +
            p.name +
            "': search races layer-prefix proxies, so it needs plain "
            "inference points (no serve()/fault_campaign()/llm())");
  }

  SearchResult result;
  std::vector<std::size_t> survivors(grid.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) survivors[i] = i;

  SweepOptions opts;
  opts.threads = spec.threads;

  // Low-fidelity rungs: race the survivors on a model prefix, drop the
  // worst 1 - 1/eta each time. Error points rank last (+inf objective);
  // ties break on grid index, so the ranking is deterministic at any
  // thread count (Sweep::run returns reports in point order).
  double fraction = std::min(spec.min_fraction, 1.0);
  while (survivors.size() > spec.min_rung_points && fraction < 1.0) {
    Sweep rung_sweep;
    SearchRung rung;
    rung.fraction = fraction;
    for (const std::size_t idx : survivors) {
      SweepPoint p = grid.points()[idx];
      Model& m = std::get<Inference>(p.workload).model;
      m = prefix_model(m, fraction);
      rung.points.push_back(p.name);
      rung_sweep.add(std::move(p));
    }
    const std::vector<Report> reps = rung_sweep.run(opts);
    result.evaluations += reps.size();

    std::vector<std::pair<double, std::size_t>> ranked;
    ranked.reserve(reps.size());
    for (std::size_t j = 0; j < reps.size(); ++j) {
      const double obj = reps[j].status == "error"
                             ? std::numeric_limits<double>::infinity()
                             : search_objective(reps[j], spec.objective);
      ranked.push_back({obj, survivors[j]});
    }
    std::sort(ranked.begin(), ranked.end());
    const std::size_t keep = std::max<std::size_t>(
        1, (ranked.size() + spec.eta - 1) / spec.eta);
    survivors.clear();
    for (std::size_t j = 0; j < keep; ++j) survivors.push_back(ranked[j].second);
    std::sort(survivors.begin(), survivors.end());
    result.rungs.push_back(std::move(rung));
    fraction = std::min(1.0, fraction * static_cast<double>(spec.eta));
  }

  // Full-fidelity final rung: exact reports for every survivor, then the
  // power-feasibility cut and the final ranking.
  Sweep final_sweep;
  SearchRung final_rung;
  final_rung.fraction = 1.0;
  for (const std::size_t idx : survivors) {
    final_sweep.add(grid.points()[idx]);
    final_rung.points.push_back(grid.points()[idx].name);
  }
  const std::vector<Report> reps = final_sweep.run(opts);
  result.evaluations += reps.size();
  result.rungs.push_back(std::move(final_rung));

  std::vector<std::size_t> order(reps.size());
  std::vector<SearchCandidate> cands(reps.size());
  for (std::size_t j = 0; j < reps.size(); ++j) {
    const Report& rep = reps[j];
    SearchCandidate& c = cands[j];
    c.point = rep.point;
    c.grid_index = survivors[j];
    if (rep.status == "error") {
      c.status = "error";
      c.error = rep.error;
      c.feasible = false;
      c.objective = std::numeric_limits<double>::infinity();
    } else {
      c.status = "ok";
      c.cycles = rep.cycles;
      c.energy_j = rep.energy.total_j;
      c.avg_power_watts = rep.energy.avg_power_watts;
      c.edp_joule_seconds = rep.energy.edp_joule_seconds;
      c.objective = search_objective(rep, spec.objective);
      c.feasible = spec.power_budget_watts <= 0 ||
                   c.avg_power_watts <= spec.power_budget_watts;
    }
    order[j] = j;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SearchCandidate& ca = cands[a];
    const SearchCandidate& cb = cands[b];
    const int cla = ca.status == "error" ? 2 : (ca.feasible ? 0 : 1);
    const int clb = cb.status == "error" ? 2 : (cb.feasible ? 0 : 1);
    return std::tie(cla, ca.objective, ca.grid_index) <
           std::tie(clb, cb.objective, cb.grid_index);
  });
  for (const std::size_t j : order) {
    result.finalists.push_back(cands[j]);
  }
  if (!result.finalists.empty() && result.finalists.front().status == "ok" &&
      result.finalists.front().feasible) {
    result.found = true;
    result.best_point = result.finalists.front().point;
    for (std::size_t j = 0; j < reps.size(); ++j) {
      if (survivors[j] == result.finalists.front().grid_index) {
        result.best = reps[j];
        break;
      }
    }
  }
  return result;
}

}  // namespace gemmini::sim
