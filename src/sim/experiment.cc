#include "src/sim/experiment.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <tuple>

#include "src/sim/parallel.h"

namespace gemmini::sim {

Sweep& Sweep::add(SweepPoint point) {
  points_.push_back(std::move(point));
  return *this;
}

Sweep& Sweep::add(std::string name, SocConfig config, Model model) {
  return add(SweepPoint{std::move(name), std::move(config), std::move(model),
                        /*multicore=*/false, /*functional=*/false,
                        /*seed=*/1, /*placement=*/nullptr,
                        /*tiling=*/nullptr, /*trace=*/{},
                        /*campaign_runs=*/0});
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

/// Fault campaign for one sweep point: a fault-free golden run supplies the
/// report (timing, estimates, reference output), then `campaign_runs`
/// fresh sessions rerun the same workload with fault seeds base+i and each
/// run is classified against the golden output:
///
///   threw                      -> "detected"  (watchdog, DMA abort, ...)
///   mismatch, ECC flagged any  -> "detected"
///   mismatch, nothing flagged  -> "sdc"       (silent data corruption)
///   match, ECC corrected any   -> "corrected"
///   match otherwise            -> "masked"
Report run_campaign(const SweepPoint& point) {
  GEMMINI_CONFIG_REQUIRE(point.config.faults.enabled,
                         "sweep point '" + point.name +
                             "': campaign_runs > 0 needs config.faults.enabled");
  GEMMINI_CONFIG_REQUIRE(point.functional,
                         "sweep point '" + point.name +
                             "': fault campaigns compare outputs, so the "
                             "point must be functional");
  GEMMINI_CONFIG_REQUIRE(!point.multicore,
                         "sweep point '" + point.name +
                             "': fault campaigns are single-core");

  SocConfig golden_cfg = point.config;
  golden_cfg.faults.enabled = false;
  Session golden = build_session(point, golden_cfg, /*with_trace=*/true);
  Report rep = golden.run(point.model);
  rep.point = point.name;

  const LoweredModel& lowered = golden.last_lowered();
  std::vector<std::uint8_t> golden_out(lowered.layer_bytes.back());
  golden.address_space().read_virt(lowered.layer_output.back(),
                                   golden_out.data(), golden_out.size());

  ReliabilityReport& rel = rep.reliability;
  rel.enabled = true;
  rel.seed = point.config.faults.seed;
  rel.campaign_runs = point.campaign_runs;
  rel.golden_cycles = rep.cycles;

  unsigned faulty_runs = 0;
  for (unsigned i = 0; i < point.campaign_runs; ++i) {
    SocConfig cfg = point.config;
    cfg.faults.seed = point.config.faults.seed + i;
    Session session = build_session(point, cfg, /*with_trace=*/false);
    bool threw = false;
    try {
      session.run(point.model);
    } catch (const std::exception&) {
      threw = true;
    }
    const fault::FaultStats stats = session.soc().fault_injector()->stats();
    rel.injection += stats;
    if (stats.total_injected() > 0) ++faulty_runs;

    std::string outcome;
    if (threw) {
      outcome = "detected";
    } else {
      std::vector<std::uint8_t> out(golden_out.size());
      session.address_space().read_virt(
          session.last_lowered().layer_output.back(), out.data(), out.size());
      if (out != golden_out) {
        outcome = stats.ecc_detected_uncorrectable > 0 ? "detected" : "sdc";
      } else {
        outcome = stats.ecc_corrected > 0 ? "corrected" : "masked";
      }
    }
    if (outcome == "masked") {
      ++rel.masked;
    } else if (outcome == "corrected") {
      ++rel.corrected;
    } else if (outcome == "detected") {
      ++rel.detected;
    } else {
      ++rel.sdc;
    }
    rel.run_outcomes.push_back(std::move(outcome));
  }

  if (point.campaign_runs > 0) {
    rel.sdc_rate =
        static_cast<double>(rel.sdc) / static_cast<double>(point.campaign_runs);
  }
  if (faulty_runs > 0) {
    rel.detection_rate =
        static_cast<double>(rel.corrected + rel.detected) /
        static_cast<double>(faulty_runs);
  }
  return rep;
}

/// The fail-soft stand-in for a point whose run threw: the label and the
/// exception message survive in the point's report slot, the rest stays
/// default-initialized.
Report error_report(const SweepPoint& point, std::string message) {
  Report rep;
  rep.point = point.name;
  rep.status = "error";
  rep.error = std::move(message);
  rep.config = point.config.name;
  rep.model = point.model.name();
  return rep;
}

}  // namespace

Report Sweep::run_point(const SweepPoint& point) {
  if (point.llm.has_value()) {
    Session session = Session::builder(point.config)
                          .functional(point.functional)
                          .seed(point.seed)
                          .trace(point.trace)
                          .metrics(point.metrics)
                          .energy(point.energy)
                          .build();
    Report rep = llm::run_decode(session, *point.llm);
    rep.point = point.name;
    if (session.tracing() && !point.trace.export_path.empty()) {
      if (!session.write_trace(point.trace.export_path)) {
        throw RuntimeError("sweep point '" + point.name +
                           "': could not write trace to " +
                           point.trace.export_path);
      }
    }
    return rep;
  }
  if (point.serve.enabled) {
    serve::Server server(
        point.config, point.serve,
        serve::Server::Options{point.functional, point.seed, point.placement,
                               point.tiling, point.metrics});
    Report rep = server.run();
    rep.point = point.name;
    return rep;
  }
  if (point.campaign_runs > 0) return run_campaign(point);
  Session session = Session::builder(point.config)
                        .functional(point.functional)
                        .seed(point.seed)
                        .placement(point.placement)
                        .tiling(point.tiling)
                        .trace(point.trace)
                        .metrics(point.metrics)
                        .energy(point.energy)
                        .build();
  Report rep = point.multicore ? session.run_multicore(point.model)
                               : session.run(point.model);
  rep.point = point.name;
  if (session.tracing() && !point.trace.export_path.empty()) {
    if (!session.write_trace(point.trace.export_path)) {
      throw RuntimeError("sweep point '" + point.name +
                         "': could not write trace to " +
                         point.trace.export_path);
    }
  }
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
  serve_spec_.enabled = true;
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
  if (llm_base_.has_value()) {
    GEMMINI_CONFIG_REQUIRE(!serve_spec_.enabled && campaign_runs_ == 0 &&
                               !multicore_,
                           "sim::Experiment: llm() is a single-core workload "
                           "and excludes serve() and fault_campaign()");
  }
  GEMMINI_CONFIG_REQUIRE(
      explicit_configs_.empty() ||
          (geometries_.empty() && sp_sizes_.empty() && l2_sizes_.empty() &&
           core_counts_.empty() && dram_channels_.empty() &&
           dram_schedulers_.empty() && dram_interleaves_.empty()),
      "sim::Experiment: configs() cannot be combined with per-axis setters");

  // Expand the config grid one axis at a time, tagging each variant with
  // the axes that produced it.
  struct Variant {
    SocConfig cfg;
    std::string label;
  };
  std::vector<Variant> variants;
  if (!explicit_configs_.empty()) {
    for (const SocConfig& cfg : explicit_configs_) {
      variants.push_back({cfg, cfg.name});
    }
  } else {
    variants.push_back({base_, ""});
    auto expand = [&variants](auto&& apply, std::size_t count) {
      if (count == 0) return;
      std::vector<Variant> next;
      next.reserve(variants.size() * count);
      for (const Variant& v : variants) {
        for (std::size_t i = 0; i < count; ++i) {
          Variant nv = v;
          const std::string part = apply(nv.cfg, i);
          if (!nv.label.empty()) nv.label += "-";
          nv.label += part;
          next.push_back(std::move(nv));
        }
      }
      variants = std::move(next);
    };
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
          std::string part = "c";
          part += std::to_string(core_counts_[i]);
          return part;
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
  if (!fault_configs_.empty()) {
    std::vector<Variant> next;
    next.reserve(variants.size() * fault_configs_.size());
    for (const Variant& v : variants) {
      for (std::size_t i = 0; i < fault_configs_.size(); ++i) {
        Variant nv = v;
        nv.cfg.faults = fault_configs_[i];
        std::string part = fault_configs_[i].name.empty()
                               ? "f" + std::to_string(i)
                               : fault_configs_[i].name;
        if (!nv.label.empty()) nv.label += "-";
        nv.label += part;
        next.push_back(std::move(nv));
      }
    }
    variants = std::move(next);
  }

  if (campaign_runs_ > 0) {
    GEMMINI_CONFIG_REQUIRE(functional_ && !multicore_,
                           "sim::Experiment: fault_campaign() needs "
                           "functional() single-core points");
    GEMMINI_CONFIG_REQUIRE(!serve_spec_.enabled,
                           "sim::Experiment: fault_campaign() and serve() are "
                           "mutually exclusive (serving runs classify faulty "
                           "requests as error responses instead)");
  }
  GEMMINI_CONFIG_REQUIRE(
      serve_spec_.enabled || (offered_loads_.empty() && serve_policies_.empty()),
      "sim::Experiment: offered_loads()/serve_policies() need serve()");
  for (const double l : offered_loads_) {
    GEMMINI_CONFIG_REQUIRE(l > 0, "sim::Experiment: offered_loads entries "
                                  "must be > 0 requests/Mcycle (got "
                                      << l << ")");
  }

  // Serving axes: (offered load x scheduler policy), expanded around every
  // config/policy column below. A single unlabeled column keeps the
  // ServeSpec's own rate/scheduler when an axis is unset.
  struct ServeVariant {
    double load = 0;  ///< 0 = keep spec rate
    serve::ServeConfig scheduler{};
    std::string label;
  };
  std::vector<ServeVariant> serve_variants;
  if (serve_spec_.enabled) {
    std::vector<std::pair<double, std::string>> loads;
    if (offered_loads_.empty()) {
      loads.push_back({0.0, ""});
    } else {
      for (const double l : offered_loads_) {
        std::ostringstream oss;
        oss << "load" << l;
        loads.push_back({l, oss.str()});
      }
    }
    std::vector<std::pair<serve::ServeConfig, std::string>> pols;
    if (serve_policies_.empty()) {
      pols.push_back({serve_spec_.scheduler, ""});
    } else {
      for (const serve::ServeConfig& sc : serve_policies_) {
        pols.push_back({sc, sc.label()});
      }
    }
    for (const auto& [load, load_label] : loads) {
      for (const auto& [sc, sc_label] : pols) {
        ServeVariant sv;
        sv.load = load;
        sv.scheduler = sc;
        sv.label = load_label;
        if (!sc_label.empty()) {
          if (!sv.label.empty()) sv.label += "-";
          sv.label += sc_label;
        }
        serve_variants.push_back(std::move(sv));
      }
    }
  } else {
    serve_variants.push_back({});
  }

  // Workload list: either the explicit model list or the llm decode grid
  // (batch x layout x steps x int4 around the llm() base config); an unset
  // llm axis keeps the base value. The proxy model's name — the decode
  // config's label — becomes the point's model label.
  struct WorkloadItem {
    Model model;
    std::optional<llm::DecodeConfig> llm;
  };
  std::vector<WorkloadItem> workloads;
  if (llm_base_.has_value()) {
    const std::vector<unsigned> batches =
        llm_batches_.empty() ? std::vector<unsigned>{llm_base_->batch}
                             : llm_batches_;
    const std::vector<llm::KvLayout> layouts =
        llm_layouts_.empty() ? std::vector<llm::KvLayout>{llm_base_->kv_layout}
                             : llm_layouts_;
    const std::vector<std::uint64_t> steps =
        llm_steps_.empty() ? std::vector<std::uint64_t>{llm_base_->decode_steps}
                           : llm_steps_;
    const std::vector<bool> int4s =
        llm_int4_.empty() ? std::vector<bool>{llm_base_->int4_weights}
                          : llm_int4_;
    for (const unsigned b : batches) {
      for (const llm::KvLayout layout : layouts) {
        for (const std::uint64_t t : steps) {
          for (const bool i4 : int4s) {
            llm::DecodeConfig c = *llm_base_;
            c.batch = b;
            c.kv_layout = layout;
            c.decode_steps = t;
            c.int4_weights = i4;
            c.validate();
            workloads.push_back({llm::proxy_model(c), std::move(c)});
          }
        }
      }
    }
  } else {
    for (const Model& m : models_) workloads.push_back({m, std::nullopt});
  }

  // The lowering-policy axes compose with every config axis (they are
  // orthogonal to the SocConfig, so they combine with explicit configs
  // too). An unset axis contributes one "default" column with no label.
  using PlacementPtr = std::shared_ptr<const lowering::PlacementPolicy>;
  using TilingPtr = std::shared_ptr<const lowering::TilingPolicy>;
  const std::vector<PlacementPtr> placements =
      placement_policies_.empty() ? std::vector<PlacementPtr>{nullptr}
                                  : placement_policies_;
  const std::vector<TilingPtr> tilings =
      tiling_policies_.empty() ? std::vector<TilingPtr>{nullptr}
                               : tiling_policies_;

  Sweep sw;
  for (const Variant& v : variants) {
    for (const PlacementPtr& pp : placements) {
      for (const TilingPtr& tp : tilings) {
        std::string label = v.label;
        for (const std::string& part :
             {pp ? pp->name() : std::string{}, tp ? tp->name() : std::string{}}) {
          if (part.empty()) continue;
          if (!label.empty()) label += "-";
          label += part;
        }
        for (const ServeVariant& sv : serve_variants) {
          std::string serve_label = label;
          if (!sv.label.empty()) {
            if (!serve_label.empty()) serve_label += "-";
            serve_label += sv.label;
          }
          for (const WorkloadItem& w : workloads) {
            const Model& m = w.model;
            SweepPoint p{serve_label.empty() ? m.name()
                                             : serve_label + "/" + m.name(),
                         v.cfg, m, multicore_, functional_, seed_, pp, tp,
                         /*trace=*/{}, /*campaign_runs=*/0};
            p.llm = w.llm;
            p.metrics = metrics_cfg_;
            p.energy = energy_cfg_;
            if (!trace_point_name_.empty() && p.name == trace_point_name_) {
              p.trace = trace_cfg_;
            }
            // Campaigns only make sense for fault-enabled points; a baseline
            // column in the faults axis runs once, normally.
            if (v.cfg.faults.enabled) p.campaign_runs = campaign_runs_;
            if (serve_spec_.enabled) {
              serve::ServeSpec sp = serve_spec_;
              if (sv.load > 0) sp.arrivals.requests_per_mcycle = sv.load;
              sp.scheduler = sv.scheduler;
              if (sp.classes.empty()) {
                sp.classes.push_back(serve::RequestClass{
                    m.name(), m, 1.0, sp.default_deadline_cycles});
              }
              p.serve = std::move(sp);
            }
            sw.add(std::move(p));
          }
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
        !p.serve.enabled && p.campaign_runs == 0 && !p.llm.has_value(),
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
      p.model = prefix_model(p.model, fraction);
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
