#include "src/sim/session.h"

#include <algorithm>
#include <map>

#include "src/codegen/header_gen.h"
#include "src/estimate/area_model.h"
#include "src/estimate/power_model.h"
#include "src/estimate/timing_model.h"
#include "src/metrics/openmetrics.h"
#include "src/trace/perfetto.h"

namespace gemmini::sim {

namespace {

// MACs per modeled DRAM byte, per layer, straight off the compile record.
std::vector<LayerIntensity> plan_layer_intensity(const Plan& plan) {
  const Model& model = plan.model();
  std::vector<LayerIntensity> out;
  for (std::size_t i = 1; i < plan.layers.size(); ++i) {
    LayerIntensity li;
    li.name = model.layers()[i].name;
    li.macs = model.layer_macs(i);
    li.dram_bytes = plan.layers[i].dma_bytes;
    if (li.macs == 0 && li.dram_bytes == 0) continue;
    li.macs_per_byte = li.dram_bytes == 0
                           ? 0.0
                           : static_cast<double>(li.macs) /
                                 static_cast<double>(li.dram_bytes);
    out.push_back(std::move(li));
  }
  return out;
}

}  // namespace

Session Session::Builder::build() const {
  try {
    cfg_.validate();
  } catch (const ConfigError& e) {
    throw ConfigError("sim::Session '" + cfg_.name +
                      "': invalid configuration: " + e.what());
  }
  return Session(cfg_, opts_);
}

Session::Session(const SocConfig& cfg, SessionOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.trace.enabled) {
    tracer_ = std::make_unique<trace::Tracer>(opts_.trace.buffer_events);
  }
  if (opts_.metrics.enabled) {
    metrics_ = std::make_unique<metrics::Metrics>(opts_.metrics);
  }
  if (opts_.energy.active()) {
    const energy::EnergyPrices& p = opts_.energy.prices;
    const double static_mw =
        p.static_mw > 0
            ? p.static_mw
            : (p.static_from_model ? PowerModel{}.accelerator_mw(cfg.accel)
                                   : 0.0);
    meter_ = std::make_unique<energy::EnergyMeter>(opts_.energy, static_mw,
                                                   cfg.accel.clock_ghz);
  }
  soc_ = std::make_unique<Soc>(cfg, tracer_.get(), metrics_.get(),
                               meter_.get());
  soc_->set_functional(opts_.functional);
}

const trace::Tracer& Session::trace_buffer() const {
  GEMMINI_CHECK_MSG(tracing(),
                    "trace_buffer(): session was built without .trace()");
  return *tracer_;
}

trace::PerfettoOptions Session::perfetto_options(int indent) const {
  trace::PerfettoOptions opts;
  opts.label = config().name;
  if (last_plan_.has_value()) opts.label += "/" + last_plan_->model().name();
  opts.indent = indent;
  // When the sampler ran, its timelines ride along as counter tracks
  // beside the cycle-level span tracks (name-ordered: deterministic).
  if (metrics_ && metrics_->sampling()) {
    opts.counters = counter_tracks(snapshot_metrics(*metrics_));
    // Derived power-over-time track: the same per-window watts the Report
    // carries, visible next to the raw energy counters.
    if (meter_ && last_finish_ > 0) {
      const EnergyReport e = derive_energy(last_finish_);
      if (!e.window_watts.empty()) {
        opts.counters.push_back({"energy.power_watts",
                                 metrics_->sampler().interval(),
                                 e.window_watts});
      }
    }
  }
  return opts;
}

metrics::Metrics& Session::metrics() const {
  GEMMINI_CHECK_MSG(metering(),
                    "metrics(): session was built without .metrics()");
  return *metrics_;
}

std::string Session::openmetrics() const {
  GEMMINI_CHECK_MSG(metering(),
                    "openmetrics(): session was built without .metrics()");
  return metrics::to_openmetrics(metrics_->registry());
}

bool Session::write_openmetrics(const std::string& path) const {
  GEMMINI_CHECK_MSG(
      metering(),
      "write_openmetrics(): session was built without .metrics()");
  return metrics::write_openmetrics(metrics_->registry(), path);
}

std::string Session::trace_json(int indent) const {
  return trace::to_perfetto_json(trace_buffer().snapshot(),
                                 perfetto_options(indent));
}

bool Session::write_trace(const std::string& path, int indent) const {
  return trace::write_perfetto_file(path, trace_buffer().snapshot(),
                                    perfetto_options(indent));
}

trace::BottleneckReport Session::bottlenecks(unsigned core) const {
  GEMMINI_CHECK_MSG(tracing(),
                    "bottlenecks(): session was built without .trace()");
  GEMMINI_CHECK_MSG(last_plan_.has_value(),
                    "bottlenecks(): no plan run in this session yet");
  return trace::attribute_bottlenecks(tracer_->snapshot(), *last_plan_,
                                      config().accel, config().mem, core,
                                      tracer_->dropped());
}

Estimates estimate(const SocConfig& cfg) {
  const TimingModel timing;
  Estimates e;
  e.area =
      AreaModel{}.breakdown(cfg.accel, cfg.cpu.cpu_class == CpuClass::kBoom);
  e.fmax_ghz = timing.fmax_ghz(cfg.accel.array, cfg.accel.dtype);
  e.power_mw = PowerModel{}.accelerator_mw(cfg.accel);
  e.meets_timing = timing.meets_timing(cfg.accel);
  return e;
}

Estimates Session::estimates() const { return estimate(config()); }

std::string Session::params_header() const {
  return generate_params_header(config().accel);
}

Report Session::make_report(const Model& model,
                            const std::vector<CoreResult>& results) {
  return make_report(model.name(), cpu_baseline_cycles(model, config().cpu),
                     results);
}

Report Session::make_report(const std::string& model_name, Cycle cpu_baseline,
                            const std::vector<CoreResult>& results) {
  Report rep;
  rep.config = config().name;
  rep.model = model_name;
  rep.cores = static_cast<unsigned>(results.size());

  for (std::size_t i = 0; i < results.size(); ++i) {
    const CoreResult& r = results[i];
    CoreReport core;
    core.core = static_cast<unsigned>(i);
    core.cycles = r.finish;
    core.cpu_cycles = r.cpu_cycles;
    core.cycles_by_tag = r.cycles_by_tag;
    core.accel = r.accel;
    core.array_utilization = r.accel.utilization(config().accel, r.finish);
    const auto& ts =
        soc_->accelerator(static_cast<unsigned>(i)).translation();
    core.private_tlb_hit_rate = ts.private_tlb().stats().hit_rate();
    core.effective_private_tlb_hit_rate = ts.effective_private_hit_rate();
    rep.per_core.push_back(std::move(core));

    rep.cycles = std::max(rep.cycles, r.finish);
    for (const auto& [tag, c] : r.cycles_by_tag) rep.cycles_by_tag[tag] += c;
  }

  rep.seconds = static_cast<double>(rep.cycles) /
                (config().accel.clock_ghz * 1e9);
  rep.fps = rep.seconds > 0 ? 1.0 / rep.seconds : 0.0;
  rep.cpu_baseline = cpu_baseline;
  rep.speedup = rep.cycles == 0
                    ? 0.0
                    : static_cast<double>(rep.cpu_baseline) /
                          static_cast<double>(rep.cycles);
  if (!rep.per_core.empty()) {
    rep.array_utilization = rep.per_core.front().array_utilization;
  }

  const MemorySystem& mem = soc_->memory();
  const Cache::Stats& l2 = mem.l2().stats();
  rep.substrate.l2_miss_rate = l2.miss_rate();
  rep.substrate.l2_hits = l2.hits;
  rep.substrate.l2_misses = l2.misses;

  // Merge the per-requestor accounting of both buses and DRAM into one
  // table, sorted by requestor id for deterministic reports.
  std::map<int, RequestorTraffic> traffic;
  for (const Bus::RequestorStats& rs : mem.system_bus().stats().requestors) {
    RequestorTraffic& t = traffic[rs.requestor];
    t.requestor = rs.requestor;
    t.sysbus_bytes = rs.bytes;
    t.sysbus_wait_cycles = rs.wait_cycles;
  }
  for (const Bus::RequestorStats& rs : mem.memory_bus().stats().requestors) {
    RequestorTraffic& t = traffic[rs.requestor];
    t.requestor = rs.requestor;
    t.membus_bytes = rs.bytes;
    t.membus_wait_cycles = rs.wait_cycles;
  }
  for (const Dram::RequestorStats& rs : mem.dram().stats().requestors) {
    RequestorTraffic& t = traffic[rs.requestor];
    t.requestor = rs.requestor;
    t.dram_bytes = rs.bytes;
    t.dram_row_hits = rs.row_hits;
    t.dram_row_misses = rs.row_misses;
    t.dram_channel_bytes = rs.channel_bytes;
  }
  for (auto& [id, t] : traffic) {
    // Requestors that touched a bus but never reached DRAM still report a
    // (zeroed) per-channel split so the channel-sum invariant holds for
    // every row.
    if (t.dram_channel_bytes.empty()) {
      t.dram_channel_bytes.assign(config().mem.dram.channels, 0);
    }
    rep.substrate.per_requestor.push_back(std::move(t));
  }
  for (const Dram::ChannelStats& cs : mem.dram().stats().channels) {
    DramChannelTraffic ch;
    ch.channel = cs.channel;
    ch.accesses = cs.accesses;
    ch.bytes = cs.bytes;
    ch.row_hits = cs.row_hits;
    ch.row_misses = cs.row_misses;
    ch.refresh_stall_cycles = cs.refresh_stall_cycles;
    ch.queue_wait_cycles = cs.queue_wait_cycles;
    ch.write_drains = cs.write_drains;
    ch.writes_buffered = cs.writes_buffered;
    ch.avg_queue_depth = cs.avg_queue_depth;
    ch.max_queue_depth = cs.max_queue_depth;
    rep.substrate.dram_channels.push_back(ch);
  }
  const Dram::ChannelStats dram = mem.dram().stats().totals();
  rep.substrate.dram_row_hit_rate =
      safe_ratio(dram.row_hits, dram.row_hits + dram.row_misses);

  if (tracing()) {
    // Drop accounting is exact and surfaces even when nothing could be
    // attributed (e.g. a fault storm wrapped the ring before a plan ran).
    rep.trace_dropped_events = tracer_->dropped();
    if (last_plan_.has_value()) {
      trace::BottleneckReport bn = bottlenecks();
      rep.bottlenecks = std::move(bn.layers);
    }
  }

  if (const fault::Injector* inj = soc_->fault_injector()) {
    rep.reliability.enabled = true;
    rep.reliability.seed = config().faults.seed;
    rep.reliability.injection = inj->stats();
  }

  if (meter_) {
    rep.energy = derive_energy(rep.cycles);
    last_finish_ = rep.cycles;
    // Surface the headline figure through the registry so OpenMetrics
    // exports carry it without a Report in hand.
    if (metrics_) {
      metrics_->registry().gauge("energy.avg_power_watts")
          .set(rep.energy.avg_power_watts);
    }
  }

  if (metrics_) {
    rep.metrics = snapshot_metrics(*metrics_);
  }

  rep.estimates = estimates();
  return rep;
}

namespace {

bool is_energy_dynamic_series(const std::string& name) {
  // Per-channel DRAM totals plus per-core totals partition the dynamic
  // energy exactly once; the per-kind "energy.dram.*_fj" counters record
  // the same commands a second time and must stay out of the window sum.
  return name.rfind("energy.dram.ch", 0) == 0 ||
         name.rfind("energy.core", 0) == 0;
}

}  // namespace

EnergyReport Session::derive_energy(Cycle cycles) const {
  EnergyReport e;
  e.enabled = true;
  const energy::Tally t = soc_->energy_tally();

  e.dram_act_fj = t.dram_act;
  e.dram_pre_fj = t.dram_pre;
  e.dram_rd_fj = t.dram_rd;
  e.dram_wr_fj = t.dram_wr;
  e.dram_ref_fj = t.dram_ref;
  e.dram_io_fj = t.dram_io;
  e.dram_fj = e.dram_act_fj + e.dram_pre_fj + e.dram_rd_fj + e.dram_wr_fj +
              e.dram_ref_fj + e.dram_io_fj;
  e.dram_channel_fj = t.dram_channel;

  for (const energy::Tally::Core& c : t.cores) {
    e.exec_fj += c.exec;
    e.dma_fj += c.dma;
    e.sp_fj += c.sp;
    e.acc_fj += c.acc;
    e.core_fj.push_back(c.exec + c.dma + c.sp + c.acc);
  }

  e.static_fj = cycles * meter_->static_fj_per_cycle();
  e.total_fj = e.dram_fj + e.exec_fj + e.dma_fj + e.sp_fj + e.acc_fj +
               e.static_fj;
  e.total_j = static_cast<double>(e.total_fj) * 1e-15;
  e.avg_power_watts = meter_->watts(e.total_fj, cycles);
  const double seconds =
      static_cast<double>(cycles) / (config().accel.clock_ghz * 1e9);
  e.edp_joule_seconds = e.total_j * seconds;

  if (metrics_ && metrics_->sampling()) {
    const metrics::TimeSeriesSampler& s = metrics_->sampler();
    const Cycle interval = s.interval();
    const std::size_t windows = s.windows();
    e.sample_interval = interval;
    std::vector<std::uint64_t> dyn(windows, 0);
    for (const auto& [name, cs] : s.counter_series()) {
      if (!is_energy_dynamic_series(name)) continue;
      for (std::size_t w = 0; w < windows && w < cs.deltas.size(); ++w) {
        dyn[w] += cs.deltas[w];
      }
    }
    for (std::size_t w = 0; w < windows; ++w) {
      // Every window but the last spans a full interval; the tail spans
      // whatever remained at finish (possibly zero cycles).
      const Cycle span = w + 1 < windows
                             ? interval
                             : cycles - static_cast<Cycle>(windows - 1) *
                                            interval;
      const std::uint64_t fj =
          dyn[w] + span * meter_->static_fj_per_cycle();
      e.window_fj.push_back(fj);
      e.window_watts.push_back(meter_->watts(fj, span));
    }
  }
  return e;
}

Plan Session::plan(const Model& model, unsigned core) {
  if (core >= config().cores) {
    throw RuntimeError("sim::Session '" + config().name + "': plan() for core " +
                       std::to_string(core) + " on a " +
                       std::to_string(config().cores) + "-core SoC");
  }
  Plan p = lowering::build_plan(model, config().accel,
                                soc_->address_space(core), opts_);
  p.core = core;
  return p;
}

void Session::begin_run() {
  soc_->reset_all();
  if (tracer_) tracer_->clear();
}

Report Session::run(const Model& model) { return run(plan(model)); }

Report Session::run(const Plan& plan) {
  // A plan's buffers live in one core's address space; the single-stream
  // runner executes on core 0, so a per-core plan from run_multicore's
  // compile phase cannot be replayed here against the wrong page tables.
  GEMMINI_CHECK_MSG(plan.core == 0,
                    "run(Plan): plan was compiled for core "
                        << plan.core
                        << "; only core-0 plans run standalone (use "
                           "run_multicore for per-core execution)");
  begin_run();
  last_lowered_ = lowering::emit_stream(plan, config().accel, config().cpu);
  last_plan_ = plan;
  const CoreResult r = soc_->run(last_lowered_.stream);
  Report rep = make_report(plan.model(), {r});
  rep.layer_intensity = plan_layer_intensity(plan);
  return rep;
}

Report Session::run_stream(const WorkStream& stream,
                           const std::string& model_name, Cycle cpu_baseline) {
  // begin_run keeps PhysMem contents and AddressSpace allocations — only
  // timing and cache state restart, so buffers the caller materialized
  // before this call are still live (and the caches are cold, as for any
  // other run).
  begin_run();
  // The stream is the caller's: no plan or lowering of ours describes it.
  last_plan_.reset();
  last_lowered_ = LoweredModel{};
  const CoreResult r = soc_->run(stream);
  return make_report(model_name, cpu_baseline, {r});
}

Report Session::run_multicore(const Model& model) {
  begin_run();
  std::vector<Plan> plans;
  std::vector<LoweredModel> lowered;
  std::vector<const WorkStream*> streams;
  plans.reserve(config().cores);
  lowered.reserve(config().cores);
  for (unsigned c = 0; c < config().cores; ++c) {
    plans.push_back(plan(model, c));
    lowered.push_back(
        lowering::emit_stream(plans.back(), config().accel, config().cpu));
  }
  for (const auto& l : lowered) streams.push_back(&l.stream);
  const std::vector<CoreResult> results = soc_->run_parallel(streams);
  last_lowered_ = std::move(lowered.front());
  last_plan_ = std::move(plans.front());
  Report rep = make_report(model, results);
  rep.layer_intensity = plan_layer_intensity(*last_plan_);
  return rep;
}

}  // namespace gemmini::sim
