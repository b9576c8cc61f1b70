#include "src/soc/soc.h"

#include <algorithm>

namespace gemmini {

SocConfig SocConfig::base_1mb_l2() {
  SocConfig cfg;
  cfg.name = "Base";
  cfg.accel.sp_capacity_bytes = 256 * 1024;
  cfg.accel.acc_capacity_bytes = 256 * 1024;
  cfg.mem.l2.size_bytes = 1ull << 20;
  return cfg;
}

SocConfig SocConfig::big_sp() {
  SocConfig cfg = base_1mb_l2();
  cfg.name = "BigSP";
  cfg.accel.sp_capacity_bytes = 512 * 1024;
  cfg.accel.acc_capacity_bytes = 512 * 1024;
  return cfg;
}

SocConfig SocConfig::big_l2() {
  SocConfig cfg = base_1mb_l2();
  cfg.name = "BigL2";
  cfg.mem.l2.size_bytes = 2ull << 20;
  return cfg;
}

Soc::Soc(const SocConfig& cfg, trace::Tracer* tracer,
         metrics::Metrics* metrics, energy::EnergyMeter* energy)
    : cfg_(cfg),
      metrics_(metrics),
      energy_(energy),
      injector_(cfg.faults.enabled
                    ? std::make_unique<fault::Injector>(cfg.faults, tracer)
                    : nullptr),
      obs_{tracer, injector_.get()},
      mem_(cfg.mem, obs_),
      frames_(0x8000'0000ull),
      ptw_(cfg.accel.translation.ptw, mem_, RequestorId{kPtwRequestor}) {
  cfg_.validate();
  if (injector_) injector_->attach_phys(&mem_.phys());
  for (unsigned c = 0; c < cfg_.cores; ++c) {
    spaces_.push_back(std::make_unique<AddressSpace>(
        mem_.phys(), frames_,
        /*va_base=*/0x1'0000'0000ull + c * 0x10'0000'0000ull));
    accels_.push_back(std::make_unique<Accelerator>(
        cfg_.accel, mem_, ptw_, RequestorId{static_cast<int>(c)}, obs_));
  }
  // The published names exist (at zero) before the first run.
  if (metrics_) publish_metrics();
}

void Soc::publish_metrics() {
  metrics::Registry& reg = metrics_->registry();
  const auto put = [&reg](const std::string& name, std::uint64_t v) {
    reg.counter(name).set(v);
  };
  const Dram& dram = mem_.dram();
  for (const Dram::ChannelStats& cs : dram.stats().channels) {
    const std::string p = "dram.ch" + std::to_string(cs.channel);
    put(p + ".accesses", cs.accesses);
    put(p + ".bytes", cs.bytes);
    put(p + ".row_hits", cs.row_hits);
    put(p + ".row_misses", cs.row_misses);
    reg.gauge(p + ".queue_depth")
        .set(static_cast<double>(dram.queue_depth(cs.channel)));
  }
  for (const Dram::RequestorStats& rs : dram.stats().requestors) {
    const std::string p = "dram.req" + std::to_string(rs.requestor);
    put(p + ".bytes", rs.bytes);
    put(p + ".row_hits", rs.row_hits);
    put(p + ".row_misses", rs.row_misses);
  }
  for (const Bus* bus : {&mem_.system_bus(), &mem_.memory_bus()}) {
    const std::string& name = bus->name();
    put(name + ".bytes", bus->stats().bytes());
    put(name + ".wait_cycles", bus->stats().wait_cycles());
    for (const Bus::RequestorStats& rs : bus->stats().requestors) {
      const std::string p = name + ".req" + std::to_string(rs.requestor);
      put(p + ".bytes", rs.bytes);
      put(p + ".wait_cycles", rs.wait_cycles);
    }
  }
  put("l2.hits", mem_.l2().stats().hits);
  put("l2.misses", mem_.l2().stats().misses);
  for (unsigned c = 0; c < cfg_.cores; ++c) {
    const Accelerator& a = *accels_[c];
    const std::string p = "core" + std::to_string(c);
    put(p + ".exec.macs", a.report().macs);
    put(p + ".exec.tiles", a.report().tiles);
    put(p + ".dma.load_bytes", a.dma().stats().load_bytes);
    put(p + ".dma.store_bytes", a.dma().stats().store_bytes);
    const Tlb::Stats& tlb = a.translation().private_tlb().stats();
    put(p + ".tlb.hits", tlb.hits);
    put(p + ".tlb.misses", tlb.misses);
    put(p + ".tlb.filter_hits", a.translation().stats().filter_hits);
  }
  if (energy_) energy_tally().publish(reg);
}

energy::Tally Soc::energy_tally() const {
  GEMMINI_CHECK_MSG(energy_ != nullptr, "energy_tally(): no energy meter");
  std::vector<energy::DramCounts> channels;
  for (const Dram::ChannelStats& cs : mem_.dram().stats().channels) {
    channels.push_back({cs.accesses - cs.writes, cs.writes, cs.row_misses,
                        cs.bytes, cs.refresh_periods});
  }
  std::vector<energy::CoreCounts> cores;
  for (const auto& a : accels_) {
    const DmaEngine::Stats& dma = a->dma().stats();
    cores.push_back({a->report().macs, dma.load_bytes + dma.store_bytes,
                     a->scratchpad().stats().rows,
                     a->accumulator().stats().rows});
  }
  return energy_->price(channels, cores);
}

void Soc::set_functional(bool functional) {
  functional_ = functional;
  for (auto& a : accels_) a->set_functional(functional);
}

void Soc::maybe_os_switch(CoreExec& ce, unsigned core) {
  if (!cfg_.os.enabled) return;
  while (ce.t >= ce.next_os_switch) {
    // The process is preempted: charge the switch cost and flush the
    // accelerator's address-translation state (ASID change).
    if (obs_.trace) {
      obs_.trace->span(trace::EventKind::kOsSwitch, ce.t,
                       ce.t + cfg_.os.switch_cost_cycles);
    }
    ce.t += cfg_.os.switch_cost_cycles;
    ce.result.cycles_by_tag["os"] += cfg_.os.switch_cost_cycles;
    accels_[core]->translation().flush();
    ce.next_os_switch += cfg_.os.period_cycles;
  }
}

Cycle Soc::advance(CoreExec& ce, unsigned core) {
  if (ce.done()) return kCycleMax;
  Accelerator& accel = *accels_[core];
  const WorkStep& step = ce.stream->steps[ce.step];
  // Attribution context: everything recorded while this core advances —
  // including events on shared substrate — belongs to this core and layer.
  if (obs_.trace) {
    obs_.trace->set_context(static_cast<std::int16_t>(core), step.layer);
  }

  if (step.kind == WorkStep::Kind::kCpu) {
    const Cycle t0 = ce.t;
    ce.t += step.cpu_cycles;
    ce.result.cpu_cycles += step.cpu_cycles;
    if (obs_.trace) {
      obs_.trace->span(trace::EventKind::kCpuStep, t0, ce.t, step.cpu_cycles);
    }
    return finish_step(ce, core, t0);
  }

  // Accelerator step.
  if (!ce.accel_started) {
    if (functional_ && step.pre_fixup) step.pre_fixup(*spaces_[core]);
    accel.start(&step.program, spaces_[core].get(), ce.t);
    ce.accel_started = true;
  }
  if (!accel.done()) {
    accel.step();
  }
  if (accel.done()) {
    // The whole program ran with ce.t frozen (only `advance` moves core
    // time), so [start, ce.t] is this step's wall-clock span.
    const Cycle start = ce.t;
    ce.t = std::max(ce.t, accel.frontier());
    return finish_step(ce, core, start);
  }
  return accel.next_issue_hint();
}

Cycle Soc::finish_step(CoreExec& ce, unsigned core, Cycle start) {
  const WorkStep& step = ce.stream->steps[ce.step];
  const Cycle cycles = ce.t - start;
  ce.result.cycles_by_tag[step.tag] += cycles;
  if (obs_.trace) {
    obs_.trace->span(trace::EventKind::kLayerSpan, start, ce.t, ce.step);
  }
  if (metrics_) {
    metrics_->registry().histogram("step_cycles." + step.tag).record(cycles);
    if (!step.metric_gauge.empty()) {
      metrics_->registry().gauge(step.metric_gauge).set(step.metric_value);
    }
  }
  if (functional_ && step.post_fixup) step.post_fixup(*spaces_[core]);
  maybe_os_switch(ce, core);
  ce.accel_started = false;
  ++ce.step;
  return ce.done() ? kCycleMax : ce.t;
}

CoreResult Soc::run(const WorkStream& stream) {
  auto results = run_parallel({&stream});
  return results.front();
}

std::vector<CoreResult> Soc::run_parallel(
    const std::vector<const WorkStream*>& streams) {
  GEMMINI_CHECK_MSG(streams.size() <= cfg_.cores,
                    "more streams than cores");
  std::vector<CoreExec> execs(streams.size());
  std::vector<Cycle> next_event(streams.size(), 0);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    execs[i].stream = streams[i];
    execs[i].next_os_switch = cfg_.os.period_cycles;
  }
  // Every count below this run's report starts from zero.
  mem_.reset_stats();
  ptw_.reset_stats();
  for (auto& a : accels_) a->reset_stats();
  if (metrics_) metrics_->begin_run();

  // Event-merge loop: always advance the core with the earliest next event.
  while (true) {
    std::size_t best = streams.size();
    Cycle best_t = kCycleMax;
    for (std::size_t i = 0; i < execs.size(); ++i) {
      if (execs[i].done()) continue;
      if (next_event[i] <= best_t) {
        best_t = next_event[i];
        best = i;
      }
    }
    if (best == streams.size()) break;
    // Watchdog: a hang (livelocked hazards, a pathological config) shows up
    // as simulated time racing past the budget. Throw a structured error
    // naming where the run was instead of spinning forever.
    if (cfg_.max_cycles != 0 && best_t != kCycleMax &&
        best_t > cfg_.max_cycles) {
      const CoreExec& ce = execs[best];
      const WorkStep& step = ce.stream->steps[ce.step];
      if (obs_.trace) obs_.trace->clear_context();
      throw WatchdogError(cfg_.name, cfg_.max_cycles, best_t,
                          static_cast<unsigned>(best), step.layer, step.tag,
                          ce.step, ce.stream->steps.size());
    }
    // Close any sampler windows the frontier has passed before issuing the
    // work that starts at best_t; the frontier is non-decreasing, so window
    // attribution is deterministic.
    if (metrics_ && metrics_->sampler().due(best_t)) {
      publish_metrics();
      metrics_->advance_to(best_t);
    }
    next_event[best] = advance(execs[best], static_cast<unsigned>(best));
  }

  // Flush any writebacks still buffered in the DRAM controller's write
  // queues. Their completion feeds back into nothing (cores are done), but
  // issuing them closes the accounting: every request that entered the
  // controller during this run is counted in its per-requestor and
  // per-channel statistics.
  mem_.dram().drain_writes();

  std::vector<CoreResult> results;
  results.reserve(execs.size());
  Cycle soc_finish = 0;
  for (std::size_t i = 0; i < execs.size(); ++i) {
    execs[i].result.finish =
        std::max(execs[i].t, accels_[i]->frontier());
    soc_finish = std::max(soc_finish, execs[i].result.finish);
    execs[i].result.accel = accels_[i]->report();
    results.push_back(std::move(execs[i].result));
  }
  // The final (partial) sampler window closes after drain_writes() above,
  // so every counter's timeline sums exactly to its end-of-run total.
  if (metrics_) {
    publish_metrics();
    metrics_->finish_run(soc_finish);
  }
  if (obs_.trace) obs_.trace->clear_context();
  return results;
}

void Soc::reset_time() {
  mem_.reset_time();
  ptw_.reset_time();
  for (auto& a : accels_) a->reset_time();
  // Re-seed the fault streams so repeated runs of one Session draw the same
  // fault sequence (campaign repeatability).
  if (injector_) injector_->reset();
}

void Soc::reset_all() {
  reset_time();
  mem_.reset_all();
  ptw_.flush();
  for (auto& a : accels_) a->translation().flush();
}

}  // namespace gemmini
