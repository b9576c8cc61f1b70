#include "src/sim/report.h"

#include <algorithm>
#include <type_traits>

#include "src/sim/json_writer.h"

namespace gemmini::sim {

namespace {

using detail::JsonWriter;

// Field lists: each names its struct's serialized members once, in JSON
// order, which for Report and ReliabilityReport is not member order.
// AccelReport::tiles is left out: the core<N>.exec.tiles counter exports it.

template <typename F> void fields(const AccelReport& a, F&& f) {
  f("finish", a.finish);
  f("instructions", a.instructions);
  f("macs", a.macs);
  f("load_busy", a.load_busy);
  f("exec_busy", a.exec_busy);
  f("store_busy", a.store_busy);
}

template <typename F> void fields(const CoreReport& c, F&& f) {
  f("core", c.core);
  f("cycles", c.cycles);
  f("cpu_cycles", c.cpu_cycles);
  f("cycles_by_tag", c.cycles_by_tag);
  f("accel", c.accel);
  f("array_utilization", c.array_utilization);
  f("private_tlb_hit_rate", c.private_tlb_hit_rate);
  f("effective_private_tlb_hit_rate", c.effective_private_tlb_hit_rate);
}

template <typename F> void fields(const AreaBreakdown& a, F&& f) {
  f("spatial_array", a.spatial_array_um2);
  f("scratchpad", a.scratchpad_um2);
  f("accumulator", a.accumulator_um2);
  f("peripherals", a.peripherals_um2);
  f("uncore", a.uncore_um2);
  f("host_cpu", a.host_cpu_um2);
  f("total", a.total_um2);
}

template <typename F> void fields(const Estimates& e, F&& f) {
  f("area_um2", e.area);
  f("fmax_ghz", e.fmax_ghz);
  f("power_mw", e.power_mw);
  f("meets_timing", e.meets_timing);
}

template <typename F> void fields(const RequestorTraffic& r, F&& f) {
  f("requestor", r.requestor);
  f("sysbus_bytes", r.sysbus_bytes);
  f("sysbus_wait_cycles", r.sysbus_wait_cycles);
  f("membus_bytes", r.membus_bytes);
  f("membus_wait_cycles", r.membus_wait_cycles);
  f("dram_bytes", r.dram_bytes);
  f("dram_row_hits", r.dram_row_hits);
  f("dram_row_misses", r.dram_row_misses);
  f("dram_channel_bytes", r.dram_channel_bytes);
}

template <typename F> void fields(const DramChannelTraffic& c, F&& f) {
  f("channel", c.channel);
  f("accesses", c.accesses);
  f("bytes", c.bytes);
  f("row_hits", c.row_hits);
  f("row_misses", c.row_misses);
  f("refresh_stall_cycles", c.refresh_stall_cycles);
  f("queue_wait_cycles", c.queue_wait_cycles);
  f("write_drains", c.write_drains);
  f("writes_buffered", c.writes_buffered);
  f("avg_queue_depth", c.avg_queue_depth);
  f("max_queue_depth", c.max_queue_depth);
}

template <typename F> void fields(const SubstrateStats& s, F&& f) {
  f("l2_miss_rate", s.l2_miss_rate);
  f("l2_hits", s.l2_hits);
  f("l2_misses", s.l2_misses);
  f("dram_row_hit_rate", s.dram_row_hit_rate);
  f("per_requestor", s.per_requestor);
  f("dram_channels", s.dram_channels);
}

template <typename F> void fields(const fault::FaultStats& s, F&& f) {
  f("dram_read_flips", s.dram_read_flips);
  f("ecc_corrected", s.ecc_corrected);
  f("ecc_detected_uncorrectable", s.ecc_detected_uncorrectable);
  f("silent_flips", s.silent_flips);
  f("ecc_correction_cycles", s.ecc_correction_cycles);
  f("sp_flips", s.sp_flips);
  f("acc_flips", s.acc_flips);
  f("translation_faults", s.translation_faults);
  f("translation_fault_cycles", s.translation_fault_cycles);
  f("dma_timeouts", s.dma_timeouts);
  f("dma_retries", s.dma_retries);
  f("dma_retry_cycles", s.dma_retry_cycles);
  f("dma_aborts", s.dma_aborts);
  f("exec_tile_errors", s.exec_tile_errors);
}

template <typename F> void fields(const ReliabilityReport& r, F&& f) {
  f("enabled", r.enabled);
  f("seed", r.seed);
  f("campaign_runs", r.campaign_runs);
  f("masked", r.masked);
  f("corrected", r.corrected);
  f("detected", r.detected);
  f("sdc", r.sdc);
  f("sdc_rate", r.sdc_rate);
  f("detection_rate", r.detection_rate);
  f("golden_cycles", r.golden_cycles);
  f("run_outcomes", r.run_outcomes);
  f("injection", r.injection);
}

template <typename F> void fields(const LayerIntensity& l, F&& f) {
  f("name", l.name);
  f("macs", l.macs);
  f("dram_bytes", l.dram_bytes);
  f("macs_per_byte", l.macs_per_byte);
}

template <typename F> void fields(const LlmStats& l, F&& f) {
  f("enabled", l.enabled);
  f("kv_layout", l.kv_layout);
  f("batch", l.batch);
  f("layers", l.layers);
  f("heads", l.heads);
  f("hidden", l.hidden);
  f("prompt_tokens", l.prompt_tokens);
  f("decode_steps", l.decode_steps);
  f("tokens", l.tokens);
  f("prefill_cycles", l.prefill_cycles);
  f("decode_cycles", l.decode_cycles);
  f("cycles_per_token", l.cycles_per_token);
  f("kv_cache_bytes", l.kv_cache_bytes);
  f("weight_bytes", l.weight_bytes);
  f("int4_weights", l.int4_weights);
}

template <typename F> void fields(const trace::LayerBottleneck& l, F&& f) {
  f("layer", l.layer);
  f("name", l.name);
  f("kind", l.kind);
  f("tag", l.tag);
  f("span", l.span);
  f("cpu", l.cpu);
  f("compute", l.compute);
  f("translation", l.translation);
  f("dram", l.dram);
  f("bus_wait", l.bus_wait);
  f("dma", l.dma);
  f("other", l.other);
  f("macs", l.macs);
  f("dma_bytes", l.dma_bytes);
  f("measured_macs_per_cycle", l.measured_macs_per_cycle);
  f("attainable_macs_per_cycle", l.attainable_macs_per_cycle);
  f("memory_bound", l.memory_bound);
}

template <typename F> void fields(const ServeClassStats& c, F&& f) {
  f("name", c.name);
  f("offered", c.offered);
  f("shed", c.shed);
  f("completed", c.completed);
  f("errors", c.errors);
  f("deadline_misses", c.deadline_misses);
  f("p50", c.p50);
  f("p95", c.p95);
  f("p99", c.p99);
  f("p999", c.p999);
  f("max_latency", c.max_latency);
  f("mean_latency", c.mean_latency);
  f("tokens", c.tokens);
  f("p50_per_token", c.p50_per_token);
  f("p95_per_token", c.p95_per_token);
  f("p99_per_token", c.p99_per_token);
  f("mean_per_token", c.mean_per_token);
}

template <typename F> void fields(const RequestSpan& s, F&& f) {
  f("id", s.id);
  f("class", s.cls);
  f("arrival", s.arrival);
  f("dispatch", s.dispatch);
  f("complete", s.complete);
  f("core", s.core);
  f("preemptions", s.preemptions);
  f("shed", s.shed);
  f("ok", s.ok);
  f("deadline_miss", s.deadline_miss);
}

template <typename F> void fields(const ServerStats& s, F&& f) {
  f("enabled", s.enabled);
  f("policy", s.policy);
  f("arrival", s.arrival);
  f("offered_per_mcycle", s.offered_per_mcycle);
  f("offered", s.offered);
  f("admitted", s.admitted);
  f("shed", s.shed);
  f("completed", s.completed);
  f("errors", s.errors);
  f("deadline_misses", s.deadline_misses);
  f("good", s.good);
  f("goodput_per_mcycle", s.goodput_per_mcycle);
  f("preemptions", s.preemptions);
  f("context_switches", s.context_switches);
  f("batches", s.batches);
  f("makespan", s.makespan);
  f("tokens", s.tokens);
  f("p50", s.p50);
  f("p95", s.p95);
  f("p99", s.p99);
  f("p999", s.p999);
  f("max_latency", s.max_latency);
  f("mean_latency", s.mean_latency);
  f("avg_queue_depth", s.avg_queue_depth);
  f("max_queue_depth", s.max_queue_depth);
  f("per_class", s.per_class);
  f("miss_bottlenecks", s.miss_bottlenecks);
  f("spans", s.spans);
}

template <typename F> void fields(const HistogramReport& h, F&& f) {
  f("count", h.count);
  f("sum", h.sum);
  f("min", h.min);
  f("max", h.max);
  f("buckets", h.buckets);
}

template <typename F> void fields(const MetricsReport& m, F&& f) {
  f("enabled", m.enabled);
  f("sample_interval", m.sample_interval);
  f("windows", m.windows);
  f("counters", m.counters);
  f("gauges", m.gauges);
  f("histograms", m.histograms);
  f("counter_timelines", m.counter_timelines);
  f("gauge_timelines", m.gauge_timelines);
}

template <typename F> void fields(const EnergyReport& e, F&& f) {
  f("enabled", e.enabled);
  f("dram_act_fj", e.dram_act_fj);
  f("dram_pre_fj", e.dram_pre_fj);
  f("dram_rd_fj", e.dram_rd_fj);
  f("dram_wr_fj", e.dram_wr_fj);
  f("dram_ref_fj", e.dram_ref_fj);
  f("dram_io_fj", e.dram_io_fj);
  f("dram_fj", e.dram_fj);
  f("dram_channel_fj", e.dram_channel_fj);
  f("exec_fj", e.exec_fj);
  f("dma_fj", e.dma_fj);
  f("sp_fj", e.sp_fj);
  f("acc_fj", e.acc_fj);
  f("core_fj", e.core_fj);
  f("static_fj", e.static_fj);
  f("total_fj", e.total_fj);
  f("total_j", e.total_j);
  f("avg_power_watts", e.avg_power_watts);
  f("edp_joule_seconds", e.edp_joule_seconds);
  f("energy_per_token_pj", e.energy_per_token_pj);
  f("sample_interval", e.sample_interval);
  f("window_fj", e.window_fj);
  f("window_watts", e.window_watts);
}

template <typename F> void fields(const Report& r, F&& f) {
  f("point", r.point);
  f("status", r.status);
  f("error", r.error);
  f("config", r.config);
  f("model", r.model);
  f("cores", r.cores);
  f("cycles", r.cycles);
  f("seconds", r.seconds);
  f("fps", r.fps);
  f("cpu_baseline", r.cpu_baseline);
  f("speedup", r.speedup);
  f("array_utilization", r.array_utilization);
  f("cycles_by_tag", r.cycles_by_tag);
  f("layer_intensity", r.layer_intensity);
  f("per_core", r.per_core);
  f("substrate", r.substrate);
  f("bottlenecks", r.bottlenecks);
  f("trace_dropped_events", r.trace_dropped_events);
  f("reliability", r.reliability);
  f("llm", r.llm);
  f("server", r.server);
  f("metrics", r.metrics);
  f("energy", r.energy);
  f("estimates", r.estimates);
}

// Scalars as JsonWriter formats them (every integer as uint64_t), maps as
// objects in key order, vectors as arrays, structs as their field list.
template <typename T>
void write(JsonWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                std::is_same_v<T, std::string>) {
    w.value(v);
  } else if constexpr (std::is_integral_v<T>) {
    w.value(static_cast<std::uint64_t>(v));
  } else if constexpr (requires { typename T::mapped_type; }) {
    w.begin_object();
    for (const auto& [key, e] : v) {
      w.key(key.c_str());
      write(w, e);
    }
    w.end_object();
  } else if constexpr (requires { typename T::value_type; }) {
    w.begin_array();
    for (const auto& e : v) write(w, e);
    w.end_array();
  } else {
    w.begin_object();
    fields(v, [&w](const char* key, const auto& field) {
      w.key(key);
      write(w, field);
    });
    w.end_object();
  }
}

}  // namespace

std::string Report::to_json(int indent) const {
  JsonWriter w(indent);
  write(w, *this);
  return w.str();
}

std::string reports_to_json(const std::vector<Report>& reports, int indent) {
  JsonWriter w(indent);
  write(w, reports);
  return w.str();
}

std::string metrics_to_json(const MetricsReport& m, int indent) {
  JsonWriter w(indent);
  write(w, m);
  return w.str();
}

MetricsReport snapshot_metrics(const metrics::Metrics& m) {
  MetricsReport out;
  out.enabled = true;
  out.sample_interval = m.config().sample_interval_cycles;
  const metrics::Registry& reg = m.registry();
  for (const auto& [name, c] : reg.counters()) out.counters[name] = c.value();
  for (const auto& [name, g] : reg.gauges()) out.gauges[name] = g.value();
  for (const auto& [name, h] : reg.histograms()) {
    HistogramReport hr;
    hr.count = h.count();
    hr.sum = h.sum();
    hr.min = h.min();
    hr.max = h.max();
    hr.buckets = h.buckets();
    out.histograms[name] = std::move(hr);
  }
  const metrics::TimeSeriesSampler& s = m.sampler();
  out.windows = s.windows();
  for (const auto& [name, cs] : s.counter_series()) {
    out.counter_timelines[name] = cs.deltas;
  }
  for (const auto& [name, gs] : s.gauge_series()) {
    out.gauge_timelines[name] = gs;
  }
  return out;
}

std::vector<trace::CounterTrack> counter_tracks(const MetricsReport& m) {
  std::vector<trace::CounterTrack> out;
  if (!m.enabled || m.sample_interval == 0) return out;
  for (const auto& [name, tl] : m.counter_timelines) {
    out.push_back({name, m.sample_interval, {tl.begin(), tl.end()}});
  }
  for (const auto& [name, tl] : m.gauge_timelines) {
    out.push_back({name, m.sample_interval, tl});
  }
  return out;
}

MetricsReport merge_metrics(const std::vector<Report>& reports) {
  MetricsReport out;
  for (const Report& r : reports) {
    const MetricsReport& m = r.metrics;
    if (!m.enabled) continue;
    out.enabled = true;
    if (out.sample_interval == 0) out.sample_interval = m.sample_interval;
    out.windows = std::max(out.windows, m.windows);
    for (const auto& [name, v] : m.counters) out.counters[name] += v;
    for (const auto& [name, v] : m.gauges) {
      auto [it, inserted] = out.gauges.try_emplace(name, v);
      if (!inserted) it->second = std::max(it->second, v);
    }
    for (const auto& [name, h] : m.histograms) {
      HistogramReport& acc = out.histograms[name];
      if (acc.count == 0) {
        acc.min = h.min;
        acc.max = h.max;
      } else if (h.count > 0) {
        acc.min = std::min(acc.min, h.min);
        acc.max = std::max(acc.max, h.max);
      }
      acc.count += h.count;
      acc.sum += h.sum;
      if (acc.buckets.size() < h.buckets.size()) {
        acc.buckets.resize(h.buckets.size(), 0);
      }
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        acc.buckets[i] += h.buckets[i];
      }
    }
    for (const auto& [name, tl] : m.counter_timelines) {
      auto& acc = out.counter_timelines[name];
      if (acc.size() < tl.size()) acc.resize(tl.size(), 0);
      for (std::size_t i = 0; i < tl.size(); ++i) acc[i] += tl[i];
    }
    for (const auto& [name, tl] : m.gauge_timelines) {
      auto& acc = out.gauge_timelines[name];
      if (acc.size() < tl.size()) acc.resize(tl.size(), 0.0);
      for (std::size_t i = 0; i < tl.size(); ++i) {
        acc[i] = std::max(acc[i], tl[i]);
      }
    }
  }
  return out;
}

}  // namespace gemmini::sim
