#pragma once
// sim::Report — the one result shape of the unified simulation facade:
//
//   * headline numbers (cycles, seconds, FPS, CPU-baseline speedup),
//   * the per-layer-tag cycle breakdown (the Fig. 9 accounting),
//   * one CoreReport per core (per-core tags, accelerator counters, TLB
//     rates),
//   * substrate statistics of the shared memory system (L2 miss rate),
//   * the synthesis-substitute estimates (area / fmax / power),
//   * and the optional LLM, bottleneck, reliability, serving, metrics and
//     energy sections.
//
// Reports compare bitwise (`operator==` is defaulted member-wise) and
// serialize to deterministic JSON — two properties the parallel-sweep driver
// leans on: a sweep is correct iff its reports are byte-identical to the
// serial run's. The JSON comes from one field list per struct in report.cc,
// so a new field is a member here plus one line in its struct's list there.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/accel/accelerator.h"
#include "src/base/types.h"
#include "src/estimate/area_model.h"
#include "src/fault/fault.h"
#include "src/metrics/metrics.h"
#include "src/trace/bottleneck.h"
#include "src/trace/perfetto.h"

namespace gemmini::sim {

/// Result of one core's stream: timing, tag breakdown, accelerator counters
/// and that core's private translation statistics.
struct CoreReport {
  unsigned core = 0;
  Cycle cycles = 0;      ///< this core's completion time
  Cycle cpu_cycles = 0;  ///< CPU-resident share (im2col, special, dispatch)
  std::map<std::string, Cycle> cycles_by_tag;
  AccelReport accel;
  double array_utilization = 0;
  double private_tlb_hit_rate = 0;
  /// Counting filter-register hits as private hits (paper §V-A).
  double effective_private_tlb_hit_rate = 0;

  friend bool operator==(const CoreReport&, const CoreReport&) = default;
};

/// The synthesis-flow substitutes, evaluated for the session's accelerator.
struct Estimates {
  AreaBreakdown area;
  double fmax_ghz = 0;
  double power_mw = 0;
  bool meets_timing = false;

  friend bool operator==(const Estimates&, const Estimates&) = default;
};

/// One requestor's share of the shared substrate: bytes moved and wait
/// cycles eaten on each bus, and DRAM row-buffer behaviour. Requestor ids
/// 0..cores-1 are the per-core accelerator DMAs; 100 is the shared PTW.
struct RequestorTraffic {
  int requestor = -1;
  std::uint64_t sysbus_bytes = 0;
  std::uint64_t sysbus_wait_cycles = 0;
  std::uint64_t membus_bytes = 0;
  std::uint64_t membus_wait_cycles = 0;
  std::uint64_t dram_bytes = 0;
  std::uint64_t dram_row_hits = 0;
  std::uint64_t dram_row_misses = 0;
  /// Per-DRAM-channel byte split, indexed by channel; sums to `dram_bytes`.
  std::vector<std::uint64_t> dram_channel_bytes;

  friend bool operator==(const RequestorTraffic&, const RequestorTraffic&) =
      default;
};

/// One DRAM channel's controller statistics for the run: traffic, row-buffer
/// behaviour, and the new scheduling-visible states (refresh stalls, queue
/// waits, forced write drains).
struct DramChannelTraffic {
  unsigned channel = 0;
  std::uint64_t accesses = 0;
  std::uint64_t bytes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t refresh_stall_cycles = 0;
  std::uint64_t queue_wait_cycles = 0;
  std::uint64_t write_drains = 0;
  std::uint64_t writes_buffered = 0;
  /// Time-weighted request-queue depth (gemmini::TimeWeighted; observational).
  double avg_queue_depth = 0;
  double max_queue_depth = 0;

  friend bool operator==(const DramChannelTraffic&, const DramChannelTraffic&) =
      default;
};

/// Shared-substrate statistics (one memory system per SoC, however many
/// cores run on it).
struct SubstrateStats {
  double l2_miss_rate = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  /// Aggregate DRAM row-buffer hit rate over every channel (hits /
  /// (hits + misses); 0 when DRAM was never touched). The one-number
  /// compute- vs memory-boundedness signal for decode workloads.
  double dram_row_hit_rate = 0;
  /// Who actually used the substrate, sorted by requestor id — the raw
  /// material of the Fig. 9 contention story.
  std::vector<RequestorTraffic> per_requestor;
  /// One entry per DRAM channel, indexed by channel id.
  std::vector<DramChannelTraffic> dram_channels;

  friend bool operator==(const SubstrateStats&, const SubstrateStats&) =
      default;
};

/// Reliability section of a Report: injection counters for the run (or,
/// for campaigns, summed over the campaign) plus the campaign's outcome
/// classification against the fault-free golden run.
struct ReliabilityReport {
  bool enabled = false;       ///< fault layer active for this report
  std::uint64_t seed = 0;     ///< campaign base seed
  fault::FaultStats injection;

  // Campaign classification (campaign_runs == 0 for plain faulty runs).
  unsigned campaign_runs = 0;
  unsigned masked = 0;     ///< output matched golden, nothing corrected
  unsigned corrected = 0;  ///< output matched golden thanks to ECC
  unsigned detected = 0;   ///< run threw, or mismatch flagged by ECC
  unsigned sdc = 0;        ///< silent data corruption: mismatch, no flag
  double sdc_rate = 0;
  double detection_rate = 0;  ///< (corrected+detected)/runs among faulty
  Cycle golden_cycles = 0;    ///< fault-free reference run
  /// Per-run outcome, in run order ("masked"/"corrected"/"detected"/"sdc").
  std::vector<std::string> run_outcomes;

  friend bool operator==(const ReliabilityReport&, const ReliabilityReport&) =
      default;
};

/// Per-layer compute-vs-traffic profile: useful MACs per byte of modeled
/// DRAM traffic. Populated from the compile plan for graph-IR runs and
/// from the workload generator's accounting for LLM decode runs, so
/// compute- vs memory-boundedness is visible without exporting a trace.
struct LayerIntensity {
  std::string name;
  std::uint64_t macs = 0;
  std::uint64_t dram_bytes = 0;  ///< modeled DMA traffic of the layer
  double macs_per_byte = 0;      ///< 0 when the layer moves no DRAM bytes

  friend bool operator==(const LayerIntensity&, const LayerIntensity&) =
      default;
};

/// LLM decode section of a Report — filled only by llm::run_decode (the
/// `enabled` flag is false and the section all-zero otherwise).
struct LlmStats {
  bool enabled = false;
  std::string kv_layout;  ///< "head-major" / "token-major"
  unsigned batch = 0;
  unsigned layers = 0;
  unsigned heads = 0;
  std::uint64_t hidden = 0;
  std::uint64_t prompt_tokens = 0;  ///< prefill length per batch element
  std::uint64_t decode_steps = 0;   ///< autoregressive steps per element
  std::uint64_t tokens = 0;         ///< generated tokens = steps * batch
  Cycle prefill_cycles = 0;  ///< cycles tagged "prefill"
  Cycle decode_cycles = 0;   ///< cycles tagged "decode"
  double cycles_per_token = 0;  ///< decode_cycles / tokens (warm rate)
  std::uint64_t kv_cache_bytes = 0;  ///< DRAM-resident KV footprint
  std::uint64_t weight_bytes = 0;    ///< packed weight footprint
  bool int4_weights = false;

  friend bool operator==(const LlmStats&, const LlmStats&) = default;
};

/// Per-request-class slice of a serving run (one class = one zoo model with
/// a weight and a deadline; see serve::RequestClass).
struct ServeClassStats {
  std::string name;
  std::uint64_t offered = 0;    ///< arrivals of this class
  std::uint64_t shed = 0;       ///< rejected at admission (queue full)
  std::uint64_t completed = 0;  ///< finished with an ok response
  std::uint64_t errors = 0;     ///< finished with an error response (faults)
  std::uint64_t deadline_misses = 0;  ///< completed-ok past their deadline
  Cycle p50 = 0, p95 = 0, p99 = 0, p999 = 0, max_latency = 0;
  double mean_latency = 0;

  // Decode classes only: completed tokens and exact per-token latency
  // percentiles (request latency / its token count, over ok responses).
  std::uint64_t tokens = 0;
  Cycle p50_per_token = 0, p95_per_token = 0, p99_per_token = 0;
  double mean_per_token = 0;

  friend bool operator==(const ServeClassStats&, const ServeClassStats&) =
      default;
};

/// One request's lifecycle through the serving layer: admit -> queue ->
/// dispatch -> run -> complete, with the deadline verdict. Recorded for
/// every offered request (shed requests carry `shed = true` and collapse
/// dispatch/complete onto the arrival time). The raw material for the
/// Perfetto request tracks (serve::request_trace_json).
struct RequestSpan {
  std::uint64_t id = 0;
  unsigned cls = 0;  ///< index into ServerStats::per_class
  Cycle arrival = 0;
  Cycle dispatch = 0;  ///< start of the completing dispatch
  Cycle complete = 0;
  unsigned core = 0;  ///< core that completed it (0 for shed)
  unsigned preemptions = 0;
  bool shed = false;
  bool ok = true;
  bool deadline_miss = false;

  friend bool operator==(const RequestSpan&, const RequestSpan&) = default;
};

/// Serving section of a Report — filled only by serve::Server runs (the
/// `enabled` flag is false and the section all-zero otherwise). Latency
/// percentiles are exact (nearest-rank over every stored sample), queue
/// depth is time-weighted over the admission queue, and goodput counts only
/// in-deadline ok responses. All times are simulated cycles.
struct ServerStats {
  bool enabled = false;
  std::string policy;             ///< "fifo" / "edf" / "batchN"
  std::string arrival;            ///< "poisson" / "fixed" / "trace"
  double offered_per_mcycle = 0;  ///< configured (or measured) arrival rate
  std::uint64_t offered = 0;      ///< total arrivals
  std::uint64_t admitted = 0;     ///< offered - shed
  std::uint64_t shed = 0;         ///< rejected at admission
  std::uint64_t completed = 0;    ///< ok responses
  std::uint64_t errors = 0;       ///< error responses (fault-layer aborts)
  std::uint64_t deadline_misses = 0;
  std::uint64_t good = 0;         ///< ok responses inside their deadline
  double goodput_per_mcycle = 0;  ///< good / makespan
  std::uint64_t preemptions = 0;
  std::uint64_t context_switches = 0;  ///< OS switch costs charged
  std::uint64_t batches = 0;           ///< dispatches with > 1 request
  Cycle makespan = 0;             ///< last completion time

  /// Decode tokens completed across every class (0 for non-decode mixes).
  std::uint64_t tokens = 0;

  // Exact end-to-end latency percentiles over ok responses (arrival ->
  // completion, queueing included).
  Cycle p50 = 0, p95 = 0, p99 = 0, p999 = 0, max_latency = 0;
  double mean_latency = 0;

  // Time-weighted admission-queue depth over the run.
  double avg_queue_depth = 0;
  double max_queue_depth = 0;

  std::vector<ServeClassStats> per_class;

  /// Bottleneck attribution for the first deadline-missing request's model,
  /// captured through a traced re-run (serve::ServeSpec::trace_missed).
  std::vector<trace::LayerBottleneck> miss_bottlenecks;

  /// Per-request lifecycle spans, in request-id (arrival) order.
  std::vector<RequestSpan> spans;

  friend bool operator==(const ServerStats&, const ServerStats&) = default;
};

/// One histogram's summary in a Report: log2 buckets (bucket 0 = zeros,
/// bucket i = values of bit width i, last = overflow) plus the moments.
struct HistogramReport {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;

  friend bool operator==(const HistogramReport&, const HistogramReport&) =
      default;
};

/// Metrics section of a Report — the end-of-run registry totals plus, when
/// the sampler was armed, the cycle-windowed timelines. Invariants the
/// tests and bench gate on: for every counter timeline, the element sum
/// equals the counter's total exactly; for every gauge timeline, the last
/// sample equals the gauge's final value.
struct MetricsReport {
  bool enabled = false;
  Cycle sample_interval = 0;  ///< 0 = sampler off (totals only)
  std::uint64_t windows = 0;  ///< samples per timeline (incl. final partial)
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramReport> histograms;
  /// Per-window counter deltas (length == windows).
  std::map<std::string, std::vector<std::uint64_t>> counter_timelines;
  /// Gauge value at each window boundary (length == windows).
  std::map<std::string, std::vector<double>> gauge_timelines;

  friend bool operator==(const MetricsReport&, const MetricsReport&) =
      default;
};

/// Energy section of a Report — command-level DRAM energy plus exec / DMA /
/// SRAM activity energy and static power, all in integer femtojoules derived
/// bit-exactly from end-of-run registry counters (src/energy/energy.h).
/// Invariants the tests and bench gate on: the per-kind DRAM split sums to
/// the per-channel split (both count every command once); when the sampler
/// was armed, `window_fj` sums exactly to `total_fj`.
struct EnergyReport {
  bool enabled = false;

  // DRAM, split by command kind and (in parallel) by channel.
  std::uint64_t dram_act_fj = 0;
  std::uint64_t dram_pre_fj = 0;
  std::uint64_t dram_rd_fj = 0;
  std::uint64_t dram_wr_fj = 0;
  std::uint64_t dram_ref_fj = 0;
  std::uint64_t dram_io_fj = 0;
  std::uint64_t dram_fj = 0;  ///< sum of the six kinds above
  std::vector<std::uint64_t> dram_channel_fj;  ///< indexed by channel

  // Accelerator-side activity energy.
  std::uint64_t exec_fj = 0;  ///< spatial-array MACs
  std::uint64_t dma_fj = 0;   ///< DMA bytes streamed
  std::uint64_t sp_fj = 0;    ///< scratchpad rows touched
  std::uint64_t acc_fj = 0;   ///< accumulator rows touched
  std::vector<std::uint64_t> core_fj;  ///< per-core exec+dma+sp+acc

  std::uint64_t static_fj = 0;  ///< static rate x run cycles
  std::uint64_t total_fj = 0;   ///< dram + exec + dma + sp + acc + static

  // Derived headline numbers.
  double total_j = 0;
  double avg_power_watts = 0;      ///< 0 on zero-cycle runs
  double edp_joule_seconds = 0;    ///< total_j * seconds
  double energy_per_token_pj = 0;  ///< llm runs only (total / tokens)

  // Power-over-time: per-sampler-window energy and mean watts (empty when
  // the metrics sampler was off). The last window may span fewer cycles.
  Cycle sample_interval = 0;
  std::vector<std::uint64_t> window_fj;
  std::vector<double> window_watts;

  friend bool operator==(const EnergyReport&, const EnergyReport&) = default;
};

/// End-to-end result of one experiment (one model on one SoC config).
struct Report {
  /// Sweep-point label ("" for direct Session runs).
  std::string point;
  /// "ok", or "error" for a fail-soft sweep point that threw; `error` then
  /// carries the exception message and the rest of the report is empty.
  std::string status = "ok";
  std::string error;
  std::string config;  ///< SocConfig::name
  std::string model;   ///< Model::name()
  unsigned cores = 0;  ///< cores that actually ran a stream

  // Headline numbers. For multi-core runs `cycles` is the completion of the
  // slowest core (SoC-level finish).
  Cycle cycles = 0;
  double seconds = 0;  ///< at the configured accelerator clock
  double fps = 0;      ///< inferences per second (per core)
  Cycle cpu_baseline = 0;  ///< same model, host CPU only
  double speedup = 0;      ///< baseline / accelerated
  double array_utilization = 0;  ///< core 0 (single-core headline)

  /// Summed over cores — the Fig. 9 per-layer-type accounting.
  std::map<std::string, Cycle> cycles_by_tag;

  /// Per-layer arithmetic intensity (MACs / modeled DRAM byte), in layer
  /// order. Empty for workloads without per-layer accounting.
  std::vector<LayerIntensity> layer_intensity;

  std::vector<CoreReport> per_core;
  SubstrateStats substrate;
  Estimates estimates;

  /// LLM decode statistics; `enabled` is false (and the section all-zero)
  /// for non-decode runs.
  LlmStats llm;

  /// Per-layer bottleneck attribution for core 0 — populated only when the
  /// session was built with tracing (Session::Builder::trace). Empty
  /// otherwise. For traced multicore runs, other cores' attribution is
  /// available via Session::bottlenecks(core).
  std::vector<trace::LayerBottleneck> bottlenecks;
  /// Trace ring-buffer overflow during this run (0 = complete trace).
  std::uint64_t trace_dropped_events = 0;

  /// Fault-injection counters and campaign classification; `enabled` is
  /// false (and the section all-zero) for fault-free runs.
  ReliabilityReport reliability;

  /// Serving-layer statistics; `enabled` is false (and the section
  /// all-zero) for single-inference runs.
  ServerStats server;

  /// Telemetry section; `enabled` is false (and the section empty) unless
  /// the session/server was built with metrics.
  MetricsReport metrics;

  /// Energy section; `enabled` is false (and the section all-zero) unless
  /// the session was built with an active energy config.
  EnergyReport energy;

  friend bool operator==(const Report&, const Report&) = default;

  /// Deterministic JSON (stable key order, round-trippable doubles). Two
  /// equal reports always produce byte-identical JSON.
  std::string to_json(int indent = 0) const;
};

/// Serializes a whole sweep: a JSON array of reports, in point order.
std::string reports_to_json(const std::vector<Report>& reports,
                            int indent = 0);

/// The metrics section alone, serialized exactly as it appears inside
/// Report::to_json (deterministic). Lets tests and bench compare merged
/// telemetry without dragging the whole report along.
std::string metrics_to_json(const MetricsReport& m, int indent = 0);

/// Snapshots a live metrics collector into the Report shape: registry
/// totals plus the sampler's timelines (empty when sampling is off).
MetricsReport snapshot_metrics(const metrics::Metrics& m);

/// The sampled timelines of `m` as Perfetto counter tracks: counters, then
/// gauges, each in name order. Empty when the sampler was off.
std::vector<trace::CounterTrack> counter_tracks(const MetricsReport& m);

/// Deterministic accumulate of the metrics sections of `reports`, in point
/// order: counters, histograms and counter timelines sum (timelines
/// element-wise, zero-padded to the longest); gauges and gauge timelines
/// take the element-wise max. Byte-identical output however many worker
/// threads produced the reports, because point order is thread-invariant.
MetricsReport merge_metrics(const std::vector<Report>& reports);

}  // namespace gemmini::sim
