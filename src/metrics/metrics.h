#pragma once
// metrics:: — the metric registry and cycle-windowed time-series sampler.
//
// The registry is a view, not a second set of counts. Timed components count
// each event once into their own typed `Stats` structs and know nothing of
// metrics; only the Soc holds a (possibly null) `metrics::Metrics*`. Just
// before each sampler snapshot and at the end of a run the Soc writes the
// published names ("dram.ch<N>.*", "sysbus.*", "l2.*", "core<N>.tlb.*", the
// queue-depth gauges, ...) from those structs into the registry. The
// serving layer does the same with its own collector: serve::Server
// publishes "serve.*" from its ServerStats. A null
// pointer means "metrics off" and costs the run nothing — golden cycle
// counts are bit-identical either way, because metrics (like tracing) are
// observational: they never feed back into timing decisions.
//
// Three instrument kinds:
//  * Counter   — monotone uint64 (bytes moved, MACs retired, row hits);
//    published counters are `set` to the component's running total.
//  * Gauge     — last-written double (queue depth, KV-cache footprint).
//  * Histogram — log2-bucketed uint64 samples (per-step cycle costs).
//    Bucket 0 holds zeros; bucket i (1 <= i <= n-2) holds values whose
//    bit width is i, i.e. [2^(i-1), 2^i - 1]; the last bucket is the
//    overflow bucket for everything wider.
//
// The TimeSeriesSampler turns the registry into deterministic timelines:
// every `sample_interval_cycles` it snapshots all counters (recording the
// per-window *delta*) and all gauges (recording the current value).
// `finish()` closes one final partial window, so for every counter
// `sum(deltas) == counter.value()` exactly — the reconciliation invariant
// bench --metrics and the unit tests gate on. Metrics registered mid-run
// (per-requestor counters, published once a requestor first appears) are
// zero-padded back to window 0.
//
// Determinism: the registry is std::map-backed, so iteration order (and
// therefore every exported timeline, JSON section and OpenMetrics document)
// is name-ordered and independent of registration order. Registry::reset()
// zeroes values *in place*, so entries published in one run stay listed (at
// zero) in the next.

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"

namespace gemmini::metrics {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  void set(std::uint64_t v) { value_ = v; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

class Histogram {
 public:
  /// Bucket 0 (zeros) + 32 bit-width buckets (values < 2^32) + overflow.
  static constexpr unsigned kDefaultBuckets = 34;

  explicit Histogram(unsigned nbuckets = kDefaultBuckets)
      : buckets_(nbuckets < 2 ? 2 : nbuckets, 0) {}

  void record(std::uint64_t v) {
    buckets_[bucket_index(v)] += 1;
    count_ += 1;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  std::size_t bucket_index(std::uint64_t v) const {
    const std::size_t b = static_cast<std::size_t>(std::bit_width(v));
    return b < buckets_.size() - 1 ? b : buckets_.size() - 1;
  }
  /// Inclusive upper bound of bucket `i`; the last bucket is unbounded
  /// (returns uint64 max as the "+Inf" sentinel).
  std::uint64_t upper_bound(std::size_t i) const {
    if (i + 1 >= buckets_.size()) return ~std::uint64_t{0};
    return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
  }

  const std::vector<std::uint64_t>& buckets() const { return buckets_; }
  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  void reset() {
    for (std::uint64_t& b : buckets_) b = 0;
    count_ = sum_ = min_ = max_ = 0;
  }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Name-ordered instrument store. Accessors create on first use; handles
/// stay valid for the registry's lifetime (including across reset()).
class Registry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Zeroes every instrument *in place* — entries survive, so one Session
  /// can run many times.
  void reset() {
    for (auto& [name, c] : counters_) c.reset();
    for (auto& [name, g] : gauges_) g.reset();
    for (auto& [name, h] : histograms_) h.reset();
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

struct MetricsConfig {
  bool enabled = false;
  /// Sampling window in cycles; 0 disables the time-series (registry
  /// totals and histograms still collect).
  Cycle sample_interval_cycles = 0;

  static MetricsConfig enabled_default() {
    MetricsConfig cfg;
    cfg.enabled = true;
    cfg.sample_interval_cycles = 65536;
    return cfg;
  }
};

/// Snapshots the registry every `interval` cycles into per-metric
/// timelines. Counters record per-window deltas (sum reconciles exactly
/// with the end-of-run total); gauges record the value at each boundary.
class TimeSeriesSampler {
 public:
  struct CounterSeries {
    std::uint64_t last = 0;  ///< counter value at the previous snapshot
    std::vector<std::uint64_t> deltas;
  };

  TimeSeriesSampler(Registry& reg, Cycle interval)
      : reg_(reg), interval_(interval) {}

  /// Starts a run: clears all series and re-arms the first boundary.
  void begin() {
    counters_.clear();
    gauges_.clear();
    windows_ = 0;
    next_ = interval_;
  }

  /// True when advance_to(t) would close at least one window — the cue for
  /// the Soc to publish component counts into the registry first.
  bool due(Cycle t) const { return interval_ != 0 && t >= next_; }

  /// Closes every window boundary at or before `t`. Callers drive this
  /// with a non-decreasing time (the SoC event-merge frontier), which is
  /// what makes window attribution deterministic.
  void advance_to(Cycle t) {
    if (interval_ == 0) return;
    while (t >= next_) {
      snapshot();
      next_ += interval_;
    }
  }

  /// Closes boundaries up to `t` plus one final partial window, so late
  /// accounting (e.g. the DRAM write-drain after the main loop) is always
  /// captured and counter deltas sum exactly to the end-of-run totals.
  void finish(Cycle t) {
    if (interval_ == 0) return;
    advance_to(t);
    snapshot();
  }

  Cycle interval() const { return interval_; }
  std::size_t windows() const { return windows_; }
  const std::map<std::string, CounterSeries>& counter_series() const {
    return counters_;
  }
  const std::map<std::string, std::vector<double>>& gauge_series() const {
    return gauges_;
  }

 private:
  void snapshot() {
    for (const auto& [name, c] : reg_.counters()) {
      CounterSeries& s = counters_[name];
      if (s.deltas.size() < windows_) s.deltas.resize(windows_, 0);
      s.deltas.push_back(c.value() - s.last);
      s.last = c.value();
    }
    for (const auto& [name, g] : reg_.gauges()) {
      std::vector<double>& s = gauges_[name];
      if (s.size() < windows_) s.resize(windows_, 0.0);
      s.push_back(g.value());
    }
    windows_ += 1;
  }

  Registry& reg_;
  Cycle interval_;
  Cycle next_ = 0;
  std::size_t windows_ = 0;
  std::map<std::string, CounterSeries> counters_;
  std::map<std::string, std::vector<double>> gauges_;
};

/// Owns the registry and the sampler. The Soc drives the run lifecycle and
/// publishes its components' counts into the registry at window close.
class Metrics {
 public:
  explicit Metrics(const MetricsConfig& cfg)
      : cfg_(cfg), sampler_(registry_, cfg.sample_interval_cycles) {}

  const MetricsConfig& config() const { return cfg_; }
  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  TimeSeriesSampler& sampler() { return sampler_; }
  const TimeSeriesSampler& sampler() const { return sampler_; }
  bool sampling() const { return cfg_.sample_interval_cycles != 0; }

  void begin_run() {
    registry_.reset();
    sampler_.begin();
  }
  void advance_to(Cycle t) { sampler_.advance_to(t); }
  void finish_run(Cycle t) { sampler_.finish(t); }

 private:
  MetricsConfig cfg_;
  Registry registry_;
  TimeSeriesSampler sampler_;
};

}  // namespace gemmini::metrics
