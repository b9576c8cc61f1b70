#pragma once
// Statistics helpers: exact percentiles and time-weighted accumulators.
//
// Event counts are not kept here: every timed component counts each event
// once into its own plain typed `Stats` struct (src/mem/dram.h, src/vm/tlb.h,
// ...), the SoC zeroes those structs at run start, and the metrics registry
// and energy meter read them when a sampler window closes. Windowed series
// (e.g. the paper's Fig. 4 TLB miss rate over a ResNet-50 inference) are the
// metrics sampler's timelines of those counts (src/metrics/metrics.h).
//
// `percentile`/`percentile_sorted` compute exact nearest-rank percentiles
// from stored samples (no sketches — the serving layer's tail latencies are
// exact), and `TimeWeighted` integrates a piecewise-constant value (e.g. a
// queue depth) over simulated time so its mean weights each level by how
// long it was held, not by how often it changed.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/base/types.h"

namespace gemmini {

/// Exact nearest-rank percentile of an ascending-sorted sample vector:
/// the smallest element such that at least q% of samples are <= it
/// (rank ceil(q/100 * N), 1-based). q is clamped to [0, 100]; q == 0
/// returns the minimum. An empty vector returns a value-initialized T.
template <typename T>
T percentile_sorted(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return T{};
  if (q <= 0.0) return sorted.front();
  if (q >= 100.0) return sorted.back();
  // ceil(q/100 * N) without <cmath>; the epsilon keeps ranks that are
  // integers in exact arithmetic (99.9% of 1000 = 999) from being pushed
  // up a rank by binary rounding of q/100. For tiny positive q the epsilon
  // can drag `exact` below zero, and casting a negative double to an
  // unsigned type is undefined — clamp first.
  double exact = q / 100.0 * static_cast<double>(sorted.size()) - 1e-9;
  if (exact < 0.0) exact = 0.0;
  std::size_t rank = static_cast<std::size_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

/// Convenience over unsorted samples (copies and sorts).
template <typename T>
T percentile(std::vector<T> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, q);
}

/// Integrates a piecewise-constant observable over simulated time. Call
/// record(t, v) whenever the value changes; the previous value is weighted
/// by the interval it was held. Observation times must be non-decreasing in
/// the aggregate — a locally out-of-order sample (the DRAM controller sees
/// approximately-ordered request times) contributes zero weight rather than
/// corrupting the integral.
class TimeWeighted {
 public:
  void record(Cycle t, double value) {
    const bool first = !started_;
    if (first) {
      started_ = true;
      start_ = last_t_ = t;
    } else if (t > last_t_) {
      integral_ += value_ * static_cast<double>(t - last_t_);
      last_t_ = t;
    }
    value_ = value;
    // The first observation seeds the max unconditionally — an
    // all-negative series must not report the initializer 0.
    if (first || value > max_) max_ = value;
  }

  /// Extends the integral to time `t` holding the current value (e.g. the
  /// end of the run), without changing the value.
  void finish(Cycle t) { record(t, value_); }

  bool empty() const { return !started_; }
  Cycle duration() const { return started_ ? last_t_ - start_ : 0; }
  double current() const { return value_; }
  double max() const { return started_ ? max_ : 0.0; }

  /// Time-weighted mean over [first record, last record]. Zero-duration
  /// windows (all records at one instant) report the current value.
  double mean() const {
    if (!started_) return 0.0;
    const Cycle d = duration();
    if (d == 0) return value_;
    return integral_ / static_cast<double>(d);
  }

  void reset() { *this = TimeWeighted{}; }

 private:
  bool started_ = false;
  Cycle start_ = 0;
  Cycle last_t_ = 0;
  double value_ = 0.0;
  double integral_ = 0.0;
  double max_ = 0.0;
};

/// n / d, or 0 when d == 0 (hit rates of components that saw no traffic).
inline double safe_ratio(std::uint64_t n, std::uint64_t d) {
  return d == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(d);
}

}  // namespace gemmini
