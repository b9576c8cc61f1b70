#pragma once
// The benchmark's four workloads. Each one drives the simulator only through
// its public API (Session, Experiment, llm, serve::Server, Report) and times
// those calls from outside; nothing here reaches into src/ internals.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/report.h"

namespace bench {

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Spans the benchmark records around its calls into the simulator, kept in
/// memory and written at exit as a Chrome/Perfetto trace. Spans nest; every
/// span carries the id of the rep it belongs to.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int rep = 0;
    int parent = -1;  ///< index into spans(), -1 for a root
    double start_s = 0;
    double end_s = 0;
  };

  void set_rep(int rep) { rep_ = rep; }

  /// Runs `f` inside a span named `name`; adds the span's duration to `*acc`
  /// when `acc` is non-null. Returns what `f` returns.
  template <class F>
  auto timed(const char* name, double* acc, F&& f) {
    struct Close {
      SpanLog* log;
      int id;
      double* acc;
      ~Close() {
        const double d = log->close(id);
        if (acc != nullptr) *acc += d;
      }
    } close{this, open(name), acc};
    return f();
  }

  /// Chrome trace-event JSON ("X" events, microseconds). Each event's args
  /// carry its rep id, parent span and self time (duration minus the time
  /// its children cover).
  std::string to_chrome_json() const;

 private:
  int open(const char* name);
  double close(int id);
  double now() const { return seconds_since(epoch_); }

  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int rep_ = 0;
};

/// How a rep is run. End-to-end metrics come from kTimed reps only.
enum class Variant {
  kTimed,      ///< the workload as defined, no extra observers
  kTraced,     ///< plus the cycle-level trace and the metrics registry
  kObservers,  ///< metrics/energy observers toggled relative to kTimed
  kProfile,    ///< a kTimed rep for the gprof pass (sweep on one thread)
};

/// One rep: host times plus one Report per op. An op is one Session run,
/// one sweep point or one server run.
struct Rep {
  double wall_s = 0;   ///< host time as a user pays it: set-up, run, to_json
  double setup_s = 0;  ///< the set-up share (see each workload)
  double run_s = 0;    ///< host time inside the simulator's run calls
  double build_s = 0;  ///< Session::Builder::build
  double compile_s = 0;  ///< Session::plan / llm::build_decode_workload
  double json_s = 0;     ///< Report::to_json
  std::vector<gemmini::sim::Report> reports;
  /// Per op: empty, or why the op failed (threw, broke an invariant,
  /// mismatched the oracle).
  std::vector<std::string> errors;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Rep run(Variant v, SpanLog& log) = 0;
  /// True when kTimed already carries the metrics/energy observers, so
  /// kObservers takes them off instead of adding them.
  virtual bool observers_in_timed() const { return false; }
};

/// Workload names, in the order the benchmark runs them.
const std::vector<std::string>& workload_names();

/// Builds the named workload for `seed`. `oracle` computes the reference
/// outputs the functional workload is checked against (skipped for the
/// profile pass so it does not pollute the profile). Throws on an unknown
/// name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool oracle);

/// Simulated per-layer counters summed over `reports`, keyed by the
/// benchmark's per-layer metric names (rates are computed from the sums).
std::map<std::string, double> layer_metrics(
    const std::vector<gemmini::sim::Report>& reports);

/// A copy of `r` without the observer sections (metrics, energy, trace
/// attribution), serialized: equal iff every simulated result is equal.
std::string simulated_fingerprint(const gemmini::sim::Report& r);

}  // namespace bench
