// gemmini_bench: runs one benchmark workload in this process and prints its
// metrics. benchmark/run.sh is the entry point; it builds this program and
// its -pg twin, runs the gprof pass, and passes the flat profile in.
//
//   gemmini_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--reps N] [--gprof FLAT] [--detail OUT.json]
//                 [--bench-trace OUT.json]
//   gemmini_bench --workload NAME --seed N --profile
//   gemmini_bench --list          (workload names, one per line)
//
// --trace 0 measures the end-to-end metrics over timed reps; --trace 1
// measures the per-layer metrics (traced reps, observer on/off reps, the
// benchmark's own spans and the gprof split). One warm-up rep is run first
// and discarded; reps then run back to back until both --reps reps and
// --seconds seconds are done. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --profile runs profile-variant reps for a few seconds and prints nothing;
// run.sh runs it under the -pg build and hands gprof's output to --gprof.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "benchmark/profile.h"
#include "benchmark/workloads.h"

namespace {

using bench::Rep;
using bench::seconds_since;
using bench::SpanLog;
using bench::Variant;

constexpr double kProfileSeconds = 4.0;

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> m = {
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"sim_mcyc_per_s", "Mcycle/s"},
      {"peak_rss_mb", "MiB"},
      {"sim_cycles", "cycles"},
  };
  return m;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> m = [] {
    std::vector<MetricDef> v = {
        {"accel.macs", "count"},
        {"accel.exec_busy_cycles", "cycles"},
        {"accel.utilization", "fraction"},
        {"accel.load_busy_cycles", "cycles"},
        {"accel.store_busy_cycles", "cycles"},
        {"dma.bytes", "bytes"},
        {"tlb.hit_rate", "fraction"},
        {"tlb.misses", "count"},
        {"tlb.filter_hits", "count"},
        {"l2.hits", "count"},
        {"l2.misses", "count"},
        {"l2.miss_rate", "fraction"},
        {"bus.bytes", "bytes"},
        {"bus.wait_cycles", "cycles"},
        {"dram.accesses", "count"},
        {"dram.row_hit_rate", "fraction"},
        {"dram.queue_wait_cycles", "cycles"},
        {"dram.refresh_stall_cycles", "cycles"},
        {"dram.write_drains", "count"},
        {"dram.avg_queue_depth", "requests"},
        {"cpu.cycles", "cycles"},
        {"bottleneck.compute_cycles", "cycles"},
        {"bottleneck.dma_cycles", "cycles"},
        {"bottleneck.translation_cycles", "cycles"},
        {"bottleneck.bus_wait_cycles", "cycles"},
        {"bottleneck.dram_cycles", "cycles"},
        {"bottleneck.cpu_cycles", "cycles"},
        {"lowering.modeled_dma_bytes", "bytes"},
        {"soc.steps", "count"},
        {"llm.kv_cache_bytes", "bytes"},
        {"llm.decode_cycle_share", "fraction"},
        {"llm.cycles_per_token", "cycles"},
        {"energy.pj_per_token", "pJ"},
        {"serve.completed", "count"},
        {"serve.shed", "count"},
        {"serve.deadline_misses", "count"},
        {"serve.avg_queue_depth", "requests"},
        {"serve.context_switches", "count"},
        {"serve.p50_cycles", "cycles"},
        {"serve.p99_cycles", "cycles"},
        {"serve.samples_beyond_p99", "count"},
        {"serve.goodput_per_mcyc", "1/Mcycle"},
        {"metrics.sampler_windows", "count"},
        {"observers.overhead_frac", "fraction"},
        {"trace.overhead_frac", "fraction"},
        {"trace.dropped_events", "count"},
        {"span.session_build_s", "s"},
        {"span.compile_s", "s"},
        {"span.run_s", "s"},
        {"span.report_json_s", "s"},
        {"sim.ops_per_s", "1/s"},
        {"profile.samples", "count"},
    };
    for (const std::string& c : bench::host_components()) {
      v.push_back({"host_share." + c, "fraction"});
    }
    return v;
  }();
  return m;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int reps = 5;
  bool profile = false;
  std::string gprof;
  std::string detail;
  std::string bench_trace;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "gemmini_bench: %s\nusage: gemmini_bench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--reps N] [--gprof FLAT] "
               "[--detail OUT] [--bench-trace OUT] | --profile\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list") {
      for (const std::string& w : bench::workload_names()) {
        std::printf("%s\n", w.c_str());
      }
      std::exit(0);
    }
    if (a == "--profile") {
      o.profile = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = std::atoi(v.c_str());
    } else if (a == "--reps") {
      o.reps = std::max(1, std::atoi(v.c_str()));
    } else if (a == "--gprof") {
      o.gprof = v;
    } else if (a == "--detail") {
      o.detail = v;
    } else if (a == "--bench-trace") {
      o.bench_trace = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.trace != 0 && o.trace != 1) usage("--trace must be 0 or 1");
  return o;
}

// ---- Statistics (quartiles as Python's statistics.quantiles(n=4)) ----------

struct Summary {
  double median = 0, q1 = 0, q3 = 0;
  std::size_t n = 0;
  std::vector<double> samples;
};

Summary summarize(std::vector<double> xs) {
  Summary s;
  s.samples = xs;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  s.median = n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
  if (n == 1) {
    s.q1 = s.q3 = xs[0];
    return s;
  }
  // Exclusive method: position i * (n + 1) / 4, linearly interpolated.
  const auto q = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = i * m / 4;
    const double delta = static_cast<double>(i * m - j * 4);
    const double lo = xs[j == 0 ? 0 : std::min(j - 1, n - 1)];
    const double hi = xs[std::min(j, n - 1)];
    return (lo * (4 - delta) + hi * delta) / 4;
  };
  s.q1 = q(1);
  s.q3 = q(3);
  return s;
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Counts ops and failures. An op fails if it threw, broke an invariant,
/// mismatched its oracle, or produced simulated results that differ from
/// the first rep's (traced and observer reps included).
class Judge {
 public:
  void operator()(const Rep& rep, const char* label) {
    if (reference_.size() < rep.reports.size()) {
      reference_.resize(rep.reports.size());
    }
    for (std::size_t i = 0; i < rep.reports.size(); ++i) {
      ++attempted_;
      std::string why = rep.errors[i];
      if (why.empty()) {
        std::string fp = bench::simulated_fingerprint(rep.reports[i]);
        if (reference_[i].empty()) {
          reference_[i] = std::move(fp);
        } else if (reference_[i] != fp) {
          why = "simulated results differ from the first rep";
        }
      }
      if (!why.empty()) {
        ++failed_;
        std::fprintf(stderr, "FAILED %s op %zu: %s\n", label, i, why.c_str());
      }
    }
  }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

 private:
  std::vector<std::string> reference_;
  long attempted_ = 0;
  long failed_ = 0;
};

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kTimed:
      return "timed";
    case Variant::kTraced:
      return "traced";
    case Variant::kObservers:
      return "observers";
    case Variant::kProfile:
      return "profile";
  }
  return "?";
}

std::vector<double> per_rep(const std::vector<Rep>& reps,
                           double (*f)(const Rep&)) {
  std::vector<double> out;
  for (const Rep& r : reps) out.push_back(f(r));
  return out;
}

double sim_cycles(const Rep& r) {
  double c = 0;
  for (const auto& rep : r.reports) c += static_cast<double>(rep.cycles);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  SpanLog log;
  int rep_id = 0;

  std::unique_ptr<bench::Workload> w;
  try {
    w = bench::make_workload(opt.workload, opt.seed, !opt.profile);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  Judge judge;
  const auto run = [&](Variant v) {
    log.set_rep(rep_id++);
    Rep r = log.timed("rep", nullptr, [&] { return w->run(v, log); });
    judge(r, variant_name(v));
    return r;
  };

  if (opt.profile) {
    // gprof samples every 10 ms; a few seconds of reps gives a few hundred
    // samples even on the shortest workload.
    const auto start = std::chrono::steady_clock::now();
    do {
      run(Variant::kProfile);
    } while (seconds_since(start) < kProfileSeconds);
    return judge.failed() == 0 ? 0 : 1;
  }

  run(Variant::kTimed);  // warm-up, discarded; sets the reference results

  std::map<std::string, Summary> out;  // metric -> summary
  const auto t0 = std::chrono::steady_clock::now();
  if (opt.trace == 0) {
    std::vector<Rep> reps;
    while (static_cast<int>(reps.size()) < opt.reps ||
           seconds_since(t0) < opt.seconds) {
      reps.push_back(run(Variant::kTimed));
    }
    out["wall_s"] = summarize(per_rep(reps, [](const Rep& r) { return r.wall_s; }));
    out["setup_s"] =
        summarize(per_rep(reps, [](const Rep& r) { return r.setup_s; }));
    out["sim_mcyc_per_s"] = summarize(per_rep(
        reps, [](const Rep& r) { return sim_cycles(r) / 1e6 / r.run_s; }));
    out["sim_cycles"] = summarize(per_rep(reps, sim_cycles));
    out["peak_rss_mb"] = summarize({peak_rss_mib()});
  } else {
    if (opt.gprof.empty()) usage("--trace 1 needs --gprof FLAT");
    std::ifstream flat(opt.gprof);
    if (!flat) usage("cannot read " + opt.gprof);
    const bench::HostProfile prof = bench::parse_gprof_flat(flat);

    // Rounds of (timed, traced, observers-toggled) reps, rotating which
    // variant goes first so drift does not favour one of them.
    std::vector<Rep> timed, traced, toggled;
    const Variant order[3] = {Variant::kTimed, Variant::kTraced,
                              Variant::kObservers};
    const int min_rounds = std::min(opt.reps, 3);
    for (int round = 0;
         round < min_rounds || seconds_since(t0) < opt.seconds; ++round) {
      for (int k = 0; k < 3; ++k) {
        const Variant v = order[(round + k) % 3];
        Rep r = run(v);
        (v == Variant::kTimed    ? timed
         : v == Variant::kTraced ? traced
                                 : toggled)
            .push_back(std::move(r));
      }
    }
    for (const auto& [name, v] : bench::layer_metrics(traced.back().reports)) {
      out[name] = summarize({v});
    }
    out["span.session_build_s"] =
        summarize(per_rep(timed, [](const Rep& r) { return r.build_s; }));
    out["span.compile_s"] =
        summarize(per_rep(timed, [](const Rep& r) { return r.compile_s; }));
    out["span.run_s"] =
        summarize(per_rep(timed, [](const Rep& r) { return r.run_s; }));
    out["span.report_json_s"] =
        summarize(per_rep(timed, [](const Rep& r) { return r.json_s; }));
    out["sim.ops_per_s"] = summarize(per_rep(timed, [](const Rep& r) {
      return static_cast<double>(r.reports.size()) / r.run_s;
    }));
    const auto median_wall = [](const std::vector<Rep>& reps) {
      return summarize(per_rep(reps, [](const Rep& r) { return r.wall_s; }))
          .median;
    };
    const double plain = median_wall(timed);
    out["trace.overhead_frac"] = summarize({median_wall(traced) / plain - 1});
    const double off = median_wall(toggled);
    out["observers.overhead_frac"] = summarize(
        {w->observers_in_timed() ? plain / off - 1 : off / plain - 1});
    for (const auto& [c, share] : prof.share) {
      out["host_share." + c] = summarize({share});
    }
    out["profile.samples"] = summarize({prof.samples});
  }

  // Every declared metric is emitted (0 where a layer did no work on this
  // workload) and nothing undeclared is.
  const std::vector<MetricDef>& declared =
      opt.trace == 0 ? end_to_end_metrics() : per_layer_metrics();
  bool correct = judge.failed() == 0;
  std::set<std::string> names;
  for (const MetricDef& d : declared) {
    names.insert(d.name);
    if (out.count(d.name) == 0) out[d.name] = summarize({0.0});
  }
  for (const auto& [name, s] : out) {
    if (names.count(name) == 0) {
      std::fprintf(stderr, "undeclared metric %s\n", name.c_str());
      correct = false;
    }
    for (const double x : s.samples) correct = correct && std::isfinite(x);
  }

  std::printf("%-32s %-10s %14s %14s %14s %4s\n", "metric", "unit", "median",
              "q1", "q3", "n");
  for (const MetricDef& d : declared) {
    const Summary& s = out[d.name];
    std::printf("%-32s %-10s %14.6g %14.6g %14.6g %4zu\n", d.name.c_str(),
                d.unit.c_str(), s.median, s.q1, s.q3, s.n);
  }

  if (!opt.detail.empty()) {
    std::ofstream f(opt.detail);
    f << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"trace\": " << opt.trace << ", \"correct\": "
      << (correct ? "true" : "false") << ", \"metrics\": {";
    for (std::size_t i = 0; i < declared.size(); ++i) {
      const Summary& s = out[declared[i].name];
      f << (i ? ", " : "") << "\"" << declared[i].name << "\": {\"unit\": \""
        << declared[i].unit << "\", \"median\": " << number(s.median)
        << ", \"q1\": " << number(s.q1) << ", \"q3\": " << number(s.q3)
        << ", \"n\": " << s.n << ", \"samples\": [";
      for (std::size_t k = 0; k < s.samples.size(); ++k) {
        f << (k ? ", " : "") << number(s.samples[k]);
      }
      f << "]}";
    }
    f << "}}\n";
    correct = correct && f.good();
  }
  if (!opt.bench_trace.empty()) {
    std::ofstream f(opt.bench_trace);
    f << log.to_chrome_json();
    correct = correct && f.good();
  }

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << judge.attempted()
       << ", \"failed\": " << judge.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < declared.size(); ++i) {
    line << (i ? ", " : "") << "\"" << declared[i].name
         << "\": {\"value\": " << number(out[declared[i].name].median)
         << ", \"unit\": \"" << declared[i].unit << "\"}";
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  return correct ? 0 : 1;
}
