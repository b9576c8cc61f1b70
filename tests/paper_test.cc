// The paper's headline findings (Fig. 3, 4, 7, 8, 9) as one claim table.
//
// Every row names the figure, the claim, the paper's number, the rule kind
// and the verdict we expect at today's model: `holds` or `gap`. Each figure's
// test runs full-size inputs (ResNet-50, SqueezeNet and MobileNetV2 at 224,
// AlexNet at 227, BERT at 128 tokens x 12 layers), grades its rows with the
// one rule below and asserts the computed verdict equals the expected one.
// A claim that holds stays asserted; a gap that closes fails the test until
// the table (and README's "Paper findings" table) says `holds`.
//
// The whole paper / measured / verdict table prints once, after the last
// test, in the same markdown shape as README's table:
//
//   $ ./paper_test            # or: ./paper_test --gtest_filter='*Fig8*'
//
// Fig. 3's area, fmax and power ratios and Fig. 6's breakdown are asserted in
// estimate_test; this table holds only what needs a full-stack run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/gemmini.h"

namespace gemmini {
namespace {

// The one grading rule. It is fixed from the paper's stated number before
// anything runs and is never tuned per claim:
//   magnitude  the measured value is within +-25% of the paper's number;
//   bound      "up to X" / "<= X": the measured value is <= 1.25 X;
//   range      "lo-hi": the measured value is within [0.75 lo, 1.25 hi];
//   ordering   "A beats B": the measured value is A's margin over B, and
//              its sign alone decides.
// A row measured on several values (one per CNN) holds only if each does.
constexpr double kTolerance = 0.25;

enum class Rule { kMagnitude, kBound, kRange, kOrdering };
enum class Verdict { kHolds, kGap };

struct Claim {
  const char* id;
  const char* figure;
  const char* text;
  const char* paper;  ///< the paper's number, as the table prints it
  Rule rule;
  double lo;  ///< magnitude and bound: the paper's number; range: its low end
  double hi;  ///< range: the high end; unused otherwise
  Verdict expected;
};

using enum Rule;
using enum Verdict;

const Claim kClaims[] = {
    {"fig3.systolic_sooner", "Fig. 3",
     "systolic array finishes a 512^3 matmul sooner than the vector array, "
     "each at its own fmax",
     "systolic sooner", kOrdering, 0, 0, kHolds},
    {"fig4.peak_miss", "Fig. 4",
     "peak windowed private-TLB miss rate over ResNet-50", "20-30%", kRange,
     20, 30, kGap},
    {"fig4.same_page_reads", "Fig. 4", "consecutive same-page reads", "87%",
     kMagnitude, 87, 0, kHolds},
    {"fig4.same_page_writes", "Fig. 4", "consecutive same-page writes", "83%",
     kMagnitude, 83, 0, kHolds},
    {"fig7.resnet_speedup", "Fig. 7",
     "ResNet-50 speedup over Rocket, im2col unit", "2670x", kMagnitude, 2670,
     0, kHolds},
    {"fig7.resnet_boom_speedup", "Fig. 7",
     "ResNet-50 speedup over BOOM, BOOM host, im2col unit", "1130x",
     kMagnitude, 1130, 0, kHolds},
    {"fig7.resnet_fps", "Fig. 7", "ResNet-50 FPS at 1 GHz", "22.8",
     kMagnitude, 22.8, 0, kHolds},
    {"fig7.alexnet_fps", "Fig. 7", "AlexNet FPS at 1 GHz", "79.3", kMagnitude,
     79.3, 0, kGap},
    {"fig7.squeezenet_speedup", "Fig. 7", "SqueezeNet speedup over Rocket",
     "1760x", kMagnitude, 1760, 0, kHolds},
    {"fig7.mobilenet_speedup", "Fig. 7", "MobileNetV2 speedup over Rocket",
     "127x", kMagnitude, 127, 0, kGap},
    {"fig7.mobilenet_fps", "Fig. 7", "MobileNetV2 FPS at 1 GHz", "18.7",
     kMagnitude, 18.7, 0, kGap},
    {"fig7.bert_speedup", "Fig. 7", "BERT speedup over Rocket", "144x",
     kMagnitude, 144, 0, kGap},
    {"fig7.boom_gain_cpu_im2col", "Fig. 7",
     "BOOM/Rocket host gain without the im2col unit, each CNN", "~2.0x",
     kMagnitude, 2.0, 0, kHolds},
    {"fig7.boom_gain_accel_im2col", "Fig. 7",
     "BOOM/Rocket host gain with the im2col unit, each CNN", "~1.0x",
     kMagnitude, 1.0, 0, kHolds},
    {"fig8.priv_4_to_16", "Fig. 8",
     "private TLB 4 -> 16 entries, no filters, no L2 TLB", "up to +11%",
     kBound, 11, 0, kGap},
    {"fig8.l2_tlb_gain", "Fig. 8",
     "512-entry L2 TLB behind a 4-entry private TLB, no filters", "<= +8%",
     kBound, 8, 0, kHolds},
    {"fig8.filters_from_best", "Fig. 8",
     "4-entry private TLB + filter registers, no L2 TLB: distance from best",
     "within 2%", kBound, 2, 0, kGap},
    {"fig8.filters_hit_rate", "Fig. 8",
     "4-entry private TLB + filter registers: effective hit rate", "~90%",
     kMagnitude, 90, 0, kHolds},
    {"fig9.1core_winner", "Fig. 9", "1 core: BigSP beats BigL2", "BigSP",
     kOrdering, 0, 0, kHolds},
    {"fig9.1core_bigsp_conv", "Fig. 9", "1 core: BigSP conv-layer gain",
     "+10%", kMagnitude, 10, 0, kHolds},
    {"fig9.2core_winner", "Fig. 9", "2 cores: BigL2 beats BigSP", "BigL2",
     kOrdering, 0, 0, kGap},
    {"fig9.2core_bigl2_total", "Fig. 9", "2 cores: BigL2 total gain",
     "+8.0%", kMagnitude, 8.0, 0, kGap},
    {"fig9.2core_bigl2_resadd", "Fig. 9", "2 cores: BigL2 resadd-layer gain",
     "+22%", kMagnitude, 22, 0, kGap},
    {"fig9.2core_bigl2_l2_miss", "Fig. 9",
     "2 cores: BigL2 change in L2 miss rate", "-7.1 pp", kMagnitude, -7.1, 0,
     kGap},
    {"fig9.2core_bigsp_total", "Fig. 9", "2 cores: BigSP total gain",
     "+4.2%", kMagnitude, 4.2, 0, kGap},
};

bool passes(const Claim& c, double measured) {
  switch (c.rule) {
    case kMagnitude:
      return std::abs(measured / c.lo - 1.0) <= kTolerance;
    case kBound:
      return measured <= (1.0 + kTolerance) * c.lo;
    case kRange:
      return measured >= (1.0 - kTolerance) * c.lo &&
             measured <= (1.0 + kTolerance) * c.hi;
    case kOrdering:
      return measured > 0;
  }
  return false;
}

const char* verdict_name(Verdict v) { return v == kHolds ? "holds" : "gap"; }

/// One graded row: the claim, what we measured (as printed) and the verdict.
struct Row {
  const Claim* claim;
  std::string measured;
  Verdict verdict;
};
std::vector<Row> g_rows;

std::string fmt(const char* f, ...) {
  char buf[256];
  va_list args;
  va_start(args, f);
  std::vsnprintf(buf, sizeof buf, f, args);
  va_end(args);
  return buf;
}

/// Grades claim `id` on `values` (every value must pass), records the row
/// for the table and asserts the verdict the table expects.
void grade(std::string_view id, const std::vector<double>& values,
           std::string measured) {
  const auto* c = std::find_if(std::begin(kClaims), std::end(kClaims),
                               [&](const Claim& k) { return k.id == id; });
  ASSERT_NE(c, std::end(kClaims)) << "no claim " << id;
  const bool holds = std::all_of(values.begin(), values.end(),
                                 [&](double v) { return passes(*c, v); });
  const Verdict verdict = holds ? kHolds : kGap;
  EXPECT_STREQ(verdict_name(verdict), verdict_name(c->expected))
      << c->figure << " " << c->text << ": paper " << c->paper
      << ", measured " << measured;
  g_rows.push_back({c, std::move(measured), verdict});
}

/// Every claim of `figure` must have been graded by its test.
void expect_all_graded(std::string_view figure) {
  for (const Claim& c : kClaims) {
    if (c.figure != figure) continue;
    EXPECT_TRUE(std::any_of(g_rows.begin(), g_rows.end(),
                            [&](const Row& r) { return r.claim == &c; }))
        << c.id << " was not measured";
  }
}

/// Prints the graded rows in table order once every test has run.
class TablePrinter : public ::testing::Environment {
 public:
  void TearDown() override {
    std::printf("\n| figure | claim | paper | measured | verdict |\n"
                "|---|---|---|---|---|\n");
    for (const Claim& c : kClaims) {
      for (const Row& r : g_rows) {
        if (r.claim != &c) continue;
        std::printf("| %s | %s | %s | %s | %s%s |\n", c.figure, c.text,
                    c.paper, r.measured.c_str(), verdict_name(r.verdict),
                    r.verdict == c.expected ? "" : " (table says otherwise)");
      }
    }
  }
};
const auto* const kPrinter =
    ::testing::AddGlobalTestEnvironment(new TablePrinter);

/// Runs a sweep on the shared worker pool; reports keyed by point name.
std::map<std::string, sim::Report> run(const sim::Sweep& sweep) {
  std::map<std::string, sim::Report> out;
  for (sim::Report& r : sweep.run({.strict = true})) {
    out.emplace(r.point, std::move(r));
  }
  return out;
}

double ratio(Cycle a, Cycle b) {
  return static_cast<double>(a) / static_cast<double>(b);
}

/// Percent gain of `other` over `base` (positive = fewer cycles).
double gain_pct(Cycle base, Cycle other) {
  return 100.0 * (ratio(base, other) - 1.0);
}

TEST(PaperFindings, Fig3SystolicVsVectorWallTime) {
  const TimingModel tm;
  double ms[2] = {};
  Cycle cycles[2] = {};
  const GemminiConfig arrays[2] = {GemminiConfig::systolic_16x16(),
                                   GemminiConfig::vector_16x16()};
  for (int i = 0; i < 2; ++i) {
    SocConfig cfg;
    cfg.accel = arrays[i];
    Soc soc(cfg);
    auto& as = soc.address_space(0);
    MatmulParams p;
    p.a = as.alloc(1 << 20);
    p.b = as.alloc(1 << 20);
    p.c = as.alloc(1 << 20);
    p.m = p.k = p.n = 512;
    soc.accelerator(0).set_functional(false);
    cycles[i] = soc.accelerator(0).run(emit_tiled_matmul(cfg.accel, p), as);
    ms[i] = static_cast<double>(cycles[i]) /
            (tm.fmax_ghz(cfg.accel.array, DType::kInt8) * 1e6);
  }
  grade("fig3.systolic_sooner", {ms[1] - ms[0]},
        fmt("%.3f vs %.3f ms (%lu vs %lu cycles)", ms[0], ms[1],
            static_cast<unsigned long>(cycles[0]),
            static_cast<unsigned long>(cycles[1])));
  expect_all_graded("Fig. 3");
}

TEST(PaperFindings, Fig4TlbMissRateOverResnet50) {
  // The paper's profiling setup: a small private TLB, no shared L2 TLB, and
  // windowed miss-rate profiling. The windows are the metrics sampler's
  // `core0.tlb.*` counter timelines in the Report; the same-page rows read
  // the private TLB's own counts.
  SocConfig cfg = SocConfig::base_1mb_l2();
  cfg.accel.has_im2col = true;
  cfg.accel.translation.private_tlb.entries = 8;
  cfg.accel.translation.l2_tlb.entries = 0;
  metrics::MetricsConfig windows = metrics::MetricsConfig::enabled_default();
  windows.sample_interval_cycles = 250000;
  sim::Session session = sim::Session::builder(cfg).metrics(windows).build();
  const sim::Report rep = session.run(zoo::resnet50(224));
  const Tlb& tlb = session.soc().accelerator(0).translation().private_tlb();

  const auto& hits = rep.metrics.counter_timelines.at("core0.tlb.hits");
  const auto& misses = rep.metrics.counter_timelines.at("core0.tlb.misses");
  ASSERT_EQ(hits.size(), misses.size());
  double peak = 0.0;
  for (std::size_t w = 0; w < hits.size(); ++w) {
    const std::uint64_t lookups = hits[w] + misses[w];
    if (lookups == 0) continue;
    peak = std::max(peak, 100.0 * safe_ratio(misses[w], lookups));
  }
  const double reads = 100.0 * tlb.stats().consecutive_same_page_rate(false);
  const double writes = 100.0 * tlb.stats().consecutive_same_page_rate(true);
  grade("fig4.peak_miss", {peak}, fmt("%.1f%%", peak));
  grade("fig4.same_page_reads", {reads}, fmt("%.0f%%", reads));
  grade("fig4.same_page_writes", {writes}, fmt("%.0f%%", writes));
  expect_all_graded("Fig. 4");
}

TEST(PaperFindings, Fig7SpeedupOverCpuBaseline) {
  struct Dnn {
    Model model;
    bool cnn;
  };
  const Dnn dnns[] = {{zoo::resnet50(224), true},
                      {zoo::alexnet(227), true},
                      {zoo::squeezenet_v11(224), true},
                      {zoo::mobilenet_v2(224), true},
                      {zoo::bert_base(128, 12), false}};
  const auto key = [](const Model& m, bool boom, bool im2col) {
    return m.name() + (boom ? "/boom" : "/rocket") +
           (im2col ? "/im2col" : "/cpu-im2col");
  };
  sim::Sweep sweep;
  for (const Dnn& d : dnns) {
    for (const bool im2col : {false, true}) {
      if (!d.cnn && !im2col) continue;  // im2col is a CNN question
      for (const bool boom : {false, true}) {
        SocConfig cfg = SocConfig::base_1mb_l2();
        cfg.accel.has_im2col = im2col;
        cfg.cpu = boom ? CpuCostModel::boom() : CpuCostModel::rocket();
        sweep.add(key(d.model, boom, im2col), cfg, d.model);
      }
    }
  }
  const auto reps = run(sweep);
  // Report::speedup is over the host's own CPU-only baseline, so a Rocket
  // host's is the paper's "over Rocket" and a BOOM host's its "over BOOM".
  const auto& at = [&](const Dnn& d, bool boom = false, bool im2col = true)
      -> const sim::Report& { return reps.at(key(d.model, boom, im2col)); };
  const auto& [resnet, alexnet, squeezenet, mobilenet, bert] = dnns;

  grade("fig7.resnet_speedup", {at(resnet).speedup},
        fmt("%.0fx", at(resnet).speedup));
  grade("fig7.resnet_boom_speedup", {at(resnet, true).speedup},
        fmt("%.0fx", at(resnet, true).speedup));
  grade("fig7.resnet_fps", {at(resnet).fps}, fmt("%.1f", at(resnet).fps));
  grade("fig7.alexnet_fps", {at(alexnet).fps}, fmt("%.1f", at(alexnet).fps));
  grade("fig7.squeezenet_speedup", {at(squeezenet).speedup},
        fmt("%.0fx", at(squeezenet).speedup));
  grade("fig7.mobilenet_speedup", {at(mobilenet).speedup},
        fmt("%.0fx", at(mobilenet).speedup));
  grade("fig7.mobilenet_fps", {at(mobilenet).fps},
        fmt("%.1f", at(mobilenet).fps));
  grade("fig7.bert_speedup", {at(bert).speedup},
        fmt("%.0fx", at(bert).speedup));

  for (const bool im2col : {false, true}) {
    std::vector<double> gains;
    for (const Dnn& d : dnns) {
      if (!d.cnn) continue;
      gains.push_back(
          ratio(at(d, false, im2col).cycles, at(d, true, im2col).cycles));
    }
    const auto [lo, hi] = std::minmax_element(gains.begin(), gains.end());
    grade(im2col ? "fig7.boom_gain_accel_im2col" : "fig7.boom_gain_cpu_im2col",
          gains, fmt("%.2f-%.2fx", *lo, *hi));
  }
  expect_all_graded("Fig. 7");
}

TEST(PaperFindings, Fig8TlbSizingForResnet50) {
  // The bench this replaces measured the Fig. 9 Base SoC; the paper's Fig. 8
  // used its low-power edge SoC.
  const Model model = zoo::resnet50(224);
  const auto key = [](bool filters, unsigned priv, unsigned shared) {
    return fmt("%s/p%u/l2tlb%u", filters ? "filters" : "plain", priv, shared);
  };
  sim::Sweep sweep;
  for (const bool filters : {false, true}) {
    for (const unsigned priv : {4u, 16u, 64u}) {
      for (const unsigned shared : {0u, 512u}) {
        SocConfig cfg = SocConfig::base_1mb_l2();
        cfg.accel.has_im2col = true;
        cfg.accel.translation.private_tlb.entries = priv;
        cfg.accel.translation.l2_tlb.entries = shared;
        cfg.accel.translation.filter_registers = filters;
        sweep.add(key(filters, priv, shared), cfg, model);
      }
    }
  }
  const auto reps = run(sweep);
  const auto cycles = [&](bool filters, unsigned priv, unsigned shared) {
    return reps.at(key(filters, priv, shared)).cycles;
  };
  Cycle best = kCycleMax;
  for (const auto& [name, r] : reps) best = std::min(best, r.cycles);

  const double priv_gain = gain_pct(cycles(false, 4, 0), cycles(false, 16, 0));
  const double l2_gain = gain_pct(cycles(false, 4, 0), cycles(false, 4, 512));
  const double from_best = 100.0 * (ratio(cycles(true, 4, 0), best) - 1.0);
  const double hit = 100.0 * reps.at(key(true, 4, 0))
                                 .per_core[0]
                                 .effective_private_tlb_hit_rate;
  grade("fig8.priv_4_to_16", {priv_gain}, fmt("%+.1f%%", priv_gain));
  grade("fig8.l2_tlb_gain", {l2_gain}, fmt("%+.1f%%", l2_gain));
  grade("fig8.filters_from_best", {from_best}, fmt("%.1f%%", from_best));
  grade("fig8.filters_hit_rate", {hit}, fmt("%.1f%%", hit));
  expect_all_graded("Fig. 8");
}

TEST(PaperFindings, Fig9ScratchpadVsSharedL2) {
  // Base: 256 KB scratchpad + 256 KB accumulator per core, 1 MB L2. BigSP
  // gives the extra 1 MB to the scratchpads, BigL2 to the shared L2.
  const Model model = zoo::resnet50(224);
  const std::pair<const char*, SocConfig> partitions[] = {
      {"Base", SocConfig::base_1mb_l2()},
      {"BigSP", SocConfig::big_sp()},
      {"BigL2", SocConfig::big_l2()}};
  sim::Sweep sweep;
  for (const unsigned cores : {1u, 2u}) {
    for (const auto& [name, base] : partitions) {
      SocConfig cfg = base;
      cfg.cores = cores;
      cfg.accel.has_im2col = true;
      sweep.add({fmt("%s/%uc", name, cores), cfg,
                 sim::Inference{model, /*multicore=*/true}});
    }
  }
  const auto reps = run(sweep);
  for (const unsigned cores : {1u, 2u}) {
    const sim::Report& base = reps.at(fmt("Base/%uc", cores));
    const sim::Report& bigsp = reps.at(fmt("BigSP/%uc", cores));
    const sim::Report& bigl2 = reps.at(fmt("BigL2/%uc", cores));
    const auto tag_gain = [&](const sim::Report& r, const char* tag) {
      return gain_pct(base.cycles_by_tag.at(tag), r.cycles_by_tag.at(tag));
    };
    const double sp_total = gain_pct(base.cycles, bigsp.cycles);
    const double l2_total = gain_pct(base.cycles, bigl2.cycles);
    const std::string totals =
        fmt("BigSP %+.1f%%, BigL2 %+.1f%%", sp_total, l2_total);
    if (cores == 1) {
      grade("fig9.1core_winner", {sp_total - l2_total}, totals);
      const double conv = tag_gain(bigsp, "conv");
      grade("fig9.1core_bigsp_conv", {conv}, fmt("%+.1f%%", conv));
      continue;
    }
    grade("fig9.2core_winner", {l2_total - sp_total}, totals);
    grade("fig9.2core_bigl2_total", {l2_total}, fmt("%+.1f%%", l2_total));
    const double resadd = tag_gain(bigl2, "resadd");
    grade("fig9.2core_bigl2_resadd", {resadd}, fmt("%+.1f%%", resadd));
    const double miss_pp = 100.0 * (bigl2.substrate.l2_miss_rate -
                                    base.substrate.l2_miss_rate);
    grade("fig9.2core_bigl2_l2_miss", {miss_pp}, fmt("%+.1f pp", miss_pp));
    grade("fig9.2core_bigsp_total", {sp_total}, fmt("%+.1f%%", sp_total));
  }
  expect_all_graded("Fig. 9");
}

}  // namespace
}  // namespace gemmini
