// sim::Report JSON bytes, pinned. One hand-built Report sets every leaf at
// every depth to a distinct non-default value, holds one entry in every
// vector of structs and two keys in every map, carries a string that needs
// escaping and a non-finite double. Its to_json(2) must equal the text below
// byte for byte, and to_json(0) the same text without layout whitespace, so
// any change to a key's spelling, a field's order, an omitted field, the
// integer/double/bool/string formatting or the indentation shows up here.
// reports_to_json and metrics_to_json are checked against the same report.

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "src/sim/report.h"

namespace gemmini {
namespace {

sim::Report full_report() {
  sim::Report r;
  r.point = "pt";
  r.status = "error";
  r.error = "bad \"tile\"\nline 2";
  r.config = "cfg";
  r.model = "net";
  r.cores = 2;
  r.cycles = 1001;
  r.seconds = 0.5;
  r.fps = 2.25;
  r.cpu_baseline = 1002;
  r.speedup = std::numeric_limits<double>::infinity();
  r.array_utilization = 0.125;
  r.cycles_by_tag = {{"conv", 1003}, {"fc", 1004}};

  sim::LayerIntensity li;
  li.name = "conv1";
  li.macs = 1005;
  li.dram_bytes = 1006;
  li.macs_per_byte = 3.5;
  r.layer_intensity = {li};

  sim::CoreReport c;
  c.core = 1;
  c.cycles = 1007;
  c.cpu_cycles = 1008;
  c.cycles_by_tag = {{"conv", 1009}, {"pool", 1010}};
  c.accel.finish = 1011;
  c.accel.instructions = 1012;
  c.accel.macs = 1013;
  c.accel.tiles = 1014;  // not serialized: exported as core<N>.exec.tiles
  c.accel.load_busy = 1015;
  c.accel.exec_busy = 1016;
  c.accel.store_busy = 1017;
  c.array_utilization = 0.75;
  c.private_tlb_hit_rate = 0.875;
  c.effective_private_tlb_hit_rate = 0.9375;
  r.per_core = {c};

  r.substrate.l2_miss_rate = 0.0625;
  r.substrate.l2_hits = 1018;
  r.substrate.l2_misses = 1019;
  r.substrate.dram_row_hit_rate = 0.3125;
  sim::RequestorTraffic rq;
  rq.requestor = 100;
  rq.sysbus_bytes = 1020;
  rq.sysbus_wait_cycles = 1021;
  rq.membus_bytes = 1022;
  rq.membus_wait_cycles = 1023;
  rq.dram_bytes = 1024;
  rq.dram_row_hits = 1025;
  rq.dram_row_misses = 1026;
  rq.dram_channel_bytes = {1027, 1028};
  r.substrate.per_requestor = {rq};
  sim::DramChannelTraffic ch;
  ch.channel = 3;
  ch.accesses = 1029;
  ch.bytes = 1030;
  ch.row_hits = 1031;
  ch.row_misses = 1032;
  ch.refresh_stall_cycles = 1033;
  ch.queue_wait_cycles = 1034;
  ch.write_drains = 1035;
  ch.writes_buffered = 1036;
  ch.avg_queue_depth = 1.5;
  ch.max_queue_depth = 4.5;
  r.substrate.dram_channels = {ch};

  r.estimates.area.spatial_array_um2 = 11.5;
  r.estimates.area.scratchpad_um2 = 12.5;
  r.estimates.area.accumulator_um2 = 13.5;
  r.estimates.area.peripherals_um2 = 14.5;
  r.estimates.area.uncore_um2 = 15.5;
  r.estimates.area.host_cpu_um2 = 16.5;
  r.estimates.area.total_um2 = 17.5;
  r.estimates.fmax_ghz = 1.75;
  r.estimates.power_mw = 18.5;
  r.estimates.meets_timing = true;

  r.llm.enabled = true;
  r.llm.kv_layout = "token-major";
  r.llm.batch = 4;
  r.llm.layers = 5;
  r.llm.heads = 6;
  r.llm.hidden = 1037;
  r.llm.prompt_tokens = 1038;
  r.llm.decode_steps = 1039;
  r.llm.tokens = 1040;
  r.llm.prefill_cycles = 1041;
  r.llm.decode_cycles = 1042;
  r.llm.cycles_per_token = 19.5;
  r.llm.kv_cache_bytes = 1043;
  r.llm.weight_bytes = 1044;
  r.llm.int4_weights = true;

  trace::LayerBottleneck b;
  b.layer = 7;
  b.name = "fc1";
  b.kind = "dense";
  b.tag = "fc";
  b.span = 1045;
  b.cpu = 1046;
  b.compute = 1047;
  b.translation = 1048;
  b.dram = 1049;
  b.bus_wait = 1050;
  b.dma = 1051;
  b.other = 1052;
  b.macs = 1053;
  b.dma_bytes = 1054;
  b.measured_macs_per_cycle = 20.5;
  b.attainable_macs_per_cycle = 21.5;
  b.memory_bound = true;
  r.bottlenecks = {b};
  r.trace_dropped_events = 1055;

  r.reliability.enabled = true;
  r.reliability.seed = 1056;
  r.reliability.injection.dram_read_flips = 1057;
  r.reliability.injection.ecc_corrected = 1058;
  r.reliability.injection.ecc_detected_uncorrectable = 1059;
  r.reliability.injection.silent_flips = 1060;
  r.reliability.injection.ecc_correction_cycles = 1061;
  r.reliability.injection.sp_flips = 1062;
  r.reliability.injection.acc_flips = 1063;
  r.reliability.injection.translation_faults = 1064;
  r.reliability.injection.translation_fault_cycles = 1065;
  r.reliability.injection.dma_timeouts = 1066;
  r.reliability.injection.dma_retries = 1067;
  r.reliability.injection.dma_retry_cycles = 1068;
  r.reliability.injection.dma_aborts = 1069;
  r.reliability.injection.exec_tile_errors = 1070;
  r.reliability.campaign_runs = 8;
  r.reliability.masked = 9;
  r.reliability.corrected = 10;
  r.reliability.detected = 11;
  r.reliability.sdc = 12;
  r.reliability.sdc_rate = 0.0078125;
  r.reliability.detection_rate = 0.015625;
  r.reliability.golden_cycles = 1071;
  r.reliability.run_outcomes = {"sdc"};

  sim::ServerStats& s = r.server;
  s.enabled = true;
  s.policy = "edf";
  s.arrival = "poisson";
  s.offered_per_mcycle = 22.5;
  s.offered = 1072;
  s.admitted = 1073;
  s.shed = 1074;
  s.completed = 1075;
  s.errors = 1076;
  s.deadline_misses = 1077;
  s.good = 1078;
  s.goodput_per_mcycle = 23.5;
  s.preemptions = 1079;
  s.context_switches = 1080;
  s.batches = 1081;
  s.makespan = 1082;
  s.tokens = 1083;
  s.p50 = 1084;
  s.p95 = 1085;
  s.p99 = 1086;
  s.p999 = 1087;
  s.max_latency = 1088;
  s.mean_latency = 24.5;
  s.avg_queue_depth = 25.5;
  s.max_queue_depth = 26.5;
  sim::ServeClassStats cls;
  cls.name = "resnet";
  cls.offered = 1089;
  cls.shed = 1090;
  cls.completed = 1091;
  cls.errors = 1092;
  cls.deadline_misses = 1093;
  cls.p50 = 1094;
  cls.p95 = 1095;
  cls.p99 = 1096;
  cls.p999 = 1097;
  cls.max_latency = 1098;
  cls.mean_latency = 27.5;
  cls.tokens = 1099;
  cls.p50_per_token = 1100;
  cls.p95_per_token = 1101;
  cls.p99_per_token = 1102;
  cls.mean_per_token = 28.5;
  s.per_class = {cls};
  trace::LayerBottleneck mb = b;
  mb.layer = 13;
  mb.name = "conv9";
  mb.kind = "conv";
  mb.tag = "conv";
  mb.span = 1103;
  mb.memory_bound = false;
  s.miss_bottlenecks = {mb};
  sim::RequestSpan sp;
  sp.id = 1104;
  sp.cls = 14;
  sp.arrival = 1105;
  sp.dispatch = 1106;
  sp.complete = 1107;
  sp.core = 15;
  sp.preemptions = 16;
  sp.shed = true;
  sp.ok = false;
  sp.deadline_miss = true;
  s.spans = {sp};

  sim::MetricsReport& m = r.metrics;
  m.enabled = true;
  m.sample_interval = 1108;
  m.windows = 2;
  m.counters = {{"dma.bytes", 1109}, {"l2.hits", 1110}};
  m.gauges = {{"dram.depth", 29.5}, {"kv.bytes", 30.5}};
  m.histograms["lat"] = {1111, 1112, 1113, 1114, {1115, 1116}};
  m.histograms["wait"] = {1117, 1118, 1119, 1120, {1121, 1122}};
  m.counter_timelines = {{"dma.bytes", {1123, 1124}},
                         {"l2.hits", {1125, 1126}}};
  m.gauge_timelines = {{"dram.depth", {31.5, 32.5}},
                       {"kv.bytes", {33.5, 34.5}}};

  sim::EnergyReport& e = r.energy;
  e.enabled = true;
  e.dram_act_fj = 1127;
  e.dram_pre_fj = 1128;
  e.dram_rd_fj = 1129;
  e.dram_wr_fj = 1130;
  e.dram_ref_fj = 1131;
  e.dram_io_fj = 1132;
  e.dram_fj = 1133;
  e.dram_channel_fj = {1134, 1135};
  e.exec_fj = 1136;
  e.dma_fj = 1137;
  e.sp_fj = 1138;
  e.acc_fj = 1139;
  e.core_fj = {1140, 1141};
  e.static_fj = 1142;
  e.total_fj = 1143;
  e.total_j = 35.5;
  e.avg_power_watts = 36.5;
  e.edp_joule_seconds = 37.5;
  e.energy_per_token_pj = 38.5;
  e.sample_interval = 1144;
  e.window_fj = {1145, 1146};
  e.window_watts = {39.5, 40.5};
  return r;
}

// Drops the layout whitespace of indented JSON (everything outside string
// literals), giving what the writer produces at indent 0.
std::string compact(const std::string& json) {
  std::string out;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (in_string) {
      out += c;
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c != ' ' && c != '\n') {
      out += c;
      in_string = c == '"';
    }
  }
  return out;
}

constexpr const char* kExpected = R"json({
  "point": "pt",
  "status": "error",
  "error": "bad \"tile\"\nline 2",
  "config": "cfg",
  "model": "net",
  "cores": 2,
  "cycles": 1001,
  "seconds": 0.5,
  "fps": 2.25,
  "cpu_baseline": 1002,
  "speedup": null,
  "array_utilization": 0.125,
  "cycles_by_tag": {
    "conv": 1003,
    "fc": 1004
  },
  "layer_intensity": [
    {
      "name": "conv1",
      "macs": 1005,
      "dram_bytes": 1006,
      "macs_per_byte": 3.5
    }
  ],
  "per_core": [
    {
      "core": 1,
      "cycles": 1007,
      "cpu_cycles": 1008,
      "cycles_by_tag": {
        "conv": 1009,
        "pool": 1010
      },
      "accel": {
        "finish": 1011,
        "instructions": 1012,
        "macs": 1013,
        "load_busy": 1015,
        "exec_busy": 1016,
        "store_busy": 1017
      },
      "array_utilization": 0.75,
      "private_tlb_hit_rate": 0.875,
      "effective_private_tlb_hit_rate": 0.9375
    }
  ],
  "substrate": {
    "l2_miss_rate": 0.0625,
    "l2_hits": 1018,
    "l2_misses": 1019,
    "dram_row_hit_rate": 0.3125,
    "per_requestor": [
      {
        "requestor": 100,
        "sysbus_bytes": 1020,
        "sysbus_wait_cycles": 1021,
        "membus_bytes": 1022,
        "membus_wait_cycles": 1023,
        "dram_bytes": 1024,
        "dram_row_hits": 1025,
        "dram_row_misses": 1026,
        "dram_channel_bytes": [
          1027,
          1028
        ]
      }
    ],
    "dram_channels": [
      {
        "channel": 3,
        "accesses": 1029,
        "bytes": 1030,
        "row_hits": 1031,
        "row_misses": 1032,
        "refresh_stall_cycles": 1033,
        "queue_wait_cycles": 1034,
        "write_drains": 1035,
        "writes_buffered": 1036,
        "avg_queue_depth": 1.5,
        "max_queue_depth": 4.5
      }
    ]
  },
  "bottlenecks": [
    {
      "layer": 7,
      "name": "fc1",
      "kind": "dense",
      "tag": "fc",
      "span": 1045,
      "cpu": 1046,
      "compute": 1047,
      "translation": 1048,
      "dram": 1049,
      "bus_wait": 1050,
      "dma": 1051,
      "other": 1052,
      "macs": 1053,
      "dma_bytes": 1054,
      "measured_macs_per_cycle": 20.5,
      "attainable_macs_per_cycle": 21.5,
      "memory_bound": true
    }
  ],
  "trace_dropped_events": 1055,
  "reliability": {
    "enabled": true,
    "seed": 1056,
    "campaign_runs": 8,
    "masked": 9,
    "corrected": 10,
    "detected": 11,
    "sdc": 12,
    "sdc_rate": 0.0078125,
    "detection_rate": 0.015625,
    "golden_cycles": 1071,
    "run_outcomes": [
      "sdc"
    ],
    "injection": {
      "dram_read_flips": 1057,
      "ecc_corrected": 1058,
      "ecc_detected_uncorrectable": 1059,
      "silent_flips": 1060,
      "ecc_correction_cycles": 1061,
      "sp_flips": 1062,
      "acc_flips": 1063,
      "translation_faults": 1064,
      "translation_fault_cycles": 1065,
      "dma_timeouts": 1066,
      "dma_retries": 1067,
      "dma_retry_cycles": 1068,
      "dma_aborts": 1069,
      "exec_tile_errors": 1070
    }
  },
  "llm": {
    "enabled": true,
    "kv_layout": "token-major",
    "batch": 4,
    "layers": 5,
    "heads": 6,
    "hidden": 1037,
    "prompt_tokens": 1038,
    "decode_steps": 1039,
    "tokens": 1040,
    "prefill_cycles": 1041,
    "decode_cycles": 1042,
    "cycles_per_token": 19.5,
    "kv_cache_bytes": 1043,
    "weight_bytes": 1044,
    "int4_weights": true
  },
  "server": {
    "enabled": true,
    "policy": "edf",
    "arrival": "poisson",
    "offered_per_mcycle": 22.5,
    "offered": 1072,
    "admitted": 1073,
    "shed": 1074,
    "completed": 1075,
    "errors": 1076,
    "deadline_misses": 1077,
    "good": 1078,
    "goodput_per_mcycle": 23.5,
    "preemptions": 1079,
    "context_switches": 1080,
    "batches": 1081,
    "makespan": 1082,
    "tokens": 1083,
    "p50": 1084,
    "p95": 1085,
    "p99": 1086,
    "p999": 1087,
    "max_latency": 1088,
    "mean_latency": 24.5,
    "avg_queue_depth": 25.5,
    "max_queue_depth": 26.5,
    "per_class": [
      {
        "name": "resnet",
        "offered": 1089,
        "shed": 1090,
        "completed": 1091,
        "errors": 1092,
        "deadline_misses": 1093,
        "p50": 1094,
        "p95": 1095,
        "p99": 1096,
        "p999": 1097,
        "max_latency": 1098,
        "mean_latency": 27.5,
        "tokens": 1099,
        "p50_per_token": 1100,
        "p95_per_token": 1101,
        "p99_per_token": 1102,
        "mean_per_token": 28.5
      }
    ],
    "miss_bottlenecks": [
      {
        "layer": 13,
        "name": "conv9",
        "kind": "conv",
        "tag": "conv",
        "span": 1103,
        "cpu": 1046,
        "compute": 1047,
        "translation": 1048,
        "dram": 1049,
        "bus_wait": 1050,
        "dma": 1051,
        "other": 1052,
        "macs": 1053,
        "dma_bytes": 1054,
        "measured_macs_per_cycle": 20.5,
        "attainable_macs_per_cycle": 21.5,
        "memory_bound": false
      }
    ],
    "spans": [
      {
        "id": 1104,
        "class": 14,
        "arrival": 1105,
        "dispatch": 1106,
        "complete": 1107,
        "core": 15,
        "preemptions": 16,
        "shed": true,
        "ok": false,
        "deadline_miss": true
      }
    ]
  },
  "metrics": {
    "enabled": true,
    "sample_interval": 1108,
    "windows": 2,
    "counters": {
      "dma.bytes": 1109,
      "l2.hits": 1110
    },
    "gauges": {
      "dram.depth": 29.5,
      "kv.bytes": 30.5
    },
    "histograms": {
      "lat": {
        "count": 1111,
        "sum": 1112,
        "min": 1113,
        "max": 1114,
        "buckets": [
          1115,
          1116
        ]
      },
      "wait": {
        "count": 1117,
        "sum": 1118,
        "min": 1119,
        "max": 1120,
        "buckets": [
          1121,
          1122
        ]
      }
    },
    "counter_timelines": {
      "dma.bytes": [
        1123,
        1124
      ],
      "l2.hits": [
        1125,
        1126
      ]
    },
    "gauge_timelines": {
      "dram.depth": [
        31.5,
        32.5
      ],
      "kv.bytes": [
        33.5,
        34.5
      ]
    }
  },
  "energy": {
    "enabled": true,
    "dram_act_fj": 1127,
    "dram_pre_fj": 1128,
    "dram_rd_fj": 1129,
    "dram_wr_fj": 1130,
    "dram_ref_fj": 1131,
    "dram_io_fj": 1132,
    "dram_fj": 1133,
    "dram_channel_fj": [
      1134,
      1135
    ],
    "exec_fj": 1136,
    "dma_fj": 1137,
    "sp_fj": 1138,
    "acc_fj": 1139,
    "core_fj": [
      1140,
      1141
    ],
    "static_fj": 1142,
    "total_fj": 1143,
    "total_j": 35.5,
    "avg_power_watts": 36.5,
    "edp_joule_seconds": 37.5,
    "energy_per_token_pj": 38.5,
    "sample_interval": 1144,
    "window_fj": [
      1145,
      1146
    ],
    "window_watts": [
      39.5,
      40.5
    ]
  },
  "estimates": {
    "area_um2": {
      "spatial_array": 11.5,
      "scratchpad": 12.5,
      "accumulator": 13.5,
      "peripherals": 14.5,
      "uncore": 15.5,
      "host_cpu": 16.5,
      "total": 17.5
    },
    "fmax_ghz": 1.75,
    "power_mw": 18.5,
    "meets_timing": true
  }
})json";

TEST(ReportJson, EveryFieldIndentTwo) {
  const std::string json = full_report().to_json(2);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');  // no layout whitespace before the document
  EXPECT_EQ(json, kExpected);
}

TEST(ReportJson, EveryFieldIndentZero) {
  EXPECT_EQ(full_report().to_json(0), compact(kExpected));
}

TEST(ReportJson, SweepArrayWrapsEachReport) {
  const sim::Report r = full_report();
  EXPECT_EQ(sim::reports_to_json({r, sim::Report{}}, 0),
            "[" + r.to_json(0) + "," + sim::Report{}.to_json(0) + "]");
}

TEST(ReportJson, MetricsSectionMatchesItsSliceOfTheReport) {
  const sim::Report r = full_report();
  const std::string section = sim::metrics_to_json(r.metrics, 0);
  EXPECT_NE(r.to_json(0).find("\"metrics\":" + section + ",\"energy\":"),
            std::string::npos);
}

}  // namespace
}  // namespace gemmini
