// LLM decode subsystem tests: the int4 dequant-on-mvin path against the
// reference dequant+int8 oracle (bit-exact, seeded), the graph-IR int4
// dense layer, the decode workload generator's stream/report invariants
// across KV layouts and batch sizes, and decode's memory-system behaviour
// on a contended controller (it gains more from FR-FCFS than every conv
// model, and each doubling of DRAM channels lowers cycles per token).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/base/rng.h"
#include "src/cpu/kernels.h"
#include "src/dnn/zoo.h"
#include "src/llm/decode.h"
#include "src/model/runner.h"
#include "src/runtime/matmul.h"
#include "src/sim/experiment.h"
#include "src/sim/session.h"
#include "tests/test_util.h"

namespace gemmini {
namespace {

using test::AccelHarness;

// ---- Packed int4 weights through the accelerator --------------------------

// Emits a tiled matmul whose B operand is packed int4 and checks the result
// bit-for-bit against ref::gemm_i8 on the nibble-unpacked weights.
void run_int4_case(AccelHarness& h, std::uint64_t m, std::uint64_t k,
                   std::uint64_t n, std::uint64_t seed) {
  Rng rng(seed);
  TensorI8 a({m, k});
  a.randomize(rng);
  // Random packed bytes ARE the weights; the oracle unpacks the same
  // nibbles the DMA sign-extends on MVIN.
  const std::uint64_t packed_bytes = k * ((n + 1) / 2);
  std::vector<std::uint8_t> packed(packed_bytes);
  for (auto& v : packed) v = static_cast<std::uint8_t>(rng.next_u64());

  TensorI8 b_ref({k, n});
  ref::unpack_int4_matrix(packed.data(), k, n, b_ref);

  MatmulParams p;
  p.a = h.upload(a);
  p.b = h.as.alloc(packed_bytes + 4096);
  h.as.write_virt(p.b, packed.data(), packed.size());
  p.c = h.as.alloc(m * n + 8192);
  p.m = m;
  p.k = k;
  p.n = n;
  p.out_shift = default_out_shift(k);
  p.b_int4 = true;

  const Program prog = emit_tiled_matmul(h.config, p);
  h.accel.run(prog, h.as);

  TensorI8 expect({m, n});
  ref::gemm_i8(a, b_ref, nullptr, expect, p.out_shift, Activation::kNone);
  const TensorI8 got = h.download<std::int8_t>(p.c, {m, n});
  for (std::uint64_t i = 0; i < m; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      ASSERT_EQ(got.at(i, j), expect.at(i, j))
          << "int4 mismatch at (" << i << "," << j << ") m=" << m
          << " k=" << k << " n=" << n << " seed=" << seed;
    }
  }
}

TEST(Int4Matmul, MatchesDequantOracleSingleTile) {
  AccelHarness h;
  run_int4_case(h, 16, 16, 16, 11);
}

TEST(Int4Matmul, MatchesDequantOracleMultiTileRagged) {
  AccelHarness h;
  run_int4_case(h, 40, 96, 80, 12);
}

TEST(Int4Matmul, MatchesDequantOracleGemv) {
  // The decode shape: one activation row against a large packed weight.
  AccelHarness h;
  run_int4_case(h, 1, 256, 64, 13);
}

TEST(Int4Matmul, SeededSweepMatchesOracle) {
  AccelHarness h;
  Rng shapes(0xC0FFEEull);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t m = 1 + shapes.next_below(48);
    const std::uint64_t k = 16 * (1 + shapes.next_below(8));
    const std::uint64_t n = 16 * (1 + shapes.next_below(8));
    run_int4_case(h, m, k, n, 100 + static_cast<std::uint64_t>(i));
  }
}

TEST(Int4Matmul, HalvesModeledWeightTraffic) {
  const GemminiConfig cfg = GemminiConfig::paper_default();
  const MatmulDims dims{1, 256, 256};
  const TileShape tile = choose_tiles(cfg, dims);
  const std::uint64_t i8 = modeled_dma_bytes(cfg, dims, tile, false, false);
  const std::uint64_t i4 = modeled_dma_bytes(cfg, dims, tile, false, true);
  // A and C traffic are unchanged; exactly half the B bytes disappear.
  EXPECT_EQ(i8 - i4, dims.k * dims.n / 2);
}

// ---- Graph-IR int4 dense ---------------------------------------------------

TEST(Int4Dense, GraphLayerMatchesReference) {
  ModelBuilder mb("int4-dense");
  mb.input_matrix(4, 64);
  mb.dense(48, Activation::kNone, -1, /*int4_weights=*/true);
  const Model m = mb.build();

  sim::Session session = sim::Session::builder().functional().seed(3).build();
  const sim::Report r = session.run(m);
  EXPECT_GT(r.cycles, 0u);

  // Rebuild the reference from the plan's buffers: unpack the packed
  // nibbles the lowering materialized and redo the quantized matmul.
  const sim::Plan& plan = session.last_plan();
  const AddressSpace& as = session.address_space();
  TensorI8 a({4, 64});
  as.read_virt(session.last_lowered().input, a.data(), a.size());
  std::vector<std::uint8_t> packed(64 * ((48 + 1) / 2));
  as.read_virt(plan.layers[1].weights.va, packed.data(), packed.size());
  TensorI8 b({64, 48});
  ref::unpack_int4_matrix(packed.data(), 64, 48, b);
  std::vector<std::int8_t> bias_i8(48);
  as.read_virt(plan.layers[1].bias.va, bias_i8.data(), bias_i8.size());
  std::vector<std::int32_t> bias(48);
  for (int i = 0; i < 48; ++i) bias[i] = bias_i8[i];

  TensorI8 expect({4, 48});
  ref::gemm_i8(a, b, bias.data(), expect, default_out_shift(64),
               Activation::kNone);
  TensorI8 got({4, 48});
  as.read_virt(session.last_lowered().layer_output[1], got.data(),
               got.size());
  EXPECT_EQ(got, expect);
}

TEST(Int4Dense, HalvesPlannedWeightBytes) {
  const auto build = [](bool int4) {
    ModelBuilder mb(int4 ? "d-i4" : "d-i8");
    mb.input_matrix(1, 128);
    mb.dense(128, Activation::kNone, -1, int4);
    return mb.build();
  };
  sim::Session s8 = sim::Session::builder().build();
  sim::Session s4 = sim::Session::builder().build();
  const std::uint64_t w8 = s8.plan(build(false)).weight_bytes;
  const std::uint64_t w4 = s4.plan(build(true)).weight_bytes;
  // bias (128 bytes) is common; the 128x128 weight matrix halves.
  EXPECT_EQ(w8 - w4, 128 * 128 / 2);
}

// ---- Decode workload generator ---------------------------------------------

llm::DecodeConfig small_decode() {
  llm::DecodeConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 2;
  cfg.ffn_mult = 2;
  cfg.layers = 2;
  cfg.prompt_tokens = 4;
  cfg.decode_steps = 3;
  return cfg;
}

TEST(LlmDecode, ReportHasTokenAccounting) {
  sim::Session session = sim::Session::builder().build();
  const llm::DecodeConfig cfg = small_decode();
  const sim::Report r = llm::run_decode(session, cfg);
  EXPECT_TRUE(r.llm.enabled);
  EXPECT_EQ(r.llm.tokens, cfg.decode_steps * cfg.batch);
  EXPECT_GT(r.llm.prefill_cycles, 0u);
  EXPECT_GT(r.llm.decode_cycles, 0u);
  EXPECT_GT(r.llm.cycles_per_token, 0.0);
  EXPECT_EQ(r.llm.kv_layout, "head-major");
  // KV footprint: 2 tensors * layers * batch * ctx * hidden bytes.
  EXPECT_EQ(r.llm.kv_cache_bytes,
            2ull * cfg.layers * cfg.batch * cfg.ctx_capacity() * cfg.hidden);
  // Per-layer intensity: qkv/attn/ffn per transformer layer, all nonzero.
  ASSERT_EQ(r.layer_intensity.size(), cfg.layers * 3u);
  for (const auto& li : r.layer_intensity) {
    EXPECT_GT(li.macs, 0u) << li.name;
    EXPECT_GT(li.dram_bytes, 0u) << li.name;
    EXPECT_GT(li.macs_per_byte, 0.0) << li.name;
  }
  // The cycle split covers the whole tagged timeline.
  EXPECT_GT(r.cycles, 0u);
  EXPECT_LE(r.llm.decode_cycles, r.cycles);
}

TEST(LlmDecode, DeterministicAcrossSessions) {
  const llm::DecodeConfig cfg = small_decode();
  sim::Session a = sim::Session::builder().functional().seed(5).build();
  sim::Session b = sim::Session::builder().functional().seed(5).build();
  const sim::Report ra = llm::run_decode(a, cfg);
  const sim::Report rb = llm::run_decode(b, cfg);
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(ra.to_json(2), rb.to_json(2));
}

TEST(LlmDecode, BothLayoutsRunAndTouchDram) {
  for (const llm::KvLayout layout :
       {llm::KvLayout::kHeadMajor, llm::KvLayout::kTokenMajor}) {
    llm::DecodeConfig cfg = small_decode();
    cfg.kv_layout = layout;
    sim::Session session = sim::Session::builder().build();
    const sim::Report r = llm::run_decode(session, cfg);
    EXPECT_GT(r.cycles, 0u) << llm::kv_layout_name(layout);
    EXPECT_GE(r.substrate.dram_row_hit_rate, 0.0);
    EXPECT_LE(r.substrate.dram_row_hit_rate, 1.0);
    std::uint64_t dram_bytes = 0;
    for (const auto& ch : r.substrate.dram_channels) dram_bytes += ch.bytes;
    EXPECT_GT(dram_bytes, 0u) << llm::kv_layout_name(layout);
  }
}

TEST(LlmDecode, BatchFattensGemvAndAddsTokens) {
  llm::DecodeConfig b1 = small_decode();
  llm::DecodeConfig b4 = small_decode();
  b4.batch = 4;
  sim::Session s1 = sim::Session::builder().build();
  sim::Session s4 = sim::Session::builder().build();
  const sim::Report r1 = llm::run_decode(s1, b1);
  const sim::Report r4 = llm::run_decode(s4, b4);
  EXPECT_EQ(r4.llm.tokens, 4u * b4.decode_steps);
  // Batching shares each weight stream across 4 rows: decode cycles grow
  // sub-linearly, so cycles-per-token must improve.
  EXPECT_LT(r4.llm.cycles_per_token, r1.llm.cycles_per_token);
}

TEST(LlmDecode, Int4HalvesWeightFootprint) {
  llm::DecodeConfig i8 = small_decode();
  llm::DecodeConfig i4 = small_decode();
  i4.int4_weights = true;
  sim::Session s8 = sim::Session::builder().build();
  sim::Session s4 = sim::Session::builder().build();
  const sim::Report r8 = llm::run_decode(s8, i8);
  const sim::Report r4 = llm::run_decode(s4, i4);
  EXPECT_EQ(r8.llm.weight_bytes, 2 * r4.llm.weight_bytes);
  EXPECT_TRUE(r4.llm.int4_weights);
  // Less weight traffic, fewer cycles per token.
  EXPECT_LT(r4.llm.cycles_per_token, r8.llm.cycles_per_token);
}

TEST(LlmDecode, FunctionalDecodeProducesData) {
  sim::Session session =
      sim::Session::builder().functional().seed(9).build();
  llm::DecodeConfig cfg = small_decode();
  const sim::Report r = llm::run_decode(session, cfg);
  EXPECT_GT(r.cycles, 0u);
}

TEST(LlmDecode, ValidateRejectsBadGeometry) {
  llm::DecodeConfig cfg = small_decode();
  cfg.heads = 3;  // does not divide hidden=64
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = small_decode();
  cfg.max_ctx = 2;  // cannot hold prompt+generated
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = small_decode();
  cfg.decode_steps = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

// ---- Decode vs the conv zoo on a contended memory system -------------------

// The contended controller with a 4 MB L2: the scaled conv zoo then mostly
// fits in cache, while batch-1 decode's weights and KV cache (~6 MB at
// hidden = 512) re-stream from DRAM for every generated token.
SocConfig decode_soc(DramScheduler sched, unsigned channels = 2) {
  SocConfig cfg = test::contended_soc(sched, channels);
  cfg.mem.l2.size_bytes = 4ull << 20;
  return cfg;
}

double decode_cycles_per_token(DramScheduler sched, unsigned channels = 2) {
  llm::DecodeConfig cfg;
  cfg.hidden = 512;
  cfg.heads = 8;
  cfg.prompt_tokens = 256;
  cfg.decode_steps = 4;
  sim::Session s = sim::Session::builder(decode_soc(sched, channels)).build();
  return llm::run_decode(s, cfg).llm.cycles_per_token;
}

TEST(LlmDecodeDram, GainsMoreFromFrFcfsThanEveryConvModel) {
  const double decode_gain =
      1.0 - decode_cycles_per_token(DramScheduler::kFrFcfs) /
                decode_cycles_per_token(DramScheduler::kFcfs);
  EXPECT_GT(decode_gain, 0.0);
  for (const Model& m : zoo::all_paper_models_scaled()) {
    auto cycles = [&m](DramScheduler sched) {
      return static_cast<double>(
          sim::Session::builder(decode_soc(sched)).build().run(m).cycles);
    };
    const double conv_gain = 1.0 - cycles(DramScheduler::kFrFcfs) /
                                       cycles(DramScheduler::kFcfs);
    EXPECT_GT(decode_gain, conv_gain) << m.name();
  }
}

TEST(LlmDecodeDram, CyclesPerTokenImproveWithEachChannelDoubling) {
  // Gated under FCFS, where more channels are purely added bandwidth;
  // FR-FCFS reordering interacts with the XOR-folded interleave and is not
  // monotone at every channel count.
  const double one = decode_cycles_per_token(DramScheduler::kFcfs, 1);
  const double two = decode_cycles_per_token(DramScheduler::kFcfs, 2);
  const double four = decode_cycles_per_token(DramScheduler::kFcfs, 4);
  EXPECT_GT(one, two);
  EXPECT_GT(two, four);
}

// ---- Experiment integration -------------------------------------------------

TEST(LlmSweep, AxesExpandAndStayByteIdenticalAcrossThreads) {
  auto make_exp = [] {
    sim::Experiment ex(SocConfig{});
    ex.dram_channels({1, 2});
    for (const unsigned batch : {1u, 4u}) {
      for (const llm::KvLayout layout :
           {llm::KvLayout::kHeadMajor, llm::KvLayout::kTokenMajor}) {
        llm::DecodeConfig c = small_decode();
        c.batch = batch;
        c.kv_layout = layout;
        ex.workload(sim::Decode{c});
      }
    }
    return ex;
  };
  const std::vector<sim::Report> r1 = make_exp().run({.threads = 1});
  const std::vector<sim::Report> r4 = make_exp().run({.threads = 4});
  ASSERT_EQ(r1.size(), 8u);  // 2 channels x 2 batches x 2 layouts
  EXPECT_EQ(sim::reports_to_json(r1), sim::reports_to_json(r4));
  for (const sim::Report& r : r1) {
    EXPECT_EQ(r.status, "ok");
    EXPECT_TRUE(r.llm.enabled);
    EXPECT_GT(r.llm.cycles_per_token, 0u);
    EXPECT_FALSE(r.layer_intensity.empty());
  }
  // Point labels carry the config axis and the decode config's label.
  EXPECT_EQ(r1[0].point, "1ch/llm-h64-l2-b1-t3-head-major");
  EXPECT_EQ(r1[7].point, "2ch/llm-h64-l2-b4-t3-token-major");
}

}  // namespace
}  // namespace gemmini
