#include "src/llm/decode.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/tensor.h"
#include "src/cpu/kernels.h"
#include "src/model/runner.h"
#include "src/runtime/matmul.h"
#include "src/runtime/tiling.h"
#include "src/sim/session.h"

namespace gemmini::llm {

const char* kv_layout_name(KvLayout layout) {
  return layout == KvLayout::kHeadMajor ? "head-major" : "token-major";
}

std::string DecodeConfig::label() const {
  std::string s = name + "-h" + std::to_string(hidden) + "-l" +
                  std::to_string(layers) + "-b" + std::to_string(batch) +
                  "-t" + std::to_string(decode_steps) + "-" +
                  kv_layout_name(kv_layout);
  if (int4_weights) s += "-int4";
  return s;
}

void DecodeConfig::validate() const {
  GEMMINI_CONFIG_REQUIRE(!name.empty(), "llm decode config needs a name");
  GEMMINI_CONFIG_REQUIRE(hidden > 0 && heads > 0 && layers > 0 && ffn_mult > 0,
                         "llm '" << name << "': geometry must be nonzero");
  GEMMINI_CONFIG_REQUIRE(
      hidden % heads == 0,
      "llm '" << name << "': hidden (" << hidden << ") must divide into "
              << heads << " heads");
  GEMMINI_CONFIG_REQUIRE(
      prompt_tokens > 0 && decode_steps > 0 && batch > 0,
      "llm '" << name << "': prompt/steps/batch must be nonzero");
  GEMMINI_CONFIG_REQUIRE(
      ctx_capacity() >= prompt_tokens + decode_steps,
      "llm '" << name << "': max_ctx (" << ctx_capacity()
              << ") cannot hold prompt+generated tokens ("
              << prompt_tokens + decode_steps << ")");
}

namespace {

// Accounting slots per transformer layer: projections, attention (score /
// context GEMVs plus cache appends), feed-forward.
enum Group : unsigned { kQkv = 0, kAttn = 1, kFfn = 2, kGroups = 3 };

const char* group_name(unsigned g) {
  switch (g) {
    case kQkv: return "qkv";
    case kAttn: return "attn";
    default: return "ffn";
  }
}

class WorkloadBuilder {
 public:
  WorkloadBuilder(const DecodeConfig& cfg, const GemminiConfig& accel,
                  const CpuCostModel& cpu, AddressSpace& as,
                  std::uint64_t seed, bool functional)
      : cfg_(cfg),
        accel_(accel),
        cpu_(cpu),
        as_(as),
        rng_(seed),
        functional_(functional) {}

  DecodeWorkload build() {
    cfg_.validate();
    const unsigned dim = accel_.dim();
    GEMMINI_CHECK_MSG(accel_.dtype == DType::kInt8,
                      "llm decode workloads require an int8 instantiation");
    GEMMINI_CHECK_MSG(cfg_.head_dim() % dim == 0 && cfg_.hidden % dim == 0 &&
                          cfg_.ffn_dim() % dim == 0,
                      "llm '" << cfg_.name << "': hidden/head_dim/ffn ("
                              << cfg_.hidden << "/" << cfg_.head_dim() << "/"
                              << cfg_.ffn_dim()
                              << ") must be multiples of DIM " << dim);
    allocate();
    w_.stream.name = cfg_.label();
    prefill();
    decode();
    finalize_intensity();
    return std::move(w_);
  }

 private:
  // ---- Address-space layout ------------------------------------------------
  VAddr alloc_bytes(std::uint64_t bytes) {
    // Round to scratchpad rows plus a guard row, like graph-IR allocation.
    const std::uint64_t row = accel_.sp_row_bytes();
    return as_.alloc((bytes + row - 1) / row * row + row);
  }

  VAddr alloc_weight(std::uint64_t k, std::uint64_t n) {
    const std::uint64_t bytes =
        cfg_.int4_weights ? k * ((n + 1) / 2) : k * n * elem();
    w_.weight_bytes += bytes;
    const VAddr va = alloc_bytes(bytes);
    if (functional_) {
      // Random int8 bytes; under int4 the random packed nibbles ARE the
      // weights (the reference oracle unpacks the same bytes).
      std::vector<std::int8_t> buf(bytes);
      for (auto& v : buf) v = rng_.next_int8();
      as_.write_virt(va, buf.data(), buf.size());
    }
    return va;
  }

  void allocate() {
    const std::uint64_t H = cfg_.hidden, F = cfg_.ffn_dim();
    const std::uint64_t P = cfg_.prompt_tokens, C = cfg_.ctx_capacity();
    const std::uint64_t B = cfg_.batch;
    for (unsigned l = 0; l < cfg_.layers; ++l) {
      wq_.push_back(alloc_weight(H, H));
      wk_.push_back(alloc_weight(H, H));
      wv_.push_back(alloc_weight(H, H));
      wo_.push_back(alloc_weight(H, H));
      w1_.push_back(alloc_weight(H, F));
      w2_.push_back(alloc_weight(F, H));
      // Per-layer cache base addresses; both layouts occupy B*C*H elements
      // per tensor and differ only in indexing.
      k_base_.push_back(alloc_bytes(B * C * H * elem()));
      v_base_.push_back(alloc_bytes(B * C * H * elem()));
      w_.kv_cache_bytes += 2 * B * C * H * elem();
    }
    // Activations: one region of P rows per batch element, so prefill can
    // matmul per element (m = P, dense stride) and decode can matmul across
    // the batch (m = B, row stride = P*H — row 0 of each region holds the
    // current token).
    x_buf_ = alloc_bytes(B * P * H * elem());
    q_buf_ = alloc_bytes(B * P * H * elem());
    k_buf_ = alloc_bytes(B * P * H * elem());
    v_buf_ = alloc_bytes(B * P * H * elem());
    attn_buf_ = alloc_bytes(B * P * H * elem());
    ffn_buf_ = alloc_bytes(B * P * F * elem());
    scores_buf_ = alloc_bytes(C * elem());
    if (functional_) {
      // Prompt embeddings: random activations for every batch element.
      std::vector<std::int8_t> buf(B * P * H);
      for (auto& v : buf) v = rng_.next_int8();
      as_.write_virt(x_buf_, buf.data(), buf.size());
    }
    acct_.assign(static_cast<std::size_t>(cfg_.layers) * kGroups,
                 std::array<std::uint64_t, 2>{0, 0});
  }

  std::uint64_t elem() const { return accel_.input_bytes(); }

  /// Element (b, head h, token t, offset within head) of a cache tensor.
  VAddr kv_addr(VAddr base, std::uint64_t b, unsigned h, std::uint64_t t,
                std::uint64_t within) const {
    const std::uint64_t hd = cfg_.head_dim(), C = cfg_.ctx_capacity();
    if (cfg_.kv_layout == KvLayout::kHeadMajor) {
      return base + (((b * cfg_.heads + h) * C + t) * hd + within) * elem();
    }
    return base + ((b * C + t) * cfg_.hidden + h * hd + within) * elem();
  }

  /// Byte stride between consecutive token rows of one head's cache matrix.
  std::uint64_t kv_row_stride() const {
    return (cfg_.kv_layout == KvLayout::kHeadMajor ? cfg_.head_dim()
                                                   : cfg_.hidden) *
           elem();
  }

  // ---- Step emission -------------------------------------------------------
  void push_accel(const char* tag, unsigned layer, Program prog) {
    w_.stream.add_cpu(tag, cpu_.dispatch_cycles());
    w_.stream.steps.back().layer = static_cast<std::int32_t>(layer);
    WorkStep s;
    s.kind = WorkStep::Kind::kAccel;
    s.tag = tag;
    s.layer = static_cast<std::int32_t>(layer);
    s.program = std::move(prog);
    w_.stream.steps.push_back(std::move(s));
  }

  void matmul(const char* tag, unsigned layer, Group g, MatmulParams p,
              bool weights_are_b) {
    p.b_int4 = weights_are_b && cfg_.int4_weights;
    p.out_shift = default_out_shift(p.k);
    const MatmulDims dims{p.m, p.k, p.n};
    const std::uint64_t macs = matmul_macs(p);
    const std::uint64_t bytes = modeled_dma_bytes(
        accel_, dims, choose_tiles(accel_, dims), p.bias != 0, p.b_int4);
    auto& slot = acct_[layer * kGroups + g];
    slot[0] += macs;
    slot[1] += bytes;
    (decoding_ ? w_.decode_macs : w_.prefill_macs) += macs;
    push_accel(tag, layer, emit_tiled_matmul(accel_, p));
  }

  /// Streams one token's K and V rows (hidden elements each) from the
  /// projection buffers into the cache: MVIN a DIM-chunk to the scratchpad,
  /// MVOUT it to the layout-resolved cache address. Head-major scatters
  /// chunks across head regions; token-major appends one contiguous row.
  void append_kv(const char* tag, unsigned layer, std::uint64_t b,
                 std::uint64_t t, VAddr k_src, VAddr v_src) {
    const unsigned dim = accel_.dim();
    const std::uint64_t hd = cfg_.head_dim();
    Program prog;
    prog.push_back(make_config_ld(dim * elem(), 1.0f, 0));
    prog.push_back(make_config_st(dim * elem()));
    unsigned sp_r = 0;
    auto move = [&](VAddr src, VAddr base) {
      for (std::uint64_t c0 = 0; c0 < cfg_.hidden; c0 += dim) {
        const unsigned h = static_cast<unsigned>(c0 / hd);
        prog.push_back(
            make_mvin(src + c0 * elem(), LocalAddr::sp_row(sp_r), 1, dim));
        prog.push_back(make_mvout(kv_addr(base, b, h, t, c0 % hd),
                                  LocalAddr::sp_row(sp_r), 1, dim));
        sp_r = (sp_r + 1) % 8;
      }
    };
    move(k_src, k_base_[layer]);
    move(v_src, v_base_[layer]);
    // 2 tensors x (read one row + write one row) of modeled traffic.
    acct_[layer * kGroups + kAttn][1] += 4 * cfg_.hidden * elem();
    push_accel(tag, layer, std::move(prog));
  }

  /// CPU-resident softmax over the score vector, mirroring the graph-IR
  /// emission numerics (dequant /32, softmax, requant x127).
  void softmax(const char* tag, unsigned layer, std::uint64_t ctx) {
    WorkStep s;
    s.kind = WorkStep::Kind::kCpu;
    s.tag = tag;
    s.layer = static_cast<std::int32_t>(layer);
    s.cpu_cycles = cpu_.special_cycles(ctx) + cpu_.move_cycles(ctx * 2);
    if (functional_) {
      const VAddr scores = scores_buf_;
      s.post_fixup = [scores, ctx](const AddressSpace& a) {
        std::vector<std::int8_t> v(ctx);
        a.read_virt(scores, v.data(), v.size());
        TensorF32 in({1, static_cast<std::size_t>(ctx)});
        TensorF32 out({1, static_cast<std::size_t>(ctx)});
        for (std::uint64_t i = 0; i < ctx; ++i) {
          in.data()[i] = static_cast<float>(v[i]) / 32.0f;
        }
        ref::softmax_f32(in, out);
        for (std::uint64_t i = 0; i < ctx; ++i) {
          const float q = std::nearbyint(out.data()[i] * 127.0f);
          v[i] = static_cast<std::int8_t>(
              std::clamp(q, -128.0f, 127.0f));
        }
        a.write_virt(scores, v.data(), v.size());
      };
    }
    w_.stream.steps.push_back(std::move(s));
  }

  /// Full attention for one (batch elem, token): per head, the score GEMV
  /// against the K cache, softmax, and the context GEMV against the V cache.
  /// scores^T[ctx x 1] = K_h[ctx x hd] * q_h^T[hd x 1] keeps the cache on
  /// the streamed-A side, so no transpose is needed in either layout.
  void attention(const char* tag, unsigned layer, std::uint64_t b,
                 std::uint64_t ctx, VAddr q_row, VAddr attn_row) {
    const std::uint64_t hd = cfg_.head_dim();
    for (unsigned h = 0; h < cfg_.heads; ++h) {
      MatmulParams score;
      score.a = kv_addr(k_base_[layer], b, h, 0, 0);
      score.a_row_stride_bytes = kv_row_stride();
      score.b = q_row + h * hd * elem();
      score.c = scores_buf_;
      score.m = ctx;
      score.k = hd;
      score.n = 1;
      matmul(tag, layer, kAttn, score, false);
      softmax(tag, layer, ctx);
      MatmulParams context;
      context.a = scores_buf_;
      context.b = kv_addr(v_base_[layer], b, h, 0, 0);
      context.b_row_stride_bytes = kv_row_stride();
      context.c = attn_row + h * hd * elem();
      context.m = 1;
      context.k = ctx;
      context.n = hd;
      matmul(tag, layer, kAttn, context, false);
    }
  }

  // ---- Phases --------------------------------------------------------------
  /// Per-batch-element region bases inside an activation buffer.
  VAddr region(VAddr buf, std::uint64_t b, std::uint64_t cols) const {
    return buf + b * cfg_.prompt_tokens * cols * elem();
  }

  /// Stamps the most recent step so the SoC sets the "llm.kv_bytes" gauge
  /// (occupied KV-cache footprint after `tokens` cached tokens) when the
  /// step completes — the gauge's sampled timeline is the per-token
  /// cache-growth curve.
  void stamp_kv_gauge(std::uint64_t tokens) {
    WorkStep& s = w_.stream.steps.back();
    s.metric_gauge = "llm.kv_bytes";
    s.metric_value = static_cast<double>(2 * cfg_.batch * tokens *
                                         cfg_.hidden * elem() * cfg_.layers);
  }

  void prefill() {
    decoding_ = false;
    const char* tag = "prefill";
    const std::uint64_t H = cfg_.hidden, F = cfg_.ffn_dim();
    const std::uint64_t P = cfg_.prompt_tokens;
    for (unsigned l = 0; l < cfg_.layers; ++l) {
      for (std::uint64_t b = 0; b < cfg_.batch; ++b) {
        const VAddr x = region(x_buf_, b, H), q = region(q_buf_, b, H);
        const VAddr k = region(k_buf_, b, H), v = region(v_buf_, b, H);
        const VAddr attn = region(attn_buf_, b, H);
        const VAddr ffn = region(ffn_buf_, b, F);
        auto proj = [&](VAddr weights, VAddr out, std::uint64_t n,
                        Activation act = Activation::kNone) {
          MatmulParams p;
          p.a = x;
          p.b = weights;
          p.c = out;
          p.m = P;
          p.k = H;
          p.n = n;
          p.act = act;
          return p;
        };
        matmul(tag, l, kQkv, proj(wq_[l], q, H), true);
        matmul(tag, l, kQkv, proj(wk_[l], k, H), true);
        matmul(tag, l, kQkv, proj(wv_[l], v, H), true);
        // Causal attention, one token at a time: append token t's K/V rows,
        // then attend over the first t+1 cache rows.
        for (std::uint64_t t = 0; t < P; ++t) {
          append_kv(tag, l, b, t, k + t * H * elem(), v + t * H * elem());
          attention(tag, l, b, t + 1, q + t * H * elem(),
                    attn + t * H * elem());
        }
        MatmulParams out = proj(wo_[l], x, H);
        out.a = attn;
        matmul(tag, l, kQkv, out, true);
        MatmulParams up = proj(w1_[l], ffn, F, Activation::kRelu);
        matmul(tag, l, kFfn, up, true);
        MatmulParams down;
        down.a = ffn;
        down.b = w2_[l];
        down.c = x;
        down.m = P;
        down.k = F;
        down.n = H;
        matmul(tag, l, kFfn, down, true);
      }
    }
    stamp_kv_gauge(P);
  }

  void decode() {
    decoding_ = true;
    const char* tag = "decode";
    const std::uint64_t H = cfg_.hidden, F = cfg_.ffn_dim();
    const std::uint64_t P = cfg_.prompt_tokens;
    const std::uint64_t B = cfg_.batch;
    // Batched matmuls stride across the per-element regions: row b of the
    // [B x H] activation matrix is row 0 of element b's region.
    const std::uint64_t xa_stride = P * H * elem();
    const std::uint64_t ffn_stride = P * F * elem();
    for (std::uint64_t s = 0; s < cfg_.decode_steps; ++s) {
      const std::uint64_t t = P + s;  // cache row this step appends
      for (unsigned l = 0; l < cfg_.layers; ++l) {
        auto proj = [&](VAddr a, VAddr weights, VAddr out, std::uint64_t k,
                        std::uint64_t n, std::uint64_t out_stride,
                        Activation act = Activation::kNone) {
          MatmulParams p;
          p.a = a;
          p.b = weights;
          p.c = out;
          p.m = B;
          p.k = k;
          p.n = n;
          p.a_row_stride_bytes = a == ffn_buf_ ? ffn_stride : xa_stride;
          p.c_row_stride_bytes = out_stride;
          p.act = act;
          return p;
        };
        matmul(tag, l, kQkv, proj(x_buf_, wq_[l], q_buf_, H, H, xa_stride),
               true);
        matmul(tag, l, kQkv, proj(x_buf_, wk_[l], k_buf_, H, H, xa_stride),
               true);
        matmul(tag, l, kQkv, proj(x_buf_, wv_[l], v_buf_, H, H, xa_stride),
               true);
        for (std::uint64_t b = 0; b < B; ++b) {
          append_kv(tag, l, b, t, region(k_buf_, b, H), region(v_buf_, b, H));
          attention(tag, l, b, t + 1, region(q_buf_, b, H),
                    region(attn_buf_, b, H));
        }
        matmul(tag, l, kQkv,
               proj(attn_buf_, wo_[l], x_buf_, H, H, xa_stride), true);
        matmul(tag, l, kFfn,
               proj(x_buf_, w1_[l], ffn_buf_, H, F, ffn_stride,
                    Activation::kRelu),
               true);
        matmul(tag, l, kFfn, proj(ffn_buf_, w2_[l], x_buf_, F, H, xa_stride),
               true);
      }
      stamp_kv_gauge(t + 1);
    }
  }

  void finalize_intensity() {
    for (unsigned l = 0; l < cfg_.layers; ++l) {
      for (unsigned g = 0; g < kGroups; ++g) {
        const auto& slot = acct_[l * kGroups + g];
        sim::LayerIntensity li;
        li.name = "L";
        li.name += std::to_string(l);
        li.name += '.';
        li.name += group_name(g);
        li.macs = slot[0];
        li.dram_bytes = slot[1];
        li.macs_per_byte = slot[1] == 0 ? 0.0
                                        : static_cast<double>(slot[0]) /
                                              static_cast<double>(slot[1]);
        w_.layer_intensity.push_back(std::move(li));
      }
    }
  }

  DecodeConfig cfg_;
  const GemminiConfig& accel_;
  const CpuCostModel& cpu_;
  AddressSpace& as_;
  Rng rng_;
  bool functional_ = false;
  bool decoding_ = false;
  DecodeWorkload w_;

  std::vector<VAddr> wq_, wk_, wv_, wo_, w1_, w2_;
  std::vector<VAddr> k_base_, v_base_;
  VAddr x_buf_ = 0, q_buf_ = 0, k_buf_ = 0, v_buf_ = 0;
  VAddr attn_buf_ = 0, ffn_buf_ = 0, scores_buf_ = 0;
  /// Per (layer, group): {macs, modeled dram bytes}.
  std::vector<std::array<std::uint64_t, 2>> acct_;
};

}  // namespace

DecodeWorkload build_decode_workload(const DecodeConfig& cfg,
                                     const GemminiConfig& accel,
                                     const CpuCostModel& cpu, AddressSpace& as,
                                     std::uint64_t seed, bool functional) {
  return WorkloadBuilder(cfg, accel, cpu, as, seed, functional).build();
}

sim::Report run_decode(sim::Session& session, const DecodeConfig& cfg) {
  cfg.validate();
  DecodeWorkload w = build_decode_workload(
      cfg, session.config().accel, session.config().cpu,
      session.address_space(0), session.seed(), session.functional());
  const Cycle baseline =
      session.config().cpu.gemm_cycles(w.prefill_macs + w.decode_macs);
  sim::Report rep = session.run_stream(w.stream, cfg.label(), baseline);
  rep.layer_intensity = std::move(w.layer_intensity);

  auto tag_cycles = [&rep](const char* t) -> Cycle {
    const auto it = rep.cycles_by_tag.find(t);
    return it == rep.cycles_by_tag.end() ? 0 : it->second;
  };
  rep.llm.enabled = true;
  rep.llm.kv_layout = kv_layout_name(cfg.kv_layout);
  rep.llm.batch = cfg.batch;
  rep.llm.layers = cfg.layers;
  rep.llm.heads = cfg.heads;
  rep.llm.hidden = cfg.hidden;
  rep.llm.prompt_tokens = cfg.prompt_tokens;
  rep.llm.decode_steps = cfg.decode_steps;
  rep.llm.tokens = cfg.decode_steps * cfg.batch;
  rep.llm.prefill_cycles = tag_cycles("prefill");
  rep.llm.decode_cycles = tag_cycles("decode");
  rep.llm.cycles_per_token =
      rep.llm.tokens == 0 ? 0.0
                          : static_cast<double>(rep.llm.decode_cycles) /
                                static_cast<double>(rep.llm.tokens);
  rep.llm.kv_cache_bytes = w.kv_cache_bytes;
  rep.llm.weight_bytes = w.weight_bytes;
  rep.llm.int4_weights = cfg.int4_weights;
  if (rep.energy.enabled && rep.llm.tokens > 0) {
    rep.energy.energy_per_token_pj =
        static_cast<double>(rep.energy.total_fj) / 1000.0 /
        static_cast<double>(rep.llm.tokens);
  }
  return rep;
}

}  // namespace gemmini::llm
