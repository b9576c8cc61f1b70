// Randomized differential test harness (seeded, reproducible).
//
// Two oracle families, in the spirit of esp-isa-sim's cosimulation flow:
//
//   * Kernel differentials: random GEMM / conv dimensions pushed through the
//     blocked production kernels and checked bit-exact against the retained
//     naive loops (and, for conv, against the independent im2col+GEMM
//     lowering of the same layer).
//
//   * DRAM controller differentials: random request streams pushed through
//     the production controller and checked (a) bit-exact against an
//     independent brute-force reference model for the FCFS/write-through
//     configuration the golden cycles are pinned on, and (b) for
//     conservation (every request issued exactly once, bytes and access
//     counts preserved per requestor and per channel) under FR-FCFS with
//     write buffering and refresh, where completion times legitimately
//     differ by design.
//
// Every case derives from a fixed seed, so a failure reproduces exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/base/rng.h"
#include "src/base/tensor.h"
#include "src/cpu/kernels.h"
#include "src/mem/dram.h"

namespace gemmini {
namespace {

Activation random_act(Rng& rng) {
  switch (rng.next_below(3)) {
    case 0: return Activation::kNone;
    case 1: return Activation::kRelu;
    default: return Activation::kRelu6;
  }
}

// ---- GEMM: blocked production kernels vs retained naive oracles ------------

TEST(DiffTest, GemmI8BlockedMatchesNaiveOnRandomDims) {
  Rng rng(0xd1f'1u);
  for (int iter = 0; iter < 25; ++iter) {
    const std::size_t m = 1 + rng.next_below(96);
    const std::size_t k = 1 + rng.next_below(96);
    const std::size_t n = 1 + rng.next_below(96);
    const unsigned shift = static_cast<unsigned>(rng.next_below(11));
    const Activation act = random_act(rng);
    const bool with_bias = rng.next_below(2) == 0;

    TensorI8 a({m, k}), b({k, n}), c_fast({m, n}), c_naive({m, n});
    a.randomize(rng);
    b.randomize(rng);
    std::vector<std::int32_t> bias(n);
    for (auto& v : bias) v = static_cast<std::int32_t>(
        rng.next_range(-100000, 100000));

    ref::gemm_i8(a, b, with_bias ? bias.data() : nullptr, c_fast, shift, act);
    ref::gemm_i8_naive(a, b, with_bias ? bias.data() : nullptr, c_naive,
                       shift, act);
    ASSERT_EQ(c_fast, c_naive)
        << "iter " << iter << ": m=" << m << " k=" << k << " n=" << n
        << " shift=" << shift;
  }
}

TEST(DiffTest, GemmF32BlockedMatchesNaiveOnRandomDims) {
  Rng rng(0xd1f'2u);
  for (int iter = 0; iter < 15; ++iter) {
    const std::size_t m = 1 + rng.next_below(80);
    const std::size_t k = 1 + rng.next_below(80);
    const std::size_t n = 1 + rng.next_below(80);
    const Activation act = random_act(rng);
    const bool with_bias = rng.next_below(2) == 0;

    TensorF32 a({m, k}), b({k, n}), c_fast({m, n}), c_naive({m, n});
    a.randomize(rng);
    b.randomize(rng);
    std::vector<float> bias(n);
    for (auto& v : bias) v = rng.next_float_pm1();

    ref::gemm_f32(a, b, with_bias ? bias.data() : nullptr, c_fast, act);
    ref::gemm_f32_naive(a, b, with_bias ? bias.data() : nullptr, c_naive,
                        act);
    // fp32 blocked kernel preserves the naive accumulation order, so the
    // comparison is bit-exact, not approximate.
    ASSERT_EQ(c_fast, c_naive)
        << "iter " << iter << ": m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(DiffTest, GemmAccI32BlockedMatchesNaiveOnRandomDims) {
  Rng rng(0xd1f'3u);
  for (int iter = 0; iter < 15; ++iter) {
    const std::size_t m = 1 + rng.next_below(64);
    const std::size_t k = 1 + rng.next_below(64);
    const std::size_t n = 1 + rng.next_below(64);
    TensorI8 a({m, k}), b({k, n});
    TensorI32 c_fast({m, n}), c_naive({m, n});
    a.randomize(rng);
    b.randomize(rng);
    ref::gemm_i8_acc_i32(a, b, c_fast);
    ref::gemm_i8_acc_i32_naive(a, b, c_naive);
    ASSERT_EQ(c_fast, c_naive)
        << "iter " << iter << ": m=" << m << " k=" << k << " n=" << n;
  }
}

// ---- Conv: direct convolution vs the independent im2col + GEMM path --------

TEST(DiffTest, ConvDirectMatchesIm2colGemmOnRandomShapes) {
  Rng rng(0xd1f'4u);
  for (int iter = 0; iter < 12; ++iter) {
    const std::size_t ih = 3 + rng.next_below(14);
    const std::size_t iw = 3 + rng.next_below(14);
    const std::size_t ic = 1 + rng.next_below(8);
    const std::size_t oc = 1 + rng.next_below(8);
    const unsigned kh = 1 + 2 * static_cast<unsigned>(rng.next_below(2));
    const unsigned kw = kh;  // square kernels, like every zoo layer
    const unsigned stride = 1 + static_cast<unsigned>(rng.next_below(2));
    const unsigned padding = static_cast<unsigned>(rng.next_below(kh));
    if (ih + 2 * padding < kh || iw + 2 * padding < kw) continue;

    ref::ConvParams p;
    p.stride = stride;
    p.padding = padding;
    p.out_shift = static_cast<unsigned>(rng.next_below(8));
    p.act = random_act(rng);

    const std::size_t oh = ref::conv_out_dim(ih, kh, stride, padding);
    const std::size_t ow = ref::conv_out_dim(iw, kw, stride, padding);
    TensorI8 in({1, ih, iw, ic}), w({kh, kw, ic, oc});
    in.randomize(rng);
    w.randomize(rng);
    std::vector<std::int32_t> bias(oc);
    for (auto& v : bias) v = static_cast<std::int32_t>(
        rng.next_range(-5000, 5000));

    // Path A: direct convolution.
    TensorI8 direct({1, oh, ow, oc});
    ref::conv2d_i8(in, w, bias.data(), direct, p);

    // Path B: im2col patches x reshaped weights through the blocked GEMM.
    // Integer accumulation is exact in any order, so the two independent
    // loop nests must agree bit-for-bit.
    TensorI8 patches({oh * ow, kh * kw * ic});
    ref::im2col_i8(in, kh, kw, stride, padding, patches);
    TensorI8 wm({static_cast<std::size_t>(kh) * kw * ic, oc});
    std::memcpy(wm.data(), w.data(), w.size());
    TensorI8 gemm_out({oh * ow, oc});
    ref::gemm_i8(patches, wm, bias.data(), gemm_out, p.out_shift, p.act);

    ASSERT_EQ(0, std::memcmp(direct.data(), gemm_out.data(), direct.size()))
        << "iter " << iter << ": " << ih << "x" << iw << "x" << ic << " k"
        << kh << " s" << stride << " p" << padding << " oc" << oc;
  }
}

// ---- DRAM: production controller vs brute-force reference scheduler --------

/// Independent reimplementation of the seed DRAM timing semantics (immediate
/// issue in arrival order — what the production controller must reduce to
/// under FCFS + write-through + no refresh). Deliberately does not share any
/// code with src/mem/dram.cc beyond the DramConfig parameters.
class ReferenceDram {
 public:
  explicit ReferenceDram(const DramConfig& cfg) : cfg_(cfg) {
    banks_.assign(cfg.channels,
                  std::vector<Bank>(cfg.banks));
    chan_busy_.assign(cfg.channels, 0);
  }

  Cycle access(PAddr addr, std::uint64_t bytes, Cycle t) {
    const unsigned ci = channel(addr);
    const std::uint64_t row = addr / cfg_.row_bytes;
    Bank& bank = banks_[ci][bank_index(addr)];
    const bool hit = bank.open && bank.row == row;
    const Cycle lat = hit ? cfg_.row_hit_latency : cfg_.row_miss_latency;
    const Cycle start = std::max(t, bank.busy);
    const Cycle data_ready = start + lat;
    const Cycle burst_start = std::max(data_ready, chan_busy_[ci]);
    const Cycle burst = (bytes + cfg_.channel_width_bytes - 1) /
                        cfg_.channel_width_bytes;
    const Cycle done = burst_start + burst;
    bank.busy = hit ? start + 4 : start + lat;  // tCCD vs precharge+activate
    bank.open = true;
    bank.row = row;
    chan_busy_[ci] = done;
    return done;
  }

 private:
  struct Bank {
    bool open = false;
    std::uint64_t row = 0;
    Cycle busy = 0;
  };

  unsigned channel(PAddr addr) const {
    if (cfg_.channels == 1) return 0;
    const std::uint64_t gran = cfg_.interleave == DramInterleave::kRow
                                   ? cfg_.row_bytes
                                   : cfg_.interleave_bytes;
    return static_cast<unsigned>((addr / gran) % cfg_.channels);
  }

  unsigned bank_index(PAddr addr) const {
    const std::uint64_t row = addr / cfg_.row_bytes;
    std::uint64_t h = row;
    for (unsigned s = 3; s < 36; s += 3) h ^= row >> s;
    return static_cast<unsigned>(h % cfg_.banks);
  }

  DramConfig cfg_;
  std::vector<std::vector<Bank>> banks_;
  std::vector<Cycle> chan_busy_;
};

struct FuzzRequest {
  PAddr addr;
  std::uint64_t bytes;
  Cycle t;
  int requestor;
  bool is_write;
};

std::vector<FuzzRequest> random_stream(Rng& rng, std::size_t n,
                                       bool with_writes) {
  std::vector<FuzzRequest> stream;
  stream.reserve(n);
  Cycle t = 0;
  PAddr base = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Mix of streaming (same-row) and jumping (row-conflict) accesses over
    // a few MB, line-sized like the L2's refill traffic.
    if (rng.next_below(4) == 0) base = rng.next_below(1 << 22) & ~63ull;
    const PAddr addr = (base + rng.next_below(16) * 64) & ~63ull;
    t += rng.next_below(60);
    stream.push_back({addr, 64, t,
                      static_cast<int>(rng.next_below(3)),
                      with_writes && rng.next_below(3) == 0});
  }
  return stream;
}

TEST(DiffTest, DramFcfsWriteThroughMatchesReferenceBitExact) {
  Rng rng(0xd1f'5u);
  for (const unsigned channels : {1u, 2u, 4u}) {
    for (const DramInterleave il :
         {DramInterleave::kRow, DramInterleave::kCacheline}) {
      DramConfig cfg;
      cfg.channels = channels;
      cfg.interleave = il;
      Dram dut(cfg);
      ReferenceDram oracle(cfg);
      const auto stream = random_stream(rng, 400, /*with_writes=*/false);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        const FuzzRequest& r = stream[i];
        const Cycle got = dut.access(r.addr, r.bytes, r.t, {r.requestor});
        const Cycle want = oracle.access(r.addr, r.bytes, r.t);
        ASSERT_EQ(got, want) << "request " << i << " at addr " << r.addr
                             << " (channels=" << channels << ")";
      }
    }
  }
}

TEST(DiffTest, DramWriteThroughWritesMatchReferenceToo) {
  // Writes take the controller's write() path; in write-through mode their
  // timing must be the seed model's, which the read-side oracle also gives
  // (the seed model treated reads and writebacks identically).
  Rng rng(0xd1f'6u);
  DramConfig cfg;
  cfg.channels = 2;
  cfg.interleave = DramInterleave::kCacheline;
  Dram dut(cfg);
  ReferenceDram oracle(cfg);
  const auto stream = random_stream(rng, 400, /*with_writes=*/true);
  for (const FuzzRequest& r : stream) {
    const Cycle want = oracle.access(r.addr, r.bytes, r.t);
    if (r.is_write) {
      dut.write(r.addr, r.bytes, r.t, {r.requestor});
    } else {
      ASSERT_EQ(dut.access(r.addr, r.bytes, r.t, {r.requestor}), want);
    }
  }
  EXPECT_EQ(dut.pending_writes(), 0u);  // write-through leaves nothing queued
}

TEST(DiffTest, DramFrFcfsConservesRequestsBytesAndChannels) {
  Rng rng(0xd1f'7u);
  for (const DramScheduler sched :
       {DramScheduler::kFcfs, DramScheduler::kFrFcfs}) {
    DramConfig cfg;
    cfg.channels = 2;
    cfg.interleave = DramInterleave::kXorFold;
    cfg.scheduler = sched;
    cfg.write_queue_depth = 8;
    cfg.write_drain_floor = 2;
    cfg.refresh_interval = 2000;
    cfg.refresh_latency = 100;
    Dram dut(cfg);

    const auto stream = random_stream(rng, 600, /*with_writes=*/true);
    std::uint64_t total_bytes = 0;
    std::vector<std::uint64_t> bytes_by_requestor(3, 0);
    Cycle last_arrival = 0;
    for (const FuzzRequest& r : stream) {
      total_bytes += r.bytes;
      bytes_by_requestor[static_cast<std::size_t>(r.requestor)] += r.bytes;
      last_arrival = r.t;
      if (r.is_write) {
        dut.write(r.addr, r.bytes, r.t, {r.requestor});
      } else {
        const Cycle done = dut.access(r.addr, r.bytes, r.t, {r.requestor});
        // A read can never complete before its arrival plus the best-case
        // pipeline (CAS hit + one burst beat).
        EXPECT_GE(done, r.t + cfg.row_hit_latency + 1);
      }
    }
    dut.drain_writes();
    EXPECT_EQ(dut.pending_writes(), 0u);

    // Conservation: every request issued exactly once, all bytes accounted,
    // per-requestor and per-channel splits summing to the totals —
    // regardless of how the scheduler reordered the stream.
    const Dram::ChannelStats totals = dut.stats().totals();
    EXPECT_EQ(totals.accesses, stream.size());
    EXPECT_EQ(totals.bytes, total_bytes);
    EXPECT_EQ(totals.row_hits + totals.row_misses, stream.size());

    std::uint64_t requestor_bytes_sum = 0;
    for (const Dram::RequestorStats& rs : dut.stats().requestors) {
      EXPECT_EQ(rs.row_hits + rs.row_misses, rs.accesses);
      EXPECT_EQ(rs.bytes,
                bytes_by_requestor[static_cast<std::size_t>(rs.requestor)]);
      std::uint64_t channel_sum = 0;
      for (const std::uint64_t b : rs.channel_bytes) channel_sum += b;
      EXPECT_EQ(channel_sum, rs.bytes);
      requestor_bytes_sum += rs.bytes;
    }
    EXPECT_EQ(requestor_bytes_sum, total_bytes);

    std::uint64_t channel_accesses = 0, channel_bytes = 0;
    bool both_channels_used = true;
    for (const Dram::ChannelStats& cs : dut.stats().channels) {
      channel_accesses += cs.accesses;
      channel_bytes += cs.bytes;
      both_channels_used = both_channels_used && cs.accesses > 0;
      EXPECT_EQ(cs.row_hits + cs.row_misses, cs.accesses);
    }
    EXPECT_EQ(channel_accesses, stream.size());
    EXPECT_EQ(channel_bytes, total_bytes);
    // The XOR-fold interleave must actually spread a multi-MB stream.
    EXPECT_TRUE(both_channels_used);
    // Refresh windows genuinely engaged over this horizon.
    EXPECT_GT(totals.refresh_stall_cycles, 0u);
    (void)last_arrival;
  }
}

TEST(DiffTest, DramSchedulersIssueIdenticalWorkDifferentOrder) {
  // FCFS and FR-FCFS see the same stream: the *work* (accesses, bytes,
  // per-channel split) must be identical even though completion times and
  // row-hit counts legitimately differ.
  Rng rng(0xd1f'8u);
  const auto stream = random_stream(rng, 500, /*with_writes=*/true);
  auto run = [&stream](DramScheduler sched) {
    DramConfig cfg;
    cfg.channels = 2;
    cfg.scheduler = sched;
    cfg.write_queue_depth = 8;
    cfg.write_drain_floor = 2;
    Dram d(cfg);
    for (const FuzzRequest& r : stream) {
      if (r.is_write) {
        d.write(r.addr, r.bytes, r.t, {r.requestor});
      } else {
        d.access(r.addr, r.bytes, r.t, {r.requestor});
      }
    }
    d.drain_writes();
    const Dram::ChannelStats totals = d.stats().totals();
    return std::pair<std::uint64_t, std::uint64_t>{totals.accesses,
                                                   totals.bytes};
  };
  const auto fcfs = run(DramScheduler::kFcfs);
  const auto frfcfs = run(DramScheduler::kFrFcfs);
  EXPECT_EQ(fcfs, frfcfs);
  EXPECT_EQ(fcfs.first, stream.size());
}

}  // namespace
}  // namespace gemmini
