// ISA tests: local-address encoding, RoCC round-trips, disassembly.

#include <gtest/gtest.h>

#include "src/isa/isa.h"

namespace gemmini {
namespace {

TEST(LocalAddr, SpRow) {
  const LocalAddr a = LocalAddr::sp_row(1234);
  EXPECT_FALSE(a.is_garbage());
  EXPECT_FALSE(a.is_acc());
  EXPECT_EQ(a.row(), 1234u);
}

TEST(LocalAddr, AccRowWithAccumulate) {
  const LocalAddr a = LocalAddr::acc_row(77, true);
  EXPECT_TRUE(a.is_acc());
  EXPECT_TRUE(a.accumulate());
  EXPECT_EQ(a.row(), 77u);
  const LocalAddr b = LocalAddr::acc_row(77, false);
  EXPECT_FALSE(b.accumulate());
}

TEST(LocalAddr, GarbageIsNeitherSpNorAcc) {
  const LocalAddr g = LocalAddr::garbage();
  EXPECT_TRUE(g.is_garbage());
  EXPECT_FALSE(g.is_acc());
  EXPECT_FALSE(g.accumulate());
}

/// Round-trips `i` through the RoCC encoding and checks that every field of
/// the decoded instruction equals the original's.
Instruction roundtrip(const Instruction& i) {
  const Instruction r = decode(encode(i));
  EXPECT_EQ(r.dram_addr, i.dram_addr);
  EXPECT_EQ(r.stride_bytes, i.stride_bytes);
  EXPECT_EQ(r.local, i.local);
  EXPECT_EQ(r.local2, i.local2);
  EXPECT_EQ(r.ld_scale, i.ld_scale);
  EXPECT_EQ(r.rows, i.rows);
  EXPECT_EQ(r.cols, i.cols);
  EXPECT_EQ(r.rows2, i.rows2);
  EXPECT_EQ(r.cols2, i.cols2);
  EXPECT_EQ(r.pool_window, i.pool_window);
  EXPECT_EQ(r.pool_stride, i.pool_stride);
  EXPECT_EQ(r.op, i.op);
  EXPECT_EQ(r.ld_channel, i.ld_channel);
  EXPECT_EQ(r.dataflow, i.dataflow);
  EXPECT_EQ(r.activation, i.activation);
  EXPECT_EQ(r.out_shift, i.out_shift);
  EXPECT_EQ(r.a_transpose, i.a_transpose);
  EXPECT_EQ(r.ld_int4, i.ld_int4);
  return r;
}

TEST(RoccEncoding, MvinRoundTrip) {
  for (unsigned ch = 0; ch < 3; ++ch) {
    const Instruction i =
        make_mvin(0x1234'5678'9abcull, LocalAddr::sp_row(4095), 16, 13, ch);
    const Instruction r = roundtrip(i);
    EXPECT_EQ(r.op, Opcode::kMvin);
    EXPECT_EQ(r.dram_addr, i.dram_addr);
    EXPECT_EQ(r.local, i.local);
    EXPECT_EQ(r.rows, 16);
    EXPECT_EQ(r.cols, 13);
    EXPECT_EQ(r.ld_channel, ch);
  }
}

TEST(RoccEncoding, MvoutAccumulatorRoundTrip) {
  const Instruction i =
      make_mvout(0xdead'b000ull, LocalAddr::acc_row(99, false), 7, 16);
  const Instruction r = roundtrip(i);
  EXPECT_EQ(r.op, Opcode::kMvout);
  EXPECT_TRUE(r.local.is_acc());
  EXPECT_EQ(r.local.row(), 99u);
  EXPECT_EQ(r.rows, 7);
}

TEST(RoccEncoding, PreloadRoundTrip) {
  const Instruction i = make_preload(LocalAddr::sp_row(100),
                                     LocalAddr::acc_row(3, true), 16, 12, 9,
                                     12);
  const Instruction r = roundtrip(i);
  EXPECT_EQ(r.op, Opcode::kPreload);
  EXPECT_EQ(r.local, i.local);
  EXPECT_EQ(r.local2, i.local2);
  EXPECT_TRUE(r.local2.accumulate());
  EXPECT_EQ(r.rows, 16);
  EXPECT_EQ(r.cols, 12);
  EXPECT_EQ(r.rows2, 9);
  EXPECT_EQ(r.cols2, 12);
}

TEST(RoccEncoding, ComputeBothFlavors) {
  const Instruction p = roundtrip(make_compute(
      LocalAddr::sp_row(1), LocalAddr::garbage(), 16, 16, 0, 0, true));
  EXPECT_EQ(p.op, Opcode::kComputePreloaded);
  const Instruction a = roundtrip(make_compute(
      LocalAddr::sp_row(1), LocalAddr::sp_row(2), 4, 5, 4, 5, false));
  EXPECT_EQ(a.op, Opcode::kComputeAccumulated);
  EXPECT_EQ(a.rows2, 4);
}

TEST(RoccEncoding, ConfigExRoundTrip) {
  const Instruction i = make_config_ex(Dataflow::kOutputStationary,
                                       Activation::kRelu6, 13, true);
  const Instruction r = roundtrip(i);
  EXPECT_EQ(r.op, Opcode::kConfigEx);
  EXPECT_EQ(r.dataflow, Dataflow::kOutputStationary);
  EXPECT_EQ(r.activation, Activation::kRelu6);
  EXPECT_EQ(r.out_shift, 13);
  EXPECT_TRUE(r.a_transpose);
}

TEST(RoccEncoding, ConfigLdPreservesScale) {
  const Instruction i = make_config_ld(12345, 0.625f, 2);
  const Instruction r = roundtrip(i);
  EXPECT_EQ(r.op, Opcode::kConfigLd);
  EXPECT_EQ(r.stride_bytes, 12345u);
  EXPECT_FLOAT_EQ(r.ld_scale, 0.625f);
  EXPECT_EQ(r.ld_channel, 2);
}

TEST(RoccEncoding, ConfigLdInt4RoundTrip) {
  // The packed-int4 flag must survive encode/decode alongside the other
  // CONFIG_LD fields, and default to off when not requested.
  const Instruction i = make_config_ld(512, 1.0f, 1, /*int4=*/true);
  const Instruction r = roundtrip(i);
  EXPECT_EQ(r.op, Opcode::kConfigLd);
  EXPECT_EQ(r.stride_bytes, 512u);
  EXPECT_EQ(r.ld_channel, 1);
  EXPECT_TRUE(r.ld_int4);
  EXPECT_FALSE(roundtrip(make_config_ld(512, 1.0f, 1)).ld_int4);
}

TEST(RoccEncoding, ConfigStPooling) {
  const Instruction i = make_config_st(2048, 3, 2);
  const Instruction r = roundtrip(i);
  EXPECT_EQ(r.op, Opcode::kConfigSt);
  EXPECT_EQ(r.stride_bytes, 2048u);
  EXPECT_EQ(r.pool_window, 3);
  EXPECT_EQ(r.pool_stride, 2);
}

TEST(RoccEncoding, EveryFieldSurvivesEveryBuilder) {
  // Non-default values in every field a builder sets; roundtrip() compares
  // all fields, so a field the encoding drops fails here by name.
  roundtrip(make_config_ex(Dataflow::kOutputStationary, Activation::kRelu,
                           31, true));
  roundtrip(make_config_ld(0xffff'ffff'ffffull, -3.5f, 2, /*int4=*/true));
  roundtrip(make_config_st(0x1'0000'0000ull, 0xffff, 0xfffe));
  roundtrip(make_mvin(0xffff'ffff'ffffull, LocalAddr::acc_row(5, true), 0xffff,
                      0xffff, 1));
  roundtrip(make_mvout(0x40, LocalAddr::sp_row(0x3fff'ffff), 1, 2));
  roundtrip(make_preload(LocalAddr::garbage(), LocalAddr::acc_row(7, false), 0,
                         0, 3, 4));
  roundtrip(make_compute(LocalAddr::sp_row(8), LocalAddr::sp_row(9), 1, 2, 3,
                         4, false));
}

TEST(RoccEncoding, FenceAndFlush) {
  EXPECT_EQ(roundtrip(make_fence()).op, Opcode::kFence);
  EXPECT_EQ(roundtrip(make_flush()).op, Opcode::kFlush);
}

TEST(Disassembly, ReadableOutput) {
  Program prog{make_config_ex(Dataflow::kWeightStationary, Activation::kRelu,
                              8),
               make_mvin(0x1000, LocalAddr::sp_row(0), 16, 16),
               make_preload(LocalAddr::sp_row(0), LocalAddr::acc_row(0, false),
                            16, 16, 16, 16),
               make_compute(LocalAddr::sp_row(16), LocalAddr::garbage(), 16,
                            16, 0, 0, true),
               make_mvout(0x2000, LocalAddr::acc_row(0, false), 16, 16),
               make_fence()};
  const std::string d = disassemble(prog);
  EXPECT_NE(d.find("config_ex"), std::string::npos);
  EXPECT_NE(d.find("mvin"), std::string::npos);
  EXPECT_NE(d.find("preload"), std::string::npos);
  EXPECT_NE(d.find("compute.preloaded"), std::string::npos);
  EXPECT_NE(d.find("acc[0]"), std::string::npos);
  EXPECT_NE(d.find("fence"), std::string::npos);
}

TEST(Builders, RejectInvalidArguments) {
  EXPECT_DEATH(make_config_ex(Dataflow::kBoth, Activation::kNone, 0), "");
}

}  // namespace
}  // namespace gemmini
