// Foundation tests: fixed-point pipeline, RNG determinism, tensors, stats.

#include <gtest/gtest.h>

#include "src/base/fixed.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/tensor.h"
#include "src/base/types.h"

namespace gemmini {
namespace {

TEST(Fixed, RoundingShiftRoundsHalfUp) {
  EXPECT_EQ(rounding_shift(7, 0), 7);
  EXPECT_EQ(rounding_shift(4, 2), 1);   // 1.0 exactly
  EXPECT_EQ(rounding_shift(5, 2), 1);   // 1.25 -> 1
  EXPECT_EQ(rounding_shift(6, 2), 2);   // 1.5 -> 2 (half up)
  EXPECT_EQ(rounding_shift(-6, 2), -1); // -1.5 -> -1 (arithmetic shift)
  EXPECT_EQ(rounding_shift(1024, 10), 1);
}

TEST(Fixed, SaturationClamps) {
  EXPECT_EQ(saturate_i8(127), 127);
  EXPECT_EQ(saturate_i8(128), 127);
  EXPECT_EQ(saturate_i8(-128), -128);
  EXPECT_EQ(saturate_i8(-129), -128);
  EXPECT_EQ(saturate_i8(100000), 127);
  EXPECT_EQ(saturate_i8(-100000), -128);
}

TEST(Fixed, SaturatingAddI32) {
  EXPECT_EQ(saturating_add_i32(INT32_MAX, 1), INT32_MAX);
  EXPECT_EQ(saturating_add_i32(INT32_MIN, -1), INT32_MIN);
  EXPECT_EQ(saturating_add_i32(5, 7), 12);
  EXPECT_EQ(saturating_add_i32(-5, 3), -2);
}

TEST(Fixed, ActivationRelu) {
  EXPECT_EQ(apply_activation_i32(-7, Activation::kRelu), 0);
  EXPECT_EQ(apply_activation_i32(7, Activation::kRelu), 7);
  EXPECT_EQ(apply_activation_i32(-7, Activation::kNone), -7);
}

TEST(Fixed, Relu6ClipsInOutputDomain) {
  // With shift 2, the "6" threshold is 6<<2 = 24 in accumulator domain.
  EXPECT_EQ(quantize_i32_to_i8(100, 2, Activation::kRelu6), 6);
  EXPECT_EQ(quantize_i32_to_i8(20, 2, Activation::kRelu6), 5);
  EXPECT_EQ(quantize_i32_to_i8(-20, 2, Activation::kRelu6), 0);
}

TEST(Fixed, QuantizePipelineOrder) {
  // Activation happens before the shift: a negative accumulator value is
  // zeroed by ReLU even if the shifted value would round to zero anyway.
  EXPECT_EQ(quantize_i32_to_i8(-1000, 4, Activation::kRelu), 0);
  EXPECT_EQ(quantize_i32_to_i8(1000, 4, Activation::kNone), 63);  // 62.5 -> 63
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, RangeBounds) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = r.next_range(-3, 9);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 9);
  }
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Tensor, ShapeAndAccess) {
  TensorI8 t({3, 4});
  EXPECT_EQ(t.size(), 12u);
  t.at(2, 3) = 42;
  EXPECT_EQ(t[2 * 4 + 3], 42);
  TensorI8 n({2, 3, 4, 5});
  n.at(1, 2, 3, 4) = 7;
  EXPECT_EQ(n[((1 * 3 + 2) * 4 + 3) * 5 + 4], 7);
}

TEST(Tensor, RandomizeDeterministic) {
  Rng r1(5), r2(5);
  TensorI8 a({16, 16}), b({16, 16});
  a.randomize(r1);
  b.randomize(r2);
  EXPECT_EQ(a, b);
}

TEST(Stats, PercentileNearestRank) {
  const std::vector<Cycle> s = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  // Nearest-rank: rank = ceil(q/100 * N), 1-based.
  EXPECT_EQ(percentile_sorted(s, 50.0), 50u);
  EXPECT_EQ(percentile_sorted(s, 90.0), 90u);
  EXPECT_EQ(percentile_sorted(s, 95.0), 100u);  // ceil(9.5) = 10th
  EXPECT_EQ(percentile_sorted(s, 99.0), 100u);
  EXPECT_EQ(percentile_sorted(s, 100.0), 100u);
  EXPECT_EQ(percentile_sorted(s, 0.0), 10u);
  EXPECT_EQ(percentile_sorted(std::vector<Cycle>{}, 50.0), 0u);
  EXPECT_EQ(percentile_sorted(std::vector<Cycle>{7}, 99.9), 7u);
  // The unsorted convenience sorts a copy.
  EXPECT_EQ(percentile(std::vector<Cycle>{30, 10, 20}, 50.0), 20u);
}

TEST(Stats, PercentileIsExactNotInterpolated) {
  // 1000 samples 1..1000: every quantile is an actual sample.
  std::vector<Cycle> s(1000);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = i + 1;
  EXPECT_EQ(percentile_sorted(s, 50.0), 500u);
  EXPECT_EQ(percentile_sorted(s, 99.0), 990u);
  EXPECT_EQ(percentile_sorted(s, 99.9), 999u);
}

TEST(Stats, TimeWeightedMeanAndMax) {
  TimeWeighted tw;
  EXPECT_TRUE(tw.empty());
  EXPECT_DOUBLE_EQ(tw.mean(), 0.0);
  // Value 2 over [0,10), 4 over [10,30), 0 over [30,40).
  tw.record(0, 2.0);
  tw.record(10, 4.0);
  tw.record(30, 0.0);
  tw.finish(40);
  EXPECT_DOUBLE_EQ(tw.mean(), (2.0 * 10 + 4.0 * 20) / 40.0);
  EXPECT_DOUBLE_EQ(tw.max(), 4.0);
  EXPECT_EQ(tw.duration(), 40u);
  tw.reset();
  EXPECT_TRUE(tw.empty());
  EXPECT_DOUBLE_EQ(tw.max(), 0.0);
}

TEST(Stats, TimeWeightedZeroDurationAndOutOfOrder) {
  TimeWeighted tw;
  tw.record(5, 3.0);
  // No time has passed: mean falls back to the current value.
  EXPECT_DOUBLE_EQ(tw.mean(), 3.0);
  // Out-of-order samples carry zero weight but still update max.
  tw.record(3, 9.0);
  tw.finish(5);
  EXPECT_DOUBLE_EQ(tw.max(), 9.0);
}

TEST(Stats, PercentileEmptyAndClamped) {
  // Empty vectors return a value-initialized T for every q, including the
  // out-of-range ones.
  const std::vector<Cycle> empty;
  EXPECT_EQ(percentile_sorted(empty, 0.0), 0u);
  EXPECT_EQ(percentile_sorted(empty, 50.0), 0u);
  EXPECT_EQ(percentile_sorted(empty, 100.0), 0u);
  EXPECT_EQ(percentile_sorted(empty, -5.0), 0u);
  EXPECT_EQ(percentile_sorted(empty, 250.0), 0u);
  // q outside [0, 100] clamps to min/max on non-empty input.
  const std::vector<Cycle> s = {10, 20, 30};
  EXPECT_EQ(percentile_sorted(s, -1.0), 10u);
  EXPECT_EQ(percentile_sorted(s, 101.0), 30u);
}

TEST(Stats, PercentileTinyPositiveQuantile) {
  // A tiny positive q must land on the first sample (rank clamps to 1) —
  // the ceil's guard epsilon cannot drag the rank computation negative.
  const std::vector<Cycle> s = {10, 20, 30, 40};
  EXPECT_EQ(percentile_sorted(s, 1e-12), 10u);
  EXPECT_EQ(percentile_sorted(s, 1e-3), 10u);
}

TEST(Stats, TimeWeightedUnstartedAndZeroElapsed) {
  TimeWeighted tw;
  // Never recorded: everything reports zero.
  EXPECT_TRUE(tw.empty());
  EXPECT_DOUBLE_EQ(tw.mean(), 0.0);
  EXPECT_DOUBLE_EQ(tw.max(), 0.0);
  EXPECT_EQ(tw.duration(), 0u);
  // All records at one instant: zero elapsed time, mean == current value.
  tw.record(100, 7.0);
  tw.record(100, 9.0);
  tw.finish(100);
  EXPECT_EQ(tw.duration(), 0u);
  EXPECT_DOUBLE_EQ(tw.mean(), 9.0);
  EXPECT_DOUBLE_EQ(tw.max(), 9.0);
}

TEST(Stats, TimeWeightedAllNegativeMax) {
  // The first observation seeds the max: an all-negative series must not
  // report the zero initializer.
  TimeWeighted tw;
  tw.record(0, -5.0);
  tw.record(10, -2.0);
  tw.finish(20);
  EXPECT_DOUBLE_EQ(tw.max(), -2.0);
  EXPECT_DOUBLE_EQ(tw.mean(), (-5.0 * 10 + -2.0 * 10) / 20.0);
}

TEST(Types, PageArithmetic) {
  EXPECT_EQ(page_number(0x12345), 0x12ull);
  EXPECT_EQ(page_offset(0x12345), 0x345ull);
  EXPECT_EQ(page_base(0x12345), 0x12000ull);
}

TEST(Types, DtypeSizes) {
  EXPECT_EQ(dtype_bytes(DType::kInt8), 1u);
  EXPECT_EQ(dtype_bytes(DType::kFp32), 4u);
  EXPECT_EQ(acc_dtype_bytes(DType::kInt8), 4u);
}

}  // namespace
}  // namespace gemmini
