#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <vector>

namespace udwn {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng rng(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.next());
  EXPECT_GT(seen.size(), 95u);  // not stuck
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    ASSERT_GE(x, -3.0);
    ASSERT_LT(x, 5.0);
  }
}

TEST(Rng, UniformDegenerateRange) {
  Rng rng(9);
  EXPECT_DOUBLE_EQ(rng.uniform(2.0, 2.0), 2.0);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(10);
  std::array<int, 7> counts{};
  for (int i = 0; i < 70000; ++i) ++counts[rng.below(7)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(12);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.range(-2, 2);
    ASSERT_GE(x, -2);
    ASSERT_LE(x, 2);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(14);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits, 30000, 700);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(21);
  Rng a = parent.split();
  Rng b = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitIsDeterministic) {
  Rng p1(33), p2(33);
  Rng a = p1.split();
  Rng b = p2.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5};
  std::shuffle(v.begin(), v.end(), rng);  // compiles and runs
  EXPECT_EQ(v.size(), 5u);
}

// Chi-squared sanity check on the low bits (xoshiro256++ should show no
// detectable bias at this sample size).
TEST(Rng, LowBitsUnbiased) {
  Rng rng(99);
  std::array<int, 16> counts{};
  const int samples = 160000;
  for (int i = 0; i < samples; ++i) ++counts[rng.next() & 0xf];
  double chi2 = 0;
  const double expected = samples / 16.0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 40.0);  // 15 dof; 40 is far beyond the 0.999 quantile
}

// Pins the stream itself, not just its self-consistency: every seeded trace
// hash in the repository depends on these exact outputs, so any change to
// seeding, next(), uniform(), chance() or split() fails here first.
TEST(Rng, StreamMatchesReferenceValues) {
  Rng rng(42);
  const std::array<std::uint64_t, 8> raw = {
      0xd0764d4f4476689full, 0x519e4174576f3791ull, 0xfbe07cfb0c24ed8cull,
      0xb37d9f600cd835b8ull, 0xcb231c3874846a73ull, 0x968d9f004e50de7dull,
      0x201718ff221a3556ull, 0x9ae94e070ed8cb46ull};
  for (const std::uint64_t want : raw) EXPECT_EQ(rng.next(), want);
  const std::array<double, 4> unit = {0x1.a9679ed784ae4p-3,
                                      0x1.dddfac6433694p-1,
                                      0x1.1e7bf530041cfp-1,
                                      0x1.b3371c00f25e6p-1};
  for (const double want : unit) EXPECT_EQ(rng.uniform(), want);
  std::string draws;
  for (int i = 0; i < 32; ++i) draws += rng.chance(0.3) ? '1' : '0';
  EXPECT_EQ(draws, "01001100100001000010010000000100");
  Rng child = rng.split();
  EXPECT_EQ(child.next(), 0xa835a73600e7b9caull);
}

}  // namespace
}  // namespace udwn
