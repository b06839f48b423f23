#include "phy/pathloss.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "metric/euclidean.h"
#include "tests/helpers.h"

namespace udwn {
namespace {

TEST(PathLoss, InverseCubeLaw) {
  PathLoss pl(8.0, 3.0, 1e-3);
  EXPECT_DOUBLE_EQ(pl.signal(2.0), 1.0);
  EXPECT_DOUBLE_EQ(pl.signal(1.0), 8.0);
}

TEST(PathLoss, MonotoneDecreasing) {
  PathLoss pl(1.0, 2.5, 1e-3);
  double prev = pl.signal(0.01);
  for (double d = 0.02; d < 10; d += 0.13) {
    const double s = pl.signal(d);
    EXPECT_LT(s, prev);
    prev = s;
  }
}

TEST(PathLoss, NearFieldClamp) {
  PathLoss pl(1.0, 3.0, 0.1);
  // Below the clamp everything reads like distance 0.1 — finite.
  EXPECT_DOUBLE_EQ(pl.signal(0.0), pl.signal(0.1));
  EXPECT_DOUBLE_EQ(pl.signal(0.05), 1.0 / std::pow(0.1, 3.0));
  EXPECT_TRUE(std::isfinite(pl.signal(0.0)));
}

TEST(PathLoss, RangeForSignalIsInverse) {
  PathLoss pl(2.0, 3.0, 1e-3);
  for (double d : {0.5, 1.0, 2.0, 7.0}) {
    const double s = pl.signal(d);
    EXPECT_NEAR(pl.range_for_signal(s), d, 1e-12);
  }
}

TEST(PathLoss, Accessors) {
  PathLoss pl(4.0, 2.0, 0.01);
  EXPECT_DOUBLE_EQ(pl.power(), 4.0);
  EXPECT_DOUBLE_EQ(pl.zeta(), 2.0);
  EXPECT_DOUBLE_EQ(pl.near_limit(), 0.01);
}

TEST(PathLoss, ZetaControlsDecayRate) {
  PathLoss shallow(1.0, 2.0, 1e-6);
  PathLoss steep(1.0, 4.0, 1e-6);
  // Beyond distance 1, steeper exponent decays faster.
  EXPECT_LT(steep.signal(2.0), shallow.signal(2.0));
  // Inside distance 1, steeper exponent is stronger.
  EXPECT_GT(steep.signal(0.5), shallow.signal(0.5));
  EXPECT_DOUBLE_EQ(steep.signal(1.0), shallow.signal(1.0));
}

TEST(PathLoss, PlanarSignalIsSignalOfEuclideanDistanceBitForBit) {
  // The inline signal(u, v) that gain-table fills and the far-field near
  // sweep evaluate must be the metric path's double exactly: across random
  // pairs, a co-located pair (the metric's u == v shortcut returns 0, the
  // planar form the norm of (0, 0)) and pairs inside the near-limit clamp.
  std::vector<Vec2> pts = test::random_points(40, 6.0, 701);
  pts.push_back(pts[3]);                          // co-located with 3
  pts.push_back(pts[5] + Vec2{2e-4, -3e-4});      // inside the clamp of 5
  pts.push_back(pts[7] + Vec2{1e-3, 0.0});        // exactly at the clamp
  const EuclideanMetric metric(pts);
  const PathLoss pl(2.0, 2.7, 1e-3);
  for (std::uint32_t u = 0; u < pts.size(); ++u)
    for (std::uint32_t v = 0; v < pts.size(); ++v) {
      const double planar = pl.signal(pts[u], pts[v]);
      const double reference = pl.signal(metric.distance(NodeId(u), NodeId(v)));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(planar),
                std::bit_cast<std::uint64_t>(reference))
          << "pair (" << u << ", " << v << ")";
    }
  EXPECT_EQ(pl.signal(pts[3], pts.end()[-3]), pl.signal(0.0));
  EXPECT_EQ(pl.signal(pts[5], pts.end()[-2]), pl.signal(1e-3));
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(PathLoss, GainIsThePlainIeeeExpressionBitForBit) {
  // The definition (pathloss.h): at ζ = 3, P / ((c·c)·c) with c = max(d,
  // near) and the planar distance sqrt(dx·dx + dy·dy); P / pow(c, ζ) for any
  // other ζ. Both forms of signal() must equal it written out, bit for bit.
  const double near = 1e-3;
  const auto cube = [&](double power, double d) {
    const double c = std::max(d, near);
    return power / ((c * c) * c);
  };
  const PathLoss pl(1.5, 3.0, near);
  ASSERT_TRUE(pl.cube());
  Rng rng(20240601);
  // Uniform over the workloads' extents (a 64k-node square at density 8
  // spans 90.5, diagonal 128), log-uniform over 2^-40 … 2^40, and the clamp.
  std::vector<double> dist = {0.0, near / 2, near, 1.0, 2.0, 90.5, 128.0};
  for (int i = 0; i < 100'000; ++i) dist.push_back(rng.uniform(0.0, 128.0));
  for (int i = 0; i < 100'000; ++i)
    dist.push_back(std::exp2(rng.uniform(-40.0, 40.0)));
  for (const double d : dist)
    ASSERT_EQ(bits(pl.signal(d)), bits(cube(1.5, d))) << std::hexfloat << d;

  // Planar pairs, co-located pairs included: sqrt(dx·dx + dy·dy), no hypot.
  for (int i = 0; i < 100'000; ++i) {
    const Vec2 u{rng.uniform(0.0, 90.5), rng.uniform(0.0, 90.5)};
    const Vec2 v = i % 10 == 0 ? u
                   : i % 10 == 1
                       ? u + Vec2{rng.uniform(-near, near), 0.0}
                       : Vec2{rng.uniform(0.0, 90.5), rng.uniform(0.0, 90.5)};
    const double dx = u.x - v.x;
    const double dy = u.y - v.y;
    ASSERT_EQ(bits(pl.signal(u, v)),
              bits(cube(1.5, std::sqrt(dx * dx + dy * dy))))
        << u.x << "," << u.y << " " << v.x << "," << v.y;
  }
  EXPECT_EQ(pl.signal(Vec2{3, 4}, Vec2{3, 4}), pl.signal(near));
  EXPECT_EQ(pl.signal(Vec2{0, 0}, Vec2{3, 4}), 1.5 / 125.0);

  // Any other ζ keeps pow.
  for (const double zeta : {2.0, 2.5, 4.0}) {
    const PathLoss other(1.5, zeta, near);
    EXPECT_FALSE(other.cube());
    for (std::size_t i = 0; i < dist.size(); i += 97) {
      const double d = dist[i];
      ASSERT_EQ(bits(other.signal(d)),
                bits(1.5 / std::pow(std::max(d, near), zeta)))
          << zeta << " " << std::hexfloat << d;
    }
  }
}

}  // namespace
}  // namespace udwn
