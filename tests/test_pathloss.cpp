#include "phy/pathloss.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
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
  // planar form hypot(0, 0)) and pairs inside the near-limit clamp.
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

// --- Certified cube oracle ---------------------------------------------------
//
// ReferenceCheck cannot see a wrong certificate: Channel::resolve() calls the
// same PathLoss::signal. So these tests compare both forms — signal(d) and
// the batched signals() — bit for bit with the expression written out
// here, and check every accepted certificate in exact integer arithmetic:
// the exact cube d³ must lie in y's binade with both neighbours of y more
// than 0.54 ulp(y) away, so that a pow accurate to 0.54 ulp can only
// return y. The second check holds whatever this host's libm happens to
// round correctly.

// Unsigned integer in base-2^32 limbs, least significant first: wide enough
// for 100 · d³ in units of d's last bit cubed (< 2^168).
class Exact {
 public:
  static Exact of(std::uint64_t v) {
    Exact x;
    x.limb_[0] = v & kMask;
    x.limb_[1] = v >> 32;
    return x;
  }

  friend Exact operator*(const Exact& a, const Exact& b) {
    Exact r;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      std::uint64_t carry = 0;
      for (std::size_t j = 0; i + j < kLimbs; ++j) {
        const std::uint64_t cur =
            r.limb_[i + j] + a.limb_[i] * b.limb_[j] + carry;
        r.limb_[i + j] = cur & kMask;
        carry = cur >> 32;
      }
    }
    return r;
  }

  // a − b for a >= b.
  friend Exact operator-(const Exact& a, const Exact& b) {
    Exact r;
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      const std::uint64_t sub = b.limb_[i] + borrow;
      borrow = a.limb_[i] < sub ? 1 : 0;
      r.limb_[i] = (a.limb_[i] + (borrow << 32) - sub) & kMask;
    }
    return r;
  }

  friend bool operator<(const Exact& a, const Exact& b) {
    for (std::size_t i = kLimbs; i-- > 0;)
      if (a.limb_[i] != b.limb_[i]) return a.limb_[i] < b.limb_[i];
    return false;
  }

  [[nodiscard]] Exact shifted_left(int bits) const {
    Exact r;
    const auto whole = static_cast<std::size_t>(bits / 32);
    const int part = bits % 32;
    for (std::size_t i = kLimbs; i-- > whole;) {
      std::uint64_t v = limb_[i - whole] << part;
      if (part != 0 && i > whole) v |= limb_[i - whole - 1] >> (32 - part);
      r.limb_[i] = v & kMask;
    }
    return r;
  }

  // The value rounded to a double (limb by limb from the top).
  [[nodiscard]] double to_double() const {
    double v = 0;
    for (std::size_t i = kLimbs; i-- > 0;)
      v = v * 0x1p32 + static_cast<double>(limb_[i]);
    return v;
  }

 private:
  static constexpr std::size_t kLimbs = 8;
  static constexpr std::uint64_t kMask = 0xffffffffull;
  std::array<std::uint64_t, kLimbs> limb_{};
};

// A finite positive double as integer · 2^exponent, the integer < 2^53.
struct Split {
  std::uint64_t mantissa;
  int exponent;
};

Split split(double x) {
  int e = 0;
  const double f = std::frexp(x, &e);
  return {static_cast<std::uint64_t>(std::ldexp(f, 53)), e - 53};
}

struct Margin {
  bool sound = false;     // d³ in y's binade, both neighbours > 0.54 ulp(y)
  double residual = 0;    // |d³ − y| / ulp(y)
};

// Exact position of d³ relative to the double y (both positive, normal).
Margin exact_margin(double d, double y) {
  const Split m = split(d);
  const Split yy = split(y);
  const int shift = yy.exponent - 3 * m.exponent;  // ulp(y) in units of 2^(3a)
  EXPECT_GT(shift, 0) << d;
  EXPECT_LT(shift, 200) << d;
  if (shift <= 0 || shift >= 200) return {};
  const Exact md = Exact::of(m.mantissa);
  const Exact cube = md * md * md;
  const Exact y_exact = Exact::of(yy.mantissa).shifted_left(shift);
  const Exact ulp = Exact::of(1).shifted_left(shift);
  const Exact binade_lo = Exact::of(std::uint64_t{1} << 52).shifted_left(shift);
  const Exact binade_hi = Exact::of(std::uint64_t{1} << 53).shifted_left(shift);
  // Neighbours of y; below a power of two the gap halves.
  const Exact above = Exact::of(yy.mantissa + 1).shifted_left(shift);
  const Exact below = yy.mantissa == (std::uint64_t{1} << 52)
                          ? Exact::of((std::uint64_t{1} << 53) - 1)
                                .shifted_left(shift - 1)
                          : Exact::of(yy.mantissa - 1).shifted_left(shift);
  Margin out;
  const Exact gap = cube < y_exact ? y_exact - cube : cube - y_exact;
  out.residual = gap.to_double() / ulp.to_double();
  if (cube < below || above < cube) return out;
  // 100 · distance > 54 · ulp(y) to both neighbours.
  const Exact need = Exact::of(54) * ulp;
  const Exact hundred = Exact::of(100);
  out.sound = !(cube < binade_lo) && cube < binade_hi &&
              need < hundred * (cube - below) &&
              need < hundred * (above - cube);
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// P / pow(max(d, near), ζ), written out: the double every form must equal.
double reference_signal(double power, double zeta, double near, double d) {
  return power / std::pow(std::max(d, near), zeta);
}

struct CubeTally {
  std::size_t total = 0;
  std::size_t rejected = 0;
  [[nodiscard]] double rejected_share() const {
    return static_cast<double>(rejected) / static_cast<double>(total);
  }
};

// Check both forms of pl.signal against the written-out expression on every
// distance, and every accepted certificate against the exact oracle. Stops
// at the first few failures so a broken certificate does not flood the log.
CubeTally check_distances(const PathLoss& pl, std::span<const double> dist) {
  CubeTally tally;
  std::vector<double> batch(dist.begin(), dist.end());
  pl.signals(batch);
  int failures = 0;
  for (std::size_t i = 0; i < dist.size() && failures < 5; ++i) {
    const double d = dist[i];
    const double want =
        reference_signal(pl.power(), pl.zeta(), pl.near_limit(), d);
    const double scalar = pl.signal(d);
    const bool agree = std::isnan(want)
                           ? std::isnan(scalar) && std::isnan(batch[i])
                           : bits(scalar) == bits(want) &&
                                 bits(batch[i]) == bits(want);
    if (!agree) {
      ADD_FAILURE() << "d = " << std::hexfloat << d << ": reference " << want
                    << ", signal " << scalar << ", signals " << batch[i];
      ++failures;
    }
    double cube = 0;
    const double clamped = std::max(d, pl.near_limit());
    ++tally.total;
    if (!certified_cube(clamped, cube)) {
      ++tally.rejected;
      continue;
    }
    if (!exact_margin(clamped, cube).sound) {
      ADD_FAILURE() << "certified " << std::hexfloat << cube << " for d = "
                    << clamped << " without a 0.54-ulp margin";
      ++failures;
    }
  }
  return tally;
}

TEST(CertifiedCube, WorkloadAndLogUniformDistancesMatchPowBitForBit) {
  // Ten million distances: uniform over the workloads' extents (a 64k-node
  // square at density 8 spans 90.5, diagonal 128) and log-uniform over
  // 2^-40 … 2^40, in batches of ragged lengths.
  const PathLoss pl(1.0, 3.0, 1e-3);
  Rng rng(20240601);
  std::vector<double> dist;
  CubeTally uniform;
  CubeTally log_uniform;
  const std::size_t lengths[] = {4096, 1, 255, 256, 257, 3001};
  for (std::size_t round = 0; uniform.total < 4'000'000; ++round) {
    dist.resize(lengths[round % std::size(lengths)]);
    for (double& d : dist) d = rng.uniform(0.0, 128.0);
    const CubeTally t = check_distances(pl, dist);
    uniform.total += t.total;
    uniform.rejected += t.rejected;
    ASSERT_FALSE(HasFailure());
  }
  for (std::size_t round = 0; log_uniform.total < 6'000'000; ++round) {
    dist.resize(lengths[round % std::size(lengths)]);
    for (double& d : dist) d = std::exp2(rng.uniform(-40.0, 40.0));
    const CubeTally t = check_distances(pl, dist);
    log_uniform.total += t.total;
    log_uniform.rejected += t.rejected;
    ASSERT_FALSE(HasFailure());
  }
  // ~10% of cubes land within 0.05 ulp of a rounding boundary; a fast path
  // that never fires, or fires on everything, fails here.
  for (const CubeTally& t : {uniform, log_uniform}) {
    EXPECT_GT(t.rejected_share(), 0.05);
    EXPECT_LT(t.rejected_share(), 0.15);
  }
}

TEST(CertifiedCube, NeighbourhoodsOfCubeRootsOfPowersOfTwo) {
  // Where d³ crosses a power of two the gap between doubles halves: the
  // certificate must not accept a power of two from below, nor one whose
  // lower neighbour is nearer than 0.54 ulp. ±10^4 ulps around cbrt(2^k).
  const PathLoss pl(1.0, 3.0, 0x1p-80);
  std::vector<double> dist;
  std::size_t power_of_two_cubes = 0;
  for (int k = -60; k <= 60; ++k) {
    const double centre = std::cbrt(std::ldexp(1.0, k));
    dist.clear();
    for (std::int64_t step = -10'000; step <= 10'000; ++step)
      dist.push_back(std::bit_cast<double>(
          static_cast<std::uint64_t>(static_cast<std::int64_t>(bits(centre)) +
                                     step)));
    check_distances(pl, dist);
    ASSERT_FALSE(HasFailure()) << "k = " << k;
    for (const double d : dist) {
      double cube = 0;
      (void)certified_cube(d, cube);
      power_of_two_cubes += (bits(cube) & 0x000fffffffffffffull) == 0;
    }
  }
  // The rounded cube is a power of two for the 41 exact cubes d = 2^(k/3)
  // and for doubles next to the other cube roots: the guard has work to do.
  EXPECT_GT(power_of_two_cubes, 41u);
}

TEST(CertifiedCube, ResidualsNearTheMarginAreDecidedSoundly) {
  // Inputs whose exact residual |d³ − RN(d³)| lies in [0.40, 0.50) ulp: the
  // certificate accepts below 0.45 and rejects above, and both forms still
  // equal the reference.
  const PathLoss pl(2.0, 3.0, 1e-3);
  Rng rng(1605);
  std::vector<double> band;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  while (band.size() < 200'000) {
    const double d = rng.uniform(1e-3, 128.0);
    const double rounded = std::pow(d, 3.0);
    const Margin m = exact_margin(d, rounded);
    if (m.residual < 0.40 || m.residual >= 0.50) continue;
    band.push_back(d);
    double cube = 0;
    const bool ok = certified_cube(d, cube);
    if (m.residual < 0.4499) {
      EXPECT_TRUE(ok || (bits(rounded) & 0x000fffffffffffffull) == 0) << d;
    } else if (m.residual > 0.4501) {
      EXPECT_FALSE(ok) << std::hexfloat << d;
    }
    accepted += ok;
    rejected += !ok;
    if (HasFailure()) return;
  }
  check_distances(pl, band);
  EXPECT_GT(accepted, 50'000u);
  EXPECT_GT(rejected, 50'000u);
}

TEST(CertifiedCube, SpecialValuesAndOtherExponentsFallBackToPow) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> dist = {
      0.0,        1e-3,        inf,          nan,          -1.0,
      0x1p-1074,  0x1p-400,    0x1p-301,     0x1p-299,     0x1p299,
      0x1p301,    0x1p400,     0x1.fffffffffffffp1023,      1.0,
      2.0,        0x1p-3,      std::cbrt(2.0), 90.5,       127.99};
  for (const double zeta : {3.0, 2.5, 4.0}) {
    const PathLoss pl(1.5, zeta, 1e-3);
    check_distances(pl, dist);
  }
  // Zero, infinity, NaN and the ends of the safe range are never certified.
  for (const double d : {0.0, inf, nan, 0x1p-400, 0x1p400}) {
    double cube = 0;
    EXPECT_FALSE(certified_cube(d, cube)) << d;
  }
  // Off ζ = 3 every value comes from pow, in both forms.
  const PathLoss quartic(1.0, 4.0, 1e-3);
  std::vector<double> batch = {0.5, 1.7, 33.0};
  quartic.signals(batch);
  EXPECT_EQ(bits(batch[1]), bits(1.0 / std::pow(1.7, 4.0)));
}

}  // namespace
}  // namespace udwn
