// Uniform-power geometric path loss (Sec. 2): a transmitter at quasi-distance
// d from a listener contributes signal strength P / d^ζ. All nodes use the
// same power P. Distances are clamped below by `near_limit` so that
// co-located points produce a large-but-finite signal (physically, antennas
// are never at distance zero; numerically, it keeps interference sums
// finite).
//
// Bit-exactness contract: signal(d) is the double P / std::pow(max(d,
// near_limit), ζ), for every ζ. At ζ = 3 — every workload and experiment
// here — libm's pow is skipped wherever its result is known in advance:
// certified_cube computes d³ as an exact double-double, rounds it once, and
// accepts the rounded y only when the exact cube lies more than 0.54 ulp
// from every other double. libm's pow is accurate to 0.54 ulp (the bound
// stated in glibc's sysdeps/ieee754/dbl-64/e_pow.c, glibc >= 2.28; musl
// ships the same optimized-routines pow), so it can only return y there.
// About 90% of distances are certified; libm runs for the rest and for
// every other ζ. tests/test_pathloss.cpp checks both forms against the
// written-out pow expression and checks each certificate's margin in exact
// integer arithmetic.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "metric/geometry.h"

namespace udwn {

/// When the double nearest to d³ is provably what a pow accurate to 0.54
/// ulp returns for pow(d, 3.0), store it in `cube` and return true;
/// otherwise return false (`cube` then holds an approximation to discard).
/// The certificate (see file comment): d³ = c + r exactly up to a relative
/// 2^-100, y = RN(c + r), rem = c + r − y (Fast2Sum), and y is accepted
/// when |rem| < 0.45 ulp(y), y is not a power of two (its lower neighbour
/// is only ½ ulp away) and 2^-900 <= y < 2^900 (no split overflows, no
/// error term underflows). 0, ±∞ and NaN are rejected. Branch-free, so the
/// batched PathLoss::signals loop carries no mispredicted branch.
[[nodiscard]] inline bool certified_cube(double d, double& cube) {
#if defined(__FMA__)
  // TwoProduct by fused multiply-add. Each rounded product also feeds an
  // std::fma, so a compiler that contracts a·b + c across statements cannot
  // fuse it into the sums below.
  const double p = d * d;
  const double e = std::fma(d, d, -p);  // d² = p + e exactly
  const double c = d * p;
  const double r = std::fma(d, e, std::fma(d, p, -c));  // d·p − c + d·e
#else
  // TwoProduct by Dekker/Veltkamp splitting (baseline x86-64 has no FMA).
  constexpr double kSplit = 134217729.0;  // 2^27 + 1
  const double td = kSplit * d;
  const double dh = td - (td - d);
  const double dl = d - dh;
  const double p = d * d;
  const double e = ((dh * dh - p) + 2.0 * dh * dl) + dl * dl;
  const double c = d * p;
  const double tp = kSplit * p;
  const double ph = tp - (tp - p);
  const double pl = p - ph;
  const double r = ((((dh * ph - c) + dh * pl) + dl * ph) + dl * pl) + d * e;
#endif
  const double y = c + r;
  const double rem = r - (y - c);
  // y's binade 2^E: y equals it exactly when y is a power of two.
  const double binade = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(y) & 0x7ff0000000000000ull);
  cube = y;
  // Side-effect-free compares, which compilers if-convert. NaN fails the
  // range test.
  return std::fabs(rem) < binade * (0.45 * 0x1p-52) && y != binade &&
         y >= 0x1p-900 && y < 0x1p900;
}

class PathLoss {
 public:
  /// `power` = P > 0, `zeta` = path-loss exponent ζ (equals the metricity
  /// power in this model), `near_limit` > 0 clamps tiny distances.
  PathLoss(double power, double zeta, double near_limit);

  /// Signal strength P / max(d, near_limit)^ζ: the double P /
  /// std::pow(max(d, near_limit), ζ), with pow skipped where certified_cube
  /// certifies it (ζ = 3 only).
  [[nodiscard]] double signal(double dist) const {
    const double d = dist < near_limit_ ? near_limit_ : dist;
    double cube;
    if (cube_ && certified_cube(d, cube)) return power_ / cube;
    return power_ / std::pow(d, zeta_);
  }

  /// Signal from a transmitter at `u` to a listener at `v` in the plane:
  /// P / max(hypot(u − v), near_limit)^ζ, bit for bit
  /// signal(EuclideanMetric::distance(u, v)) (co-located points give
  /// hypot(0, 0) = 0, the metric's self distance). Inline so a gain-table
  /// patch evaluates it without a call per moved column.
  [[nodiscard]] double signal(Vec2 u, Vec2 v) const {
    return signal(std::hypot(u.x - v.x, u.y - v.y));
  }

  /// Replace each distance in `values` by its signal(), bit for bit. At
  /// ζ = 3 each block of distances runs the certificate without a branch,
  /// collects the rejected entries in a stack list and sends only those to
  /// libm afterwards, so the ~10% rejects cost no misprediction. A full
  /// gain-tile fill converts its whole tile this way, the far-field near
  /// sweep each listener's terms.
  void signals(std::span<double> values) const;

  /// Distance at which the signal equals `strength`: (P/strength)^(1/ζ).
  [[nodiscard]] double range_for_signal(double strength) const;

  [[nodiscard]] double power() const { return power_; }
  [[nodiscard]] double zeta() const { return zeta_; }
  [[nodiscard]] double near_limit() const { return near_limit_; }

 private:
  double power_;
  double zeta_;
  double near_limit_;
  bool cube_;  // ζ == 3: signal() may certify the cube instead of pow
};

}  // namespace udwn
