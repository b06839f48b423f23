// Uniform-power geometric path loss (Sec. 2): a transmitter at quasi-distance
// d from a listener contributes signal strength P / d^ζ. All nodes use the
// same power P. Distances are clamped below by `near_limit` so that
// co-located points produce a large-but-finite signal (physically, antennas
// are never at distance zero; numerically, it keeps interference sums
// finite).
//
// Definition: signal(d) is the double P / ((c·c)·c) at ζ = 3 and
// P / std::pow(c, ζ) otherwise, where c = max(d, near_limit). Every workload
// and experiment here uses ζ = 3, so its gain is three IEEE operations, each
// correctly rounded: every conforming host and build computes the same bits,
// with no libm routine whose result could depend on the host's CPU or the
// C library's version. The build compiles with -ffp-contract=off
// (src/common/CMakeLists.txt), so no compiler fuses a product and a sum into
// an FMA in a -march build. The planar distance is (u − v).norm(), the
// sqrt(dx·dx + dy·dy) of geometry.h, the expression EuclideanMetric uses.
// The ζ = 3 gain lies within a few ulps of the correctly rounded P / c³;
// c·c underflows only for c below ~1e-154, far inside any near limit.
// tests/test_pathloss.cpp checks both forms of signal against these
// expressions written out.
#pragma once

#include <cmath>
#include <type_traits>

#include "metric/geometry.h"

namespace udwn {

class PathLoss {
 public:
  /// `power` = P > 0, `zeta` = path-loss exponent ζ (equals the metricity
  /// power in this model), `near_limit` > 0 clamps tiny distances.
  PathLoss(double power, double zeta, double near_limit);

  /// Signal strength P / max(d, near_limit)^ζ, as defined in the file
  /// comment.
  [[nodiscard]] double signal(double dist) const {
    return cube_ ? gain<true>(dist) : gain<false>(dist);
  }

  /// Signal from a transmitter at `u` to a listener at `v` in the plane:
  /// bit for bit signal(EuclideanMetric::distance(u, v)) (co-located points
  /// give norm 0, the metric's self distance).
  [[nodiscard]] double signal(Vec2 u, Vec2 v) const {
    return signal((u - v).norm());
  }

  /// signal(dist) with the ζ = 3 decision made by the caller: kCube must
  /// equal cube(). Loops over many terms take the decision once, through
  /// with_exponent, instead of once per term.
  template <bool kCube>
  [[nodiscard]] double gain(double dist) const {
    const double d = dist < near_limit_ ? near_limit_ : dist;
    if constexpr (kCube) {
      return power_ / ((d * d) * d);
    } else {
      return power_ / std::pow(d, zeta_);
    }
  }

  /// body(std::bool_constant<cube()>{}): a loop inside `body` evaluates
  /// gain<decltype(cube)::value> without a per-term branch.
  template <class Body>
  decltype(auto) with_exponent(Body&& body) const {
    return cube_ ? body(std::true_type{}) : body(std::false_type{});
  }

  /// Distance at which the signal equals `strength`: (P/strength)^(1/ζ).
  [[nodiscard]] double range_for_signal(double strength) const;

  [[nodiscard]] double power() const { return power_; }
  [[nodiscard]] double zeta() const { return zeta_; }
  [[nodiscard]] double near_limit() const { return near_limit_; }
  /// ζ == 3, the exponent whose gain is written out without pow.
  [[nodiscard]] bool cube() const { return cube_; }

 private:
  double power_;
  double zeta_;
  double near_limit_;
  bool cube_;  // ζ == 3: the gain is P / ((d·d)·d), without pow
};

}  // namespace udwn
