// Uniform-power geometric path loss (Sec. 2): a transmitter at quasi-distance
// d from a listener contributes signal strength P / d^ζ. All nodes use the
// same power P. Distances are clamped below by `near_limit` so that
// co-located points produce a large-but-finite signal (physically, antennas
// are never at distance zero; numerically, it keeps interference sums
// finite).
#pragma once

#include <cmath>

#include "metric/geometry.h"

namespace udwn {

class PathLoss {
 public:
  /// `power` = P > 0, `zeta` = path-loss exponent ζ (equals the metricity
  /// power in this model), `near_limit` > 0 clamps tiny distances.
  PathLoss(double power, double zeta, double near_limit);

  /// Signal strength P / max(d, near_limit)^ζ.
  [[nodiscard]] double signal(double dist) const {
    const double d = dist < near_limit_ ? near_limit_ : dist;
    return power_ / std::pow(d, zeta_);
  }

  /// Signal from a transmitter at `u` to a listener at `v` in the plane:
  /// P / max(hypot(u − v), near_limit)^ζ, bit for bit
  /// signal(EuclideanMetric::distance(u, v)) (co-located points give
  /// hypot(0, 0) = 0, the metric's self distance). Inline so the gain-table
  /// fill and the far-field near sweep evaluate it without a call per pair.
  [[nodiscard]] double signal(Vec2 u, Vec2 v) const {
    return signal(std::hypot(u.x - v.x, u.y - v.y));
  }

  /// Distance at which the signal equals `strength`: (P/strength)^(1/ζ).
  [[nodiscard]] double range_for_signal(double strength) const;

  [[nodiscard]] double power() const { return power_; }
  [[nodiscard]] double zeta() const { return zeta_; }
  [[nodiscard]] double near_limit() const { return near_limit_; }

 private:
  double power_;
  double zeta_;
  double near_limit_;
};

}  // namespace udwn
