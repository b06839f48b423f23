// Plane geometry primitives for Euclidean instances.
#pragma once

#include <cmath>

namespace udwn {

struct Vec2 {
  double x = 0;
  double y = 0;

  friend constexpr Vec2 operator+(Vec2 a, Vec2 b) {
    return {a.x + b.x, a.y + b.y};
  }
  friend constexpr Vec2 operator-(Vec2 a, Vec2 b) {
    return {a.x - b.x, a.y - b.y};
  }
  friend constexpr Vec2 operator*(Vec2 a, double s) {
    return {a.x * s, a.y * s};
  }
  friend constexpr Vec2 operator*(double s, Vec2 a) { return a * s; }
  friend constexpr bool operator==(Vec2, Vec2) = default;

  /// sqrt(x·x + y·y): correctly rounded operations only, so the same bits
  /// on every IEEE host (no libm hypot; the build forbids FMA contraction).
  [[nodiscard]] double norm() const { return std::sqrt(norm2()); }
  [[nodiscard]] constexpr double norm2() const { return x * x + y * y; }
};

inline double distance(Vec2 a, Vec2 b) { return (a - b).norm(); }

}  // namespace udwn
