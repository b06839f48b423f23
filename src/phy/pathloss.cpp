#include "phy/pathloss.h"

#include <algorithm>
#include <cmath>

#include "common/contract.h"

namespace udwn {

PathLoss::PathLoss(double power, double zeta, double near_limit)
    : power_(power), zeta_(zeta), near_limit_(near_limit) {
  UDWN_EXPECT(power > 0);
  UDWN_EXPECT(zeta > 0);
  UDWN_EXPECT(near_limit > 0);
  cube_ = zeta == 3.0;  // udwn-lint: allow(float-eq): exact config ζ = 3
}

void PathLoss::signals(std::span<double> values) const {
  // A block costs ~60 ns however short it is; below about 8 distances the
  // inline form, branch mispredictions included, is cheaper (scratch
  // microbenchmark on the 4-vCPU reference host).
  constexpr std::size_t kMinBatch = 8;
  if (!cube_ || values.size() < kMinBatch) {
    for (double& v : values) v = signal(v);
    return;
  }
  // One block at a time through stack scratch: the clamped distances
  // (padded with 1.0, whose cube is exact, to a multiple of four), the
  // quotients of every certified cube, and a 0.0/1.0 reject flag per entry.
  // The certificate loop runs over whole groups of four without a branch,
  // so the compiler vectorizes it at any block length; the rejects are then
  // compacted into a list and sent to libm.
  constexpr std::size_t kBlock = 256;
  double dist[kBlock];
  double gain[kBlock];
  double rejected[kBlock];
  std::uint32_t reject_at[kBlock];
  for (std::size_t lo = 0; lo < values.size(); lo += kBlock) {
    double* const v = values.data() + lo;
    const std::size_t count = std::min(kBlock, values.size() - lo);
    const std::size_t quads = (count + 3) / 4;
    for (std::size_t j = 0; j < count; ++j)
      dist[j] = v[j] < near_limit_ ? near_limit_ : v[j];
    std::fill(dist + count, dist + 4 * quads, 1.0);
    for (std::size_t q = 0; q < quads; ++q) {
      for (std::size_t j = 4 * q; j < 4 * q + 4; ++j) {
        double cube;
        const bool ok = certified_cube(dist[j], cube);
        gain[j] = power_ / cube;
        rejected[j] = ok ? 0.0 : 1.0;
      }
    }
    std::size_t rejects = 0;
    for (std::size_t j = 0; j < count; ++j) {
      reject_at[rejects] = static_cast<std::uint32_t>(j);
      rejects += static_cast<std::size_t>(rejected[j]);
    }
    std::copy_n(gain, count, v);
    for (std::size_t i = 0; i < rejects; ++i)
      v[reject_at[i]] = power_ / std::pow(dist[reject_at[i]], zeta_);
  }
}

double PathLoss::range_for_signal(double strength) const {
  UDWN_EXPECT(strength > 0);
  return std::pow(power_ / strength, 1.0 / zeta_);
}

}  // namespace udwn
