#include "phy/pathloss.h"

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

double PathLoss::range_for_signal(double strength) const {
  UDWN_EXPECT(strength > 0);
  return std::pow(power_ / strength, 1.0 / zeta_);
}

}  // namespace udwn
