#include "sensing/primitives.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contract.h"

namespace udwn {

CarrierSensing::CarrierSensing(SensingConfig config) : config_(config) {
  UDWN_EXPECT(config.precision > 0 && config.precision < 1);
  UDWN_EXPECT(config.cd_threshold > 0);
  UDWN_EXPECT(config.ack_threshold > 0);
  UDWN_EXPECT(config.ntd_radius > 0);
  UDWN_EXPECT(config.noise >= 0);
}

CarrierSensing CarrierSensing::for_model(const ReceptionModel& model,
                                         const PathLoss& pathloss,
                                         double epsilon) {
  return with_precisions(model, pathloss, epsilon, epsilon,
                         epsilon * model.max_range() / 2);
}

CarrierSensing CarrierSensing::with_precisions(const ReceptionModel& model,
                                               const PathLoss& pathloss,
                                               double eps_cd, double eps_ack,
                                               double ntd_radius) {
  const double radius = model.max_range();
  const SuccClearParams sc = model.succ_clear(eps_ack);

  SensingConfig cfg;
  cfg.precision = eps_cd;
  // App. B, ACK: T = min{ I_c, P/(ρ_c R)^ζ }. ρ_c = 0 makes the guard term
  // infinite (SINR), i_c = inf drops the budget term (graph models); at
  // least one is finite for every model in this library.
  const double guard_term =
      sc.rho_c > 0 ? pathloss.signal(sc.rho_c * radius)
                   : std::numeric_limits<double>::infinity();
  cfg.ack_threshold = std::min(sc.i_c, guard_term);
  UDWN_ENSURE(std::isfinite(cfg.ack_threshold));
  // App. B, CD: T = P / ((1-ε)R)^ζ — one transmitter within the
  // communication radius suffices to read Busy. We additionally clamp T to
  // the ACK threshold: Try&Adjust equilibrates the ambient interference
  // just below T, and with T above I_ack the clear-channel condition would
  // be starved at scale. The paper absorbs this gap into the h1/h2
  // constants of the abstract CD primitive; a deterministic threshold
  // implementation must close it explicitly. Clamping only strengthens the
  // Busy guarantee (Prop. B.3) and weakens nothing: Icd < T still holds.
  cfg.cd_threshold = std::min(pathloss.signal((1 - eps_cd) * radius),
                              cfg.ack_threshold);
  // App. B, NTD: sender within r iff received signal > P/r^ζ.
  cfg.ntd_radius = ntd_radius;
  // Noise applies to RSSI readings only in the fading model.
  if (const auto* sinr = dynamic_cast<const SinrReception*>(&model))
    cfg.noise = sinr->noise();
  return CarrierSensing(cfg);
}

}  // namespace udwn
