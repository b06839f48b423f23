// Carrier-sensing primitives (Sec. 2 "Sensing Primitives", implemented as in
// App. B "Implementing primitives with physical carrier sensing").
//
//  * CD  — Contention Detection: Busy iff the interference sensed above the
//          noise floor reaches T_cd = min{ P/((1-ε)R)^ζ, T_ack } (App. B's
//          threshold, clamped so the contention equilibrium stays inside
//          the clear-channel regime; see primitives.cpp).
//  * ACK — Successful-Transmission Detection: after transmitting, outcome 1
//          iff the interference sensed at the transmitter is at most
//          T_ack = min{ I_c, P/(ρ_c R)^ζ }; by SuccClear this implies every
//          neighbor received the message.
//  * NTD — Near-Transmission Detection: upon decoding a message, outcome 1
//          iff the received signal strength exceeds P/(εR/2)^ζ, i.e. the
//          sender is within εR/2 (uniform power makes RSS a distance proxy).
//
// The thresholds are derived from the reception model's parameters by
// `CarrierSensing::for_model`, so each wireless model (SINR, UDG, QUDG,
// Protocol, BIG) gets the primitive constants App. B prescribes for it.
#pragma once

#include "common/types.h"
#include "phy/pathloss.h"
#include "phy/reception.h"

namespace udwn {

/// Threshold configuration of the three primitives. `precision` is the ε the
/// primitive instance was derived for (Sec. 5 uses both ε and ε/2 variants).
struct SensingConfig {
  double precision = 0;      // ε used to derive the thresholds
  double cd_threshold = 0;   // Busy iff sensed interference >= this
  double ack_threshold = 0;  // ACK=1 iff interference at transmitter <= this
  double ntd_radius = 0;     // NTD=1 iff decoded sender closer than this
  double noise = 0;          // ambient noise floor (informational: sensing
                             // thresholds apply to the excess above it)
};

class CarrierSensing {
 public:
  explicit CarrierSensing(SensingConfig config);

  /// Derive App. B thresholds for a reception model at precision ε.
  static CarrierSensing for_model(const ReceptionModel& model,
                                  const PathLoss& pathloss, double epsilon);

  /// Mixed-precision variant used by the broadcast algorithms (Sec. 5 and
  /// App. G): CD at `eps_cd`, ACK at the higher precision `eps_ack`
  /// (typically ε/2), and an explicit NTD radius (εR/2 for Bcast, εR/4 for
  /// the dominating-set stage).
  static CarrierSensing with_precisions(const ReceptionModel& model,
                                        const PathLoss& pathloss,
                                        double eps_cd, double eps_ack,
                                        double ntd_radius);

  // busy/ack/ntd are defined here: the engine evaluates them per node per
  // slot, and the build has no LTO to inline them across files.

  /// CD outcome for a node whose sensed interference (sum of signals of all
  /// other concurrent transmitters) is `interference`.
  [[nodiscard]] bool busy(double interference) const {
    // The radio reads RSSI = interference + noise and knows its own noise
    // floor N, so the threshold applies to the excess above N. (App. B's
    // ACK implementation makes the same implicit assumption: I_ack is far
    // below N in the SINR parameterization.)
    return interference >= config_.cd_threshold;
  }

  /// ACK outcome for a transmitter sensing `interference` from others.
  [[nodiscard]] bool ack(double interference) const {
    return interference <= config_.ack_threshold;
  }

  /// NTD outcome for a receiver that decoded a sender at quasi-distance
  /// `sender_distance`.
  [[nodiscard]] bool ntd(double sender_distance) const {
    return sender_distance < config_.ntd_radius;
  }

  [[nodiscard]] const SensingConfig& config() const { return config_; }

 private:
  SensingConfig config_;
};

}  // namespace udwn
