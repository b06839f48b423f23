// Adversarial jammer: a node that transmits garbage with a fixed probability
// every round, forever. The unified model's adversary controls all
// receptions outside the SuccClear condition; a jammer is the simplest
// *active* instantiation — it shrinks the clear-channel opportunities of
// everyone in its interference footprint. Used by the robustness ablation
// (EXP-15) to map how dissemination degrades as jamming intensifies, and in
// tests to confirm the contention-balancing machinery does not misbehave
// around a node that ignores the protocol.
#pragma once

#include "common/types.h"
#include "sim/protocol.h"

namespace udwn {

class JammerProtocol final : public Protocol {
 public:
  /// Jams the data slot with probability q per round; `jam_notify` extends
  /// the attack to the Sec. 5 Notify slot.
  explicit JammerProtocol(double q, bool jam_notify = false);

  void on_start() override {}
  [[nodiscard]] double transmit_probability(Slot slot) override;
  void on_slot(const SlotFeedback&) override {}
  [[nodiscard]] bool isolated() const override { return true; }

 private:
  double q_;
  bool jam_notify_;
};

}  // namespace udwn
