// Fixed-probability (slotted-ALOHA style) local broadcast: transmit with a
// constant probability p every round until ACK. With oracle knowledge
// p = Θ(1/∆) this is the classic "knows the degree" baseline — near-optimal
// when ∆ is known exactly, brittle when the guess is off. EXP-04 and the
// ablation sweep measure both regimes against the knowledge-free LocalBcast.
#pragma once

#include "common/types.h"
#include "sim/protocol.h"

namespace udwn {

class AlohaLocalBcastProtocol final : public Protocol {
 public:
  explicit AlohaLocalBcastProtocol(double probability);

  void on_start() override;
  [[nodiscard]] double transmit_probability(Slot slot) override;
  void on_slot(const SlotFeedback& feedback) override;
  [[nodiscard]] bool isolated() const override { return true; }
  [[nodiscard]] bool finished() const override { return delivered_; }

  [[nodiscard]] std::int64_t rounds_to_delivery() const {
    return delivered_ ? completed_round_ : -1;
  }

 private:
  double probability_;
  bool delivered_ = false;
  std::int64_t local_rounds_ = 0;
  std::int64_t completed_round_ = -1;
};

}  // namespace udwn
