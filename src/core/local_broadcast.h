// LocalBcast (Sec. 4): asynchronous local broadcast in dynamic networks.
//
// Each node runs Try&Adjust(β=1) and stops as soon as a transmission is
// ACK-confirmed (the ACK primitive guarantees all current neighbors
// received). Thm 4.1: a node mass-delivers within O(∆ρ + log n) rounds; in
// static networks this is the optimal O(∆ + log n) (Cor. 4.3), and in the
// static spontaneous setting the algorithm is *uniform* — it needs no bound
// on the network size (remark after Thm 4.1; use TryAdjust::uniform).
#pragma once

#include "common/types.h"
#include "core/try_adjust.h"
#include "sim/protocol.h"

namespace udwn {

class LocalBcastProtocol final : public Protocol {
 public:
  explicit LocalBcastProtocol(TryAdjust::Config config);

  void on_start() override;
  [[nodiscard]] double transmit_probability(Slot slot) override;
  void on_slot(const SlotFeedback& feedback) override;
  [[nodiscard]] bool isolated() const override { return true; }
  [[nodiscard]] bool finished() const override { return delivered_; }
  /// 0 = contending, 1 = ACK-confirmed delivery.
  [[nodiscard]] std::uint32_t obs_state() const override {
    return delivered_ ? 1 : 0;
  }

  /// Number of local rounds taken before the ACK-confirmed delivery
  /// (counts only rounds since the last on_start).
  [[nodiscard]] std::int64_t rounds_to_delivery() const {
    return delivered_ ? completed_round_ : -1;
  }

  /// Local rounds executed since the last on_start.
  [[nodiscard]] std::int64_t local_rounds() const { return local_rounds_; }

 private:
  TryAdjust controller_;
  bool delivered_ = false;
  std::int64_t local_rounds_ = 0;
  std::int64_t completed_round_ = -1;
};

}  // namespace udwn
