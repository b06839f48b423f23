// Bcast(β) and Bcast* — global broadcast (Sec. 5).
//
// Rounds are synchronous and consist of two slots. In the Data slot an
// informed node disseminates with Try&Adjust(β); the Notify slot informs
// close-by nodes that a neighborhood has been covered:
//
//   1. if a node detects ACK in the Data slot, it retransmits in the Notify
//      slot and restarts Try&Adjust(β);
//   2. if a node received a message in the Data slot and detects NTD in the
//      Notify slot (a covered transmission from within εR/2), it restarts
//      Try&Adjust(β).
//
// Bcast(β) is the dynamic-network algorithm (Thm 5.1: every node gets the
// message within O(stable distance) rounds, with passiveness β = γ+5).
// Bcast* is the static variant (Cor. 5.2): nodes *stop* instead of
// restarting, β = 1, giving O(log n · dist_G(s,v)). Its stop reasons are
// exactly the dominator/dominated classification of the App. G spontaneous
// algorithm.
#pragma once

#include "common/types.h"
#include "core/try_adjust.h"
#include "sim/protocol.h"

namespace udwn {

class BcastProtocol final : public Protocol {
 public:
  enum class Mode {
    Dynamic,  // Bcast(β): restart Try&Adjust on ACK / NTD
    Static,   // Bcast*: stop on ACK / NTD
  };

  /// Why a Bcast* node stopped (None while still active / dynamic mode).
  enum class StopReason { None, Ack, Ntd };

  /// How rule 2's "very close transmitter" is detected.
  enum class NtdMode {
    /// The NTD primitive (RSS distance test, App. B carrier sensing).
    Primitive,
    /// Power control (App. B "by other means"): the engine sends Notify
    /// transmissions at reduced power, so merely *receiving* one certifies
    /// proximity. Requires EngineConfig::notify_power_scale ≈ (ε/2)^ζ.
    LowPowerReception,
  };

  /// `source` nodes start informed; all others are asleep until they decode
  /// the message (non-spontaneous operation). `spontaneous` = everyone
  /// starts informed with its own copy (used by the App. G dominating-set
  /// stage).
  BcastProtocol(TryAdjust::Config config, Mode mode, bool source,
                bool spontaneous = false,
                NtdMode ntd_mode = NtdMode::Primitive);

  void on_start() override;
  [[nodiscard]] double transmit_probability(Slot slot) override;
  void on_slot(const SlotFeedback& feedback) override;
  [[nodiscard]] bool isolated() const override { return true; }
  [[nodiscard]] bool finished() const override {
    return stop_reason_ != StopReason::None;
  }

  [[nodiscard]] bool informed() const { return informed_; }
  [[nodiscard]] StopReason stop_reason() const { return stop_reason_; }

  /// 0 = uninformed, 1 = informed and active, 2 = stopped on ACK,
  /// 3 = stopped on NTD.
  [[nodiscard]] std::uint32_t obs_state() const override {
    if (stop_reason_ == StopReason::Ack) return 2;
    if (stop_reason_ == StopReason::Ntd) return 3;
    return informed_ ? 1 : 0;
  }

  /// Local round (since last on_start) at which the node became informed;
  /// 0 for sources, -1 if still uninformed.
  [[nodiscard]] std::int64_t informed_round() const { return informed_round_; }

 private:
  void restart_or_stop(StopReason reason);

  TryAdjust controller_;
  Mode mode_;
  bool is_source_;
  bool spontaneous_;
  NtdMode ntd_mode_;

  bool informed_ = false;
  StopReason stop_reason_ = StopReason::None;
  std::int64_t local_rounds_ = 0;
  std::int64_t informed_round_ = -1;
  // Within-round state (Data slot outcome consumed by the Notify slot).
  bool pending_notify_ = false;
  bool received_in_data_ = false;
  bool was_informed_at_data_ = false;
};

}  // namespace udwn
