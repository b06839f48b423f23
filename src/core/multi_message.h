// Multi-message broadcast — an extension in the direction of the authors'
// companion work on multiple-message dissemination ([52], [53] in the
// paper's bibliography): the source holds k distinct messages that must all
// reach every node.
//
// Design: one shared Try&Adjust contention controller per node (contention
// balancing is message-agnostic), pipelined per-message Bcast* bookkeeping
// on top. A node transmits the lowest-indexed message it has received but
// not yet discharged; a message is discharged by an ACKed transmission
// (rule 1) or by an NTD-close transmission of the same message (rule 2).
// Message identity travels in the engine's payload channel.
//
// Pipelining means message m+1 starts flowing through a region as soon as
// message m has been discharged there — total time ~ O(D log n + k·c)
// rather than k independent broadcasts' k·O(D log n).
#pragma once

#include <cstdint>

#include "common/types.h"
#include "core/try_adjust.h"
#include "sim/protocol.h"

namespace udwn {

class MultiMessageBcastProtocol final : public Protocol {
 public:
  /// Up to 32 messages (payload tags 1..k; tag 0 = no message).
  static constexpr int kMaxMessages = 32;

  /// `message_count` = k. The source starts holding all k messages.
  MultiMessageBcastProtocol(TryAdjust::Config config, int message_count,
                            bool source);

  void on_start() override;
  [[nodiscard]] double transmit_probability(Slot slot) override;
  [[nodiscard]] std::uint32_t payload(Slot slot) const override;
  void on_slot(const SlotFeedback& feedback) override;
  [[nodiscard]] bool isolated() const override { return true; }
  [[nodiscard]] bool finished() const override;

  /// Bitmask of received messages (bit m-1 = message m).
  [[nodiscard]] std::uint32_t received_mask() const { return received_; }
  [[nodiscard]] bool has_all() const {
    return received_ == all_mask();
  }
  /// Local round at which the node first held all k messages; -1 if not yet.
  [[nodiscard]] std::int64_t completed_round() const {
    return completed_round_;
  }

 private:
  [[nodiscard]] std::uint32_t all_mask() const {
    return message_count_ == 32 ? 0xffffffffu
                                : ((1u << message_count_) - 1);
  }
  /// Lowest-indexed received-but-undischarged message; 0 if none.
  [[nodiscard]] std::uint32_t current_message() const;

  TryAdjust controller_;
  int message_count_;
  bool source_;

  std::uint32_t received_ = 0;    // messages held
  std::uint32_t discharged_ = 0;  // messages whose coverage is certified
  std::int64_t local_rounds_ = 0;
  std::int64_t completed_round_ = -1;
  // Within-round state (Sec. 5 two-slot structure).
  bool pending_notify_ = false;
  std::uint32_t notify_message_ = 0;
  bool received_in_data_ = false;
};

}  // namespace udwn
