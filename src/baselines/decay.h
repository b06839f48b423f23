// The Decay protocol family (Bar-Yehuda, Goldreich, Itai; Alon et al.) —
// the classic carrier-sense-free baselines the paper's results are compared
// against.
//
// A decay cycle of length K sweeps transmission probabilities
// 1, 1/2, 1/4, ..., 2^{-(K-1)}: some probability level approximately
// matches the unknown local contention, at which point a transmission
// succeeds with constant probability. The textbook bounds are
// O(∆ log n) for local broadcast and O(D log n + log² n) for global
// broadcast — a log-factor worse than the paper's carrier-sense algorithms,
// which is exactly the gap EXP-04 and EXP-06 measure. (We use the
// independent-coin formulation: a node transmits in sub-round j with
// probability 2^{-j}, which obeys the same analysis as the drop-out
// formulation.)
#pragma once

#include "common/types.h"
#include "sim/protocol.h"

namespace udwn {

/// Local broadcast via decay cycles. For fair comparison with LocalBcast,
/// the node stops on the same ACK primitive; everything else uses no
/// carrier sensing.
class DecayLocalBcastProtocol final : public Protocol {
 public:
  /// `cycle_length` should be ⌈log2 n⌉ + 2 when only n is known, or
  /// ⌈log2 ∆⌉ + 2 with degree knowledge.
  explicit DecayLocalBcastProtocol(int cycle_length);

  void on_start() override;
  [[nodiscard]] double transmit_probability(Slot slot) override;
  void on_slot(const SlotFeedback& feedback) override;
  [[nodiscard]] bool isolated() const override { return true; }
  [[nodiscard]] bool finished() const override { return delivered_; }

  [[nodiscard]] std::int64_t rounds_to_delivery() const {
    return delivered_ ? completed_round_ : -1;
  }

 private:
  int cycle_length_;
  int phase_ = 0;
  bool delivered_ = false;
  std::int64_t local_rounds_ = 0;
  std::int64_t completed_round_ = -1;
};

/// Global broadcast via decay, with NO carrier sensing, NO NTD and NO ACK —
/// the algorithm class Thm 5.3's lower bound applies to. Informed nodes run
/// decay cycles indefinitely; the harness stops the run when everyone is
/// informed (the nodes themselves never know).
class DecayBroadcastProtocol final : public Protocol {
 public:
  DecayBroadcastProtocol(int cycle_length, bool source);

  void on_start() override;
  [[nodiscard]] double transmit_probability(Slot slot) override;
  void on_slot(const SlotFeedback& feedback) override;
  [[nodiscard]] bool isolated() const override { return true; }

  [[nodiscard]] bool informed() const { return informed_; }
  [[nodiscard]] std::int64_t informed_round() const { return informed_round_; }

 private:
  int cycle_length_;
  bool source_;
  int phase_ = 0;
  bool informed_ = false;
  std::int64_t local_rounds_ = 0;
  std::int64_t informed_round_ = -1;
};

}  // namespace udwn
