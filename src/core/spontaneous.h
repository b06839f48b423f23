// Spontaneous broadcast (App. G): O(D_G + log n) rounds, uniform.
//
// Stage 1 — dominating set: all nodes run Bcast* simultaneously (each with
// its own dummy message). A node that stops via ACK (its transmission
// SuccClear-succeeded) becomes a *dominator*; one that stops via NTD is
// *dominated* by the near transmitter. The result is an εR/4-dominating set
// that is also an εR/8-packing, hence of constant density.
//
// Stage 2 — dominator flood: the source transmits; every dominator, once
// informed, transmits with a small constant probability p0 until ACK(ε/2).
// Constant dominator density makes each hop succeed with constant
// probability, giving O(D_G + log n) total.
//
// The paper notes the two stages can run simultaneously; this harness runs
// them back to back, which preserves the O(D_G + log n) bound (stage 1 is
// O(log n)) and keeps each stage independently measurable.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "core/broadcast.h"
#include "core/try_adjust.h"
#include "phy/channel.h"
#include "sensing/primitives.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "sim/protocol.h"

namespace udwn {

/// Stage-2 protocol: dominators (and the source) repeat the message with
/// constant probability until an ACK certifies neighborhood coverage;
/// everyone else only listens.
class DominatorFloodProtocol final : public Protocol {
 public:
  DominatorFloodProtocol(bool dominator, bool source, double p0);

  void on_start() override;
  [[nodiscard]] double transmit_probability(Slot slot) override;
  void on_slot(const SlotFeedback& feedback) override;
  [[nodiscard]] bool isolated() const override { return true; }
  [[nodiscard]] bool finished() const override { return done_; }

  [[nodiscard]] bool informed() const { return informed_; }
  /// Local round at which the node became informed (0 for the source, -1 if
  /// never).
  [[nodiscard]] std::int64_t informed_round() const { return informed_round_; }

 private:
  bool dominator_;
  bool source_;
  double p0_;
  bool informed_ = false;
  bool done_ = false;
  std::int64_t rounds_ = 0;
  std::int64_t informed_round_ = -1;
};

/// Overlapped variant of the App. G algorithm — the paper's remark that the
/// dominating-set construction and the dominator flood "can be run
/// simultaneously": every node runs the Bcast* stage-1 logic, transmissions
/// of informed nodes carry the broadcast payload (tag 1), and a node that
/// stopped stage 1 as a dominator floods with probability p0 once informed.
/// Saves the sequential version's stage-1 barrier: dissemination starts
/// while distant regions are still electing dominators.
class OverlappedSpontaneousProtocol final : public Protocol {
 public:
  OverlappedSpontaneousProtocol(TryAdjust::Config stage1, double p0,
                                bool source);

  void on_start() override;
  [[nodiscard]] double transmit_probability(Slot slot) override;
  [[nodiscard]] std::uint32_t payload(Slot slot) const override;
  void on_slot(const SlotFeedback& feedback) override;
  [[nodiscard]] bool isolated() const override { return true; }
  [[nodiscard]] bool finished() const override;

  [[nodiscard]] bool informed() const { return informed_; }
  /// Stage-1 verdict; None while stage 1 is still running.
  [[nodiscard]] BcastProtocol::StopReason stage1_verdict() const {
    return verdict_;
  }

 private:
  TryAdjust controller_;
  double p0_;
  bool source_;

  bool informed_ = false;
  BcastProtocol::StopReason verdict_ = BcastProtocol::StopReason::None;
  bool flood_done_ = false;
  // Within-round stage-1 state (as in BcastProtocol).
  bool pending_notify_ = false;
  bool received_in_data_ = false;
};

struct SpontaneousBcastResult {
  std::vector<NodeId> dominators;
  Round stage1_rounds = 0;
  Round stage2_rounds = 0;
  /// True iff every alive node was informed within the round budgets.
  bool complete = false;
  /// Global stage-2 round (0-based) at which each node became informed;
  /// -1 if never (indexed by node id; dead nodes stay -1).
  std::vector<std::int64_t> informed_round;
};

class SpontaneousBcast {
 public:
  struct Config {
    /// Stage-1 Try&Adjust configuration; uniform (size-oblivious) default.
    TryAdjust::Config stage1 = TryAdjust::uniform();
    /// Stage-2 constant transmission probability p0.
    double p0 = 0.05;
    Round stage1_max_rounds = 100000;
    Round stage2_max_rounds = 100000;
    std::uint64_t seed = 1;
  };

  /// Run both stages on a *static* network. `sensing_stage1` must carry the
  /// App. G thresholds (ACK at ε/2, NTD radius εR/4); `sensing_stage2`
  /// needs ACK at ε/2 (NTD unused).
  static SpontaneousBcastResult run(const Channel& channel, Network& network,
                                    const CarrierSensing& sensing_stage1,
                                    const CarrierSensing& sensing_stage2,
                                    NodeId source, const Config& config);
};

}  // namespace udwn
