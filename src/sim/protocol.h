// The per-node protocol abstraction the engine drives.
//
// Every algorithm in the paper (Try&Adjust, LocalBcast, Bcast, Bcast*,
// the dominating-set stage, and all baselines) is a Protocol: a state
// machine that exposes a transmission probability per slot and consumes the
// sensing feedback of each slot. Nodes are autonomous — a protocol instance
// sees only what its node could physically observe: its own transmissions,
// the CD/ACK/NTD primitive outcomes, and decoded messages.
#pragma once

#include "common/types.h"

namespace udwn {

/// What one node observed in one slot.
struct SlotFeedback {
  Slot slot = Slot::Data;
  /// True iff the node's local clock fired this global round (always true in
  /// synchronous mode). When false, the node was mid-round: it can still
  /// decode messages (the radio is on) but takes no protocol step.
  bool local_round = true;
  /// The node transmitted in this slot.
  bool transmitted = false;
  /// CD outcome: Busy (true) / Idle (false).
  bool busy = false;
  /// ACK outcome; meaningful only when `transmitted`.
  bool ack = false;
  /// The node decoded a message this slot.
  bool received = false;
  /// Sender of the decoded message; valid iff `received`.
  NodeId sender{};
  /// Payload tag of the decoded message (the sender's Protocol::payload at
  /// transmission time); meaningful only when `received`. Protocols that
  /// never override payload() always see 0.
  std::uint32_t payload = 0;
  /// NTD outcome; meaningful only when `received`.
  bool ntd = false;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Called when the node (re)enters the network: at engine start for nodes
  /// alive from round 0 and on every churn arrival. Implementations reset to
  /// their initial configuration (the paper's dynamicity assumption).
  virtual void on_start() {}

  /// Probability of transmitting in `slot` of the current local round.
  /// Must be in [0, 1].
  [[nodiscard]] virtual double transmit_probability(Slot slot) = 0;

  /// Payload tag attached to a transmission in `slot`. The engine copies it
  /// into the SlotFeedback of every node that decodes the transmission.
  /// Protocols distinguishing message kinds (e.g. the overlapped App. G
  /// algorithm: dummy contention traffic vs the real broadcast payload)
  /// override this; the default tags everything 0.
  [[nodiscard]] virtual std::uint32_t payload(Slot /*slot*/) const {
    return 0;
  }

  /// Feedback after each slot (delivered to every alive node; see
  /// SlotFeedback::local_round).
  virtual void on_slot(const SlotFeedback& feedback) = 0;

  /// True when the node's task is complete; it transmits no further (the
  /// engine still delivers receive feedback).
  [[nodiscard]] virtual bool finished() const { return false; }

  /// Small integer summarizing the protocol's phase, for observability
  /// only: when an Obs handle is attached, the engine emits a
  /// state_transition trace event whenever this value changes between
  /// rounds. Implementations pick their own encoding (documented per
  /// protocol); the engine never interprets it. Must be cheap and must not
  /// mutate state.
  [[nodiscard]] virtual std::uint32_t obs_state() const { return 0; }

  /// Isolation contract: true declares that transmit_probability(),
  /// payload() and on_slot() read and write only this instance's own state
  /// (no pointer, reference, callback or static shared with another node's
  /// protocol, and no reliance on the order in which nodes are visited).
  /// When every protocol of an engine declares it and the engine has a
  /// pool (EngineConfig::threads > 1), the per-node sampling and feedback
  /// sweeps run in parallel over contiguous node-id ranges; the trace stays
  /// bit-identical because each node draws from its own random stream. The
  /// default, false, keeps the sweeps serial in id order on the engine
  /// thread, which wrappers sharing a clock or a log rely on. The engine
  /// reads this once, at construction.
  [[nodiscard]] virtual bool isolated() const { return false; }
};

}  // namespace udwn
