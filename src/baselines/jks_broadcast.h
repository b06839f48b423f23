// Jurdziński–Kowalski–Stachowiak deterministic uniform-power broadcast
// (arXiv:1302.4059, "Distributed Deterministic Broadcasting in Uniform-Power
// Ad Hoc Wireless Networks"; see PAPERS.md) — the competitor-protocol arena's
// deterministic baseline.
//
// JKS broadcast replaces randomized contention resolution with a fixed
// transmission schedule derived from the node's label alone: time is split
// into phases of prime length p_0 < p_1 < ... < p_m, and in slot s of a
// phase of length p an informed node with label v transmits iff v ≡ s
// (mod p). The ladder doubles (smallest prime >= 2^k) up to the first prime
// >= n, so the final phase assigns every label a private network-wide slot —
// an isolated transmission that any reception model delivers — while the
// short early phases give fast progress at low contention (the paper's
// dilution idea). The schedule uses no randomness and no carrier sensing;
// the protocol consumes only SlotFeedback::received.
//
// The arena-relevant caveat, faithful to the original model: the schedule
// assumes the synchronized start the paper grants its nodes. Each instance
// counts its own local rounds from on_start(), so in a synchronous static
// network all schedules align and the selector guarantee holds — but a churn
// arrival restarts at phase 0 and desynchronizes, exactly the regime where
// the unified-dynamics algorithms (core/broadcast.h) are proved and this
// baseline is not. EXP-18 measures that gap.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/protocol.h"

namespace udwn {

class JksBroadcastProtocol final : public Protocol {
 public:
  /// `id` is the node's label (must be < `n_bound`), `n_bound` the network
  /// size the prime ladder is built for. `source` nodes start informed.
  JksBroadcastProtocol(NodeId id, std::size_t n_bound, bool source);

  void on_start() override;
  /// Always exactly 0 or 1: the protocol is deterministic and the engine's
  /// per-node Rng never draws for it (Rng::chance short-circuits at both
  /// ends), so traces are bit-identical across engine seeds.
  [[nodiscard]] double transmit_probability(Slot slot) override;
  void on_slot(const SlotFeedback& feedback) override;
  [[nodiscard]] bool isolated() const override { return true; }

  [[nodiscard]] bool informed() const { return informed_; }
  /// Local round at which the node became informed; 0 for sources, -1 while
  /// uninformed.
  [[nodiscard]] std::int64_t informed_round() const { return informed_round_; }

  /// 0 = uninformed, else 1 + current phase index (schedule position).
  [[nodiscard]] std::uint32_t obs_state() const override {
    return informed_ ? 1 + phase_index_ : 0;
  }

  /// The doubling prime ladder for a given network-size bound: the smallest
  /// prime >= min(2^k, n_bound) for k = 1, 2, ..., deduplicated, ending at
  /// the first prime >= n_bound (exposed for schedule property tests).
  [[nodiscard]] static std::vector<std::uint32_t> prime_ladder(
      std::size_t n_bound);

 private:
  std::uint32_t label_;
  bool is_source_;
  std::vector<std::uint32_t> ladder_;

  bool informed_ = false;
  std::int64_t local_rounds_ = 0;
  std::int64_t informed_round_ = -1;
  // Schedule cursor: phase index into ladder_ and slot within the phase,
  // advanced one slot per local data round.
  std::uint32_t phase_index_ = 0;
  std::uint32_t phase_slot_ = 0;
};

}  // namespace udwn
