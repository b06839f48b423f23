// Opportunistic MANET dissemination in the style of Farach-Colton,
// Fernández Anta, Milani, Mosteiro & Zaks (arXiv:1105.6151, "Opportunistic
// Information Dissemination in Mobile Ad-hoc Networks"; see PAPERS.md) —
// the arena's store-and-re-offer randomized competitor.
//
// The opportunistic model assumes nothing about when connectivity windows
// open: a node that holds the message keeps offering it forever, backing
// off harmonically while a window is presumably being exploited and
// periodically reviving to full aggressiveness so a freshly arrived or
// freshly adjacent neighbor gets another dense burst. Concretely, an
// informed node whose local age since becoming informed is t (taken modulo
// the revival period W) transmits with probability
//
//   p(t) = min(cap, a / (a + t mod W))
//
// — a harmonic decay from `cap` down to roughly a/W, restarting every W
// rounds. The schedule is oblivious (depends only on the node's local clock,
// never on CD/ACK feedback), which is exactly the regime the paper's lower
// bounds address: without carrier sensing, opportunistic dissemination must
// pay for windows it cannot detect. Uninformed nodes stay silent; the
// protocol never finishes (store-carry-forward has no terminal state).
#pragma once

#include <cstdint>

#include "common/types.h"
#include "sim/protocol.h"

namespace udwn {

class OpportunisticDisseminationProtocol final : public Protocol {
 public:
  struct Config {
    /// Ceiling on the per-round transmission probability.
    double cap = 0.5;
    /// Harmonic-decay scale: p decays as a/(a+t), so larger = slower backoff.
    double aggressiveness = 4.0;
    /// Rounds between revivals to full aggressiveness.
    std::int64_t revival_period = 64;
  };

  OpportunisticDisseminationProtocol(const Config& config, bool source);

  void on_start() override;
  [[nodiscard]] double transmit_probability(Slot slot) override;
  void on_slot(const SlotFeedback& feedback) override;
  [[nodiscard]] bool isolated() const override { return true; }

  [[nodiscard]] bool informed() const { return informed_; }
  /// Local round at which the node became informed; 0 for sources, -1 while
  /// uninformed.
  [[nodiscard]] std::int64_t informed_round() const { return informed_round_; }

  /// 0 = uninformed, 1 = informed (first half of a revival cycle, dense
  /// offers), 2 = informed (second half, backed off).
  [[nodiscard]] std::uint32_t obs_state() const override;

 private:
  Config config_;
  bool is_source_;

  bool informed_ = false;
  std::int64_t local_rounds_ = 0;
  std::int64_t informed_round_ = -1;
  /// Rounds since becoming informed, wrapped to [0, revival_period).
  std::int64_t age_in_cycle_ = 0;
};

}  // namespace udwn
