// Bare Try&Adjust as a runnable protocol: adapts its probability to the CD
// outcome forever, never stops. This is the object of study of Sec. 3 — the
// contention experiments (EXP-01..03) run it directly to measure good-round
// fractions, phase types and delivery rates without the LocalBcast stopping
// rule draining the network.
#pragma once

#include <cmath>

#include "core/try_adjust.h"
#include "sim/protocol.h"

namespace udwn {

class TryAdjustProtocol final : public Protocol {
 public:
  explicit TryAdjustProtocol(TryAdjust::Config config);

  void on_start() override;
  [[nodiscard]] double transmit_probability(Slot slot) override;
  void on_slot(const SlotFeedback& feedback) override;
  [[nodiscard]] bool isolated() const override { return true; }

  [[nodiscard]] double probability() const { return controller_.probability(); }

  /// The probability ladder rung: round(-log2 p), clamped to [0, 31]
  /// (p = 1/2 -> 1, each halving +1). A state-transition trace event fires
  /// on every rung change, making the Try&Adjust sawtooth visible.
  ///
  /// The engine polls obs_state() for every node every observed round, so
  /// this reads the exponent with frexp instead of paying for a log2:
  /// with p = m * 2^e and m in [0.5, 1), round(-log2 p) is -e plus one
  /// when the mantissa sits below 1/sqrt(2).
  [[nodiscard]] std::uint32_t obs_state() const override {
    const double p = controller_.probability();
    if (!(p > 0)) return 31;
    int exponent = 0;
    const double mantissa = std::frexp(p, &exponent);
    const int rung = -exponent + (mantissa <= 0.70710678118654752 ? 1 : 0);
    if (rung <= 0) return 0;
    return rung >= 31 ? 31u : static_cast<std::uint32_t>(rung);
  }
  /// Busy rounds observed since the last on_start.
  [[nodiscard]] std::int64_t busy_rounds() const { return busy_rounds_; }
  [[nodiscard]] std::int64_t local_rounds() const { return local_rounds_; }

 private:
  TryAdjust controller_;
  std::int64_t busy_rounds_ = 0;
  std::int64_t local_rounds_ = 0;
};

}  // namespace udwn
