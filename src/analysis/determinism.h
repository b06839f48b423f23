// Determinism auditing — turns "bit-for-bit deterministic under a fixed
// seed" from an assumption into a checked invariant.
//
// Every guarantee the repo reproduces (Thms 1-3) is measured from seeded
// runs; a single nondeterministic tie-break (iteration over a hashed
// container, an accidental std::random_device, address-dependent ordering)
// silently invalidates an adversarial schedule without failing any test.
// The auditor executes the same scenario closure twice, folds the full
// ground-truth event trace into a chained per-round hash, and reports the
// first round at which the two executions diverge.
//
// Self-consistency is not correctness: two runs (or two pipeline
// configurations) can agree and both be wrong. ReferenceCheck closes that
// gap by checking every slot of a run against Channel::resolve(), the one
// exact specification of a slot.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/engine.h"

namespace udwn {

/// Recorder folding every SlotOutcome — transmitter set, interference field
/// (bit-exact), decode decisions, mass-delivery and clear flags — plus the
/// per-node transmit probabilities and clock firings into a running FNV-1a
/// hash, chained and sampled at every round boundary.
///
/// Beside it runs a *decision hash* of the same stream without the
/// interference doubles. In their place it folds what the protocols read of
/// the field (Engine::feedback_sweep): each alive listener's CD bit, each
/// transmitter's ACK bit and each receiver's NTD bit, judged by the
/// engine's CarrierSensing. Two runs whose decision hashes agree made the
/// same protocol decisions and drew the same random numbers, even where
/// their interference doubles differ in the last bits.
class TraceHashRecorder final : public Recorder {
 public:
  void on_slot(Round round, Slot slot, const SlotOutcome& outcome,
               const Engine& engine) override;
  void on_round_end(Round round, const Engine& engine) override;

  /// Chained trace hash after each completed round; index i = state after
  /// round i+1. A prefix match up to round r means the two executions were
  /// observably identical through round r.
  [[nodiscard]] const std::vector<std::uint64_t>& round_hashes() const {
    return round_hashes_;
  }
  /// Hash of the whole trace so far.
  [[nodiscard]] std::uint64_t final_hash() const { return hash_; }
  /// Decision hash of the whole trace so far (see the class comment).
  [[nodiscard]] std::uint64_t decision_hash() const { return decision_; }

 private:
  static constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
  std::uint64_t hash_ = kFnvOffset;
  std::uint64_t decision_ = kFnvOffset;
  std::vector<std::uint64_t> round_hashes_;
};

/// The fields of a SlotOutcome, in declaration order; kNone = no field.
enum class OutcomeField : std::uint8_t {
  kNone, kTransmitters, kInterference, kDecodedFrom, kMassDelivered, kClear
};

[[nodiscard]] const char* to_string(OutcomeField field);

/// First field, in declaration order, in which `got` is not bit-for-bit
/// equal to `want` (kNone when identical). Every field is compared by its
/// bytes, so an interference -0.0 vs +0.0 or a NaN payload differs.
[[nodiscard]] OutcomeField compare_outcomes(const SlotOutcome& want,
                                            const SlotOutcome& got);

/// Recorder checking every slot of an exact engine run against
/// Channel::resolve(): it re-resolves the slot's transmitters on the
/// current alive mask (at the Notify power scale on Notify slots) and
/// compares with compare_outcomes. Every call is forwarded to an optional
/// inner recorder, so one run yields both a trace hash and the check. Far-
/// field runs are ε-certified against resolve(), not equal, so not checked.
class ReferenceCheck final : public Recorder {
 public:
  struct Mismatch {
    Round round;
    Slot slot;
    OutcomeField field;
  };

  /// `notify_power_scale` must be the engine's; `inner` may be null.
  explicit ReferenceCheck(double notify_power_scale = 1.0,
                          Recorder* inner = nullptr)
      : notify_power_scale_(notify_power_scale), inner_(inner) {}

  void on_slot(Round round, Slot slot, const SlotOutcome& outcome,
               const Engine& engine) override;
  void on_round_end(Round round, const Engine& engine) override {
    if (inner_ != nullptr) inner_->on_round_end(round, engine);
  }

  [[nodiscard]] std::uint64_t slots_checked() const { return slots_; }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
  [[nodiscard]] const std::optional<Mismatch>& first_mismatch() const {
    return first_;
  }
  /// At least one slot checked and none mismatched.
  [[nodiscard]] bool passed() const { return slots_ > 0 && mismatches_ == 0; }

 private:
  double notify_power_scale_;
  Recorder* inner_;
  std::uint64_t slots_ = 0;
  std::uint64_t mismatches_ = 0;
  std::optional<Mismatch> first_;
};

/// One line: slots checked, mismatches, the first mismatching slot/field.
std::string to_string(const ReferenceCheck& check);

struct DeterminismReport {
  bool deterministic = false;
  /// First divergent round (1-based), -1 when the traces are identical. If
  /// one trace is a strict prefix of the other, the first round past the
  /// shorter trace is reported.
  Round first_divergence = -1;
  std::uint64_t final_hash_a = 0;
  std::uint64_t final_hash_b = 0;
  std::uint64_t decision_hash_a = 0;
  std::uint64_t decision_hash_b = 0;
  std::size_t rounds_a = 0;
  std::size_t rounds_b = 0;
};

/// One-line summary for logs and the audit binary.
std::string to_string(const DeterminismReport& report);

class DeterminismAuditor {
 public:
  /// A scenario run: build the entire simulation from scratch (topology,
  /// seed, dynamics, protocols), install the recorder on the engine, and
  /// drive it. Called twice; both calls must be self-contained.
  using ScenarioRun = std::function<void(TraceHashRecorder&)>;

  /// Execute `run` twice with fresh recorders and compare the traces.
  [[nodiscard]] static DeterminismReport audit(const ScenarioRun& run);

  /// Compare two already-collected traces (exposed for tests and for
  /// auditing runs produced out-of-process).
  [[nodiscard]] static DeterminismReport compare(const TraceHashRecorder& a,
                                                 const TraceHashRecorder& b);
};

}  // namespace udwn
