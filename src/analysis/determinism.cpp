#include "analysis/determinism.h"

#include <bit>
#include <cstring>

#include "common/contract.h"
#include "obs/obs.h"
#include "sim/network.h"

namespace udwn {
namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv_step(std::uint64_t hash, std::uint64_t x) {
  // Fold the value in one byte at a time (classic FNV-1a over the 8 bytes).
  for (int i = 0; i < 8; ++i) {
    hash ^= (x >> (8 * i)) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}

template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

const char* to_string(OutcomeField field) {
  constexpr const char* kNames[] = {"none",         "transmitters",
                                    "interference", "decoded_from",
                                    "mass_delivered", "clear"};
  return kNames[static_cast<std::size_t>(field)];
}

OutcomeField compare_outcomes(const SlotOutcome& want, const SlotOutcome& got) {
  if (!same_bytes(want.transmitters, got.transmitters))
    return OutcomeField::kTransmitters;
  if (!same_bytes(want.interference, got.interference))
    return OutcomeField::kInterference;
  if (!same_bytes(want.decoded_from, got.decoded_from))
    return OutcomeField::kDecodedFrom;
  if (!same_bytes(want.mass_delivered, got.mass_delivered))
    return OutcomeField::kMassDelivered;
  if (!same_bytes(want.clear, got.clear)) return OutcomeField::kClear;
  return OutcomeField::kNone;
}

void ReferenceCheck::on_slot(Round round, Slot slot,
                             const SlotOutcome& outcome,
                             const Engine& engine) {
  const double scale = slot == Slot::Notify ? notify_power_scale_ : 1.0;
  const OutcomeField field = compare_outcomes(
      engine.channel().resolve(outcome.transmitters,
                               engine.network().alive_mask(), scale),
      outcome);
  ++slots_;
  if (field != OutcomeField::kNone) {
    ++mismatches_;
    if (!first_.has_value()) first_ = Mismatch{round, slot, field};
  }
  if (inner_ != nullptr) inner_->on_slot(round, slot, outcome, engine);
}

std::string to_string(const ReferenceCheck& check) {
  std::string line = "reference check: " +
                     std::to_string(check.slots_checked()) +
                     " slots vs Channel::resolve(), " +
                     std::to_string(check.mismatches()) + " mismatches";
  if (const auto& first = check.first_mismatch()) {
    line += "; first at round " + std::to_string(first->round) + " slot " +
            std::to_string(static_cast<int>(first->slot)) + " in " +
            to_string(first->field);
  }
  return line;
}

void TraceHashRecorder::on_slot(Round round, Slot slot,
                                const SlotOutcome& outcome,
                                const Engine& engine) {
  // Everything but the interference doubles goes into both hashes.
  // Doubles are mixed by their bits: -0.0 vs 0.0 and NaN payload
  // differences count as divergence, which is precisely what "bit-for-bit
  // deterministic" means.
  const auto mix = [this](std::uint64_t x) {
    hash_ = fnv_step(hash_, x);
    decision_ = fnv_step(decision_, x);
  };
  mix(static_cast<std::uint64_t>(round));
  mix(static_cast<std::uint64_t>(slot));

  mix(outcome.transmitters.size());
  for (NodeId u : outcome.transmitters) mix(u.value);
  for (double i : outcome.interference)
    hash_ = fnv_step(hash_, std::bit_cast<std::uint64_t>(i));
  for (NodeId s : outcome.decoded_from) mix(s.value);
  for (std::uint8_t m : outcome.mass_delivered) mix(m);
  for (std::uint8_t c : outcome.clear) mix(c);

  const std::size_t n = engine.network().size();
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId id(static_cast<std::uint32_t>(v));
    mix(engine.network().alive(id) ? 1 : 0);
    mix(engine.clock_fired(id) ? 1 : 0);
    mix(std::bit_cast<std::uint64_t>(engine.last_probability(id)));
  }

  // The field as the protocols see it, by the engine's own predicates
  // (Engine::feedback_sweep): CD and NTD per alive listener, ACK per
  // transmitter.
  const CarrierSensing& sensing = engine.sensing();
  const QuasiMetric& metric = engine.channel().metric();
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId id(static_cast<std::uint32_t>(v));
    if (!engine.network().alive(id)) continue;
    const NodeId sender = outcome.decoded_from[v];
    const bool busy = sensing.busy(outcome.interference[v]);
    const bool ntd =
        sender.valid() && sensing.ntd(metric.distance(sender, id));
    decision_ = fnv_step(decision_, (busy ? 1u : 0u) | (ntd ? 2u : 0u));
  }
  for (NodeId u : outcome.transmitters)
    decision_ =
        fnv_step(decision_, sensing.ack(outcome.interference[u.value]) ? 1 : 0);
}

void TraceHashRecorder::on_round_end(Round round, const Engine& engine) {
  UDWN_EXPECT(round >= 1);
  round_hashes_.push_back(hash_);
  // A traced engine carries both hashes in its event stream, so trace
  // inspectors (tools/udwn_trace) can show them round by round.
  if (Obs* obs = engine.obs(); obs != nullptr)
    obs->emit(TraceEvent{
        .round = static_cast<std::uint32_t>(round - 1),  // engine's index
        .kind = static_cast<std::uint16_t>(EventKind::kRoundHash),
        .node = static_cast<std::uint32_t>(hash_ >> 32),
        .aux = static_cast<std::uint32_t>(hash_),
        .value = decision_});
}

std::string to_string(const DeterminismReport& report) {
  if (report.deterministic) {
    return "deterministic: " + std::to_string(report.rounds_a) +
           " rounds, trace hash " + std::to_string(report.final_hash_a) +
           " on both runs, decision hash " +
           std::to_string(report.decision_hash_a);
  }
  return "NONDETERMINISTIC: first divergent round " +
         std::to_string(report.first_divergence) + " (run A: " +
         std::to_string(report.rounds_a) + " rounds, hash " +
         std::to_string(report.final_hash_a) + ", decision hash " +
         std::to_string(report.decision_hash_a) + "; run B: " +
         std::to_string(report.rounds_b) + " rounds, hash " +
         std::to_string(report.final_hash_b) + ", decision hash " +
         std::to_string(report.decision_hash_b) + ")";
}

DeterminismReport DeterminismAuditor::audit(const ScenarioRun& run) {
  TraceHashRecorder a;
  run(a);
  TraceHashRecorder b;
  run(b);
  return compare(a, b);
}

DeterminismReport DeterminismAuditor::compare(const TraceHashRecorder& a,
                                              const TraceHashRecorder& b) {
  const auto& ha = a.round_hashes();
  const auto& hb = b.round_hashes();

  DeterminismReport report;
  report.rounds_a = ha.size();
  report.rounds_b = hb.size();
  report.final_hash_a = a.final_hash();
  report.final_hash_b = b.final_hash();
  report.decision_hash_a = a.decision_hash();
  report.decision_hash_b = b.decision_hash();

  const std::size_t common = ha.size() < hb.size() ? ha.size() : hb.size();
  for (std::size_t i = 0; i < common; ++i) {
    if (ha[i] != hb[i]) {
      report.first_divergence = static_cast<Round>(i) + 1;
      return report;
    }
  }
  if (ha.size() != hb.size()) {
    // One trace is a strict prefix: the first missing round diverges.
    report.first_divergence = static_cast<Round>(common) + 1;
    return report;
  }
  report.deterministic = a.final_hash() == b.final_hash();
  if (!report.deterministic) {
    // Same per-round chain but different final hash can only happen when
    // slots ran after the last round boundary; call the tail divergent.
    report.first_divergence = static_cast<Round>(common) + 1;
  }
  return report;
}

}  // namespace udwn
