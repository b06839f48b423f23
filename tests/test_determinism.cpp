// DeterminismAuditor tests: same-seed runs hash identically, injected
// nondeterminism is caught at the exact round it enters the trace, and
// trace-length mismatches count as divergence. ReferenceCheck tests: a clean
// engine run checks every slot against Channel::resolve() and finds
// nothing, and a tampered outcome is reported with its slot and field.
// Decision hash: a flipped field bit away from every threshold keeps it, a
// flipped CD bit moves it.
#include "analysis/determinism.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "analysis/runner.h"
#include "analysis/scenario.h"
#include "core/broadcast.h"
#include "obs/obs.h"
#include "sim/dynamics.h"
#include "tests/helpers.h"

namespace udwn {
namespace {

struct RunOptions {
  std::uint64_t seed = 7;
  Round rounds = 40;
  /// Round (0-based) before which a rogue position jiggle is injected;
  /// -1 = clean run.
  Round perturb_at = -1;
  double notify_power_scale = 1.0;
  Obs* obs = nullptr;
};

void run_dynamic_bcast(const RunOptions& options, Recorder& recorder) {
  Scenario scenario(test::random_points(16, 3.0, options.seed),
                    test::default_config());
  const std::size_t n = scenario.network().size();
  const NodeId source(0);
  auto protocols = make_protocols(n, [&](NodeId id) {
    return std::make_unique<BcastProtocol>(TryAdjust::standard(n, 2.0),
                                           BcastProtocol::Mode::Dynamic,
                                           id == source);
  });
  const CarrierSensing sensing = scenario.sensing_broadcast();
  Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                EngineConfig{.slots_per_round = 2,
                             .notify_power_scale = options.notify_power_scale,
                             .seed = options.seed,
                             .obs = options.obs});
  ChurnDynamics churn({.arrival_rate = 0.1,
                       .departure_rate = 0.1,
                       .pinned = {source}});
  engine.set_dynamics(&churn);
  engine.set_recorder(&recorder);

  for (Round r = 0; r < options.rounds; ++r) {
    if (r == options.perturb_at) {
      const Vec2 p = scenario.euclidean()->position(source);
      scenario.euclidean()->set_position(source, {p.x + 1e-9, p.y});
    }
    engine.step();
  }
}

TEST(TraceHashRecorder, OneHashPerRoundAndChained) {
  TraceHashRecorder recorder;
  run_dynamic_bcast({.rounds = 10}, recorder);
  const auto& hashes = recorder.round_hashes();
  ASSERT_EQ(hashes.size(), 10u);
  EXPECT_EQ(hashes.back(), recorder.final_hash());
  // Chained hashes: consecutive rounds virtually never collide.
  for (std::size_t i = 1; i < hashes.size(); ++i)
    EXPECT_NE(hashes[i], hashes[i - 1]);
}

// On the first slot with transmitters and a silent alive listener v whose
// interference lies far from the CD threshold, hashes the outcome as it is
// and twice tampered: v's interference with its last bit flipped (no
// decision moves), and v's interference moved across the CD threshold
// (v's CD bit flips).
class DecisionProbe final : public Recorder {
 public:
  void on_slot(Round round, Slot slot, const SlotOutcome& outcome,
               const Engine& engine) override {
    if (probed || outcome.transmitters.empty()) return;
    const SensingConfig& cfg = engine.sensing().config();
    for (std::size_t v = 0; v < outcome.interference.size(); ++v) {
      const NodeId id(static_cast<std::uint32_t>(v));
      const double i = outcome.interference[v];
      const bool silent =
          std::find(outcome.transmitters.begin(), outcome.transmitters.end(),
                    id) == outcome.transmitters.end();
      if (!engine.network().alive(id) || !silent || !(i > 0) ||
          std::abs(i - cfg.cd_threshold) < 0.5 * cfg.cd_threshold)
        continue;
      probed = true;
      as_is.on_slot(round, slot, outcome, engine);
      SlotOutcome tampered = outcome;
      tampered.interference[v] =
          std::bit_cast<double>(std::bit_cast<std::uint64_t>(i) ^ 1u);
      last_bit.on_slot(round, slot, tampered, engine);
      tampered.interference[v] =
          i < cfg.cd_threshold ? 2 * cfg.cd_threshold : 0.5 * cfg.cd_threshold;
      cd_bit.on_slot(round, slot, tampered, engine);
      return;
    }
  }

  bool probed = false;
  TraceHashRecorder as_is;
  TraceHashRecorder last_bit;
  TraceHashRecorder cd_bit;
};

TEST(TraceHashRecorder, DecisionHashIgnoresFieldBitsButNotDecisions) {
  DecisionProbe probe;
  run_dynamic_bcast({}, probe);
  ASSERT_TRUE(probe.probed);
  // One interference bit, away from every threshold: same decisions.
  EXPECT_NE(probe.last_bit.final_hash(), probe.as_is.final_hash());
  EXPECT_EQ(probe.last_bit.decision_hash(), probe.as_is.decision_hash());
  // One CD bit: a decision, so both hashes move.
  EXPECT_NE(probe.cd_bit.final_hash(), probe.as_is.final_hash());
  EXPECT_NE(probe.cd_bit.decision_hash(), probe.as_is.decision_hash());
}

TEST(TraceHashRecorder, TracedEngineCarriesBothHashesPerRound) {
  // One kRoundHash event per round, after the round's kRoundEnd: the full
  // hash split over node/aux, the decision hash in value.
  Obs obs;
  TraceHashRecorder recorder;
  run_dynamic_bcast({.rounds = 10, .obs = &obs}, recorder);
  std::vector<TraceEvent> hashes;
  for (const TraceEvent& ev : obs.snapshot().events)
    if (ev.kind == static_cast<std::uint16_t>(EventKind::kRoundHash))
      hashes.push_back(ev);
  ASSERT_EQ(hashes.size(), 10u);
  for (std::uint32_t r = 0; r < 10; ++r) {
    EXPECT_EQ(hashes[r].round, r);
    EXPECT_EQ((std::uint64_t{hashes[r].node} << 32) | hashes[r].aux,
              recorder.round_hashes()[r]);
  }
  EXPECT_EQ(hashes.back().value, recorder.decision_hash());
}

TEST(DeterminismAuditor, SameSeedRunsAreBitIdentical) {
  const DeterminismReport report = DeterminismAuditor::audit(
      [](TraceHashRecorder& recorder) { run_dynamic_bcast({}, recorder); });
  EXPECT_TRUE(report.deterministic);
  EXPECT_EQ(report.first_divergence, -1);
  EXPECT_EQ(report.rounds_a, 40u);
  EXPECT_EQ(report.rounds_b, 40u);
  EXPECT_EQ(report.final_hash_a, report.final_hash_b);
  EXPECT_EQ(report.decision_hash_a, report.decision_hash_b);
  EXPECT_NE(to_string(report).find(std::to_string(report.decision_hash_a)),
            std::string::npos);
}

TEST(DeterminismAuditor, DifferentSeedsDiverge) {
  int call = 0;
  const DeterminismReport report =
      DeterminismAuditor::audit([&](TraceHashRecorder& recorder) {
        run_dynamic_bcast({.seed = 7u + static_cast<std::uint64_t>(call++)},
                          recorder);
      });
  EXPECT_FALSE(report.deterministic);
  // Both runs open with identical silent rounds (Try&Adjust passivity), so
  // divergence starts with the first transmission, not necessarily round 1.
  EXPECT_GE(report.first_divergence, 1);
  EXPECT_LE(report.first_divergence, 10);
}

TEST(DeterminismAuditor, CatchesInjectedNondeterminismAtItsRound) {
  // Second run jiggles one node position by 1e-9 before round index 20; the
  // interference field is hashed bit-exactly, so the trace must fork at
  // exactly round 21 (1-based) and nowhere earlier.
  int call = 0;
  const DeterminismReport report =
      DeterminismAuditor::audit([&](TraceHashRecorder& recorder) {
        run_dynamic_bcast({.perturb_at = call++ == 1 ? 20 : -1}, recorder);
      });
  EXPECT_FALSE(report.deterministic);
  EXPECT_EQ(report.first_divergence, 21);
}

TEST(DeterminismAuditor, TraceLengthMismatchIsDivergence) {
  int call = 0;
  const DeterminismReport report =
      DeterminismAuditor::audit([&](TraceHashRecorder& recorder) {
        run_dynamic_bcast({.rounds = call++ == 1 ? 25 : 30}, recorder);
      });
  EXPECT_FALSE(report.deterministic);
  EXPECT_EQ(report.first_divergence, 26);
  EXPECT_EQ(report.rounds_a, 30u);
  EXPECT_EQ(report.rounds_b, 25u);
}

TEST(DeterminismAuditor, ReportRendersBothOutcomes) {
  DeterminismReport ok;
  ok.deterministic = true;
  ok.rounds_a = ok.rounds_b = 5;
  ok.final_hash_a = ok.final_hash_b = 42;
  EXPECT_NE(to_string(ok).find("deterministic"), std::string::npos);

  DeterminismReport bad;
  bad.first_divergence = 3;
  EXPECT_NE(to_string(bad).find("NONDETERMINISTIC"), std::string::npos);
  EXPECT_NE(to_string(bad).find("3"), std::string::npos);
}

TEST(ReferenceCheck, CleanEngineRunChecksEverySlot) {
  // Two slots per round under churn, Notify slots at a reduced power scale:
  // every slot is re-resolved at its own scale and matches.
  constexpr double kNotifyScale = 0.25;
  TraceHashRecorder trace;
  ReferenceCheck check(kNotifyScale, &trace);
  run_dynamic_bcast({.notify_power_scale = kNotifyScale}, check);
  EXPECT_EQ(check.slots_checked(), 40u * 2);
  EXPECT_EQ(check.mismatches(), 0u);
  EXPECT_TRUE(check.passed());
  // The inner recorder saw the whole run.
  EXPECT_EQ(trace.round_hashes().size(), 40u);

  // Non-vacuity of the Notify scale: a check told the wrong scale flags a
  // Notify slot.
  ReferenceCheck wrong_scale;
  run_dynamic_bcast({.notify_power_scale = kNotifyScale}, wrong_scale);
  ASSERT_TRUE(wrong_scale.first_mismatch().has_value());
  EXPECT_EQ(wrong_scale.first_mismatch()->slot, Slot::Notify);
}

// Re-checks the first two slots with a transmitter u, tampered: one bit of
// u's interference flipped in the first, u "decoding" itself (a transmitter
// never decodes) in the second. The engine is live, so resolve() sees the
// alive mask the engine used.
class TamperingRecorder final : public Recorder {
 public:
  void on_slot(Round round, Slot slot, const SlotOutcome& outcome,
               const Engine& engine) override {
    if (outcome.transmitters.empty() || tampered.size() == 2) return;
    const NodeId u = outcome.transmitters.front();
    SlotOutcome bad = outcome;
    if (tampered.empty()) {
      bad.interference[u.value] = std::bit_cast<double>(
          std::bit_cast<std::uint64_t>(bad.interference[u.value]) ^ 1u);
      tampered.push_back({round, slot, OutcomeField::kInterference});
    } else {
      bad.decoded_from[u.value] = u;
      tampered.push_back({round, slot, OutcomeField::kDecodedFrom});
    }
    checks[tampered.size() - 1].on_slot(round, slot, bad, engine);
  }

  ReferenceCheck checks[2];
  std::vector<ReferenceCheck::Mismatch> tampered;
};

TEST(ReferenceCheck, FlagsATamperedOutcome) {
  TamperingRecorder recorder;
  run_dynamic_bcast({}, recorder);
  ASSERT_EQ(recorder.tampered.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    const ReferenceCheck& check = recorder.checks[i];
    const ReferenceCheck::Mismatch& want = recorder.tampered[i];
    SCOPED_TRACE(to_string(want.field));
    EXPECT_EQ(check.slots_checked(), 1u);
    EXPECT_EQ(check.mismatches(), 1u);
    EXPECT_FALSE(check.passed());
    ASSERT_TRUE(check.first_mismatch().has_value());
    EXPECT_EQ(check.first_mismatch()->round, want.round);
    EXPECT_EQ(check.first_mismatch()->slot, want.slot);
    EXPECT_EQ(check.first_mismatch()->field, want.field);
    EXPECT_NE(to_string(check).find(to_string(want.field)), std::string::npos);
  }
}

}  // namespace
}  // namespace udwn
