// Competitor-arena tests: the JKS deterministic broadcast really is
// deterministic (bit-identical traces across thread counts, repeats and even
// engine seeds — it never draws from the Rng), the opportunistic protocol's
// harmonic-revival schedule behaves, the TIntervalAdversary provably
// maintains T-interval connectivity over every window while genuinely
// rewiring, every slot stays equal to Channel::resolve() under adversarial
// rewiring, and the JSON encoder (common/json.h) renders NaN/inf as null.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/determinism.h"
#include "analysis/runner.h"
#include "analysis/scenario.h"
#include "baselines/jks_broadcast.h"
#include "baselines/opportunistic.h"
#include "common/json.h"
#include "metric/matrix_metric.h"
#include "sim/dynamics.h"
#include "tests/helpers.h"

namespace udwn {
namespace {

constexpr std::size_t kNodes = 24;

std::vector<std::unique_ptr<Protocol>> jks_protocols(std::size_t n,
                                                     NodeId source) {
  return make_protocols(n, [&](NodeId id) {
    return std::make_unique<JksBroadcastProtocol>(id, n, id == source);
  });
}

bool jks_informed(const Protocol& p) {
  return static_cast<const JksBroadcastProtocol&>(p).informed();
}

struct ArenaRunOptions {
  std::uint64_t seed = 7;
  int threads = 1;
  Round rounds = 120;
};

/// JKS broadcast under the frontier-driven TIntervalAdversary — the full
/// arena pipeline in one closure, observed by `recorder`.
void run_jks_adversary(const ArenaRunOptions& options, Recorder& recorder) {
  Scenario scenario(std::make_unique<MatrixMetric>(
                        kNodes, isolated_distances(kNodes, 1.0e6)),
                    test::default_config());
  auto* matrix = static_cast<MatrixMetric*>(&scenario.metric());
  const NodeId source(0);
  auto protocols = jks_protocols(kNodes, source);
  const CarrierSensing sensing = scenario.sensing_local();
  Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                EngineConfig{.seed = options.seed,
                             .threads = options.threads});
  TIntervalAdversary adversary(*matrix, {.interval = 4});
  adversary.set_frontier(
      [&protocols](NodeId v) { return jks_informed(*protocols[v.value]); });
  engine.set_dynamics(&adversary);
  engine.set_recorder(&recorder);
  for (Round r = 0; r < options.rounds; ++r) engine.step();
}

/// Trace hash of one run whose every slot is checked against
/// Channel::resolve() on the rewired MatrixMetric (the delta path under
/// adversarial rewiring).
std::uint64_t jks_adversary_hash(const ArenaRunOptions& options) {
  TraceHashRecorder recorder;
  ReferenceCheck check(1.0, &recorder);
  run_jks_adversary(options, check);
  EXPECT_TRUE(check.passed()) << to_string(check);
  EXPECT_EQ(check.slots_checked(), static_cast<std::uint64_t>(options.rounds));
  return recorder.final_hash();
}

TEST(JksBroadcast, PrimeLadderDoublesAndCoversN) {
  const auto ladder = JksBroadcastProtocol::prime_ladder(48);
  ASSERT_FALSE(ladder.empty());
  EXPECT_EQ(ladder.front(), 2u);
  EXPECT_GE(ladder.back(), 48u);
  for (std::size_t i = 1; i < ladder.size(); ++i)
    EXPECT_LT(ladder[i - 1], ladder[i]);
  for (const std::uint32_t p : ladder) {
    for (std::uint32_t d = 2; d * d <= p; ++d) EXPECT_NE(p % d, 0u);
  }
  // n = 1 still yields a valid (single-prime) schedule.
  EXPECT_EQ(JksBroadcastProtocol::prime_ladder(1).size(), 1u);
}

TEST(JksBroadcast, EmitsOnlyZeroOneProbabilities) {
  JksBroadcastProtocol proto(NodeId(3), 16, true);
  for (int r = 0; r < 200; ++r) {
    const double p = proto.transmit_probability(Slot::Data);
    EXPECT_TRUE(p == 0.0 || p == 1.0) << "round " << r << " p=" << p;
    SlotFeedback fb;
    fb.transmitted = p == 1.0;
    proto.on_slot(fb);
  }
}

TEST(JksBroadcast, FinalPhaseGivesEveryLabelASoloSlot) {
  // In the phase whose prime is >= n, distinct labels transmit in distinct
  // slots — the selector property completion rests on.
  const std::size_t n = 16;
  const auto ladder = JksBroadcastProtocol::prime_ladder(n);
  const std::uint32_t p = ladder.back();
  ASSERT_GE(p, n);
  for (std::uint32_t a = 0; a < n; ++a)
    for (std::uint32_t b = a + 1; b < n; ++b) EXPECT_NE(a % p, b % p);
}

TEST(JksBroadcast, CompletesOnStaticChain) {
  Rng rng(11);
  Scenario scenario(cluster_chain(4, 4, 0.6, 0.05, rng),
                    test::default_config());
  const std::size_t n = scenario.network().size();
  const NodeId source(0);
  auto protocols = jks_protocols(n, source);
  const CarrierSensing sensing = scenario.sensing_local();
  Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                EngineConfig{.seed = 11});
  const auto result = track_until_all(
      engine, [](const Protocol& p, NodeId) { return jks_informed(p); },
      2000);
  EXPECT_TRUE(result.all_done);
}

TEST(JksBroadcast, BitIdenticalAcrossThreadsRepeatsAndEngineSeeds) {
  const std::uint64_t serial = jks_adversary_hash({});
  // Repeat: same everything.
  EXPECT_EQ(jks_adversary_hash({}), serial);
  // Threads 4: slot pipeline parallelism must not shift a single bit.
  EXPECT_EQ(jks_adversary_hash({.threads = 4}), serial);
  // The strong form: JKS never consumes engine randomness ({0,1}
  // probabilities short-circuit Rng::chance), so even the ENGINE SEED does
  // not matter — the whole arena cell is schedule-determined.
  EXPECT_EQ(jks_adversary_hash({.seed = 12345}), serial);
}

TEST(JksBroadcast, AuditorConfirmsDeterminism) {
  const DeterminismReport report = DeterminismAuditor::audit(
      [](TraceHashRecorder& recorder) { run_jks_adversary({}, recorder); });
  EXPECT_TRUE(report.deterministic);
  EXPECT_EQ(report.first_divergence, -1);
}

TEST(Opportunistic, HarmonicDecayAndRevival) {
  OpportunisticDisseminationProtocol::Config config;
  config.cap = 0.5;
  config.aggressiveness = 4.0;
  config.revival_period = 16;
  OpportunisticDisseminationProtocol proto(config, true);
  std::vector<double> probs;
  for (int r = 0; r < 33; ++r) {
    probs.push_back(proto.transmit_probability(Slot::Data));
    SlotFeedback fb;
    proto.on_slot(fb);
  }
  // Capped at cap, then strictly decaying within a cycle.
  EXPECT_DOUBLE_EQ(probs[0], 0.5);
  for (int r = 9; r < 15; ++r) EXPECT_LT(probs[r + 1], probs[r]);
  // Revival: back to full aggressiveness after the period wraps.
  EXPECT_DOUBLE_EQ(probs[16], 0.5);
  EXPECT_DOUBLE_EQ(probs[32], 0.5);
  // Oblivious: never finishes (store-and-re-offer has no terminal state).
  EXPECT_FALSE(proto.finished());
}

TEST(Opportunistic, UninformedStaysSilentUntilReception) {
  OpportunisticDisseminationProtocol proto({}, false);
  EXPECT_FALSE(proto.informed());
  EXPECT_DOUBLE_EQ(proto.transmit_probability(Slot::Data), 0.0);
  SlotFeedback fb;
  fb.received = true;
  fb.sender = NodeId(5);
  proto.on_slot(fb);
  EXPECT_TRUE(proto.informed());
  EXPECT_GT(proto.transmit_probability(Slot::Data), 0.0);
  // on_start resets to uninformed (churn arrival semantics).
  proto.on_start();
  EXPECT_FALSE(proto.informed());
}

/// Undirected adjacency snapshot of a MatrixMetric graph: edge iff the
/// symmetrized distance is below `reach`.
std::vector<std::vector<std::uint32_t>> snapshot_graph(
    const MatrixMetric& metric, double reach) {
  const auto n = static_cast<std::uint32_t>(metric.size());
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::uint32_t u = 0; u < n; ++u)
    for (std::uint32_t v = u + 1; v < n; ++v)
      if (metric.sym_distance(NodeId(u), NodeId(v)) < reach) {
        adj[u].push_back(v);
        adj[v].push_back(u);
      }
  return adj;
}

/// Is the intersection of the graphs in `window` connected over all nodes?
bool window_intersection_connected(
    const std::vector<std::vector<std::vector<std::uint32_t>>>& window) {
  const std::size_t n = window.front().size();
  // Edge present iff present in EVERY graph of the window.
  const auto in_all = [&](std::uint32_t u, std::uint32_t v) {
    for (const auto& adj : window) {
      bool found = false;
      for (const std::uint32_t w : adj[u]) found = found || w == v;
      if (!found) return false;
    }
    return true;
  };
  std::vector<bool> seen(n, false);
  std::vector<std::uint32_t> queue{0};
  seen[0] = true;
  while (!queue.empty()) {
    const std::uint32_t u = queue.back();
    queue.pop_back();
    for (std::uint32_t v = 0; v < n; ++v) {
      if (seen[v] || !in_all(u, v)) continue;
      seen[v] = true;
      queue.push_back(v);
    }
  }
  for (std::size_t v = 0; v < n; ++v)
    if (!seen[v]) return false;
  return true;
}

class TIntervalConnectivity : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(TIntervalConnectivity, EveryWindowSharesAConnectedSpanningSubgraph) {
  const std::uint32_t T = GetParam();
  // Big enough that a far section exists beyond the fixed 2T+1 near window
  // (otherwise there is nothing to rotate and no rewiring to witness).
  const std::size_t n = 2 * static_cast<std::size_t>(T) + 9;
  MatrixMetric metric(n, isolated_distances(n, 1.0e6));
  Network network(metric);
  TIntervalAdversary adversary(metric, {.interval = T, .edge_length = 0.5});
  Rng rng(3);

  const Round rounds = 12 * static_cast<Round>(T) + 5;
  std::vector<std::vector<std::vector<std::uint32_t>>> graphs;
  std::size_t rewirings = 0;
  for (Round r = 0; r < rounds; ++r) {
    const ChangeSet changes = adversary.step(network, rng, r);
    if (r > 0 && !changes.moved.empty()) ++rewirings;
    graphs.push_back(snapshot_graph(metric, 0.7));
  }

  // The adversary must actually rewire, not just sit on one chain.
  EXPECT_GT(rewirings, 0u) << "T=" << T;

  // Every window of T consecutive emitted graphs shares a connected
  // spanning subgraph (checked on the intersection graph by BFS).
  for (std::size_t start = 0; start + T <= graphs.size(); ++start) {
    const std::vector<std::vector<std::vector<std::uint32_t>>> window(
        graphs.begin() + static_cast<std::ptrdiff_t>(start),
        graphs.begin() + static_cast<std::ptrdiff_t>(start + T));
    EXPECT_TRUE(window_intersection_connected(window))
        << "T=" << T << " window at " << start;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, TIntervalConnectivity,
                         ::testing::Values(1u, 3u, 8u));

TEST(TIntervalAdversaryTest, FrontierModeKeepsConnectivityToo) {
  const std::uint32_t T = 4;
  const std::size_t n = 12;
  MatrixMetric metric(n, isolated_distances(n, 1.0e6));
  Network network(metric);
  TIntervalAdversary adversary(metric, {.interval = T});
  // A frontier that grows over time, as it would under a real protocol.
  std::vector<bool> informed(n, false);
  informed[0] = true;
  adversary.set_frontier([&informed](NodeId v) { return informed[v.value]; });
  Rng rng(4);
  std::vector<std::vector<std::vector<std::uint32_t>>> graphs;
  for (Round r = 0; r < 10 * T; ++r) {
    adversary.step(network, rng, r);
    if (r % 3 == 2) {
      // Inform the frontier-adjacent node now and then.
      for (std::size_t v = 0; v < n; ++v)
        if (!informed[v]) {
          informed[v] = true;
          break;
        }
    }
    graphs.push_back(snapshot_graph(metric, 0.7));
  }
  for (std::size_t start = 0; start + T <= graphs.size(); ++start) {
    const std::vector<std::vector<std::vector<std::uint32_t>>> window(
        graphs.begin() + static_cast<std::ptrdiff_t>(start),
        graphs.begin() + static_cast<std::ptrdiff_t>(start + T));
    EXPECT_TRUE(window_intersection_connected(window))
        << "window at " << start;
  }
  // The committed backbone is itself a spanning path: n-1 edges.
  EXPECT_EQ(adversary.backbone().size(), n - 1);
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(Json::number(std::numeric_limits<double>::quiet_NaN()).dump(),
            "null");
  EXPECT_EQ(Json::number(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(Json::number(-std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(Json::number(1.5).dump(), "1.5");
  EXPECT_EQ(Json::number(-0.25).dump(), "-0.25");
  EXPECT_EQ(Json::number(0.0).dump(), "0");
}

}  // namespace
}  // namespace udwn
