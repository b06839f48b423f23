// Property tests for the slot pipeline: Channel::resolve_into (cached /
// grid-pruned / parallel / sharded) must be bit-for-bit identical to the
// brute-force reference Channel::resolve under every configuration — all
// reception models, cache on/off, gain-table shapes, thread counts, power
// scales, and under churn + mobility invalidation. Asymmetric
// quasi-metrics additionally must never be grid-pruned (the grid is
// Euclidean-only by contract).
#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "metric/matrix_metric.h"
#include "phy/channel.h"
#include "tests/helpers.h"

namespace udwn {
namespace {

// Every field compared with exact equality: interference entries are
// doubles and must match to the last bit, not approximately.
void expect_outcomes_identical(const SlotOutcome& ref, const SlotOutcome& got,
                               const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(ref.transmitters.size(), got.transmitters.size());
  for (std::size_t i = 0; i < ref.transmitters.size(); ++i)
    EXPECT_EQ(ref.transmitters[i], got.transmitters[i]);
  ASSERT_EQ(ref.interference.size(), got.interference.size());
  for (std::size_t v = 0; v < ref.interference.size(); ++v) {
    EXPECT_EQ(ref.interference[v], got.interference[v])  // bitwise, not NEAR
        << "interference mismatch at node " << v;
  }
  for (std::size_t v = 0; v < ref.decoded_from.size(); ++v)
    EXPECT_EQ(ref.decoded_from[v], got.decoded_from[v]) << "node " << v;
  for (std::size_t v = 0; v < ref.mass_delivered.size(); ++v)
    EXPECT_EQ(ref.mass_delivered[v], got.mass_delivered[v]) << "node " << v;
  for (std::size_t v = 0; v < ref.clear.size(); ++v)
    EXPECT_EQ(ref.clear[v], got.clear[v]) << "node " << v;
}

std::vector<NodeId> sample_transmitters(const Network& network, Rng& rng,
                                        double p) {
  std::vector<NodeId> txs;
  for (std::size_t v = 0; v < network.size(); ++v) {
    const NodeId id(static_cast<std::uint32_t>(v));
    if (network.alive(id) && rng.chance(p)) txs.push_back(id);
  }
  return txs;
}

struct PipelineVariant {
  const char* label;
  SlotWorkspaceConfig config;
};

std::vector<PipelineVariant> all_variants() {
  return {
      {"cache+grid", {.cache_topology = true}},
      {"uncached", {.cache_topology = false}},
      {"cache+grid+threads3",
       // One 4096-column block < 3 threads: the unsharded pool kernel.
       {.cache_topology = true, .threads = 3}},
      {"uncached+threads2", {.cache_topology = false, .threads = 2}},
      {"tiled+threads3",
       // 16-column tiles at n = 60: 4 blocks >= 3 threads, so the fused
       // plan/fill shard path (Channel::sharded_field) runs every slot.
       {.cache_topology = true, .gain_tile_cols = 16, .threads = 3}},
      {"no-gain-table",
       // Budget 0 disables gain caching entirely while keeping the
       // neighbor cache and grid on (uncached interference kernel).
       {.cache_topology = true, .gain_budget_bytes = 0}},
      {"tiled-gain-table",
       // 16-column tiles force multi-block rows at n = 60.
       {.cache_topology = true, .gain_tile_cols = 16}},
      {"tiled-lru-pressure",
       // 60 resident tiles vs 240 logical: ensure_rows succeeds only by
       // evicting, so every slot exercises the LRU path.
       {.cache_topology = true, .gain_budget_bytes = 7680,
        .gain_tile_cols = 16}},
      {"gain-table-fallback",
       // Budget below one tile: ensure_rows always fails and the pipeline
       // falls back to the uncached kernel mid-flight.
       {.cache_topology = true, .gain_budget_bytes = 512}},
  };
}

class SlotPipelineModels : public ::testing::TestWithParam<ModelKind> {};

TEST_P(SlotPipelineModels, MatchesReferenceOnRandomEuclidean) {
  Scenario scenario(test::random_points(60, 6.0, 7001),
                    test::config_for(GetParam()));
  const Channel& channel = scenario.channel();
  const Network& network = scenario.network();
  Rng rng(99);

  for (const PipelineVariant& variant : all_variants()) {
    SlotWorkspace ws(variant.config);
    for (int trial = 0; trial < 8; ++trial) {
      for (double scale : {1.0, 0.3}) {
        const auto txs = sample_transmitters(network, rng, 0.2);
        const SlotOutcome ref =
            channel.resolve(txs, network.alive_mask(), scale);
        const SlotOutcome& got =
            channel.resolve_into(txs, network.alive_mask(), scale,
                                 network.topology_epoch(), ws);
        expect_outcomes_identical(ref, got, variant.label);
      }
    }
    if (std::string_view(variant.label) == "tiled+threads3") {
      // The variant must really take the sharded path: blocks >= threads.
      ASSERT_NE(ws.cache().gains(), nullptr);
      EXPECT_GE(ws.cache().gains()->blocks(),
                static_cast<std::size_t>(ws.pool()->threads()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, SlotPipelineModels,
                         ::testing::ValuesIn(test::all_models()),
                         [](const auto& info) {
                           return test::model_name(info.param);
                         });

TEST(SlotPipeline, CacheInvalidatesUnderChurnAndMobility) {
  Scenario scenario(test::random_points(50, 5.0, 7002), test::default_config());
  const Channel& channel = scenario.channel();
  Network& network = scenario.network();
  EuclideanMetric& metric = *scenario.euclidean();
  Rng rng(123);

  SlotWorkspace ws(
      {.cache_topology = true, .threads = 2});
  for (int round = 0; round < 30; ++round) {
    // Churn: toggle a random node (never leaving fewer than 2 alive).
    const NodeId victim(static_cast<std::uint32_t>(rng.below(50)));
    if (network.alive_count() > 2 || !network.alive(victim))
      network.set_alive(victim, !network.alive(victim));
    // Mobility: move a random alive node.
    const NodeId mover(static_cast<std::uint32_t>(rng.below(50)));
    const Vec2 p = metric.position(mover);
    metric.set_position(mover,
                        {p.x + rng.uniform(-0.2, 0.2),
                         p.y + rng.uniform(-0.2, 0.2)});

    const auto txs = sample_transmitters(network, rng, 0.25);
    const SlotOutcome ref =
        channel.resolve(txs, network.alive_mask(), 1.0);
    const SlotOutcome& got = channel.resolve_into(
        txs, network.alive_mask(), 1.0, network.topology_epoch(), ws);
    expect_outcomes_identical(ref, got, "churn+mobility");
  }
}

TEST(SlotPipeline, StaleWorkspaceReusedAcrossEpochsStaysExact) {
  // The same workspace alternates between two distinct topologies; each
  // sync must fully re-derive what changed and nothing must leak across.
  Scenario scenario(test::random_points(40, 5.0, 7003), test::default_config());
  const Channel& channel = scenario.channel();
  Network& network = scenario.network();
  Rng rng(5);
  SlotWorkspace ws({.cache_topology = true});

  for (int flip = 0; flip < 6; ++flip) {
    network.set_alive(NodeId(3), flip % 2 == 0);
    for (int trial = 0; trial < 3; ++trial) {
      const auto txs = sample_transmitters(network, rng, 0.3);
      const SlotOutcome ref =
          channel.resolve(txs, network.alive_mask(), 1.0);
      const SlotOutcome& got = channel.resolve_into(
          txs, network.alive_mask(), 1.0, network.topology_epoch(), ws);
      expect_outcomes_identical(ref, got, "epoch-flip");
    }
  }
}

class SlotPipelineAsymmetric : public ::testing::TestWithParam<ModelKind> {};

TEST_P(SlotPipelineAsymmetric, MatchesReferenceAndNeverUsesGrid) {
  Rng metric_rng(7004);
  auto metric = std::make_unique<MatrixMetric>(
      MatrixMetric::random(30, 0.3, 3.0, 0.5, metric_rng));
  Scenario scenario(std::move(metric), test::config_for(GetParam()));
  const Channel& channel = scenario.channel();
  const Network& network = scenario.network();
  Rng rng(77);

  ASSERT_EQ(scenario.euclidean(), nullptr);
  SlotWorkspace ws(
      {.cache_topology = true, .threads = 2});
  for (int trial = 0; trial < 10; ++trial) {
    const auto txs = sample_transmitters(network, rng, 0.25);
    const SlotOutcome ref = channel.resolve(txs, network.alive_mask(), 1.0);
    const SlotOutcome& got = channel.resolve_into(
        txs, network.alive_mask(), 1.0, network.topology_epoch(), ws);
    expect_outcomes_identical(ref, got, "asymmetric");
    // The grid is a Euclidean-ball structure; on an asymmetric quasi-metric
    // it must never be attached, or pruning would be unsound.
    EXPECT_EQ(ws.cache().grid(), nullptr);
    EXPECT_EQ(ws.cache().euclidean(), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, SlotPipelineAsymmetric,
                         ::testing::ValuesIn(test::all_models()),
                         [](const auto& info) {
                           return test::model_name(info.param);
                         });

TEST(SlotPipeline, AsymmetricCacheSurvivesDistanceEdits) {
  Rng metric_rng(7005);
  auto owned = std::make_unique<MatrixMetric>(
      MatrixMetric::random(20, 0.3, 2.5, 0.4, metric_rng));
  MatrixMetric* matrix = owned.get();
  Scenario scenario(std::move(owned), test::default_config());
  const Channel& channel = scenario.channel();
  const Network& network = scenario.network();
  Rng rng(11);
  SlotWorkspace ws({.cache_topology = true});

  for (int edit = 0; edit < 8; ++edit) {
    const NodeId u(static_cast<std::uint32_t>(rng.below(20)));
    NodeId v(static_cast<std::uint32_t>(rng.below(20)));
    if (u == v) v = NodeId((v.value + 1) % 20);
    matrix->set_distance(u, v, rng.uniform(0.3, 2.5));

    const auto txs = sample_transmitters(network, rng, 0.3);
    const SlotOutcome ref = channel.resolve(txs, network.alive_mask(), 1.0);
    const SlotOutcome& got = channel.resolve_into(
        txs, network.alive_mask(), 1.0, network.topology_epoch(), ws);
    expect_outcomes_identical(ref, got, "matrix-edit");
  }
}

TEST(SlotPipeline, CachedNeighborsMatchChannelNeighbors) {
  Scenario scenario(test::random_points(45, 5.0, 7006), test::default_config());
  const Channel& channel = scenario.channel();
  Network& network = scenario.network();
  Rng rng(13);
  SlotWorkspace ws({.cache_topology = true});

  for (int round = 0; round < 5; ++round) {
    network.set_alive(NodeId(static_cast<std::uint32_t>(rng.below(45))), round % 2 == 0);
    // Prime the cache through the public pipeline entry point.
    const auto txs = sample_transmitters(network, rng, 0.3);
    (void)channel.resolve_into(txs, network.alive_mask(), 1.0,
                               network.topology_epoch(), ws);
    for (std::uint32_t u = 0; u < 45; ++u) {
      const auto brute = channel.neighbors(NodeId(u), network.alive_mask());
      const auto cached = ws.cache().neighbors(NodeId(u));
      ASSERT_EQ(brute.size(), cached.size()) << "node " << u;
      for (std::size_t i = 0; i < brute.size(); ++i)
        EXPECT_EQ(brute[i], cached[i]) << "node " << u << " entry " << i;
    }
  }
}

TEST(SlotPipeline, EmptyAndFullTransmitterSets) {
  Scenario scenario(test::random_points(25, 4.0, 7007), test::default_config());
  const Channel& channel = scenario.channel();
  const Network& network = scenario.network();
  SlotWorkspace ws({.cache_topology = true});

  const std::vector<NodeId> none;
  std::vector<NodeId> everyone;
  for (std::uint32_t v = 0; v < 25; ++v) everyone.push_back(NodeId(v));

  for (const auto& txs : {none, everyone}) {
    const SlotOutcome ref = channel.resolve(txs, network.alive_mask(), 1.0);
    const SlotOutcome& got = channel.resolve_into(
        txs, network.alive_mask(), 1.0, network.topology_epoch(), ws);
    expect_outcomes_identical(ref, got, txs.empty() ? "empty" : "full");
  }
}

}  // namespace
}  // namespace udwn
