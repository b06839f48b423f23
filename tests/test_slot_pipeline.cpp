// Property tests for the slot pipeline: Channel::resolve_into (cached /
// grid-pruned / parallel / sharded) must be bit-for-bit identical to the
// brute-force reference Channel::resolve under every configuration — all
// reception models, gain-table shapes, thread counts, power scales, and
// under churn + mobility invalidation, also with the mass-delivery/clear
// loop sharded over the pool. Asymmetric quasi-metrics
// additionally must never be grid-pruned (the grid is Euclidean-only by
// contract).
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

struct PipelineVariant {
  const char* label;
  SlotWorkspaceConfig config;
};

std::vector<PipelineVariant> all_variants() {
  return {
      {"cache+grid", {}},
      {"threads3",
       // The tile width follows n and threads: 16 columns at n = 60, so
       // 4 blocks >= 3 threads and the fused plan/fill driver
       // (interference_field_planned) runs every slot on the pool.
       {.threads = 3}},
      {"no-gain-table",
       // Budget 0 disables gain caching entirely while keeping the
       // neighbor cache and grid on (uncached interference kernel).
       {.gain_budget_bytes = 0}},
      {"tiled-lru-pressure",
       // 4 threads at n = 60 also make 16-column tiles: 60 resident tiles
       // vs 240 logical, so plan_rows succeeds only by evicting and every
       // slot exercises the LRU path.
       {.gain_budget_bytes = 7680, .threads = 4}},
      {"gain-table-fallback",
       // A one-row budget: plan_rows fails for two or more transmitters
       // and the pipeline falls back to the uncached kernel mid-flight.
       {.gain_budget_bytes = 512}},
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
        const auto txs = test::sample_transmitters(network, rng, 0.2);
        EXPECT_TRUE(test::resolves_exactly(channel, network, txs, ws, scale))
            << variant.label;
      }
    }
    if (std::string_view(variant.label) == "threads3") {
      // The derived width must give every thread a block.
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

TEST_P(SlotPipelineModels, ShardedFlagLoopMatchesReference) {
  // At least 64 transmitters per thread put the mass-delivery/clear loop
  // on the pool (threads 3: >= 192 per slot). Churn and moves between
  // slots leave neighbour lists stale, so the pool chunks refill them.
  // The sparse layout keeps both values of both flags in play.
  constexpr std::uint32_t kNodes = 1000;
  Scenario scenario(test::random_points(kNodes, 40.0, 7008),
                    test::config_for(GetParam()));
  const Channel& channel = scenario.channel();
  Network& network = scenario.network();
  EuclideanMetric& metric = *scenario.euclidean();
  Rng rng(101);
  SlotWorkspace ws({.threads = 3});
  std::size_t mass[2] = {0, 0};
  std::size_t clear[2] = {0, 0};
  for (int trial = 0; trial < 4; ++trial) {
    for (int m = 0; m < 20; ++m) {
      const NodeId v(static_cast<std::uint32_t>(rng.below(kNodes)));
      if (m % 4 == 0) {
        network.set_alive(v, !network.alive(v));
        continue;
      }
      const Vec2 p = metric.position(v);
      metric.set_position(v, {p.x + rng.uniform(-0.5, 0.5),
                              p.y + rng.uniform(-0.5, 0.5)});
    }
    const auto txs = test::sample_transmitters(network, rng, 0.25);
    ASSERT_GE(txs.size(), 64u * 3);
    const double scale = trial % 2 == 0 ? 1.0 : 0.3;
    EXPECT_TRUE(test::resolves_exactly(channel, network, txs, ws, scale))
        << "trial " << trial;
    const SlotOutcome ref = channel.resolve(txs, network.alive_mask(), scale);
    for (const NodeId u : txs) {
      ++mass[ref.mass_delivered[u.value] != 0];
      ++clear[ref.clear[u.value] != 0];
    }
  }
  EXPECT_GT(mass[0], 0u);
  EXPECT_GT(mass[1], 0u);
  EXPECT_GT(clear[0], 0u);
  EXPECT_GT(clear[1], 0u);
}

TEST(SlotPipeline, CacheInvalidatesUnderChurnAndMobility) {
  Scenario scenario(test::random_points(50, 5.0, 7002), test::default_config());
  const Channel& channel = scenario.channel();
  Network& network = scenario.network();
  EuclideanMetric& metric = *scenario.euclidean();
  Rng rng(123);

  SlotWorkspace ws({.threads = 2});
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

    const auto txs = test::sample_transmitters(network, rng, 0.25);
    EXPECT_TRUE(test::resolves_exactly(channel, network, txs, ws))
        << "churn+mobility";
  }
}

TEST(SlotPipeline, StaleWorkspaceReusedAcrossEpochsStaysExact) {
  // The same workspace alternates between two distinct topologies; each
  // sync must fully re-derive what changed and nothing must leak across.
  Scenario scenario(test::random_points(40, 5.0, 7003), test::default_config());
  const Channel& channel = scenario.channel();
  Network& network = scenario.network();
  Rng rng(5);
  SlotWorkspace ws;

  for (int flip = 0; flip < 6; ++flip) {
    network.set_alive(NodeId(3), flip % 2 == 0);
    for (int trial = 0; trial < 3; ++trial) {
      const auto txs = test::sample_transmitters(network, rng, 0.3);
      EXPECT_TRUE(test::resolves_exactly(channel, network, txs, ws))
          << "epoch-flip";
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
  SlotWorkspace ws({.threads = 2});
  for (int trial = 0; trial < 10; ++trial) {
    const auto txs = test::sample_transmitters(network, rng, 0.25);
    EXPECT_TRUE(test::resolves_exactly(channel, network, txs, ws))
        << "asymmetric";
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
  SlotWorkspace ws;

  for (int edit = 0; edit < 8; ++edit) {
    const NodeId u(static_cast<std::uint32_t>(rng.below(20)));
    NodeId v(static_cast<std::uint32_t>(rng.below(20)));
    if (u == v) v = NodeId((v.value + 1) % 20);
    matrix->set_distance(u, v, rng.uniform(0.3, 2.5));

    const auto txs = test::sample_transmitters(network, rng, 0.3);
    EXPECT_TRUE(test::resolves_exactly(channel, network, txs, ws))
        << "matrix-edit";
  }
}

TEST(SlotPipeline, CachedNeighborsMatchChannelNeighbors) {
  Scenario scenario(test::random_points(45, 5.0, 7006), test::default_config());
  const Channel& channel = scenario.channel();
  Network& network = scenario.network();
  Rng rng(13);
  SlotWorkspace ws;
  std::vector<NodeId> scratch;

  for (int round = 0; round < 5; ++round) {
    network.set_alive(NodeId(static_cast<std::uint32_t>(rng.below(45))), round % 2 == 0);
    // Prime the cache through the public pipeline entry point.
    const auto txs = test::sample_transmitters(network, rng, 0.3);
    (void)channel.resolve_into(txs, network.alive_mask(), 1.0, ws);
    for (std::uint32_t u = 0; u < 45; ++u) {
      EXPECT_EQ(test::alive_only(ws.cache().neighbors(NodeId(u), scratch),
                                 network.alive_mask()),
                channel.neighbors(NodeId(u), network.alive_mask()))
          << "node " << u;
    }
  }
}

TEST(SlotPipeline, EmptyAndFullTransmitterSets) {
  Scenario scenario(test::random_points(25, 4.0, 7007), test::default_config());
  const Channel& channel = scenario.channel();
  const Network& network = scenario.network();
  SlotWorkspace ws;

  const std::vector<NodeId> none;
  std::vector<NodeId> everyone;
  for (std::uint32_t v = 0; v < 25; ++v) everyone.push_back(NodeId(v));

  for (const auto& txs : {none, everyone}) {
    EXPECT_TRUE(test::resolves_exactly(channel, network, txs, ws))
        << (txs.empty() ? "empty" : "full");
  }
}

}  // namespace
}  // namespace udwn
