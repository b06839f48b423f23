// The delta-invalidation stack, layer by layer: DirtyLog window queries,
// QuasiMetric dirty bookkeeping (localized / coarse / batched spans),
// Network::collect_delta folding metric dirt and alive churn into a
// TopologyDelta, GainTable::apply_delta freshening exactly the tiles that
// avoid every dirty row and column, stale tiles of clean rows patched
// column by column, and — the property the whole refactor
// hangs on — cached slot resolution staying bit-identical to the brute-force
// reference while deltas are applied every round. The engine-level test
// closes the loop: under churn + mobility every slot of a run equals
// Channel::resolve(), serial and threaded. Cached neighbor lists
// are checked against brute force after every delta, on a Euclidean and a
// matrix metric (the two apply_delta branches).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "analysis/determinism.h"
#include "analysis/runner.h"
#include "analysis/scenario.h"
#include "core/broadcast.h"
#include "metric/dirty_log.h"
#include "metric/euclidean.h"
#include "metric/matrix_metric.h"
#include "phy/channel.h"
#include "phy/gain_table.h"
#include "sim/dynamics.h"
#include "sim/network.h"
#include "tests/helpers.h"

namespace udwn {
namespace {

using test::ids;

TEST(DirtyLog, CollectReturnsExactlyTheWindow) {
  DirtyLog log;
  log.record(NodeId(5), 1);
  log.record(NodeId(9), 2);
  log.record(NodeId(5), 3);
  std::vector<NodeId> out;
  ASSERT_TRUE(log.collect(0, 3, out));
  EXPECT_EQ(out, ids({5, 9, 5}));  // repeats preserved; callers dedup
  out.clear();
  ASSERT_TRUE(log.collect(1, 2, out));
  EXPECT_EQ(out, ids({9}));
  out.clear();
  EXPECT_TRUE(log.collect(3, 3, out));  // empty window is localizable
  EXPECT_TRUE(out.empty());
}

TEST(DirtyLog, GlobalRecordMakesCoveringWindowsNonLocalizable) {
  DirtyLog log;
  log.record(NodeId(1), 1);
  log.record_global(2);
  log.record(NodeId(3), 3);
  std::vector<NodeId> out;
  EXPECT_FALSE(log.collect(1, 3, out));  // global tick inside the window
  EXPECT_TRUE(out.empty());              // out untouched on failure
  // History at or below the global mark is subsumed by it.
  EXPECT_FALSE(log.collect(0, 1, out));
  // Windows strictly after the global mark stay localizable.
  ASSERT_TRUE(log.collect(2, 3, out));
  EXPECT_EQ(out, ids({3}));
}

TEST(DirtyLog, EvictionLosesOnlyOldWindows) {
  DirtyLog log;
  // Overflow the ring's hard cap so the oldest records are evicted.
  const std::uint64_t total = (std::uint64_t{1} << 17) + 500;
  for (std::uint64_t v = 1; v <= total; ++v)
    log.record(NodeId(static_cast<std::uint32_t>(v % 7)), v);
  std::vector<NodeId> out;
  EXPECT_FALSE(log.collect(0, total, out));  // reaches past the horizon
  ASSERT_TRUE(log.collect(total - 100, total, out));
  EXPECT_EQ(out.size(), 100u);
}

TEST(QuasiMetricDirty, EuclideanMoveLogsTheMoverOnly) {
  EuclideanMetric m(test::random_points(10, 3.0, 41));
  const std::uint64_t v0 = m.version();
  m.set_position(NodeId(4), {1, 1});
  EXPECT_EQ(m.version(), v0 + 1);
  std::vector<NodeId> out;
  ASSERT_TRUE(m.dirty_log().collect(v0, v0 + 1, out));
  EXPECT_EQ(out, ids({4}));
}

TEST(QuasiMetricDirty, UpdateSpanBatchesMovesIntoOneTick) {
  EuclideanMetric m(test::random_points(10, 3.0, 42));
  const std::uint64_t v0 = m.version();
  m.begin_update();
  m.set_position(NodeId(2), {2, 2});
  m.set_position(NodeId(7), {0.5, 0.5});
  EXPECT_EQ(m.version(), v0);  // not committed inside the span
  m.end_update();
  EXPECT_EQ(m.version(), v0 + 1);
  std::vector<NodeId> out;
  ASSERT_TRUE(m.dirty_log().collect(v0, v0 + 1, out));
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, ids({2, 7}));
}

TEST(QuasiMetricDirty, EmptyAndNestedSpans) {
  EuclideanMetric m(test::random_points(5, 3.0, 43));
  const std::uint64_t v0 = m.version();
  m.begin_update();
  m.end_update();
  EXPECT_EQ(m.version(), v0);  // nothing mutated: no tick
  m.begin_update();
  m.begin_update();
  m.set_position(NodeId(1), {1, 1});
  m.end_update();
  EXPECT_EQ(m.version(), v0);  // inner end does not commit
  m.end_update();
  EXPECT_EQ(m.version(), v0 + 1);
}

TEST(QuasiMetricDirty, MatrixEditDirtiesBothEndpoints) {
  // Non-geometric consumers treat "neither endpoint dirty" as "distance
  // unchanged", so a directed edit must dirty both u and v (dirty_log.h).
  MatrixMetric m(3, {0, 1, 2, 1, 0, 1, 2, 1, 0});
  const std::uint64_t v0 = m.version();
  m.set_distance(NodeId(0), NodeId(2), 1.5);
  EXPECT_EQ(m.version(), v0 + 1);
  std::vector<NodeId> out;
  ASSERT_TRUE(m.dirty_log().collect(v0, v0 + 1, out));
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, ids({0, 2}));
}

TEST(QuasiMetricDirty, AppendedPointIsCoarse) {
  EuclideanMetric m(test::random_points(4, 2.0, 44));
  const std::uint64_t v0 = m.version();
  m.add_point({1, 1});
  EXPECT_EQ(m.version(), v0 + 1);
  std::vector<NodeId> out;
  EXPECT_FALSE(m.dirty_log().collect(v0, v0 + 1, out));
}

TEST(NetworkDelta, ArmingAnchorsTheCollectionWindow) {
  EuclideanMetric m(test::random_points(10, 3.0, 51));
  Network net(m);
  // Mutations before arming must not leak into the first delta.
  m.set_position(NodeId(3), {1, 1});
  net.set_alive(NodeId(6), false);
  net.set_track_changes(true);
  const TopologyDelta& delta = net.collect_delta();
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.prev_metric_version, delta.metric_version);
  EXPECT_EQ(delta.prev_epoch, delta.epoch);
}

TEST(NetworkDelta, FoldsMovesAndAliveChurnSortedDeduped) {
  EuclideanMetric m(test::random_points(10, 3.0, 52));
  Network net(m);
  net.set_track_changes(true);
  const std::uint64_t v0 = m.version();
  const std::uint64_t e0 = net.topology_epoch();
  m.set_position(NodeId(7), {1, 2});
  m.set_position(NodeId(3), {2, 1});
  net.set_alive(NodeId(4), false);
  net.set_alive(NodeId(4), true);  // toggled twice: still reported once
  net.set_alive(NodeId(2), false);
  const TopologyDelta& delta = net.collect_delta();
  EXPECT_FALSE(delta.coarse);
  EXPECT_EQ(delta.moved, ids({3, 7}));
  EXPECT_EQ(delta.alive_toggled, ids({2, 4}));
  EXPECT_EQ(delta.prev_metric_version, v0);
  EXPECT_EQ(delta.metric_version, v0 + 2);
  EXPECT_EQ(delta.prev_epoch, e0);
  EXPECT_EQ(delta.epoch, net.topology_epoch());
  // The window advanced: a quiet round collects an empty delta.
  EXPECT_TRUE(net.collect_delta().empty());
}

TEST(NetworkDelta, CoarseMetricChangeFlagsTheDelta) {
  EuclideanMetric m(test::random_points(10, 3.0, 53));
  Network net(m);
  net.set_track_changes(true);
  m.set_position(NodeId(1), {0.1, 0.1});
  m.add_point({5, 5});  // not localizable: subsumes the move above
  const TopologyDelta& delta = net.collect_delta();
  EXPECT_TRUE(delta.coarse);
  EXPECT_TRUE(delta.moved.empty());
  EXPECT_FALSE(delta.empty());  // coarse deltas are changes, not no-ops
}

TEST(GainTableDelta, FreshensExactlyTheTilesAvoidingDirtyRowsAndColumns) {
  EuclideanMetric metric(test::random_points(32, 5.0, 71));
  const PathLoss pl(2.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.tile_cols = 8, .budget_bytes = 1 << 20});
  gains.bind(metric, pl);
  ASSERT_TRUE(gains.enabled());
  ASSERT_EQ(gains.blocks(), 4u);
  std::vector<NodeId> all;
  for (std::uint32_t u = 0; u < 32; ++u) all.push_back(NodeId(u));
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));

  const std::uint64_t v0 = metric.version();
  const NodeId mover(5);  // column 5 lives in block 0
  const Vec2 p = metric.position(mover);
  metric.set_position(mover, {p.x + 0.25, p.y});
  const std::uint64_t v1 = metric.version();
  const std::vector<NodeId> dirty{mover};
  gains.apply_delta(dirty, v0, v1);

  // 31 clean rows × 3 clean blocks restamped without a fill.
  EXPECT_EQ(gains.stats().freshened, 31u * 3u);
  for (std::uint32_t u = 0; u < 32; ++u) {
    for (std::size_t b = 0; b < 4; ++b) {
      const double* row = gains.row_block(NodeId(u), b);
      if (u == mover.value || b == 0) {
        EXPECT_EQ(row, nullptr) << "suspect tile (" << u << "," << b << ")";
        continue;
      }
      ASSERT_NE(row, nullptr) << "clean tile (" << u << "," << b << ")";
      for (std::uint32_t j = 0; j < 8; ++j) {
        const std::uint32_t v = static_cast<std::uint32_t>(b) * 8 + j;
        const double expected =
            v == u ? 0.0 : pl.signal(metric.distance(NodeId(u), NodeId(v)));
        EXPECT_EQ(row[j], expected);  // bitwise: freshening changed nothing
      }
    }
  }
}

TEST(GainTableDelta, NoOpWhenVersionsEqualOrEveryBlockDirty) {
  EuclideanMetric metric(test::random_points(16, 4.0, 72));
  const PathLoss pl(2.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.tile_cols = 8, .budget_bytes = 1 << 20});
  gains.bind(metric, pl);
  std::vector<NodeId> all;
  for (std::uint32_t u = 0; u < 16; ++u) all.push_back(NodeId(u));
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));
  const std::uint64_t v0 = metric.version();
  gains.apply_delta(all, v0, v0);  // equal versions: nothing to connect
  EXPECT_EQ(gains.stats().freshened, 0u);
  // One dirty column per block leaves no tile provably clean.
  metric.begin_update();
  metric.set_position(NodeId(0), {0.1, 0.1});
  metric.set_position(NodeId(8), {3.9, 3.9});
  metric.end_update();
  const std::vector<NodeId> dirty = ids({0, 8});
  gains.apply_delta(dirty, v0, metric.version());
  EXPECT_EQ(gains.stats().freshened, 0u);
  EXPECT_EQ(gains.row_block(NodeId(3), 0), nullptr);
}

// Every tile of row u holds exactly the uncached gains (diagonal +0.0).
void expect_row_exact(const GainTable& gains, const EuclideanMetric& metric,
                      const PathLoss& pl, NodeId u) {
  for (std::size_t b = 0; b < gains.blocks(); ++b) {
    const double* row = gains.row_block(u, b);
    ASSERT_NE(row, nullptr) << "tile (" << u.value << "," << b << ")";
    for (std::size_t j = 0; j < gains.block_cols(b); ++j) {
      const NodeId v(static_cast<std::uint32_t>(gains.block_begin(b) + j));
      const double expected = v == u ? 0.0 : pl.signal(metric.distance(u, v));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row[j]),
                std::bit_cast<std::uint64_t>(expected))
          << "cell (" << u.value << "," << v.value << ")";
    }
  }
}

TEST(GainTablePatch, CleanRowRecomputesExactlyTheMovedColumns) {
  EuclideanMetric metric(test::random_points(32, 5.0, 73));
  const PathLoss pl(2.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.tile_cols = 8, .budget_bytes = 1 << 20});
  gains.bind(metric, pl);
  std::vector<NodeId> all;
  for (std::uint32_t u = 0; u < 32; ++u) all.push_back(NodeId(u));
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));
  EXPECT_EQ(gains.stats().cells, 32u * 32u);  // first use: full fills

  // Columns 5 and 6 (block 0) and 17 (block 2) move in one version tick.
  const std::uint64_t v0 = metric.version();
  metric.begin_update();
  for (const std::uint32_t m : {5u, 6u, 17u}) {
    const Vec2 p = metric.position(NodeId(m));
    metric.set_position(NodeId(m), {p.x + 0.3, p.y - 0.2});
  }
  metric.end_update();
  gains.apply_delta(ids({5, 6, 17}), v0, metric.version());

  // Clean row 3: block 0 patches 2 cells, block 2 patches 1; blocks 1 and 3
  // were restamped by apply_delta and are hits.
  const GainTable::Stats before = gains.stats();
  ASSERT_TRUE(gains.ensure_rows(ids({3}), nullptr));
  EXPECT_EQ(gains.stats().fills - before.fills, 2u);
  EXPECT_EQ(gains.stats().cells - before.cells, 2u + 1u);
  EXPECT_EQ(gains.stats().hits - before.hits, 2u);
  expect_row_exact(gains, metric, pl, NodeId(3));
}

TEST(GainTablePatch, DirtyRowRefillsInFull) {
  EuclideanMetric metric(test::random_points(32, 5.0, 74));
  const PathLoss pl(2.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.tile_cols = 8, .budget_bytes = 1 << 20});
  gains.bind(metric, pl);
  std::vector<NodeId> all;
  for (std::uint32_t u = 0; u < 32; ++u) all.push_back(NodeId(u));
  ASSERT_TRUE(gains.ensure_rows(all, nullptr));

  const std::uint64_t v0 = metric.version();
  const Vec2 p = metric.position(NodeId(5));
  metric.set_position(NodeId(5), {p.x + 0.3, p.y});
  gains.apply_delta(ids({5}), v0, metric.version());

  // Every distance from node 5 may have changed: its four tiles refill all
  // 32 columns, not just column 5.
  const GainTable::Stats before = gains.stats();
  ASSERT_TRUE(gains.ensure_rows(ids({5}), nullptr));
  EXPECT_EQ(gains.stats().fills - before.fills, 4u);
  EXPECT_EQ(gains.stats().cells - before.cells, 32u);
  expect_row_exact(gains, metric, pl, NodeId(5));
}

TEST(GainTablePatch, RandomRoundsMatchAFreshlyBoundTableBitForBit) {
  // Movers (batched in one tick or spread over several), skipped deltas
  // (the table never hears of a round's moves), a coarse add_point of 8
  // nodes (a rebind, as TopologyCache does on a size change) and a budget
  // of 24 tiles against 5-6 blocks a row, so the LRU evicts and an
  // occasional five-row call falls back. Rows are mostly drawn from 8 hot
  // transmitters, so resident stale tiles are requested again. After every
  // round, every fresh tile must equal a freshly bound table to the last
  // bit.
  const PathLoss pl(2.0, 3.0, 1e-3);
  EuclideanMetric metric(test::random_points(40, 5.0, 75));
  const GainTable::Config config{.tile_cols = 8,
                                 .budget_bytes = 24 * 8 * sizeof(double)};
  GainTable gains(config);
  gains.bind(metric, pl);
  Rng rng(76);
  std::uint64_t collected = metric.version();  // Network::collect_delta's
  std::vector<NodeId> window;                  // window since `collected`
  int coarse = 0, gaps = 0, patching_calls = 0;
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(round);
    const std::size_t n = metric.size();
    if (n < 48 && rng.chance(0.02)) {
      // Whole blocks only, so a call's full fills are fills * tile_cols.
      for (int k = 0; k < 8; ++k)
        metric.add_point({rng.uniform(0, 5), rng.uniform(0, 5)});
      gains.bind(metric, pl);
      ++coarse;
      collected = metric.version();
      window.clear();
    } else {
      const bool batched = rng.chance(0.5);
      if (batched) metric.begin_update();
      const std::uint64_t movers = 1 + rng.below(3);
      for (std::uint64_t k = 0; k < movers; ++k) {
        const NodeId v(static_cast<std::uint32_t>(rng.below(n)));
        const Vec2 p = metric.position(v);
        metric.set_position(v, {p.x + rng.uniform(-0.4, 0.4),
                                p.y + rng.uniform(-0.4, 0.4)});
        window.push_back(v);
      }
      if (batched) metric.end_update();
      std::sort(window.begin(), window.end());
      window.erase(std::unique(window.begin(), window.end()), window.end());
      // A gap: the delta is collected (the window advances) but never
      // reaches the table.
      if (rng.chance(0.1))
        ++gaps;
      else
        gains.apply_delta(window, collected, metric.version());
      collected = metric.version();
      window.clear();
    }
    if (rng.chance(0.05)) {
      // Five rows need 25+ tiles: the call fails and must roll back its
      // stamps without leaving a stale tile marked fresh.
      std::vector<NodeId> rows;
      const auto first = static_cast<std::uint32_t>(rng.below(4));
      for (std::uint32_t k = 0; k < 5; ++k) rows.push_back(NodeId(first + k));
      EXPECT_FALSE(gains.ensure_rows(rows, nullptr));
    } else if (rng.chance(0.8)) {
      std::vector<NodeId> rows;
      for (std::uint64_t k = 0, count = 1 + rng.below(3); k < count; ++k)
        rows.push_back(NodeId(
            static_cast<std::uint32_t>(rng.below(rng.chance(0.8) ? 8 : n))));
      const GainTable::Stats before = gains.stats();
      ASSERT_TRUE(gains.ensure_rows(rows, nullptr));
      const std::uint64_t cells = gains.stats().cells - before.cells;
      const std::uint64_t fills = gains.stats().fills - before.fills;
      if (cells < fills * config.tile_cols) ++patching_calls;
    }

    GainTable fresh(GainTable::Config{.tile_cols = 8,
                                      .budget_bytes = 1 << 20});
    fresh.bind(metric, pl);
    std::vector<NodeId> all;
    for (std::uint32_t u = 0; u < metric.size(); ++u) all.push_back(NodeId(u));
    ASSERT_TRUE(fresh.ensure_rows(all, nullptr));
    for (std::uint32_t u = 0; u < metric.size(); ++u) {
      for (std::size_t b = 0; b < gains.blocks(); ++b) {
        const double* got = gains.row_block(NodeId(u), b);
        if (got == nullptr) continue;  // stale or evicted: never read
        const double* want = fresh.row_block(NodeId(u), b);
        for (std::size_t j = 0; j < gains.block_cols(b); ++j)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]),
                    std::bit_cast<std::uint64_t>(want[j]))
              << "cell (" << u << "," << gains.block_begin(b) + j << ")";
      }
    }
  }
  // Every path ran.
  EXPECT_EQ(coarse, 1);
  EXPECT_GT(gaps, 0);
  EXPECT_GT(patching_calls, 0);
  EXPECT_GT(gains.stats().evictions, 0u);
  EXPECT_GT(gains.stats().fallbacks, 0u);
}

TEST(DeltaInvalidation, CachedResolveMatchesBruteForceAcrossDeltaRounds) {
  Scenario scenario(test::random_points(60, 6.0, 8101),
                    test::default_config());
  const Channel& channel = scenario.channel();
  Network& network = scenario.network();
  EuclideanMetric& metric = *scenario.euclidean();
  network.set_track_changes(true);
  // 4 threads make 16-column tiles at n = 60: multi-block gain rows, so
  // apply_delta's per-block column filtering is actually exercised.
  SlotWorkspace ws(SlotWorkspaceConfig{.threads = 4});
  Rng rng(9);
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(round);
    metric.begin_update();
    for (int k = 0; k < 2; ++k) {
      const NodeId v(static_cast<std::uint32_t>(rng.below(60)));
      const Vec2 p = metric.position(v);
      metric.set_position(v, {p.x + rng.uniform(-0.3, 0.3),
                              p.y + rng.uniform(-0.3, 0.3)});
    }
    metric.end_update();
    const NodeId toggled(static_cast<std::uint32_t>(rng.below(60)));
    network.set_alive(toggled, !network.alive(toggled));
    ws.cache().apply_delta(network.collect_delta());

    const auto txs = test::sample_transmitters(network, rng, 0.2);
    EXPECT_TRUE(test::resolves_exactly(channel, network, txs, ws));
  }
  // The fast path must have engaged, not silently degraded to epoch-only.
  ASSERT_NE(ws.cache().gains(), nullptr);
  EXPECT_GT(ws.cache().gains()->stats().freshened, 0u);
}

// Drives `mutate` through collect_delta → apply_delta every round, then
// reads every cached neighbor list and compares it with the brute-force
// Channel::neighbors. Reading all lists leaves each one fresh before the
// next delta, so a list wrongly carried across a change cannot hide behind
// one that happened to be stale already.
void expect_cached_neighbors_match(
    Scenario& scenario, const std::function<void(Rng&, int round)>& mutate) {
  const Channel& channel = scenario.channel();
  Network& network = scenario.network();
  network.set_track_changes(true);
  SlotWorkspace ws;
  const std::vector<NodeId> silent;
  std::vector<NodeId> scratch;
  Rng rng(17);
  for (int round = 0; round < 30; ++round) {
    SCOPED_TRACE(round);
    if (round > 0) {
      mutate(rng, round);
      ws.cache().apply_delta(network.collect_delta());
    }
    // resolve_into syncs the cache to the round's epoch.
    (void)channel.resolve_into(silent, network.alive_mask(), 1.0,
                               network.topology_epoch(), ws);
    for (std::uint32_t u = 0; u < network.size(); ++u) {
      const std::span<const NodeId> got =
          ws.cache().neighbors(NodeId(u), scratch);
      ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()),
                channel.neighbors(NodeId(u), network.alive_mask()))
          << "node " << u;
    }
  }
}

TEST(DeltaInvalidation, CachedNeighborsMatchBruteForceAcrossDeltaRounds) {
  {
    SCOPED_TRACE("euclidean");
    Scenario scenario(test::random_points(60, 4.0, 8102),
                      test::default_config());
    EuclideanMetric& metric = *scenario.euclidean();
    Network& network = scenario.network();
    expect_cached_neighbors_match(scenario, [&](Rng& rng, int round) {
      metric.begin_update();
      for (int k = 0; k < 3; ++k) {
        const NodeId v(static_cast<std::uint32_t>(rng.below(60)));
        const Vec2 p = metric.position(v);
        metric.set_position(v, {p.x + rng.uniform(-0.3, 0.3),
                                p.y + rng.uniform(-0.3, 0.3)});
      }
      metric.end_update();
      if (round % 2 == 1) {
        const NodeId t(static_cast<std::uint32_t>(rng.below(60)));
        network.set_alive(t, !network.alive(t));
      }
    });
  }
  {
    // Non-Euclidean: apply_delta restamps the lists outside the dirty set
    // (and freshens nothing in rounds with alive toggles).
    SCOPED_TRACE("matrix");
    Rng build(8103);
    Scenario scenario(std::make_unique<MatrixMetric>(
                          MatrixMetric::random(40, 0.3, 2.0, 0.4, build)),
                      test::default_config());
    auto& metric = static_cast<MatrixMetric&>(scenario.metric());
    Network& network = scenario.network();
    expect_cached_neighbors_match(scenario, [&](Rng& rng, int round) {
      for (int k = 0; k < 2; ++k) {
        const NodeId u(static_cast<std::uint32_t>(rng.below(40)));
        const NodeId v(static_cast<std::uint32_t>(rng.below(40)));
        if (u != v) metric.set_distance(u, v, rng.uniform(0.3, 1.2));
      }
      if (round % 3 == 0) {
        const NodeId t(static_cast<std::uint32_t>(rng.below(40)));
        network.set_alive(t, !network.alive(t));
      }
    });
  }
}

// A churn + mobility Bcast run with every slot checked against
// Channel::resolve(); returns the per-round trace hashes.
std::vector<std::uint64_t> run_checked_engine(int threads) {
  const std::uint64_t seed = 4242;
  constexpr Round kRounds = 60;
  Scenario scenario(test::random_points(24, 4.0, seed),
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
                             .seed = seed,
                             .threads = threads});
  ChurnDynamics churn({.arrival_rate = 0.15,
                       .departure_rate = 0.15,
                       .placement_extent = 4.0,
                       .pinned = {source}});
  WaypointMobility mobility(*scenario.euclidean(), {.speed = 0.05,
                                                    .extent = 4.0,
                                                    .mobile_fraction = 0.5});
  CompositeDynamics dynamics({&churn, &mobility});
  engine.set_dynamics(&dynamics);
  TraceHashRecorder trace;
  ReferenceCheck check(1.0, &trace);
  engine.set_recorder(&check);
  for (Round r = 0; r < kRounds; ++r) engine.step();
  EXPECT_TRUE(check.passed()) << to_string(check) << ", threads " << threads;
  EXPECT_EQ(check.slots_checked(), static_cast<std::uint64_t>(2 * kRounds));
  return trace.round_hashes();
}

TEST(DeltaInvalidation, EngineRunMatchesReferenceUnderChurnAndMobility) {
  // Delta invalidation is a pure freshening optimization: under churn +
  // mobility every slot must equal Channel::resolve() bit for bit, serial
  // and threaded, and both runs hash to one trace round for round.
  const auto serial = run_checked_engine(1);
  EXPECT_EQ(serial, run_checked_engine(4));
}

}  // namespace
}  // namespace udwn
