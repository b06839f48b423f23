// Unit tests for the blocked/tiled LRU gain table, plus the end-to-end
// guarantee the tiling exists for: instances with n > 4096 (the old flat
// table's hard cliff) still resolve bit-identically to the brute-force
// reference while the gain cache is active.
#include "phy/gain_table.h"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/scenario.h"
#include "metric/euclidean.h"
#include "phy/channel.h"
#include "tests/helpers.h"

namespace udwn {
namespace {

using test::ids;

GainTable::Config tiny_tiles(std::size_t tile_cols, std::size_t tiles) {
  return GainTable::Config{.tile_cols = tile_cols,
                           .budget_bytes = tiles * tile_cols * 8};
}

TEST(GainTable, TileWidthGivesEveryThreadABlock) {
  struct Case {
    std::size_t n;
    int threads;
    std::size_t width;
  };
  const Case cases[] = {
      {0, 1, 4096},     // no listener: nothing to split
      {0, 4, 4096},
      {3, 4, 1},        // n < threads: one column per block
      {60, 1, 4096},    // one thread: the widest tile at any n
      {8192, 1, 4096},
      {8192, 2, 4096},  // two threads at 8k: two full tiles
      {60, 3, 16},
      {56, 4, 16},
      {48, 4, 8},
      {49, 4, 16},      // ragged: ceil(49 / 16) is exactly 4
      {8193, 3, 4096},  // ragged: ceil(8193 / 4096) is exactly 3
  };
  for (const Case& c : cases) {
    const std::size_t width = gain_tile_width(c.n, c.threads, 4096);
    EXPECT_EQ(width, c.width) << "n " << c.n << " threads " << c.threads;
    const auto blocks = [&](std::size_t w) { return (c.n + w - 1) / w; };
    const auto threads = static_cast<std::size_t>(c.threads);
    if (c.n >= threads && width < 4096) {
      EXPECT_GE(blocks(width), threads);      // every thread gets a block
      EXPECT_LT(blocks(2 * width), threads);  // and it is the widest such
    }
  }
  // The table's own bound caps the width.
  EXPECT_EQ(gain_tile_width(60, 1, 16), 16u);
  EXPECT_EQ(gain_tile_width(60, 4, 8), 8u);

  // bind applies the rule.
  EuclideanMetric metric(test::random_points(60, 6.0, 600));
  const PathLoss pl(1.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.threads = 3});
  gains.bind(metric, pl);
  EXPECT_EQ(gains.blocks(), 4u);
  EXPECT_EQ(gains.block_cols(0), 16u);
  EXPECT_EQ(gains.block_cols(3), 12u);
}

TEST(GainTable, EntriesMatchUncachedExpressionDiagonalIsPlusZero) {
  EuclideanMetric metric(test::random_points(20, 4.0, 601));
  const PathLoss pl(2.0, 3.0, 1e-3);
  GainTable gains;
  gains.bind(metric, pl);
  ASSERT_TRUE(gains.enabled());
  EXPECT_EQ(gains.blocks(), 1u);  // 20 columns < one default tile

  const auto sources = ids({0, 7, 19});
  ASSERT_TRUE(gains.ensure_rows(sources, nullptr));
  for (NodeId u : sources) {
    const double* row = gains.row_block(u, 0);
    ASSERT_NE(row, nullptr);
    for (std::uint32_t v = 0; v < 20; ++v) {
      if (v == u.value) {
        EXPECT_EQ(row[v], 0.0);
        EXPECT_FALSE(std::signbit(row[v]));  // +0.0, not -0.0
        continue;
      }
      EXPECT_EQ(row[v], pl.signal(metric.distance(u, NodeId(v))));
      ASSERT_NE(gains.cell(u, v), nullptr);
      EXPECT_EQ(*gains.cell(u, v), row[v]);
    }
  }
}

TEST(GainTable, ZeroBudgetDisablesTable) {
  EuclideanMetric metric(test::random_points(8, 3.0, 602));
  const PathLoss pl(1.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.budget_bytes = 0});
  gains.bind(metric, pl);
  EXPECT_FALSE(gains.enabled());
  EXPECT_FALSE(gains.ensure_rows(ids({0}), nullptr));
}

TEST(GainTable, EvictsLeastRecentlyEnsuredRows) {
  // n = 8, 4-column tiles → 2 blocks/row; budget for exactly 4 tiles =
  // 2 resident rows.
  EuclideanMetric metric(test::random_points(8, 3.0, 603));
  const PathLoss pl(1.0, 3.0, 1e-3);
  GainTable gains(tiny_tiles(4, 4));
  gains.bind(metric, pl);
  ASSERT_TRUE(gains.enabled());
  EXPECT_EQ(gains.max_tiles(), 4u);

  ASSERT_TRUE(gains.ensure_rows(ids({0, 1}), nullptr));
  EXPECT_NE(gains.row_block(NodeId(0), 0), nullptr);
  EXPECT_NE(gains.row_block(NodeId(1), 1), nullptr);
  EXPECT_EQ(gains.resident_tiles(), 4u);

  // Row 2 displaces row 0 (least recently ensured); row 1 survives.
  ASSERT_TRUE(gains.ensure_rows(ids({1, 2}), nullptr));
  EXPECT_EQ(gains.row_block(NodeId(0), 0), nullptr);
  EXPECT_EQ(gains.row_block(NodeId(0), 1), nullptr);
  EXPECT_NE(gains.row_block(NodeId(1), 0), nullptr);
  EXPECT_NE(gains.row_block(NodeId(2), 0), nullptr);
  EXPECT_EQ(gains.resident_tiles(), 4u);

  // The stats ledger reconstructs the story tile by tile: call one missed
  // and filled 4 tiles; call two hit row 1's pair and evicted row 0's pair
  // to make room for row 2's.
  const GainTable::Stats& stats = gains.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 6u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.fills, 6u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST(GainTable, DemotedRowsAreEvictedFirstAndKeepTheirContents) {
  // n = 8, 4-column tiles → 2 blocks/row; budget for 3 resident rows.
  EuclideanMetric metric(test::random_points(8, 3.0, 616));
  const PathLoss pl(1.0, 3.0, 1e-3);
  GainTable gains(tiny_tiles(4, 6));
  gains.bind(metric, pl);
  gains.demote(NodeId(0));  // nothing allocated yet: a no-op
  for (const std::uint32_t u : {0u, 1u, 2u})
    ASSERT_TRUE(gains.ensure_rows(ids({u}), nullptr));
  EXPECT_EQ(gains.resident_tiles(), 6u);

  // Demoting row 1 moves neither its storage nor its gains.
  std::vector<const double*> row1;
  std::vector<double> row1_gains;
  for (std::size_t b = 0; b < 2; ++b) {
    row1.push_back(gains.row_block(NodeId(1), b));
    row1_gains.insert(row1_gains.end(), row1[b], row1[b] + 4);
  }
  gains.demote(NodeId(1));
  EXPECT_EQ(gains.stats().demotions, 1u);
  for (std::size_t b = 0; b < 2; ++b) {
    ASSERT_EQ(gains.row_block(NodeId(1), b), row1[b]);
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_EQ(row1[b][j], row1_gains[4 * b + j]);
  }

  // Row 3 evicts the demoted row 1, not row 0, the least recently ensured.
  ASSERT_TRUE(gains.ensure_rows(ids({3}), nullptr));
  EXPECT_EQ(gains.row_block(NodeId(1), 0), nullptr);
  EXPECT_EQ(gains.row_block(NodeId(1), 1), nullptr);
  EXPECT_NE(gains.row_block(NodeId(0), 0), nullptr);
  EXPECT_NE(gains.row_block(NodeId(0), 1), nullptr);

  // Rows with no resident tile are no-ops: neither counted nor reordering.
  gains.demote(NodeId(1));
  gains.demote(NodeId(6));
  EXPECT_EQ(gains.stats().demotions, 1u);
  ASSERT_TRUE(gains.ensure_rows(ids({4}), nullptr));
  EXPECT_EQ(gains.row_block(NodeId(0), 0), nullptr);  // plain LRU again
  EXPECT_NE(gains.row_block(NodeId(2), 0), nullptr);

  // A demoted row ensured again is touched back to the front like any row.
  gains.demote(NodeId(2));
  ASSERT_TRUE(gains.ensure_rows(ids({2}), nullptr));
  ASSERT_TRUE(gains.ensure_rows(ids({5}), nullptr));
  EXPECT_NE(gains.row_block(NodeId(2), 0), nullptr);
  EXPECT_EQ(gains.row_block(NodeId(3), 0), nullptr);
  EXPECT_EQ(gains.stats().demotions, 2u);
  EXPECT_EQ(gains.stats().fills, 12u);
  for (const std::uint32_t u : {2u, 4u, 5u})
    for (std::uint32_t v = 0; v < 8; ++v)
      EXPECT_EQ(*gains.cell(NodeId(u), v),
                u == v ? 0.0
                       : pl.signal(metric.distance(NodeId(u), NodeId(v))));
}

TEST(GainTable, OverCommittedEnsureFailsAndLeavesTableConsistent) {
  // Budget of 4 tiles cannot pin 3 rows × 2 tiles at once; ensure_rows must
  // report failure, and a subsequent within-budget call must succeed with
  // exact entries.
  EuclideanMetric metric(test::random_points(8, 3.0, 604));
  const PathLoss pl(1.0, 3.0, 1e-3);
  GainTable gains(tiny_tiles(4, 4));
  gains.bind(metric, pl);

  EXPECT_FALSE(gains.ensure_rows(ids({0, 1, 2}), nullptr));
  ASSERT_TRUE(gains.ensure_rows(ids({3, 4}), nullptr));
  for (std::uint32_t v = 0; v < 8; ++v) {
    if (v == 3) continue;
    ASSERT_NE(gains.cell(NodeId(3), v), nullptr);
    EXPECT_EQ(*gains.cell(NodeId(3), v),
              pl.signal(metric.distance(NodeId(3), NodeId(v))));
  }

  // Call one misses 5 tiles before running out of slots (rows 0-1 pin all
  // four; row 2's first tile records the miss, then the fallback) and fills
  // nothing — queued tiles are rolled back on failure. Call two misses and
  // fills rows 3-4's four tiles, evicting the four residents.
  const GainTable::Stats& stats = gains.stats();
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.misses, 9u);
  EXPECT_EQ(stats.evictions, 4u);
  EXPECT_EQ(stats.fills, 4u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(GainTable, MovesInvalidateByStampAndRefillExactly) {
  EuclideanMetric metric(test::random_points(10, 3.0, 605));
  const PathLoss pl(1.0, 3.0, 1e-3);
  GainTable gains;
  gains.bind(metric, pl);
  ASSERT_TRUE(gains.ensure_rows(ids({2}), nullptr));
  const double before = *gains.cell(NodeId(2), 5);

  metric.set_position(NodeId(5), {9.0, 9.0});
  EXPECT_EQ(gains.row_block(NodeId(2), 0), nullptr);  // stale by stamp
  EXPECT_EQ(gains.cell(NodeId(2), 5), nullptr);

  ASSERT_TRUE(gains.ensure_rows(ids({2}), nullptr));
  const double after = *gains.cell(NodeId(2), 5);
  EXPECT_NE(before, after);
  EXPECT_EQ(after, pl.signal(metric.distance(NodeId(2), NodeId(5))));

  // A resident-but-stale tile is neither a hit nor a miss — it re-enters
  // the fill list without an eviction. The ledger: one miss + fill from the
  // first ensure, one refill after the move.
  const GainTable::Stats& stats = gains.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.fills, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(GainTable, RowPointersStayPutUntilEvictionOrRebind) {
  // n = 16 with 4-column tiles: 4 blocks per row, budget for 8 rows. Rows
  // 1-7 then acquire new slots one row at a time (past 1, 3, 7, 15 and 31
  // resident tiles); row 0's tile addresses must not change until row 8
  // evicts them, and a rebind drops every pointer.
  EuclideanMetric metric(test::random_points(16, 4.0, 614));
  const PathLoss pl(1.0, 3.0, 1e-3);
  GainTable gains(tiny_tiles(4, 32));
  gains.bind(metric, pl);
  ASSERT_TRUE(gains.ensure_rows(ids({0}), nullptr));
  std::vector<const double*> row0;
  for (std::size_t b = 0; b < 4; ++b)
    row0.push_back(gains.row_block(NodeId(0), b));

  const auto expect_row0_intact = [&] {
    for (std::size_t b = 0; b < 4; ++b) {
      ASSERT_EQ(gains.row_block(NodeId(0), b), row0[b]) << "block " << b;
      for (std::size_t j = 0; j < 4; ++j) {
        const auto v = static_cast<std::uint32_t>(4 * b + j);
        EXPECT_EQ(row0[b][j], v == 0 ? 0.0
                                     : pl.signal(metric.distance(NodeId(0),
                                                                 NodeId(v))));
      }
    }
  };
  for (std::uint32_t u = 1; u < 8; ++u) {
    ASSERT_TRUE(gains.ensure_rows(ids({u}), nullptr));
    EXPECT_EQ(gains.resident_tiles(), 4u * (u + 1));
    expect_row0_intact();
  }

  // Plans of resident rows, row 0 among them, move nothing either.
  ASSERT_TRUE(gains.plan_rows(ids({3, 0, 5})));
  gains.fill_planned(0, gains.blocks());
  expect_row0_intact();

  // Row 1 is least recently ensured: row 8 evicts it and keeps row 0.
  ASSERT_NE(gains.row_block(NodeId(1), 0), nullptr);
  ASSERT_TRUE(gains.ensure_rows(ids({8}), nullptr));
  EXPECT_EQ(gains.row_block(NodeId(1), 0), nullptr);
  expect_row0_intact();

  // A stale tile is refilled in place.
  metric.set_position(NodeId(9), {1.0, 3.5});
  ASSERT_TRUE(gains.ensure_rows(ids({0}), nullptr));
  expect_row0_intact();

  gains.bind(metric, pl);
  EXPECT_EQ(gains.resident_tiles(), 0u);
  for (std::size_t b = 0; b < 4; ++b)
    EXPECT_EQ(gains.row_block(NodeId(0), b), nullptr);
  EXPECT_EQ(gains.cell(NodeId(0), 1), nullptr);
}

TEST(GainTable, DeltasBeforeTheFirstPlanKeepPatchesExact) {
  // The table allocates on its first plan_rows, so deltas applied before
  // then have no record to write. Later deltas must still patch exactly.
  EuclideanMetric metric(test::random_points(16, 4.0, 615));
  const PathLoss pl(1.0, 3.0, 1e-3);
  GainTable gains(tiny_tiles(4, 64));
  gains.bind(metric, pl);
  const auto move = [&](std::uint32_t v, Vec2 p) {
    const std::uint64_t prev = metric.version();
    metric.set_position(NodeId(v), p);
    gains.apply_delta(ids({v}), prev, metric.version());
  };
  move(3, {0.5, 0.5});
  EXPECT_EQ(gains.row_block(NodeId(0), 0), nullptr);
  ASSERT_TRUE(gains.ensure_rows(ids({0, 7}), nullptr));
  move(5, {3.5, 0.5});
  move(12, {2.0, 2.0});
  ASSERT_TRUE(gains.ensure_rows(ids({0, 7}), nullptr));
  for (const std::uint32_t u : {0u, 7u})
    for (std::uint32_t v = 0; v < 16; ++v) {
      ASSERT_NE(gains.cell(NodeId(u), v), nullptr);
      EXPECT_EQ(*gains.cell(NodeId(u), v),
                u == v ? 0.0
                       : pl.signal(metric.distance(NodeId(u), NodeId(v))));
    }
  // Each move leaves one stale block per row, patched rather than refilled.
  EXPECT_EQ(gains.stats().fills, 8u + 4u);
  EXPECT_EQ(gains.stats().cells, 8u * 4u + 4u);
}

TEST(GainTable, ParallelFillMatchesSerialFill) {
  EuclideanMetric metric(test::random_points(67, 7.0, 606));
  const PathLoss pl(1.5, 2.8, 1e-3);
  const auto sources = ids({0, 5, 11, 23, 42, 66});

  GainTable serial(GainTable::Config{.tile_cols = 16});
  serial.bind(metric, pl);
  ASSERT_TRUE(serial.ensure_rows(sources, nullptr));

  TaskPool pool(3);
  GainTable parallel(GainTable::Config{.tile_cols = 16});
  parallel.bind(metric, pl);
  ASSERT_TRUE(parallel.ensure_rows(sources, &pool));

  for (NodeId u : sources)
    for (std::uint32_t v = 0; v < 67; ++v) {
      ASSERT_NE(parallel.cell(u, v), nullptr);
      EXPECT_EQ(*serial.cell(u, v), *parallel.cell(u, v));
    }
}

TEST(GainTable, PipelineStaysExactBeyondLegacyNodeCliff) {
  // n = 4100 exceeds the old gain_cache_max_nodes = 4096 cliff: the tiled
  // table must stay active (two blocks per row) and resolve_into must match
  // the brute-force reference bit-for-bit.
  const std::size_t n = 4100;
  Scenario scenario(test::random_points(n, 22.0, 607),
                    test::default_config());
  const Channel& channel = scenario.channel();
  const Network& network = scenario.network();

  SlotWorkspace ws;
  Rng rng(608);
  for (int trial = 0; trial < 2; ++trial) {
    const auto txs = test::sample_transmitters(network, rng, 0.03);
    ASSERT_TRUE(test::resolves_exactly(channel, network, txs, ws))
        << "trial " << trial;
  }
  // The table really was active: two blocks per row, tiles resident.
  GainTable* gains = ws.cache().gains();
  ASSERT_NE(gains, nullptr);
  EXPECT_EQ(gains->blocks(), 2u);
  EXPECT_GT(gains->resident_tiles(), 0u);
}

TEST(GainTable, PipelineFallsBackExactlyWhenBudgetTooSmall) {
  // A budget far below one row of tiles keeps the table disabled at this n;
  // resolve_into silently uses the uncached kernel and must still match.
  const std::size_t n = 4100;
  Scenario scenario(test::random_points(n, 22.0, 609),
                    test::default_config());
  const Channel& channel = scenario.channel();
  const Network& network = scenario.network();

  SlotWorkspace ws({.gain_budget_bytes = 1024});
  Rng rng(610);
  const auto txs = test::sample_transmitters(network, rng, 0.02);
  EXPECT_TRUE(test::resolves_exactly(channel, network, txs, ws));
  EXPECT_EQ(ws.cache().gains(), nullptr);  // disabled at this budget
}

TEST(GainTable, SubRowBudgetCountsDisabledBindsAndWarnsOnce) {
  // Nonzero budget that cannot hold one row of tiles: bind leaves caching
  // off, bumps the disabled_binds stat every time, and prints its stderr
  // note exactly once per table (zero budget stays silent — it is a
  // deliberate off switch, covered above).
  EuclideanMetric metric(test::random_points(67, 7.0, 611));
  const PathLoss pl(1.0, 3.0, 1e-3);
  GainTable gains(tiny_tiles(16, 4));  // 4 resident tiles < 5 blocks per row

  ::testing::internal::CaptureStderr();
  gains.bind(metric, pl);
  const std::string first = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(first.find("gain caching disabled"), std::string::npos);
  EXPECT_FALSE(gains.enabled());
  EXPECT_EQ(gains.stats().disabled_binds, 1u);
  EXPECT_FALSE(gains.ensure_rows(ids({0, 1}), nullptr));
  EXPECT_EQ(gains.row_block(NodeId(0), 0), nullptr);

  ::testing::internal::CaptureStderr();
  gains.bind(metric, pl);  // same table: counted again, not re-warned
  EXPECT_TRUE(::testing::internal::GetCapturedStderr().empty());
  EXPECT_EQ(gains.stats().disabled_binds, 2u);

  // Zero budget is silent and uncounted.
  GainTable off(GainTable::Config{.budget_bytes = 0});
  ::testing::internal::CaptureStderr();
  off.bind(metric, pl);
  EXPECT_TRUE(::testing::internal::GetCapturedStderr().empty());
  EXPECT_EQ(off.stats().disabled_binds, 0u);
}

TEST(GainTable, SubRowBudgetPipelineStaysExact) {
  // End to end: a workspace whose budget holds tiles but never a whole row
  // runs the uncached kernel and still matches the reference bit for bit.
  Scenario scenario(test::random_points(67, 7.0, 612),
                    test::default_config());
  const Channel& channel = scenario.channel();
  const Network& network = scenario.network();
  // 4 threads make 16-column tiles at n = 67: 5 blocks per row.
  SlotWorkspace ws({.gain_budget_bytes = 4 * 16 * 8, .threads = 4});
  Rng rng(613);
  for (int trial = 0; trial < 4; ++trial) {
    const auto txs = test::sample_transmitters(network, rng, 0.2);
    ASSERT_TRUE(test::resolves_exactly(channel, network, txs, ws))
        << "trial " << trial;
  }
  EXPECT_EQ(ws.cache().gains(), nullptr);  // n = 67 needs 5 blocks, holds 4
  EXPECT_GE(ws.cache().gains_storage().stats().disabled_binds, 1u);
}

}  // namespace
}  // namespace udwn
