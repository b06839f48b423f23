// Property tests for the gain-table interference kernels: for every metric
// family, path-loss configuration, thread count and transmitter set, the
// SoA kernel, the planned field driver and the uncached brute-force kernel
// must produce bit-for-bit identical fields (exact ==, never NEAR) — the
// contract docs/ENGINE.md states and the determinism audit relies on. The
// shared column
// accumulator is checked on its own against a row-at-a-time sum over
// ragged column windows.
#include "phy/interference.h"

#include <gtest/gtest.h>

#include "metric/euclidean.h"
#include "metric/matrix_metric.h"
#include "phy/gain_table.h"
#include "tests/helpers.h"

namespace udwn {
namespace {

std::vector<NodeId> take_transmitters(std::size_t n, std::size_t count,
                                      std::uint64_t seed) {
  // A deterministic pseudo-random subset of `count` distinct ids.
  std::vector<NodeId> all;
  all.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) all.emplace_back(v);
  Rng rng(seed);
  for (std::size_t i = 0; i + 1 < all.size(); ++i) {
    const std::size_t j = i + rng.below(all.size() - i);
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  return all;
}

TEST(InterferenceSoa, AccumulateColumnsMatchesRowOrderOnRaggedWindows) {
  // Synthetic rows with full-entropy doubles: any reassociation, a lost
  // remainder row or a mishandled window edge shows up as a last-bit
  // mismatch against the plain row-at-a-time sum somewhere in this sweep.
  constexpr std::size_t kCols = 37;  // not a multiple of any lane width
  Rng rng(2024);
  std::vector<std::vector<double>> storage;
  std::vector<const double*> rows;
  for (std::size_t i = 0; i < 9; ++i) {
    std::vector<double> row(kCols);
    for (double& x : row) x = rng.uniform() * 1e3 + 1e-9;
    storage.push_back(std::move(row));
  }
  for (const auto& row : storage) rows.push_back(row.data());

  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{4}, std::size_t{5}, std::size_t{8},
                            std::size_t{9}}) {
    for (std::size_t jlo : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
      for (std::size_t jhi : {jlo, jlo + 1, jlo + 5, kCols}) {
        std::vector<double> want(kCols, 0.5);
        for (std::size_t i = 0; i < count; ++i)
          for (std::size_t j = jlo; j < jhi; ++j) want[j] += rows[i][j];
        std::vector<double> got(kCols, 0.5);
        accumulate_columns(rows.data(), 1, count, got.data(), jlo, jhi);
        for (std::size_t j = 0; j < kCols; ++j)
          EXPECT_EQ(want[j], got[j])
              << "count=" << count << " window=[" << jlo << "," << jhi
              << ") col " << j;
      }
    }
  }
}

void expect_kernels_identical(const QuasiMetric& metric,
                              const PathLoss& pathloss,
                              GainTable::Config table_config,
                              const char* context) {
  const std::size_t n = metric.size();
  GainTable gains(table_config);
  gains.bind(metric, pathloss);
  ASSERT_TRUE(gains.enabled()) << context;

  std::vector<double> reference;
  std::vector<double> soa_field;
  std::vector<const double*> row_scratch;

  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                            n / 2, n}) {
    const auto txs = take_transmitters(n, count, 4242 + count);
    ASSERT_TRUE(gains.ensure_rows(txs, nullptr)) << context;
    interference_field_into(metric, pathloss, txs, reference, nullptr);
    for (int threads : {1, 2, 3}) {
      TaskPool pool(threads);
      TaskPool* pool_arg = threads > 1 ? &pool : nullptr;
      interference_field_soa(gains, txs, row_scratch, soa_field, pool_arg);
      ASSERT_EQ(reference.size(), soa_field.size());
      for (std::size_t v = 0; v < n; ++v) {
        EXPECT_EQ(reference[v], soa_field[v])
            << context << " txs=" << count << " threads=" << threads
            << " node " << v;
      }
    }
  }
}

TEST(InterferenceSoa, MatchesBruteForceOnEuclidean) {
  EuclideanMetric metric(test::random_points(67, 7.0, 501));
  for (const PathLoss& pl :
       {PathLoss(1.0, 3.0, 1e-3), PathLoss(8.0, 2.5, 1e-3),
        PathLoss(2.0, 4.0, 0.05)}) {
    expect_kernels_identical(metric, pl, GainTable::Config{}, "euclidean");
  }
}

TEST(InterferenceSoa, MatchesBruteForceOnAsymmetricMatrixMetric) {
  Rng rng(77);
  const MatrixMetric metric = MatrixMetric::random(61, 0.5, 4.0, 0.4, rng);
  for (const PathLoss& pl :
       {PathLoss(1.0, 3.0, 1e-3), PathLoss(3.0, 2.2, 1e-3)}) {
    expect_kernels_identical(metric, pl, GainTable::Config{}, "matrix");
  }
}

TEST(InterferenceSoa, MatchesBruteForceAcrossTileBlocks) {
  // 16-column tiles at n = 67: five blocks per row, the last ragged (3
  // columns) — exercises the kernel's block-intersection arithmetic.
  EuclideanMetric metric(test::random_points(67, 7.0, 502));
  const PathLoss pl(1.0, 3.0, 1e-3);
  expect_kernels_identical(metric, pl, GainTable::Config{.tile_cols = 16},
                           "tiled");
}

TEST(InterferenceSoa, MatchesBruteForceUnderLruPressure) {
  // Budget for 40 tiles vs 5 blocks/row at n = 67: full-set ensure_rows
  // calls fail (fallback exercised elsewhere); per-call sets of 7 rows fit
  // only by evicting earlier rows. Results must stay exact throughout.
  EuclideanMetric metric(test::random_points(67, 7.0, 503));
  const PathLoss pl(1.0, 3.0, 1e-3);
  GainTable gains(
      GainTable::Config{.tile_cols = 16, .budget_bytes = 40 * 16 * 8});
  gains.bind(metric, pl);
  ASSERT_TRUE(gains.enabled());

  std::vector<double> reference;
  std::vector<double> soa_field;
  std::vector<const double*> row_scratch;
  for (int round = 0; round < 12; ++round) {
    const auto txs = take_transmitters(67, 7, 900 + round);
    ASSERT_TRUE(gains.ensure_rows(txs, nullptr));
    EXPECT_LE(gains.resident_tiles(), gains.max_tiles());
    interference_field_into(metric, pl, txs, reference, nullptr);
    interference_field_soa(gains, txs, row_scratch, soa_field, nullptr);
    for (std::size_t v = 0; v < 67; ++v)
      EXPECT_EQ(reference[v], soa_field[v]) << "round " << round;
  }
}

TEST(InterferenceSoa, PlannedDriverMatchesBruteForceAcrossBlocks) {
  // The slot pipeline's field driver on 16-column tiles at n = 67: five
  // blocks per row, the last ragged. Without a pool its body runs inline
  // over every block (fill, then accumulate); with one, per block chunk.
  // Repeated sets find their tiles resident, new ones fill them; every
  // field must equal the uncached kernel bit for bit.
  EuclideanMetric metric(test::random_points(67, 7.0, 504));
  const PathLoss pl(1.0, 3.0, 1e-3);
  TaskPool pool(3);
  for (TaskPool* pool_arg : {static_cast<TaskPool*>(nullptr), &pool}) {
    GainTable gains(GainTable::Config{.tile_cols = 16});
    gains.bind(metric, pl);
    ASSERT_EQ(gains.blocks(), 5u);
    std::vector<double> reference;
    std::vector<double> field;
    std::vector<const double*> row_scratch;
    for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                              std::size_t{33}, std::size_t{67}}) {
      const auto txs = take_transmitters(67, count, 5150 + count);
      interference_field_into(metric, pl, txs, reference, nullptr);
      for (int pass = 0; pass < 2; ++pass) {
        ASSERT_TRUE(gains.plan_rows(txs));
        interference_field_planned(gains, txs, row_scratch, field, pool_arg);
        ASSERT_EQ(reference.size(), field.size());
        for (std::size_t v = 0; v < 67; ++v)
          EXPECT_EQ(reference[v], field[v])
              << "txs=" << count << " pass " << pass << " pool "
              << (pool_arg != nullptr) << " node " << v;
      }
    }
  }
}

}  // namespace
}  // namespace udwn
