// Epoch-invalidated topology caches for the slot pipeline.
//
// Channel::resolve re-derives three quantities that are pure functions of
// the (metric, alive-mask) topology: alive neighborhoods N(u), pairwise
// gains pathloss.signal(metric.distance(u, v)), and (for Euclidean
// instances) range-query candidate sets. Under the paper's dynamics these
// change only when Dynamics toggles an alive flag or moves a point — both
// of which bump an epoch (Network::topology_epoch, QuasiMetric::version) —
// so between changes every slot can reuse the previous derivation.
//
// TopologyCache holds those derivations with per-entry epoch stamps:
//   * neighbor lists   — per node, stamped with the caller-supplied
//                        topology epoch (covers alive churn AND moves);
//   * a GainTable      — tiled LRU cache of unscaled per-source gain rows,
//                        stamped with the metric version only (gains ignore
//                        the alive mask); see gain_table.h;
//   * a SpatialGrid    — over *all* points of a EuclideanMetric (callers
//                        filter dead ids), rebuilt per metric version.
//
// Everything is recomputed lazily on first use after an epoch bump, so a
// mobility workload that moves every node each round pays no more than the
// brute-force sweep, while static/churn-only workloads amortize to O(1) per
// query. Cached values are produced by the exact same expressions as the
// brute-force paths (same doubles in, same libm calls), which is what makes
// the cached pipeline bit-for-bit identical to Channel::resolve — the
// determinism audit enforces this, tests/test_slot_pipeline.cpp proves it
// property-style.
//
// The grid is attached to every EuclideanMetric instance and to nothing
// else: grid queries are symmetric Euclidean balls, and a general
// quasi-metric (MatrixMetric) may be asymmetric, so pruning with a grid
// would be unsound there. Non-Euclidean metrics run the same cache without
// a grid (brute-force neighbor sweeps, dirty-set-only delta freshening).
// With a grid a stale neighbor list costs one ball query to refill, so a
// Euclidean delta freshens no lists at all; apply_delta explains why.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/contract.h"
#include "common/parallel.h"
#include "common/types.h"
#include "metric/dirty_log.h"
#include "metric/euclidean.h"
#include "metric/quasi_metric.h"
#include "phy/gain_table.h"
#include "phy/pathloss.h"
#include "phy/spatial_grid.h"

namespace udwn {

class TopologyCache {
 public:
  struct Config {
    /// Memory bound for the tiled gain table (see gain_table.h); 0 disables
    /// gain caching entirely. Replaces the old hard n <= 4096 cliff: any
    /// instance size gets LRU-cached gain rows within this budget.
    std::size_t gain_budget_bytes = std::size_t{128} << 20;
    /// Threads of the field driver; the gain table's tile width is worked
    /// out from it at bind (gain_tile_width).
    int threads = 1;
  };

  TopologyCache() : TopologyCache(Config{}) {}
  explicit TopologyCache(Config config);

  /// Bind to a topology and refresh bookkeeping. Cheap when nothing
  /// changed; called once per slot. `comm_radius` is the neighborhood
  /// radius (1-ε)R, `grid_cell` the grid cell size (typically R), `epoch`
  /// the Network::topology_epoch() covering alive churn and moves.
  void sync(const QuasiMetric& metric, const PathLoss& pathloss,
            double comm_radius, double grid_cell,
            std::span<const std::uint8_t> alive, std::uint64_t epoch);

  /// Alive neighbors of u: identical contents and (ascending id) order to
  /// Channel::neighbors(u, alive). Valid until the next sync/mutation. A
  /// stale list is refilled through `scratch` (previous contents ignored)
  /// and copied into u's list, so a first fill allocates it at its exact
  /// size. Once grid() is current, a refill reads shared state and writes
  /// only u's entries, so callers with their own scratch may read the lists
  /// of distinct nodes concurrently.
  [[nodiscard]] std::span<const NodeId> neighbors(
      NodeId u, std::vector<NodeId>& scratch);

  /// Delta invalidation (the fast path the epoch mechanism falls back
  /// from): given the per-round TopologyDelta connecting the epoch this
  /// cache was last synced at to the current one, record the moved columns
  /// in the gain table (only tiles that touch a mover get patched) and
  /// carry what is cheaper to carry than to rebuild. On a Euclidean metric
  /// that is the SpatialGrid, moved in O(|moved|) instead of rebuilt;
  /// neighbor lists are left to go stale and refill on their next read
  /// with one grid query, since only a slot's few transmitters read them.
  /// On a non-Euclidean metric a refill is an O(n) sweep, so the lists of
  /// nodes outside the dirty set are restamped fresh instead (not after
  /// alive toggles, whose reach is unbounded without geometry). Purely a
  /// *freshening* optimization: it never marks anything stale (staleness
  /// falls out of the ordinary stamp comparisons), so skipping the call —
  /// coarse deltas, epoch mismatch after missed rounds, pending rebind —
  /// degrades to the bit-identical epoch path. Call between the round's
  /// topology mutations and its first sync().
  UDWN_HOT void apply_delta(const TopologyDelta& delta);

  /// Node u stopped transmitting (its Data-slot probability dropped to 0,
  /// or it departed): its gain rows are evicted before every other row.
  /// Residency only — no gain, stamp or pointer changes (see
  /// GainTable::demote); a no-op while nothing is cached.
  void demote(NodeId u) { gains_.demote(u); }

  /// The tiled gain table bound to this topology, or nullptr when gain
  /// caching is disabled (zero budget, or budget below one row of tiles).
  /// Callers plan_rows() the slot's transmitters and fill them, then read
  /// row blocks / cells; entries are bit-identical to the uncached
  /// expressions (self entries stored as +0.0 — see gain_table.h).
  [[nodiscard]] GainTable* gains() {
    return gains_.enabled() ? &gains_ : nullptr;
  }

  /// The gain table regardless of enablement — stats publication and tests
  /// need it exactly when gains() is null (e.g. the disabled_binds counter
  /// that records a budget too small for even one row of tiles).
  [[nodiscard]] const GainTable& gains_storage() const { return gains_; }

  /// Spatial grid over all points, or nullptr when the metric is not
  /// Euclidean. Membership pruning only — interference stays exact.
  [[nodiscard]] const SpatialGrid* grid();

  /// The bound Euclidean metric, or nullptr when the metric is not
  /// Euclidean (asymmetric/graph instances must not be grid-pruned).
  [[nodiscard]] const EuclideanMetric* euclidean() const { return euclid_; }

 private:
  void fill_neighbors(std::uint32_t u, std::vector<NodeId>& scratch);

  const QuasiMetric* metric_ = nullptr;
  const PathLoss* pathloss_ = nullptr;
  const EuclideanMetric* euclid_ = nullptr;
  std::span<const std::uint8_t> alive_;
  double comm_radius_ = 0;
  double grid_cell_ = 0;
  std::uint64_t epoch_ = 0;

  // Per-node alive neighborhoods; stamp == epoch_ marks a fresh entry.
  std::vector<std::vector<NodeId>> neighbor_lists_;
  std::vector<std::uint64_t> neighbor_stamp_;
  // apply_delta scratch for non-Euclidean metrics, sized at sync.
  std::vector<std::uint8_t> affected_;

  // Tiled LRU gain table (freshness tracked internally per tile).
  GainTable gains_;

  std::optional<SpatialGrid> grid_;
  std::uint64_t grid_stamp_ = 0;  // metric version + 1
};

}  // namespace udwn
