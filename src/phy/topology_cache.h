// Version-stamped topology caches for the slot pipeline.
//
// Channel::resolve re-derives three quantities that are pure functions of
// the metric: neighborhoods (every node within the communication radius),
// pairwise gains pathloss.signal(metric.distance(u, v)), and (for
// Euclidean instances) range-query candidate sets. Under the paper's
// dynamics these change only when a point moves, which bumps
// QuasiMetric::version(); arrivals and departures toggle alive flags, which
// no cached value depends on: neighbor lists hold dead and alive nodes
// alike, and their one reader (the mass-delivery loop of
// Channel::resolve_into) skips the dead. So between moves every slot can
// reuse the previous derivation.
//
// TopologyCache holds those derivations, each stamped with the metric
// version it was computed at (plus one, so a zero stamp is always stale):
//   * neighbor lists   — per node;
//   * a GainTable      — tiled LRU cache of unscaled per-source gain rows,
//                        freshness tracked per tile; see gain_table.h;
//   * a SpatialGrid    — over *all* points of a EuclideanMetric (callers
//                        filter dead ids).
//
// Freshness has one key, the metric version, and one module that decides
// it. sync() remembers the version it last synced at; when version() has
// moved since, it reads the metric's DirtyLog window between the two once
// and carries forward what the window proves unchanged (see sync). Reading
// the log consumes nothing, so any number of caches over one metric each
// catch up on their own. Whatever the window cannot vouch for goes stale
// and is recomputed lazily on first use, so a mobility workload that moves
// every node each round pays no more than the brute-force sweep, while
// static and churn-only workloads amortize to O(1) per query. Cached values
// are produced by the exact same expressions as the brute-force paths
// (same doubles in, same arithmetic), which is what makes the cached
// pipeline bit-for-bit identical to Channel::resolve — the determinism
// audit enforces this, tests/test_slot_pipeline.cpp proves it
// property-style.
//
// The grid is attached to every EuclideanMetric instance and to nothing
// else: grid queries are symmetric Euclidean balls, and a general
// quasi-metric (MatrixMetric) may be asymmetric, so pruning with a grid
// would be unsound there. Non-Euclidean metrics run the same cache without
// a grid (brute-force neighbor sweeps, dirty-set-only list freshening).
// With a grid a stale neighbor list costs one ball query to refill, so a
// Euclidean window freshens no lists at all; sync explains why.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/contract.h"
#include "common/parallel.h"
#include "common/types.h"
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

  /// Bind to a topology and bring the cache up to the metric's current
  /// version. Cheap when nothing moved; called once per slot. `comm_radius`
  /// is the neighborhood radius (1-ε)R, `grid_cell` the grid cell size
  /// (typically R).
  ///
  /// When version() moved since the last sync, the DirtyLog window between
  /// the two is read once. If it is localizable, the cache carries forward
  /// what it proves unchanged: the gain table records the moved columns
  /// (only tiles that touch a mover go stale), and on a Euclidean metric the
  /// SpatialGrid moves its movers in O(|moved|) instead of a rebuild, if it
  /// was current at the last sync. Neighbor lists there go stale and refill
  /// on their next read with one grid query, since only a slot's few
  /// transmitters read them. On a non-Euclidean metric a refill is an O(n)
  /// sweep, so the lists of nodes outside the dirty set are restamped fresh
  /// instead. Purely a *freshening* step: it never marks anything stale
  /// (staleness falls out of the ordinary stamp comparisons), so a window
  /// it cannot read (coarse change, lost history, rebind) degrades to the
  /// bit-identical lazy path.
  void sync(const QuasiMetric& metric, const PathLoss& pathloss,
            double comm_radius, double grid_cell);

  /// Every node other than u within comm_radius of u, dead or alive, in
  /// ascending id order: Channel::neighbors(u, alive) is exactly this list
  /// filtered by `alive`. Valid until the next sync/mutation. A stale list
  /// is refilled through `scratch` (previous contents ignored) and copied
  /// into u's list, so a first fill allocates it at its exact size. Once
  /// grid() is current, a refill reads shared state and writes only u's
  /// entries, so callers with their own scratch may read the lists of
  /// distinct nodes concurrently.
  [[nodiscard]] std::span<const NodeId> neighbors(
      NodeId u, std::vector<NodeId>& scratch);

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
  double comm_radius_ = 0;
  double grid_cell_ = 0;
  std::uint64_t version_ = 0;  // metric version at the last sync

  // Per-node neighborhoods; stamp == metric version + 1 marks a fresh entry.
  std::vector<std::vector<NodeId>> neighbor_lists_;
  std::vector<std::uint64_t> neighbor_stamp_;
  // sync scratch: the window's movers (sorted, unique) and, on
  // non-Euclidean metrics, their flags (sized at bind).
  std::vector<NodeId> moved_;
  std::vector<std::uint8_t> affected_;

  // Tiled LRU gain table (freshness tracked internally per tile).
  GainTable gains_;

  std::optional<SpatialGrid> grid_;
  std::uint64_t grid_stamp_ = 0;  // metric version + 1
};

}  // namespace udwn
