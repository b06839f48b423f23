#include "phy/topology_cache.h"

#include <algorithm>

#include "common/contract.h"

namespace udwn {

namespace {
// Grid queries use squared distances while the metric compares rounded
// sqrt values; inflating the query radius by a hair guarantees the grid
// candidate set is a superset of every metric-exact ball, after which the
// exact metric predicate re-filters. 1e-9 is ~1e7 ulps — far beyond any
// sqrt/pow rounding — while loose enough not to drag in extra cells.
constexpr double kGridInflation = 1.0 + 1e-9;
}  // namespace

TopologyCache::TopologyCache(Config config)
    : gains_(GainTable::Config{.budget_bytes = config.gain_budget_bytes,
                               .threads = config.threads}) {}

void TopologyCache::sync(const QuasiMetric& metric, const PathLoss& pathloss,
                         double comm_radius, double grid_cell,
                         std::span<const std::uint8_t> alive,
                         std::uint64_t epoch) {
  UDWN_EXPECT(alive.size() == metric.size());
  UDWN_EXPECT(comm_radius > 0 && grid_cell > 0);
  const std::size_t n = metric.size();
  const bool rebind = metric_ != &metric || pathloss_ != &pathloss ||
                      neighbor_stamp_.size() != n;
  metric_ = &metric;
  pathloss_ = &pathloss;
  alive_ = alive;
  comm_radius_ = comm_radius;
  grid_cell_ = grid_cell;
  UDWN_EXPECT(epoch >= epoch_ || rebind);
  epoch_ = epoch;
  if (!rebind) return;

  euclid_ = dynamic_cast<const EuclideanMetric*>(&metric);
  neighbor_lists_.resize(n);
  neighbor_stamp_.assign(n, 0);
  affected_.assign(n, 0);  // udwn-lint: allow(hot-path-alloc): rebind-only
  // branch — sized once per topology bind, steady-state syncs return above.
  grid_.reset();
  grid_stamp_ = 0;
  gains_.bind(metric, pathloss);
}

void TopologyCache::apply_delta(const TopologyDelta& delta) {
  if (metric_ == nullptr) return;    // never synced: nothing cached yet
  if (delta.empty()) return;         // quiet round: every stamp stays fresh
  if (delta.coarse) return;          // not localizable: epoch path
  // The delta freshens prev_epoch-stamped state only; if this cache was
  // last synced anywhere else (engine just constructed, rounds skipped,
  // size changed → rebind pending) there is nothing it can prove fresh.
  if (epoch_ != delta.prev_epoch) return;
  if (metric_->size() != neighbor_stamp_.size()) return;
  UDWN_ASSERT(metric_->version() == delta.metric_version);

  // Gains ignore the alive mask: only metric-dirty nodes matter, and the
  // table's own row/column-tile granularity does the rest.
  if (delta.metric_version != delta.prev_metric_version)
    gains_.apply_delta(delta.moved, delta.prev_metric_version,
                       delta.metric_version);

  // Neighbor lists. On a Euclidean metric the delta only moves the grid:
  // a list refills with one grid ball query on its next neighbors() read,
  // and only transmitters read lists, a few per slot. Proving lists fresh
  // would cost two ball queries per mover plus O(n) marking and restamping
  // every round, more than the refills it saves, so every list stamped at
  // prev_epoch simply goes stale.
  if (euclid_ != nullptr) {
    if (grid_stamp_ != delta.prev_metric_version + 1) return;
    for (const NodeId v : delta.moved) grid_->move(v, euclid_->position(v));
    grid_stamp_ = delta.metric_version + 1;
    return;
  }
  // Without geometry a refill is an O(n) sweep, so freshening pays here.
  // A list of node u computed at prev_epoch is still exact at delta.epoch
  // unless u's ball could have gained or lost a member. The dirty-set
  // contract (dirty_log.h) guarantees both endpoints of every changed pair
  // are dirty, so the affected rows are exactly the dirty nodes; alive
  // toggles, however, perturb every row within unknown (metric) range of
  // the toggled node, which nothing can bound without geometry — then we
  // freshen nothing and let the epoch path refill lazily.
  if (!delta.alive_toggled.empty()) return;
  std::fill(affected_.begin(), affected_.end(), 0);
  for (const NodeId v : delta.moved) {
    UDWN_ASSERT(v.value < affected_.size());
    affected_[v.value] = 1;
  }
  // Everything fresh at prev_epoch and unaffected is fresh at delta.epoch.
  for (std::size_t u = 0; u < neighbor_stamp_.size(); ++u)
    if (neighbor_stamp_[u] == delta.prev_epoch && !affected_[u])
      neighbor_stamp_[u] = delta.epoch;
}

const SpatialGrid* TopologyCache::grid() {
  if (euclid_ == nullptr) return nullptr;
  const std::uint64_t stamp = metric_->version() + 1;
  if (grid_stamp_ != stamp) {
    grid_.emplace(euclid_->positions(), grid_cell_);
    grid_stamp_ = stamp;
  }
  return &*grid_;
}

void TopologyCache::fill_neighbors(std::uint32_t u,
                                   std::vector<NodeId>& scratch) {
  scratch.clear();
  const NodeId id(u);
  const double rb = comm_radius_;
  if (const SpatialGrid* g = grid(); g != nullptr) {
    // Grid pruning, then the exact brute-force predicate; sorting restores
    // the ascending-id order Channel::neighbors produces.
    g->for_each_within(euclid_->position(id), rb * kGridInflation,
                       [&](NodeId v) {
                         if (v == id || !alive_[v.value]) return;
                         if (metric_->distance(id, v) <= rb)
                           scratch.push_back(v);
                       });
    std::sort(scratch.begin(), scratch.end());
  } else {
    for (std::size_t v = 0; v < metric_->size(); ++v) {
      const NodeId other(static_cast<std::uint32_t>(v));
      if (other == id || !alive_[v]) continue;
      if (metric_->distance(id, other) <= rb) scratch.push_back(other);
    }
  }
  // Built in the scratch and copied once, a first fill allocates the list
  // at its exact size instead of growing it.
  neighbor_lists_[u].assign(  // udwn-lint: allow(hot-path-alloc): first
                              // fill or a grown neighbourhood only
      scratch.begin(), scratch.end());
  neighbor_stamp_[u] = epoch_;
}

std::span<const NodeId> TopologyCache::neighbors(NodeId u,
                                                 std::vector<NodeId>& scratch) {
  UDWN_EXPECT(metric_ != nullptr);
  UDWN_EXPECT(u.value < neighbor_stamp_.size());
  if (neighbor_stamp_[u.value] != epoch_) fill_neighbors(u.value, scratch);
  return neighbor_lists_[u.value];
}

}  // namespace udwn
