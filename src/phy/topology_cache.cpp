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
                         double comm_radius, double grid_cell) {
  UDWN_EXPECT(comm_radius > 0 && grid_cell > 0);
  const std::size_t n = metric.size();
  const bool rebind = metric_ != &metric || pathloss_ != &pathloss ||
                      neighbor_stamp_.size() != n;
  metric_ = &metric;
  pathloss_ = &pathloss;
  comm_radius_ = comm_radius;
  grid_cell_ = grid_cell;
  const std::uint64_t last = version_;
  const std::uint64_t now = metric.version();
  version_ = now;
  if (rebind) {
    euclid_ = dynamic_cast<const EuclideanMetric*>(&metric);
    neighbor_lists_.resize(n);
    neighbor_stamp_.assign(n, 0);
    affected_.assign(n, 0);  // udwn-lint: allow(hot-path-alloc): rebind-only
    // branch — sized once per topology bind, steady-state syncs skip it.
    grid_.reset();
    grid_stamp_ = 0;
    gains_.bind(metric, pathloss);
    return;
  }
  UDWN_ASSERT(now >= last);
  if (now == last) return;  // nothing moved: every stamp stays fresh

  // Read what moved in (last, now]. A window that is not localizable
  // (coarse change, lost history) freshens nothing: stamps go stale.
  // moved_ grows to the largest window seen, then is reused.
  moved_.clear();
  if (!metric.dirty_log().collect(last, now, moved_)) return;
  std::sort(moved_.begin(), moved_.end());
  moved_.erase(std::unique(moved_.begin(), moved_.end()), moved_.end());

  // Gain tiles that avoid every mover's row and column stay fresh.
  gains_.apply_delta(moved_, last, now);

  // Neighbor lists. On a Euclidean metric the window only moves the grid:
  // a list refills with one grid ball query on its next neighbors() read,
  // and only transmitters read lists, a few per slot. Proving lists fresh
  // would cost two ball queries per mover plus O(n) marking and restamping
  // every round, more than the refills it saves, so every list stamped at
  // `last` simply goes stale.
  if (euclid_ != nullptr) {
    if (grid_stamp_ != last + 1) return;
    for (const NodeId v : moved_) grid_->move(v, euclid_->position(v));
    grid_stamp_ = now + 1;
    return;
  }
  // Without geometry a refill is an O(n) sweep, so freshening pays here.
  // A list of node u computed at `last` is still exact at `now` unless u's
  // ball could have gained or lost a member. The dirty-set contract
  // (dirty_log.h) guarantees both endpoints of every changed pair are
  // dirty, so the affected rows are exactly the dirty nodes. Alive toggles
  // affect no list: lists hold dead and alive nodes alike.
  std::fill(affected_.begin(), affected_.end(), 0);
  for (const NodeId v : moved_) {
    UDWN_ASSERT(v.value < affected_.size());
    affected_[v.value] = 1;
  }
  for (std::size_t u = 0; u < neighbor_stamp_.size(); ++u)
    if (neighbor_stamp_[u] == last + 1 && !affected_[u])
      neighbor_stamp_[u] = now + 1;
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
                         if (v == id) return;
                         if (metric_->distance(id, v) <= rb)
                           scratch.push_back(v);
                       });
    std::sort(scratch.begin(), scratch.end());
  } else {
    for (std::size_t v = 0; v < metric_->size(); ++v) {
      const NodeId other(static_cast<std::uint32_t>(v));
      if (other == id) continue;
      if (metric_->distance(id, other) <= rb) scratch.push_back(other);
    }
  }
  // Built in the scratch and copied once, a first fill allocates the list
  // at its exact size instead of growing it.
  neighbor_lists_[u].assign(  // udwn-lint: allow(hot-path-alloc): first
                              // fill or a grown neighbourhood only
      scratch.begin(), scratch.end());
  neighbor_stamp_[u] = metric_->version() + 1;
}

std::span<const NodeId> TopologyCache::neighbors(NodeId u,
                                                 std::vector<NodeId>& scratch) {
  UDWN_EXPECT(metric_ != nullptr);
  UDWN_EXPECT(u.value < neighbor_stamp_.size());
  if (neighbor_stamp_[u.value] != metric_->version() + 1)
    fill_neighbors(u.value, scratch);
  return neighbor_lists_[u.value];
}

}  // namespace udwn
