#include "sim/dynamics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>

#include "common/contract.h"

namespace udwn {

ChurnDynamics::ChurnDynamics(Config config) : config_(std::move(config)) {
  UDWN_EXPECT(config_.arrival_rate >= 0);
  UDWN_EXPECT(config_.departure_rate >= 0);
  // Sorted and deduplicated, so a sweep in id order can skip pinned ids
  // with one cursor.
  std::sort(config_.pinned.begin(), config_.pinned.end());
  config_.pinned.erase(
      std::unique(config_.pinned.begin(), config_.pinned.end()),
      config_.pinned.end());
}

// The victim and reborn picks below are count-then-select over the alive
// mask: the k-th candidate in ascending id order, k = rng.below(count) —
// the same draw and the same node as indexing a vector of the candidates,
// without building one (or calling Network::alive per node) every round.

ChangeSet ChurnDynamics::step(Network& network, Rng& rng, Round /*round*/) {
  ChangeSet changes;
  const std::span<const std::uint8_t> alive = network.alive_mask();
  const std::vector<NodeId>& pinned = config_.pinned;

  departure_credit_ += config_.departure_rate;
  while (departure_credit_ >= 1) {
    departure_credit_ -= 1;
    std::size_t live_pinned = 0;
    for (const NodeId p : pinned)
      live_pinned += p.value < alive.size() && alive[p.value];
    const std::size_t count = network.alive_count() - live_pinned;
    if (count == 0) break;
    std::size_t k = rng.below(count);
    auto pin = pinned.begin();
    std::uint32_t victim = 0;
    for (;; ++victim) {
      if (!alive[victim]) continue;
      while (pin != pinned.end() && pin->value < victim) ++pin;
      if (pin != pinned.end() && pin->value == victim) continue;
      if (k-- == 0) break;
    }
    network.set_alive(NodeId(victim), false);
    changes.departures.push_back(NodeId(victim));
  }

  arrival_credit_ += config_.arrival_rate;
  while (arrival_credit_ >= 1) {
    arrival_credit_ -= 1;
    const std::size_t count = network.size() - network.alive_count();
    if (count == 0) break;
    std::size_t k = rng.below(count);
    std::uint32_t dead = 0;
    for (;; ++dead)
      if (!alive[dead] && k-- == 0) break;
    const NodeId reborn(dead);
    if (config_.placement_extent > 0) {
      if (auto* euclid = dynamic_cast<EuclideanMetric*>(&network.metric())) {
        euclid->set_position(reborn,
                             {rng.uniform(0, config_.placement_extent),
                              rng.uniform(0, config_.placement_extent)});
        // Re-placed arrival: reported as a move too, distinguishing it
        // from the in-place (non-Euclidean / zero-extent) respawn below.
        changes.moved.push_back(reborn);
      }
    }
    network.set_alive(reborn, true);
    changes.arrivals.push_back(reborn);
  }

  return changes;
}

WaypointMobility::WaypointMobility(EuclideanMetric& metric, Config config)
    : metric_(&metric), config_(config) {
  UDWN_EXPECT(config.speed >= 0);
  UDWN_EXPECT(config.extent > 0);
  UDWN_EXPECT(config.mobile_fraction >= 0 && config.mobile_fraction <= 1);
}

ChangeSet WaypointMobility::step(Network& network, Rng& rng,
                                 Round /*round*/) {
  if (!initialized_) {
    waypoints_.resize(metric_->size());
    for (auto& w : waypoints_)
      w = {rng.uniform(0, config_.extent), rng.uniform(0, config_.extent)};
    initialized_ = true;
  }
  if (config_.speed == 0) return {};
  const auto mobile_count = static_cast<std::uint32_t>(
      std::ceil(config_.mobile_fraction *
                static_cast<double>(metric_->size())));
  ChangeSet changes;
  // One batched update span for the whole round: k set_position calls
  // commit as ONE metric version tick (each still dirty-logged per node),
  // so epoch consumers see one bump per round, not one per mover.
  metric_->begin_update();
  const std::span<const std::uint8_t> alive = network.alive_mask();
  const std::uint32_t end = std::min(
      mobile_count, static_cast<std::uint32_t>(alive.size()));
  for (std::uint32_t i = 0; i < end; ++i) {
    if (!alive[i]) continue;
    const NodeId v(i);
    Vec2 pos = metric_->position(v);
    Vec2& target = waypoints_[v.value];
    const Vec2 delta = target - pos;
    const double dist = delta.norm();
    if (dist <= config_.speed) {
      pos = target;
      target = {rng.uniform(0, config_.extent),
                rng.uniform(0, config_.extent)};
    } else {
      pos = pos + delta * (config_.speed / dist);
    }
    metric_->set_position(v, pos);
    changes.moved.push_back(v);
  }
  metric_->end_update();
  return changes;
}

TIntervalAdversary::TIntervalAdversary(MatrixMetric& metric, Config config)
    : metric_(&metric), config_(config) {
  UDWN_EXPECT(config.interval >= 1);
  UDWN_EXPECT(config.edge_length > 0);
  UDWN_EXPECT(config.far_length > config.edge_length);
}

namespace {

using EdgeList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

std::pair<std::uint32_t, std::uint32_t> normalized_edge(std::uint32_t a,
                                                        std::uint32_t b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

/// Edges of `a` that are not in `b`; both inputs sorted ascending.
EdgeList edge_difference(const EdgeList& a, const EdgeList& b) {
  EdgeList out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

}  // namespace

std::vector<std::pair<std::uint32_t, std::uint32_t>>
TIntervalAdversary::pick_chain(const Network& network, std::uint64_t epoch) {
  // Chain order: informed nodes in stable join order, then the uninformed
  // block rotated by the epoch index — one frontier-crossing edge whose
  // uninformed endpoint changes every epoch, and an informed prefix path
  // that consecutive chains share exactly (so the T-1-round union of old
  // and new chain never adds shortcuts on the informed side). Without an
  // oracle everything lands in the "uninformed" block and the rotation
  // alone drives the rewiring.
  std::vector<std::uint32_t> informed;
  std::vector<std::uint32_t> rest;
  for (const NodeId v : network.alive_nodes()) {
    if (frontier_ && frontier_(v))
      informed.push_back(v.value);
    else
      rest.push_back(v.value);
  }
  std::sort(informed.begin(), informed.end());
  std::sort(rest.begin(), rest.end());
  // Fold this epoch's frontier reading into the stable join order: drop
  // nodes no longer informed (protocol restarts, churn), append newcomers.
  const auto gone = std::remove_if(
      informed_order_.begin(), informed_order_.end(), [&](std::uint32_t v) {
        return std::find(informed.begin(), informed.end(), v) ==
               informed.end();
      });
  informed_order_.erase(gone, informed_order_.end());
  for (const std::uint32_t v : informed) {
    if (std::find(informed_order_.begin(), informed_order_.end(), v) ==
        informed_order_.end())
      informed_order_.push_back(v);
  }
  std::vector<std::uint32_t> order = informed_order_;
  // Near window: the 2T+1 smallest uninformed ids in fixed ascending order.
  // The frontier wave advances at most one hop per round, so it cannot
  // cross the window within one epoch — which means the overlap union's
  // extra edges (old chain ∪ new chain) never open a usable shortcut near
  // the frontier and spread stays throttled to ~1 node per round. The far
  // remainder is rotated wholesale every epoch: large-scale rewiring, kept
  // where the message is not.
  const std::size_t window = std::min<std::size_t>(
      rest.size(), 2 * static_cast<std::size_t>(config_.interval) + 1);
  const auto wbegin = rest.begin() + static_cast<std::ptrdiff_t>(window);
  order.insert(order.end(), rest.begin(), wbegin);
  if (rest.size() > window) {
    const std::size_t shift = epoch % (rest.size() - window);
    order.insert(order.end(), wbegin + static_cast<std::ptrdiff_t>(shift),
                 rest.end());
    order.insert(order.end(), wbegin,
                 wbegin + static_cast<std::ptrdiff_t>(shift));
  }
  EdgeList chain;
  for (std::size_t i = 0; i + 1 < order.size(); ++i)
    chain.push_back(normalized_edge(order[i], order[i + 1]));
  std::sort(chain.begin(), chain.end());
  return chain;
}

ChangeSet TIntervalAdversary::step(Network& network, Rng& /*rng*/,
                                   Round /*round*/) {
  const std::uint32_t phase =
      static_cast<std::uint32_t>(rounds_seen_ % config_.interval);
  const std::uint64_t epoch = rounds_seen_ / config_.interval;
  ++rounds_seen_;

  EdgeList added;
  EdgeList removed;
  const bool first_step = rounds_seen_ == 1;
  if (phase == 0) {
    // Epoch boundary: commit the new chain; the old one stays wired for the
    // overlap window (rounds 0..T-2 of this epoch).
    prev_chain_ = std::move(chain_);
    chain_ = pick_chain(network, epoch);
    added = edge_difference(chain_, prev_chain_);
  }
  if (phase == config_.interval - 1) {
    // Epoch's last round: drop the previous chain's exclusive edges, leaving
    // exactly the current chain (for T = 1 this runs right after the add).
    removed = edge_difference(prev_chain_, chain_);
    prev_chain_.clear();
  }

  if (added.empty() && removed.empty() && !first_step) return {};

  metric_->begin_update();
  if (first_step) {
    // Take ownership of the whole matrix: every off-diagonal pair becomes a
    // far non-edge before the first chain is wired.
    const auto n = static_cast<std::uint32_t>(metric_->size());
    for (std::uint32_t u = 0; u < n; ++u)
      for (std::uint32_t v = u + 1; v < n; ++v) {
        metric_->set_distance(NodeId{u}, NodeId{v}, config_.far_length);
        metric_->set_distance(NodeId{v}, NodeId{u}, config_.far_length);
      }
  }
  for (const auto& [u, v] : added) {
    metric_->set_distance(NodeId{u}, NodeId{v}, config_.edge_length);
    metric_->set_distance(NodeId{v}, NodeId{u}, config_.edge_length);
  }
  for (const auto& [u, v] : removed) {
    metric_->set_distance(NodeId{u}, NodeId{v}, config_.far_length);
    metric_->set_distance(NodeId{v}, NodeId{u}, config_.far_length);
  }
  metric_->end_update();

  ChangeSet changes;
  if (first_step) {
    for (std::uint32_t v = 0;
         v < static_cast<std::uint32_t>(metric_->size()); ++v)
      changes.moved.push_back(NodeId{v});
    return changes;
  }
  std::vector<std::uint32_t> touched;
  for (const auto& [u, v] : added) {
    touched.push_back(u);
    touched.push_back(v);
  }
  for (const auto& [u, v] : removed) {
    touched.push_back(u);
    touched.push_back(v);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const std::uint32_t v : touched) changes.moved.push_back(NodeId{v});
  return changes;
}

ChurnDynamics::Config oblivious_churn_preset(double extent,
                                             std::vector<NodeId> pinned) {
  ChurnDynamics::Config config;
  // Roughly one departure and one (re)arrival every four rounds — steady
  // oblivious population noise without emptying the network.
  config.arrival_rate = 0.25;
  config.departure_rate = 0.25;
  config.placement_extent = extent;
  config.pinned = std::move(pinned);
  return config;
}

WaypointMobility::Config oblivious_mobility_preset(double extent) {
  WaypointMobility::Config config;
  // A third of the nodes drift at 5% of the nominal radius per round — fast
  // enough to open and close links within a broadcast, slow enough that the
  // paper's rate-limited edge-dynamics assumption is respected.
  config.speed = 0.05;
  config.extent = extent;
  config.mobile_fraction = 1.0 / 3.0;
  return config;
}

CompositeDynamics::CompositeDynamics(std::vector<Dynamics*> parts)
    : parts_(std::move(parts)) {
  for (const auto* part : parts_) UDWN_EXPECT(part != nullptr);
}

namespace {

/// Order-preserving dedup: keep the first occurrence of each id. O(k log k)
/// in the list length k, which is not small: a mobility part reports every
/// mover, e.g. 257 ids a round on an 8k-node mobility + churn workload.
void dedup_stable(std::vector<NodeId>& ids) {
  std::vector<NodeId> sorted(ids);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (sorted.size() == ids.size()) return;  // no repeats: order kept as is
  std::vector<std::uint8_t> kept(sorted.size(), 0);
  const auto dup = std::remove_if(ids.begin(), ids.end(), [&](NodeId v) {
    const auto at = static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
    if (kept[at]) return true;
    kept[at] = 1;
    return false;
  });
  ids.erase(dup, ids.end());
}

}  // namespace

ChangeSet CompositeDynamics::step(Network& network, Rng& rng, Round round) {
  ChangeSet all;
  for (auto* part : parts_) {
    ChangeSet changes = part->step(network, rng, round);
    all.arrivals.insert(all.arrivals.end(), changes.arrivals.begin(),
                        changes.arrivals.end());
    all.departures.insert(all.departures.end(), changes.departures.begin(),
                          changes.departures.end());
    all.moved.insert(all.moved.end(), changes.moved.begin(),
                     changes.moved.end());
  }
  dedup_stable(all.arrivals);
  dedup_stable(all.departures);
  dedup_stable(all.moved);
  // A node that moved and then departed within the round is a departure by
  // the time the merged set is observed: drop it from `moved`.
  std::vector<NodeId> gone(all.departures);
  std::sort(gone.begin(), gone.end());
  const auto departed = [&](NodeId v) {
    return std::binary_search(gone.begin(), gone.end(), v);
  };
  all.moved.erase(std::remove_if(all.moved.begin(), all.moved.end(), departed),
                  all.moved.end());
  // Merge invariant: whatever order the children ran in (mover before or
  // after the churn part), a node that departed this round must end up
  // departed-only.
  UDWN_ENSURE(std::none_of(all.moved.begin(), all.moved.end(), departed));
  return all;
}

}  // namespace udwn
