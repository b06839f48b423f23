// The quasi-metric abstraction of Sec. 2.
//
// The paper models signal decay between nodes u, v by a path loss f(u,v) > 0
// and derives a quasi-distance d(u,v) = f(u,v)^(1/ζ). All metric axioms
// except symmetry are required to hold (up to the metricity constant ζ).
// Algorithms and the physical layer consume this interface only, which is
// what makes the model "unified": SINR (Euclidean), bounded-independence
// graphs, and the adversarial lower-bound construction all plug in here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "common/contract.h"
#include "common/types.h"
#include "metric/dirty_log.h"

namespace udwn {

class QuasiMetric {
 public:
  virtual ~QuasiMetric() = default;

  /// Monotonic mutation counter: every change to the distance function
  /// (moved point, edited matrix entry, appended point) bumps it. Version-
  /// stamped caches (TopologyCache, FarFieldWorkspace) compare versions
  /// instead of re-deriving distances, so every mutable metric
  /// MUST call a bump_version overload from its mutators — a missed bump
  /// makes a cache silently stale. Inside a begin_update()/end_update()
  /// span the counter advances by exactly one for the whole batch.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Which nodes each version tick touched (dirty_log.h). TopologyCache::
  /// sync reads the window since the version it last synced at; coarse
  /// consumers keep comparing version() alone.
  [[nodiscard]] const DirtyLog& dirty_log() const { return dirty_log_; }

  /// Batch several localized mutations into ONE version tick. Spans nest
  /// (depth-counted); the outermost end_update() commits the tick, and only
  /// if a bump was requested inside. Dirty records issued inside the span
  /// all carry the committed version, so WaypointMobility moving k nodes
  /// costs coarse consumers one version bump, not k.
  void begin_update() { ++update_depth_; }
  void end_update() {
    UDWN_EXPECT(update_depth_ > 0);
    if (--update_depth_ == 0 && pending_bump_) {
      ++version_;
      pending_bump_ = false;
    }
  }

  /// Number of points (ids are 0..size()-1). Points may be dead in the
  /// surrounding network; the metric itself is total on all ids.
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Quasi-distance d(u,v): 0 iff u == v, positive otherwise, triangle
  /// inequality within the metricity constant; symmetry NOT guaranteed.
  [[nodiscard]] virtual double distance(NodeId u, NodeId v) const = 0;

  /// Symmetrized distance max{d(u,v), d(v,u)}, used by the ball definition
  /// B(u,r) of Sec. 2.
  [[nodiscard]] double sym_distance(NodeId u, NodeId v) const {
    const double duv = distance(u, v);
    const double dvu = distance(v, u);
    return duv > dvu ? duv : dvu;
  }

 protected:
  /// Coarse bump: the change is not localizable to named nodes (appended
  /// point, whole-matrix swap). Records a global dirty mark, so window
  /// readers fall back to plain version stamps for the affected window.
  void bump_version() {
    dirty_log_.record_global(pending_version());
    commit_bump();
  }

  /// Localized bump: only distances involving v may have changed. The
  /// dirty-set contract (dirty_log.h): a mutation editing d(u,w) must dirty
  /// every endpoint whose row or column changed — both u and w for a
  /// directed matrix edit; just the moved node for a Euclidean move, whose
  /// consumers recover the neighborhood geometrically.
  void bump_version(NodeId v) {
    dirty_log_.record(v, pending_version());
    commit_bump();
  }

  /// Localized bump naming several nodes, one version tick.
  void bump_version(std::initializer_list<NodeId> nodes) {
    const std::uint64_t at = pending_version();
    for (const NodeId v : nodes) dirty_log_.record(v, at);
    commit_bump();
  }

 private:
  /// The version the in-flight mutation will commit as: inside a span the
  /// whole batch shares one tick.
  [[nodiscard]] std::uint64_t pending_version() const {
    return version_ + 1;
  }
  void commit_bump() {
    if (update_depth_ > 0)
      pending_bump_ = true;
    else
      ++version_;
  }

  std::uint64_t version_ = 0;
  DirtyLog dirty_log_;
  int update_depth_ = 0;
  bool pending_bump_ = false;
};

}  // namespace udwn
