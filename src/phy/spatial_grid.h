// Uniform-cell spatial index over plane points. Used by topology generators
// and by Euclidean-instance range queries (neighborhood scans) to avoid the
// O(n) sweep per query. Interference sums remain exact and are computed by
// the interference module; the grid only accelerates *membership* queries.
//
// The index is incrementally maintainable: move()/erase()/insert() update
// only the affected cells, so a round that moves k nodes costs O(k) grid
// work instead of an O(n) rebuild (TopologyCache::sync relies on
// this). Cell member lists stay sorted by id, which makes a mutated grid
// observably identical to one rebuilt from scratch over the same points —
// same candidates, same visit order — except that a cell drained to empty
// keeps its (empty) list as retained capacity; queries skip it and the
// test peer ignores it when comparing cell-for-cell.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "metric/geometry.h"

namespace udwn {

class SpatialGrid {
 public:
  /// Build over `points` with the given cell size (> 0). Points may lie
  /// anywhere; cells are materialized sparsely via hashing on cell coords.
  SpatialGrid(std::span<const Vec2> points, double cell_size);

  /// Ids of all indexed points within Euclidean distance <= r of q
  /// (inclusive; callers needing strict `<` filter the boundary themselves).
  [[nodiscard]] std::vector<NodeId> within(Vec2 q, double r) const;

  /// Visit ids of all indexed points within distance <= r of q.
  template <typename Fn>
  void for_each_within(Vec2 q, double r, Fn&& fn) const {
    const double r2 = r * r;
    const auto [clo, rlo] = cell_of({q.x - r, q.y - r});
    const auto [chi, rhi] = cell_of({q.x + r, q.y + r});
    for (std::int64_t cy = rlo; cy <= rhi; ++cy) {
      for (std::int64_t cx = clo; cx <= chi; ++cx) {
        const auto it = cells_.find(key(cx, cy));
        if (it == cells_.end()) continue;
        for (NodeId id : it->second) {
          const Vec2 p = points_[id.value];
          if ((p - q).norm2() <= r2) fn(id);
        }
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return points_.size(); }

  /// The indexed position of id (for indexed ids only). After external
  /// moves this is the *pre-move* position until move(id, ...) is applied —
  /// exactly what delta invalidation needs to query old neighborhoods.
  [[nodiscard]] Vec2 point(NodeId id) const;

  /// Reposition an indexed id to p, updating at most two cells. No-op on
  /// the cell structure when old and new positions share a cell.
  void move(NodeId id, Vec2 p);

  /// Remove id from the index (its slot stays; queries no longer see it).
  void erase(NodeId id);

  /// Re-add a previously erased id at p. Ids beyond the construction size
  /// cannot be introduced — sized instances rebind instead.
  void insert(NodeId id, Vec2 p);

 private:
  friend class SpatialGridTestPeer;

  [[nodiscard]] std::pair<std::int64_t, std::int64_t> cell_of(Vec2 p) const;
  [[nodiscard]] static std::uint64_t key(std::int64_t cx, std::int64_t cy);
  [[nodiscard]] std::uint64_t key_of(Vec2 p) const;
  void cell_remove(std::uint64_t cell_key, NodeId id);
  void cell_add(std::uint64_t cell_key, NodeId id);

  std::vector<Vec2> points_;
  double cell_size_;
  // Sparse map from packed cell coordinate to member ids, each list sorted
  // ascending by id (the construction order; mutators preserve it).
  std::unordered_map<std::uint64_t, std::vector<NodeId>> cells_;
  // indexed_[id] == 0 after erase(id); such ids are invisible to queries.
  std::vector<std::uint8_t> indexed_;
};

}  // namespace udwn
