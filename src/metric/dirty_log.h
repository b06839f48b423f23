// Per-node dirty tracking for metric mutations.
//
// The paper bounds how fast a dynamic network may change (Sec. 2
// "Dynamicity": a node gains at most τ·|T| new neighbors per Ω(log n)
// window), so per-round invalidation work should scale with the number of
// changed nodes, not with n. The global QuasiMetric::version() cannot
// express that — any mutation makes *everything* look stale. DirtyLog keeps
// the version counter as the coarse fallback and records, alongside it,
// WHICH node ids each version tick touched, so version-stamped caches keep
// working unchanged while a cache that reads the window since its last sync
// (TopologyCache::sync) invalidates only what moved. Reading is not
// consuming: any number of caches over one metric each read their own
// window.
//
// Contract for metric implementers (see QuasiMetric::bump_version(NodeId)):
// a localized mutation that changes d(u,v) must dirty every endpoint whose
// row or column changed. For non-geometric metrics (MatrixMetric) that
// means BOTH endpoints of every edited pair — consumers without geometry
// treat "neither endpoint dirty" as "distance unchanged". EuclideanMetric
// dirties only the moved node; its consumers recover the affected
// neighborhood geometrically through the SpatialGrid. Mutations that cannot
// enumerate their dirty set (whole-matrix swaps, appended points) call the
// coarse bump_version(), which records a *global* change: collect() then
// reports the window as non-localizable and consumers fall back to plain
// version stamps. Missing or over-coarse records are therefore safe (slow), a
// missing version bump is not (stale) — exactly the pre-existing contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace udwn {

/// Bounded ring of (version, node) dirty records. Versions are appended in
/// non-decreasing order (they mirror QuasiMetric::version()), so a window
/// query is a binary search plus a contiguous scan. When the ring reaches
/// its hard cap the oldest records are evicted and the evicted horizon
/// remembered; windows reaching past it report non-localizable.
class DirtyLog {
 public:
  /// Node v's distances may have changed at version tick `version`.
  void record(NodeId v, std::uint64_t version);

  /// A non-localizable change (everything dirty) at version tick `version`.
  void record_global(std::uint64_t version);

  /// Append the ids dirtied in the half-open version window (since, now] to
  /// `out` (unsorted, may repeat). Returns false — leaving `out` untouched
  /// beyond its prior contents — when the window is not localizable: a
  /// global record falls inside it, or eviction lost part of its history.
  [[nodiscard]] bool collect(std::uint64_t since, std::uint64_t now,
                             std::vector<NodeId>& out) const;

  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  struct Entry {
    std::uint64_t version;
    NodeId node;
  };

  void push(Entry e);

  // Ring storage: logical order oldest..newest = indices
  // [start_, start_ + count_) mod ring_.size(); versions non-decreasing.
  std::vector<Entry> ring_;
  std::size_t start_ = 0;
  std::size_t count_ = 0;
  // Highest version ever evicted from the ring (0 = nothing evicted):
  // windows starting before it may have lost records.
  std::uint64_t evicted_version_ = 0;
  // Highest version recorded as a global (non-localizable) change.
  std::uint64_t global_version_ = 0;
};

}  // namespace udwn
