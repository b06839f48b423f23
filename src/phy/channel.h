// Per-slot channel resolution: ties the metric, path loss and reception
// model together. The engine hands the channel a set of transmitters; the
// channel computes the exact interference field, decides every decode, and
// reports mass-deliveries (Sec. 2: a node mass-delivers when all its alive
// neighbors receive its message) plus the ground-truth clear-channel flags
// used by tests and the oracle primitives.
//
// Two entry points resolve a slot:
//   * resolve()      — the allocation-per-call brute-force reference and the
//                      one exact specification of a slot. Every decision is
//                      derived from scratch; property tests, the engine-level
//                      ReferenceCheck (analysis/determinism.h) and the
//                      determinism audit compare every slot against it.
//   * resolve_into() — the production pipeline: reuses a caller-owned
//                      SlotWorkspace (no steady-state allocation), serves
//                      neighborhoods and pairwise gains from a version-
//                      stamped TopologyCache (which freshens itself from
//                      the metric's DirtyLog), sums the field in
//                      one gain-table driver (plan_rows, then fill and
//                      accumulate per listener block: interference.h),
//                      prunes decode/clear candidates with a SpatialGrid on
//                      Euclidean instances, and can run its kernels on a
//                      deterministic TaskPool. With far_field_eps == 0 its
//                      SlotOutcome is bit-for-bit identical to resolve()'s
//                      for every configuration — see docs/ENGINE.md.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/contract.h"
#include "common/parallel.h"
#include "common/types.h"
#include "metric/quasi_metric.h"
#include "phy/far_field.h"
#include "phy/pathloss.h"
#include "phy/reception.h"
#include "phy/topology_cache.h"

namespace udwn {

class Obs;

/// Everything that physically happened in one slot.
struct SlotOutcome {
  /// The transmitters, as passed in.
  std::vector<NodeId> transmitters;
  /// Exact interference field (indexed by node id; see interference.h).
  std::vector<double> interference;
  /// decoded_from[v] = the sender v decoded this slot, or invalid. Always
  /// invalid for transmitters (half-duplex) and dead nodes.
  std::vector<NodeId> decoded_from;
  /// mass_delivered[v] != 0 iff v transmitted and every alive neighbor
  /// decoded its message. Vacuously true for a transmitter with no alive
  /// neighbors.
  std::vector<std::uint8_t> mass_delivered;
  /// clear[v] != 0 iff v transmitted on a clear channel per Def. 1 (used by
  /// tests and by the dominating-set ground truth).
  std::vector<std::uint8_t> clear;
};

struct SlotWorkspaceConfig {
  /// Memory budget for the tiled LRU gain table (see gain_table.h);
  /// 0 disables gain caching. Any instance size is cached within budget —
  /// this replaces the old hard gain_cache_max_nodes = 4096 cliff.
  std::size_t gain_budget_bytes = std::size_t{128} << 20;
  /// Certified far-field approximation (see far_field.h): aggregate
  /// transmitters beyond a derived separation radius per spatial cell, with
  /// worst-case relative field error <= far_field_eps. 0 (default) = exact.
  /// Requires a Euclidean metric; non-Euclidean metrics or infeasible
  /// parameter combinations fall back to the exact kernels.
  /// Approximate paths are self-deterministic across thread counts but NOT
  /// bit-identical to the exact reference — only ε-certified against it.
  double far_field_eps = 0.0;
  /// Aggregation cell side for the far-field approximation, as a multiple
  /// of the reception model's max range (smaller cells tighten ρ for a
  /// given ε at the cost of more cells).
  double far_field_cell_factor = 2.0;
  /// Worker threads for the slot kernels (including the caller); 1 =
  /// serial. Any value produces bit-identical outcomes. The gain table's
  /// tile width is worked out from it (gain_tile_width), so every thread
  /// gets a listener block: each fills its stale tiles and accumulates its
  /// columns in one fused pass (interference_field_planned).
  int threads = 1;
  /// Observability handle (see obs/obs.h); null disables all
  /// instrumentation at the cost of one branch per site. The handle must
  /// outlive the workspace. Never influences any slot decision.
  Obs* obs = nullptr;
};

/// Reusable per-slot state owned by the caller (one per Engine). Hoists
/// every buffer the slot pipeline needs out of the hot loop: after a warm-up
/// slot at a given instance size, resolve_into performs no heap allocation
/// while the metric is stable (enforced by a counting-allocator test). Not
/// thread-safe; one workspace per concurrently running engine.
class SlotWorkspace {
 public:
  explicit SlotWorkspace(SlotWorkspaceConfig config = {});

  SlotWorkspace(const SlotWorkspace&) = delete;
  SlotWorkspace& operator=(const SlotWorkspace&) = delete;

  [[nodiscard]] const SlotWorkspaceConfig& config() const { return config_; }
  /// Transmitter flags of the most recent resolve_into (indexed by node id,
  /// 1 = transmitted); valid until the next resolve_into.
  [[nodiscard]] std::span<const std::uint8_t> transmitting() const {
    return is_tx_;
  }
  /// Introspection for tests: the cache backing this workspace.
  [[nodiscard]] TopologyCache& cache() { return cache_; }
  [[nodiscard]] const TopologyCache& cache() const { return cache_; }
  /// The kernel pool (null when threads == 1); the engine reads its Stats
  /// to publish per-round scheduling deltas.
  [[nodiscard]] TaskPool* pool() { return pool_.get(); }
  /// Tag worker-side trace events (shard spans) with the engine's current
  /// (round, slot). Pure observability — never read by any decision; the
  /// engine sets it before resolve_into when an Obs handle is attached.
  void set_obs_slot(std::uint32_t round, std::uint8_t slot) {
    obs_round_ = round;
    obs_slot_ = slot;
  }

 private:
  friend class Channel;

  SlotWorkspaceConfig config_;
  SlotOutcome outcome_;
  std::vector<std::uint8_t> is_tx_;
  std::vector<double> best_signal_;
  std::vector<const double*> row_scratch_;  // gain-table row pointers
  // Neighbour-list refill buffers of the mass-delivery/clear loop, one per
  // pool chunk (threads entries).
  std::vector<std::vector<NodeId>> neighbor_scratch_;
  TopologyCache cache_;
  std::unique_ptr<TaskPool> pool_;  // created when threads > 1
  FarFieldWorkspace far_field_;
  std::uint32_t obs_round_ = 0;  // observability tags for worker spans
  std::uint8_t obs_slot_ = 0;
};

class Channel {
 public:
  /// `alive[v] != 0` marks nodes present in the network; dead nodes neither
  /// receive nor block mass-delivery. The spans must outlive the Channel.
  Channel(const QuasiMetric& metric, const PathLoss& pathloss,
          const ReceptionModel& model, double epsilon);

  /// Resolve one slot. `alive` is indexed by node id and must have
  /// metric.size() entries; every transmitter must be alive. `power_scale`
  /// scales every transmitter's power for this slot only (all transmitters
  /// uniformly, per the paper's uniform-power assumption) — the App. B
  /// power-control trick: a slot at scale (ε/2)^ζ has clear-channel range
  /// εR/2, so plain reception doubles as the NTD primitive.
  [[nodiscard]] SlotOutcome resolve(std::span<const NodeId> transmitters,
                                    std::span<const std::uint8_t> alive,
                                    double power_scale = 1.0) const;

  /// Resolve one slot through `workspace` (see class comment above).
  /// The workspace's cache tracks the metric on its own (its version and
  /// DirtyLog); `alive` is read fresh every slot. Transmitter ids must be
  /// unique. Returns the workspace's outcome; the reference is valid until
  /// the next resolve_into on the same workspace.
  UDWN_HOT const SlotOutcome& resolve_into(
      std::span<const NodeId> transmitters, std::span<const std::uint8_t> alive,
      double power_scale, SlotWorkspace& workspace) const;

  /// The power scale that shrinks the SINR clear-channel range by `factor`:
  /// factor^ζ.
  [[nodiscard]] double power_scale_for_range_factor(double factor) const;

  /// Communication radius R_B = (1-ε)·R (Sec. 2).
  [[nodiscard]] double comm_radius() const;

  /// Alive neighbors N(u) = {v : d(u,v) <= (1-ε)R, v != u}.
  [[nodiscard]] std::vector<NodeId> neighbors(
      NodeId u, std::span<const std::uint8_t> alive) const;

  [[nodiscard]] const QuasiMetric& metric() const { return *metric_; }
  [[nodiscard]] const PathLoss& pathloss() const { return *pathloss_; }
  [[nodiscard]] const ReceptionModel& model() const { return *model_; }
  [[nodiscard]] double epsilon() const { return epsilon_; }

 private:
  void decode_scatter(const SlotView& view, const PathLoss& pl,
                      const GainTable* gains,
                      std::span<const std::uint8_t> alive,
                      const SpatialGrid& grid, double decode_radius,
                      SlotWorkspace& ws) const;
  void decode_gather(const SlotView& view, const PathLoss& pl,
                     const GainTable* gains,
                     std::span<const std::uint8_t> alive,
                     SlotWorkspace& ws) const;

  const QuasiMetric* metric_;
  const PathLoss* pathloss_;
  const ReceptionModel* model_;
  double epsilon_;
  // Constants of the immutable model/pathloss, hoisted out of the per-slot
  // path (each hides a virtual call and/or a libm pow).
  const SinrReception* sinr_;  // non-null iff the model is SINR
  double max_range_;
  double comm_radius_;
  double decode_range_unscaled_;
  SuccClearParams succ_clear_;
};

}  // namespace udwn
