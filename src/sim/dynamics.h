// Adversarial/dynamic behaviour drivers (Sec. 2 "Dynamicity").
//
// The paper allows unlimited node churn (arrivals restart from the initial
// protocol configuration) and rate-limited edge changes: over any window of
// Ω(log n) rounds a node may gain at most τ·|T| new neighbors from edge
// dynamics. We realize churn by toggling ids between alive and a reserve
// pool, and edge changes by bounded-speed waypoint mobility whose speed cap
// is derived from the target τ.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "metric/euclidean.h"
#include "metric/matrix_metric.h"
#include "sim/network.h"

namespace udwn {

/// Population changes one dynamics step produced. Arrivals must be reported
/// so the engine can restart the nodes' protocols.
struct ChangeSet {
  std::vector<NodeId> arrivals;
  std::vector<NodeId> departures;
  /// Nodes whose metric position was mutated this step: mobility movers and
  /// re-placed churn arrivals. In-place (non-Euclidean, or zero
  /// placement_extent) arrivals appear in `arrivals` only — that is how
  /// consumers tell a respawn-in-place from a respawn-elsewhere. Purely
  /// informational for the engine (cache invalidation reads the metric's
  /// DirtyLog, not this), but recorders and tests consume it.
  std::vector<NodeId> moved;
};

class Dynamics {
 public:
  virtual ~Dynamics() = default;
  /// Advance one round of dynamics before the communication slots run.
  virtual ChangeSet step(Network& network, Rng& rng, Round round) = 0;
};

/// Rate-based churn: on average `arrival_rate` dead nodes revive and
/// `departure_rate` alive nodes leave per round (fractional rates
/// accumulate). Euclidean arrivals are re-placed uniformly in a bounding
/// box; non-Euclidean metrics revive in place. Ids in `pinned` never leave
/// (e.g. a broadcast source or the probe node of an experiment).
class ChurnDynamics final : public Dynamics {
 public:
  struct Config {
    double arrival_rate = 0;
    double departure_rate = 0;
    /// Re-place Euclidean arrivals uniformly in [0,extent]²; 0 keeps the
    /// node's previous position.
    double placement_extent = 0;
    std::vector<NodeId> pinned;
  };

  explicit ChurnDynamics(Config config);

  ChangeSet step(Network& network, Rng& rng, Round round) override;

 private:
  Config config_;  // pinned: sorted, deduplicated

  double arrival_credit_ = 0;
  double departure_credit_ = 0;
};

/// Bounded-speed random-waypoint mobility over a EuclideanMetric. Each node
/// drifts toward a private waypoint at `speed` distance-units per round and
/// draws a fresh waypoint (uniform in [0,extent]²) on arrival. The
/// edge-change rate τ of Sec. 2 scales with speed/R.
class WaypointMobility final : public Dynamics {
 public:
  struct Config {
    double speed = 0;   // distance per round, >= 0
    double extent = 0;  // waypoint domain [0,extent]^2, > 0
    /// Fraction of the id space that is mobile: ids below
    /// ceil(mobile_fraction * n) drift, the rest sit still. 1 = everyone
    /// (the classic random-waypoint model); small fractions model a mostly
    /// static deployment with a few movers — the regime where delta
    /// invalidation shines (work per round scales with the movers).
    double mobile_fraction = 1.0;
  };

  /// `metric` must be the metric the target network runs on.
  WaypointMobility(EuclideanMetric& metric, Config config);

  ChangeSet step(Network& network, Rng& rng, Round round) override;

 private:
  EuclideanMetric* metric_;
  Config config_;
  std::vector<Vec2> waypoints_;
  bool initialized_ = false;
};

/// Worst-case T-interval-connected dynamic graphs in the Haeupler–Kuhn
/// sense (arXiv:1208.6051, "Lower Bounds on Information Dissemination in
/// Dynamic Networks"; see PAPERS.md): every window of `interval` consecutive
/// rounds shares a connected spanning subgraph, yet the adversary is
/// otherwise free to rewire — and this one rewires *against the message
/// frontier* when given a frontier oracle.
///
/// Construction (the guarantee is checked by property test, not assumed):
/// time splits into epochs of `interval` rounds. Each epoch k commits a
/// spanning chain C_k; rounds 0..T-2 of the epoch carry C_{k-1} ∪ C_k and
/// round T-1 carries C_k alone. Any T-round window therefore contains some
/// C_k in every one of its rounds (the epoch it starts in), which is the
/// required stable connected spanning subgraph — while consecutive epochs
/// may rewire the uninformed side completely. With a frontier oracle
/// installed, C_k chains the informed nodes first *in the stable order they
/// joined the frontier* (so consecutive chains share the informed prefix
/// exactly and the overlap union never adds informed-side shortcuts), then
/// a fixed ascending window of the 2T+1 nearest uninformed nodes (the wave
/// cannot cross it within one epoch, so overlap-union edges open no usable
/// shortcut), then the remaining uninformed nodes rotated by k. Exactly one
/// chain edge crosses the frontier, the far side is reshuffled every epoch,
/// and the message is throttled to the one-hop-per-round frontier wave —
/// completion is forced toward Ω(n) rounds however small the diameter a
/// friendly generator would offer. Without an oracle the rotation alone
/// rewires obliviously.
///
/// The adversary drives a MatrixMetric (chain edges at `edge_length`, all
/// other pairs at `far_length`, written symmetrically inside one
/// begin_update()/end_update() span per round), so the DirtyLog delta path
/// sees ordinary localized mutations and every slot stays equal to
/// Channel::resolve() under adversarial rewiring too. It is fully
/// deterministic: `step` never draws from the Rng.
class TIntervalAdversary final : public Dynamics {
 public:
  struct Config {
    /// The T of T-interval connectivity; 1 = may rewire every round.
    std::uint32_t interval = 8;
    /// Distance written for chain edges. The default sits below the default
    /// ScenarioConfig comm radius (1-ε)R = 0.7, so chain links decode under
    /// every reception model out of the box.
    double edge_length = 0.5;
    /// Distance written for non-edges (pick far outside every model's
    /// reach; also the value the whole matrix is reset to on round 0).
    double far_length = 1.0e6;
  };

  /// Predicate "node v currently holds the message" — read once per node at
  /// each epoch boundary. Null = oblivious rotation.
  using FrontierOracle = std::function<bool(NodeId)>;

  /// `metric` must be the metric the target network runs on; the adversary
  /// overwrites every off-diagonal entry on its first step.
  TIntervalAdversary(MatrixMetric& metric, Config config);

  void set_frontier(FrontierOracle oracle) { frontier_ = std::move(oracle); }

  ChangeSet step(Network& network, Rng& rng, Round round) override;

  /// The chain committed by the current epoch, as normalized (min,max) id
  /// pairs — the stable subgraph witness for connectivity property tests.
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
  backbone() const {
    return chain_;
  }

 private:
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>
  pick_chain(const Network& network, std::uint64_t epoch);

  MatrixMetric* metric_;
  Config config_;
  FrontierOracle frontier_;
  std::uint64_t rounds_seen_ = 0;
  /// Informed nodes in the order they joined the frontier — the stable
  /// informed prefix shared by consecutive chains.
  std::vector<std::uint32_t> informed_order_;
  /// Current epoch's chain and the previous epoch's (kept through the
  /// overlap window, empty after the epoch's last round drops it).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> chain_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> prev_chain_;
};

/// Oblivious-adversary presets for the EXP-18 arena: fixed churn/mobility
/// parameter bundles that do not react to protocol state (the random-
/// dynamics middle ground between a static network and TIntervalAdversary).
[[nodiscard]] ChurnDynamics::Config oblivious_churn_preset(
    double extent, std::vector<NodeId> pinned);
[[nodiscard]] WaypointMobility::Config oblivious_mobility_preset(
    double extent);

/// Runs several dynamics in sequence each round (e.g. churn + mobility).
/// The merged ChangeSet preserves part order, deduplicates each list
/// (first occurrence wins), and drops departed nodes from `moved` — a node
/// that drifted and then left the network this round is a departure, not a
/// move, by the time anyone observes the round.
class CompositeDynamics final : public Dynamics {
 public:
  explicit CompositeDynamics(std::vector<Dynamics*> parts);

  ChangeSet step(Network& network, Rng& rng, Round round) override;

 private:
  std::vector<Dynamics*> parts_;
};

}  // namespace udwn
