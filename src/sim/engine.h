// The round engine: drives all protocols through (possibly two-slot) rounds
// against the exact physical channel, applying dynamics between rounds and
// the App. B carrier-sensing primitives after each slot.
//
// Synchronous mode: every alive node takes a protocol step each round
// (Sec. 5 assumes this for Bcast). Drift-async mode: each node owns a clock
// period drawn from [1, drift_bound] global rounds; the node takes protocol
// steps only in rounds where its local round counter advances, matching the
// paper's "clocks of different nodes run at a similar rate ... differ at
// most by a factor of 2" (Sec. 2). Radios stay on regardless: message
// receptions are delivered to every alive node in every slot.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "common/contract.h"
#include "common/rng.h"
#include "common/types.h"
#include "obs/tap.h"
#include "phy/channel.h"
#include "sensing/primitives.h"
#include "sim/dynamics.h"
#include "sim/network.h"
#include "sim/protocol.h"

namespace udwn {

class Engine;

/// Observation hook for traces and experiment measurement. Recorders see
/// ground truth (the full SlotOutcome), which protocols never do.
class Recorder {
 public:
  virtual ~Recorder() = default;
  virtual void on_slot(Round round, Slot slot, const SlotOutcome& outcome,
                       const Engine& engine) = 0;
  virtual void on_round_end(Round /*round*/, const Engine& /*engine*/) {}
};

struct EngineConfig {
  /// 1 for Try&Adjust / LocalBcast, 2 for the broadcast algorithms (Sec. 5).
  int slots_per_round = 1;
  /// Power scale applied to Notify-slot transmissions (App. B power-control
  /// NTD: at scale (ε/2)^ζ, receiving a notify at all certifies the sender
  /// is within ~εR/2 — no RSS-based NTD primitive needed). 1 = full power.
  double notify_power_scale = 1.0;
  /// Drift-async clocks; false = synchronous.
  bool async = false;
  /// Upper bound on the ratio of round lengths (paper: 2).
  double drift_bound = 2.0;
  std::uint64_t seed = 1;
  /// Worker threads for the slot pipeline's interference/decode kernels
  /// (including the calling thread); 1 = serial. Every value produces
  /// bit-identical traces (enforced by tools/determinism_audit). The gain
  /// table's tile width is worked out from it, so each slot's field is
  /// sharded by listener block, one or more per thread, fusing tile fills
  /// with accumulation. When
  /// every protocol declares Protocol::isolated(), the per-node sampling
  /// and feedback sweeps are sharded by id range too.
  int threads = 1;
  /// Certified far-field approximation: aggregate transmitters beyond a
  /// derived separation radius per spatial cell with worst-case relative
  /// field error <= far_field_eps (see far_field.h for the bound's
  /// derivation). 0 (default) = exact. Approximate rounds are
  /// self-deterministic across thread counts but not bit-identical to the
  /// exact reference — only ε-certified against it (both audited).
  double far_field_eps = 0.0;
  /// Far-field aggregation cell side as a multiple of the model max range.
  double far_field_cell_factor = 2.0;
  /// Memory budget for the tiled LRU gain table; 0 disables gain caching.
  std::size_t gain_budget_bytes = std::size_t{128} << 20;
  /// Observability handle (obs/obs.h): counters, histograms and the binary
  /// round-event trace. Null (the default) disables all instrumentation —
  /// the off path is a branch on this pointer per site, with zero
  /// allocation and a bit-identical simulation trace (audited). The handle
  /// must outlive the engine; one handle may observe several engines.
  Obs* obs = nullptr;
};

class Engine {
 public:
  /// `protocols` must contain one entry per node id of the network's metric
  /// and outlive the engine; likewise channel/network/sensing. Protocols of
  /// initially-alive nodes are on_start()-ed here.
  Engine(const Channel& channel, Network& network,
         const CarrierSensing& sensing,
         std::span<const std::unique_ptr<Protocol>> protocols,
         EngineConfig config);

  /// Optional dynamics driver, stepped at the beginning of every round.
  void set_dynamics(Dynamics* dynamics) { dynamics_ = dynamics; }
  /// Optional observation hook.
  void set_recorder(Recorder* recorder) { recorder_ = recorder; }

  /// Execute one global round (dynamics step + all slots + feedback).
  void step();

  /// Step until `done(*this)` holds or `max_rounds` rounds have run.
  /// Returns the number of rounds executed when `done` fired, nullopt on
  /// timeout. The predicate is evaluated after every round.
  std::optional<Round> run_until(
      const std::function<bool(const Engine&)>& done, Round max_rounds);

  /// Rounds executed so far.
  [[nodiscard]] Round round() const { return round_; }

  [[nodiscard]] const Network& network() const { return *network_; }
  [[nodiscard]] const Channel& channel() const { return *channel_; }
  [[nodiscard]] const CarrierSensing& sensing() const { return *sensing_; }
  /// The observability handle of EngineConfig::obs, or null.
  [[nodiscard]] Obs* obs() const { return config_.obs; }

  [[nodiscard]] Protocol& protocol(NodeId v) const;

  /// Transmission probability node v used in the most recent data slot
  /// (0 for dead or never-stepped nodes). Recorders use this to measure the
  /// contention quantities of Sec. 3.
  [[nodiscard]] double last_probability(NodeId v) const;

  /// Did v's local clock fire in the most recently executed round?
  [[nodiscard]] bool clock_fired(NodeId v) const;

  /// Lifetime statistics of the slot pipeline's gain table (see
  /// GainTable::Stats); with an Obs handle most also reach the registry as
  /// per-round deltas.
  [[nodiscard]] const GainTable::Stats& gain_stats() const {
    return workspace_.cache().gains_storage().stats();
  }

 private:
  UDWN_HOT void run_slot(Slot slot);

  const Channel* channel_;
  Network* network_;
  const CarrierSensing* sensing_;
  std::span<const std::unique_ptr<Protocol>> protocols_;
  EngineConfig config_;
  Dynamics* dynamics_ = nullptr;
  Recorder* recorder_ = nullptr;

  Rng rng_;
  std::vector<Rng> node_rng_;
  std::vector<double> clock_rate_;      // rounds advance per global round
  std::vector<double> clock_progress_;  // fractional local round counter
  std::vector<std::uint8_t> fired_;     // clock fired this round
  std::vector<double> last_probability_;
  // 1 while the node's last fired Data slot had p > 0; its drop to p = 0
  // (or a departure) retires the node's gain rows. A flag, not
  // last_probability_, because that reads 0 on slots the clock skipped.
  std::vector<std::uint8_t> data_live_;
  Round round_ = 0;

  // Slot-pipeline workspace: all per-slot buffers live here (not in
  // run_slot), so a steady-state slot performs no heap allocation — see
  // docs/ENGINE.md and the counting-allocator test.
  SlotWorkspace workspace_;
  std::vector<std::uint32_t> tx_payload_;

  // The two per-node sweeps of a slot (transmitter sampling, feedback).
  // Each is one body over a contiguous id range [lo, hi) that writes only
  // its own nodes' entries and its own SweepChunk. The body runs once over
  // [0, n) on the engine thread, or, when sweep_pool_ is set, once per
  // chunk on the pool. The engine thread joins the chunks in chunk order,
  // which is id order, so both cases produce the same slot bit for bit.
  struct SweepChunk {
    std::vector<NodeId> transmitters;  // sampled this slot, in id order
    std::vector<NodeId> retired;       // sharded: rows to demote, id order
    // Receivers of the slot in id order, the first `deliveries` entries;
    // sized to the chunk's length only when trace events are on.
    std::vector<NodeId> receivers;
    std::uint64_t deliveries = 0;  // counted only with an Obs handle
    std::uint64_t collisions = 0;
  };
  void sample_sweep(std::size_t lo, std::size_t hi, Slot slot,
                    double* probability, SweepChunk& out);
  void feedback_sweep(std::size_t lo, std::size_t hi, Slot slot,
                      const SlotOutcome& outcome, SweepChunk& out);
  template <typename Body>
  void for_each_sweep_chunk(const Body& body);

  // Set when the workspace has a pool and every protocol declares
  // isolated(); decided once, at construction.
  TaskPool* sweep_pool_ = nullptr;
  std::vector<SweepChunk> sweep_chunks_;  // 1 serial, pool threads sharded
  // Sharded only: the chunks' joined transmitter list, and the Data-slot
  // probabilities they write, which the engine thread copies into
  // last_probability_ so that between-round reads of it stay in its cache.
  std::vector<NodeId> transmitters_;
  std::vector<double> sweep_probability_;

  // Observability (all dormant when config_.obs == nullptr). Trace events
  // are emitted only from this (the engine) thread, so the event stream is
  // identical for every thread count and kernel choice. Gain/pool stats are
  // lifetime counters on their owners; the engine publishes per-round
  // deltas, tracked by these snapshots.
  void publish_round_obs(std::uint64_t transitions, std::uint64_t alive);
  std::vector<std::uint32_t> obs_state_;  // per-node obs_state() last round
  GainTable::Stats last_gain_stats_;
  TaskPool::Stats last_pool_stats_;
  // Live metrics tap (UDWN_METRICS_TAP); armed only when an Obs handle is
  // attached, fires at round boundaries — quiescent points by construction.
  MetricsTap tap_;
};

}  // namespace udwn
