// Obs — the single handle the engine takes for all observability.
//
// EngineConfig::obs (and, pass-through, SlotWorkspaceConfig::obs) is a raw
// `Obs*` that defaults to nullptr. Every instrumentation site in the engine,
// channel, gain table, and task pool is a branch on that pointer; when it is
// null the cost is one predictable-not-taken branch per site, no allocation,
// and the simulation trace is bit-identical to an obs-free build (the
// determinism audit's obs-on row and tests/test_engine_workspace.cpp pin
// this down). One Obs may observe several engine runs; counters accumulate
// across them.
//
// The handle pre-registers every engine metric at construction so the hot
// path only ever touches integer ids (see MetricsRegistry's register-once
// rule). Aggregation (snapshot(), write()) is only valid at quiescent
// points — between Engine::step calls or after a run.
#pragma once

#include <cstdint>
#include <string>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace udwn {

struct ObsConfig {
  /// Trace ring capacity per writer thread (events; 24 bytes each).
  std::size_t ring_capacity = std::size_t{1} << 16;
  /// When false, no trace events are emitted (counters still accumulate);
  /// use for metrics-only runs where even ring writes are unwanted.
  bool events = true;
  /// Poll every protocol's obs_state() once per round and emit a
  /// state-transition event on change. This is the expensive tier of the
  /// handle — one virtual call per node per round, O(n) on top of a slot
  /// pipeline that is otherwise sublinear in quiet regions — so it is off
  /// by default; the 5% overhead gate (tools/obs_overhead_check.py) covers
  /// the default tier, and BM_EngineRoundObsStates documents this one.
  bool state_transitions = false;
  /// Emit a kShardSpan trace event from each thread that runs a chunk of
  /// the gain-table field driver (interference_field_planned). Off by
  /// default: worker-side events land in per-thread rings whose merge order
  /// is scheduling-dependent, so the default trace stream stays
  /// bit-identical across thread counts (the obs-on audit row relies on
  /// this). Turn on for udwn_trace's per-worker shard-timing view.
  bool worker_spans = false;
};

/// Ids of every metric the engine layers write. Registered once in the Obs
/// constructor; instrumentation sites index straight into the registry.
struct EngineCounterIds {
  // Engine (per slot / per round, engine thread).
  MetricId slots = kInvalidMetric;
  MetricId rounds = kInvalidMetric;
  MetricId transmissions = kInvalidMetric;
  MetricId deliveries = kInvalidMetric;
  MetricId mass_deliveries = kInvalidMetric;
  MetricId collisions = kInvalidMetric;
  MetricId clear_slots = kInvalidMetric;
  MetricId state_transitions = kInvalidMetric;
  // Channel decode paths.
  MetricId decode_scatter_slots = kInvalidMetric;
  MetricId decode_gather_slots = kInvalidMetric;
  MetricId decode_far_slots = kInvalidMetric;
  // GainTable (published as per-round deltas by the engine).
  MetricId gain_hits = kInvalidMetric;
  MetricId gain_misses = kInvalidMetric;
  MetricId gain_evictions = kInvalidMetric;
  MetricId gain_fills = kInvalidMetric;
  MetricId gain_cells = kInvalidMetric;
  MetricId gain_fallbacks = kInvalidMetric;
  MetricId gain_disabled_binds = kInvalidMetric;
  // TaskPool (published as per-round deltas by the engine).
  MetricId pool_jobs = kInvalidMetric;
  MetricId pool_chunks = kInvalidMetric;
  MetricId pool_idle_ns = kInvalidMetric;
  MetricId pool_wait_ns = kInvalidMetric;
  // Histograms.
  MetricId hist_contention = kInvalidMetric;  // transmitters per data slot
  MetricId hist_deliveries = kInvalidMetric;  // deliveries per data slot
  // Stage wall times in nanoseconds (StageTimer, engine thread): the
  // dynamics step plus topology delta once per round, and the transmitter
  // sampling sweep, resolve_into and the feedback sweep once per slot.
  MetricId hist_stage_dynamics = kInvalidMetric;
  MetricId hist_stage_sample = kInvalidMetric;
  MetricId hist_stage_resolve = kInvalidMetric;
  MetricId hist_stage_feedback = kInvalidMetric;
};

class Obs {
 public:
  explicit Obs(ObsConfig config = {});
  Obs(const Obs&) = delete;
  Obs& operator=(const Obs&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] TraceSink& trace() { return trace_; }
  [[nodiscard]] const EngineCounterIds& ids() const { return ids_; }
  [[nodiscard]] bool events_enabled() const { return config_.events; }
  [[nodiscard]] const ObsConfig& config() const { return config_; }

  /// Hot-path helper: emit iff event tracing is on.
  void emit(const TraceEvent& event) {
    if (config_.events) trace_.emit(event);
  }

  /// Merge everything into a Trace (quiescent points only).
  [[nodiscard]] Trace snapshot() const;

  /// snapshot() + write_trace_file(). Returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  ObsConfig config_;
  MetricsRegistry metrics_;
  TraceSink trace_;
  EngineCounterIds ids_;
};

/// Records the wall time of its scope, in nanoseconds, into the stage
/// histogram `stage` of `obs`'s registry; inert when `obs` is null. The
/// clock read lives here so that the simulation layers time their stages
/// without reading a clock themselves (see clock.h). Observability only:
/// nothing reads the histograms back into a decision.
class StageTimer {
 public:
  StageTimer(Obs* obs, MetricId EngineCounterIds::*stage)
      : obs_(obs), stage_(stage), begin_(obs != nullptr ? obs_now_ns() : 0) {}
  ~StageTimer() {
    if (obs_ != nullptr)
      obs_->metrics().record(obs_->ids().*stage_, obs_now_ns() - begin_);
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Obs* obs_;
  MetricId EngineCounterIds::*stage_;
  std::uint64_t begin_;
};

}  // namespace udwn
