#include "obs/obs.h"

namespace udwn {

Obs::Obs(ObsConfig config)
    : config_(config), trace_(TraceSink::Config{config.ring_capacity}) {
  ids_.slots = metrics_.counter("engine.slots");
  ids_.rounds = metrics_.counter("engine.rounds");
  ids_.transmissions = metrics_.counter("engine.transmissions");
  ids_.deliveries = metrics_.counter("engine.deliveries");
  ids_.mass_deliveries = metrics_.counter("engine.mass_deliveries");
  ids_.collisions = metrics_.counter("engine.collisions_sensed");
  ids_.clear_slots = metrics_.counter("engine.clear_slots");
  ids_.state_transitions = metrics_.counter("engine.state_transitions");
  ids_.decode_scatter_slots = metrics_.counter("channel.decode_scatter_slots");
  ids_.decode_gather_slots = metrics_.counter("channel.decode_gather_slots");
  ids_.decode_far_slots = metrics_.counter("channel.decode_far_slots");
  ids_.gain_hits = metrics_.counter("gain_table.hits");
  ids_.gain_misses = metrics_.counter("gain_table.misses");
  ids_.gain_evictions = metrics_.counter("gain_table.evictions");
  ids_.gain_fills = metrics_.counter("gain_table.fills");
  ids_.gain_cells = metrics_.counter("gain_table.cells");
  ids_.gain_fallbacks = metrics_.counter("gain_table.fallbacks");
  ids_.gain_disabled_binds = metrics_.counter("gain_table.disabled_binds");
  ids_.pool_jobs = metrics_.counter("task_pool.jobs");
  ids_.pool_chunks = metrics_.counter("task_pool.chunks");
  ids_.pool_idle_ns = metrics_.counter("task_pool.worker_idle_ns");
  ids_.pool_wait_ns = metrics_.counter("task_pool.caller_wait_ns");
  ids_.hist_contention = metrics_.histogram("engine.contention_per_slot");
  ids_.hist_deliveries = metrics_.histogram("engine.deliveries_per_slot");
  ids_.hist_stage_dynamics = metrics_.histogram("engine.stage.dynamics_ns");
  ids_.hist_stage_sample = metrics_.histogram("engine.stage.sample_ns");
  ids_.hist_stage_resolve = metrics_.histogram("engine.stage.resolve_ns");
  ids_.hist_stage_feedback = metrics_.histogram("engine.stage.feedback_ns");
}

Trace Obs::snapshot() const {
  Trace trace;
  MetricsRegistry::Snapshot snap = metrics_.snapshot();
  trace.counters = std::move(snap.counters);
  trace.histograms = std::move(snap.histograms);
  trace.events = trace_.collect();
  trace.dropped = trace_.dropped();
  return trace;
}

bool Obs::write(const std::string& path) const {
  return write_trace_file(path, snapshot());
}

}  // namespace udwn
