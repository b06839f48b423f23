#include "sim/engine.h"

#include <algorithm>
#include <cmath>

#include "common/contract.h"
#include "obs/obs.h"
#include "sim/batch.h"

namespace udwn {

Engine::Engine(const Channel& channel, Network& network,
               const CarrierSensing& sensing,
               std::span<const std::unique_ptr<Protocol>> protocols,
               EngineConfig config)
    : channel_(&channel),
      network_(&network),
      sensing_(&sensing),
      protocols_(protocols),
      config_(config),
      rng_(config.seed),
      workspace_(SlotWorkspaceConfig{
          .gain_budget_bytes = config.gain_budget_bytes,
          .far_field_eps = config.far_field_eps,
          .far_field_cell_factor = config.far_field_cell_factor,
          .threads = config.threads,
          .obs = config.obs}) {
  UDWN_EXPECT(protocols_.size() == network.size());
  UDWN_EXPECT(config_.slots_per_round >= 1 &&
              config_.slots_per_round <= static_cast<int>(kSlotsPerRound));
  UDWN_EXPECT(config_.drift_bound >= 1);
  UDWN_EXPECT(config_.threads >= 1);

  const std::size_t n = network.size();
  tx_payload_.assign(n, 0);
  node_rng_.reserve(n);
  clock_rate_.resize(n, 1.0);
  clock_progress_.resize(n, 0.0);
  fired_.assign(n, 0);
  last_probability_.assign(n, 0.0);
  data_live_.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    node_rng_.push_back(rng_.split());
    if (config_.async) {
      const double period = node_rng_.back().uniform(1.0, config_.drift_bound);
      clock_rate_[v] = 1.0 / period;
      clock_progress_[v] = node_rng_.back().uniform();  // random phase
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    UDWN_EXPECT(protocols_[v] != nullptr);
    if (network.alive(NodeId(static_cast<std::uint32_t>(v))))
      protocols_[v]->on_start();
  }
  // Shard the per-node sweeps only when every protocol declares isolation;
  // churn restarts these same objects, so the answer holds for the run.
  // Chunk buffers are reserved here, to their chunk's length.
  TaskPool* const pool = workspace_.pool();
  bool isolated = pool != nullptr;
  for (std::size_t v = 0; isolated && v < n; ++v)
    isolated = protocols_[v]->isolated();
  if (isolated) {
    sweep_pool_ = pool;
    sweep_chunks_.resize(static_cast<std::size_t>(pool->threads()));
    transmitters_.reserve(n);
    sweep_probability_.assign(n, 0.0);
  } else {
    sweep_chunks_.resize(1);
  }
  const std::size_t chunk_length =
      (n + sweep_chunks_.size() - 1) / sweep_chunks_.size();
  const bool events = config_.obs != nullptr && config_.obs->events_enabled();
  for (SweepChunk& chunk : sweep_chunks_) {
    chunk.transmitters.reserve(chunk_length);
    if (sweep_pool_ != nullptr) chunk.retired.reserve(chunk_length);
    if (events) chunk.receivers.resize(chunk_length);
  }
  if (config_.obs != nullptr && config_.obs->config().state_transitions) {
    // Baseline for state-transition events: the post-on_start states.
    obs_state_.resize(n);
    for (std::size_t v = 0; v < n; ++v)
      obs_state_[v] = protocols_[v]->obs_state();
  }
  // Armed only with an Obs handle attached: the tap reads the registry at
  // round boundaries, and without a handle there is nothing to read.
  if (config_.obs != nullptr) tap_ = MetricsTap::from_env();
}

Protocol& Engine::protocol(NodeId v) const {
  UDWN_EXPECT(v.value < protocols_.size());
  return *protocols_[v.value];
}

double Engine::last_probability(NodeId v) const {
  UDWN_EXPECT(v.value < last_probability_.size());
  return last_probability_[v.value];
}

bool Engine::clock_fired(NodeId v) const {
  UDWN_EXPECT(v.value < fired_.size());
  return fired_[v.value] != 0;
}

void Engine::step() {
  const std::size_t n = network_->size();

  {
    StageTimer timer(config_.obs, &EngineCounterIds::hist_stage_dynamics);
    if (dynamics_ != nullptr) {
      const ChangeSet changes = dynamics_->step(*network_, rng_, round_);
      // Arrivals restart from the protocol's initial configuration (Sec. 2).
      for (NodeId v : changes.arrivals) protocols_[v.value]->on_start();
    }
  }

  // Slot 0 is the Data slot; its sampling sweep also advances the local
  // clocks (see sample_sweep).
  for (int s = 0; s < config_.slots_per_round; ++s)
    run_slot(static_cast<Slot>(s));

  if (config_.obs != nullptr) {
    // State-transition detection runs after all slots, on the engine
    // thread, comparing against the previous round's snapshot. Arrivals are
    // covered too: on_start may have changed obs_state since last round.
    // The sweep polls a virtual obs_state() per node per round — the
    // expensive tier of the handle, guarded by ObsConfig::state_transitions
    // (obs_state_ is sized only when that is set).
    Obs& obs = *config_.obs;
    std::uint64_t transitions = 0;
    if (!obs_state_.empty()) {
      for (std::size_t v = 0; v < n; ++v) {
        const std::uint32_t cur = protocols_[v]->obs_state();
        if (cur != obs_state_[v]) {
          ++transitions;
          obs.emit(TraceEvent{.round = static_cast<std::uint32_t>(round_),
                              .kind = static_cast<std::uint16_t>(
                                  EventKind::kStateTransition),
                              .slot = static_cast<std::uint8_t>(
                                  config_.slots_per_round),
                              .node = static_cast<std::uint32_t>(v),
                              .aux = obs_state_[v],
                              .value = cur});
          obs_state_[v] = cur;
        }
      }
    }
    publish_round_obs(transitions, network_->alive_count());
    if (tap_.enabled())
      tap_.on_round(*config_.obs, static_cast<std::uint64_t>(round_) + 1);
  }

  ++round_;
  if (recorder_ != nullptr) recorder_->on_round_end(round_, *this);
  // Budget cancellation point for BatchRunner::run_checked trials: a
  // thread-local load + null test when no budget is installed (the common
  // case), so plain runs are unaffected.
  trial_round_checkpoint();
}

void Engine::publish_round_obs(std::uint64_t transitions,
                               std::uint64_t alive) {
  Obs& obs = *config_.obs;
  MetricsRegistry& m = obs.metrics();
  const EngineCounterIds& ids = obs.ids();
  m.add(ids.rounds, 1);
  m.add(ids.state_transitions, transitions);

  // The gain table and pool keep cheap lifetime counters; the registry gets
  // per-round deltas so several engines can share one Obs.
  {
    // Read the table whether or not caching is enabled: disabled_binds is
    // nonzero exactly when gains() is null (budget below one row of tiles).
    const GainTable::Stats cur = workspace_.cache().gains_storage().stats();
    m.add(ids.gain_hits, cur.hits - last_gain_stats_.hits);
    m.add(ids.gain_misses, cur.misses - last_gain_stats_.misses);
    m.add(ids.gain_evictions, cur.evictions - last_gain_stats_.evictions);
    m.add(ids.gain_fills, cur.fills - last_gain_stats_.fills);
    m.add(ids.gain_cells, cur.cells - last_gain_stats_.cells);
    m.add(ids.gain_fallbacks, cur.fallbacks - last_gain_stats_.fallbacks);
    m.add(ids.gain_disabled_binds,
          cur.disabled_binds - last_gain_stats_.disabled_binds);
    last_gain_stats_ = cur;
  }
  if (TaskPool* pool = workspace_.pool()) {
    const TaskPool::Stats cur = pool->stats();
    m.add(ids.pool_jobs, cur.jobs - last_pool_stats_.jobs);
    m.add(ids.pool_chunks, cur.chunks - last_pool_stats_.chunks);
    m.add(ids.pool_idle_ns,
          cur.worker_idle_ns - last_pool_stats_.worker_idle_ns);
    m.add(ids.pool_wait_ns,
          cur.caller_wait_ns - last_pool_stats_.caller_wait_ns);
    last_pool_stats_ = cur;
  }

  obs.emit(TraceEvent{
      .round = static_cast<std::uint32_t>(round_),
      .kind = static_cast<std::uint16_t>(EventKind::kRoundEnd),
      .slot = static_cast<std::uint8_t>(config_.slots_per_round),
      .node = static_cast<std::uint32_t>(alive),
      .value = transitions});
}

template <typename Body>
void Engine::for_each_sweep_chunk(const Body& body) {
  const std::size_t n = network_->size();
  if (sweep_pool_ == nullptr) {
    body(std::size_t{0}, n, sweep_chunks_[0]);
    return;
  }
  // Chunk c covers ids [c·length, (c+1)·length) ∩ [0, n): one pool chunk
  // per SweepChunk, so a chunk's buffers are touched by one thread a job.
  const std::size_t chunks = sweep_chunks_.size();
  const std::size_t length = (n + chunks - 1) / chunks;
  auto run = [&](std::size_t first, std::size_t last) {
    for (std::size_t c = first; c < last; ++c)
      body(std::min(n, c * length), std::min(n, (c + 1) * length),
           sweep_chunks_[c]);
  };
  sweep_pool_->run_chunks(0, chunks, run);
}

void Engine::sample_sweep(std::size_t lo, std::size_t hi, Slot slot,
                          double* probability, SweepChunk& out) {
  // The sweeps read the alive mask directly: Network::alive is out of line,
  // a call per node.
  const std::span<const std::uint8_t> alive = network_->alive_mask();
  const bool data = slot == Slot::Data;
  // A node whose fired Data-slot probability drops to 0, or that departs,
  // has (in LocalBcast) stopped for good: its gain rows go to the eviction
  // end of the table. Residency only — no gain or decision changes — and a
  // node that transmits again simply refills its rows. A chunk on the pool
  // only lists the node; run_slot demotes the lists after the sweep.
  TopologyCache& cache = workspace_.cache();
  std::vector<NodeId>& retired = out.retired;
  std::vector<NodeId>& tx = out.transmitters;
  retired.clear();
  tx.clear();
  const auto retire = [&](NodeId id) {
    if (!data_live_[id.value]) return;
    data_live_[id.value] = 0;
    if (sweep_pool_ == nullptr) {
      cache.demote(id);
    } else {
      retired.push_back(id);  // udwn-lint: allow(hot-path-alloc): reserved
    }
  };
  // Payloads are captured at transmission time: feedback delivery may
  // mutate protocol state before all receivers have been served. Only this
  // slot's transmitters are written, and only a decoded sender — one of
  // them — is read, so stale entries of earlier slots are never seen.
  for (std::size_t v = lo; v < hi; ++v) {
    const NodeId id(static_cast<std::uint32_t>(v));
    if (!alive[v]) {
      if (data) {
        fired_[v] = 0;
        probability[v] = 0;
        retire(id);
      }
      continue;
    }
    if (data) {
      // Advance the local clock: once per round, before any slot reads it.
      if (config_.async) {
        const double before = clock_progress_[v];
        clock_progress_[v] += clock_rate_[v];
        fired_[v] = static_cast<std::uint8_t>(
            std::floor(clock_progress_[v]) > std::floor(before));
      } else {
        fired_[v] = 1;
      }
    }
    double p = 0;
    if (fired_[v]) {
      p = protocols_[v]->transmit_probability(slot);
      UDWN_EXPECT(p >= 0 && p <= 1);
      if (data) {
        if (p > 0) {
          data_live_[v] = 1;
        } else {
          retire(id);
        }
      }
    }
    if (data) probability[v] = p;
    if (p > 0 && node_rng_[v].chance(p)) {
      tx.push_back(id);  // udwn-lint: allow(hot-path-alloc): reserve-backed
      tx_payload_[v] = protocols_[v]->payload(slot);
    }
  }
}

void Engine::feedback_sweep(std::size_t lo, std::size_t hi, Slot slot,
                            const SlotOutcome& outcome, SweepChunk& out) {
  const std::span<const std::uint8_t> alive = network_->alive_mask();
  const std::span<const std::uint8_t> is_tx = workspace_.transmitting();
  const QuasiMetric& metric = channel_->metric();
  const bool count_obs = config_.obs != nullptr;
  NodeId* const receivers =
      out.receivers.empty() ? nullptr : out.receivers.data();
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  for (std::size_t v = lo; v < hi; ++v) {
    const NodeId id(static_cast<std::uint32_t>(v));
    if (!alive[v]) continue;
    SlotFeedback fb;
    fb.slot = slot;
    fb.local_round = fired_[v] != 0;
    const bool transmitted = is_tx[v] != 0;
    fb.transmitted = transmitted;
    fb.busy = sensing_->busy(outcome.interference[v]);
    fb.ack = transmitted && sensing_->ack(outcome.interference[v]);
    const NodeId sender = outcome.decoded_from[v];
    UDWN_ASSERT(!sender.valid() || sender.value < tx_payload_.size());
    fb.received = sender.valid();
    fb.sender = sender;
    fb.payload = fb.received ? tx_payload_[sender.value] : 0;
    fb.ntd = fb.received && sensing_->ntd(metric.distance(sender, id));
    if (count_obs) {
      // Counter accumulation rides in this loop because every input is
      // already in registers; a separate counting pass would re-load 24 KB
      // of outcome arrays per slot at n = 2048. Branchless on purpose: the
      // collision predicate (a listener that sensed energy but decoded
      // nothing) holds for roughly half the nodes of a contended slot and
      // a branch would mispredict its way through the loop. For the same
      // reason the receivers for run_slot's delivery events are compacted
      // by a store at the count, which advances only on a reception.
      if (receivers != nullptr) receivers[deliveries] = id;
      deliveries += static_cast<std::uint64_t>(fb.received);
      collisions += static_cast<std::uint64_t>(
          static_cast<unsigned>(fb.busy) &
          static_cast<unsigned>(!transmitted) &
          static_cast<unsigned>(!fb.received));
    }
    protocols_[v]->on_slot(fb);
  }
  out.deliveries = deliveries;
  out.collisions = collisions;
}

void Engine::run_slot(Slot slot) {
  const std::span<const std::uint8_t> alive = network_->alive_mask();
  Obs* const obs = config_.obs;

  std::span<const NodeId> transmitters;
  {
    StageTimer timer(obs, &EngineCounterIds::hist_stage_sample);
    double* const probability = sweep_pool_ != nullptr
                                    ? sweep_probability_.data()
                                    : last_probability_.data();
    for_each_sweep_chunk(
        [&](std::size_t lo, std::size_t hi, SweepChunk& chunk) {
          sample_sweep(lo, hi, slot, probability, chunk);
        });
    if (sweep_pool_ == nullptr) {
      transmitters = sweep_chunks_[0].transmitters;
    } else {
      // Demotion reorders only the gain table's LRU list, which nothing in
      // the sweep reads, so demoting after it, in id order, is exact.
      TopologyCache& cache = workspace_.cache();
      for (const SweepChunk& chunk : sweep_chunks_)
        for (NodeId v : chunk.retired) cache.demote(v);
      // transmitters_ is reserved to n, the chunks' total capacity.
      std::vector<NodeId>& joined = transmitters_;
      joined.clear();
      for (const SweepChunk& chunk : sweep_chunks_) {
        const std::vector<NodeId>& part = chunk.transmitters;
        joined.insert(  // udwn-lint: allow(hot-path-alloc): reserve-backed
            joined.end(), part.begin(), part.end());
      }
      transmitters = transmitters_;
      if (slot == Slot::Data)
        std::copy(sweep_probability_.begin(), sweep_probability_.end(),
                  last_probability_.begin());
    }
  }

  const double power_scale =
      slot == Slot::Notify ? config_.notify_power_scale : 1.0;
  // Tag worker-emitted shard spans with this slot's position (pure
  // observability; resolve_into never reads it for any decision).
  if (obs != nullptr)
    workspace_.set_obs_slot(static_cast<std::uint32_t>(round_),
                            static_cast<std::uint8_t>(slot));
  const SlotOutcome* resolved = nullptr;
  {
    StageTimer timer(obs, &EngineCounterIds::hist_stage_resolve);
    resolved = &channel_->resolve_into(transmitters, alive, power_scale,
                                       workspace_);
  }
  const SlotOutcome& outcome = *resolved;

  {
    StageTimer timer(obs, &EngineCounterIds::hist_stage_feedback);
    for_each_sweep_chunk(
        [&](std::size_t lo, std::size_t hi, SweepChunk& chunk) {
          feedback_sweep(lo, hi, slot, outcome, chunk);
        });
  }

  if (obs != nullptr) {
    MetricsRegistry& m = obs->metrics();
    const EngineCounterIds& ids = obs->ids();
    std::uint64_t deliveries = 0;
    std::uint64_t collisions = 0;
    for (const SweepChunk& chunk : sweep_chunks_) {
      deliveries += chunk.deliveries;
      collisions += chunk.collisions;
    }
    // Inert unless events are on. Every event comes from this thread, and
    // the chunks' receivers join in id order, so the stream is the same
    // however the sweeps ran.
    TraceSink::Writer writer;
    if (obs->events_enabled()) {
      writer = obs->trace().writer();
      for (const SweepChunk& chunk : sweep_chunks_) {
        for (std::size_t k = 0; k < chunk.deliveries; ++k) {
          const NodeId v = chunk.receivers[k];
          const NodeId sender = outcome.decoded_from[v.value];
          writer.emit(TraceEvent{
              .round = static_cast<std::uint32_t>(round_),
              .kind = static_cast<std::uint16_t>(EventKind::kDelivery),
              .slot = static_cast<std::uint8_t>(slot),
              .node = v.value,
              .aux = sender.value,
              .value = tx_payload_[sender.value]});
        }
      }
    }
    m.add(ids.slots, 1);
    m.add(ids.transmissions, outcome.transmitters.size());
    m.add(ids.deliveries, deliveries);
    m.add(ids.collisions, collisions);
    std::uint64_t mass = 0;
    std::uint64_t clear = 0;
    for (NodeId u : outcome.transmitters) {
      clear += outcome.clear[u.value];
      if (outcome.mass_delivered[u.value] != 0) {
        ++mass;
        writer.emit(TraceEvent{
            .round = static_cast<std::uint32_t>(round_),
            .kind = static_cast<std::uint16_t>(EventKind::kMassDelivery),
            .slot = static_cast<std::uint8_t>(slot),
            .node = u.value});
      }
    }
    m.add(ids.mass_deliveries, mass);
    m.add(ids.clear_slots, clear);
    if (slot == Slot::Data) {
      m.record(ids.hist_contention, outcome.transmitters.size());
      m.record(ids.hist_deliveries, deliveries);
    }
    writer.emit(TraceEvent{
        .round = static_cast<std::uint32_t>(round_),
        .kind = static_cast<std::uint16_t>(EventKind::kSlotEnd),
        .slot = static_cast<std::uint8_t>(slot),
        .node = static_cast<std::uint32_t>(outcome.transmitters.size()),
        .aux = static_cast<std::uint32_t>(deliveries),
        .value = (collisions << 32) | mass});
  }

  if (recorder_ != nullptr)
    recorder_->on_slot(round_, slot, outcome, *this);
}

std::optional<Round> Engine::run_until(
    const std::function<bool(const Engine&)>& done, Round max_rounds) {
  UDWN_EXPECT(max_rounds >= 0);
  if (done(*this)) return round_;
  for (Round i = 0; i < max_rounds; ++i) {
    step();
    if (done(*this)) return round_;
  }
  return std::nullopt;
}

}  // namespace udwn
