// Engine workloads: lbcast-static-8k, bcast-dynamic-8k, far-field-64k.
//
// Each run builds instances through the public assembly API (topo
// generators, Scenario, make_protocols, Engine) and drives them with
// Engine::step. Work is split into episodes, each a fresh instance whose
// seed derives from the run seed: an episode is one LocalBcast solve, or a
// fixed number of rounds. Episodes repeat until the measurement budget is
// spent, so a faster program measures more episodes of the same sequence.
//
// Tracing is outside-in. A traced instance wraps every Protocol, the
// Dynamics and the Recorder; the wrappers read the clock only at slot
// boundaries (the first and the last alive node of a sweep, and the
// Recorder call that closes a slot), so a round splits into
//   dynamics | delta | tx sampling | resolve | feedback | recorder | rest
// without a clock read per node. Every run also checks its outputs:
// traced and untraced runs hash identically, threads=2 hashes like
// threads=1, and resolve_into agrees with the brute-force Channel::resolve.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/determinism.h"
#include "analysis/runner.h"
#include "analysis/scenario.h"
#include "bench.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/broadcast.h"
#include "core/local_broadcast.h"
#include "core/try_adjust.h"
#include "obs/obs.h"
#include "phy/far_field.h"
#include "phy/gain_table.h"
#include "phy/interference.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "topo/generators.h"

namespace perfbench {
namespace {

using namespace udwn;

enum class ProtoKind { kLocalBcast, kBcast, kFixedProb };

struct Spec {
  const char* name;
  std::size_t n;
  double density;  // nodes per unit area of the uniform square
  ProtoKind proto;
  int slots_per_round;
  int threads;
  double far_field_eps;
  double far_field_cell_factor;
  bool dynamics;
  /// Rounds per episode; 0 = run until every node finished (a solve).
  int episode_rounds;
  /// Round cap of a solve episode (a solve that hits it is a failure);
  /// unused by fixed-length episodes.
  int max_rounds;
  /// Prefix compared between traced and untraced runs.
  int check_rounds;
  /// Prefix compared between threads=1 and the workload's thread count.
  int thread_check_rounds;
  /// Slots whose resolve_into outcome is compared with Channel::resolve.
  int resolve_checks;
  /// Setup-only builds per run on top of the episodes' own setups.
  int extra_setups;
};

constexpr Spec kSpecs[] = {
    {.name = "lbcast-static-8k", .n = 8192, .density = 8,
     .proto = ProtoKind::kLocalBcast, .slots_per_round = 1, .threads = 1,
     .far_field_eps = 0, .far_field_cell_factor = 2.0, .dynamics = false,
     .episode_rounds = 0, .max_rounds = 20000, .check_rounds = 120,
     .thread_check_rounds = 0, .resolve_checks = 3, .extra_setups = 40},
    {.name = "bcast-dynamic-8k", .n = 8192, .density = 8,
     .proto = ProtoKind::kBcast, .slots_per_round = 2, .threads = 2,
     .far_field_eps = 0, .far_field_cell_factor = 2.0, .dynamics = true,
     .episode_rounds = 1000, .max_rounds = 0, .check_rounds = 300,
     .thread_check_rounds = 100, .resolve_checks = 3, .extra_setups = 40},
    {.name = "far-field-64k", .n = 65536, .density = 8,
     .proto = ProtoKind::kFixedProb, .slots_per_round = 1, .threads = 2,
     .far_field_eps = 0.25, .far_field_cell_factor = 0.5, .dynamics = false,
     .episode_rounds = 12, .max_rounds = 0, .check_rounds = 3,
     .thread_check_rounds = 2, .resolve_checks = 1, .extra_setups = 3},
};

constexpr double kTargetTx = 768.0;  // far-field-64k expected transmitters

/// Fixed transmit probability T/n, so contention stays near T whatever n
/// is and the round stresses the field, not the MAC dynamics.
class FixedProbProtocol final : public Protocol {
 public:
  explicit FixedProbProtocol(double p) : p_(p) {}
  double transmit_probability(Slot) override { return p_; }
  void on_slot(const SlotFeedback&) override {}

 private:
  double p_;
};

// --- Outside-in spans --------------------------------------------------------

/// Slot-boundary timestamps and per-span accumulators of one traced
/// instance. Written only from the engine thread (protocol calls, dynamics
/// and recorder hooks all run there).
struct SpanClock {
  std::uint32_t first = 0;  // first alive node id of the current round
  std::uint32_t last = 0;   // last alive node id of the current round
  int slot_in_round = 0;
  bool have_dynamics = false;
  std::int64_t round_begin = 0, dyn_end = 0, tx_first = 0, tx_last = 0,
               fb_first = 0;
  // Accumulated nanoseconds over traced rounds.
  double dynamics = 0, delta = 0, txsample = 0, resolve = 0, feedback = 0,
         recorder = 0, round = 0;
  std::uint64_t rounds = 0;
  std::uint64_t moved = 0, churned = 0;

  void refresh_alive(const Network& network) {
    const auto alive = network.alive_mask();
    std::uint32_t lo = 0;
    while (lo < alive.size() && alive[lo] == 0) ++lo;
    std::uint32_t hi = static_cast<std::uint32_t>(alive.size());
    while (hi > lo && alive[hi - 1] == 0) --hi;
    first = lo;
    last = hi == 0 ? 0 : hi - 1;
  }
};

class TracedProtocol final : public Protocol {
 public:
  TracedProtocol(std::unique_ptr<Protocol> inner, std::uint32_t id,
                 SpanClock* clock)
      : inner_(std::move(inner)), id_(id), clock_(clock) {}

  void on_start() override { inner_->on_start(); }
  double transmit_probability(Slot slot) override {
    if (id_ == clock_->first) {
      clock_->tx_first = now_ns();
      if (clock_->slot_in_round == 0)
        clock_->delta += static_cast<double>(
            clock_->tx_first - (clock_->have_dynamics ? clock_->dyn_end
                                                      : clock_->round_begin));
    }
    const double p = inner_->transmit_probability(slot);
    if (id_ == clock_->last) {
      clock_->tx_last = now_ns();
      clock_->txsample += static_cast<double>(clock_->tx_last -
                                              clock_->tx_first);
    }
    return p;
  }
  std::uint32_t payload(Slot slot) const override {
    return inner_->payload(slot);
  }
  void on_slot(const SlotFeedback& feedback) override {
    if (id_ == clock_->first) {
      clock_->fb_first = now_ns();
      clock_->resolve += static_cast<double>(clock_->fb_first -
                                             clock_->tx_last);
    }
    inner_->on_slot(feedback);
  }
  bool finished() const override { return inner_->finished(); }
  std::uint32_t obs_state() const override { return inner_->obs_state(); }

  [[nodiscard]] const Protocol& inner() const { return *inner_; }

 private:
  std::unique_ptr<Protocol> inner_;
  std::uint32_t id_;
  SpanClock* clock_;
};

class TracedDynamics final : public Dynamics {
 public:
  TracedDynamics(Dynamics* inner, SpanClock* clock)
      : inner_(inner), clock_(clock) {}
  ChangeSet step(Network& network, Rng& rng, Round round) override {
    const std::int64_t begin = now_ns();
    ChangeSet changes = inner_->step(network, rng, round);
    clock_->dyn_end = now_ns();
    clock_->dynamics += static_cast<double>(clock_->dyn_end - begin);
    clock_->moved += changes.moved.size();
    clock_->churned += changes.arrivals.size() + changes.departures.size();
    clock_->refresh_alive(network);
    return changes;
  }

 private:
  Dynamics* inner_;
  SpanClock* clock_;
};

/// Counts the simulated-statistics fingerprint and, when traced, closes the
/// feedback span. On check replicas it also hashes the trace
/// (TraceHashRecorder) and compares sampled slots with the brute-force
/// Channel::resolve; that extra work is timed separately so a replica's
/// round time stays comparable with a timed episode's. Traced episodes keep
/// sampled transmitter sets for the field replay.
class BenchRecorder final : public Recorder {
 public:
  struct Counts {
    std::uint64_t slots = 0, transmissions = 0, deliveries = 0,
                  collisions = 0, clear = 0, mass = 0;
    bool operator==(const Counts&) const = default;
  };
  Counts counts;
  SpanClock* clock = nullptr;

  // Check replicas only.
  bool hashing = false;
  TraceHashRecorder hash;
  double extra_ns = 0;  // hashing and reference comparisons

  /// Counts as they stood after round `snapshot_round` (1-based).
  Round snapshot_round = -1;
  Counts snapshot;

  // Field-replay sampling (traced runs): every `sample_every`-th slot.
  std::uint64_t sample_every = 0;
  std::size_t max_samples = 0;
  std::vector<std::vector<NodeId>> samples;

  // Reference comparison: slots of round >= resolve_from with transmitters.
  int resolve_left = 0;
  Round resolve_from = 0;
  double far_eps = 0;
  std::vector<std::string> resolve_failures;
  int resolve_done = 0;

  void on_slot(Round round, Slot slot, const SlotOutcome& outcome,
               const Engine& engine) override {
    std::int64_t begin = 0;
    if (clock != nullptr) {
      begin = now_ns();
      clock->feedback += static_cast<double>(begin - clock->fb_first);
    }
    count(outcome, engine);
    if (sample_every != 0 && samples.size() < max_samples &&
        counts.slots % sample_every == 0 && !outcome.transmitters.empty())
      samples.push_back(outcome.transmitters);
    if (hashing) {
      const std::int64_t t = now_ns();
      hash.on_slot(round, slot, outcome, engine);
      if (resolve_left > 0 && round >= resolve_from &&
          !outcome.transmitters.empty()) {
        --resolve_left;
        ++resolve_done;
        compare_reference(outcome, engine);
      }
      extra_ns += static_cast<double>(now_ns() - t);
    }
    if (clock != nullptr) {
      clock->recorder += static_cast<double>(now_ns() - begin);
      ++clock->slot_in_round;
    }
  }
  void on_round_end(Round round, const Engine& engine) override {
    if (round == snapshot_round) snapshot = counts;
    if (hashing) {
      const std::int64_t t = now_ns();
      hash.on_round_end(round, engine);
      extra_ns += static_cast<double>(now_ns() - t);
    }
  }

 private:
  void count(const SlotOutcome& outcome, const Engine& engine) {
    ++counts.slots;
    counts.transmissions += outcome.transmitters.size();
    const auto alive = engine.network().alive_mask();
    const CarrierSensing& sensing = engine.sensing();
    std::uint64_t got = 0, busy_silent = 0;
    for (std::size_t v = 0; v < alive.size(); ++v) {
      if (alive[v] == 0) continue;
      const bool received = outcome.decoded_from[v].valid();
      got += received ? 1 : 0;
      busy_silent +=
          (!received && sensing.busy(outcome.interference[v])) ? 1 : 0;
    }
    // Transmitters never decode (half-duplex), so the busy-but-silent count
    // above includes every busy transmitter; remove them.
    for (NodeId u : outcome.transmitters) {
      busy_silent -= sensing.busy(outcome.interference[u.value]) ? 1 : 0;
      counts.clear += outcome.clear[u.value];
      counts.mass += outcome.mass_delivered[u.value] != 0 ? 1 : 0;
    }
    counts.deliveries += got;
    counts.collisions += busy_silent;
  }

  void compare_reference(const SlotOutcome& outcome, const Engine& engine) {
    const std::size_t n = engine.network().size();
    if (outcome.interference.size() != n) {
      resolve_failures.push_back("field size differs");
      return;
    }
    if (far_eps > 0) {
      // Far field: only the certified bound |far - exact| <= eps * exact,
      // against the exact field (the brute-force resolve would spend
      // seconds re-deriving decisions the far field does not promise).
      TaskPool pool(2);
      std::vector<double> exact;
      interference_field_into(engine.channel().metric(),
                              engine.channel().pathloss(),
                              outcome.transmitters, exact, &pool);
      for (std::size_t v = 0; v < n; ++v) {
        const double err = std::fabs(outcome.interference[v] - exact[v]);
        if (err > far_eps * exact[v] * (1 + 1e-12)) {
          resolve_failures.push_back("far field outside eps at node " +
                                     std::to_string(v));
          return;
        }
      }
      return;
    }
    const SlotOutcome ref = engine.channel().resolve(
        outcome.transmitters, engine.network().alive_mask(), 1.0);
    const bool same =
        ref.interference.size() == n &&
        std::memcmp(ref.interference.data(), outcome.interference.data(),
                    n * sizeof(double)) == 0 &&
        ref.decoded_from == outcome.decoded_from &&
        ref.mass_delivered == outcome.mass_delivered &&
        ref.clear == outcome.clear && ref.transmitters == outcome.transmitters;
    if (!same) resolve_failures.push_back("resolve_into != resolve");
  }
};

// --- Instances ---------------------------------------------------------------

struct SetupTimes {
  double topo_ns = 0, scenario_ns = 0, protocols_ns = 0, engine_ns = 0,
         first_round_ns = 0;
  [[nodiscard]] double total_ns() const {
    return topo_ns + scenario_ns + protocols_ns + engine_ns + first_round_ns;
  }
};

struct Instance {
  const Spec* spec = nullptr;
  std::unique_ptr<Scenario> scenario;
  std::vector<std::unique_ptr<Protocol>> protocols;
  std::optional<CarrierSensing> sensing;
  std::unique_ptr<WaypointMobility> mobility;
  std::unique_ptr<ChurnDynamics> churn;
  std::unique_ptr<CompositeDynamics> dynamics;
  std::unique_ptr<SpanClock> clock;  // traced instances only
  std::unique_ptr<TracedDynamics> traced_dynamics;
  std::unique_ptr<Obs> obs;  // traced instances only
  BenchRecorder recorder;
  std::unique_ptr<Engine> engine;
  SetupTimes times;
  /// Obs counters after the set-up round (traced instances).
  MetricsRegistry::Snapshot obs_base;
  std::size_t next_unfinished = 0;  // monotone completion cursor

  [[nodiscard]] const Protocol& node(std::size_t v) const {
    const Protocol& p = *protocols[v];
    return clock != nullptr ? static_cast<const TracedProtocol&>(p).inner()
                            : p;
  }

  /// How many alive nodes are done (LocalBcast finished, Bcast informed;
  /// the fixed-probability protocol never finishes).
  [[nodiscard]] std::size_t done_count() const {
    std::size_t done = 0;
    const Network& network = scenario->network();
    for (std::size_t v = 0; v < protocols.size(); ++v) {
      if (!network.alive(NodeId(static_cast<std::uint32_t>(v)))) continue;
      const Protocol& p = node(v);
      const bool d =
          spec->proto == ProtoKind::kBcast
              ? static_cast<const BcastProtocol&>(p).informed()
              : p.finished();
      done += d ? 1 : 0;
    }
    return done;
  }

  /// The between-rounds read path: a contention snapshot, the sum of the
  /// transmit probabilities alive nodes used in the last data slot (the
  /// quantity Sec. 3 bounds), read through the public Engine accessors.
  [[nodiscard]] double contention() const {
    double sum = 0;
    const Network& network = scenario->network();
    for (std::uint32_t v = 0; v < network.size(); ++v)
      if (network.alive(NodeId(v))) sum += engine->last_probability(NodeId(v));
    return sum;
  }

  /// Static LocalBcast: every node finished (finished is monotone without
  /// churn, so a cursor makes the per-round test amortized O(1)).
  bool all_finished() {
    while (next_unfinished < protocols.size() &&
           protocols[next_unfinished]->finished())
      ++next_unfinished;
    return next_unfinished == protocols.size();
  }

  void step() {
    if (clock == nullptr) {
      engine->step();
      return;
    }
    clock->slot_in_round = 0;
    clock->have_dynamics = dynamics != nullptr;
    clock->round_begin = now_ns();
    engine->step();
    clock->round += static_cast<double>(now_ns() - clock->round_begin);
    ++clock->rounds;
  }
};

std::unique_ptr<Instance> build(const Spec& spec, std::uint64_t seed,
                                bool traced, int threads,
                                bool hashing = false) {
  auto inst = std::make_unique<Instance>();
  inst->spec = &spec;
  const std::size_t n = spec.n;
  const double extent = std::sqrt(static_cast<double>(n) / spec.density);

  std::int64_t t0 = now_ns();
  Rng topo_rng(seed);
  std::vector<Vec2> points = uniform_square(n, extent, topo_rng);
  if (spec.proto == ProtoKind::kBcast) {
    // Source (node 0) nearest the centre, so the broadcast wave has the
    // same room to grow on every seed.
    const Vec2 centre{extent / 2, extent / 2};
    std::size_t best = 0;
    for (std::size_t v = 1; v < n; ++v)
      if (distance(points[v], centre) < distance(points[best], centre))
        best = v;
    std::swap(points[0], points[best]);
  }
  std::int64_t t1 = now_ns();
  inst->times.topo_ns = static_cast<double>(t1 - t0);

  inst->scenario = std::make_unique<Scenario>(std::move(points),
                                              ScenarioConfig{});
  t0 = now_ns();
  inst->times.scenario_ns = static_cast<double>(t0 - t1);

  if (traced) inst->clock = std::make_unique<SpanClock>();
  SpanClock* clock = inst->clock.get();
  const double p_fixed = std::min(1.0, kTargetTx / static_cast<double>(n));
  inst->protocols = make_protocols(n, [&](NodeId id) {
    std::unique_ptr<Protocol> p;
    switch (spec.proto) {
      case ProtoKind::kLocalBcast:
        p = std::make_unique<LocalBcastProtocol>(TryAdjust::standard(n, 1.0));
        break;
      case ProtoKind::kBcast:
        p = std::make_unique<BcastProtocol>(TryAdjust::standard(n, 2.0),
                                            BcastProtocol::Mode::Dynamic,
                                            /*source=*/id == NodeId{0});
        break;
      case ProtoKind::kFixedProb:
        p = std::make_unique<FixedProbProtocol>(p_fixed);
        break;
    }
    if (clock != nullptr)
      p = std::make_unique<TracedProtocol>(std::move(p), id.value, clock);
    return p;
  });
  inst->sensing.emplace(spec.proto == ProtoKind::kBcast
                            ? inst->scenario->sensing_broadcast()
                            : inst->scenario->sensing_local());
  if (spec.dynamics) {
    inst->mobility = std::make_unique<WaypointMobility>(
        *inst->scenario->euclidean(),
        WaypointMobility::Config{.speed = 0.01,
                                 .extent = extent,
                                 .mobile_fraction = 1.0 / 32.0});
    inst->churn = std::make_unique<ChurnDynamics>(
        ChurnDynamics::Config{.arrival_rate = 1,
                              .departure_rate = 1,
                              .placement_extent = extent,
                              .pinned = {NodeId{0}}});
    inst->dynamics = std::make_unique<CompositeDynamics>(
        std::vector<Dynamics*>{inst->mobility.get(), inst->churn.get()});
  }
  if (traced) inst->obs = std::make_unique<Obs>(ObsConfig{.events = false});
  t1 = now_ns();
  inst->times.protocols_ns = static_cast<double>(t1 - t0);

  inst->engine = std::make_unique<Engine>(
      inst->scenario->channel(), inst->scenario->network(), *inst->sensing,
      inst->protocols,
      EngineConfig{.slots_per_round = spec.slots_per_round,
                   .seed = mix_seed(seed, 7),
                   .threads = threads,
                   .far_field_eps = spec.far_field_eps,
                   .far_field_cell_factor = spec.far_field_cell_factor,
                   .obs = inst->obs.get()});
  if (inst->dynamics != nullptr) {
    if (traced) {
      inst->traced_dynamics =
          std::make_unique<TracedDynamics>(inst->dynamics.get(), clock);
      inst->engine->set_dynamics(inst->traced_dynamics.get());
    } else {
      inst->engine->set_dynamics(inst->dynamics.get());
    }
  }
  inst->recorder.clock = clock;
  inst->recorder.hashing = hashing;
  inst->engine->set_recorder(&inst->recorder);
  if (clock != nullptr) clock->refresh_alive(inst->scenario->network());
  t0 = now_ns();
  inst->times.engine_ns = static_cast<double>(t0 - t1);

  inst->step();  // the first round belongs to set-up
  inst->times.first_round_ns = static_cast<double>(now_ns() - t0);
  if (clock != nullptr) {
    // Spans and per-round counters cover measured rounds only.
    *clock = SpanClock{};
    clock->refresh_alive(inst->scenario->network());
    inst->obs_base = inst->obs->metrics().snapshot();
  }
  return inst;
}

std::uint64_t counter(const MetricsRegistry::Snapshot& snapshot,
                      const std::string& name) {
  for (const auto& [key, value] : snapshot.counters)
    if (key == name) return value;
  return 0;
}

/// Obs counter `name` over the measured rounds of a traced instance.
std::uint64_t measured_counter(const Instance& inst, const std::string& name) {
  return counter(inst.obs->metrics().snapshot(), name) -
         counter(inst.obs_base, name);
}

/// Steps `inst` `rounds` rounds (check replicas).
void run_rounds(Instance& inst, int rounds) {
  for (int r = 0; r < rounds; ++r) inst.step();
}

bool prefix_equal(const TraceHashRecorder& a, const TraceHashRecorder& b,
                  std::size_t rounds) {
  const auto& ha = a.round_hashes();
  const auto& hb = b.round_hashes();
  if (ha.size() < rounds || hb.size() < rounds) return false;
  return std::equal(ha.begin(), ha.begin() + static_cast<long>(rounds),
                    hb.begin());
}

/// Times the field alone on sampled transmitter sets: the SoA kernel over a
/// warm GainTable (exact workloads) or FarFieldWorkspace::field_into.
/// Returns mean nanoseconds per slot.
double field_replay_ns(const Spec& spec, Scenario& scenario,
                       const std::vector<std::vector<NodeId>>& samples) {
  if (samples.empty()) return 0;
  std::unique_ptr<TaskPool> pool;
  if (spec.threads > 1) pool = std::make_unique<TaskPool>(spec.threads);
  std::vector<double> field;
  std::vector<double> times;
  if (spec.far_field_eps > 0) {
    const auto params = far_field_params(
        spec.far_field_eps,
        spec.far_field_cell_factor * scenario.model().max_range(),
        scenario.pathloss());
    if (!params) return 0;
    FarFieldWorkspace ws;
    for (const auto& txs : samples) {
      ws.field_into(*scenario.euclidean(), scenario.pathloss(), txs, *params,
                    field, pool.get());  // warm
      const std::int64_t t = now_ns();
      ws.field_into(*scenario.euclidean(), scenario.pathloss(), txs, *params,
                    field, pool.get());
      times.push_back(static_cast<double>(now_ns() - t));
    }
  } else {
    GainTable gains;
    gains.bind(scenario.metric(), scenario.pathloss());
    std::vector<const double*> scratch;
    for (const auto& txs : samples) {
      if (!gains.ensure_rows(txs, pool.get())) continue;
      interference_field_soa(gains, txs, scratch, field, pool.get());  // warm
      const std::int64_t t = now_ns();
      interference_field_soa(gains, txs, scratch, field, pool.get());
      times.push_back(static_cast<double>(now_ns() - t));
    }
  }
  return mean(times);
}

/// Output checks on episode 0's instance, rebuilt with the trace hash on:
/// an untraced and a traced replica must hash the same over check_rounds
/// (the wrappers are transparent), the untraced replica's counts must equal
/// the timed episode's over the same prefix (the timed run followed the
/// hashed trajectory), sampled slots must match the brute-force reference,
/// and the threads=1 replica must hash like the workload's thread count.
/// Returns the untraced replica's time for rounds 2..check_rounds, hashing
/// and reference comparisons excluded.
double check_replicas(const Spec& spec, std::uint64_t seed,
                      const BenchRecorder::Counts& timed_prefix,
                      Result& result) {
  const int rounds = spec.check_rounds;
  const std::string prefix = " over " + std::to_string(rounds) + " rounds";
  auto plain = build(spec, seed, false, spec.threads, true);
  BenchRecorder& ref = plain->recorder;
  ref.snapshot_round = rounds;
  ref.resolve_left = spec.resolve_checks;
  ref.resolve_from = rounds / 2;
  ref.far_eps = spec.far_field_eps;
  const double extra_before = ref.extra_ns;
  const std::int64_t begin = now_ns();
  run_rounds(*plain, rounds - 1);
  const double plain_ns = static_cast<double>(now_ns() - begin) -
                          (ref.extra_ns - extra_before);

  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(ref.hash.final_hash()));
  result.notes.push_back("trace hash" + prefix + ": " + hash);
  result.check(ref.snapshot == timed_prefix,
               "timed episode counts equal the hashed replica's" + prefix);
  result.check(
      ref.resolve_done == spec.resolve_checks && ref.resolve_failures.empty(),
      std::string(spec.far_field_eps > 0 ? "|far - exact| <= eps * exact"
                                         : "resolve_into == Channel::resolve") +
          " on " + std::to_string(ref.resolve_done) + " sampled slots" +
          (ref.resolve_failures.empty() ? ""
                                        : " (" + ref.resolve_failures[0] + ")"));
  {
    auto traced = build(spec, seed, true, spec.threads, true);
    run_rounds(*traced, rounds - 1);
    result.check(prefix_equal(ref.hash, traced->recorder.hash,
                              static_cast<std::size_t>(rounds)),
                 "traced and untraced trace hashes agree" + prefix);
  }
  if (spec.thread_check_rounds > 0) {
    auto serial = build(spec, seed, false, 1, true);
    run_rounds(*serial, spec.thread_check_rounds - 1);
    result.check(
        prefix_equal(ref.hash, serial->recorder.hash,
                     static_cast<std::size_t>(spec.thread_check_rounds)),
        "threads=" + std::to_string(spec.threads) +
            " and threads=1 trace hashes agree over " +
            std::to_string(spec.thread_check_rounds) + " rounds");
  }
  return plain_ns;
}

}  // namespace

bool is_engine_workload(const std::string& name) {
  for (const Spec& s : kSpecs)
    if (name == s.name) return true;
  return false;
}

Result run_engine_workload(const Options& options) {
  const Spec* found = nullptr;
  for (const Spec& s : kSpecs)
    if (options.workload == s.name) found = &s;
  const Spec& spec = *found;
  const bool traced = options.trace;
  Result result;

  std::vector<double> setup_ns, topo_ns, scenario_ns, engine_ns;
  auto note_setup = [&](const Instance& inst) {
    setup_ns.push_back(inst.times.total_ns());
    topo_ns.push_back(inst.times.topo_ns);
    scenario_ns.push_back(inst.times.scenario_ns);
    engine_ns.push_back(inst.times.engine_ns);
  };
  SpeedProbe probe;
  probe.sample(10);
  for (int k = 0; k < spec.extra_setups; ++k)
    note_setup(*build(spec, mix_seed(options.seed, 1000 + k), traced,
                      spec.threads));

  std::vector<double> round_ms, status_ms, solve_s;
  // Which probe batch precedes each episode, and the episode's samples.
  struct EpisodeSamples {
    std::size_t probe_batch, round_begin, round_end, setup;
  };
  std::vector<EpisodeSamples> spans_of;
  std::uint64_t rounds_total = 0;
  double measured_ns = 0;
  // Traced totals over every episode.
  SpanClock spans;
  double traced_prefix_ns = 0, field_ns_per_slot = 0, trace_overhead = 0;
  std::uint64_t gain_hits = 0, gain_misses = 0, gain_fills = 0,
                gain_evictions = 0, pool_chunks = 0, pool_wait_ns = 0,
                pool_idle_ns = 0;
  std::uint64_t fp_slots = 0, fp_tx = 0, fp_deliveries = 0, fp_clear = 0;

  // Episodes run while the budget allows; one that would end more than half
  // an episode past it is not started.
  const double budget_ns = options.seconds * 1e9;
  for (std::uint64_t episode = 0;
       episode == 0 ||
       measured_ns + 0.5 * measured_ns / static_cast<double>(episode) <
           budget_ns;
       ++episode) {
    const std::uint64_t seed = mix_seed(options.seed, episode);
    const std::size_t probe_batch = probe.batches();
    probe.sample(5);  // the previous episode's instance is gone
    const std::int64_t episode_begin = now_ns();
    auto inst = build(spec, seed, traced, spec.threads);
    note_setup(*inst);
    if (episode == 0) {
      inst->recorder.snapshot_round = spec.check_rounds;
      if (traced) {
        // Far-field episodes are 12 slots long; replays cost a round each.
        inst->recorder.sample_every = spec.far_field_eps > 0 ? 3 : 7;
        inst->recorder.max_samples = spec.far_field_eps > 0 ? 4 : 24;
      }
    }

    const std::int64_t solve_begin = now_ns();
    const std::size_t first_round_sample = round_ms.size();
    const int limit =
        spec.episode_rounds > 0 ? spec.episode_rounds : spec.max_rounds;
    bool solved = false;
    double contention = 0;  // summed status reads
    int round = 1;  // the set-up round
    for (; round < limit; ++round) {
      if (spec.episode_rounds == 0 && inst->all_finished()) {
        solved = true;
        break;
      }
      const std::int64_t t = now_ns();
      inst->step();
      const std::int64_t t_end = now_ns();
      round_ms.push_back(ns_to_ms(static_cast<double>(t_end - t)));
      ++rounds_total;
      // Rounds 2..check_rounds, the span the untraced replica times below.
      if (traced && episode == 0 && round + 1 == spec.check_rounds)
        traced_prefix_ns = inst->clock->round;
      // The read path between rounds.
      const std::int64_t s = now_ns();
      contention += inst->contention();
      status_ms.push_back(ns_to_ms(static_cast<double>(now_ns() - s)));
    }
    if (spec.episode_rounds == 0 && !solved) solved = inst->all_finished();
    const std::int64_t solve_end = now_ns();
    ++result.attempted;
    if (spec.episode_rounds == 0 && !solved) {
      ++result.failed;
      result.check(false, "LocalBcast did not finish within " +
                              std::to_string(spec.max_rounds) + " rounds");
    }
    solve_s.push_back(static_cast<double>(solve_end - solve_begin) / 1e9);
    spans_of.push_back({probe_batch, first_round_sample, round_ms.size(),
                        setup_ns.size() - 1});
    char episode_note[192];
    std::snprintf(
        episode_note, sizeof episode_note,
        "episode %llu: %d rounds, %.4f s, round p50 %.4f ms, %zu done, "
        "mean contention %.3f",
        static_cast<unsigned long long>(episode), round, solve_s.back(),
        quantile(std::vector<double>(round_ms.begin() + static_cast<long>(
                                                            first_round_sample),
                                     round_ms.end()),
                 0.5),
        inst->done_count(), contention / std::max(round - 1, 1));
    result.notes.push_back(episode_note);
    measured_ns += static_cast<double>(solve_end - episode_begin);

    if (traced) {
      const SpanClock& c = *inst->clock;
      spans.dynamics += c.dynamics;
      spans.delta += c.delta;
      spans.txsample += c.txsample;
      spans.resolve += c.resolve;
      spans.feedback += c.feedback;
      spans.recorder += c.recorder;
      spans.round += c.round;
      spans.rounds += c.rounds;
      spans.moved += c.moved;
      spans.churned += c.churned;
      gain_hits += measured_counter(*inst, "gain_table.hits");
      gain_misses += measured_counter(*inst, "gain_table.misses");
      gain_fills += measured_counter(*inst, "gain_table.fills");
      gain_evictions += measured_counter(*inst, "gain_table.evictions");
      pool_chunks += measured_counter(*inst, "task_pool.chunks");
      pool_wait_ns += measured_counter(*inst, "task_pool.caller_wait_ns");
      pool_idle_ns += measured_counter(*inst, "task_pool.worker_idle_ns");
      fp_slots += inst->recorder.counts.slots;
      fp_tx += inst->recorder.counts.transmissions;
      fp_deliveries += inst->recorder.counts.deliveries;
      fp_clear += inst->recorder.counts.clear;
    }

    if (episode != 0) continue;

    // --- Episode 0: fingerprint and output checks (not timed) ---------------
    const BenchRecorder::Counts& c = inst->recorder.counts;
    result.fingerprint = {{"rounds", static_cast<std::uint64_t>(round)},
                          {"slots", c.slots},
                          {"transmissions", c.transmissions},
                          {"deliveries", c.deliveries},
                          {"mass_deliveries", c.mass},
                          {"collisions", c.collisions},
                          {"clear_slots", c.clear}};
    if (traced) {
      const MetricsRegistry::Snapshot obs = inst->obs->metrics().snapshot();
      result.fingerprint.push_back(
          {"gain_fills", counter(obs, "gain_table.fills")});
      result.check(counter(obs, "engine.transmissions") ==
                           c.transmissions &&
                       counter(obs, "engine.deliveries") == c.deliveries &&
                       counter(obs, "engine.collisions_sensed") ==
                           c.collisions &&
                       counter(obs, "engine.clear_slots") == c.clear &&
                       counter(obs, "engine.slots") == c.slots,
                   "fingerprint counts match the engine's Obs counters");
      field_ns_per_slot =
          field_replay_ns(spec, *inst->scenario, inst->recorder.samples);
      result.notes.push_back("field replay over " +
                             std::to_string(inst->recorder.samples.size()) +
                             " sampled slots");
    }
    const BenchRecorder::Counts timed_prefix = inst->recorder.snapshot;
    inst.reset();
    const double untraced_prefix_ns =
        check_replicas(spec, seed, timed_prefix, result);
    if (traced) {
      // Overhead: the traced episode's rounds 2..check_rounds against the
      // untraced replica over the same rounds.
      trace_overhead = traced_prefix_ns / untraced_prefix_ns;
      result.notes.push_back(
          "trace overhead prefix: traced " +
          std::to_string(traced_prefix_ns / 1e6) + " ms vs untraced " +
          std::to_string(untraced_prefix_ns / 1e6) + " ms");
    }
  }
  result.attempted += rounds_total;
  probe.sample(10);
  result.notes.push_back("host probe: " +
                         std::to_string(probe.median_ns() / 1e6) +
                         " ms median over " + std::to_string(probe.count()) +
                         " passes");

  result.notes.push_back(
      "samples: setups=" + std::to_string(setup_ns.size()) +
      " episodes=" + std::to_string(solve_s.size()) +
      " rounds=" + std::to_string(round_ms.size()) +
      " status_queries=" + std::to_string(status_ms.size()));

  if (!traced) {
    // Each sample at the reference speed of the probes around it.
    std::vector<double> setup_k = setup_ns, solve_k = solve_s,
                        round_k = round_ms, status_k = status_ms;
    for (int k = 0; k < spec.extra_setups; ++k)
      setup_k[static_cast<std::size_t>(k)] *= probe.scale_after(0);
    double round_sum = 0, round_sum_k = 0;
    for (std::size_t e = 0; e < spans_of.size(); ++e) {
      const EpisodeSamples& ep = spans_of[e];
      const double f = probe.scale_after(ep.probe_batch);
      setup_k[ep.setup] *= f;
      solve_k[e] *= f;
      for (std::size_t j = ep.round_begin; j < ep.round_end; ++j) {
        round_k[j] *= f;
        status_k[j] *= f;
        round_sum += round_ms[j];
        round_sum_k += round_k[j];
      }
    }
    const double rate = static_cast<double>(rounds_total) / (round_sum / 1e3);
    const double rate_k =
        static_cast<double>(rounds_total) / (round_sum_k / 1e3);
    result.add_scaled("setup_s", median(setup_k) / 1e9,
                      median(setup_ns) / 1e9, "s");
    result.add_scaled("solve_s", median(solve_k), median(solve_s), "s");
    result.add_scaled("rounds_per_s", rate_k, rate, "1/s");
    result.add_scaled("round_ms_p50", quantile(round_k, 0.5),
                      quantile(round_ms, 0.5), "ms");
    result.add_scaled("round_ms_p90", quantile(round_k, 0.9),
                      quantile(round_ms, 0.9), "ms");
    result.add("peak_rss_mb", peak_rss_mb(false), "MiB");
    // For an engine workload a request is one Engine::step call and the
    // status read is the between-rounds contention snapshot.
    result.add_scaled("req_ms_p50", quantile(round_k, 0.5),
                      quantile(round_ms, 0.5), "ms");
    result.add_scaled("req_ms_p90", quantile(round_k, 0.9),
                      quantile(round_ms, 0.9), "ms");
    result.add_scaled("req_per_s", rate_k, rate, "1/s");
    result.add_scaled("status_ms_p50", quantile(status_k, 0.5),
                      quantile(status_ms, 0.5), "ms");
    return result;
  }

  const double rounds = static_cast<double>(std::max<std::uint64_t>(
      spans.rounds, 1));
  const double per_round = 1.0 / rounds / 1e6;  // ns total -> ms per round
  const double attributed = spans.dynamics + spans.delta + spans.txsample +
                            spans.resolve + spans.feedback + spans.recorder;
  result.add("sim.round_ms", spans.round * per_round, "ms");
  result.add("sim.dynamics_ms", spans.dynamics * per_round, "ms");
  result.add("sim.delta_ms", spans.delta * per_round, "ms");
  result.add("sim.txsample_ms", spans.txsample * per_round, "ms");
  result.add("phy.resolve_ms", spans.resolve * per_round, "ms");
  result.add("sim.feedback_ms", spans.feedback * per_round, "ms");
  result.add("analysis.recorder_ms", spans.recorder * per_round, "ms");
  result.add("sim.unattributed_ms", (spans.round - attributed) * per_round,
             "ms");
  result.add("phy.field_replay_ms",
             field_ns_per_slot * spec.slots_per_round / 1e6, "ms");
  result.add("sim.engine_init_ms", median(engine_ns) / 1e6, "ms");
  result.add("topo.generate_ms", median(topo_ns) / 1e6, "ms");
  result.add("analysis.scenario_ms", median(scenario_ns) / 1e6, "ms");
  const double lookups = static_cast<double>(gain_hits + gain_misses);
  result.add("phy.gain_hit_ratio",
             lookups > 0 ? static_cast<double>(gain_hits) / lookups : 0,
             "ratio");
  result.add("phy.gain_fills", static_cast<double>(gain_fills) / rounds,
             "count/round");
  result.add("phy.gain_evictions", static_cast<double>(gain_evictions) / rounds,
             "count/round");
  result.add("common.pool_wait_ms",
             static_cast<double>(pool_wait_ns) * per_round, "ms");
  result.add("common.pool_idle_ms",
             static_cast<double>(pool_idle_ns) * per_round, "ms");
  result.add("common.pool_chunks", static_cast<double>(pool_chunks) / rounds,
             "count/round");
  result.add("metric.moved_per_round",
             static_cast<double>(spans.moved) / rounds, "count");
  result.add("metric.churned_per_round",
             static_cast<double>(spans.churned) / rounds, "count");
  const double tx = static_cast<double>(std::max<std::uint64_t>(fp_tx, 1));
  result.add("core.tx_per_slot",
             static_cast<double>(fp_tx) /
                 static_cast<double>(std::max<std::uint64_t>(fp_slots, 1)),
             "count");
  result.add("core.delivery_per_tx", static_cast<double>(fp_deliveries) / tx,
             "ratio");
  result.add("core.clear_ratio", static_cast<double>(fp_clear) / tx, "ratio");
  result.add("obs.trace_overhead", trace_overhead, "ratio");
  result.add("host.probe_ms", probe.median_ns() / 1e6, "ms");
  for (const char* name : {"svc.parse_us", "svc.encode_us",
                           "svc.status_line_us", "svc.admit_ms",
                           "svc.exec_ms"})
    result.add(name, 0, std::string(name).ends_with("_us") ? "us" : "ms");
  char line[256];
  std::snprintf(line, sizeof line,
                "span sum check: attributed %.3f ms + unattributed %.3f ms = "
                "round %.3f ms per round",
                attributed * per_round, (spans.round - attributed) * per_round,
                spans.round * per_round);
  result.notes.push_back(line);
  result.check(spans.round - attributed >= -1e-6 * spans.round,
               "per-layer spans fit inside the measured round time");
  return result;
}

}  // namespace perfbench
