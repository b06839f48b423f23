// determinism_audit — checked invariants:
//
//  1. Run-twice: a dynamic-broadcast scenario run twice under the same seed
//     produces bit-for-bit identical event traces.
//  2. Pipeline matrix: the same scenario resolved through every slot
//     pipeline configuration — brute-force uncached, epoch-invalidated
//     (delta_invalidation off), delta-invalidated, serial and
//     multi-threaded kernels — yields one identical trace. This is the
//     executable form of the resolve_into ≡ resolve contract
//     (docs/ENGINE.md) under full dynamics: churn AND mobility invalidate
//     the caches every round, so delta ≡ epoch ≡ uncached is checked where
//     it matters, not on a static topology.
//
// Builds the EXP-10 style workload (cluster chain, node churn + bounded
// mobility, Bcast(beta) with two slots per round), runs it through
// the DeterminismAuditor, and reports the per-run trace hashes and the
// first divergent round if any. Exit code 0 = identical, 1 = divergence.
//
// Wired into ctest so "deterministic under seed" is enforced on every test
// run, not assumed. `--inject` deliberately perturbs the second run (one
// extra RNG draw on one node) to demonstrate the auditor catches real
// nondeterminism; that mode must exit nonzero.
//
//   determinism_audit [--seed N] [--rounds N] [--clusters N] [--threads N]
//                     [--no-matrix] [--inject]
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include <condition_variable>
#include <mutex>

#include "analysis/determinism.h"
#include "analysis/runner.h"
#include "analysis/scenario.h"
#include "baselines/jks_broadcast.h"
#include "baselines/opportunistic.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/broadcast.h"
#include "metric/matrix_metric.h"
#include "obs/obs.h"
#include "sim/batch.h"
#include "sim/dynamics.h"
#include "svc/exec.h"
#include "svc/request.h"
#include "svc/service.h"
#include "topo/generators.h"

namespace udwn {
namespace {

struct Options {
  std::uint64_t seed = 12345;
  Round rounds = 300;
  std::size_t clusters = 8;
  int threads = 4;
  bool matrix = true;
  bool inject = false;
};

/// Slot-pipeline knobs under audit (subset of EngineConfig).
struct PipelineConfig {
  const char* label;
  bool cache_topology;
  int threads;
  /// Per-node delta invalidation (EngineConfig::delta_invalidation);
  /// false = the pure epoch-invalidation reference path.
  bool delta_invalidation = true;
  /// Attach an Obs handle for the run: observability must be a pure
  /// observer, so the trace hash has to match the reference exactly.
  bool obs = false;
  /// Certified far-field approximation (EngineConfig::far_field_eps).
  /// Nonzero rows are NOT compared against the exact reference — only
  /// against each other (self-determinism across thread counts).
  double far_field_eps = 0.0;
  /// Far-field cell side as a multiple of the model max range.
  double far_field_cell_factor = 2.0;
  /// Gain tile width: small values force multi-block rows at audit sizes
  /// so the sharded field path (threads > 1, blocks >= threads) engages.
  std::size_t gain_tile_cols = 4096;
};

void run_dynamic_broadcast(const Options& options, bool perturb,
                           const PipelineConfig& pipeline,
                           TraceHashRecorder& recorder) {
  Rng topo_rng(options.seed);
  auto points = cluster_chain(options.clusters, 6, 0.6, 0.05, topo_rng);
  Scenario scenario(std::move(points), ScenarioConfig{});
  const std::size_t n = scenario.network().size();
  const NodeId source(0);

  auto protocols = make_protocols(n, [&](NodeId id) {
    return std::make_unique<BcastProtocol>(TryAdjust::standard(n, 2.0),
                                           BcastProtocol::Mode::Dynamic,
                                           id == source);
  });
  const CarrierSensing sensing = scenario.sensing_broadcast();
  std::unique_ptr<Obs> obs;
  if (pipeline.obs)
    obs = std::make_unique<Obs>(ObsConfig{.state_transitions = true});
  Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                EngineConfig{.slots_per_round = 2,
                             .seed = options.seed,
                             .threads = pipeline.threads,
                             .cache_topology = pipeline.cache_topology,
                             .delta_invalidation = pipeline.delta_invalidation,
                             .far_field_eps = pipeline.far_field_eps,
                             .far_field_cell_factor =
                                 pipeline.far_field_cell_factor,
                             .gain_tile_cols = pipeline.gain_tile_cols,
                             .obs = obs.get()});

  ChurnDynamics churn({.arrival_rate = 0.05,
                       .departure_rate = 0.05,
                       .pinned = {source}});
  WaypointMobility mobility(
      *scenario.euclidean(),
      {.speed = 0.004, .extent = 0.6 * static_cast<double>(options.clusters)});
  std::vector<Dynamics*> parts{&churn, &mobility};
  CompositeDynamics dynamics(parts);
  engine.set_dynamics(&dynamics);
  engine.set_recorder(&recorder);

  for (Round r = 0; r < options.rounds; ++r) {
    if (perturb && r == options.rounds / 2) {
      // Injected nondeterminism: an off-trace RNG draw, exactly the class
      // of bug (shared-stream misuse) the auditor exists to catch.
      Rng rogue(options.seed ^ 0xdeadbeefull);
      const Vec2 p = scenario.euclidean()->position(source);
      scenario.euclidean()->set_position(
          source, {p.x + rogue.uniform() * 1e-9, p.y});
    }
    engine.step();
  }
}

/// Pipeline matrix: one trace per configuration, all compared against the
/// brute-force serial reference. Any divergence is a bug in the cache /
/// grid / parallel kernels, not scheduling noise — the contract is
/// bit-exact equality.
int run_pipeline_matrix(const Options& options) {
  const PipelineConfig configs[] = {
      {"uncached-serial", false, 1, /*delta=*/false},
      {"epoch-serial", true, 1, /*delta=*/false},
      {"delta-serial", true, 1, /*delta=*/true},
      // Default 4096-column tiles: one block < threads, so these rows run
      // the unsharded pool kernel.
      {"epoch-threads", true, options.threads, /*delta=*/false},
      {"delta-threads", true, options.threads, /*delta=*/true},
      {"obs-on", true, options.threads, true, /*obs=*/true},
      // 8-column tiles: blocks = ceil(n/8) >= threads at audit sizes, so
      // the fused plan/fill shard path runs every slot.
      {"sharded", true, options.threads, true, false, 0.0, 2.0,
       /*gain_tile_cols=*/8},
  };
  std::vector<TraceHashRecorder> traces(std::size(configs));
  for (std::size_t i = 0; i < std::size(configs); ++i)
    run_dynamic_broadcast(options, /*perturb=*/false, configs[i], traces[i]);

  int failures = 0;
  std::cout << "  pipeline matrix (reference: " << configs[0].label << ")\n";
  for (std::size_t i = 1; i < std::size(configs); ++i) {
    const DeterminismReport report =
        DeterminismAuditor::compare(traces[0], traces[i]);
    std::cout << "    vs " << configs[i].label << ": " << to_string(report)
              << "\n";
    if (!report.deterministic) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

/// Far-field group: ε-certified approximate rounds are NOT bit-identical
/// to the exact reference (only certified against it, see far_field.h), so
/// the audit here is self-determinism: serial, threaded, and a threaded
/// repeat must produce one identical trace — the approximation must be a
/// pure function of the seed, never of scheduling.
int run_far_field_group(const Options& options) {
  PipelineConfig serial{"far-field-serial", true, 1};
  serial.far_field_eps = 0.5;
  serial.far_field_cell_factor = 0.25;  // ρ inside the chain extent
  PipelineConfig threaded = serial;
  threaded.label = "far-field-threads";
  threaded.threads = options.threads;
  const PipelineConfig configs[] = {serial, threaded, threaded};
  std::vector<TraceHashRecorder> traces(std::size(configs));
  for (std::size_t i = 0; i < std::size(configs); ++i)
    run_dynamic_broadcast(options, /*perturb=*/false, configs[i], traces[i]);

  int failures = 0;
  std::cout << "  far-field self-determinism (eps=0.5, reference: "
            << configs[0].label << ")\n";
  for (std::size_t i = 1; i < std::size(configs); ++i) {
    const DeterminismReport report =
        DeterminismAuditor::compare(traces[0], traces[i]);
    std::cout << "    vs " << configs[i].label << (i == 2 ? " (repeat)" : "")
              << ": " << to_string(report) << "\n";
    if (!report.deterministic) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

/// Batch check: K trials through BatchRunner(threads) must produce exactly
/// the per-trial traces a serial loop produces — the executable form of the
/// seed-stream discipline sim/batch.h documents.
int run_batch_check(const Options& options) {
  constexpr std::size_t kTrials = 3;
  const PipelineConfig pipeline{"cached+grid-serial", true, 1};
  const auto seeds = BatchRunner::trial_seeds(options.seed, kTrials);

  auto trial_hash = [&](std::size_t k) {
    Options trial = options;
    trial.seed = seeds[k];
    trial.rounds = options.rounds / 2;
    TraceHashRecorder recorder;
    run_dynamic_broadcast(trial, /*perturb=*/false, pipeline, recorder);
    return recorder.final_hash();
  };

  std::vector<std::uint64_t> serial(kTrials);
  for (std::size_t k = 0; k < kTrials; ++k) serial[k] = trial_hash(k);

  BatchRunner runner(BatchConfig{.threads = options.threads});
  const auto batched = runner.run(kTrials, trial_hash);

  int failures = 0;
  std::cout << "  batch(threads=" << options.threads << "): ";
  for (std::size_t k = 0; k < kTrials; ++k)
    if (batched[k] != serial[k]) ++failures;
  if (failures == 0) {
    std::cout << kTrials << " trials, per-trial trace hashes identical to "
              << "serial\n";
  } else {
    std::cout << failures << " of " << kTrials
              << " trials diverged from serial\n";
  }
  if (failures != 0) return 1;

  // Fault-isolating path with a generous rounds budget armed: run_checked
  // installs the throwing contract handler and a per-trial TrialBudget, and
  // neither may perturb a fault-free trial — same hashes, every status ok.
  // (The rounds-only budget reads no clock, so this row is as bit-exact a
  // contract as the strict one above.)
  BatchConfig budgeted{.threads = options.threads};
  budgeted.max_rounds =
      static_cast<std::uint64_t>(options.rounds) * 1000 + 1000;
  BatchRunner checked_runner(budgeted);
  const auto outcome = checked_runner.run_checked(kTrials, trial_hash);
  std::cout << "  batch-checked(budget=" << budgeted.max_rounds
            << " rounds): ";
  if (!outcome.ok()) {
    std::cout << outcome.errors.size() << " of " << kTrials
              << " fault-free trials reported an error\n";
    return 1;
  }
  for (std::size_t k = 0; k < kTrials; ++k)
    if (outcome.results[k] != serial[k]) ++failures;
  if (failures == 0) {
    std::cout << kTrials << " trials, budgets + fault isolation armed, "
              << "hashes identical to serial\n";
  } else {
    std::cout << failures << " of " << kTrials
              << " trials diverged from serial\n";
  }
  return failures == 0 ? 0 : 1;
}

/// Service group (docs/SERVICE.md): the scenario service promises that
/// per-trial record BYTES are a pure function of (request, seed). Audit it
/// the same way the engine matrix is audited — one serial run_trial
/// reference, then the full ScenarioService at several worker/pool/block
/// shapes, all required to emit identical trial lines in identical order.
int run_svc_group(const Options& options) {
  svc::RunRequest request;
  request.id = "audit";
  request.protocol = svc::ProtocolKind::kBcast;
  request.topology.kind = svc::TopologyKind::kClusterChain;
  request.topology.clusters = 4;
  request.topology.per_cluster = 5;
  request.dynamics.churn_rate = 0.02;
  request.trials = 4;
  request.seed = options.seed;

  const auto seeds = BatchRunner::trial_seeds(request.seed, request.trials);
  std::vector<std::string> reference;
  for (std::uint32_t k = 0; k < request.trials; ++k) {
    svc::TrialRecord record =
        svc::run_trial(request, svc::ExecConfig{}, seeds[k], k);
    record.status = "ok";
    reference.push_back(svc::encode_trial(request.id, record));
  }

  struct Shape {
    const char* label;
    int workers;
    int trial_threads;
    std::uint32_t progress_every;
  };
  const Shape shapes[] = {
      {"svc(workers=1,pool=1,block=32)", 1, 1, 32},
      {"svc(workers=2,pool=4,block=1)", 2, options.threads, 1},
      {"svc(workers=4,pool=2,block=3)", 4, 2, 3},
  };

  int failures = 0;
  std::cout << "  service record bytes (reference: serial run_trial)\n";
  for (const Shape& shape : shapes) {
    svc::ScenarioService service({.workers = shape.workers,
                                  .trial_threads = shape.trial_threads,
                                  .progress_every = shape.progress_every});
    std::mutex mutex;
    std::condition_variable cv;
    bool finished = false;
    std::vector<std::string> trial_lines;
    svc::ParsedRequest parsed;
    parsed.id = request.id;
    parsed.run = request;
    service.submit(
        parsed,
        [&](const std::string& line) {
          const std::optional<Json> json = Json::parse(line);
          const Json* event = json.has_value() ? json->find("event") : nullptr;
          if (event == nullptr || !event->is_string() ||
              event->as_string() != "trial")
            return;
          std::lock_guard<std::mutex> lock(mutex);
          trial_lines.push_back(line);
        },
        [&]() {
          // Notify under the lock: the waiter owns cv on its stack and may
          // destroy it as soon as the predicate holds.
          std::lock_guard<std::mutex> lock(mutex);
          finished = true;
          cv.notify_all();
        });
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return finished; });
    }
    const bool identical = trial_lines == reference;
    std::cout << "    vs " << shape.label << ": "
              << (identical ? "identical" : "DIVERGED") << " ("
              << trial_lines.size() << " records)\n";
    if (!identical) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

/// Baselines group (EXP-18 arena): the competitor protocols join the audit
/// matrix. JKS under the frontier-driven TIntervalAdversary is the strong
/// row — its {0,1} probabilities short-circuit Rng::chance and consume no
/// randomness, so beyond the usual pipeline shapes even a DIFFERENT ENGINE
/// SEED must hash identically. The opportunistic protocol draws real
/// probabilities under churn, so its contract is the standard one: a pure
/// function of the seed across delta/epoch invalidation and thread counts.
int run_baselines_group(const Options& options) {
  struct Shape {
    const char* label;
    int threads;
    bool delta;
    std::uint64_t seed;
  };
  const std::uint64_t base_seed = options.seed;
  constexpr Round kRounds = 120;

  auto run_jks = [&](const Shape& shape, TraceHashRecorder& recorder) {
    constexpr std::size_t n = 24;
    Scenario scenario(
        std::make_unique<MatrixMetric>(n, isolated_distances(n, 1.0e6)),
        ScenarioConfig{});
    auto* matrix = static_cast<MatrixMetric*>(&scenario.metric());
    const NodeId source(0);
    auto protocols = make_protocols(n, [&](NodeId id) {
      return std::make_unique<JksBroadcastProtocol>(id, n, id == source);
    });
    const CarrierSensing sensing = scenario.sensing_local();
    Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                  EngineConfig{.seed = shape.seed,
                               .threads = shape.threads,
                               .delta_invalidation = shape.delta});
    TIntervalAdversary adversary(*matrix, {.interval = 4});
    adversary.set_frontier([&protocols](NodeId v) {
      return static_cast<const JksBroadcastProtocol&>(*protocols[v.value])
          .informed();
    });
    engine.set_dynamics(&adversary);
    engine.set_recorder(&recorder);
    for (Round r = 0; r < kRounds; ++r) engine.step();
  };

  auto run_oppo = [&](const Shape& shape, TraceHashRecorder& recorder) {
    Rng topo_rng(base_seed);
    Scenario scenario(cluster_chain(4, 5, 0.6, 0.05, topo_rng),
                      ScenarioConfig{});
    const std::size_t n = scenario.network().size();
    const NodeId source(0);
    auto protocols = make_protocols(n, [&](NodeId id) {
      return std::make_unique<OpportunisticDisseminationProtocol>(
          OpportunisticDisseminationProtocol::Config{}, id == source);
    });
    const CarrierSensing sensing = scenario.sensing_local();
    Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                  EngineConfig{.seed = shape.seed,
                               .threads = shape.threads,
                               .delta_invalidation = shape.delta});
    ChurnDynamics churn({.arrival_rate = 0.05,
                         .departure_rate = 0.05,
                         .pinned = {source}});
    engine.set_dynamics(&churn);
    engine.set_recorder(&recorder);
    for (Round r = 0; r < kRounds; ++r) engine.step();
  };

  auto audit_rows = [&](const char* name, auto&& runner,
                        bool seed_invariant) {
    const Shape reference{"serial-delta", 1, true, base_seed};
    TraceHashRecorder ref_trace;
    runner(reference, ref_trace);
    std::vector<Shape> rows = {
        {"serial-epoch", 1, false, base_seed},
        {"threads", options.threads, true, base_seed},
        {"threads (repeat)", options.threads, true, base_seed},
    };
    if (seed_invariant)
      rows.push_back({"other-engine-seed", 1, true,
                      base_seed ^ 0x9e3779b97f4a7c15ull});
    int bad = 0;
    for (const Shape& shape : rows) {
      TraceHashRecorder trace;
      runner(shape, trace);
      const DeterminismReport report =
          DeterminismAuditor::compare(ref_trace, trace);
      std::cout << "    " << name << " vs " << shape.label << ": "
                << to_string(report) << "\n";
      if (!report.deterministic) ++bad;
    }
    return bad;
  };

  std::cout << "  baselines (reference: serial-delta)\n";
  int failures = audit_rows("jks+adversary", run_jks, /*seed_invariant=*/true);
  failures += audit_rows("opportunistic+churn", run_oppo, false);
  return failures == 0 ? 0 : 1;
}

int run(const Options& options) {
  const PipelineConfig reference{"cached+grid-serial", true, 1};
  int call = 0;
  const DeterminismReport report = DeterminismAuditor::audit(
      [&](TraceHashRecorder& recorder) {
        const bool perturb = options.inject && call++ == 1;
        run_dynamic_broadcast(options, perturb, reference, recorder);
      });

  std::cout << "determinism_audit: dynamic broadcast, seed " << options.seed
            << ", " << options.rounds << " rounds, " << options.clusters
            << " clusters" << (options.inject ? ", INJECTED FAULT" : "")
            << "\n  " << to_string(report) << "\n";

  if (options.inject) {
    // Self-test mode: success means the fault was *detected*. The matrix is
    // skipped — the perturbation would (correctly) fail it.
    if (!report.deterministic) {
      std::cout << "  injected nondeterminism detected as expected\n";
      return 0;
    }
    std::cout << "  ERROR: injected nondeterminism was NOT detected\n";
    return 1;
  }
  int rc = report.deterministic ? 0 : 1;
  if (options.matrix && rc == 0) rc = run_pipeline_matrix(options);
  if (options.matrix && rc == 0) rc = run_far_field_group(options);
  if (options.matrix && rc == 0) rc = run_batch_check(options);
  if (options.matrix && rc == 0) rc = run_svc_group(options);
  if (options.matrix && rc == 0) rc = run_baselines_group(options);
  return rc;
}

}  // namespace
}  // namespace udwn

namespace {

[[noreturn]] void usage_error(const char* detail) {
  std::cerr << "determinism_audit: " << detail << "\n"
            << "usage: determinism_audit [--seed N] [--rounds N] "
               "[--clusters N] [--threads N] [--no-matrix] [--inject]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-')
    usage_error((std::string(flag) += " expects a non-negative integer")
                    .c_str());
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  udwn::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--seed" && has_value) {
      options.seed = parse_u64("--seed", argv[++i]);
    } else if (arg == "--rounds" && has_value) {
      options.rounds = static_cast<udwn::Round>(
          parse_u64("--rounds", argv[++i]));
    } else if (arg == "--clusters" && has_value) {
      options.clusters = parse_u64("--clusters", argv[++i]);
      if (options.clusters == 0) usage_error("--clusters must be >= 1");
    } else if (arg == "--threads" && has_value) {
      options.threads = static_cast<int>(parse_u64("--threads", argv[++i]));
      if (options.threads < 1) usage_error("--threads must be >= 1");
    } else if (arg == "--no-matrix") {
      options.matrix = false;
    } else if (arg == "--inject") {
      options.inject = true;
    } else {
      usage_error("unrecognized or incomplete argument");
    }
  }
  return udwn::run(options);
}
