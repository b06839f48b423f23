// determinism_audit — checked invariants:
//
//  1. Run-twice: a dynamic-broadcast scenario run twice under the same seed
//     produces bit-for-bit identical event traces.
//  2. Reference: every slot of the serial run equals Channel::resolve(),
//     the one exact specification of a slot (ReferenceCheck). Churn AND
//     mobility invalidate the caches every round, so the delta path is
//     checked where it matters, not on a static topology.
//  3. Pipeline matrix: the same scenario resolved through every slot
//     pipeline configuration — serial, multi-threaded (the gain-table
//     field sharded by listener block on the pool), observability
//     attached — yields the serial run's trace.
//
// Builds the EXP-10 style workload (cluster chain, node churn + bounded
// mobility, Bcast(beta) with two slots per round), runs it through
// the DeterminismAuditor, and reports the per-run trace hashes and the
// first divergent round if any. Exit code 0 = identical, 1 = divergence or
// a slot that differs from Channel::resolve().
//
// Wired into ctest so "deterministic under seed" is enforced on every test
// run, not assumed. `--inject` deliberately perturbs the second run (one
// extra RNG draw on one node) to demonstrate the auditor catches real
// nondeterminism; that mode exits 0 only when the fault is detected.
//
// Every row prints the run's trace hash and its decision hash (the same
// stream without the interference doubles, with each listener's CD, ACK
// and NTD bits instead; see TraceHashRecorder). `--trace PATH` writes the
// obs-on row's event trace, whose per-round decision hashes tools/udwn_trace
// shows on its timeline.
//
//   determinism_audit [--seed N] [--rounds N] [--clusters N] [--threads N]
//                     [--no-matrix] [--inject] [--trace PATH]
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
  std::string trace_path;  // obs-on row's event trace; empty = none
};

/// Slot-pipeline knobs under audit (subset of EngineConfig).
struct PipelineConfig {
  const char* label;
  int threads;
  /// Attach an Obs handle for the run: observability must be a pure
  /// observer, so the trace hash has to match the reference exactly.
  bool obs = false;
  /// Certified far-field approximation (EngineConfig::far_field_eps).
  /// Nonzero rows are NOT compared against the exact reference — only
  /// against each other (self-determinism across thread counts).
  double far_field_eps = 0.0;
  /// Far-field cell side as a multiple of the model max range.
  double far_field_cell_factor = 2.0;
};

void run_dynamic_broadcast(const Options& options, bool perturb,
                           const PipelineConfig& pipeline,
                           Recorder& recorder) {
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
                             .far_field_eps = pipeline.far_field_eps,
                             .far_field_cell_factor =
                                 pipeline.far_field_cell_factor,
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
  if (obs != nullptr && !options.trace_path.empty() &&
      !obs->write(options.trace_path))
    std::cerr << "determinism_audit: cannot write " << options.trace_path
              << "\n";
}

/// Compare `trace` with `reference` and print one row; 1 if they diverge.
int diverges(const TraceHashRecorder& reference,
             const TraceHashRecorder& trace, const std::string& row) {
  const DeterminismReport report =
      DeterminismAuditor::compare(reference, trace);
  std::cout << "    " << row << ": " << to_string(report) << "\n";
  return report.deterministic ? 0 : 1;
}

/// Pipeline matrix: every configuration's trace is compared with the serial
/// run's, which run() has checked slot by slot against Channel::resolve().
/// Any divergence is a bug in the cache / grid / parallel kernels, not
/// scheduling noise — the contract is bit-exact equality.
int run_pipeline_matrix(const Options& options,
                        const TraceHashRecorder& serial) {
  const PipelineConfig configs[] = {
      // The tile width follows n and threads (gain_tile_width): n = 48 at
      // 4 threads is 8-column tiles, 6 blocks, so the fused plan/fill
      // driver runs every slot on the pool.
      {"threads", options.threads},
      {"obs-on", options.threads, /*obs=*/true},
  };
  int failures = 0;
  std::cout << "  pipeline matrix (reference: serial)\n";
  for (const PipelineConfig& config : configs) {
    TraceHashRecorder trace;
    run_dynamic_broadcast(options, /*perturb=*/false, config, trace);
    failures += diverges(serial, trace, std::string("vs ") + config.label);
  }
  return failures == 0 ? 0 : 1;
}

/// Far-field group: ε-certified approximate rounds are NOT bit-identical
/// to the exact reference (only certified against it, see far_field.h), so
/// the audit here is self-determinism: serial, threaded, and a threaded
/// repeat must produce one identical trace — the approximation must be a
/// pure function of the seed, never of scheduling.
int run_far_field_group(const Options& options) {
  PipelineConfig config{"far-field-serial", 1};
  config.far_field_eps = 0.5;
  config.far_field_cell_factor = 0.25;  // ρ inside the chain extent
  TraceHashRecorder reference;
  run_dynamic_broadcast(options, /*perturb=*/false, config, reference);
  config.threads = options.threads;

  int failures = 0;
  std::cout << "  far-field self-determinism (eps=0.5, reference: "
               "far-field-serial)\n";
  for (const char* row :
       {"vs far-field-threads", "vs far-field-threads (repeat)"}) {
    TraceHashRecorder trace;
    run_dynamic_broadcast(options, /*perturb=*/false, config, trace);
    failures += diverges(reference, trace, row);
  }
  return failures == 0 ? 0 : 1;
}

/// Batch check: K trials through BatchRunner(threads) must produce exactly
/// the per-trial traces a serial loop produces — the executable form of the
/// seed-stream discipline sim/batch.h documents.
int run_batch_check(const Options& options) {
  constexpr std::size_t kTrials = 3;
  const PipelineConfig pipeline{"serial", 1};
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
/// matrix. Each reference run is checked slot by slot against
/// Channel::resolve() — on a rewired MatrixMetric for JKS, under churn for
/// the opportunistic protocol. JKS under the frontier-driven
/// TIntervalAdversary is the strong row — its {0,1} probabilities
/// short-circuit Rng::chance and consume no randomness, so beyond the usual
/// pipeline shapes even a DIFFERENT ENGINE SEED must hash identically. The
/// opportunistic protocol draws real probabilities under churn, so its
/// contract is the standard one: a pure function of the seed across thread
/// counts.
int run_baselines_group(const Options& options) {
  struct Shape {
    const char* label;
    int threads;
    std::uint64_t seed;
  };
  const std::uint64_t base_seed = options.seed;
  constexpr Round kRounds = 120;

  auto run_jks = [&](const Shape& shape, Recorder& recorder) {
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
                  EngineConfig{.seed = shape.seed, .threads = shape.threads});
    TIntervalAdversary adversary(*matrix, {.interval = 4});
    adversary.set_frontier([&protocols](NodeId v) {
      return static_cast<const JksBroadcastProtocol&>(*protocols[v.value])
          .informed();
    });
    engine.set_dynamics(&adversary);
    engine.set_recorder(&recorder);
    for (Round r = 0; r < kRounds; ++r) engine.step();
  };

  auto run_oppo = [&](const Shape& shape, Recorder& recorder) {
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
                  EngineConfig{.seed = shape.seed, .threads = shape.threads});
    ChurnDynamics churn({.arrival_rate = 0.05,
                         .departure_rate = 0.05,
                         .pinned = {source}});
    engine.set_dynamics(&churn);
    engine.set_recorder(&recorder);
    for (Round r = 0; r < kRounds; ++r) engine.step();
  };

  auto audit_rows = [&](const char* name, auto&& runner,
                        bool seed_invariant) {
    const Shape reference{"serial", 1, base_seed};
    TraceHashRecorder ref_trace;
    ReferenceCheck check(1.0, &ref_trace);
    runner(reference, check);
    std::cout << "    " << name << " " << to_string(check) << "\n";
    int bad = check.passed() ? 0 : 1;
    std::vector<Shape> rows = {
        {"threads", options.threads, base_seed},
        {"threads (repeat)", options.threads, base_seed},
    };
    if (seed_invariant)
      rows.push_back(
          {"other-engine-seed", 1, base_seed ^ 0x9e3779b97f4a7c15ull});
    for (const Shape& shape : rows) {
      TraceHashRecorder trace;
      runner(shape, trace);
      bad += diverges(ref_trace, trace,
                      std::string(name) + " vs " + shape.label);
    }
    return bad;
  };

  std::cout << "  baselines (reference: serial)\n";
  int failures = audit_rows("jks+adversary", run_jks, /*seed_invariant=*/true);
  failures += audit_rows("opportunistic+churn", run_oppo, false);
  return failures == 0 ? 0 : 1;
}

int run(const Options& options) {
  // Run A is checked slot by slot against Channel::resolve() and is the
  // reference of every later group; run B repeats it (perturbed under
  // --inject).
  const PipelineConfig serial{"serial", 1};
  TraceHashRecorder a;
  TraceHashRecorder b;
  ReferenceCheck check(1.0, &a);
  run_dynamic_broadcast(options, /*perturb=*/false, serial, check);
  run_dynamic_broadcast(options, options.inject, serial, b);
  const DeterminismReport report = DeterminismAuditor::compare(a, b);

  std::cout << "determinism_audit: dynamic broadcast, seed " << options.seed
            << ", " << options.rounds << " rounds, " << options.clusters
            << " clusters" << (options.inject ? ", INJECTED FAULT" : "")
            << "\n  " << to_string(report) << "\n  serial "
            << to_string(check) << "\n";

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
  int rc = report.deterministic && check.passed() ? 0 : 1;
  if (options.matrix && rc == 0) rc = run_pipeline_matrix(options, a);
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
               "[--clusters N] [--threads N] [--no-matrix] [--inject] "
               "[--trace PATH]\n";
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
    } else if (arg == "--trace" && has_value) {
      options.trace_path = argv[++i];
    } else {
      usage_error("unrecognized or incomplete argument");
    }
  }
  return udwn::run(options);
}
