// Microbenchmarks of the simulation kernels (google-benchmark): exact
// interference field, gain-tile fill, channel slot resolution, and full
// engine rounds.
// These bound how large an instance the experiment harness can afford.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/runner.h"
#include "analysis/scenario.h"
#include "core/try_adjust_protocol.h"
#include "obs/obs.h"
#include "phy/gain_table.h"
#include "phy/interference.h"
#include "metric/packing.h"
#include "sim/batch.h"
#include "sim/dynamics.h"
#include "topo/generators.h"

namespace udwn {
namespace {

std::vector<NodeId> sample_transmitters(std::size_t n, double fraction,
                                        Rng& rng) {
  std::vector<NodeId> txs;
  for (std::uint32_t v = 0; v < n; ++v)
    if (rng.chance(fraction)) txs.push_back(NodeId(v));
  return txs;
}

void BM_InterferenceField(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  EuclideanMetric metric(uniform_square(n, std::sqrt(n / 8.0), rng));
  PathLoss pl(1.0, 3.0, 1e-3);
  const auto txs = sample_transmitters(n, 0.1, rng);
  for (auto _ : state) {
    auto field = interference_field(metric, pl, txs);
    benchmark::DoNotOptimize(field);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * txs.size()));
}
BENCHMARK(BM_InterferenceField)->Arg(128)->Arg(512)->Arg(2048);

// One full Euclidean gain-tile fill per iteration: n = 4096 nodes, one
// 4096-column tile, ζ = 3, and a budget of exactly one tile, so each
// ensure_rows of the other source evicts the resident tile and refills all
// 4096 cells (the per-stage row for the gain fill; reported in cells/s).
void BM_GainTileFill(benchmark::State& state) {
  constexpr std::size_t kCols = 4096;
  Rng rng(4);
  EuclideanMetric metric(uniform_square(kCols, std::sqrt(kCols / 8.0), rng));
  const PathLoss pl(1.0, 3.0, 1e-3);
  GainTable gains(GainTable::Config{.tile_cols = kCols,
                                    .budget_bytes = kCols * sizeof(double)});
  gains.bind(metric, pl);
  const NodeId sources[] = {NodeId(0), NodeId(1)};
  std::size_t k = 0;
  for (auto _ : state) {
    if (!gains.ensure_rows({&sources[k], 1}, nullptr)) {
      state.SkipWithError("gain table refused the row");
      return;
    }
    benchmark::DoNotOptimize(gains.row_block(sources[k], 0));
    benchmark::ClobberMemory();
    k ^= 1;
  }
  if (gains.stats().cells != state.iterations() * kCols)
    state.SkipWithError("an iteration did not fill a whole tile");
  state.counters["cells"] = benchmark::Counter(
      static_cast<double>(gains.stats().cells), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GainTileFill);

// Production slot pipeline: cached topology, grid pruning, reusable
// workspace. This is what Engine::run_slot executes.
void BM_ChannelResolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Scenario s(uniform_square(n, std::sqrt(n / 8.0), rng), ScenarioConfig{});
  const auto txs = sample_transmitters(n, 0.05, rng);
  SlotWorkspace ws;
  for (auto _ : state) {
    const SlotOutcome& outcome = s.channel().resolve_into(
        txs, s.network().alive_mask(), 1.0, ws);
    benchmark::DoNotOptimize(&outcome);
  }
}
BENCHMARK(BM_ChannelResolve)->Arg(128)->Arg(512)->Arg(2048);

// Brute-force reference (the pre-refactor resolve path, kept as the
// specification): the denominator of the speedup table in EXPERIMENTS.md.
void BM_ChannelResolveUncached(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Scenario s(uniform_square(n, std::sqrt(n / 8.0), rng), ScenarioConfig{});
  const auto txs = sample_transmitters(n, 0.05, rng);
  for (auto _ : state) {
    auto outcome = s.channel().resolve(txs, s.network().alive_mask());
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ChannelResolveUncached)->Arg(128)->Arg(512)->Arg(2048);

// Parallel interference/decode kernels (bit-identical to serial; wall-clock
// gain requires real cores — on a single-CPU host this measures overhead).
void BM_ChannelResolveThreads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Scenario s(uniform_square(n, std::sqrt(n / 8.0), rng), ScenarioConfig{});
  const auto txs = sample_transmitters(n, 0.05, rng);
  SlotWorkspace ws({.threads = static_cast<int>(state.range(1))});
  for (auto _ : state) {
    const SlotOutcome& outcome = s.channel().resolve_into(
        txs, s.network().alive_mask(), 1.0, ws);
    benchmark::DoNotOptimize(&outcome);
  }
}
BENCHMARK(BM_ChannelResolveThreads)->Args({2048, 2})->Args({2048, 4});

// Steady-state TryAdjust engine rounds at n = state.range(0) nodes uniform
// on a square of density 8 (scenario seed = config.seed), timed after
// `warmup` rounds, under the dynamics `make(scenario, extent)` returns
// (null = static).
template <class MakeDynamics>
void engine_rounds(benchmark::State& state, EngineConfig config, int warmup,
                   MakeDynamics make) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double extent = std::sqrt(n / 8.0);
  Rng rng(config.seed);
  Scenario s(uniform_square(n, extent, rng), ScenarioConfig{});
  auto protos = make_protocols(n, [&](NodeId) {
    return std::make_unique<TryAdjustProtocol>(TryAdjust::standard(n, 1.0));
  });
  const CarrierSensing cs = s.sensing_local();
  Engine engine(s.channel(), s.network(), cs, protos, config);
  const std::unique_ptr<Dynamics> dynamics = make(s, extent);
  engine.set_dynamics(dynamics.get());
  for (int i = 0; i < warmup; ++i) engine.step();  // reach steady state
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

std::unique_ptr<Dynamics> static_topology(Scenario&, double) { return {}; }

void BM_EngineRound(benchmark::State& state) {
  engine_rounds(state, {.seed = 3}, 100, static_topology);
}
BENCHMARK(BM_EngineRound)->Arg(128)->Arg(512)->Arg(2048);

// Bounded mobility: a 1/32 fraction of the nodes drifts each round — the
// paper's regime of rate-limited edge dynamics — so the per-round cache
// work scales with the movers (one grid move each, plus a grid query per
// neighbor list a transmitter reads).
void BM_EngineRoundMobility(benchmark::State& state) {
  engine_rounds(state, {.seed = 5}, 50,
                [](Scenario& s, double extent) {
                  return std::make_unique<WaypointMobility>(
                      *s.euclidean(),
                      WaypointMobility::Config{.speed = 0.01,
                                               .extent = extent,
                                               .mobile_fraction = 1.0 / 32.0});
                });
}
BENCHMARK(BM_EngineRoundMobility)->Arg(2048)->Arg(8192);

// Node churn: one departure and one re-placed arrival per round. The delta
// path moves the arrival in the grid instead of rebuilding it, and refills
// only the neighbor lists the round's transmitters read (one grid query
// each); the arrival's move is the only gain-column damage.
void BM_EngineRoundChurn(benchmark::State& state) {
  engine_rounds(state, {.seed = 6}, 50,
                [](Scenario&, double extent) {
                  return std::make_unique<ChurnDynamics>(
                      ChurnDynamics::Config{.arrival_rate = 1.0,
                                            .departure_rate = 1.0,
                                            .placement_extent = extent});
                });
}
BENCHMARK(BM_EngineRoundChurn)->Arg(2048)->Arg(8192);

// Same workload with a live Obs handle: counters, histograms, and trace
// events all on. The ratio against BM_EngineRound at the same n is the
// observability overhead; tools/obs_overhead_check.py gates it at 5% in CI
// and bench/results/BENCH_micro_obs.json records the measured numbers.
// The handle is per-iteration-set, not per-iteration: counters accumulate
// across steps exactly as in a real observed run.
void BM_EngineRoundObs(benchmark::State& state) {
  Obs obs;
  engine_rounds(state, {.seed = 3, .obs = &obs}, 100, static_topology);
}
BENCHMARK(BM_EngineRoundObs)->Arg(128)->Arg(512)->Arg(2048);

// The opt-in state-transition tier on top: one virtual obs_state() poll per
// node per round. Documented here, NOT gated — the poll is O(n) against a
// slot pipeline that is sublinear in quiet regions, so its relative cost
// grows with n by design (see ObsConfig::state_transitions).
void BM_EngineRoundObsStates(benchmark::State& state) {
  Obs obs(ObsConfig{.state_transitions = true});
  engine_rounds(state, {.seed = 3, .obs = &obs}, 100, static_topology);
}
BENCHMARK(BM_EngineRoundObsStates)->Arg(128)->Arg(512)->Arg(2048);

// Batched multi-scenario execution (sim/batch.h): K = 16 independent
// short engine trials per iteration, dispatched over one shared TaskPool.
// Arg = pool threads; Arg(1) is the serial baseline of the speedup claim.
// Wall-clock gain requires real cores — on a single-CPU host the threaded
// variant measures dispatch overhead, like BM_ChannelResolveThreads.
double batch_trial(std::uint64_t seed) {
  const std::size_t n = 160;
  Rng rng(seed);
  Scenario s(uniform_square(n, std::sqrt(n / 8.0), rng), ScenarioConfig{});
  auto protos = make_protocols(n, [&](NodeId) {
    return std::make_unique<TryAdjustProtocol>(TryAdjust::standard(n, 1.0));
  });
  const CarrierSensing cs = s.sensing_local();
  Engine engine(s.channel(), s.network(), cs, protos,
                EngineConfig{.seed = seed});
  for (int i = 0; i < 30; ++i) engine.step();
  double sum = 0;
  for (NodeId v : s.network().alive_nodes())
    sum += engine.last_probability(v);
  return sum;
}

void BM_BatchTrials(benchmark::State& state) {
  const std::size_t trials = 16;
  const auto seeds = BatchRunner::trial_seeds(9000, trials);
  BatchRunner runner(
      BatchConfig{.threads = static_cast<int>(state.range(0))});
  for (auto _ : state) {
    auto results = runner.run(
        trials, [&](std::size_t k) { return batch_trial(seeds[k]); });
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trials));
}
BENCHMARK(BM_BatchTrials)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_GreedyPacking(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  EuclideanMetric metric(uniform_square(n, std::sqrt(n / 8.0), rng));
  std::vector<NodeId> ids(n);
  for (std::uint32_t v = 0; v < n; ++v) ids[v] = NodeId(v);
  for (auto _ : state) {
    auto packing = greedy_packing(metric, ids, 0.5);
    benchmark::DoNotOptimize(packing);
  }
}
BENCHMARK(BM_GreedyPacking)->Arg(128)->Arg(512)->Arg(2048);

}  // namespace
}  // namespace udwn

// Custom main instead of BENCHMARK_MAIN(): with UDWN_JSON=<path> in the
// environment (the same knob the exp* binaries honor), inject
// --benchmark_out so the run lands as google-benchmark JSON at <path>.
// Explicit --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0)
      has_out = true;
  if (const char* path = std::getenv("UDWN_JSON");
      path != nullptr && path[0] != '\0' && !has_out) {
    out_flag = std::string("--benchmark_out=") + path;
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
