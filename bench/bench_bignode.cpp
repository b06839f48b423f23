// Million-node engine rounds (google-benchmark): the scale tier above
// bench_micro. Two claims are measured here, recorded in
// bench/results/BENCH_micro_bignode.json:
//
//  1. BM_EngineRound/{65536,1048576} — full engine rounds at 64k and 1M
//     nodes under the certified far-field approximation (ε = 0.25). The
//     exact field is Θ(n·|S|) signal evaluations per slot; the far path
//     replaces it with a near sweep plus one aggregated term per listener
//     cell, which is what makes million-node rounds affordable at all.
//  2. BM_Field{Exact,Far}/65536 — one exact brute-force field vs one
//     ε-certified approximate field at 64k, same transmitter set: the
//     kernel-level speedup behind claim 1.
//
// Contention is held at T ≈ 768 expected transmitters per slot independent
// of n (a fixed-probability protocol), matching the dense-instance regime
// the approximation targets: n grows, the active set does not.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/runner.h"
#include "analysis/scenario.h"
#include "bench/cpu_features.h"
#include "common/rng.h"
#include "phy/far_field.h"
#include "phy/interference.h"
#include "sim/engine.h"
#include "topo/generators.h"

namespace udwn {
namespace {

constexpr double kTargetTx = 768.0;  // expected transmitters per slot

/// Fixed transmit probability T/n: expected contention stays ~T at every n,
/// so engine rows at different scales stress the field kernels, not the
/// MAC dynamics.
class FixedProbProtocol final : public Protocol {
 public:
  explicit FixedProbProtocol(double p) : p_(p) {}
  double transmit_probability(Slot) override { return p_; }
  void on_slot(const SlotFeedback&) override {}

 private:
  double p_;
};

std::vector<NodeId> sample_transmitters(std::size_t n, double fraction,
                                        Rng& rng) {
  std::vector<NodeId> txs;
  for (std::uint32_t v = 0; v < n; ++v)
    if (rng.chance(fraction)) txs.push_back(NodeId(v));
  return txs;
}

// Full engine rounds at 64k / 1M nodes, far-field approximation on.
void BM_EngineRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  Scenario s(uniform_square(n, std::sqrt(n / 8.0), rng), ScenarioConfig{});
  const double p = std::min(1.0, kTargetTx / static_cast<double>(n));
  auto protos = make_protocols(
      n, [&](NodeId) { return std::make_unique<FixedProbProtocol>(p); });
  const CarrierSensing cs = s.sensing_local();
  Engine engine(s.channel(), s.network(), cs, protos,
                EngineConfig{.seed = 11,
                             .far_field_eps = 0.25,
                             .far_field_cell_factor = 0.5});
  for (int i = 0; i < 3; ++i) engine.step();  // warm caches + scratch
  for (auto _ : state) engine.step();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineRound)
    ->Arg(65536)
    ->Arg(1048576)
    ->Unit(benchmark::kMillisecond);

// Exact brute-force field at 64k (the fallback kernel that would run at
// this scale: one signal evaluation per transmitter/listener pair)...
void BM_FieldExact(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  EuclideanMetric metric(uniform_square(n, std::sqrt(n / 8.0), rng));
  const PathLoss pl(1.0, 3.0, 1e-3);
  const auto txs =
      sample_transmitters(n, kTargetTx / static_cast<double>(n), rng);
  std::vector<double> field;
  for (auto _ : state) {
    interference_field_into(metric, pl, txs, field, nullptr);
    benchmark::DoNotOptimize(field.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * txs.size()));
}
BENCHMARK(BM_FieldExact)->Arg(65536)->Unit(benchmark::kMillisecond);

// ... vs the ε-certified far-field approximation on the same instance and
// transmitter set (ε = 0.25, cell ≈ 0.5).
void BM_FieldFar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  EuclideanMetric metric(uniform_square(n, std::sqrt(n / 8.0), rng));
  const PathLoss pl(1.0, 3.0, 1e-3);
  const auto txs =
      sample_transmitters(n, kTargetTx / static_cast<double>(n), rng);
  const auto params = far_field_params(0.25, 0.5, pl);
  if (!params.has_value()) {
    state.SkipWithError("infeasible far-field certificate");
    return;
  }
  FarFieldWorkspace workspace;
  std::vector<double> field;
  if (!workspace.field_into(metric, pl, txs, *params, field, nullptr)) {
    state.SkipWithError("layout defeated far-field aggregation");
    return;
  }
  for (auto _ : state) {
    const bool ok =
        workspace.field_into(metric, pl, txs, *params, field, nullptr);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(field.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * txs.size()));
}
BENCHMARK(BM_FieldFar)->Arg(65536)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace udwn

// Same UDWN_JSON convention as bench_micro: with UDWN_JSON=<path> set and
// no explicit --benchmark_out, the run lands as google-benchmark JSON at
// <path>. The host's probed ISA features ride along as benchmark context.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("cpu_features",
                              udwn::bench::cpu_features_string());
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
