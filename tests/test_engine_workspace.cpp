// Steady-state allocation, trace-equivalence and gain-row retirement tests
// for the engine's slot-pipeline workspace.
//
// The tentpole claim "zero allocation in a steady-state slot" is enforced
// with a counting global operator new/delete: after a warm-up round sizes
// every buffer, further rounds on a stable topology must not touch the
// heap — for serial AND multi-threaded engines (TaskPool dispatch is a
// function pointer + stack context, never a std::function).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>

#include "analysis/determinism.h"
#include "analysis/runner.h"
#include "analysis/scenario.h"
#include "core/local_broadcast.h"
#include "obs/obs.h"
#include "sim/engine.h"
#include "tests/helpers.h"

// The replaced operator new below is malloc-backed and the replaced delete
// free-backed — a matched pair by definition. GCC cannot see that when it
// inlines the operators into library code and warns about new/free mixing.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<long long> g_live_allocations{0};
std::atomic<bool> g_counting{false};
// While counting, allocations of at least this many bytes (0 = off) are
// also tallied in g_large_allocations.
std::atomic<std::size_t> g_large_bytes{0};
std::atomic<long long> g_large_allocations{0};

}  // namespace

// Counting allocator: replacing global new/delete is the only way to see
// every allocation, including those inside libstdc++ containers.
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_live_allocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t large = g_large_bytes.load(std::memory_order_relaxed);
    if (large != 0 && size >= large)
      g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace udwn {
namespace {

/// Minimal stateless protocol with a fixed transmission probability: its
/// on_slot is a no-op, so any allocation observed during a round comes from
/// the engine/channel pipeline, not from protocol logic. Isolated, so with
/// threads > 1 the per-node sweeps run sharded on the pool.
class FixedProbabilityProtocol final : public Protocol {
 public:
  explicit FixedProbabilityProtocol(double p) : p_(p) {}
  double transmit_probability(Slot) override { return p_; }
  void on_slot(const SlotFeedback&) override {}
  [[nodiscard]] bool isolated() const override { return true; }

 private:
  double p_;
};

long long allocations_during_rounds(Engine& engine, int rounds) {
  g_live_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (int r = 0; r < rounds; ++r) engine.step();
  g_counting.store(false, std::memory_order_relaxed);
  return g_live_allocations.load(std::memory_order_relaxed);
}

class SteadyStateAllocation : public ::testing::TestWithParam<int> {};

TEST_P(SteadyStateAllocation, SlotPerformsNoHeapAllocation) {
  Scenario scenario(test::random_points(64, 6.0, 8101),
                    test::default_config());
  auto protocols = make_protocols(scenario.network().size(), [](NodeId) {
    return std::make_unique<FixedProbabilityProtocol>(0.25);
  });
  const CarrierSensing sensing = scenario.sensing_local();
  Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                EngineConfig{.slots_per_round = 2,
                             .seed = 42,
                             .threads = GetParam()});

  // Warm-up: size every workspace buffer and fill the lazy caches. Each
  // node's neighbor list is derived on its first transmission, so warm up
  // long enough (deterministic under the fixed seed) that every node has
  // transmitted at least once.
  for (int r = 0; r < 25; ++r) engine.step();

  EXPECT_EQ(allocations_during_rounds(engine, 10), 0)
      << "steady-state rounds must not allocate (threads=" << GetParam()
      << ")";
}

INSTANTIATE_TEST_SUITE_P(Threads, SteadyStateAllocation,
                         ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "threads" +
                                  std::to_string(info.param);
                         });

class FarFieldAllocation : public ::testing::TestWithParam<int> {};

constexpr double kTransmitProbability = 0.1;

// Heap allocations in `measured` far-field engine rounds on `nodes` uniform
// points (density 8) at `threads`, after `warm_up` rounds. The certified far
// field keeps offset tables and the listener layout cached across slots and
// per-slot scratch sized by the transmitter count (the near sweep's gather
// buffers also by the pool's chunk count, hence threads 4). With a real
// protocol drawing a different transmitter set every slot, warm rounds must
// still not touch the heap.
long long far_field_allocations(std::size_t nodes, int threads, int warm_up,
                                int measured) {
  const double extent = std::sqrt(static_cast<double>(nodes) / 8.0);
  Scenario scenario(test::random_points(nodes, extent, 8106),
                    test::default_config());
  const SlotWorkspaceConfig far{.far_field_eps = 0.5,
                                .far_field_cell_factor = 0.25};

  // The layout really takes the far-field path: its field differs from the
  // exact one.
  {
    SlotWorkspace ws(far);
    Rng rng(8107);
    const Network& network = scenario.network();
    const auto txs =
        test::sample_transmitters(network, rng, kTransmitProbability);
    const SlotOutcome exact =
        scenario.channel().resolve(txs, network.alive_mask(), 1.0);
    const SlotOutcome& got = scenario.channel().resolve_into(
        txs, network.alive_mask(), 1.0, ws);
    EXPECT_NE(exact.interference, got.interference);
  }

  auto protocols = make_protocols(scenario.network().size(), [](NodeId) {
    return std::make_unique<FixedProbabilityProtocol>(kTransmitProbability);
  });
  const CarrierSensing sensing = scenario.sensing_local();
  Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                EngineConfig{.slots_per_round = 2,
                             .seed = 42,
                             .threads = threads,
                             .far_field_eps = far.far_field_eps,
                             .far_field_cell_factor =
                                 far.far_field_cell_factor});
  for (int r = 0; r < warm_up; ++r) engine.step();
  return allocations_during_rounds(engine, measured);
}

TEST_P(FarFieldAllocation, SlotPerformsNoHeapAllocation) {
  // Warm-up as above, long enough that every node has transmitted once
  // (1024 · 0.9^120 < 0.01 nodes expected to be left). ~100 transmitters
  // per slot keep the mass-delivery/clear loop serial at threads 4 and in
  // most slots at threads 2 (the pool takes it from 64 per thread).
  EXPECT_EQ(far_field_allocations(1024, GetParam(), 60, 40), 0)
      << "far-field steady-state rounds must not allocate (threads="
      << GetParam() << ")";
}

TEST_P(FarFieldAllocation, ShardedFlagLoopPerformsNoHeapAllocation) {
  // ~410 transmitters per slot (about eight standard deviations above
  // 256 = 64 per thread at threads 4) put the mass-delivery/clear loop on
  // the pool, whose chunks fill neighbour lists on the workers. Warm up until every node has
  // transmitted (4096 · 0.9^140 < 0.01 nodes expected to be left).
  EXPECT_EQ(far_field_allocations(4096, GetParam(), 70, 20), 0)
      << "far-field steady-state rounds must not allocate (threads="
      << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Threads, FarFieldAllocation,
                         ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "threads" +
                                  std::to_string(info.param);
                         });

TEST(SteadyStateAllocation, ObservabilityOnAlsoSettles) {
  // With an Obs handle attached, warm-up creates the metric shard and the
  // trace ring (both sized up front); steady-state rounds then increment
  // counters and append into reserved ring storage without touching the
  // heap — the "cheap enough to leave on" half of the overhead contract.
  Scenario scenario(test::random_points(64, 6.0, 8101),
                    test::default_config());
  auto protocols = make_protocols(scenario.network().size(), [](NodeId) {
    return std::make_unique<FixedProbabilityProtocol>(0.25);
  });
  const CarrierSensing sensing = scenario.sensing_local();
  Obs obs(ObsConfig{.state_transitions = true});  // the expensive tier too
  Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                EngineConfig{.slots_per_round = 2, .seed = 42, .obs = &obs});

  for (int r = 0; r < 25; ++r) engine.step();

  EXPECT_EQ(allocations_during_rounds(engine, 10), 0)
      << "obs-enabled steady-state rounds must not allocate";
  EXPECT_GT(obs.metrics().total(obs.ids().slots), 0u);
}

TEST(SteadyStateAllocation, SoaTiledTableWithEvictionSettles) {
  // The field driver + tiled gain table under LRU pressure: 4 threads at
  // n = 64 make 16-column tiles, 4 blocks/row and 256 logical tiles, and
  // the 10 KiB budget holds 80 — every slot evicts. After warming over the
  // exact transmitter sets that will be replayed, resolve_into must not
  // allocate: tile storage, fill scratch and row pointers are all reused.
  Scenario scenario(test::random_points(64, 6.0, 8104),
                    test::default_config());
  const Channel& channel = scenario.channel();
  const Network& network = scenario.network();
  SlotWorkspace ws({.gain_budget_bytes = 10240, .threads = 4});

  std::vector<std::vector<NodeId>> tx_sets;
  Rng rng(8105);
  for (int s = 0; s < 12; ++s)
    tx_sets.push_back(test::sample_transmitters(network, rng, 0.25));

  for (const auto& txs : tx_sets)  // warm-up sizes every buffer
    channel.resolve_into(txs, network.alive_mask(), 1.0, ws);

  GainTable* gains = ws.cache().gains();
  ASSERT_NE(gains, nullptr);
  EXPECT_EQ(gains->blocks(), 4u);
  EXPECT_EQ(gains->max_tiles(), 80u);

  g_live_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (const auto& txs : tx_sets)
    channel.resolve_into(txs, network.alive_mask(), 1.0, ws);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_live_allocations.load(std::memory_order_relaxed), 0);
}

// Allocations of at least `bytes` made while `fn` runs.
template <class Fn>
long long large_allocations_during(std::size_t bytes, Fn&& fn) {
  g_large_allocations.store(0, std::memory_order_relaxed);
  g_large_bytes.store(bytes, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  g_large_bytes.store(0, std::memory_order_relaxed);
  return g_large_allocations.load(std::memory_order_relaxed);
}

TEST(GainTableAllocation, AllocatedOnFirstPlanNeverByFarFieldEngines) {
  // n = 4096 at the default width is one 4096-column block per row, and
  // the default 128 MiB budget reserves tile storage for every row: n²
  // doubles, one allocation that outweighs any other buffer an engine
  // sizes. The far-field path never plans gain rows, so its engine must
  // never allocate the table; the exact engine on the same instance
  // allocates it on its first slot, not before.
  constexpr std::size_t kNodes = 4096;
  constexpr std::size_t kTableBytes = kNodes * kNodes * sizeof(double);
  const double extent = std::sqrt(static_cast<double>(kNodes) / 8.0);
  Scenario scenario(test::random_points(kNodes, extent, 8108),
                    test::default_config());
  const CarrierSensing sensing = scenario.sensing_local();

  const auto count = [&](double far_field_eps) {
    auto protocols = make_protocols(scenario.network().size(), [](NodeId) {
      return std::make_unique<FixedProbabilityProtocol>(0.02);
    });
    std::unique_ptr<Engine> engine;
    const long long built = large_allocations_during(kTableBytes, [&] {
      engine = std::make_unique<Engine>(
          scenario.channel(), scenario.network(), sensing, protocols,
          EngineConfig{.seed = 42,
                       .far_field_eps = far_field_eps,
                       .far_field_cell_factor = 0.25});
    });
    const long long first =
        large_allocations_during(kTableBytes, [&] { engine->step(); });
    const long long later = large_allocations_during(kTableBytes, [&] {
      for (int r = 0; r < 3; ++r) engine->step();
    });
    return std::array<long long, 3>{built, first, later};
  };

  const std::array<long long, 3> far = count(0.5);
  EXPECT_EQ(far[0], 0) << "far-field engine construction";
  EXPECT_EQ(far[1], 0) << "far-field engine, first slot";
  EXPECT_EQ(far[2], 0) << "far-field engine, later slots";

  const std::array<long long, 3> exact = count(0.0);
  EXPECT_EQ(exact[0], 0) << "exact engine construction";
  EXPECT_GE(exact[1], 1) << "exact engine, first slot";
  EXPECT_EQ(exact[2], 0) << "exact engine, later slots";
}

// Engine-level trace equivalence: every pipeline configuration must
// reproduce Channel::resolve() in every slot (checked per slot, not
// inferred from a hash) and so share one ground-truth trace.
std::uint64_t engine_trace_hash(const EngineConfig& config) {
  constexpr int kRounds = 40;
  Scenario scenario(test::random_points(56, 5.5, 8103),
                    test::default_config());
  auto protocols = make_protocols(scenario.network().size(), [](NodeId) {
    return std::make_unique<FixedProbabilityProtocol>(0.3);
  });
  const CarrierSensing sensing = scenario.sensing_local();
  Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                config);
  TraceHashRecorder recorder;
  ReferenceCheck check(config.notify_power_scale, &recorder);
  engine.set_recorder(&check);
  for (int r = 0; r < kRounds; ++r) engine.step();
  EXPECT_TRUE(check.passed())
      << to_string(check) << ", threads " << config.threads;
  EXPECT_EQ(check.slots_checked(), static_cast<std::uint64_t>(kRounds));
  return recorder.final_hash();
}

TEST(EngineWorkspace, PipelineConfigurationsShareOneTrace) {
  const std::uint64_t reference = engine_trace_hash(EngineConfig{.seed = 3});
  // Sharded fields: 3 and 4 threads at n = 56 both make 16-column tiles,
  // 4 blocks per row, and the table disabled runs the uncached kernel; all
  // reproduce the same trace.
  EXPECT_EQ(reference, engine_trace_hash(EngineConfig{
                           .seed = 3, .threads = 3}));
  EXPECT_EQ(reference, engine_trace_hash(EngineConfig{
                           .seed = 3, .threads = 4}));
  EXPECT_EQ(reference, engine_trace_hash(EngineConfig{
                           .seed = 3, .gain_budget_bytes = 0}));
  // Observability must be a pure observer: attaching an Obs handle (alone
  // and combined with threads) cannot change the ground-truth trace.
  Obs obs(ObsConfig{.state_transitions = true});
  EXPECT_EQ(reference,
            engine_trace_hash(EngineConfig{.seed = 3, .obs = &obs}));
  Obs obs_threaded;
  EXPECT_EQ(reference, engine_trace_hash(EngineConfig{
                           .seed = 3, .threads = 2, .obs = &obs_threaded}));
}

// Retiring dead gain rows. A static LocalBcast solve at n = 512 on 8
// threads, which make 64-column tiles (8 blocks per row); a node stops for
// good once ACK certifies it, and the engine then retires its rows.
constexpr std::size_t kSolveNodes = 512;
constexpr int kSolveThreads = 8;
constexpr std::size_t kSolveTileCols = 64;
constexpr std::size_t kSolveBlocks = kSolveNodes / kSolveTileCols;

struct SolveRun {
  GainTable::Stats stats;
  std::uint64_t hash = 0;
  Round rounds = 0;
};

SolveRun local_bcast_solve(std::size_t budget_rows, bool async = false) {
  const double extent = std::sqrt(static_cast<double>(kSolveNodes) / 8.0);
  Scenario scenario(test::random_points(kSolveNodes, extent, 8110),
                    test::default_config());
  auto protocols = make_protocols(kSolveNodes, [](NodeId) {
    return std::make_unique<LocalBcastProtocol>(
        TryAdjust::standard(kSolveNodes, 1.0));
  });
  const CarrierSensing sensing = scenario.sensing_local();
  Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                EngineConfig{.slots_per_round = 1,
                             .async = async,
                             .seed = 8111,
                             .threads = kSolveThreads,
                             .gain_budget_bytes = budget_rows * kSolveBlocks *
                                                  kSolveTileCols *
                                                  sizeof(double)});
  TraceHashRecorder recorder;
  engine.set_recorder(&recorder);
  const auto solved = engine.run_until(
      [](const Engine& e) {
        for (std::uint32_t v = 0; v < kSolveNodes; ++v)
          if (!e.protocol(NodeId(v)).finished()) return false;
        return true;
      },
      20000);
  EXPECT_TRUE(solved.has_value());
  return SolveRun{engine.gain_stats(), recorder.final_hash(),
                  solved.value_or(-1)};
}

TEST(GainRowRetirement, StaticLocalBcastFillsEachTileOnce) {
  // 192 rows of budget hold the rows still transmitting at any time but
  // not all 512: retiring the finished nodes' rows first means no live row
  // is ever evicted, so every tile is filled exactly once per solve.
  // Residency never changes a gain, so the trace equals the all-rows run.
  ASSERT_EQ(gain_tile_width(kSolveNodes, kSolveThreads, 4096),
            kSolveTileCols);
  const SolveRun tight = local_bcast_solve(192);
  const SolveRun all_rows = local_bcast_solve(kSolveNodes);
  EXPECT_EQ(tight.stats.fills, kSolveNodes * kSolveBlocks);
  EXPECT_GT(tight.stats.evictions, 0u);
  EXPECT_EQ(tight.stats.fallbacks, 0u);
  EXPECT_EQ(all_rows.stats.fills, kSolveNodes * kSolveBlocks);
  EXPECT_EQ(all_rows.stats.evictions, 0u);
  EXPECT_EQ(tight.hash, all_rows.hash);
  EXPECT_EQ(tight.rounds, all_rows.rounds);
  // Every finished node but the last round's is retired while resident.
  EXPECT_GE(tight.stats.demotions, kSolveNodes - 8);
  EXPECT_LT(tight.stats.demotions, kSolveNodes);
}

TEST(GainRowRetirement, UnfiredAsyncSlotsRetireNothing) {
  // A fixed p > 0 never drops to 0, so no row may be retired. Async clocks
  // with drift bound 4 skip most rounds, and an unfired node takes no
  // probability (last_probability reads 0): those slots must not count as
  // the node going quiet.
  Scenario scenario(test::random_points(64, 3.0, 8112),
                    test::default_config());
  auto protocols = make_protocols(scenario.network().size(), [](NodeId) {
    return std::make_unique<FixedProbabilityProtocol>(0.3);
  });
  const CarrierSensing sensing = scenario.sensing_local();
  Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                EngineConfig{.async = true, .drift_bound = 4.0, .seed = 8113});
  std::size_t unfired = 0;
  for (int r = 0; r < 30; ++r) {
    engine.step();
    for (std::uint32_t v = 0; v < 64; ++v)
      unfired += !engine.clock_fired(NodeId(v));
  }
  EXPECT_GT(unfired, 30u * 64u / 4u);
  EXPECT_GT(engine.gain_stats().fills, 0u);
  EXPECT_EQ(engine.gain_stats().evictions, 0u);
  EXPECT_EQ(engine.gain_stats().demotions, 0u);

  // An async LocalBcast solve still retires each finished node on its next
  // fired slot, and still fills each tile once.
  const SolveRun tight = local_bcast_solve(192, /*async=*/true);
  EXPECT_EQ(tight.stats.fills, kSolveNodes * kSolveBlocks);
  EXPECT_GE(tight.stats.demotions, kSolveNodes - 8);
  EXPECT_EQ(tight.hash, local_bcast_solve(kSolveNodes, true).hash);
}

}  // namespace
}  // namespace udwn
