// Sharded per-node sweeps. With a pool and a population whose protocols all
// declare Protocol::isolated(), the engine runs transmitter sampling and
// feedback as pool chunks over contiguous id ranges. Each library override
// is checked here: a dynamic run with churn and mobility must hash the same
// at threads 1, 2 and 4. A population holding one protocol that does not
// declare isolation must keep both sweeps serial, in id order, on the
// engine thread, and still produce the same trace.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/determinism.h"
#include "analysis/runner.h"
#include "analysis/scenario.h"
#include "baselines/aloha.h"
#include "baselines/decay.h"
#include "baselines/jammer.h"
#include "baselines/jks_broadcast.h"
#include "baselines/opportunistic.h"
#include "core/broadcast.h"
#include "core/local_broadcast.h"
#include "core/multi_message.h"
#include "core/spontaneous.h"
#include "core/try_adjust_protocol.h"
#include "obs/obs.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "tests/helpers.h"

namespace udwn {
namespace {

constexpr std::size_t kNodes = 96;
constexpr double kExtent = 6.0;
constexpr Round kRounds = 60;

using Factory = std::function<std::unique_ptr<Protocol>(NodeId)>;

struct Case {
  std::string name;
  int slots_per_round;
  bool broadcast_sensing;
  Factory make;
};

// Test names and failure messages show the case by name.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

bool is_source(NodeId id) { return id == NodeId{0}; }

std::vector<Case> library_cases() {
  const std::size_t n = kNodes;
  return {
      {"TryAdjust", 1, false,
       [n](NodeId) {
         return std::make_unique<TryAdjustProtocol>(
             TryAdjust::standard(n, 1.0));
       }},
      {"LocalBcast", 1, false,
       [n](NodeId) {
         return std::make_unique<LocalBcastProtocol>(
             TryAdjust::standard(n, 1.0));
       }},
      {"BcastDynamic", 2, true,
       [n](NodeId id) {
         return std::make_unique<BcastProtocol>(TryAdjust::standard(n, 2.0),
                                                BcastProtocol::Mode::Dynamic,
                                                is_source(id));
       }},
      {"BcastStatic", 2, true,
       [n](NodeId id) {
         return std::make_unique<BcastProtocol>(TryAdjust::standard(n, 2.0),
                                                BcastProtocol::Mode::Static,
                                                is_source(id));
       }},
      {"MultiMessage", 2, true,
       [n](NodeId id) {
         return std::make_unique<MultiMessageBcastProtocol>(
             TryAdjust::standard(n, 2.0), 3, is_source(id));
       }},
      {"DominatorFlood", 1, true,
       [](NodeId id) {
         return std::make_unique<DominatorFloodProtocol>(
             id.value % 4 == 0, is_source(id), 0.3);
       }},
      {"OverlappedSpontaneous", 2, true,
       [n](NodeId id) {
         return std::make_unique<OverlappedSpontaneousProtocol>(
             TryAdjust::standard(n, 2.0), 0.3, is_source(id));
       }},
      {"Aloha", 1, false,
       [](NodeId) { return std::make_unique<AlohaLocalBcastProtocol>(0.1); }},
      {"DecayLocal", 1, false,
       [](NodeId) { return std::make_unique<DecayLocalBcastProtocol>(6); }},
      {"DecayBroadcast", 1, true,
       [](NodeId id) {
         return std::make_unique<DecayBroadcastProtocol>(6, is_source(id));
       }},
      {"Jks", 1, true,
       [n](NodeId id) {
         return std::make_unique<JksBroadcastProtocol>(id, n, is_source(id));
       }},
      {"Opportunistic", 1, true,
       [](NodeId id) {
         return std::make_unique<OpportunisticDisseminationProtocol>(
             OpportunisticDisseminationProtocol::Config{}, is_source(id));
       }},
      {"Jammer", 2, false,
       [](NodeId) { return std::make_unique<JammerProtocol>(0.1, true); }},
  };
}

struct RunResult {
  std::vector<std::uint64_t> round_hashes;
  std::uint64_t pool_jobs = 0;
};

/// A dynamic run (waypoint mobility + churn) of `c`'s population at
/// `threads`; `wrap`, when set, wraps each node's protocol.
RunResult run(const Case& c, int threads, bool async = false,
              const std::function<std::unique_ptr<Protocol>(
                  NodeId, std::unique_ptr<Protocol>)>& wrap = nullptr) {
  Scenario scenario(test::random_points(kNodes, kExtent, 8121),
                    test::default_config());
  auto protocols = make_protocols(kNodes, [&](NodeId id) {
    std::unique_ptr<Protocol> p = c.make(id);
    return wrap ? wrap(id, std::move(p)) : std::move(p);
  });
  const CarrierSensing sensing = c.broadcast_sensing
                                     ? scenario.sensing_broadcast()
                                     : scenario.sensing_local();
  WaypointMobility mobility(*scenario.euclidean(),
                            {.speed = 0.05,
                             .extent = kExtent,
                             .mobile_fraction = 0.25});
  ChurnDynamics churn({.arrival_rate = 0.5,
                       .departure_rate = 0.5,
                       .placement_extent = kExtent,
                       .pinned = {NodeId{0}}});
  CompositeDynamics dynamics({&mobility, &churn});
  Obs obs(ObsConfig{.events = false});
  Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                EngineConfig{.slots_per_round = c.slots_per_round,
                             .async = async,
                             .seed = 77,
                             .threads = threads,
                             .obs = &obs});
  engine.set_dynamics(&dynamics);
  TraceHashRecorder hash;
  engine.set_recorder(&hash);
  for (Round r = 0; r < kRounds; ++r) engine.step();
  return {hash.round_hashes(), obs.metrics().total(obs.ids().pool_jobs)};
}

class IsolatedProtocol : public ::testing::TestWithParam<Case> {};

TEST_P(IsolatedProtocol, ShardedSweepsMatchSerialUnderChurnAndMobility) {
  const Case& c = GetParam();
  EXPECT_TRUE(c.make(NodeId{0})->isolated());
  EXPECT_TRUE(c.make(NodeId{1})->isolated());
  const RunResult serial = run(c, 1);
  ASSERT_EQ(serial.round_hashes.size(), static_cast<std::size_t>(kRounds));
  EXPECT_EQ(serial.pool_jobs, 0u);
  for (int threads : {2, 4}) {
    const RunResult sharded = run(c, threads);
    EXPECT_EQ(sharded.round_hashes, serial.round_hashes)
        << c.name << " at threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Library, IsolatedProtocol,
                         ::testing::ValuesIn(library_cases()),
                         [](const auto& info) { return info.param.name; });

// Drift-async clocks advance inside the Data-slot sampling sweep, so the
// sharded sweep also shards the clocks.
TEST(SweepSharding, DriftAsyncClocksMatchSerial) {
  for (const Case& c : library_cases()) {
    if (c.name != "BcastDynamic" && c.name != "LocalBcast") continue;
    const RunResult serial = run(c, 1, /*async=*/true);
    for (int threads : {2, 4})
      EXPECT_EQ(run(c, threads, /*async=*/true).round_hashes,
                serial.round_hashes)
          << c.name << " at threads=" << threads;
  }
}

/// Forwarding wrapper that does not declare isolation and logs every
/// protocol call it sees into a log shared by all wrapped nodes.
struct CallLog {
  struct Entry {
    std::thread::id thread;
    std::uint32_t node;
    bool feedback;
  };
  std::vector<Entry> entries;
};

class LoggingProtocol final : public Protocol {
 public:
  LoggingProtocol(std::unique_ptr<Protocol> inner, NodeId id, CallLog* log)
      : inner_(std::move(inner)), id_(id), log_(log) {}
  void on_start() override { inner_->on_start(); }
  double transmit_probability(Slot slot) override {
    log_->entries.push_back({std::this_thread::get_id(), id_.value, false});
    return inner_->transmit_probability(slot);
  }
  std::uint32_t payload(Slot slot) const override {
    return inner_->payload(slot);
  }
  void on_slot(const SlotFeedback& feedback) override {
    log_->entries.push_back({std::this_thread::get_id(), id_.value, true});
    inner_->on_slot(feedback);
  }
  bool finished() const override { return inner_->finished(); }
  std::uint32_t obs_state() const override { return inner_->obs_state(); }

 private:
  std::unique_ptr<Protocol> inner_;
  NodeId id_;
  CallLog* log_;
};

Case bcast_case() {
  for (const Case& c : library_cases())
    if (c.name == "BcastDynamic") return c;
  return {};
}

TEST(SweepSharding, OneNonIsolatedProtocolKeepsTheSweepsSerial) {
  const Case c = bcast_case();
  CallLog log;
  const RunResult serial = run(c, 1);
  const RunResult sharded = run(c, 4);
  const RunResult mixed =
      run(c, 4, false, [&](NodeId id, std::unique_ptr<Protocol> p) {
        if (id.value != 7) return p;
        return std::unique_ptr<Protocol>(
            std::make_unique<LoggingProtocol>(std::move(p), id, &log));
      });
  EXPECT_EQ(mixed.round_hashes, serial.round_hashes);
  // Sharding adds exactly two pool jobs per slot (sampling and feedback);
  // the mixed population runs both on the engine thread.
  EXPECT_EQ(sharded.pool_jobs - mixed.pool_jobs,
            static_cast<std::uint64_t>(2 * c.slots_per_round * kRounds));
  ASSERT_FALSE(log.entries.empty());
  for (const CallLog::Entry& e : log.entries)
    EXPECT_EQ(e.thread, std::this_thread::get_id());
}

TEST(SweepSharding, SerialSweepsVisitNodesInIdOrder) {
  const Case c = bcast_case();
  CallLog log;
  const RunResult logged =
      run(c, 4, false, [&](NodeId id, std::unique_ptr<Protocol> p) {
        return std::unique_ptr<Protocol>(
            std::make_unique<LoggingProtocol>(std::move(p), id, &log));
      });
  EXPECT_EQ(logged.round_hashes, run(c, 1).round_hashes);
  // Ids rise within each sweep; a sweep ends where the call kind changes
  // or the id drops (the next slot's sweep).
  ASSERT_FALSE(log.entries.empty());
  std::size_t sweeps = 1;
  for (std::size_t i = 1; i < log.entries.size(); ++i) {
    const CallLog::Entry& prev = log.entries[i - 1];
    const CallLog::Entry& cur = log.entries[i];
    EXPECT_EQ(cur.thread, std::this_thread::get_id());
    if (cur.feedback == prev.feedback && cur.node > prev.node) continue;
    ++sweeps;
  }
  EXPECT_EQ(sweeps,
            static_cast<std::size_t>(2 * c.slots_per_round * kRounds));
}

}  // namespace
}  // namespace udwn
