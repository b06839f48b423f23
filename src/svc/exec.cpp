#include "svc/exec.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "analysis/runner.h"
#include "analysis/scenario.h"
#include "baselines/aloha.h"
#include "baselines/decay.h"
#include "common/contract.h"
#include "common/rng.h"
#include "core/broadcast.h"
#include "core/local_broadcast.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "topo/generators.h"

namespace udwn::svc {

namespace {

ScenarioConfig scenario_config(const RunRequest& request) {
  ScenarioConfig config;
  switch (request.model) {
    case ModelName::kSinr: config.model = ModelKind::Sinr; break;
    case ModelName::kUdg: config.model = ModelKind::Udg; break;
    case ModelName::kQudg: config.model = ModelKind::Qudg; break;
    case ModelName::kProtocol: config.model = ModelKind::Protocol; break;
    case ModelName::kSuccClear: config.model = ModelKind::SuccClearOnly; break;
  }
  config.epsilon = request.epsilon;
  config.zeta = request.zeta;
  return config;
}

std::vector<Vec2> build_points(const TopologySpec& topology, Rng& rng) {
  switch (topology.kind) {
    case TopologyKind::kUniformSquare:
      return uniform_square(topology.n, topology.extent, rng);
    case TopologyKind::kLattice:
      return lattice(topology.rows, topology.cols, topology.spacing);
    case TopologyKind::kClusterChain:
      return cluster_chain(topology.clusters, topology.per_cluster,
                           topology.spacing, topology.cluster_radius, rng);
  }
  return {};
}

/// Waypoint domain for mobility: the deployment's bounding extent.
double dynamics_extent(const TopologySpec& topology) {
  switch (topology.kind) {
    case TopologyKind::kUniformSquare:
      return topology.extent;
    case TopologyKind::kLattice:
      return topology.spacing *
             static_cast<double>(std::max(topology.rows, topology.cols));
    case TopologyKind::kClusterChain:
      return topology.spacing * static_cast<double>(topology.clusters);
  }
  return 1.0;
}

std::unique_ptr<Protocol> build_protocol(const RunRequest& request,
                                         std::size_t n, NodeId id) {
  switch (request.protocol) {
    case ProtocolKind::kLocalBcast:
      return std::make_unique<LocalBcastProtocol>(TryAdjust::standard(n, 1.0));
    case ProtocolKind::kBcast:
      return std::make_unique<BcastProtocol>(TryAdjust::standard(n, 2.0),
                                             BcastProtocol::Mode::Dynamic,
                                             /*source=*/id == NodeId{0});
    case ProtocolKind::kDecay:
      return std::make_unique<DecayLocalBcastProtocol>(
          static_cast<int>(std::log2(static_cast<double>(n))) + 2);
    case ProtocolKind::kAloha:
      return std::make_unique<AlohaLocalBcastProtocol>(1.0 / 16.0);
  }
  return nullptr;
}

/// Per-node completion predicate. Bcast(β) dynamic mode restarts forever by
/// design (finished() never holds), so its trial-level goal is "informed":
/// every alive node has the message. All other protocols stop themselves.
bool node_done(const Protocol& protocol, ProtocolKind kind) {
  if (kind == ProtocolKind::kBcast)
    return static_cast<const BcastProtocol&>(protocol).informed();
  return protocol.finished();
}

}  // namespace

TrialRecord run_trial(const RunRequest& request, const ExecConfig& exec,
                      std::uint64_t trial_seed, std::uint32_t trial_index) {
  Rng topo_rng(trial_seed);
  Scenario scenario(build_points(request.topology, topo_rng),
                    scenario_config(request));
  const std::size_t n = scenario.network().size();

  auto protocols = make_protocols(
      n, [&](NodeId id) { return build_protocol(request, n, id); });
  const bool broadcast = request.protocol == ProtocolKind::kBcast;
  const CarrierSensing sensing = broadcast ? scenario.sensing_broadcast()
                                           : scenario.sensing_local();

  Engine engine(scenario.channel(), scenario.network(), sensing, protocols,
                EngineConfig{.slots_per_round = broadcast ? 2 : 1,
                             .seed = trial_seed,
                             .threads = 1,  // trial-level parallelism only
                             .gain_budget_bytes = exec.gain_budget_bytes,
                             .obs = exec.obs});

  ChurnDynamics churn({.arrival_rate = request.dynamics.churn_rate,
                       .departure_rate = request.dynamics.churn_rate,
                       .placement_extent = dynamics_extent(request.topology),
                       // The broadcast source must survive churn.
                       .pinned = {NodeId{0}}});
  std::unique_ptr<WaypointMobility> mobility;
  if (request.dynamics.mobility_speed > 0 && scenario.euclidean() != nullptr)
    mobility = std::make_unique<WaypointMobility>(
        *scenario.euclidean(),
        WaypointMobility::Config{.speed = request.dynamics.mobility_speed,
                                 .extent = dynamics_extent(request.topology)});
  std::vector<Dynamics*> parts;
  if (request.dynamics.churn_rate > 0) parts.push_back(&churn);
  if (mobility != nullptr) parts.push_back(mobility.get());
  CompositeDynamics dynamics(parts);
  if (!parts.empty()) engine.set_dynamics(&dynamics);

  // The BatchConfig budget (run_checked) cancels at round boundaries via
  // trial_round_checkpoint inside Engine::step, so it always fires before
  // this backstop; the bound only protects direct callers outside
  // run_checked (tests) from spinning forever.
  const std::uint64_t bound =
      exec.round_bound != 0 ? exec.round_bound : std::uint64_t{1} << 40;

  const bool hang = request.inject == FaultInjection::kHang;
  std::uint64_t rounds = 0;
  bool all_done = false;
  while (rounds < bound) {
    engine.step();
    ++rounds;
    if (request.inject == FaultInjection::kThrow && rounds >= 3)
      throw std::runtime_error("injected fault (inject=throw)");
    if (request.inject == FaultInjection::kContract && rounds >= 3)
      UDWN_EXPECT(request.inject != FaultInjection::kContract);
    all_done = true;
    // One mask read per round: Network::alive is out of line.
    const std::span<const std::uint8_t> alive = scenario.network().alive_mask();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      if (!node_done(engine.protocol(NodeId{i}), request.protocol)) {
        all_done = false;
        break;
      }
    }
    // `hang` ignores completion, so the trial runs until its round budget
    // cancels it — the deterministic way to force a timeout outcome.
    if (all_done && !hang) break;
  }

  TrialRecord record;
  record.trial = trial_index;
  record.seed = trial_seed;
  record.rounds = rounds;
  record.all_done = all_done && !hang;
  std::uint64_t completed = 0;
  std::uint64_t delivered = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const Protocol& protocol = engine.protocol(NodeId{i});
    if (protocol.finished()) ++completed;
    if (node_done(protocol, request.protocol)) ++delivered;
  }
  record.completed = completed;
  record.delivered = delivered;
  return record;
}

}  // namespace udwn::svc
