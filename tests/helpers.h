// Shared fixtures and builders for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "analysis/determinism.h"
#include "analysis/scenario.h"
#include "common/rng.h"
#include "metric/geometry.h"
#include "topo/generators.h"

namespace udwn::test {

/// Default scenario config used across tests (SINR, R = 1, ε = 0.3, ζ = 3).
inline ScenarioConfig default_config() { return ScenarioConfig{}; }

inline ScenarioConfig config_for(ModelKind kind) {
  ScenarioConfig cfg;
  cfg.model = kind;
  return cfg;
}

/// Small deterministic deployment: n nodes uniform in [0, extent]².
inline std::vector<Vec2> random_points(std::size_t n, double extent,
                                       std::uint64_t seed) {
  Rng rng(seed);
  return uniform_square(n, extent, rng);
}

/// Alive nodes of `network`, each kept with probability p (ascending ids).
inline std::vector<NodeId> sample_transmitters(const Network& network,
                                               Rng& rng, double p) {
  std::vector<NodeId> txs;
  for (std::uint32_t v = 0; v < network.size(); ++v)
    if (network.alive(NodeId(v)) && rng.chance(p)) txs.push_back(NodeId(v));
  return txs;
}

inline std::vector<NodeId> ids(std::initializer_list<std::uint32_t> list) {
  std::vector<NodeId> out;
  for (auto id : list) out.push_back(NodeId(id));
  return out;
}

/// Two nodes at the given separation, useful for single-link physics tests.
inline std::vector<Vec2> pair_at(double separation) {
  return {{0, 0}, {separation, 0}};
}

/// All model kinds, for parameterized pan-model tests.
inline std::vector<ModelKind> all_models() {
  return {ModelKind::Sinr, ModelKind::Udg, ModelKind::Qudg,
          ModelKind::Protocol, ModelKind::SuccClearOnly};
}

inline const char* model_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::Sinr: return "Sinr";
    case ModelKind::Udg: return "Udg";
    case ModelKind::Qudg: return "Qudg";
    case ModelKind::Protocol: return "Protocol";
    case ModelKind::SuccClearOnly: return "SuccClearOnly";
  }
  return "?";
}

/// One slot of `txs` through `ws`: resolve_into must equal
/// Channel::resolve() bit for bit (compare_outcomes); a failure names the
/// first differing field.
inline ::testing::AssertionResult resolves_exactly(
    const Channel& channel, const Network& network,
    std::span<const NodeId> txs, SlotWorkspace& ws, double scale = 1.0) {
  const SlotOutcome want = channel.resolve(txs, network.alive_mask(), scale);
  const OutcomeField field = compare_outcomes(
      want, channel.resolve_into(txs, network.alive_mask(), scale,
                                 network.topology_epoch(), ws));
  if (field == OutcomeField::kNone) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << to_string(field) << " differs";
}

}  // namespace udwn::test
