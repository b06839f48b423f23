#include "sim/network.h"

#include "common/contract.h"

namespace udwn {

Network::Network(QuasiMetric& metric)
    : metric_(&metric),
      alive_(metric.size(), 1),
      alive_count_(metric.size()) {}

bool Network::alive(NodeId v) const {
  UDWN_EXPECT(v.value < alive_.size());
  return alive_[v.value] != 0;
}

void Network::set_alive(NodeId v, bool alive) {
  UDWN_EXPECT(v.value < alive_.size());
  const bool was = alive_[v.value] != 0;
  if (was == alive) return;
  alive_[v.value] = static_cast<std::uint8_t>(alive);
  alive_count_ += alive ? 1 : std::size_t(-1);
}

std::vector<NodeId> Network::alive_nodes() const {
  std::vector<NodeId> out;
  out.reserve(alive_count_);
  for (std::size_t v = 0; v < alive_.size(); ++v)
    if (alive_[v]) out.push_back(NodeId(static_cast<std::uint32_t>(v)));
  return out;
}

}  // namespace udwn
