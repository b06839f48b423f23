// Dynamic node population over a quasi-metric (Sec. 2 "Dynamicity").
//
// Node ids are stable for the lifetime of an instance; churn toggles the
// alive flag. Arrivals during a run therefore reuse pre-allocated ids from a
// reserve pool created by the scenario builder, which keeps the metric
// object immutable in size while the *network* it carries changes
// arbitrarily. Moves change the metric, whose version() and DirtyLog tell
// caches what moved; an alive toggle is a flag flip that no cache has to
// hear of, since cached topology covers dead and alive nodes alike and
// readers filter with alive_mask() (phy/topology_cache.h).
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "metric/quasi_metric.h"

namespace udwn {

class Network {
 public:
  /// All ids of `metric` start alive. The metric must outlive the network.
  explicit Network(QuasiMetric& metric);

  [[nodiscard]] std::size_t size() const { return alive_.size(); }

  [[nodiscard]] bool alive(NodeId v) const;
  void set_alive(NodeId v, bool alive);

  /// Alive flags indexed by node id (the representation Channel consumes).
  [[nodiscard]] std::span<const std::uint8_t> alive_mask() const {
    return alive_;
  }

  [[nodiscard]] std::vector<NodeId> alive_nodes() const;
  [[nodiscard]] std::size_t alive_count() const { return alive_count_; }

  [[nodiscard]] QuasiMetric& metric() { return *metric_; }
  [[nodiscard]] const QuasiMetric& metric() const { return *metric_; }

 private:
  QuasiMetric* metric_;
  std::vector<std::uint8_t> alive_;
  std::size_t alive_count_ = 0;
};

}  // namespace udwn
