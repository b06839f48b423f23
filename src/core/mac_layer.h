// An abstract MAC layer facade in the style of Kuhn–Lynch–Newport (the
// paper's reference [19] builds multi-message broadcast on such a layer):
// the application enqueues acknowledged local broadcasts and receives
// callbacks; the layer runs Try&Adjust underneath, so the per-message
// acknowledgment bound is LocalBcast's O(∆ρ + log n) (Thm 4.1) and the
// layer keeps working under churn and edge dynamics.
//
// Semantics:
//   * bcast(tag)  — enqueue message `tag` (FIFO). One message is in flight
//     at a time; the next starts after the current one is acknowledged.
//   * on_ack(tag) — invoked when the in-flight message has provably reached
//     every current neighbor (ACK primitive).
//   * on_deliver(from, tag) — invoked whenever a message from another
//     node's MAC layer is decoded (at most once per (from, tag) pair).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <utility>

#include "common/types.h"
#include "core/try_adjust.h"
#include "sim/protocol.h"

namespace udwn {

class MacLayerProtocol final : public Protocol {
 public:
  using AckCallback = std::function<void(std::uint32_t tag)>;
  using DeliverCallback = std::function<void(NodeId from, std::uint32_t tag)>;

  /// Callbacks may be empty. Tags must be non-zero (0 marks idle traffic).
  MacLayerProtocol(TryAdjust::Config config, AckCallback on_ack,
                   DeliverCallback on_deliver);

  /// Enqueue an acknowledged local broadcast.
  void bcast(std::uint32_t tag);

  /// No message is queued or in flight.
  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::int64_t acked_count() const { return acked_; }

  void on_start() override;
  [[nodiscard]] double transmit_probability(Slot slot) override;
  [[nodiscard]] std::uint32_t payload(Slot slot) const override;
  /// Not isolated() (the default): on_slot runs the ack/deliver callbacks,
  /// which may capture state shared across nodes, so its sweeps stay
  /// serial.
  void on_slot(const SlotFeedback& feedback) override;

 private:
  TryAdjust controller_;
  AckCallback on_ack_;
  DeliverCallback on_deliver_;
  std::deque<std::uint32_t> queue_;
  std::int64_t acked_ = 0;
  /// (from, tag) pairs already delivered upward — the at-most-once filter.
  std::set<std::pair<std::uint32_t, std::uint32_t>> delivered_;
};

}  // namespace udwn
