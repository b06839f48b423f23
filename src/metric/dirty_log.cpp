#include "metric/dirty_log.h"

#include <algorithm>

#include "common/contract.h"

namespace udwn {

namespace {
// Ring growth span: start small (static metrics never mutate), grow
// geometrically under load, stop at the cap. 1<<17 entries is 1.5 MiB —
// enough for ~16k movers per round over an 8-round collect lag, far beyond
// any real workload; past it, history loss just degrades to version stamps.
constexpr std::size_t kInitialCapacity = 64;
constexpr std::size_t kMaxCapacity = std::size_t{1} << 17;
}  // namespace

void DirtyLog::push(Entry e) {
  UDWN_ASSERT(count_ == 0 ||
              ring_[(start_ + count_ - 1) % ring_.size()].version <=
                  e.version);
  if (count_ == ring_.size()) {
    if (ring_.size() < kMaxCapacity) {
      // Re-pack into a larger ring (amortized; mutation-path only).
      std::vector<Entry> grown;
      grown.reserve(std::max(kInitialCapacity, ring_.size() * 2));
      for (std::size_t i = 0; i < count_; ++i)
        grown.push_back(ring_[(start_ + i) % ring_.size()]);
      grown.resize(grown.capacity());
      std::swap(ring_, grown);
      start_ = 0;
    } else {
      // Evict the oldest record; remember how far history is now lost.
      evicted_version_ = std::max(evicted_version_, ring_[start_].version);
      start_ = (start_ + 1) % ring_.size();
      --count_;
    }
  }
  ring_[(start_ + count_) % ring_.size()] = e;
  ++count_;
}

void DirtyLog::record(NodeId v, std::uint64_t version) {
  push(Entry{version, v});
}

void DirtyLog::record_global(std::uint64_t version) {
  global_version_ = std::max(global_version_, version);
  // Global records subsume everything at or below them: drop the per-node
  // history so the ring only ever holds records a collect might still use.
  start_ = 0;
  count_ = 0;
  evicted_version_ = std::max(evicted_version_, version);
}

bool DirtyLog::collect(std::uint64_t since, std::uint64_t now,
                       std::vector<NodeId>& out) const {
  UDWN_EXPECT(since <= now);
  if (since == now) return true;                // empty window
  if (global_version_ > since) return false;    // global change inside it
  if (evicted_version_ > since) return false;   // lost part of the window
  // Versions are non-decreasing in logical order: binary-search the first
  // record past `since`, then scan while <= now.
  std::size_t lo = 0;
  std::size_t hi = count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (ring_[(start_ + mid) % ring_.size()].version <= since)
      lo = mid + 1;
    else
      hi = mid;
  }
  for (std::size_t i = lo; i < count_; ++i) {
    const Entry& e = ring_[(start_ + i) % ring_.size()];
    if (e.version > now) break;
    out.push_back(e.node);
  }
  return true;
}

}  // namespace udwn
