#include "phy/gain_table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/contract.h"
#include "metric/euclidean.h"

namespace udwn {

namespace {

[[nodiscard]] constexpr bool is_power_of_two(std::size_t x) {
  return x != 0 && (x & (x - 1)) == 0;
}

[[nodiscard]] std::uint32_t log2_of(std::size_t x) {
  std::uint32_t shift = 0;
  while ((std::size_t{1} << shift) < x) ++shift;
  return shift;
}

// Clear a vector and return its memory (clear() alone keeps the capacity).
template <class T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

// Write gain(j) into dst[j] for every column of a full fill (patch_stamp
// 0), or only for the columns moved since the tile's fill version (a
// patch: patch_stamp is the tile's stale stamp, fill version + 1).
template <class Gain>
void write_cells(double* dst, std::size_t count,
                 const std::uint64_t* moved_at, std::uint64_t patch_stamp,
                 Gain gain) {
  if (patch_stamp != 0) {
    const std::uint64_t filled_at = patch_stamp - 1;
    for (std::size_t j = 0; j < count; ++j)
      if (moved_at[j] > filled_at) dst[j] = gain(j);
    return;
  }
  for (std::size_t j = 0; j < count; ++j) dst[j] = gain(j);
}

// The Euclidean full fill: dst[j] = gain(|pu − pos[j]|) for j < count. The
// body is straight-line IEEE arithmetic over restrict pointers, and the
// main loop's trip count is even with one tail cell after it, so GCC's
// vectorizer at the project's -O2 packs two columns per instruction
// (sqrtpd, divpd; -fno-math-errno leaves sqrt without a libm branch). Each
// lane runs the scalar operations in the scalar order: every cell keeps
// its bits, the last ragged block included.
template <bool kCube>
void fill_row(double* __restrict dst, const Vec2* __restrict pos,
              std::size_t count, Vec2 pu, PathLoss pl) {
  const std::size_t even = count & ~std::size_t{1};
  for (std::size_t j = 0; j < even; ++j)
    dst[j] = pl.gain<kCube>((pu - pos[j]).norm());
  if (even != count) dst[even] = pl.gain<kCube>((pu - pos[even]).norm());
}

}  // namespace

std::size_t gain_tile_width(std::size_t n, int threads,
                            std::size_t max_cols) {
  UDWN_EXPECT(threads >= 1 && is_power_of_two(max_cols));
  // ceil(n / w) >= threads  <=>  n > w * (threads - 1), for n > 0.
  const auto spare = static_cast<std::size_t>(threads - 1);
  std::size_t width = max_cols;
  while (width > 1 && n > 0 && n <= width * spare) width /= 2;
  return width;
}

GainTable::GainTable(Config config) : config_(config) {
  UDWN_EXPECT(is_power_of_two(config.tile_cols));
  UDWN_EXPECT(config.threads >= 1);
}

void GainTable::bind(const QuasiMetric& metric, const PathLoss& pathloss) {
  metric_ = &metric;
  euclid_ = dynamic_cast<const EuclideanMetric*>(&metric);
  pathloss_ = &pathloss;
  n_ = metric.size();
  tile_cols_ = gain_tile_width(n_, config_.threads, config_.tile_cols);
  col_shift_ = log2_of(tile_cols_);
  blocks_ = n_ == 0 ? 0 : (n_ + tile_cols_ - 1) / tile_cols_;
  // One full row per slot when a row fits a single tile — no ragged waste
  // for the common n <= tile_cols case.
  stride_ = blocks_ == 1 ? n_ : tile_cols_;
  max_tiles_ =
      stride_ == 0 ? 0 : config_.budget_bytes / (stride_ * sizeof(double));
  max_tiles_ = std::min(max_tiles_, n_ * blocks_);
  // Useful only if at least one whole source row can be resident at once.
  enabled_ = blocks_ > 0 && max_tiles_ >= blocks_;
  if (!enabled_ && blocks_ > 0 && config_.budget_bytes > 0) {
    // A nonzero budget that cannot hold even one row of tiles would thrash
    // the LRU on every plan_rows; stay off, count it, and say so once
    // (zero budget is a deliberate off switch and stays silent). The slot
    // pipeline falls back to per-lookup recomputation — same bits, slower.
    ++stats_.disabled_binds;
    if (!warned_disabled_) {
      warned_disabled_ = true;
      std::fprintf(stderr,
                   "udwn: gain_budget_bytes=%zu holds %zu tiles but one row "
                   "of n=%zu needs %zu; gain caching disabled, computing "
                   "gains per lookup\n",
                   config_.budget_bytes, max_tiles_, n_, blocks_);
    }
  }

  // Release everything; the first plan_rows sizes it again (allocate).
  storage_.reset();
  release(tile_slot_);
  release(tile_stamp_);
  release(slot_tile_);
  release(lru_prev_);
  release(lru_next_);
  release(pin_pass_);
  release(col_version_);
  release(block_dirty_);
  lru_head_ = kInvalid;
  lru_tail_ = kInvalid;
  used_slots_ = 0;
  pass_ = 0;
  tracked_version_ = metric.version();
  horizon_ = tracked_version_;
}

void GainTable::allocate() {
  // Tile storage is allocated but not written: a slot's pages become
  // resident only when its first tile is filled, so memory follows the
  // tiles in use rather than the budget. Its address never changes until
  // the next bind, which is what keeps row pointers stable.
  storage_ = std::make_unique_for_overwrite<double[]>(max_tiles_ * stride_);
  tile_slot_.assign(n_ * blocks_, kInvalid);
  tile_stamp_.assign(n_ * blocks_, 0);
  // Moves apply_delta saw before now predate every tile, so no patch
  // decision can read them: starting the record at 0 is exact.
  col_version_.assign(n_, 0);
  block_dirty_.assign(blocks_, 0);
  slot_tile_.reserve(max_tiles_);
  lru_prev_.reserve(max_tiles_);
  lru_next_.reserve(max_tiles_);
  pin_pass_.reserve(max_tiles_);
}

void GainTable::lru_detach(std::uint32_t slot) {
  const std::uint32_t prev = lru_prev_[slot];
  const std::uint32_t next = lru_next_[slot];
  if (prev != kInvalid) lru_next_[prev] = next;
  if (next != kInvalid) lru_prev_[next] = prev;
  if (lru_head_ == slot) lru_head_ = next;
  if (lru_tail_ == slot) lru_tail_ = prev;
  lru_prev_[slot] = kInvalid;
  lru_next_[slot] = kInvalid;
}

void GainTable::lru_to_tail(std::uint32_t slot) {
  if (lru_tail_ == slot) return;
  lru_detach(slot);
  lru_prev_[slot] = lru_tail_;
  if (lru_tail_ != kInvalid) lru_next_[lru_tail_] = slot;
  lru_tail_ = slot;
  if (lru_head_ == kInvalid) lru_head_ = slot;
}

void GainTable::lru_touch(std::uint32_t slot) {
  if (lru_head_ == slot) return;
  lru_detach(slot);
  lru_next_[slot] = lru_head_;
  if (lru_head_ != kInvalid) lru_prev_[lru_head_] = slot;
  lru_head_ = slot;
  if (lru_tail_ == kInvalid) lru_tail_ = slot;
}

std::uint32_t GainTable::acquire_slot() {
  if (used_slots_ < max_tiles_) {
    const auto slot = static_cast<std::uint32_t>(used_slots_++);
    slot_tile_.push_back(0);
    lru_prev_.push_back(kInvalid);
    lru_next_.push_back(kInvalid);
    pin_pass_.push_back(0);
    return slot;
  }
  // Evict the least-recently-ensured tile not pinned by the current call.
  std::uint32_t slot = lru_tail_;
  while (slot != kInvalid && pin_pass_[slot] == pass_) slot = lru_prev_[slot];
  if (slot == kInvalid) return kInvalid;
  tile_slot_[slot_tile_[slot]] = kInvalid;
  ++stats_.evictions;
  return slot;
}

void GainTable::fill_tile(const PendingFill& fill) {
  const std::size_t u = fill.tile / blocks_;
  const std::size_t b = fill.tile - u * blocks_;
  const std::size_t begin = block_begin(b);
  const std::size_t count = block_cols(b);
  double* dst = storage_.get() +
                static_cast<std::size_t>(tile_slot_[fill.tile]) * stride_;
  // A patch recomputes only the columns that moved since the tile's fill
  // version. Row u did not (plan_rows checked), so the diagonal is never
  // among them and keeps its +0.0.
  const std::uint64_t* moved_at = col_version_.data() + begin;
  if (euclid_ != nullptr) {
    // Positions read directly, without two indirect calls per cell:
    // signal(u, v) is bit for bit signal(EuclideanMetric::distance(u, v)).
    // The local copy keeps P, ζ and the near limit in registers, and the
    // ζ = 3 decision is taken once per tile, not once per cell.
    const PathLoss pl = *pathloss_;
    const std::span<const Vec2> pts = euclid_->positions();
    const Vec2 pu = pts[u];
    const Vec2* pos = pts.data() + begin;
    pl.with_exponent([&](auto cube) {
      constexpr bool kCube = decltype(cube)::value;
      if (fill.stamp == 0) {
        fill_row<kCube>(dst, pos, count, pu, pl);
        return;
      }
      write_cells(dst, count, moved_at, fill.stamp, [&](std::size_t j) {
        return pl.gain<kCube>((pu - pos[j]).norm());
      });
    });
  } else {
    const NodeId id(static_cast<std::uint32_t>(u));
    write_cells(dst, count, moved_at, fill.stamp, [&](std::size_t j) {
      return pathloss_->signal(metric_->distance(
          id, NodeId(static_cast<std::uint32_t>(begin + j))));
    });
  }
  if (fill.stamp != 0) return;
  // Diagonal contract: the self entry is +0.0 so kernels can add whole rows
  // without a branch (see file comment in gain_table.h).
  if (u >= begin && u < begin + count) dst[u - begin] = 0.0;
}

std::size_t GainTable::moved_cols(std::size_t b, std::uint64_t since) const {
  const std::uint64_t* moved_at = col_version_.data() + block_begin(b);
  const std::size_t count = block_cols(b);
  std::size_t moved = 0;
  for (std::size_t j = 0; j < count; ++j) moved += moved_at[j] > since;
  return moved;
}

bool GainTable::plan_rows(std::span<const NodeId> sources) {
  fill_tiles_.clear();
  if (!enabled_) return false;
  if (sources.empty()) return true;
  UDWN_ASSERT(metric_ != nullptr && pathloss_ != nullptr);
  if (storage_ == nullptr)
    allocate();  // udwn-lint: allow(hot-path-alloc): first plan after a bind
  const std::uint64_t version = metric_->version();
  if (version != tracked_version_) {
    // The version advanced without a delta: moves went unrecorded, so no
    // tile filled before now can be patched.
    tracked_version_ = version;
    horizon_ = version;
  }
  const std::uint64_t fresh = version + 1;
  std::uint64_t cells = 0;
  ++pass_;
  for (const NodeId u : sources) {
    UDWN_ASSERT(u.value < n_);
    for (std::size_t b = 0; b < blocks_; ++b) {
      const std::size_t tile = static_cast<std::size_t>(u.value) * blocks_ + b;
      std::uint32_t slot = tile_slot_[tile];
      if (slot == kInvalid) {
        ++stats_.misses;
        slot = acquire_slot();
        if (slot == kInvalid) {
          // Over budget: roll back the freshness claims of tiles queued but
          // not yet filled, then report failure so the caller recomputes.
          for (const PendingFill& f : fill_tiles_) tile_stamp_[f.tile] = 0;
          ++stats_.fallbacks;
          return false;
        }
        tile_slot_[tile] = slot;
        slot_tile_[slot] = tile;
        tile_stamp_[tile] = 0;
      } else if (tile_stamp_[tile] == fresh) {
        ++stats_.hits;
      }
      pin_pass_[slot] = pass_;
      lru_touch(slot);
      const std::uint64_t stamp = tile_stamp_[tile];
      if (stamp != fresh) {
        // Patch when the tile holds data (stamp != 0) recorded completely
        // since (filled at or after the horizon) and its row is clean;
        // otherwise refill in full.
        const bool patch = stamp != 0 && stamp - 1 >= horizon_ &&
                           col_version_[u.value] < stamp;
        cells += patch ? moved_cols(b, stamp - 1) : block_cols(b);
        // Stamp now, fill later (fill_planned, per block chunk): sources
        // may repeat across calls but tiles enter the fill list exactly
        // once, keeping parallel fills disjoint.
        tile_stamp_[tile] = fresh;
        fill_tiles_.push_back({tile, patch ? stamp : 0});
      }
    }
  }
  stats_.fills += fill_tiles_.size();
  stats_.cells += cells;
  return true;
}

void GainTable::fill_planned(std::size_t block_lo, std::size_t block_hi) {
  for (const PendingFill& fill : fill_tiles_) {
    const std::size_t b = fill.tile % blocks_;
    if (b >= block_lo && b < block_hi) fill_tile(fill);
  }
}

bool GainTable::ensure_rows(std::span<const NodeId> sources, TaskPool* pool) {
  if (!plan_rows(sources)) return false;
  if (pool != nullptr) {
    pool->run_chunks(0, blocks_, [this](std::size_t lo, std::size_t hi) {
      fill_planned(lo, hi);
    });
  } else {
    fill_planned(0, blocks_);
  }
  return true;
}

void GainTable::apply_delta(std::span<const NodeId> dirty,
                            std::uint64_t prev_version,
                            std::uint64_t new_version) {
  if (!enabled_ || prev_version == new_version) return;
  UDWN_EXPECT(prev_version < new_version);
  // new_version is the metric's current version; plan_rows never saw later.
  UDWN_ASSERT(new_version >= tracked_version_);
  // Moves in (tracked_version_, prev_version] never reached this table:
  // the record is complete only from prev_version on.
  if (prev_version > tracked_version_) horizon_ = prev_version;
  tracked_version_ = new_version;
  // Nothing planned since the bind: no tile exists, and these moves predate
  // every future one, so they need no record (see allocate).
  if (storage_ == nullptr) return;
  // Per-block dirty flags: a tile's columns touch a dirty node iff its
  // block is flagged. O(blocks + |dirty|) setup, O(1) per resident tile.
  std::fill(block_dirty_.begin(), block_dirty_.end(), 0);
  for (const NodeId v : dirty) {
    UDWN_ASSERT(v.value < n_);
    col_version_[v.value] = new_version;
    block_dirty_[blocks_ == 1 ? 0 : v.value >> col_shift_] = 1;
  }
  const std::uint64_t was_fresh = prev_version + 1;
  const std::uint64_t now_fresh = new_version + 1;
  for (std::uint32_t slot = 0; slot < used_slots_; ++slot) {
    const std::size_t tile = slot_tile_[slot];
    if (tile_slot_[tile] != slot) continue;  // slot's tile was evicted
    if (tile_stamp_[tile] != was_fresh) continue;  // already stale
    const std::size_t u = tile / blocks_;
    const std::size_t b = tile - u * blocks_;
    if (block_dirty_[b]) continue;  // a column may involve a dirty node
    if (col_version_[u] >= new_version) continue;  // the row is suspect
    tile_stamp_[tile] = now_fresh;  // provably unchanged: restamp, no fill
    ++stats_.freshened;
  }
}

void GainTable::demote(NodeId u) {
  if (storage_ == nullptr) return;
  UDWN_ASSERT(u.value < n_);
  bool resident = false;
  for (std::size_t b = 0; b < blocks_; ++b) {
    const std::uint32_t slot =
        tile_slot_[static_cast<std::size_t>(u.value) * blocks_ + b];
    if (slot == kInvalid) continue;
    lru_to_tail(slot);
    resident = true;
  }
  if (resident) ++stats_.demotions;
}

const double* GainTable::row_block(NodeId u, std::size_t b) const {
  if (storage_ == nullptr) return nullptr;
  UDWN_ASSERT(u.value < n_ && b < blocks_);
  const std::size_t tile = static_cast<std::size_t>(u.value) * blocks_ + b;
  const std::uint32_t slot = tile_slot_[tile];
  if (slot == kInvalid || tile_stamp_[tile] != metric_->version() + 1)
    return nullptr;
  return storage_.get() + static_cast<std::size_t>(slot) * stride_;
}

const double* GainTable::cell(NodeId u, std::uint32_t v) const {
  if (storage_ == nullptr) return nullptr;
  UDWN_ASSERT(u.value < n_ && v < n_);
  const std::size_t b = blocks_ == 1 ? 0 : v >> col_shift_;
  const std::size_t col =
      blocks_ == 1 ? v : v & ((std::size_t{1} << col_shift_) - 1);
  const std::size_t tile = static_cast<std::size_t>(u.value) * blocks_ + b;
  const std::uint32_t slot = tile_slot_[tile];
  if (slot == kInvalid || tile_stamp_[tile] != metric_->version() + 1)
    return nullptr;
  return storage_.get() + static_cast<std::size_t>(slot) * stride_ + col;
}

}  // namespace udwn
