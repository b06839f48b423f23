// Blocked/tiled LRU cache of unscaled pairwise gains.
//
// The slot pipeline reads the same gain pathloss.signal(metric.distance(u,v))
// once per transmitter/listener pair per slot — recomputing it costs a
// virtual distance call plus a path-loss evaluation. The old design cached
// a flat n×n table but only while n <= 4096, so large instances silently
// lost all caching. GainTable replaces that cliff with a tiled table:
//
//   * a *tile* is one contiguous column block of one source row —
//     `tile_cols` listener entries (the last block of a row may be ragged).
//     The width is worked out at bind from n and the driver's thread count
//     (gain_tile_width): the widest power of two, up to Config::tile_cols,
//     that still gives every thread a listener block of its own;
//   * tiles are materialized lazily into fixed-size slots, bounded by
//     `budget_bytes`, and evicted in least-recently-ensured order, so any n
//     gets cache benefits for its per-slot working set (the transmitter
//     rows) while memory stays bounded;
//   * a *retired* row goes first: demote(u) moves u's resident tiles to the
//     eviction end, ahead of every row still in use. The engine retires a
//     node when its Data-slot probability drops to 0 or it departs — in
//     LocalBcast a node that ACK certified never transmits again, so its
//     row is dead, and a least-recently-ensured order alone would keep it
//     over the live rows it then refills. Retiring changes only which tiles
//     are recomputed, never a value;
//   * nothing is allocated before the first plan_rows after a bind. That
//     call reserves the whole budget at once without writing it, so a
//     slot's memory becomes resident only when a tile is first filled into
//     it, and the storage never moves: a row pointer stays valid until its
//     tile is evicted or the table is rebound;
//   * a tile is *fresh* while its stamp matches the metric version; moves
//     invalidate by stamp, never by writeback;
//   * freshness is restored *per column*: apply_delta records, per node,
//     the metric version at which it last moved (col_version_). A stale
//     resident tile of a row that has not moved since the tile was filled
//     is *patched* — only the columns that moved since then are recomputed
//     — instead of refilled in full. The record is trusted only from its
//     *tracking horizon* on: the earliest version from which every move
//     reached apply_delta. When the metric version advances without a delta
//     (a coarse change or lost history, which TopologyCache::sync cannot
//     read as a window) plan_rows moves the horizon to the current version,
//     and every tile filled before it refills in full, exactly as under
//     plain version stamps.
//
// Why a patch is exact: by the dirty-set contract (metric/dirty_log.h)
// every changed d(u,v) dirties u or v. Row u clean since the fill version f
// and column v not moved since f means d(u,v), hence the cached gain, is
// unchanged; every recomputed cell uses the same expression as a full fill.
//
// On a EuclideanMetric a fill reads positions directly: a full fill is one
// inlined loop of PathLoss::gain over the tile's (u − v).norm() distances,
// a patch runs the same expression per moved column; both are bit for bit
// signal(distance(u, v)), with the ζ = 3 decision taken once per tile.
// Other metrics go through the virtual distance.
//
// Bit-exactness contract (what makes the cached pipeline identical to the
// brute-force reference): every entry is the double the uncached kernels
// evaluate — same doubles in, PathLoss::signal out (at ζ = 3 the plain
// IEEE P / ((d·d)·d), no libm; see pathloss.h) — except the self entry
// gains[u][u], which is stored as +0.0. Kernels may therefore add a whole
// row without skipping the diagonal: all partial interference sums are
// >= +0.0, and x + 0.0 == x bit-for-bit for every non-negative double, so
// including the zeroed diagonal is indistinguishable from the reference's
// `skip self` loop. (Readers that need the true self gain — no current
// caller does — must not use this table.)
//
// Determinism: eviction order depends only on the sequence of plan_rows
// and demote calls (source order within a call is the caller's transmitter
// order), never on thread scheduling; fills of disjoint block ranges write
// disjoint slots.
// The patch-or-refill decision is made serially at plan time; fills only
// read col_version_, so any thread count computes the same cells.
// Reads (row_block / cell) are const and touch no LRU state, so concurrent
// readers after a plan and its fills are race-free.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/types.h"
#include "metric/quasi_metric.h"
#include "phy/pathloss.h"

namespace udwn {

class EuclideanMetric;

/// Tile width for `n` listeners read by `threads` field threads: the widest
/// power of two w <= max_cols with ceil(n / w) >= threads, so every thread
/// gets a listener block. Where no width can (0 < n < threads) it is 1, one
/// block per listener; at n = 0 it is max_cols. The width never changes a
/// gain, only how the table is cut into tiles.
[[nodiscard]] std::size_t gain_tile_width(std::size_t n, int threads,
                                          std::size_t max_cols);

class GainTable {
 public:
  struct Config {
    /// Upper bound on the listener columns per tile; must be a power of
    /// two. bind narrows the tiles below it as gain_tile_width says. One
    /// tile is at most tile_cols * 8 bytes (32 KiB at the default).
    std::size_t tile_cols = 4096;
    /// Upper bound on resident tile storage: caps how many tiles are
    /// resident at once (min(budget, n² entries) is reserved as address
    /// space on the first plan_rows; a slot's memory is resident only once
    /// a tile is filled into it). 0 disables the table. The default keeps
    /// the old flat-table footprint (n=4096 → 128 MiB) but now bounds *any*
    /// n instead of gating on it.
    std::size_t budget_bytes = std::size_t{128} << 20;
    /// Threads of the field driver that reads the table (including the
    /// caller); the tile width is worked out from it at bind.
    int threads = 1;
  };

  GainTable() : GainTable(Config{}) {}
  explicit GainTable(Config config);

  /// Bind to a topology, dropping all residency and releasing all memory
  /// (the next plan_rows allocates again), and set the tile width to
  /// gain_tile_width(n, config.threads, config.tile_cols). Called on
  /// workspace rebind (new metric/pathloss object or changed instance
  /// size), not per slot.
  void bind(const QuasiMetric& metric, const PathLoss& pathloss);

  /// True when the budget admits at least one full row of tiles for the
  /// bound instance (the minimum plan_rows can ever satisfy).
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] std::size_t size() const { return n_; }
  /// Column blocks per source row.
  [[nodiscard]] std::size_t blocks() const { return blocks_; }
  /// First listener column of block b.
  [[nodiscard]] std::size_t block_begin(std::size_t b) const {
    return b * tile_cols_;
  }
  /// Number of listener columns in block b (the last block may be ragged).
  [[nodiscard]] std::size_t block_cols(std::size_t b) const {
    return b + 1 == blocks_ ? n_ - b * tile_cols_ : tile_cols_;
  }

  /// Make every tile of every source row resident and fresh: plan_rows,
  /// then fill_planned over block chunks — on `pool` when given, inline
  /// otherwise. Returns false when plan_rows does. Row pointers of tiles
  /// that stay resident are unchanged by the call.
  bool ensure_rows(std::span<const NodeId> sources, TaskPool* pool);

  /// Serial planning half of every fill: acquire/pin slots for every tile
  /// of every source row (so a call never evicts its own rows), stamp them
  /// fresh, and queue the stale ones for filling — patching only their
  /// moved columns when the row is clean (see file comment) — without
  /// filling. Returns false — freshness rolled back, fallback counted —
  /// when the sources' tiles exceed the budget together; callers then fall
  /// back to the uncached kernel (same bits, recomputed). After a true
  /// return, row_block pointers are already valid (the storage never
  /// moves; a pointer lasts until its tile is evicted or the table is
  /// rebound), but tiles queued for filling hold stale data until
  /// fill_planned covers their block. The first call after a bind
  /// allocates the table. The slot pipeline plans once on the caller
  /// thread, then interference_field_planned fills and accumulates each
  /// listener block in one pass (see docs/ENGINE.md).
  bool plan_rows(std::span<const NodeId> sources);

  /// Fill every tile queued by the last plan_rows whose column block lies
  /// in [block_lo, block_hi). Tiles of disjoint block ranges occupy
  /// disjoint storage, so concurrent calls over a partition of
  /// [0, blocks()) are race-free; each tile's contents are a pure function
  /// of (metric, pathloss, tile), so the result is schedule-independent.
  void fill_planned(std::size_t block_lo, std::size_t block_hi);

  /// Base pointer of row u's column block b, or nullptr unless resident and
  /// fresh. Entry j is the gain from u to listener block_begin(b) + j (with
  /// the diagonal stored as +0.0; see file comment). The address stays
  /// the same until the tile is evicted (only a later plan_rows can evict
  /// it) or the table is rebound; the contents are the tile's gains while
  /// it is fresh.
  [[nodiscard]] const double* row_block(NodeId u, std::size_t b) const;

  /// Pointer to the single gain entry (u → v), or nullptr unless the
  /// covering tile is resident and fresh. Never returns the diagonal's
  /// stored zero as a surprise: callers (decode paths) only query u != v.
  [[nodiscard]] const double* cell(NodeId u, std::uint32_t v) const;

  /// Retire source row u: move its resident tiles to the eviction end of
  /// the LRU order, so the next misses evict them before any other row.
  /// Contents, stamps, pins and row pointers are unchanged, and a row with
  /// no resident tile is left alone (no-op, not counted). A later
  /// plan_rows of u touches it back to the front like any row.
  void demote(NodeId u);

  /// Delta invalidation: record `new_version` as the last move of every
  /// dirty node (O(|dirty|)), then advance the freshness stamp of every
  /// resident tile that was fresh at `prev_version` and whose entries
  /// cannot involve a dirty node — source row not dirty, column block
  /// containing no dirty id — to `new_version`. Tiles left behind go stale
  /// and are patched (or refilled) lazily by the next plan. `dirty` must list
  /// every node whose distances may have changed in (prev_version,
  /// new_version], as DirtyLog::collect reports them. Skipping this call
  /// is always sound: plan_rows sees the version advance without a delta
  /// and falls back to full refills.
  void apply_delta(std::span<const NodeId> dirty, std::uint64_t prev_version,
                   std::uint64_t new_version);

  /// Introspection for tests.
  [[nodiscard]] std::size_t resident_tiles() const { return used_slots_; }
  [[nodiscard]] std::size_t max_tiles() const { return max_tiles_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Lifetime cache statistics, maintained unconditionally (plain integer
  /// bumps on the serial plan_rows path — cheap enough to always keep).
  /// The engine publishes per-round deltas to the metrics registry when an
  /// Obs handle is attached; tests read them directly.
  struct Stats {
    std::uint64_t hits = 0;        // tile already resident and fresh
    std::uint64_t misses = 0;      // tile not resident (slot acquired)
    std::uint64_t evictions = 0;   // resident tile displaced for a new one
    std::uint64_t fills = 0;       // tiles (re)computed or patched
    std::uint64_t cells = 0;       // gain entries computed by those fills
    std::uint64_t fallbacks = 0;   // plan_rows over budget -> uncached path
    std::uint64_t freshened = 0;   // tiles restamped by apply_delta (no fill)
    std::uint64_t demotions = 0;   // rows with resident tiles retired
    std::uint64_t disabled_binds = 0;  // bind() left caching off: the budget
                                       // cannot hold even one row of tiles
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kInvalid = 0xffffffffu;

  // A tile queued by plan_rows. `stamp` is the tile's stale stamp when it
  // is patched (only columns moved since stamp - 1 are recomputed) and 0
  // when it is refilled in full.
  struct PendingFill {
    std::size_t tile;
    std::uint64_t stamp;
  };

  void allocate();
  void fill_tile(const PendingFill& fill);
  [[nodiscard]] std::size_t moved_cols(std::size_t b,
                                       std::uint64_t since) const;
  std::uint32_t acquire_slot();
  void lru_touch(std::uint32_t slot);
  void lru_to_tail(std::uint32_t slot);
  void lru_detach(std::uint32_t slot);

  Config config_;
  const QuasiMetric* metric_ = nullptr;
  const EuclideanMetric* euclid_ = nullptr;  // metric_ when Euclidean
  const PathLoss* pathloss_ = nullptr;

  std::size_t n_ = 0;
  std::size_t blocks_ = 0;
  std::size_t tile_cols_ = 0;   // gain_tile_width at bind
  std::uint32_t col_shift_ = 0;  // log2(tile_cols_)
  std::size_t stride_ = 0;      // doubles per slot (== n_ when blocks_ == 1)
  std::size_t max_tiles_ = 0;
  bool enabled_ = false;

  // Everything below that holds memory is empty from bind until the first
  // plan_rows (allocate).

  // Per logical tile (row-major: tile = u * blocks_ + b).
  std::vector<std::uint32_t> tile_slot_;
  std::vector<std::uint64_t> tile_stamp_;  // metric version + 1; 0 = never

  // Per physical slot.
  // max_tiles_ * stride_ doubles, allocated once and never written before
  // a fill, so untouched slots stay non-resident.
  std::unique_ptr<double[]> storage_;
  std::vector<std::size_t> slot_tile_;
  std::vector<std::uint32_t> lru_prev_;
  std::vector<std::uint32_t> lru_next_;
  std::vector<std::uint64_t> pin_pass_;
  std::uint32_t lru_head_ = kInvalid;
  std::uint32_t lru_tail_ = kInvalid;
  std::size_t used_slots_ = 0;
  std::uint64_t pass_ = 0;

  // Per node: metric version of its last move seen by apply_delta. The
  // record is complete for moves in (horizon_, tracked_version_]; a tile
  // filled at a version >= horizon_ may be patched.
  std::vector<std::uint64_t> col_version_;
  std::uint64_t tracked_version_ = 0;
  std::uint64_t horizon_ = 0;

  std::vector<PendingFill> fill_tiles_;  // scratch, reused across calls
  std::vector<std::uint8_t> block_dirty_;  // scratch for apply_delta
  bool warned_disabled_ = false;  // one warning per table instance
  Stats stats_;
};

}  // namespace udwn
