#include "phy/far_field.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/contract.h"

namespace udwn {

namespace {

// Refuse aggregation when the cell grid would outnumber the nodes by too
// much: the cells × tx-cells aggregation pass would then dominate the work
// the approximation is supposed to save.
constexpr double kMaxCellsFactor = 4.0;
constexpr double kMinCells = 64.0;

// Near-sweep work chunks per pool thread. Chunks hold about equal listener
// counts, but their cost still varies with the local transmitter density
// and the core; several per thread let the pool's dynamic claiming even
// out the finish times (on far-field-64k at threads 2, 8 per thread beat
// 1 and 4, and 16 gained nothing more).
constexpr std::size_t kSweepChunksPerThread = 8;

// out[j] += w · k[j] for j < m: one rounded multiply and one rounded add
// per entry, the same expression a scalar loop evaluates. The unrolled
// eight-statement body is what GCC's SLP vectorizer packs into mulpd/addpd
// at the project's baseline flags (-O2, no -march).
inline void add_scaled(double* __restrict out, const double* __restrict k,
                       double w, std::size_t m) {
  std::size_t j = 0;
  for (; j + 8 <= m; j += 8) {
    out[j] += w * k[j];
    out[j + 1] += w * k[j + 1];
    out[j + 2] += w * k[j + 2];
    out[j + 3] += w * k[j + 3];
    out[j + 4] += w * k[j + 4];
    out[j + 5] += w * k[j + 5];
    out[j + 6] += w * k[j + 6];
    out[j + 7] += w * k[j + 7];
  }
  for (; j < m; ++j) out[j] += w * k[j];
}

}  // namespace

std::optional<FarFieldParams> far_field_params(double eps, double cell,
                                               const PathLoss& pathloss) {
  if (!(eps > 0) || !std::isfinite(eps)) return std::nullopt;
  if (!(cell > 0) || !std::isfinite(cell)) return std::nullopt;
  const double zeta = pathloss.zeta();
  // The low-side half of the certificate needs convexity of x^ζ (see file
  // comment in far_field.h); every model in the paper has ζ > 2.
  if (!(zeta >= 1)) return std::nullopt;
  const double beta = std::pow(1.0 + eps, 1.0 / zeta) - 1.0;
  if (!(beta > 0)) return std::nullopt;
  const double delta = cell * std::sqrt(2.0);  // full cell diagonal
  const double rho = delta / beta;
  // Every aggregated pair must sit on the pure power-law branch: the
  // certificate compares signal(d_cc) with signal(d(u,v)), d(u,v) >= ρ − δ,
  // so both must clear the near-limit clamp. β >= 1 (huge ε) fails here
  // automatically (ρ <= δ).
  if (!(rho - delta > pathloss.near_limit())) return std::nullopt;
  return FarFieldParams{.eps = eps, .cell = cell, .rho = rho};
}

bool far_field_covers_decode(const FarFieldParams& params,
                              double decode_radius) {
  // A sender within decode_radius of the listener has d_cc <=
  // decode_radius + δ (both endpoints within δ/2 of their cell centers),
  // so its cell is near when that sum stays below ρ.
  return decode_radius + params.cell * std::sqrt(2.0) < params.rho;
}

void FarFieldWorkspace::build_tables(const TableKey& key,
                                     const PathLoss& pathloss) {
  const std::size_t ncx = key.ncx;
  const std::size_t ncy = key.ncy;
  const auto offset_dist = [&](std::size_t adx, std::size_t ady) {
    const double dx = static_cast<double>(adx) * key.cell;
    const double dy = static_cast<double>(ady) * key.cell;
    return std::sqrt(dx * dx + dy * dy);
  };

  // Kernel, mirrored along Δcy: row |Δcx|, column Δcy + ncy − 1. Near
  // offsets hold +0.0 so the far pass can add them unconditionally.
  const std::size_t width = 2 * ncy - 1;
  kernel_.resize(ncx * width);  // udwn-lint: allow(hot-path-alloc): only
                                // on a table-key change
  for (std::size_t adx = 0; adx < ncx; ++adx) {
    double* row = kernel_.data() + adx * width + (ncy - 1);
    for (std::size_t ady = 0; ady < ncy; ++ady) {
      const double d = offset_dist(adx, ady);
      const double k = d < key.rho ? 0.0 : pathloss.signal(d);
      row[ady] = k;
      *(row - ady) = k;
    }
  }

  // Near stencil: for each |Δcx| with a near offset, the largest |Δcy| with
  // d_cc < ρ. d_cc grows with both |Δcx| and |Δcy|, so the near offsets of
  // one Δcx row are exactly |Δcy| <= that bound, and the rows stop at the
  // first |Δcx| whose Δcy = 0 offset is already far.
  near_half_.clear();
  for (std::size_t adx = 0; adx < ncx && offset_dist(adx, 0) < key.rho;
       ++adx) {
    std::size_t half = 0;
    while (half + 1 < ncy && offset_dist(adx, half + 1) < key.rho) ++half;
    near_half_.push_back(  // udwn-lint: allow(hot-path-alloc): only on a
                           // table-key change
        static_cast<std::int32_t>(half));
  }
  table_key_ = key;
}

void FarFieldWorkspace::build_layout(const LayoutKey& key,
                                     std::span<const Vec2> pts,
                                     TaskPool* pool) {
  layout_key_ = key;
  layout_ok_ = false;
  const std::size_t n = key.n;
  const double cell = key.cell;

  // Bounding box over all points (dead nodes included: they cost grid area,
  // not correctness — interference only ever sums over `transmitters`).
  double x0 = pts[0].x, x1 = pts[0].x, y0 = pts[0].y, y1 = pts[0].y;
  for (std::size_t v = 1; v < n; ++v) {
    x0 = std::min(x0, pts[v].x);
    x1 = std::max(x1, pts[v].x);
    y0 = std::min(y0, pts[v].y);
    y1 = std::max(y1, pts[v].y);
  }
  const double wx = (x1 - x0) / cell;
  const double wy = (y1 - y0) / cell;
  if (!(wx < 1e9) || !(wy < 1e9)) return;  // degenerate extents
  const std::size_t ncx = static_cast<std::size_t>(wx) + 1;
  const std::size_t ncy = static_cast<std::size_t>(wy) + 1;
  if (static_cast<double>(ncx) * static_cast<double>(ncy) >
      kMaxCellsFactor * static_cast<double>(n) + kMinCells)
    return;
  const std::size_t ncells = ncx * ncy;
  ncx_ = ncx;
  ncy_ = ncy;

  // Listener cell ids (parallel: chunks partition nodes, writes disjoint).
  listener_cell_.resize(n);  // udwn-lint: allow(hot-path-alloc): only on a
                             // layout-key change
  auto cells_body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      std::size_t cx = static_cast<std::size_t>((pts[v].x - x0) / cell);
      std::size_t cy = static_cast<std::size_t>((pts[v].y - y0) / cell);
      cx = std::min(cx, ncx - 1);
      cy = std::min(cy, ncy - 1);
      listener_cell_[v] = static_cast<std::uint32_t>(cx * ncy + cy);
    }
  };
  if (pool != nullptr) {
    pool->run_chunks(0, n, cells_body);
  } else {
    cells_body(0, n);
  }

  // Listeners by cell: a counting sort that visits ids in descending order
  // and fills each cell from its end, so ids ascend within a cell.
  // listener_start_ first holds the running end of every cell and ends up
  // holding every cell's first index.
  by_cell_.resize(n);  // udwn-lint: allow(hot-path-alloc): only on a
                       // layout-key change
  listener_start_.assign(  // udwn-lint: allow(hot-path-alloc): only on a
                           // layout-key change
      ncells + 1, 0);
  for (std::size_t v = 0; v < n; ++v) ++listener_start_[listener_cell_[v]];
  for (std::size_t c = 1; c <= ncells; ++c)
    listener_start_[c] += listener_start_[c - 1];
  for (std::size_t v = n; v-- > 0;)
    by_cell_[--listener_start_[listener_cell_[v]]] =
        static_cast<std::uint32_t>(v);
  layout_ok_ = true;
}

bool FarFieldWorkspace::field_into(const EuclideanMetric& metric,
                                   const PathLoss& pathloss,
                                   std::span<const NodeId> transmitters,
                                   const FarFieldParams& params,
                                   std::vector<double>& field,
                                   TaskPool* pool,
                                   const FarFieldDecode* decode) {
  const std::size_t n = metric.size();
  const std::span<const Vec2> pts = metric.positions();
  if (decode != nullptr) {
    // β >= 1 is what rules out two passing senders of equal signal.
    UDWN_EXPECT(decode->beta >= 1);
    UDWN_EXPECT(decode->alive.size() == n &&
                decode->transmitting.size() == n &&
                decode->decoded_from.size() == n);
  }
  if (n == 0) {
    field.clear();
    return true;
  }

  // Listener layout: grid shape, node cells and listeners by cell, kept
  // while the positions and the cell side stay the same.
  const LayoutKey layout{.metric = &metric,
                         .version = metric.version(),
                         .n = n,
                         .cell = params.cell};
  if (layout != layout_key_) build_layout(layout, pts, pool);
  if (!layout_ok_) return false;
  const std::size_t ncx = ncx_;
  const std::size_t ncy = ncy_;
  const std::size_t ncells = ncx * ncy;

  // Translation-invariant offset tables: the center-to-center distance (and
  // its signal) depends only on the integer cell offset, so one libm pow per
  // distinct offset covers every cell pair. The near stencil and the zeroed
  // kernel entries come from the *same* distance test, so "near" is exactly
  // the complement of "aggregated".
  const TableKey key{.ncx = ncx,
                     .ncy = ncy,
                     .cell = params.cell,
                     .rho = params.rho,
                     .power = pathloss.power(),
                     .zeta = pathloss.zeta(),
                     .near_limit = pathloss.near_limit()};
  if (key != table_key_) build_tables(key, pathloss);

  // Bucket transmitters by cell, keeping slot order within a cell: sort by
  // (cell key, slot index) — a deterministic total order independent of
  // thread count and of the transmitters' positions in memory.
  const std::size_t count = transmitters.size();
  tx_sorted_.resize(count);  // udwn-lint: allow(hot-path-alloc): per-slot
                             // scratch, reuses capacity at steady state
  for (std::size_t i = 0; i < count; ++i) {
    UDWN_ASSERT(transmitters[i].value < n);
    tx_sorted_[i] = {listener_cell_[transmitters[i].value],
                     static_cast<std::uint32_t>(i)};
  }
  std::sort(tx_sorted_.begin(), tx_sorted_.end());

  // Flat transmitter copies in (cell, slot) order; cell_start_[c] = number
  // of transmitters in cells with a smaller key, so the transmitters of
  // cells c .. c' − 1 are the contiguous run cell_start_[c] ..
  // cell_start_[c'] − 1. Distinct transmitter cells get their grid
  // coordinates and count for the far pass. One spare entry past the last
  // transmitter lets the near gather read a run's first entry
  // unconditionally.
  tx_.resize(count + 1);  // udwn-lint: allow(hot-path-alloc): per-slot
  cell_start_.assign(  // udwn-lint: allow(hot-path-alloc): per-slot
      ncells + 1, 0);
  tx_cells_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t id = transmitters[tx_sorted_[i].second].value;
    tx_[i] = {pts[id].x, pts[id].y, id};
    const std::uint64_t c = tx_sorted_[i].first;
    ++cell_start_[c + 1];
    if (i == 0 || c != tx_sorted_[i - 1].first)
      tx_cells_.push_back(  // udwn-lint: allow(hot-path-alloc): per-slot
          {static_cast<std::int32_t>(c / ncy),
           static_cast<std::int32_t>(c % ncy), 0.0});
    tx_cells_.back().count += 1.0;
  }
  for (std::size_t c = 0; c < ncells; ++c) cell_start_[c + 1] += cell_start_[c];
  const std::size_t tx_cells = tx_cells_.size();

  // Far aggregation, row-major: job item cx owns grid row cx's ncy sums in
  // far_sum_. They start at +0.0, and every transmitter cell, in ascending
  // key order, adds count · kernel(Δc) over the whole row — +0.0 for near
  // offsets (the exact near sweep covers those). Row cx against tx cell t
  // reads kernel row |cx − tcx| from column (ncy − 1) − tcy on, one
  // contiguous run of ncy entries. Each cell sums in ascending tx-cell
  // order, so the result is the same for any thread count.
  far_sum_.resize(ncells);  // udwn-lint: allow(hot-path-alloc): per-slot
                            // scratch, reuses capacity at steady state
  const std::size_t width = 2 * ncy - 1;
  const double* kernel = kernel_.data();
  const TxCell* txc = tx_cells_.data();
  auto far_body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t cx = lo; cx < hi; ++cx) {
      double* const out = far_sum_.data() + cx * ncy;
      std::fill_n(out, ncy, 0.0);
      for (std::size_t t = 0; t < tx_cells; ++t) {
        const double* k =
            kernel +
            static_cast<std::size_t>(
                std::abs(static_cast<std::int32_t>(cx) - txc[t].cx)) *
                width +
            (ncy - 1 - static_cast<std::size_t>(txc[t].cy));
        add_scaled(out, k, txc[t].count, ncy);
      }
    }
  };
  if (pool != nullptr) {
    pool->run_chunks(0, ncx, far_body);
  } else {
    far_body(0, ncx);
  }

  // Near sweep, cell-major: each non-empty listener cell gathers the
  // transmitters of its near cells once — stencil rows in ascending Δcx,
  // each row one contiguous run of tx_, so the buffer is in (cell key,
  // slot) order — and each of its listeners adds them, self excluded (a
  // transmitter's own cell is always near, d_cc = 0), to the aggregated far
  // signal. Work chunks are cell ranges holding about n / chunks listeners
  // each; chunk k gathers into its own slice of gather_. Each term is
  // computed inline, in transmitter order, as PathLoss::gain of sqrt(dx·dx +
  // dy·dy), bit for bit PathLoss::signal(EuclideanMetric::distance(u, v));
  // the local copy keeps P, ζ and the near limit in registers, and the
  // ζ = 3 decision is taken once per sweep chunk. The strongest term and
  // its sender feed the fused decode.
  field.resize(n);  // udwn-lint: allow(hot-path-alloc): per-slot output,
                    // reuses capacity at steady state
  const std::size_t chunks =
      pool != nullptr
          ? static_cast<std::size_t>(pool->threads()) * kSweepChunksPerThread
          : 1;
  // Chunk k starts at the first cell whose listeners start at or after
  // k·n / chunks.
  const auto chunk_start = [&](std::size_t k) {
    if (k == chunks) return ncells;
    return static_cast<std::size_t>(
        std::lower_bound(listener_start_.begin(),
                         listener_start_.begin() +
                             static_cast<std::ptrdiff_t>(ncells),
                         k * n / chunks) -
        listener_start_.begin());
  };
  // A cell's near transmitters lie in its stencil's grid rows, cx − rows + 1
  // … cx + rows − 1, so the most transmitters in any such band of rows
  // bounds every gather.
  const std::size_t rows = near_half_.size();
  std::size_t band = 0;
  for (std::size_t cx = 0; cx < ncx; ++cx) {
    const std::size_t r_lo = cx + 1 >= rows ? cx + 1 - rows : 0;
    const std::size_t r_hi = std::min(ncx, cx + rows);
    band = std::max<std::size_t>(
        band, cell_start_[r_hi * ncy] - cell_start_[r_lo * ncy]);
  }
  const std::size_t stride = band + 1;  // + the unconditional copy's slot
  gather_.resize(  // udwn-lint: allow(hot-path-alloc): per-slot scratch,
                   // reuses capacity at steady state
      chunks * stride);
  const PathLoss pl = pathloss;
  const auto near_rows = static_cast<std::int32_t>(rows);
  const auto gx = static_cast<std::int32_t>(ncx);
  const auto gy = static_cast<std::int32_t>(ncy);
  const double beta = decode != nullptr ? decode->beta : 0.0;
  const double noise = decode != nullptr ? decode->noise : 0.0;
  auto sweep = [&](std::size_t k_lo, std::size_t k_hi, auto cube) {
    for (std::size_t k = k_lo; k < k_hi; ++k) {
      NearTx* const near = gather_.data() + k * stride;
      for (std::size_t c = chunk_start(k), c_end = chunk_start(k + 1);
           c < c_end; ++c) {
        const std::uint32_t l_begin = listener_start_[c];
        const std::uint32_t l_end = listener_start_[c + 1];
        if (l_begin == l_end) continue;
        // Listener ids are scattered over the node arrays; start their
        // loads now so that the gather below hides them.
        for (std::uint32_t i = l_begin; i < l_end; ++i) {
          __builtin_prefetch(&pts[by_cell_[i]]);
          __builtin_prefetch(&field[by_cell_[i]], 1);
        }
        const auto cx = static_cast<std::int32_t>(c / ncy);
        const auto cy = static_cast<std::int32_t>(c % ncy);
        NearTx* near_end = near;
        for (std::int32_t r = std::max(0, cx - near_rows + 1),
                          r_end = std::min(gx, cx + near_rows);
             r < r_end; ++r) {
          const std::int32_t half = near_half_[std::abs(r - cx)];
          const std::size_t row = static_cast<std::size_t>(r) * ncy;
          const std::uint32_t m_begin = cell_start_[
              row + static_cast<std::size_t>(std::max(0, cy - half))];
          const std::uint32_t m_end = cell_start_[
              row + static_cast<std::size_t>(std::min(gy, cy + half + 1))];
          // Most runs hold zero or one transmitter: copy one entry without
          // a branch (the spare tx_ and gather_ entries make that safe),
          // then the rest, if any.
          *near_end = tx_[m_begin];
          for (std::uint32_t m = m_begin + 1; m < m_end; ++m)
            near_end[m - m_begin] = tx_[m];
          near_end += m_end - m_begin;
        }
        const double far = far_sum_[c];
        for (std::uint32_t i = l_begin; i < l_end; ++i) {
          const std::uint32_t v = by_cell_[i];
          const Vec2 listener = pts[v];
          double acc = far;
          double best = -1;
          std::uint32_t best_id = 0;
          // The self term is skipped (a transmitter hears only others).
          for (const NearTx* t = near; t != near_end; ++t) {
            if (t->id == v) continue;
            const double dx = t->x - listener.x;
            const double dy = t->y - listener.y;
            const double s =
                pl.gain<decltype(cube)::value>(std::sqrt(dx * dx + dy * dy));
            acc += s;
            if (s > best) {
              best = s;
              best_id = t->id;
            }
          }
          field[v] = acc;
          if (decode != nullptr && decode->alive[v] &&
              !decode->transmitting[v])
            decode->decoded_from[v] = best > beta * ((acc - best) + noise)
                                          ? NodeId(best_id)
                                          : NodeId{};
        }
      }
    }
  };
  auto sweep_body = [&](std::size_t k_lo, std::size_t k_hi) {
    pl.with_exponent([&](auto cube) { sweep(k_lo, k_hi, cube); });
  };
  if (pool != nullptr) {
    pool->run_chunks(0, chunks, sweep_body, 1);
  } else {
    sweep_body(0, chunks);
  }
  return true;
}

}  // namespace udwn
