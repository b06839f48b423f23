// Certified far-field interference approximation (Barnes–Hut style).
//
// The exact field is I(v) = Σ_{u in S, u != v} P / d(u,v)^ζ — O(|S| · n)
// per slot even with every caching layer, which is the wall between n=8192
// benchmarks and the million-node target. Power-law path loss decays fast
// enough that *distant* transmitters can be aggregated per spatial cell
// with a provable relative-error bound, the same superset-then-certify
// discipline the spatial grid's inflate-then-filter pruning already uses:
//
//   Cover the plane with square cells of side S. Put listener v in cell c,
//   transmitter u in cell t, and let d_cc be the distance between the two
//   cell centers. Both endpoints sit within half a cell diagonal (δ/2,
//   δ = S·√2) of their centers, so the true pair distance obeys
//     d_cc − δ  <=  d(u,v)  <=  d_cc + δ.
//   Approximating u's term by the *center-to-center* signal P / d_cc^ζ
//   therefore mis-scales it by a factor (d(u,v)/d_cc)^ζ in
//     [ (1 − δ/d_cc)^ζ, (1 + δ/d_cc)^ζ ].
//   Aggregating only cell pairs with d_cc >= ρ and writing β = δ/ρ, the
//   per-term relative error is at most
//     ε = (1 + β)^ζ − 1
//   on the high side, and 1 − (1 − β)^ζ <= ε on the low side (convexity of
//   x^ζ for ζ >= 1: (1+β)^ζ + (1−β)^ζ >= 2). Near pairs (d_cc < ρ) are
//   summed exactly, and every term is non-negative, so the *summed* field
//   obeys |approx(v) − exact(v)| <= ε · exact(v) for every listener.
//
// The result, bit for bit: the grid starts at the bounding-box minimum
// (x0, y0) of all points and has ncx = ⌊(x1 − x0)/S⌋ + 1 columns and
// ncy = ⌊(y1 − y0)/S⌋ + 1 rows. A node at (x, y) sits in cell
// (cx, cy) = (min(⌊(x − x0)/S⌋, ncx − 1), min(⌊(y − y0)/S⌋, ncy − 1)),
// key cx · ncy + cy. Two cells are d_cc = √(dx² + dy²) apart, with
// dx = |Δcx|·S and dy = |Δcy|·S. field[v] is one left-to-right double sum,
// starting at 0: first count · signal(d_cc) over the distinct transmitter
// cells with d_cc >= ρ, in ascending key order; then signal(d(u, v)) over
// the transmitters u != v in the cells with d_cc < ρ, in ascending key
// order and slot order within a cell.
//
// far_field_params inverts the bound: given a target ε it derives
// β = (1+ε)^(1/ζ) − 1 and the separation radius ρ = δ/β, refusing
// (nullopt → caller runs the exact kernel) whenever the certificate cannot
// hold — e.g. when ρ − δ does not clear the path-loss near-limit clamp, so
// both d_cc and d(u,v) are guaranteed to be on the pure power-law branch.
//
// Cost: per slot, one pass bucketing the |S| transmitters into cells, a
// cells × tx-cells aggregation whose signal factors come from a
// translation-invariant offset table (one pow per distinct cell offset, not
// per pair), and an exact near sweep whose per-listener work is bounded by
// the O(ρ²·density) transmitters nearby — independent of n. The O(|S|·n)
// pairwise wall disappears. Four choices keep the constant small without
// changing a single bit of the result:
//   - Kernel table with zeroed near offsets. The far pass reads a kernel
//     that holds signal(d_cc) at far offsets and +0.0 at near offsets
//     (d_cc < ρ), so it adds every tx cell unconditionally instead of
//     branching. Adding count · (+0.0) = +0.0 to a non-negative partial sum
//     changes no bit — the same argument as gain_table.h's zeroed diagonal.
//   - Row-major far pass. The kernel is stored mirrored along Δy (one row
//     per |Δcx|, columns Δcy = −(ncy−1) … ncy−1), so the ncy listener cells
//     of grid row cx read one contiguous kernel run per tx cell. Each job
//     item is one grid row: its ncy sums start at +0.0 in the per-cell
//     output, and every tx cell, in ascending key order, adds count · kernel
//     over the whole row in one loop the compiler packs into SIMD lanes.
//     Each cell still sums in ascending tx-cell order, so the row width and
//     the thread count change no bit. Tx cells are pre-split into (cx, cy)
//     and a double count once per slot, so the loop does no integer
//     division.
//   - Cached tables. The kernel and the near stencil (for each |Δcx|, the
//     largest |Δcy| with d_cc < ρ) depend only on the grid shape
//     (ncx, ncy), the cell side, ρ and the path-loss values (P, ζ, near
//     limit) — not on the layout's origin or on which nodes transmit. They
//     are rebuilt only when that key changes; the key holds the path-loss
//     *values*, since power-scaled slots pass a temporary PathLoss.
//   - Cached listener layout. The bounding box, the grid shape, every
//     node's cell and the counting sort of listeners by cell depend only on
//     the positions and the cell side. They are kept across slots, keyed on
//     (metric address, metric version, n, cell), and rebuilt only when that
//     key changes; only the transmitters are bucketed per slot. Like
//     TopologyCache, the key takes the metric's address as its identity: a
//     workspace must not outlive its metric into a new one at the same
//     address.
// The near sweep runs cell-major. Listeners are counting-sorted by cell
// (ascending id within a cell). The near cells of one stencil row are a
// contiguous cy range, so with the transmitters copied flat in (cell key,
// slot) order and a per-cell start index, each row's near transmitters are
// one contiguous run. Each non-empty listener cell copies those runs once
// into a per-chunk gather buffer, in (cell key, slot) order, and every
// listener of the cell sums that buffer: the same terms in the same order
// as walking the stencil per listener, so the same bits, but the stencil
// lookups are paid once per cell rather than once per listener. Each term
// evaluates the same expressions as EuclideanMetric::distance and
// PathLoss::signal: it is computed inline, as PathLoss::gain of
// sqrt(dx·dx + dy·dy), and the terms are summed in transmitter order. With
// a pool the listener cells are cut into eight work chunks per thread, of
// about equal listener counts, which the pool's threads claim as they
// finish the previous one, so no core waits long on a slower one at the
// join.
//
// Fused SINR decode (optional, FarFieldDecode): the same loop tracks each
// listener's strongest near signal s and its sender, and decides decode as
// s > β·((I − s) + N), the SinrReception::receives expression over this
// field I. That is exactly the sender the grid-pruned scatter-max decode
// would pick: fl(I − s) is non-increasing in s, so a sender that passes
// keeps passing when its signal grows, and the strongest candidate passes
// whenever any does. Two senders with equal s cannot both pass (I >= 2s
// in floating point, so I − s >= s, and β >= 1). Every sender that can
// pass lies within the decode radius r, hence in a near cell whenever
// r + δ < ρ (far_field_covers_decode); otherwise the caller decodes
// separately.
//
// Determinism: the result is a pure function of (positions, transmitters,
// params). Every far sum runs over tx cells in ascending key order, every
// near sum over transmitters in (cell key, slot) order, and parallel phases
// partition nodes, grid rows or cells without ever splitting one
// accumulation: the far pass's items are grid rows, the near sweep's chunks
// are ranges of listener cells, and each listener's sum stays inside its
// cell's chunk. So any thread count produces bit-identical
// fields and decode decisions (the determinism audit checks far-field rows
// for exactly this self-determinism; the approximation is *not*
// bit-identical to the exact kernels, only ε-certified against them).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/contract.h"
#include "common/parallel.h"
#include "common/types.h"
#include "metric/euclidean.h"
#include "phy/pathloss.h"

namespace udwn {

/// Derived certificate constants; produce via far_field_params.
struct FarFieldParams {
  /// Certified worst-case relative field error (the knob value).
  double eps = 0;
  /// Aggregation cell side S.
  double cell = 0;
  /// Minimum center-to-center distance for aggregation; nearer cell pairs
  /// are summed exactly.
  double rho = 0;
};

/// Derive the certificate for a target ε and cell side, or nullopt when the
/// bound cannot hold (ε or cell not positive/finite, β >= 1, or ρ − δ not
/// clear of the near-limit clamp). Callers fall back to the exact kernels
/// on nullopt, so a bad knob combination degrades, never corrupts.
[[nodiscard]] std::optional<FarFieldParams> far_field_params(
    double eps, double cell, const PathLoss& pathloss);

/// True iff every sender a listener can decode within `decode_radius` lies
/// in one of the listener's near cells (decode_radius + δ < ρ), so the near
/// sweep sees every decode candidate and can settle SINR decode itself.
[[nodiscard]] bool far_field_covers_decode(const FarFieldParams& params,
                                           double decode_radius);

/// Inputs and output of the fused SINR decode (file comment, "Fused SINR
/// decode"). Spans are indexed by node id and hold metric.size() entries.
struct FarFieldDecode {
  /// SinrReception's threshold β (>= 1) and noise N.
  double beta = 0;
  double noise = 0;
  std::span<const std::uint8_t> alive;
  std::span<const std::uint8_t> transmitting;
  /// Written for every alive, non-transmitting listener: its decoded
  /// sender, or NodeId{} when none passes. Other entries are untouched.
  std::span<NodeId> decoded_from;
};

/// Reusable scratch for the approximate field (one per SlotWorkspace).
/// Buffers are sized per slot but reuse capacity, and the offset tables and
/// the listener layout are rebuilt only when their keys change ("Cached
/// tables", "Cached listener layout" above), so steady-state slots at a
/// stable instance size do not allocate.
class FarFieldWorkspace {
 public:
  /// Approximate interference field into `field` (resized to metric.size();
  /// every entry written). Returns false — leaving `field` untouched — when
  /// the instance layout defeats aggregation (cell grid would outnumber
  /// nodes by too much); the caller then runs an exact kernel. With
  /// `decode` non-null the SINR decode is settled from the same near terms
  /// (only when the field is written); the caller must have checked
  /// far_field_covers_decode for the slot's decode radius.
  UDWN_HOT bool field_into(const EuclideanMetric& metric,
                           const PathLoss& pathloss,
                           std::span<const NodeId> transmitters,
                           const FarFieldParams& params,
                           std::vector<double>& field, TaskPool* pool,
                           const FarFieldDecode* decode = nullptr);

 private:
  // Inputs the cached offset tables depend on (see "Cached tables" above).
  struct TableKey {
    std::size_t ncx = 0;
    std::size_t ncy = 0;
    double cell = 0;
    double rho = 0;
    double power = 0;
    double zeta = 0;
    double near_limit = 0;
    friend bool operator==(const TableKey&, const TableKey&) = default;
  };
  void build_tables(const TableKey& key, const PathLoss& pathloss);

  // Cached per table key: far-field kernel, ncx rows of 2·ncy − 1 entries,
  // entry [|Δcx|][Δcy + ncy − 1] = signal(d_cc), or +0.0 where d_cc < ρ;
  // and the near stencil, near_half_[|Δcx|] = largest |Δcy| with d_cc < ρ
  // (rows with no near offset are left out).
  TableKey table_key_;
  std::vector<double> kernel_;
  std::vector<std::int32_t> near_half_;

  // Inputs the cached listener layout depends on (see "Cached listener
  // layout" above).
  struct LayoutKey {
    const EuclideanMetric* metric = nullptr;
    std::uint64_t version = 0;
    std::size_t n = 0;
    double cell = 0;
    friend bool operator==(const LayoutKey&, const LayoutKey&) = default;
  };
  // Rebuild the listener layout for `key` and set layout_ok_.
  void build_layout(const LayoutKey& key, std::span<const Vec2> pts,
                    TaskPool* pool);

  // Cached per layout key: whether the layout admits aggregation, the grid
  // shape, each node's cell index, the listener ids sorted by (cell, id),
  // and per cell c the index in by_cell_ of its first listener (size
  // ncells + 1).
  LayoutKey layout_key_;
  bool layout_ok_ = false;
  std::size_t ncx_ = 0;
  std::size_t ncy_ = 0;
  std::vector<std::uint32_t> listener_cell_;
  std::vector<std::uint32_t> by_cell_;
  std::vector<std::uint32_t> listener_start_;
  // Transmitters sorted by (cell key, slot order): first = cell key,
  // second = index into the slot's transmitter span.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> tx_sorted_;
  // Transmitter position and id in tx_sorted_ order.
  struct NearTx {
    double x;
    double y;
    std::uint32_t id;
  };
  std::vector<NearTx> tx_;
  // Near-sweep gather buffers: work chunk k owns the b + 1 entries starting
  // at k·(b + 1), where b is the most transmitters in any band of grid rows
  // as tall as the near stencil (a cell's near transmitters never exceed b).
  std::vector<NearTx> gather_;
  // Per cell key c: index in tx_ of the first transmitter with cell key
  // >= c (size ncells + 1).
  std::vector<std::uint32_t> cell_start_;
  // Distinct transmitter cells in ascending key order: grid coordinates
  // and transmitter count.
  struct TxCell {
    std::int32_t cx;
    std::int32_t cy;
    double count;
  };
  std::vector<TxCell> tx_cells_;
  // Per-cell aggregated far signal, key order (grid row cx is the ncy
  // entries from cx·ncy on).
  std::vector<double> far_sum_;
};

}  // namespace udwn
