// Exact cumulative interference computation.
//
// Given the set S of concurrently transmitting nodes, the interference at a
// listener v is  I(v) = Σ_{u in S, u != v}  P / d(u,v)^ζ  (Sec. 2). The
// engine computes the whole field once per slot; reception decisions and the
// carrier-sensing primitives both read from it, so the physics seen by the
// protocol and the physics used for delivery are identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/contract.h"
#include "common/parallel.h"
#include "common/types.h"
#include "metric/quasi_metric.h"
#include "phy/gain_table.h"
#include "phy/pathloss.h"

namespace udwn {

class Obs;

/// Interference at every node id in [0, metric.size()): entry v is the sum
/// of signal strengths from all `transmitters` other than v itself.
/// Complexity O(|transmitters| * metric.size()).
std::vector<double> interference_field(const QuasiMetric& metric,
                                       const PathLoss& pathloss,
                                       std::span<const NodeId> transmitters);

/// Same field, written into a caller-owned buffer (resized to
/// metric.size(); reuses capacity, so steady-state calls do not allocate).
/// With a TaskPool the listener range is partitioned into fixed chunks and
/// summed concurrently; every listener's sum still accumulates in
/// transmitter order, so the result is bit-for-bit identical to the serial
/// kernel for any thread count (chunks partition listeners, never a single
/// listener's sum).
UDWN_HOT void interference_field_into(const QuasiMetric& metric,
                                      const PathLoss& pathloss,
                                      std::span<const NodeId> transmitters,
                                      std::vector<double>& field,
                                      TaskPool* pool = nullptr);

/// Interference at a single listener from `transmitters` (excluding the
/// listener itself and `excluded`, typically the intended sender).
double interference_at(const QuasiMetric& metric, const PathLoss& pathloss,
                       std::span<const NodeId> transmitters, NodeId listener,
                       NodeId excluded = NodeId{});

// --- Gain-table field --------------------------------------------------------
//
// Reads unscaled gains from a GainTable whose transmitter rows are resident.
// Because every table entry is the exact double the uncached kernel would
// compute — with the diagonal stored as +0.0, and x + 0.0 == x for the
// non-negative partial sums — the field is bit-for-bit identical to
// interference_field_into for any thread count and tile width (chunks
// partition listener blocks, each listener still accumulates in
// transmitter order).

/// Accumulate `count` transmitter gain rows into field columns [jlo, jhi):
/// f[j] += rows[0][j] + rows[row_stride][j] + ... in exact row order per
/// column. `rows[i * row_stride]` is transmitter i's row pointer for one
/// listener block (the field driver passes its row-pointer array + block
/// with row_stride = blocks). Four rows per sweep keep each listener's
/// partial sum in a register; the compiler may vectorize across listeners
/// (lanes), never across transmitters, so no listener's sum is ever
/// reassociated.
UDWN_HOT void accumulate_columns(const double* const* rows,
                                 std::size_t row_stride, std::size_t count,
                                 double* f, std::size_t jlo, std::size_t jhi);

/// Trace tags for the driver's worker-side kShardSpan events (see
/// ObsConfig::worker_spans); a null `obs` emits none.
struct ShardSpanTags {
  Obs* obs = nullptr;
  std::uint32_t round = 0;
  std::uint8_t slot = 0;
};

/// The gain-table field driver, after gains.plan_rows(transmitters)
/// returned true. A serial prologue sizes `field` and collects each
/// (transmitter, block) row pointer into `row_scratch` (caller-owned,
/// reused — no steady-state allocation); then each chunk of listener
/// blocks fills its planned tiles (GainTable::fill_planned) and
/// accumulates its columns in one pass, so a freshly filled tile is still
/// cache-hot when it is read. With a pool the chunks run on it (run_chunks
/// over blocks; the tile width gives every thread a block); without one
/// the body runs inline over all blocks. Chunks partition blocks, so tile
/// fills and column writes are disjoint.
UDWN_HOT void interference_field_planned(
    GainTable& gains, std::span<const NodeId> transmitters,
    std::vector<const double*>& row_scratch, std::vector<double>& field,
    TaskPool* pool = nullptr, const ShardSpanTags& spans = {});

/// Field over a gain table whose rows ensure_rows made resident and filled:
/// the same driver as interference_field_planned, with nothing to fill.
UDWN_HOT void interference_field_soa(const GainTable& gains,
                                     std::span<const NodeId> transmitters,
                                     std::vector<const double*>& row_scratch,
                                     std::vector<double>& field,
                                     TaskPool* pool = nullptr);

}  // namespace udwn
