// Exact cumulative interference computation.
//
// Given the set S of concurrently transmitting nodes, the interference at a
// listener v is  I(v) = Σ_{u in S, u != v}  P / d(u,v)^ζ  (Sec. 2). The
// engine computes the whole field once per slot; reception decisions and the
// carrier-sensing primitives both read from it, so the physics seen by the
// protocol and the physics used for delivery are identical.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/contract.h"
#include "common/parallel.h"
#include "common/types.h"
#include "metric/quasi_metric.h"
#include "phy/gain_table.h"
#include "phy/pathloss.h"

namespace udwn {

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

// --- Gain-table kernel -------------------------------------------------------
//
// Reads unscaled gains from a GainTable whose transmitter rows were made
// resident by ensure_rows (the caller guarantees this). Because every table
// entry is the exact double the uncached kernel would compute — with the
// diagonal stored as +0.0, and x + 0.0 == x for the non-negative partial
// sums — the field is bit-for-bit identical to interference_field_into for
// any thread count (chunks partition listeners, each listener still
// accumulates in transmitter order).

/// Accumulate `count` transmitter gain rows into field columns [jlo, jhi):
/// f[j] += rows[0][j] + rows[row_stride][j] + ... in exact row order per
/// column. `rows[i * row_stride]` is transmitter i's row pointer for one
/// listener block (callers pass row_scratch.data() + block with
/// row_stride = blocks). Four rows per sweep keep each listener's partial
/// sum in a register; the compiler may vectorize across listeners (lanes),
/// never across transmitters, so no listener's sum is ever reassociated.
/// The one accumulator loop of the gain-table field: interference_field_soa
/// and the sharded slot pipeline (Channel::resolve_into) both call it.
UDWN_HOT void accumulate_columns(const double* const* rows,
                                 std::size_t row_stride, std::size_t count,
                                 double* f, std::size_t jlo, std::size_t jhi);

/// Field over the gain table: a serial prologue collects the (transmitter,
/// block) row pointers into `row_scratch` (caller-owned, reused — no
/// steady-state allocation), then listener chunks run accumulate_columns
/// block by block.
UDWN_HOT void interference_field_soa(const GainTable& gains,
                                     std::span<const NodeId> transmitters,
                                     std::vector<const double*>& row_scratch,
                                     std::vector<double>& field,
                                     TaskPool* pool = nullptr);

}  // namespace udwn
