#include "phy/interference.h"

#include "common/contract.h"
#include "obs/clock.h"
#include "obs/obs.h"

namespace udwn {

void interference_field_into(const QuasiMetric& metric,
                             const PathLoss& pathloss,
                             std::span<const NodeId> transmitters,
                             std::vector<double>& field, TaskPool* pool) {
  const std::size_t n = metric.size();
  field.assign(n, 0.0);
  auto body = [&](std::size_t lo, std::size_t hi) {
    for (NodeId u : transmitters) {
      UDWN_ASSERT(u.value < n);
      for (std::size_t v = lo; v < hi; ++v) {
        if (u.value == v) continue;
        field[v] += pathloss.signal(
            metric.distance(u, NodeId(static_cast<std::uint32_t>(v))));
      }
    }
  };
  if (pool != nullptr) {
    pool->run_chunks(0, n, body);
  } else {
    body(0, n);
  }
}

std::vector<double> interference_field(const QuasiMetric& metric,
                                       const PathLoss& pathloss,
                                       std::span<const NodeId> transmitters) {
  std::vector<double> field;
  interference_field_into(metric, pathloss, transmitters, field);
  return field;
}

namespace {

// The column kernels of accumulate_columns, over m columns from already
// offset pointers. Restrict pointers (the field is never a gain row; rows
// are only read, so they may alias each other), an even main trip count
// and a one-column tail: GCC's vectorizer at the project's -O2 packs two
// columns per addpd, with no runtime alias check and no epilogue loop.
// Lanes are columns, so each column's adds keep the scalar order and bits.
inline void add_rows4(double* __restrict f, const double* __restrict r0,
                      const double* __restrict r1,
                      const double* __restrict r2,
                      const double* __restrict r3, std::size_t m) {
  const std::size_t even = m & ~std::size_t{1};
  for (std::size_t j = 0; j < even; ++j) {
    double acc = f[j];
    acc += r0[j];
    acc += r1[j];
    acc += r2[j];
    acc += r3[j];
    f[j] = acc;
  }
  if (even != m) {
    double acc = f[even];
    acc += r0[even];
    acc += r1[even];
    acc += r2[even];
    acc += r3[even];
    f[even] = acc;
  }
}

inline void add_row(double* __restrict f, const double* __restrict row,
                    std::size_t m) {
  const std::size_t even = m & ~std::size_t{1};
  for (std::size_t j = 0; j < even; ++j) f[j] += row[j];
  if (even != m) f[even] += row[even];
}

}  // namespace

void accumulate_columns(const double* const* rows, std::size_t row_stride,
                        std::size_t count, double* f, std::size_t jlo,
                        std::size_t jhi) {
  if (jlo >= jhi) return;
  // Four transmitter rows per sweep: each listener's partial sum stays in a
  // register across the four adds, executed in transmitter order, so
  // per-listener rounding matches the row-at-a-time sum exactly.
  const std::size_t m = jhi - jlo;
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4)
    add_rows4(f + jlo, rows[(i + 0) * row_stride] + jlo,
              rows[(i + 1) * row_stride] + jlo,
              rows[(i + 2) * row_stride] + jlo,
              rows[(i + 3) * row_stride] + jlo, m);
  for (; i < count; ++i) add_row(f + jlo, rows[i * row_stride] + jlo, m);
}

namespace {

// The one gain-table field body behind interference_field_planned and
// interference_field_soa. `fill` is the table whose planned tiles each
// chunk fills before it accumulates — null when ensure_rows filled them.
void gain_table_field(const GainTable& gains, GainTable* fill,
                      std::span<const NodeId> transmitters,
                      std::vector<const double*>& row_scratch,
                      std::vector<double>& field, TaskPool* pool,
                      const ShardSpanTags& spans) {
  const std::size_t n = gains.size();
  const std::size_t blocks = gains.blocks();
  const std::size_t count = transmitters.size();
  field.assign(n, 0.0);  // udwn-lint: allow(hot-path-alloc): warm-up sizing
  // Prologue: collect each (transmitter, block) row pointer once,
  // transmitter-major. A planned tile's address is valid already (it lasts
  // until the tile is evicted or the table is rebound); its contents may
  // be stale until the owning chunk's fill_planned below.
  std::vector<const double*>& rs = row_scratch;
  rs.clear();
  const std::size_t need = count * blocks;
  if (rs.capacity() < need)
    rs.reserve(need);  // udwn-lint: allow(hot-path-alloc): warm-up sizing
  for (const NodeId u : transmitters)
    for (std::size_t b = 0; b < blocks; ++b) {
      const double* row = gains.row_block(u, b);
      UDWN_ASSERT(row != nullptr);
      rs.push_back(row);  // udwn-lint: allow(hot-path-alloc): reserve-backed
    }
  const double* const* rows = rs.data();

  Obs* obs = spans.obs;
  const bool timed = obs != nullptr && obs->events_enabled() &&
                     obs->config().worker_spans;
  auto body = [&](std::size_t block_lo, std::size_t block_hi) {
    // Ceil-divided chunking can hand the last worker an empty range; skip
    // it entirely (block_begin(block_lo) would be out of range, and a
    // zero-width span is pure noise).
    if (block_lo >= block_hi) return;
    // Span timing is observability-only: it can never influence chunk
    // boundaries or any accumulation below.
    const std::uint64_t t0 =
        timed ? obs_now_ns() : 0;  // udwn-lint: allow(det-wall-clock): span
    if (fill != nullptr) fill->fill_planned(block_lo, block_hi);
    for (std::size_t b = block_lo; b < block_hi; ++b)
      accumulate_columns(rows + b, blocks, count,
                         field.data() + gains.block_begin(b), 0,
                         gains.block_cols(b));
    if (timed) {
      // Worker-side span event: lands in the executing thread's ring, so
      // cross-ring merge order is scheduling-dependent — which is exactly
      // why ObsConfig::worker_spans is opt-in (see trace.h).
      TraceSink::Writer writer = obs->trace().writer();
      writer.emit(TraceEvent{
          .round = spans.round,
          .kind = static_cast<std::uint16_t>(EventKind::kShardSpan),
          .slot = spans.slot,
          .node = static_cast<std::uint32_t>(gains.block_begin(block_lo)),
          .aux = static_cast<std::uint32_t>(block_hi - block_lo),
          .value =
              obs_now_ns() - t0});  // udwn-lint: allow(det-wall-clock): span
    }
  };
  if (pool != nullptr) {
    pool->run_chunks(0, blocks, body);
  } else {
    body(0, blocks);
  }
}

}  // namespace

void interference_field_planned(GainTable& gains,
                                std::span<const NodeId> transmitters,
                                std::vector<const double*>& row_scratch,
                                std::vector<double>& field, TaskPool* pool,
                                const ShardSpanTags& spans) {
  gain_table_field(gains, &gains, transmitters, row_scratch, field, pool,
                   spans);
}

void interference_field_soa(const GainTable& gains,
                            std::span<const NodeId> transmitters,
                            std::vector<const double*>& row_scratch,
                            std::vector<double>& field, TaskPool* pool) {
  gain_table_field(gains, nullptr, transmitters, row_scratch, field, pool,
                   {});
}

double interference_at(const QuasiMetric& metric, const PathLoss& pathloss,
                       std::span<const NodeId> transmitters, NodeId listener,
                       NodeId excluded) {
  double sum = 0;
  for (NodeId u : transmitters) {
    if (u == listener || u == excluded) continue;
    sum += pathloss.signal(metric.distance(u, listener));
  }
  return sum;
}

}  // namespace udwn
