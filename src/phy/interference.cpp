#include "phy/interference.h"

#include <algorithm>

#include "common/contract.h"

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

void accumulate_columns(const double* const* rows, std::size_t row_stride,
                        std::size_t count, double* f, std::size_t jlo,
                        std::size_t jhi) {
  // Four transmitter rows per sweep: each listener's partial sum stays in a
  // register across the four adds, executed in transmitter order, so
  // per-listener rounding matches the row-at-a-time sum exactly.
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const double* r0 = rows[(i + 0) * row_stride];
    const double* r1 = rows[(i + 1) * row_stride];
    const double* r2 = rows[(i + 2) * row_stride];
    const double* r3 = rows[(i + 3) * row_stride];
    for (std::size_t j = jlo; j < jhi; ++j) {
      double acc = f[j];
      acc += r0[j];
      acc += r1[j];
      acc += r2[j];
      acc += r3[j];
      f[j] = acc;
    }
  }
  for (; i < count; ++i) {
    const double* row = rows[i * row_stride];
    for (std::size_t j = jlo; j < jhi; ++j) f[j] += row[j];
  }
}

void interference_field_soa(const GainTable& gains,
                            std::span<const NodeId> transmitters,
                            std::vector<const double*>& row_scratch,
                            std::vector<double>& field, TaskPool* pool) {
  const std::size_t n = gains.size();
  const std::size_t blocks = gains.blocks();
  field.assign(n, 0.0);
  if (transmitters.empty()) return;
  const std::size_t count = transmitters.size();

  // Serial prologue: collect the (transmitter, block) → row pointers once,
  // so the parallel region below is pure reads.
  row_scratch.clear();
  if (row_scratch.capacity() < count * blocks)
    row_scratch.reserve(count * blocks);
  for (const NodeId u : transmitters)
    for (std::size_t b = 0; b < blocks; ++b) {
      const double* row = gains.row_block(u, b);
      UDWN_ASSERT(row != nullptr);  // caller ran ensure_rows
      row_scratch.push_back(row);
    }
  const double* const* rows = row_scratch.data();

  auto body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t begin = gains.block_begin(b);
      const std::size_t s = std::max(lo, begin);
      const std::size_t e = std::min(hi, begin + gains.block_cols(b));
      if (s >= e) continue;
      accumulate_columns(rows + b, blocks, count, field.data() + begin,
                         s - begin, e - begin);
    }
  };
  if (pool != nullptr) {
    pool->run_chunks(0, n, body);
  } else {
    body(0, n);
  }
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
