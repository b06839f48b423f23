#include "phy/channel.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contract.h"
#include "obs/clock.h"
#include "obs/obs.h"
#include "phy/interference.h"

namespace udwn {

namespace {
// Superset-safe inflation for grid range queries; the exact metric/model
// predicate always re-filters candidates (see topology_cache.h).
constexpr double kGridInflation = 1.0 + 1e-9;
// The mass-delivery/clear loop runs on the pool only with at least this
// many transmitters per thread: below it the fork/join costs more than the
// neighbour-list fills it spreads.
constexpr std::size_t kMinFlagTxPerThread = 64;
}  // namespace

Channel::Channel(const QuasiMetric& metric, const PathLoss& pathloss,
                 const ReceptionModel& model, double epsilon)
    : metric_(&metric),
      pathloss_(&pathloss),
      model_(&model),
      epsilon_(epsilon),
      // The model and path loss are immutable after construction, so their
      // derived constants (each a virtual call, some a libm pow) are hoisted
      // here once instead of per slot. Same expressions, same bits.
      sinr_(dynamic_cast<const SinrReception*>(&model)),
      max_range_(model.max_range()),
      comm_radius_((1 - epsilon) * model.max_range()),
      decode_range_unscaled_(model.decode_range(pathloss)),
      succ_clear_(model.succ_clear(epsilon)) {
  UDWN_EXPECT(epsilon > 0 && epsilon < 1);
}

SlotWorkspace::SlotWorkspace(SlotWorkspaceConfig config)
    : config_(config),
      cache_(TopologyCache::Config{
          .gain_budget_bytes = config.gain_budget_bytes,
          .threads = config.threads}) {
  UDWN_EXPECT(config.threads >= 1);
  neighbor_scratch_.resize(static_cast<std::size_t>(config.threads));
  if (config.threads > 1)
    pool_ = std::make_unique<TaskPool>(config.threads);
  // The pool lives in src/common, below the observability layer, so it
  // cannot name obs_now_ns itself; the clock is injected here, where obs
  // is already a dependency (layering DAG, DESIGN.md).
  if (pool_ != nullptr && config.obs != nullptr)
    pool_->set_collect_stats(true, &obs_now_ns);
}

double Channel::comm_radius() const { return comm_radius_; }

std::vector<NodeId> Channel::neighbors(
    NodeId u, std::span<const std::uint8_t> alive) const {
  UDWN_EXPECT(alive.size() == metric_->size());
  const double rb = comm_radius();
  std::vector<NodeId> result;
  for (std::size_t v = 0; v < metric_->size(); ++v) {
    const NodeId id(static_cast<std::uint32_t>(v));
    if (id == u || !alive[v]) continue;
    if (metric_->distance(u, id) <= rb) result.push_back(id);
  }
  return result;
}

double Channel::power_scale_for_range_factor(double factor) const {
  UDWN_EXPECT(factor > 0);
  return std::pow(factor, pathloss_->zeta());
}

SlotOutcome Channel::resolve(std::span<const NodeId> transmitters,
                             std::span<const std::uint8_t> alive,
                             double power_scale) const {
  UDWN_EXPECT(alive.size() == metric_->size());
  UDWN_EXPECT(power_scale > 0);
  const std::size_t n = metric_->size();

  // Per-slot uniform power scaling (App. B power control): physics runs on
  // the scaled path loss; model parameters (ranges, SuccClear thresholds)
  // keep their full-power meaning.
  const PathLoss scaled(pathloss_->power() * power_scale, pathloss_->zeta(),
                        pathloss_->near_limit());
  const bool unscaled =
      power_scale == 1.0;  // udwn-lint: allow(float-eq): exact sentinel —
                           // callers pass literal 1.0 for "no power control"
  const PathLoss& pl = unscaled ? *pathloss_ : scaled;

  SlotOutcome out;
  out.transmitters.assign(transmitters.begin(), transmitters.end());
  out.interference = interference_field(*metric_, pl, transmitters);
  out.decoded_from.assign(n, NodeId{});
  out.mass_delivered.assign(n, 0);
  out.clear.assign(n, 0);

  std::vector<std::uint8_t> is_tx(n, 0);
  for (NodeId u : transmitters) {
    UDWN_EXPECT(u.value < n);
    UDWN_EXPECT(alive[u.value]);
    is_tx[u.value] = 1;
  }

  const SlotView view{.metric = metric_,
                      .pathloss = &pl,
                      .transmitters = transmitters,
                      .transmitting = is_tx,
                      .interference = out.interference};

  // Decode decisions. For each alive, non-transmitting listener pick the
  // decodable sender with the strongest signal (with SINR threshold β >= 1
  // at most one sender is decodable; graph models admit exactly one by
  // construction — the tie-break only matters for degenerate parameters).
  for (std::size_t v = 0; v < n; ++v) {
    if (!alive[v] || is_tx[v]) continue;
    const NodeId receiver(static_cast<std::uint32_t>(v));
    NodeId best;
    double best_signal = -1;
    for (NodeId u : transmitters) {
      if (!model_->receives(receiver, u, view)) continue;
      const double s = pl.signal(metric_->distance(u, receiver));
      if (s > best_signal) {
        best_signal = s;
        best = u;
      }
    }
    out.decoded_from[v] = best;
  }

  // Mass-delivery and clear-channel flags per transmitter.
  for (NodeId u : transmitters) {
    bool all = true;
    for (NodeId v : neighbors(u, alive)) {
      if (out.decoded_from[v.value] != u) {
        all = false;
        break;
      }
    }
    out.mass_delivered[u.value] = static_cast<std::uint8_t>(all);
    out.clear[u.value] =
        static_cast<std::uint8_t>(model_->clear_channel(u, view, epsilon_));
  }

  return out;
}

void Channel::decode_scatter(const SlotView& view, const PathLoss& pl,
                             const GainTable* gains,
                             std::span<const std::uint8_t> alive,
                             const SpatialGrid& grid, double decode_radius,
                             SlotWorkspace& ws) const {
  // Scatter-max: visit, per transmitter in slot order, every listener that
  // could possibly decode it (grid ball of the model's decode range) and
  // keep the strongest decodable sender. Iterating transmitters outermost
  // preserves the reference tie-break (first transmitter wins on equal
  // signal); listeners outside every ball provably fail receives(), so
  // skipping them cannot change any decision.
  //
  // SINR fast path: when the model is SINR, the receives() predicate is
  //   signal > β·(I(v) - signal + N)
  // with signal = pl.signal(distance(u, v)) — exactly the double a resident
  // gain cell holds — so the cell substitutes for both the predicate's
  // signal and the best-signal comparison without a virtual call, a metric
  // distance, or a pow. The inlined comparison is the same expression
  // receives() evaluates, so every decision is bit-identical.
  const std::size_t n = metric_->size();
  ws.best_signal_.assign(n, -1.0);
  const EuclideanMetric& euclid = *ws.cache_.euclidean();
  if (sinr_ != nullptr) {
    const double beta = sinr_->beta();
    const double noise = sinr_->noise();
    for (NodeId u : view.transmitters) {
      grid.for_each_within(
          euclid.position(u), decode_radius * kGridInflation, [&](NodeId v) {
            if (!alive[v.value] || ws.is_tx_[v.value]) return;
            const double* g =
                gains != nullptr ? gains->cell(u, v.value) : nullptr;
            const double s =
                g != nullptr ? *g : pl.signal(metric_->distance(u, v));
            const double others = view.interference[v.value] - s;
            if (!(s > beta * (others + noise))) return;
            if (s > ws.best_signal_[v.value]) {
              ws.best_signal_[v.value] = s;
              ws.outcome_.decoded_from[v.value] = u;
            }
          });
    }
    return;
  }
  for (NodeId u : view.transmitters) {
    grid.for_each_within(
        euclid.position(u), decode_radius * kGridInflation, [&](NodeId v) {
          if (!alive[v.value] || ws.is_tx_[v.value]) return;
          if (!model_->receives(v, u, view)) return;
          const double* g =
              gains != nullptr ? gains->cell(u, v.value) : nullptr;
          const double s =
              g != nullptr ? *g : pl.signal(metric_->distance(u, v));
          if (s > ws.best_signal_[v.value]) {
            ws.best_signal_[v.value] = s;
            ws.outcome_.decoded_from[v.value] = u;
          }
        });
  }
}

void Channel::decode_gather(const SlotView& view, const PathLoss& pl,
                            const GainTable* gains,
                            std::span<const std::uint8_t> alive,
                            SlotWorkspace& ws) const {
  const std::size_t n = metric_->size();
  // Same SINR fast path as decode_scatter: inline the predicate, read the
  // signal from the gain table when resident (bit-identical either way).
  const bool sinr_fast = sinr_ != nullptr;
  const double beta = sinr_fast ? sinr_->beta() : 0.0;
  const double noise = sinr_fast ? sinr_->noise() : 0.0;
  auto body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      if (!alive[v] || ws.is_tx_[v]) continue;
      const NodeId receiver(static_cast<std::uint32_t>(v));
      NodeId best;
      double best_signal = -1;
      for (NodeId u : view.transmitters) {
        const double* g =
            gains != nullptr
                ? gains->cell(u, static_cast<std::uint32_t>(v))
                : nullptr;
        if (sinr_fast) {
          const double s =
              g != nullptr ? *g
                           : pl.signal(metric_->distance(u, receiver));
          const double others = view.interference[v] - s;
          if (!(s > beta * (others + noise))) continue;
          if (s > best_signal) {
            best_signal = s;
            best = u;
          }
        } else {
          if (!model_->receives(receiver, u, view)) continue;
          const double s =
              g != nullptr ? *g
                           : pl.signal(metric_->distance(u, receiver));
          if (s > best_signal) {
            best_signal = s;
            best = u;
          }
        }
      }
      ws.outcome_.decoded_from[v] = best;
    }
  };
  if (ws.pool_ != nullptr) {
    ws.pool_->run_chunks(0, n, body);
  } else {
    body(0, n);
  }
}

const SlotOutcome& Channel::resolve_into(
    std::span<const NodeId> transmitters,
    std::span<const std::uint8_t> alive, double power_scale,
    std::uint64_t topology_epoch, SlotWorkspace& ws) const {
  UDWN_EXPECT(alive.size() == metric_->size());
  UDWN_EXPECT(power_scale > 0);
  const std::size_t n = metric_->size();

  const PathLoss scaled(pathloss_->power() * power_scale, pathloss_->zeta(),
                        pathloss_->near_limit());
  const bool unscaled =
      power_scale == 1.0;  // udwn-lint: allow(float-eq): exact sentinel —
                           // callers pass literal 1.0 for "no power control"
  const PathLoss& pl = unscaled ? *pathloss_ : scaled;

  TopologyCache& cache = ws.cache_;
  cache.sync(*metric_, *pathloss_, comm_radius_, max_range_, alive,
             topology_epoch);
  TaskPool* pool = ws.pool_.get();

  SlotOutcome& out = ws.outcome_;
  if (out.transmitters.capacity() < n) out.transmitters.reserve(n);
  out.transmitters.assign(transmitters.begin(), transmitters.end());
  out.decoded_from.assign(n, NodeId{});
  out.mass_delivered.assign(n, 0);
  out.clear.assign(n, 0);

  ws.is_tx_.assign(n, 0);
  for (NodeId u : transmitters) {
    UDWN_EXPECT(u.value < n);
    UDWN_EXPECT(alive[u.value]);
    // Unique ids are part of the resolve_into contract (the pooled
    // mass-delivery/clear loop relies on it).
    UDWN_EXPECT(!ws.is_tx_[u.value]);
    ws.is_tx_[u.value] = 1;
  }

  // Interference: exact sum over all transmitter/listener pairs. With the
  // gain table, cell (u,v) is the cached pathloss.signal(distance(u,v))
  // double (diagonal stored as +0.0, added unconditionally — exact, since
  // every partial sum is non-negative); without it, the same expression is
  // evaluated in place. Either way each field element accumulates in
  // transmitter order, so the result is bit-identical to the serial
  // brute-force kernel regardless of chunk count, tile width or kernel
  // choice (chunks partition listeners, never the transmitter sum).
  GainTable* gains = cache.gains();
  bool field_done = false;
  bool decoded = false;
  const double decode_radius =
      unscaled ? decode_range_unscaled_ : model_->decode_range(pl);

  // Certified far-field approximation (far_field.h): aggregate transmitters
  // beyond the derived separation radius ρ per spatial cell, with relative
  // field error <= far_field_eps per listener. Euclidean metrics only; an
  // infeasible certificate (bad ε/cell/near-limit combination) or a layout
  // that defeats aggregation falls back to the exact kernels below. The
  // gain table is bypassed on this path — the whole point is never touching
  // O(n·|S|) pairs. With the SINR model, and every decode candidate of the
  // scatter's (inflated) ball inside the near cells, the near sweep also
  // settles decode from its own terms — the same sender decode_scatter
  // would pick (far_field.h, "Fused SINR decode"); otherwise decode reads
  // signals per pair below.
  if (ws.config_.far_field_eps > 0 && cache.euclidean() != nullptr) {
    if (const std::optional<FarFieldParams> params = far_field_params(
            ws.config_.far_field_eps,
            ws.config_.far_field_cell_factor * max_range_, pl)) {
      const bool fuse =
          sinr_ != nullptr &&
          far_field_covers_decode(*params, decode_radius * kGridInflation);
      const FarFieldDecode decode{
          .beta = fuse ? sinr_->beta() : 0.0,
          .noise = fuse ? sinr_->noise() : 0.0,
          .alive = alive,
          .transmitting = ws.is_tx_,
          .decoded_from = out.decoded_from};
      field_done = ws.far_field_.field_into(*cache.euclidean(), pl,
                                            transmitters, *params,
                                            out.interference, pool,
                                            fuse ? &decode : nullptr);
      decoded = field_done && fuse;
    }
  }

  // The gain-table path: plan the rows serially, then fill tiles and
  // accumulate columns fused per listener block chunk. The table holds
  // unscaled gains, so a power-scaled slot — like a table that is off or
  // over budget — evaluates the same sum in place.
  const bool rows = !field_done && unscaled && gains != nullptr &&
                    gains->plan_rows(transmitters);
  if (rows) {
    interference_field_planned(
        *gains, transmitters, ws.row_scratch_, out.interference, pool,
        {.obs = ws.config_.obs, .round = ws.obs_round_, .slot = ws.obs_slot_});
  } else if (!field_done) {
    interference_field_into(*metric_, pl, transmitters, out.interference,
                            pool);
  }

  const SlotView view{.metric = metric_,
                      .pathloss = &pl,
                      .transmitters = transmitters,
                      .transmitting = ws.is_tx_,
                      .interference = out.interference};

  const SpatialGrid* grid = cache.grid();
  const GainTable* decode_gains = rows ? gains : nullptr;
  // Decode-path counters are bumped on the (serial) caller thread; nothing
  // in the obs branch feeds back into any decision below.
  Obs* obs = ws.config_.obs;
  if (decoded) {
    if (obs != nullptr) obs->metrics().add(obs->ids().decode_far_slots, 1);
  } else if (grid != nullptr && std::isfinite(decode_radius)) {
    if (obs != nullptr)
      obs->metrics().add(obs->ids().decode_scatter_slots, 1);
    decode_scatter(view, pl, decode_gains, alive, *grid, decode_radius, ws);
  } else {
    if (obs != nullptr)
      obs->metrics().add(obs->ids().decode_gather_slots, 1);
    decode_gather(view, pl, decode_gains, alive, ws);
  }

  // Mass-delivery and clear-channel flags per transmitter. With enough
  // transmitters per thread the loop runs in pool chunks over the slot's
  // transmitter span, one chunk per thread: each chunk fills the stale
  // neighbour lists of its own transmitters through its own scratch (ids
  // are unique, and grid() is current since the call above, so a fill
  // writes only its own node's list) and writes only their flags. Each
  // flag depends on its transmitter alone, so the chunking changes no
  // bit. The clear test is ReceptionModel::clear_channel with the hoisted
  // SuccClear parameters (the same expression, no per-call pow): a guard
  // zone D(u, ρ_c·R) free of other transmitters, then the I_c cap.
  const SuccClearParams params = succ_clear_;
  const double guard = params.rho_c * max_range_;
  const std::size_t count = transmitters.size();
  const bool shard_flags =
      pool != nullptr &&
      count >= kMinFlagTxPerThread * static_cast<std::size_t>(pool->threads());
  const std::size_t chunk_len =
      shard_flags ? (count + ws.neighbor_scratch_.size() - 1) /
                        ws.neighbor_scratch_.size()
                  : std::max<std::size_t>(count, 1);
  auto flags_body = [&](std::size_t lo, std::size_t hi) {
    std::vector<NodeId>& scratch = ws.neighbor_scratch_[lo / chunk_len];
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId u = transmitters[i];
      bool all = true;
      for (NodeId v : cache.neighbors(u, scratch)) {
        if (out.decoded_from[v.value] != u) {
          all = false;
          break;
        }
      }
      out.mass_delivered[u.value] = static_cast<std::uint8_t>(all);

      bool clear = true;
      if (guard > 0 && grid == nullptr) {
        clear = model_->clear_channel(u, view, epsilon_);
      } else {
        if (guard > 0) {
          // Grid-pruned guard zone, then the exact predicate: any *other*
          // transmitter strictly inside D(u, ρ_c·R) spoils the channel.
          // Transmitters outside the (inflated) ball are provably outside
          // the guard zone.
          grid->for_each_within(
              cache.euclidean()->position(u),
              guard * kGridInflation, [&](NodeId w) {
                if (w == u || !ws.is_tx_[w.value]) return;
                if (metric_->distance(w, u) < guard) clear = false;
              });
        }
        if (clear && params.i_c < std::numeric_limits<double>::infinity() &&
            out.interference[u.value] > params.i_c)
          clear = false;
      }
      out.clear[u.value] = static_cast<std::uint8_t>(clear);
    }
  };
  if (shard_flags) {
    pool->run_chunks(0, count, flags_body, chunk_len);
  } else {
    flags_body(0, count);
  }

  return out;
}

}  // namespace udwn
