// Tests for the certified far-field approximation (phy/far_field.h): the
// derived certificate must hold — |approx − exact| <= ε · exact per
// listener — over randomized instances, parameter sweeps, churn + mobility
// epochs, and every thread count; the approximate field itself must be
// self-deterministic (bitwise) across thread counts. Parameter derivation
// edge cases (infeasible ε, near-limit clamp, ζ < 1) must refuse with
// nullopt so the pipeline falls back to the exact kernels. A naive
// evaluation of the bit-exact definition in far_field.h pins every field
// value across awkward grid shapes, thread counts and workspace reuse, and
// the SINR decode settled inside the near sweep must equal a brute-force
// gather over the far field's own interference, and the mass-delivery and
// clear flags must equal their definitions over the slot's own outcome.
#include "phy/far_field.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "metric/euclidean.h"
#include "obs/obs.h"
#include "phy/channel.h"
#include "phy/interference.h"
#include "tests/helpers.h"

namespace udwn {
namespace {

std::vector<NodeId> sample_ids(std::size_t n, double p, Rng& rng) {
  std::vector<NodeId> txs;
  for (std::uint32_t v = 0; v < n; ++v)
    if (rng.chance(p)) txs.push_back(NodeId(v));
  return txs;
}

void expect_certified(const std::vector<double>& exact,
                      const std::vector<double>& approx, double eps,
                      const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(exact.size(), approx.size());
  for (std::size_t v = 0; v < exact.size(); ++v) {
    // ε is a relative bound; the tiny absolute slack only absorbs the
    // final-summation rounding of two different association orders.
    const double slack = eps * exact[v] + 1e-12 * (1.0 + exact[v]);
    EXPECT_LE(std::abs(approx[v] - exact[v]), slack)
        << "node " << v << " exact=" << exact[v] << " approx=" << approx[v];
  }
}

// The far field written straight from its bit-exact definition in
// far_field.h, with no tables, row passes or caching.
struct ReferenceField {
  std::vector<double> field;
  std::size_t ncx = 0;
  std::size_t ncy = 0;
  std::size_t far_terms = 0;        // aggregated (listener, tx cell) pairs
  std::size_t max_cell_tx = 0;      // most transmitters in one cell
  std::size_t shared_tx_cells = 0;  // transmitters sharing their cell with
                                    // another node
  std::size_t node_cells = 0;       // cells holding at least one node
};

ReferenceField reference_far_field(const EuclideanMetric& metric,
                                   const PathLoss& pl,
                                   const std::vector<NodeId>& txs,
                                   const FarFieldParams& params) {
  const auto pts = metric.positions();
  const double s = params.cell;
  double x0 = pts[0].x, x1 = pts[0].x, y0 = pts[0].y, y1 = pts[0].y;
  for (const Vec2 p : pts) {
    x0 = std::min(x0, p.x);
    x1 = std::max(x1, p.x);
    y0 = std::min(y0, p.y);
    y1 = std::max(y1, p.y);
  }
  ReferenceField ref;
  ref.ncx = static_cast<std::size_t>((x1 - x0) / s) + 1;
  ref.ncy = static_cast<std::size_t>((y1 - y0) / s) + 1;
  const auto cell_of = [&](Vec2 p) {
    const std::size_t cx =
        std::min(static_cast<std::size_t>((p.x - x0) / s), ref.ncx - 1);
    const std::size_t cy =
        std::min(static_cast<std::size_t>((p.y - y0) / s), ref.ncy - 1);
    return cx * ref.ncy + cy;
  };
  // Transmitters per cell key, ascending key, slot order within a cell.
  std::map<std::size_t, std::vector<NodeId>> tx_cells;
  for (const NodeId u : txs) tx_cells[cell_of(pts[u.value])].push_back(u);
  std::vector<std::size_t> nodes_per_cell(ref.ncx * ref.ncy, 0);
  for (const Vec2 p : pts) ++nodes_per_cell[cell_of(p)];
  for (const std::size_t count : nodes_per_cell) ref.node_cells += count > 0;
  for (const auto& [key, members] : tx_cells) {
    ref.max_cell_tx = std::max(ref.max_cell_tx, members.size());
    if (nodes_per_cell[key] > 1) ref.shared_tx_cells += members.size();
  }

  const auto d_cc = [&](std::size_t a, std::size_t b) {
    const auto diff = [](std::size_t p, std::size_t q) {
      return static_cast<double>(p > q ? p - q : q - p);
    };
    const double dx = diff(a / ref.ncy, b / ref.ncy) * s;
    const double dy = diff(a % ref.ncy, b % ref.ncy) * s;
    return std::sqrt(dx * dx + dy * dy);
  };
  ref.field.resize(pts.size());
  for (std::uint32_t v = 0; v < pts.size(); ++v) {
    const std::size_t c = cell_of(pts[v]);
    double acc = 0;
    for (const auto& [key, members] : tx_cells) {
      const double d = d_cc(c, key);
      if (d < params.rho) continue;
      acc += static_cast<double>(members.size()) * pl.signal(d);
      ++ref.far_terms;
    }
    for (const auto& [key, members] : tx_cells) {
      if (d_cc(c, key) >= params.rho) continue;
      for (const NodeId u : members)
        if (u.value != v) acc += pl.signal(metric.distance(u, NodeId(v)));
    }
    ref.field[v] = acc;
  }
  return ref;
}

// Points uniform in [0, width] × [0, height].
std::vector<Vec2> random_rect(std::size_t n, double width, double height,
                              std::uint64_t seed) {
  std::vector<Vec2> pts = test::random_points(n, 1.0, seed);
  for (Vec2& p : pts) p = {p.x * width, p.y * height};
  return pts;
}

// `per_cluster` points uniform in each of the unit squares whose lower-left
// corners are `corners`.
std::vector<Vec2> clusters(std::size_t per_cluster,
                           const std::vector<Vec2>& corners,
                           std::uint64_t seed) {
  std::vector<Vec2> pts;
  for (const Vec2 corner : corners) {
    for (const Vec2 p : random_rect(per_cluster, 1.0, 1.0, seed++))
      pts.push_back({corner.x + p.x, corner.y + p.y});
  }
  return pts;
}

void expect_bitwise(const std::vector<double>& want,
                    const std::vector<double>& got, const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t v = 0; v < want.size(); ++v)
    EXPECT_EQ(want[v], got[v]) << "node " << v;  // bitwise, not NEAR
}

TEST(FarFieldParams, DerivesCertificateFromEpsilon) {
  const PathLoss pl(1.0, 3.0, 1e-3);
  const double cell = 0.5;
  const auto params = far_field_params(0.2, cell, pl);
  ASSERT_TRUE(params.has_value());
  EXPECT_DOUBLE_EQ(params->eps, 0.2);
  EXPECT_DOUBLE_EQ(params->cell, cell);
  // β = (1+ε)^(1/ζ) − 1, ρ = δ/β with δ = cell·√2.
  const double beta = std::pow(1.2, 1.0 / 3.0) - 1.0;
  EXPECT_NEAR(params->rho, cell * std::sqrt(2.0) / beta, 1e-12);
  // The certificate only aggregates pairs strictly past the near-limit
  // clamp, so every aggregated term is on the pure power-law branch.
  EXPECT_GT(params->rho - cell * std::sqrt(2.0), pl.near_limit());
}

TEST(FarFieldParams, RefusesInfeasibleCombinations) {
  const PathLoss pl(1.0, 3.0, 1e-3);
  // ε so large that β >= 1: ρ <= δ, aggregation cannot clear the cell
  // diagonal.
  EXPECT_FALSE(far_field_params(10.0, 0.5, pl).has_value());
  // ζ < 1 breaks the convexity step of the low-side bound.
  EXPECT_FALSE(far_field_params(0.2, 0.5, PathLoss(1.0, 0.5, 1e-3)));
  // Degenerate knobs.
  EXPECT_FALSE(far_field_params(0.0, 0.5, pl).has_value());
  EXPECT_FALSE(far_field_params(0.2, 0.0, pl).has_value());
  // Near-limit so coarse that ρ − δ cannot clear it at this cell size.
  EXPECT_FALSE(far_field_params(0.5, 0.01, PathLoss(1.0, 3.0, 10.0)));
}

TEST(FarField, CertifiedOnRandomizedInstances) {
  FarFieldWorkspace workspace;
  std::vector<double> exact;
  std::vector<double> approx;
  int certified_runs = 0;
  for (const std::size_t n : {std::size_t{64}, std::size_t{300},
                              std::size_t{1000}}) {
    // Extent ~ √(n/8): constant density, growing diameter — the regime the
    // approximation exists for.
    const double extent = std::sqrt(static_cast<double>(n) / 8.0);
    EuclideanMetric metric(test::random_points(n, extent, 9000 + n));
    const PathLoss pl(1.0, 3.0, 1e-3);
    Rng rng(17 + n);
    for (const double eps : {0.05, 0.2, 0.5}) {
      // cell = 0.3: at ε = 0.5 the separation radius ρ ≈ 2.9 sits well
      // inside the larger extents, so the far aggregation genuinely fires
      // (smaller ε pushes ρ out and degenerates to the exact near sweep —
      // still a valid certification run).
      const auto params = far_field_params(eps, 0.3, pl);
      ASSERT_TRUE(params.has_value()) << "eps=" << eps;
      for (int trial = 0; trial < 3; ++trial) {
        const auto txs = sample_ids(n, 0.3, rng);
        interference_field_into(metric, pl, txs, exact, nullptr);
        if (!workspace.field_into(metric, pl, txs, *params, approx, nullptr))
          continue;  // layout defeated aggregation: exact fallback path
        ++certified_runs;
        expect_certified(exact, approx, eps, "randomized");
      }
    }
  }
  // The sweep must actually exercise the certificate, not fall back
  // everywhere.
  EXPECT_GE(certified_runs, 10);
}

TEST(FarField, BitwiseSelfDeterministicAcrossThreadCounts) {
  const std::size_t n = 500;
  const double extent = std::sqrt(n / 8.0);
  EuclideanMetric metric(test::random_points(n, extent, 9400));
  const PathLoss pl(2.0, 2.5, 1e-3);
  // ρ ≈ 2.3 at ζ = 2.5 — far smaller than the ~7.9 extent, so cross-cell
  // aggregation carries most of every listener's sum.
  const auto params = far_field_params(0.5, 0.3, pl);
  ASSERT_TRUE(params.has_value());
  Rng rng(5);
  const auto txs = sample_ids(n, 0.4, rng);

  FarFieldWorkspace serial_ws;
  std::vector<double> serial;
  ASSERT_TRUE(serial_ws.field_into(metric, pl, txs, *params, serial, nullptr));

  for (const int threads : {2, 3, 5}) {
    TaskPool pool(threads);
    FarFieldWorkspace pooled_ws;
    std::vector<double> pooled;
    ASSERT_TRUE(
        pooled_ws.field_into(metric, pl, txs, *params, pooled, &pool));
    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t v = 0; v < n; ++v)
      EXPECT_EQ(serial[v], pooled[v])  // bitwise, not NEAR
          << "threads=" << threads << " node " << v;
  }

  // Reusing one workspace (warm scratch capacity) must not change a bit.
  std::vector<double> repeat;
  ASSERT_TRUE(serial_ws.field_into(metric, pl, txs, *params, repeat, nullptr));
  for (std::size_t v = 0; v < n; ++v) EXPECT_EQ(serial[v], repeat[v]);
}

TEST(FarField, MatchesBitExactDefinition) {
  // ε = 2 at ζ = 3 puts ρ at ~3.2 cells, so even the small layouts below
  // aggregate most tx cells. Each layout stresses one part of the row-major
  // far pass or the near sweep.
  const double cell = 0.3;
  struct Layout {
    const char* name;
    std::vector<Vec2> points;
    double p;                                // transmit probability
    bool (*has_shape)(const ReferenceField&);  // the layout is what it says
  };
  const Layout layouts[] = {
      // ncy below the far pass's 8-wide unrolled body: every row runs only
      // the scalar tail.
      {"short rows", random_rect(600, 24.0, 1.5, 9801), 0.2,
       [](const ReferenceField& r) { return r.ncy < 8; }},
      // ncy above the unrolled width and not a multiple of it: body and
      // tail.
      {"ragged rows", random_rect(800, 12.0, 3.9, 9802), 0.2,
       [](const ReferenceField& r) { return r.ncy > 8 && r.ncy % 8 != 0; }},
      // A single grid column.
      {"one column", random_rect(300, 0.2, 30.0, 9803), 0.3,
       [](const ReferenceField& r) { return r.ncx == 1; }},
      // Several transmitters per cell.
      {"crowded cells", random_rect(1500, 6.0, 6.0, 9804), 0.5,
       [](const ReferenceField& r) { return r.max_cell_tx >= 3; }},
      // Cell-major sweep: many listeners share each cell's gather buffer.
      {"dense cells", random_rect(2400, 3.0, 3.0, 9805), 0.3,
       [](const ReferenceField& r) {
         return r.field.size() >= 8 * r.node_cells;
       }},
      // Cell-major sweep: runs of empty listener cells between the
      // clusters, so some work chunks (cut at equal listener counts) are
      // empty or span many empty cells, and a cell count that threads 3
      // and 5 do not divide.
      {"clusters", clusters(150, {{0, 0}, {0, 7.5}, {6.6, 0}, {6.6, 7.5}},
                            9806),
       0.3,
       [](const ReferenceField& r) {
         const std::size_t cells = r.ncx * r.ncy;
         return 2 * r.node_cells < cells && cells % 3 != 0 &&
                cells % 5 != 0;
       }},
  };
  for (const Layout& layout : layouts) {
    SCOPED_TRACE(layout.name);
    EuclideanMetric metric(layout.points);
    Rng rng(71);
    const auto txs = sample_ids(layout.points.size(), layout.p, rng);
    for (const double power : {1.0, 0.37}) {  // 0.37: a power-scaled slot
      const PathLoss pl(power, 3.0, 1e-3);
      const auto params = far_field_params(2.0, cell, pl);
      ASSERT_TRUE(params.has_value());
      const ReferenceField ref = reference_far_field(metric, pl, txs, *params);
      EXPECT_TRUE(layout.has_shape(ref))
          << "grid " << ref.ncx << " x " << ref.ncy << ", " << ref.node_cells
          << " cells with nodes";
      // Far aggregation engages, and some transmitter shares its cell with
      // other listeners (its own cell is near, its self term skipped).
      EXPECT_GT(ref.far_terms, 0u);
      EXPECT_GT(ref.shared_tx_cells, 0u);
      for (const int threads : {1, 2, 3, 5}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        TaskPool pool(threads);
        FarFieldWorkspace ws;
        std::vector<double> got;
        ASSERT_TRUE(ws.field_into(metric, pl, txs, *params, got,
                                  threads > 1 ? &pool : nullptr));
        expect_bitwise(ref.field, got, "vs definition");
      }
    }
  }
}

TEST(FarField, ReusedWorkspaceMatchesFreshOne) {
  // One workspace carries cached offset tables and a cached listener layout
  // from call to call; each change below alters one of their keys and must
  // give a fresh workspace's bits.
  const double cell = 0.3;
  EuclideanMetric metric(test::random_points(900, 9.0, 9810));
  Rng rng(73);
  FarFieldWorkspace reused;
  TaskPool pool(2);
  std::pair<std::size_t, std::size_t> shape;  // (ncx, ncy) of the last call
  const auto check = [&](const PathLoss& pl, const char* label) {
    SCOPED_TRACE(label);
    const auto params = far_field_params(2.0, cell, pl);
    ASSERT_TRUE(params.has_value());
    const auto txs = sample_ids(metric.size(), 0.25, rng);
    std::vector<double> warm;
    std::vector<double> fresh;
    ASSERT_TRUE(reused.field_into(metric, pl, txs, *params, warm, &pool));
    FarFieldWorkspace fresh_ws;
    ASSERT_TRUE(fresh_ws.field_into(metric, pl, txs, *params, fresh, &pool));
    expect_bitwise(fresh, warm, "reused vs fresh");
    const ReferenceField ref = reference_far_field(metric, pl, txs, *params);
    expect_bitwise(ref.field, warm, "reused vs definition");
    shape = {ref.ncx, ref.ncy};
  };
  const PathLoss pl(1.0, 3.0, 1e-3);
  check(pl, "first call");
  // Power scale change on the same layout.
  check(PathLoss(0.25, 3.0, 1e-3), "power scaled");
  check(pl, "power restored");
  // Moves inside the bounding box: same n, cell side and grid shape (so the
  // same offset tables), but the nodes' cells change and the layout must
  // be rebuilt.
  auto old_shape = shape;
  metric.set_position(NodeId(1), {4.5, 4.5});
  metric.set_position(NodeId(2), {0.7, 8.1});
  metric.set_position(NodeId(3), metric.position(NodeId(4)));
  check(pl, "nodes moved inside the box");
  EXPECT_EQ(shape, old_shape);
  // Another metric of the same size and version: a different layout.
  {
    EuclideanMetric other(test::random_points(900, 9.0, 9811));
    while (other.version() < metric.version())
      other.set_position(NodeId(0), other.position(NodeId(0)));
    ASSERT_EQ(other.version(), metric.version());
    const auto params = far_field_params(2.0, cell, pl);
    ASSERT_TRUE(params.has_value());
    const auto txs = sample_ids(other.size(), 0.25, rng);
    std::vector<double> warm;
    std::vector<double> fresh;
    ASSERT_TRUE(reused.field_into(other, pl, txs, *params, warm, &pool));
    FarFieldWorkspace fresh_ws;
    ASSERT_TRUE(fresh_ws.field_into(other, pl, txs, *params, fresh, &pool));
    expect_bitwise(fresh, warm, "other metric: reused vs fresh");
  }
  check(pl, "back to the first metric");
  // A move that widens the bounding box: new grid shape.
  old_shape = shape;
  metric.set_position(NodeId(0), {11.5, 4.0});
  check(pl, "grid shape changed");
  EXPECT_NE(shape, old_shape);
  // A different instance size.
  metric.add_point({3.0, 12.7});
  metric.add_point({-1.2, 0.4});
  check(pl, "instance grew");
}

TEST(FarField, PipelineFieldCertifiedUnderChurnAndMobility) {
  // Engine-facing path: resolve_into with far_field_eps > 0 approximates
  // only the interference field; certify it against resolve()'s exact
  // field every round while churn kills/revives nodes and mobility moves
  // them (epoch bumps re-derive the cell structure from scratch).
  const double eps = 0.4;
  constexpr std::size_t kNodes = 400;
  Scenario scenario(test::random_points(kNodes, 7.0, 9500),
                    test::default_config());
  const Channel& channel = scenario.channel();
  Network& network = scenario.network();
  EuclideanMetric& metric = *scenario.euclidean();
  // cell_factor 0.25 shrinks the aggregation cells so ρ lands inside the
  // 7×7 extent and the far path actually engages at this size.
  SlotWorkspace ws(SlotWorkspaceConfig{.far_field_eps = eps,
                                       .far_field_cell_factor = 0.25,
                                       .threads = 3});
  Rng rng(23);

  int certified_rounds = 0;
  for (int round = 0; round < 12; ++round) {
    // Churn: toggle a random node (never below 2 alive).
    const NodeId victim(static_cast<std::uint32_t>(rng.below(kNodes)));
    if (network.alive_count() > 2 || !network.alive(victim))
      network.set_alive(victim, !network.alive(victim));
    // Mobility: nudge a random node.
    const NodeId mover(static_cast<std::uint32_t>(rng.below(kNodes)));
    const Vec2 p = metric.position(mover);
    metric.set_position(
        mover, {p.x + rng.uniform(-0.1, 0.1), p.y + rng.uniform(-0.1, 0.1)});
    std::vector<NodeId> txs;
    for (std::uint32_t v = 0; v < network.size(); ++v)
      if (network.alive(NodeId(v)) && rng.chance(0.3))
        txs.push_back(NodeId(v));

    const SlotOutcome ref = channel.resolve(txs, network.alive_mask(), 1.0);
    const SlotOutcome& got = channel.resolve_into(
        txs, network.alive_mask(), 1.0, ws);
    ASSERT_EQ(ref.interference.size(), got.interference.size());
    bool any_diff = false;
    for (std::size_t v = 0; v < ref.interference.size(); ++v)
      any_diff |= got.interference[v] != ref.interference[v];
    if (any_diff) ++certified_rounds;  // approximation actually engaged
    expect_certified(ref.interference, got.interference, eps, "pipeline");
  }
  // At n = 120 with these knobs the approximate path must engage (if the
  // guard rejected every round this test would silently check nothing).
  EXPECT_GE(certified_rounds, 1);
}

TEST(FarField, PowerScaledSlotsStayCertified) {
  // The App. B power-control trick scales every transmitter uniformly; the
  // far-field path must certify against the equally scaled exact field.
  const double eps = 0.3;
  Scenario scenario(test::random_points(150, 4.5, 9600),
                    test::default_config());
  const Channel& channel = scenario.channel();
  const Network& network = scenario.network();
  SlotWorkspace ws(SlotWorkspaceConfig{.far_field_eps = eps,
                                       .far_field_cell_factor = 0.25});
  Rng rng(31);
  for (const double scale : {1.0, 0.3, 0.04}) {
    const auto txs = sample_ids(network.size(), 0.3, rng);
    const SlotOutcome ref = channel.resolve(txs, network.alive_mask(), scale);
    const SlotOutcome& got = channel.resolve_into(
        txs, network.alive_mask(), scale, ws);
    expect_certified(ref.interference, got.interference, eps, "scaled");
  }
}

// decoded_from by brute force over every transmitter, against the slot's
// own (far-field) interference: the strongest sender that passes the
// model's receives(), the first in slot order on equal signal.
std::vector<NodeId> gather_decode(const Channel& channel,
                                  const SlotOutcome& got,
                                  std::span<const std::uint8_t> alive,
                                  std::span<const std::uint8_t> transmitting,
                                  double scale) {
  const PathLoss& base = channel.pathloss();
  const PathLoss pl(base.power() * scale, base.zeta(), base.near_limit());
  const SlotView view{.metric = &channel.metric(),
                      .pathloss = &pl,
                      .transmitters = got.transmitters,
                      .transmitting = transmitting,
                      .interference = got.interference};
  std::vector<NodeId> decoded(alive.size());
  for (std::uint32_t v = 0; v < alive.size(); ++v) {
    if (!alive[v] || transmitting[v]) continue;
    double best = -1;
    for (const NodeId u : got.transmitters) {
      if (!channel.model().receives(NodeId(v), u, view)) continue;
      const double s = pl.signal(channel.metric().distance(u, NodeId(v)));
      if (s > best) {
        best = s;
        decoded[v] = u;
      }
    }
  }
  return decoded;
}

TEST(FarField, FusedDecodeMatchesBruteForceGather) {
  // With the SINR model the far-field near sweep settles decode itself
  // when every decode candidate sits in a near cell (decode radius + δ <
  // ρ); otherwise, and for other models, the grid scatter decodes. Either
  // way decoded_from must be the brute-force gather over the far field's
  // own interference.
  constexpr double kEps = 2.0;  // ρ ≈ 3.2 cell sides at ζ = 3
  // Cell side (as a multiple of R) at which decode radius R + δ reaches ρ:
  // ρ − δ = δ·(1/b − 1), b = (1 + ε)^(1/ζ) − 1, δ = cell·√2. The decode
  // radius is R up to rounding; the 1e-9 is the scatter's grid inflation.
  const double b = std::pow(1.0 + kEps, 1.0 / 3.0) - 1.0;
  const double edge = (1.0 + 1e-9) / (std::sqrt(2.0) * (1.0 / b - 1.0));
  struct Case {
    const char* name;
    ModelKind model;
    double beta;
    double cell_factor;
    bool fused;  // at full power
  };
  const Case cases[] = {
      {"beta 1, equidistant senders", ModelKind::Sinr, 1.0, 0.8, true},
      {"radius just inside rho - delta", ModelKind::Sinr, 1.5,
       edge * (1 + 1e-6), true},
      {"radius just outside: scatter fallback", ModelKind::Sinr, 1.5,
       edge * (1 - 1e-6), false},
      {"UDG: scatter fallback", ModelKind::Udg, 1.5, 0.8, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // A uniform 12 × 12 layout plus two hand-placed listeners with senders
    // at exactly equal distance (0.5 and 0.25, so the signals tie bit for
    // bit): a three-way tie at node n0 and a two-way tie at node n0 + 4.
    std::vector<Vec2> pts = test::random_points(600, 12.0, 9900);
    const auto n0 = static_cast<std::uint32_t>(pts.size());
    for (const Vec2 p : {Vec2{3.0, 3.0}, Vec2{2.5, 3.0}, Vec2{3.5, 3.0},
                         Vec2{3.0, 2.5}, Vec2{9.0, 9.0}, Vec2{9.0, 8.75},
                         Vec2{9.0, 9.25}})
      pts.push_back(p);
    ScenarioConfig config = test::config_for(c.model);
    config.sinr_beta = c.beta;
    Scenario scenario(pts, config);
    const Channel& channel = scenario.channel();
    Network& network = scenario.network();
    Rng rng(41);
    // Dead listeners, never transmitters.
    for (std::uint32_t v = 0; v < 600; v += 37)
      network.set_alive(NodeId(v), false);
    std::vector<NodeId> txs;
    for (const std::uint32_t u : {n0 + 2, n0 + 1, n0 + 3, n0 + 6, n0 + 5})
      txs.push_back(NodeId(u));
    // Random senders keep clear of the hand-placed listeners, so the tied
    // senders stay the strongest ones there.
    const auto clear_of_ties = [&](Vec2 p) {
      return distance(p, pts[n0]) > 0.6 && distance(p, pts[n0 + 4]) > 0.6;
    };
    for (std::uint32_t v = 0; v < 600; ++v)
      if (network.alive(NodeId(v)) && rng.chance(0.15) &&
          clear_of_ties(pts[v]))
        txs.push_back(NodeId(v));

    const auto params = far_field_params(
        kEps, c.cell_factor * scenario.model().max_range(),
        channel.pathloss());
    ASSERT_TRUE(params.has_value());
    EXPECT_EQ(far_field_covers_decode(
                  *params, scenario.model().decode_range(channel.pathloss()) *
                               (1 + 1e-9)),
              c.cell_factor > edge);

    for (const int threads : {1, 3}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      Obs obs;
      SlotWorkspace ws(SlotWorkspaceConfig{
          .far_field_eps = kEps,
          .far_field_cell_factor = c.cell_factor,
          .threads = threads,
          .obs = &obs});
      std::size_t decodes = 0;
      for (const bool full_power : {true, false}) {
        const double scale = full_power ? 1.0 : 0.3;  // 0.3: power-scaled
        SCOPED_TRACE("scale=" + std::to_string(scale));
        const std::uint64_t fused_before =
            obs.metrics().total(obs.ids().decode_far_slots);
        const SlotOutcome& got =
            channel.resolve_into(txs, network.alive_mask(), scale, ws);
        if (full_power) {
          EXPECT_EQ(obs.metrics().total(obs.ids().decode_far_slots) -
                        fused_before,
                    c.fused ? 1u : 0u);
          // The far-field path really ran: its field is not the exact one.
          const SlotOutcome exact =
              channel.resolve(txs, network.alive_mask(), scale);
          EXPECT_NE(exact.interference, got.interference);
        }
        const std::vector<NodeId> want = gather_decode(
            channel, got, network.alive_mask(), ws.transmitting(), scale);
        for (std::size_t v = 0; v < want.size(); ++v) {
          EXPECT_EQ(got.decoded_from[v], want[v]) << "node " << v;
          decodes += want[v].valid();
        }
        // The tied senders never decode: I >= 2s, so I − s >= s.
        if (c.model == ModelKind::Sinr) {
          EXPECT_FALSE(got.decoded_from[n0].valid());
          EXPECT_FALSE(got.decoded_from[n0 + 4].valid());
        }
      }
      EXPECT_GT(decodes, 100u);  // the comparison is not vacuous
    }
  }
}

TEST(FarField, MassDeliveryAndClearMatchBruteForce) {
  // On the far-field path resolve() is no reference (its field is exact),
  // so the mass-delivery and clear flags are checked against their
  // definitions over the slot's own outcome: mass_delivered[u] iff every
  // alive neighbour (Channel::neighbors) decoded u, and clear[u] iff
  // ReceptionModel::clear_channel holds over the far field's interference.
  // ~300 transmitters per slot put the flag loop on the pool at threads 4
  // (64 per thread); threads 1 runs it serially. SINR fuses decode into
  // the near sweep and has no guard zone; UDG decodes by scatter and
  // prunes its guard zone with the grid.
  constexpr double kEps = 2.0;
  for (const ModelKind kind : {ModelKind::Sinr, ModelKind::Udg}) {
    SCOPED_TRACE(test::model_name(kind));
    Scenario scenario(test::random_points(3000, 30.0, 9950),
                      test::config_for(kind));
    const Channel& channel = scenario.channel();
    Network& network = scenario.network();
    EuclideanMetric& metric = *scenario.euclidean();
    for (std::uint32_t v = 0; v < 3000; v += 29)
      network.set_alive(NodeId(v), false);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      SlotWorkspace ws(SlotWorkspaceConfig{.far_field_eps = kEps,
                                           .far_field_cell_factor = 0.8,
                                           .threads = threads});
      Rng rng(43);
      std::size_t mass[2] = {0, 0};
      std::size_t clear[2] = {0, 0};
      for (int trial = 0; trial < 4; ++trial) {
        // Moves between slots leave neighbour lists stale, so the flag
        // loop refills them (on the pool at threads 4).
        for (int m = 0; m < 40; ++m) {
          const NodeId mover(static_cast<std::uint32_t>(rng.below(3000)));
          const Vec2 p = metric.position(mover);
          metric.set_position(mover, {p.x + rng.uniform(-0.3, 0.3),
                                      p.y + rng.uniform(-0.3, 0.3)});
        }
        const auto txs = test::sample_transmitters(network, rng, 0.1);
        ASSERT_GE(txs.size(), 64u * 4);
        const double scale = trial % 2 == 0 ? 1.0 : 0.3;
        const SlotOutcome& got =
            channel.resolve_into(txs, network.alive_mask(), scale, ws);
        const PathLoss& base = channel.pathloss();
        const PathLoss pl(base.power() * scale, base.zeta(),
                          base.near_limit());
        // The far-field path really ran: its field is not the exact one.
        if (trial == 0) {
          EXPECT_NE(interference_field(channel.metric(), pl, txs),
                    got.interference);
        }
        const SlotView view{.metric = &channel.metric(),
                            .pathloss = &pl,
                            .transmitters = got.transmitters,
                            .transmitting = ws.transmitting(),
                            .interference = got.interference};
        for (const NodeId u : txs) {
          bool all = true;
          for (const NodeId v : channel.neighbors(u, network.alive_mask()))
            all = all && got.decoded_from[v.value] == u;
          const bool is_clear =
              channel.model().clear_channel(u, view, channel.epsilon());
          EXPECT_EQ(got.mass_delivered[u.value], all ? 1 : 0)
              << "node " << u.value;
          EXPECT_EQ(got.clear[u.value], is_clear ? 1 : 0)
              << "node " << u.value;
          ++mass[all];
          ++clear[is_clear];
        }
      }
      // Both values of both flags occur: the comparison is not vacuous.
      EXPECT_GT(mass[0], 0u);
      EXPECT_GT(mass[1], 0u);
      EXPECT_GT(clear[0], 0u);
      EXPECT_GT(clear[1], 0u);
    }
  }
}

TEST(FarField, ExactConfigurationIsUntouchedByDefault) {
  // far_field_eps = 0 (the default) must leave the pipeline bit-identical
  // to the reference — the approximation is strictly opt-in.
  Scenario scenario(test::random_points(80, 4.0, 9700),
                    test::default_config());
  const Channel& channel = scenario.channel();
  const Network& network = scenario.network();
  SlotWorkspace ws;
  EXPECT_EQ(ws.config().far_field_eps, 0.0);
  Rng rng(37);
  const auto txs = sample_ids(network.size(), 0.25, rng);
  const SlotOutcome ref = channel.resolve(txs, network.alive_mask(), 1.0);
  const SlotOutcome& got = channel.resolve_into(
      txs, network.alive_mask(), 1.0, ws);
  for (std::size_t v = 0; v < ref.interference.size(); ++v)
    EXPECT_EQ(ref.interference[v], got.interference[v]) << "node " << v;
}

}  // namespace
}  // namespace udwn
