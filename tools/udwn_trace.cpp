// udwn_trace — inspector for UDWNTRC1 binary traces (see obs/trace.h and
// docs/OBSERVABILITY.md).
//
// Default report: trace summary, a per-round timeline (transmissions,
// deliveries, collisions, mass-deliveries; bucketed when the run is long;
// with the decision hash after each row's last round when the trace
// carries kRoundHash events), the top-k hottest counters, histograms, and
// a contention heatmap (round buckets x transmitter-count buckets).
//
//   udwn_trace <trace> [--top K] [--rows N]
//              [--export-jsonl PATH] [--export-chrome PATH]
//              [--verify-roundtrip]
//
// --verify-roundtrip exports to both text formats (temp files next to the
// trace unless explicit paths are given), re-imports/counts them, and exits
// nonzero unless the JSONL round-trip reproduces the events, counters,
// histograms, and dropped count exactly (chrome must preserve the event
// count) — CI runs this against a fresh exp02 trace.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/trace.h"

namespace {

using udwn::EventKind;
using udwn::Trace;
using udwn::TraceEvent;

struct RoundAgg {
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t mass = 0;
  std::uint64_t transitions = 0;
  std::uint32_t max_contention = 0;
  bool seen = false;
  // kRoundHash of the round, when a TraceHashRecorder rode the run.
  bool hashed = false;
  std::uint64_t decision_hash = 0;
};

struct Options {
  std::string trace_path;
  std::string jsonl_path;
  std::string chrome_path;
  std::size_t top_k = 10;
  std::size_t max_rows = 40;
  bool verify_roundtrip = false;
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--top") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.top_k = std::strtoull(v, nullptr, 10);
    } else if (arg == "--rows") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.max_rows = std::strtoull(v, nullptr, 10);
      if (opt.max_rows == 0) return false;
    } else if (arg == "--export-jsonl") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.jsonl_path = v;
    } else if (arg == "--export-chrome") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.chrome_path = v;
    } else if (arg == "--verify-roundtrip") {
      opt.verify_roundtrip = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    } else if (opt.trace_path.empty()) {
      opt.trace_path = arg;
    } else {
      return false;
    }
  }
  return !opt.trace_path.empty();
}

std::vector<RoundAgg> aggregate_rounds(const Trace& trace,
                                       std::uint32_t& max_round) {
  max_round = 0;
  for (const TraceEvent& ev : trace.events)
    max_round = std::max(max_round, ev.round);
  std::vector<RoundAgg> rounds(trace.events.empty() ? 0 : max_round + 1);
  for (const TraceEvent& ev : trace.events) {
    RoundAgg& agg = rounds[ev.round];
    agg.seen = true;
    switch (static_cast<EventKind>(ev.kind)) {
      case EventKind::kSlotEnd:
        agg.transmissions += ev.node;
        agg.deliveries += ev.aux;
        agg.collisions += ev.value >> 32;
        agg.mass += ev.value & 0xffffffffu;
        agg.max_contention = std::max(agg.max_contention, ev.node);
        break;
      case EventKind::kStateTransition:
        ++agg.transitions;
        break;
      case EventKind::kRoundHash:
        agg.hashed = true;
        agg.decision_hash = ev.value;
        break;
      default:
        break;  // deliveries/mass are already aggregated via kSlotEnd
    }
  }
  return rounds;
}

void print_timeline(const std::vector<RoundAgg>& rounds,
                    std::size_t max_rows) {
  if (rounds.empty()) {
    std::printf("\n(no slot events in trace)\n");
    return;
  }
  // Bucket rounds so long runs stay readable: each row covers `stride`
  // consecutive rounds and sums their aggregates.
  const std::size_t stride = (rounds.size() + max_rows - 1) / max_rows;
  // The decision hash column shows the hash after each row's last round.
  const bool hashed = std::any_of(rounds.begin(), rounds.end(),
                                  [](const RoundAgg& r) { return r.hashed; });
  std::printf("\nper-round timeline (%zu rounds, %zu per row):\n",
              rounds.size(), stride);
  std::printf("  %-14s %12s %12s %12s %8s %11s", "round", "tx",
              "deliveries", "collisions", "mass", "transitions");
  if (hashed) std::printf("  %20s", "decision hash");
  std::printf("\n");
  for (std::size_t lo = 0; lo < rounds.size(); lo += stride) {
    const std::size_t hi = std::min(rounds.size(), lo + stride);
    RoundAgg sum;
    for (std::size_t r = lo; r < hi; ++r) {
      sum.transmissions += rounds[r].transmissions;
      sum.deliveries += rounds[r].deliveries;
      sum.collisions += rounds[r].collisions;
      sum.mass += rounds[r].mass;
      sum.transitions += rounds[r].transitions;
    }
    char label[32];
    if (hi - lo == 1)
      std::snprintf(label, sizeof(label), "%zu", lo);
    else
      std::snprintf(label, sizeof(label), "%zu-%zu", lo, hi - 1);
    std::printf("  %-14s %12llu %12llu %12llu %8llu %11llu", label,
                static_cast<unsigned long long>(sum.transmissions),
                static_cast<unsigned long long>(sum.deliveries),
                static_cast<unsigned long long>(sum.collisions),
                static_cast<unsigned long long>(sum.mass),
                static_cast<unsigned long long>(sum.transitions));
    if (rounds[hi - 1].hashed)
      std::printf("  %20llu", static_cast<unsigned long long>(
                                  rounds[hi - 1].decision_hash));
    std::printf("\n");
  }
}

void print_top_counters(const Trace& trace, std::size_t top_k) {
  std::vector<std::pair<std::string, std::uint64_t>> sorted = trace.counters;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  std::printf("\ntop counters:\n");
  const std::size_t k = std::min(top_k, sorted.size());
  for (std::size_t i = 0; i < k; ++i)
    std::printf("  %-36s %16llu\n", sorted[i].first.c_str(),
                static_cast<unsigned long long>(sorted[i].second));
  if (sorted.size() > k)
    std::printf("  ... %zu more (raise --top)\n", sorted.size() - k);
}

void print_histograms(const Trace& trace) {
  if (trace.histograms.empty()) return;
  std::printf("\nhistograms (power-of-two buckets):\n");
  for (const auto& hist : trace.histograms) {
    const double mean =
        hist.count == 0 ? 0.0
                        : static_cast<double>(hist.sum) /
                              static_cast<double>(hist.count);
    std::printf("  %-32s count=%llu mean=%.2f\n", hist.name.c_str(),
                static_cast<unsigned long long>(hist.count), mean);
  }
}

void print_heatmap(const std::vector<RoundAgg>& rounds) {
  if (rounds.empty()) return;
  // Rows: up to 20 round buckets. Columns: per-slot max contention, in
  // power-of-two buckets (0, 1, 2-3, 4-7, ...). Density scales with how
  // many rounds of the bucket peaked in that contention class.
  constexpr std::size_t kRows = 20;
  constexpr std::size_t kCols = 12;  // 0 .. >=2^10
  const char* shades = " .:-=+*#%@";
  const std::size_t stride = (rounds.size() + kRows - 1) / kRows;
  std::printf("\ncontention heatmap (rows: rounds, cols: peak tx/slot "
              "0,1,2-3,4-7,...):\n");
  std::printf("  %-14s ", "round");
  for (std::size_t c = 0; c < kCols; ++c)
    std::printf("%c", c < 10 ? static_cast<char>('0' + c) : '+');
  std::printf("\n");
  for (std::size_t lo = 0; lo < rounds.size(); lo += stride) {
    const std::size_t hi = std::min(rounds.size(), lo + stride);
    std::array<std::size_t, kCols> cells{};
    for (std::size_t r = lo; r < hi; ++r) {
      const std::uint32_t peak = rounds[r].max_contention;
      std::size_t col = 0;
      while (col + 1 < kCols && (std::uint32_t{1} << col) <= peak) ++col;
      if (peak == 0) col = 0;
      ++cells[col];
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%zu-%zu", lo, hi - 1);
    std::printf("  %-14s ", label);
    for (std::size_t c = 0; c < kCols; ++c) {
      const double frac =
          static_cast<double>(cells[c]) / static_cast<double>(hi - lo);
      const auto shade = static_cast<std::size_t>(frac * 9.0);
      std::printf("%c", shades[std::min<std::size_t>(shade, 9)]);
    }
    std::printf("\n");
  }
}

void print_shard_spans(const Trace& trace) {
  // Worker-side shard spans (EventKind::kShardSpan, opt-in via
  // ObsConfig::worker_spans): node = first listener column of the shard,
  // aux = #blocks, value = wall time in ns on the executing pool thread.
  // Grouping by shard start shows how evenly the field sharding splits one
  // slot's work across workers.
  struct ShardAgg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    std::uint32_t blocks = 0;
  };
  std::vector<std::pair<std::uint32_t, ShardAgg>> shards;
  for (const TraceEvent& ev : trace.events) {
    if (static_cast<EventKind>(ev.kind) != EventKind::kShardSpan) continue;
    auto it = std::find_if(shards.begin(), shards.end(),
                           [&](const auto& s) { return s.first == ev.node; });
    if (it == shards.end()) {
      shards.emplace_back(ev.node, ShardAgg{});
      it = std::prev(shards.end());
    }
    ShardAgg& agg = it->second;
    ++agg.count;
    agg.total_ns += ev.value;
    agg.max_ns = std::max(agg.max_ns, ev.value);
    agg.blocks = ev.aux;
  }
  if (shards.empty()) return;
  std::sort(shards.begin(), shards.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::printf("\nshard spans (worker-side field sharding):\n");
  std::printf("  %-14s %8s %8s %12s %12s %12s\n", "first column", "blocks",
              "spans", "total us", "mean us", "max us");
  for (const auto& [first_col, agg] : shards) {
    const double mean_us =
        agg.count == 0
            ? 0.0
            : static_cast<double>(agg.total_ns) /
                  (1e3 * static_cast<double>(agg.count));
    std::printf("  %-14u %8u %8llu %12.1f %12.2f %12.2f\n", first_col,
                agg.blocks, static_cast<unsigned long long>(agg.count),
                static_cast<double>(agg.total_ns) / 1e3, mean_us,
                static_cast<double>(agg.max_ns) / 1e3);
  }
}

bool same_histograms(const Trace& a, const Trace& b) {
  if (a.histograms.size() != b.histograms.size()) return false;
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    const auto& x = a.histograms[i];
    const auto& y = b.histograms[i];
    if (x.name != y.name || x.count != y.count || x.sum != y.sum ||
        x.buckets != y.buckets)
      return false;
  }
  return true;
}

int verify_roundtrip(const Options& opt, const Trace& trace) {
  const std::string jsonl = opt.jsonl_path.empty()
                                ? opt.trace_path + ".jsonl"
                                : opt.jsonl_path;
  const std::string chrome = opt.chrome_path.empty()
                                 ? opt.trace_path + ".chrome.json"
                                 : opt.chrome_path;
  if (!udwn::export_jsonl(jsonl, trace)) {
    std::fprintf(stderr, "roundtrip: jsonl export failed: %s\n",
                 jsonl.c_str());
    return 1;
  }
  if (!udwn::export_chrome(chrome, trace)) {
    std::fprintf(stderr, "roundtrip: chrome export failed: %s\n",
                 chrome.c_str());
    return 1;
  }
  const auto reimported = udwn::import_jsonl(jsonl);
  if (!reimported.has_value()) {
    std::fprintf(stderr, "roundtrip: jsonl re-import failed\n");
    return 1;
  }
  if (reimported->events.size() != trace.events.size() ||
      reimported->events != trace.events) {
    std::fprintf(stderr,
                 "roundtrip: jsonl event mismatch (%zu vs %zu events)\n",
                 reimported->events.size(), trace.events.size());
    return 1;
  }
  // Metric aggregates must survive too — counter/histogram names can carry
  // arbitrary bytes, so this exercises the full JSON escape round-trip,
  // not just the numeric event records.
  if (reimported->counters != trace.counters) {
    std::fprintf(stderr,
                 "roundtrip: jsonl counter mismatch (%zu vs %zu counters)\n",
                 reimported->counters.size(), trace.counters.size());
    return 1;
  }
  if (!same_histograms(*reimported, trace)) {
    std::fprintf(stderr,
                 "roundtrip: jsonl histogram mismatch (%zu vs %zu "
                 "histograms)\n",
                 reimported->histograms.size(), trace.histograms.size());
    return 1;
  }
  if (reimported->dropped != trace.dropped) {
    std::fprintf(stderr,
                 "roundtrip: jsonl dropped-count mismatch (%llu vs %llu)\n",
                 static_cast<unsigned long long>(reimported->dropped),
                 static_cast<unsigned long long>(trace.dropped));
    return 1;
  }
  const auto chrome_count = udwn::count_chrome_events(chrome);
  if (!chrome_count.has_value() || *chrome_count != trace.events.size()) {
    std::fprintf(stderr,
                 "roundtrip: chrome event count mismatch (%llu vs %zu)\n",
                 static_cast<unsigned long long>(
                     chrome_count.value_or(0)),
                 trace.events.size());
    return 1;
  }
  std::printf("roundtrip OK: %zu events, %zu counters, %zu histograms in "
              "binary == jsonl (events == chrome)\n",
              trace.events.size(), trace.counters.size(),
              trace.histograms.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: udwn_trace <trace> [--top K] [--rows N]\n"
                 "                  [--export-jsonl PATH] "
                 "[--export-chrome PATH] [--verify-roundtrip]\n");
    return 2;
  }

  const auto trace = udwn::read_trace_file(opt.trace_path);
  if (!trace.has_value()) {
    std::fprintf(stderr, "failed to read trace: %s\n",
                 opt.trace_path.c_str());
    return 1;
  }

  std::printf("trace %s: %zu events, %zu counters, %zu histograms",
              opt.trace_path.c_str(), trace->events.size(),
              trace->counters.size(), trace->histograms.size());
  if (trace->dropped > 0)
    std::printf(" (%llu events dropped by ring overflow)",
                static_cast<unsigned long long>(trace->dropped));
  std::printf("\n");

  std::uint32_t max_round = 0;
  const std::vector<RoundAgg> rounds = aggregate_rounds(*trace, max_round);
  print_timeline(rounds, opt.max_rows);
  print_top_counters(*trace, opt.top_k);
  print_histograms(*trace);
  print_heatmap(rounds);
  print_shard_spans(*trace);

  int status = 0;
  if (opt.verify_roundtrip) {
    status = verify_roundtrip(opt, *trace);
  } else {
    if (!opt.jsonl_path.empty() &&
        !udwn::export_jsonl(opt.jsonl_path, *trace)) {
      std::fprintf(stderr, "jsonl export failed: %s\n",
                   opt.jsonl_path.c_str());
      status = 1;
    }
    if (!opt.chrome_path.empty() &&
        !udwn::export_chrome(opt.chrome_path, *trace)) {
      std::fprintf(stderr, "chrome export failed: %s\n",
                   opt.chrome_path.c_str());
      status = 1;
    }
  }
  return status;
}
