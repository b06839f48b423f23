// Shared vocabulary of the repository benchmark driver: options, the result
// record every workload fills, and small timing/statistics helpers.
//
// A workload reports two metric families. End-to-end metrics (printed by an
// untraced run) are what a user of the library or of udwnd waits for; the
// per-layer metrics (printed by a traced run) attribute that time to the
// library's modules from outside, through wrappers around its public entry
// points. See perfbench/README.md for the definitions.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory holding the perfbench binaries (udwnd is spawned from it).
  std::string bin_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  /// Operations attempted / failed (rounds, solves, requests, trials).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> check_failures;
  /// Exact simulated-statistics fingerprint (name, count).
  std::vector<std::pair<std::string, std::uint64_t>> fingerprint;
  /// Human-readable lines printed before the result (sample counts, checks).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// An end-to-end metric at the reference host speed (see SpeedProbe),
  /// with its raw value in the notes.
  void add_scaled(const std::string& name, double value, double raw,
                  const std::string& unit) {
    add(name, value, unit);
    char line[160];
    std::snprintf(line, sizeof line, "raw %s: %.9g %s", name.c_str(), raw,
                  unit.c_str());
    notes.push_back(line);
  }
  void check(bool ok, const std::string& what) {
    notes.push_back(std::string(ok ? "check ok: " : "CHECK FAILED: ") + what);
    if (!ok) check_failures.push_back(what);
  }
};

Result run_engine_workload(const Options& options);
Result run_svc_workload(const Options& options);
bool is_engine_workload(const std::string& name);

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(double ns) { return ns / 1e6; }

/// Linear-interpolation quantile (q in [0,1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Host-speed probe. The shared hosts this benchmark runs on change speed
/// by up to 1.6x over minutes, for every process alike, which would swamp
/// any change under test. A fixed kernel that is independent of the
/// library (integer hashing and dependent loads over a 256 KiB table) is
/// timed in batches between units of work, when no library thread runs,
/// and each duration measured between two batches is reported at the
/// reference speed: raw x kReferenceNs / (mean of the two batch medians).
/// Raw values are printed beside the result.
class SpeedProbe {
 public:
  /// Probe time on the host the bounds were tuned on.
  static constexpr double kReferenceNs = 1.7e6;

  /// Time `passes` probe passes; records and returns their median.
  double sample(int passes) {
    std::vector<double> batch;
    for (int k = 0; k < passes; ++k) batch.push_back(pass_ns());
    samples_.insert(samples_.end(), batch.begin(), batch.end());
    points_.push_back(median(batch));
    return points_.back();
  }
  /// Number of batches taken so far.
  [[nodiscard]] std::size_t batches() const { return points_.size(); }
  /// Factor mapping a duration measured between batch `i` and the next
  /// one to the reference speed.
  [[nodiscard]] double scale_after(std::size_t i) const {
    const double a = points_.at(i);
    const double b = i + 1 < points_.size() ? points_[i + 1] : a;
    return kReferenceNs / (0.5 * (a + b));
  }
  [[nodiscard]] double median_ns() const { return median(samples_); }
  [[nodiscard]] std::size_t count() const { return samples_.size(); }

 private:
  double pass_ns() {
    if (table_.empty()) {
      table_.resize(1 << 16);
      for (std::size_t i = 0; i < table_.size(); ++i)
        table_[i] = static_cast<std::uint32_t>((i * 2654435761u) & 0xffff);
    }
    const std::int64_t begin = now_ns();
    std::uint32_t x = 1;
    double acc = 0;
    for (int i = 0; i < 200000; ++i) {
      x = table_[(x ^ static_cast<std::uint32_t>(i)) & 0xffff] * 1664525u +
          1013904223u;
      acc += static_cast<double>(x & 0xff) * 1e-3;
    }
    const std::int64_t end = now_ns();
    sink_ = acc;
    return static_cast<double>(end - begin);
  }

  std::vector<std::uint32_t> table_;
  std::vector<double> samples_;
  std::vector<double> points_;  // per-batch medians
  volatile double sink_ = 0;
};

/// Peak resident set size of this process (or of waited-for children), MiB.
double peak_rss_mb(bool children);

}  // namespace perfbench
