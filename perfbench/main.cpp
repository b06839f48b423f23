// perfbench — the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--bin-dir DIR] [--revision REV]
//
// Runs one workload for S seconds of measurement, checks its outputs, and
// prints as the last stdout line one JSON object
//   {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Lines before it carry provenance, the simulated-statistics
// fingerprint, sample counts and the output checks. Exit status: 0 when every
// check passed, 1 when a check failed (the result still prints, with
// "correct": false), 2 on usage errors or an aborted run (no result line).
// Normally started through perfbench/run.py, which builds it first.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace perfbench {

double peak_rss_mb(bool children) {
  rusage usage{};
  if (getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage) != 0)
    return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

namespace {

// Fixed second seed for confirming a gain claim on inputs nobody tuned
// against (see perfbench/README.md, "Seeds").
constexpr std::uint64_t kHeldOutSeed = 20160725;

// The ISA features the host offers, in the format of the library's
// cpu_features_string(). Probed here so the benchmark does not depend on
// the SIMD dispatch header, which the roadmap plans to remove.
std::string cpu_features() {
  std::string features;
  const auto add = [&features](const char* name) {
    if (!features.empty()) features += ',';
    features += name;
  };
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("sse2")) add("sse2");
  if (__builtin_cpu_supports("avx")) add("avx");
  if (__builtin_cpu_supports("avx2")) add("avx2");
  if (__builtin_cpu_supports("fma")) add("fma");
  if (__builtin_cpu_supports("avx512f")) add("avx512f");
#endif
#if defined(__ARM_NEON)
  add("neon");
#endif
  if (features.empty()) features = "none";
  return features;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--bin-dir DIR] [--revision REV]\n"
               "workloads: lbcast-static-8k bcast-dynamic-8k far-field-64k "
               "svc-closed-loop\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string revision = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    std::uint64_t v = 0;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed" && parse_u64(value, v)) {
      options.seed = v;
      have_seed = true;
    } else if (arg == "--seconds" && parse_u64(value, v) && v >= 1 &&
               v <= 3600) {
      options.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (arg == "--trace" && parse_u64(value, v) && v <= 1) {
      options.trace = v == 1;
      have_trace = true;
    } else if (arg == "--bin-dir") {
      options.bin_dir = value;
    } else if (arg == "--revision") {
      revision = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage();
  const bool engine = is_engine_workload(options.workload);
  if (!engine && options.workload != "svc-closed-loop") return usage();
  if (options.bin_dir.empty()) options.bin_dir = ".";

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "provenance: {\"revision\": \"%s\", \"build_type\": \"%s\", "
      "\"nproc\": %ld, \"cpu_features\": \"%s\", \"seed\": %llu, "
      "\"held_out_seed\": %llu, \"threaded_numbers\": \"%s\"}\n",
      json_escape(revision).c_str(), PERFBENCH_BUILD_TYPE, nproc,
      json_escape(cpu_features()).c_str(),
      static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(kHeldOutSeed),
      nproc <= 1 ? "determinism-only" : "measured");
  std::fflush(stdout);

  Result result;
  try {
    result = engine ? run_engine_workload(options) : run_svc_workload(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: aborted: %s\n", error.what());
    return 2;
  }

  for (const std::string& line : result.notes)
    std::printf("%s\n", line.c_str());
  std::string fp;
  for (const auto& [name, count] : result.fingerprint)
    fp += (fp.empty() ? "" : ", ") + std::string("\"") + name +
          "\": " + std::to_string(count);
  std::printf("fingerprint: {%s}\n", fp.c_str());

  std::string metrics;
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.check_failures.push_back("non-finite metric " + m.name);
      continue;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = result.check_failures.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
