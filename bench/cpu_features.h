// Benchmark provenance: the ISA features the executing host reports, for
// the `cpu_features` key of the experiment JSON documents and the
// google-benchmark context of bench_bignode. Observation only — no kernel
// dispatches on it.
#pragma once

#include <string>

namespace udwn::bench {

/// Comma-separated list of the ISA features this host reports (e.g.
/// "sse2,avx,avx2,fma"); "none" when nothing is probed. Stable across calls.
inline std::string cpu_features_string() {
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
#if defined(__aarch64__)
  add("neon");
#endif
  if (features.empty()) features = "none";
  return features;
}

}  // namespace udwn::bench
