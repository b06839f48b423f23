// The single blessed home for wall-clock timing.
//
// Simulation results must be pure functions of the seed; wall-clock time is
// observability-only (pool idle time, benchmark harnesses). To keep timing
// from leaking into simulation decisions, the static checker flags raw
// std::chrono and obs_now_ns calls (tools/udwn_analyze.py, rule
// `det-wall-clock`) outside src/obs/ and bench/ — instrumentation elsewhere
// must go through this header, which makes every timing call grep-able.
//
// Layers below obs never include this header: src/common's TaskPool takes
// the clock as an injected function pointer (TaskPool::NowNsFn), which the
// obs-aware caller points at obs_now_ns. That keeps the include DAG strict
// (udwn_obs depends on udwn_common, never the reverse — see DESIGN.md).
#pragma once

#include <chrono>
#include <cstdint>

namespace udwn {

/// Monotonic nanoseconds since an arbitrary epoch. Observability only —
/// never feed this into a simulation decision.
[[nodiscard]] inline std::uint64_t obs_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace udwn
