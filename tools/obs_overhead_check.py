#!/usr/bin/env python3
"""obs_overhead_check — gate the observability overhead on engine rounds.

Runs bench_micro on the BM_EngineRound / BM_EngineRoundObs pair at one
instance size and fails when the obs-enabled round is more than THRESHOLD
times the plain round. The obs-on path adds counter increments and ring
writes per slot; the contract (docs/OBSERVABILITY.md) is that this stays
within a few percent, so a regression here means an instrumentation site
grew a lock, an allocation, or landed in an inner loop.

Measurement discipline, tuned for noisy shared machines:

  * Within one pass, each benchmark runs REPETITIONS times with random
    interleaving, so slow drift (thermal, noisy neighbor) hits both sides
    alike instead of biasing whichever ran second.
  * The per-name MINIMUM real time is the compared statistic: the floor is
    the true cost, everything above it is interference.
  * On failure the pass is retried and minima are POOLED across passes —
    a load spike long enough to cover one whole pass (observed on
    single-CPU CI hosts) cannot fake a regression unless it covers every
    pass. Pooling lowers each per-name floor or leaves it, never raises
    it, but the obs/base ratio of two floors can move either way: a retry
    that lowers the base floor more than the obs floor raises the ratio
    (one run went 1.0704 -> 1.0793 -> 1.1920 over three passes). Retries
    shed interference that hit one side in one pass; nothing makes the
    pooled ratio approach the true one monotonically.

Usage:
  obs_overhead_check.py BENCH_BINARY [--arg N] [--threshold X]
                        [--repetitions K] [--retries K] [--save PATH]

  --arg N           instance size to compare (default 2048)
  --threshold X     max allowed obs/base ratio (default 1.05)
  --repetitions K   google-benchmark repetitions per name per pass (default 7)
  --retries K       extra passes pooled in before declaring failure
                    (default 2)
  --save PATH       also write the first pass's raw google-benchmark JSON

Exit codes: 0 ratio within threshold, 1 over threshold, 2 usage/run error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run_bench(binary: str, arg: int, repetitions: int, out_path: Path) -> None:
    cmd = [
        binary,
        f"--benchmark_filter=^BM_EngineRound(Obs)?/{arg}$",
        f"--benchmark_repetitions={repetitions}",
        "--benchmark_report_aggregates_only=false",
        "--benchmark_enable_random_interleaving=true",
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
    ]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if result.returncode != 0:
        sys.stderr.write(result.stdout.decode(errors="replace"))
        raise RuntimeError(f"benchmark run failed (exit {result.returncode})")


def min_real_time(report: dict, name: str) -> float:
    times = [
        b["real_time"]
        for b in report.get("benchmarks", [])
        if b.get("run_type") == "iteration" and b.get("name", "").startswith(name)
    ]
    if not times:
        raise RuntimeError(f"no iteration entries for {name!r} in benchmark output")
    return min(times)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="obs_overhead_check.py",
        description="Gate BM_EngineRoundObs overhead against BM_EngineRound.",
    )
    parser.add_argument("binary", help="path to the bench_micro executable")
    parser.add_argument("--arg", type=int, default=2048)
    parser.add_argument("--threshold", type=float, default=1.05)
    parser.add_argument("--repetitions", type=int, default=7)
    parser.add_argument("--retries", type=int, default=2)
    parser.add_argument("--save", type=Path, default=None)
    options = parser.parse_args(argv)

    base_name = f"BM_EngineRound/{options.arg}"
    obs_name = f"BM_EngineRoundObs/{options.arg}"
    best_base = float("inf")
    best_obs = float("inf")
    unit = "ns"
    for attempt in range(options.retries + 1):
        with tempfile.TemporaryDirectory(prefix="udwn_obs_overhead") as tmp:
            out_path = Path(tmp) / "bench.json"
            try:
                run_bench(
                    options.binary, options.arg, options.repetitions, out_path
                )
                report = json.loads(out_path.read_text())
                best_base = min(best_base, min_real_time(report, base_name))
                best_obs = min(best_obs, min_real_time(report, obs_name))
            except (OSError, RuntimeError, json.JSONDecodeError) as error:
                print(f"obs_overhead_check: {error}", file=sys.stderr)
                return 2
            if options.save is not None and attempt == 0:
                options.save.parent.mkdir(parents=True, exist_ok=True)
                options.save.write_text(out_path.read_text())

        ratio = best_obs / best_base
        unit = report["benchmarks"][0].get("time_unit", "ns")
        print(
            f"obs_overhead_check: {base_name} = {best_base:.1f} {unit}, "
            f"{obs_name} = {best_obs:.1f} {unit}, pooled ratio = {ratio:.4f} "
            f"(threshold {options.threshold:.2f}, pass {attempt + 1})"
        )
        if ratio <= options.threshold:
            print("obs_overhead_check: OK")
            return 0

    print("obs_overhead_check: FAIL — observability overhead over threshold")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
