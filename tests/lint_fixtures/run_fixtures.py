#!/usr/bin/env python3
"""Fixture harness for the repo's static checker, tools/udwn_analyze.py.

The fixture tree `analyze_tree/` mirrors a tiny repo (`src/<layer>/...`,
`bench/`, `tools/`), so the path-scoped rules (float-eq, det-wall-clock,
rng-source, layering, env-hygiene) and the src-only call graph see it
exactly as they see the real tree, via the analyzer's --src-root flag and
its default paths. Every fixture file declares its expected finding set on
the first line:

    // udwn-expect: rule-a rule-b      (these rules, at least once each,
                                        and no others)
    // udwn-expect: none               (must be perfectly clean)

The analyzer runs with the forced fallback frontend and no baseline. The
harness compares the *set* of rules per file — line numbers are the
fixtures' business, not the contract. Exit 0 = every fixture behaves.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TOOLS = HERE.parent.parent / "tools"

EXPECT_PREFIX = "// udwn-expect:"


def expected_rules(path: Path) -> set[str]:
    first = path.read_text(encoding="utf-8").splitlines()[0].strip()
    if not first.startswith(EXPECT_PREFIX):
        raise SystemExit(f"{path}: first line must be '{EXPECT_PREFIX} ...'")
    spec = first[len(EXPECT_PREFIX):].strip()
    return set() if spec == "none" else set(spec.split())


def run_tool(cmd: list[str]) -> dict:
    # Drop GITHUB_ACTIONS so the tools never emit `::error` workflow
    # commands for fixture files — the annotations would point at paths
    # that don't exist in the real repo.
    env = {k: v for k, v in os.environ.items() if k != "GITHUB_ACTIONS"}
    proc = subprocess.run(
        [sys.executable, *cmd], capture_output=True, text=True, env=env
    )
    if proc.returncode not in (0, 1):
        raise SystemExit(
            f"tool crashed (rc={proc.returncode}): {' '.join(cmd)}\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        raise SystemExit(f"non-JSON output from {' '.join(cmd)}:\n{proc.stdout}")


def check_tree(tree: Path, cmd: list[str]) -> int:
    payload = run_tool(cmd)
    found: dict[str, set[str]] = {}
    for finding in payload["findings"]:
        found.setdefault(finding["path"], set()).add(finding["rule"])

    failures = 0
    fixtures = sorted(tree.rglob("*.cc")) + sorted(tree.rglob("*.hpp"))
    for fixture in fixtures:
        rel = str(fixture.relative_to(tree))
        want = expected_rules(fixture)
        got = found.get(rel, set())
        if got != want:
            failures += 1
            print(
                f"FAIL {rel}: expected "
                f"{sorted(want) or ['none']}, got {sorted(got) or ['none']}"
            )
        else:
            print(f"ok   {rel}: {sorted(want) or ['none']}")
    if not fixtures:
        print(f"FAIL no fixture files under {tree}")
        failures += 1
    return failures


def unit_checks() -> int:
    """Direct checks on the shared report layer and the analyzer's
    frontend merge — behaviors the fixture trees can't reach (the clang
    frontend may be unavailable; baseline is disabled for fixtures)."""
    sys.path.insert(0, str(TOOLS))
    from udwn_analyze import FunctionInfo, merge_frontends
    from udwn_report import (
        Finding,
        apply_baseline,
        scope_baseline,
        strip_comments_and_strings,
    )

    failures = 0

    def check(ok: bool, what: str) -> None:
        nonlocal failures
        if ok:
            print(f"ok   [unit] {what}")
        else:
            failures += 1
            print(f"FAIL [unit] {what}")

    # C++14 digit separators are not char-literal openers; an odd number
    # of them must not blank the rest of the file.
    stripped = strip_comments_and_strings(
        "int big = 1'000'000'000;\nauto mask = 0xFFFF'FFFFu;\nmalloc(1);\n"
    )
    check("malloc" in stripped, "stripper: digit separators stay inert")
    # A stray quote must not blank past the line it opened on.
    stripped = strip_comments_and_strings("int a = b; ' stray\nnew int;\n")
    check("new int" in stripped, "stripper: unterminated quote is line-bounded")
    check(
        "secret" not in strip_comments_and_strings('f("secret"); g(\'x\');'),
        "stripper: string/char literals still blanked",
    )

    # Baseline entries absorb at most `count` findings; the excess fails.
    find = lambda: Finding(
        path="src/a.cpp", line=1, rule="hot-path-alloc",
        message="m", symbol="F::g", what="push_back",
    )
    entry = {"rule": "hot-path-alloc", "path": "src/a.cpp",
             "symbol": "F::g", "what": "push_back", "count": 2}
    kept, baselined, stale = apply_baseline([find(), find(), find()], [entry])
    check(
        len(kept) == 1 and baselined == 2 and not stale,
        "baseline: count caps absorption, excess finding kept",
    )
    kept, baselined, stale = apply_baseline([find()], [dict(entry)])
    check(
        not kept and baselined == 1 and stale and stale[0]["_matched"] == 1,
        "baseline: under-matched entry reported stale",
    )

    # Baseline scope: a run over some paths owns only the entries under
    # them, deleted files included; the default run (None) owns them all.
    entries = [{"path": p} for p in ("src/a.cpp", "src/phy/b.cpp", "bench/c.cpp")]
    inside, outside = scope_baseline(entries, ["src/phy"])
    check(
        [e["path"] for e in inside] == ["src/phy/b.cpp"]
        and [e["path"] for e in outside] == ["src/a.cpp", "bench/c.cpp"],
        "baseline scope: entries under a requested directory only",
    )
    inside, outside = scope_baseline(entries, ["src/a.cpp", "src/ph"])
    check(
        [e["path"] for e in inside] == ["src/a.cpp"],
        "baseline scope: a file scope matches itself, not a name prefix",
    )
    inside, outside = scope_baseline(entries, None)
    check(len(inside) == 3 and not outside, "baseline scope: default run owns all")
    subset_baseline_checks(check)

    # Frontend merge: a fallback entry whose extent overlaps a clang entry
    # (start line shifted by a multi-line declaration) is dropped; a
    # header-only fallback entry survives.
    mk = lambda path, line, body_line, body: FunctionInfo(
        qname="F::g", name="g", cls="F", path=path, line=line,
        hot=False, noreturn=False, body=body, body_line=body_line,
    )
    merged = merge_frontends(
        [mk("src/a.cpp", 10, 12, "x;\ny;\nz;")],
        [mk("src/a.cpp", 12, 12, "x;\ny;\nz;"),   # shifted start, same body
         mk("src/h.hpp", 3, 3, "w;")],            # header: clang never saw it
    )
    check(
        len(merged) == 2 and {f.path for f in merged} == {"src/a.cpp", "src/h.hpp"},
        "merge: overlapping fallback entry deduplicated, header kept",
    )
    return failures


def subset_baseline_checks(check) -> None:
    """The analyzer end to end on a throwaway tree with two float-eq files
    and a baseline naming both plus a deleted file: a run over one file
    neither reports nor rewrites the other entries, while the default run
    still reports the deleted file's entry stale."""
    body = "namespace udwn {{\ninline bool {0}(double x) {{ return x == 1.0; }}\n}}\n"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "src/phy").mkdir(parents=True)
        (root / "src/phy/a.cc").write_text(body.format("a"), encoding="utf-8")
        (root / "src/phy/b.cc").write_text(body.format("b"), encoding="utf-8")
        analyze = [str(TOOLS / "udwn_analyze.py"), "--json", "--frontend",
                   "fallback", "--src-root", tmp]
        found = run_tool(analyze + ["--baseline", "none"])["findings"]
        keys = ("rule", "path", "symbol", "what")
        entries = [{**{k: f[k] for k in keys}, "count": 1} for f in found]
        entries.append({**entries[0], "path": "src/phy/gone.cc"})
        base = root / "baseline.json"
        base.write_text(json.dumps({"comment": "kept", "findings": entries}),
                        encoding="utf-8")
        cmd = analyze + ["--baseline", str(base)]

        subset = run_tool(cmd + ["src/phy/a.cc"])
        check(
            not subset["findings"]
            and not any("stale" in n for n in subset.get("notes", [])),
            "analyzer subset run: other paths' entries not reported stale",
        )
        full = run_tool(cmd)
        check(
            not full["findings"]
            and [n for n in full.get("notes", []) if "stale" in n]
            and all("gone.cc" in n for n in full["notes"] if "stale" in n),
            "analyzer default run: deleted file's entry still reported stale",
        )
        subprocess.run([sys.executable, *cmd, "--write-baseline", "src/phy/a.cc"],
                       capture_output=True, check=True)
        written = json.loads(base.read_text(encoding="utf-8"))
        check(
            sorted(e["path"] for e in written["findings"])
            == ["src/phy/a.cc", "src/phy/b.cc", "src/phy/gone.cc"]
            and written["comment"] == "kept",
            "analyzer --write-baseline on a subset keeps other paths' entries",
        )


def main() -> int:
    tree = HERE / "analyze_tree"
    failures = unit_checks()
    failures += check_tree(
        tree,
        [
            str(TOOLS / "udwn_analyze.py"),
            "--json",
            "--frontend", "fallback",
            "--baseline", "none",
            "--src-root", str(tree),
        ],
    )
    if failures:
        print(f"lint_fixtures: {failures} fixture(s) FAILED", file=sys.stderr)
        return 1
    print("lint_fixtures: all fixtures behave", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
