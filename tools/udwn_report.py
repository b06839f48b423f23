"""Reporting layer of the repo's static checker, `udwn_analyze.py`.

Every rule, line regex or call-graph pass, produces `Finding` records that
go through `emit()`, so CI gets one machine-readable format (`--json`) and
one annotation style, and the fixture harness one payload to diff.

Conventions enforced here:

  * Suppressions. A finding is silenced by a comment on the same line:
        // udwn-lint: allow(<rule>): <reason>
    The reason is mandatory. A bare `allow(<rule>)` with no reason does NOT
    suppress; it is reported as a `bad-suppression` finding instead, so a
    typo can never silently disable a rule.

  * Baseline. `udwn_analyze.py` supports a committed JSON baseline for
    grandfathered findings (e.g. container growth on buffers whose capacity
    a warm-up run sizes). Baseline entries match on (rule, path, symbol,
    what) — never on line numbers, which drift. Each entry absorbs at most
    `count` findings (default 1), so a *new* allocation of an already
    grandfathered kind in the same function still fails the gate instead of
    being silently swallowed.

  * Exit codes. 0 = clean, 1 = unsuppressed findings, 2 = usage error.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
from pathlib import Path
from typing import Iterable

#: `udwn-lint: allow(rule): reason` — reason (non-space after the colon)
#: required; see module docstring.
SUPPRESS_WITH_REASON = re.compile(r"udwn-lint:\s*allow\(([a-z-]+)\):\s*\S")
#: Any allow() spelling at all, used to detect reason-less suppressions.
SUPPRESS_ANY = re.compile(r"udwn-lint:\s*allow\(([a-z-]+)\)(?!\s*:\s*\S)")


@dataclasses.dataclass
class Finding:
    """One rule violation at a source location.

    `symbol` names the enclosing function (qualified) or include target;
    `what` is the specific construct (e.g. `push_back`, `std::getenv`,
    an include path). Both feed baseline matching. `chain` is the hot
    call path root → ... → offender for hot-path-alloc findings.
    """

    path: str
    line: int
    rule: str
    message: str
    symbol: str = ""
    what: str = ""
    chain: tuple[str, ...] = ()

    def render(self) -> str:
        text = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        if self.chain:
            text += "\n    hot path: " + " -> ".join(self.chain)
        return text


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line breaks
    so reported line numbers stay accurate."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        elif c == "'" and out and (out[-1].isalnum() or out[-1] == "_"):
            # A ' directly after an identifier/number character is a C++14
            # digit separator (1'000'000, 0xFFFF'FFFF), not a char-literal
            # opener — entering the literal branch here would blank the rest
            # of the file on lines with an odd number of separators.
            # (Encoding-prefixed char literals like L'x' also land here and
            # are passed through as code; their one-char payload is inert to
            # every rule.)
            out.append(c)
            i += 1
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] not in (quote, "\n"):
                if text[i] == "\\" and i + 1 < n and text[i + 1] != "\n":
                    i += 1
                i += 1
            if i < n and text[i] == quote:
                i += 1
            # else: no closing quote on this line — a misparsed quote must
            # not blank past the line it started on; the newline is handled
            # by the outer loop.
        else:
            out.append(c)
            i += 1
    return "".join(out)


def parse_suppressions(
    raw_lines: list[str], path: str
) -> tuple[dict[int, set[str]], list[Finding]]:
    """Per-line suppressed rule sets, plus `bad-suppression` findings for
    every allow() that is missing its `: reason` text."""
    suppressed: dict[int, set[str]] = {}
    bad: list[Finding] = []
    for lineno, line in enumerate(raw_lines, 1):
        rules = set(SUPPRESS_WITH_REASON.findall(line))
        if rules:
            suppressed[lineno] = rules
        for rule in SUPPRESS_ANY.findall(line):
            bad.append(
                Finding(
                    path=path,
                    line=lineno,
                    rule="bad-suppression",
                    message=f"allow({rule}) without a reason: suppressions "
                    'must read `udwn-lint: allow(rule): reason` — the bare '
                    "form does not suppress anything",
                    what=rule,
                )
            )
    return suppressed, bad


# --- Baseline ---------------------------------------------------------------


def load_baseline(path: Path) -> list[dict]:
    """Read a baseline file: {"findings": [{rule, path, symbol, what,
    count?}...]}. `count` caps how many findings the entry absorbs
    (default 1)."""
    if not path.is_file():
        return []
    data = json.loads(path.read_text(encoding="utf-8"))
    entries = data.get("findings", [])
    for entry in entries:
        count = entry.get("count", 1)
        if not isinstance(count, int) or count < 1:
            raise SystemExit(
                f"{path}: baseline entry {json.dumps(entry, sort_keys=True)} "
                "has a non-positive/non-integer 'count'"
            )
        entry["count"] = count
    return entries


def baseline_entry(finding: Finding) -> dict:
    return {
        "rule": finding.rule,
        "path": finding.path,
        "symbol": finding.symbol,
        "what": finding.what,
    }


def scope_baseline(
    entries: list[dict], scopes: list[str] | None
) -> tuple[list[dict], list[dict]]:
    """Split baseline entries into (in_scope, out_of_scope) for a run over
    `scopes`: repo-relative paths, each a file or a directory ("." is the
    whole tree). None means a run over the default paths, which owns every
    entry. An entry is in scope when its path is, or lies under, a scope —
    whether or not the file still exists, so a stale entry for a deleted
    file is still reported by any run that covers its path."""
    if scopes is None or "." in scopes:
        return list(entries), []
    inside: list[dict] = []
    outside: list[dict] = []
    for entry in entries:
        path = entry.get("path", "")
        covered = any(path == s or path.startswith(s + "/") for s in scopes)
        (inside if covered else outside).append(entry)
    return inside, outside


def apply_baseline(
    findings: list[Finding], entries: list[dict]
) -> tuple[list[Finding], int, list[dict]]:
    """Split findings into (kept, baselined_count, stale_entries).

    Each entry absorbs at most entry["count"] matching findings; the
    excess stays in `kept`, so adding a new allocation of an already
    grandfathered kind still fails the gate. Entries that matched fewer
    findings than their count are returned as stale (with a `_matched`
    annotation) so the baseline shrinks as code improves.
    """
    remaining: list[Finding] = []
    matched = [0] * len(entries)
    baselined = 0
    for finding in findings:
        hit = False
        for k, entry in enumerate(entries):
            if (
                matched[k] < entry.get("count", 1)
                and entry.get("rule") == finding.rule
                and entry.get("path") == finding.path
                and entry.get("symbol", "") == finding.symbol
                and entry.get("what", "") == finding.what
            ):
                matched[k] += 1
                baselined += 1
                hit = True
                break
        if not hit:
            remaining.append(finding)
    stale = [
        {**entry, "_matched": matched[k]}
        for k, entry in enumerate(entries)
        if matched[k] < entry.get("count", 1)
    ]
    return remaining, baselined, stale


# --- Emission ---------------------------------------------------------------


def emit(
    tool: str,
    findings: Iterable[Finding],
    files_scanned: int,
    *,
    json_mode: bool = False,
    suppressed: int = 0,
    baselined: int = 0,
    notes: Iterable[str] = (),
) -> int:
    """Print findings and the summary; return the process exit code.

    Text mode prints one finding per line (plus hot-path chains) to stdout
    and a one-line summary to stderr; under GitHub Actions
    (GITHUB_ACTIONS=true) it additionally emits `::error` workflow commands
    so findings appear as inline PR annotations without any CI-side
    grepping. `--json` mode prints a single JSON object to stdout and
    nothing else there — stdout IS the machine interface, so workflow
    commands are never mixed in (consumers like the fixture harness
    `json.loads` the stream).
    """
    findings = list(findings)
    notes = list(notes)
    if json_mode:
        payload = {
            "tool": tool,
            "files": files_scanned,
            "clean": not findings,
            "suppressed": suppressed,
            "baselined": baselined,
            "notes": notes,
            "findings": [
                {
                    "path": f.path,
                    "line": f.line,
                    "rule": f.rule,
                    "message": f.message,
                    "symbol": f.symbol,
                    "what": f.what,
                    "chain": list(f.chain),
                }
                for f in findings
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        if os.environ.get("GITHUB_ACTIONS") == "true":
            for f in findings:
                # Workflow-command values must stay on one line.
                msg = f.message.replace("\n", " ")
                print(
                    f"::error file={f.path},line={f.line},"
                    f"title={tool}:{f.rule}::{msg}"
                )
    for note in notes:
        print(f"{tool}: {note}", file=sys.stderr)
    print(
        f"{tool}: {files_scanned} files, {len(findings)} finding(s), "
        f"{suppressed} suppressed, {baselined} baselined",
        file=sys.stderr,
    )
    return 1 if findings else 0
