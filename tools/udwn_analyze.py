#!/usr/bin/env python3
"""udwn_analyze — the repo's one static checker for its invariants.

Two kinds of rules (see docs/TOOLING.md for the full rationale). Line rules
run on every requested file (default: src bench tools):

  rng-source         rand()/srand(), std::random_device or a <random> engine
                     outside src/common/rng.*: all randomness flows through
                     udwn::Rng, so a run is a pure function of its seed.

  raw-assert         assert() vanishes under NDEBUG and bypasses the contract
                     subsystem: use UDWN_EXPECT/UDWN_ENSURE (kept in release)
                     or UDWN_ASSERT (debug tier) from common/contract.h.

  float-eq           Floating-point ==/!= against a literal in src/phy or
                     src/metric: SINR and distance decisions use tolerances.

  det-unordered-iter Any iteration (range-for, begin()) over a container the
                     file declares as std::unordered_{map,set}: hash/address
                     order must not feed simulation results.

  det-ptr-key        std::map/std::set keyed by a pointer type: iteration
                     order is address order, which varies run to run.

  det-wall-clock     obs_now_ns()/std::chrono/<chrono>/clock_gettime/
                     gettimeofday outside src/obs and bench.

The other passes see src/ only: a per-function IR (boundaries, calls,
allocation sites) of every C++ source under src/, and its include lines.
bench/ and tools/ stay out, because their free functions (`run`, ...) would
join the name-resolved call graph and their getenv reads are theirs to make.

  hot-path-alloc     Compute the call graph reachable from functions marked
                     UDWN_HOT (common/contract.h) and flag every reachable
                     allocation: operator new, make_unique/make_shared,
                     malloc, growing container methods, std::function
                     construction, std::to_string, throw-by-value. This turns
                     the counting-allocator *test* into a static proof
                     obligation on the slot pipeline.

  layering           #include edges must follow the architecture DAG
                     (common -> obs/metric -> topo -> phy -> sensing ->
                     sim -> core -> baselines -> analysis); see DESIGN.md.

  env-hygiene        std::getenv only inside src/common/env.cpp (the strict
                     parser); everything else must take parsed config.

  metric-dirty       Mutators (set_/add_/remove_/update_/apply_) of a
                     QuasiMetric subclass in src/metric must report their
                     change (bump_version or a DirtyLog record).

Frontends: with the clang Python bindings installed (python3-clang +
libclang), function boundaries come from the AST via compile_commands.json
(--compdb). Without them, a built-in structural parser recovers the same
boundaries from brace matching; body analysis is shared either way, so the
gate runs — with a warning — on machines without clang dev packages.

Suppression: `// udwn-lint: allow(<rule>): reason` on the offending line.
Grandfathered findings live in tools/analyze_baseline.json and match on
(rule, path, symbol, what) — never line numbers. A run over named PATHs
owns only the baseline entries under them: it matches and reports stale
only those, and --write-baseline rewrites only those, keeping the rest.
Exit 0 = clean, 1 = unsuppressed findings, 2 = usage error.

Usage: udwn_analyze.py [--json] [--frontend auto|clang|fallback]
                       [--compdb DIR] [--baseline FILE|none]
                       [--write-baseline] [--src-root DIR] [PATH...]
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from udwn_report import (  # noqa: E402
    Finding,
    apply_baseline,
    baseline_entry,
    emit,
    load_baseline,
    parse_suppressions,
    scope_baseline,
    strip_comments_and_strings,
)

SOURCE_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}

# --- Architecture ------------------------------------------------------------

#: Allowed #include targets per src/ layer (besides itself). This is the
#: DAG in DESIGN.md: anything not listed is a layering violation.
LAYER_DEPS: dict[str, set[str]] = {
    "common": set(),
    "obs": {"common"},
    "metric": {"common"},
    "topo": {"common", "metric"},
    "phy": {"common", "metric", "obs"},
    "sensing": {"common", "metric", "phy"},
    "sim": {"common", "metric", "topo", "obs", "phy", "sensing"},
    "core": {"common", "metric", "topo", "obs", "phy", "sensing", "sim"},
    "baselines": {
        "common", "metric", "topo", "obs", "phy", "sensing", "sim", "core",
    },
    "analysis": {
        "common", "metric", "topo", "obs", "phy", "sensing", "sim", "core",
        "baselines",
    },
    # Scenario-service gateway (docs/SERVICE.md): the topmost layer — it
    # orchestrates full scenarios, so it may see everything below; nothing
    # below may reach back into it.
    "svc": {
        "common", "metric", "topo", "obs", "phy", "sensing", "sim", "core",
        "baselines", "analysis",
    },
}

ENV_HOME = "src/common/env.cpp"
#: Prefix-matched dirs where wall-clock reads are legitimate: the
#: observability layer (obs_now_ns lives in src/obs/clock.h) and the
#: benchmarks. Any other read, such as the svc uptime telemetry, carries an
#: inline allow with its reason.
CLOCK_HOMES = ("src/obs", "bench")
#: The blessed RNG implementation, the one home of rng-source.
RNG_HOME = re.compile(r"src/common/rng\.(h|cpp)$")
#: float-eq applies only where numerics decide physics.
FLOAT_EQ_DIRS = ("src/phy", "src/metric")
#: The PATHs checked when none are given.
DEFAULT_PATHS = ("src", "bench", "tools")

HOT_MACRO = "UDWN_HOT"

#: Virtual methods that cross into protocol/user code: the counting-allocator
#: test pins the no-protocol pipeline, so traversal stops at these (a
#: protocol that allocates is its own bug, not the engine's).
BOUNDARY_METHODS = {
    "on_slot", "on_start", "on_round_end", "transmit_probability",
    "payload", "obs_state", "step",
}

#: Container methods that may grow capacity (allocate) — reported with a
#: "reserve in warm-up" hint; unconditional allocations get a harder message.
GROWTH_METHODS = {
    "push_back", "emplace_back", "resize", "reserve", "insert", "emplace",
    "assign", "append", "push_front", "emplace_front",
}

ALLOC_RES: list[tuple[re.Pattern[str], str, bool]] = [
    (re.compile(r"(?<![\w.])new\b"), "operator new", False),
    (re.compile(r"\bstd::make_(unique|shared)\b"), "make_unique/make_shared", False),
    (re.compile(r"(?<![\w:])(malloc|calloc|realloc)\s*\("), "malloc", False),
    (re.compile(r"\bthrow\s+[A-Za-z_:]"), "throw-by-value", False),
    (re.compile(r"\bstd::function\s*<"), "std::function construction", False),
    (re.compile(r"\bstd::to_string\s*\("), "std::to_string", False),
    (
        re.compile(
            r"(?:\.|->)\s*(" + "|".join(sorted(GROWTH_METHODS)) + r")\s*\("
        ),
        "",  # what = the matched method name
        True,
    ),
]

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast", "assert",
    "defined", "decltype", "noexcept", "new", "delete", "throw", "alignas",
    "static_assert", "typeid", "operator",
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
GETENV_RE = re.compile(r"(?<![\w:])(?:std::)?getenv\s*\(")
WALL_CLOCK_RE = re.compile(
    r"\bobs_now_ns\s*\(|std::chrono\b|#\s*include\s*<chrono>"
    r"|\bclock_gettime\s*\(|\bgettimeofday\s*\("
)
PTR_KEY_RE = re.compile(
    r"std::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*"
)
RNG_RE = re.compile(
    r"(?<![\w:])(rand|srand)\s*\("
    r"|std::random_device|(?<!\w)random_device\b"
    r"|std::(mt19937(_64)?|minstd_rand0?|default_random_engine|ranlux\w+)"
)
RAW_ASSERT_RE = re.compile(
    r"(?<![\w.])assert\s*\(|#\s*include\s*<(cassert|assert\.h)>"
)
FLOAT_LITERAL = (
    r"(?:\d+\.\d*|\.\d+|\d+\.)(?:[eE][+-]?\d+)?[fF]?|\d+[eE][+-]?\d+[fF]?"
)
FLOAT_EQ_RE = re.compile(
    rf"(?:(?:{FLOAT_LITERAL})\s*[!=]=)|(?:[!=]=\s*(?:{FLOAT_LITERAL}))"
)
UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+)\s*[;{=(]"
)
RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*?:\s*([^)]+)\)")
BEGIN_ITER = re.compile(r"(\w+)\s*\.\s*(?:begin|cbegin|rbegin)\s*\(")

#: Line rules: (rule, pattern, applies to this repo-relative path, message);
#: `{hit}` in a message is the matched text.
LINE_RULES: list[tuple[str, re.Pattern[str], Callable[[str], bool], str]] = [
    (
        "rng-source",
        RNG_RE,
        lambda rel: not RNG_HOME.search(rel),
        "'{hit}' outside src/common/rng.*: all randomness must flow through "
        "udwn::Rng (seed determinism)",
    ),
    (
        "raw-assert",
        RAW_ASSERT_RE,
        lambda rel: True,
        "raw assert(): use UDWN_EXPECT/UDWN_ENSURE (kept in release) or "
        "UDWN_ASSERT (debug tier) from common/contract.h",
    ),
    (
        "float-eq",
        FLOAT_EQ_RE,
        lambda rel: rel.startswith(FLOAT_EQ_DIRS),
        "floating-point ==/!= in a physics path: compare with a tolerance, "
        "or suppress with a reason if the value is an exact sentinel",
    ),
    (
        "det-wall-clock",
        WALL_CLOCK_RE,
        lambda rel: not rel.startswith(CLOCK_HOMES),
        "wall-clock read ('{hit}') outside src/obs and bench: simulation "
        "output must be a pure function of the seed",
    ),
    (
        "det-ptr-key",
        PTR_KEY_RE,
        lambda rel: True,
        "ordered container keyed by pointer: iteration order is address "
        "order, which varies between runs — key by NodeId or another stable "
        "value",
    ),
]

UNIQUE_PTR_DECL = re.compile(
    r"std::unique_ptr\s*<\s*([A-Za-z_]\w*)\s*>\s+([A-Za-z_]\w*)"
)
TYPED_DECL = re.compile(
    r"(?:^|[\s(,])(?:const\s+)?([A-Z]\w*)\s*(?:<[^<>;]*>)?\s*[*&]?\s+"
    r"([a-z_]\w*)\s*(?:[;,)=\[]|$)"
)
CALL_RE = re.compile(
    r"(?:([A-Za-z_]\w*)\s*(?:\.|->)\s*)?([A-Za-z_]\w*)\s*\("
)
QUAL_CALL_RE = re.compile(r"([A-Za-z_]\w*)::([A-Za-z_]\w*)\s*\(")


# --- IR ----------------------------------------------------------------------


@dataclass
class FunctionInfo:
    """One function definition: identity, extent, and body facts."""

    qname: str          # Class::name for methods, bare name for free functions
    name: str           # unqualified name
    cls: str            # enclosing/nominated class, "" for free functions
    path: str           # repo-relative path
    line: int           # line of the opening brace's statement
    hot: bool           # UDWN_HOT on this definition
    noreturn: bool
    body: str = ""      # stripped body text (between the braces)
    body_line: int = 0  # line number where body starts
    calls: list[tuple[int, str, str]] = field(default_factory=list)
    #                   (line, receiver_class_or_var_hint, name)
    allocs: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class FileFacts:
    """Per-file textual facts shared by every pass and frontend."""

    rel: str
    raw_lines: list[str]
    code: str
    code_lines: list[str]
    suppressed: dict[int, set[str]]


# --- Fallback structural frontend -------------------------------------------


def remove_preprocessor(text: str) -> str:
    """Blank preprocessor lines (with continuations), preserving line count."""
    lines = text.split("\n")
    out: list[str] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.lstrip().startswith("#"):
            out.append("")
            while line.rstrip().endswith("\\") and i + 1 < len(lines):
                i += 1
                line = lines[i]
                out.append("")
        else:
            out.append(line)
        i += 1
    return "\n".join(out)


def match_brace(text: str, open_pos: int, line: int) -> tuple[int, int]:
    """Index and line of the `}` closing the `{` at open_pos."""
    depth = 0
    i = open_pos
    n = len(text)
    while i < n:
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i, line
        elif c == "\n":
            line += 1
        i += 1
    return n - 1, line


CLASS_HEAD = re.compile(r"^(?:template\s*<.*>\s*)?(?:class|struct|union)\b")
NAMESPACE_HEAD = re.compile(r"^(?:inline\s+)?namespace\b|^extern\s*$")


def classify(stmt: str) -> tuple[str, str]:
    """Classify the statement before a `{`: what kind of scope opens?

    Returns (kind, name); kind is one of namespace/class/function/skip/blob.
    `blob` means the brace group is part of a larger statement (a braced
    initializer, a ctor init-list argument) and should be skipped in place.
    """
    s = re.sub(r"\b(?:public|private|protected)\s*:", " ", stmt).strip()
    if not s:
        return "skip", ""
    if NAMESPACE_HEAD.match(s):
        idents = re.findall(r"[A-Za-z_]\w*", s)
        return "namespace", idents[-1] if idents[-1] != "namespace" else ""
    if s.startswith("enum"):
        return "skip", ""
    if CLASS_HEAD.match(s) and "=" not in s.split(":")[0]:
        tail = CLASS_HEAD.sub("", s).split(":")[0]
        idents = [
            t for t in re.findall(r"[A-Za-z_]\w*", tail)
            if t not in ("final", "alignas")
        ]
        return ("class", idents[0]) if idents else ("skip", "")
    if "operator" in s and "(" in s:
        return "function", "operator"
    if "(" in s:
        # `=` at paren depth 0 before any brace -> braced initializer.
        depth = 0
        for k, c in enumerate(s):
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == "=" and depth == 0:
                if k + 1 < len(s) and s[k + 1] == "=":
                    break  # comparison; can't be an initializer header
                return "blob", ""
        m = re.search(r"([A-Za-z_~]\w*)\s*\(", s)
        if m and m.group(1) not in CPP_KEYWORDS:
            return "function", m.group(1)
    return "blob", ""


def decl_name(stmt: str) -> tuple[str, str]:
    """(class_hint, name) for a `;`-terminated function declaration."""
    m = re.search(r"([A-Za-z_~]\w*(?:::[A-Za-z_~]\w*)*)\s*\(", stmt)
    if not m or m.group(1).split("::")[-1] in CPP_KEYWORDS:
        return "", ""
    parts = m.group(1).split("::")
    return (parts[-2] if len(parts) > 1 else ""), parts[-1]


def parse_functions_fallback(
    facts: FileFacts,
) -> tuple[list[FunctionInfo], set[str], set[str], dict[str, str]]:
    """Recover function boundaries structurally: returns (functions,
    hot_decl_qnames, noreturn_qnames, receiver type map)."""
    text = remove_preprocessor(facts.code)
    functions: list[FunctionInfo] = []
    hot_decls: set[str] = set()
    noreturn_decls: set[str] = set()
    types: dict[str, str] = {}
    ctx: list[tuple[str, str]] = []  # (kind, name)

    def enclosing_class() -> str:
        for kind, name in reversed(ctx):
            if kind == "class":
                return name
        return ""

    def qualify(stmt_cls: str, name: str) -> str:
        cls = stmt_cls or enclosing_class()
        return f"{cls}::{name}" if cls else name

    def handle_decl(stmt: str) -> None:
        for t, v in UNIQUE_PTR_DECL.findall(stmt):
            types[v] = t
        for t, v in TYPED_DECL.findall(stmt):
            types.setdefault(v, t)
        if "(" in stmt and (HOT_MACRO in stmt or "[[noreturn]]" in stmt):
            cls, name = decl_name(stmt)
            if name:
                if HOT_MACRO in stmt:
                    hot_decls.add(qualify(cls, name))
                if "[[noreturn]]" in stmt:
                    noreturn_decls.add(qualify(cls, name))

    buf: list[str] = []
    buf_line = 1
    buf_started = False
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            buf.append(" ")
            i += 1
            continue
        if c == ";":
            handle_decl("".join(buf).strip())
            buf, buf_started = [], False
            i += 1
            continue
        if c == "}":
            if ctx:
                ctx.pop()
            buf, buf_started = [], False
            i += 1
            continue
        if c != "{":
            if not buf_started and not c.isspace():
                buf_line = line
                buf_started = True
            buf.append(c)
            i += 1
            continue

        stmt = "".join(buf).strip()
        kind, name = classify(stmt)
        if kind == "namespace":
            ctx.append(("namespace", name))
            buf, buf_started = [], False
            i += 1
        elif kind == "class":
            ctx.append(("class", name))
            # A class head can also declare members after the body
            # (`struct X { ... } x;`) — rare here; ignored.
            buf, buf_started = [], False
            i += 1
        elif kind == "function":
            close, end_line = match_brace(text, i, line)
            cls, fname = decl_name(stmt)
            if fname:
                # Collect parameter receiver types from the signature too.
                handle_decl(stmt)
                functions.append(
                    FunctionInfo(
                        qname=qualify(cls, fname),
                        name=fname,
                        cls=cls or enclosing_class(),
                        path=facts.rel,
                        line=buf_line,
                        hot=HOT_MACRO in stmt,
                        noreturn="[[noreturn]]" in stmt,
                        body=text[i + 1 : close],
                        body_line=line,
                    )
                )
            i = close + 1
            line = end_line
            buf, buf_started = [], False
        elif kind == "skip":
            close, end_line = match_brace(text, i, line)
            i = close + 1
            line = end_line
            buf, buf_started = [], False
        else:  # blob: keep accumulating the surrounding statement
            close, end_line = match_brace(text, i, line)
            buf.append(" <blob> ")
            i = close + 1
            line = end_line
    return functions, hot_decls, noreturn_decls, types


# --- Optional clang frontend -------------------------------------------------


def parse_functions_clang(
    all_facts: dict[str, FileFacts], compdb_dir: Path, repo_root: Path
) -> list[FunctionInfo] | None:
    """Function boundaries from libclang, when the bindings are importable.

    Only boundaries (qname, extent) come from the AST; body facts are
    extracted by the same textual scans as the fallback, so both frontends
    feed one pass implementation. Returns None if clang is unusable.
    """
    try:
        import clang.cindex as ci  # type: ignore[import-not-found]
    except Exception:
        return None
    try:
        db = ci.CompilationDatabase.fromDirectory(str(compdb_dir))
        index = ci.Index.create()
    except Exception:
        return None

    fn_kinds = {
        ci.CursorKind.FUNCTION_DECL,
        ci.CursorKind.CXX_METHOD,
        ci.CursorKind.CONSTRUCTOR,
        ci.CursorKind.DESTRUCTOR,
        ci.CursorKind.FUNCTION_TEMPLATE,
    }
    scope_kinds = {
        ci.CursorKind.NAMESPACE,
        ci.CursorKind.CLASS_DECL,
        ci.CursorKind.STRUCT_DECL,
        ci.CursorKind.CLASS_TEMPLATE,
        ci.CursorKind.TRANSLATION_UNIT,
        ci.CursorKind.UNEXPOSED_DECL,
        ci.CursorKind.LINKAGE_SPEC,
    }
    functions: list[FunctionInfo] = []
    seen: set[tuple[str, int]] = set()

    def visit(cursor, rel_of) -> None:
        for child in cursor.get_children():
            if child.kind in fn_kinds and child.is_definition():
                rel = rel_of(child)
                if rel is None:
                    continue
                start = child.extent.start.line
                if (rel, start) in seen:
                    continue
                seen.add((rel, start))
                parent = child.semantic_parent
                cls = (
                    parent.spelling
                    if parent is not None
                    and parent.kind
                    in (
                        ci.CursorKind.CLASS_DECL,
                        ci.CursorKind.STRUCT_DECL,
                        ci.CursorKind.CLASS_TEMPLATE,
                    )
                    else ""
                )
                name = child.spelling
                hot = any(
                    a.kind == ci.CursorKind.ANNOTATE_ATTR
                    and a.spelling == "udwn_hot"
                    for a in child.get_children()
                )
                facts = all_facts[rel]
                lines = facts.code.split("\n")
                body = "\n".join(
                    lines[start - 1 : child.extent.end.line]
                )
                brace = body.find("{")
                if brace < 0:
                    continue
                functions.append(
                    FunctionInfo(
                        qname=f"{cls}::{name}" if cls else name,
                        name=name,
                        cls=cls,
                        path=rel,
                        line=start,
                        hot=hot,
                        noreturn=False,  # filled from textual decls
                        body=body[brace + 1 :].rsplit("}", 1)[0],
                        body_line=start + body[:brace].count("\n"),
                    )
                )
            elif child.kind in scope_kinds:
                visit(child, rel_of)

    parsed_any = False
    for rel, facts in all_facts.items():
        if not rel.endswith(".cpp") and not rel.endswith(".cc"):
            continue
        cmds = db.getCompileCommands(str(repo_root / rel))
        if not cmds:
            continue
        cmd = cmds[0]
        args = [a for a in cmd.arguments][1:]
        for flag in ("-c", "-o"):
            while flag in args:
                k = args.index(flag)
                del args[k : k + 2 if flag == "-o" else k + 1]
        try:
            tu = index.parse(str(repo_root / rel), args=args)
        except Exception:
            continue

        def rel_of(cursor):
            if cursor.location.file is None:
                return None
            try:
                r = str(
                    Path(cursor.location.file.name).resolve().relative_to(repo_root)
                )
            except ValueError:
                return None
            return r if r in all_facts else None

        visit(tu.cursor, rel_of)
        parsed_any = True
    return functions if parsed_any else None


def merge_frontends(
    clang_fns: list[FunctionInfo], fallback_fns: list[FunctionInfo]
) -> list[FunctionInfo]:
    """Clang boundaries win; fallback entries survive only where clang saw
    nothing (headers aren't TUs in the compdb).

    Deduplication is by *overlapping extent*, not exact start line:
    multi-line declarations (attributes, templates) shift the recorded
    start between frontends, and a surviving double entry would analyze
    the same body twice under two qnames, producing duplicate findings
    that dodge baseline matching.
    """

    def extent(fn: FunctionInfo) -> tuple[int, int]:
        end = fn.body_line + fn.body.count("\n")
        return fn.line, max(fn.line, end)

    clang_extents: dict[str, list[tuple[int, int]]] = {}
    for f in clang_fns:
        clang_extents.setdefault(f.path, []).append(extent(f))

    def clang_covers(fn: FunctionInfo) -> bool:
        lo, hi = extent(fn)
        return any(
            lo <= c_hi and c_lo <= hi
            for c_lo, c_hi in clang_extents.get(fn.path, ())
        )

    return clang_fns + [f for f in fallback_fns if not clang_covers(f)]


# --- Body analysis (shared by both frontends) --------------------------------


def analyze_bodies(
    functions: list[FunctionInfo], global_types: dict[str, str]
) -> None:
    """Fill calls/allocs for every function from its body text."""
    for fn in functions:
        local_types = dict(global_types)
        body_lines = fn.body.split("\n")
        for off, bline in enumerate(body_lines):
            for t, v in UNIQUE_PTR_DECL.findall(bline):
                local_types[v] = t
            for t, v in TYPED_DECL.findall(bline):
                local_types.setdefault(v, t)
        for off, bline in enumerate(body_lines):
            lineno = fn.body_line + off
            for m in QUAL_CALL_RE.finditer(bline):
                if m.group(2) not in CPP_KEYWORDS:
                    fn.calls.append((lineno, m.group(1), m.group(2)))
            for m in CALL_RE.finditer(bline):
                recv, name = m.group(1), m.group(2)
                if name in CPP_KEYWORDS or name in GROWTH_METHODS:
                    continue
                hint = local_types.get(recv, recv) if recv else ""
                fn.calls.append((lineno, hint, name))
            for pattern, what, is_growth in ALLOC_RES:
                for m in pattern.finditer(bline):
                    fn.allocs.append(
                        (lineno, m.group(1) if is_growth else what)
                    )


def build_call_graph(
    functions: list[FunctionInfo],
) -> tuple[dict[str, list[FunctionInfo]], dict[str, list[FunctionInfo]]]:
    by_qname: dict[str, list[FunctionInfo]] = {}
    by_name: dict[str, list[FunctionInfo]] = {}
    for fn in functions:
        by_qname.setdefault(fn.qname, []).append(fn)
        by_name.setdefault(fn.name, []).append(fn)
    return by_qname, by_name


def resolve_call(
    caller: FunctionInfo,
    hint: str,
    name: str,
    by_qname: dict[str, list[FunctionInfo]],
    by_name: dict[str, list[FunctionInfo]],
) -> list[FunctionInfo]:
    """Candidate definitions for a call site.

    Receiver hints narrow method fan-out: if the receiver's class is known
    and defines `name`, only that class's method is a candidate. Bare calls
    resolve to free functions plus the caller's own class. Unknown-receiver
    calls over-approximate to every class defining `name` — the price of a
    name-based graph; genuinely cold hits go to the baseline.
    """
    if hint:
        exact = by_qname.get(f"{hint}::{name}")
        if exact:
            return exact
        if hint[0].isupper():
            return []  # known class without that method: not ours
        return [f for f in by_name.get(name, []) if f.cls]
    return [
        f
        for f in by_name.get(name, [])
        if not f.cls or f.cls == caller.cls
    ]


def hot_path_pass(
    functions: list[FunctionInfo],
    hot_decls: set[str],
    noreturn_decls: set[str],
    all_facts: dict[str, FileFacts],
) -> list[Finding]:
    by_qname, by_name = build_call_graph(functions)
    roots = [f for f in functions if f.hot or f.qname in hot_decls]
    parent: dict[str, str | None] = {}
    queue: deque[FunctionInfo] = deque()
    for root in roots:
        if root.qname not in parent:
            parent[root.qname] = None
            queue.append(root)

    visited_defs: list[FunctionInfo] = []
    seen_defs: set[int] = set()
    while queue:
        fn = queue.popleft()
        if id(fn) in seen_defs:
            continue
        seen_defs.add(id(fn))
        visited_defs.append(fn)
        facts = all_facts.get(fn.path)
        for lineno, hint, name in fn.calls:
            if name in BOUNDARY_METHODS:
                continue
            if facts and "hot-path-alloc" in facts.suppressed.get(lineno, ()):
                continue  # suppressed call line also cuts traversal
            for callee in resolve_call(fn, hint, name, by_qname, by_name):
                if callee.noreturn or callee.qname in noreturn_decls:
                    continue
                if callee.qname not in parent:
                    parent[callee.qname] = fn.qname
                if id(callee) not in seen_defs:
                    queue.append(callee)

    def chain(qname: str) -> tuple[str, ...]:
        out = [qname]
        while parent.get(out[-1]) is not None:
            out.append(parent[out[-1]])  # type: ignore[arg-type]
        return tuple(reversed(out))

    findings: list[Finding] = []
    reported: set[tuple[str, int, str]] = set()
    for fn in visited_defs:
        if fn.noreturn or fn.qname in noreturn_decls:
            continue
        for lineno, what in fn.allocs:
            key = (fn.path, lineno, what)
            if key in reported:
                continue
            reported.add(key)
            growth = what in GROWTH_METHODS
            detail = (
                f"'{what}' may grow capacity on a hot path — size the "
                "buffer in warm-up (reserve/assign before steady state) or "
                "suppress with a reason"
                if growth
                else f"{what} on a hot path — the slot pipeline must not "
                "allocate in steady state"
            )
            findings.append(
                Finding(
                    path=fn.path,
                    line=lineno,
                    rule="hot-path-alloc",
                    message=detail,
                    symbol=fn.qname,
                    what=what,
                    chain=chain(fn.qname),
                )
            )
    return findings


# --- Per-file passes ---------------------------------------------------------


def layer_of(rel: str) -> str | None:
    parts = rel.split("/")
    if len(parts) >= 3 and parts[0] == "src" and parts[1] in LAYER_DEPS:
        return parts[1]
    return None


def layering_pass(facts: FileFacts) -> list[Finding]:
    layer = layer_of(facts.rel)
    if layer is None:
        return []
    findings = []
    for lineno, line in enumerate(facts.raw_lines, 1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        target = m.group(1).split("/")[0]
        if target not in LAYER_DEPS or target == layer:
            continue
        if target not in LAYER_DEPS[layer]:
            findings.append(
                Finding(
                    path=facts.rel,
                    line=lineno,
                    rule="layering",
                    message=f"src/{layer} must not include src/{target}: the "
                    "architecture DAG (DESIGN.md) only allows "
                    f"{{{', '.join(sorted(LAYER_DEPS[layer])) or 'nothing'}}}",
                    what=m.group(1),
                )
            )
    return findings


def env_pass(facts: FileFacts) -> list[Finding]:
    if facts.rel == ENV_HOME:
        return []
    findings = []
    for lineno, line in enumerate(facts.code_lines, 1):
        if GETENV_RE.search(line):
            findings.append(
                Finding(
                    path=facts.rel,
                    line=lineno,
                    rule="env-hygiene",
                    message="std::getenv outside src/common/env.cpp: "
                    "environment access goes through the strict parser "
                    "(udwn::env) so typos and bad values fail loudly",
                    what="getenv",
                )
            )
    return findings


def line_pass(facts: FileFacts) -> list[Finding]:
    """Every LINE_RULES rule whose scope covers this file, at most one
    finding per rule and line."""
    rules = [r for r in LINE_RULES if r[2](facts.rel)]
    findings = []
    for lineno, line in enumerate(facts.code_lines, 1):
        for rule, pattern, _, message in rules:
            m = pattern.search(line)
            if m:
                hit = m.group(0).strip().rstrip("(").rstrip()
                findings.append(
                    Finding(
                        path=facts.rel,
                        line=lineno,
                        rule=rule,
                        message=message.format(hit=hit),
                        what=hit,
                    )
                )
    return findings


def unordered_iter_pass(facts: FileFacts) -> list[Finding]:
    """Any range-for or begin() over a name this file declares unordered.

    Declarations are matched over the whole text, for multi-line ones, and
    line by line, since a whole-text match can run past a later one-line
    declaration. A loop that only reads is flagged too: prove it
    order-insensitive and suppress with a reason.
    """
    names = set(UNORDERED_DECL.findall(facts.code))
    for line in facts.code_lines:
        names.update(UNORDERED_DECL.findall(line))
    if not names:
        return []
    findings = []
    for lineno, line in enumerate(facts.code_lines, 1):
        hits = {m.group(1) for m in BEGIN_ITER.finditer(line)} & names
        for m in RANGE_FOR.finditer(line):
            hits |= set(re.findall(r"\w+", m.group(1))) & names
        if hits:
            hit = sorted(hits)[0]
            findings.append(
                Finding(
                    path=facts.rel,
                    line=lineno,
                    rule="det-unordered-iter",
                    message=f"iteration over unordered container '{hit}': "
                    "hash/address order must not feed simulation results — "
                    "sort the keys first, use an ordered container, or "
                    "suppress with a reason if the loop is order-insensitive",
                    what=hit,
                )
            )
    return findings


# --- Metric dirty-tracking pass ----------------------------------------------

#: Member-function name prefixes that, on a QuasiMetric subclass, signal a
#: mutator of the distance function.
METRIC_MUTATOR_RE = re.compile(r"^(set_|add_|remove_|update_|apply_)")
#: A class in src/metric deriving (however qualified) from QuasiMetric.
METRIC_BASE_RE = re.compile(
    r"class\s+(\w+)[^;{]*:[^;{]*\bQuasiMetric\b", re.DOTALL
)
#: Evidence the mutator reported its change: a bump_version overload
#: (coarse or per-node) or a direct DirtyLog record.
DIRTY_MARK_RE = re.compile(r"\bbump_version\b|\brecord_global\b|\brecord\s*\(")


def metric_dirty_pass(
    functions: list[FunctionInfo], all_facts: dict[str, FileFacts]
) -> list[Finding]:
    """Every mutator of a QuasiMetric subclass must report what changed.

    The invalidation stack hangs off QuasiMetric::version() and its
    DirtyLog (metric/dirty_log.h): a mutator that edits distances without
    calling a bump_version overload leaves BOTH the epoch and the delta
    caches silently stale — the exact failure mode quasi_metric.h warns
    about, now checked instead of trusted. Heuristic scope: member
    functions named set_*/add_*/remove_*/update_*/apply_* on classes that
    derive from QuasiMetric, anywhere under src/metric.
    """
    metric_classes: set[str] = set()
    for facts in all_facts.values():
        if facts.rel.startswith("src/metric/"):
            metric_classes.update(METRIC_BASE_RE.findall(facts.code))
    if not metric_classes:
        return []
    findings: list[Finding] = []
    for fn in functions:
        if not fn.path.startswith("src/metric/"):
            continue
        if fn.cls not in metric_classes:
            continue
        if not METRIC_MUTATOR_RE.match(fn.name):
            continue
        if DIRTY_MARK_RE.search(fn.body):
            continue
        findings.append(
            Finding(
                path=fn.path,
                line=fn.line,
                rule="metric-dirty",
                message=f"metric mutator '{fn.qname}' neither logs dirty "
                "nodes (bump_version(node)) nor bumps the coarse version "
                "(bump_version()) — every cache over this metric goes "
                "silently stale; see the contract in metric/dirty_log.h",
                symbol=fn.qname,
                what=fn.name,
            )
        )
    return findings


# --- Driver ------------------------------------------------------------------


def scope_of(argument: str, src_root: Path) -> str:
    """A PATH argument as a root-relative path ("." for the root itself);
    a path outside the root is kept as given and covers nothing."""
    p = src_root / argument if not Path(argument).is_absolute() else Path(argument)
    try:
        return p.resolve().relative_to(src_root).as_posix()
    except ValueError:
        return argument


def collect_files(arguments: list[str], src_root: Path) -> list[Path]:
    files: list[Path] = []
    for argument in arguments:
        p = src_root / argument if not Path(argument).is_absolute() else Path(argument)
        if p.is_dir():
            files.extend(
                f for f in sorted(p.rglob("*")) if f.suffix in SOURCE_SUFFIXES
            )
        elif p.suffix in SOURCE_SUFFIXES and p.exists():
            files.append(p)
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="udwn_analyze.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("paths", nargs="*", default=None)
    parser.add_argument("--json", action="store_true", dest="json_mode")
    parser.add_argument(
        "--frontend", choices=("auto", "clang", "fallback"), default="auto"
    )
    parser.add_argument("--compdb", default="build")
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON ('none' disables; default tools/analyze_baseline.json)",
    )
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument(
        "--src-root",
        default=None,
        help="treat DIR as the repo root (fixture trees); default: repo root",
    )
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent
    src_root = Path(args.src_root).resolve() if args.src_root else repo_root
    requested = args.paths or list(DEFAULT_PATHS)
    files = collect_files(requested, src_root)
    # Baseline scopes: the requested paths relative to the root; None (the
    # default paths) owns the whole baseline.
    scopes = (
        [scope_of(argument, src_root) for argument in args.paths]
        if args.paths
        else None
    )
    if not files:
        print("udwn_analyze: no C++ sources under the given paths", file=sys.stderr)
        return 2

    notes: list[str] = []

    def rel_of(f: Path) -> str:
        try:
            return str(f.resolve().relative_to(src_root))
        except ValueError:
            return str(f)

    # The IR is the whole src tree, even when a subset was requested (the
    # call graph needs every definition), and never bench/ or tools/.
    ir_files = collect_files(["src"], src_root)
    requested_rels = {rel_of(f) for f in files}
    all_facts: dict[str, FileFacts] = {}
    suppression_findings: list[Finding] = []
    for rel, f in sorted({rel_of(f): f for f in ir_files + files}.items()):
        raw = f.read_text(encoding="utf-8", errors="replace")
        raw_lines = raw.splitlines()
        suppressed, bad = parse_suppressions(raw_lines, rel)
        code = strip_comments_and_strings(raw)
        all_facts[rel] = FileFacts(
            rel=rel,
            raw_lines=raw_lines,
            code=code,
            code_lines=code.splitlines(),
            suppressed=suppressed,
        )
        suppression_findings.extend(bad)
    ir_facts = {rel: all_facts[rel] for rel in map(rel_of, ir_files)}

    # Frontend: function boundaries.
    functions: list[FunctionInfo] = []
    hot_decls: set[str] = set()
    noreturn_decls: set[str] = set()
    global_types: dict[str, str] = {}
    for facts in ir_facts.values():
        fns, hots, norets, types = parse_functions_fallback(facts)
        hot_decls |= hots
        noreturn_decls |= norets
        for k, v in types.items():
            global_types.setdefault(k, v)
        functions.extend(fns)

    if args.frontend in ("auto", "clang"):
        compdb_dir = (
            Path(args.compdb)
            if Path(args.compdb).is_absolute()
            else repo_root / args.compdb
        )
        clang_fns = None
        if compdb_dir.joinpath("compile_commands.json").is_file():
            clang_fns = parse_functions_clang(ir_facts, compdb_dir, repo_root)
        if clang_fns is not None:
            functions = merge_frontends(clang_fns, functions)
            for fn in functions:
                if fn.qname in noreturn_decls:
                    fn.noreturn = True
            notes.append("frontend: clang (libclang + compile_commands.json)")
        elif args.frontend == "clang":
            print(
                "udwn_analyze: --frontend clang requested but libclang / "
                "compile_commands.json unavailable",
                file=sys.stderr,
            )
            return 2
        else:
            notes.append(
                "frontend: built-in structural parser (libclang not "
                "importable — install python3-clang for AST boundaries)"
            )
    else:
        notes.append("frontend: built-in structural parser (forced)")

    analyze_bodies(functions, global_types)

    # Passes. The src-only passes run on the whole IR and their findings
    # are filtered to the requested paths; line rules run on each requested
    # file.
    raw_findings: list[Finding] = []
    raw_findings.extend(
        hot_path_pass(functions, hot_decls, noreturn_decls, ir_facts)
    )
    raw_findings.extend(metric_dirty_pass(functions, ir_facts))
    for facts in ir_facts.values():
        raw_findings.extend(layering_pass(facts))
        raw_findings.extend(env_pass(facts))
    raw_findings = [f for f in raw_findings if f.path in requested_rels]
    for rel in requested_rels:
        raw_findings.extend(line_pass(all_facts[rel]))
        raw_findings.extend(unordered_iter_pass(all_facts[rel]))
    raw_findings.extend(
        f for f in suppression_findings if f.path in requested_rels
    )

    # Suppressions.
    kept: list[Finding] = []
    suppressed_count = 0
    for finding in raw_findings:
        facts = all_facts.get(finding.path)
        rules = facts.suppressed.get(finding.line, set()) if facts else set()
        if finding.rule in rules:
            suppressed_count += 1
        else:
            kept.append(finding)

    kept.sort(key=lambda f: (f.path, f.line, f.rule))

    # Baseline.
    baselined = 0
    if args.baseline != "none":
        baseline_path = (
            Path(args.baseline)
            if args.baseline
            else repo_root / "tools" / "analyze_baseline.json"
        )
        # Only entries under the requested paths belong to this run: a
        # subset run neither reports the others stale nor drops them.
        in_scope, out_of_scope = scope_baseline(
            load_baseline(baseline_path), scopes
        )
        if args.write_baseline:
            entries: list[dict] = []
            index: dict[tuple[str, str, str, str], int] = {}
            for f in kept:
                key = (f.rule, f.path, f.symbol, f.what)
                if key in index:
                    entries[index[key]]["count"] += 1
                else:
                    index[key] = len(entries)
                    entries.append({**baseline_entry(f), "count": 1})
            # Stable by path: a full run's entries are already in path order.
            entries = sorted(entries + out_of_scope, key=lambda e: e["path"])
            previous = (
                json.loads(baseline_path.read_text(encoding="utf-8"))
                if baseline_path.is_file()
                else {}
            )
            payload = {
                "comment": previous.get(
                    "comment",
                    "Grandfathered findings; match on (rule, path, symbol, "
                    "what), each entry absorbing at most 'count' "
                    "occurrences. Shrink, never grow.",
                ),
                "findings": entries,
            }
            baseline_path.write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8"
            )
            print(
                f"udwn_analyze: wrote {len(entries)} entries "
                f"({len(kept)} findings) to {baseline_path}",
                file=sys.stderr,
            )
            return 0
        kept, baselined, stale = apply_baseline(kept, in_scope)
        for entry in stale:
            got = entry.pop("_matched", 0)
            want = entry.get("count", 1)
            notes.append(
                f"stale baseline entry ({got} of {want} grandfathered "
                "occurrence(s) still present — lower count or remove): "
                + json.dumps(entry, sort_keys=True)
            )

    return emit(
        "udwn_analyze",
        kept,
        len(requested_rels),
        json_mode=args.json_mode,
        suppressed=suppressed_count,
        baselined=baselined,
        notes=notes,
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
