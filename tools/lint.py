#!/usr/bin/env python3
"""Repo-specific lint rules clang-tidy cannot express.

Rules (each can be suppressed per line with a trailing `NOLINT` or
`NOLINT(<rule>)` comment):

  include-guard    .h files use the canonical guard EMIGRE_<PATH>_H_
                   (path relative to the repo root, `src/` stripped).
  using-namespace  no `using namespace` at any scope inside headers.
  nodiscard        every Status/Result<T>-returning declaration in a
                   header carries [[nodiscard]], and the Status/Result
                   class definitions themselves are [[nodiscard]].
  naked-new        no `new` expressions in library/tool code; use
                   std::make_unique (intentional leaky singletons carry
                   a NOLINT marker).
  bench-metrics    every bench/bench_<name>.cc records its run with
                   WriteBenchMetrics("<name>") so BENCH_<name>.json
                   lands in the perf trajectory.
  fault-site       every EMIGRE_FAULT_POINT / EMIGRE_FAULT_POINT_STATUS
                   site name is unique across the repo, so a fault spec
                   or a fault.<site>.fired counter names exactly one
                   code location (docs/robustness.md).
  obs-name         every EMIGRE_COUNTER / EMIGRE_GAUGE / EMIGRE_HISTOGRAM /
                   EMIGRE_SPAN name literal matches [a-z0-9_./]+ and is
                   declared in exactly one file (repeats within a file are
                   fine — cached-handle call sites), so the perf gate's
                   flattened series and the trace tree each name one code
                   location (docs/observability.md).
  metric-catalog   every literal EMIGRE_COUNTER / EMIGRE_GAUGE /
                   EMIGRE_HISTOGRAM name in src/ has an entry in the
                   metric catalog table of docs/observability.md, and
                   every name in that table is registered by such a
                   literal in src/, so the documented catalog and the
                   registered metrics match in both directions.
  ondisk-assert    every struct named *OnDisk in src/ (the serialized
                   layouts of emigre.bin.v1 / emigre.csr.v1,
                   docs/data_format.md) is static_assert-ed on exact
                   sizeof and std::is_trivially_copyable_v in the same
                   file, so a refactor cannot silently change an on-disk
                   file format.
  guarded-by       inside any class/struct that owns a `std::mutex` or
                   `util::Mutex` member, every sibling data member carries
                   GUARDED_BY/PT_GUARDED_BY (or an explicit
                   NOLINT(guarded-by) justification) so Clang's
                   -Wthread-safety analysis covers it. Atomics and
                   synchronization primitives themselves are exempt
                   (docs/static_analysis.md). Keeps annotations from
                   silently rotting on GCC-only changes, where the macros
                   compile to nothing.

Usage:
  tools/lint.py [--root DIR] [paths...]   lint the repo (or just paths)
  tools/lint.py --self-test               verify each rule fires on a
                                          seeded violation

Exit status: 0 clean, 1 violations found, 2 internal error.
"""

import argparse
import os
import re
import sys
import tempfile

RULES = (
    "include-guard",
    "using-namespace",
    "nodiscard",
    "naked-new",
    "bench-metrics",
    "fault-site",
    "obs-name",
    "metric-catalog",
    "ondisk-assert",
    "guarded-by",
)

# Directories scanned when no explicit paths are given, relative to root.
DEFAULT_DIRS = ("src", "tools", "bench", "tests", "examples")

# naked-new is enforced for library and tool code; tests/examples may
# exercise raw pointers deliberately.
NAKED_NEW_DIRS = ("src", "tools", "bench")

NOLINT_RE = re.compile(r"NOLINT(?:\(([^)]*)\))?")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def is_suppressed(line, rule):
    m = NOLINT_RE.search(line)
    if not m:
        return False
    rules = m.group(1)
    return rules is None or rule in rules


def strip_comments_and_strings(text):
    """Replaces comment and string-literal contents with spaces, keeping
    line structure so reported line numbers stay valid."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append('"')
            else:
                out.append(" ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append("'")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def expected_guard(relpath):
    path = relpath
    if path.startswith("src/"):
        path = path[len("src/"):]
    stem = re.sub(r"[^A-Za-z0-9]", "_", path)
    return f"EMIGRE_{stem.upper()}_"


def check_include_guard(relpath, lines, violations):
    guard = expected_guard(relpath)
    ifndef_re = re.compile(r"^\s*#ifndef\s+(\S+)")
    for idx, line in enumerate(lines):
        m = ifndef_re.match(line)
        if not m:
            continue
        if is_suppressed(line, "include-guard"):
            return
        got = m.group(1)
        if got != guard:
            violations.append(Violation(
                relpath, idx + 1, "include-guard",
                f"include guard is {got}, expected {guard}"))
        elif idx + 1 >= len(lines) or not re.match(
                rf"^\s*#define\s+{re.escape(guard)}\s*$", lines[idx + 1]):
            violations.append(Violation(
                relpath, idx + 2, "include-guard",
                f"#define {guard} must directly follow the #ifndef"))
        return
    violations.append(Violation(
        relpath, 1, "include-guard",
        f"missing include guard (expected #ifndef {guard})"))


def check_using_namespace(relpath, stripped_lines, raw_lines, violations):
    pat = re.compile(r"^\s*using\s+namespace\b")
    for idx, line in enumerate(stripped_lines):
        if pat.match(line) and not is_suppressed(raw_lines[idx], "using-namespace"):
            violations.append(Violation(
                relpath, idx + 1, "using-namespace",
                "headers must not contain `using namespace`"))


# A declaration line whose return type is Status or Result<...>. Anchored at
# line start (after qualifiers) so parameters and comments don't match.
STATUS_DECL_RE = re.compile(
    r"^\s*(?:static\s+|virtual\s+|friend\s+|inline\s+|constexpr\s+)*"
    r"(?:::)?(?:\w+::)*"
    r"(Status|Result<[^;={}]*>)\s+"
    r"(~?\w+)\s*\(")

CLASS_DEF_RE = re.compile(r"^\s*(?:template\s*<[^>]*>\s*)?class\s+"
                          r"(?:\[\[nodiscard\]\]\s+)?(Status|Result)\b")


def check_nodiscard(relpath, stripped_lines, raw_lines, violations):
    for idx, line in enumerate(stripped_lines):
        m = CLASS_DEF_RE.match(line)
        if m and ";" not in line:  # skip forward declarations
            if "[[nodiscard]]" not in line and not is_suppressed(
                    raw_lines[idx], "nodiscard"):
                violations.append(Violation(
                    relpath, idx + 1, "nodiscard",
                    f"class {m.group(1)} must be declared "
                    f"`class [[nodiscard]] {m.group(1)}`"))
            continue
        m = STATUS_DECL_RE.match(line)
        if not m:
            continue
        if is_suppressed(raw_lines[idx], "nodiscard"):
            continue
        # Attribute may sit on the same line or the previous non-blank line.
        prev = stripped_lines[idx - 1].strip() if idx > 0 else ""
        if "[[nodiscard]]" in line or prev.endswith("[[nodiscard]]"):
            continue
        violations.append(Violation(
            relpath, idx + 1, "nodiscard",
            f"{m.group(1)}-returning declaration `{m.group(2)}` must be "
            f"[[nodiscard]]"))


NEW_RE = re.compile(r"(?:^|[^\w.>])new\b\s*[\w:(<]")


def check_naked_new(relpath, stripped_lines, raw_lines, violations):
    for idx, line in enumerate(stripped_lines):
        if NEW_RE.search(line) and not is_suppressed(raw_lines[idx],
                                                     "naked-new"):
            violations.append(Violation(
                relpath, idx + 1, "naked-new",
                "no naked `new`; use std::make_unique or mark the leaky "
                "singleton with NOLINT(naked-new)"))


# Matches a fault-point invocation with a literal site name. The macro
# definition itself (unquoted parameter) and the kFaultSites catalog (plain
# strings, no macro) do not match.
FAULT_POINT_RE = re.compile(
    r'EMIGRE_FAULT_POINT(?:_STATUS)?\s*\(\s*"([^"]+)"')


def check_fault_sites(relpath, stripped_lines, raw_lines, violations,
                      seen_sites):
    """Every fault-point site name must be globally unique: specs and the
    fault.<site>.fired counters address sites by name, so a duplicate would
    silently arm (and count) two code locations at once. `seen_sites` maps
    site -> (path, line) across every file of the run."""
    for idx, line in enumerate(raw_lines):
        if is_suppressed(line, "fault-site"):
            continue
        # Site names live in string literals, so match on the raw line —
        # but only where the stripped line shows a real macro invocation
        # (mentions in comments don't count).
        if "EMIGRE_FAULT_POINT" not in stripped_lines[idx]:
            continue
        for m in FAULT_POINT_RE.finditer(line):
            site = m.group(1)
            prev = seen_sites.get(site)
            if prev is not None:
                violations.append(Violation(
                    relpath, idx + 1, "fault-site",
                    f'duplicate fault site "{site}" (already used at '
                    f"{prev[0]}:{prev[1]}); every EMIGRE_FAULT_POINT site "
                    f"name must be unique"))
            else:
                seen_sites[site] = (relpath, idx + 1)


# Matches a metric/span declaration with a literal name. The macro
# definitions themselves (unquoted `name` parameter) do not match.
OBS_NAME_RE = re.compile(
    r'EMIGRE_(COUNTER|GAUGE|HISTOGRAM|SPAN)\s*\(\s*"([^"]*)"')

OBS_NAME_CHARSET_RE = re.compile(r"[a-z0-9_./]+")


def check_obs_names(relpath, stripped_lines, raw_lines, violations,
                    seen_names):
    """Metric and span names are addresses: the perf gate skips/fails them
    by name and the trace tree groups by them, so a name must be lowercase
    dotted ([a-z0-9_./]+) and must be declared in exactly one file. Repeats
    inside one file are normal (cached-handle call sites); the same name in
    a second file would silently merge two series. `seen_names` maps
    name -> (path, line, kind, catalog_exempt) across every file of the
    run; catalog_exempt records NOLINT(metric-catalog) on the declaring
    line for check_metric_catalog."""
    for idx, line in enumerate(raw_lines):
        if is_suppressed(line, "obs-name"):
            continue
        # Names live in string literals, so capture from the raw line — but
        # only where the stripped line shows a real macro invocation
        # (mentions in comments and doc examples don't count).
        if "EMIGRE_" not in stripped_lines[idx]:
            continue
        if not re.search(r"EMIGRE_(?:COUNTER|GAUGE|HISTOGRAM|SPAN)\b",
                         stripped_lines[idx]):
            continue
        for m in OBS_NAME_RE.finditer(line):
            kind, name = m.group(1), m.group(2)
            if not OBS_NAME_CHARSET_RE.fullmatch(name):
                violations.append(Violation(
                    relpath, idx + 1, "obs-name",
                    f'EMIGRE_{kind} name "{name}" must match [a-z0-9_./]+'))
                continue
            prev = seen_names.get(name)
            if prev is not None and prev[0] != relpath:
                violations.append(Violation(
                    relpath, idx + 1, "obs-name",
                    f'metric/span name "{name}" is already declared in '
                    f"{prev[0]}:{prev[1]}; a name must live in exactly one "
                    f"file"))
            elif prev is None:
                seen_names[name] = (relpath, idx + 1, kind,
                                     is_suppressed(line, "metric-catalog"))


# A definition (not a forward declaration, not a use) of an on-disk layout
# struct. The trailing `(?!\s*;)` admits `struct FooOnDisk {` and the
# brace-on-next-line style while rejecting `struct FooOnDisk;`.
ONDISK_STRUCT_RE = re.compile(r"^\s*struct\s+(\w*OnDisk)\b(?!\s*;)")


def check_ondisk_assert(relpath, stripped_lines, raw_lines, violations):
    """Structs that are memcpy'd to disk (named *OnDisk by convention,
    docs/data_format.md) must pin their layout with a
    static_assert(sizeof(...) == N) and assert trivial copyability in the
    same file, so adding a member or a vtable breaks the build instead of
    the file format."""
    text = "\n".join(stripped_lines)
    for idx, line in enumerate(stripped_lines):
        m = ONDISK_STRUCT_RE.match(line)
        if not m:
            continue
        if is_suppressed(raw_lines[idx], "ondisk-assert"):
            continue
        name = re.escape(m.group(1))
        has_size = re.search(
            rf"static_assert\s*\(\s*sizeof\s*\(\s*{name}\s*\)\s*==", text)
        has_trivial = re.search(
            rf"static_assert\s*\(\s*std::is_trivially_copyable_v\s*<"
            rf"\s*{name}\s*>", text)
        missing = []
        if not has_size:
            missing.append(f"static_assert(sizeof({m.group(1)}) == ...)")
        if not has_trivial:
            missing.append("static_assert(std::is_trivially_copyable_v<"
                           f"{m.group(1)}>)")
        if missing:
            violations.append(Violation(
                relpath, idx + 1, "ondisk-assert",
                f"on-disk struct {m.group(1)} is missing "
                f"{' and '.join(missing)}; the serialized layout must be "
                f"pinned in this file"))


MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:std::mutex|util::Mutex|Mutex)\s+\w+\s*"
    r"(?:ACQUIRED_(?:BEFORE|AFTER)\s*\([^;]*\))?\s*;")

# A plain data-member declaration: `Type name_;` possibly with an
# initializer. Lines containing `(` are functions/constructors/macros and
# never match; the annotation macros contain `(` so they are cut off first.
MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?"
    r"(?P<type>[\w:]+(?:<[\w:<>,\s\*&]*>)?(?:\s*[\*&])?)\s+"
    r"(?P<name>\w+)\s*(?:\[[^\]]*\])?\s*"
    r"(?:=[^;]*|\{[^;{}]*\})?;")

# Member types that are their own synchronization (or the lock itself) and
# therefore need no GUARDED_BY.
GUARDED_BY_EXEMPT_TYPE_RE = re.compile(
    r"std::mutex|util::Mutex|\bMutex\b|\bCondVar\b|condition_variable|"
    r"std::atomic\b|\batomic<")

MEMBER_SKIP_RE = re.compile(
    r"^\s*(?:using|typedef|friend|static|constexpr|enum|class|struct|"
    r"public|private|protected|template|#)")

# Deleted/defaulted special members read like `T& operator=(...) = delete;`
# and would otherwise parse as a data member named `operator`.
OPERATOR_RE = re.compile(r"\boperator\b")


def class_blocks(stripped_lines):
    """Yields (header_idx, [member_line_indices]) for each class/struct
    body, where member lines are the body lines at the block's own brace
    level (nested blocks' lines belong to the nested block)."""
    header_re = re.compile(r"\b(?:class|struct)\s+[\w:]*")
    stack = []  # (is_class_block, header_idx, member_line_indices)
    blocks = []
    pending_header = None
    for idx, line in enumerate(stripped_lines):
        code = line
        for pos, ch in enumerate(code):
            if ch == "{":
                is_class = False
                header_idx = idx
                head = code[:pos]
                if header_re.search(head):
                    is_class = True
                elif pending_header is not None and not head.strip():
                    is_class, header_idx = True, pending_header
                stack.append([is_class, header_idx, []])
            elif ch == "}":
                if stack:
                    done = stack.pop()
                    if done[0]:
                        blocks.append((done[1], done[2]))
        # A line with no braces belongs to the innermost open block.
        if "{" not in code and "}" not in code and stack:
            stack[-1][2].append(idx)
        # Track a class/struct header whose `{` sits on the next line.
        if header_re.search(code) and "{" not in code and ";" not in code:
            pending_header = idx
        elif code.strip():
            pending_header = None
    return blocks


def paren_depths(stripped_lines):
    """The parenthesis depth at the start of each line: a line that starts
    inside an open `(` continues a declaration's parameter list."""
    depths = []
    depth = 0
    for line in stripped_lines:
        depths.append(depth)
        depth = max(0, depth + line.count("(") - line.count(")"))
    return depths


def check_guarded_by(relpath, stripped_lines, raw_lines, violations):
    """Every class that owns a mutex must annotate its other data members
    with GUARDED_BY (or justify the exception with NOLINT(guarded-by)), so
    the -Wthread-safety analysis actually covers the shared state. The
    check runs on the stripped text with the annotation macros still
    visible, but inspects the raw line for GUARDED_BY because the macro may
    share the line with a comment. Wrapped parameter lines such as
    `Mode mode = Mode::kAdd) const;` read like members and are skipped by
    their parenthesis depth."""
    depths = paren_depths(stripped_lines)
    for _, member_lines in class_blocks(stripped_lines):
        mutex_lines = [i for i in member_lines
                       if MUTEX_MEMBER_RE.match(stripped_lines[i])]
        if not mutex_lines:
            continue
        for i in member_lines:
            line = stripped_lines[i]
            if i in mutex_lines or not line.strip() or depths[i] > 0:
                continue
            if MEMBER_SKIP_RE.match(line) or "(" in line.split("=")[0]:
                # GUARDED_BY(...) itself adds parens; strip the macros
                # before deciding this is a function.
                demacroed = re.sub(
                    r"(?:PT_)?GUARDED_BY\s*\([^)]*\)", "", line)
                if MEMBER_SKIP_RE.match(demacroed) or "(" in demacroed:
                    continue
                line = demacroed
            else:
                line = re.sub(r"(?:PT_)?GUARDED_BY\s*\([^)]*\)", "", line)
            if OPERATOR_RE.search(line) or not MEMBER_DECL_RE.match(line):
                continue
            m = MEMBER_DECL_RE.match(line)
            if GUARDED_BY_EXEMPT_TYPE_RE.search(m.group("type")):
                continue
            if re.search(r"(?:PT_)?GUARDED_BY\s*\(", stripped_lines[i]):
                continue
            if is_suppressed(raw_lines[i], "guarded-by"):
                continue
            violations.append(Violation(
                relpath, i + 1, "guarded-by",
                f"member `{m.group('name')}` sits next to a mutex but has "
                f"no GUARDED_BY annotation; annotate it or justify with "
                f"NOLINT(guarded-by)"))


FAULT_CATALOG_RE = re.compile(
    r"kFaultSites\[\]\s*=\s*\{(?P<body>.*?)\};", re.S)


def check_fault_catalog(root, seen_sites, violations):
    """The reverse direction of the fault-site rule: every name in the
    `kFaultSites` catalog must correspond to a real EMIGRE_FAULT_POINT
    site in src/, otherwise the chaos harness arms schedules against code
    that no longer exists and the soak silently loses coverage."""
    catalog_path = os.path.join(root, "src/fault/fault.h")
    try:
        with open(catalog_path, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return  # partial trees (self-test fixtures) simply have no catalog
    m = FAULT_CATALOG_RE.search(strip_comments_and_strings(text))
    raw_m = FAULT_CATALOG_RE.search(text)
    if not raw_m:
        return
    src_sites = {site for site, (path, _) in seen_sites.items()
                 if path.startswith("src/")}
    body_start_line = text[:raw_m.start()].count("\n") + 1
    for offset, line in enumerate(raw_m.group("body").split("\n")):
        entry = re.search(r'"([^"]+)"', line)
        if entry is None or is_suppressed(line, "fault-site"):
            continue
        site = entry.group(1)
        if site not in src_sites:
            violations.append(Violation(
                "src/fault/fault.h", body_start_line + offset, "fault-site",
                f'catalog entry "{site}" has no EMIGRE_FAULT_POINT site in '
                f"src/; remove the stale entry or re-add the site"))


CATALOG_DOC = "docs/observability.md"
CATALOG_HEADING = "## Metric catalog"
CATALOG_NAME_RE = re.compile(r"`([a-z0-9_./]+)`")


def catalog_names(text):
    """Names in the first column of the metric catalog table (the section
    under CATALOG_HEADING, up to the next `## ` heading), each mapped to the
    1-based line of its row."""
    names = {}
    in_section = False
    for lineno, line in enumerate(text.split("\n"), 1):
        if line.startswith("## "):
            in_section = line.strip() == CATALOG_HEADING
            continue
        if in_section and line.startswith("|"):
            cells = line.split("|")
            if len(cells) > 1:
                for name in CATALOG_NAME_RE.findall(cells[1]):
                    names.setdefault(name, lineno)
    return names


def check_metric_catalog(root, seen_obs_names, violations):
    """Every metric a src/ file registers by literal name must have an
    exact entry in the catalog table of docs/observability.md, so a reader
    of the catalog sees every series a trace or bench document can carry.
    Spans are not metrics and are exempt; a deliberate omission carries
    NOLINT(metric-catalog) on the declaring line. In reverse, every catalog
    entry must be registered by a literal metric in src/, so a retired
    metric cannot stay documented."""
    try:
        with open(os.path.join(root, CATALOG_DOC), encoding="utf-8") as f:
            documented = catalog_names(f.read())
    except OSError:
        return  # partial trees (self-test fixtures) simply have no catalog
    for name, (path, line, kind, exempt) in sorted(seen_obs_names.items()):
        if kind == "SPAN" or not path.startswith("src/") or exempt:
            continue
        if name in documented:
            continue
        violations.append(Violation(
            path, line, "metric-catalog",
            f'EMIGRE_{kind} "{name}" has no entry in the metric catalog of '
            f"{CATALOG_DOC}; document it (name, kind, unit, meaning)"))
    registered = {name for name, (path, _, kind, _) in seen_obs_names.items()
                  if kind != "SPAN" and path.startswith("src/")}
    for name, line in sorted(documented.items()):
        if name in registered:
            continue
        violations.append(Violation(
            CATALOG_DOC, line, "metric-catalog",
            f'catalog entry "{name}" is not registered by a literal '
            f"EMIGRE_COUNTER / EMIGRE_GAUGE / EMIGRE_HISTOGRAM in src/; "
            f"remove the stale row or re-add the metric"))


def check_bench_metrics(relpath, text, violations):
    name = os.path.basename(relpath)
    m = re.match(r"bench_(\w+)\.cc$", name)
    if not m:
        return
    bench = m.group(1)
    # Whole-file rule: a NOLINT(bench-metrics) anywhere opts the binary out.
    if "NOLINT(bench-metrics)" in text:
        return
    if f'WriteBenchMetrics("{bench}")' not in text:
        violations.append(Violation(
            relpath, 1, "bench-metrics",
            f'bench binary must call WriteBenchMetrics("{bench}") so it '
            f"writes BENCH_{bench}.json"))


def lint_file(root, relpath, seen_fault_sites=None, seen_obs_names=None):
    violations = []
    full = os.path.join(root, relpath)
    try:
        with open(full, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        violations.append(Violation(relpath, 0, "io", str(e)))
        return violations
    raw_lines = text.split("\n")
    stripped = strip_comments_and_strings(text).split("\n")
    is_header = relpath.endswith(".h")

    if is_header:
        check_include_guard(relpath, raw_lines, violations)
        check_using_namespace(relpath, stripped, raw_lines, violations)
        check_nodiscard(relpath, stripped, raw_lines, violations)
    top = relpath.split("/", 1)[0]
    if top in NAKED_NEW_DIRS and relpath.endswith((".h", ".cc")):
        check_naked_new(relpath, stripped, raw_lines, violations)
    if relpath.endswith(".cc"):
        check_bench_metrics(relpath, text, violations)
    if relpath.startswith("src/") and relpath.endswith((".h", ".cc")):
        check_ondisk_assert(relpath, stripped, raw_lines, violations)
    if relpath.endswith((".h", ".cc")):
        check_guarded_by(relpath, stripped, raw_lines, violations)
        # Single-file runs (and the self-test) still catch intra-file
        # duplicates; run_lint threads one map through every file so the
        # rule is global.
        check_fault_sites(relpath, stripped, raw_lines, violations,
                          {} if seen_fault_sites is None else seen_fault_sites)
        check_obs_names(relpath, stripped, raw_lines, violations,
                        {} if seen_obs_names is None else seen_obs_names)
    return violations


def collect_files(root, paths):
    rels = []
    if paths:
        for p in paths:
            full = os.path.abspath(p)
            if os.path.isdir(full):
                for dirpath, _, names in os.walk(full):
                    for n in sorted(names):
                        if n.endswith((".h", ".cc")):
                            rels.append(os.path.relpath(
                                os.path.join(dirpath, n), root))
            else:
                rels.append(os.path.relpath(full, root))
    else:
        for d in DEFAULT_DIRS:
            base = os.path.join(root, d)
            if not os.path.isdir(base):
                continue
            for dirpath, _, names in os.walk(base):
                for n in sorted(names):
                    if n.endswith((".h", ".cc")):
                        rels.append(os.path.relpath(
                            os.path.join(dirpath, n), root))
    return sorted(set(r.replace(os.sep, "/") for r in rels))


def run_lint(root, paths):
    violations = []
    seen_fault_sites = {}
    seen_obs_names = {}
    for rel in collect_files(root, paths):
        violations.extend(
            lint_file(root, rel, seen_fault_sites, seen_obs_names))
    if not paths:
        check_fault_catalog(root, seen_fault_sites, violations)
        check_metric_catalog(root, seen_obs_names, violations)
    for v in violations:
        print(v)
    if violations:
        print(f"lint.py: {len(violations)} violation(s)")
        return 1
    return 0


# --- self-test --------------------------------------------------------------

SEEDED = {
    "include-guard": (
        "src/util/bad_guard.h",
        "#ifndef WRONG_GUARD_H\n#define WRONG_GUARD_H\n#endif\n"),
    "using-namespace": (
        "src/util/uses_ns.h",
        "#ifndef EMIGRE_UTIL_USES_NS_H_\n#define EMIGRE_UTIL_USES_NS_H_\n"
        "using namespace std;\n#endif  // EMIGRE_UTIL_USES_NS_H_\n"),
    "nodiscard": (
        "src/util/drops.h",
        "#ifndef EMIGRE_UTIL_DROPS_H_\n#define EMIGRE_UTIL_DROPS_H_\n"
        "Status DoWrite(int fd);\n"
        "#endif  // EMIGRE_UTIL_DROPS_H_\n"),
    "naked-new": (
        "src/util/leaky.cc",
        "void* Make() { return new int(7); }\n"),
    "bench-metrics": (
        "bench/bench_silent.cc",
        "int main() { return 0; }\n"),
    "fault-site": (
        "src/util/dup_site.cc",
        'void A() { EMIGRE_FAULT_POINT("dup.site"); }\n'
        'void B() { EMIGRE_FAULT_POINT_STATUS("dup.site"); }\n'),
    "obs-name": (
        "src/util/shouty_metric.cc",
        'void F() { EMIGRE_COUNTER("Shouty.Name").Increment(); }\n'),
    "ondisk-assert": (
        "src/data/unpinned.h",
        "#ifndef EMIGRE_DATA_UNPINNED_H_\n#define EMIGRE_DATA_UNPINNED_H_\n"
        "struct RecordOnDisk {\n"
        "  unsigned int bytes;\n"
        "};\n"
        "static_assert(sizeof(RecordOnDisk) == 4);\n"
        "struct TrailerOnDisk {\n"
        "  unsigned int crc;\n"
        "};\n"
        "#endif  // EMIGRE_DATA_UNPINNED_H_\n"),
    "guarded-by": (
        "src/util/unguarded.h",
        "#ifndef EMIGRE_UTIL_UNGUARDED_H_\n"
        "#define EMIGRE_UTIL_UNGUARDED_H_\n"
        "class Cache {\n"
        " private:\n"
        "  std::mutex mutex_;\n"
        "  size_t hits_ = 0;\n"
        "};\n"
        "#endif  // EMIGRE_UTIL_UNGUARDED_H_\n"),
}

CLEAN_FILE = (
    "src/util/clean.h",
    "#ifndef EMIGRE_UTIL_CLEAN_H_\n#define EMIGRE_UTIL_CLEAN_H_\n"
    "// A Status in a comment; \"using namespace\" in a string is fine.\n"
    "[[nodiscard]] Status DoWrite(int fd);\n"
    "[[nodiscard]]\nStatus DoWriteWrapped(int fd);\n"
    "class [[nodiscard]] Status {};\n"
    "struct PinnedOnDisk {\n"
    "  unsigned int bytes;\n"
    "};\n"
    "static_assert(sizeof(PinnedOnDisk) == 4);\n"
    "static_assert(std::is_trivially_copyable_v<PinnedOnDisk>);\n"
    "struct ForwardOnDisk;\n"
    "class Guarded {\n"
    " public:\n"
    "  [[nodiscard]] Status Flush(int fd);\n"
    "  [[nodiscard]] Result<int> Explain(\n"
    "      const Question& q,\n"
    "      Heuristic heuristic = Heuristic::kIncremental) const;\n"
    " private:\n"
    "  mutable util::Mutex mutex_;\n"
    "  std::map<int, int> index_ GUARDED_BY(mutex_);\n"
    "  size_t hits_ GUARDED_BY(mutex_) = 0;\n"
    "  std::unique_ptr<int> cell_ PT_GUARDED_BY(mutex_);\n"
    "  std::atomic<size_t> fast_count_{0};\n"
    "  util::CondVar ready_;\n"
    "};\n"
    "#endif  // EMIGRE_UTIL_CLEAN_H_\n")


def self_test_fault_catalog():
    """The fault-site rule's reverse direction: a kFaultSites entry with no
    EMIGRE_FAULT_POINT in src/ fires; NOLINT(fault-site) on the entry
    suppresses."""
    failures = 0
    catalog = (
        "inline constexpr const char* kFaultSites[] = {\n"
        '    "real.site",\n'
        '    "ghost.site",{suffix}\n'
        "};\n")
    site_cc = 'void F() { EMIGRE_FAULT_POINT("real.site"); }\n'
    for suffix, expect_fire in (("", True),
                                ("  // NOLINT(fault-site)", False)):
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "src/fault"), exist_ok=True)
            with open(os.path.join(tmp, "src/fault/fault.h"), "w",
                      encoding="utf-8") as f:
                f.write(catalog.replace("{suffix}", suffix))
            with open(os.path.join(tmp, "src/fault/site.cc"), "w",
                      encoding="utf-8") as f:
                f.write(site_cc)
            violations = []
            seen = {}
            for rel in collect_files(tmp, []):
                lint_file(tmp, rel, seen, {})
            check_fault_catalog(tmp, seen, violations)
            fired = [v for v in violations if "ghost.site" in v.message]
            if expect_fire and not fired:
                print("SELF-TEST FAIL: stale kFaultSites entry did not "
                      "fire the fault-site rule")
                failures += 1
            elif not expect_fire and fired:
                print("SELF-TEST FAIL: NOLINT(fault-site) did not suppress "
                      f"the catalog check: {fired[0]}")
                failures += 1
            elif [v for v in violations if "real.site" in v.message]:
                print("SELF-TEST FAIL: live catalog entry flagged as stale")
                failures += 1
    if not failures:
        print("self-test ok: fault-site catalog reverse direction verified")
    return failures


def self_test_metric_catalog():
    """A src/ metric missing from the catalog table fires; a documented one,
    a span, and a NOLINT(metric-catalog) declaration do not. In reverse, a
    catalog row whose name no src/ literal registers fires (a name only a
    bench registers included); rows of registered names do not."""
    failures = 0
    doc = ("# Observability\n\n## Metric catalog\n\n"
           "| name | kind | unit | meaning |\n|---|---|---|---|\n"
           "| `known.calls` / `known.pushes` | counter | calls | known |\n"
           "| `retired.pushes` | counter | pushes | gone from src/ |\n"
           "| `bench.only` | gauge | s | registered by a bench |\n"
           "\n## Elsewhere\n\nMentions `prose.only` outside the table.\n")
    bench = 'void B() { EMIGRE_GAUGE("bench.only").Set(1.0); }\n'
    src = ('void F() {\n'
           '  EMIGRE_COUNTER("known.calls").Increment();\n'
           '  EMIGRE_COUNTER("known.pushes").Increment();\n'
           '  EMIGRE_GAUGE("ghost.depth").Set(1.0);\n'
           '  EMIGRE_COUNTER("prose.only").Increment();\n'
           '  EMIGRE_SPAN("some.span");\n'
           '  EMIGRE_COUNTER("quiet.count").Increment();'
           '  // NOLINT(metric-catalog)\n'
           '}\n')
    with tempfile.TemporaryDirectory() as tmp:
        for sub in ("docs", "src/obs", "bench"):
            os.makedirs(os.path.join(tmp, sub), exist_ok=True)
        for rel, content in ((CATALOG_DOC, doc), ("src/obs/user.cc", src),
                             ("bench/bench_user.cc", bench)):
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(content)
        violations = []
        seen = {}
        for rel in collect_files(tmp, []):
            lint_file(tmp, rel, {}, seen)
        check_metric_catalog(tmp, seen, violations)
        fired = [v for v in violations if v.rule == "metric-catalog"]
        undocumented = sorted(v.message.split('"')[1] for v in fired
                              if v.path != CATALOG_DOC)
        stale = sorted(v.message.split('"')[1] for v in fired
                       if v.path == CATALOG_DOC)
        if undocumented != ["ghost.depth", "prose.only"]:
            print("SELF-TEST FAIL: metric-catalog flagged undocumented "
                  f"{undocumented}, expected ['ghost.depth', 'prose.only']")
            failures += 1
        if stale != ["bench.only", "retired.pushes"]:
            print("SELF-TEST FAIL: metric-catalog flagged stale rows "
                  f"{stale}, expected ['bench.only', 'retired.pushes']")
            failures += 1
    if not failures:
        print("self-test ok: metric-catalog fired on undocumented names "
              "and stale catalog rows only")
    return failures


def self_test():
    failures = 0
    for rule, (relpath, content) in SEEDED.items():
        with tempfile.TemporaryDirectory() as tmp:
            full = os.path.join(tmp, relpath)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as f:
                f.write(content)
            violations = lint_file(tmp, relpath)
            hit = [v for v in violations if v.rule == rule]
            if not hit:
                print(f"SELF-TEST FAIL: rule {rule} did not fire on "
                      f"{relpath}")
                failures += 1
            else:
                print(f"self-test ok: {rule} fired ({hit[0].message})")
            # The same file with a NOLINT marker must pass.
            if rule == "bench-metrics":  # whole-file rule, file-level marker
                suppressed = "// NOLINT(bench-metrics)\n" + content
            else:
                suppressed = "\n".join(
                    line + ("  // NOLINT" if line.strip() and
                            not line.lstrip().startswith("#endif") else "")
                    for line in content.split("\n"))
            with open(full, "w", encoding="utf-8") as f:
                f.write(suppressed)
            violations = [v for v in lint_file(tmp, relpath)
                          if v.rule == rule]
            if violations:
                print(f"SELF-TEST FAIL: NOLINT did not suppress {rule}: "
                      f"{violations[0]}")
                failures += 1
    failures += self_test_fault_catalog()
    failures += self_test_metric_catalog()
    with tempfile.TemporaryDirectory() as tmp:
        relpath, content = CLEAN_FILE
        full = os.path.join(tmp, relpath)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as f:
            f.write(content)
        violations = lint_file(tmp, relpath)
        if violations:
            print("SELF-TEST FAIL: clean file reported violations:")
            for v in violations:
                print(f"  {v}")
            failures += 1
        else:
            print("self-test ok: clean file passes")
    if failures:
        print(f"lint.py self-test: {failures} failure(s)")
        return 1
    print("lint.py self-test: all rules verified")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on a seeded violation")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    root = os.path.abspath(args.root) if args.root else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    return run_lint(root, args.paths)


if __name__ == "__main__":
    sys.exit(main())
