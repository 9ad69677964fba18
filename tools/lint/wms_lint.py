#!/usr/bin/env python3
"""wms_lint: machine-enforced hot-path invariants for the wmsketch tree.

The ROADMAP's "hold the line" rules used to live in reviewer memory; this
linter turns them into CI-failing checks:

  hash-once    `BucketAndSign` is the raw per-(feature,row) hash. Hot paths
               must consume a HashPlan (sketch/hash_plan.h) that hashed each
               pair exactly once, so calls are forbidden everywhere in src/
               except the hash implementations (src/hash/), the plan builder
               (src/sketch/hash_plan.*), and an explicit allowlist of audited
               fused single-hash read paths (tools/lint/allowlist.json, one
               reason string per file, with a per-file site-count ratchet).
               The ratchet is exact: an entry whose file has fewer sites
               than its max_sites, or none, is itself a finding, so a
               deletion shrinks the allowlist in the same change.

  cow-dirty    All table-backed models store their cells in copy-on-write
               paged tables (util/paged_table.h). Any function in src/core/,
               src/linear/, or src/sketch/ that writes through a paged-table
               span must mark the written pages dirty on the same path
               (MarkPlanDirty / MarkDirtyOffset / MarkAllDirty, or Fill which
               marks internally) or snapshot publication silently serves
               stale pages.

  simd-paired  Every dispatched kernel in src/util/simd.cc and
               src/util/crc32c.cc (functions defined with
               __attribute__((target("avx2..."))), target("avx512...") or
               target("sse4.2"))) must be registered in the scalar
               bit-identity coverage table in tests/hash_plan_test.cc
               (the block between the `wms-lint: simd-kernel-table begin/end`
               markers), so no vector kernel ships without a scalar twin
               being asserted equal.

  checked-io   The snapshot wire formats flow exclusively through the
               checked helpers in src/core/snapshot_io.h (WriteRaw /
               WriteBytes / SectionGuard / SnapshotReader), which validate
               stream state and bound declared sizes before allocation. Raw
               `stream.read(` / `stream.write(` member calls are forbidden
               in the CHECKED_IO_FILES below (the envelope codec, whose own
               writer and reader are allowlisted, the snapshot and delta
               codecs, and every file that builds or parses net/dist frame
               bytes) so no load path can regress into unvalidated IO.

Engine: the default token-level engine lexes C++ (comments and string
literals stripped, line numbers preserved) and needs nothing beyond the
standard library, so CI can never silently skip it. When python libclang is
importable, `--engine libclang` (or `auto`) refines hash-once to true call
expressions; any libclang failure falls back to the token engine with a
note, never to a skip.

Per-line suppressions:  // wms-lint: allow(<rule>): <reason>
apply to the line they sit on or to the whole function when placed on the
function's signature line. Empty reasons are themselves lint errors.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import os
import re
import sys

RULES = ("hash-once", "cow-dirty", "simd-paired", "checked-io")

# Directories (relative to the tree root) each rule scans.
HASH_ONCE_SCOPE = ("src",)
HASH_ONCE_ALLOWED_DIRS = ("src/hash",)
HASH_ONCE_ALLOWED_FILES = ("src/sketch/hash_plan.h", "src/sketch/hash_plan.cc")
COW_DIRTY_SCOPE = ("src/core", "src/linear", "src/sketch")
SIMD_SOURCES = ("src/util/simd.cc", "src/util/crc32c.cc")
SIMD_TABLE_FILE = "tests/hash_plan_test.cc"
# Files whose stream IO must flow through the checked snapshot_io helpers
# (snapshot::WriteRaw/WriteBytes/SectionGuard and snapshot::SnapshotReader);
# the helpers themselves (src/core/snapshot_io.*) own the raw calls.
CHECKED_IO_FILES = ("src/core/snapshot_io.cc",
                    "src/core/serialization.cc", "src/api/learner.cc",
                    "src/engine/checkpoint.cc", "src/core/delta_io.cc",
                    "src/dist/frame.cc", "src/dist/protocol.cc",
                    "src/dist/worker.cc", "src/dist/aggregator.cc",
                    "src/net/wire.cc", "src/net/protocol.cc",
                    "src/net/server.cc", "src/net/client.cc")
SIMD_TABLE_BEGIN = "wms-lint: simd-kernel-table begin"
SIMD_TABLE_END = "wms-lint: simd-kernel-table end"
ALLOWLIST_PATH = os.path.join("tools", "lint", "allowlist.json")
# Allowlist sections another script owns: test-only is checked against a
# link map by tools/lint/test_only.py, not against the sources.
FOREIGN_SECTIONS = ("test-only",)

SUPPRESS_RE = re.compile(r"wms-lint:\s*allow\(([a-z\-]+)\)\s*:?\s*(.*)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------- lexing

def strip_comments_and_strings(text):
    """Replaces comments and string/char literal contents with spaces,
    preserving every newline (so offsets map 1:1 to source lines), and
    collects wms-lint suppression comments by line number."""
    out = []
    suppressions = {}  # line (1-based) -> (rule, reason)
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            out.append("\n")
            line += 1
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            m = SUPPRESS_RE.search(text[i:j])
            if m:
                suppressions[line] = (m.group(1), m.group(2).strip())
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            m = SUPPRESS_RE.search(chunk)
            if m:
                suppressions[line] = (m.group(1), m.group(2).strip())
            out.append("".join("\n" if ch == "\n" else " " for ch in chunk))
            line += chunk.count("\n")
            i = j
        elif c == '"' or c == "'":
            quote = c
            out.append(quote)
            i += 1
            while i < n:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                elif text[i] == quote:
                    out.append(quote)
                    i += 1
                    break
                elif text[i] == "\n":  # unterminated; keep line mapping
                    out.append("\n")
                    line += 1
                    i += 1
                    break
                else:
                    out.append(" ")
                    i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out), suppressions


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


_CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return", "sizeof",
                     "alignof", "decltype", "assert", "static_assert"}

_FUNC_TAIL_RE = re.compile(
    r"\)\s*(?:const|noexcept|override|final|mutable|->\s*[\w:<>,\s&*]+|"
    r"(?::\s*[^{;]*))?\s*$", re.S)


def function_bodies(clean):
    """Yields (start, end, sig_line) spans of top-level function bodies,
    found by matching `... ) [qualifiers] {` and brace-matching. Nested
    blocks (including lambdas) stay inside their enclosing span."""
    spans = []
    i, n = 0, len(clean)
    while i < n:
        b = clean.find("{", i)
        if b == -1:
            break
        if any(s <= b < e for s, e, _ in spans):
            i = b + 1
            continue
        head = clean[max(0, b - 400):b]
        if not _FUNC_TAIL_RE.search(head):
            i = b + 1
            continue
        # Reject control-flow parens: find the `(` matching the tail `)`.
        close = head.rfind(")")
        depth, k = 0, close
        while k >= 0:
            if head[k] == ")":
                depth += 1
            elif head[k] == "(":
                depth -= 1
                if depth == 0:
                    break
            k -= 1
        if k >= 0:
            ident = re.search(r"([A-Za-z_]\w*)\s*$", head[:k])
            if ident and ident.group(1) in _CONTROL_KEYWORDS:
                i = b + 1
                continue
        # Brace-match the body.
        depth, j = 0, b
        while j < n:
            if clean[j] == "{":
                depth += 1
            elif clean[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if j >= n:
            break
        # Signature line: first line of the `) ... {` tail region.
        tail = _FUNC_TAIL_RE.search(head)
        sig_pos = max(0, b - 400) + (tail.start() if tail else 0)
        spans.append((b, j + 1, line_of(clean, sig_pos)))
        i = b + 1  # scan inside too, in case this was a mis-detected block
    # Drop spans nested inside an earlier span (mis-detected inner blocks).
    top = []
    for s in spans:
        if not any(o[0] < s[0] and s[1] <= o[1] for o in top):
            top.append(s)
    return top


def suppressed(suppressions, rule, *lines):
    for ln in lines:
        hit = suppressions.get(ln)
        if hit and hit[0] == rule:
            return hit
    return None


def iter_source_files(root, scopes, exts=(".h", ".cc")):
    for scope in scopes:
        base = os.path.join(root, scope)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(exts):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


# ----------------------------------------------------------- allowlist

def load_allowlist(root):
    """tools/lint/allowlist.json under the linted root: per-rule, per-file
    entries {path, reason, max_sites}. A missing file means no exemptions."""
    path = os.path.join(root, ALLOWLIST_PATH)
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    allow = {}
    for rule, entries in data.items():
        if rule in FOREIGN_SECTIONS:
            continue
        if rule not in RULES:
            raise ValueError(f"allowlist: unknown rule '{rule}'")
        allow[rule] = {}
        for e in entries:
            if not e.get("reason", "").strip():
                raise ValueError(
                    f"allowlist: entry for '{e.get('path')}' needs a reason")
            allow[rule][e["path"]] = e
    return allow


# ----------------------------------------------------------- hash-once

BUCKET_CALL_RE = re.compile(r"\bBucketAndSign\s*\(")
# A definition/declaration, not a call: preceded by a type token.
BUCKET_DEF_RE = re.compile(r"\b(?:void|auto)\s+BucketAndSign\s*\($")


def hash_once_token_sites(clean):
    """Line numbers of BucketAndSign *call* sites (token engine)."""
    sites = []
    for m in BUCKET_CALL_RE.finditer(clean):
        head = clean[max(0, m.start() - 64):m.end() - 1] + "("
        if BUCKET_DEF_RE.search(head):
            continue  # its own definition or a declaration
        sites.append(line_of(clean, m.start()))
    return sites


def hash_once_libclang_sites(root, rel, notes):
    """Call-expression detection via libclang; returns None to fall back."""
    try:
        from clang import cindex  # noqa: deferred import, optional dep
    except Exception:
        notes.append("libclang python bindings not importable; "
                     "hash-once used the token engine")
        return None
    try:
        index = cindex.Index.create()
        tu = index.parse(
            os.path.join(root, rel),
            args=["-std=c++20", f"-I{os.path.join(root, 'src')}", f"-I{root}",
                  "-xc++"])
        sites = []

        def walk(node):
            if node.kind == cindex.CursorKind.CALL_EXPR and \
                    node.spelling == "BucketAndSign":
                if node.location.file and \
                        os.path.samefile(node.location.file.name,
                                         os.path.join(root, rel)):
                    sites.append(node.location.line)
            for ch in node.get_children():
                walk(ch)

        walk(tu.cursor)
        return sorted(sites)
    except Exception as exc:  # any libclang failure -> token fallback
        notes.append(f"libclang failed on {rel} ({exc}); token engine used")
        return None


def check_hash_once(root, allow, engine, notes):
    findings = []
    allow_entries = allow.get("hash-once", {})
    site_counts = {}  # file -> unsuppressed call sites
    for rel in iter_source_files(root, HASH_ONCE_SCOPE):
        norm = rel.replace(os.sep, "/")
        if any(norm.startswith(d + "/") for d in HASH_ONCE_ALLOWED_DIRS):
            continue
        if norm in HASH_ONCE_ALLOWED_FILES:
            continue
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = f.read()
        if "BucketAndSign" not in text:
            continue
        clean, suppressions = strip_comments_and_strings(text)
        sites = None
        if engine in ("libclang", "auto"):
            sites = hash_once_libclang_sites(root, rel, notes)
            if sites is None and engine == "libclang":
                # explicit libclang request: fall back loudly, never skip
                pass
        if sites is None:
            sites = hash_once_token_sites(clean)
        sites = [ln for ln in sites
                 if not suppressed(suppressions, "hash-once", ln)]
        if not sites:
            continue
        site_counts[norm] = len(sites)
        entry = allow_entries.get(norm)
        if entry is None:
            for ln in sites:
                findings.append(Finding(
                    norm, ln, "hash-once",
                    "BucketAndSign called outside src/hash/ and the hash_plan "
                    "builders; hot "
                    "paths must consume a HashPlan (or add the file to "
                    "tools/lint/allowlist.json with a reason)"))
        elif len(sites) > int(entry.get("max_sites", 0)):
            findings.append(Finding(
                norm, sites[-1], "hash-once",
                f"{len(sites)} BucketAndSign call sites exceed the audited "
                f"allowlist ratchet of {entry.get('max_sites', 0)} "
                f"(reason on file: {entry['reason']})"))
    for path, entry in sorted(allow_entries.items()):
        audited = int(entry.get("max_sites", 0))
        have = site_counts.get(path, 0)
        if have < audited:
            fix = "remove the entry" if have == 0 else f"lower max_sites to {have}"
            findings.append(Finding(
                path, 1, "hash-once",
                f"stale allowlist entry: {have} BucketAndSign call site(s) "
                f"left against max_sites {audited}; {fix}"))
    return findings


# ----------------------------------------------------------- cow-dirty

TABLE_EXPR = r"\w*[Tt]able\w*(?:\.|->)"
# One nesting level of brackets is enough for `tbl[off[j]]`-style offsets.
IDX = r"\[(?:[^\[\]]|\[[^\]]*\])*\]"
SWEEP_RE = re.compile(r"\bsimd::(?:PlanScatter|MergeScaledTable|ScaleTable)\s*\(")
MARK_RE = re.compile(r"\bMark(?:PlanDirty|DirtyOffset|AllDirty)\s*\(")
FILL_RE = re.compile(TABLE_EXPR + r"Fill\s*\(")
# `float* tbl = table_.data()` / `auto* p = table->data()`
PTR_ALIAS_RE = re.compile(
    r"[\w:<>]+\s*\*\s*(\w+)\s*=\s*" + TABLE_EXPR + r"data\(\)")
# `float& cell = Row(j)[b]` / `double& cell = table_.data()[k]`
REF_ALIAS_RE = re.compile(
    r"[\w:<>]+\s*&\s*(\w+)\s*=\s*(?:Row\s*\([^)]*\)|" + TABLE_EXPR +
    r"data\(\))\s*\[")
ROW_WRITE_RE = re.compile(
    r"\bRow\s*\([^)]*\)\s*" + IDX + r"\s*(?:[+\-*/|&^]?=)(?![=])")
DATA_WRITE_RE = re.compile(
    TABLE_EXPR + r"data\(\)\s*" + IDX + r"\s*(?:[+\-*/|&^]?=)(?![=])")
# `in.read(...)` as well as checked-IO wrappers (`ReadExactRaw(...)`,
# `ReadBytes(...)`) deserializing straight into table storage.
READ_INTO_RE = re.compile(
    r"\b[Rr]ead\w*\s*\(\s*reinterpret_cast<\s*char\s*\*\s*>\s*\(\s*" + TABLE_EXPR +
    r"data\(\)")
COPY_INTO_RE = re.compile(
    r"\bstd::copy\s*\([^;]*?,\s*" + TABLE_EXPR + r"data\(\)\s*\)")


def cow_dirty_sinks(body):
    """(line-offset-in-body, description) for each paged-table write."""
    sinks = []
    for m in SWEEP_RE.finditer(body):
        sinks.append((m.start(), f"table sweep {m.group(0).strip('(').strip()}"))
    for m in ROW_WRITE_RE.finditer(body):
        sinks.append((m.start(), "write through Row(...)[...]"))
    for m in DATA_WRITE_RE.finditer(body):
        sinks.append((m.start(), "write through table data()[...]"))
    for m in READ_INTO_RE.finditer(body):
        sinks.append((m.start(), "istream read into table data()"))
    for m in COPY_INTO_RE.finditer(body):
        sinks.append((m.start(), "std::copy into table data()"))
    aliases = set()
    decl_spans = []  # the `type [*&] name =` spans themselves are not writes
    for m in list(PTR_ALIAS_RE.finditer(body)) + list(REF_ALIAS_RE.finditer(body)):
        aliases.add(m.group(1))
        decl_spans.append((m.start(), m.end()))
    for name in aliases:
        alias_write = re.compile(
            r"\b" + re.escape(name) +
            r"\s*(?:" + IDX + r"\s*)?(?:[+\-*/|&^]?=)(?![=])")
        for m in alias_write.finditer(body):
            if any(s <= m.start() < e for s, e in decl_spans):
                continue
            sinks.append((m.start(), f"write through table alias '{name}'"))
    return sinks


def check_cow_dirty(root, allow, notes):
    del notes  # token engine only; structure mirrors hash-once
    findings = []
    allow_entries = allow.get("cow-dirty", {})
    for rel in iter_source_files(root, COW_DIRTY_SCOPE):
        norm = rel.replace(os.sep, "/")
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = f.read()
        clean, suppressions = strip_comments_and_strings(text)
        if norm in allow_entries:
            continue
        for start, end, sig_line in function_bodies(clean):
            body = clean[start:end]
            sinks = cow_dirty_sinks(body)
            if not sinks:
                continue
            if MARK_RE.search(body) or FILL_RE.search(body):
                continue
            for off, desc in sinks:
                ln = line_of(clean, start + off)
                if suppressed(suppressions, "cow-dirty", ln, sig_line):
                    continue
                findings.append(Finding(
                    norm, ln, "cow-dirty",
                    f"{desc} without MarkPlanDirty/MarkDirtyOffset/"
                    f"MarkAllDirty on the same path: a published snapshot "
                    f"would serve stale pages"))
    return findings


# --------------------------------------------------------- simd-paired

AVX2_KERNEL_RE = re.compile(
    r"__attribute__\s*\(\s*\(\s*target\s*\(\s*\"(?:avx(?:2|512)|sse4\.2)[^\"]*\"\s*\)"
    r"\s*\)\s*\)"
    r"\s*[\w:&*<>]+\s+(\w+)\s*\(")


def check_simd_paired(root, allow, notes):
    del notes
    findings = []
    allow_entries = allow.get("simd-paired", {})
    table_path = os.path.join(root, SIMD_TABLE_FILE)
    # kernel name -> (source rel-path, line); collected across every
    # dispatched source present in this tree.
    kernels = {}
    suppress_by_source = {}
    sources_present = []
    for source in SIMD_SOURCES:
        src_path = os.path.join(root, source)
        if not os.path.exists(src_path):
            continue
        sources_present.append(source)
        with open(src_path, encoding="utf-8") as f:
            src_raw = f.read()
        # The target("avx2...") attribute lives inside a string literal, which
        # the lexer blanks — extract kernels from the raw text; suppressions
        # still come from the lexed pass.
        _, suppress_by_source[source] = strip_comments_and_strings(src_raw)
        for m in AVX2_KERNEL_RE.finditer(src_raw):
            kernels[m.group(1)] = (source, line_of(src_raw, m.start()))
    if not sources_present:
        return findings  # no SIMD sources in this tree (fixture roots)
    if not os.path.exists(table_path):
        findings.append(Finding(
            SIMD_TABLE_FILE, 1, "simd-paired",
            "bit-identity coverage table file missing"))
        return findings
    with open(table_path, encoding="utf-8") as f:
        test_text = f.read()
    begin = test_text.find(SIMD_TABLE_BEGIN)
    end = test_text.find(SIMD_TABLE_END)
    if begin == -1 or end == -1 or end < begin:
        findings.append(Finding(
            SIMD_TABLE_FILE, 1, "simd-paired",
            f"missing '{SIMD_TABLE_BEGIN}' / '{SIMD_TABLE_END}' markers "
            f"around the kernel coverage table"))
        return findings
    table_block = test_text[begin:end]
    registered = set(re.findall(r'"(\w+)"', table_block))
    for name, (source, ln) in sorted(kernels.items(), key=lambda kv: kv[1]):
        if name in registered:
            continue
        if suppressed(suppress_by_source[source], "simd-paired", ln):
            continue
        if source in allow_entries:
            continue
        findings.append(Finding(
            source, ln, "simd-paired",
            f"vector kernel {name} is not registered in the scalar "
            f"bit-identity table in {SIMD_TABLE_FILE}"))
    for name in sorted(registered - set(kernels)):
        findings.append(Finding(
            SIMD_TABLE_FILE, line_of(test_text, begin), "simd-paired",
            f"coverage table lists '{name}' but none of "
            f"{', '.join(sources_present)} defines such a vector kernel "
            f"(stale entry?)"))
    return findings


# ---------------------------------------------------------- checked-io

CHECKED_IO_RE = re.compile(r"(?:\.|->)\s*(read|write)\s*\(")


def check_checked_io(root, allow, notes):
    del notes
    findings = []
    allow_entries = allow.get("checked-io", {})
    for rel in CHECKED_IO_FILES:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            continue  # fixture roots carry only the files under test
        with open(path, encoding="utf-8") as f:
            text = f.read()
        clean, suppressions = strip_comments_and_strings(text)
        sites = []
        for m in CHECKED_IO_RE.finditer(clean):
            ln = line_of(clean, m.start())
            if suppressed(suppressions, "checked-io", ln):
                continue
            sites.append((ln, m.group(1)))
        if not sites:
            continue
        entry = allow_entries.get(rel)
        if entry is not None and len(sites) <= int(entry.get("max_sites", 0)):
            continue
        for ln, verb in sites:
            findings.append(Finding(
                rel, ln, "checked-io",
                f"raw stream .{verb}( call; snapshot IO in this file must go "
                f"through the checked snapshot_io helpers (WriteRaw/"
                f"WriteBytes/SectionGuard/SnapshotReader), which validate "
                f"stream state and bound declared sizes before allocation"))
    return findings


# --------------------------------------------------------------- driver

def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--all", action="store_true", help="run every rule")
    ap.add_argument("--rule", action="append", choices=RULES, default=[],
                    help="run one rule (repeatable)")
    ap.add_argument("--root", default=None,
                    help="tree root to lint (default: the repo containing "
                         "this script)")
    ap.add_argument("--engine", choices=("auto", "token", "libclang"),
                    default="auto",
                    help="hash-once engine: libclang call-expression "
                         "analysis when importable, else token-level "
                         "(cow-dirty and simd-paired are always token-level)")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress the per-rule summary on success")
    args = ap.parse_args(argv)

    rules = list(dict.fromkeys(args.rule))
    if args.all or not rules:
        rules = list(RULES)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    root = os.path.abspath(root)
    if not os.path.isdir(root):
        print(f"wms_lint: root '{root}' is not a directory", file=sys.stderr)
        return 2

    try:
        allow = load_allowlist(root)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"wms_lint: {exc}", file=sys.stderr)
        return 2

    notes = []
    findings = []
    checkers = {"hash-once": lambda: check_hash_once(root, allow, args.engine, notes),
                "cow-dirty": lambda: check_cow_dirty(root, allow, notes),
                "simd-paired": lambda: check_simd_paired(root, allow, notes),
                "checked-io": lambda: check_checked_io(root, allow, notes)}
    for rule in rules:
        findings.extend(checkers[rule]())

    for note in dict.fromkeys(notes):
        print(f"wms_lint: note: {note}", file=sys.stderr)
    for f in findings:
        print(f)
    if findings:
        print(f"wms_lint: {len(findings)} finding(s) across "
              f"{len(set(f.path for f in findings))} file(s)", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"wms_lint: clean ({', '.join(rules)}) over {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
