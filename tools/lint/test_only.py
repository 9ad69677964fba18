#!/usr/bin/env python3
"""test_only: the ratchet that keeps library code with no production caller out.

Usage, from the repository root, after building everything at -O0 with
function sections and linking with --gc-sections (the `test-only-ratchet` CI
job does exactly this):

    cmake -B build-o0 -S . -DCMAKE_BUILD_TYPE=None \\
        -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build build-o0 -j
    cmake -S perfbench -B build-o0-perfbench <same three flags>
    cmake --build build-o0-perfbench -j
    python3 tools/lint/test_only.py build-o0 build-o0-perfbench

The library's functions are the strong (`T`) text symbols of its static
archives (libwmsketch.a, and perfbench's libwms_lib.a built from the same
sources). Every ELF executable under the build directories is a binary; one
whose name ends in `_test` is a test, every other one (benches, examples,
daemons, the perfbench harness) is production. --gc-sections drops every
function section that nothing reachable from a binary's entry point refers
to, so a library function is reached by a binary exactly when its symbol
survives in that binary's symbol table. -O0 keeps every call a call: at -O3
inlining hides callers, and a build of the same tree read 28 unreached
functions where -O0 read 7.

Each library function that production never reaches, whether tests reach it
or nothing does, needs an exact entry in the `test-only` section of
tools/lint/allowlist.json:

    {"function": "<nm -C name>", "reached_by": "tests" | "nothing",
     "reason": "<why it stays>"}

Like hash-once's ratchet the list is exact. Each of these is a finding:
  - a test-only or unreached function with no entry;
  - an entry whose reached_by no longer matches the build;
  - an entry for a function that production reaches;
  - an entry for a function that no longer exists.

Blind spots:
  - Virtual functions. A vtable refers to every virtual function of its
    class, so a virtual function counts as reached whenever its vtable is,
    however few callers it has. LossFunction::SmoothnessBeta was found by
    reading the code, not by this script.
  - Header-only inline functions. They are emitted as weak symbols in
    whichever objects use them and are not strong library functions, so the
    script never sees them. The vector overload of MedianInPlace and
    CountSketch::SharePages were found by hand.

Exit codes: 0 clean, 1 findings, 2 usage or build-directory error.
"""

import argparse
import json
import os
import subprocess
import sys

SECTION = "test-only"
ALLOWLIST_PATH = os.path.join("tools", "lint", "allowlist.json")
ARCHIVES = ("libwmsketch.a", "libwms_lib.a")
REACHED_BY = ("tests", "nothing")


def defined_symbols(path, types=None):
    """Demangled names of the symbols `path` defines, optionally only those
    whose nm type letter is in `types`."""
    proc = subprocess.run(["nm", "-C", "--defined-only", path],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"nm failed on {path}: {proc.stderr.strip()}")
    names = set()
    for line in proc.stdout.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and (types is None or parts[1] in types):
            names.add(parts[2])
    return names


def is_elf_executable(path):
    if not os.access(path, os.X_OK) or not os.path.isfile(path):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def scan(build_dirs):
    """Returns (library functions, reached by production, reached by tests)."""
    library = set()
    binaries = []
    for build in build_dirs:
        for dirpath, dirnames, filenames in os.walk(build):
            # CMake's compiler probes live under CMakeFiles/; they are not
            # the project's binaries.
            dirnames[:] = sorted(d for d in dirnames if d != "CMakeFiles")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                if name in ARCHIVES:
                    library |= defined_symbols(path, types={"T"})
                elif is_elf_executable(path):
                    binaries.append((name, path))
    production, tests = set(), set()
    for name, path in binaries:
        reached = defined_symbols(path) & library
        (tests if name.endswith("_test") else production).update(reached)
    return library, production, tests


def load_entries(root):
    path = os.path.join(root, ALLOWLIST_PATH)
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    entries = {}
    for e in data.get(SECTION, []):
        fn = e.get("function", "")
        if not fn or not e.get("reason", "").strip():
            raise ValueError(f"{SECTION} entry {e!r} needs a function and a reason")
        if e.get("reached_by") not in REACHED_BY:
            raise ValueError(f"{SECTION} entry for '{fn}': reached_by must be one "
                             f"of {', '.join(REACHED_BY)}")
        if fn in entries:
            raise ValueError(f"{SECTION}: duplicate entry for '{fn}'")
        entries[fn] = e
    return entries


def findings_for(library, production, tests, entries):
    findings = []
    unreached_by_production = library - production
    for fn in sorted(unreached_by_production):
        kind = "tests" if fn in tests else "nothing"
        entry = entries.get(fn)
        if entry is None:
            who = "only tests reach" if kind == "tests" else "no binary reaches"
            findings.append(f"{who} {fn}: delete it with its tests, give it a "
                            f"production caller, or add an exact entry with a "
                            f"reason")
        elif entry["reached_by"] != kind:
            findings.append(f"entry for {fn} says reached_by "
                            f"'{entry['reached_by']}', the build says '{kind}'")
    for fn in sorted(entries):
        if fn in production:
            findings.append(f"stale entry: production reaches {fn}; remove the entry")
        elif fn not in library:
            findings.append(f"stale entry: no library function {fn} exists; "
                            f"remove the entry")
    return findings


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("build_dirs", nargs="+",
                    help="build directories of an -O0 -ffunction-sections "
                         "--gc-sections build")
    ap.add_argument("--root", default=None,
                    help="tree whose tools/lint/allowlist.json holds the "
                         "entries (default: the repo containing this script)")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
    for build in args.build_dirs:
        if not os.path.isdir(build):
            print(f"test_only: build directory '{build}' does not exist", file=sys.stderr)
            return 2
    try:
        entries = load_entries(root)
        library, production, tests = scan(args.build_dirs)
    except (OSError, ValueError, RuntimeError, json.JSONDecodeError) as exc:
        print(f"test_only: {exc}", file=sys.stderr)
        return 2
    if not library:
        print("test_only: no library archive found in the build directories",
              file=sys.stderr)
        return 2

    findings = findings_for(library, production, tests, entries)
    for f in findings:
        print(f"[{SECTION}] {f}")
    test_only = (library - production) & tests
    unreached = library - production - tests
    summary = (f"{len(library)} strong library functions: {len(test_only)} reached "
               f"only by tests, {len(unreached)} by no binary")
    if findings:
        print(f"test_only: {len(findings)} finding(s); {summary}", file=sys.stderr)
        return 1
    print(f"test_only: clean; {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
