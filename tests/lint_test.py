#!/usr/bin/env python3
"""Tier-1 regression tests for tools/lint/wms_lint.py.

Each tests/lint_fixtures/<case>/ directory is a miniature source tree laid
out like the real repo (src/core/..., tools/lint/allowlist.json, ...). The
known-bad trees must keep producing their findings and the known-good trees
must stay clean, so a linter regression — a rule silently going blind, a
broken allowlist ratchet, a suppression bypass — fails ctest, not just CI.

The test_only_* fixtures hold a three-function library, one production
program and one `*_test` program each. TestOnlyRatchet compiles them at -O0
with function sections, links with --gc-sections, and runs
tools/lint/test_only.py over the result against the fixture's allowlist.

The final test runs every rule over the real repository: the tree itself
must hold the invariants the linter enforces.
"""

import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO, "tools", "lint", "wms_lint.py")
TEST_ONLY = os.path.join(REPO, "tools", "lint", "test_only.py")
FIXTURES = os.path.join(REPO, "tests", "lint_fixtures")


def run_lint(*args):
    return subprocess.run(
        [sys.executable, LINT, *args],
        capture_output=True, text=True, timeout=120)


def fixture(name):
    return os.path.join(FIXTURES, name)


class HashOnceRule(unittest.TestCase):
    def test_good_tree_is_clean(self):
        r = run_lint("--rule", "hash-once", "--engine", "token",
                     "--root", fixture("hash_once_good"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_bad_tree_fails_with_site(self):
        r = run_lint("--rule", "hash-once", "--engine", "token",
                     "--root", fixture("hash_once_bad"))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("src/core/bad_update.cc:10", r.stdout)
        self.assertIn("[hash-once]", r.stdout)

    def test_allowlisted_site_with_reason_passes(self):
        r = run_lint("--rule", "hash-once", "--engine", "token",
                     "--root", fixture("hash_once_allowlisted"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_ratchet_catches_new_site_beyond_audit(self):
        r = run_lint("--rule", "hash-once", "--engine", "token",
                     "--root", fixture("hash_once_ratchet"))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("exceed the audited allowlist ratchet", r.stdout)

    def test_ratchet_is_exact_stale_entries_fail(self):
        # A deletion must shrink the allowlist in the same change: an entry
        # above its file's real count, or naming a file with no sites left,
        # is a finding of its own.
        r = run_lint("--rule", "hash-once", "--engine", "token",
                     "--root", fixture("hash_once_stale"))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("src/core/fused_read.cc:1", r.stdout)
        self.assertIn("lower max_sites to 1", r.stdout)
        self.assertIn("src/core/deleted_read.cc:1", r.stdout)
        self.assertIn("remove the entry", r.stdout)
        self.assertEqual(r.stdout.count("[hash-once]"), 2, r.stdout)

    def test_inline_suppression_with_reason_passes(self):
        r = run_lint("--rule", "hash-once", "--engine", "token",
                     "--root", fixture("hash_once_suppressed"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_libclang_engine_never_silently_skips(self):
        # With or without python libclang installed, an explicit
        # --engine libclang run must still detect the bad tree (via the
        # libclang engine or the loud token fallback).
        r = run_lint("--rule", "hash-once", "--engine", "libclang",
                     "--root", fixture("hash_once_bad"))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("[hash-once]", r.stdout)


class CowDirtyRule(unittest.TestCase):
    def test_marked_writes_pass(self):
        r = run_lint("--rule", "cow-dirty", "--engine", "token",
                     "--root", fixture("cow_dirty_good"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_unmarked_writes_fail_per_sink_kind(self):
        r = run_lint("--rule", "cow-dirty", "--engine", "token",
                     "--root", fixture("cow_dirty_bad"))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("write through Row(...)[...]", r.stdout)
        self.assertIn("table sweep simd::ScaleTable", r.stdout)
        self.assertIn("write through table alias 'tbl'", r.stdout)
        # one finding per sink: direct write, sweep, and alias write
        self.assertEqual(r.stdout.count("[cow-dirty]"), 3, r.stdout)


class SimdPairedRule(unittest.TestCase):
    def test_registered_kernel_passes(self):
        r = run_lint("--rule", "simd-paired", "--engine", "token",
                     "--root", fixture("simd_paired_good"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_unregistered_kernel_fails(self):
        r = run_lint("--rule", "simd-paired", "--engine", "token",
                     "--root", fixture("simd_paired_bad"))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("UnregisteredKernelAvx2", r.stdout)
        self.assertNotIn("DemoKernelAvx2", r.stdout)

    def test_stale_table_entry_fails(self):
        r = run_lint("--rule", "simd-paired", "--engine", "token",
                     "--root", fixture("simd_paired_stale"))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("RemovedKernelAvx2", r.stdout)
        self.assertIn("stale entry", r.stdout)

    def test_sse42_kernels_are_covered_too(self):
        # target("sse4.2") kernels (src/util/crc32c.cc) need table entries
        # exactly like the AVX ones.
        r = run_lint("--rule", "simd-paired", "--engine", "token",
                     "--root", fixture("simd_paired_sse42"))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("UnregisteredCrcSse42", r.stdout)
        self.assertNotIn("Crc32cDemoSse42", r.stdout)


class CheckedIoRule(unittest.TestCase):
    def test_helper_based_io_is_clean(self):
        r = run_lint("--rule", "checked-io", "--engine", "token",
                     "--root", fixture("checked_io_good"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_raw_stream_calls_fail_per_site(self):
        r = run_lint("--rule", "checked-io", "--engine", "token",
                     "--root", fixture("checked_io_bad"))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("src/engine/checkpoint.cc:8", r.stdout)
        self.assertIn("raw stream .write(", r.stdout)
        self.assertIn("raw stream .read(", r.stdout)
        self.assertEqual(r.stdout.count("[checked-io]"), 2, r.stdout)

    def test_inline_suppression_with_reason_passes(self):
        r = run_lint("--rule", "checked-io", "--engine", "token",
                     "--root", fixture("checked_io_suppressed"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)


class TestOnlyRatchet(unittest.TestCase):
    FLAGS = ["-O0", "-ffunction-sections", "-fdata-sections"]

    def run_ratchet(self, name):
        """Builds the fixture's library archive and its two programs the way
        the ratchet's CI job builds the repository, then runs the ratchet."""
        src = fixture(name)
        cxx = os.environ.get("CXX") or "c++"
        with tempfile.TemporaryDirectory() as build:
            def sh(*cmd):
                subprocess.run(cmd, check=True, timeout=120)
            obj = os.path.join(build, "lib.o")
            archive = os.path.join(build, "libwmsketch.a")
            sh(cxx, *self.FLAGS, "-c", os.path.join(src, "lib.cc"), "-o", obj)
            sh("ar", "rcs", archive, obj)
            for program in ("tool", "lib_test"):
                sh(cxx, *self.FLAGS, os.path.join(src, program + ".cc"), archive,
                   "-Wl,--gc-sections", "-o", os.path.join(build, program))
            return subprocess.run(
                [sys.executable, TEST_ONLY, "--root", src, build],
                capture_output=True, text=True, timeout=120)

    def test_exact_list_is_clean(self):
        r = self.run_ratchet("test_only_exact")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("3 strong library functions: 1 reached only by tests, "
                      "1 by no binary", r.stdout)

    def test_unlisted_test_only_function_fails(self):
        r = self.run_ratchet("test_only_unlisted")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("only tests reach demo::TestOnly(int)", r.stdout)
        self.assertEqual(r.stdout.count("[test-only]"), 1, r.stdout)

    def test_entry_for_function_production_reaches_fails(self):
        r = self.run_ratchet("test_only_reached")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("stale entry: production reaches demo::TestOnly(int)", r.stdout)
        self.assertEqual(r.stdout.count("[test-only]"), 1, r.stdout)

    def test_entry_for_deleted_function_fails(self):
        r = self.run_ratchet("test_only_gone")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("no library function demo::Unused(int) exists", r.stdout)
        self.assertEqual(r.stdout.count("[test-only]"), 1, r.stdout)


class RealTree(unittest.TestCase):
    def test_repository_holds_all_invariants(self):
        r = run_lint("--all", "--root", REPO)
        self.assertEqual(r.returncode, 0,
                         "the tree violates its own lint rules:\n" +
                         r.stdout + r.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
