#!/usr/bin/env python3
"""Tests for tools/repo_lint.py: the real tree must lint clean, and every
golden bad-code fixture under tests/lint_fixtures/ must trigger exactly its
own rule — so a lint rule cannot silently rot into a no-op.

Run directly (`python3 tests/test_repo_lint.py`) or through ctest
(the `repo_lint_selftest` test).
"""

import os
import re
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO_ROOT, "tools", "repo_lint.py")
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")

# fixture directory -> the one rule it must trigger
EXPECTED_RULE = {
    "naked_mutex": "naked-mutex",
    "submit_propagation": "submit-propagation",
    "env_int": "env-int",
    "fault_sites": "fault-sites",
    "substr_string_view": "substr-string-view",
    "build_artifacts": "build-artifacts",
}

RULE_ID_RE = re.compile(r"\[([a-z-]+)\]")


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, LINT, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class RepoLintTest(unittest.TestCase):
    def test_real_tree_is_clean(self):
        code, out, err = run_lint("--root", REPO_ROOT, "--check-anchors")
        self.assertEqual(code, 0, f"repo lint not clean:\n{out}{err}")
        self.assertEqual(out, "")

    def test_every_rule_has_a_fixture(self):
        code, out, _ = run_lint("--list-rules")
        self.assertEqual(code, 0)
        rules = set(out.split())
        self.assertEqual(rules, set(EXPECTED_RULE.values()),
                         "rules and fixtures out of sync")

    def test_fixtures_trigger_exactly_their_rule(self):
        for fixture, rule in EXPECTED_RULE.items():
            with self.subTest(fixture=fixture):
                root = os.path.join(FIXTURES, fixture)
                self.assertTrue(os.path.isdir(root), f"missing {root}")
                code, out, _ = run_lint("--root", root)
                self.assertEqual(code, 1,
                                 f"{fixture} did not fail lint:\n{out}")
                fired = set(RULE_ID_RE.findall(out))
                self.assertEqual(fired, {rule},
                                 f"{fixture} fired {fired}, wanted {{{rule}}}:"
                                 f"\n{out}")

    def test_check_anchors_catches_renames(self):
        with tempfile.TemporaryDirectory() as empty:
            code, out, _ = run_lint("--root", empty, "--check-anchors")
            self.assertEqual(code, 1)
            self.assertIn("anchor-files", out)
            self.assertIn("src/runtime/thread_pool.cc", out)

    def test_findings_carry_file_and_line(self):
        root = os.path.join(FIXTURES, "naked_mutex")
        _, out, _ = run_lint("--root", root)
        first = out.splitlines()[0]
        self.assertRegex(first, r"^.+\.(h|cc):\d+: \[naked-mutex\] ")


if __name__ == "__main__":
    unittest.main()
