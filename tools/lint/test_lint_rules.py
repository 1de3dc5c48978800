#!/usr/bin/env python3
"""Self-test for the static-analysis gates: tools/lint/check_concurrency.py
(rules 1-6) and tools/analyze/hoh_analyze.py (all four rule families).

The fixture tree (tests/lint_fixtures/) holds deliberately-bad snippets;
every line that must be flagged carries a trailing `// EXPECT: <rule>`
annotation (comma-separated for several findings on one line). The test
runs each tool over its fixture tree and asserts the set of (file, line,
rule) findings equals the set of expectations EXACTLY — a rule that fails
to fire is as much a failure as a spurious finding, so both false
negatives and false positives in the tools regress loudly.

Also covered: the analyzer's baseline ratchet (grandfathered findings
suppressed, new findings fatal, stale entries reported) and the
lock-order DOT/JSON artifacts.

Run directly (`python3 tools/lint/test_lint_rules.py`) or through ctest
(`lint_selftest`, part of the tier-1 suite).
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
LINT = REPO / "tools" / "lint" / "check_concurrency.py"
ANALYZE = REPO / "tools" / "analyze" / "hoh_analyze.py"
FIXTURES = REPO / "tests" / "lint_fixtures"

EXPECT_RE = re.compile(r"//\s*EXPECT:\s*(?P<rules>[\w,\s-]+?)\s*$")

# check_concurrency.py reports prose, not rule ids; map fixture EXPECT ids
# to an unambiguous substring of each rule's message.
LINT_RULE_SUBSTRINGS = {
    "lint-rule1": "naked synchronisation primitive",
    "lint-rule2": "raw std::thread",
    "lint-rule3": "detached thread",
    "lint-rule4": "raw `this`",
    "lint-rule5": "schedule_periodic call site over budget",
    "lint-rule6": "threading primitive in src/tenant/",
    "lint-rule6b": "without any HOH_GUARDED_BY",
}

SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}


def collect_expectations(root: pathlib.Path) -> set:
    expected = set()
    for path in sorted(root.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(REPO).as_posix()
        for lineno, line in enumerate(
                path.read_text().splitlines(), start=1):
            m = EXPECT_RE.search(line)
            if not m:
                continue
            for rule in m.group("rules").split(","):
                expected.add((rel, lineno, rule.strip()))
    return expected


def run(cmd):
    return subprocess.run(
        [sys.executable] + cmd, cwd=REPO, capture_output=True, text=True)


class ConcurrencyLintFixtures(unittest.TestCase):
    """Every check_concurrency.py rule fires exactly where expected."""

    def test_rules_fire_exactly(self):
        root = FIXTURES / "concurrency"
        proc = run([str(LINT), str(root)])
        self.assertEqual(proc.returncode, 1,
                         f"lint must fail on the bad fixtures:\n"
                         f"{proc.stdout}\n{proc.stderr}")
        actual = set()
        for line in proc.stdout.splitlines():
            m = re.match(r"(?P<file>[^:]+):(?P<line>\d+): (?P<msg>.*)", line)
            self.assertIsNotNone(m, f"unparseable finding line: {line!r}")
            rules = [rid for rid, sub in LINT_RULE_SUBSTRINGS.items()
                     if sub in m.group("msg")]
            self.assertEqual(
                len(rules), 1,
                f"finding maps to {rules!r} (need exactly one): {line!r}")
            rel = pathlib.Path(m.group("file"))
            rel = rel.relative_to(REPO).as_posix() if rel.is_absolute() \
                else rel.as_posix()
            actual.add((rel, int(m.group("line")), rules[0]))
        expected = collect_expectations(root)
        self.assertTrue(expected, "fixture tree has no EXPECT annotations?")
        missing = expected - actual
        spurious = actual - expected
        self.assertFalse(missing, f"rules failed to fire: {sorted(missing)}")
        self.assertFalse(spurious, f"spurious findings: {sorted(spurious)}")


class AnalyzerFixtures(unittest.TestCase):
    """Every hoh_analyze.py rule family fires exactly where expected."""

    @staticmethod
    def _run_analyzer(extra):
        return run([str(ANALYZE), "--paths", str(FIXTURES / "analyze")]
                   + extra)

    def _findings(self, proc):
        actual = set()
        for line in proc.stdout.splitlines():
            m = re.match(
                r"(?P<file>[^:]+):(?P<line>\d+): (?P<rule>[\w-]+): ", line)
            self.assertIsNotNone(m, f"unparseable finding line: {line!r}")
            actual.add((m.group("file"), int(m.group("line")),
                        m.group("rule")))
        return actual

    def test_rules_fire_exactly(self):
        proc = self._run_analyzer(["--no-baseline"])
        self.assertEqual(proc.returncode, 1,
                         f"analyzer must fail on the bad fixtures:\n"
                         f"{proc.stdout}\n{proc.stderr}")
        actual = self._findings(proc)
        expected = collect_expectations(FIXTURES / "analyze")
        self.assertTrue(expected, "fixture tree has no EXPECT annotations?")
        missing = expected - actual
        spurious = actual - expected
        self.assertFalse(missing, f"rules failed to fire: {sorted(missing)}")
        self.assertFalse(spurious, f"spurious findings: {sorted(spurious)}")

    def test_every_rule_family_covered(self):
        """The fixture tree exercises all four families (plus the
        suppression meta-rule), so a new rule without a fixture fails."""
        rules = {r for (_, _, r) in collect_expectations(FIXTURES / "analyze")}
        for family in ("det-wallclock", "det-rand", "det-unseeded-rng",
                       "det-unordered-emit", "lock-order-cycle",
                       "lock-order-self", "state-write", "guard-missing",
                       "guard-local-mutex", "wire-encoding",
                       "suppression-unjustified"):
            self.assertIn(family, rules,
                          f"no fixture exercises {family}")

    def test_baseline_ratchet(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = pathlib.Path(tmp) / "baseline.json"
            wrote = self._run_analyzer(
                ["--write-baseline", "--baseline", str(baseline)])
            self.assertEqual(wrote.returncode, 0, wrote.stderr)
            data = json.loads(baseline.read_text())
            self.assertGreater(len(data["findings"]), 0)

            # Grandfathered: same tree + full baseline -> clean exit.
            clean = self._run_analyzer(["--baseline", str(baseline)])
            self.assertEqual(clean.returncode, 0,
                             f"baselined run must pass:\n{clean.stdout}")
            self.assertEqual(clean.stdout.strip(), "",
                             "baselined findings must not be printed")

            # Ratchet: drop one entry -> that finding is new again.
            dropped = data["findings"][0]
            data["findings"] = data["findings"][1:]
            baseline.write_text(json.dumps(data))
            dirty = self._run_analyzer(["--baseline", str(baseline)])
            self.assertEqual(dirty.returncode, 1,
                             "a finding missing from the baseline must fail")
            self.assertIn(dropped["rule"], dirty.stdout)

            # Stale entries (fixed findings) are reported, not fatal.
            data["findings"] = json.loads(
                (pathlib.Path(tmp) / "baseline.json").read_text()
            )["findings"]
            extra = dict(data["findings"][0])
            extra["fingerprint"] = "feedfacefeed"
            restored = self._run_analyzer(
                ["--write-baseline", "--baseline", str(baseline)])
            self.assertEqual(restored.returncode, 0, restored.stderr)
            data = json.loads(baseline.read_text())
            data["findings"].append(extra)
            baseline.write_text(json.dumps(data))
            stale = self._run_analyzer(["--baseline", str(baseline)])
            self.assertEqual(stale.returncode, 0,
                             "stale baseline entries must not fail the run")
            self.assertIn("1 stale", stale.stderr)

    def test_lock_order_artifacts(self):
        with tempfile.TemporaryDirectory() as tmp:
            dot = pathlib.Path(tmp) / "lock_order.dot"
            graph = pathlib.Path(tmp) / "lock_order.json"
            self._run_analyzer(["--no-baseline", "--dot", str(dot),
                                "--graph-json", str(graph)])
            data = json.loads(graph.read_text())
            self.assertIn("Pair::a_", data["nodes"])
            edges = {(e["from"], e["to"]) for e in data["edges"]}
            self.assertIn(("Pair::a_", "Pair::b_"), edges)
            self.assertIn(("Pair::b_", "Pair::a_"), edges)
            self.assertIn(("IpcLeft::mu_", "IpcRight::mu_"), edges,
                          "interprocedural edge missing")
            cycles = {frozenset(c) for c in data["cycles"]}
            self.assertIn(frozenset({"Pair::a_", "Pair::b_"}), cycles)
            self.assertIn(frozenset({"IpcLeft::mu_", "IpcRight::mu_"}),
                          cycles)
            text = dot.read_text()
            self.assertIn("digraph lock_order", text)
            self.assertIn('"Pair::a_" -> "Pair::b_"', text)

    def test_src_tree_is_clean(self):
        """The real tree passes with the checked-in baseline — the same
        gate CI runs (over compile_commands.json there; the file set for
        src/ is identical)."""
        proc = run([str(ANALYZE), "--paths", "src"])
        self.assertEqual(
            proc.returncode, 0,
            f"hoh_analyze found new findings in src/:\n{proc.stdout}")


class SrcTreeLint(unittest.TestCase):
    def test_src_tree_is_clean(self):
        proc = run([str(LINT)])
        self.assertEqual(
            proc.returncode, 0,
            f"check_concurrency found violations in src/:\n{proc.stdout}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
