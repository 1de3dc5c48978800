#!/usr/bin/env python3
"""Self-test for the project's source-rule engine, hoh_analyze.py (all seven
rule families, the suppression meta-rule and the path-keyed exemptions).

The fixture tree (tests/lint_fixtures/analyze/) holds deliberately-bad
snippets; every line that must be flagged carries a trailing
`// EXPECT: <rule>` annotation (comma-separated for several findings on one
line). Its src/ subtree mirrors real repo paths, so the path-keyed rules
(allowlists, periodic budget, src/tenant/, the src/net/,
src/common/random.* and trace-read exemptions) judge each fixture like
the file it mirrors; the unflagged lines there are the exemptions'
negative cases. The test runs the analyzer over the tree and asserts the
set of (file, line, rule) findings equals the set of expectations
EXACTLY — a rule that fails to fire is as much a failure as a spurious
finding, so both false negatives and false positives regress loudly.

Also covered: the lock-order DOT/JSON artifacts, a clean src/ tree and
an edgeless src/ lock-order graph.

Run directly (`python3 tools/analyze/test_rules.py`) or through ctest
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

ANALYZE = pathlib.Path(__file__).resolve().parent / "hoh_analyze.py"
sys.path.insert(0, str(ANALYZE.parent))
import hoh_analyze  # noqa: E402

REPO = ANALYZE.parent.parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures" / "analyze"

EXPECT_RE = re.compile(r"//\s*EXPECT:\s*(?P<rules>[\w,\s-]+?)\s*$")


def collect_expectations(root: pathlib.Path) -> set:
    expected = set()
    for path in sorted(root.rglob("*")):
        if path.suffix not in hoh_analyze.SOURCE_SUFFIXES \
                or not path.is_file():
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


def run_analyzer(*args):
    return subprocess.run(
        [sys.executable, str(ANALYZE), *args], cwd=REPO,
        capture_output=True, text=True)


class AnalyzerFixtures(unittest.TestCase):
    """Every hoh_analyze.py rule fires exactly where expected."""

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
        proc = run_analyzer("--paths", str(FIXTURES))
        self.assertEqual(proc.returncode, 1,
                         f"analyzer must fail on the bad fixtures:\n"
                         f"{proc.stdout}\n{proc.stderr}")
        actual = self._findings(proc)
        expected = collect_expectations(FIXTURES)
        self.assertTrue(expected, "fixture tree has no EXPECT annotations?")
        missing = expected - actual
        spurious = actual - expected
        self.assertFalse(missing, f"rules failed to fire: {sorted(missing)}")
        self.assertFalse(spurious, f"spurious findings: {sorted(spurious)}")

    def test_every_rule_family_covered(self):
        """The fixture tree exercises every rule id (plus the suppression
        meta-rule), so a new rule without a fixture fails."""
        families = (
            "conc-naked-primitive", "conc-raw-thread", "conc-detach",
            "conc-this-capture", "conc-periodic-budget", "tenant-threading",
            "det-wallclock", "det-rand", "det-unseeded-rng",
            "det-unordered-emit", "lock-order-cycle", "lock-order-self",
            "state-write", "guard-missing", "guard-local-mutex",
            "wire-encoding", "trace-read", "suppression-unjustified")
        self.assertEqual(set(families), set(hoh_analyze.RULES),
                         "RULES and this list must name the same ids")
        rules = {r for (_, _, r) in collect_expectations(FIXTURES)}
        for family in families:
            self.assertIn(family, rules,
                          f"no fixture exercises {family}")

    def test_lock_order_artifacts(self):
        with tempfile.TemporaryDirectory() as tmp:
            dot = pathlib.Path(tmp) / "lock_order.dot"
            graph = pathlib.Path(tmp) / "lock_order.json"
            run_analyzer("--paths", str(FIXTURES), "--dot", str(dot),
                         "--graph-json", str(graph))
            data = json.loads(graph.read_text())
            self.assertIn("Pair::a_", data["nodes"])
            edges = {(e["from"], e["to"]) for e in data["edges"]}
            self.assertIn(("Pair::a_", "Pair::b_"), edges)
            self.assertIn(("Pair::b_", "Pair::a_"), edges)
            self.assertIn(("IpcLeft::mu_", "IpcRight::mu_"), edges,
                          "interprocedural edge missing")
            # Calls resolve by qualification and receiver: the fixtures'
            # real nestings are edges, their false reverses are not.
            self.assertIn(("Wire::mu_", "Store::mu_"), edges)
            self.assertNotIn(("Store::mu_", "Wire::mu_"), edges,
                             "std::/::-qualified call resolved by name")
            self.assertIn(("Journal::mu_", "Ledger::mu_"), edges)
            self.assertNotIn(("Ledger::mu_", "Journal::mu_"), edges,
                             "member call resolved outside its class")
            self.assertIn(("Index::mu_", "Catalog::mu_"), edges)
            self.assertNotIn(("Catalog::mu_", "Index::mu_"), edges,
                             "HOH_GUARDED_BY member's type not recorded")
            cycles = {frozenset(c) for c in data["cycles"]}
            self.assertIn(frozenset({"Pair::a_", "Pair::b_"}), cycles)
            self.assertIn(frozenset({"IpcLeft::mu_", "IpcRight::mu_"}),
                          cycles)
            text = dot.read_text()
            self.assertIn("digraph lock_order", text)
            self.assertIn('"Pair::a_" -> "Pair::b_"', text)

    def test_src_tree_is_clean(self):
        """The real tree has no findings — the same gate CI runs (over
        compile_commands.json there; the file set for src/ is
        identical)."""
        proc = run_analyzer("--paths", "src")
        self.assertEqual(
            proc.returncode, 0,
            f"hoh_analyze found findings in src/:\n{proc.stdout}")

    def test_src_lock_graph_has_no_edges(self):
        """No src/ function takes a second lock while holding one, so the
        graph has no edges: a new one, real or a mis-resolved call, fails
        here instead of passing unseen in --graph-json."""
        with tempfile.TemporaryDirectory() as tmp:
            graph = pathlib.Path(tmp) / "lock_order.json"
            run_analyzer("--paths", "src", "--graph-json", str(graph))
            data = json.loads(graph.read_text())
            self.assertEqual(data["edges"], [],
                             "src/ lock-order graph has edges")


if __name__ == "__main__":
    unittest.main(verbosity=2)
