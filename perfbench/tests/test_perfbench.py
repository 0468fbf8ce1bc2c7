"""Tests of the benchmark itself: its reference routes agree with the
program, each checker rejects a planted wrong answer, and a tiny run
completes with repeatable traced counts.

    python3 -m unittest discover perfbench/tests
"""

import copy
import io
import json
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import reference as R  # noqa: E402
import workloads  # noqa: E402
from kcforbits import cli  # noqa: E402
from kcforbits import (  # noqa: E402
    build_closure_graph,
    codimension,
    degenerates_to,
    eigenvalues,
    enumerate_structures,
    label_matchings,
    parse_structure,
    reachable,
    structure_to_json_dict,
)


def ref(K):
    return R.from_json(structure_to_json_dict(K))


class ReferenceAgreesWithProgram(unittest.TestCase):
    def test_codimension_and_structure_count_up_to_6x6(self):
        for m in range(1, 7):
            for n in range(1, 7):
                nodes = enumerate_structures(m, n)
                self.assertEqual(len(nodes), len(R.canonical_structures(m, n)), (m, n))
                self.assertEqual(
                    {checks.signature(ref(K)) for K in nodes},
                    {checks.signature(S) for S in R.canonical_structures(m, n)})
                for K in nodes:
                    self.assertEqual(R.codim(ref(K)), codimension(K), str(K))

    def test_pair_count_and_closure_over_all_matchings(self):
        for m, n in ((3, 3), (2, 4), (3, 2)):
            nodes = enumerate_structures(m, n)
            pairs = [(L, M) for M in nodes for L0 in nodes
                     for L in label_matchings(L0, eigenvalues(M))]
            self.assertEqual(R.pair_count([ref(K) for K in nodes]), len(pairs))
            for L, M in pairs:
                self.assertEqual(R.in_closure(ref(L), ref(M)), degenerates_to(L, M))

    def test_questions_repeat_for_a_seed(self):
        w = workloads.WORKLOADS["queries"]
        self.assertGreaterEqual(len(workloads.questions(w, 3)), 400)
        self.assertEqual(workloads.questions(w, 3), workloads.questions(w, 3))


class CheckersRejectWrongAnswers(unittest.TestCase):
    def question(self, kind, **texts):
        return {"kind": kind, **texts,
                "ref": {key: ref(parse_structure(text)) for key, text in texts.items()}}

    def test_codim_and_tangent(self):
        q = self.question("codim", K="J(2;e1) + L(1)")
        good = {"codim": 4, "dim": 2 * 3 * 4 - 4}
        self.assertEqual(codimension(parse_structure(q["K"])), 4)
        self.assertEqual(checks.check_question(q, good), [])
        self.assertTrue(checks.check_question(q, {**good, "codim": 5}))
        self.assertTrue(checks.check_question(q, {**good, "dim": good["dim"] + 1}))
        t = self.question("tangent", K="J(2;e1) + L(1)")
        self.assertEqual(checks.check_question(t, {"codim": 4}), [])
        self.assertTrue(checks.check_question(t, {"codim": 3}))
        self.assertTrue(checks.check_question(t, {"error": "ArithmeticError()"}))

    def test_closure(self):
        q = self.question("closure", L="J(2;e1) + J(1;e1)", M="J(3;e1)")
        good = {"in_closure": False, "h": 0, "codim_L": 5, "codim_M": 3}
        self.assertEqual(checks.check_question(q, good), [])
        self.assertTrue(checks.check_question(q, {**good, "in_closure": True}))
        self.assertTrue(checks.check_question(q, {**good, "codim_M": 4}))

    def test_path(self):
        q = self.question("path", M="L(0) + LT(0) + J(1;e1)", L="J(2;e1)")
        path = [step.to_json_dict() for step in reachable(
            parse_structure(q["M"]), parse_structure(q["L"]))]
        self.assertGreaterEqual(len(path), 2)
        self.assertEqual(checks.check_question(q, {"path": path}), [])
        self.assertTrue(checks.check_question(q, {"path": path[:-1]}))
        self.assertTrue(checks.check_question(q, {"path": None}))
        self.assertTrue(checks.check_question(q, {"path": path[::-1]}))
        no = self.question("path", M="J(3;e1)", L="J(2;e1) + J(1;e1)")
        self.assertEqual(checks.check_question(no, {"path": None}), [])
        self.assertTrue(checks.check_question(no, {"path": []}))

    def test_verify_report(self):
        nodes = enumerate_structures(3, 3)
        pairs = R.pair_count([ref(K) for K in nodes])

        def report(suite, pair_count):
            return {"size": [3, 3], "passed": True, "node_count": len(nodes),
                    "pair_count": pair_count,
                    "checks": [{"check_id": cid, "passed": True} for cid in checks.SUITE_CHECKS[suite]]}

        suites = ["dim", "rules", "formulas"]
        good = {"all_passed": True, "reports": {"dim": report("dim", pairs),
                                                "rules": report("rules", pairs),
                                                "formulas": report("formulas", 6 * len(nodes))}}
        self.assertEqual(checks.check_verify(3, 3, suites, good), [])
        for suite, key, value in (("dim", "pair_count", pairs + 1),
                                  ("rules", "passed", False),
                                  ("formulas", "pair_count", 5 * len(nodes)),
                                  ("dim", "node_count", len(nodes) - 1),
                                  ("rules", "size", [3, 4])):
            bad = copy.deepcopy(good)
            bad["reports"][suite][key] = value
            self.assertTrue(checks.check_verify(3, 3, suites, bad), (suite, key))
        bad = copy.deepcopy(good)
        del bad["reports"]["rules"]
        self.assertTrue(checks.check_verify(3, 3, suites, bad))
        bad = {"all_passed": True, "reports": {}}
        self.assertTrue(checks.check_verify(3, 3, ["dim"], bad))
        bad = copy.deepcopy(good)
        bad["reports"]["formulas"]["checks"].pop()
        self.assertTrue(checks.check_verify(3, 3, suites, bad))
        bad = copy.deepcopy(good)
        bad["reports"]["dim"]["checks"][1]["passed"] = False
        self.assertTrue(checks.check_verify(3, 3, suites, bad))
        self.assertTrue(checks.check_command(("verify", "3", "3"), {"code": 2, "stdout": ""}))

    def test_verify_command_names_its_suites(self):
        out = io.StringIO()
        with redirect_stdout(out):
            self.assertEqual(cli.main(["verify", "2", "3", "--checks", "dim,formulas", "--json"]), 0)
        answer = {"code": 0, "stdout": out.getvalue()}
        self.assertEqual(checks.check_command(("verify", "2", "3", "--checks", "dim,formulas"), answer), [])
        self.assertTrue(checks.check_command(("verify", "2", "3", "--checks", "dim,rules,formulas"), answer))

    def test_graph(self):
        good = build_closure_graph(enumerate_structures(3, 3)).to_json_dict()
        self.assertEqual(checks.check_graph(3, 3, good), [])
        bad = copy.deepcopy(good)
        bad["nodes"][4]["codim"] += 1
        self.assertTrue(checks.check_graph(3, 3, bad))
        bad = copy.deepcopy(good)
        bad["edges"].pop(len(bad["edges"]) // 2)
        self.assertTrue(checks.check_graph(3, 3, bad))
        bad = copy.deepcopy(good)
        i, j = bad["edges"][0]
        bad["edges"][0] = [j, i]
        self.assertTrue(checks.check_graph(3, 3, bad))
        bad = copy.deepcopy(good)
        bad["nodes"].pop()
        bad["edges"] = [e for e in bad["edges"] if len(bad["nodes"]) not in e]
        self.assertTrue(checks.check_graph(3, 3, bad))

    def test_graph_refuses_a_transitive_edge(self):
        good = build_closure_graph(enumerate_structures(4, 4)).to_json_dict()
        self.assertEqual(checks.check_graph(4, 4, good), [])
        below = {}
        for i, j in good["edges"]:
            below.setdefault(i, []).append(j)
        i, k, j = next((i, k, j) for i, ks in below.items() for k in ks for j in below.get(k, ()))
        bad = copy.deepcopy(good)
        bad["edges"].append([i, j])
        self.assertEqual(checks.check_graph(4, 4, bad), [f"edge {i}->{j} is not a covering pair"])

    def test_enumerated(self):
        self.assertEqual(checks.check_enumerated({"3x3": len(enumerate_structures(3, 3))}), [])
        self.assertTrue(checks.check_enumerated({"3x3": len(enumerate_structures(3, 3)) + 1}))


class SmokeRun(unittest.TestCase):
    def run_bench(self, trace):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "5",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_untraced_and_traced_runs(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = self.run_bench(0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec["end_to_end"]])
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
        first, second = self.run_bench(1), self.run_bench(1)
        self.assertEqual(list(first["metrics"]), [m["name"] for m in spec["per_layer"]])
        counts = {k for k, m in first["metrics"].items() if m["unit"] in ("count", "ratio")}
        self.assertTrue(counts)
        for key in counts:
            self.assertEqual(first["metrics"][key], second["metrics"][key], key)


if __name__ == "__main__":
    unittest.main()
