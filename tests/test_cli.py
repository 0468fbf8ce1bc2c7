import io
import json
import os
import subprocess
import sys
import time

import pytest

from conftest import check_dot
from kcforbits import cli, core
from kcforbits.cli import main
from kcforbits.closure import build_closure_graph
from kcforbits.verify import cross_validate_characterizations, enumerate_structures


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCodim:
    def test_zero_pencil(self, capsys):
        code, out, _ = run(capsys, "codim", "L(0) + LT(0)")
        assert code == 0
        assert out == "codim=2 dim=0\n"

    def test_jordan_chain(self, capsys):
        code, out, _ = run(capsys, "codim", "J(2;e1) + J(1;e1)")
        assert code == 0
        assert out == "codim=5 dim=13\n"


class TestClosure:
    def test_yes(self, capsys):
        code, out, _ = run(capsys, "closure", "J(1;e1)", "L(0) + LT(0)")
        assert code == 0
        assert "M in closure(O(L)): yes" in out
        assert "h = rank(L) - rank(M) = 1" in out
        assert "j=1: 1 <= 1" in out

    def test_no(self, capsys):
        code, out, _ = run(capsys, "closure", "L(0) + LT(0)", "J(1;e1)")
        assert code == 3
        assert "M in closure(O(L)): no" in out

    def test_size_mismatch_is_usage_error(self, capsys):
        code, _, err = run(capsys, "closure", "J(1;e1)", "L(1)")
        assert code == 64
        assert "error" in err


class TestPath:
    def test_one_step(self, capsys):
        code, out, _ = run(capsys, "path", "J(2;e1) + J(1;e1)", "J(3;e1)")
        assert code == 0
        assert "rule 5" in out

    def test_unreachable(self, capsys):
        code, out, _ = run(capsys, "path", "J(3;e1)", "J(2;e1) + J(1;e1)")
        assert code == 3
        assert out == "unreachable\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "path", "L(0) + LT(0)", "J(1;e1)", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "reachable": True,
            "path": [{"rule": 6, "p": 0, "q": 0, "parts": [{"size": 1, "mu": "e1"}]}],
        }

    def test_no_prune(self, capsys):
        code, out, _ = run(capsys, "path", "L(0) + LT(0)", "J(1;e1)", "--no-prune")
        assert code == 0

    @pytest.mark.parametrize("flags", [(), ("--no-prune",)])
    def test_expansion_budget_exits_70(self, capsys, monkeypatch, flags):
        # the path takes two steps, so the search expands two structures
        pair = ("J(1;e1) + J(1;e1) + J(1;e1)", "J(3;e1)")
        monkeypatch.setenv("KCF_MAX_PAIRS", "2")
        assert run(capsys, "path", *pair, *flags)[0] == 0
        monkeypatch.setenv("KCF_MAX_PAIRS", "1")
        code, out, err = run(capsys, "path", *pair, *flags)
        assert code == 70
        assert out == ""
        assert err.startswith("guard limit: reachability from ") and err.count("\n") == 1


class TestEnumerate:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1", "1")
        assert code == 0
        assert "total: 3" in out
        assert "J(1;e1)  codim=1 dim=1" in out

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 11
        assert all({"structure", "notation", "codim", "dim"} <= set(e) for e in payload)

    def test_pool_option(self, capsys):
        code_small, out_small, _ = run(capsys, "enumerate", "2", "2", "--pool", "1")
        code_big, out_big, _ = run(capsys, "enumerate", "2", "2", "--pool", "2")
        assert code_small == code_big == 0
        assert len(out_small.splitlines()) < len(out_big.splitlines())


@pytest.mark.parametrize("command", ["verify", "enumerate", "graph"])
@pytest.mark.parametrize("m, n", [("2", "99999999999999999999"), ("1000001", "1")])
def test_oversized_dimension_exits_70(capsys, command, m, n):
    # refused by enumerate_structures before any work, as in structure notation
    start = time.perf_counter()
    code, out, err = run(capsys, command, m, n)
    assert time.perf_counter() - start < 1
    assert code == 70
    assert out == ""
    assert err == f"guard limit: pencil of size {m}x{n} (at most 10^6 per dimension allowed)\n"


class TestGraph:
    def test_dot_valid_and_edges_match(self, capsys):
        code, out, _ = run(capsys, "graph", "2", "2", "--dot")
        assert code == 0
        dot_edges = {(int(a[1:]), int(b[1:])) for a, b in check_dot(out)}
        graph = build_closure_graph(enumerate_structures(2, 2))
        assert dot_edges == set(graph.edges)

    def test_json(self, capsys):
        code, out, _ = run(capsys, "graph", "1", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["nodes"]) == 3
        assert sorted(payload["edges"]) == [[1, 0], [2, 0]]

    def test_text(self, capsys):
        code, out, _ = run(capsys, "graph", "1", "1")
        assert code == 0
        assert "->" in out

    def test_pair_budget_exits_70(self, capsys, monkeypatch):
        # 11 nodes at 2x2, so the graph needs 121 node pairs
        monkeypatch.setenv("KCF_MAX_PAIRS", "121")
        assert run(capsys, "graph", "2", "2", "--json")[0] == 0
        monkeypatch.setenv("KCF_MAX_PAIRS", "120")
        code, out, err = run(capsys, "graph", "2", "2", "--json")
        assert code == 70
        assert out == ""
        assert err == "guard limit: pair budget 120 exceeded (11 nodes)\n"

    def test_default_budget_refuses_10x10(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "graph", "10", "10")
        assert time.perf_counter() - start < 30
        assert code == 70
        assert out == ""
        assert err == "guard limit: pair budget 10000000 exceeded (15455 nodes)\n"


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "2", "2")
        assert code == 0
        assert "all checks passed" in out

    def test_single_suite_json(self, capsys):
        code, out, _ = run(capsys, "verify", "1", "2", "--checks", "dim", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"]
        assert list(payload["reports"]) == ["dim"]

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "1", "1", "--checks", "nope")
        assert code == 64

    @pytest.mark.parametrize("checks", ["", ","])
    def test_no_suite_is_usage_error(self, capsys, checks):
        code, out, err = run(capsys, "verify", "3", "3", "--checks", checks, "--json")
        assert code == 64
        assert out == ""
        assert err == "error: no checks selected (choose from dim, rules, formulas)\n"

    def test_injected_fault_exits_2(self, capsys, monkeypatch):
        # negated codimensions fail exactly codim_monotone at 1x1
        real = core.block_invariants
        monkeypatch.setattr(core, "block_invariants",
                            lambda *blocks: (inv := real(*blocks))._replace(codim=-inv.codim))
        code, out, _ = run(capsys, "verify", "1", "1", "--checks", "dim")
        assert code == 2
        assert "violations found" in out
        assert "FAIL codim_monotone" in out and out.count("FAIL") == 1

    def test_guard_limit_exits_70(self, capsys, monkeypatch):
        monkeypatch.setenv("KCF_MAX_PAIRS", "3")
        code, _, err = run(capsys, "verify", "2", "2")
        assert code == 70
        assert "guard limit" in err

    @pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
    def test_bad_max_pairs_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("KCF_MAX_PAIRS", value)
        code, out, err = run(capsys, "verify", "2", "2")
        assert code == 64
        assert out == ""
        assert err == f"error: KCF_MAX_PAIRS must be a non-negative integer, got {value!r}\n"

    def test_exact_pair_budget_exits_70(self, capsys, monkeypatch):
        # 32 nodes at 3x3, and each pair suite checks 1554 pairs
        argv = ("verify", "3", "3", "--checks", "dim,rules")
        monkeypatch.setenv("KCF_MAX_PAIRS", "1554")
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setenv("KCF_MAX_PAIRS", "1553")
        code, out, err = run(capsys, *argv)
        assert code == 70
        assert out == ""
        assert err == "guard limit: pair budget 1553 exceeded (32 nodes)\n"

    def test_rule_search_budget_exits_70(self, capsys, monkeypatch):
        def tight(m, n, **kwargs):
            return cross_validate_characterizations(m, n, **{**kwargs, "max_expansions": 1})

        monkeypatch.setitem(cli._SUITES, "rules", tight)
        code, out, err = run(capsys, "verify", "3", "3", "--checks", "rules")
        assert code == 70
        assert out == ""
        assert err.startswith("guard limit: reachability from ")


class TestRealize:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "realize", "J(1;e1)", "--assign", "e1=5")
        assert code == 0
        assert "[-5]" in out and "[1]" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "realize", "J(1;e1) + L(1)", "--assign", "e1=7/2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 2 and payload["n"] == 3
        assert payload["a"][0][0] == "-7/2"

    def test_bad_assignment(self, capsys):
        code, _, err = run(capsys, "realize", "J(1;e1)", "--assign", "e1")
        assert code == 64

    def test_empty_chunk_is_skipped(self, capsys):
        plain = run(capsys, "realize", "J(1;e1)", "--assign", "e1=5")
        assert plain[0] == 0
        assert run(capsys, "realize", "J(1;e1)", "--assign", "e1=5,") == plain

    @pytest.mark.parametrize("assign, message", [
        ("inf=2", "error: the infinity label takes no assigned value"),
        ("e1=1/0", "error: bad rational '1/0'"),
        ("e1=x", "error: bad rational 'x'"),
        ("e1=5,e1=6", "error: label e1 is assigned twice"),
    ], ids=["infinity", "zero-denominator", "not-a-number", "repeated-label"])
    def test_refused_assignment_exits_64(self, capsys, assign, message):
        code, out, err = run(capsys, "realize", "J(1;e1)", "--assign", assign)
        assert code == 64
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1

    def test_cell_budget_exits_70(self, capsys, monkeypatch):
        # a 2x3 pencil has 2*2*3 = 12 cells in A and B
        monkeypatch.setenv("KCF_MAX_PAIRS", "12")
        assert run(capsys, "realize", "J(1;e1) + L(1)")[0] == 0
        monkeypatch.setenv("KCF_MAX_PAIRS", "11")
        code, out, err = run(capsys, "realize", "J(1;e1) + L(1)")
        assert code == 70
        assert out == ""
        assert err.startswith("guard limit: cell budget 11 exceeded") and err.count("\n") == 1


class TestTangentCodim:
    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "tangent-codim", "J(2;e1) + J(1;e1)")
        assert code == 0
        assert "formula codim = 5" in out
        assert "tangent codim = 5" in out

    def test_cell_budget_exits_70(self, capsys, monkeypatch):
        # the tangent matrix of a 2x3 pencil is 12 x (4 + 9): 156 cells
        monkeypatch.setenv("KCF_MAX_PAIRS", "156")
        assert run(capsys, "tangent-codim", "J(1;e1) + L(1)")[0] == 0
        monkeypatch.setenv("KCF_MAX_PAIRS", "155")
        code, out, err = run(capsys, "tangent-codim", "J(1;e1) + L(1)")
        assert code == 70
        assert out == ""
        assert err.startswith("guard limit: cell budget 155 exceeded") and err.count("\n") == 1


class TestErrorChannels:
    def test_parse_error_exits_65(self, capsys):
        code, _, err = run(capsys, "codim", "J(2;")
        assert code == 65
        assert "notation error" in err

    def test_domain_error_exits_65(self, capsys):
        code, _, err = run(capsys, "codim", "J(0;e1)")
        assert code == 65

    def test_usage_error_exits_64(self, capsys):
        code, _, _ = run(capsys, "bogus")
        assert code == 64
        code, _, _ = run(capsys, "codim")
        assert code == 64

    @pytest.mark.parametrize("text", [
        "J(" + "9" * 5000 + ";e1)",
        "L(" + "9" * 5000 + ")",
        "J(1;e" + "9" * 5000 + ")",
        "J(99999999999;e1)",
    ], ids=["jordan-5000-digits", "L-5000-digits", "label-5000-digits", "jordan-11-digits"])
    def test_oversized_integer_exits_70(self, capsys, text):
        start = time.perf_counter()
        code, out, err = run(capsys, "codim", text)
        assert time.perf_counter() - start < 1
        assert code == 70
        assert out == ""
        assert err.startswith("guard limit: ") and err.count("\n") == 1

    def test_oversized_pencil_exits_70(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "codim", "J(999999;e1) + J(999999;e2)")
        assert time.perf_counter() - start < 1
        assert code == 70
        assert out == ""
        assert err.startswith("guard limit: pencil of size 1999998x1999998") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["realize", "tangent-codim"])
    def test_large_legal_pencil_exits_70(self, capsys, monkeypatch, command):
        parsed = []
        parse_structure = cli.parse_structure

        def parse(text):
            parsed.append(parse_structure(text))
            return parsed[-1]

        monkeypatch.setattr(cli, "parse_structure", parse)
        start = time.perf_counter()
        code, out, err = run(capsys, command, "L(999999)")
        assert time.perf_counter() - start < 1
        # the guard read the size from the blocks, not from the invariants
        assert len(parsed) == 1 and parsed[0]._inv is None
        assert code == 70
        assert out == ""
        assert err.startswith("guard limit: cell budget 10000000 exceeded") and err.count("\n") == 1

    def test_largest_block_answers(self, capsys):
        code, out, _ = run(capsys, "codim", "J(999999;e1)")
        assert code == 0
        assert out == "codim=999999 dim=1999995000003\n"

    def test_invariant_violation_exits_2(self, capsys, monkeypatch):
        # with every codimension 0, the graph's first covering edge fails its check
        real = core.block_invariants
        monkeypatch.setattr(core, "block_invariants",
                            lambda *blocks: real(*blocks)._replace(codim=0))
        code, out, err = run(capsys, "graph", "2", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("invariant violated: covering edge") and err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "verify" in out


class TestByteStability:
    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "2", "2", "--json"),
            ("graph", "2", "2", "--json"),
            ("verify", "1", "2", "--json"),
            ("realize", "J(1;e1) + L(1)", "--json"),
            ("path", "L(0) + LT(0)", "J(1;e1)", "--json"),
        ],
    )
    def test_json_identical_across_runs(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()

    def test_golden_enumerate_1x1(self, capsys):
        _, out, _ = run(capsys, "enumerate", "1", "1", "--json")
        assert json.loads(out) == [
            {
                "structure": {"jordan": [], "right": [0], "left": [0]},
                "notation": "L(0) + LT(0)",
                "codim": 2,
                "dim": 0,
            },
            {
                "structure": {"jordan": [{"eig": "e1", "size": 1}], "right": [], "left": []},
                "notation": "J(1;e1)",
                "codim": 1,
                "dim": 1,
            },
            {
                "structure": {"jordan": [{"eig": "inf", "size": 1}], "right": [], "left": []},
                "notation": "J(1;inf)",
                "codim": 1,
                "dim": 1,
            },
        ]


class _ClosedPipe(io.TextIOBase):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedPipe:
    def test_in_process_exits_0(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = main(["graph", "2", "2", "--json"])
        # the rest of the output, and the final flush, go to devnull
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_reader_closing_after_one_line(self):
        argv = [sys.executable, "-m", "kcforbits.cli", "graph", "6", "6", "--json"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()  # the output is far larger than a pipe's buffer
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""
