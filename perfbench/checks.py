"""Checks of the program's answers against :mod:`reference`.

Every function returns a list of problems; an empty list means the answer
is right.  None of them trusts a saved copy of an earlier answer.
"""

import json
from collections import Counter
from functools import cache

import reference as R

FORMULA_SEEDS = 5  # random equivalences per structure in the formulas suite

# The checks each suite of ``kcf verify`` must report, all of them passed.
SUITE_CHECKS = {
    "dim": ("codim_monotone", "codim_equality_iff_same_orbit",
            "equality_forces_equal_majorizations"),
    "rules": ("majorization_matches_reachability",),
    "formulas": ("rank_identity", "size_identities", "codim_matches_tangent_corank",
                 "codim_invariant_under_equivalence"),
}


@cache
def _nodes(m, n):
    return tuple(R.canonical_structures(m, n))


def signature(S):
    """S up to renaming its finite eigenvalues."""
    segre = {}
    for lbl, s in S[0]:
        segre.setdefault(lbl, []).append(s)
    inf = tuple(sorted(segre.pop(R.INF, ())))
    return (inf, tuple(sorted(tuple(sorted(v)) for v in segre.values())), S[1], S[2])


def check_enumerated(enumerated):
    """Structure counts of the set-up's enumerate_structures calls."""
    problems = []
    for key, count in enumerated.items():
        want = len(_nodes(*map(int, key.split("x"))))
        if count != want:
            problems.append(f"enumerate_structures({key}) gave {count} structures, expected {want}")
    return problems


def check_command(argv, answer):
    if "error" in answer:
        return [f"kcf {' '.join(argv)} raised {answer['error']}"]
    if answer["code"] != 0:
        return [f"kcf {' '.join(argv)} exited with {answer['code']}"]
    m, n = int(argv[1]), int(argv[2])
    try:
        payload = json.loads(answer["stdout"])
        if argv[0] == "verify":
            suites = argv[argv.index("--checks") + 1] if "--checks" in argv else ",".join(SUITE_CHECKS)
            return check_verify(m, n, suites.split(","), payload)
        return check_graph(m, n, payload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"kcf {' '.join(argv)}: unreadable output ({exc!r})"]


def check_verify(m, n, suites, payload):
    """Exactly the requested suites, each at size m x n with every one of
    its checks passed, and node and pair counts from the reference."""
    nodes = _nodes(m, n)
    problems = [] if payload["all_passed"] else ["all_passed is false"]
    reports = payload["reports"]
    if sorted(reports) != sorted(suites):
        problems.append(f"suites {sorted(reports)} reported, {sorted(suites)} requested")
    for suite, report in reports.items():
        if report["size"] != [m, n]:
            problems.append(f"suite {suite}: size {report['size']}, expected {[m, n]}")
        if not report["passed"]:
            problems.append(f"suite {suite} did not pass")
        checks = {c["check_id"]: c["passed"] for c in report["checks"]}
        if sorted(checks) != sorted(SUITE_CHECKS.get(suite, ())):
            problems.append(f"suite {suite}: checks {sorted(checks)}, expected {sorted(SUITE_CHECKS.get(suite, ()))}")
        problems += [f"suite {suite}: check {cid} failed" for cid, ok in checks.items() if not ok]
        if report["node_count"] != len(nodes):
            problems.append(f"suite {suite}: node_count {report['node_count']}, expected {len(nodes)}")
        expected = len(nodes) * (FORMULA_SEEDS + 1) if suite == "formulas" else R.pair_count(nodes)
        if report["pair_count"] != expected:
            problems.append(f"suite {suite}: pair_count {report['pair_count']}, expected {expected}")
    return problems


def check_graph(m, n, payload):
    """Node set and codimensions, the theorem on every edge, and the edge
    set against the reference Hasse diagram over the same nodes."""
    problems = []
    nodes = tuple(R.from_json(node["structure"]) for node in payload["nodes"])
    if Counter(map(signature, nodes)) != Counter(map(signature, _nodes(m, n))):
        problems.append("node set differs from the canonical structures")
    for node, S in zip(payload["nodes"], nodes):
        if node["codim"] != R.codim(S):
            problems.append(f"{node['notation']}: codim {node['codim']}, expected {R.codim(S)}")
    edges = {(i, j) for i, j in payload["edges"]}
    for i, j in sorted(edges):
        if not R.codim(nodes[i]) < R.codim(nodes[j]):
            problems.append(f"edge {i}->{j} does not raise the codimension")
    want = R.hasse_edges(nodes)
    problems += [f"edge {i}->{j} is not a covering pair" for i, j in sorted(edges - want)]
    problems += [f"covering pair {i}->{j} has no edge" for i, j in sorted(want - edges)]
    if len(payload["edges"]) != len(edges):
        problems.append("repeated edges")
    return problems


def check_question(q, answer):
    if "error" in answer:
        return [f"{q['kind']} raised {answer['error']}"]
    ref = q["ref"]
    kind = q["kind"]
    if kind in ("codim", "tangent"):
        K = ref["K"]
        want = R.codim(K)
        problems = [] if answer["codim"] == want else [f"codim {answer['codim']}, expected {want}"]
        if kind == "codim":
            m, n = R.size(K)
            if answer["dim"] != 2 * m * n - want:
                problems.append(f"dim {answer['dim']}, expected {2 * m * n - want}")
        return problems
    L, M = ref["L"], ref["M"]
    yes = R.in_closure(L, M)
    if kind == "closure":
        want = {"in_closure": yes, "h": R.rank(L) - R.rank(M),
                "codim_L": R.codim(L), "codim_M": R.codim(M)}
        return [f"{key} {answer[key]}, expected {value}"
                for key, value in want.items() if answer[key] != value]
    path = answer["path"]
    if path is None:
        return ["no path, but M is in the closure of L's orbit"] if yes else []
    if not yes:
        return ["a path, but M is not in the closure of L's orbit"]
    problem = R.replay(M, L, path)
    return [problem] if problem else []
