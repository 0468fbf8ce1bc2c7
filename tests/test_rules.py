import random
import subprocess
import sys

import pytest

from conftest import (
    bfs_reachable_path,
    bfs_reachable_structures,
    list_apply_rule,
    list_instances,
    list_successors,
    reservoir_canonical,
    shared_graph_reached,
    suite_sources,
)
from kcforbits import closure as closure_mod
from kcforbits import rules
from kcforbits import verify as verify_mod
from kcforbits.closure import degenerates_to
from kcforbits.core import (
    INFINITY,
    EigenvalueLabel,
    KroneckerStructure,
    codimension,
    eigenvalues,
    finite,
    rank_of,
    size_of,
    structure_from_key,
    structure_sort_key,
)
from kcforbits.errors import (
    BadParametersError,
    InvariantViolationError,
    MissingBlocksError,
    PoolTooSmallError,
    SearchBudgetExceededError,
    SizeMismatchError,
)
from kcforbits.notation import parse_structure
from kcforbits.rules import (
    RuleGraph,
    RuleInstance,
    applicable_instances,
    apply_rule,
    describe_instance,
    reachable,
    reachable_structures,
)
from kcforbits.verify import (
    cross_validate_characterizations,
    enumerate_structures,
    label_matchings,
)

e1, e2, e3 = finite(1), finite(2), finite(3)


def S(jordan=(), right=(), left=()):
    return KroneckerStructure(jordan, right, left)


ZERO_1x1 = S(right=[0], left=[0])


class TestRuleInstanceValidation:
    def test_rule_id_range(self):
        with pytest.raises(BadParametersError):
            RuleInstance(0)
        with pytest.raises(BadParametersError):
            RuleInstance(7)

    def test_j_k_ordering(self):
        with pytest.raises(BadParametersError):
            RuleInstance(1, j=2, k=1)
        with pytest.raises(BadParametersError):
            RuleInstance(5, j=0, k=1, mu=e1)
        RuleInstance(1, j=1, k=1)

    def test_eigenvalue_requirements(self):
        with pytest.raises(BadParametersError):
            RuleInstance(3, j=0, k=0)
        with pytest.raises(BadParametersError):
            RuleInstance(1, j=1, k=1, mu=e1)

    def test_rule6_parts(self):
        with pytest.raises(BadParametersError):
            RuleInstance(6, p=0, q=0, parts=())
        with pytest.raises(BadParametersError):
            RuleInstance(6, p=0, q=0, parts=((2, e1),))  # sizes must sum to 1
        with pytest.raises(BadParametersError):
            RuleInstance(6, p=1, q=0, parts=((1, e1), (1, e1)))  # labels repeat
        with pytest.raises(BadParametersError):
            RuleInstance(6, p=0, q=0, parts=((0, e1), (1, e2)))
        RuleInstance(6, p=1, q=1, parts=((2, e1), (1, INFINITY)))


class TestApplyRule:
    def test_rule1(self):
        assert apply_rule(S(right=[0, 2]), RuleInstance(1, j=1, k=1)) == S(right=[1, 1])

    def test_rule2(self):
        assert apply_rule(S(left=[0, 2]), RuleInstance(2, j=1, k=1)) == S(left=[1, 1])

    def test_rule3_drops_empty_jordan(self):
        K = S(jordan=[(e1, 1)], right=[0])
        assert apply_rule(K, RuleInstance(3, j=0, k=0, mu=e1)) == S(right=[1])

    def test_rule4(self):
        K = S(jordan=[(e1, 2)], left=[1])
        assert apply_rule(K, RuleInstance(4, j=1, k=1, mu=e1)) == S(jordan=[(e1, 1)], left=[2])

    def test_rule5(self):
        K = S(jordan=[(e1, 1), (e1, 2)])
        assert apply_rule(K, RuleInstance(5, j=1, k=2, mu=e1)) == S(jordan=[(e1, 3)])

    def test_rule6(self):
        inst = RuleInstance(6, p=0, q=0, parts=((1, e1),))
        assert apply_rule(ZERO_1x1, inst) == S(jordan=[(e1, 1)])

    def test_missing_blocks(self):
        with pytest.raises(MissingBlocksError):
            apply_rule(S(right=[1, 1]), RuleInstance(1, j=1, k=1))
        with pytest.raises(MissingBlocksError):
            apply_rule(ZERO_1x1, RuleInstance(5, j=1, k=1, mu=e1))

    def test_describe(self):
        text = describe_instance(RuleInstance(5, j=1, k=2, mu=e1))
        assert "J(1;e1)" in text and "J(3;e1)" in text

    def test_describe_keeps_part_order(self):
        # rule-6 parts render larger first, as the instance lists them, not by label
        inst = RuleInstance(6, p=1, q=1, parts=((1, e1), (2, e3)))
        assert describe_instance(inst) == "rule 6: L(1) + LT(1) ~> J(2;e3) + J(1;e1)"
        assert describe_instance(RuleInstance(1, j=1, k=1)) == "rule 1: L(0) + L(2) ~> L(1) + L(1)"
        assert describe_instance(RuleInstance(3, j=0, k=0, mu=e1)) == \
            "rule 3: J(1;e1) + L(0) ~> L(1)"


class TestApplicableInstances:
    def test_zero_structure(self):
        insts = applicable_instances(ZERO_1x1, [e1])
        assert [i.to_json_dict() for i in insts] == [
            {"rule": 6, "p": 0, "q": 0, "parts": [{"size": 1, "mu": "e1"}]}
        ]

    def test_rule5_found(self):
        K = S(jordan=[(e1, 1), (e1, 2)])
        insts = applicable_instances(K, [e1, e2, e3, finite(4)])
        assert RuleInstance(5, j=1, k=2, mu=e1) in insts

    def test_single_jordan_block_has_none(self):
        K = S(jordan=[(e1, 3)])
        assert applicable_instances(K, [e1, e2, e3, finite(4)]) == []

    def test_pool_must_cover_eigenvalues(self):
        with pytest.raises(PoolTooSmallError):
            applicable_instances(S(jordan=[(e1, 1)]), [e2])

    def test_pool_needs_fresh_labels(self):
        with pytest.raises(PoolTooSmallError):
            applicable_instances(S(jordan=[(e1, 3)]), [e1])

    def test_rule6_uses_existing_and_fresh_and_infinity(self):
        K = S(jordan=[(e1, 1)], right=[0], left=[0])  # 2x2
        insts = applicable_instances(K, [e1, e2, e3, INFINITY])
        parts = {i.parts for i in insts if i.rule_id == 6}
        assert ((1, e1),) in parts  # reuse of a live eigenvalue
        assert ((1, e2),) in parts  # one fresh representative
        assert ((1, INFINITY),) in parts
        assert ((1, e3),) not in parts  # second fresh label is symmetric

    def test_rule6_distinct_labels_within_instance(self):
        K = S(right=[1], left=[0])  # 2x3, consumes L(1) + LT(0): two parts possible
        insts = applicable_instances(K, [e1, e2, e3, INFINITY])
        for inst in insts:
            if inst.rule_id == 6:
                labels = [lbl for _, lbl in inst.parts]
                assert len(set(labels)) == len(labels)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 4) for n in range(1, 4)])
def test_applicable_instances_match_object_oracle(m, n):
    # the oracle sorts by the former tuple keys (conftest.oracle_instance_key),
    # here also with fresh labels e0 and ids past the integers a float holds exactly
    for fresh_ids in ((100, 101, 102), (0, 10**30, 10**30 + 1)):
        for K in enumerate_structures(m, n):
            evs = list(eigenvalues(K))
            fresh = [finite(i) for i in fresh_ids[:min(m, n)]]
            insts = applicable_instances(K, evs + [INFINITY] + fresh)
            existing = evs + ([] if INFINITY in evs else [INFINITY])
            assert insts == list_instances(K, existing, fresh), str(K)
            for inst in insts:
                assert rules._instance(inst.sort_key()) == inst
                assert apply_rule(K, inst) == list_apply_rule(K, inst), (str(K), inst)


class TestReachable:
    def test_one_step_rule6(self):
        path = reachable(ZERO_1x1, S(jordan=[(e1, 1)]))
        assert path == [RuleInstance(6, p=0, q=0, parts=((1, e1),))]

    def test_one_step_rule5(self):
        path = reachable(S(jordan=[(e1, 2), (e1, 1)]), S(jordan=[(e1, 3)]))
        assert path == [RuleInstance(5, j=1, k=2, mu=e1)]

    def test_codimension_forbids_reverse(self):
        assert reachable(S(jordan=[(e1, 3)]), S(jordan=[(e1, 2), (e1, 1)])) is None

    def test_empty_path(self):
        assert reachable(ZERO_1x1, ZERO_1x1) == []

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            reachable(ZERO_1x1, S(right=[1]))

    def test_eigenvalue_identity_respected(self):
        assert reachable(S(jordan=[(e2, 1)]), S(jordan=[(e1, 1)])) is None

    def test_infinity_target(self):
        path = reachable(ZERO_1x1, S(jordan=[(INFINITY, 1)]))
        assert path == [RuleInstance(6, p=0, q=0, parts=((1, INFINITY),))]

    def test_path_replays(self):
        M = S(right=[0, 0], left=[0, 0])  # zero 2x2
        L = S(jordan=[(e1, 1), (e2, 1)])
        path = reachable(M, L)
        assert path is not None
        state = M
        for inst in path:
            before = codimension(state)
            state = apply_rule(state, inst)
            assert codimension(state) < before
        assert state == L

    def test_multi_step_path(self):
        M = S(jordan=[(e1, 1), (e1, 1), (e1, 1)])
        L = S(jordan=[(e1, 3)])
        path = reachable(M, L)
        assert path is not None and len(path) == 2
        state = M
        for inst in path:
            state = apply_rule(state, inst)
        assert state == L

    def test_budget(self):
        M = S(jordan=[(e1, 1), (e1, 1), (e1, 1)])
        L = S(jordan=[(e1, 3)])
        assert len(reachable(M, L, max_expansions=2)) == 2
        with pytest.raises(SearchBudgetExceededError):
            reachable(M, L, max_expansions=1)

    def test_budget_covers_a_6x6_path(self):
        # unused reservoir labels are drawn once per coincidence pattern:
        # 375 expansions here, 2 052 when rule 6 draws every labelling
        M = parse_structure("J(1;inf) + J(2;inf) + L(0) + L(1) + LT(0) + LT(0)")
        L = parse_structure("J(5;e3) + J(1;e4)")
        path = reachable(M, L, max_expansions=400)
        assert path is not None and len(path) == 5
        state = M
        for inst in path:
            state = apply_rule(state, inst)
        assert state == L

    def test_pruned_search_tests_each_structure_once(self, monkeypatch):
        M = S(right=[0, 0, 0], left=[0, 0, 0])  # zero 3x3
        L = S(jordan=[(e1, 3)])
        oracle_calls, tested = [], []
        in_closure = rules._in_closure

        def counting_oracle(target, K):
            oracle_calls.append(K)
            return degenerates_to(target, K)

        def counting(target, child):
            tested.append(child)
            return in_closure(target, child)

        monkeypatch.setattr(closure_mod, "degenerates_to", counting_oracle)
        expected = bfs_reachable_path(M, L)
        assert len(oracle_calls) > len(set(oracle_calls))  # the oracle re-tests structures
        monkeypatch.setattr(rules, "_in_closure", counting)
        oracle_calls.clear()
        assert reachable(M, L) == expected
        assert not oracle_calls  # the search never builds a structure to test
        assert tested
        # a record's r, l and weyr fix its structure, so equal records are one child
        assert len(tested) == len(set(tested))
        assert all(child.codim > codimension(L) for child in tested)


def _all_pairs(m, n):
    nodes = enumerate_structures(m, n)
    for M in nodes:
        for L0 in nodes:
            for L in label_matchings(L0, eigenvalues(M)):
                yield M, L


@pytest.mark.parametrize("prune", [True, False])
def test_search_expands_only_structures_above_target(monkeypatch, prune):
    expanded = []
    expand = RuleGraph.successors

    def recording(graph, i, source):
        expanded.append(graph.structure(i))
        return expand(graph, i, source)

    monkeypatch.setattr(RuleGraph, "successors", recording)
    for M, L in _all_pairs(3, 3):
        expanded.clear()
        reachable(M, L, prune=prune)
        assert len(expanded) == len(set(expanded))
        assert all(codimension(K) > codimension(L) for K in expanded), (str(M), str(L))


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_prune_modes_agree_exhaustively(m, n):
    for M, L in _all_pairs(m, n):
        pruned = reachable(M, L, prune=True)
        free = reachable(M, L, prune=False)
        assert (pruned is None) == (free is None), (str(M), str(L))
        if pruned is not None:
            assert len(pruned) == len(free)  # both breadth-first shortest


_ORACLE_SIZES = [(m, n) for m in range(1, 4) for n in range(1, 4)] + [(2, 4), (4, 2)]


@pytest.mark.parametrize("m,n,prune", [(m, n, prune) for m, n in _ORACLE_SIZES
                                       for prune in (False, True)] + [(3, 4, True)])
def test_paths_match_bfs_oracle(m, n, prune):
    for M, L in _all_pairs(m, n):
        assert reachable(M, L, prune=prune) == bfs_reachable_path(M, L, prune), (str(M), str(L))


@pytest.mark.parametrize("m,n", [(4, 4), (4, 5)])
def test_pruned_paths_match_bfs_oracle_over_gaps(m, n):
    # seeded in-closure pairs, five per codimension gap 1..8, as the
    # benchmark's path questions are drawn
    rng = random.Random(f"paths:{m}x{n}")
    nodes = enumerate_structures(m, n)
    for gap in range(1, 9):
        found = 0
        while found < 5:
            M = rng.choice(nodes)
            L = rng.choice(label_matchings(rng.choice(nodes), eigenvalues(M)))
            if codimension(M) - codimension(L) != gap or not degenerates_to(L, M):
                continue
            path = reachable(M, L, prune=True)
            assert path is not None and path == bfs_reachable_path(M, L, True), (str(M), str(L))
            found += 1


@pytest.mark.parametrize("m,n", [(1, 3), (3, 1), (2, 3), (3, 2), (3, 3)])
def test_pruned_search_matches_closure_test(m, n):
    for M, L in _all_pairs(m, n):
        pruned = reachable(M, L, prune=True)
        assert (pruned is not None) == degenerates_to(L, M), (str(M), str(L))


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_every_rule_application_decreases_codimension(m, n):
    # the per-step form of the monotonicity statement, checked exhaustively
    applications = 0
    for K in enumerate_structures(m, n):
        pool = list(eigenvalues(K)) + [INFINITY] + [finite(100 + i) for i in range(min(m, n))]
        for inst in applicable_instances(K, pool):
            out = apply_rule(K, inst)
            applications += 1
            assert size_of(out) == size_of(K)
            assert out != K
            assert codimension(out) < codimension(K)
            if inst.rule_id == 6:
                assert rank_of(out) == rank_of(K) + 1
            else:
                assert rank_of(out) == rank_of(K)
    assert applications > 0


class TestReachableStructures:
    def test_includes_start_and_all_degenerations(self):
        reached, stats = reachable_structures(S(jordan=[(e1, 2), (e1, 1)]))
        assert S(jordan=[(e1, 2), (e1, 1)]) in reached
        assert S(jordan=[(e1, 3)]) in reached
        assert stats["visited"] == len(reached)

    def test_budget(self):
        with pytest.raises(SearchBudgetExceededError):
            reachable_structures(ZERO_1x1, max_expansions=0)

    def test_stats_and_exact_budget(self):
        M = S(right=[0, 0], left=[0, 0])
        reached, stats = reachable_structures(M)
        assert stats == {"visited": len(reached), "expansions": len(reached)}
        assert reachable_structures(M, max_expansions=len(reached))[0] == reached
        with pytest.raises(SearchBudgetExceededError):
            reachable_structures(M, max_expansions=len(reached) - 1)

    def test_matches_bfs_oracle(self):
        M = S(right=[0, 0], left=[0, 0])
        fresh = [e1, e2, INFINITY]
        assert reachable_structures(M, fresh_labels=fresh)[0] == bfs_reachable_structures(M, fresh)


_SHARED_GRAPH_SIZES = [(m, n) for m in range(1, 5) for n in range(1, 5) if (m, n) != (4, 4)]


@pytest.mark.parametrize("include_infinity", [True, False])
@pytest.mark.parametrize("m,n", _SHARED_GRAPH_SIZES)
def test_shared_graph_matches_per_source_bfs(m, n, include_infinity):
    # the oracle below: one graph per universe, sources in suite order, so
    # later sources reuse the descendant sets memoized for earlier ones
    reached, _ = shared_graph_reached(m, n, include_infinity=include_infinity)
    for M, search_labels, _ in suite_sources(m, n, include_infinity=include_infinity):
        found = frozenset(map(structure_from_key, reached[structure_sort_key(M)]))
        assert found == bfs_reachable_structures(M, search_labels), str(M)


_SUITE_SETTINGS = [{}, {"pool_size": 1}, {"include_infinity": False}]


@pytest.mark.parametrize("settings", _SUITE_SETTINGS, ids=["default", "pool-1", "no-infinity"])
@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 6)])
def test_rules_verdicts_match_shared_graph_oracle(monkeypatch, m, n, settings):
    # the majorization batch is replaced by the oracle's reachability, so
    # the suite passes exactly when its sweep agrees on every pair
    reached, _ = shared_graph_reached(m, n, **settings)
    batches = []

    def oracle(sources, targets):
        batches.append(len(targets))
        return [sum(1 << k for k, L in enumerate(sources) if L.key in reached[M.key])
                for M in targets]

    monkeypatch.setattr(verify_mod, "closure_records", oracle)
    report = cross_validate_characterizations(m, n, **settings)
    assert report.passed
    assert sum(batches) == report.node_count


@pytest.mark.parametrize("m,n,expansions,oracle_expansions",
                         [(4, 4, 607, 1981), (4, 5, 851, 2618), (5, 5, 2976, 15974)])
def test_quotient_expansions(m, n, expansions, oracle_expansions):
    # one expansion per class of reached structures up to reservoir labels
    report = cross_validate_characterizations(m, n)
    universes = report.stats["universes"]
    assert sum(u["expansions"] for u in universes) == expansions
    assert sum(u["sources"] for u in universes) == report.node_count
    assert "stats" not in report.to_json_dict()
    if (m, n) != (5, 5):  # the oracle takes seconds at 5x5
        assert shared_graph_reached(m, n)[1] == oracle_expansions


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 6)])
def test_encoded_successors_match_object_expansion(m, n):
    # every node of every plain universe graph: the same children, the same
    # first instance per child and the same order as the moves built as objects
    roots = {}
    for M, _, universe in suite_sources(m, n):
        roots.setdefault(universe, []).append(structure_sort_key(M))
    for universe, keys in roots.items():
        graph = RuleGraph(universe)
        graph.sweep(keys)
        for i in range(len(graph.records)):
            K = graph.structure(i)
            encoded = [(graph.structure(k), rules._instance(move))
                       for k, move in graph.successors(i, K).items()]
            assert encoded == list_successors(K, universe), str(K)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 6)])
def test_quotient_successors_match_object_expansion(m, n):
    # every node of every suite sweep: its children are the canonical images
    # of the children built as objects, every universe label a candidate
    roots = {}
    for M, search_labels, universe in suite_sources(m, n):
        roots.setdefault(universe, []).append(structure_sort_key(M))
    reservoir = {lbl for lbl in search_labels if not lbl.is_infinite}
    for universe, keys in roots.items():
        graph = RuleGraph(universe, reservoir=reservoir, canonical=True)
        graph.sweep(keys)
        for i in range(len(graph.records)):
            K = graph.structure(i)
            assert reservoir_canonical(K, reservoir) == K
            children = {graph.structure(k) for k in graph.successors(i, K)}
            assert children == {reservoir_canonical(child, reservoir)
                                for child, _ in list_successors(K, universe)}, str(K)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5) if m * n < 16])
def test_reservoir_successors_are_concrete_orbit_representatives(m, n):
    # the path search's graph: the reservoir codes a node does not use are
    # drawn as a prefix, and children are not renamed, so every child is a
    # child of the full draw and the full draw's children are its images
    # under permutations of the reservoir labels
    for M in enumerate_structures(m, n):
        evs = sorted(eigenvalues(M), key=EigenvalueLabel.sort_key)
        fresh = rules._fresh_reservoir(min(m, n), [evs])
        graph = RuleGraph(evs + fresh, reservoir=fresh)
        graph.sweep([structure_sort_key(M)])
        for i in range(len(graph.records)):
            K = graph.structure(i)
            drawn = [(graph.structure(k), rules._instance(move))
                     for k, move in graph.successors(i, K).items()]
            full = list_successors(K, evs + fresh)
            assert set(drawn) <= set(full), str(K)
            assert ({reservoir_canonical(child, set(fresh)) for child, _ in drawn}
                    == {reservoir_canonical(child, set(fresh)) for child, _ in full}), str(K)


def _check_suite_expands_each_class_once(monkeypatch, include_infinity):
    # each class of structures up to the reservoir labels is expanded once,
    # and the classes are those of everything the sources reach
    calls = []
    expand = RuleGraph.successors

    def counting(graph, i, source):
        calls.append((graph.structure(i), frozenset(graph.universe)))
        return expand(graph, i, source)

    monkeypatch.setattr(RuleGraph, "successors", counting)
    assert cross_validate_characterizations(3, 3, include_infinity=include_infinity).passed
    monkeypatch.setattr(RuleGraph, "successors", expand)
    expected = set()
    for M, search_labels, universe in suite_sources(3, 3, include_infinity=include_infinity):
        reservoir = {lbl for lbl in search_labels if not lbl.is_infinite}
        expected.update((reservoir_canonical(K, reservoir), universe)
                        for K in bfs_reachable_structures(M, search_labels))
    assert len(calls) == len(set(calls))
    assert set(calls) == expected


def test_rules_suite_expands_each_node_once(monkeypatch):
    _check_suite_expands_each_class_once(monkeypatch, include_infinity=True)


def test_rules_suite_without_infinity_expands_each_node_once(monkeypatch):
    _check_suite_expands_each_class_once(monkeypatch, include_infinity=False)


def test_rules_counterexample_is_the_searched_structure(monkeypatch):
    # the sweep loses every class with both a label of M and a reservoir
    # label, so the first failing pair must report a structure of a lost
    # class, with every label in M's universe
    reservoir = rules._fresh_reservoir(3, map(eigenvalues, enumerate_structures(3, 3)))
    fresh = {lbl.id for lbl in reservoir}  # e<i> is coded i
    sweep, lost = RuleGraph.sweep, set()

    def losing(graph, roots, keep=None):
        out = sweep(graph, roots, keep)
        for key in list(out):
            codes = {c for c, _ in key[0]}
            if codes & fresh and any(c < min(fresh) for c in codes):
                lost.add(key)
                del out[key]
        return out

    monkeypatch.setattr(RuleGraph, "sweep", losing)
    [check] = cross_validate_characterizations(3, 3).checks
    example = check.counterexample
    assert example["majorization"] and not example["rule_reachable"]
    L, M = parse_structure(example["L"]), parse_structure(example["M"])
    assert structure_sort_key(reservoir_canonical(L, set(reservoir))) in lost
    assert set(eigenvalues(L)) <= {*eigenvalues(M), *reservoir, INFINITY}
    assert example["search"]["expansions"] > example["search"]["visited"] > 0


def test_rules_suite_budget():
    with pytest.raises(SearchBudgetExceededError):
        cross_validate_characterizations(3, 3, max_expansions=1)


class TestInvariantChecks:
    def test_rule_graph_checks_descent(self, monkeypatch):
        target = S(jordan=[(e1, 1), (e2, 1)])
        encoded = (((1, 1), (2, 1)), (), ())  # the graph's encoding of target
        real = rules.block_invariants

        def codimension(*blocks):
            return real(*blocks)._replace(codim=-1 if blocks == encoded else 0)

        monkeypatch.setattr(rules, "block_invariants", codimension)
        with pytest.raises(InvariantViolationError):
            reachable_structures(ZERO_1x1)
        with pytest.raises(InvariantViolationError):
            reachable(S(right=[0, 0], left=[0, 0]), target, prune=False)

    def test_apply_rule_checks_size(self, monkeypatch):
        monkeypatch.setattr(rules, "size_of", lambda K: (len(K.jordan), 0))
        with pytest.raises(InvariantViolationError):
            apply_rule(S(jordan=[(e1, 1), (e1, 2)]), RuleInstance(5, j=1, k=2, mu=e1))

    def test_checks_survive_optimized_mode(self):
        script = (
            "import sys\n"
            "from kcforbits import rules\n"
            "from kcforbits.core import KroneckerStructure\n"
            "from kcforbits.errors import InvariantViolationError\n"
            "from kcforbits.cli import main\n"
            "assert False, 'asserts must be stripped here'\n"
            "real = rules.block_invariants\n"
            "rules.block_invariants = lambda *b: real(*b)._replace(size=(0, 0), codim=0)\n"
            "try:\n"
            "    rules.reachable_structures(KroneckerStructure(right=[0], left=[0]))\n"
            "except InvariantViolationError:\n"
            "    sys.exit(main(['verify', '1', '1', '--checks', 'rules']))\n"
            "sys.exit(1)\n"
        )
        done = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("invariant violated: ")


def test_rule_graph_recovers_after_budget_error():
    M = S(right=[0, 0], left=[0, 0])
    fresh = [e1, e2, INFINITY]
    graph = RuleGraph(dict.fromkeys(fresh), max_expansions=3)
    with pytest.raises(SearchBudgetExceededError):
        graph.sweep([structure_sort_key(M)])
    graph.max_expansions = None
    reached = graph.sweep([structure_sort_key(M)])
    assert frozenset(map(structure_from_key, reached)) == bfs_reachable_structures(M, fresh)
    assert set(reached.values()) == {1}
