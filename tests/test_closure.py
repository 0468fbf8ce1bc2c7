import random

import pytest
from hypothesis import given, settings

from conftest import closure_relation, naive_hasse_edges, nonincreasing_seqs
from kcforbits import closure, rules
from kcforbits import verify as verify_mod
from kcforbits.closure import (
    build_closure_graph,
    closure_bitsets,
    degenerates_to,
    majorization_report,
    same_orbit,
    weakly_majorizes,
)
from kcforbits.core import (
    INFINITY,
    KroneckerStructure,
    block_invariants,
    codimension,
    eigenvalues,
    finite,
    rank_of,
    structure_from_key,
    structure_sort_key,
)
from kcforbits.errors import DuplicateNodeError, InvariantViolationError, SizeMismatchError
from kcforbits.verify import enumerate_structures, label_matchings

e1, e2 = finite(1), finite(2)


def S(jordan=(), right=(), left=()):
    return KroneckerStructure(jordan, right, left)


ZERO_1x1 = S(right=[0], left=[0])
J1 = S(jordan=[(e1, 1)])


class TestWeaklyMajorizes:
    def test_examples(self):
        assert weakly_majorizes((2, 2), (2, 1))
        assert not weakly_majorizes((2, 2), (3,))
        assert weakly_majorizes((5, 1), ())
        assert weakly_majorizes((), ())

    def test_prefix_failure_later(self):
        # passes at j=1, fails at j=2
        assert not weakly_majorizes((2, 0), (2, 1))


@settings(max_examples=400)
@given(nonincreasing_seqs())
def test_weak_majorization_reflexive(a):
    assert weakly_majorizes(a, a)


@settings(max_examples=400)
@given(nonincreasing_seqs(), nonincreasing_seqs(), nonincreasing_seqs())
def test_weak_majorization_transitive(a, b, c):
    if weakly_majorizes(a, b) and weakly_majorizes(b, c):
        assert weakly_majorizes(a, c)


class TestDegeneratesTo:
    def test_zero_in_every_closure(self):
        assert degenerates_to(J1, ZERO_1x1)
        assert not degenerates_to(ZERO_1x1, J1)

    def test_2x4_example(self):
        L = S(right=[1, 1])
        M = S(right=[0, 2])
        assert degenerates_to(L, M)
        assert not degenerates_to(M, L)

    def test_reflexive(self):
        for K in (ZERO_1x1, J1, S(jordan=[(e1, 2), (INFINITY, 1)])):
            assert degenerates_to(K, K)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            degenerates_to(J1, S(right=[1]))

    def test_distinct_eigenvalues_unrelated(self):
        other = S(jordan=[(e2, 1)])
        assert not degenerates_to(J1, other)
        assert not degenerates_to(other, J1)


class TestSameOrbit:
    def test_examples(self):
        assert same_orbit(S(jordan=[(e1, 2)]), S(jordan=[(e1, 2)]))
        assert not same_orbit(S(jordan=[(e1, 2)]), S(jordan=[(e1, 1), (e1, 1)]))
        assert not same_orbit(S(jordan=[(e1, 1)]), S(jordan=[(e2, 1)]))

    def test_different_sizes(self):
        assert not same_orbit(J1, S(right=[1]))

    def test_matches_equal_majorizations(self):
        # same orbit is exactly h = 0 with equality in all majorizations
        nodes = enumerate_structures(2, 2)
        for L in nodes:
            for M in nodes:
                expected = rank_of(L) == rank_of(M) and degenerates_to(L, M) and degenerates_to(M, L)
                assert same_orbit(L, M) == expected


def _concrete_nodes(m, n):
    """All structures of size (m, n) concretely labeled from a small pool."""
    out = []
    seen = set()
    for K0 in enumerate_structures(m, n):
        for K in label_matchings(K0, [finite(i + 1) for i in range(min(m, n))]):
            if K not in seen:
                seen.add(K)
                out.append(K)
    return out


@pytest.mark.parametrize(
    "m,n",
    [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3)],
)
def test_closure_order_is_a_partial_order(m, n):
    nodes = _concrete_nodes(m, n)
    rel = [[degenerates_to(a, b) for b in nodes] for a in nodes]
    for i, a in enumerate(nodes):
        assert rel[i][i]
        for j, b in enumerate(nodes):
            if i != j and rel[i][j] and rel[j][i]:
                pytest.fail(f"antisymmetry violated: {a} and {b}")
    count = len(nodes)
    for i in range(count):
        for j in range(count):
            if rel[i][j]:
                for k in range(count):
                    if rel[j][k]:
                        assert rel[i][k], (nodes[i], nodes[j], nodes[k])


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
def test_rank_monotone_along_closure(m, n):
    nodes = _concrete_nodes(m, n)
    for L in nodes:
        for M in nodes:
            if degenerates_to(L, M):
                assert rank_of(L) >= rank_of(M)


class TestMajorizationReport:
    def test_witnesses(self):
        report = majorization_report(J1, ZERO_1x1)
        assert report["h"] == 1
        assert report["in_closure"]
        names = [c["condition"] for c in report["conditions"]]
        assert names == ["right", "left", "eigenvalue e1"]
        for cond in report["conditions"]:
            assert cond["ok"]
            assert cond["partial_sums"][0] == {"j": 1, "lhs": 1, "rhs": 1, "ok": True}

    def test_negative_h(self):
        report = majorization_report(ZERO_1x1, J1)
        assert report["h"] == -1
        assert not report["in_closure"]
        assert report["conditions"] == []


class TestClosureGraph:
    def test_two_node_chain(self):
        graph = build_closure_graph([J1, ZERO_1x1])
        assert graph.codimensions == (1, 2)
        assert graph.edges == ((0, 1),)

    def test_three_node_chain(self):
        nodes = [
            S(jordan=[(e1, 3)]),
            S(jordan=[(e1, 2), (e1, 1)]),
            S(jordan=[(e1, 1), (e1, 1), (e1, 1)]),
        ]
        graph = build_closure_graph(nodes)
        assert graph.codimensions == (3, 5, 9)
        # covering edges only: the 0 -> 2 edge is implied
        assert graph.edges == ((0, 1), (1, 2))

    def test_single_node(self):
        graph = build_closure_graph([J1])
        assert graph.edges == ()

    def test_errors(self):
        with pytest.raises(SizeMismatchError):
            build_closure_graph([J1, S(right=[1])])
        with pytest.raises(DuplicateNodeError):
            build_closure_graph([J1, S(jordan=[(e1, 1)])])

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (3, 4)])
    def test_transitive_closure_reproduces_relation(self, m, n):
        nodes = enumerate_structures(m, n)
        graph = build_closure_graph(nodes)
        reach = closure_relation(graph)
        batch = closure_bitsets(nodes, nodes)
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                assert reach[i][j] == (degenerates_to(a, b) if i != j else True)
                assert reach[i][j] == bool(batch[j] >> i & 1)

    def test_edges_increase_codimension(self):
        nodes = enumerate_structures(2, 2)
        graph = build_closure_graph(nodes)
        for i, j in graph.edges:
            assert graph.codimensions[i] < graph.codimensions[j]

    @pytest.mark.parametrize(
        "m,n", [(m, n) for m in range(1, 5) for n in range(1, 6)] + [(5, 4)]
    )
    def test_bitset_reduction_matches_triple_loop(self, m, n):
        nodes = enumerate_structures(m, n)
        assert build_closure_graph(nodes).edges == naive_hasse_edges(nodes)

    @pytest.mark.parametrize("settings", [{"pool_size": 1}, {"include_infinity": False}],
                             ids=["pool-1", "no-infinity"])
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
    def test_bitset_reduction_matches_triple_loop_on_other_node_sets(self, m, n, settings):
        nodes = enumerate_structures(m, n, **settings)
        assert build_closure_graph(nodes).edges == naive_hasse_edges(nodes)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (3, 4)])
    def test_negated_codimension_raises_on_the_first_edge(self, monkeypatch, m, n):
        # the covers are found before any codimension is read, so the
        # first edge in (i, j) order is the one named
        nodes = enumerate_structures(m, n)
        i, j = naive_hasse_edges(nodes)[0]
        monkeypatch.setattr(closure, "codimension", lambda K: -codimension(K))
        with pytest.raises(InvariantViolationError) as raised:
            build_closure_graph(nodes)
        assert str(raised.value) == (f"covering edge {nodes[i]} -> {nodes[j]} "
                                     "does not increase codimension")

    def test_edge_without_codimension_increase_raises(self, monkeypatch):
        monkeypatch.setattr(closure, "codimension", lambda K: 0)
        with pytest.raises(InvariantViolationError):
            build_closure_graph([J1, ZERO_1x1])

    def test_relation_comes_from_the_batch(self, monkeypatch):
        def refuse(L, M):
            raise AssertionError("per-pair test")

        monkeypatch.setattr(closure, "degenerates_to", refuse)
        nodes = enumerate_structures(3, 3)
        assert build_closure_graph(nodes).edges == naive_hasse_edges(nodes)


class TestRecordClosure:
    """The closure test on records, as the pruned path search runs it on
    invariants read from keys, with label codes for labels."""

    @pytest.mark.parametrize("m,n,pairs", [(3, 3, 1554), (3, 4, 2579), (4, 4, 15075)])
    def test_key_records_match_structures(self, m, n, pairs):
        nodes = enumerate_structures(m, n)
        seen = 0
        for M in nodes:
            child = block_invariants(*structure_sort_key(M))
            for L0 in nodes:
                for L in label_matchings(L0, eigenvalues(M)):
                    verdict = closure._in_closure(block_invariants(*structure_sort_key(L)), child)
                    assert verdict == degenerates_to(L, M), (str(L), str(M))
                    assert verdict == majorization_report(L, M)["in_closure"], (str(L), str(M))
                    seen += 1
        assert seen == pairs

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            closure._in_closure(block_invariants(*structure_sort_key(J1)),
                                block_invariants(*structure_sort_key(S(right=[1]))))


def oracle_bitsets(sources, targets):
    """Per target, the bitset of the sources that degenerate to it, by
    ``degenerates_to`` on every pair."""
    return [sum(degenerates_to(L, M) << i for i, L in enumerate(sources)) for M in targets]


class TestClosureBitsets:
    @pytest.mark.parametrize(
        "m,n", [(m, n) for m in range(1, 6) for n in range(1, 6)] + [(6, 6)]
    )
    def test_all_ordered_pairs(self, m, n):
        nodes = enumerate_structures(m, n)
        assert closure_bitsets(nodes, nodes) == oracle_bitsets(nodes, nodes)

    @pytest.mark.parametrize("m,n", [(4, 4), (3, 5), (4, 5)])
    def test_suite_pairs(self, m, n):
        # the re-embedded sources of the dim and rules suites, per target
        nodes = enumerate_structures(m, n)
        base = rules._fresh_reservoir(min(m, n), map(eigenvalues, nodes))[0].id
        rows = []
        for _, group, sources, related, _ in verify_mod._closure_rows(nodes, 10**7, base):
            sources = [structure_from_key(L.key) for L in sources]
            assert related == oracle_bitsets(sources, group), [str(M) for M in group]
            rows += group
        assert sorted(rows, key=structure_sort_key) == nodes

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3)])
    def test_concrete_labels(self, m, n):
        nodes = _concrete_nodes(m, n)
        assert closure_bitsets(nodes, nodes) == oracle_bitsets(nodes, nodes)

    @pytest.mark.parametrize("nodes", [_concrete_nodes(2, 2), enumerate_structures(3, 3)],
                             ids=["2x2-concrete", "3x3"])
    def test_one_pair_per_batch(self, nodes):
        # a batch's labels are then only the pair's own, as in degenerates_to
        for L in nodes:
            for M in nodes:
                assert closure_bitsets([L], [M]) == [int(degenerates_to(L, M))], (L, M)

    def test_rank_cannot_increase(self):
        assert closure_bitsets([ZERO_1x1, J1], [J1, ZERO_1x1]) == [0b10, 0b11]

    def test_lists_of_different_lengths(self):
        nodes = enumerate_structures(4, 4)
        few, many = nodes[3:10], nodes[20:80]
        assert closure_bitsets(few, many) == oracle_bitsets(few, many)
        assert closure_bitsets(many, few) == oracle_bitsets(many, few)
        assert closure_bitsets(iter(few), tuple(many)) == oracle_bitsets(few, many)

    def test_empty_lists(self):
        nodes = enumerate_structures(2, 2)
        assert closure_bitsets([], nodes) == [0] * len(nodes)
        assert closure_bitsets(nodes, []) == []
        assert closure_bitsets([], []) == []

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            closure_bitsets([J1], [S(right=[1])])
        with pytest.raises(SizeMismatchError):
            closure_bitsets([J1, S(right=[1])], [])


def test_dominated_with_many_distinct_thresholds():
    # more than 255 distinct query values per coordinate: several byte passes
    rng = random.Random(5)
    size, count = 700, 600
    universe = [[rng.randrange(-400, 400) for _ in range(size)] for _ in range(3)]
    queries = [[rng.randrange(-450, 450) for _ in range(count)] for _ in range(3)]
    expected = [sum(all(u[i] <= q[k] for u, q in zip(universe, queries)) << i
                    for i in range(size)) for k in range(count)]
    assert closure._dominated(universe, queries, size, count) == expected
    assert closure._dominated([[]], [[0, 1]], 0, 2) == [0, 0]


MATCHED_SIZES = [(m, n) for m in range(1, 5) for n in range(1, 5)] + [(3, 5)]
MATCHED_SETTINGS = [{}, {"include_infinity": False}, {"pool_size": 1}]


def matched_closure_errors(m, n, settings):
    """The node pairs (L, M) on which the node-first engine's verdict (the
    node part, then the label step) differs from its oracle: some
    ``verify._matchings`` record of L against M's finite labels is related
    to M by ``_in_closure``."""
    nodes = enumerate_structures(m, n, **settings)
    records = [K._invariants() for K in nodes]
    base = rules._fresh_reservoir(1, map(eigenvalues, nodes))[0].sort_key()
    node_part, labels = closure._node_part(records), closure._LabelItems(records)
    wrong = []
    for j, M in enumerate(records):
        targets = tuple(mu for mu, _ in M.weyr if mu != closure._INF)
        for i, L in enumerate(records):
            engine = bool(node_part[j] >> i & 1) and labels.admits(i, j)
            oracle = any(closure._in_closure(K, M)
                         for K in verify_mod._matchings(L, targets, base))
            if engine != oracle:
                wrong.append((nodes[i], nodes[j]))
    return wrong


class TestMatchedOrder:
    """``closure._node_part`` and ``closure._LabelItems`` against building
    every label matching of every node pair."""

    @pytest.mark.parametrize("settings", MATCHED_SETTINGS,
                             ids=["default", "no-infinity", "pool-1"])
    @pytest.mark.parametrize("m,n", MATCHED_SIZES)
    def test_matches_every_matching(self, m, n, settings):
        assert matched_closure_errors(m, n, settings) == []

    def test_both_label_outcomes_occur(self):
        # at 4x4 the label step rejects pairs both at once and by the search
        nodes = enumerate_structures(4, 4)
        records = [K._invariants() for K in nodes]
        node_part, labels = closure._node_part(records), closure._LabelItems(records)
        verdicts = [labels.admits(i, j) for j in range(len(nodes))
                    for i in closure.set_bits(node_part[j])]
        assert labels.rejections > 0
        assert labels.searches - sum(verdicts) > 0

    def test_every_label_a_must_label_fails(self, monkeypatch):
        real = closure._LabelItems.__init__

        def no_fresh_labels(self, records):
            real(self, records)
            self.free = [0] * len(records)

        monkeypatch.setattr(closure._LabelItems, "__init__", no_fresh_labels)
        assert len(matched_closure_errors(4, 4, {})) == 1081

    def test_node_part_without_infinity_fails(self, monkeypatch):
        def no_infinity(records):
            cut = [rec._replace(weyr=()) for rec in records]
            return closure.closure_records(cut, cut)

        monkeypatch.setattr(closure, "_node_part", no_infinity)
        assert len(matched_closure_errors(4, 4, {})) == 857
        assert matched_closure_errors(4, 4, {"include_infinity": False}) == []
