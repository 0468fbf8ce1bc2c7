import gc
import json
import math
import weakref

import pytest

from conftest import (
    brute_force_structures,
    pairwise_monotonicity,
    relabel_matchings,
    reservoir_canonical,
)
from kcforbits.core import (
    INFINITY,
    KroneckerStructure,
    canonicalize,
    codimension,
    eigenvalues,
    finite,
    rank_of,
    size_of,
    structure_from_key,
    structure_sort_key,
    weyr_jordan,
    weyr_singular,
)
from kcforbits.errors import EnumerationLimitExceededError, InvalidSizeError
from kcforbits import core, pencils, rules
from kcforbits import verify as verify_mod
from kcforbits.verify import (
    cross_validate_characterizations,
    enumerate_structures,
    label_matchings,
    verify_codimension_monotonicity,
    verify_formula_identities,
)

e1, e2 = finite(1), finite(2)


def S(jordan=(), right=(), left=()):
    return KroneckerStructure(jordan, right, left)


class TestEnumerate:
    def test_1x1(self):
        nodes = enumerate_structures(1, 1)
        assert set(nodes) == {
            S(right=[0], left=[0]),
            S(jordan=[(e1, 1)]),
            S(jordan=[(INFINITY, 1)]),
        }

    def test_1x1_without_infinity(self):
        nodes = enumerate_structures(1, 1, include_infinity=False)
        assert set(nodes) == {S(right=[0], left=[0]), S(jordan=[(e1, 1)])}

    def test_1x2_contents(self):
        nodes = enumerate_structures(1, 2)
        assert S(right=[1]) in nodes
        assert S(jordan=[(e1, 1)], right=[0]) in nodes
        assert len(nodes) == 4

    def test_pool_zero_is_eigenvalue_free(self):
        nodes = enumerate_structures(2, 2, pool_size=0)
        for K in nodes:
            assert all(lbl.is_infinite for lbl in eigenvalues(K))

    def test_all_canonical_and_sized(self):
        for m, n in [(1, 1), (2, 3), (3, 3), (2, 4)]:
            nodes = enumerate_structures(m, n)
            assert len(set(nodes)) == len(nodes)
            for K in nodes:
                assert size_of(K) == (m, n)
                assert canonicalize(K) == K

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (2, 4)])
    def test_matches_brute_force_oracle(self, m, n):
        expected = brute_force_structures(m, n, pool_size=min(m, n))
        assert set(enumerate_structures(m, n)) == expected

    def test_invalid_sizes(self):
        with pytest.raises(InvalidSizeError):
            enumerate_structures(0, 1)
        with pytest.raises(InvalidSizeError):
            enumerate_structures(2, 2, pool_size=-1)

    @pytest.mark.parametrize("m,n", [(10**6 + 1, 1), (2, 10**20)])
    def test_oversized_dimension(self, m, n):
        # the bound of structure notation, checked before any work
        with pytest.raises(EnumerationLimitExceededError, match=r"at most 10\^6"):
            enumerate_structures(m, n)

    def test_deterministic_order(self):
        assert enumerate_structures(2, 2) == enumerate_structures(2, 2)


class TestLabelMatchings:
    def test_no_labels(self):
        K = S(right=[0], left=[0])
        assert label_matchings(K, [e1, e2]) == [K]

    def test_one_label_against_one(self):
        K = S(jordan=[(e1, 1)])
        matched = label_matchings(K, [e1])
        # either coincide with the target label or stay disjoint
        assert len(matched) == 2
        assert K in matched

    def test_counts_against_two_targets(self):
        K = S(jordan=[(e1, 1), (e2, 2)])
        # 2 labels against 2 targets: 1 + 4 + 2 = 7 coincidence patterns
        assert len(label_matchings(K, [e1, e2])) == 7

    def test_infinity_untouched(self):
        K = S(jordan=[(INFINITY, 1)])
        assert label_matchings(K, [e1]) == [K]


class TestSuites:
    def test_monotonicity_2x2(self):
        report = verify_codimension_monotonicity(2, 2)
        assert report.passed
        assert report.node_count == 11
        assert report.pair_count > report.node_count**2  # matchings multiply pairs

    def test_cross_validation_2x2(self):
        report = cross_validate_characterizations(2, 2)
        assert report.passed

    def test_formulas_2x2(self):
        report = verify_formula_identities(2, 2)
        assert report.passed
        ids = [c.check_id for c in report.checks]
        assert ids == [
            "rank_identity",
            "size_identities",
            "codim_matches_tangent_corank",
            "codim_invariant_under_equivalence",
        ]

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 2)])
    def test_formulas_stats(self, m, n):
        report = verify_formula_identities(m, n)
        stats = report.stats
        assert report.passed and "stats" not in report.to_json_dict()
        shapes = stats["tangent_shapes"]
        assert stats["tangent_calls"] == report.pair_count == sum(s["calls"] for s in shapes)
        small, large = sorted((m, n))
        for s in shapes:
            # a remainder of large * (2 * small - rank E) rows over small^2 columns
            rows, cols = s["remainder"]
            assert s["full"] == (2 * m * n, m * m + n * n)
            assert cols == small ** 2 and rows % large == 0 and rows <= 2 * small * large
        assert stats["normal_rank_calls"] == report.node_count * 5
        # the points evaluated: a full-rank pencil stops at t = 0, which no
        # default eigenvalue takes; any other evaluates all small + 1 points
        nodes = enumerate_structures(m, n)
        assert stats["normal_rank_points"] == 5 * sum(
            1 if rank_of(K) == small else small + 1 for K in nodes)
        assert set(stats["seconds"]) == {"realize", "equivalence", "tangent_rank", "normal_rank"}

    def test_formulas_builds_one_pencil_per_structure(self, monkeypatch):
        # the moved pencils stay int rows; only realize builds a RationalPencil
        built = []
        init = pencils.RationalPencil.__post_init__

        def counted(self):
            built.append((self.m, self.n))
            init(self)

        monkeypatch.setattr(pencils.RationalPencil, "__post_init__", counted)
        report = verify_formula_identities(3, 3)
        assert report.passed and len(built) == report.node_count

    def test_formulas_counterexample_names_structure_and_seed(self, monkeypatch):
        equivalent = pencils._equivalent

        def broken(m, n, a, b, seed, num_ops=None):  # not an equivalence: row 0 is lost
            a, b = equivalent(m, n, a, b, seed, num_ops)
            a[0] = b[0] = [0] * n
            return a, b

        monkeypatch.setattr(pencils, "_equivalent", broken)
        report = verify_formula_identities(3, 3, seed_base=7)
        check = {c.check_id: c for c in report.checks}["codim_invariant_under_equivalence"]
        assert not check.passed
        example = check.counterexample
        assert example["seed"] in range(7, 7 + verify_mod.FORMULA_SEEDS)
        # the named structure and seed reproduce the failure
        K, = [K for K in enumerate_structures(3, 3) if str(K) == example["structure"]]
        a, b = broken(3, 3, *pencils.realize(K)._integers[:2], example["seed"])
        assert (2 * 3 * 3 - pencils._tangent_rank(3, 3, a, b)[0] != codimension(K)
                or pencils._normal_rank(3, 3, a, b)[0] != rank_of(K))

    def test_zero_violations_at_full_scale(self):
        # dim and rules suites at every size up to 3x3, formulas up to 4x4
        for m in range(1, 4):
            for n in range(1, 4):
                assert verify_codimension_monotonicity(m, n).passed
                assert cross_validate_characterizations(m, n).passed
        for m in range(1, 5):
            for n in range(1, 5):
                assert verify_formula_identities(m, n).passed

    def test_pair_budget_guard(self):
        with pytest.raises(EnumerationLimitExceededError):
            verify_codimension_monotonicity(2, 2, max_pairs=10)
        with pytest.raises(EnumerationLimitExceededError):
            cross_validate_characterizations(2, 2, max_pairs=10)
        with pytest.raises(EnumerationLimitExceededError):
            verify_formula_identities(2, 2, max_pairs=10)

    @pytest.mark.parametrize("settings", [{}, {"pool_size": 1}, {"include_infinity": False}],
                             ids=["default", "pool-1", "no-infinity"])
    def test_pair_budget_is_exact(self, settings):
        # the guard counts the distinct matchings, the pairs the suites check
        for m in range(1, 6):
            for n in range(1, 6):
                nodes = enumerate_structures(m, n, **settings)
                budget = verify_mod._pair_budget([K._invariants() for K in nodes],
                                                 verify_mod.DEFAULT_MAX_PAIRS)
                dim = verify_codimension_monotonicity(m, n, **settings)
                rules_report = cross_validate_characterizations(m, n, **settings)
                assert budget == dim.pair_count == rules_report.pair_count, (m, n)
        with pytest.raises(EnumerationLimitExceededError):  # 5x5, refused before any work
            cross_validate_characterizations(m, n, max_pairs=budget - 1, **settings)

    def test_reports_deterministic(self):
        a = verify_codimension_monotonicity(2, 2)
        b = verify_codimension_monotonicity(2, 2)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_fault_injection_reports_failure(self, monkeypatch):
        # negated codimensions break monotonicity but keep every equality
        real = core.block_invariants
        monkeypatch.setattr(core, "block_invariants",
                            lambda *blocks: (inv := real(*blocks))._replace(codim=-inv.codim))
        report = verify_codimension_monotonicity(1, 1)
        assert not report.passed
        failed = [c for c in report.checks if not c.passed]
        assert [c.check_id for c in failed] == ["codim_monotone"]

    def test_counterexample_payload(self, monkeypatch):
        # force a fake mismatch recording to confirm the diagnostic shape
        monkeypatch.setattr(verify_mod, "_conditions",
                            lambda L, M: (0, [("right", (1,), (0,))]))
        report = verify_codimension_monotonicity(1, 1)
        failing = [c for c in report.checks if c.check_id == "equality_forces_equal_majorizations"]
        assert failing and not failing[0].passed
        example = failing[0].counterexample
        assert {"L", "M", "codim_L", "codim_M", "h", "violations"} <= set(example)


SETTINGS = [{}, {"pool_size": 1}, {"include_infinity": False}]
SETTING_IDS = ["default", "pool-1", "no-infinity"]


class TestDimMasks:
    """The ``dim`` suite, which decides node pairs first and checks only
    the matchings of the candidates that pass the label step and of each
    node with itself, against its former loop over every related pair
    (``conftest.pairwise_monotonicity``)."""

    @staticmethod
    def assert_same_reports(m, n, settings=None):
        fast = verify_codimension_monotonicity(m, n, **(settings or {}))
        slow = pairwise_monotonicity(m, n, **(settings or {}))
        # the checks, their first counterexamples and violation counts
        assert fast.to_json_dict() == slow.to_json_dict(), (m, n, settings)
        return fast

    @pytest.mark.parametrize("settings", SETTINGS, ids=SETTING_IDS)
    def test_matches_pair_loop(self, settings):
        for m in range(1, 5):
            for n in range(1, 5):
                assert self.assert_same_reports(m, n, settings).passed

    def test_negated_codimension(self, monkeypatch):
        # every strict pair fails monotonicity, every equality still holds
        real = core.block_invariants
        monkeypatch.setattr(core, "block_invariants",
                            lambda *blocks: (inv := real(*blocks))._replace(codim=-inv.codim))
        for m in range(2, 5):
            report = self.assert_same_reports(m, m)
        failed = {c.check_id: c.counterexample["violations"] for c in report.checks
                  if not c.passed}
        assert failed == {"codim_monotone": 3522 - 90}

    def test_flattened_codimension(self, monkeypatch):
        # every related pair has equal codimensions, so only the pairs the
        # equal-codimension mask selects can fail, and the strict ones do
        real = core.block_invariants
        monkeypatch.setattr(core, "block_invariants",
                            lambda *blocks: real(*blocks)._replace(codim=0))
        for m, n in [(2, 2), (2, 3), (3, 3), (4, 4)]:
            report = self.assert_same_reports(m, n)
        failed = {c.check_id: c.counterexample["violations"] for c in report.checks
                  if not c.passed}
        assert failed == {"codim_equality_iff_same_orbit": 3522 - 90,
                          "equality_forces_equal_majorizations": 3522 - 90}

    def test_conditions_fault(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "_conditions",
                            lambda L, M: (0, [("right", (1,), (0,))]))
        for m, n in [(2, 2), (3, 3), (3, 4)]:
            report = self.assert_same_reports(m, n)
            failed = [c.check_id for c in report.checks if not c.passed]
            assert failed == ["equality_forces_equal_majorizations"]

    def test_same_key_with_another_codimension(self, monkeypatch):
        # a node's own matching one below the node's codimension: only the
        # node's pair with itself selects it, and only the equality check fails
        matchings = verify_mod._matchings

        def lowered(node, targets, base):
            return [L._replace(codim=L.codim - 1) if L.key == node.key else L
                    for L in matchings(node, targets, base)]

        monkeypatch.setattr(verify_mod, "_matchings", lowered)
        for m, n in [(2, 2), (2, 3), (3, 3), (4, 4)]:
            report = self.assert_same_reports(m, n)
            failed = {c.check_id: c.counterexample["violations"] for c in report.checks
                      if not c.passed}
            assert failed == {"codim_equality_iff_same_orbit": report.node_count}

    @pytest.mark.parametrize("m, n", [(3, 3), (4, 4), (3, 5)])
    def test_matches_each_node_only_with_itself(self, monkeypatch, m, n):
        calls = []
        matchings = verify_mod._matchings

        def counting(node, targets, base):
            calls.append((node.key, tuple(targets)))
            return matchings(node, targets, base)

        def no_rows(*args):
            raise AssertionError("the dim suite builds no label-set rows")

        monkeypatch.setattr(verify_mod, "_matchings", counting)
        monkeypatch.setattr(verify_mod, "_closure_rows", no_rows)
        assert verify_codimension_monotonicity(m, n).passed
        # no candidate passes the label step: each node expands only with itself
        nodes = enumerate_structures(m, n)
        own = [(M._invariants().key,
                tuple(lbl.id for lbl in eigenvalues(M) if not lbl.is_infinite)) for M in nodes]
        assert len(calls) == len(set(calls)) == len(nodes)
        assert set(calls) == set(own)

    @pytest.mark.parametrize("m, node_count, closure_pairs, candidates, rejections, searches",
                             [(4, 90, 3522, 667, 585, 82), (5, 231, 27412, 3572, 3210, 362)])
    def test_stats(self, m, node_count, closure_pairs, candidates, rejections, searches):
        report = verify_codimension_monotonicity(m, m)
        assert report.passed and "stats" not in report.to_json_dict()
        stats = report.stats
        nodes = enumerate_structures(m, m)
        # the related label-matched pairs, from the oracle route's rows
        base = rules._fresh_reservoir(1, map(eigenvalues, nodes))[0].sort_key()
        rows = verify_mod._closure_rows(nodes, 10**7, base)
        assert sum(bits.bit_count() for _, _, _, related, _ in rows
                   for bits in related) == closure_pairs
        assert stats["candidate_pairs"] == candidates
        assert stats["label_rejections"] == rejections
        # every candidate not rejected at once runs the assignment search
        assert stats["assignment_searches"] == searches == candidates - rejections
        assert stats["checked_pairs"] == report.node_count == node_count
        assert stats["label_sets"] == len({tuple(lbl for lbl in eigenvalues(M)
                                                 if not lbl.is_infinite) for M in nodes})
        assert set(stats["seconds"]) == {"node_batch", "label_batch", "assignment", "checks"}


class TestEncodedMatchings:
    """The verifier's integer matcher against building every relabelled
    structure (``conftest.relabel_matchings``)."""

    @pytest.mark.parametrize("pool_size, include_infinity",
                             [(None, True), (None, False), (1, True)],
                             ids=["default", "no-infinity", "pool-1"])
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 6) for n in range(1, 6)])
    def test_decodes_to_relabelled_structures(self, m, n, pool_size, include_infinity):
        nodes = enumerate_structures(m, n, pool_size, include_infinity)
        # the suites send unmatched labels onto the rule search's reservoir
        base = rules._fresh_reservoir(min(m, n), map(eigenvalues, nodes))[0].id
        for labels in dict.fromkeys(eigenvalues(M) for M in nodes):
            targets = tuple(lbl.id for lbl in labels if not lbl.is_infinite)
            for K in nodes:
                expected = relabel_matchings(K, labels, base)
                encoded = verify_mod._matchings(K._invariants(), targets, base)
                assert [structure_from_key(L.key) for L in encoded] == expected, (K, labels)
                assert label_matchings(K, labels) == relabel_matchings(K, labels)
                for L, S in zip(encoded, expected):
                    # sorted (code, size) pairs: infinity codes above every finite id
                    assert list(L.key[0]) == sorted(L.key[0])
                    assert L.key == S._invariants().key
                    assert (L.size, L.rank, L.r, L.l, L.codim) == (
                        size_of(S), rank_of(S), weyr_singular(S, "right"),
                        weyr_singular(S, "left"), codimension(S))
                    assert sorted(L.weyr) == sorted(
                        (math.inf if mu.is_infinite else mu.id, weyr_jordan(S, mu))
                        for mu in eigenvalues(S))

    @pytest.mark.parametrize("pool_size, include_infinity",
                             [(None, True), (None, False), (1, True)],
                             ids=["default", "no-infinity", "pool-1"])
    def test_canonical_keys_of_the_rules_suite(self, pool_size, include_infinity):
        # the key each matching is looked up under in the rule graph's sweep
        renamed = 0
        for m in range(1, 5):
            for n in range(1, 6):
                nodes = enumerate_structures(m, n, pool_size, include_infinity)
                reservoir = rules._fresh_reservoir(min(m, n), map(eigenvalues, nodes))
                codes = frozenset(lbl.id for lbl in reservoir)
                for labels in dict.fromkeys(eigenvalues(M) for M in nodes):
                    targets = tuple(lbl.id for lbl in labels if not lbl.is_infinite)
                    for K in nodes:
                        for L in verify_mod._matchings(K._invariants(), targets, reservoir[0].id):
                            expected = reservoir_canonical(structure_from_key(L.key),
                                                           set(reservoir))
                            canon = rules._canonical(L.key, codes)
                            assert canon == structure_sort_key(expected), (m, n, L.key)
                            renamed += canon != L.key
        # with one finite label per node, one fresh run is already canonical
        assert renamed > 0 if pool_size is None else renamed == 0

    def test_arbitrary_labels(self):
        K = S(jordan=[(e1, 1), (e2, 2), (finite(9), 1), (INFINITY, 1)])
        for targets in ([], [INFINITY], [finite(3)], [finite(3), finite(7), INFINITY],
                        [e2, finite(12), e1]):
            assert label_matchings(K, targets) == relabel_matchings(K, targets), targets
        # e0 is a finite label: its code 0 must not be taken for infinity
        K = S(jordan=[(finite(0), 1), (INFINITY, 2)])
        for targets in ([finite(0)], [e1, INFINITY]):
            assert label_matchings(K, targets) == relabel_matchings(K, targets), targets


class TestMatchingsMemo:
    def test_pair_order_unchanged(self):
        nodes = enumerate_structures(3, 3)
        base = rules._fresh_reservoir(3, map(eigenvalues, nodes))[0].id
        naive = [(L, M) for M in nodes for L0 in nodes
                 for L in relabel_matchings(L0, eigenvalues(M), base)]
        pairs, groups = {}, []  # the rows come one finite label set at a time
        for _, group, sources, _, _ in verify_mod._closure_rows(nodes, 10**7, base):
            groups.append([nodes.index(M) for M in group])
            for M in group:
                pairs[M] = [(structure_from_key(L.key), M) for L in sources]
        assert [pair for M in nodes for pair in pairs[M]] == naive
        # each set in node order, the sets in the order of their first node
        assert all(group == sorted(group) for group in groups)
        assert [group[0] for group in groups] == sorted(group[0] for group in groups)

    # the dim suite matches node pairs, not label sets (TestDimMasks)
    @pytest.mark.parametrize("suite", [cross_validate_characterizations])
    def test_one_call_per_eigenvalue_set_and_node(self, monkeypatch, suite):
        calls = []
        matchings = verify_mod._matchings

        def counting(node, targets, base):
            calls.append((node.key, tuple(targets)))
            return matchings(node, targets, base)

        monkeypatch.setattr(verify_mod, "_matchings", counting)
        assert suite(3, 3).passed
        nodes = enumerate_structures(3, 3)
        # infinity always matches itself, so only the finite labels count
        finite_sets = {tuple(lbl for lbl in eigenvalues(M) if not lbl.is_infinite)
                       for M in nodes}
        assert len(calls) == len(set(calls)) == len(finite_sets) * len(nodes)

    def test_rules_suite_holds_one_graph_at_a_time(self, monkeypatch):
        alive, counts = weakref.WeakSet(), []
        init, sweep = rules.RuleGraph.__init__, rules.RuleGraph.sweep

        def registering(graph, *args, **kwargs):
            init(graph, *args, **kwargs)
            alive.add(graph)

        def counting(graph, *args, **kwargs):
            gc.collect()
            counts.append(len(alive))
            return sweep(graph, *args, **kwargs)

        monkeypatch.setattr(rules.RuleGraph, "__init__", registering)
        monkeypatch.setattr(rules.RuleGraph, "sweep", counting)
        report = cross_validate_characterizations(4, 4)
        assert report.passed
        assert len(counts) == len(report.stats["universes"]) > 1
        assert counts == [1] * len(counts)

    @pytest.mark.parametrize("suite", [cross_validate_characterizations])
    def test_suites_drop_each_closure_batch(self, monkeypatch, suite):
        class Rows(list):  # a list that takes weak references
            pass

        refs, counts = [], []
        batch = verify_mod.closure_records

        def registering(sources, targets):
            gc.collect()
            counts.append(sum(ref() is not None for ref in refs))
            rows = Rows(batch(sources, targets))
            refs.append(weakref.ref(rows))
            return rows

        monkeypatch.setattr(verify_mod, "closure_records", registering)
        assert suite(4, 4).passed
        assert len(counts) > 1 and counts == [0] * len(counts)

    def test_rows_let_go_of_each_set_before_matching_the_next(self, monkeypatch):
        nodes = enumerate_structures(4, 4)
        base = rules._fresh_reservoir(4, map(eigenvalues, nodes))[0].id
        rows = verify_mod._closure_rows(nodes, 10**7, base)
        held = []  # per matcher call: does the generator still hold a set's sources
        matchings = verify_mod._matchings

        def watching(node, targets, base):
            held.append("sources" in rows.gi_frame.f_locals)
            return matchings(node, targets, base)

        monkeypatch.setattr(verify_mod, "_matchings", watching)
        assert sum(1 for _ in rows) > 1
        assert held and not any(held)
