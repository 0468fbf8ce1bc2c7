import math
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_label_key, oracle_structure_key, reference_invariants, structures
from kcforbits.core import (
    INFINITY,
    EigenvalueLabel,
    KroneckerStructure,
    canonicalize,
    codimension,
    eigenvalues,
    finite,
    orbit_dimension,
    rank_of,
    relabel,
    size_of,
    structure_from_key,
    structure_sort_key,
    weyr_characteristic,
    weyr_jordan,
    weyr_singular,
)
from kcforbits.rules import _fresh_reservoir, apply_rule, applicable_instances
from kcforbits.verify import enumerate_structures

e1, e2, e5, e7 = finite(1), finite(2), finite(5), finite(7)


def S(jordan=(), right=(), left=()):
    return KroneckerStructure(jordan, right, left)


class TestLabels:
    def test_equality(self):
        assert finite(3) == finite(3)
        assert finite(3) != finite(4)
        assert INFINITY == EigenvalueLabel("infinity")
        assert INFINITY != finite(0)

    def test_unique_infinity(self):
        with pytest.raises(ValueError):
            EigenvalueLabel("infinity", 2)
        with pytest.raises(ValueError):
            EigenvalueLabel("imag", 1)

    def test_str(self):
        assert str(finite(12)) == "e12"
        assert str(INFINITY) == "inf"


class TestSortKeys:
    """The label codes order labels and structures as the former tuple keys
    (``conftest.oracle_label_key``) did, e0 and huge ids included."""

    EXTREMES = {finite(1): finite(0), finite(2): finite(10**30)}

    def test_labels(self):
        labels = [INFINITY, finite(10**30 + 1), finite(10**30), finite(7), finite(0)]
        assert sorted(labels, key=EigenvalueLabel.sort_key) == labels[::-1]
        assert sorted(labels, key=oracle_label_key) == labels[::-1]

    def test_structures_to_4x4(self):
        nodes = []
        for m in range(1, 5):
            for n in range(1, 5):
                for K in enumerate_structures(m, n):
                    nodes += [K, relabel(K, self.EXTREMES)]
        random.Random(0).shuffle(nodes)
        assert sorted(nodes, key=structure_sort_key) == sorted(nodes, key=oracle_structure_key)
        for K in nodes:
            assert structure_from_key(structure_sort_key(K)) == K


class TestStructureValidation:
    def test_jordan_size_positive(self):
        with pytest.raises(ValueError):
            S(jordan=[(e1, 0)])

    def test_singular_nonnegative(self):
        with pytest.raises(ValueError):
            S(right=[-1])
        with pytest.raises(ValueError):
            S(left=[-2])

    def test_normalized_storage(self):
        a = S(jordan=[(e2, 1), (e1, 3), (e1, 1)], right=[2, 0], left=[1])
        b = S(jordan=[(e1, 1), (e1, 3), (e2, 1)], right=[0, 2], left=[1])
        assert a == b
        assert a.right == (0, 2)


class TestSizeRank:
    def test_size_examples(self):
        assert size_of(S(right=[0], left=[0])) == (1, 1)
        assert size_of(S(right=[2, 0])) == (2, 4)
        assert size_of(S(jordan=[(e1, 3)])) == (3, 3)

    def test_rank_examples(self):
        assert rank_of(S(right=[1])) == 1
        # n copies of L(0) and m copies of LT(0): the m x n zero pencil
        assert rank_of(S(right=[0] * 4, left=[0] * 3)) == 0
        assert rank_of(S(jordan=[(e1, 2), (INFINITY, 1)])) == 3

    def test_rank_identity(self):
        K = S(jordan=[(e1, 2)], right=[1, 0], left=[0])
        m, n = size_of(K)
        assert m - len(K.left) == n - len(K.right) == rank_of(K)


class TestWeyr:
    def test_jordan_examples(self):
        assert weyr_jordan(S(jordan=[(e1, 3), (e1, 3), (e1, 1)]), e1) == (3, 2, 2)
        assert weyr_jordan(S(jordan=[(e1, 3)]), e2) == ()
        assert weyr_jordan(S(jordan=[(INFINITY, 2), (INFINITY, 1)]), INFINITY) == (2, 1)

    def test_singular_examples(self):
        assert weyr_singular(S(right=[0, 2]), "right") == (2, 1, 1)
        assert weyr_singular(S(right=[1, 1]), "right") == (2, 2)
        assert weyr_singular(S(jordan=[(e1, 1)]), "left") == ()

    def test_bad_side(self):
        with pytest.raises(ValueError):
            weyr_singular(S(), "up")

    def test_weyr_characteristic_zero_index(self):
        assert weyr_characteristic([0, 0], include_zero=True) == (2,)
        assert weyr_characteristic([], include_zero=True) == ()
        assert weyr_characteristic([2, 1], include_zero=True) == (2, 2, 1)


class TestCodimension:
    def test_examples(self):
        assert codimension(S(right=[0], left=[0])) == 2
        assert codimension(S(jordan=[(e1, 3)])) == 3
        assert codimension(S(jordan=[(e1, 2), (e1, 1)])) == 5
        assert codimension(S(right=[1])) == 0

    def test_orbit_dimension_examples(self):
        assert orbit_dimension(S(right=[0], left=[0])) == 0
        assert orbit_dimension(S(right=[1])) == 4
        assert orbit_dimension(S(jordan=[(e1, 1)])) == 1


class TestCanonicalize:
    def test_single_label_renamed(self):
        assert canonicalize(S(jordan=[(e7, 1)])) == S(jordan=[(e1, 1)])

    def test_label_permutation_invariance(self):
        a = canonicalize(S(jordan=[(e2, 1), (e5, 2)]))
        b = canonicalize(S(jordan=[(e5, 1), (e2, 2)]))
        assert a == b == S(jordan=[(e1, 2), (e2, 1)])

    def test_infinity_fixed(self):
        assert canonicalize(S(jordan=[(INFINITY, 1)])) == S(jordan=[(INFINITY, 1)])

    def test_relabel_guards(self):
        with pytest.raises(ValueError):
            relabel(S(jordan=[(INFINITY, 1)]), {INFINITY: e1})
        with pytest.raises(ValueError):
            relabel(S(jordan=[(e1, 1), (e2, 1)]), {e1: e2})


@settings(max_examples=300)
@given(structures())
def test_weyr_sequences_nonincreasing(K):
    for mu in eigenvalues(K):
        w = weyr_jordan(K, mu)
        assert all(w[i] >= w[i + 1] for i in range(len(w) - 1))
        assert sum(w) == sum(s for lbl, s in K.jordan if lbl == mu)
    for side in ("right", "left"):
        w = weyr_singular(K, side)
        assert all(w[i] >= w[i + 1] for i in range(len(w) - 1))


@settings(max_examples=300)
@given(structures())
def test_size_and_rank_identities(K):
    m, n = size_of(K)
    r = weyr_singular(K, "right")
    ell = weyr_singular(K, "left")
    r0 = r[0] if r else 0
    l0 = ell[0] if ell else 0
    assert m - l0 == n - r0 == rank_of(K)
    w_total = sum(sum(weyr_jordan(K, mu)) for mu in eigenvalues(K))
    assert m == sum(r[1:]) + sum(ell) + w_total
    assert n == sum(r) + sum(ell[1:]) + w_total


@settings(max_examples=300)
@given(structures())
def test_codimension_bounds(K):
    m, n = size_of(K)
    assert 0 <= codimension(K) <= 2 * m * n
    assert orbit_dimension(K) >= 0


def test_codimension_bounds_exhaustive_to_4x4():
    from kcforbits.verify import enumerate_structures

    for m in range(1, 5):
        for n in range(1, 5):
            for K in enumerate_structures(m, n):
                assert 0 <= codimension(K) <= 2 * m * n


@settings(max_examples=300)
@given(structures())
def test_canonicalize_idempotent_and_invariant(K):
    canon = canonicalize(K)
    assert canonicalize(canon) == canon
    assert size_of(canon) == size_of(K)
    assert rank_of(canon) == rank_of(K)
    assert codimension(canon) == codimension(K)


@settings(max_examples=300)
@given(structures(), st.permutations(list(range(1, 9))))
def test_invariants_stable_under_relabeling(K, perm):
    mapping = {finite(i + 1): finite(perm[i] + 100) for i in range(8)}
    moved = relabel(K, mapping)
    assert size_of(moved) == size_of(K)
    assert rank_of(moved) == rank_of(K)
    assert codimension(moved) == codimension(K)
    assert canonicalize(moved) == canonicalize(K)


def assert_carries_reference(K):
    expected = reference_invariants(K)
    carried = K._invariants()._asdict()
    assert carried.pop("key") == structure_sort_key(K)
    assert hash(K) == hash(structure_sort_key(K))  # ints only
    labels = expected.pop("labels")
    # the record holds the Weyr data on label codes
    coded = tuple((math.inf if mu.is_infinite else mu.id, w) for mu, w in expected["weyr"])
    assert carried == {**expected, "weyr": coded}
    assert K._invariants() is K._invariants()  # computed once, then carried
    assert size_of(K) == expected["size"] and codimension(K) == expected["codim"]
    assert eigenvalues(K) == labels
    assert [weyr_jordan(K, mu) for mu in eigenvalues(K)] == [w for _, w in expected["weyr"]]


class TestCarriedInvariants:
    def test_enumerated_and_their_children_to_4x4(self):
        for m in range(1, 5):
            for n in range(1, 5):
                for K in enumerate_structures(m, n):
                    assert_carries_reference(K)
                    evs = list(eigenvalues(K))
                    pool = evs + _fresh_reservoir(min(m, n), [evs]) + [INFINITY]
                    for inst in applicable_instances(K, pool):
                        assert_carries_reference(apply_rule(K, inst))

    @settings(max_examples=300)
    @given(structures())
    def test_random_structures(self, K):
        assert_carries_reference(K)

    @settings(max_examples=200)
    @given(structures(), st.randoms(use_true_random=False))
    def test_permuted_input_same_hash(self, K, rnd):
        parts = [list(K.jordan), list(K.right), list(K.left)]
        for part in parts:
            rnd.shuffle(part)
        again = KroneckerStructure(*parts)
        assert again == K
        assert hash(again) == hash(K)

    def test_hash_survives_pickle_from_another_hash_seed(self):
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        code = (
            "import pickle, sys\n"
            "from kcforbits.verify import enumerate_structures\n"
            "structures = enumerate_structures(3, 3)\n"
            "{hash(K) for K in structures}  # fills the carried hashes\n"
            "sys.stdout.buffer.write(pickle.dumps(structures))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             check=True).stdout
        here = set(enumerate_structures(3, 3))
        pickled = pickle.loads(out)
        assert len(pickled) == len(here)
        assert all(K in here for K in pickled)
