import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bareiss_rank,
    dense_tangent_codimension,
    fraction_random_equivalence,
    naive_rank,
    pairwise_codimension,
    sparse_tangent_codimension,
)
from kcforbits import pencils
from kcforbits.core import (
    INFINITY,
    KroneckerStructure,
    codimension,
    finite,
    rank_of,
)
from kcforbits.errors import (
    InvariantViolationError,
    MissingLabelError,
    NonInjectiveAssignmentError,
)
from kcforbits.pencils import (
    RationalPencil,
    _eliminate,
    _tangent_rank,
    default_assignment,
    exact_rank,
    normal_rank,
    random_equivalence,
    realize,
    tangent_codimension,
)
from kcforbits.verify import enumerate_structures

e1, e2 = finite(1), finite(2)


@st.composite
def matrices(draw):
    """Int, Fraction or mixed matrices, tall or wide, with zero rows and
    rows that combine earlier rows, entries up to 10^6 in size."""
    bound = draw(st.sampled_from((3, 1000, 10**6)))
    ints = st.integers(-bound, bound)
    fracs = st.fractions(-bound, bound, max_denominator=draw(st.sampled_from((2, 12, 1000))))
    entry = draw(st.sampled_from((ints, fracs, ints | fracs)))
    entry = st.just(0) | entry if draw(st.booleans()) else entry
    cols = draw(st.integers(1, 8))
    mat = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        mat.append([0] * cols)
    if mat:
        for c1, c2 in draw(st.lists(st.tuples(ints, ints), max_size=3)):
            i, j = draw(st.integers(0, len(mat) - 1)), draw(st.integers(0, len(mat) - 1))
            mat.append([c1 * x + c2 * y for x, y in zip(mat[i], mat[j])])
    return draw(st.permutations(mat))


def S(jordan=(), right=(), left=()):
    return KroneckerStructure(jordan, right, left)


class TestRealize:
    def test_single_jordan(self):
        P = realize(S(jordan=[(e1, 1)]), {e1: 5})
        assert P.a == ((Fraction(-5),),)
        assert P.b == ((Fraction(1),),)

    def test_right_singular(self):
        P = realize(S(right=[1]))
        assert P.a == ((0, 1),)
        assert P.b == ((1, 0),)

    def test_zero_pencil(self):
        P = realize(S(right=[0], left=[0]))
        assert (P.m, P.n) == (1, 1)
        assert P.a == ((0,),) and P.b == ((0,),)

    def test_left_singular_is_transpose(self):
        P = realize(S(left=[1]))
        Q = realize(S(right=[1]))
        assert P.a == tuple(zip(*Q.a))
        assert P.b == tuple(zip(*Q.b))

    def test_infinity_block(self):
        P = realize(S(jordan=[(INFINITY, 2)]))
        assert P.a == ((1, 0), (0, 1))
        assert P.b == ((0, 1), (0, 0))

    def test_finite_block_determinant_roots(self):
        # det(A + t*B) = (t - mu)^k: rank drops exactly at mu
        P = realize(S(jordan=[(e1, 2)]), {e1: Fraction(7, 2)})
        assert exact_rank(P.at(Fraction(7, 2))) == 1
        assert exact_rank(P.at(Fraction(3))) == 2

    def test_missing_label(self):
        with pytest.raises(MissingLabelError):
            realize(S(jordan=[(e1, 1)]), {})

    def test_non_injective(self):
        with pytest.raises(NonInjectiveAssignmentError):
            realize(S(jordan=[(e1, 1), (e2, 1)]), {e1: 3, e2: 3})

    def test_default_assignment_is_injective(self):
        K = S(jordan=[(e1, 1), (e2, 2), (INFINITY, 1)])
        assignment = default_assignment(K)
        assert INFINITY not in assignment
        assert len(set(assignment.values())) == 2


class TestExactRank:
    def test_examples(self):
        identity = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert exact_rank(identity) == 3
        assert exact_rank([[0] * 5, [0] * 5]) == 0
        assert exact_rank([[1, 2], [2, 4]]) == 1

    def test_empty(self):
        assert exact_rank([]) == 0

    def test_fractions(self):
        # second row is 3x the first
        assert exact_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]) == 1
        assert exact_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]) == 2

    def test_agrees_with_naive_elimination(self):
        rng = random.Random(90125)
        for trial in range(300):
            rows = rng.randrange(1, 9)
            cols = rng.randrange(1, 9)
            density = rng.choice((0.3, 0.6, 1.0))
            mat = [
                [
                    Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
                    if rng.random() < density
                    else Fraction(0)
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ]
            if trial % 3 == 0 and rows > 1:
                # force rank deficiency with a dependent row
                c1, c2 = rng.randrange(-3, 4), rng.randrange(-3, 4)
                mat[-1] = [c1 * x + c2 * y for x, y in zip(mat[0], mat[rng.randrange(rows - 1)])]
            assert exact_rank(mat) == naive_rank(mat)

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_agrees_with_oracles(self, mat):
        snapshot = [list(row) for row in mat]
        assert exact_rank(mat) == naive_rank(mat) == bareiss_rank(mat)
        assert [list(row) for row in mat] == snapshot

    @pytest.mark.parametrize("mat", [[[1, 2], [3]], [[1], [2, 3]], [[], [1]]])
    def test_ragged_rows_raise(self, mat):
        with pytest.raises(ValueError):
            exact_rank(mat)

    def test_eliminate_leaves_the_left_null_space(self):
        # on [E | I], the identity parts left over span {v : v*E = 0}
        rng = random.Random(2026)
        for trial in range(200):
            rows, cols = rng.randrange(1, 9), rng.randrange(1, 7)
            mat = [[rng.randrange(-5, 6) if rng.random() < 0.6 else 0 for _ in range(cols)]
                   for _ in range(rows)]
            if trial % 2 and rows > 2:
                mat[-1] = [2 * x - 3 * y for x, y in zip(mat[0], mat[1])]
            stacked = [{**{c: x for c, x in enumerate(row) if x}, cols + k: 1}
                       for k, row in enumerate(mat)]
            rank, left = _eliminate(stacked, cols)
            assert rank == naive_rank(mat)
            assert len(left) == rows - rank
            null = [[v.get(cols + k, 0) for k in range(rows)] for v in left]
            assert all(k >= cols for v in left for k in v)
            for v in null:
                assert [sum(v[k] * mat[k][c] for k in range(rows)) for c in range(cols)] \
                    == [0] * cols
            assert naive_rank(null) == len(null)

    def test_dense_growth_bound(self):
        rng = random.Random(72)
        mat = [[rng.randint(-10**6, 10**6) for _ in range(72)] for _ in range(72)]
        start = time.perf_counter()
        rank = exact_rank(mat)
        assert time.perf_counter() - start < 2
        assert rank == bareiss_rank(mat)


class TestTangentCodimension:
    def test_examples(self):
        assert tangent_codimension(realize(S(jordan=[(e1, 1)]), {e1: 5})) == 1
        assert tangent_codimension(realize(S(right=[0], left=[0]))) == 2
        assert tangent_codimension(realize(S(right=[1]))) == 0

    def test_zero_row_pencil(self):
        # L(0) alone is a 0x1 pencil; its orbit fills the whole (empty) space
        assert tangent_codimension(realize(S(right=[0]))) == 0

    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_dense_oracle(self, m, n):
        for K in enumerate_structures(m, n):
            P = realize(K)
            assert tangent_codimension(P) == dense_tangent_codimension(P), K
            for seed in range(5):
                moved = random_equivalence(P, seed)
                assert tangent_codimension(moved) == dense_tangent_codimension(moved), (K, seed)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_transposed_matches_dense_oracle(self, n):
        # m = 5 > n: the pencil is transposed, so the remainder is over n^2 columns
        for K in enumerate_structures(5, n):
            for P in (realize(K), random_equivalence(realize(K), 11)):
                assert tangent_codimension(P) == dense_tangent_codimension(P), K
                assert _tangent_rank(P.m, P.n, *P._integers[:2])[1][1] == n * n

    @pytest.mark.parametrize("K", [
        S(right=[0]),
        S(left=[0]),
        S(right=[0, 0], left=[0]),
        S(jordan=[(e1, 2)], right=[0], left=[1]),
        S(jordan=[(INFINITY, 1)], right=[0, 1], left=[0, 0]),
        S(right=[0, 2], left=[0]),
        S(jordan=[(e1, 1), (e2, 1)], right=[0, 0, 0]),
        S(left=[0, 0, 1, 2]),
    ], ids=str)
    def test_rank_deficient_stacked_block(self, K):
        # L(0) and LT(0) blocks are zero columns and rows, so E = [A; B]
        # (or [A, B] after the transpose) has rank below its column count
        P = realize(K)
        zero_blocks = (K.right if P.m <= P.n else K.left).count(0)
        for Q in (P, random_equivalence(P, 3), random_equivalence(P, 8)):
            m, n = sorted((Q.m, Q.n))
            a, b = (Q.a, Q.b) if Q.m <= Q.n else (list(zip(*Q.a)), list(zip(*Q.b)))
            rho = naive_rank(list(a) + list(b))
            assert zero_blocks and rho == n - zero_blocks
            assert _tangent_rank(Q.m, Q.n, *Q._integers[:2])[1] == (n * (2 * m - rho), m * m)
            assert (tangent_codimension(Q) == dense_tangent_codimension(Q)
                    == sparse_tangent_codimension(Q) == codimension(K)), K

    def test_matches_full_sparse_elimination(self):
        for m, n in ((3, 4), (4, 3), (2, 5)):
            for K in enumerate_structures(m, n):
                P = random_equivalence(realize(K), 5)
                assert tangent_codimension(P) == sparse_tangent_codimension(P), K

    def test_fractional_pencils(self):
        for m in range(1, 4):
            for n in range(1, 4):
                for K in enumerate_structures(m, n):
                    labels = default_assignment(K)
                    P = realize(K, {lbl: Fraction(2 * i + 1, 2 + i) for i, lbl in enumerate(labels)})
                    for seed in range(5):
                        moved = random_equivalence(P, seed)
                        assert moved == fraction_random_equivalence(P, seed), (K, seed)
                        assert tangent_codimension(moved) == dense_tangent_codimension(moved)
                        assert tangent_codimension(moved) == codimension(K)
                        assert normal_rank(moved) == rank_of(K)


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 6))
def test_pairwise_codimension_oracle(m, n):
    for K in enumerate_structures(m, n):
        assert pairwise_codimension(K) == codimension(K) == tangent_codimension(realize(K)), K


class TestRandomEquivalence:
    def test_zero_ops_is_identity(self):
        P = realize(S(jordan=[(e1, 2)], right=[1]))
        assert random_equivalence(P, seed=123, num_ops=0) == P

    def test_deterministic(self):
        P = realize(S(jordan=[(e1, 2)], right=[1]))
        assert random_equivalence(P, seed=5) == random_equivalence(P, seed=5)
        assert random_equivalence(P, seed=5) != random_equivalence(P, seed=6)

    def test_codimension_invariant(self):
        for K in (S(jordan=[(e1, 1)]), S(right=[1]), S(jordan=[(e1, 2), (INFINITY, 1)])):
            P = realize(K)
            for seed in range(6):
                assert tangent_codimension(random_equivalence(P, seed)) == codimension(K)

    @pytest.mark.parametrize("m", range(1, 5))
    def test_matches_fraction_oracle(self, m):
        for n in range(1, 5):
            for K in enumerate_structures(m, n):
                P = realize(K)
                for seed in range(10):
                    assert random_equivalence(P, seed) == fraction_random_equivalence(P, seed)

    @pytest.mark.parametrize("K", [
        S(right=[0, 0]),  # 0x2: column operations only
        S(left=[0, 0, 0]),  # 3x0: row operations on empty rows
        S(right=[0]),  # 0x1: column scales of no entries
        S(),  # 0x0: no operation applies
        S(left=[0]),  # 1x0: row scales only
        S(jordan=[(e1, 1)], right=[0, 0], left=[0]),  # 2x3 with a zero row and zero columns
    ], ids=str)
    def test_matches_fraction_oracle_without_rows_or_columns(self, K):
        # enumerate_structures needs m, n >= 1, so these shapes are listed here
        P = realize(K)
        for seed in range(10):
            moved = random_equivalence(P, seed)
            assert (moved.m, moved.n) == (P.m, P.n)
            assert moved == fraction_random_equivalence(P, seed)

    def test_hands_over_its_integer_form(self):
        P = realize(S(jordan=[(e1, 2), (e2, 1)], right=[1]), {e1: Fraction(1, 2), e2: Fraction(-2, 3)})
        moved = random_equivalence(P, 4)
        a, b, d = vars(moved)["_integers"]  # kept from the operations, not recomputed
        assert d == 6
        for ints, fracs in ((a, moved.a), (b, moved.b)):
            assert all(type(x) is int for row in ints for x in row)
            assert tuple(tuple(Fraction(x, d) for x in row) for row in ints) == fracs

    def test_eigenvalue_preserved(self):
        P = realize(S(jordan=[(e1, 1)]), {e1: 5})
        for seed in range(5):
            moved = random_equivalence(P, seed)
            assert exact_rank(moved.at(Fraction(5))) == 0
            assert exact_rank(moved.at(Fraction(4))) == 1


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 3), (3, 3)])
def test_normal_rank_matches_structure(m, n):
    for K in enumerate_structures(m, n):
        assert normal_rank(realize(K)) == rank_of(K)


def test_normal_rank_samples_past_every_eigenvalue():
    # rank drops at 0, 1, 2, 3, 5 and 7, so six fixed points would miss it
    values = (0, 1, 2, 3, 5, 7)
    a = [[-values[i] if i == j else 0 for j in range(6)] for i in range(6)]
    b = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    P = RationalPencil.from_matrices(a, b)
    assert normal_rank(P) == 6
    assert normal_rank(P, sample_points=values) == 5


@pytest.mark.parametrize("m", range(1, 5))
def test_normal_rank_is_the_maximum_over_every_default_point(m):
    # sampling stops at the first point of rank min(m, n), above which no
    # point can rank, so the maximum over all min(m, n) + 1 points is kept
    for n in range(1, 5):
        full = min(m, n)
        for K in enumerate_structures(m, n):
            P = realize(K)
            for Q in (P, *(random_equivalence(P, seed) for seed in range(3))):
                expected = max(exact_rank(Q.at(t)) for t in range(full + 1))
                assert normal_rank(Q) == expected, K
                evaluated = pencils._normal_rank(Q.m, Q.n, *Q._integers[:2])[1]
                assert evaluated == (1 if expected == full else full + 1), K


def test_normal_rank_at_rational_points():
    P = realize(S(jordan=[(e1, 2)]), {e1: Fraction(7, 2)})
    assert normal_rank(P, sample_points=[Fraction(7, 2)]) == 1
    assert normal_rank(P, sample_points=[Fraction(7, 2), Fraction(1, 3)]) == 2


def test_pencil_validation():
    with pytest.raises(ValueError):
        RationalPencil(m=2, n=2, a=[[1, 0]], b=[[0, 1]])


class TestFromMatrices:
    def test_no_rows_raises(self):
        # n cannot be read from no rows: L(0) + L(0) is 0x2
        P = realize(S(right=[0, 0]))
        for a, b in (((), ()), (P.a, P.b)):
            with pytest.raises(ValueError, match=r"RationalPencil\(m=0"):
                RationalPencil.from_matrices(a, b)

    def test_round_trip(self):
        structures = [K for m in range(1, 4) for n in range(1, 4) for K in enumerate_structures(m, n)]
        for K in structures + [S(left=[0, 0, 0])]:  # and 3x0, rows with no entries
            P = realize(K)
            assert RationalPencil.from_matrices(P.a, P.b) == P, K


def test_pencil_json_round_shape():
    P = realize(S(jordan=[(e1, 1)]), {e1: Fraction(7, 2)})
    payload = P.to_json_dict()
    assert payload == {"m": 1, "n": 1, "a": [["-7/2"]], "b": [["1"]]}


def test_realize_checks_block_fill(monkeypatch):
    monkeypatch.setattr(pencils, "size_of", lambda K: (3, 3))
    with pytest.raises(InvariantViolationError):
        realize(KroneckerStructure([(finite(1), 2)]))
