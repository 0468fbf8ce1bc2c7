"""Exact rational pencils realizing Kronecker structures.

The point of this module is an independent, numeric route to the orbit
codimension: realize a structure as an explicit pencil A + lambda*B with
rational entries, then compute the corank of the derivative T of the
group action (X, Y) |-> (X*A + A*Y, X*B + B*Y) by exact rank computation.
Every rank is taken by integer elimination on Python ints: a pencil holds
its entries scaled once by a common denominator, which keeps the rank of
its tangent map and of each A + t*B, and no Fraction is formed inside the
elimination.  Exhaustive agreement of that corank with the symbolic
Weyr-characteristic formula is the main correctness evidence for both.

The rank of T is not taken on its full 2mn x (m^2 + n^2) matrix.  Output
entry (i, j) of X*S + S*Y, S in {A, B}, meets Y only through its column
j, with coefficients row i of S.  So, rows ordered by j, T is
[X-part | diag(E, ..., E)] with n copies of the 2m x n block E = [A; B].
Let U (rho rows, rho = rank E) and N (2m - rho rows) be an invertible row
transform with U*E of full row rank and N*E = 0.  Applied to each copy,
it makes T block-triangular, and

  rank T = n * rho + rank Z,

where Z, the X-part under N, is n(2m - rho) x m^2.  The row of Z for a
null vector v = (v_A, v_B) and a column j has entry
v_A[i]*A[t][j] + v_B[i]*B[t][j] at X[i][t].  E is eliminated once, on
the rows [E | I], and the leftover identity parts are N.  A pencil with
m > n is transposed first: that keeps the rank of T and makes Z the
smaller side.

The ranks and the random strict equivalences run on int rows:
``_tangent_rank``, ``_normal_rank`` and ``_equivalent`` take m, n and the
rows of d*A and d*B.  The public functions unpack a pencil's integer
form; the ``formulas`` suite calls them on rows alone and forms no Fraction.

Block conventions (any convention with the right elementary divisors
works; this one keeps entries in {-mu, 0, 1}):

  J_k(mu), mu finite:  A = N_k - mu*I_k, B = I_k, so det(A + t*B) = (t - mu)^k
  J_k(inf):            A = I_k, B = N_k
  L_k (k x (k+1)):     A = [0 | I_k], B = [I_k | 0]
  LT_k ((k+1) x k):    the transposes of the L_k matrices

where N_k is the nilpotent single superdiagonal of ones.
"""
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import KroneckerStructure, eigenvalues, size_of
from .errors import InvariantViolationError, MissingLabelError, NonInjectiveAssignmentError

__all__ = [
    "Rational",
    "RationalPencil",
    "realize",
    "default_assignment",
    "exact_rank",
    "tangent_codimension",
    "random_equivalence",
    "normal_rank",
]

# Exact field used throughout: arbitrary-precision, always reduced,
# positive denominator.  The standard library type already is that.
Rational = Fraction


def _frozen(rows):
    return tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows)


@dataclass(frozen=True)
class RationalPencil:
    """An m x n pencil A + lambda*B with exact rational entries.

    ``_integers`` is its integer form (d*A, d*B, d), d a common
    denominator of the entries, as tuples of int rows.  It is computed
    once, on first use, or handed over by :func:`_from_integers`.
    """

    m: int
    n: int
    a: tuple
    b: tuple

    def __post_init__(self):
        a = _frozen(self.a)
        b = _frozen(self.b)
        for name, mat in (("a", a), ("b", b)):
            if len(mat) != self.m or any(len(row) != self.n for row in mat):
                raise ValueError(f"matrix {name} is not {self.m} x {self.n}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_matrices(cls, a, b):
        """The pencil of the rows ``a`` and ``b``, n read from the first
        row.  With no rows there is no n to read, so that raises ``ValueError``."""
        if not len(a):
            raise ValueError("from_matrices needs a row to read n from; "
                             "use RationalPencil(m=0, n=n, a=(), b=()) for a pencil with no rows")
        return cls(m=len(a), n=len(a[0]), a=a, b=b)

    def at(self, t: Fraction):
        """The matrix A + t*B, as lists of rows."""
        t = Fraction(t)
        return [
            [self.a[i][j] + t * self.b[i][j] for j in range(self.n)]
            for i in range(self.m)
        ]

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "a": [[str(x) for x in row] for row in self.a],
            "b": [[str(x) for x in row] for row in self.b],
        }

    @cached_property
    def _integers(self):
        d = math.lcm(*(x.denominator for mat in (self.a, self.b) for row in mat for x in row))

        def scaled(mat):
            return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in mat)

        return scaled(self.a), scaled(self.b), d


def _from_integers(m, n, a, b, d) -> RationalPencil:
    """The m x n pencil (A/d + lambda*B/d) of the int rows ``a`` and
    ``b``, which it keeps as its integer form."""
    frac = Fraction if d == 1 else (lambda x: Fraction(x, d))
    P = RationalPencil(m=m, n=n, a=[list(map(frac, row)) for row in a],
                       b=[list(map(frac, row)) for row in b])
    object.__setattr__(P, "_integers", (tuple(map(tuple, a)), tuple(map(tuple, b)), d))
    return P


def default_assignment(K: KroneckerStructure) -> dict:
    """Distinct small integers for the finite labels of ``K``, in label order."""
    labels = [lbl for lbl in eigenvalues(K) if not lbl.is_infinite]
    return {lbl: Fraction(i + 1) for i, lbl in enumerate(labels)}


def realize(K: KroneckerStructure, assignment: dict | None = None) -> RationalPencil:
    """Block-diagonal rational pencil with Kronecker structure ``K``.

    ``assignment`` maps each finite eigenvalue label of ``K`` to a
    rational value and must be injective on those labels; the infinity
    label needs no value.  Defaults to :func:`default_assignment`.
    """
    if assignment is None:
        assignment = default_assignment(K)
    assignment = {lbl: Fraction(v) for lbl, v in assignment.items()}
    needed = [lbl for lbl in eigenvalues(K) if not lbl.is_infinite]
    for lbl in needed:
        if lbl not in assignment:
            raise MissingLabelError(f"no value assigned to eigenvalue {lbl}")
    values = [assignment[lbl] for lbl in needed]
    if len(set(values)) != len(values):
        raise NonInjectiveAssignmentError(f"assignment repeats a value: {assignment}")

    m, n = size_of(K)
    zero = Fraction(0)
    one = Fraction(1)
    a = [[zero] * n for _ in range(m)]
    b = [[zero] * n for _ in range(m)]
    row = col = 0  # the next block's top left corner
    for lbl, k in K.jordan:  # square blocks first, so row == col
        diagonal, upper = ((one, zero), b) if lbl.is_infinite else ((-assignment[lbl], one), a)
        for i in range(row, row + k):
            a[i][i], b[i][i] = diagonal
        for i in range(row, row + k - 1):
            upper[i][i + 1] = one
        row = col = row + k
    for k in K.right:
        for i in range(k):
            a[row + i][col + i + 1] = b[row + i][col + i] = one
        row, col = row + k, col + k + 1
    for k in K.left:
        for i in range(k):
            a[row + i + 1][col + i] = b[row + i][col + i] = one
        row, col = row + k + 1, col + k
    if (row, col) != (m, n):
        raise InvariantViolationError(f"blocks of {K} fill {row}x{col}, not {m}x{n}")
    return RationalPencil(m=m, n=n, a=a, b=b)


def _integer_entries(row) -> dict:
    """The nonzero entries of ``row`` by column, as ints: int entries as
    they are, any others scaled once by their common denominator."""
    entries = {j: x for j, x in enumerate(row) if x}
    if not all(type(x) is int for x in entries.values()):
        fracs = {j: Fraction(x) for j, x in entries.items()}
        scale = math.lcm(*(x.denominator for x in fracs.values()))
        entries = {j: x.numerator * (scale // x.denominator) for j, x in fracs.items()}
    return entries


def _eliminate(rows: list, ncols: int):
    """Integer elimination of the sparse ``rows`` (maps from column to
    nonzero int entry, changed in place) over the columns 0..ncols-1.

    In each column, the row R0 whose entry p there is least in absolute
    value becomes the pivot row; every other row R with a nonzero entry f
    in that column becomes (p/g)*R - (f/g)*R0, g = gcd(p, f), divided by
    the gcd of its own entries.  Rows with a zero in the pivot column are
    not touched, so the zeros of a sparse matrix cost nothing, and the
    row gcds keep the entries small.  Each step is an invertible row
    operation.  Returns the number of pivots and the rows left over,
    which are nonzero only in columns from ``ncols`` on.
    """
    rank = 0
    for c in range(ncols):
        if not rows:
            break
        hit = [r for r in rows if c in r]
        if not hit:
            continue
        rows = [r for r in rows if c not in r]
        pivot_row = min(hit, key=lambda r: abs(r[c]))
        pivot = pivot_row.pop(c)
        for r in hit:
            if r is pivot_row:
                continue
            factor = r.pop(c)
            g = math.gcd(pivot, factor)
            p, f = pivot // g, factor // g
            if p != 1:
                for j in r:
                    r[j] *= p
            for j, x in pivot_row.items():
                y = r.get(j, 0) - f * x
                if y:
                    r[j] = y
                else:
                    del r[j]
            if r:
                g = math.gcd(*r.values())
                if g != 1:
                    for j in r:
                        r[j] //= g
                rows.append(r)
        rank += 1
    return rank, rows


def exact_rank(matrix) -> int:
    """Rank over the rationals, by integer elimination on sparse rows.

    Accepts any sequence of equal-length rows of ints or Fractions; a
    ragged matrix raises ``ValueError``.  Each row is scaled once to
    integers and kept as a map from column to nonzero entry, and the
    rows are eliminated by :func:`_eliminate`.
    """
    ncols = len(matrix[0]) if len(matrix) else 0
    if any(len(row) != ncols for row in matrix):
        raise ValueError("exact_rank needs rows of equal length")
    return _eliminate([entries for entries in map(_integer_entries, matrix) if entries], ncols)[0]


def _tangent_rank(m: int, n: int, a, b):
    """The rank of the derivative T of the m x n pencil of the int rows
    ``a`` and ``b``, and the shape of the remainder Z whose rank it took
    (see the module docstring)."""
    if m > n:
        a, b, m, n = tuple(zip(*a)), tuple(zip(*b)), n, m
    # [E | I]: row k < m is A[k], row m + k is B[k], with a 1 in column n + k
    stacked = [{**{t: x for t, x in enumerate(row) if x}, n + k: 1}
               for k, row in enumerate(a + b)]
    rho, null = _eliminate(stacked, n)
    a_cols, b_cols = tuple(zip(*a)), tuple(zip(*b))
    remainder = []
    for v in null:
        for j in range(n):
            row = {}  # entry v_A[i]*A[t][j] + v_B[i]*B[t][j] at X[i][t]
            for k, c in v.items():
                i, cols = (k - n, a_cols) if k - n < m else (k - n - m, b_cols)
                for t, x in enumerate(cols[j]):
                    if x:
                        col = i * m + t
                        y = row.get(col, 0) + c * x
                        if y:
                            row[col] = y
                        else:
                            del row[col]
            if row:
                remainder.append(row)
    rank_z = _eliminate(remainder, m * m)[0]
    return n * rho + rank_z, (n * len(null), m * m)


def tangent_codimension(P: RationalPencil) -> int:
    """Codimension of the orbit of ``P``: 2mn minus the rank of the
    derivative T: (X, Y) |-> (X*A + A*Y, X*B + B*Y) of the group action.

    rank T = n * rank E + rank Z, E = [A; B] the block that every column
    of Y meets and Z the n(2m - rank E) x m^2 remainder over X (see the
    module docstring).  Both are ranked by integer elimination on d*A and
    d*B, d a common denominator of the pencil; scaling the pencil scales
    T and keeps its rank.  The full 2mn x (m^2 + n^2) matrix is never
    built.
    """
    return 2 * P.m * P.n - _tangent_rank(P.m, P.n, *P._integers[:2])[0]


def _equivalent(m: int, n: int, a, b, seed: int, num_ops: int | None = None):
    """The int rows (A', B') after ``num_ops`` (default 2*(m+n)) elementary
    operations drawn from ``random.Random(seed)``, each applied to the m x n
    int rows ``a`` and ``b`` at once, as new lists.

    Each draw picks rows or columns and one of: scale one by -3, -2, -1, 2
    or 3; swap two; add -3, ..., 3 (not 0) times one to another.  A row
    operation rebuilds the rows it changes; a column operation changes
    every row of A and B in place.  The draws and their order fix every
    derived pencil, so changing either changes them all.
    """
    rng = random.Random(seed)
    if num_ops is None:
        num_ops = 2 * (m + n)
    a, b = list(map(list, a)), list(map(list, b))
    ops = [(on_rows, count, op) for on_rows, count in ((True, m), (False, n))
           for op, least in (("scale", 1), ("swap", 2), ("axpy", 2)) if count >= least]
    for _ in range(num_ops) if ops else ():
        on_rows, count, op = rng.choice(ops)
        if op == "scale":
            c, i = rng.choice((-3, -2, -1, 2, 3)), rng.randrange(count)
            if on_rows:
                a[i], b[i] = [c * x for x in a[i]], [c * x for x in b[i]]
            else:
                for row in a + b:
                    row[i] *= c
        elif op == "swap":
            i, j = rng.sample(range(count), 2)
            if on_rows:
                a[i], a[j], b[i], b[j] = a[j], a[i], b[j], b[i]
            else:
                for row in a + b:
                    row[i], row[j] = row[j], row[i]
        else:  # item j += c * item i
            i, j = rng.sample(range(count), 2)
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            if on_rows:
                a[j] = [y + c * x for x, y in zip(a[i], a[j])]
                b[j] = [y + c * x for x, y in zip(b[i], b[j])]
            else:
                for row in a + b:
                    row[j] += c * row[i]
    return a, b


def random_equivalence(P: RationalPencil, seed: int, num_ops: int | None = None) -> RationalPencil:
    """A pencil strictly equivalent to ``P``, derived deterministically.

    Applies ``num_ops`` elementary row and column operations (default
    2*(m+n)) with small integer parameters to A and B simultaneously (see
    :func:`_equivalent`); each operation is invertible by construction, so
    the result is Q_left * P * Q_right for invertible rational Q_left,
    Q_right.  The operations run on the integer form (d*A, d*B) of ``P``,
    as plain lists of ints, and the result keeps its own integer form; its
    entries are divided by d once.  ``num_ops=0`` returns a pencil equal
    to ``P``.
    """
    a, b, d = P._integers
    return _from_integers(P.m, P.n, *_equivalent(P.m, P.n, a, b, seed, num_ops), d)


def _normal_rank(m: int, n: int, a, b, sample_points=None):
    """The normal rank of the m x n pencil of the int rows ``a`` and ``b``
    (see :func:`normal_rank`), and the number of points it evaluated."""
    full = min(m, n)  # no point can rank higher
    if sample_points is None:
        sample_points = range(full + 1)
    ranks = []
    for t in sample_points:
        p, q = Fraction(t).as_integer_ratio()
        rows = [{j: v for j, (x, y) in enumerate(zip(row_a, row_b)) if (v := q * x + p * y)}
                for row_a, row_b in zip(a, b)]
        ranks.append(_eliminate([row for row in rows if row], n)[0])
        if ranks[-1] == full:
            break
    return max(ranks), len(ranks)


def normal_rank(P: RationalPencil, sample_points=None) -> int:
    """Rank of A + t*B over the rational functions in t.

    Sampled as the maximum rank over the given evaluation points, by
    default 0, 1, ..., min(m, n).  The rank drops only at the eigenvalues,
    and there are at most min(m, n) of them, so any min(m, n) + 1
    distinct points are enough.  No point can rank above min(m, n), so
    sampling stops at the first point that reaches it.  At t = p/q the
    rank is that of the integer matrix q*(d*A) + p*(d*B), d a common
    denominator of ``P``, whose nonzero entries go straight to
    :func:`_eliminate`.
    """
    a, b, _ = P._integers
    return _normal_rank(P.m, P.n, a, b, sample_points)[0]
