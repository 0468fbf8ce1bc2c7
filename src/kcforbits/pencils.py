"""Exact rational pencils realizing Kronecker structures.

The point of this module is an independent, numeric route to the orbit
codimension: realize a structure as an explicit pencil A + lambda*B with
rational entries, then compute the corank of the derivative of the group
action (X, Y) |-> (X*A + A*Y, X*B + B*Y) by exact fraction-free rank
computation.  Exhaustive agreement of that corank with the symbolic
Weyr-characteristic formula is the main correctness evidence for both.

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
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@dataclass(frozen=True)
class RationalPencil:
    """An m x n pencil A + lambda*B with exact rational entries."""

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
        m = len(a)
        n = len(a[0]) if a else 0
        return cls(m=m, n=n, a=a, b=b)

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
    row = col = 0

    def place(block_a, block_b, rows, cols):
        nonlocal row, col
        for i in range(rows):
            for j in range(cols):
                a[row + i][col + j] = block_a[i][j]
                b[row + i][col + j] = block_b[i][j]
        row += rows
        col += cols

    for lbl, k in K.jordan:
        ident = [[one if i == j else zero for j in range(k)] for i in range(k)]
        nilp = [[one if j == i + 1 else zero for j in range(k)] for i in range(k)]
        if lbl.is_infinite:
            place(ident, nilp, k, k)
        else:
            mu = assignment[lbl]
            shifted = [[nilp[i][j] - (mu if i == j else zero) for j in range(k)] for i in range(k)]
            place(shifted, ident, k, k)
    for k in K.right:
        block_a = [[one if j == i + 1 else zero for j in range(k + 1)] for i in range(k)]
        block_b = [[one if j == i else zero for j in range(k + 1)] for i in range(k)]
        place(block_a, block_b, k, k + 1)
    for k in K.left:
        block_a = [[one if i == j + 1 else zero for j in range(k)] for i in range(k + 1)]
        block_b = [[one if i == j else zero for j in range(k)] for i in range(k + 1)]
        place(block_a, block_b, k + 1, k)
    if (row, col) != (m, n):
        raise InvariantViolationError(f"blocks of {K} fill {row}x{col}, not {m}x{n}")
    return RationalPencil(m=m, n=n, a=a, b=b)


def _integer_rows(matrix):
    """Copy ``matrix`` as integer rows; per-row scaling keeps the rank."""
    rows = []
    for row in matrix:
        fracs = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in fracs)) if fracs else 1
        rows.append([int(x * scale) for x in fracs])
    return rows


def exact_rank(matrix) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) elimination.

    Accepts any sequence of equal-length rows of ints or Fractions.
    Pivots on the first row with a nonzero entry in the current column;
    all intermediate values stay integers, with every division exact.
    """
    rows = _integer_rows(matrix)
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    rank = 0
    prev = 1
    for c in range(nc):
        if rank == nr:
            break
        pivot_row = next((i for i in range(rank, nr) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][c]
        for i in range(rank + 1, nr):
            factor = rows[i][c]
            for jj in range(c + 1, nc):
                num = rows[i][jj] * pivot - factor * rows[rank][jj]
                quot, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                rows[i][jj] = quot
            rows[i][c] = 0
        prev = pivot
        rank += 1
    return rank


def tangent_codimension(P: RationalPencil) -> int:
    """Codimension of the orbit of ``P``: 2mn minus the rank of the
    derivative (X, Y) |-> (X*A + A*Y, X*B + B*Y) of the group action.

    The derivative is assembled as a 2mn x (m^2 + n^2) rational matrix
    and its rank computed exactly.
    """
    m, n = P.m, P.n
    cols = m * m + n * n
    rows = []
    for s in (P.a, P.b):
        for i in range(m):
            for j in range(n):
                row = [Fraction(0)] * cols
                for t in range(m):
                    row[i * m + t] = s[t][j]
                for t in range(n):
                    row[m * m + t * n + j] += s[i][t]
                rows.append(row)
    return 2 * m * n - exact_rank(rows)


def random_equivalence(P: RationalPencil, seed: int, num_ops: int | None = None) -> RationalPencil:
    """A pencil strictly equivalent to ``P``, derived deterministically.

    Applies ``num_ops`` elementary row and column operations (default
    2*(m+n)) with small integer parameters to A and B simultaneously;
    each operation is invertible by construction, so the result is
    Q_left * P * Q_right for invertible rational Q_left, Q_right.
    ``num_ops=0`` returns ``P`` itself.
    """
    rng = random.Random(seed)
    m, n = P.m, P.n
    if num_ops is None:
        num_ops = 2 * (m + n)
    a = [list(row) for row in P.a]
    b = [list(row) for row in P.b]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        b[i], b[j] = b[j], b[i]

    def row_axpy(c, i, j):  # row_j += c * row_i
        for mat in (a, b):
            mat[j] = [mat[j][t] + c * mat[i][t] for t in range(n)]

    def row_scale(c, i):
        for mat in (a, b):
            mat[i] = [c * x for x in mat[i]]

    def col_swap(i, j):
        for mat in (a, b):
            for row in mat:
                row[i], row[j] = row[j], row[i]

    def col_axpy(c, i, j):  # col_j += c * col_i
        for mat in (a, b):
            for row in mat:
                row[j] += c * row[i]

    def col_scale(c, i):
        for mat in (a, b):
            for row in mat:
                row[i] *= c

    nonzero = (-3, -2, -1, 2, 3)
    small = (-3, -2, -1, 1, 2, 3)
    for _ in range(num_ops):
        choices = []
        if m >= 1:
            choices.append("row_scale")
        if m >= 2:
            choices += ["row_swap", "row_axpy"]
        if n >= 1:
            choices.append("col_scale")
        if n >= 2:
            choices += ["col_swap", "col_axpy"]
        if not choices:
            break
        op = rng.choice(choices)
        if op == "row_scale":
            row_scale(Fraction(rng.choice(nonzero)), rng.randrange(m))
        elif op == "row_swap":
            i, j = rng.sample(range(m), 2)
            row_swap(i, j)
        elif op == "row_axpy":
            i, j = rng.sample(range(m), 2)
            row_axpy(Fraction(rng.choice(small)), i, j)
        elif op == "col_scale":
            col_scale(Fraction(rng.choice(nonzero)), rng.randrange(n))
        elif op == "col_swap":
            i, j = rng.sample(range(n), 2)
            col_swap(i, j)
        else:
            i, j = rng.sample(range(n), 2)
            col_axpy(Fraction(rng.choice(small)), i, j)
    return RationalPencil(m=m, n=n, a=a, b=b)


def normal_rank(P: RationalPencil, sample_points=(0, 1, 2, 3, 5, 7)) -> int:
    """Rank of A + t*B over the rational functions in t.

    Sampled as the maximum rank over the given evaluation points; the
    rank drops only at the (finitely many) eigenvalues, so any list of
    more than min(m, n) distinct points is enough.
    """
    return max(exact_rank(P.at(Fraction(t))) for t in sample_points)
