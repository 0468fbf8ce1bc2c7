"""Kronecker canonical structures and their eigenstructure invariants.

A matrix pencil A + lambda*B is classified, up to multiplication by
invertible matrices on either side, by its Kronecker canonical form: a
direct sum of Jordan blocks J_k(mu) at finite or infinite eigenvalues,
right singular blocks L_k of size k x (k+1), and left singular blocks
L_k^T of size (k+1) x k.  This module represents such a block multiset
symbolically and computes the invariants everything else is built on:
pencil dimensions, rank, Weyr characteristics, and the codimension of
the orbit of any pencil carrying the structure.

Eigenvalues are opaque labels rather than complex numbers.  Every
quantity computed here depends only on which blocks share an eigenvalue,
never on its numeric value, so labels suffice; exact numeric pencils are
produced separately by :mod:`kcforbits.pencils`.

The invariants form one record on label codes
(:meth:`EigenvalueLabel.sort_key`), keyed by :func:`structure_sort_key`:
a structure carries its record and hashes from its key, and the rule
graph and the verifier's matcher read records from keys without building
structures.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter, mul
from typing import NamedTuple

__all__ = [
    "EigenvalueLabel",
    "INFINITY",
    "finite",
    "KroneckerStructure",
    "size_of",
    "size_from_blocks",
    "block_invariants",
    "rank_of",
    "weyr_jordan",
    "weyr_singular",
    "codimension",
    "orbit_dimension",
    "canonicalize",
    "eigenvalues",
    "relabel",
    "weyr_characteristic",
    "is_weakly_decreasing",
    "partitions_desc",
    "partition_multisets",
    "structure_sort_key",
    "structure_from_key",
]


@dataclass(frozen=True, slots=True)
class EigenvalueLabel:
    """A point of the extended complex plane, identified only by name.

    ``kind`` is ``"finite"`` or ``"infinity"``; ``id`` distinguishes
    finite labels and is forced to 0 for the (unique) infinity label.
    """

    kind: str
    id: int = 0

    def __post_init__(self):
        if self.kind not in ("finite", "infinity"):
            raise ValueError(f"unknown label kind {self.kind!r}")
        if self.kind == "finite" and self.id < 0:
            raise ValueError("finite label ids must be non-negative")
        if self.kind == "infinity" and self.id != 0:
            raise ValueError("there is exactly one infinity label")

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinity"

    def sort_key(self) -> int | float:
        """The label's code: ``id`` for ``e<id>``, ``math.inf`` for infinity.

        Codes order the labels (finite ones by id, infinity last), and the
        rule graph and the verifier's matcher work on them in place of
        labels; int/float comparison and hashing are exact, so codes sort
        and hash alike under every ``PYTHONHASHSEED``.
        """
        return math.inf if self.is_infinite else self.id

    def __str__(self) -> str:
        return "inf" if self.is_infinite else f"e{self.id}"

    def __repr__(self) -> str:
        return f"<{self}>"


INFINITY = EigenvalueLabel("infinity")


def finite(i: int) -> EigenvalueLabel:
    """The finite eigenvalue label ``e<i>``."""
    return EigenvalueLabel("finite", i)


def _jordan_key(entry):
    lbl, size = entry
    return (lbl.sort_key(), size)


class _Invariants(NamedTuple):
    """The invariants of one structure, on label codes.

    ``key`` is the :func:`structure_sort_key`; ``weyr`` holds (code,
    (W_1, W_2, ...)) pairs in code order.  Structures carry this record,
    the rule graph reads it from keys, and the verifier's matcher renames
    its codes, so :mod:`kcforbits.closure` decides every pair on it.
    """

    key: tuple
    size: tuple  # (m, n)
    rank: int
    r: tuple  # (r_0, r_1, ...)
    l: tuple  # (l_0, l_1, ...)
    weyr: tuple
    codim: int


@dataclass(frozen=True, slots=True)
class KroneckerStructure:
    """A multiset of canonical blocks: the symbolic KCF of a pencil.

    ``jordan`` holds (label, size) pairs with size >= 1, ``right`` and
    ``left`` hold the sizes (>= 0, size-0 blocks included) of the right
    and left singular blocks.  All three are normalized to sorted tuples
    on construction, so equality is multiset equality with eigenvalue
    labels compared as concrete identities.

    The invariant record is computed on first use and then carried (a race
    only computes the same values twice); read it through the module
    functions.  The hash is that of the record's key, built from ints and
    ``math.inf`` only, so it does not depend on ``PYTHONHASHSEED`` and a
    copy pickled under another seed hashes alike.
    """

    jordan: tuple = ()
    right: tuple = ()
    left: tuple = ()
    _inv: _Invariants | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        jordan = []
        for entry in self.jordan:
            lbl, size = entry
            if not isinstance(lbl, EigenvalueLabel):
                raise TypeError(f"jordan entry {entry!r} has no EigenvalueLabel")
            size = int(size)
            if size < 1:
                raise ValueError(f"Jordan block size must be >= 1, got {size}")
            jordan.append((lbl, size))
        right = tuple(sorted(int(k) for k in self.right))
        left = tuple(sorted(int(k) for k in self.left))
        if right and right[0] < 0:
            raise ValueError("right singular block sizes must be >= 0")
        if left and left[0] < 0:
            raise ValueError("left singular block sizes must be >= 0")
        object.__setattr__(self, "jordan", tuple(sorted(jordan, key=_jordan_key)))
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "left", left)

    def __hash__(self) -> int:
        return hash(self._invariants().key)

    def _invariants(self) -> _Invariants:
        if self._inv is None:
            object.__setattr__(self, "_inv", block_invariants(*structure_sort_key(self)))
        return self._inv

    def __str__(self) -> str:
        return _render_blocks(self.jordan, self.right, self.left)

    def __repr__(self) -> str:
        return f"<{self}>" if (self.jordan or self.right or self.left) else "<empty pencil>"


def _render_blocks(jordan, right, left) -> str:
    """``J(s;mu) + ... + L(k) + ... + LT(k) + ...``, terms in the given order."""
    terms = [f"J({s};{lbl})" for lbl, s in jordan]
    terms += [f"L({k})" for k in right]
    terms += [f"LT({k})" for k in left]
    return " + ".join(terms)


def block_invariants(jordan, right, left) -> _Invariants:
    """The invariant record of the structure whose key is (jordan, right, left).

    ``jordan`` holds (code, size) pairs sorted by code, then size, so each
    code's sizes are one run; the codimension is the Weyr formula.  The
    rule graph reads records from its keys without building structures.
    """
    weyr = tuple([
        (c, _weyr([s for _, s in run], 1)) for c, run in groupby(jordan, key=itemgetter(0))
    ])
    r, ell = _weyr(right, 0), _weyr(left, 0)
    m, n = size_from_blocks(jordan, right, left)
    # l_0*n + r_0*m - sum r_i*r_{i+1} - sum l_i*l_{i+1} + sum_mu sum W_i(mu)^2
    codim = len(left) * n + len(right) * m
    codim -= sum(map(mul, r, r[1:])) + sum(map(mul, ell, ell[1:]))
    codim += sum([sum(map(mul, seq, seq)) for _, seq in weyr])
    return _Invariants((jordan, right, left), (m, n), n - len(right), r, ell, weyr, codim)


def _weyr(sorted_sizes, start: int) -> tuple:
    """Entry i, from ``start`` on, counts the sizes >= i; () when empty."""
    if not sorted_sizes:
        return ()
    k = len(sorted_sizes)
    return tuple([k - bisect_left(sorted_sizes, i) for i in range(start, sorted_sizes[-1] + 1)])


def size_of(K: KroneckerStructure) -> tuple:
    """Row and column count (m, n) of any pencil with structure ``K``."""
    return K._invariants().size


def size_from_blocks(jordan, right, left) -> tuple:
    """(m, n) from the block sizes alone, without computing the invariants.

    For guards that must refuse a large pencil before doing work linear in
    its size; everywhere else :func:`size_of` reads the carried value.
    """
    content = sum([s for _, s in jordan]) + sum(right) + sum(left)
    return content + len(left), content + len(right)


def rank_of(K: KroneckerStructure) -> int:
    """Normal rank of a pencil with structure ``K``.

    Equals n minus the number of right singular blocks, which coincides
    with m minus the number of left singular blocks.
    """
    return K._invariants().rank


def eigenvalues(K: KroneckerStructure) -> tuple:
    """Distinct eigenvalue labels of ``K``, in label order."""
    # each label's blocks are one run of K.jordan, W_1 blocks long
    out, i = [], 0
    for _, seq in K._invariants().weyr:
        out.append(K.jordan[i][0])
        i += seq[0]
    return tuple(out)


def is_weakly_decreasing(seq) -> bool:
    seq = tuple(seq)
    return all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))


def weyr_characteristic(sizes, include_zero: bool = False) -> tuple:
    """Weyr characteristic of a finite multiset of non-negative integers.

    Entry i counts how many sizes are >= i.  With ``include_zero`` the
    sequence starts at index 0 (so the first entry is the multiset
    cardinality); otherwise it starts at index 1.  It ends at the largest
    size, so it has no trailing zeros and the empty multiset yields ().
    """
    return _weyr(sorted(sizes), 0 if include_zero else 1)


def weyr_jordan(K: KroneckerStructure, mu: EigenvalueLabel) -> tuple:
    """(W_1, W_2, ...) for the Jordan blocks of ``K`` at ``mu``.

    Empty when ``mu`` is not an eigenvalue of ``K``.
    """
    return dict(K._invariants().weyr).get(mu.sort_key(), ())


def weyr_singular(K: KroneckerStructure, side: str) -> tuple:
    """(r_0, r_1, ...) or (l_0, l_1, ...) of the singular blocks.

    The index-0 entry counts all blocks of that side, size-0 blocks
    included.
    """
    if side == "right":
        return K._invariants().r
    if side == "left":
        return K._invariants().l
    raise ValueError(f"side must be 'right' or 'left', got {side!r}")


def codimension(K: KroneckerStructure) -> int:
    """Codimension of the orbit of any pencil with structure ``K``.

    Evaluates the Weyr-characteristic formula
        l_0*n + r_0*m - sum_i r_i*r_{i+1} - sum_i l_i*l_{i+1}
        + sum_mu sum_{i>=1} W_i(mu)^2
    where the eigenvalue sum runs over the distinct eigenvalues present.
    """
    return K._invariants().codim


def orbit_dimension(K: KroneckerStructure) -> int:
    """Dimension of the orbit: 2mn minus the codimension."""
    m, n = size_of(K)
    return 2 * m * n - codimension(K)


def relabel(K: KroneckerStructure, mapping: dict) -> KroneckerStructure:
    """Rename finite eigenvalue labels through ``mapping``.

    Labels absent from the mapping stay put.  The infinity label cannot
    be renamed, and the renaming must not merge distinct eigenvalues.
    """
    new_jordan = []
    for lbl, size in K.jordan:
        target = mapping.get(lbl, lbl)
        if lbl.is_infinite and target != lbl:
            raise ValueError("the infinity label cannot be renamed")
        if target.is_infinite and not lbl.is_infinite:
            raise ValueError("finite labels cannot be renamed to infinity")
        new_jordan.append((target, size))
    out = KroneckerStructure(new_jordan, K.right, K.left)
    if len(eigenvalues(out)) != len(eigenvalues(K)):
        raise ValueError("relabeling merged distinct eigenvalues")
    return out


def _partition_order_key(p: tuple) -> tuple:
    # larger Segre data first under ascending sort
    return tuple(-s for s in p)


def canonicalize(K: KroneckerStructure) -> KroneckerStructure:
    """Normal form of ``K`` under renaming of finite eigenvalue labels.

    Finite labels become e1, e2, ... in a fixed deterministic order of
    their Segre characteristics; the infinity label is left alone.
    Idempotent, and invariant under any bijective relabeling of the
    finite labels.
    """
    # K.jordan is sorted: each label's sizes are one ascending run, and
    # its Segre characteristic is that run reversed
    segre = [(lbl, [s for _, s in run][::-1])
             for lbl, run in groupby(K.jordan, key=itemgetter(0)) if not lbl.is_infinite]
    segre.sort(key=lambda pair: (_partition_order_key(pair[1]), pair[0].sort_key()))
    mapping = {lbl: finite(i + 1) for i, (lbl, _) in enumerate(segre)}
    return relabel(K, mapping)


def partitions_desc(total: int, max_part: int | None = None):
    """Yield the partitions of ``total`` as non-increasing tuples."""
    if total == 0:
        yield ()
        return
    top = min(total, max_part) if max_part is not None else total
    for first in range(top, 0, -1):
        for rest in partitions_desc(total - first, first):
            yield (first,) + rest


def partition_multisets(total: int, max_count: int):
    """Multisets of at most ``max_count`` nonempty partitions summing to ``total``.

    Each multiset is a tuple of partitions listed in the canonical order
    used by :func:`canonicalize`, so assigning labels e1, e2, ... in list
    order yields a canonical structure.
    """
    candidates = sorted(
        (p for k in range(1, total + 1) for p in partitions_desc(k)),
        key=_partition_order_key,
    )
    out = []

    def rec(start, remaining, slots, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if slots == 0:
            return
        for idx in range(start, len(candidates)):
            p = candidates[idx]
            if sum(p) > remaining:
                continue
            acc.append(p)
            rec(idx, remaining - sum(p), slots - 1, acc)
            acc.pop()

    rec(0, total, max_count, [])
    return out


def structure_sort_key(K: KroneckerStructure) -> tuple:
    """``K`` encoded as ``(jordan, right, left)``, a total order on structures.

    ``jordan`` holds sorted (code, size) pairs, each label replaced by its
    :meth:`EigenvalueLabel.sort_key` code; ``right`` and ``left`` are the
    sorted singular sizes.  Equal keys are equal structures, so the rule
    graph and the verifier use the key as the structure's encoding;
    :func:`structure_from_key` inverts it.
    """
    return tuple([(lbl.sort_key(), s) for lbl, s in K.jordan]), K.right, K.left


def _label(code) -> EigenvalueLabel:
    """The label whose :meth:`EigenvalueLabel.sort_key` is ``code``."""
    return INFINITY if code == math.inf else finite(code)


def structure_from_key(key) -> KroneckerStructure:
    """The structure whose :func:`structure_sort_key` is ``key``."""
    jordan, right, left = key
    return KroneckerStructure([(_label(c), s) for c, s in jordan], right, left)
