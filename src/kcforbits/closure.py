"""Orbit-closure order on Kronecker structures, via weak majorization.

Whether one orbit lies in the closure of another is decided by three
weak-majorization conditions between the Weyr characteristics of the two
structures, shifted by the rank drop h: one pair at a time by
:func:`degenerates_to`, or all pairs of two lists at once by
:func:`closure_bitsets`.  Orientation convention used
everywhere in this package: ``degenerates_to(L, M)`` is true when M lies
in the closure of the orbit of L, i.e. pencils with structure L can
degenerate to the more special structure M.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .core import KroneckerStructure, _label, codimension, size_of
from .errors import DuplicateNodeError, InvariantViolationError, SizeMismatchError

__all__ = [
    "weakly_majorizes",
    "degenerates_to",
    "same_orbit",
    "majorization_report",
    "closure_bitsets",
    "ClosureGraph",
    "build_closure_graph",
]


def _partial_sums(lower, upper, shift: int):
    """(j, lhs, rhs) of ``lower`` against ``upper + (shift, shift, ...)``.

    Only j = 1 .. len(lower) can fail: past that the left side is constant
    while the right side keeps growing.
    """
    left = right = 0
    for j, value in enumerate(lower, start=1):
        left += value
        right += upper[j - 1] if j <= len(upper) else 0
        yield j, left, right + j * shift


def weakly_majorizes(upper, lower) -> bool:
    """True iff every prefix sum of ``lower`` is <= the one of ``upper``.

    Both sequences must be non-increasing and non-negative; they are
    treated as zero-extended to infinite length.
    """
    return all(lhs <= rhs for _, lhs, rhs in _partial_sums(tuple(lower), tuple(upper), 0))


def _conditions(L, M):
    """h = rank L - rank M and the majorizations behind ``degenerates_to``,
    on the invariant records of L and M.

    A record is a :class:`core._Invariants` on label codes, as in
    :func:`closure_records`.  The conditions are (side or label code,
    lower, upper), in this order: r(M) against r(L), l(M) against l(L),
    then W(mu, L) against W(mu, M) for each label code mu of either, in
    code order.  Each holds when ``lower`` is weakly majorized by
    ``upper`` shifted by h.  A label of M alone has an empty ``lower``,
    whose condition always holds.  Records of different sizes raise
    :class:`SizeMismatchError`.
    """
    if L.size != M.size:
        raise SizeMismatchError(f"cannot compare {L.size} with {M.size}")
    weyr_l, weyr_m = dict(L.weyr), dict(M.weyr)
    conditions = [("right", M.r, L.r), ("left", M.l, L.l)]
    conditions += [(mu, weyr_l.get(mu, ()), weyr_m.get(mu, ()))
                   for mu in sorted(weyr_l.keys() | weyr_m.keys())]
    return L.rank - M.rank, conditions


def degenerates_to(L: KroneckerStructure, M: KroneckerStructure) -> bool:
    """True iff M lies in the closure of the orbit of L.

    Requires the same pencil size, and decides via h = rank L - rank M
    plus three weak majorizations shifted by h: r(M) under r(L), l(M)
    under l(L), and W(mu, L) under W(mu, M) for every eigenvalue mu.
    Eigenvalue labels are compared as concrete identities, so structures
    with disjoint eigenvalues are unrelated unless the Jordan parts can
    vanish into the shifts.
    """
    return _in_closure(L._invariants(), M._invariants())


def _in_closure(L, M) -> bool:
    """:func:`degenerates_to` on the invariant records of L and M, through
    :func:`_conditions`."""
    h, conditions = _conditions(L, M)
    return h >= 0 and all(lhs <= rhs for _, lower, upper in conditions
                          for _, lhs, rhs in _partial_sums(lower, upper, h))


def same_orbit(L: KroneckerStructure, M: KroneckerStructure) -> bool:
    """True iff L and M denote the same orbit.

    With labels as concrete identities this is plain equality of the
    normalized block multisets, which is equivalent to h = 0 together
    with equality in all three majorizations.
    """
    return L == M


def majorization_report(L: KroneckerStructure, M: KroneckerStructure) -> dict:
    """Full partial-sum witnesses behind ``degenerates_to(L, M)``."""
    h, majorizations = _conditions(L._invariants(), M._invariants())
    conditions = []
    for side, lower, upper in majorizations if h >= 0 else ():
        rows = [
            {"j": j, "lhs": lhs, "rhs": rhs, "ok": lhs <= rhs}
            for j, lhs, rhs in _partial_sums(lower, upper, h)
        ]
        conditions.append({
            "condition": side if isinstance(side, str) else f"eigenvalue {_label(side)}",
            "lower": list(lower),
            "upper": list(upper),
            "shift": h,
            "ok": all(row["ok"] for row in rows),
            "partial_sums": rows,
        })
    return {
        "L": str(L),
        "M": str(M),
        "h": h,
        "conditions": conditions,
        "in_closure": h >= 0 and all(c["ok"] for c in conditions),
        "same_orbit": same_orbit(L, M),
        "codim_L": codimension(L),
        "codim_M": codimension(M),
    }


def set_bits(bits: int):
    """Indices of the set bits of ``bits``, in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _transpose(rows: list, width: int) -> list:
    """Bit k of entry s is bit s of ``rows[k]``, for every s < ``width``."""
    digits = [bytearray(b"0" * len(rows)) for _ in range(width)]
    for k, bits in enumerate(reversed(rows)):  # the last row is the leading digit
        for s in set_bits(bits):
            digits[s][k] = 49  # ord("1")
    return [int(d or b"0", 2) for d in digits]


def _profile_columns(records: list, lengths: tuple):
    """The integer profiles of invariant ``records``, one coordinate at a time.

    The closure order is the componentwise order of these profiles.  With
    h = rank L - rank M, each condition P_j(lower) <= P_j(upper) + j*h of
    :func:`_conditions` splits into one value per structure:
    P_j(r(M)) + j*rank M <= P_j(r(L)) + j*rank L, the same for l, and
    P_j(W(mu, L)) - j*rank L <= P_j(W(mu, M)) - j*rank M.  Negating the
    singular terms and the rank (for h >= 0) turns all of them into
    profile(L) <= profile(M).  ``lengths`` zero-extends every sequence to
    the batch's longest, which changes no condition once h >= 0: past the
    length of ``lower`` its prefix sum stays constant while the shifted
    right-hand side keeps growing.
    """
    ranks = [rec.rank for rec in records]
    yield [-rank for rank in ranks]
    kr, kl, weyr_lengths = lengths
    by_label = {mu: [()] * len(records) for mu, _ in weyr_lengths}
    for i, rec in enumerate(records):
        for mu, seq in rec.weyr:
            by_label[mu][i] = seq
    parts = [(-1, kr, [rec.r for rec in records]), (-1, kl, [rec.l for rec in records])]
    parts += [(1, k, by_label[mu]) for mu, k in weyr_lengths]
    for sign, k, seqs in parts:
        # one row of k values per distinct (sequence, rank), then transposed
        rows = {}
        for key in zip(seqs, ranks):
            if key not in rows:
                seq, rank = key
                sums = accumulate(seq + (0,) * (k - len(seq)))
                rows[key] = [sign * total - j * rank for j, total in enumerate(sums, 1)]
        yield from zip(*[rows[key] for key in zip(seqs, ranks)])


def _dominated(universe, queries, size: int, count: int) -> list:
    """Per query, the bitset of the universe items below it in every
    coordinate, for ``size`` universe items and ``count`` queries given as
    matching profile columns.

    Per coordinate, the distinct query thresholds are taken up to 255 at a
    time, and each item becomes one byte: the number of those thresholds
    below its value.  The items at or below the q-th threshold are then the
    bytes <= q, read as a bitset by one ``translate`` and one base-2 parse,
    with item 0 the last byte, so no item is visited in Python.
    """
    related = [(1 << size) - 1] * count
    for column, thresholds in zip(universe, queries):
        needed = sorted(set(thresholds))
        below = {}
        for start in range(0, len(needed), 255):
            chunk = needed[start:start + 255]
            count_below = {value: bisect_left(chunk, value) for value in set(column)}
            data = bytes(map(count_below.__getitem__, reversed(column)))
            for q, threshold in enumerate(chunk):
                at_most = b"1" * (q + 1) + b"0" * (255 - q)  # byte b -> "1" iff b <= q
                below[threshold] = int(b"0" + data.translate(at_most), 2)
        related = [bits & below[t] for bits, t in zip(related, thresholds)]
    return related


def closure_records(sources: list, targets: list) -> list:
    """:func:`closure_bitsets` on invariant records instead of structures.

    A record is a :class:`core._Invariants`, read for its ``size``,
    ``rank``, ``r``, ``l`` and ``weyr`` ((code, sequence) pairs); codes are
    only compared for equality, so sources and targets must share them.
    """
    batch = sources + targets
    weyr = {}
    for rec in batch:
        if rec.size != batch[0].size:
            raise SizeMismatchError(f"cannot compare {batch[0].size} with {rec.size}")
        for mu, seq in rec.weyr:
            weyr[mu] = max(weyr.get(mu, 0), len(seq))
    lengths = (
        max((len(rec.r) for rec in batch), default=0),
        max((len(rec.l) for rec in batch), default=0),
        tuple(weyr.items()),
    )
    return _dominated(_profile_columns(sources, lengths),
                      _profile_columns(targets, lengths), len(sources), len(targets))


def closure_bitsets(sources, targets) -> list:
    """:func:`degenerates_to` on every pair of ``sources`` x ``targets``.

    Entry k is an int whose bit i is set iff
    ``degenerates_to(sources[i], targets[k])``.  All structures must share
    one pencil size.  Each structure becomes one integer profile (see
    :func:`_profile_columns`): its rank and the prefix sums of r, l and
    W(mu) for every label mu of the batch, each shifted by j times its
    rank.  The related sources of a target are then the profiles below its
    own in every coordinate, found by one threshold lookup per coordinate,
    so no pair is tested on its own.  The profiles are read from the
    carried invariants through :func:`closure_records`, which the verifier
    also feeds with label matchings that are never built as structures.
    """
    return closure_records([K._invariants() for K in sources],
                           [K._invariants() for K in targets])


@dataclass(frozen=True)
class ClosureGraph:
    """Hasse diagram of the closure order over a fixed node set.

    ``edges`` holds covering pairs (i, j): node j lies in the closure of
    node i's orbit and no third node sits strictly between them.
    """

    nodes: tuple
    codimensions: tuple
    edges: tuple

    def to_dot(self) -> str:
        lines = ["digraph closure_order {", "  rankdir=TB;"]
        for i, node in enumerate(self.nodes):
            label = f"{node}\\ncodim={self.codimensions[i]}"
            lines.append(f'  n{i} [label="{label}"];')
        for i, j in self.edges:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        from .notation import structure_to_json_dict

        return {
            "nodes": [
                {
                    "structure": structure_to_json_dict(node),
                    "notation": str(node),
                    "codim": self.codimensions[i],
                }
                for i, node in enumerate(self.nodes)
            ],
            "edges": [list(edge) for edge in self.edges],
        }


def build_closure_graph(nodes) -> ClosureGraph:
    """Covering edges of the closure order on ``nodes``.

    All nodes must share one pencil size and be pairwise distinct as
    orbits.  The full relation comes from one :func:`closure_bitsets`
    batch and is then transitively reduced with bitsets; every covering
    edge must raise the codimension.
    """
    nodes = tuple(nodes)
    seen = set()
    for node in nodes:
        if size_of(node) != size_of(nodes[0]):
            raise SizeMismatchError(f"node {node} has size {size_of(node)}, "
                                    f"expected {size_of(nodes[0])}")
        if node in seen:
            raise DuplicateNodeError(f"duplicate node {node}")
        seen.add(node)
    # up[j]: nodes whose closure holds node j; down[i]: nodes in the
    # closure of node i's orbit.  (i, j) is a cover iff no k is in both.
    up = [bits & ~(1 << j) for j, bits in enumerate(closure_bitsets(nodes, nodes))]
    down = _transpose(up, len(nodes))
    codims = tuple(codimension(node) for node in nodes)
    edges = []
    for i, below in enumerate(down):
        for j in set_bits(below):
            if below & up[j]:
                continue
            if codims[i] >= codims[j]:
                raise InvariantViolationError(
                    f"covering edge {nodes[i]} -> {nodes[j]} does not increase codimension"
                )
            edges.append((i, j))
    return ClosureGraph(nodes=nodes, codimensions=codims, edges=tuple(edges))
