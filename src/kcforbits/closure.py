"""Orbit-closure order on Kronecker structures, via weak majorization.

Whether one orbit lies in the closure of another is decided by three
weak-majorization conditions between the Weyr characteristics of the two
structures, shifted by the rank drop h: one pair at a time by
:func:`degenerates_to`, or all pairs of two lists at once by
:func:`closure_bitsets`.  :func:`build_closure_graph` takes the down sets
of a node list from one batch and finds its covers by down-set levels,
one bitset step per level and per cover.  For the verifier, which pairs
each node with every label matching of another, :func:`_node_part` and
:class:`_LabelItems` decide whether some matching of a node pair is
related, with no matching built.  Orientation convention used
everywhere in this package: ``degenerates_to(L, M)`` is true when M lies
in the closure of the orbit of L, i.e. pencils with structure L can
degenerate to the more special structure M.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, tee

from .core import INFINITY, KroneckerStructure, _label, codimension, size_of
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

_INF = INFINITY.sort_key()


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
        rows, table = {}, []
        for key in zip(seqs, ranks):
            row = rows.get(key)
            if row is None:
                seq, rank = key
                sums = accumulate(seq + (0,) * (k - len(seq)))
                row = rows[key] = [sign * total - j * rank for j, total in enumerate(sums, 1)]
            table.append(row)
        yield from zip(*table)


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


def _lengths(batch: list) -> tuple:
    """The longest r, the longest l and, per label code, the longest Weyr
    sequence over the invariant records ``batch``: the lengths
    :func:`_profile_columns` zero-extends to.  Records of different sizes
    raise :class:`SizeMismatchError`."""
    weyr = {}
    for rec in batch:
        if rec.size != batch[0].size:
            raise SizeMismatchError(f"cannot compare {batch[0].size} with {rec.size}")
        for mu, seq in rec.weyr:
            weyr[mu] = max(weyr.get(mu, 0), len(seq))
    return (
        max((len(rec.r) for rec in batch), default=0),
        max((len(rec.l) for rec in batch), default=0),
        tuple(weyr.items()),
    )


def closure_records(sources: list, targets: list) -> list:
    """:func:`closure_bitsets` on invariant records instead of structures.

    A record is a :class:`core._Invariants`, read for its ``size``,
    ``rank``, ``r``, ``l`` and ``weyr`` ((code, sequence) pairs); codes are
    only compared for equality, so sources and targets must share them.
    """
    lengths = _lengths(sources + targets)
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


def _node_part(records) -> list:
    """Entry j is the bitset of the nodes i whose node part holds against
    node j, for the invariant ``records`` of a node list.

    The node part of :func:`_conditions` is h >= 0 with the r, l and
    W(infinity) conditions: no label matching changes them, since the
    infinity label always matches itself.  So it is one
    :func:`closure_records` batch over node x node, on the records with
    their Weyr characteristics cut down to infinity.  The finite labels
    are :class:`_LabelItems`' part.
    """
    cut = [rec._replace(weyr=rec.weyr[-1:] if rec.weyr and rec.weyr[-1][0] == _INF else ())
           for rec in records]
    return closure_records(cut, cut)


class _LabelItems:
    """The label part of the closure order on node records, under every
    label matching at once.

    A label matching of node L against node M sends each finite label nu
    of L either to a distinct finite label mu of M or to a fresh label.
    With h = rank L - rank M >= 0, the conditions of :func:`_conditions`
    split into the node part (:func:`_node_part`) and one condition per
    finite label of L, each between one value per side, as in
    :func:`_profile_columns`.  Label nu of L becomes the item
    x_j(L, nu) = P_j(W(nu, L)) - j*rank L, and every node gets one empty
    item, -j*rank M, the profile of a label it does not have:

      * nu matched to mu needs x(L, nu) <= x(M, mu);
      * nu sent to a fresh label needs x(L, nu) <= empty(M);
      * a label of M that receives nothing needs empty(L) <= x(M, mu),
        which h >= 0 gives.

    One :func:`_dominated` batch of items x (items + empties) decides
    every one of these.  So some matching of L relates to M exactly when
    the node part holds and L's must labels, those not below M's empty
    item, can be assigned injectively to labels of M that lie above them:
    every other label of L goes to a fresh label, of which there are
    always enough.  :meth:`admits` rejects a pair at once when a must
    label lies below no label of M; otherwise it runs an augmenting-path
    search on at most min(m, n) labels.  ``rejections`` and ``searches``
    count the two outcomes.
    """

    def __init__(self, records):
        labels = [[seq for mu, seq in rec.weyr if mu != _INF] for rec in records]
        k = max((len(seq) for seqs in labels for seq in seqs), default=0)
        items = [(seq, rec.rank) for rec, seqs in zip(records, labels) for seq in seqs]
        items += [((), rec.rank) for rec in records]  # the empty items
        table = [[total - j * rank
                  for j, total in enumerate(accumulate(seq + (0,) * (k - len(seq))), 1)]
                 for seq, rank in items]
        size = len(items) - len(records)
        columns = list(zip(*table))
        below = _dominated([column[:size] for column in columns], columns, size, len(items))
        self.first = list(accumulate(map(len, labels), initial=0))
        self.below = below[:size]  # bit nu of below[mu]: item nu lies below item mu
        self.free = below[size:]  # bit nu of free[j]: nu may go to a fresh label of node j
        self.cover = [0] * len(records)  # bit nu: nu lies below some label of node j
        for j in range(len(records)):
            for mu in range(self.first[j], self.first[j + 1]):
                self.cover[j] |= self.below[mu]
        self.rejections = self.searches = 0

    def admits(self, i, j) -> bool:
        """True iff the label part of some matching of node i against node j
        holds: its must labels have an injective assignment."""
        must = ((1 << self.first[i + 1]) - (1 << self.first[i])) & ~self.free[j]
        if must & ~self.cover[j]:
            self.rejections += 1
            return False
        self.searches += 1
        below, targets, owner = self.below, range(self.first[j], self.first[j + 1]), {}

        def place(nu, seen):
            for mu in targets:
                if below[mu] >> nu & 1 and mu not in seen:
                    seen.add(mu)
                    if mu not in owner or place(owner[mu], seen):
                        owner[mu] = nu
                        return True
            return False

        return all(place(nu, set()) for nu in set_bits(must))


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
    """Covering edges of the closure order on ``nodes``, reduced by
    down-set levels; reads no codimension.

    All nodes must share one pencil size and be pairwise distinct as
    orbits.  The down set of every node, the nodes in the closure of its
    orbit, comes from one :func:`_dominated` batch on the negated profile
    columns: profile(i) <= profile(j) exactly when -profile(j) <=
    -profile(i).  A node strictly below another has the smaller down set,
    so walking a down set by decreasing down-set size meets every node
    after all the nodes above it.  Per node i, the nodes of its down set
    still left at a level are covers of i, and their own down sets leave
    with them.  Only then is each covering edge checked to raise the
    codimension.
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
    records = [node._invariants() for node in nodes]
    columns = ([-value for value in column]
               for column in _profile_columns(records, _lengths(records)))
    down = _dominated(*tee(columns), len(nodes), len(nodes))  # bit j: j below i, or j = i
    counts = [bits.bit_count() for bits in down]
    levels = {}
    for j, size in enumerate(counts):
        levels[size] = levels.get(size, 0) | 1 << j
    sizes = sorted(levels)
    edges = []
    for i, bits in enumerate(down):
        rest, covers = bits & ~(1 << i), 0
        # only levels below node i's own can hold a node strictly below it
        for size in reversed(sizes[:bisect_left(sizes, counts[i])]):
            top = rest & levels[size]
            if top:
                covers |= top
                for j in set_bits(top):
                    rest &= ~down[j]
                if not rest:
                    break
        edges += [(i, j) for j in set_bits(covers)]
    codims = tuple(codimension(node) for node in nodes)
    for i, j in edges:
        if codims[i] >= codims[j]:
            raise InvariantViolationError(
                f"covering edge {nodes[i]} -> {nodes[j]} does not increase codimension"
            )
    return ClosureGraph(nodes=nodes, codimensions=codims, edges=tuple(edges))
