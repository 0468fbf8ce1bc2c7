"""Orbit-closure order on Kronecker structures, via weak majorization.

Whether one orbit lies in the closure of another is decided by three
weak-majorization conditions between the Weyr characteristics of the two
structures, shifted by the rank drop h.  Orientation convention used
everywhere in this package: ``degenerates_to(L, M)`` is true when M lies
in the closure of the orbit of L, i.e. pencils with structure L can
degenerate to the more special structure M.
"""

from dataclasses import dataclass

from .core import (
    EigenvalueLabel,
    KroneckerStructure,
    codimension,
    eigenvalues,
    rank_of,
    size_of,
    weyr_jordan,
    weyr_singular,
)
from .errors import DuplicateNodeError, InvariantViolationError, SizeMismatchError

__all__ = [
    "weakly_majorizes",
    "majorization_conditions",
    "degenerates_to",
    "same_orbit",
    "majorization_report",
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


def majorization_conditions(L: KroneckerStructure, M: KroneckerStructure):
    """The majorizations behind ``degenerates_to(L, M)``, as (name, lower, upper).

    In this order: r(M) against r(L), l(M) against l(L), then W(mu, L)
    against W(mu, M) for each eigenvalue mu of either structure, in label
    order.  Each holds when ``lower`` is weakly majorized by ``upper``
    shifted by the rank drop h.
    """
    yield "right", weyr_singular(M, "right"), weyr_singular(L, "right")
    yield "left", weyr_singular(M, "left"), weyr_singular(L, "left")
    for mu in sorted({*eigenvalues(L), *eigenvalues(M)}, key=EigenvalueLabel.sort_key):
        yield f"eigenvalue {mu}", weyr_jordan(L, mu), weyr_jordan(M, mu)


def _rank_drop(L: KroneckerStructure, M: KroneckerStructure) -> int:
    if size_of(L) != size_of(M):
        raise SizeMismatchError(f"cannot compare {size_of(L)} with {size_of(M)}")
    return rank_of(L) - rank_of(M)


def degenerates_to(L: KroneckerStructure, M: KroneckerStructure) -> bool:
    """True iff M lies in the closure of the orbit of L.

    Requires the same pencil size, and decides via h = rank L - rank M
    plus the shifted majorizations of :func:`majorization_conditions`.
    Eigenvalue labels are compared as concrete identities, so structures
    with disjoint eigenvalues are unrelated unless the Jordan parts can
    vanish into the shifts.
    """
    h = _rank_drop(L, M)
    return h >= 0 and all(
        lhs <= rhs
        for _, lower, upper in majorization_conditions(L, M)
        for _, lhs, rhs in _partial_sums(lower, upper, h)
    )


def same_orbit(L: KroneckerStructure, M: KroneckerStructure) -> bool:
    """True iff L and M denote the same orbit.

    With labels as concrete identities this is plain equality of the
    normalized block multisets, which is equivalent to h = 0 together
    with equality in all three majorizations.
    """
    return L == M


def majorization_report(L: KroneckerStructure, M: KroneckerStructure) -> dict:
    """Full partial-sum witnesses behind ``degenerates_to(L, M)``."""
    h = _rank_drop(L, M)
    conditions = []
    for name, lower, upper in majorization_conditions(L, M) if h >= 0 else ():
        rows = [
            {"j": j, "lhs": lhs, "rhs": rhs, "ok": lhs <= rhs}
            for j, lhs, rhs in _partial_sums(lower, upper, h)
        ]
        conditions.append({
            "condition": name,
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


@dataclass(frozen=True)
class ClosureGraph:
    """Hasse diagram of the closure order over a fixed node set.

    ``edges`` holds covering pairs (i, j): node j lies in the closure of
    node i's orbit and no third node sits strictly between them.
    """

    nodes: tuple
    codimensions: tuple
    edges: tuple

    def closure_relation(self) -> list:
        """Reflexive-transitive closure of the edges, as a boolean matrix."""
        n = len(self.nodes)
        reach = [[i == j for j in range(n)] for i in range(n)]
        adjacency = {i: [] for i in range(n)}
        for i, j in self.edges:
            adjacency[i].append(j)
        for start in range(n):
            stack = [start]
            while stack:
                at = stack.pop()
                for nxt in adjacency[at]:
                    if not reach[start][nxt]:
                        reach[start][nxt] = True
                        stack.append(nxt)
        return reach

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
    orbits.  The full relation is computed with ``degenerates_to`` and
    then transitively reduced with bitsets; every covering edge must
    raise the codimension.
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
    n = len(nodes)
    # down[i]: nodes in the closure of node i's orbit; up[j]: nodes whose
    # closure holds node j.  (i, j) is a cover iff no k is in both.
    down = [0] * n
    up = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and degenerates_to(nodes[i], nodes[j]):
                down[i] |= 1 << j
                up[j] |= 1 << i
    codims = tuple(codimension(node) for node in nodes)
    edges = []
    for i in range(n):
        for j in range(n):
            if not down[i] >> j & 1 or down[i] & up[j]:
                continue
            if codims[i] >= codims[j]:
                raise InvariantViolationError(
                    f"covering edge {nodes[i]} -> {nodes[j]} does not increase codimension"
                )
            edges.append((i, j))
    return ClosureGraph(nodes=nodes, codimensions=codims, edges=tuple(edges))
