"""The six elementary degeneration moves on Kronecker structures.

Each move replaces a small set of blocks by another set of the same total
pencil size, and every application strictly lowers the orbit codimension.
A structure M can be turned into a structure L by a finite sequence of
these moves exactly when L's orbit closure contains M, which is what
:func:`kcforbits.closure.degenerates_to` decides by majorization; the
rule search here is the rule-based side of that equivalence and, unless
asked to prune, deliberately never consults majorizations.

The moves, on block multisets (J_0 is empty and is dropped):

  1. L(j-1) + L(k+1)    ~>  L(j) + L(k),        1 <= j <= k
  2. LT(j-1) + LT(k+1)  ~>  LT(j) + LT(k),      1 <= j <= k
  3. L(j) + J(k+1; mu)  ~>  L(j+1) + J(k; mu),  j, k >= 0
  4. LT(j) + J(k+1; mu) ~>  LT(j+1) + J(k; mu), j, k >= 0
  5. J(j; mu) + J(k; mu) ~> J(j-1; mu) + J(k+1; mu), 1 <= j <= k
  6. L(p) + LT(q)       ~>  J(n_1; mu_1) + ... + J(n_s; mu_s),
     with n_i >= 1 summing to p + q + 1 and the mu_i pairwise distinct.

Rules 1-5 preserve the rank; rule 6 raises it by one.

One search engine lives here.  :class:`RuleGraph` holds the structures
reached over one eigenvalue-label universe and expands each of them at
most once, however many sources reach it.  Its descendant sets are
Python-int bitsets over the graph's node indices, so a membership test is
one index lookup and one bit test.  :func:`reachable_structures` is one
source on a fresh graph, the exhaustive verifier shares one graph per
universe across all of its sources, and :func:`reachable` is a
breadth-first path query on a fresh graph.
"""

from collections import deque
from dataclasses import dataclass
from itertools import combinations, groupby

from .closure import degenerates_to
from .core import (
    INFINITY,
    EigenvalueLabel,
    KroneckerStructure,
    codimension,
    eigenvalues,
    finite,
    partitions_desc,
    size_of,
)
from .errors import (
    BadParametersError,
    InvariantViolationError,
    MissingBlocksError,
    PoolTooSmallError,
    SearchBudgetExceededError,
    SizeMismatchError,
)

__all__ = [
    "RuleInstance",
    "apply_rule",
    "applicable_instances",
    "reachable",
    "reachable_structures",
    "describe_instance",
]


@dataclass(frozen=True)
class RuleInstance:
    """One concrete application of a degeneration move.

    Rules 1, 2 and 5 use (j, k); rules 3 and 4 use (j, k, mu); rule 6
    uses (p, q, parts) with parts a multiset of (size, label) pairs.
    Parameters are validated on construction.
    """

    rule_id: int
    j: int = 0
    k: int = 0
    mu: EigenvalueLabel | None = None
    p: int = 0
    q: int = 0
    parts: tuple = ()

    def __post_init__(self):
        rid = self.rule_id
        if rid not in (1, 2, 3, 4, 5, 6):
            raise BadParametersError(f"rule_id must be in 1..6, got {rid!r}")
        if rid in (1, 2, 5) and not 1 <= self.j <= self.k:
            raise BadParametersError(f"rule {rid} needs 1 <= j <= k, got j={self.j}, k={self.k}")
        if rid in (3, 4) and (self.j < 0 or self.k < 0):
            raise BadParametersError(f"rule {rid} needs j, k >= 0, got j={self.j}, k={self.k}")
        if rid in (3, 4, 5):
            if not isinstance(self.mu, EigenvalueLabel):
                raise BadParametersError(f"rule {rid} needs an eigenvalue label")
        elif self.mu is not None:
            raise BadParametersError(f"rule {rid} takes no eigenvalue label")
        if rid == 6:
            if self.p < 0 or self.q < 0:
                raise BadParametersError(f"rule 6 needs p, q >= 0, got p={self.p}, q={self.q}")
            parts = tuple(sorted(((int(s), lbl) for s, lbl in self.parts),
                                 key=lambda t: (-t[0], t[1].sort_key())))
            if not parts or any(s < 1 for s, _ in parts):
                raise BadParametersError("rule 6 parts must be non-empty with sizes >= 1")
            if any(not isinstance(lbl, EigenvalueLabel) for _, lbl in parts):
                raise BadParametersError("rule 6 parts need eigenvalue labels")
            if sum(s for s, _ in parts) != self.p + self.q + 1:
                raise BadParametersError(
                    f"rule 6 part sizes must sum to p+q+1 = {self.p + self.q + 1}"
                )
            labels = [lbl for _, lbl in parts]
            if len(set(labels)) != len(labels):
                raise BadParametersError("rule 6 eigenvalues must be pairwise distinct")
            object.__setattr__(self, "parts", parts)
        else:
            if self.parts:
                raise BadParametersError(f"rule {rid} takes no parts")
            if self.p or self.q:
                raise BadParametersError(f"rule {rid} takes no (p, q)")

    def sort_key(self):
        mu_key = self.mu.sort_key() if self.mu is not None else (-1, -1)
        parts_key = tuple((s, lbl.sort_key()) for s, lbl in self.parts)
        return (self.rule_id, self.j, self.k, self.p, self.q, mu_key, parts_key)

    def to_json_dict(self) -> dict:
        out = {"rule": self.rule_id}
        if self.rule_id in (1, 2, 3, 4, 5):
            out["j"] = self.j
            out["k"] = self.k
        if self.mu is not None:
            out["mu"] = str(self.mu)
        if self.rule_id == 6:
            out["p"] = self.p
            out["q"] = self.q
            out["parts"] = [{"size": s, "mu": str(lbl)} for s, lbl in self.parts]
        return out


def _consumed_produced(inst: RuleInstance):
    """Blocks removed and added by ``inst``, as (jordan, right, left) triples."""
    rid, j, k, mu = inst.rule_id, inst.j, inst.k, inst.mu
    if rid == 1:
        return ((), (j - 1, k + 1), ()), ((), (j, k), ())
    if rid == 2:
        return ((), (), (j - 1, k + 1)), ((), (), (j, k))
    if rid == 3:
        produced_j = ((mu, k),) if k >= 1 else ()
        return (((mu, k + 1),), (j,), ()), (produced_j, (j + 1,), ())
    if rid == 4:
        produced_j = ((mu, k),) if k >= 1 else ()
        return (((mu, k + 1),), (), (j,)), (produced_j, (), (j + 1,))
    if rid == 5:
        produced_j = ((mu, k + 1),) if j == 1 else ((mu, j - 1), (mu, k + 1))
        return (((mu, j), (mu, k)), (), ()), (produced_j, (), ())
    # rule 6
    produced_j = tuple((lbl, s) for s, lbl in inst.parts)
    return ((), (inst.p,), (inst.q,)), (produced_j, (), ())


def apply_rule(K: KroneckerStructure, inst: RuleInstance) -> KroneckerStructure:
    """Apply one degeneration move; the pencil size is unchanged.

    Raises :class:`MissingBlocksError` when a consumed block is absent.
    """
    consumed, produced = _consumed_produced(inst)
    jordan, right, left = list(K.jordan), list(K.right), list(K.left)
    missing = []
    for pool, wanted in ((jordan, consumed[0]), (right, consumed[1]), (left, consumed[2])):
        for item in wanted:
            try:
                pool.remove(item)
            except ValueError:
                missing.append(item)
    if missing:
        raise MissingBlocksError(f"{K} lacks blocks consumed by rule {inst.rule_id}: {missing}")
    jordan.extend(produced[0])
    right.extend(produced[1])
    left.extend(produced[2])
    out = KroneckerStructure(jordan, right, left)
    if size_of(out) != size_of(K):
        raise InvariantViolationError(
            f"rule {inst.rule_id} changed the size of {K} to {size_of(out)}"
        )
    return out


def describe_instance(inst: RuleInstance) -> str:
    consumed, produced = _consumed_produced(inst)

    def side(triple):
        terms = [f"J({s};{lbl})" for lbl, s in triple[0]]
        terms += [f"L({k})" for k in triple[1]]
        terms += [f"LT({k})" for k in triple[2]]
        return " + ".join(terms) if terms else "(nothing)"

    return f"rule {inst.rule_id}: {side(consumed)} ~> {side(produced)}"


def _rule6_parts(total: int, existing, fresh):
    """Part multisets for rule 6 with the given label candidates.

    ``existing`` labels are concrete and enumerated in full; ``fresh``
    labels are interchangeable representatives, so within each instance
    they are drawn as a prefix of the list and attached to parts in a
    fixed order.  One instance per distinct coincidence pattern.
    """
    existing = list(existing)
    out = set()
    for partition in partitions_desc(total):
        groups = [(s, len(list(g))) for s, g in groupby(partition)]

        def rec(gi, used, fresh_used, acc):
            if gi == len(groups):
                out.add(tuple(sorted(acc, key=lambda t: (-t[0], t[1].sort_key()))))
                return
            size, count = groups[gi]
            available = [lbl for lbl in existing if lbl not in used]
            for picked in range(count + 1):
                wanted_fresh = count - picked
                if fresh_used + wanted_fresh > len(fresh):
                    continue
                for combo in combinations(available, picked):
                    labels = list(combo) + fresh[fresh_used:fresh_used + wanted_fresh]
                    rec(
                        gi + 1,
                        used | set(combo),
                        fresh_used + wanted_fresh,
                        acc + [(size, lbl) for lbl in labels],
                    )

        rec(0, frozenset(), 0, [])
    return sorted(out, key=lambda parts: tuple((s, lbl.sort_key()) for s, lbl in parts))


def _instances(K: KroneckerStructure, existing, fresh):
    """All applicable instances, with rule-6 labels from the given candidates."""
    out = []
    right_values = sorted(set(K.right))
    left_values = sorted(set(K.left))
    jordan_values = list(dict.fromkeys(K.jordan))  # K.jordan is sorted
    for a in right_values:
        for b in right_values:
            if b >= a + 2:
                out.append(RuleInstance(1, j=a + 1, k=b - 1))
    for a in left_values:
        for b in left_values:
            if b >= a + 2:
                out.append(RuleInstance(2, j=a + 1, k=b - 1))
    for a in right_values:
        for mu, s in jordan_values:
            out.append(RuleInstance(3, j=a, k=s - 1, mu=mu))
    for a in left_values:
        for mu, s in jordan_values:
            out.append(RuleInstance(4, j=a, k=s - 1, mu=mu))
    for mu in eigenvalues(K):
        sizes = sorted({s for lbl, s in K.jordan if lbl == mu})
        counts = {s: sum(1 for lbl, t in K.jordan if lbl == mu and t == s) for s in sizes}
        for sj in sizes:
            for sk in sizes:
                if sj < sk or (sj == sk and counts[sj] >= 2):
                    out.append(RuleInstance(5, j=sj, k=sk, mu=mu))
    for p in right_values:
        for q in left_values:
            for parts in _rule6_parts(p + q + 1, existing, fresh):
                out.append(RuleInstance(6, p=p, q=q, parts=parts))
    return sorted(out, key=RuleInstance.sort_key)


def applicable_instances(K: KroneckerStructure, label_pool) -> list:
    """Every rule instance applicable to ``K``.

    ``label_pool`` must contain each eigenvalue of ``K`` plus at least
    min(m, n) finite non-eigenvalue labels; those extras are treated as
    interchangeable fresh labels, so rule-6 instances draw one
    representative per coincidence pattern (the infinity label, when in
    the pool, is a concrete candidate like any existing eigenvalue).
    """
    pool = list(dict.fromkeys(label_pool))
    evs = set(eigenvalues(K))
    if not evs <= set(pool):
        missing = sorted(evs - set(pool), key=EigenvalueLabel.sort_key)
        raise PoolTooSmallError(f"pool must contain every eigenvalue of {K}; missing {missing}")
    m, n = size_of(K)
    fresh = [lbl for lbl in pool if lbl not in evs and not lbl.is_infinite]
    if len(fresh) < min(m, n):
        raise PoolTooSmallError(
            f"pool needs at least {min(m, n)} fresh finite labels, found {len(fresh)}"
        )
    existing = list(eigenvalues(K))
    if INFINITY in pool and INFINITY not in evs:
        existing.append(INFINITY)
    return _instances(K, existing, fresh)


def _fresh_reservoir(count: int, label_sets) -> list:
    """``count`` finite labels numbered above every finite label in ``label_sets``."""
    base = 1
    for labels in label_sets:
        for lbl in labels:
            if not lbl.is_infinite:
                base = max(base, lbl.id + 1)
    return [finite(base + i) for i in range(count)]


def _search_instances(state: KroneckerStructure, universe) -> list:
    # every universe label is concrete here: reachability targets are
    # compared by identity, so no fresh-label collapsing is allowed
    return _instances(state, universe, [])


class RuleGraph:
    """Prune-free rule reachability over one eigenvalue-label universe.

    Rule-6 eigenvalues are drawn from ``universe``, every label a concrete
    candidate, so the moves out of a structure depend on the structure and
    the universe alone.  Each structure is therefore expanded at most once
    per graph, and ``descendants`` memoizes, in post-order, the bitset
    desc(X) = bit(X) | OR desc(child) over node indices.  The graph is
    acyclic because every move lowers the codimension (checked on every
    edge), so the memo is well founded.  ``max_expansions`` bounds the
    expansions over the graph's whole life.
    """

    def __init__(self, universe, max_expansions=None):
        self.universe = list(universe)
        self.max_expansions = max_expansions
        self.expansions = 0
        self.nodes = []
        self._index = {}
        self._children = []
        self._desc = []  # 0 until computed: a finished bitset holds its own bit

    def node(self, K: KroneckerStructure) -> int:
        """Index of ``K``, registered unexpanded when it is new."""
        idx = self._index.get(K)
        if idx is None:
            idx = self._index[K] = len(self.nodes)
            self.nodes.append(K)
            self._children.append(None)
            self._desc.append(0)
        return idx

    def descendants(self, M: KroneckerStructure) -> int:
        """Bitset of the nodes reachable from ``M``, ``M`` itself included."""
        desc, children = self._desc, self._children
        root = self.node(M)
        stack = [root]
        while stack:
            i = stack[-1]
            if desc[i]:
                stack.pop()
                continue
            if children[i] is None:
                children[i] = list(self.successors(i, M))
            pending = [k for k in children[i] if not desc[k]]
            if pending:
                stack.extend(pending)
                continue
            bits = 1 << i
            for k in children[i]:
                bits |= desc[k]
            desc[i] = bits
            stack.pop()
        return desc[root]

    def members(self, bits: int) -> frozenset:
        """The structures whose indices are set in ``bits``."""
        return frozenset(
            self.nodes[i] for i, bit in enumerate(reversed(bin(bits)[2:])) if bit == "1"
        )

    def successors(self, i, source) -> dict:
        """``{child index: first instance giving it}`` of node ``i``, in
        sorted-instance order.  One expansion against ``max_expansions``
        (``source`` names the search); every move must lower the codimension.
        """
        if self.max_expansions is not None and self.expansions >= self.max_expansions:
            raise SearchBudgetExceededError(
                f"reachability from {source} exceeded {self.max_expansions} expansions"
            )
        self.expansions += 1
        state = self.nodes[i]
        kids = {}
        for inst in _search_instances(state, self.universe):
            child = apply_rule(state, inst)
            if codimension(child) >= codimension(state):
                raise InvariantViolationError(
                    f"rule {inst.rule_id} took {state} to {child} without lowering the codimension"
                )
            kids.setdefault(self.node(child), inst)
        return kids


def reachable(M: KroneckerStructure, L: KroneckerStructure, prune: bool = True,
              max_expansions=None):
    """A rule sequence turning ``M`` into ``L``, or None when there is none.

    Breadth-first over a fresh :class:`RuleGraph` in sorted-instance order,
    so the path is deterministic and among the shortest; only children
    above ``L`` in codimension are expanded.  Rule-6 eigenvalues are drawn
    from the labels of ``M`` and ``L`` plus a reservoir of min(m, n)
    reusable fresh labels, enough for every transient eigenvalue pattern.
    ``max_expansions`` bounds the structures expanded.

    With ``prune`` the search discards children that fail the necessary
    closure condition ``degenerates_to(L, child)``, tested once per
    structure; without it the search never consults majorizations and
    serves as the independent oracle for the closure test.
    """
    if size_of(M) != size_of(L):
        raise SizeMismatchError(f"cannot search between sizes {size_of(M)} and {size_of(L)}")
    if M == L:
        return []
    target_codim = codimension(L)
    if codimension(M) <= target_codim:
        return None
    m, n = size_of(M)
    evs = sorted(set(eigenvalues(M)) | set(eigenvalues(L)), key=EigenvalueLabel.sort_key)
    graph = RuleGraph(evs + _fresh_reservoir(min(m, n), [evs]), max_expansions)
    root, goal = graph.node(M), graph.node(L)
    parents = {root: None}
    rejected = set()
    queue = deque([root])
    while queue:
        i = queue.popleft()
        for k, inst in graph.successors(i, M).items():
            if k in parents or k in rejected:
                continue
            child = graph.nodes[k]
            if prune and not degenerates_to(L, child):
                rejected.add(k)
                continue
            parents[k] = (i, inst)
            if k == goal:
                path = []
                while parents[k] is not None:
                    k, inst = parents[k]
                    path.append(inst)
                return path[::-1]
            if codimension(child) > target_codim:
                queue.append(k)
    return None


def reachable_structures(M: KroneckerStructure, fresh_labels=None, max_expansions=None):
    """All structures obtainable from ``M`` by rule sequences.

    Returns ``(frozenset_of_structures, stats)``.  Rule-6 eigenvalues are
    drawn from the eigenvalues of ``M`` plus ``fresh_labels`` (default:
    the infinity label and a reservoir of min(m, n) finite labels above
    every label of ``M``), so the result contains every reachable
    structure over that label universe; ``M`` itself is included via the
    empty sequence.  One source on a fresh :class:`RuleGraph`, so
    ``stats["expansions"]`` equals ``stats["visited"]`` and
    ``max_expansions`` bounds both.
    """
    m, n = size_of(M)
    evs = list(eigenvalues(M))
    if fresh_labels is None:
        fresh_labels = _fresh_reservoir(min(m, n), [evs]) + [INFINITY]
    graph = RuleGraph(dict.fromkeys(evs + list(fresh_labels)), max_expansions)
    reached = graph.members(graph.descendants(M))
    return reached, {"visited": len(reached), "expansions": graph.expansions}
