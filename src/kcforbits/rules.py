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

One search engine lives here.  :class:`RuleGraph` works on the sort keys
of structures and moves (each label coded by
:meth:`EigenvalueLabel.sort_key`) and builds a :class:`KroneckerStructure`
or :class:`RuleInstance` only for an answer.  :meth:`RuleGraph.sweep` is
an ancestor sweep: every move lowers the codimension, so nodes popped
from a heap keyed by (-codimension, key) pop after every node that
reaches them, each carrying the complete bitset of the roots that reach
it.  Reservoir labels are universe labels that no root uses, so the ones
a node does not use are interchangeable: rule 6 draws them as a prefix,
one move per coincidence pattern.  The exhaustive verifier sweeps once
per eigenvalue-label universe, with all of the universe's sources as
roots, and also renames the reservoir labels of every child canonically,
keeping nodes up to their permutations.  :func:`apply_rule` and
:func:`applicable_instances` run the same moves on the keys of their
arguments and decode.  :func:`reachable_structures` is a one-source sweep
with no reservoir, and :func:`reachable` is a breadth-first path query
over :meth:`RuleGraph.successors` that draws its fresh labels as a
reservoir but keeps its nodes concrete, so every step names real labels.
Pruned, the path query cuts every child at or below the target's
codimension other than the target, then tests the closure condition on
the invariant records the graph stored for the children left; it
decodes only the path it returns.  The prune-free query still never
consults majorizations.
"""

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations, groupby
from operator import itemgetter

from .closure import _in_closure
from .core import (
    INFINITY,
    EigenvalueLabel,
    KroneckerStructure,
    _label,
    _render_blocks,
    block_invariants,
    eigenvalues,
    finite,
    partitions_desc,
    size_of,
    structure_from_key,
    structure_sort_key,
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

    def sort_key(self) -> tuple:
        """The move ``(rule, j, k, p, q, mu, parts)`` on label codes.

        ``mu`` is the code of the eigenvalue, -1 when absent, and ``parts``
        holds (size, code) pairs; :class:`RuleGraph` works on these tuples,
        and :func:`_instance` inverts them.
        """
        mu = -1 if self.mu is None else self.mu.sort_key()
        parts = tuple([(s, lbl.sort_key()) for s, lbl in self.parts])
        return (self.rule_id, self.j, self.k, self.p, self.q, mu, parts)

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


def _instance(move) -> RuleInstance:
    """The instance whose :meth:`RuleInstance.sort_key` is ``move``."""
    rid, j, k, p, q, mu, parts = move
    return RuleInstance(rid, j, k, None if mu == -1 else _label(mu), p, q,
                        tuple([(s, _label(c)) for s, c in parts]))


def _exchange(move):
    """Blocks removed and added by a move tuple, as (jordan, right, left)
    triples.  Labels are only placed, so they may be codes or objects."""
    rid, j, k, p, q, mu, parts = move
    if rid == 5:
        produced = ((mu, k + 1),) if j == 1 else ((mu, j - 1), (mu, k + 1))
        return (((mu, j), (mu, k)), (), ()), (produced, (), ())
    if rid == 6:
        return ((), (p,), (q,)), (tuple([(c, s) for s, c in parts]), (), ())
    gone, new = ((j - 1, k + 1), (j, k)) if rid <= 2 else ((j,), (j + 1,))
    jordan = ((), ()) if rid <= 2 else (((mu, k + 1),), ((mu, k),) if k >= 1 else ())
    if rid % 2:  # rules 1 and 3 act on L blocks, rules 2 and 4 on LT blocks
        return (jordan[0], gone, ()), (jordan[1], new, ())
    return (jordan[0], (), gone), (jordan[1], (), new)


def _apply(key, move):
    """``key`` after ``move``, or None when a consumed block is absent."""
    out = []
    for blocks, gone, new in zip(key, *_exchange(move)):
        if gone or new:
            blocks = list(blocks)
            for block in gone:
                if block not in blocks:
                    return None
                blocks.remove(block)
            blocks = tuple(sorted(blocks + list(new)))
        out.append(blocks)
    return tuple(out)


def _moves(key, rule6_parts) -> list:
    """Every move applicable to ``key``, sorted; ``rule6_parts(total)``
    lists the rule-6 part tuples of that total."""
    jordan, right, left = key
    rights, lefts, blocks = sorted(set(right)), sorted(set(left)), sorted(set(jordan))
    out = [(1, a + 1, b - 1, 0, 0, -1, ()) for a in rights for b in rights if b >= a + 2]
    out += [(2, a + 1, b - 1, 0, 0, -1, ()) for a in lefts for b in lefts if b >= a + 2]
    out += [(3, a, s - 1, 0, 0, mu, ()) for a in rights for mu, s in blocks]
    out += [(4, a, s - 1, 0, 0, mu, ()) for a in lefts for mu, s in blocks]
    # rule 5 pairs two blocks at one label; blocks is sorted by label, then size
    out += [(5, s, t, 0, 0, mu, ()) for i, (mu, s) in enumerate(blocks) for nu, t in blocks[i:]
            if nu == mu and (s < t or jordan.count((mu, s)) >= 2)]
    out += [(6, 0, 0, p, q, -1, parts)
            for p in rights for q in lefts for parts in rule6_parts(p + q + 1)]
    out.sort()
    return out


def _rule6_parts(total: int, existing, fresh) -> list:
    """Rule-6 part tuples of (size, code), each sorted by (-size, code).

    ``existing`` codes are concrete and enumerated in full; ``fresh`` codes
    are interchangeable, so they are drawn as a prefix of the list, larger
    parts first: one part tuple per distinct coincidence pattern.
    """
    out = set()
    for partition in partitions_desc(total):
        states = [((), 0)]  # (parts so far, fresh codes used), one size group at a time
        for size, group in groupby(partition):
            count, grown = len(list(group)), []
            for acc, used in states:
                taken = {c for _, c in acc}
                free = [c for c in existing if c not in taken]
                for picked in range(max(0, count - len(fresh) + used), count + 1):
                    for combo in combinations(free, picked):
                        codes = combo + tuple(fresh[used:used + count - picked])
                        grown.append((acc + tuple([(size, c) for c in codes]),
                                      used + count - picked))
            states = grown
        out.update(tuple(sorted(acc, key=lambda t: (-t[0], t[1]))) for acc, _ in states)
    return sorted(out)


def apply_rule(K: KroneckerStructure, inst: RuleInstance) -> KroneckerStructure:
    """Apply one degeneration move; the pencil size is unchanged.

    Raises :class:`MissingBlocksError` when a consumed block is absent.
    """
    child = _apply(structure_sort_key(K), inst.sort_key())
    if child is None:
        raise MissingBlocksError(f"{K} lacks blocks consumed by {describe_instance(inst)}")
    out = structure_from_key(child)
    if size_of(out) != size_of(K):
        raise InvariantViolationError(
            f"rule {inst.rule_id} changed the size of {K} to {size_of(out)}")
    return out


def describe_instance(inst: RuleInstance) -> str:
    consumed, produced = (_render_blocks(*side) or "(nothing)" for side in _exchange(
        (inst.rule_id, inst.j, inst.k, inst.p, inst.q, inst.mu, inst.parts)))
    return f"rule {inst.rule_id}: {consumed} ~> {produced}"


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
    fresh, need = [lbl for lbl in pool if lbl not in evs and not lbl.is_infinite], min(size_of(K))
    if len(fresh) < need:
        raise PoolTooSmallError(
            f"pool needs at least {need} fresh finite labels, found {len(fresh)}")
    existing = [lbl.sort_key() for lbl in pool if lbl in evs or lbl.is_infinite]
    fresh = [lbl.sort_key() for lbl in fresh]
    moves = _moves(structure_sort_key(K), lambda total: _rule6_parts(total, existing, fresh))
    return [_instance(move) for move in moves]


def _fresh_reservoir(count: int, label_sets) -> list:
    """``count`` finite labels numbered above every finite label in ``label_sets``."""
    ids = [lbl.id for labels in label_sets for lbl in labels if not lbl.is_infinite]
    return [finite(max(ids, default=0) + 1 + i) for i in range(count)]


def _canonical(key, reservoir):
    """``key`` with its runs on the ``reservoir`` codes renamed, longer runs
    first and then larger sizes first, onto the reservoir codes in
    increasing order: keys that differ by a permutation of the reservoir
    codes get one canonical key."""
    jordan, right, left = key
    fixed = [block for block in jordan if block[0] not in reservoir]
    if len(fixed) == len(jordan):
        return key
    runs = [tuple([s for _, s in run]) for _, run in
            groupby([block for block in jordan if block[0] in reservoir], key=itemgetter(0))]
    runs.sort(key=lambda sizes: (len(sizes), sizes), reverse=True)
    fixed += [(c, s) for c, sizes in zip(sorted(reservoir), runs) for s in sizes]
    return tuple(sorted(fixed)), right, left


class RuleGraph:
    """Prune-free rule reachability over one eigenvalue-label universe.

    A node is the :func:`structure_sort_key` of its structure and a move
    the :meth:`RuleInstance.sort_key` of its instance, so the graph works
    on label codes and tuple order is the order of structures and moves.
    ``records[i]`` is node i's :func:`block_invariants` record, computed
    once, and ``records[i].key`` the node; :meth:`structure` decodes it and
    :func:`_instance` a move.  Every universe label is a rule-6 candidate,
    so the moves out of a node depend on it and the universe alone; every
    move must keep the size and lower the codimension, checked on every
    edge, so the graph is acyclic and :meth:`sweep` may visit nodes by
    decreasing codimension, each after all of its ancestors.

    ``reservoir`` names universe labels that no root uses.  The reservoir
    codes a node does not use are then interchangeable: any permutation of
    them fixes the node and the roots and maps paths to paths of equal
    length.  So rule 6 takes the reservoir codes a node uses as concrete
    candidates and draws the unused ones as a prefix, larger parts first,
    which is the least move of its orbit in sorted order; the part tuples
    are listed once per (total, codes used).  Nodes stay concrete, as the
    path search needs.  With ``canonical`` each child is also renamed
    (:func:`_canonical`), so nodes are kept up to permutations of the
    reservoir codes: the quotient the verifier's sweep runs on.
    ``expansions`` and ``moves`` count the expansions and the moves listed
    over the graph's life, and ``max_expansions`` bounds the expansions.
    """

    def __init__(self, universe, max_expansions=None, reservoir=(), canonical=False):
        self.universe = list(universe)
        self.max_expansions = max_expansions
        self.expansions = self.moves = 0
        self._reservoir = frozenset(lbl.sort_key() for lbl in reservoir)
        self._fixed = sorted({lbl.sort_key() for lbl in self.universe} - self._reservoir)
        self._parts = {}  # rule-6 part tuples by (total, reservoir codes used)
        # node index by child key, when renaming: children repeat across nodes
        self._canon = {} if canonical else None
        self._index = {}
        self.records = []

    def structure(self, i: int) -> KroneckerStructure:
        return structure_from_key(self.records[i].key)

    def node(self, K: KroneckerStructure) -> int:
        """Index of ``K``; a new node is added unexpanded."""
        return self._node(structure_sort_key(K))

    def _node(self, key) -> int:
        idx = self._index.get(key)
        if idx is None:
            record = block_invariants(*key)
            idx = self._index[record.key] = len(self.records)
            self.records.append(record)
        return idx

    def _rule6_parts(self, total: int, used: tuple) -> list:
        parts = self._parts.get((total, used))
        if parts is None:
            fresh = sorted(self._reservoir.difference(used))
            parts = self._parts[total, used] = _rule6_parts(total, self._fixed + list(used), fresh)
        return parts

    def successors(self, i, source) -> dict:
        """``{child index: first move giving it}`` of node ``i``, in
        sorted-move order.  One expansion against ``max_expansions``
        (``source`` names the search); every move must keep the size and
        lower the codimension.
        """
        if self.max_expansions is not None and self.expansions >= self.max_expansions:
            raise SearchBudgetExceededError(
                f"reachability from {source} exceeded {self.max_expansions} expansions"
            )
        self.expansions += 1
        records, node = self.records, self.records[i]
        key, reservoir, canon = node.key, self._reservoir, self._canon
        used = tuple(sorted({c for c, _ in key[0] if c in reservoir})) if reservoir else ()
        moves = _moves(key, lambda total: self._rule6_parts(total, used))
        self.moves += len(moves)
        kids = {}
        for move in moves:
            child = _apply(key, move)
            if canon is None:
                k = self._node(child)
            else:
                k = canon.get(child)
                if k is None:
                    k = canon[child] = self._node(_canonical(child, reservoir))
            kid = records[k]
            if kid.codim >= node.codim or kid.size != node.size:
                raise InvariantViolationError(
                    f"rule {move[0]} took {self.structure(i)} (codim {node.codim}, size "
                    f"{node.size}) to {self.structure(k)} (codim {kid.codim}, size {kid.size})")
            kids.setdefault(k, move)
        return kids

    def sweep(self, roots, keep=None) -> dict:
        """``{key: bitset}`` for every node reached from the keys ``roots``
        whose key is in ``keep`` (every reached node when ``keep`` is None);
        bit s is set when ``roots[s]`` reaches the node.

        Nodes pop from a heap keyed by (-codimension, key), so a node pops
        after every node that reaches it, with its bitset complete.  The
        bitset is ORed into each child and dropped when the node pops,
        unless ``keep`` holds its key.  Each reached node is expanded once.
        """
        source = (structure_from_key(roots[0]) if len(roots) == 1
                  else f"{len(roots)} sources over {len(self.universe)} labels")
        bits, heap = {}, []
        for s, key in enumerate(roots):
            i = self._node(key)
            if i not in bits:
                bits[i] = 0
                heap.append((-self.records[i].codim, key, i))
            bits[i] |= 1 << s
        heapify(heap)
        out = {}
        while heap:
            _, key, i = heappop(heap)
            reach = bits.pop(i)
            if keep is None or key in keep:
                out[key] = reach
            for k in self.successors(i, source):
                if k in bits:
                    bits[k] |= reach
                else:
                    bits[k] = reach
                    heappush(heap, (-self.records[k].codim, self.records[k].key, k))
        return out


def reachable(M: KroneckerStructure, L: KroneckerStructure, prune: bool = True,
              max_expansions=None):
    """A rule sequence turning ``M`` into ``L``, or None when there is none.

    Breadth-first over a fresh :class:`RuleGraph` in sorted-instance order,
    so the path is deterministic and among the shortest; only children
    above ``L`` in codimension are expanded.  Rule-6 eigenvalues are drawn
    from the labels of ``M`` and ``L`` plus a reservoir of min(m, n)
    reusable fresh labels, enough for every transient eigenvalue pattern.
    The reservoir labels a structure does not use are interchangeable, so
    rule 6 draws them once per coincidence pattern, as the graph's prefix;
    the structures are not renamed, so each step names the labels it uses.
    ``max_expansions`` bounds the structures expanded.

    With ``prune`` the search rejects, once per structure, the children
    that cannot lie on a path to ``L``: first, with no further test, every
    child other than ``L`` at or below ``L``'s codimension, which is never
    queued anyway; then every child whose record, stored by the graph when
    the child was first listed, fails the closure test against ``L``'s.
    No child is decoded into a structure.  Without ``prune`` the search
    never consults majorizations and serves as the independent oracle for
    the closure test.
    """
    if size_of(M) != size_of(L):
        raise SizeMismatchError(f"cannot search between sizes {size_of(M)} and {size_of(L)}")
    if M == L:
        return []
    evs = sorted(set(eigenvalues(M)) | set(eigenvalues(L)), key=EigenvalueLabel.sort_key)
    fresh = _fresh_reservoir(min(size_of(M)), [evs])
    graph = RuleGraph(evs + fresh, max_expansions, fresh)
    root, goal = graph.node(M), graph.node(L)
    records, target = graph.records, graph.records[goal]
    if records[root].codim <= target.codim:
        return None
    parents = {root: None}
    rejected = set()
    queue = deque([root])
    while queue:
        i = queue.popleft()
        for k, move in graph.successors(i, M).items():
            if k in parents or k in rejected:
                continue
            if prune and k != goal and (records[k].codim <= target.codim
                                        or not _in_closure(target, records[k])):
                rejected.add(k)
                continue
            parents[k] = (i, move)
            if k == goal:
                path = []
                while parents[k] is not None:
                    k, move = parents[k]
                    path.append(_instance(move))
                return path[::-1]
            if records[k].codim > target.codim:
                queue.append(k)
    return None


def reachable_structures(M: KroneckerStructure, fresh_labels=None, max_expansions=None):
    """All structures obtainable from ``M`` by rule sequences.

    Returns ``(frozenset_of_structures, stats)``.  Rule-6 eigenvalues are
    drawn from the eigenvalues of ``M`` plus ``fresh_labels`` (default:
    the infinity label and a reservoir of min(m, n) finite labels above
    every label of ``M``), so the result contains every reachable
    structure over that label universe; ``M`` itself is included via the
    empty sequence.  One source swept on a fresh :class:`RuleGraph`
    without the reservoir quotient, so ``stats["expansions"]`` equals
    ``stats["visited"]`` and ``max_expansions`` bounds both.
    """
    evs = list(eigenvalues(M))
    if fresh_labels is None:
        fresh_labels = _fresh_reservoir(min(size_of(M)), [evs]) + [INFINITY]
    graph = RuleGraph(dict.fromkeys(evs + list(fresh_labels)), max_expansions)
    reached = frozenset(map(structure_from_key, graph.sweep([structure_sort_key(M)])))
    return reached, {"visited": len(reached), "expansions": graph.expansions}
