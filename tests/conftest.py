"""Shared independent oracles and strategies for the test suite.

The oracles here deliberately re-derive results along different routes
than the library: counting formulas for the invariants instead of the
ones a structure computes once and carries, plain rational Gaussian
elimination and dense Bareiss elimination instead of sparse integer
elimination, Fraction-valued pencils and tangent matrices instead of
integer ones, the full 2mn x (m^2 + n^2) tangent matrix instead of the
block elimination of its shared Y-block, the Demmel-Edelman sum over pairs of blocks instead of the
Weyr-characteristic codimension formula, direct block-multiset
search instead of the budgeted structure enumerator, moves applied to
block lists of labelled pairs instead of the rule graph's sort-key
encoding, label matchings built as relabelled structures instead of on
label codes, a fresh breadth-first search per source or path question
instead of the rule graph, the rules suite's former shared graph (every
source's descendants memoized as node bitsets, no reservoir quotient)
instead of its ancestor sweep, reservoir labels renamed on structures
instead of on keys, a triple-loop transitive reduction instead
of the bitset one, a depth-first transitive closure of the Hasse
edges, the ``dim`` suite's every check on every related pair instead of
on the pairs its node-first route selects, and tuple sort keys for
labels, structures and rule instances instead of the label codes the
library sorts by.
"""

import math
import random
import re
from collections import deque
from fractions import Fraction
from itertools import combinations, groupby, permutations

from hypothesis import strategies as st

from kcforbits import closure, rules, verify
from kcforbits.rules import RuleGraph, RuleInstance
from kcforbits.closure import degenerates_to, set_bits
from kcforbits.core import (
    INFINITY,
    KroneckerStructure,
    canonicalize,
    codimension,
    eigenvalues,
    finite,
    partitions_desc,
    relabel,
    size_of,
    structure_sort_key,
)
from kcforbits.pencils import RationalPencil, exact_rank
from kcforbits.verify import enumerate_structures


def oracle_label_key(lbl):
    """Finite labels first, by id; infinity last."""
    return (1, 0) if lbl.is_infinite else (0, lbl.id)


def oracle_structure_key(K):
    """Sorted (label key, size) pairs, then the sorted singular sizes."""
    jordan = tuple(sorted((oracle_label_key(lbl), s) for lbl, s in K.jordan))
    return jordan, tuple(sorted(K.right)), tuple(sorted(K.left))


def oracle_instance_key(inst):
    """(rule, j, k, p, q, mu key, parts keys), an absent mu first."""
    mu_key = oracle_label_key(inst.mu) if inst.mu is not None else (-1, -1)
    parts_key = tuple((s, oracle_label_key(lbl)) for s, lbl in inst.parts)
    return (inst.rule_id, inst.j, inst.k, inst.p, inst.q, mu_key, parts_key)


def naive_rank(matrix) -> int:
    """Rank by textbook Gauss-Jordan elimination over Fractions."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [rows[i][j] - f * rows[rank][j] for j in range(ncols)]
        rank += 1
    return rank


def bareiss_rank(matrix) -> int:
    """Rank by dense fraction-free (Bareiss) elimination: each row scaled
    to integers by its own lcm, every division by the previous pivot
    checked to be exact."""
    rows = []
    for row in matrix:
        fracs = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in fracs)) if fracs else 1
        rows.append([int(x * scale) for x in fracs])
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


def fraction_tangent_matrix(P):
    """The 2mn x (m^2 + n^2) matrix of (X, Y) |-> (X*A + A*Y, X*B + B*Y),
    with Fraction entries taken from ``P`` as it is."""
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
    return rows


def dense_tangent_codimension(P):
    """Orbit codimension of ``P`` from its Fraction tangent matrix, by Bareiss."""
    return 2 * P.m * P.n - bareiss_rank(fraction_tangent_matrix(P))


def sparse_tangent_codimension(P):
    """Orbit codimension of ``P`` from its full tangent matrix, scaled to
    integers by the lcm of all denominators and ranked by sparse
    elimination (``exact_rank``), with no block elimination."""
    d = math.lcm(*(x.denominator for mat in (P.a, P.b) for row in mat for x in row))
    return 2 * P.m * P.n - exact_rank([[x * d for x in row] for row in fraction_tangent_matrix(P)])


def fraction_random_equivalence(P, seed, num_ops=None):
    """``pencils.random_equivalence`` on Fraction matrices: the same stream
    of ``random.Random(seed)`` operations, each applied to Fractions."""
    rng = random.Random(seed)
    m, n = P.m, P.n
    if num_ops is None:
        num_ops = 2 * (m + n)
    a = [list(row) for row in P.a]
    b = [list(row) for row in P.b]
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
            c, i = Fraction(rng.choice(nonzero)), rng.randrange(m)
            for mat in (a, b):
                mat[i] = [c * x for x in mat[i]]
        elif op == "row_swap":
            i, j = rng.sample(range(m), 2)
            a[i], a[j] = a[j], a[i]
            b[i], b[j] = b[j], b[i]
        elif op == "row_axpy":
            i, j = rng.sample(range(m), 2)
            c = Fraction(rng.choice(small))
            for mat in (a, b):
                mat[j] = [mat[j][t] + c * mat[i][t] for t in range(n)]
        elif op == "col_scale":
            c, i = Fraction(rng.choice(nonzero)), rng.randrange(n)
            for mat in (a, b):
                for row in mat:
                    row[i] *= c
        elif op == "col_swap":
            i, j = rng.sample(range(n), 2)
            for mat in (a, b):
                for row in mat:
                    row[i], row[j] = row[j], row[i]
        else:
            i, j = rng.sample(range(n), 2)
            c = Fraction(rng.choice(small))
            for mat in (a, b):
                for row in mat:
                    row[j] += c * row[i]
    return RationalPencil(m=m, n=n, a=a, b=b)


def pairwise_codimension(K):
    """Orbit codimension as the Demmel-Edelman sum over pairs of blocks.

    Each unordered pair of blocks adds: 2*min(a, b) for two Jordan blocks
    at one eigenvalue, and 0 at two different ones; |e - f| - 1 for two
    L blocks of unequal sizes e, f, 0 for equal ones, and the same for two
    LT blocks; e + h + 2 for L(e) with LT(h); k for a singular block with
    J(k).  Each Jordan block J(a) adds a for itself.
    """
    blocks = ([("J", lbl, s) for lbl, s in K.jordan]
              + [("L", None, k) for k in K.right]
              + [("LT", None, k) for k in K.left])
    total = sum(s for _, s in K.jordan)
    for (kind1, lbl1, s1), (kind2, lbl2, s2) in combinations(blocks, 2):
        kinds = {kind1, kind2}
        if kinds == {"J"}:
            total += 2 * min(s1, s2) if lbl1 == lbl2 else 0
        elif len(kinds) == 1:
            total += abs(s1 - s2) - 1 if s1 != s2 else 0
        elif kinds == {"L", "LT"}:
            total += s1 + s2 + 2
        else:
            total += s1 if kind1 == "J" else s2
    return total


def _counting_weyr(sizes, include_zero=False):
    """Entry i counts the sizes >= i, one pass per index; no trailing zeros."""
    start = 0 if include_zero else 1
    seq = [sum(1 for s in sizes if s >= i) for i in range(start, max(sizes, default=0) + 1)]
    while seq and seq[-1] == 0:
        seq.pop()
    return tuple(seq)


def reference_invariants(K):
    """The invariants a structure carries, from its blocks by counting.

    Keys are the fields of ``K._invariants()`` but its key, plus the
    distinct labels; ``weyr`` is on labels, not codes.  The codimension is
    the Weyr-characteristic formula summed term by term.
    """
    labels = tuple(sorted({lbl for lbl, _ in K.jordan}, key=oracle_label_key))
    weyr = tuple((mu, _counting_weyr([s for lbl, s in K.jordan if lbl == mu])) for mu in labels)
    j = sum(s for _, s in K.jordan)
    m = j + sum(K.right) + sum(k + 1 for k in K.left)
    n = j + sum(k + 1 for k in K.right) + sum(K.left)
    r = _counting_weyr(K.right, include_zero=True)
    ell = _counting_weyr(K.left, include_zero=True)
    r0 = r[0] if r else 0
    l0 = ell[0] if ell else 0
    codim = l0 * n + r0 * m
    codim -= sum(r[i] * r[i + 1] for i in range(len(r) - 1))
    codim -= sum(ell[i] * ell[i + 1] for i in range(len(ell) - 1))
    for _, seq in weyr:
        codim += sum(w * w for w in seq)
    return {"size": (m, n), "rank": n - len(K.right), "r": r, "l": ell,
            "labels": labels, "weyr": weyr, "codim": codim}


def _consumed_produced(inst):
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
    produced_j = tuple((lbl, s) for s, lbl in inst.parts)
    return ((), (inst.p,), (inst.q,)), (produced_j, (), ())


def list_apply_rule(K, inst):
    """One move on block lists of labelled pairs: remove the consumed
    blocks, add the produced ones, build the structure."""
    consumed, produced = _consumed_produced(inst)
    jordan, right, left = list(K.jordan), list(K.right), list(K.left)
    for pool, wanted in ((jordan, consumed[0]), (right, consumed[1]), (left, consumed[2])):
        for item in wanted:
            pool.remove(item)
    jordan.extend(produced[0])
    right.extend(produced[1])
    left.extend(produced[2])
    out = KroneckerStructure(jordan, right, left)
    assert size_of(out) == size_of(K)
    return out


def _list_rule6_parts(total, existing, fresh):
    """Rule-6 part multisets of (size, label), one per coincidence pattern,
    with ``fresh`` labels drawn as a prefix of the list."""
    existing = list(existing)
    out = set()
    for partition in partitions_desc(total):
        groups = [(s, len(list(g))) for s, g in groupby(partition)]

        def rec(gi, used, fresh_used, acc):
            if gi == len(groups):
                out.add(tuple(sorted(acc, key=lambda t: (-t[0], oracle_label_key(t[1])))))
                return
            size, count = groups[gi]
            available = [lbl for lbl in existing if lbl not in used]
            for picked in range(count + 1):
                wanted_fresh = count - picked
                if fresh_used + wanted_fresh > len(fresh):
                    continue
                for combo in combinations(available, picked):
                    labels = list(combo) + fresh[fresh_used:fresh_used + wanted_fresh]
                    rec(gi + 1, used | set(combo), fresh_used + wanted_fresh,
                        acc + [(size, lbl) for lbl in labels])

        rec(0, frozenset(), 0, [])
    return sorted(out, key=lambda parts: tuple((s, oracle_label_key(lbl)) for s, lbl in parts))


def list_instances(K, existing, fresh):
    """Every applicable ``RuleInstance``, built as objects and sorted by
    ``oracle_instance_key``; rule-6 labels come from the given candidates."""
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
            for parts in _list_rule6_parts(p + q + 1, existing, fresh):
                out.append(RuleInstance(6, p=p, q=q, parts=parts))
    return sorted(out, key=oracle_instance_key)


def list_successors(K, universe):
    """``[(child, first instance giving it)]`` of ``K`` in sorted-instance
    order, every universe label a concrete rule-6 candidate."""
    kids = {}
    for inst in list_instances(K, universe, []):
        kids.setdefault(list_apply_rule(K, inst), inst)
    return list(kids.items())


def bfs_reachable_structures(M, fresh_labels):
    """Every structure rule-reachable from ``M``, by a fresh breadth-first
    search over the eigenvalues of ``M`` plus ``fresh_labels``."""
    evs = sorted(eigenvalues(M), key=oracle_label_key)
    universe = list(dict.fromkeys(evs + list(fresh_labels)))
    visited = {M}
    queue = deque([M])
    while queue:
        state = queue.popleft()
        for child, _ in list_successors(state, universe):
            assert codimension(child) < codimension(state)
            if child not in visited:
                visited.add(child)
                queue.append(child)
    return frozenset(visited)


def suite_sources(m, n, pool_size=None, include_infinity=True):
    """Each canonical source with the search labels and the universe the
    rules suite gives it, in suite order."""
    nodes = enumerate_structures(m, n, pool_size, include_infinity=include_infinity)
    reservoir = rules._fresh_reservoir(min(m, n), map(eigenvalues, nodes))
    search_labels = reservoir + ([INFINITY] if include_infinity else [])
    for M in nodes:
        yield M, search_labels, frozenset(eigenvalues(M) + tuple(search_labels))


def shared_graph_reached(m, n, pool_size=None, include_infinity=True):
    """The rules suite's answers by its former search: one plain
    ``RuleGraph`` per universe, shared by the sources in suite order, with
    the descendants of every node memoized in post order as a bitset over
    node indices.  Returns ``({source key: frozenset of the keys it
    reaches}, expansions over all graphs)``."""
    graphs, reached = {}, {}
    for M, _, universe in suite_sources(m, n, pool_size, include_infinity):
        graph, desc, children = graphs.setdefault(universe, (RuleGraph(universe), {}, {}))
        root = graph.node(M)
        stack = [root]
        while stack:
            i = stack[-1]
            if i in desc:
                stack.pop()
                continue
            if i not in children:
                children[i] = list(graph.successors(i, M))
            pending = [k for k in children[i] if k not in desc]
            if pending:
                stack.extend(pending)
                continue
            bits = 1 << i
            for k in children[i]:
                bits |= desc[k]
            desc[i] = bits
            stack.pop()
        reached[structure_sort_key(M)] = frozenset(graph.records[i].key
                                                   for i in set_bits(desc[root]))
    return reached, sum(graph.expansions for graph, _, _ in graphs.values())


def reservoir_canonical(K, reservoir):
    """``K`` with the blocks on ``reservoir`` labels relabelled: their size
    lists ordered longest first, then largest sizes first, and moved onto
    the reservoir labels in id order."""
    runs = {}
    for lbl, s in K.jordan:
        if lbl in reservoir:
            runs.setdefault(lbl, []).append(s)
    order = sorted(runs, key=lambda lbl: (len(runs[lbl]), sorted(runs[lbl])), reverse=True)
    return relabel(K, dict(zip(order, sorted(reservoir, key=oracle_label_key))))


def bfs_reachable_path(M, L, prune=True):
    """A shortest rule sequence from ``M`` to ``L``, or None, by a
    breadth-first search over structures in sorted-instance order that
    re-tests ``degenerates_to`` each time it meets a pruned structure."""
    if M == L:
        return []
    target_codim = codimension(L)
    if codimension(M) <= target_codim:
        return None
    m, n = size_of(M)
    evs = sorted(set(eigenvalues(M)) | set(eigenvalues(L)), key=oracle_label_key)
    universe = evs + rules._fresh_reservoir(min(m, n), [evs])
    parents = {M: None}
    queue = deque([M])
    while queue:
        state = queue.popleft()
        if codimension(state) <= target_codim:
            continue
        for child, inst in list_successors(state, universe):
            assert codimension(child) < codimension(state)
            if child in parents:
                continue
            if prune and not closure.degenerates_to(L, child):
                continue
            parents[child] = (state, inst)
            if child == L:
                path = []
                while parents[child] is not None:
                    child, inst = parents[child]
                    path.append(inst)
                return path[::-1]
            queue.append(child)
    return None


def relabel_matchings(K, target_labels, base=None) -> list:
    """Label matchings of ``K`` against ``target_labels`` by building every
    relabelled structure through ``relabel``, deduplicated and sorted by
    ``oracle_structure_key``.  Unmatched labels go to ``e<base>``,
    ``e<base + 1>``, ...; by default ``base`` is one above every label id of
    ``K`` and the targets."""
    src = [lbl for lbl in eigenvalues(K) if not lbl.is_infinite]
    tgt = sorted({lbl for lbl in target_labels if not lbl.is_infinite}, key=oracle_label_key)
    if base is None:
        base = 1 + max((lbl.id for lbl in tgt), default=0)
        base = max(base, 1 + max((lbl.id for lbl in src), default=0))
    results = {}
    for k in range(min(len(src), len(tgt)) + 1):
        for subset in combinations(src, k):
            for image in permutations(tgt, k):
                mapping = dict(zip(subset, image))
                fresh = (lbl for lbl in src if lbl not in mapping)
                for i, lbl in enumerate(fresh):
                    mapping[lbl] = finite(base + i)
                results.setdefault(relabel(K, mapping), None)
    return sorted(results, key=oracle_structure_key)


def closure_relation(graph):
    """Reflexive-transitive closure of a graph's edges, as a boolean matrix,
    by a depth-first search from every node."""
    n = len(graph.nodes)
    reach = [[i == j for j in range(n)] for i in range(n)]
    adjacency = {i: [] for i in range(n)}
    for i, j in graph.edges:
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


def pairwise_monotonicity(m, n, pool_size=None, include_infinity=True):
    """The ``dim`` suite's report by its former loop: all three checks
    recorded on every related pair of every label set, in the suite's
    order.  It reads ``verify._conditions`` and the rows of
    ``verify._closure_rows`` at call time, so a fault patched into either
    reaches both routes."""
    nodes = enumerate_structures(m, n, pool_size, include_infinity)
    base = rules._fresh_reservoir(1, map(eigenvalues, nodes))[0].sort_key()
    tracker = verify._Tracker()
    pair_count = 0
    for _, group, sources, related, _ in verify._closure_rows(nodes, verify.DEFAULT_MAX_PAIRS,
                                                              base):
        pair_count += len(group) * len(sources)
        for M, bits in zip(group, related):
            target = M._invariants()
            cm = target.codim
            for k in set_bits(bits):
                L = sources[k]
                cl = L.codim

                def info():
                    return {"L": str(verify.structure_from_key(L.key)), "M": str(M),
                            "codim_L": cl, "codim_M": cm, "h": L.rank - target.rank}

                tracker.record("codim_monotone", cl <= cm, info)
                tracker.record("codim_equality_iff_same_orbit",
                               (cl == cm) == (L.key == target.key), info)
                if cl == cm:
                    h, conditions = verify._conditions(L, target)
                    ok = h == 0 and all(lower == upper for _, lower, upper in conditions)
                    tracker.record("equality_forces_equal_majorizations", ok, info)
    checks = tracker.results(["codim_monotone", "codim_equality_iff_same_orbit",
                              "equality_forces_equal_majorizations"])
    return verify.VerificationReport(size=(m, n), node_count=len(nodes),
                                     pair_count=pair_count, checks=checks)


def naive_hasse_edges(nodes):
    """Covering pairs (i, j) of the closure order, by the O(n^3) reduction."""
    n = len(nodes)
    rel = [[i != j and degenerates_to(nodes[i], nodes[j]) for j in range(n)] for i in range(n)]
    return tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if rel[i][j] and not any(rel[i][k] and rel[k][j] for k in range(n) if k != i and k != j)
    )


def brute_force_structures(m, n, pool_size, include_infinity=True):
    """Canonical structures of size (m, n), by direct block-multiset search."""
    labels = [finite(i + 1) for i in range(pool_size)]
    if include_infinity:
        labels.append(INFINITY)
    block_types = []
    for k in range(n):  # L_k is k x (k+1)
        block_types.append(("right", k, k, k + 1))
    for k in range(m):  # LT_k is (k+1) x k
        block_types.append(("left", k, k + 1, k))
    for lbl in labels:
        for s in range(1, min(m, n) + 1):
            block_types.append(("jordan", (lbl, s), s, s))
    results = set()

    def rec(idx, rows, cols, jordan, right, left):
        if rows == 0 and cols == 0:
            results.add(canonicalize(KroneckerStructure(jordan, right, left)))
            return
        if idx == len(block_types):
            return
        rec(idx + 1, rows, cols, jordan, right, left)
        kind, payload, dr, dc = block_types[idx]
        if dr <= rows and dc <= cols:
            if kind == "right":
                rec(idx, rows - dr, cols - dc, jordan, right + (payload,), left)
            elif kind == "left":
                rec(idx, rows - dr, cols - dc, jordan, right, left + (payload,))
            else:
                rec(idx, rows - dr, cols - dc, jordan + (payload,), right, left)

    rec(0, m, n, (), (), ())
    return results


@st.composite
def structures(draw, max_block=3, max_labels=3, max_singular=2):
    """Random well-formed Kronecker structures, small enough for oracles."""
    labels = [finite(i + 1) for i in range(max_labels)] + [INFINITY]
    jordan = draw(
        st.lists(
            st.tuples(st.sampled_from(labels), st.integers(1, max_block)),
            max_size=4,
        )
    )
    right = draw(st.lists(st.integers(0, max_block), max_size=max_singular))
    left = draw(st.lists(st.integers(0, max_block), max_size=max_singular))
    return KroneckerStructure(jordan, right, left)


def nonincreasing_seqs(max_len=8, max_entry=8, min_len=0):
    return st.lists(
        st.integers(0, max_entry), min_size=min_len, max_size=max_len
    ).map(lambda xs: tuple(sorted(xs, reverse=True)))


_DOT_HEADER = re.compile(r"digraph [A-Za-z_][A-Za-z0-9_]* \{$")
_DOT_ATTR = re.compile(r"  [a-z]+=[A-Za-z0-9]+;$")
_DOT_NODE = re.compile(r'  (n\d+) \[label="[^"\\]*(\\n[^"\\]*)*"\];$')
_DOT_EDGE = re.compile(r"  (n\d+) -> (n\d+);$")


def check_dot(text):
    """Validate DOT output against a strict sub-grammar; return the edges."""
    lines = text.splitlines()
    assert lines, "empty DOT output"
    assert _DOT_HEADER.fullmatch(lines[0]), f"bad header: {lines[0]!r}"
    assert lines[-1] == "}", f"bad trailer: {lines[-1]!r}"
    nodes = set()
    edges = []
    for line in lines[1:-1]:
        node = _DOT_NODE.fullmatch(line)
        edge = _DOT_EDGE.fullmatch(line)
        attr = _DOT_ATTR.fullmatch(line)
        assert node or edge or attr, f"bad DOT statement: {line!r}"
        if node:
            nodes.add(node.group(1))
        elif edge:
            edges.append((edge.group(1), edge.group(2)))
    for a, b in edges:
        assert a in nodes and b in nodes, f"edge {a}->{b} uses undeclared node"
    return edges


def assert_sizes(K, m, n):
    assert size_of(K) == (m, n)
