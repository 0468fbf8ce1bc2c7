"""Independent reference computations the benchmark checks answers against.

Nothing here imports kcforbits.  A structure is a plain triple
``(jordan, right, left)``: ``jordan`` is a sorted tuple of
``(label, size)`` pairs with labels written as in the notation (``"e1"``,
``"inf"``), ``right`` and ``left`` are sorted tuples of singular block
sizes.  The routes differ from the program's on purpose:

* codimension by the block-pair form of Demmel and Edelman ("The
  dimension of matrix pencil orbits and the Kronecker canonical form",
  1995) instead of the Weyr-characteristic formula;
* closure inclusion by prefix sums of Weyr characteristics built here,
  and the Hasse diagram by a transitive reduction on bitsets;
* rule paths replayed by rewriting block multisets;
* pair counts of the exhaustive suites in closed form.
"""

from collections import Counter
from functools import cache
from itertools import accumulate, combinations
from math import factorial

INF = "inf"


def _label_key(label):
    return (1, 0) if label == INF else (0, int(label[1:]))


def make(jordan=(), right=(), left=()):
    jordan = tuple(sorted(((lbl, int(s)) for lbl, s in jordan),
                          key=lambda t: (_label_key(t[0]), t[1])))
    return (jordan, tuple(sorted(right)), tuple(sorted(left)))


def size(S):
    jordan, right, left = S
    j = sum(s for _, s in jordan)
    return (j + sum(right) + sum(k + 1 for k in left),
            j + sum(k + 1 for k in right) + sum(left))


def rank(S):
    return size(S)[1] - len(S[1])


def labels(S):
    return sorted({lbl for lbl, _ in S[0]}, key=_label_key)


def to_text(S):
    jordan, right, left = S
    terms = [f"J({s};{lbl})" for lbl, s in jordan]
    terms += [f"L({k})" for k in right] + [f"LT({k})" for k in left]
    return " + ".join(terms)


def from_json(d):
    """Structure from the ``structure_to_json_dict`` form."""
    return make([(b["eig"], b["size"]) for b in d["jordan"]], d["right"], d["left"])


# ---- codimension, Demmel-Edelman block-pair form ---------------------------

def codim(S):
    """Sum of the codimension contributions of every pair of blocks.

    Jordan blocks at one eigenvalue: min(a, b) per ordered pair, the pair of
    a block with itself included.  L blocks: e_i - e_j - 1 per pair with
    e_i > e_j; LT blocks likewise.  L(e) with LT(h): e + h + 2.  Every
    singular block with every Jordan block J(k): k.
    """
    jordan, right, left = S
    by_label = {}
    for lbl, s in jordan:
        by_label.setdefault(lbl, []).append(s)
    total = sum(min(a, b) for sizes in by_label.values() for a in sizes for b in sizes)
    for sizes in (right, left):
        total += sum(abs(a - b) - 1 for a, b in combinations(sizes, 2) if a != b)
    total += sum(e + h + 2 for e in right for h in left)
    total += sum(s for _, s in jordan) * (len(right) + len(left))
    return total


# ---- closure inclusion by prefix-sum majorization ---------------------------

def _weyr(sizes, start):
    top = max(sizes, default=-1)
    return [sum(1 for s in sizes if s >= i) for i in range(start, top + 1)]


@cache
def _profile(S):
    """Rank and the prefix sums of every Weyr characteristic of S."""
    jordan, right, left = S
    by_label = {}
    for lbl, s in jordan:
        by_label.setdefault(lbl, []).append(s)
    return (rank(S), tuple(accumulate(_weyr(right, 0))), tuple(accumulate(_weyr(left, 0))),
            {lbl: tuple(accumulate(_weyr(sizes, 1))) for lbl, sizes in by_label.items()})


def _dominated(lower, upper, shift):
    """lower[j] <= upper[j] + (j + 1) * shift for every j, where both are
    prefix sums and a short one stays at its last value."""
    lo_top = lower[-1] if lower else 0
    hi_top = upper[-1] if upper else 0
    for j in range(max(len(lower), len(upper))):
        lo = lower[j] if j < len(lower) else lo_top
        hi = upper[j] if j < len(upper) else hi_top
        if lo > hi + (j + 1) * shift:
            return False
    return True


def in_closure(L, M):
    """True iff M lies in the closure of the orbit of L (same size)."""
    if size(L) != size(M):
        raise ValueError("sizes differ")
    rank_l, right_l, left_l, jordan_l = _profile(L)
    rank_m, right_m, left_m, jordan_m = _profile(M)
    h = rank_l - rank_m
    if h < 0 or not _dominated(right_m, right_l, h) or not _dominated(left_m, left_l, h):
        return False
    return all(_dominated(jordan_l.get(lbl, ()), jordan_m.get(lbl, ()), h)
               for lbl in jordan_l.keys() | jordan_m.keys())


def hasse_edges(nodes):
    """Covering pairs (i, j) of the closure order on ``nodes``: node j is in
    the closure of node i's orbit and of no orbit strictly between them."""
    below = [sum(1 << j for j, M in enumerate(nodes) if j != i and in_closure(L, M))
             for i, L in enumerate(nodes)]
    edges = set()
    for i, reach in enumerate(below):
        through = 0
        for k in _bits(reach):
            through |= below[k]
        edges.update((i, j) for j in _bits(reach & ~through))
    return edges


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---- canonical structures and closed-form pair counts -----------------------

def _partitions(total, top=None):
    if total == 0:
        yield ()
        return
    for first in range(min(total, top or total), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _exact_parts(total, parts):
    """Multisets of ``parts`` sizes >= 0 summing to ``total``."""
    return [p + (0,) * (parts - len(p)) for p in _partitions(total) if len(p) <= parts]


def _finite_parts(total, slots, smallest=None):
    """Multisets of at most ``slots`` nonempty partitions summing to ``total``,
    as non-increasing tuples of partitions."""
    if total == 0:
        yield ()
        return
    if slots == 0:
        return
    cands = [p for k in range(1, total + 1) for p in _partitions(k)]
    for p in sorted(cands, reverse=True):
        if smallest is not None and p > smallest:
            continue
        for rest in _finite_parts(total - sum(p), slots - 1, p):
            yield (p,) + rest


def canonical_structures(m, n):
    """Every structure of size (m, n) up to renaming finite eigenvalues,
    with at most min(m, n) finite eigenvalues and the infinite one."""
    out = []
    pool = min(m, n)
    for nl in range(m + 1):
        nr = nl + n - m
        if not 0 <= nr <= n:
            continue
        content = m - nl
        for cr in range(content + 1):
            for cl in range(content - cr + 1):
                reg = content - cr - cl
                rights = _exact_parts(cr, nr)
                lefts = _exact_parts(cl, nl)
                for t_inf in range(reg + 1):
                    for inf_part in _partitions(t_inf):
                        for fin in _finite_parts(reg - t_inf, pool):
                            jordan = [(INF, s) for s in inf_part]
                            for i, part in enumerate(fin):
                                jordan += [(f"e{i + 1}", s) for s in part]
                            for r in rights:
                                for lf in lefts:
                                    out.append(make(jordan, r, lf))
    return sorted(set(out))


def finite_types(S):
    """Multiplicities of the distinct Segre characteristics of the finite
    eigenvalues of S."""
    segre = {}
    for lbl, s in S[0]:
        if lbl != INF:
            segre.setdefault(lbl, []).append(s)
    return tuple(sorted(Counter(tuple(sorted(v)) for v in segre.values()).values()))


def matchings(types, targets):
    """Distinct eigenvalue-coincidence patterns of a structure whose finite
    eigenvalues fall into Segre classes of the given multiplicities,
    against ``targets`` concrete eigenvalues: the maps from the targets to
    the classes or to nothing that use class i at most types[i] times."""
    total = 0

    def rec(i, used, denom):
        nonlocal total
        if i == len(types):
            total += factorial(targets) // (factorial(targets - used) * denom)
            return
        for k in range(min(types[i], targets - used) + 1):
            rec(i + 1, used + k, denom * factorial(k))

    rec(0, 0, 1)
    return total


def pair_count(nodes):
    """Ordered pairs the dim and rules suites check over ``nodes``."""
    types = Counter(finite_types(S) for S in nodes)
    targets = Counter(len([x for x in labels(S) if x != INF]) for S in nodes)
    return sum(cl * ct * matchings(t, k) for t, cl in types.items() for k, ct in targets.items())


# ---- rule paths replayed on block multisets ---------------------------------

def _blocks(S):
    c = Counter(("J", lbl, s) for lbl, s in S[0])
    c.update(("L", k) for k in S[1])
    c.update(("LT", k) for k in S[2])
    return c


def _structure(blocks):
    items = list(blocks.elements())
    return make([(b[1], b[2]) for b in items if b[0] == "J"],
                [b[1] for b in items if b[0] == "L"],
                [b[1] for b in items if b[0] == "LT"])


def _move(step):
    """Blocks consumed and produced by one rule step given as JSON."""
    rule = step["rule"]
    j, k, mu = step.get("j", 0), step.get("k", 0), step.get("mu")
    if rule in (1, 2):
        side = "L" if rule == 1 else "LT"
        if not 1 <= j <= k:
            raise ValueError(f"rule {rule} needs 1 <= j <= k")
        return [(side, j - 1), (side, k + 1)], [(side, j), (side, k)]
    if rule in (3, 4):
        side = "L" if rule == 3 else "LT"
        if j < 0 or k < 0:
            raise ValueError(f"rule {rule} needs j, k >= 0")
        return [(side, j), ("J", mu, k + 1)], [(side, j + 1)] + ([("J", mu, k)] if k else [])
    if rule == 5:
        if not 1 <= j <= k:
            raise ValueError("rule 5 needs 1 <= j <= k")
        return [("J", mu, j), ("J", mu, k)], ([("J", mu, j - 1)] if j > 1 else []) + [("J", mu, k + 1)]
    if rule == 6:
        p, q, parts = step["p"], step["q"], step["parts"]
        if sum(x["size"] for x in parts) != p + q + 1 or any(x["size"] < 1 for x in parts):
            raise ValueError("rule 6 part sizes must be >= 1 and sum to p + q + 1")
        if len({x["mu"] for x in parts}) != len(parts):
            raise ValueError("rule 6 eigenvalues must be distinct")
        return [("L", p), ("LT", q)], [("J", x["mu"], x["size"]) for x in parts]
    raise ValueError(f"unknown rule {rule!r}")


def replay(M, L, path):
    """Apply ``path`` to M; return None when it is a valid path to L along
    which the codimension falls at every step, else what is wrong."""
    blocks = _blocks(M)
    level = codim(M)
    for i, step in enumerate(path, 1):
        try:
            consumed, produced = _move(step)
        except (KeyError, TypeError, ValueError) as exc:
            return f"step {i}: malformed {step!r}: {exc}"
        need = Counter(consumed)
        if any(blocks[b] < c for b, c in need.items()):
            return f"step {i}: consumes blocks that are not present"
        blocks -= need
        blocks.update(produced)
        now = codim(_structure(blocks))
        if now >= level:
            return f"step {i}: codimension {level} -> {now} does not fall"
        level = now
    if _structure(blocks) != L:
        return f"path ends at {to_text(_structure(blocks))}, not at {to_text(L)}"
    return None
