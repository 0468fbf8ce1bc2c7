"""Exhaustive desk-scale verification of the codimension theory.

Enumerates every canonical Kronecker structure of a given pencil size,
then checks, over all ordered pairs in a shared eigenvalue-label space:

  * monotonicity: closure inclusion implies the codimension inequality,
    with equality exactly on the same orbit;
  * cross-validation: the majorization test for closure inclusion and
    prune-free rule reachability give identical answers;
  * formula identities: the rank and size identities of the Weyr data,
    and exact agreement of the codimension formula with the
    tangent-space corank of a realized pencil.

Pairs are produced from canonical representatives by re-embedding one
side into a shared pool through every label matching up to symmetry,
since the closure test depends on which eigenvalues of the two
structures coincide.  Reports are deterministic for fixed inputs.
"""

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import count, groupby
from operator import itemgetter
from typing import NamedTuple

from . import rules
from .closure import (
    closure_records,
    majorization_conditions,
    majorization_report,
    set_bits,
)
from .core import (
    INFINITY,
    KroneckerStructure,
    codimension,
    eigenvalues,
    finite,
    partition_multisets,
    partitions_desc,
    rank_of,
    size_of,
    structure_from_key,
    structure_sort_key,
    weyr_jordan,
    weyr_jordan_pairs,
    weyr_singular,
)
from .errors import EnumerationLimitExceededError, InvalidSizeError
from .pencils import normal_rank, random_equivalence, realize, tangent_codimension

__all__ = [
    "CheckResult",
    "VerificationReport",
    "enumerate_structures",
    "label_matchings",
    "verify_codimension_monotonicity",
    "cross_validate_characterizations",
    "verify_formula_identities",
    "DEFAULT_MAX_PAIRS",
]

DEFAULT_MAX_PAIRS = 10_000_000


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    counterexample: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


@dataclass
class VerificationReport:
    size: tuple
    node_count: int
    pair_count: int
    checks: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        # wall time is excluded: serialized reports are deterministic
        return {
            "size": list(self.size),
            "node_count": self.node_count,
            "pair_count": self.pair_count,
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def summary_text(self) -> str:
        m, n = self.size
        lines = [
            f"size {m}x{n}: {self.node_count} structures, "
            f"{self.pair_count} pair checks, {self.elapsed_seconds:.2f}s"
        ]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  {mark} {c.check_id}")
            if not c.passed and c.counterexample:
                for key, value in c.counterexample.items():
                    lines.append(f"       {key}: {value}")
        return "\n".join(lines)


class _Tracker:
    """Collects the first counterexample per check id."""

    def __init__(self):
        self.failures = {}
        self.counts = {}

    def record(self, check_id, ok, counterexample):
        if ok:
            return
        self.counts[check_id] = self.counts.get(check_id, 0) + 1
        if check_id not in self.failures:
            self.failures[check_id] = counterexample() if callable(counterexample) else counterexample

    def results(self, check_ids) -> list:
        out = []
        for cid in check_ids:
            passed = cid not in self.failures
            example = self.failures.get(cid)
            if example is not None:
                example = dict(example)
                example["violations"] = self.counts[cid]
            out.append(CheckResult(check_id=cid, passed=passed, counterexample=example))
        return out


def enumerate_structures(
    m: int,
    n: int,
    pool_size: int | None = None,
    include_infinity: bool = True,
) -> list:
    """All canonical structures of size exactly (m, n).

    The regular part uses at most ``pool_size`` distinct finite labels
    (default min(m, n)), assigned canonically, plus the infinity label
    unless ``include_infinity`` is false.  Output is deduplicated and
    deterministically ordered.
    """
    if m < 1 or n < 1:
        raise InvalidSizeError(f"need m, n >= 1, got ({m}, {n})")
    if pool_size is None:
        pool_size = min(m, n)
    if pool_size < 0:
        raise InvalidSizeError(f"pool_size must be >= 0, got {pool_size}")
    out = []
    for num_left in range(m + 1):
        num_right = num_left + n - m
        if num_right < 0 or num_right > n:
            continue
        budget = m - num_left  # total content: jordan sizes + singular sizes
        if budget < 0:
            continue
        for c_right in range(budget + 1):
            if num_right == 0 and c_right > 0:
                break
            for c_left in range(budget - c_right + 1):
                if num_left == 0 and c_left > 0:
                    break
                s_reg = budget - c_right - c_left
                for right in _padded_partitions(c_right, num_right):
                    for left in _padded_partitions(c_left, num_left):
                        for jordan in _regular_parts(s_reg, pool_size, include_infinity):
                            out.append(KroneckerStructure(jordan, right, left))
    out.sort(key=structure_sort_key)
    return out


def _padded_partitions(total: int, exact_parts: int):
    """Multisets of ``exact_parts`` sizes >= 0 summing to ``total``."""
    if exact_parts == 0:
        return [()] if total == 0 else []
    out = []
    for p in partitions_desc(total):
        if len(p) <= exact_parts:
            out.append(p + (0,) * (exact_parts - len(p)))
    return out


def _regular_parts(total: int, pool_size: int, include_infinity: bool):
    """Canonical Jordan multisets of total size ``total``."""
    out = []
    inf_totals = range(total + 1) if include_infinity else (0,)
    for t_inf in inf_totals:
        for inf_part in partitions_desc(t_inf):
            for fin_parts in partition_multisets(total - t_inf, pool_size):
                jordan = [(INFINITY, s) for s in inf_part]
                for i, part in enumerate(fin_parts):
                    jordan.extend((finite(i + 1), s) for s in part)
                out.append(tuple(jordan))
    return out


class _Matched(NamedTuple):
    """One label matching, encoded: the structure is never built.

    ``key`` is the :func:`structure_sort_key` of the matched structure, so
    equal keys are the same orbit and :func:`structure_from_key` builds
    it.  The other fields are the invariants :func:`closure_records` and
    the suites read, those of the matched node with ``weyr`` on the same
    label codes.
    """

    key: tuple
    size: tuple
    rank: int
    r: tuple
    l: tuple
    weyr: tuple
    codim: int


_INF = INFINITY.sort_key()


def _encode(K: KroneckerStructure) -> _Matched:
    """``K`` as its own matching."""
    return _Matched(
        structure_sort_key(K), size_of(K), rank_of(K), weyr_singular(K, "right"),
        weyr_singular(K, "left"),
        tuple([(mu.sort_key(), seq) for mu, seq in weyr_jordan_pairs(K)]), codimension(K),
    )


def _matchings(node: _Matched, targets: tuple, base: int) -> list:
    """The label matchings of an encoded ``node`` against the sorted finite
    codes ``targets``, encoded and in key order.

    Each is an injective partial map from the node's finite codes into
    ``targets``, with the rest sent, in code order, to the fresh ids
    ``base, base + 1, ...``, which must lie above every target; infinity
    stays put.  Maps giving the same key are one matching.  A key is fixed
    by the block sizes each target receives and the sequence of sizes sent
    to fresh ids, so the finite labels are placed one at a time and equal
    partial placements are merged, never listing a map twice.
    """
    jordan, right, left = node.key
    runs = [(c, tuple([s for _, s in run])) for c, run in groupby(jordan, key=itemgetter(0))]
    weyr_of = {sizes: seq for (_, sizes), (_, seq) in zip(runs, node.weyr)}
    states = {((None,) * len(targets), ())}  # (sizes per target, sizes per fresh id)
    for c, sizes in runs:
        if c == _INF:
            continue
        grown = set()
        for placed, fresh in states:
            grown.add((placed, fresh + (sizes,)))
            for p, taken in enumerate(placed):
                if taken is None:
                    grown.add((placed[:p] + (sizes,) + placed[p + 1:], fresh))
        states = grown
    out = []
    for placed, fresh in states:
        blocks = [(c, sizes) for c, sizes in zip(targets, placed) if sizes is not None]
        blocks += zip(count(base), fresh)
        blocks += [(c, sizes) for c, sizes in runs if c == _INF]
        out.append(_Matched((tuple([(c, s) for c, sizes in blocks for s in sizes]), right, left),
                            node.size, node.rank, node.r, node.l,
                            tuple([(c, weyr_of[sizes]) for c, sizes in blocks]), node.codim))
    out.sort(key=itemgetter(0))
    return out


def label_matchings(K: KroneckerStructure, target_labels) -> list:
    """Relabelings of ``K`` realizing every eigenvalue-coincidence pattern
    against ``target_labels``.

    Each finite label of ``K`` is either matched injectively to one of
    the target labels or kept disjoint from all of them; unmatched labels
    are renamed to a fixed fresh sequence starting one above the targets
    and the labels of ``K``, one representative per pattern.  The infinity
    label always matches itself.  Deduplicated, in
    :func:`structure_sort_key` order.  The verifier runs the same matcher
    on label codes, with the fresh sequence on the rule search's reservoir,
    and never builds these structures; here they are decoded.
    """
    node = _encode(K)
    targets = tuple(sorted({lbl.sort_key() for lbl in target_labels if not lbl.is_infinite}))
    base = 1 + max([mu for mu, _ in node.weyr if mu != _INF] + list(targets), default=0)
    return [structure_from_key(L.key) for L in _matchings(node, targets, base)]


def _matchings_count(src_count: int, tgt_count: int) -> int:
    total = 0
    for k in range(min(src_count, tgt_count) + 1):
        ways = 1
        for i in range(k):
            ways *= tgt_count - i
        binom = 1
        for i in range(k):
            binom = binom * (src_count - i) // (i + 1)
        total += binom * ways
    return total


def _pair_budget(nodes, max_pairs):
    """Upper bound on pair instances; fail fast when over budget."""
    finite_counts = Counter(sum(1 for lbl in eigenvalues(K) if not lbl.is_infinite)
                            for K in nodes)
    total = 0
    for cl, l_nodes in finite_counts.items():
        for cm, m_nodes in finite_counts.items():
            total += l_nodes * m_nodes * _matchings_count(cl, cm)
            if total > max_pairs:
                raise EnumerationLimitExceededError(
                    f"pair budget {max_pairs} exceeded ({len(nodes)} nodes)"
                )
    return total


def _closure_rows(nodes, max_pairs, base):
    """(M, sources, related) for every node M, in node order.

    ``sources`` are the label matchings of every node against M's finite
    eigenvalues, unmatched labels sent to ``base, base + 1, ...``, in node
    order, as encoded :class:`_Matched` records; bit k of ``related`` is
    ``degenerates_to`` of source k and M.  The sources depend only on M's
    finite labels (infinity always matches itself), so each finite label
    set is matched once, one :func:`_matchings` call per node, and decided
    by one :func:`closure_records` batch over all of its nodes.
    """
    _pair_budget(nodes, max_pairs)
    encoded = [_encode(M) for M in nodes]
    finite_labels = [tuple([mu for mu, _ in node.weyr if mu != _INF]) for node in encoded]
    groups = {}
    for i, targets in enumerate(finite_labels):
        groups.setdefault(targets, []).append(i)
    matched, related = {}, {}
    for i, (M, targets) in enumerate(zip(nodes, finite_labels)):
        if targets not in matched:
            matched[targets] = [L for node in encoded for L in _matchings(node, targets, base)]
            group = groups[targets]
            related.update(zip(group, closure_records(matched[targets],
                                                      [encoded[j] for j in group])))
        yield M, matched[targets], related.pop(i)


def verify_codimension_monotonicity(
    m: int,
    n: int,
    pool_size: int | None = None,
    include_infinity: bool = True,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> VerificationReport:
    """Closure inclusion implies codim(L) <= codim(M), equality iff same orbit.

    Runs over every ordered same-size pair of enumerated structures in a
    shared label space.  Also checks the converse refinement: equality of
    codimensions within a closure relation forces h = 0 and equality in
    all three majorizations.
    """
    start = time.monotonic()
    nodes = enumerate_structures(m, n, pool_size, include_infinity)
    base = rules._fresh_reservoir(1, map(eigenvalues, nodes))[0].sort_key()
    tracker = _Tracker()
    pair_count = 0
    for M, sources, related in _closure_rows(nodes, max_pairs, base):
        pair_count += len(sources)
        target = _encode(M)
        cm = target.codim
        for k in set_bits(related):
            L = sources[k]
            cl = L.codim

            def info():
                return {"L": str(structure_from_key(L.key)), "M": str(M), "codim_L": cl,
                        "codim_M": cm, "h": L.rank - target.rank}

            tracker.record("codim_monotone", cl <= cm, info)
            # same orbit: equal blocks, labels compared as concrete identities
            tracker.record("codim_equality_iff_same_orbit",
                           (cl == cm) == (L.key == target.key), info)
            if cl == cm:
                ok = L.rank == target.rank and all(
                    lower == upper
                    for _, lower, upper in majorization_conditions(structure_from_key(L.key), M)
                )
                tracker.record("equality_forces_equal_majorizations", ok, info)
    checks = tracker.results([
        "codim_monotone",
        "codim_equality_iff_same_orbit",
        "equality_forces_equal_majorizations",
    ])
    return VerificationReport(
        size=(m, n),
        node_count=len(nodes),
        pair_count=pair_count,
        checks=checks,
        elapsed_seconds=time.monotonic() - start,
    )


def cross_validate_characterizations(
    m: int,
    n: int,
    pool_size: int | None = None,
    include_infinity: bool = True,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    max_expansions: int = DEFAULT_MAX_PAIRS,
) -> VerificationReport:
    """Majorization test vs prune-free rule reachability, on all pairs.

    A source M searches over its eigenvalues plus a shared fresh-label
    reservoir (and the infinity label), so there are at most
    min(m, n) + 1 distinct search universes.  One :class:`rules.RuleGraph`
    per universe expands each structure once for all sources, without
    consulting majorizations; ``max_expansions`` bounds each graph.  Every
    re-embedded target L is then tested for membership in M's descendant
    bitset and compared with ``degenerates_to(L, M)``, read from one
    :func:`closure_records` batch per finite eigenvalue set.  The matcher
    sends unmatched labels onto the reservoir, so every target key is
    already in the codes of M's graph and is looked up in its index without
    being added: a key the graph lacks after expanding M is not reachable
    from M.
    """
    start = time.monotonic()
    nodes = enumerate_structures(m, n, pool_size, include_infinity)
    reservoir = rules._fresh_reservoir(min(m, n), map(eigenvalues, nodes))
    search_labels = tuple(reservoir) + ((INFINITY,) if include_infinity else ())
    graphs = {}
    tracker = _Tracker()
    pair_count = 0
    for M, sources, related in _closure_rows(nodes, max_pairs, reservoir[0].sort_key()):
        universe = dict.fromkeys(eigenvalues(M) + search_labels)
        key = frozenset(universe)
        if key not in graphs:
            graphs[key] = rules.RuleGraph(universe, max_expansions)
        graph = graphs[key]
        reached = graph.descendants(M)
        pair_count += len(sources)
        for k, L in enumerate(sources):
            # a target the graph has never met is not reached from M
            idx = graph.find(L.key)
            via_rules = idx is not None and bool(reached >> idx & 1)
            via_majorization = bool(related >> k & 1)

            def info():
                structure = structure_from_key(L.key)
                report = majorization_report(structure, M)
                return {
                    "L": str(structure),
                    "M": str(M),
                    "majorization": via_majorization,
                    "rule_reachable": via_rules,
                    "partial_sums": report["conditions"],
                    "search": {"visited": reached.bit_count(),
                               "expansions": graph.expansions},
                }

            tracker.record("majorization_matches_reachability",
                           via_rules == via_majorization, info)
    checks = tracker.results(["majorization_matches_reachability"])
    return VerificationReport(
        size=(m, n),
        node_count=len(nodes),
        pair_count=pair_count,
        checks=checks,
        elapsed_seconds=time.monotonic() - start,
    )


def verify_formula_identities(
    m: int,
    n: int,
    pool_size: int | None = None,
    include_infinity: bool = True,
    seeds: int = 5,
    seed_base: int = 0,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> VerificationReport:
    """Structural identities and the tangent-space oracle, per structure.

    Checks, for every enumerated structure: the rank identity
    m - l_0 = n - r_0 = rank; the two size identities of the Weyr data;
    agreement of the codimension formula with the tangent corank of a
    realized pencil; and invariance of that corank and the normal rank
    under random strict equivalences.
    """
    start = time.monotonic()
    nodes = enumerate_structures(m, n, pool_size, include_infinity)
    if len(nodes) * (seeds + 1) > max_pairs:
        raise EnumerationLimitExceededError(
            f"formula-identity budget {max_pairs} exceeded ({len(nodes)} nodes)"
        )
    tracker = _Tracker()
    for K in nodes:
        mm, nn = size_of(K)
        r = weyr_singular(K, "right")
        ell = weyr_singular(K, "left")
        r0 = r[0] if r else 0
        l0 = ell[0] if ell else 0
        w_total = sum(sum(weyr_jordan(K, mu)) for mu in eigenvalues(K))
        info = {"structure": str(K), "codim": codimension(K)}
        tracker.record("rank_identity",
                       mm - l0 == nn - r0 == rank_of(K), info)
        tracker.record("size_identities",
                       mm == sum(r[1:]) + sum(ell) + w_total
                       and nn == sum(r) + sum(ell[1:]) + w_total, info)
        pencil = realize(K)
        oracle = tangent_codimension(pencil)
        tracker.record(
            "codim_matches_tangent_corank",
            codimension(K) == oracle,
            {**info, "tangent_codim": oracle},
        )
        for seed in range(seed_base, seed_base + seeds):
            moved = random_equivalence(pencil, seed)
            tracker.record(
                "codim_invariant_under_equivalence",
                tangent_codimension(moved) == codimension(K)
                and normal_rank(moved) == rank_of(K),
                {**info, "seed": seed},
            )
    checks = tracker.results([
        "rank_identity",
        "size_identities",
        "codim_matches_tangent_corank",
        "codim_invariant_under_equivalence",
    ])
    return VerificationReport(
        size=(m, n),
        node_count=len(nodes),
        pair_count=len(nodes) * (seeds + 1),
        checks=checks,
        elapsed_seconds=time.monotonic() - start,
    )
