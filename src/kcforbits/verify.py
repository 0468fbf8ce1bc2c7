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
structures coincide.  The monotonicity suite decides node pairs first:
one batch gives, for every pair of nodes, whether some matching is
related (:func:`closure._node_part` and :class:`closure._LabelItems`),
and only the node pairs where a check can fail are expanded into their
matchings.  The rule suite runs one finite eigenvalue set of the target
at a time: its matchings, its closure batch and its search universe are
built, checked and dropped before the next set's.  Reports are
deterministic for fixed inputs.
"""

import time
from bisect import insort
from collections import Counter
from dataclasses import dataclass, field
from itertools import count, groupby, product
from math import factorial, perm
from operator import itemgetter

from . import pencils, rules
from .closure import (
    _INF,
    _conditions,
    _dominated,
    _in_closure,
    _LabelItems,
    _node_part,
    _transpose,
    closure_records,
    majorization_report,
    set_bits,
)
from .core import (
    INFINITY,
    KroneckerStructure,
    _Invariants,
    _label,
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
    weyr_singular,
)
from .errors import EnumerationLimitExceededError, InvalidSizeError
from .notation import MAX_DIGITS
from .pencils import realize

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
FORMULA_SEEDS = 5  # random strict equivalences per structure in the ``formulas`` suite


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
    """A suite's verdicts.  ``stats`` counts the work done (the ``dim``
    suite: candidate node pairs and their label step, checked pairs, label
    sets and seconds per phase;
    the ``rules`` suite: expansions and moves per search universe; the
    ``formulas`` suite: rank calls by shape and seconds per phase); like
    the wall time, it is left out of :meth:`to_json_dict`."""

    size: tuple
    node_count: int
    pair_count: int
    checks: list = field(default_factory=list)
    elapsed_seconds: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        # wall time and stats are excluded: serialized reports are deterministic
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
    """Collects the first counterexample per check id, in the order the
    checks are recorded: node order in the ``formulas`` suite, and in the
    pair suites M by finite label set, then node order (see
    :func:`verify_codimension_monotonicity` and :func:`_closure_rows`)."""

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
    deterministically ordered.  A dimension above 10**``MAX_DIGITS``, the
    bound of structure notation, raises
    :class:`EnumerationLimitExceededError` before any work.

    A shape is a left-block count ``num_left`` (at least m - n, so that
    ``num_right = num_left + n - m`` is never negative), a right content and
    a left content; its structures are one product of its padded right
    partitions, its padded left partitions and the regular parts of the
    remaining size.  The regular parts of each size 0..min(m, n) are
    listed once per call.
    """
    if m < 1 or n < 1:
        raise InvalidSizeError(f"need m, n >= 1, got ({m}, {n})")
    if max(m, n) > 10 ** MAX_DIGITS:
        raise EnumerationLimitExceededError(
            f"pencil of size {m}x{n} (at most 10^{MAX_DIGITS} per dimension allowed)")
    if pool_size is None:
        pool_size = min(m, n)
    if pool_size < 0:
        raise InvalidSizeError(f"pool_size must be >= 0, got {pool_size}")
    regular = [_regular_parts(total, pool_size, include_infinity)
               for total in range(min(m, n) + 1)]
    out = []
    for num_left in range(max(0, m - n), m + 1):
        num_right = num_left + n - m
        budget = m - num_left  # total content: jordan sizes + singular sizes
        for c_right in range(budget + 1):
            for c_left in range(budget - c_right + 1):
                shape = product(_padded_partitions(c_right, num_right),
                                _padded_partitions(c_left, num_left),
                                regular[budget - c_right - c_left])
                out.extend(KroneckerStructure(jordan, right, left) for right, left, jordan in shape)
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


def _matchings(node, targets: tuple, base: int) -> list:
    """The label matchings of the invariant record ``node`` against the
    sorted finite codes ``targets``, as records in key order.

    Each is an injective partial map from the node's finite codes into
    ``targets``, with the rest sent, in code order, to the fresh ids
    ``base, base + 1, ...``, which must lie above every target; infinity
    stays put.  Maps giving the same key are one matching.  A key is fixed
    by the block sizes each target receives and the sequence of sizes sent
    to fresh ids, so the finite labels are placed one at a time and equal
    partial placements are merged, never listing a map twice.  Each
    matching is ``node`` with its key and its Weyr codes renamed; the other
    invariants do not depend on the labels.
    """
    jordan, right, left = node.key
    runs = [(c, tuple([s for _, s in run])) for c, run in groupby(jordan, key=itemgetter(0))]
    weyr_of = {sizes: seq for (_, sizes), (_, seq) in zip(runs, node.weyr)}
    infinite = [(c, sizes) for c, sizes in runs if c == _INF]
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
        matched = [(c, sizes) for c, sizes in zip(targets, placed) if sizes is not None]
        blocks = matched + list(zip(count(base), fresh)) + infinite
        jordan = tuple([(c, s) for c, sizes in blocks for s in sizes])
        out.append(_Invariants((jordan, right, left), node.size, node.rank, node.r, node.l,
                               tuple([(c, weyr_of[sizes]) for c, sizes in blocks]), node.codim))
    out.sort(key=itemgetter(0))
    return out


def label_matchings(K: KroneckerStructure, target_labels) -> list:
    """Relabelings of ``K`` realizing every eigenvalue-coincidence pattern
    against ``target_labels``.

    Each finite label of ``K`` is either matched injectively to one of
    the target labels or kept disjoint from all of them; unmatched labels
    are renamed to the fresh sequence of :func:`rules._fresh_reservoir`
    above the targets and the labels of ``K``, one representative per
    pattern.  The infinity label always matches itself.  Deduplicated, in
    :func:`structure_sort_key` order.  The verifier runs the same matcher
    on label codes, with the fresh sequence on the rule search's reservoir,
    and never builds these structures; here they are decoded.
    """
    target_labels = list(target_labels)
    targets = tuple(sorted({lbl.sort_key() for lbl in target_labels if not lbl.is_infinite}))
    base = rules._fresh_reservoir(1, [eigenvalues(K), target_labels])[0].sort_key()
    return [structure_from_key(L.key) for L in _matchings(K._invariants(), targets, base)]


def _matching_count(runs: tuple, targets: int) -> int:
    """``len(_matchings(...))`` against ``targets`` codes for a node whose
    finite labels have the Weyr sequences ``runs``, in code order, with no
    key built: the placement-merge states of :func:`_matchings`, each
    keeping the sorted sequences placed, and each counting the distinct
    arrangements of those sequences on the targets.  A label's Weyr
    sequence fixes its Jordan partition, and the sequences are only
    compared for equality, so they stand in for the run sizes that
    :func:`_matchings` merges on.
    """
    states = {((), ())}  # (sorted values on targets, values per fresh id)
    for sizes in runs:
        states = {state for placed, fresh in states
                  for state in ((placed, fresh + (sizes,)), (tuple(sorted(placed + (sizes,))), fresh))
                  if len(state[0]) <= targets}
    total = 0
    for placed, _ in states:
        ways = perm(targets, len(placed))
        for _, group in groupby(placed):
            ways //= factorial(len(list(group)))
        total += ways
    return total


def _pair_budget(records, max_pairs) -> int:
    """The number of pairs the pair suites check, exactly; fail fast when
    over budget.  Each node M checks the matchings of every node against
    its finite labels, and their number depends only on the matched node's
    finite Weyr sequences and the count of those labels, so it is counted
    once per (Weyr sequences, label count).  Each suite calls it once, at
    its top, before any pair is built.
    """
    runs = Counter(tuple([seq for mu, seq in node.weyr if mu != _INF]) for node in records)
    rows = Counter(len(node_runs) for node_runs in runs.elements())
    total = 0
    for targets, row_count in sorted(rows.items()):
        for node_runs, node_count in runs.items():
            total += row_count * node_count * _matching_count(node_runs, targets)
            if total > max_pairs:
                raise EnumerationLimitExceededError(
                    f"pair budget {max_pairs} exceeded ({len(records)} nodes)"
                )
    return total


def _label_sets(records) -> dict:
    """The node indices of each finite label set, keyed by its label codes:
    each set in node order, the sets in the order of their first node."""
    sets = {}
    for j, node in enumerate(records):
        sets.setdefault(tuple([mu for mu, _ in node.weyr if mu != _INF]), []).append(j)
    return sets


def _closure_rows(nodes, base):
    """(targets, group, sources, related) for every finite label set of
    :func:`_label_sets`: the rows of the ``rules`` suite, and of the
    tests' oracle for the ``dim`` suite, which itself decides node pairs
    first and builds no rows.  The caller guards the pair count
    (:func:`_pair_budget`).

    ``targets`` are the set's finite label codes and ``group`` its nodes,
    in node order.  ``sources`` are the label matchings of every node
    against ``targets``, unmatched labels sent to ``base, base + 1, ...``,
    in node order: each node's carried invariant record with its codes
    renamed by :func:`_matchings`, never built as a structure.  Bit k of
    ``related[s]`` is ``degenerates_to`` of source k and ``group[s]``.  The
    sources depend only on the finite labels (infinity always matches
    itself), so each set is matched once, one :func:`_matchings` call per
    node, and decided by one :func:`closure_records` batch.  The sets are
    built lazily, one per step of the generator, and the generator lets go
    of a set's sources before building the next; a caller that drops its
    rows before the next step keeps one set alive at a time.
    """
    records = [M._invariants() for M in nodes]
    for targets, group in _label_sets(records).items():
        sources = [L for node in records for L in _matchings(node, targets, base)]
        related = closure_records(sources, [records[j] for j in group])
        yield targets, [nodes[j] for j in group], sources, related
        del sources, related


def verify_codimension_monotonicity(
    m: int,
    n: int,
    pool_size: int | None = None,
    include_infinity: bool = True,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> VerificationReport:
    """Closure inclusion implies codim(L) <= codim(M), equality iff same orbit.

    Runs over every ordered same-size pair of enumerated structures in a
    shared label space: each node M against every label matching of every
    node L onto M's finite labels.  Also checks the converse refinement:
    equality of codimensions within a closure relation forces h = 0 and
    equality in all three majorizations.

    A related pair with codim(L) < codim(M) and a key other than M's
    passes every check, and only M's own matching has M's key.  So node
    pairs are decided first, with no matching built: the candidates for M
    are the nodes L != M with codim(L) >= codim(M) whose node part holds
    against M (:func:`closure._node_part`) and some matching of whose
    labels does (:class:`closure._LabelItems`), and M itself.  Only they
    are expanded into their matchings, and the checks run on each matching
    that :func:`closure._in_closure` relates to M and whose codimension is
    at least M's or whose key is M's.  That is every pair the checks could
    fail on, since a matching has its node's codimension.

    A counterexample is the first failing pair in this order: M by finite
    label set, the sets in the order of their first node, then M in node
    order, then L in node order, then L's matchings in key order.  It is
    the order of the former loop over every related pair (label set by
    label set, M, then the matchings of every node in node order and key
    order), restricted to the checked pairs, so the first counterexample
    and the ``violations`` counts are the same.

    ``pair_count`` is the number of label-matched pairs, counted by the
    pair guard without building any.  ``stats`` holds
    ``candidate_pairs``, the node pairs given to the label step;
    ``label_rejections``, those with a must label that no label of M
    lies above; ``assignment_searches``, the rest; ``checked_pairs``, the
    pairs whose checks ran; ``label_sets``; and ``seconds``, the
    ``time.perf_counter`` totals of the node batch, the label batch, the
    label step of the candidates and the checks.
    """
    start = time.monotonic()
    nodes = enumerate_structures(m, n, pool_size, include_infinity)
    records = [M._invariants() for M in nodes]
    pair_count = _pair_budget(records, max_pairs)
    base = rules._fresh_reservoir(1, map(eigenvalues, nodes))[0].sort_key()
    tracker = _Tracker()
    t0 = time.perf_counter()
    node_part = _node_part(records)
    t1 = time.perf_counter()
    labels = _LabelItems(records)
    t2 = time.perf_counter()
    seconds = {"node_batch": t1 - t0, "label_batch": t2 - t1, "assignment": 0.0, "checks": 0.0}
    # bit i of at_least[j]: codim of node i >= codim of node j
    codims = [[-rec.codim for rec in records]]
    at_least = _dominated(codims, codims, len(nodes), len(nodes))
    groups = _label_sets(records)
    candidate_pairs = checked_pairs = 0
    for targets, group in groups.items():
        for j in group:
            t0 = time.perf_counter()
            M, target = nodes[j], records[j]
            candidates = node_part[j] & at_least[j] & ~(1 << j)
            candidate_pairs += candidates.bit_count()
            expand = [i for i in set_bits(candidates) if labels.admits(i, j)]
            insort(expand, j)
            t1 = time.perf_counter()
            cm = target.codim
            for i in expand:
                for L in _matchings(records[i], targets, base):
                    cl = L.codim
                    if not ((cl >= cm or L.key == target.key) and _in_closure(L, target)):
                        continue
                    checked_pairs += 1

                    def info():
                        return {"L": str(structure_from_key(L.key)), "M": str(M), "codim_L": cl,
                                "codim_M": cm, "h": L.rank - target.rank}

                    tracker.record("codim_monotone", cl <= cm, info)
                    # same orbit: equal blocks, labels compared as concrete identities
                    tracker.record("codim_equality_iff_same_orbit",
                                   (cl == cm) == (L.key == target.key), info)
                    if cl == cm:
                        h, conditions = _conditions(L, target)
                        ok = h == 0 and all(lower == upper for _, lower, upper in conditions)
                        tracker.record("equality_forces_equal_majorizations", ok, info)
            seconds["assignment"] += t1 - t0
            seconds["checks"] += time.perf_counter() - t1
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
        stats={"candidate_pairs": candidate_pairs, "label_rejections": labels.rejections,
               "assignment_searches": labels.searches, "checked_pairs": checked_pairs,
               "label_sets": len(groups), "seconds": seconds},
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

    A source M searches over its eigenvalues plus a fresh-label reservoir
    of min(m, n) labels above every enumerated label (and the infinity
    label), so the sources sharing M's finite labels share one search
    universe, at most min(m, n) + 1 of them.  The pair guard runs first.
    The suite then runs one universe at a time, from the rows of
    :func:`_closure_rows`, in the order of :func:`_label_sets`: one
    :meth:`rules.RuleGraph.sweep` with all of its sources as roots, where
    nodes pop by decreasing codimension and carry the bitset of the
    sources that reach them, and the sweep never consults majorizations.
    No source uses a reservoir label, so the reservoir labels are
    interchangeable and the sweep keeps nodes up to their permutations.
    The matcher sends unmatched labels onto the reservoir, so every
    re-embedded target L lies in M's universe; its canonical key, from the
    graph's :func:`rules._canonical`, is looked up among the bitsets the
    sweep kept, and the bit of M is compared with ``degenerates_to(L, M)``,
    read from the universe's :func:`closure_records` batch.  The graph,
    its bitsets and the rows are dropped before the next universe's rows
    are built.  ``max_expansions`` bounds each sweep.

    A counterexample is the first disagreeing pair in universe order.  Its
    ``search`` gives ``visited``, the number of target classes (targets up
    to reservoir relabelling) that M reaches, and ``expansions``, the
    classes its universe's sweep expanded.  ``stats`` holds, per universe:
    the finite label count, the sources, and the sweep's expansions and
    moves.
    """
    start = time.monotonic()
    nodes = enumerate_structures(m, n, pool_size, include_infinity)
    pair_count = _pair_budget([M._invariants() for M in nodes], max_pairs)
    reservoir = rules._fresh_reservoir(min(m, n), map(eigenvalues, nodes))
    search_labels = tuple(reservoir) + ((INFINITY,) if include_infinity else ())
    universes = []
    tracker = _Tracker()
    for targets, group, sources, related in _closure_rows(nodes, reservoir[0].sort_key()):
        graph = rules.RuleGraph(tuple(map(_label, targets)) + search_labels, max_expansions,
                                reservoir, canonical=True)
        canon = [rules._canonical(L.key, graph._reservoir) for L in sources]
        reached = graph.sweep([M._invariants().key for M in group], set(canon))
        # bit k of entry s: does source s reach target k
        reach = _transpose([reached.get(key, 0) for key in canon], len(group))
        universes.append({"finite_labels": len(targets), "sources": len(group),
                          "expansions": graph.expansions, "moves": graph.moves})
        for s, (M, bits) in enumerate(zip(group, related)):
            for k in set_bits(reach[s] ^ bits):  # only the pairs where the routes disagree
                L = sources[k]
                via_rules = bool(reach[s] >> k & 1)
                via_majorization = not via_rules

                def info():
                    structure = structure_from_key(L.key)
                    report = majorization_report(structure, M)
                    return {
                        "L": str(structure),
                        "M": str(M),
                        "majorization": via_majorization,
                        "rule_reachable": via_rules,
                        "partial_sums": report["conditions"],
                        "search": {"visited": sum(row >> s & 1 for row in reached.values()),
                                   "expansions": graph.expansions},
                    }

                tracker.record("majorization_matches_reachability", False, info)
        del graph, canon, reached, reach, sources, related  # one universe alive at a time
    checks = tracker.results(["majorization_matches_reachability"])
    return VerificationReport(
        size=(m, n),
        node_count=len(nodes),
        pair_count=pair_count,
        checks=checks,
        elapsed_seconds=time.monotonic() - start,
        stats={"universes": universes},
    )


def verify_formula_identities(
    m: int,
    n: int,
    pool_size: int | None = None,
    include_infinity: bool = True,
    seed_base: int = 0,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> VerificationReport:
    """Structural identities and the tangent-space oracle, per structure.

    Checks, for every enumerated structure: the rank identity
    m - l_0 = n - r_0 = rank; the two size identities of the Weyr data;
    agreement of the codimension formula with the tangent corank of a
    realized pencil; and invariance of that corank and the normal rank
    under ``FORMULA_SEEDS`` random strict equivalences, seeded
    ``seed_base, seed_base + 1, ...``.

    Each structure is realized once, as a ``RationalPencil``; its
    integer rows are then moved, and both ranks taken, as plain int rows
    (``pencils._equivalent``, ``_tangent_rank`` and ``_normal_rank``).

    ``stats`` holds the tangent rank calls, and per pair of shapes how
    many took the rank of a remainder of the second shape in place of a
    full derivative of the first; the normal rank calls, and in
    ``normal_rank_points`` the points they evaluated (sampling stops at
    the first point of rank min(m, n)); and ``seconds``, the
    ``time.perf_counter`` totals of realize (with the integer rows),
    equivalence, tangent rank and normal rank.
    """
    start = time.monotonic()
    nodes = enumerate_structures(m, n, pool_size, include_infinity)
    pair_count = len(nodes) * (FORMULA_SEEDS + 1)
    if pair_count > max_pairs:
        raise EnumerationLimitExceededError(
            f"formula-identity budget {max_pairs} exceeded ({len(nodes)} nodes)"
        )
    tracker = _Tracker()
    seconds = dict.fromkeys(("realize", "equivalence", "tangent_rank", "normal_rank"), 0.0)
    shapes = Counter()  # (full derivative shape, remainder shape) per tangent rank
    normal_points = []  # the points each normal rank evaluated

    def timed(phase, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        seconds[phase] += time.perf_counter() - t0
        return out

    def tangent_codim(mm, nn, a, b):
        rank, remainder = timed("tangent_rank", pencils._tangent_rank, mm, nn, a, b)
        shapes[(2 * mm * nn, mm ** 2 + nn ** 2), remainder] += 1
        return 2 * mm * nn - rank

    def normal(mm, nn, a, b):
        rank, points = timed("normal_rank", pencils._normal_rank, mm, nn, a, b)
        normal_points.append(points)
        return rank

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
        a, b, _ = timed("realize", lambda: realize(K)._integers)
        oracle = tangent_codim(mm, nn, a, b)
        tracker.record(
            "codim_matches_tangent_corank",
            codimension(K) == oracle,
            {**info, "tangent_codim": oracle},
        )
        for seed in range(seed_base, seed_base + FORMULA_SEEDS):
            moved = timed("equivalence", pencils._equivalent, mm, nn, a, b, seed)
            tracker.record(
                "codim_invariant_under_equivalence",
                tangent_codim(mm, nn, *moved) == codimension(K)
                and normal(mm, nn, *moved) == rank_of(K),
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
        pair_count=pair_count,
        checks=checks,
        elapsed_seconds=time.monotonic() - start,
        stats={
            "tangent_calls": sum(shapes.values()),
            "tangent_shapes": [{"full": full, "remainder": remainder, "calls": calls}
                               for (full, remainder), calls in sorted(shapes.items())],
            "normal_rank_calls": len(normal_points),
            "normal_rank_points": sum(normal_points),
            "seconds": seconds,
        },
    )
