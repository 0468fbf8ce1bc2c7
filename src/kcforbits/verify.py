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
from dataclasses import dataclass, field
from itertools import combinations, permutations

from . import rules
from .closure import (
    closure_bitsets,
    majorization_conditions,
    majorization_report,
    same_orbit,
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
    relabel,
    size_of,
    structure_sort_key,
    weyr_jordan,
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


def label_matchings(K: KroneckerStructure, target_labels) -> list:
    """Relabelings of ``K`` realizing every eigenvalue-coincidence pattern
    against ``target_labels``.

    Each finite label of ``K`` is either matched injectively to one of
    the target labels or kept disjoint from all of them; unmatched labels
    are renamed to a fixed fresh sequence above the targets, one
    representative per pattern.  The infinity label always matches
    itself.  Deduplicated, deterministic order.
    """
    src = [lbl for lbl in eigenvalues(K) if not lbl.is_infinite]
    tgt = sorted({lbl for lbl in target_labels if not lbl.is_infinite},
                 key=lambda l: l.sort_key())
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
    return sorted(results, key=structure_sort_key)


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
    finite_counts = [sum(1 for lbl in eigenvalues(K) if not lbl.is_infinite) for K in nodes]
    total = 0
    for cl in finite_counts:
        for cm in finite_counts:
            total += _matchings_count(cl, cm)
            if total > max_pairs:
                raise EnumerationLimitExceededError(
                    f"pair budget {max_pairs} exceeded ({len(nodes)} nodes)"
                )
    return total


def _closure_rows(nodes, max_pairs):
    """(M, sources, related) for every node M, in node order.

    ``sources`` are the ``label_matchings`` of every node against M's
    eigenvalue set, in node order; bit k of ``related`` is
    ``degenerates_to(sources[k], M)``.  Both depend only on that set, so
    each set is matched once and decided by one :func:`closure_bitsets`
    batch over all of its nodes.
    """
    _pair_budget(nodes, max_pairs)
    groups = {}
    for M in nodes:
        groups.setdefault(eigenvalues(M), []).append(M)
    matched = {}
    related = {}
    for M in nodes:
        m_labels = eigenvalues(M)
        if m_labels not in matched:
            matched[m_labels] = [L for L0 in nodes for L in label_matchings(L0, m_labels)]
            related.update(zip(groups[m_labels],
                               closure_bitsets(matched[m_labels], groups[m_labels])))
        yield M, matched[m_labels], related[M]


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
    tracker = _Tracker()
    pair_count = 0
    for M, sources, related in _closure_rows(nodes, max_pairs):
        pair_count += len(sources)
        for k in set_bits(related):
            L = sources[k]
            cl, cm = codimension(L), codimension(M)

            def info():
                return {"L": str(L), "M": str(M), "codim_L": cl, "codim_M": cm,
                        "h": rank_of(L) - rank_of(M)}

            tracker.record("codim_monotone", cl <= cm, info)
            tracker.record("codim_equality_iff_same_orbit",
                           (cl == cm) == same_orbit(L, M), info)
            if cl == cm:
                ok = rank_of(L) == rank_of(M) and all(
                    lower == upper for _, lower, upper in majorization_conditions(L, M)
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
    :func:`closure_bitsets` batch per eigenvalue set.  The targets and
    their graph indices are computed once per eigenvalue set.
    """
    start = time.monotonic()
    nodes = enumerate_structures(m, n, pool_size, include_infinity)
    # label_matchings re-embeds unmatched labels right above the targets,
    # so the reservoir must start there too
    reservoir = rules._fresh_reservoir(min(m, n), map(eigenvalues, nodes))
    search_labels = tuple(reservoir) + ((INFINITY,) if include_infinity else ())
    graphs, indexed = {}, {}
    tracker = _Tracker()
    pair_count = 0
    for M, sources, related in _closure_rows(nodes, max_pairs):
        m_labels = eigenvalues(M)
        universe = dict.fromkeys(m_labels + search_labels)
        key = frozenset(universe)
        if key not in graphs:
            graphs[key] = rules.RuleGraph(universe, max_expansions)
        graph = graphs[key]
        reached = graph.descendants(M)
        if m_labels not in indexed:
            shared = set(m_labels)
            indexed[m_labels] = [graph.node(L, _embed_fresh(L, shared, reservoir))
                                 for L in sources]
        pair_count += len(sources)
        for k, (L, idx) in enumerate(zip(sources, indexed[m_labels])):
            via_rules = bool(reached >> idx & 1)
            via_majorization = bool(related >> k & 1)

            def info():
                report = majorization_report(L, M)
                return {
                    "L": str(L),
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


def _embed_fresh(L, shared, reservoir) -> dict:
    """Renaming of the non-shared finite labels of ``L`` onto the reservoir."""
    extras = [lbl for lbl in eigenvalues(L) if not lbl.is_infinite and lbl not in shared]
    return dict(zip(extras, reservoir))


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
