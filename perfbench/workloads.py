"""The benchmark's workloads and the seeded question list of ``queries``.

Stdlib only, and nothing here imports kcforbits: a workload is fixed
input, and the question list is drawn from the benchmark's own
enumeration, so a change to the program cannot change what it is asked.
"""

import random
from dataclasses import dataclass

import reference as R


@dataclass(frozen=True)
class Stratum:
    """``count`` questions of one kind at one pencil size."""

    kind: str
    m: int
    n: int
    count: int
    max_gap: int = 0  # path only: in-closure pairs cycle through gaps 1..max_gap


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple = ()  # kcf argument lists, run through kcforbits.cli.main
    sizes: tuple = ()     # sizes enumerate_structures lists during set-up
    mix: tuple = ()       # Stratum entries of the question list


def _strata(kind, sizes, count, **kw):
    return tuple(Stratum(kind, m, n, count, **kw) for m, n in sizes)


_SMALL = ((4, 4), (4, 5), (5, 5))
_ALL = _SMALL + ((6, 6),)

# In-closure path questions are spread evenly over the codimension gaps
# 1..8 between M and L.  A more distant 5x5 pair can take seconds in the
# pruned search, and 6x6 has no path questions at all.  Even within the
# gaps, one in-closure pair can cost fifty times the median, so these pairs
# are drawn once, the same for every seed: a seeded draw of them made the
# pass time follow the seed more than the program.
# 6x6 tangent questions, at about 35 ms each, are the slowest kind but for
# a few paths.  There are 40 of them so that the 95th latency percentile
# falls inside their cluster, not on its edge with the 20 ms band below,
# where it moved more than the pass time did from seed to seed.
_QUERY_MIX = (
    _strata("codim", _ALL, 50)
    + _strata("closure", _ALL, 40)
    + _strata("tangent", _SMALL, 20)
    + _strata("tangent", ((6, 6),), 40)
    + _strata("path", _SMALL, 40, max_gap=8)
)

WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-rules",
        commands=(("verify", "4", "4", "--checks", "rules", "--json"),
                  ("verify", "4", "5", "--checks", "rules", "--json")),
        sizes=((4, 4), (4, 5)),
    ),
    Workload(
        "verify-formulas",
        commands=(("verify", "4", "4", "--checks", "formulas", "--seed", "0", "--json"),
                  ("verify", "4", "5", "--checks", "formulas", "--seed", "0", "--json")),
        sizes=((4, 4), (4, 5)),
    ),
    Workload(
        "closure-order",
        commands=(("verify", "5", "5", "--checks", "dim", "--json"),
                  ("graph", "6", "6", "--json")),
        sizes=((5, 5), (6, 6)),
    ),
    Workload("queries", sizes=_ALL, mix=_QUERY_MIX),
    # A run of a few seconds for the benchmark's own tests; not in BENCHMARK.json.
    Workload(
        "smoke",
        commands=(("verify", "2", "2", "--json"), ("graph", "3", "3", "--json")),
        sizes=((2, 2), (3, 3)),
        mix=(_strata("codim", ((2, 3),), 4) + _strata("closure", ((3, 3),), 4)
             + _strata("tangent", ((2, 2),), 2) + _strata("path", ((3, 3),), 4, max_gap=2)),
    ),
)}


def random_matching(L0, M, rng):
    """Rename the finite eigenvalues of L0: each either onto a distinct
    finite eigenvalue of M or onto a fresh label."""
    src = [x for x in R.labels(L0) if x != R.INF]
    tgt = [x for x in R.labels(M) if x != R.INF]
    rng.shuffle(tgt)
    fresh = 1 + max([int(x[1:]) for x in src + tgt], default=0)
    mapping = {}
    for x in src:
        if tgt and rng.random() < 0.5:
            mapping[x] = tgt.pop()
        else:
            mapping[x] = f"e{fresh}"
            fresh += 1
    return R.make([(mapping.get(lbl, lbl), s) for lbl, s in L0[0]], L0[1], L0[2])


def questions(workload: Workload, seed: int) -> list:
    """The question list of ``workload`` for ``seed``, in asking order.

    Each question holds the text the program parses and, under ``ref``,
    the structures themselves for checking.  Path strata are half pairs
    with M in the closure of L's orbit, the i-th of them
    ``1 + i % max_gap`` apart in codimension and the same for every seed,
    and half seeded pairs without.
    """
    out = []
    for st in workload.mix:
        seeded = random.Random(f"{seed}:{st.kind}:{st.m}x{st.n}")
        fixed = random.Random(f"fixed:{st.kind}:{st.m}x{st.n}")
        nodes = R.canonical_structures(st.m, st.n)
        for i in range(st.count):
            if st.kind in ("codim", "tangent"):
                K = seeded.choice(nodes)
                out.append({"kind": st.kind, "K": R.to_text(K), "ref": {"K": K}})
                continue
            want = None if st.kind == "closure" else i < st.count // 2
            rng = fixed if want else seeded
            while True:
                M = rng.choice(nodes)
                L = random_matching(rng.choice(nodes), M, rng)
                if want is None or want == R.in_closure(L, M) and (
                        not want or R.codim(M) - R.codim(L) == 1 + i % st.max_gap):
                    break
            out.append({"kind": st.kind, "L": R.to_text(L), "M": R.to_text(M),
                        "ref": {"L": L, "M": M}})
    random.Random(seed).shuffle(out)
    return out
