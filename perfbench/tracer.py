"""Spans around the calls into each kcforbits layer, recorded from outside.

``Tracer.install`` replaces the functions named in ``WRAPPED`` by wrappers
in every ``kcforbits`` module that refers to them, so calls between
layers are recorded as well as calls from the benchmark.  The program's
source is not touched.  Each call leaves one span (name, start, end,
parent) in flat arrays; a layer's self time is its spans' durations minus
the part their child spans cover.  The cheap cached accessors of ``core``
(``size_of``, ``rank_of``, ``weyr_*``, ``eigenvalues``) are not wrapped:
they run millions of times per workload, so their time stays in their
callers' self time.  So does the time of every other function left out
of ``WRAPPED``, which holds only those whose figures ``BENCHMARK.json``
lists: ``structure_to_json_dict``, for one, counts in ``cli.self_s``.
"""

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from functools import wraps

WRAPPED = {
    "core": ("codimension",),
    "closure": ("degenerates_to", "majorization_report", "build_closure_graph"),
    "rules": ("reachable_structures", "reachable", "apply_rule"),
    "pencils": ("realize", "exact_rank", "tangent_codimension", "random_equivalence",
                "normal_rank"),
    "verify": ("enumerate_structures", "label_matchings", "verify_codimension_monotonicity",
               "cross_validate_characterizations", "verify_formula_identities"),
    "notation": ("parse_structure",),
    "cli": ("main",),
}

_SUITES = ("verify.verify_codimension_monotonicity",
           "verify.cross_validate_characterizations",
           "verify.verify_formula_identities")


class Tracer:
    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter(dict.fromkeys((
            "closure.degenerates_to.true", "pencils.exact_rank.cells",
            "rules.reachable_structures.expansions"), 0))
        self.distinct = set()

    def _wrap(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        after = {
            "closure.degenerates_to": self._count_true,
            "pencils.exact_rank": self._count_cells,
            "rules.reachable_structures": self._count_expansions,
        }.get(qualname)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_true(self, args, result):
        self.counts["closure.degenerates_to.true"] += bool(result)

    def _count_cells(self, args, result):
        matrix = args[0]
        self.counts["pencils.exact_rank.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)

    def _count_expansions(self, args, result):
        reached, stats = result
        self.counts["rules.reachable_structures.expansions"] += stats["expansions"]
        self.distinct.update(reached)

    def install(self):
        """Wrap every function in ``WRAPPED`` wherever a kcforbits module
        holds a reference to it, dict values at module level included."""
        by_id = {}
        for module, names in WRAPPED.items():
            mod = importlib.import_module(f"kcforbits.{module}")
            for fname in names:
                fn = getattr(mod, fname)
                by_id[id(fn)] = (fn, self._wrap(f"{module}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "kcforbits" and not modname.startswith("kcforbits."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in by_id and by_id[id(value)][0] is value:
                    setattr(mod, attr, by_id[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in by_id and by_id[id(item)][0] is item:
                            value[key] = by_id[id(item)][1]

    def summary(self) -> dict:
        """Calls and self seconds per wrapped function, plus the counters."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            key = self.names[self.name[i]]
            calls[key] += 1
            self_s[key] += end[i] - start[i] - child[i]
        out = {"trace.spans": n}
        for key in self.names:
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.s"] = self_s[key]
        out.update(self.counts)
        expansions = out["rules.reachable_structures.expansions"]
        out["rules.reachable_structures.expansions_per_distinct"] = (
            expansions / len(self.distinct) if self.distinct else 0.0)
        out["verify.self_s"] = sum(out[f"{key}.s"] for key in _SUITES)
        out["cli.self_s"] = out["cli.main.s"]
        return out

    def write(self, path):
        """Spans as one JSON header line followed by the four raw arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
