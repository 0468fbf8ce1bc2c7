"""One pass of one workload in a fresh interpreter.

    python3 worker.py setup|run|trace [spans file] < task.json

The task on standard input holds the kcf commands, the sizes to list and
the questions.  Set-up imports kcforbits, lists the structures of each
size with ``enumerate_structures`` and reads the question list; then the
worker prints ``ready``.  ``setup`` stops there.  ``run`` goes on to the timed
phase: every kcf command through ``kcforbits.cli.main`` with its output
captured, or every question through the library API, one at a time.  The
last line printed is a JSON object with the answers, the latency of each
operation, the timed phase's wall time and the process's peak resident
memory.  ``trace`` does the same with every layer wrapped by
:mod:`tracer`, adds the per-layer figures and writes the spans to the
given file.
"""

import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ask(kf, q):
    kind = q["kind"]
    if kind == "codim":
        K = kf.parse_structure(q["K"])
        return {"codim": kf.codimension(K), "dim": kf.orbit_dimension(K)}
    if kind == "tangent":
        return {"codim": kf.tangent_codimension(kf.realize(kf.parse_structure(q["K"])))}
    L = kf.parse_structure(q["L"])
    M = kf.parse_structure(q["M"])
    if kind == "closure":
        report = kf.majorization_report(L, M)
        return {key: report[key] for key in ("in_closure", "h", "codim_L", "codim_M")}
    path = kf.reachable(M, L)
    return {"path": None if path is None else [step.to_json_dict() for step in path]}


def main(argv):
    mode = argv[0]

    import kcforbits
    import kcforbits.cli

    if not Path(kcforbits.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"kcforbits imported from {kcforbits.__file__}, not from {ROOT / 'src'}")
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    task = json.load(sys.stdin)
    enumerated = {f"{m}x{n}": len(kcforbits.enumerate_structures(m, n))
                  for m, n in task["sizes"]}
    print("ready", flush=True)
    if mode == "setup":
        return

    clock = time.perf_counter
    answers, latencies = [], []
    begin = clock()
    for argv_ in task["commands"]:
        out = io.StringIO()
        t = clock()
        try:
            with redirect_stdout(out):
                code = kcforbits.cli.main(argv_)
            answer = {"code": code, "stdout": out.getvalue()}
        except Exception as exc:  # counted as a failed operation
            answer = {"error": repr(exc)}
        latencies.append(clock() - t)
        answers.append(answer)
    for q in task["questions"]:
        t = clock()
        try:
            answer = _ask(kcforbits, q)
        except Exception as exc:  # counted as a failed operation
            answer = {"error": repr(exc)}
        latencies.append(clock() - t)
        answers.append(answer)
    wall = clock() - begin
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"wall_s": wall, "peak_rss_mb": peak_kb / 1024, "latencies": latencies,
              "answers": answers, "enumerated": enumerated}
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(argv[1])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
