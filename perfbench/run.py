"""Benchmark of kcforbits: exhaustive suites, the closure graph, and questions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src``.  Each pass runs in a fresh interpreter (``worker.py``) with a
fixed PYTHONHASHSEED, one process at a time.  Untraced, a run first makes
several set-up-only cold starts, then timed passes until ``--seconds`` have
passed (at least one), and reports each end-to-end metric as the median
over its samples.  Traced, a run makes one plain pass and one traced pass
and reports the per-layer figures of the traced one, with the tracing
overhead as the difference of the two wall times.  Answers are checked
against :mod:`reference` after the timed phases; the last line printed is
the JSON result.
"""

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COLD_STARTS = 7        # set-up-only starts per untraced run, for setup_s
PASS_LIMIT_S = 150     # a pass that takes longer is killed and the run fails
SHOWN_PROBLEMS = 10    # problems printed per failed operation


class PassFailed(Exception):
    pass


def _task(workload, questions):
    """What a worker is given: the commands, the sizes and the questions."""
    return json.dumps({
        "commands": workload.commands,
        "sizes": workload.sizes,
        "questions": [{k: v for k, v in q.items() if k != "ref"} for q in questions],
    })


def _spawn(task, mode, spans_path=""):
    """Run one worker; return (set-up seconds, parsed result or None)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), mode, spans_path]
    begin = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PASS_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        with proc.stdin:
            proc.stdin.write(task)
        ready = proc.stdout.readline()
        setup = time.perf_counter() - begin
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise PassFailed(f"worker {mode} pass exited with {code}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if mode != "setup" else None


def _checked(workload, questions, result):
    """(attempted, failed) operations of one pass, printing the first
    problems of each failed one."""
    ops = ([functools.partial(checks.check_command, argv) for argv in workload.commands]
           + [functools.partial(checks.check_question, q) for q in questions]
           + [checks.check_enumerated])
    failed = 0
    for check, answer in zip(ops, result["answers"] + [result["enumerated"]], strict=True):
        problems = check(answer)
        for problem in problems[:SHOWN_PROBLEMS]:
            print(f"check failed: {problem}", file=sys.stderr)
        if len(problems) > SHOWN_PROBLEMS:
            print(f"check failed: ... {len(problems) - SHOWN_PROBLEMS} more", file=sys.stderr)
        failed += bool(problems)
    return len(ops), failed


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(name, seed, seconds, trace):
    workload = workloads.WORKLOADS[name]
    questions = workloads.questions(workload, seed)
    task = _task(workload, questions)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    results = []
    if trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        results.append(_spawn(task, "run")[1])
        results.append(_spawn(task, "trace", str(out / f"{name}.spans"))[1])
        metrics = dict(results[1]["layers"])
        metrics["trace.overhead_s"] = results[1]["wall_s"] - results[0]["wall_s"]
    else:
        setups = [_spawn(task, "setup")[0] for _ in range(COLD_STARTS)]
        start = time.perf_counter()
        while not results or time.perf_counter() - start < seconds:
            setup, result = _spawn(task, "run")
            setups.append(setup)
            results.append(result)
        lat = [r["latencies"] for r in results]
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in results),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
            "query_p50_ms": 1000 * statistics.median(statistics.median(v) for v in lat),
            "query_p95_ms": 1000 * statistics.median(_percentile(v, 95) for v in lat),
        }
    attempted = failed = 0
    for result in results:
        a, f = _checked(workload, questions, result)
        attempted += a
        failed += f
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kcforbits" / "__init__.py").is_file():
        sys.exit(f"no kcforbits package under {ROOT / 'src'}")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassFailed as exc:
        sys.exit(str(exc))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
