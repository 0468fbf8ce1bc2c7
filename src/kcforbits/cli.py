"""Command-line front end.

Exit codes: 0 success or affirmative answer, 2 verification failure,
oracle mismatch or violated internal invariant, 3 negative answer to a
yes/no query, 64 usage errors, 65 structure-notation errors, 70 guard
limits exceeded.  A reader that closes the pipe early (``kcf graph 6 6
--json | head -1``) ends the command quietly with 0: the rest of the
output is dropped.  One budget, 10^7 by default and overridden with the
``KCF_MAX_PAIRS`` environment variable, bounds the pair checks and rule
expansions of ``verify``, the rule expansions of ``path``, the node
pairs of ``graph`` and the matrix cells that ``realize`` and
``tangent-codim`` would allocate.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from .closure import build_closure_graph, majorization_report
from .core import codimension, orbit_dimension, size_from_blocks
from .errors import (
    EnumerationLimitExceededError,
    InvariantViolationError,
    KcfError,
    NotationError,
    NotationLimitExceededError,
    SearchBudgetExceededError,
)
from .notation import parse_eigenvalue, parse_structure, structure_to_json_dict
from .pencils import realize, tangent_codimension
from .rules import describe_instance, reachable
from .verify import (
    DEFAULT_MAX_PAIRS,
    cross_validate_characterizations,
    enumerate_structures,
    verify_codimension_monotonicity,
    verify_formula_identities,
)

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_NO = 3
EXIT_USAGE = 64
EXIT_NOTATION = 65
EXIT_GUARD = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _json_key(key):
    if isinstance(key, str):
        return _json_str(key)
    if key is None or isinstance(key, (int, float)):
        return _json_str(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json_text(value, indent):
    """``json.dumps(value, indent=2)`` for a value nested at ``indent``."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = [_json_str(v) if type(v) is str else
                 int.__repr__(v) if type(v) is int else _json_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [(_json_str(k) if type(k) is str else _json_key(k)) + ": " +
                 (_json_str(v) if type(v) is str else
                  int.__repr__(v) if type(v) is int else _json_text(v, inner))
                 for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    return json.dumps(value)


def _print_json(payload):
    """Print ``payload`` byte-identical to ``json.dumps(payload, indent=2)``.

    Strings go through json's C encoder and ints through ``int.__repr__``;
    every other scalar (bool, None, float, and subclasses of str and int)
    goes through ``json.dumps``, which also raises the TypeError for a type
    json cannot encode.
    """
    print(_json_text(payload, ""))


def _max_pairs():
    raw = os.environ.get("KCF_MAX_PAIRS")
    if not raw:
        return DEFAULT_MAX_PAIRS
    try:
        value = int(raw)
        if value < 0:
            raise ValueError(raw)
    except ValueError:
        raise _UsageError(f"KCF_MAX_PAIRS must be a non-negative integer, got {raw!r}") from None
    return value


def _check_cells(cells, what):
    """Refuse before allocating a matrix of more cells than the budget."""
    max_pairs = _max_pairs()
    if cells > max_pairs:
        raise EnumerationLimitExceededError(
            f"cell budget {max_pairs} exceeded ({what} needs {cells} cells)"
        )


def cmd_codim(args):
    K = parse_structure(args.structure)
    print(f"codim={codimension(K)} dim={orbit_dimension(K)}")
    return EXIT_OK


def cmd_closure(args):
    L = parse_structure(args.L)
    M = parse_structure(args.M)
    report = majorization_report(L, M)
    print(f"L = {report['L']}")
    print(f"M = {report['M']}")
    print(f"h = rank(L) - rank(M) = {report['h']}")
    if report["h"] < 0:
        print("rank cannot increase under degeneration")
    for cond in report["conditions"]:
        sums = "; ".join(
            f"j={row['j']}: {row['lhs']} <= {row['rhs']}" + ("" if row["ok"] else " FAILS")
            for row in cond["partial_sums"]
        )
        verdict = "ok" if cond["ok"] else "fails"
        print(f"{cond['condition']}: lower={cond['lower']} upper={cond['upper']} "
              f"shift={cond['shift']} -> {verdict}" + (f" ({sums})" if sums else ""))
    yes = report["in_closure"]
    print(f"M in closure(O(L)): {'yes' if yes else 'no'}")
    return EXIT_OK if yes else EXIT_NO


def cmd_path(args):
    M = parse_structure(args.M)
    L = parse_structure(args.L)
    path = reachable(M, L, prune=not args.no_prune, max_expansions=_max_pairs())
    if path is None:
        if args.json:
            _print_json({"reachable": False, "path": None})
        else:
            print("unreachable")
        return EXIT_NO
    if args.json:
        _print_json({"reachable": True, "path": [inst.to_json_dict() for inst in path]})
    else:
        print(f"{len(path)} step(s) from {M} to {L}")
        for i, inst in enumerate(path, start=1):
            print(f"  {i}. {describe_instance(inst)}")
    return EXIT_OK


def cmd_enumerate(args):
    nodes = enumerate_structures(args.m, args.n, args.pool,
                                 include_infinity=not args.no_infinity)
    if args.json:
        _print_json([
            {
                "structure": structure_to_json_dict(K),
                "notation": str(K),
                "codim": codimension(K),
                "dim": orbit_dimension(K),
            }
            for K in nodes
        ])
    else:
        for K in nodes:
            print(f"{K}  codim={codimension(K)} dim={orbit_dimension(K)}")
        print(f"total: {len(nodes)}")
    return EXIT_OK


def cmd_graph(args):
    max_pairs = _max_pairs()
    nodes = enumerate_structures(args.m, args.n, args.pool,
                                 include_infinity=not args.no_infinity)
    if len(nodes) ** 2 > max_pairs:
        raise EnumerationLimitExceededError(
            f"pair budget {max_pairs} exceeded ({len(nodes)} nodes)"
        )
    graph = build_closure_graph(nodes)
    if args.dot:
        print(graph.to_dot(), end="")
    elif args.json:
        _print_json(graph.to_json_dict())
    else:
        for i, node in enumerate(graph.nodes):
            print(f"[{i}] {node}  codim={graph.codimensions[i]}")
        for i, j in graph.edges:
            print(f"{graph.nodes[i]}  ->  {graph.nodes[j]}")
    return EXIT_OK


_SUITES = {
    "dim": verify_codimension_monotonicity,
    "rules": cross_validate_characterizations,
    "formulas": verify_formula_identities,
}


def cmd_verify(args):
    wanted = list(dict.fromkeys(name.strip() for name in args.checks.split(",") if name.strip()))
    unknown = [name for name in wanted if name not in _SUITES]
    if unknown or not wanted:
        problem = f"unknown checks: {', '.join(unknown)}" if unknown else "no checks selected"
        raise _UsageError(f"{problem} (choose from dim, rules, formulas)")
    max_pairs = _max_pairs()
    reports = {}
    for name in wanted:
        kwargs = {
            "pool_size": args.pool,
            "include_infinity": not args.no_infinity,
            "max_pairs": max_pairs,
        }
        if name == "formulas":
            kwargs["seed_base"] = args.seed
        elif name == "rules":
            kwargs["max_expansions"] = max_pairs
        reports[name] = _SUITES[name](args.m, args.n, **kwargs)
    all_passed = all(report.passed for report in reports.values())
    if args.json:
        _print_json({
            "all_passed": all_passed,
            "reports": {name: report.to_json_dict() for name, report in reports.items()},
        })
    else:
        for name, report in reports.items():
            print(f"suite {name}")
            print(report.summary_text())
        print("all checks passed" if all_passed else "violations found")
    return EXIT_OK if all_passed else EXIT_VIOLATION


def _parse_assignment(text):
    assignment = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise _UsageError(f"bad assignment {chunk!r}, expected like e1=5 or e2=7/2")
        name, _, value = chunk.partition("=")
        label = parse_eigenvalue(name.strip())
        if label.is_infinite:
            raise _UsageError("the infinity label takes no assigned value")
        if label in assignment:
            raise _UsageError(f"label {label} is assigned twice")
        try:
            assignment[label] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise _UsageError(f"bad rational {value!r}: {exc}") from None
    return assignment


def cmd_realize(args):
    K = parse_structure(args.structure)
    m, n = size_from_blocks(K.jordan, K.right, K.left)
    _check_cells(2 * m * n, f"a {m}x{n} pencil")
    assignment = _parse_assignment(args.assign) if args.assign else None
    pencil = realize(K, assignment)
    if args.json:
        _print_json(pencil.to_json_dict())
    else:
        print(f"pencil A + lambda*B of size {pencil.m}x{pencil.n}")
        for name, mat in (("A", pencil.a), ("B", pencil.b)):
            print(f"{name}:")
            for row in mat:
                print("  [" + "  ".join(str(x) for x in row) + "]")
    return EXIT_OK


def cmd_tangent_codim(args):
    K = parse_structure(args.structure)
    m, n = size_from_blocks(K.jordan, K.right, K.left)
    _check_cells(2 * m * n * (m * m + n * n), f"the tangent matrix of a {m}x{n} pencil")
    formula = codimension(K)
    oracle = tangent_codimension(realize(K))
    print(f"formula codim = {formula}")
    print(f"tangent codim = {oracle}")
    agree = formula == oracle
    print(f"agreement: {'yes' if agree else 'NO'}")
    return EXIT_OK if agree else EXIT_VIOLATION


def _build_parser():
    parser = _Parser(prog="kcf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codim", help="codimension and orbit dimension of a structure")
    p.add_argument("structure")
    p.set_defaults(func=cmd_codim)

    p = sub.add_parser("closure", help="is M in the closure of the orbit of L?")
    p.add_argument("L")
    p.add_argument("M")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("path", help="rule sequence turning M into L")
    p.add_argument("M")
    p.add_argument("L")
    p.add_argument("--no-prune", action="store_true",
                   help="search without the majorization-based pruning")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("enumerate", help="canonical structures of a given size")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--pool", type=int, default=None,
                   help="finite eigenvalue labels available (default min(m, n))")
    p.add_argument("--no-infinity", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("graph", help="Hasse diagram of the closure order")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--pool", type=int, default=None)
    p.add_argument("--no-infinity", action="store_true")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--dot", action="store_true")
    group.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", help="run the exhaustive verification suites")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--checks", default="dim,rules,formulas")
    p.add_argument("--pool", type=int, default=None)
    p.add_argument("--no-infinity", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("realize", help="exact rational pencil with a given structure")
    p.add_argument("structure")
    p.add_argument("--assign", default=None, help="eigenvalue values, like e1=5,e2=7/2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("tangent-codim",
                       help="tangent-space codimension oracle vs the formula")
    p.add_argument("structure")
    p.set_defaults(func=cmd_tangent_codim)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader is gone: send what is left, and the flush at exit, to devnull
        sys.stdout = open(os.devnull, "w")
        return EXIT_OK
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotationError as exc:
        print(f"notation error: {exc}", file=sys.stderr)
        return EXIT_NOTATION
    except (EnumerationLimitExceededError, NotationLimitExceededError,
            SearchBudgetExceededError) as exc:
        print(f"guard limit: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantViolationError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except KcfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def app():
    sys.exit(main())


if __name__ == "__main__":
    app()
