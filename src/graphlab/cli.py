"""Command line interface.

Subcommands:

* gamma         build Gamma_k; emit json, dot, or the distance matrix as csv
* divisor-graph build the divisor graph of n; same emit choices
* indices       compute topological indices exactly (json or table)
* verify        check every closed form against edge enumeration and the index engine
* claims        evaluate the bundled claim registry (json or markdown)

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 claim
mismatch under --strict.  The exports and verify list every edge, so they
refuse a graph above graphs._MAX_LISTED_EDGES edges before listing any.
Output for identical invocations is byte identical: no timestamps,
canonical orderings throughout.  JSON text is the bytes of
json.dumps(doc, indent=2) plus a newline, written by exact.json_text for
every report (index reports through indices.report_text), with each exact
value written by exact.value_text.  The graph exports are streams of row
texts (DivisorGraph.json_rows and dot_rows, metric.csv_rows), written to
stdout with writelines as they are made, so no whole document is held.  The
claims and formulas modules are imported by the subcommands that use them,
so the other subcommands start without them.  main hands argv[1:] to the
parser of the subcommand argv[0] names (parse_known_args), which is all the
top-level parser would do with it; with no subcommand, --help, an unknown
name or arguments left over it falls back to the full parser, so every usage
error keeps argparse's message and exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import indices, metric
from .exact import _int_from_str, format_value, to_decimal
from .graphs import build_gamma, build_general, require_edge_budget


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(_int_from_str, text.split(",")))
    except ValueError:
        raise ValueError(f"--primes expects comma-separated integers, got {text!r}")


def _emit_graph(g, emit: str) -> int:
    require_edge_budget(g.size())
    if emit == "json":
        rows = g.json_rows()
    elif emit == "dot":
        rows = g.dot_rows()
    elif emit == "csv":
        rows = metric.csv_rows(g)
    else:
        raise ValueError(f"unknown emit format {emit!r}")
    sys.stdout.writelines(rows)
    return 0


def cmd_gamma(args: argparse.Namespace) -> int:
    basis = _parse_primes(args.primes) if args.primes is not None else None
    return _emit_graph(build_gamma(args.k, basis), args.emit)


def cmd_divisor_graph(args: argparse.Namespace) -> int:
    return _emit_graph(build_general(args.n), args.emit)


def _indices_table(values: dict) -> str:
    rows = [(name, format_value(v), to_decimal(v, 6)) for name, v in values.items()]
    w_name = max(len("index"), max(len(r[0]) for r in rows))
    w_exact = max(len("exact"), max(len(r[1]) for r in rows))
    lines = [f"{'index'.ljust(w_name)}  {'exact'.ljust(w_exact)}  approx"]
    for name, exact, approx in rows:
        lines.append(f"{name.ljust(w_name)}  {exact.ljust(w_exact)}  {approx}")
    return "\n".join(lines) + "\n"


def cmd_indices(args: argparse.Namespace) -> int:
    if args.k is not None:
        basis = _parse_primes(args.primes) if args.primes is not None else None
        g = build_gamma(args.k, basis)
    else:
        if args.primes is not None:
            raise ValueError("--primes applies only to --k")
        g = build_general(args.n)
    names = None if args.index == "all" else [s.strip() for s in args.index.split(",")]
    values = indices.compute_indices(g, names)
    if args.format == "json":
        sys.stdout.write(indices.report_text(g, values))
    else:
        sys.stdout.write(_indices_table(values))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import formulas

    lines, ok = formulas.verification_lines(args.k_min, args.k_max)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_claims(args: argparse.Namespace) -> int:
    from . import claims as claims_mod

    reports = claims_mod.run_all(args.k)
    sys.stdout.write(claims_mod.render_report(reports, args.format))
    if args.strict and any(r.verdict == claims_mod.MISMATCH for r in reports):
        return 3
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    main() call in the process (parse_args leaves it unchanged); its
    subcommands attribute maps each subcommand to its own parser."""
    parser = argparse.ArgumentParser(
        prog="graphlab",
        description="Exact divisor-function graphs and topological indices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="build the k-dprime divisor function graph")
    p.add_argument("--k", type=int, required=True, help="number of distinct primes")
    p.add_argument("--primes", help="comma-separated primes realizing the graph")
    p.add_argument("--emit", choices=("json", "dot", "csv"), default="json",
                   help="csv emits the distance matrix")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("divisor-graph", help="build the divisor graph of n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", choices=("json", "dot", "csv"), default="json",
                   help="csv emits the distance matrix")
    p.set_defaults(func=cmd_divisor_graph)

    p = sub.add_parser("indices", help="compute topological indices exactly")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--k", type=int, help="compute on Gamma_k")
    target.add_argument("--n", type=int, help="compute on the divisor graph of n")
    p.add_argument("--primes", help="comma-separated primes (with --k only)")
    p.add_argument("--index", default="all",
                   help="comma-separated index names, or 'all'")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=cmd_indices)

    p = sub.add_parser("verify", help="check closed forms against the oracle")
    p.add_argument("--k-min", type=int, default=0)
    p.add_argument("--k-max", type=int, default=10)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("claims", help="evaluate the bundled claim registry")
    p.add_argument("--k", type=int, choices=(3, 4, 5), default=None,
                   help="restrict to one graph")
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if any evaluated claim mismatches")
    p.set_defaults(func=cmd_claims)

    for p in sub.choices.values():  # type=int reads integers of any length
        p.register("type", int, _int_from_str)
    parser.subcommands = sub.choices
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), read by the subcommand's own parser
    when argv[0] names one and it leaves no argument over: the top-level
    parser would hand it argv[1:] and add only the command.  Anything else
    (no subcommand, --help, an unknown name, stray arguments) goes to the
    full parser, so every usage error keeps its message and exit code 2."""
    parser = build_parser()
    command = parser.subcommands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
