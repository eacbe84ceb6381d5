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
json.dumps(doc, indent=2) plus a newline, with each exact value written by
exact.value_text, each report from one template (indices.report_text,
claims.render_report).  A claims report is graded and written once per
process per (k, format) (claims.kept_report).  indices.table_text writes an
indices table; it decides, as report_text does, when to read the texts the
Profile keeps.  The graph exports are streams of row texts
(DivisorGraph.json_rows and dot_rows, metric.csv_rows), written to stdout
with writelines as they are made, so no whole document is held.  The
claims and formulas modules are imported by the subcommands that use them,
so the other subcommands start without them.  main reads an argv of plain
"--option value" pairs from a table of the options argv[0]'s parser
declares, built with the parser from the Actions that add_argument returned;
argparse reads everything else (no subcommand, --help, an abbreviation,
--opt=value, a repeated option, a bad value, a missing option), so every
usage error keeps argparse's message and exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import indices, metric
from .exact import _int_from_str
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
    write = indices.report_text if args.format == "json" else indices.table_text
    sys.stdout.write(write(g, values))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import formulas

    lines, ok = formulas.verification_lines(args.k_min, args.k_max)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_claims(args: argparse.Namespace) -> int:
    from . import claims as claims_mod

    text, mismatch = claims_mod.kept_report(args.k, args.format)
    sys.stdout.write(text)
    return 3 if args.strict and mismatch else 0


def _table(parser, func, actions, exclusive=()):
    """Set func as the default of a subcommand's parser and return its table
    read, built from the Actions its add_argument calls returned; exclusive
    pairs each mutually exclusive group's required flag with its members.
    read(argv) gives what build_parser().parse_args(argv) gives when every
    token of argv[1:] is an option string of the table, given once and
    followed by its one value if it takes one.  It returns None, leaving argv
    to argparse, for an unknown or abbreviated option, --opt=value, --, a
    repeated option, a missing value or one starting with '-', a value the
    type or the choices refuse, a missing required option, and a group with
    two members given or, if required, none."""
    parser.set_defaults(func=func)
    defaults, options = {"func": func}, {}
    for action in actions:
        convert = _int_from_str if action.type is int else action.type or str
        default = action.default
        defaults[action.dest] = convert(default) if isinstance(default, str) else default
        if action.nargs in (None, 0):  # one value, or a flag
            options.update(dict.fromkeys(action.option_strings, (action, convert)))
    required = {action.dest for action in actions if action.required}
    groups = [(needed, {action.dest for action in members}) for needed, members in exclusive]

    def read(argv: list[str]) -> argparse.Namespace | None:
        args = argparse.Namespace(command=argv[0], **defaults)
        seen = set()
        tokens = iter(argv[1:])
        for token in tokens:
            action, convert = options.get(token, (None, None))
            if action is None or action.dest in seen:
                return None
            value = []  # what argparse hands a flag
            if action.nargs is None:
                text = next(tokens, "-")  # so a missing value declines too
                if text.startswith("-"):
                    return None
                try:
                    value = convert(text)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
                if action.choices is not None and value not in action.choices:
                    return None
            action(parser, args, value, token)
            seen.add(action.dest)
        if not required <= seen:
            return None
        for needed, members in groups:
            if len(members & seen) > 1 or needed and not members & seen:
                return None
        return args

    return read


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    main() call in the process (parse_args leaves it unchanged).  Its tables
    attribute maps each subcommand to the table read of its options (_table),
    made from the same add_argument calls."""
    parser = argparse.ArgumentParser(
        prog="graphlab",
        description="Exact divisor-function graphs and topological indices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tables = parser.tables = {}

    p = sub.add_parser("gamma", help="build the k-dprime divisor function graph")
    tables["gamma"] = _table(p, cmd_gamma, (
        p.add_argument("--k", type=int, required=True, help="number of distinct primes"),
        p.add_argument("--primes", help="comma-separated primes realizing the graph"),
        p.add_argument("--emit", choices=("json", "dot", "csv"), default="json",
                       help="csv emits the distance matrix"),
    ))

    p = sub.add_parser("divisor-graph", help="build the divisor graph of n")
    tables["divisor-graph"] = _table(p, cmd_divisor_graph, (
        p.add_argument("--n", type=int, required=True),
        p.add_argument("--emit", choices=("json", "dot", "csv"), default="json",
                       help="csv emits the distance matrix"),
    ))

    p = sub.add_parser("indices", help="compute topological indices exactly")
    target = p.add_mutually_exclusive_group(required=True)
    targets = (
        target.add_argument("--k", type=int, help="compute on Gamma_k"),
        target.add_argument("--n", type=int, help="compute on the divisor graph of n"),
    )
    tables["indices"] = _table(p, cmd_indices, (
        *targets,
        p.add_argument("--primes", help="comma-separated primes (with --k only)"),
        p.add_argument("--index", default="all",
                       help="comma-separated index names, or 'all'"),
        p.add_argument("--format", choices=("json", "table"), default="json"),
    ), exclusive=[(target.required, targets)])

    p = sub.add_parser("verify", help="check closed forms against the oracle")
    tables["verify"] = _table(p, cmd_verify, (
        p.add_argument("--k-min", type=int, default=0),
        p.add_argument("--k-max", type=int, default=10),
    ))

    p = sub.add_parser("claims", help="evaluate the bundled claim registry")
    tables["claims"] = _table(p, cmd_claims, (
        p.add_argument("--k", type=int, choices=(3, 4, 5), default=None,
                       help="restrict to one graph"),
        p.add_argument("--format", choices=("json", "markdown"), default="json"),
        p.add_argument("--strict", action="store_true",
                       help="exit 3 if any evaluated claim mismatches"),
    ))

    for p in sub.choices.values():  # type=int reads integers of any length
        p.register("type", int, _int_from_str)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), read from the option table of the
    subcommand argv[0] names when that table reads it.  Anything else (no
    subcommand, --help, an unknown name, an argv the table declines) goes to
    the full parser, so every usage error keeps its message and exit code 2."""
    parser = build_parser()
    read = parser.tables.get(argv[0]) if argv else None
    args = read(argv) if read is not None else None
    return parser.parse_args(argv) if args is None else args


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
