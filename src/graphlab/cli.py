"""Command line interface.

Subcommands:

* gamma         build Gamma_k; emit json, dot, or the distance matrix as csv
* divisor-graph build the divisor graph of n; same emit choices
* indices       compute topological indices exactly (json or table)
* verify        check every closed form against edge enumeration and the index engine
* claims        evaluate the bundled claim registry (json or markdown)

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 claim
mismatch under --strict.  Output for identical invocations is byte
identical: no timestamps, canonical orderings throughout.  JSON text (graph
exports, index reports, claim reports) comes from exact.json_text, the
bytes of json.dumps(doc, indent=2) plus a newline.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import claims as claims_mod
from . import formulas, indices, metric
from .exact import _int_from_str, _int_str, format_value, json_text, to_decimal
from .graphs import build_gamma, build_general

_DEFAULT_KCAP = 10
_KCAP_ENV = "GRAPHLAB_KCAP"
_MAX_EXPORT_EDGES = 3**12 - 2**12  # |E(Gamma_12)|; every export lists each edge


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(_int_from_str, text.split(",")))
    except ValueError:
        raise ValueError(f"--primes expects comma-separated integers, got {text!r}")


def _emit_graph(g, emit: str) -> int:
    if g.size() > _MAX_EXPORT_EDGES:
        raise ValueError(f"the graph has {g.size()} edges, "
                         f"above the export budget of {_MAX_EXPORT_EDGES}")
    if emit == "json":
        sys.stdout.write(json_text(g.to_json_dict()))
    elif emit == "dot":
        sys.stdout.write(g.to_dot())
    elif emit == "csv":
        # The distance matrix: each row of digits fills the gaps of one comma buffer.
        line = bytearray(b"," * (2 * g.order - 1) + b"\n")
        text = [",".join(g.labels()) + "\n"]
        for digits in metric.digit_rows(g):
            line[:-1:2] = digits
            text.append(line.decode())
        sys.stdout.write("".join(text))
    else:
        raise ValueError(f"unknown emit format {emit!r}")
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
        sys.stdout.write(json_text(indices.report_dict(g, values)))
    else:
        sys.stdout.write(_indices_table(values))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cap = args.cap
    if cap is None:
        env = os.environ.get(_KCAP_ENV, str(_DEFAULT_KCAP))
        try:
            cap = _int_from_str(env)
        except ValueError:
            raise ValueError(f"{_KCAP_ENV} must be an integer, got {env!r}")
    if not 0 <= args.k_min <= args.k_max:
        raise ValueError(f"need 0 <= k-min <= k-max, "
                         f"got {_int_str(args.k_min)}..{_int_str(args.k_max)}")
    if args.k_max > cap:
        raise ValueError(
            f"k-max {_int_str(args.k_max)} exceeds the cap of {_int_str(cap)} "
            f"(raise with --cap or {_KCAP_ENV}; the edge enumeration is O(3^k))"
        )
    lines, ok = formulas.verification_lines(args.k_min, args.k_max)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_claims(args: argparse.Namespace) -> int:
    reports = claims_mod.run_all(args.k)
    sys.stdout.write(claims_mod.render_report(reports, args.format))
    if args.strict and any(r.verdict == claims_mod.MISMATCH for r in reports):
        return 3
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    main() call in the process (parse_args leaves it unchanged)."""
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
    p.add_argument("--k-max", type=int, default=_DEFAULT_KCAP)
    p.add_argument("--cap", type=int, default=None,
                   help=f"largest allowed k-max (default {_DEFAULT_KCAP}, or {_KCAP_ENV})")
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
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
