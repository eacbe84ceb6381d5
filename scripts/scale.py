"""Whole-process scale runs of the graphlab CLI: wall time, peak RSS and
bytes written, for the scale section of a BENCH_*.json file.

Usage (from the repository root):

    python3 scripts/scale.py

Each run is `python -m graphlab.cli ...` from this checkout's src/, started
by a fresh measuring process that counts the bytes of its stdout and reads
its peak RSS with resource.getrusage(RUSAGE_CHILDREN), so no /usr/bin/time
is needed.  The medians over RUNS runs of each case print as one JSON
object.  The exit code is 1 when a run exits nonzero or when a run that
lists Gamma_12 (an export, or verify up to k = 12) peaks at or above
LISTING_RSS_MB.

The in_process section times formulas.verification_lines(0, k_max) in this
process, imported from the same src/: cold, with formulas' per-k record
cleared before each run (the index memo stays warm), and then warm, as
medians over IN_PROCESS_RUNS runs of one call (cold_s, warm_s); and warm per
call (per_call_s), timed as the request rows below are, which resolves what
one call cannot.  It times CLAIMS_REPORT, every claim evaluated and its
JSON report written as `claims --format json` does, warm per call
(per_call_s).  It also times each of WARM_REQUESTS warm, through cli.main
with stdout into a fresh buffer per call (main_s), and stage by stage as
cli.cmd_indices runs them: cli._parse alone (parse_s), the graph build with
its --primes read (build_s), indices.compute_indices on that graph
(compute_s) and indices.report_text on the graph and its values (report_s);
per call, the median over IN_PROCESS_RUNS runs of IN_PROCESS_CALLS calls
each.  It is reported only and gates nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs per case; the RSS gate takes the largest peak over them.
RUNS = 3

#: Gamma_12 is the largest graph the budget of listed edges admits.  Its
#: exports stream their text, and verify holds both directions of its
#: listing, so each of these runs stays below this peak RSS.
LISTING_RSS_MB = 50

#: The nine indices other than Balaban, Randic and R1-R3: all that Gamma_100
#: admits within the budgets.
NON_RADICAL = "wiener,hyper_wiener,harary,zagreb1,zagreb2,degree_distance,gutman,harmonic,mostar"

#: The runs that list Gamma_12, then the other process rows of ROADMAP's
#: table: claims, the indices of a large n, of Gamma_16 (r1-r3 print about
#: 986 kB of digits) and of Gamma_100.
LISTING_CASES = (
    ("gamma", "--k", "12", "--emit", "json"),
    ("gamma", "--k", "12", "--emit", "csv"),
    ("gamma", "--k", "12", "--emit", "dot"),
    ("verify", "--k-max", "12"),
)
CASES = LISTING_CASES + (
    ("claims", "--format", "json"),
    ("indices", "--n", "735134400"),
    ("indices", "--k", "16"),
    ("indices", "--k", "100", "--index", NON_RADICAL),
)

#: The k_max of the in-process verification_lines cases (4 and 8 bound the
#: verify requests of the cli-mix workload), and runs per median.
IN_PROCESS_K_MAX = (4, 8, 12)
IN_PROCESS_RUNS = 5

#: A gamma-indices-sized and a divisor-indices-sized request (96 divisors),
#: as those workloads send them, timed warm; and calls per timed run.
WARM_REQUESTS = (
    ("indices", "--k", "8", "--primes", "2,3,5,7,11,13,17,19", "--index", "all", "--format", "json"),
    ("indices", "--n", "27720", "--index", "all", "--format", "json"),
)
IN_PROCESS_CALLS = 200

#: The claims report row: every registered claim evaluated and written as JSON.
CLAIMS_REPORT = 'claims.render_report(claims.run_all(), "json")'

#: Run by a fresh interpreter, so RUSAGE_CHILDREN holds the CLI alone.
_MEASURE = """
import json, resource, subprocess, sys, time
start = time.perf_counter()
child = subprocess.Popen([sys.executable, "-m", "graphlab.cli", *sys.argv[1:]],
                         stdout=subprocess.PIPE)
out = 0
while chunk := child.stdout.read(1 << 16):
    out += len(chunk)
code = child.wait()
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # kB on Linux
print(json.dumps({"exit": code, "wall_s": wall, "peak_rss_mb": peak, "out_bytes": out}))
"""


def measure(argv: tuple[str, ...]) -> dict:
    line = subprocess.run([sys.executable, "-c", _MEASURE, *argv], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    return json.loads(line)


def in_process() -> dict:
    sys.path.insert(0, str(SRC))
    from graphlab import claims, cli, formulas, indices
    from graphlab.graphs import build_gamma, build_general

    def median_s(k_max: int, cold: bool) -> float:
        times = []
        for _ in range(IN_PROCESS_RUNS):
            if cold:
                formulas._oracle.cache_clear()
            start = time.perf_counter()
            formulas.verification_lines(0, k_max)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def per_call_s(call) -> float:
        times = []
        for _ in range(IN_PROCESS_RUNS):
            start = time.perf_counter()
            for _ in range(IN_PROCESS_CALLS):
                call()
            times.append((time.perf_counter() - start) / IN_PROCESS_CALLS)
        return statistics.median(times)

    report = {}
    for k_max in IN_PROCESS_K_MAX:
        formulas.verification_lines(0, k_max)  # fills the index memo
        report[f"verification_lines(0, {k_max})"] = {
            "cold_s": median_s(k_max, cold=True), "warm_s": median_s(k_max, cold=False),
            "per_call_s": per_call_s(lambda: formulas.verification_lines(0, k_max))}

    claims.render_report(claims.run_all(), "json")  # fills the index memo and the kept texts
    report[CLAIMS_REPORT] = {
        "per_call_s": per_call_s(lambda: claims.render_report(claims.run_all(), "json"))}

    def serve(argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)

    def build(args):  # the graph as cli.cmd_indices builds it
        if args.k is None:
            return build_general(args.n)
        return build_gamma(args.k, cli._parse_primes(args.primes))

    for argv in map(list, WARM_REQUESTS):
        serve(argv)  # fills the index memo
        args = cli._parse(argv)
        g = build(args)
        values = indices.compute_indices(g)
        report[" ".join(argv)] = {"main_s": per_call_s(lambda: serve(argv)),
                                  "parse_s": per_call_s(lambda: cli._parse(argv)),
                                  "build_s": per_call_s(lambda: build(args)),
                                  "compute_s": per_call_s(lambda: indices.compute_indices(g)),
                                  "report_s": per_call_s(lambda: indices.report_text(g, values))}
    return report


def main() -> int:
    report, ok = {}, True
    for argv in CASES:
        runs = [measure(argv) for _ in range(RUNS)]
        row = {key: statistics.median(r[key] for r in runs)
               for key in ("wall_s", "peak_rss_mb", "out_bytes")}
        ok &= all(r["exit"] == 0 for r in runs)
        if argv in LISTING_CASES:
            ok &= max(r["peak_rss_mb"] for r in runs) < LISTING_RSS_MB
        report[" ".join(argv)] = row
    print(json.dumps({"runs": RUNS, "cases": report, "in_process": in_process()}, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
