"""graphlab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Each workload is one process, one thread and a closed loop: one client hands
argv lists to ``graphlab.cli.main`` in-process, stdout goes to a buffer, and
the next request is sent only after the previous one returns.  Passes over
the workload's request list repeat until ``--seconds`` is spent (at least
MIN_PASSES).  Every response is checked after its pass, outside the timed
region; a nonzero exit, an exception or a wrong output counts as failed.

``--trace 0`` prints the end-to-end metrics (medians over passes).  Their
times are normalised to a reference host speed with a fixed kernel timed
between requests (see calibrate.py), so a run in a slow state of a shared
host reads like one in a fast state.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics (see tracing.py); spans of the first traced pass are
written to perfbench/out/.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every response was correct, 1 otherwise; without graphlab sources
under src/ the run stops with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracle
import workloads
from calibrate import REFERENCE_S, Clock
from tracing import PER_LAYER, Tracer, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("wall_s", "s"),
    ("req_p50_s", "s"),
    ("req_p95_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
MIN_PASSES = 3
#: Fresh set-up processes timed before the first pass and again after the
#: last, so the median spans the machine's state over the whole run.
SETUP_PROBES = 8


def load_program():
    """Import graphlab from this checkout's src/; exit if it is not there."""
    if not (SRC / "graphlab" / "cli.py").is_file():
        sys.exit(f"perfbench: no graphlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from graphlab import cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        sys.exit(f"perfbench: imported graphlab from {cli.__file__}, not from {SRC}")
    return cli


def load_reference() -> dict:
    path = BENCH_DIR / "reference.json"
    if not path.is_file():
        sys.exit(f"perfbench: missing {path}")
    return json.loads(path.read_text())


def call(cli, argv) -> tuple[float, object, str]:
    """One request: (seconds, exit code or exception text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # a crashing request is a failed request
            rc = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue()


def run_pass(cli, requests, tracer: Tracer | None = None, clock: Clock | None = None):
    """Send every request in order; (pass wall time, [(seconds, rc, stdout)],
    [start of each request]).  A clock times its kernel between requests
    when due and once after the pass."""
    gc.collect()
    results, starts = [], []
    start = time.perf_counter()
    for i, request in enumerate(requests):
        if clock is not None:
            clock.tick_if_due()
        if tracer is not None:
            tracer.start_request(i)
        starts.append(time.perf_counter())
        results.append(call(cli, request.argv))
    wall = time.perf_counter() - start
    if clock is not None:
        clock.tick()
    return wall, results, starts


class Run:
    """Pass bookkeeping and response checking for one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.cli = load_program()
        reference = load_reference()
        self.requests = workloads.generate(workload, seed)
        self.checker = oracle.Checker(reference)
        self.digests = reference["digests"][workload] if seed == reference["default_seed"] else None
        self.deadline = time.perf_counter() + seconds
        self.attempted = self.failed = 0

    def check(self, results) -> None:
        for i, (request, (_, rc, out)) in enumerate(zip(self.requests, results)):
            reason = self.checker.check(request, rc, out, self.digests[i] if self.digests else None)
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                if self.failed <= 5:
                    print(f"FAILED {' '.join(request.argv)}: {reason}", file=sys.stderr)

    def another(self, done: int, minimum: int, spent: list[float]) -> bool:
        """Start another pass when below the minimum, or when a pass of
        average length still ends before the deadline."""
        if done < minimum:
            return True
        return time.perf_counter() + statistics.fmean(spent) <= self.deadline


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure_setup(workload: str, seed: int, clock: Clock) -> list[tuple[float, float]]:
    """(start, seconds) from spawning a fresh interpreter to its `ready`
    line; the clock's kernel runs before each probe and after the last."""
    times = []
    for _ in range(SETUP_PROBES):
        clock.tick()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait() != 0 or line != "ready\n":
                sys.exit("perfbench: set-up probe failed")
        times.append((start, elapsed))
    clock.tick()
    return times


def end_to_end(run: Run, workload: str, seed: int) -> dict:
    clock = Clock()
    probes = measure_setup(workload, seed, clock)
    passes, timed = [], []  # (pass wall incl. kernel calls, [(start, seconds)])
    while run.another(len(passes), MIN_PASSES, passes):
        wall, results, starts = run_pass(run.cli, run.requests, clock=clock)
        run.check(results)
        passes.append(wall)
        timed.append([(s, t) for s, (t, _, _) in zip(starts, results)])
    probes += measure_setup(workload, seed, clock)

    # Normalised only now, so that every request has kernel calls after it.
    walls = [sum(clock.normalise(s, t) for s, t in requests) for requests in timed]
    samples = [clock.normalise(s, t) for requests in timed for s, t in requests]
    setup = [clock.normalise(s, t) for s, t in probes]
    raw_walls = [sum(t for _, t in requests) for requests in timed]
    p95 = statistics.quantiles(samples, n=20, method="inclusive")[18]
    values = {
        "wall_s": statistics.median(walls),
        "req_p50_s": statistics.median(samples),
        "req_p95_s": p95,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "wall_s": "median of %d passes, q1 %.6g q3 %.6g" % (len(walls), *quartiles(walls)[::2]),
        "req_p50_s": "%d samples, q1 %.6g q3 %.6g" % (len(samples), *quartiles(samples)[::2]),
        "req_p95_s": "%d samples, %d beyond" % (len(samples), sum(t > p95 for t in samples)),
        "setup_s": "median of %d fresh processes, q1 %.6g q3 %.6g" % (len(setup), *quartiles(setup)[::2]),
        "peak_rss_mb": "ru_maxrss of the run process",
    }
    print(f"times at reference speed: {len(clock.seconds)} kernel calls, median "
          f"{statistics.median(clock.seconds):.6g} s (reference {REFERENCE_S} s); "
          f"unscaled wall_s {statistics.median(raw_walls):.6g} s")
    for name, unit in END_TO_END:
        print(f"{name:<12} {values[name]:.6g} {unit:<3} ({notes[name]})")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(run: Run, workload: str, seed: int) -> dict:
    tracer = Tracer()
    untraced, traced, pairs, layer_times = [], [], [], []
    counts = first_spans = None
    while run.another(len(pairs), 1, pairs):
        start = time.perf_counter()
        wall, results, _ = run_pass(run.cli, run.requests)
        run.check(results)
        untraced.append(wall)

        tracer.install()
        try:
            wall, results, _ = run_pass(run.cli, run.requests, tracer)
        finally:
            tracer.uninstall()
        spans, pass_counts = tracer.take()
        run.check(results)
        traced.append(wall)
        pass_counts["cli.out_bytes"] = sum(len(out.encode()) for _, _, out in results)
        layer_times.append(self_times(spans, tracer.metric_of))
        if counts is None:
            counts, first_spans = pass_counts, spans
        elif pass_counts != counts:
            print("WARNING: work counters differ between traced passes", file=sys.stderr)
        pairs.append(time.perf_counter() - start)

    values = {name: counts.get(name, 0) for name, unit, _ in PER_LAYER if unit != "s"}
    for name, unit, _ in PER_LAYER:
        if unit == "s":
            values[name] = statistics.median(t.get(name, 0.0) for t in layer_times)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload}-{seed}.jsonl", "w") as f:
        for name, begin, end, parent, request in first_spans:
            f.write(json.dumps({"name": name, "metric": tracer.metric_of[name], "start": begin,
                                "end": end, "parent": parent, "request": request}) + "\n")

    print(f"traced passes {len(traced)}, untraced passes {len(untraced)}; "
          f"{len(first_spans)} spans in the first traced pass")
    for name, unit, _ in PER_LAYER:
        value = values[name]
        print(f"{name:<26} {value:.6g} {unit}" if unit == "s" else f"{name:<26} {value} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    run = Run(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload}, seed {args.seed}: {len(run.requests)} requests per pass, "
          f"closed loop, 1 client, in-process")
    measure = per_layer if args.trace else end_to_end
    metrics = measure(run, args.workload, args.seed)
    print(f"attempted {run.attempted}, failed {run.failed}, "
          f"fail_ratio {run.failed / run.attempted:.6g}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
