"""Run the benchmark on several seeds and report the spread of each metric.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workload cli-mix --seeds 1-10 --seconds 30 \
        [--trace 1] [--out perfbench/baseline.json]

For each metric it prints the median over the runs, the quartiles and the
quartile distance as a share of the median (statistics.quantiles, n=4),
next to the bound in BENCHMARK.json.  With --trace 1 it also reports every
per-layer count that differs between the runs; counts must repeat exactly
between runs of one seed, so pass that seed several times (--seeds 3,3,3).
Runs go one after another, never in parallel.  --out merges the summary
(per metric: median, quartiles, spread, every run's value) into a JSON file
under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    results = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds, args.trace)
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} responses failed")
        results.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if args.trace == 0 or v["unit"] == "s"), flush=True)

    print(f"\n{args.workload}: {len(results)} runs")
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        if args.trace and unit != "s":
            summary[name] = {"unit": unit, "value": values[0], "repeats": len(set(values)) == 1}
            if len(set(values)) > 1:
                print(f"{name:<24} DIFFERS between runs: {values}")
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread,
                         "runs": values}
        print(f"{name:<24} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.3f}" + (f"  bound {bound}" if bound is not None else ""))

    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
        doc.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "seeds": args.seeds, "seconds": args.seconds, "metrics": summary}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
