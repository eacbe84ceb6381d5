"""Record perfbench/reference.json from the program in this checkout.

Usage (from the repository root): python3 perfbench/record.py

The reference holds what the output check cannot derive on its own: the
exact index values of every graph shape the workloads use (shared by all
seeds, since values depend only on the exponent shape), digests of the
outputs that do not depend on the seed (claims, verify), and a digest of
every response for the default seed.  Recording validates what it stores:
index values must match the closed forms in oracle.py, Gamma_k values taken
through --k must equal those of a squarefree n, and every default-seed
response must pass the check.  Re-record only when the program's output is
meant to change.
"""

from __future__ import annotations

import json
import re
import sys

import oracle
import workloads
from run import BENCH_DIR, call, load_program

DEFAULT_SEED = 1
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _run(cli, argv) -> str:
    _, rc, out = call(cli, argv)
    if rc != 0:
        sys.exit(f"record: {' '.join(argv)} exited with {rc!r}")
    return out


def _shape_values(cli, target: list[str]) -> dict:
    as_json = json.loads(_run(cli, ["indices", *target, "--index", "all", "--format", "json"]))
    table = _run(cli, ["indices", *target, "--index", "all", "--format", "table"])
    values = {}
    for line in table.splitlines()[1:]:
        name, exact, approx = re.split(r" {2,}", line)
        values[name] = {"json": as_json["indices"][name], "exact": exact, "approx": approx}
    return values


def _shapes() -> set[tuple[int, ...]]:
    shapes = {(1,) * k for k in range(2, max(workloads.GAMMA_KS) + 1)}
    shapes.update(workloads.DIVISOR_SHAPES, workloads.MIX_INDEX_SHAPES)
    return shapes


def main() -> int:
    cli = load_program()
    reference: dict = {"default_seed": DEFAULT_SEED, "shapes": {}, "outputs": {}, "digests": {}}

    for shape in sorted(_shapes()):
        n = 1
        for p, e in zip(PRIMES, shape):
            n *= p**e
        values = _shape_values(cli, ["--n", str(n)])
        if set(shape) == {1} and len(shape) <= 8:
            if _shape_values(cli, ["--k", str(len(shape))]) != values:
                sys.exit(f"record: Gamma_{len(shape)} and n={n} disagree")
        for name, want in oracle.closed_forms(shape).items():
            if oracle.value_of(values[name]["json"]) != want:
                sys.exit(f"record: {name} of shape {shape} differs from its closed form")
        reference["shapes"][oracle.shape_key(shape)] = values
        print(f"shape {shape}: n={n}", file=sys.stderr)

    seedless = [r for w in workloads.WORKLOADS for r in workloads.generate(w, DEFAULT_SEED)
                if r.kind in ("claims", "verify")]
    for request in seedless:
        reference["outputs"][oracle.seedless_key(request.argv)] = oracle.digest(_run(cli, request.argv))

    # Check through a JSON round trip: the checker sees what run.py will load.
    checker = oracle.Checker(json.loads(json.dumps(reference)))
    for workload in workloads.WORKLOADS:
        digests = []
        for request in workloads.generate(workload, DEFAULT_SEED):
            out = _run(cli, request.argv)
            reason = checker.check(request, 0, out)
            if reason is not None:
                sys.exit(f"record: {' '.join(request.argv)}: {reason}")
            digests.append(oracle.digest(out))
        reference["digests"][workload] = digests
        print(f"{workload}: {len(digests)} responses checked", file=sys.stderr)

    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
