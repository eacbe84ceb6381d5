"""Self-tests of the benchmark: generators, output check, span arithmetic,
host-speed normalisation.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb

import pytest

import calibrate
import oracle
import run
import workloads
from tracing import PER_LAYER, Tracer, self_times

CLI = run.load_program()


# --- generators ------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seeded(workload):
    first = [r.argv for r in workloads.generate(workload, 7)]
    assert first == [r.argv for r in workloads.generate(workload, 7)]
    assert first != [r.argv for r in workloads.generate(workload, 8)]


@pytest.mark.parametrize("seed", range(5))
def test_generators_stay_in_their_size_bands(seed):
    gamma = workloads.generate("gamma-indices", seed)
    assert sorted(r.params["k"] for r in gamma) == list(workloads.GAMMA_KS)

    lo, hi = workloads.DIVISOR_BAND
    divisor = workloads.generate("divisor-indices", seed)
    assert len(divisor) == len(workloads.DIVISOR_SHAPES)
    for r in divisor:
        assert lo <= len(oracle.divisors(r.params["n"])) <= hi
        assert oracle.factorize(r.params["n"])  # realized on real primes

    mix = workloads.generate("cli-mix", seed)
    assert len(mix) >= 200
    for r in mix:
        if r.kind == "indices" and "n" in r.params:
            assert r.params["n"] <= workloads.MIX_N_LIMIT
        if r.kind == "verify":
            assert r.params["k_max"] <= 8
        if r.kind == "indices" and "k" in r.params:
            assert 2 <= r.params["k"] <= 7


def test_workload_shape_multiset_does_not_depend_on_seed():
    def work(seed):
        return sorted(
            (r.kind, tuple(sorted((k, str(v)) for k, v in r.params.items()
                                  if k not in ("n", "primes"))))
            for r in workloads.generate("cli-mix", seed)
        )
    assert work(1) == work(2)


# --- output check ----------------------------------------------------------

def _flip_digit(text: str, which: int) -> str:
    positions = [m.start() for m in re.finditer(r"\d", text)]
    i = positions[which % len(positions)]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def _sample_requests():
    mix = workloads.generate("cli-mix", 3)
    picked = {}
    for r in mix:
        key = (r.kind, r.params.get("format"), r.params.get("emit"), "k" in r.params)
        picked.setdefault(key, r)
    return list(picked.values())


@pytest.mark.parametrize("request_", _sample_requests(), ids=lambda r: " ".join(r.argv))
def test_one_flipped_digit_fails_the_check(request_):
    checker = oracle.Checker(run.load_reference())
    _, rc, out = run.call(CLI, request_.argv)
    assert checker.check(request_, rc, out) is None
    for which in range(0, 400, 37):
        assert checker.check(request_, rc, _flip_digit(out, which)) is not None


def test_failed_responses_feed_fail_ratio():
    bench = run.Run("cli-mix", 1, 1)
    results = [run.call(CLI, r.argv) for r in bench.requests]
    t, rc, out = results[5]
    results[5] = (t, rc, _flip_digit(out, 3))
    t, _, out = results[9]
    results[9] = (t, 2, out)
    bench.check(results)
    assert (bench.attempted, bench.failed) == (len(bench.requests), 2)


def test_default_seed_digests_cover_every_request():
    reference = run.load_reference()
    for workload in workloads.WORKLOADS:
        assert len(reference["digests"][workload]) == len(
            workloads.generate(workload, reference["default_seed"]))


@pytest.mark.parametrize("k", range(1, 9))
def test_closed_forms_reduce_to_the_gamma_k_formulas(k):
    forms = oracle.closed_forms((1,) * k)
    assert forms["wiener"] == 4**k - 3**k
    assert forms["hyper_wiener"] == Fraction(2) ** (k - 1) * (2 ** (k + 1) + 2**k + 1) - 2 * 3**k
    assert forms["harary"] == (Fraction(2) ** (k - 1) * (2**k - 3) + 3**k) / 2
    interior = sum(comb(k, j) * (2**j + 2 ** (k - j) - 2) ** 2 for j in range(1, k))
    assert forms["zagreb1"] == 2 * (2**k - 1) ** 2 + interior


# --- tracing ---------------------------------------------------------------

def test_self_time_of_a_hand_built_span_tree():
    spans = [
        ["a", 0.0, 10.0, -1, 0],  # children b and d cover 3 + 4
        ["b", 1.0, 4.0, 0, 0],    # child c covers 1
        ["c", 2.0, 3.0, 1, 0],
        ["d", 5.0, 9.0, 0, 0],
        ["a", 20.0, 21.5, -1, 1],  # a leaf: all self time
    ]
    metric_of = {"a": "A", "b": "B", "c": "B", "d": "D"}
    assert self_times(spans, metric_of) == {"A": 3.0 + 1.5, "B": 2.0 + 1.0, "D": 4.0}


def test_tracer_accounts_for_a_request_and_uninstalls():
    from graphlab import cli, indices

    main, dispatch = cli.main, dict(indices._DISPATCH)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.start_request(0)
        _, rc, out = run.call(cli, ["indices", "--k", "3", "--format", "table"])
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    assert rc == 0 and cli.main is main and indices._DISPATCH == dispatch
    assert counts["cli.requests"] == 1
    assert counts["indices.values"] == 14
    assert counts["graphs.vertices"] == 8 and counts["graphs.edges"] == 19
    assert counts["graphs.adjacent_calls"] == 28
    assert counts["exact.render_calls"] > 0 and counts["exact.radical_ops"] > 0
    roots = [s for s in spans if s[3] < 0]
    assert [s[0] for s in roots] == ["cli.main"]
    total = sum(self_times(spans, tracer.metric_of).values())
    assert total == pytest.approx(roots[0][2] - roots[0][1], rel=1e-9, abs=1e-12)


def test_benchmark_json_lists_the_metrics_this_benchmark_prints():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)


# --- host-speed normalisation ----------------------------------------------

def test_clock_scales_by_the_median_of_the_nearest_kernel_calls(monkeypatch):
    monkeypatch.setattr(calibrate, "ELASTICITY", 1.0)
    ref = calibrate.REFERENCE_S
    clock = calibrate.Clock()
    clock.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    clock.seconds = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 100 * ref, 4 * ref]
    assert clock.scale(0.0) == pytest.approx(0.5)    # calls 1-5, median 2 ref
    assert clock.scale(6.5) == pytest.approx(0.5)    # calls 3-7: the outlier is ignored
    assert clock.normalise(2.0, 1.0) == pytest.approx(0.5)
    monkeypatch.setattr(calibrate, "ELASTICITY", 0.5)
    assert clock.scale(0.0) == pytest.approx(0.5**0.5)


def test_clock_ticks_only_when_due(monkeypatch):
    monkeypatch.setattr(calibrate, "INTERVAL_S", 3600.0)
    clock = calibrate.Clock()
    clock.tick_if_due()
    clock.tick_if_due()
    assert len(clock.seconds) == 1 and clock.seconds[0] > 0
    assert clock.normalise(clock.times[0], 0.0) == 0.0
