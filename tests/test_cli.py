"""Command line surface: formats, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

from graphlab import metric
from graphlab.cli import main
from graphlab.exact import _int_str
from graphlab.formulas import verification_lines
from graphlab.graphs import build_gamma, build_general


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gamma_json(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 3
    assert len(doc["vertices"]) == 8
    assert len(doc["edges"]) == 19


def test_gamma_with_primes_dot(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--k", "3", "--primes", "2,3,5", "--emit", "dot")
    assert code == 0
    assert out.startswith("graph gamma_3 {")
    for label in ("1", "2", "3", "5", "6", "10", "15", "30"):
        assert f'[label="{label}"]' in out


def test_gamma_zero_dot(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--k", "0", "--emit", "dot")
    assert code == 0
    assert out == 'graph gamma_0 {\n  v0 [label="1"];\n}\n'


def test_gamma_csv_distance_matrix(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--k", "1", "--emit", "csv")
    assert code == 0
    assert out == "1,p1\n0,1\n1,0\n"


def test_gamma_invalid_primes(capsys):
    code, _, err = run_cli(capsys, "gamma", "--k", "2", "--primes", "4,6")
    assert code == 2
    assert "not prime" in err
    code, out, err = run_cli(capsys, "gamma", "--k", "2", "--primes", "")
    assert (code, out) == (2, "")
    assert "--primes expects comma-separated integers" in err
    code, out, err = run_cli(capsys, "indices", "--n", "12", "--primes", "")
    assert (code, out) == (2, "")
    assert "--primes applies only to --k" in err


def test_divisor_graph_json(capsys):
    code, out, _ = run_cli(capsys, "divisor-graph", "--n", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 12
    assert len(doc["vertices"]) == 6
    assert len(doc["edges"]) == 12


def test_exports_refuse_graphs_above_the_edge_budget(capsys):
    for argv, edges in ((["gamma", "--k", "13", "--emit", "json"], 3**13 - 2**13),
                        (["divisor-graph", "--n", _int_str(2**4095)], 4096 * 4095 // 2),
                        (["gamma", "--k", "40", "--emit", "csv"], 3**40 - 2**40)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out) == (2, ""), argv
        assert f"{edges} edges, above the export budget of 527345" in err, argv


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the int/str digit limit exists from Python 3.11")
def test_integer_options_read_any_length(capsys):
    """Under the lowest int/str digit limit, integer options of any length
    are read, and reach the check that names the real reason for a refusal."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        big = _int_str(2**4095)  # 1,233 digits
        power = _int_str(9973**161)  # 644 digits, 162 divisors
        for argv, code, text in (
            (["divisor-graph", "--n", big], 2, "8386560 edges, above the export budget"),
            (["indices", "--n", _int_str(2**5000)], 2, "has 5001 divisors, above the cap"),
            (["gamma", "--k", "1", "--primes", big], 2, big + " is too large to prove prime"),
            (["gamma", "--k", "-" + big], 2, "k must be >= 0, got -" + big),
            (["verify", "--k-max", big], 2, f"k-max {big} exceeds the cap of 10"),
            (["verify", "--k-max", "1", "--cap", big], 0, "checks passed, 0 failed"),
            (["divisor-graph", "--n", power, "--emit", "dot"], 0, f"graph divisors_{power} {{"),
            (["divisor-graph", "--n", power, "--emit", "csv"], 0, f",{power}\n0,"),
        ):
            got, out, err = run_cli(capsys, *argv)
            assert got == code and text in (out if code == 0 else err), argv[:2]
        with pytest.raises(SystemExit) as e:
            main(["gamma", "--k", "1" + "x" * 700])
        assert e.value.code == 2
        assert "argument --k: invalid int value" in capsys.readouterr().err
    finally:
        sys.set_int_max_str_digits(limit)


def test_csv_export_builds_no_int_rows(capsys, monkeypatch):
    """The CSV export writes the digit rows of the distance rule as they are:
    no list of int distances and no DistanceMatrix is built."""
    cases = ((["gamma", "--k", "6", "--emit", "csv"], build_gamma(6)),
             (["divisor-graph", "--n", "5040", "--emit", "csv"], build_general(5040)))
    want = [metric.distance_matrix(g).to_csv() for _, g in cases]

    def refuse(*args):
        raise AssertionError("int distance rows built for a CSV export")

    monkeypatch.setattr(metric, "distance_rows", refuse)
    monkeypatch.setattr(metric.DistanceMatrix, "to_csv", refuse)
    for (argv, _), text in zip(cases, want):
        assert run_cli(capsys, *argv) == (0, text, "")


def test_divisor_graph_factorisation_budget(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "divisor-graph", "--n", str(2**61 - 1))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 2
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "divisor-graph", "--n", str(1000000007 * 1000000009))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "trial division up to 1000000" in err


def test_indices_json_selection(capsys):
    code, out, _ = run_cli(capsys, "indices", "--k", "3", "--index", "wiener,harary")
    assert code == 0
    doc = json.loads(out)
    assert doc["graph"] == {"family": "gamma", "k": 3}
    assert doc["indices"]["wiener"] == {"kind": "integer", "value": "37"}
    assert doc["indices"]["harary"] == {"kind": "rational", "num": "47", "den": "2"}


def test_indices_all_on_divisor_graph(capsys):
    code, out, _ = run_cli(capsys, "indices", "--n", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["graph"] == {"family": "divisor", "n": 6}
    assert len(doc["indices"]) == 14


def test_indices_table_appends_decimals(capsys):
    code, out, _ = run_cli(capsys, "indices", "--k", "3", "--index", "randic,mostar",
                           "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["index", "exact", "approx"]
    randic_line = next(l for l in lines if l.startswith("randic"))
    assert "23/14 + 6/7*sqrt(7)" in randic_line
    assert randic_line.rstrip().endswith("3.910644")
    mostar_line = next(l for l in lines if l.startswith("mostar"))
    assert mostar_line.rstrip().endswith("36")


def test_indices_unknown_name_lists_valid(capsys):
    code, _, err = run_cli(capsys, "indices", "--k", "3", "--index", "szeged")
    assert code == 2
    assert "unknown index 'szeged'" in err
    assert "wiener" in err and "mostar" in err


def test_indices_mostar_gamma4(capsys):
    code, out, _ = run_cli(capsys, "indices", "--k", "4", "--index", "mostar")
    assert code == 0
    assert json.loads(out)["indices"]["mostar"] == {"kind": "integer", "value": "268"}


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k-min", "0", "--k-max", "5")
    assert code == 0
    assert "k=3 wiener: formula 37 == oracle 37" in out
    assert out.rstrip().endswith("checks passed, 0 failed")
    per_k = 9  # eight formula lines plus the degree line
    assert sum(1 for l in out.splitlines() if l.endswith("[pass]")) == per_k * 6


def test_verify_cap_exceeded(capsys):
    code, _, err = run_cli(capsys, "verify", "--k-min", "0", "--k-max", "99")
    assert code == 2
    assert "exceeds the cap" in err


def test_verify_cap_flag_and_env(capsys, monkeypatch):
    code, _, _ = run_cli(capsys, "verify", "--k-min", "0", "--k-max", "11", "--cap", "11")
    assert code == 0
    monkeypatch.setenv("GRAPHLAB_KCAP", "4")
    code, _, err = run_cli(capsys, "verify", "--k-min", "0", "--k-max", "5")
    assert code == 2
    assert "exceeds the cap of 4" in err
    monkeypatch.setenv("GRAPHLAB_KCAP", "not-a-number")
    code, _, err = run_cli(capsys, "verify", "--k-min", "0", "--k-max", "3")
    assert code == 2
    assert "GRAPHLAB_KCAP" in err


def test_verify_bad_range(capsys):
    code, _, err = run_cli(capsys, "verify", "--k-min", "5", "--k-max", "2")
    assert code == 2


def test_verification_lines_function():
    lines, ok = verification_lines(0, 8)
    assert ok
    assert lines[-1] == "81 checks passed, 0 failed"


def test_claims_json(capsys):
    code, out, _ = run_cli(capsys, "claims")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {"total": 33, "match": 22, "mismatch": 11}


def test_claims_markdown_k3(capsys):
    code, out, _ = run_cli(capsys, "claims", "--k", "3", "--format", "markdown")
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.startswith("| gamma3.")) == 13


def test_claims_strict_exit_code(capsys):
    code, out, _ = run_cli(capsys, "claims", "--k", "3", "--strict")
    assert code == 3
    assert json.loads(out)["summary"]["mismatch"] == 2


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as e:
        main(["gamma"])  # missing --k
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def cli_digest(argv):
    """[exit code, sha256 of stdout] of one in-process main(argv) call; an
    argparse usage error counts with its SystemExit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def test_output_matches_recorded_digests(monkeypatch):
    """The bytes and exit codes of a fixed set of invocations are the output
    contract; tests/cli_digests.json holds [argv, exit code, stdout sha256]
    for each, as cli_digest computed them."""
    monkeypatch.delenv("GRAPHLAB_KCAP", raising=False)
    cases = json.loads(Path(__file__).with_name("cli_digests.json").read_text())
    assert len(cases) >= 100
    for argv, code, digest in cases:
        assert cli_digest(argv) == [code, digest], argv


def test_byte_identical_reruns(capsys):
    for argv in (
        ["gamma", "--k", "4", "--emit", "json"],
        ["gamma", "--k", "4", "--emit", "dot"],
        ["gamma", "--k", "4", "--emit", "csv"],
        ["indices", "--k", "4"],
        ["claims", "--format", "markdown"],
    ):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


def test_console_script_installed(tmp_path):
    """The ``graphlab`` command declared in pyproject.toml runs end to end.

    A bare checkout has no ``graphlab`` executable on PATH, so the test writes
    the standard console-script launcher for the declared ``module:attr``
    and runs it in a fresh interpreter against the checkout's ``src``.  An
    installed ``graphlab`` found on PATH is run as well.
    """
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    import graphlab

    tomllib = pytest.importorskip("tomllib")
    root = Path(graphlab.__file__).resolve().parents[2]
    with open(root / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["graphlab"]
    module, attr = target.split(":")
    launcher = tmp_path / "graphlab_launcher.py"
    launcher.write_text(f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    commands = [[sys.executable, str(launcher)]]
    exe = shutil.which("graphlab")
    if exe:
        commands.append([exe])
    for command in commands:
        out = subprocess.run([*command, "indices", "--k", "2", "--index", "wiener"],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["indices"]["wiener"] == {"kind": "integer", "value": "7"}


def _fresh_process_stdout(*argv):
    """Stdout of `python -m graphlab.cli argv` in a new interpreter on this
    checkout's src."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import graphlab

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(graphlab.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "graphlab.cli", *argv],
                         capture_output=True, text=True, env=env, check=True)
    return out.stdout


def test_parser_built_once_per_process(capsys, monkeypatch):
    import argparse

    from graphlab import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        with pytest.raises(SystemExit) as e:
            main(["gamma"])  # missing --k
        assert e.value.code == 2
        first_build = len(built)
        assert first_build > 0
        with pytest.raises(SystemExit) as e:
            main(["indices", "--k", "3", "--n", "6"])  # mutually exclusive
        assert e.value.code == 2
        capsys.readouterr()
        requests = (
            ["indices", "--k", "3", "--index", "randic,harmonic", "--format", "table"],
            ["indices", "--n", "12"],
            ["gamma", "--k", "2", "--emit", "dot"],
        )
        for argv in requests:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert out == _fresh_process_stdout(*argv)
        assert len(built) == first_build
    finally:
        cli.build_parser.cache_clear()


def test_indices_print_integers_beyond_str_digit_limit(capsys):
    """r1 and r2 of n = 735134400 (1344 divisors) have more digits than
    Python's default int/str conversion limit (4300 on 3.11+)."""
    import sys

    from graphlab import build_general, compute_index
    from graphlab.exact import value_from_json

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    g = build_general(735134400)
    want = {name: compute_index(g, name) for name in ("r1", "r2")}
    code, out, err = run_cli(capsys, "indices", "--n", "735134400", "--index", "r1,r2")
    assert code == 0, err
    doc = json.loads(out)["indices"]
    for name, v in want.items():
        assert len(doc[name]["value"]) > 4300
        assert value_from_json(doc[name]) == v
    code, out, err = run_cli(capsys, "indices", "--n", "735134400", "--index", "r1,r2",
                             "--format", "table")
    assert code == 0, err
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["r1", "r2"]
    for (name, exact_text, approx), v in zip(rows, want.values()):
        assert exact_text == approx == doc[name]["value"]
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_json_outputs_skip_the_pure_python_encoder(capsys, monkeypatch):
    """json.dumps with indent runs the pure-Python encoder below Python 3.13;
    no JSON output may reach it, and the bytes must stay those of a fresh
    process."""
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    requests = (
        ["indices", "--n", "5040", "--format", "json"],
        ["indices", "--k", "6", "--primes", "2,3,5,7,11,13"],
        ["gamma", "--k", "5", "--emit", "json"],
        ["divisor-graph", "--n", "720", "--emit", "json"],
        ["claims", "--format", "json"],
    )
    for argv in requests:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == _fresh_process_stdout(*argv)
