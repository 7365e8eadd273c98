import argparse
import collections
import contextlib
import csv
import errno
import importlib
import inspect
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shiftbinom import cli, oracle, sums
from shiftbinom.exact import ParameterError, as_float
from shiftbinom.sums import Family, Window


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "shiftbinom", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    for sub in ("verify", "coeffs", "seq", "compositions"):
        assert sub in cp.stdout


@pytest.mark.parametrize("argv", [["seq", "pi"], ["coeffs"]], ids=lambda argv: argv[0])
def test_window_help_shows_the_values_to_type(capsys, argv):
    with pytest.raises(SystemExit) as done:
        cli.main([argv[0], "--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert "--window {paper,symmetric}" in out and "Window." not in out
    ns = cli._build_parser(argv[0]).parse_args([*argv, "--window", "symmetric"])
    assert ns.window is Window.SYMMETRIC


def test_verify_identity_passes():
    cp = run_cli("verify", "identity", "--r", "2", "--l", "1,1,1", "--p", "1", "--q", "5")
    assert cp.returncode == 0, cp.stderr
    rec = json.loads(cp.stdout.strip())
    assert rec["check"] == "identity"
    assert rec["pass"] is True
    assert rec["abs_err"] < 1e-10


def test_verify_odd_equality_exact():
    cp = run_cli("verify", "odd-equality", "--r", "2", "--l", "1,1", "--a-max", "9")
    assert cp.returncode == 0, cp.stderr
    lines = [json.loads(line) for line in cp.stdout.strip().splitlines()]
    assert len(lines) == 5  # A = 1, 3, 5, 7, 9
    assert all(rec["abs_err"] == "exact" and rec["pass"] for rec in lines)


def test_verify_cg():
    cp = run_cli("verify", "cg", "--n", "4", "--g", "3")
    assert cp.returncode == 0, cp.stderr
    rec = json.loads(cp.stdout.strip())
    assert rec["pass"] and rec["abs_err"] == "exact"


@pytest.mark.parametrize("argv", [
    ["verify", "cg", "--n", "1", "--g", "1000000000"],
    ["seq", "agg", "--n", "1", "--g", "1000000000", "--m", "0"],
], ids=["verify-cg", "seq-agg"])
def test_cg_weight_of_a_short_composition_costs_nothing_in_g(capsys, argv):
    # a composition of fewer than g parts weighs its head prefactor alone;
    # padded with zero parts up to g it would be a tuple of 10^9 zeros here
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "verify":
        assert json.loads(out)["pass"]
    else:
        assert out.count("\n") == 2  # the header and the row at m = 0


def test_verify_all_passes():
    cp = run_cli("verify", "all", "--r", "2", "--l", "1,1", "--p", "1", "--q", "3",
                 "--n", "3", "--g", "2", "--a-max", "5")
    assert cp.returncode == 0, cp.stderr
    lines = [json.loads(line) for line in cp.stdout.strip().splitlines()]
    # `all` runs the checks in the order of cli._CHECKS, one record per odd A
    assert [rec["check"] for rec in lines] == [
        "identity", "odd-integral", "antisym-integral", "odd-equality[A=1]",
        "odd-equality[A=3]", "odd-equality[A=5]", "sum-rule", "cg",
    ]
    assert all(rec["pass"] for rec in lines)


def test_verify_failure_exits_1(monkeypatch):
    # force a wrong reference value through the library layer
    from shiftbinom import oracle

    def broken(spec, phase):
        return 1.0, 2.0

    monkeypatch.setattr(oracle, "even_expansion", broken)
    code = cli.main(["verify", "identity", "--r", "2", "--l", "1,1"])
    assert code == 1


def test_identity_passes_within_its_roundoff_bound(capsys):
    # abs_err here was 1.4e-9, above the fixed 1e-9 the derived bound replaced
    assert cli.main(["verify", "identity", "--r", "4", "--l", "2,2,2", "--q", "inf"]) == 0
    [rec] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert list(rec) == ["check", "lhs", "rhs", "abs_err", "bound", "pass"]
    assert rec["bound"] == oracle.identity_bound(sums.SumSpec(r=4, l=(2, 2, 2)))
    assert rec["abs_err"] <= rec["bound"] and rec["pass"]


@pytest.mark.parametrize("check, family, A", [
    ("identity", Family.EVEN, 0), ("odd-integral", Family.EVEN, 0), ("odd-integral", "rho1", 2),
    ("antisym-integral", Family.ANTISYM_EXACT, 2),
])
@pytest.mark.parametrize("r, l", [
    ("2", "1,1"), ("2", "1,1,1"), ("4", "1,1,1"), ("2", "2,2,2"), ("2", "1,2,1,1,1"),
])
def test_coefficient_moved_by_one_fails_its_integral_check(monkeypatch, capsys, check,
                                                           family, A, r, l):
    # rn <= 12: the roundoff bound sits far below the move, at the default
    # phase 1/3: |cos(0)| = 1 for identity, (1 - 2/3) |cos(0)| for the even
    # coefficient of odd-integral, |sin(2 pi/3)|/(2 pi) for its residue rho1
    # (at a = 0 it would be invisible: rho1_0 = 0 and sin(0) = 0), and
    # |sin(2 pi/3)|/pi for antisym-integral
    assert cli.main(["verify", check, "--r", r, "--l", l]) == 0

    class Moved(sums.Coefficients):
        def __call__(self, a):
            return super().__call__(a) + (a == A and self.family is family)

        def residues(self):
            rho1 = super().residues()
            if family == "rho1":
                rho1[A] = rho1.get(A, 0) + 1
            return rho1

    monkeypatch.setattr(oracle, "Coefficients", Moved)
    assert cli.main(["verify", check, "--r", r, "--l", l]) == 1
    assert [json.loads(line)["pass"] for line in capsys.readouterr().out.splitlines()] == [
        True, False]


@pytest.mark.parametrize("args", [
    ("verify", "all", "--r", "6", "--l", "3,2,2,1", "--p", "3", "--q", "11"),
    ("verify", "odd-integral", "--r", "2", "--l", "0,0", "--q", "inf"),
    ("verify", "all", "--r", "2", "--l", "6,6,6,6,6"),
    ("verify", "odd-integral", "--r", "2", "--l", "506,0"),
], ids=["all-r6-3,2,2,1", "odd-0,0-q-inf", "all-6,6,6,6,6", "odd-rn-1012"])
def test_odd_integral_passes_within_its_roundoff_bound(capsys, args):
    # each failed on correct code while the odd expansion was cut at |A| <= 399
    # and compared within a fixed 1e-6: its sum over every odd A has no cut
    assert cli.main(list(args)) == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert all(rec["pass"] for rec in recs)
    [odd] = [rec for rec in recs if rec["check"] == "odd-integral"]
    assert list(odd) == ["check", "lhs", "rhs", "abs_err", "bound", "pass"]
    r, l = int(args[args.index("--r") + 1]), args[args.index("--l") + 1].split(",")
    assert odd["bound"] == oracle.square_wave_bound(sums.SumSpec(r=r, l=tuple(map(int, l))))
    assert odd["abs_err"] <= odd["bound"]


def test_odd_equality_mismatch_reports_exact_difference(monkeypatch, capsys):
    # a sinc form twice the true one: every A fails, by exactly |lhs|
    monkeypatch.setattr(Family.ODD_SINC, "weight",
                        lambda d2: (2 * sums._sinc(d2)[0], sums._sinc(d2)[1]))
    assert cli.main(["verify", "odd-equality", "--r", "2", "--l", "1,1", "--a-max", "3"]) == 1
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(rec["lhs"], rec["rhs"], rec["abs_err"], rec["pass"]) for rec in recs] == [
        ("256/9", "512/9", "256/9", False),
        ("256/225", "512/225", "256/225", False),
    ]


def test_sum_rule_mismatch_reports_absolute_difference(monkeypatch, capsys):
    # a total below C(4, 2) = 6: abs_err is |total - target|, never negative
    monkeypatch.setattr(sums, "sum_rule_even", lambda spec: 1)
    assert cli.main(["verify", "sum-rule", "--r", "2", "--l", "1,1"]) == 1
    [rec] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert (rec["lhs"], rec["rhs"], rec["abs_err"], rec["pass"]) == ("1", "6", "5", False)


def test_cg_mismatch_reports_absolute_difference(monkeypatch, capsys):
    # each weight one too large: g*n*sum(c_g) exceeds C(gn, n) by g*n per composition
    from shiftbinom import sequences

    weight = sequences.cg_weight
    monkeypatch.setattr(sequences, "cg_weight", lambda comp: weight(comp) + 1)
    assert cli.main(["verify", "cg", "--n", "4", "--g", "3"]) == 1
    [rec] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    comps = len(list(sequences.enumerate_g_compositions(4, 3)))
    lhs = math.comb(12, 4) + 12 * comps
    assert (rec["lhs"], rec["rhs"], rec["abs_err"], rec["pass"]) == (
        str(lhs), "495", str(12 * comps), False)


@pytest.mark.parametrize("check, expansion", [
    ("identity", "even_expansion"),
    ("odd-integral", "odd_expansion"),
    ("antisym-integral", "antisym_expansion"),
])
def test_verify_integral_check_computes_only_its_expansion(monkeypatch, capsys, check, expansion):
    from shiftbinom import oracle

    def unused(*args, **kwargs):
        raise RuntimeError("an expansion of another check ran")

    for other in ("even_expansion", "odd_expansion", "antisym_expansion"):
        if other != expansion:
            monkeypatch.setattr(oracle, other, unused)
    assert cli.main(["verify", check, "--r", "2", "--l", "1,1,1", "--p", "1", "--q", "5"]) == 0
    [rec] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rec["check"] == check and rec["pass"]


@pytest.mark.parametrize("module, attr, argv", [
    ("sequences", "sweep", ["seq", "pi", "--l", "2", "--m", "1:3"]),
    ("sums", "Coefficients", ["coeffs", "--family", "even", "--r", "2", "--l", "1,1"]),
])
def test_internal_error_exits_3(monkeypatch, capsys, module, attr, argv):
    # a bug is neither a failed check (1) nor a usage error (2)
    def broken(*args, **kwargs):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(importlib.import_module(f"shiftbinom.{module}"), attr, broken)
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: invariant broken\n"
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("error, code, err", [
    (ValueError("cannot add values with different beta scales"), 3,
     "internal error: ValueError: cannot add values with different beta scales\n"),
    (ParameterError("r must be a positive even integer"), 2,
     "error: r must be a positive even integer\n"),
], ids=["internal", "parameter"])
def test_only_parameter_errors_exit_2(monkeypatch, capsys, error, code, err):
    # a ValueError from inside the library is a bug; only a ParameterError
    # (or the CLI's own UsageError) is a usage error
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli.sums, "Coefficients", broken)
    assert cli.main(["coeffs", "--family", "even", "--r", "2", "--l", "1,1"]) == code
    captured = capsys.readouterr()
    assert captured.err == err and captured.out == ""


_BAD_CONFIGS = {
    "zero.cfg": b"s=1/0\n",
    "q0.cfg": b"q=0\n",
    "xml.cfg": b"format=xml\n",
    "kind.cfg": b"kind=pi2\n",
    "check.cfg": b"check=all\n",
    "window.cfg": b"window=symmetric\n",
    "check-yes.cfg": b"n=4\ng=3\ncheck=yes\n",
    "latin1.cfg": b"m=1:3\n\xff\xfe=1\n",
    "negative-l.cfg": b"l=-1,2\n",
}


@pytest.mark.parametrize("args", [
    ("seq", "pis", "--l", "2", "--s", "1/0", "--m", "1"),
    ("seq", "pis", "--l", "2", "--m", "1", "--config", "{tmp}/zero.cfg"),
    ("seq", "pi", "--l", "2", "--m", "1", "--config", "{tmp}/missing.cfg"),
    ("seq", "pi", "--l", "2", "--config", "{tmp}/latin1.cfg"),
    ("seq", "pi", "--l", "2", "--m", "1", "--out", "{tmp}/missing/pi.csv"),
    # coeffs evaluates one truncation; a sweep would silently lose all but its first m
    ("coeffs", "--family", "shifted", "--r", "2", "--l", "1,1", "--a-max", "2", "--m", "10:50"),
    ("coeffs", "--family", "odd", "--r", "2", "--l", "1,1"),
    # q = 0 is not a spelling of q -> infinity
    ("verify", "identity", "--r", "2", "--l", "1,1", "--q", "0"),
    ("verify", "identity", "--r", "2", "--l", "1,1", "--config", "{tmp}/q0.cfg"),
    ("verify", "cg", "--q", "0"),
    # a config value is checked as the flag's own value
    ("seq", "pi", "--l", "2", "--m", "1", "--config", "{tmp}/xml.cfg"),
    # positional arguments are not config keys
    ("seq", "pi", "--l", "2", "--m", "1", "--config", "{tmp}/kind.cfg"),
    ("verify", "cg", "--config", "{tmp}/check.cfg"),
    # only seq and coeffs have half-integer windows
    ("compositions", "--n", "2", "--g", "2", "--window", "symmetric"),
    ("compositions", "--n", "2", "--g", "2", "--config", "{tmp}/window.cfg"),
    # verify cg checks g*n*sum(c_g) = C(gn, n); compositions only lists
    ("compositions", "--n", "4", "--g", "3", "--check"),
    ("compositions", "--config", "{tmp}/check-yes.cfg"),
    # a seq kind takes only the flags its builder names
    ("seq", "pi", "--l", "2", "--m", "3", "--r", "3"),
    ("seq", "pi", "--l", "2", "--m", "2", "--A", "7"),
    ("seq", "cum", "--r", "2", "--l", "1,1", "--m", "2", "--s", "1/3"),
    ("seq", "agg", "--n", "2", "--g", "2", "--m", "1", "--l", "5"),
    # only the kinds with a half-integer window take --window
    ("seq", "cum", "--r", "2", "--l", "1,1", "--m", "3", "--window", "symmetric"),
    ("seq", "agg", "--n", "2", "--g", "2", "--m", "1", "--window", "symmetric"),
    ("seq", "cum", "--r", "2", "--l", "1,1", "--m", "3", "--config", "{tmp}/window.cfg"),
    # the phase p/q is a verify flag alone: no family or kind depends on it
    ("seq", "pi", "--l", "2", "--m", "3", "--q", "0"),
    ("seq", "pi", "--l", "2", "--m", "3", "--p", "2"),
    ("seq", "agg", "--n", "2", "--g", "2", "--m", "1", "--q", "0", "--l", "5"),
    ("coeffs", "--family", "even", "--r", "2", "--l", "1,1", "--q", "5"),
    # coeffs rejects the flags it would ignore
    ("coeffs", "--family", "odd", "--r", "2", "--l", "1,1", "--a-max", "5", "--m", "7"),
    ("coeffs", "--family", "odd", "--r", "2", "--l", "1,1", "--a-max", "5", "--window", "paper"),
    ("coeffs", "--family", "even", "--r", "2", "--l", "1,1", "--a-min", "2"),
    # a verify check takes only the flags it reads
    ("verify", "cg", "--n", "3", "--g", "2", "--r", "3", "--l", "1", "--a-max", "-4"),
    ("verify", "sum-rule", "--r", "2", "--l", "1,1", "--p", "5", "--n", "0"),
    ("verify", "cg", "--n", "3", "--g", "2", "--r", "2"),
    ("verify", "identity", "--r", "2", "--l", "1,1", "--a-max", "3"),
    # a check with no A to check is a usage error, not a vacuous pass
    ("verify", "odd-equality", "--r", "2", "--l", "1,1", "--a-max", "0"),
    ("verify", "odd-equality", "--r", "2", "--l", "1,1", "--a-max", "-4"),
    # the odd expansion sums over every odd A, so it takes no cut
    ("verify", "odd-integral", "--r", "2", "--l", "1,1", "--odd-a-cut", "5"),
    # the float oracle takes r*n <= 1012: past it a sample, or an fsum, leaves double range
    ("verify", "identity", "--r", "2", "--l", "600,1"),
    ("verify", "identity", "--r", "2", "--l", "510,1"),
    # C(l, l/2 + k + s) at even l is symmetric in k only at s = 0: no symmetric window
    ("seq", "pis", "--l", "2", "--s", "1/3", "--m", "1:3", "--window", "symmetric"),
    ("seq", "pis2", "--l", "2", "--s", "1/3", "--m", "1:3", "--window", "symmetric"),
    # every parameter is checked before the table is written, so no --out file is made
    ("seq", "pi", "--l", "3", "--m", "1", "--out", "{tmp}/table.out"),
    ("coeffs", "--family", "shifted", "--r", "2", "--l", "1,1", "--a-max", "4",
     "--out", "{tmp}/table.out"),
    ("compositions", "--n", "0", "--g", "2", "--out", "{tmp}/table.out"),
], ids=["shift", "config-shift", "missing-config", "config-not-utf8", "out-directory",
        "coeffs-m-sweep",
        "odd-no-a-max", "q-zero", "config-q-zero", "verify-cg-q-zero", "config-format",
        "config-positional-kind", "config-positional-check", "compositions-window",
        "config-compositions-window", "compositions-check", "config-compositions-check",
        "seq-pi-r", "seq-pi-A", "seq-cum-s", "seq-agg-l",
        "seq-cum-window", "seq-agg-window", "config-seq-cum-window",
        "seq-q", "seq-p", "seq-agg-q-l", "coeffs-q", "coeffs-no-window-m",
        "coeffs-no-window-window", "coeffs-a-min-alone", "verify-cg-spec", "verify-sum-rule-p",
        "verify-cg-r", "verify-identity-a-max", "a-max-zero", "a-max-negative",
        "odd-a-cut-unrecognized", "oracle-sample-overflow", "oracle-fsum-overflow",
        "pis-even-l-symmetric", "pis2-even-l-symmetric", "seq-pi-odd-l-out",
        "coeffs-shifted-no-m-out", "compositions-n-zero-out"])
def test_bad_input_exits_2(tmp_path: Path, args):
    for name, data in _BAD_CONFIGS.items():
        (tmp_path / name).write_bytes(data)
    cp = run_cli(*(a.format(tmp=tmp_path) for a in args))
    assert cp.returncode == 2
    assert len([line for line in cp.stderr.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in cp.stderr and cp.stdout == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(_BAD_CONFIGS)


@pytest.mark.parametrize("args, p, q", [
    (("verify", "all", "--r", "2", "--l", "1,1"), 10**21 + 1, 3),
    (("verify", "identity", "--r", "4", "--l", "1,1,1,1"), 10**307, 1),
    (("verify", "identity", "--r", "2", "--l", "1,1"), 10**400, 7),
    (("verify", "odd-integral", "--r", "2", "--l", "1,1"), -10**400, 7),
    # a q, or a |p| < 2q once |p/q| < 2, past the largest double
    (("verify", "identity", "--r", "2", "--l", "1,1"), 19 * 10**307 + 1, 10**308),
    (("verify", "antisym-integral", "--r", "2", "--l", "1,1"), 1, 10**400),
    # p and q near the largest double, where pi |A| |p| is not one
    *[(("verify", check, "--r", "2", "--l", "1,1"), 10**308 - 1, 10**308 - 3)
      for check in ("identity", "odd-integral", "antisym-integral")],
], ids=["all-p-1e21", "identity-p-1e307", "identity-p-1e400", "odd-p-minus-1e400",
        "oracle-reduced-p-overflow", "oracle-q-overflow", "identity-phase-overflow",
        "odd-integral-phase-overflow", "antisym-integral-phase-overflow"])
def test_large_phase_is_reduced_exactly(args, p, q):
    """Every integrand has period 1 in p/q and the odd expansion period 2, so
    p/q less an even integer gives the same values; the oracle reduces each
    angle exactly in integers before any float is formed, and so passes at
    any size of p or q and gives the floats of p/q mod 2, less 2, bit for bit."""
    big = run_cli(*args, "--p", str(p), "--q", str(q))
    assert big.returncode == 0, big.stdout + big.stderr
    assert all(json.loads(line)["pass"] for line in big.stdout.splitlines())
    small = Fraction(p, q) % 2 - 2
    same = run_cli(*args, "--p", str(small.numerator), "--q", str(small.denominator))
    assert big.stdout == same.stdout and big.stderr == same.stderr == ""


@pytest.mark.parametrize("args, hint", [
    (("seq", "pi", "--l", "2", "--m", "abc"), "expected an integer or start:stop:stride"),
    (("seq", "pi", "--l", "2", "--m", "1:x"), "expected an integer or start:stop:stride"),
    (("verify", "odd-equality", "--l", "1,1", "--a-max", "x"), "expected a positive integer"),
    (("verify", "identity", "--l", "1,1", "--q", "2.5"), "expected a positive integer or inf"),
    (("seq", "pis", "--l", "3", "--s", "1.5", "--m", "3"), "shift must satisfy 0 < s < 1"),
    # a value that starts with - and a digit but is no plain number reaches its own check
    (("seq", "pis", "--l", "3", "--s", "-1/4", "--m", "1"),
     "shift must satisfy 0 < s < 1, not -1/4"),
    (("coeffs", "--family", "even", "--r", "2", "--l", "-1,2"), "parts must be non-negative"),
    (("seq", "pi", "--l", "2", "--m", "-1:3"), "m must be >= 1"),
    (("coeffs", "--family", "even", "--r", "2", "--config", "{tmp}/negative-l.cfg"),
     "parts must be non-negative"),
], ids=["m-word", "m-sweep-word", "a-max-word", "q-fraction", "shift-range",
        "negative-shift", "negative-part", "negative-m-sweep", "config-negative-part"])
def test_bad_flag_value_says_what_to_type(tmp_path: Path, args, hint):
    # argparse names the type function when it raises a bare ValueError
    for name, data in _BAD_CONFIGS.items():
        (tmp_path / name).write_bytes(data)
    cp = run_cli(*(a.format(tmp=tmp_path) for a in args))
    assert cp.returncode == 2 and cp.stdout == ""
    [error] = [line for line in cp.stderr.splitlines() if "error:" in line]
    assert hint in error and "_parse" not in cp.stderr and "Traceback" not in cp.stderr


@pytest.mark.parametrize("text, ms", [
    ("5", range(5, 6)),
    ("1:10000000", range(1, 10000001)),
    ("2:9:3", range(2, 10, 3)),
    ("-1:3", range(-1, 4)),
])
def test_m_sweep_is_a_range(text, ms):
    # a range, which sweep takes as it is, so no list of the m is made
    assert cli._parse_m_sweep(text) == ms


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_the_process_by_sigpipe():
    """A reader that closes stdout early ends the process as it ends `cat`:
    by SIGPIPE, with nothing on stderr.  The table (98 kB) is more than a
    pipe buffers, so the child writes to the closed pipe even if it started
    writing before the read end was closed."""
    child = subprocess.Popen(
        [sys.executable, "-m", "shiftbinom", "seq", "pi", "--l", "2", "--m", "1:300"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


def _sub_parser(command: str) -> argparse.ArgumentParser:
    parser = cli._build_parser(command)
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


def test_seq_flags_are_the_builder_parameters():
    """Every parameter of a `_KINDS` builder maps onto a seq flag (spec onto
    --r and --l), and every seq flag that not every kind takes is a
    parameter of some builder."""
    from shiftbinom.sequences import _KINDS

    def kind_flags(kind):
        return cli._flags(cli._kind_params(kind)[0])

    seq = _sub_parser("seq")
    parser_flags = {a.dest for a in seq._actions if a.option_strings}
    builder_flags = set()
    for kind, build in _KINDS.items():
        assert set(kind_flags(kind)) <= parser_flags, kind
        builder_flags.update(kind_flags(kind))
    assert kind_flags("ratio-pi") == ["r", "l", "A", "window"]
    assert kind_flags("agg") == ["n", "g", "r"]
    assert parser_flags - {"help", "config", "format", "out", "m"} == builder_flags
    # a kind flag has no parser default, so that a given one can be told
    assert all(a.default is None for a in seq._actions if a.dest in builder_flags)


@pytest.mark.parametrize("command", ["verify", "coeffs", "seq"])
def test_help_states_the_defaults_in_use(capsys, command):
    """Each "(default X)" in a subcommand's --help is the default the code
    uses when the flag is not given, and each default the code uses is
    stated: those in the signatures of the verify runners, the seq builders
    and sums.Coefficients, the r of _build_spec, and stdout for --out."""
    from shiftbinom.sequences import _KINDS

    stated = {a.dest: {found[1]} for a in _sub_parser(command)._actions
              if (found := re.search(r"\(default ([^)]+)\)", a.help or ""))}
    runners = {"verify": [run for _, run in cli._CHECKS.values()],
               "coeffs": [sums.Coefficients], "seq": list(_KINDS.values())}[command]
    used = collections.defaultdict(set)
    for run in runners:
        for param in inspect.signature(run).parameters.values():
            if param.default not in (param.empty, None):
                used[param.name].add(str(getattr(param.default, "value", param.default)))
    used["r"].add(str(cli._build_spec(argparse.Namespace(r=None, l=(1, 1))).r))
    if command != "verify":
        cli._emit([{"x": 1}], ["x"], "csv", None)
        if capsys.readouterr().out == "x\n1\n":
            used["out"].add("stdout")
    assert stated == used


def test_emit_writes_each_row_as_it_comes():
    """A CSV row is on stdout before the next one is asked for, so no copy of
    the table is held."""
    out = io.StringIO()

    def rows():
        yield {"m": 1}
        assert out.getvalue() == "m\n1\n"
        yield {"m": 2}

    with contextlib.redirect_stdout(out):
        cli._emit(rows(), ["m"], "csv", None)
    assert out.getvalue() == "m\n1\n2\n"


def test_seq_writes_its_first_row_before_its_last_record_is_computed(monkeypatch):
    """`seq` hands _emit the records as sweep yields them, so no record is
    held: when the record at the last m is computed, the header and the rows
    of every m before it are already on stdout."""
    from shiftbinom import sequences

    out, record, seen = io.StringIO(), sequences._record, []

    def watched(m, *args):
        if m == 5:
            seen.append(out.getvalue())
        return record(m, *args)

    monkeypatch.setattr(sequences, "_record", watched)
    with contextlib.redirect_stdout(out):
        assert cli.main(["seq", "pi", "--l", "2", "--m", "1:5"]) == 0
    lines = out.getvalue().splitlines(keepends=True)
    assert lines[1].startswith("1,44,15,")
    assert seen == ["".join(lines[:5])]


def test_coeffs_computes_each_row_as_it_is_written(monkeypatch):
    """`coeffs` hands _emit its rows as it computes them, so no table is
    held: when the first data row reaches stdout, one coefficient of 20001
    has been computed."""
    calls, written, call = [], [], sums.Coefficients.__call__

    def counted(coeffs, A):
        calls.append(A)
        return call(coeffs, A)

    class Stdout(io.StringIO):
        def write(self, text):
            written.append((text, len(calls)))
            return super().write(text)

    monkeypatch.setattr(sums.Coefficients, "__call__", counted)
    with contextlib.redirect_stdout(Stdout()):
        assert cli.main(["coeffs", "--family", "even", "--r", "2", "--l", "1,1",
                         "--a-min", "-20000", "--a-max", "20000"]) == 0
    assert written[:2] == [("A,num,den,pi_exp,float\n", 1), ("-20000,0,1,0,0.0\n", 1)]
    assert len(calls) == 20001


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_exact_digits_past_the_int_str_limit(capsys, fmt):
    # the denominator at m = 5000 has more digits than str() allows by default
    from shiftbinom.sequences import sweep

    outer = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert cli.main(["seq", "pi", "--l", "2", "--m", "5000", "--format", fmt]) == 0
        assert sys.get_int_max_str_digits() == 4300
        out = capsys.readouterr().out
        sys.set_int_max_str_digits(0)
        rows = list(csv.DictReader(io.StringIO(out))) if fmt == "csv" else json.loads(out)
        [row] = rows
        exact = next(sweep("pi", [5000], l=2)).exact
        assert len(row["den"]) > 4300
        assert Fraction(int(row["num"]), int(row["den"])) == exact
    finally:
        sys.set_int_max_str_digits(outer)


@pytest.mark.parametrize("rows", [0, 1, 64, 65, 129])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_emit_json_blocks_join_to_the_dump_of_the_whole_list(tmp_path: Path, rows, to_file):
    """JSON is written in blocks of 64 rows, whose bytes join to those of one
    dump of the whole list, the empty list and a block boundary included."""
    table = [{"m": m, "num": str(7**m), "float": m / 3, "pass": m % 2 == 0} for m in range(rows)]
    out, path = io.StringIO(), tmp_path / "table.json"
    with contextlib.redirect_stdout(out):
        cli._emit(iter(table), ["m", "num", "float", "pass"], "json", str(path) if to_file else None)
    written = path.read_text(encoding="utf-8") if to_file else out.getvalue()
    assert written == json.dumps(table, indent=2) + "\n"
    assert out.getvalue() == ("" if to_file else written)


def test_seq_writes_its_first_json_block_before_its_last_record_is_computed(monkeypatch):
    """A JSON `seq` holds no more than one block of 64 rows: when the record
    at m = 70 is computed, the rows of m = 1..64 are already on stdout."""
    from shiftbinom import sequences

    out, record, seen = io.StringIO(), sequences._record, []

    def watched(m, *args):
        if m == 70:
            seen.append(out.getvalue())
        return record(m, *args)

    monkeypatch.setattr(sequences, "_record", watched)
    with contextlib.redirect_stdout(out):
        assert cli.main(["seq", "pi", "--l", "2", "--m", "1:70", "--format", "json"]) == 0
    [before] = seen
    assert out.getvalue().startswith(before)
    assert json.loads(before + "\n]") == json.loads(out.getvalue())[:64]


class _FullStdout(io.StringIO):
    """A stdout on a full device: `write`, or only `flush`, raises ENOSPC."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def _full(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        return self._full() if self.failing == "write" else super().write(text)

    def flush(self):
        return self._full() if self.failing == "flush" else super().flush()


_EVERY_COMMAND = {
    "seq": ["seq", "pi", "--l", "2", "--m", "1"],
    "seq-json": ["seq", "pi", "--l", "2", "--m", "1", "--format", "json"],
    "coeffs": ["coeffs", "--family", "even", "--r", "2", "--l", "1,1"],
    "compositions": ["compositions", "--n", "3", "--g", "2"],
    "verify": ["verify", "sum-rule", "--r", "2", "--l", "1,1"],
}


@pytest.mark.parametrize("failing", ["write", "flush", "closed"])
@pytest.mark.parametrize("command", _EVERY_COMMAND)
def test_failed_stdout_write_exits_2(capsys, command, failing):
    """A write to stdout that fails is a usage error of the destination, as
    a failed --out is: one `error:` line and exit 2, on every subcommand.
    A stdout whose fd was closed at start-up, which Python sets to None,
    fails as a write to a closed fd does."""
    closed = failing == "closed"
    with contextlib.redirect_stdout(None if closed else _FullStdout(failing)):
        assert cli.main(_EVERY_COMMAND[command]) == 2
    reason = os.strerror(errno.EBADF if closed else errno.ENOSPC)
    assert capsys.readouterr().err == f"error: cannot write stdout: {reason}\n"


@pytest.mark.parametrize("command", [c for c in _EVERY_COMMAND if c != "verify"])
def test_out_leaves_a_closed_stdout_alone(tmp_path: Path, command):
    """A table written to --out touches no stdout, so a closed one (None)
    changes neither the exit code nor the file's bytes."""
    path = tmp_path / "table.out"
    assert _main([*_EVERY_COMMAND[command], "--out", str(path)], "stdout") == (0, "", "")
    assert path.read_text(encoding="utf-8") == _main(_EVERY_COMMAND[command])[1]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["seq", "verify"])
def test_stdout_on_a_full_device_exits_2_once(command, buffered):
    """A process whose stdout is full reports it once, and exits 2: a
    buffered stdout is not flushed again at exit, which would report the
    failure a second time and exit 120."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        cp = subprocess.run([sys.executable, *([] if buffered else ["-u"]), "-m", "shiftbinom",
                             *_EVERY_COMMAND[command]],
                            stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert (cp.returncode, cp.stderr) == (2, "error: cannot write stdout: No space left on device\n")


# a run that ends with each exit code, once _exit_with has broken what it
# needs; long-p is a usage error that argparse reports itself
_EVERY_EXIT = {
    "ok": (["seq", "pi", "--l", "2", "--m", "5000"], 0),
    "failed-check": (["verify", "identity", "--r", "2", "--l", "1,1"], 1),
    "usage": (["coeffs", "--family", "odd", "--r", "2", "--l", "1,1"], 2),
    "internal": (["seq", "pi", "--l", "2", "--m", "1:3"], 3),
    "long-p": (["verify", "identity", "--r", "2", "--l", "1,1", "--p", "1" * 5000], 2),
}


def _exit_with(monkeypatch, code: int) -> None:
    """Break the oracle for the failed check (1), and sweep for the bug (3)."""
    from shiftbinom import sequences

    if code == 1:
        monkeypatch.setattr(oracle, "even_expansion", lambda spec, phase: (1.0, 2.0))
    if code == 3:
        monkeypatch.setattr(sequences, "sweep", lambda *args, **kwargs: 1 / 0)


@pytest.mark.parametrize("argv, code", _EVERY_EXIT.values(), ids=_EVERY_EXIT)
def test_main_restores_the_int_str_digit_limit(monkeypatch, argv, code):
    """main lifts the digit limit for the run alone: every exit leaves the
    caller's limit as it was, and a flag value is parsed under it, so a
    5000-digit --p is still a usage error."""
    _exit_with(monkeypatch, code)
    outer = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert _main(argv)[0] == code
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(outer)


@pytest.mark.parametrize("argv, code", _EVERY_EXIT.values(), ids=_EVERY_EXIT)
def test_closed_stderr_keeps_the_exit_code(monkeypatch, argv, code):
    """With stderr closed (None), every exit keeps its code and its stdout,
    and nothing is printed: argparse's own usage error, which it would write
    to stdout in place of a missing stderr, included."""
    _exit_with(monkeypatch, code)
    _, out, _ = _main(argv)
    assert _main(argv, "stderr") == (code, out, "")


# Runs in a fresh interpreter in which importing numpy fails and is recorded,
# so a caught ImportError (a fallback) is seen too, and checks that only the
# integral checks load the oracle; exits non-zero with a message on any
# breach, without assert, so the check also holds under -O.
_NUMPY_FREE_CHILD = """
import contextlib, os, sys

attempts = []

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            attempts.append(name)
            raise ImportError(f"numpy is blocked: {name}")
        return None

sys.meta_path.insert(0, NoNumpy())
from shiftbinom import cli

def run(argv):
    if argv:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"{argv}: exit {code}")
    if attempts or "numpy" in sys.modules:
        sys.exit(f"{argv or 'import shiftbinom.cli'} imported numpy: {attempts}")

spec = ["--r", "2", "--l", "1,1"]
for argv in (
    [],
    ["seq", "pi", "--l", "2", "--m", "1:3"],
    ["coeffs", "--family", "odd", *spec, "--a-min", "1", "--a-max", "5"],
    ["compositions", "--n", "3", "--g", "3"],
    ["verify", "odd-equality", *spec, "--a-max", "3"],
    ["verify", "sum-rule", *spec],
    ["verify", "cg", "--n", "3", "--g", "3"],
):
    run(argv)
if "shiftbinom.oracle" in sys.modules:
    sys.exit("a command that does not integrate loaded the oracle")
for argv in (
    ["verify", "identity", *spec],
    ["verify", "odd-integral", *spec],
    ["verify", "antisym-integral", *spec],
    ["verify", "all", *spec, "--n", "3", "--g", "2"],
):
    run(argv)
if "shiftbinom.oracle" not in sys.modules:
    sys.exit("the verify integral checks ran without the oracle")
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_no_subcommand_imports_numpy(flags):
    cp = subprocess.run([sys.executable, *flags, "-c", _NUMPY_FREE_CHILD],
                        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


# Runs one command, given as its arguments, in a fresh interpreter and prints,
# one a line, the modules that it loaded and that were not loaded before
# shiftbinom.cli was imported; a command that exits non-zero exits non-zero.
_IMPORTS_CHILD = """
import contextlib, os, sys

before = set(sys.modules)
from shiftbinom import cli

with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = cli.main(sys.argv[1:])
if code != 0:
    sys.exit(f"exit {code}")
print("\\n".join(sorted(set(sys.modules) - before)))
"""

_SPEC = ["--r", "2", "--l", "1,1"]
# each command, and the modules that it runs without: every command imports
# only what it runs, and seq reads the builders' parameters without inspect;
# none loads typing, which only a run under -S shows, since a site .pth file
# may import it before shiftbinom.cli is
_UNUSED_IMPORTS = {
    "coeffs": (["coeffs", "--family", "odd", *_SPEC, "--a-min", "1", "--a-max", "5"],
               {"shiftbinom.sequences", "shiftbinom.oracle", "inspect", "dataclasses", "json"}),
    "compositions": (["compositions", "--n", "3", "--g", "3"], {"inspect", "dataclasses"}),
    "verify-cg": (["verify", "cg", "--n", "3", "--g", "3"], {"inspect", "dataclasses"}),
    "verify-sum-rule": (["verify", "sum-rule", *_SPEC], {"inspect", "dataclasses"}),
    "verify-odd-equality": (["verify", "odd-equality", *_SPEC, "--a-max", "3"],
                            {"inspect", "dataclasses"}),
    "seq": (["seq", "pi", "--l", "2", "--m", "1:3"],
            {"json", "shiftbinom.oracle", "inspect", "dataclasses"}),
}


@pytest.mark.parametrize("flags", [(), ("-O",), ("-S",)])
@pytest.mark.parametrize("command", _UNUSED_IMPORTS)
def test_each_command_imports_only_what_it_runs(command, flags):
    argv, unused = _UNUSED_IMPORTS[command]
    # under -S the package is found through PYTHONPATH, not site-packages
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    cp = subprocess.run([sys.executable, *flags, "-c", _IMPORTS_CHILD, *argv],
                        capture_output=True, text=True, env=env)
    assert cp.returncode == 0, cp.stderr
    loaded = (unused | {"typing"}) & set(cp.stdout.split())
    assert not loaded, f"{' '.join(argv)} imported {sorted(loaded)}"

def test_coeffs_even_support(tmp_path: Path):
    out = tmp_path / "even.csv"
    cp = run_cli("coeffs", "--family", "even", "--r", "2", "--l", "1,1", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "A,num,den,pi_exp,float"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [("-2", "1"), ("0", "4"), ("2", "1")]
    assert all(r[3] == "0" for r in rows)


def test_coeffs_odd_range():
    cp = run_cli("coeffs", "--family", "odd", "--r", "2", "--l", "1,1",
                 "--a-min", "-5", "--a-max", "5")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert len(lines) == 7  # header + six odd A rows
    assert all(line.split(",")[3] == "2" for line in lines[1:])


def test_coeffs_rows_reparse_to_exact_values():
    from shiftbinom.sums import Coefficients, SumSpec

    cp = run_cli("coeffs", "--family", "odd", "--r", "2", "--l", "1,1",
                 "--a-min", "1", "--a-max", "7", "--format", "json")
    assert cp.returncode == 0
    odd = Coefficients(SumSpec(r=2, l=(1, 1)), Family.ODD)
    for row in json.loads(cp.stdout):
        assert Fraction(int(row["num"]), int(row["den"])) == odd(row["A"])
        assert row["pi_exp"] == Family.ODD.pi_exp


def test_coeffs_float_overflow_csv():
    # C(1200, 600)^2 is far outside double range: exact num/den, float "inf"
    cp = run_cli("coeffs", "--family", "even", "--r", "2", "--l", "600,600")
    assert cp.returncode == 0, cp.stderr
    assert "Traceback" not in cp.stderr
    rows = {r[0]: r for r in (line.split(",") for line in cp.stdout.splitlines()[1:])}
    assert rows["0"][1:4] == [str(math.comb(1200, 600) ** 2), "1", "0"]
    assert rows["0"][4] == "inf"
    assert rows["-1200"][4] == "1.0"


def test_coeffs_float_overflow_json():
    cp = run_cli("coeffs", "--family", "even", "--r", "2", "--l", "600,600",
                 "--format", "json")
    assert cp.returncode == 0, cp.stderr
    assert '"float": Infinity' in cp.stdout
    rows = {row["A"]: row for row in json.loads(cp.stdout)}
    assert rows[0]["num"] == str(math.comb(1200, 600) ** 2)
    assert rows[0]["float"] == math.inf


def test_float_column_outside_double_range():
    big = Fraction(10**309)
    assert as_float(big, 0) == math.inf
    assert as_float(-big, 1) == -math.inf
    # the rational overflows but its value 10^309 / pi^2 does not
    assert as_float(big, 2) == pytest.approx(10 * (1e308 / math.pi**2))
    # the seq columns take plain rationals and integers
    assert as_float(-big) == -math.inf
    assert as_float(10**309) == math.inf
    assert as_float(Fraction(1, 3)) == 1 / 3


@pytest.mark.parametrize("args", [
    ("seq", "cum", "--r", "2", "--l", "300,300", "--m", "0:1"),
    # agg takes the same path; a small n keeps the composition count small
    ("seq", "agg", "--n", "2", "--g", "2", "--r", "600", "--m", "0"),
])
def test_seq_float_overflow_csv(args):
    # the partial sums and the target pi^2*C(1200,600)*... lie far outside double range
    cp = run_cli(*args)
    assert cp.returncode == 0, cp.stderr
    assert "Traceback" not in cp.stderr
    rows = list(csv.DictReader(io.StringIO(cp.stdout)))
    assert rows
    for row in rows:
        assert Fraction(int(row["num"]), int(row["den"])) > 10**308
        assert row["float"] == row["abs_error"] == "inf"
        assert row["target"].endswith("=inf")


def test_seq_float_overflow_json():
    from shiftbinom.sequences import sweep
    from shiftbinom.sums import SumSpec

    cp = run_cli("seq", "cum", "--r", "2", "--l", "300,300", "--m", "0", "--format", "json")
    assert cp.returncode == 0, cp.stderr
    assert '"float": Infinity' in cp.stdout and '"abs_error": Infinity' in cp.stdout
    [row] = json.loads(cp.stdout)
    assert row["float"] == row["abs_error"] == math.inf
    assert row["target"] == "pi^2*C(rn,rn/2)=inf"
    exact = next(sweep("cum", [0], spec=SumSpec(r=2, l=(300, 300)))).exact
    assert (row["num"], row["den"]) == (str(exact.numerator), str(exact.denominator))


def test_coeffs_wrong_parity_exits_2():
    cp = run_cli("coeffs", "--family", "odd", "--r", "2", "--l", "1,1",
                 "--a-min", "2", "--a-max", "2")
    assert cp.returncode == 2
    assert "parity" in cp.stderr


def test_coeffs_windowed_family_needs_m():
    # the library reports the missing m: at each call for shifted, with W for four
    cp = run_cli("coeffs", "--family", "shifted", "--r", "2", "--l", "1,1",
                 "--a-max", "4")
    assert cp.returncode == 2
    cp = run_cli("coeffs", "--family", "four", "--r", "2", "--l", "1,1,1,1", "--a-max", "4")
    assert cp.returncode == 2 and "truncation m" in cp.stderr and cp.stdout == ""
    cp = run_cli("coeffs", "--family", "shifted", "--r", "2", "--l", "1,1",
                 "--a-max", "4", "--m", "3")
    assert cp.returncode == 0


def test_coeffs_empty_support_exits_0():
    # n = 0 walk: support is {0}; an explicit even range away from it still
    # emits rows (zero coefficients), exit 0
    cp = run_cli("coeffs", "--family", "even", "--r", "2", "--l", "0,0",
                 "--a-min", "4", "--a-max", "6")
    assert cp.returncode == 0
    lines = cp.stdout.strip().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "0"]


def test_seq_pi_first_row():
    cp = run_cli("seq", "pi", "--l", "2", "--m", "1:5:1")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "m,num,den,float,target,abs_error"
    first = lines[1].split(",")
    assert (first[0], first[1], first[2]) == ("1", "44", "15")


def test_seq_ratio_pi_zero_denominator_exits_2():
    cp = run_cli("seq", "ratio-pi", "--r", "2", "--l", "1,1", "--A", "0", "--m", "5")
    assert cp.returncode == 2
    assert "vanishes" in cp.stderr


def test_seq_pis_odd_rejects_half_shift():
    cp = run_cli("seq", "pis-odd", "--l", "1", "--s", "1/2", "--m", "5")
    assert cp.returncode == 2


@pytest.mark.parametrize("args, target", [
    (("seq", "pis", "--l", "3", "--s", f"1/{10**400}"), "pi/sin(pi*s)=inf"),
    (("seq", "pis-odd", "--l", "1", "--s", f"1/{10**400}"), "pi/(sin(pi*s)*cos(pi*s))=inf"),
    (("seq", "pis2", "--l", "2", "--s", f"1/{10**200}"), "(pi/sin(pi*s))^2=inf"),
    (("seq", "pis", "--l", "2", "--s", f"1/{10**18}"), "pi/sin(pi*s)=1e+18"),
    (("seq", "pis", "--l", "2", "--s", f"{10**18 - 1}/{10**18}"), "pi/sin(pi*s)=1e+18"),
    (("seq", "pis-odd", "--l", "1", "--s", f"{5 * 10**17 - 1}/{10**18}"),
     "pi/(sin(pi*s)*cos(pi*s))=1e+18"),
], ids=["pis-tiny", "pis-odd-tiny", "pis2-tiny", "pis-near-0", "pis-near-1", "pis-odd-near-half"])
def test_seq_pis_target_from_the_distance_to_an_integer(capsys, args, target):
    # the float is formed from the exact distance of s (2s for pis-odd) to
    # the nearest integer, so s near 1 keeps its digits, and past double
    # range the target is inf, not a crash
    assert cli.main([*args, "--m", "1"]) == 0
    out, err = capsys.readouterr()
    [row] = csv.DictReader(io.StringIO(out))
    assert row["target"] == target and err == ""


def test_seq_pis_kinds_reject_shift_out_of_range(capsys):
    # one check of 0 < s < 1 in the library serves every pis* kind
    for kind, l in (("pis", "2"), ("pis2", "2"), ("pis-odd", "1")):
        for s in ("0", "1", "3/2", "-1/4"):
            assert cli.main(["seq", kind, "--l", l, f"--s={s}", "--m", "1"]) == 2, (kind, s)
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: shift must satisfy 0 < s < 1, not {s}\n"


def test_seq_agg_error_column_decreases():
    cp = run_cli("seq", "agg", "--n", "2", "--g", "2", "--r", "2", "--m", "0:16:4",
                 "--format", "json")
    assert cp.returncode == 0, cp.stderr
    rows = json.loads(cp.stdout)
    errs = [row["abs_error"] for row in rows]
    assert errs[-1] < errs[0]
    for row in rows:
        assert row["target"].startswith("pi^2*C(rn,rn/2)*C(gn,n)=")


def test_compositions_listing():
    cp = run_cli("compositions", "--n", "2", "--g", "2")
    assert cp.returncode == 0 and cp.stderr == ""
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "parts,num,den"
    assert lines[1].split(",") == ["2", "1", "2"]
    assert lines[2] == '"1,1",1,1'


def test_compositions_bad_params_exit_2():
    assert run_cli("compositions", "--n", "0", "--g", "2").returncode == 2
    assert run_cli("compositions", "--n", "2", "--g", "1").returncode == 2


def test_determinism_byte_identical(tmp_path: Path):
    """Identical invocations write identical bytes, to stdout or to --out."""
    out = tmp_path / "table.out"
    for args in [
        ("seq", "pi2", "--l", "2", "--m", "1:20:3"),
        ("seq", "pi", "--l", "2", "--m", "1:5", "--format", "json"),
        ("coeffs", "--family", "antisym-exact", "--r", "2", "--l", "1,1,1"),
        ("coeffs", "--family", "odd", "--r", "2", "--l", "1,1", "--a-min", "1", "--a-max", "9",
         "--format", "json"),
        ("compositions", "--n", "4", "--g", "3"),
        ("compositions", "--n", "4", "--g", "3", "--format", "json"),
    ]:
        a, b = run_cli(*args), run_cli(*args, "--out", str(out))
        assert a.returncode == b.returncode == 0 and a.stdout and b.stdout == "", args
        assert out.read_bytes() == a.stdout.encode("utf-8"), args


@pytest.mark.parametrize("args", [
    ("seq", "pis", "--l", "3", "--s", "1/3", "--m", "1:3"),
    ("seq", "cum", "--r", "2", "--l", "1,1", "--m", "0:3"),
])
def test_optimized_interpreter_output_identical(args):
    # the beta-power invariants are real checks, so python -O changes nothing
    base = run_cli(*args)
    opt = subprocess.run([sys.executable, "-O", "-m", "shiftbinom", *args],
                         capture_output=True, text=True)
    assert base.returncode == opt.returncode == 0, opt.stderr
    assert base.stdout == opt.stdout and base.stdout


def test_workers_option_is_rejected(tmp_path: Path):
    # sweeps run in one process; the former --workers flag is a usage error
    cp = run_cli("seq", "cum", "--r", "2", "--l", "1,1", "--m", "0:12:1", "--workers", "2")
    assert cp.returncode == 2
    assert "error:" in cp.stderr and "Traceback" not in cp.stderr
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers=2\n", encoding="utf-8")
    cp = run_cli("seq", "cum", "--r", "2", "--l", "1,1", "--m", "0:12:1", "--config", str(cfg))
    assert cp.returncode == 2
    assert "error:" in cp.stderr and "Traceback" not in cp.stderr


def test_config_file_and_flag_override(tmp_path: Path):
    cfg = tmp_path / "run.cfg"
    # no r=2 here: a config value is a given flag, and kind pi takes no --r
    cfg.write_text("l=1,1\nm=1:3:1\nformat=json\n", encoding="utf-8")
    cp = run_cli("seq", "pi", "--l", "2", "--config", str(cfg))
    assert cp.returncode == 0, cp.stderr
    rows = json.loads(cp.stdout)  # format came from the file
    assert rows[0]["num"] == "44"  # --l 2 overrode the file's l=1,1
    assert [row["m"] for row in rows] == [1, 2, 3]
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense\n", encoding="utf-8")
    assert run_cli("seq", "pi", "--l", "2", "--m", "1", "--config", str(bad)).returncode == 2


@pytest.mark.parametrize("command, config, flags", [
    (("seq", "pi"), "l=2\nm=1:3:1\nformat=json\nwindow=symmetric\n",
     ("--l", "2", "--m", "1:3:1", "--format", "json", "--window", "symmetric")),
    (("seq", "pis"), "l=3\ns=1/3\nm=1:4\n", ("--l", "3", "--s", "1/3", "--m", "1:4")),
    # a-max and a_max name the same flag
    (("coeffs",), "family=odd\nr=2\nl=1,1\na-min=1\na_max=7\n",
     ("--family", "odd", "--r", "2", "--l", "1,1", "--a-min", "1", "--a-max", "7")),
    (("verify", "identity"), "r=2\nl=1,1\nq=inf\n", ("--r", "2", "--l", "1,1", "--q", "inf")),
], ids=["seq-pi", "seq-pis", "coeffs-odd", "verify-q-inf"])
def test_config_file_matches_flags(tmp_path: Path, command, config, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config, encoding="utf-8")
    by_flags = run_cli(*command, *flags)
    by_file = run_cli(*command, "--config", str(cfg))
    assert by_flags.returncode == by_file.returncode == 0, by_file.stderr
    assert by_file.stdout == by_flags.stdout and by_file.stdout
    assert by_file.stderr == by_flags.stderr


def test_coeffs_default_range_builds_tail_weights_once(monkeypatch, capsys):
    # the even support and the table come from one set of tail weights
    builds = []
    tail_weights = cli.sums._tail_weights

    def counting(*args, **kwargs):
        builds.append(args)
        return tail_weights(*args, **kwargs)

    monkeypatch.setattr(cli.sums, "_tail_weights", counting)
    assert cli.main(["coeffs", "--family", "even", "--r", "2", "--l", "3,3,3,3,3"]) == 0
    assert capsys.readouterr().out.startswith("A,num,den,pi_exp,float\n")
    assert len(builds) == 1


def test_verify_all_builds_tail_weights_once_per_coefficients(monkeypatch, capsys):
    # one W per sums.Coefficients: one for each integral check, two for
    # odd-equality, one for sum-rule, none for cg
    builds = []
    tail_weights = cli.sums._tail_weights

    def counting(*args, **kwargs):
        builds.append(args)
        return tail_weights(*args, **kwargs)

    monkeypatch.setattr(cli.sums, "_tail_weights", counting)
    argv = ["verify", "all", "--r", "4", "--l", "2,2,2", "--p", "2", "--q", "7",
            "--n", "6", "--g", "3"]
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10
    assert len(builds) == 6


def test_q_infinity_sentinel():
    cp = run_cli("verify", "identity", "--r", "2", "--l", "1,1", "--q", "inf")
    assert cp.returncode == 0
    rec = json.loads(cp.stdout.strip())
    assert rec["rhs"] == pytest.approx(6.0)


def test_json_mirrors_csv_fields():
    csv_run = run_cli("coeffs", "--family", "even", "--r", "2", "--l", "1,1")
    json_run = run_cli("coeffs", "--family", "even", "--r", "2", "--l", "1,1",
                       "--format", "json")
    header = csv_run.stdout.splitlines()[0].split(",")
    rows = json.loads(json_run.stdout)
    assert list(rows[0].keys()) == header


# --------------------- the exit-code contract, fuzzed ---------------------

_HUGE = 10**400
_BIG = st.one_of(st.integers(-_HUGE, _HUGE), st.integers(-4, 4))
_POSITIVE = st.integers(1, _HUGE)


def _text(*strategies):
    return st.one_of(*strategies).map(str)


def _joined(parts):
    return parts.map(lambda l: ",".join(map(str, l)))


# Each flag's values: first those in range, towards which hypothesis leans,
# so that every variant runs as well as rejects, then any value.  Those that
# set no amount of work (--p, --q, --s, --A, --a-min) reach +-10^400, and
# extreme fractions; the others stay small.
_VALUES = {
    "r": _text(st.sampled_from([2, 4]), st.integers(-2, 7)),
    "spec-l": _joined(st.one_of(st.lists(st.integers(0, 3), min_size=2, max_size=4),
                                st.lists(st.integers(-1, 3), min_size=1, max_size=4))),
    "l": _joined(st.one_of(st.lists(st.integers(0, 4), min_size=1, max_size=1),
                           st.lists(st.integers(-1, 3), min_size=1, max_size=3))),
    "p": _text(_BIG),
    "q": st.one_of(st.just("inf"), _text(_POSITIVE), _text(_BIG)),
    "s": st.one_of(
        st.builds(lambda a, b: f"{a}/{a + b}", _POSITIVE, _POSITIVE),  # in (0, 1)
        st.builds(lambda b: f"1/{b}", _POSITIVE),
        st.builds(lambda b: f"{b - 1}/{b}", _POSITIVE),
        st.builds(lambda a, b: f"{a}/{b}", _BIG, _BIG),
        _text(_BIG),
    ),
    "A": _text(st.integers(-3, 3).map(lambda a: 2 * a), _BIG),
    "a_min": _text(_BIG),
    "a_max": st.integers(-2, 12),  # the width of the A range, from --a-min or 0
    "n": _text(st.integers(1, 4), st.integers(-1, 4)),
    "g": _text(st.integers(2, 4), st.integers(-1, 4)),
    "m": st.one_of(_text(st.integers(1, 6)),
                   st.builds(lambda a, w: f"{a}:{a + w}", st.integers(0, 4), st.integers(0, 5)),
                   st.builds(lambda a, w: f"{a}:{a + w}", st.integers(-1, 4), st.integers(-1, 5)),
                   _text(st.integers(-2, 6))),
    "window": st.sampled_from(["paper", "symmetric"]),
    "format": st.sampled_from(["csv", "json"]),
}
# each subcommand's variants, with the flags each takes
_VARIANTS = {
    "verify": {**{check: cli._flags(params) for check, (params, _) in cli._CHECKS.items()},
               "all": ["r", "l", "p", "q", "a_max", "n", "g"]},
    "seq": {kind: [*cli._flags(cli._kind_params(kind)[0]), "m", "format"]
            for kind in importlib.import_module("shiftbinom.sequences")._KINDS},
    "coeffs": {family.value: ["family", "r", "l", "a_min", "a_max", "format",
                              *(("m", "window") if family.needs_m else ())]
               for family in Family},
    "compositions": {"": ["n", "g", "format"]},
}


def _reparse(out: str, fmt: str) -> None:
    """Every num/den of a table re-parses to integers in lowest terms, den > 0."""
    rows = list(csv.DictReader(io.StringIO(out))) if fmt == "csv" else json.loads(out)
    assert rows
    outer = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a table of exact digits may pass the default limit
    try:
        for row in rows:
            num, den = int(row["num"]), int(row["den"])
            assert den > 0 and math.gcd(num, den) == 1, row
    finally:
        sys.set_int_max_str_digits(outer)


def _main(argv: list[str], closed: str | None = None) -> tuple[int, str, str]:
    """cli.main's exit code, stdout and stderr.  The stream that `closed`
    names, "stdout" or "stderr", is None, as Python sets it when its fd is
    closed at start-up, and reads as empty."""
    out, err = io.StringIO(), io.StringIO()
    streams = {"stdout": out, "stderr": err, closed: None}
    with (contextlib.redirect_stdout(streams["stdout"]),
          contextlib.redirect_stderr(streams["stderr"])):
        try:
            code = cli.main(argv)
        except SystemExit as done:  # argparse rejects a flag value
            code = done.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_exit_code_contract_holds_on_any_input(data):
    """0 ok, 1 a failed check, 2 a usage error with one `error:` line, and
    never a traceback, on every subcommand, seq kind and verify check.  A
    variant's own flags are given often, the others of its subcommand now and
    then; the width of a coeffs A range stays small, its ends do not.  The
    run is made again, now and then, with stdout or stderr closed, and a
    table with --out in a fresh directory, with the same stream closed."""
    command, variant = data.draw(st.sampled_from(
        [(command, variant) for command, variants in _VARIANTS.items() for variant in variants]))
    own = _VARIANTS[command][variant]
    every = dict.fromkeys(f for flags in _VARIANTS[command].values() for f in flags)
    argv = [command, *([variant] if command in ("verify", "seq") else [])]
    values = {}
    for flag in every:
        # hypothesis leans towards 0: own flags are given below 8, others at 9
        if (data.draw(st.integers(0, 9), flag) < 8) != (flag in own):
            continue
        if flag == "family":
            value = variant
        elif flag == "a_max":
            value = str(int(values.get("a_min", 0)) + data.draw(_VALUES[flag], flag))
        else:
            spec = flag == "l" and "r" in own
            value = data.draw(_VALUES["spec-l" if spec else flag], flag)
        values[flag] = value
        argv += [f"--{flag.replace('_', '-')}", value]
    code, out, err = _main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "internal error" not in err and "Traceback" not in err, (argv, err)
    if code == 2:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, (argv, err)
        assert out == ""
    elif command == "verify":
        assert all("pass" in json.loads(line) for line in out.splitlines()), argv
    else:
        _reparse(out, values.get("format", "csv"))
    closed = data.draw(st.sampled_from([None, "stdout", "stderr"]), "closed")
    if closed == "stderr":
        # the same code and stdout, and nothing printed
        assert _main(argv, closed) == (code, out, ""), argv
    elif closed == "stdout":
        # a write to it fails, unless a usage error comes before the first
        failed = (2, "", f"error: cannot write stdout: {os.strerror(errno.EBADF)}\n")
        assert _main(argv, closed) == ((code, "", err) if code == 2 else failed), argv
    if command != "verify" and data.draw(st.booleans(), "out"):
        # the same code and stderr, nothing on stdout, which is not written,
        # so that it may be closed, and a file that holds the table, or none
        # after a usage error
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.out")
            assert _main([*argv, "--out", path], closed) == (
                code, "", "" if closed == "stderr" else err), argv
            if code == 2:
                assert not os.listdir(tmp), argv
            else:
                with open(path, encoding="utf-8", newline="") as f:
                    assert f.read() == out, argv
