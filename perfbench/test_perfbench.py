"""Checks of the benchmark itself: traced hand counts, their repeatability,
computed demand against the trace, and refusal to run without the program.

    python3 -m pytest perfbench/test_perfbench.py

The hand counts describe the from-scratch evaluation the program does at the
commit that recorded reference.json.  A change that makes a sweep incremental
is expected to lower them; the computed metrics stay put.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))


def trace(args: tuple[str, ...], ref: dict | None = None) -> run.Child:
    child = run.run_cli(args, traced=True)
    assert child.trace is not None, child.stderr
    assert run.correct(child, ref or REFERENCE[workloads.key(args)]), child.stderr
    return child


@pytest.fixture(scope="module")
def traced() -> dict[str, list[run.Child]]:
    return {name: [trace(a) for a in invs] for name, invs in workloads.WORKLOADS.items()}


def test_small_pi_sweep_counts_repeat_exactly():
    args = ("seq", "pi", "--l", "2", "--m", "1:3:1")
    ref = {"columns": ["m", "num", "den"], "rows": [["1", "44", "15"], ["2", "332", "105"], ["3", "988", "315"]]}
    first, second = trace(args, ref), trace(args, ref)
    # 3 + 5 + 7 window terms, plus the m=1 record evaluated once more up front
    assert first.trace["calls"]["exact.shifted_binomial"] == 18
    assert workloads.demand(args).window_terms == 15
    assert first.trace["calls"] == second.trace["calls"]


def test_pi_sweep_hand_count(traced):
    pi = traced["seq-deep"][0]
    assert pi.args == ("seq", "pi", "--l", "2", "--m", "1:400:1")
    assert pi.trace["calls"]["exact.shifted_binomial"] == 160_803


def test_agg_sweep_hand_count(traced):
    (agg,) = traced["agg-sweep"]
    assert agg.trace["calls"]["sums.odd_A_coefficient_direct"] == 13_419
    d = workloads.demand(agg.args)
    assert (d.distinct_requests, len(d.requests)) == (837, 13_392)


def test_computed_demand_matches_trace(traced):
    for children in traced.values():
        for child in children:
            assert run.cross_check(child, workloads.demand(child.args)) == []
    # the lattice hook saw every lattice the coefficient requests sweep
    odd = traced["coeff-wide"][0]
    assert odd.trace["lattices"] == [[4, [2, 2, 2, 2, 2], 3, 729, 281]]


def test_traced_counts_repeat_exactly(traced):
    again = [trace(a) for a in workloads.WORKLOADS["coeff-wide"]]
    for first, second in zip(traced["coeff-wide"], again):
        for field in ("calls", "yields", "samples", "records", "factorial", "lattices"):
            assert first.trace[field] == second.trace[field], (first.args, field)


def test_refuses_to_run_without_the_program(tmp_path: Path):
    here = Path(run.__file__).resolve().parent
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "seq-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
