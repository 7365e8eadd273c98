#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the shiftbinom CLI.

    python3 perfbench/run.py --workload seq-deep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every invocation is a fresh
`python3 -m shiftbinom` process on the checkout's `src/`, started only after
the previous one exits: a closed loop with one client.  A pass runs each of
the workload's invocations once, in an order drawn from the seed; passes
repeat while another one fits in `--seconds`.  Every output is compared with
reference.json.

With `--trace 0` the last stdout line holds the end-to-end metrics: median
pass wall and child CPU time, the largest child max-RSS of a pass (median over
passes), and the median start-up time of a command that computes nothing.
With `--trace 1` the same untraced passes run, followed by one pass under
tracer.py, and the last line holds the per-layer metrics instead; the
agreement of the computed counts with the traced ones goes to stderr.
README.md lists every metric and what it should move.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPEATS = 7
IMPORT_REPEATS = 3


@dataclass
class Child:
    """One finished CLI process with its own resource usage."""

    args: tuple[str, ...]
    code: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_mb: float
    trace: dict | None = None


def spawn(cmd: list[str], args: tuple[str, ...]) -> Child:
    """Run one process to completion and take its rusage from wait4, so each
    child's CPU time and max-RSS are its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out: dict[str, bytes] = {}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    readers = [
        threading.Thread(target=lambda n=n, s=s: out.__setitem__(n, s.read()))
        for n, s in (("stdout", proc.stdout), ("stderr", proc.stderr))
    ]
    for t in readers:
        t.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    stderr = out["stderr"].decode("utf-8", "replace")
    trace = None
    head, _, last = stderr.rstrip("\n").rpartition("\n")
    if last.startswith(tracer.MARKER):
        trace = json.loads(last[len(tracer.MARKER):])
        stderr = head
    return Child(
        args=args,
        code=proc.returncode,
        stdout=out["stdout"].decode("utf-8", "replace"),
        stderr=stderr,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        trace=trace,
    )


def run_cli(args: tuple[str, ...], traced: bool = False) -> Child:
    entry = [str(Path(tracer.__file__).resolve())] if traced else ["-m", "shiftbinom"]
    return spawn([sys.executable, *entry, *args], args)


def table(stdout: str, columns: list[str]) -> list[list[str]]:
    """The named columns of a CSV table, row by row."""
    return [[row[c] for c in columns] for row in csv.DictReader(io.StringIO(stdout))]


def correct(child: Child, ref: dict) -> bool:
    """Exit code 0, no traceback, and the exact columns (or, for verify, every
    check passing) as recorded in reference.json.  Float columns and extra
    fields are not compared."""
    if child.code != 0 or "Traceback" in child.stderr:
        return False
    try:
        if "checks" in ref:
            records = [json.loads(line) for line in child.stdout.splitlines() if line.strip()]
            names = {r.get("check") for r in records}
            return bool(records) and all(r.get("pass") is True for r in records) and set(ref["checks"]) <= names
        return table(child.stdout, ref["columns"]) == ref["rows"]
    except (ValueError, KeyError, AttributeError):
        return False


def run_pass(invocations, rng: random.Random, traced: bool = False) -> tuple[float, list[Child]]:
    order = rng.sample(list(invocations), len(invocations))
    t0 = time.perf_counter()
    children = [run_cli(args, traced) for args in order]
    return time.perf_counter() - t0, children


def import_times() -> tuple[float, float]:
    """(whole import of shiftbinom.cli, the shiftbinom.oracle part of it) from
    `python -X importtime`, median of IMPORT_REPEATS fresh processes."""
    totals, oracles = [], []
    for _ in range(IMPORT_REPEATS):
        child = spawn([sys.executable, "-X", "importtime", "-c", "import shiftbinom.cli"], ())
        if child.code != 0:
            raise RuntimeError(f"import of shiftbinom.cli failed:\n{child.stderr}")
        total = oracle = 0
        for line in child.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _self, cumulative, name = line[len("import time:"):].split("|")
            if not cumulative.strip().isdigit():
                continue
            if name.startswith(" shiftbinom"):  # top level: one space, no indent
                total += int(cumulative)
            if name.strip() == "shiftbinom.oracle":
                oracle = int(cumulative)
        totals.append(total / 1e6)
        oracles.append(oracle / 1e6)
    return statistics.median(totals), statistics.median(oracles)


def layer_metrics(children: list[Child], untraced_wall: float, traced_wall: float,
                  failed_frac: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, and the cross-check messages
    that failed (computed demand against traced counts)."""
    calls: dict[str, int] = {}
    fn_busy: dict[str, float] = {}
    busy = dict.fromkeys(tracer.LAYERS, 0.0)
    self_s = dict.fromkeys(tracer.LAYERS, 0.0)
    samples = records = compositions = hits = lookups = 0
    rows = out_bytes = max_den = 0
    mismatches = []
    window_terms = largest = requests = distinct = points = pairs = 0
    for child in children:
        t = child.trace or {}
        for k, v in t.get("calls", {}).items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t.get("fn_busy", {}).items():
            fn_busy[k] = fn_busy.get(k, 0.0) + v
        for layer in tracer.LAYERS:
            # a layer's import runs in every invocation, so it is part of the
            # layer's busy and self time
            imp = t.get("imports", {}).get(layer, 0.0)
            busy[layer] += imp + t.get("layer_busy", {}).get(layer, 0.0)
            self_s[layer] += imp + t.get("layer_self", {}).get(layer, 0.0)
        samples += t.get("samples", 0)
        records += t.get("records", 0)
        compositions += t.get("yields", {}).get("sequences.enumerate_g_compositions", 0)
        h, m = t.get("factorial", [0, 0])
        hits, lookups = hits + h, lookups + h + m
        out_bytes += len(child.stdout.encode("utf-8"))
        if child.args[0] == "verify":
            rows += sum(1 for line in child.stdout.splitlines() if line.strip())
        else:
            parsed = list(csv.DictReader(io.StringIO(child.stdout)))
            rows += len(parsed)
            max_den = max([max_den] + [len(r["den"]) for r in parsed if r.get("den")])

        d = workloads.demand(child.args)
        window_terms += d.window_terms
        largest += d.largest_windows
        requests += len(d.requests)
        distinct += d.distinct_requests
        p, q = d.lattice_totals()
        points, pairs = points + p, pairs + q
        mismatches += cross_check(child, d)

    metrics = {
        "exact.shifted_binomial.calls": (calls.get("exact.shifted_binomial", 0), "count"),
        "exact.shifted_binomial.busy_s": (fn_busy.get("exact.shifted_binomial", 0.0), "s"),
        "exact.sinc_at.calls": (calls.get("exact.sinc_at", 0), "count"),
        "exact.newton_binomial.calls": (calls.get("exact.newton_binomial", 0), "count"),
        "exact.factorial.hit_ratio": (ratio(hits, lookups), "ratio"),
        "sums.coeff.calls": (evaluator_calls(calls), "count"),
        "sums.busy_s": (busy["sums"], "s"),
        "sums.self_s": (self_s["sums"], "s"),
        "sums.lattice_points": (points, "count"),
        "sums.lattice_pairs": (pairs, "count"),
        "sums.lattice_useful_ratio": (ratio(pairs, points), "ratio"),
        "sums.coeff_reuse_ratio": (ratio(distinct, requests), "ratio"),
        "sequences.records": (records, "count"),
        "sequences.busy_s": (busy["sequences"], "s"),
        "sequences.self_s": (self_s["sequences"], "s"),
        "sequences.window_terms": (window_terms, "count"),
        "sequences.window_reuse_ratio": (ratio(largest, window_terms), "ratio"),
        "sequences.compositions": (compositions, "count"),
        "sequences.cg_weight.calls": (calls.get("sequences.cg_weight", 0), "count"),
        "oracle.busy_s": (busy["oracle"], "s"),
        "oracle.self_s": (self_s["oracle"], "s"),
        "oracle.quadrature_samples": (samples, "count"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.emit.busy_s": (fn_busy.get("cli.emit", 0.0), "s"),
        "cli.emit.bytes": (out_bytes, "bytes"),
        "cli.rows": (rows, "count"),
        "cli.max_den_digits": (max_den, "digits"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "failed_frac": (failed_frac, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, mismatches


def evaluator_calls(calls: dict[str, int]) -> int:
    return sum(calls.get(f"sums.{f}", 0) for f in workloads.EVALUATORS.values())


def ratio(num: float, den: float) -> float:
    """num/den; 1.0 when there is no base, i.e. no work that could be shared."""
    return num / den if den else 1.0


def cross_check(child: Child, d: workloads.Demand) -> list[str]:
    """Computed demand against the traced counts of the same invocation, for
    the program as it evaluates at the seed commit: every window term and
    every coefficient request is one call, plus the first record's again."""
    t, name, bad = child.trace or {}, workloads.key(child.args), []
    calls = t.get("calls", {})
    if d.window_terms and child.args[1] != "agg":
        want = d.window_terms + d.first_window_terms
        got = calls.get("exact.shifted_binomial", 0)
        if got != want:
            bad.append(f"{name}: shifted_binomial calls {got}, window terms {want}")
    want = len(d.requests) + len(d.first_requests)
    got = evaluator_calls(calls)
    if got != want:
        bad.append(f"{name}: evaluator calls {got}, coefficient requests {want}")
    traced = {(r, tuple(l), s): (p, q) for r, l, s, p, q in t.get("lattices", [])}
    if traced and traced != d.lattices:
        bad.append(f"{name}: traced lattices {traced}, computed {d.lattices}")
    return bad


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "shiftbinom" / "__init__.py").is_file():
        sys.stderr.write(f"error: no shiftbinom package under {SRC}\n")
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    invocations = workloads.WORKLOADS[ns.workload]
    rng = random.Random(f"{ns.workload}:{ns.seed}")
    children: list[Child] = []

    # the first start-up compiles bytecode; it is checked but not timed
    setup = [run_cli(workloads.SETUP) for _ in range(SETUP_REPEATS + 1)]
    children += setup
    walls, cpus, rss = [], [], []
    t0 = time.perf_counter()
    # start another pass only if a typical one still fits in --seconds
    while not walls or time.perf_counter() - t0 + statistics.median(walls) <= ns.seconds:
        wall, ran = run_pass(invocations, rng)
        walls.append(wall)
        cpus.append(sum(c.cpu for c in ran))
        rss.append(max(c.rss_mb for c in ran))
        children += ran
    if ns.trace:
        traced_wall, traced = run_pass(invocations, rng, traced=True)
        children += traced
    failed = [c for c in children if not correct(c, reference[workloads.key(c.args)])]
    for c in failed:
        sys.stderr.write(f"failed: {workloads.key(c.args)} (exit {c.code})\n{c.stderr[-2000:]}\n")

    if ns.trace:
        metrics, mismatches = layer_metrics(
            traced, statistics.median(walls), traced_wall, len(failed) / len(children)
        )
        cli_import, oracle_import = import_times()
        metrics["cli.import_s"] = {"value": cli_import, "unit": "s"}
        metrics["oracle.import_s"] = {"value": oracle_import, "unit": "s"}
        sys.stderr.write(json.dumps({"workload": ns.workload, "cross_check": mismatches or "ok"}) + "\n")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "setup_s": {"value": statistics.median(c.wall for c in setup[1:]), "unit": "s"},
        }
    print(json.dumps({"correct": not failed, "attempted": len(children), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
