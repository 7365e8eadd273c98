#!/usr/bin/env python3
"""Write reference.json: the exact output columns of every benchmark
invocation, as the current checkout computes them.

    python3 perfbench/record_reference.py

Tables keep their key column (A, m or parts) with num, den and pi_exp where
present; floats are left out.  `verify` keeps only the names of its checks,
all of which must pass.  Run it only on a commit whose values are trusted:
the benchmark counts every later difference as a failure.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

EXACT = ("A", "m", "parts", "num", "den", "pi_exp")


def record(args: tuple[str, ...]) -> dict:
    child = run.run_cli(args)
    if child.code != 0 or child.stderr.strip():
        raise SystemExit(f"{workloads.key(args)} exited {child.code}:\n{child.stderr}")
    if args[0] == "verify":
        checks = [json.loads(line) for line in child.stdout.splitlines() if line.strip()]
        if not all(c["pass"] is True for c in checks):
            raise SystemExit(f"{workloads.key(args)}: a check failed")
        return {"checks": [c["check"] for c in checks]}
    header = child.stdout.split("\n", 1)[0].split(",")
    columns = [c for c in header if c in EXACT]
    return {"columns": columns, "rows": run.table(child.stdout, columns)}


def main() -> int:
    invocations = [workloads.SETUP] + [a for w in workloads.WORKLOADS.values() for a in w]
    # one table row per line keeps the file readable and its diffs small
    entries = []
    for args in invocations:
        ref = record(args)
        body = ",\n".join(json.dumps(row) for row in ref.pop("rows", []))
        head = json.dumps(ref)[:-1]
        entries.append(f"{json.dumps(workloads.key(args))}: {head}" + (f', "rows": [\n{body}]}}' if body else "}"))
    run.REFERENCE.write_text("{\n" + ",\n".join(entries) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
