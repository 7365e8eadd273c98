"""Run one shiftbinom CLI invocation with every layer's functions traced.

    python3 perfbench/tracer.py <cli arguments...>

Imports the layers bottom-up (exact, sums, sequences, oracle, cli), timing
each import, then wraps every public function of each layer, plus the CLI's
private emitters, and replaces every module binding that names the original.
The binding-aware replacement matters: `sums` and `sequences` import
`shifted_binomial` by name, so a wrapper on `exact.shifted_binomial` alone
would count nothing.  Classes are not wrapped, so `ScaledValue`/`Fraction`
arithmetic counts toward the self time of the layer that does it.

The CLI's stdout and exit code are left as they are.  The trace is written as
the last stderr line, prefixed by MARKER, as one JSON object.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

MARKER = "perfbench-trace "
LAYERS = ("exact", "sums", "sequences", "oracle", "cli")
# private functions traced under the cli layer, keyed as cli.emit
EMITTERS = ("_emit", "_print_check")


class Tracer:
    """Per-function call counts and busy times, per-layer busy and self times.

    A function's or layer's busy time counts only its outermost spans, so a
    nested call within one layer is not counted twice.  Self time is a span's
    duration minus the durations of the traced spans it called.
    """

    def __init__(self) -> None:
        self.functions: dict[str, list] = {}  # name -> [calls, busy, open spans]
        self.layers: dict[str, list] = {}  # layer -> [busy, self, open spans]
        self.yields: Counter = Counter()
        self.imports: dict[str, float] = {}
        self.samples = 0
        self.records = 0
        self.lattices: dict[tuple, tuple[int, int]] = {}
        self._children: list[float] = []  # traced time under each open span

    def observe(self, result, layer_open: int) -> None:
        kind = type(result).__name__
        if kind == "QuadratureResult":
            self.samples += result.samples
        elif kind == "SeqRecord" and not layer_open:
            self.records += 1

    def span(self, layer: str, name: str, fn):
        """fn wrapped in a span; the bookkeeping is inlined because the exact
        layer is called hundreds of thousands of times per invocation."""
        fstat = self.functions.setdefault(name, [0, 0.0, 0])
        lstat = self.layers.setdefault(layer, [0.0, 0.0, 0])
        children, perf = self._children, time.perf_counter
        observe = self.observe if layer in ("oracle", "sequences") else None

        def wrapper(*args, **kwargs):
            fstat[2] += 1
            lstat[2] += 1
            children.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                inner = children.pop()
                fstat[2] -= 1
                lstat[2] -= 1
                fstat[0] += 1
                lstat[1] += dur - inner
                if not fstat[2]:
                    fstat[1] += dur
                if not lstat[2]:
                    lstat[0] += dur
                if children:
                    children[-1] += dur
            if observe is not None:
                observe(result, lstat[2])
            return result

        return wrapper

    def wrap(self, layer: str, name: str, fn):
        if not inspect.isgeneratorfunction(fn):
            return self.span(layer, name, fn)
        step = self.span(layer, name, next)

        def generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                self.yields[name] += 1
                yield item

        return generator

    def wrap_lattice(self, fn):
        """Record the size and the distinct (s2, s1) pairs of each tail
        lattice the first time it is swept; later sweeps pass through."""

        def lattice(spec, start=3):
            key = (spec.r, spec.l, start)
            if key in self.lattices:
                return fn(spec, start)
            points = list(fn(spec, start))
            self.lattices[key] = (len(points), len({(p[0], p[1]) for p in points}))
            return iter(points)

        return lattice

    def install(self) -> None:
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"shiftbinom.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not attr.startswith("_"):
                        replace[obj] = self.wrap(layer, f"{layer}.{attr}", obj)
                    elif layer == "cli" and attr in EMITTERS:
                        replace[obj] = self.wrap(layer, "cli.emit", obj)
        sweep = getattr(sys.modules["shiftbinom.sums"], "_tail_lattice", None)
        if sweep is not None and list(inspect.signature(sweep).parameters) == ["spec", "start"]:
            replace[sweep] = self.wrap_lattice(sweep)
        for name, mod in list(sys.modules.items()):
            if name == "shiftbinom" or name.startswith("shiftbinom."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replace:
                        setattr(mod, attr, replace[obj])

    def report(self) -> dict:
        factorial = getattr(sys.modules["shiftbinom.exact"], "factorial", None)
        info = factorial.cache_info() if hasattr(factorial, "cache_info") else None
        return {
            "imports": self.imports,
            "calls": {name: f[0] for name, f in self.functions.items() if f[0]},
            "fn_busy": {name: f[1] for name, f in self.functions.items() if f[0]},
            "layer_busy": {layer: v[0] for layer, v in self.layers.items()},
            "layer_self": {layer: v[1] for layer, v in self.layers.items()},
            "yields": dict(self.yields),
            "samples": self.samples,
            "records": self.records,
            "factorial": [info.hits, info.misses] if info else [0, 0],
            "lattices": [[r, list(l), s, p, q] for (r, l, s), (p, q) in self.lattices.items()],
        }


def main(argv: list[str]) -> int:
    tracer = Tracer()
    for layer in LAYERS:
        t0 = time.perf_counter()
        importlib.import_module(f"shiftbinom.{layer}")
        tracer.imports[layer] = time.perf_counter() - t0
    tracer.install()
    code = sys.modules["shiftbinom.cli"].main(argv)
    sys.stdout.flush()
    sys.stderr.write(MARKER + json.dumps(tracer.report()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
