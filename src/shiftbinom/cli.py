"""Command-line front end: verification runs, coefficient tables, sequence
tables, and composition listings, emitted as CSV or JSON.

Examples:
    shiftbinom verify identity --r 2 --l 1,1,1 --p 1 --q 5
    shiftbinom verify odd-equality --r 2 --l 1,1 --a-max 9
    shiftbinom coeffs --family even --r 2 --l 1,1
    shiftbinom coeffs --family odd --r 2 --l 1,1 --a-min -5 --a-max 5
    shiftbinom seq pi --l 2 --m 1:100:1 --format csv --out pi.csv
    shiftbinom seq ratio-pi --r 2 --l 1,1 --A 2 --m 10:1000:90

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 internal error (a bug, reported as one `internal error:` line on
stderr).  Identical invocations produce byte-identical output; `num` and
`den` columns are exact decimal strings that re-parse to the in-memory
rationals.
A coefficient whose value lies outside double range keeps exact `num` and
`den`; its `float` column reads inf or -inf (Infinity or -Infinity in JSON).

`--p`/`--q`, the phase of the integrand, are `verify` flags; `--q` takes a
positive integer or `inf`; an integral check passes within its derived
roundoff bound, `bound`.  `coeffs` evaluates one `sums.Coefficients`: its
`--m`, a positive integer, is the truncation of the windowed families, and
the library reports a missing one, or too few parts, as a usage error.  A
`seq` kind takes the flags its builder in `sequences._KINDS` names, and a
`verify` check those `_CHECKS` names; any other given flag of theirs exits 2.
`--config FILE` reads `key=value` lines; a key is a long flag name, with `-`
or `_` (`a-max` or `a_max`), and its value is parsed and checked exactly as
the flag's.  Command-line flags win over the file; an unknown key exits 2.
"""

from __future__ import annotations

import argparse
import csv
import math
import signal
import sys
from collections.abc import Iterable
from fractions import Fraction
from itertools import chain, islice

from . import sums
from .exact import ParameterError, as_float
from .sums import Family, SumSpec, Window

__all__ = ["main", "run"]


# ------------------------- argument value parsing -------------------------


def _parse_l(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad l-list {text!r}; expected like 1,0,2")
    return parts


def _parse_positive(text: str, expected: str = "a positive integer") -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # not an integer: reported below
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected {expected}, not {text!r}")
    return value


def _parse_q(text: str) -> int | float:
    """A positive integer q, or math.inf: q -> infinity, the phase 0."""
    if text.lower() in ("inf", "infinity", "none"):
        return math.inf
    return _parse_positive(text, "a positive integer or inf")


def _parse_m_sweep(text: str) -> range:
    """The range of m that start:stop:stride, start:stop or m gives."""
    fields = text.split(":")
    if len(fields) < 3:
        fields = [fields[0], fields[-1], "1"]  # m is m:m, and the stride defaults to 1
    try:
        values = [int(v) for v in fields]
    except ValueError:
        values = []  # not integers: reported below
    if len(values) != 3 or values[2] < 1 or values[1] < values[0]:
        raise argparse.ArgumentTypeError(
            f"bad m sweep {text!r}; expected an integer or start:stop:stride, stop >= start"
        )
    start, stop, stride = values
    return range(start, stop + 1, stride)


def _parse_shift(text: str) -> Fraction:
    """A fraction; the kind that takes it checks its range."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad shift {text!r}; expected a fraction such as 1/3")


class UsageError(Exception):
    pass


# ----------------------------- output emission ----------------------------


def _exact_str(x: int | Fraction) -> str:
    """str(x), also past the interpreter's limit on int-to-str digits: the
    limit is lifted for this one conversion only, and only when it bites."""
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(x)
        finally:
            sys.set_int_max_str_digits(limit)


def _exact_cols(x: int | Fraction) -> dict[str, str]:
    """The `num` and `den` columns of the exact value x."""
    return {"num": _exact_str(x.numerator), "den": _exact_str(x.denominator)}


def _emit(rows: Iterable[dict], fieldnames: list[str], fmt: str, out: str | None) -> None:
    """Write the rows to the file --out, or else to stdout: CSV row by row as
    they come, so that no copy of the table is held, and JSON in one write.
    The first row is computed before --out is opened or a header written, so
    an error in it leaves no output and no file."""
    rows = iter(rows)
    rows = chain([*islice(rows, 1)], rows)

    def write(f) -> None:
        if fmt == "csv":
            writer = csv.DictWriter(f, fieldnames=fieldnames, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        else:
            import json

            f.write(json.dumps(list(rows), indent=2) + "\n")

    if not out:
        return write(sys.stdout)
    try:
        with open(out, "w", encoding="utf-8") as f:
            write(f)
    except OSError as e:
        raise UsageError(f"cannot write --out {out}: {e.strerror}")


# ------------------------------- subcommands ------------------------------


def _build_spec(ns) -> SumSpec:
    """The spec of --r and --l; --r defaults to 2."""
    if ns.l is None:
        raise UsageError("--l is required for this command")
    return SumSpec(r=2 if ns.r is None else ns.r, l=ns.l)


def _flags(params) -> list[str]:
    """The flags of a variant's parameters: spec stands for --r and --l, and
    any other parameter for the flag of its name."""
    return [f for p in params for f in (("r", "l") if p == "spec" else (p,))]


def _given(ns, variant: str, takes, every) -> dict:
    """{parameter: value} for each parameter of `takes` whose flag was given,
    on the command line or in --config, with spec built from --r and --l
    whenever it is taken.  A given flag of a parameter of `every`, the
    parameters of all the subcommand's variants, that `takes` lacks exits 2.
    None of these flags has a parser default, so that a given one can be told;
    each default is the variant's own, in its signature or in the library."""
    taken = _flags(takes)
    for flag in _flags(every):
        if flag not in taken and getattr(ns, flag) is not None:
            raise UsageError(f"{variant} does not take --{flag.replace('_', '-')}")
    given = {p: getattr(ns, p) for p in takes if p != "spec" and getattr(ns, p) is not None}
    if "spec" in takes:
        given["spec"] = _build_spec(ns)
    return given


def _exact_record(check: str, lhs: int | Fraction, rhs: int | Fraction) -> dict:
    """The record of an exact check of lhs == rhs: abs_err is "exact" when it
    passes, and |lhs - rhs| otherwise."""
    ok = lhs == rhs
    return {"check": check, "lhs": _exact_str(lhs), "rhs": _exact_str(rhs),
            "abs_err": "exact" if ok else _exact_str(abs(lhs - rhs)), "pass": ok}


# A check's runner takes its name and, as keywords, the given parameters that
# _CHECKS names for it, each other one at the default in its signature, and
# returns the check's records; each sums.Coefficients it evaluates builds its
# own tail weights.


def _integral(expansion: str, bound: str):
    """The runner of an integral check.  It evaluates oracle.<expansion> at
    the phase --p/--q (defaults 1 and 3), and the check passes when the two
    sides differ by at most oracle.<bound>, the roundoff bound derived for
    the spec, reported beside abs_err."""

    def records(check, spec, p=1, q=3) -> list[dict]:
        # imported here, so that only the checks that integrate load the oracle
        from . import oracle

        phase = Fraction(0) if q == math.inf else Fraction(p, q)
        lhs, rhs = getattr(oracle, expansion)(spec, phase)
        abs_err, tol = abs(lhs - rhs), getattr(oracle, bound)(spec)
        return [{"check": check, "lhs": lhs, "rhs": rhs, "abs_err": abs_err, "bound": tol,
                 "pass": abs_err <= tol}]

    return records


def _odd_equality(check, spec, a_max=9) -> list[dict]:
    direct_of = sums.Coefficients(spec, Family.ODD)
    alt_of = sums.Coefficients(spec, Family.ODD_SINC)
    return [_exact_record(f"{check}[A={A}]", direct_of(A), alt_of(A))
            for A in range(1, a_max + 1, 2)]


def _sum_rule(check, spec) -> list[dict]:
    rn = spec.r * spec.n
    return [_exact_record(check, sums.sum_rule_even(spec), math.comb(rn, rn // 2))]


def _cg(check, n=4, g=2) -> list[dict]:
    """g*n*sum(c_g) over the g-compositions of n, against C(gn, n)."""
    from . import sequences

    total = g * n * sum(sequences.cg_weight(c) for c in sequences.enumerate_g_compositions(n, g))
    return [_exact_record(check, total, math.comb(g * n, n))]


# the verify checks, in the order `all` runs them: the parameters of each
# runner, and the runner; `all` takes every flag, a single check only its own
_CHECKS = {
    "identity": (("spec", "p", "q"), _integral("even_expansion", "identity_bound")),
    "odd-integral": (("spec", "p", "q"), _integral("odd_expansion", "square_wave_bound")),
    "antisym-integral": (("spec", "p", "q"), _integral("antisym_expansion", "square_wave_bound")),
    "odd-equality": (("spec", "a_max"), _odd_equality),
    "sum-rule": (("spec",), _sum_rule),
    "cg": (("n", "g"), _cg),
}


def _cmd_verify(ns) -> int:
    names = tuple(_CHECKS) if ns.check == "all" else (ns.check,)
    given = _given(ns, f"verify {ns.check}", [p for name in names for p in _CHECKS[name][0]],
                   [p for params, _ in _CHECKS.values() for p in params])
    checks = []
    for name in names:
        params, run = _CHECKS[name]
        checks += run(name, **{p: given[p] for p in params if p in given})
    import json

    sys.stdout.writelines(json.dumps(rec) + "\n" for rec in checks)
    return 0 if all(rec["pass"] for rec in checks) else 1


def _cmd_coeffs(ns) -> int:
    spec = _build_spec(ns)
    if ns.family is None:
        raise UsageError("--family is required")
    family = Family(ns.family)
    windowed = ("m", "window")
    given = _given(ns, f"family {family.value}", windowed if family.needs_m else (), windowed)
    if ns.a_min is not None and ns.a_max is None:
        raise UsageError("--a-min needs --a-max")
    # a windowed family without --m is the library's ParameterError
    coeffs = sums.Coefficients(spec, family, **given)
    if ns.a_max is None:
        A_values = coeffs.default_A_range()
    else:
        a_min = -ns.a_max if ns.a_min is None else ns.a_min
        A_values = range(a_min + (a_min - family.parity) % 2, ns.a_max + 1, 2)
        if not A_values:
            raise UsageError(
                f"no A of {'odd' if family.parity else 'even'} parity in [{a_min}, {ns.a_max}]"
            )
    # each coefficient carries its family's power of 1/pi, and a zero none;
    # Coefficients reports a missing --m at every call, so at the first row,
    # which _emit computes before it writes anything
    rows = (
        {"A": A, **_exact_cols(c), "pi_exp": family.pi_exp if c else 0,
         "float": as_float(c, family.pi_exp)}
        for A in A_values for c in [coeffs(A)]
    )
    _emit(rows, ["A", "num", "den", "pi_exp", "float"], ns.format, ns.out)
    return 0


def _kind_params(kind: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The parameter names of kind's builder, and those of them with no
    default: the one list of what the kind takes."""
    from . import sequences

    build = sequences._KINDS[kind]
    names = build.__code__.co_varnames[: build.__code__.co_argcount]
    return names, names[: len(names) - len(build.__defaults__ or ())]


def _cmd_seq(ns) -> int:
    from . import sequences

    kind, (names, required) = ns.kind, _kind_params(ns.kind)
    given = _given(ns, f"kind {kind}", names,
                   [name for other in sequences._KINDS for name in _kind_params(other)[0]])
    for name in names:
        if name == "l":  # a kind that takes l outside a spec takes one value
            if len(given.get("l", ())) != 1:
                raise UsageError(f"kind {kind} takes --l with a single value")
            given["l"] = given["l"][0]
        elif name not in given and name in required:
            raise UsageError(f"kind {kind} needs --{name}")
    if ns.m is None:
        raise UsageError("--m is required (single value or start:stop:stride)")
    # sweep checks every parameter and every m when it is called, so a usage
    # error is raised before the header is written; each record is computed
    # as _emit asks for its row
    rows = (
        {
            "m": rec.m,
            **_exact_cols(rec.exact),
            "float": rec.approx,
            "target": f"{rec.target_tag}={rec.target_value!r}",
            "abs_error": rec.abs_error,
        }
        for rec in sequences.sweep(kind, ns.m, **given)
    )
    _emit(rows, ["m", "num", "den", "float", "target", "abs_error"], ns.format, ns.out)
    return 0


def _cmd_compositions(ns) -> int:
    from . import sequences

    if ns.n is None or ns.g is None:
        raise UsageError("need --n and --g")
    rows = ({"parts": ",".join(str(v) for v in c.parts), **_exact_cols(sequences.cg_weight(c))}
            for c in sequences.enumerate_g_compositions(ns.n, ns.g))
    _emit(rows, ["parts", "num", "den"], ns.format, ns.out)
    return 0


# ------------------------------ parser set-up -----------------------------


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each token that starts with - and a digit joined to the long
    flag before it, as --s=-1/4.  argparse takes such a token for a value
    only when it is a plain number, and reads -1/4 or -1,2 as an option; no
    flag of this CLI starts with -<digit>, and every long flag but --help
    takes one value."""
    joined: list[str] = []
    for arg in argv:
        prev = joined[-1] if joined else ""
        takes_value = prev.startswith("--") and "=" not in prev and prev not in ("--", "--help")
        if takes_value and arg[:1] == "-" and arg[1:2].isdigit():
            joined[-1] = f"{prev}={arg}"
        else:
            joined.append(arg)
    return joined


def _config_flags(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """The flags that a --config file's key=value lines stand for.  A key is
    a long flag of the subcommand, written with - or _; a later line wins."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise UsageError(f"cannot read --config {path}: {e.strerror}")
    except UnicodeDecodeError:
        raise UsageError(f"cannot read --config {path}: not UTF-8 text")
    flags: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, val = (part.strip() for part in line.partition("="))
        flag = "--" + key.replace("_", "-")
        action = parser._option_string_actions.get(flag)
        if action is None or action.dest in ("help", "config"):
            raise UsageError(f"unknown config key {key!r} for {parser.prog}")
        flags[flag] = f"{flag}={val}"
    return list(flags.values())


def _add_spec(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=int, help="a positive even integer (default 2)")
    p.add_argument("--l", type=_parse_l, help="comma list, e.g. 1,0,2")


def _add_table(p: argparse.ArgumentParser, window: Window | None = None) -> None:
    if window is not None:
        # the values, not the members, so that --help shows what to type; no
        # default, so that a given --window can be told: coeffs and seq reject
        # it on a family or kind without a window
        p.add_argument("--window", type=Window, choices=[w.value for w in Window],
                       help=f"paper or symmetric (default {window.value})")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default stdout)")


def _verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("check", choices=(*_CHECKS, "all"))
    _add_spec(p)
    # no parser defaults, so that a flag a check does not read can be told
    # (see _given); the phase p/q is read only by the integral checks
    p.add_argument("--p", type=int, help="(default 1)")
    p.add_argument("--q", type=_parse_q, help="positive integer or 'inf' (default 3)")
    p.add_argument("--a-max", type=_parse_positive, help="(default 9)")
    p.add_argument("--n", type=int, help="(default 4)")
    p.add_argument("--g", type=int, help="(default 2)")


def _coeffs_flags(p: argparse.ArgumentParser) -> None:
    _add_spec(p)
    _add_table(p, Window.SYMMETRIC)
    p.add_argument("--family", choices=[f.value for f in Family])
    p.add_argument("--a-min", type=int)
    p.add_argument("--a-max", type=int)
    p.add_argument("--m", type=_parse_positive, help="truncation for the windowed families")


def _seq_flags(p: argparse.ArgumentParser) -> None:
    from . import sequences

    p.add_argument("kind", choices=tuple(sequences._KINDS))
    _add_table(p, Window.PAPER)
    p.add_argument("--m", type=_parse_m_sweep,
                   help="single value or start:stop:stride (inclusive)")
    # the flags of the kinds: each kind takes those its builder names (see
    # _given), so none has a default here, and a given one can be told
    _add_spec(p)
    p.add_argument("--s", type=_parse_shift, help="shift, e.g. 1/3")
    p.add_argument("--A", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--g", type=int)


def _compositions_flags(p: argparse.ArgumentParser) -> None:
    _add_table(p)
    p.add_argument("--n", type=int)
    p.add_argument("--g", type=int)


# the subcommands, in the order --help lists them: each one's runner, its
# line in --help, and what adds its flags to its parser
_COMMANDS = {
    "verify": (_cmd_verify, "run exact/numeric verification checks", _verify_flags),
    "coeffs": (_cmd_coeffs, "emit one coefficient family as a table", _coeffs_flags),
    "seq": (_cmd_seq, "emit a convergence table over an m sweep", _seq_flags),
    "compositions": (_cmd_compositions, "list g-compositions with weights",
                     _compositions_flags),
}


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser, with the flags of the subcommand `command` alone: every
    subcommand is named, so that --help lists it and argparse can choose it,
    but a run builds the flags, and loads the modules, of its own only."""
    ap = argparse.ArgumentParser(prog="shiftbinom", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (handler, about, add_flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=about)
        if name == command:
            # the subcommand's parser names the keys that a --config file may set
            p.set_defaults(run=handler, parser=p)
            p.add_argument("--config", help="key=value file; command-line flags override it")
            add_flags(p)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    # the subcommand is the first token that is no option: the top-level
    # parser has no option that takes a value
    ap = _build_parser(next((arg for arg in argv if arg[:1] != "-"), None))
    try:
        ns = ap.parse_args(argv)
        if ns.config:
            # argv[0] is the subcommand; the file's flags go after it and
            # before the command line's own, which therefore win
            ns = ap.parse_args([argv[0], *_config_flags(ns.config, ns.parser), *argv[1:]])
        return ns.run(ns)
    except (UsageError, ParameterError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except Exception as e:
        # a bug, not a failed check or a bad flag: keep it out of codes 1 and 2;
        # a ValueError that is not a ParameterError lands here too
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return 3


def run() -> None:
    """The console script and `python -m shiftbinom`: main(), except that a
    reader that closes stdout early ends the process as it ends `cat`, by
    SIGPIPE, with nothing on stderr."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
