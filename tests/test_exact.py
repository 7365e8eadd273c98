import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbinom.exact import (
    as_float,
    beta_coeff,
    newton_binomial,
    shifted_binomial,
)

from reference import chu_vandermonde_partial, float_binomial, sinc_at


def ladder_binomial(l: int, k: int, s: Fraction) -> Fraction:
    """Independent exact route: pi/sin(pi s) * C(l, k+s) = l!/(s up(k) rise(l-k)).

    up(k) = Gamma(k+s+1)/Gamma(1+s) and rise(m) = Gamma(m+1-s)/Gamma(1-s) are
    written as explicit Pochhammer products, reciprocal for negative k or m.
    """

    def up(k):
        if k >= 0:
            return math.prod((i + s for i in range(1, k + 1)), start=Fraction(1))
        return 1 / math.prod((s - i for i in range(-k)), start=Fraction(1))

    def rise(m):
        if m >= 0:
            return math.prod((i - s for i in range(1, m + 1)), start=Fraction(1))
        return 1 / math.prod((1 - s - i for i in range(1, -m + 1)), start=Fraction(1))

    return math.factorial(l) / (s * up(k) * rise(l - k))


# ----------------------------- newton_binomial -----------------------------


def test_newton_binomial_values():
    assert newton_binomial(4, 2) == 6
    assert newton_binomial(2, 3) == 0
    assert newton_binomial(2, 1) == 2
    assert newton_binomial(0, 0) == 1
    assert newton_binomial(5, -1) == 0
    with pytest.raises(ValueError):
        newton_binomial(-1, 0)


# ----------------------------- shifted_binomial ----------------------------


def test_shifted_binomial_half_examples():
    # C(l, 1/2) = r * beta(1/2): the value is r / pi
    assert shifted_binomial(0, Fraction(1, 2)) == Fraction(2)
    assert shifted_binomial(2, Fraction(1, 2)) == Fraction(16, 3)


def test_shifted_binomial_s0_reduces_to_newton():
    for l in range(0, 12):
        for k in range(-4, l + 5):
            assert shifted_binomial(l, k) == newton_binomial(l, k)


def test_shifted_binomial_reads_the_shift_from_the_entry():
    # k = floor(entry), s = entry - k: the classical binomial at s = 0, also
    # outside 0 <= k <= l, and the closed product otherwise
    for l in range(0, 9):
        for k in range(-6, l + 7):
            got = shifted_binomial(l, k)
            assert type(got) is Fraction and got == newton_binomial(l, k), (l, k)
            assert shifted_binomial(l, Fraction(k)) == got
            for s in (Fraction(1, 2), Fraction(1, 3)):
                got = shifted_binomial(l, k + s)
                assert type(got) is Fraction and got == beta_coeff(l, k, s), (l, k, s)


def test_half_binomial_grid_against_product_formula_and_float_gamma():
    # l <= 20, entry = k + 1/2 with |k| <= 20: three independent routes agree
    for l in range(0, 21):
        for k in range(-20, 21):
            entry = Fraction(2 * k + 1, 2)
            v = shifted_binomial(l, entry)
            assert v == ladder_binomial(l, k, Fraction(1, 2))
            ref = math.pi * float_binomial(l, float(entry))
            got = float(v)
            scale = max(abs(ref), abs(got))
            assert abs(got - ref) <= 1e-12 * scale


def test_symmetry_half_shift():
    for l in range(0, 15):
        for k in range(-10, 11):
            x = Fraction(2 * k + 1, 2)
            assert shifted_binomial(l, x) == shifted_binomial(l, l - x)


def test_symmetry_generic_shift_swaps_s_for_one_minus_s():
    s = Fraction(1, 3)
    for l in range(0, 8):
        for k in range(-6, 7):
            # the entries carry the shifts s and 1 - s, and beta(s) = beta(1-s),
            # so the rational factors must match
            assert shifted_binomial(l, k + s) == shifted_binomial(l, l - k - s)


def test_pascal_identity_at_half_integers():
    for l in range(1, 12):
        for d in range(-15, 16):
            h = Fraction(2 * d + 1, 2)
            lhs = shifted_binomial(l, h)
            rhs = shifted_binomial(l - 1, h) + shifted_binomial(l - 1, h - 1)
            assert lhs == rhs


def test_pascal_identity_generic_shift():
    s = Fraction(2, 7)
    for l in range(1, 8):
        for k in range(-6, 7):
            x = k + s
            assert shifted_binomial(l, x) == shifted_binomial(l - 1, x) + shifted_binomial(
                l - 1, x - 1
            )


def test_generic_shift_against_float_gamma():
    for s in (Fraction(1, 3), Fraction(1, 4), Fraction(3, 5)):
        beta = math.sin(math.pi * float(s)) / math.pi
        for l in range(0, 9):
            for k in range(-8, 9):
                v = shifted_binomial(l, k + s)
                ref = float_binomial(l, k + float(s))
                got = float(v) * beta
                assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(5, 6)])
def test_closed_product_matches_pochhammer_ladders(s):
    for l in range(0, 13):
        for k in range(-15, l + 16):
            v = shifted_binomial(l, k + s)
            assert v == ladder_binomial(l, k, s), (l, k)
            assert beta_coeff(l, k, s) == v


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(2, 7)])
def test_shifted_binomial_term_ratio(s):
    # C(l, x+1) (x+1) = C(l, x) (l-x): consecutive terms of a window sum
    for l in range(0, 13):
        for k in range(-15, l + 15):
            x = k + s
            lhs = shifted_binomial(l, x + 1) * (x + 1)
            assert lhs == shifted_binomial(l, x) * (l - x), (l, k)


# every shift p/q in [0, 1) with q <= 12, the integers (p = 0) among them
SHIFTS = st.integers(1, 12).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 12), st.integers(-15, 27), SHIFTS)
def test_term_ratio_holds_at_any_shift(l, k, s):
    # C(l, x+1) (x+1) = C(l, x) (l-x), the rational factors of one power of beta(s)
    x = k + s
    assert shifted_binomial(l, x + 1) * (x + 1) == shifted_binomial(l, x) * (l - x)


# a part l and an entry l' in [0, l], for l <= 6
PARTS = st.integers(0, 6).flatmap(lambda l: st.tuples(st.just(l), st.integers(0, l)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(PARTS, PARTS)
def test_chu_vandermonde_terminates_at_shift_zero(first, second):
    # at s = 0 every nonzero term lies in the window [-(l1 + l2), l1 + l2]
    (l1, l1p), (l2, l2p) = first, second
    total = chu_vandermonde_partial(l1, l2, l1p, l2p, 0, l1 + l2)
    assert total == math.comb(l1 + l2, l1p + l2p)


# --------------------------- closed product at s = 1/2 ----------------------


def test_product_formula_examples():
    assert shifted_binomial(2, Fraction(1, 2)) == Fraction(16, 3)
    assert shifted_binomial(2, Fraction(5, 2)) == Fraction(16, 15)
    assert shifted_binomial(0, Fraction(1, 2)) == Fraction(2)


# ---------------------------------- sinc_at --------------------------------


def test_sinc_values():
    assert sinc_at(0) == 1
    assert sinc_at(3) == 0
    assert sinc_at(-7) == 0
    assert sinc_at(Fraction(1, 2)) == 2  # times beta(1/2): 2/pi
    # even in x
    for d in (1, 3, 5, 9):
        assert sinc_at(Fraction(d, 2)) == sinc_at(Fraction(-d, 2))


def test_sinc_generic_shift():
    s = Fraction(1, 3)
    beta = math.sin(math.pi / 3) / math.pi
    for k in range(-5, 6):
        v = sinc_at(k + s, s)
        assert v == Fraction((-1) ** k) / (k + s)
        ref = math.sin(math.pi * (k + 1 / 3)) / (math.pi * (k + 1 / 3))
        assert abs(float(v) * beta - ref) < 1e-14


def test_sinc_rejects_off_shift_argument():
    with pytest.raises(ValueError):
        sinc_at(Fraction(1, 3), Fraction(1, 2))


# -------------------------------- as_float ---------------------------------


def _scaled_float(x: Fraction, e: int) -> float:
    """The float of x beta(1/2)^e as the value type that once carried the
    power formed it: the rational's float times the float beta's power, and
    past double range the exact product with the Fraction of that float."""
    beta = math.sin(math.pi * float(Fraction(1, 2))) / math.pi
    try:
        return float(x) * beta**e
    except OverflowError:
        pass
    try:
        return float(x * Fraction(beta) ** e)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


@pytest.mark.parametrize("pi_exp", [0, 1, 2, 4])
def test_as_float_is_bit_identical_to_the_scaled_float(pi_exp):
    rng = random.Random(20261019 + pi_exp)
    big = Fraction(10**309)  # float(big) overflows; big/pi^2 and big/pi^4 do not
    cases = [Fraction(0), Fraction(16, 3), -Fraction(1, 7), big, -big, Fraction(10**330)]
    cases += [
        Fraction(rng.randint(-(2**mag), 2**mag), rng.randint(1, 2**40))
        for mag in (10, 500, 1020, 1100, 2000)
        for _ in range(8)
    ]
    # float(x) overflows and x/pi^pi_exp, for pi_exp >= 1, does not: the
    # exact fallback, where the float of beta^2 instead of its exact square
    # moves the last bit
    cases += [Fraction(2**1024 + rng.randint(0, 2**1025)) for _ in range(40)]
    for x in cases:
        got, want = as_float(x, pi_exp), _scaled_float(x, pi_exp)
        assert got.hex() == want.hex(), (x, pi_exp)
    assert as_float(big, 4) == pytest.approx(10 * (1e308 / math.pi**4))
    assert as_float(-big, 0) == -math.inf


def test_shifted_binomial_is_thread_safe():
    # the closed product keeps no shared state; threads must agree exactly
    import threading

    s = Fraction(2, 9)
    entries = [(l, k + s) for l in range(6) for k in range(-150, 151)]
    results = [None] * 8
    def hammer(slot):
        results[slot] = [shifted_binomial(l, x) for l, x in entries]

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert None not in results and all(r == results[0] for r in results)
    # spot-check against the independent float route
    l, x = 4, 17 + s
    beta = math.sin(math.pi * float(s)) / math.pi
    got = float(shifted_binomial(l, x)) * beta
    assert got == pytest.approx(float_binomial(l, float(x)), rel=1e-10)
