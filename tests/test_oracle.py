import math
from fractions import Fraction

import pytest

from shiftbinom.oracle import (
    antisym_expansion,
    even_expansion,
    odd_expansion,
    trig_integral_full,
    trig_integral_halfrange,
)
from shiftbinom.sums import Rows, SumSpec, sum_rule_even

from reference import float_binomial, shifted_series_eval


ZERO = Fraction(0)  # the phase of q -> infinity


def test_full_integral_examples():
    assert trig_integral_full(SumSpec(r=2, l=(1, 1)), ZERO).value == pytest.approx(6.0)
    assert trig_integral_full(SumSpec(r=2, l=(1, 1)), Fraction(1, 2)).value == pytest.approx(
        2.0
    )
    assert trig_integral_full(SumSpec(r=2, l=(0, 0)), ZERO).value == pytest.approx(1.0)


def test_full_integral_doubling_stability():
    # N = rn+1 is already exact by discrete orthogonality; doubling moves
    # nothing beyond roundoff, which est_error reports
    for spec, phase in ((SumSpec(r=2, l=(1, 1, 1)), Fraction(1, 5)),
                        (SumSpec(r=2, l=(2, 2)), Fraction(2, 7))):
        res = trig_integral_full(spec, phase)
        assert res.est_error < 1e-12 * max(1.0, abs(res.value))
        assert res.samples == 2 * (spec.r * spec.n + 1)


def test_halfrange_matches_full_for_even_integrand():
    spec, phase = SumSpec(r=2, l=(1, 1)), Fraction(1, 3)
    a = trig_integral_halfrange(spec, phase, -0.5, 0.5, "cos")
    b = trig_integral_full(spec, phase)
    assert a.value == pytest.approx(b.value, abs=1e-12)


def test_halfrange_sin_of_all_zero_parts_is_range_length():
    res = trig_integral_halfrange(SumSpec(r=2, l=(0, 0)), ZERO, 0.0, 0.5, "sin")
    assert res.value == pytest.approx(0.5)


def test_halfrange_refinement_shrinks_error():
    spec, phase = SumSpec(r=2, l=(2, 2)), Fraction(1, 3)
    coarse = trig_integral_halfrange(spec, phase, 0.0, 0.5, "cos", nodes=3)
    fine = trig_integral_halfrange(spec, phase, 0.0, 0.5, "cos", nodes=48)
    assert fine.est_error < coarse.est_error


def test_halfrange_rejects_bad_kind():
    with pytest.raises(ValueError):
        trig_integral_halfrange(SumSpec(r=2, l=(1, 1)), ZERO, 0.0, 0.5, "tan")


# ------------------------------ float binomial ------------------------------


def test_float_binomial_matches_comb_and_poles():
    for l in range(8):
        for k in range(l + 1):
            assert float_binomial(l, float(k)) == pytest.approx(math.comb(l, k))
    assert float_binomial(3, 5.0) == 0.0
    assert float_binomial(3, -1.0) == 0.0
    # half-integer value cross-check: C(2, 1/2) = 16/(3 pi)
    assert float_binomial(2, 0.5) == pytest.approx(16 / (3 * math.pi))


# ------------------------------- series eval --------------------------------


def test_series_t0_half_shift():
    v = shifted_series_eval(2, 0.5, 0.0, 400)
    assert v.imag == pytest.approx(0.0, abs=1e-12)
    assert v.real == pytest.approx(4.0, abs=1e-3)


def test_series_s0_is_exact_at_finite_K():
    for l in (0, 1, 2, 3, 4):
        for t in (0.0, 0.3, -0.45):
            v = shifted_series_eval(l, 0.0, t, max(2, l))
            assert v.real == pytest.approx((2 * math.cos(math.pi * t)) ** l, abs=1e-12)
            assert v.imag == pytest.approx(0.0, abs=1e-12)


def test_series_envelope_decreases_on_grid():
    for l in (0, 1, 2, 5):
        for s in (0.5, 1 / 3, 0.25):
            for t in (0.0, 0.3, -0.45):
                target = (2 * math.cos(math.pi * t)) ** l
                envs = []
                for K in (25, 100, 400):
                    envs.append(
                        max(
                            abs(shifted_series_eval(l, s, t, K + d) - target)
                            for d in (0, 1, 2)
                        )
                    )
                assert envs[2] < envs[1] < envs[0], (l, s, t, envs)


def test_series_rejects_boundary_t():
    with pytest.raises(ValueError):
        shifted_series_eval(2, 0.5, 0.5, 10)


# -------------------------------- expansions --------------------------------


def _abs_err(sides: tuple[float, float]) -> float:
    lhs, rhs = sides
    return abs(lhs - rhs)


def test_expansions_example_spec():
    spec, phase = SumSpec(r=2, l=(1, 1, 1)), Fraction(1, 5)
    assert _abs_err(even_expansion(spec, phase)) < 1e-10
    assert _abs_err(odd_expansion(spec, phase)) < 1e-8
    assert _abs_err(antisym_expansion(spec, phase)) < 1e-10


def test_expansions_q_infinity_collapse_to_central_binomial():
    spec = SumSpec(r=2, l=(1, 1))
    assert even_expansion(spec, ZERO)[1] == pytest.approx(6.0)
    odd = odd_expansion(spec, ZERO)
    assert odd[0] == pytest.approx(6.0)
    assert _abs_err(odd) < 1e-9
    assert sum_rule_even(spec) == 6


def test_expansions_small_grid():
    for l, p, q in [((1, 1), 1, 3), ((2, 1), 2, 7), ((1, 1, 1, 1), 1, 3), ((1, 2, 1), 1, 5)]:
        spec, phase, rows = SumSpec(r=2, l=l), Fraction(p, q), Rows()
        for expansion in (even_expansion, odd_expansion, antisym_expansion):
            assert _abs_err(expansion(spec, phase, rows=rows)) < 1e-8, (l, p, q, expansion)


def test_phase_normalisation():
    """A phase is a Fraction, so p/q is reduced before any float is formed:
    2/4 gives the floats of 1/2 bit for bit, and phase 0, q -> infinity,
    gives every cosine weight 1 and every sine weight 0."""
    spec = SumSpec(r=2, l=(1, 1, 1))
    for expansion in (even_expansion, odd_expansion, antisym_expansion):
        assert expansion(spec, Fraction(2, 4)) == expansion(spec, Fraction(1, 2))
        assert expansion(spec, Fraction(-7, 21)) == expansion(spec, Fraction(-1, 3))
    assert trig_integral_full(spec, Fraction(2, 4)) == trig_integral_full(spec, Fraction(1, 2))
    # with phase 0 the coefficient sides are the plain sums of the coefficients
    even = even_expansion(spec, ZERO)[1]
    assert even == sum_rule_even(spec) == math.comb(6, 3)
    assert antisym_expansion(spec, ZERO)[1] == 0.0


def test_each_legendre_rule_is_built_once(monkeypatch):
    from shiftbinom import oracle

    built = []
    build = oracle._gauss_legendre

    def counting(nodes):
        built.append(nodes)
        return build(nodes)

    oracle._legendre_rule.cache_clear()
    monkeypatch.setattr(oracle, "_gauss_legendre", counting)
    try:
        # the odd-expansion integral alone splits into several Gauss ranges
        odd_expansion(SumSpec(r=2, l=(1, 1)), Fraction(1, 3), odd_A_cut=9)
        x, w = oracle._legendre_rule(32)
    finally:
        oracle._legendre_rule.cache_clear()
    assert sorted(built) == [32, 64]
    assert isinstance(x, tuple) and isinstance(w, tuple)
    assert (x, w) == build(32)


def _scaled(values) -> tuple[list[int], int]:
    """(ints, e) with values[i] == ints[i] / 2**e exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    e = max(q.bit_length() - 1 for _, q in ratios)
    return [p << (e - q.bit_length() + 1) for p, q in ratios], e


@pytest.mark.parametrize("n", [32, 48, 64, 96])
def test_legendre_rule_integrates_every_monomial_below_degree_2n(n):
    """The exact n-point rule integrates x^k over [-1, 1] exactly for
    k < 2n: sum_i w_i x_i^k = 2/(k+1) for even k, 0 for odd k.

    Write x, w for the exact rule and x~, w~ for the float one, each within
    d = 2^-52 of the exact (the accuracy the oracle docstring states).
    Every node lies in [-1, 1], so |x~^k - x^k| <= k d, and the exact
    weights sum to 2.  So

        |sum w~ x~^k - sum w x^k| <= sum |w~ - w| |x~|^k + sum w |x~^k - x^k|
                                  <= n d + 2 k d,

    which is the bound checked here, in exact arithmetic: the floats are
    read as integers over a power of 2, so no rounding enters the sums.
    """
    from shiftbinom import oracle

    x, w = oracle._gauss_legendre(n)
    assert len(x) == len(w) == n
    assert list(x) == sorted(x) and all(-1.0 < v < 1.0 for v in x)
    assert all(x[n - 1 - i] == -x[i] and w[n - 1 - i] == w[i] for i in range(n))
    assert all(v > 0.0 for v in w)
    nodes, ex = _scaled(x)
    terms, ew = _scaled(w)  # w_i x_i^k as integers over 2**(ew + k ex)
    for k in range(2 * n):
        moment = Fraction(sum(terms), 2 ** (ew + k * ex))
        exact = Fraction(2, k + 1) if k % 2 == 0 else 0
        assert abs(moment - exact) <= Fraction(n + 2 * k, 2**52), k
        terms = [t * v for t, v in zip(terms, nodes)]


def test_legendre_rule_odd_n_and_non_convergence(monkeypatch):
    from shiftbinom import oracle

    x, w = oracle._gauss_legendre(33)
    assert x[16] == 0.0 and x == tuple(-v for v in reversed(x))
    assert oracle._gauss_legendre(1) == ((0.0,), (2.0,))
    x, w = oracle._gauss_legendre(2)
    assert x == pytest.approx((-3**-0.5, 3**-0.5)) and w == pytest.approx((1.0, 1.0))
    # one Newton step from the starting guess cannot reach roundoff
    monkeypatch.setattr(oracle, "_NEWTON_STEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        oracle._gauss_legendre(32)
