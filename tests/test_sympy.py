"""Cross-checks against sympy, a computer-algebra system independent of the
engine, where the brute-force oracles do not reach."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.ring_series import rs_exp, rs_log, rs_series_reversion  # noqa: E402

from umbral import (  # noqa: E402
    Alphabet,
    MomentSeq,
    Series,
    rising_factorial_sequence,
    stirling1,
    stirling2,
)

ORDER = 12
z = sympy.symbols("z")


def to_fraction(value) -> Fraction:
    r = sympy.Rational(value)
    return Fraction(int(r.p), int(r.q))


def series_coeffs(expr, order=ORDER) -> list[Fraction]:
    """Coefficients ``c_0 .. c_order`` of sympy's expansion of ``expr`` at 0."""
    poly = sympy.Poly(sympy.series(expr, z, 0, order + 1).removeO(), z)
    return [to_fraction(poly.coeff_monomial(z**k)) for k in range(order + 1)]


def rationals(s: Series) -> list[Fraction]:
    return [c.as_rational() for c in s.coefficients]


def seeded_series(seed: int, constant: int, order: int = ORDER) -> list[Fraction]:
    rng = random.Random(seed)
    return [Fraction(constant)] + [
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order)
    ]


# sympy's own truncated-series arithmetic over QQ, for series with
# seeded rational coefficients.
QQ = sympy.QQ
R, t, y = sympy.polys.rings.ring("t,y", QQ)


def ring_series(cs: list[Fraction]):
    return sum((QQ(c.numerator, c.denominator) * t**k for k, c in enumerate(cs)), R.zero)


def ring_coeffs(p, gen, order: int = ORDER) -> list[Fraction]:
    n = R.gens.index(gen)
    out = [Fraction(0)] * (order + 1)
    for monom, c in p.terms():
        out[monom[n]] = Fraction(int(c.numerator), int(c.denominator))
    return out


def test_bernoulli_numbers():
    ab = Alphabet()
    bern = ab.inverse(ab.register("u", MomentSeq.uniform()))
    expected = [to_fraction(sympy.bernoulli(k)) for k in range(31)]
    expected[1] = -expected[1]  # sympy >= 1.12 uses B_1 = +1/2
    assert [m.as_rational() for m in ab.moments(bern, 30)] == expected


@pytest.mark.parametrize(
    "f, inverse",
    [
        (sympy.sin(z), sympy.asin(z)),
        (sympy.tan(z), sympy.atan(z)),
        (sympy.exp(z) - 1, sympy.log(1 + z)),
        (z * sympy.exp(z), sympy.LambertW(z)),
    ],
)
def test_comp_inverse_of_named_series(f, inverse):
    h = Series(series_coeffs(f)).comp_inverse()
    assert rationals(h) == series_coeffs(inverse)


@pytest.mark.parametrize("seed", range(3))
def test_comp_inverse_of_seeded_series(seed):
    cs = seeded_series(seed, 0)
    cs[1] = cs[1] or Fraction(1)
    expected = rs_series_reversion(ring_series(cs), t, ORDER + 1, y)
    assert rationals(Series(cs).comp_inverse()) == ring_coeffs(expected, y)


@pytest.mark.parametrize("seed", range(3))
def test_exp_and_log(seed):
    g = seeded_series(seed, 0)
    assert rationals(Series(g).exp()) == ring_coeffs(rs_exp(ring_series(g), t, ORDER + 1), t)
    u = seeded_series(seed + 10, 1)
    assert rationals(Series(u).log()) == ring_coeffs(rs_log(ring_series(u), t, ORDER + 1), t)


def test_series_algorithms_at_order_30():
    # Order 30 is in reach since comp_inverse is Lagrange inversion and
    # exp/log run their derivative recurrences.
    order = 30
    f = seeded_series(30, 0, order)
    f[1] = f[1] or Fraction(1)
    expected = rs_series_reversion(ring_series(f), t, order + 1, y)
    assert rationals(Series(f).comp_inverse()) == ring_coeffs(expected, y, order)
    expected = rs_exp(ring_series(f), t, order + 1)
    assert rationals(Series(f).exp()) == ring_coeffs(expected, t, order)
    u = seeded_series(31, 1, order)
    expected = rs_log(ring_series(u), t, order + 1)
    assert rationals(Series(u).log()) == ring_coeffs(expected, t, order)


def test_stirling_numbers():
    numbers = sympy.functions.combinatorial.numbers
    for n in range(13):
        for k in range(n + 1):
            assert stirling1(n, k) == numbers.stirling(n, k, kind=1, signed=True)
            assert stirling2(n, k) == numbers.stirling(n, k, kind=2)


@pytest.mark.parametrize("c", [Fraction(1), Fraction(-2, 3)])
def test_rising_constant_matches_closed_form(c):
    n = 16
    ab = Alphabet()
    seq = rising_factorial_sequence(ab, ab.register("c", MomentSeq.constant(c)), n)
    x = sympy.symbols("x")
    closed = sympy.Integer(1)
    for k in range(n + 1):
        expected = sympy.Poly(closed, x)
        got = seq[k]
        assert got.variables() <= {"x"}
        assert [got.coefficient_of("x", i).as_rational() for i in range(k + 1)] == [
            to_fraction(expected.coeff_monomial(x**i)) for i in range(k + 1)
        ]
        closed = sympy.expand(closed * (x + k * sympy.Rational(c.numerator, c.denominator)))
