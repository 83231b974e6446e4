from collections import Counter
from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from umbral import (
    Poly,
    Series,
    egf_from_moments,
    exp_series,
    expm1_series,
    log1p_series,
    moments_from_egf,
    one_minus_exp_neg_series,
    series_from_spec,
)

from conftest import delta_series, nonzero_rationals, rationals, unit_series

X = Poly.var("x")


def uniform_egf(order):
    """(e^z - 1)/z: EGF of the moments 1/(k+1)."""
    return egf_from_moments([Fraction(1, k + 1) for k in range(order + 1)])


def reciprocal_oracle(coeffs):
    """Solve sum_i c_i g_{k-i} = [k=0] recursively; independent of Series."""
    inv = [Fraction(1) / coeffs[0]]
    for k in range(1, len(coeffs)):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += coeffs[i] * inv[k - i]
        inv.append(-acc / coeffs[0])
    return inv


def comp_inverse_oracle(f):
    """Solve ``f(h) = v`` coefficient by coefficient: ``h_k = -[v^k] f(h_{<k}) / f_1``."""
    n = f.order
    inv1 = 1 / f.coeff(1).as_rational()
    h = [Poly.const(0), Poly.const(inv1)] + [Poly.const(0)] * (n - 1)
    for k in range(2, n + 1):
        h[k] = f.compose(Series(h)).coeff(k) * (-inv1)
    return Series(h)


def exp_oracle(f):
    return exp_series(f.order).compose(f)


def log_oracle(f):
    return log1p_series(f.order).compose(f - 1)


@st.composite
def oracle_series(draw, constant, min_order=0, rational_up_to=0):
    """Order 0-10 and constant term ``constant``.  The coefficients up to
    ``rational_up_to`` are nonzero rationals; the later ones are all
    rationals ``c`` or all symbolic ``c*a_k``."""
    order = draw(st.integers(min_value=min_order, max_value=10))
    symbolic = draw(st.booleans())
    cs = [Poly.const(constant)]
    for k in range(1, order + 1):
        if k <= rational_up_to:
            cs.append(Poly.const(draw(nonzero_rationals)))
        else:
            c = draw(rationals)
            cs.append(Poly.var(f"a_{k}") * c if symbolic else Poly.const(c))
    return Series(cs)


@settings(max_examples=25, deadline=None)
@given(oracle_series(0, min_order=1, rational_up_to=1))
def test_comp_inverse_matches_coefficientwise_solve(f):
    assert f.comp_inverse() == comp_inverse_oracle(f)


@settings(max_examples=40, deadline=None)
@given(oracle_series(0))
def test_exp_matches_composition(f):
    assert f.exp() == exp_oracle(f)


@settings(max_examples=40, deadline=None)
@given(oracle_series(1))
def test_log_matches_composition(f):
    assert f.log() == log_oracle(f)


@pytest.mark.parametrize("order", [1, 2, 7, 16])
def test_series_algorithms_make_no_composition(order, monkeypatch):
    # Op counts are deterministic: a return to one composition per
    # coefficient fails here, where a timing would only be flaky.
    calls = Counter()
    for name in ("compose", "__mul__"):
        original = getattr(Series, name)

        def counted(self, other, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, other)

        monkeypatch.setattr(Series, name, counted)
    f = Series([0, Fraction(3, 2)] + [Fraction(k, k + 2) for k in range(2, order + 1)])
    f.comp_inverse()
    assert calls["compose"] == 0 and calls["__mul__"] <= order + 1
    f.exp()
    (f + 1).log()
    assert calls["compose"] == 0


def test_mul_basic():
    n = 4
    one_plus = Series([1, 1, 0, 0, 0])
    one_minus = Series([1, -1, 0, 0, 0])
    assert one_plus * one_minus == Series([1, 0, -1, 0, 0])
    assert one_plus.reciprocal() == Series([1, -1, 1, -1, 1])
    assert (one_plus * one_plus.reciprocal()) == Series.constant(1, n)


def test_reciprocal_of_uniform_egf():
    # Oracle: recursive linear solve on the explicit truncation.
    g = uniform_egf(4)
    expected = reciprocal_oracle([c.as_rational() for c in g.coefficients])
    assert expected == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 12),
        Fraction(0),
        Fraction(-1, 720),
    ]
    assert g.reciprocal() == Series(expected)


def test_reciprocal_rejects_zero_constant():
    with pytest.raises(ValueError):
        Series([0, 1, 2]).reciprocal()


def test_exp_basic():
    n = 6
    assert Series.constant(0, n).exp() == Series.constant(1, n)
    assert Series.identity(n).exp() == exp_series(n)
    assert log1p_series(n).exp() == Series([1, 1] + [0] * (n - 1))


def test_exp_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        Series([1, 1, 1]).exp()
    with pytest.raises(ValueError):
        Series([Poly.var("a_1"), 1, 1]).exp()


def test_log_basic():
    n = 6
    assert Series.constant(1, n).log() == Series.constant(0, n)
    assert Series([1, 1] + [0] * (n - 1)).log() == log1p_series(n)


def test_log_of_uniform_egf():
    # Oracle: sum_{k} (-1)^{k+1} u^k / k on the explicit truncation of g - 1.
    g = uniform_egf(4)
    u = g - 1
    acc = Series.constant(0, 4)
    upow = Series.constant(1, 4)
    for k in range(1, 5):
        upow = upow * u
        acc = acc + upow * Fraction((-1) ** (k + 1), k)
    expected = Series(
        [0, Fraction(1, 2), Fraction(1, 24), 0, Fraction(-1, 2880)]
    )
    assert acc == expected
    assert g.log() == expected


def test_log_rejects_wrong_constant():
    with pytest.raises(ValueError):
        Series([0, 1, 1]).log()


def test_compose_basic():
    n = 6
    f = Series([2, 3, Fraction(1, 2)] + [0] * (n - 2))
    assert f.compose(Series.identity(n)) == f
    doubled = exp_series(n).compose(Series([0, 2] + [0] * (n - 1)))
    assert doubled == Series([Fraction(2**k, factorial(k)) for k in range(n + 1)])
    assert exp_series(n).compose(log1p_series(n)) == Series([1, 1] + [0] * (n - 1))


def test_compose_rejects_non_delta_inner():
    with pytest.raises(ValueError):
        exp_series(4).compose(Series([1, 1, 0, 0, 0]))


def test_comp_inverse_identity_and_known_pair():
    n = 8
    z = Series.identity(n)
    assert z.comp_inverse() == z
    assert expm1_series(n).comp_inverse() == log1p_series(n)


def test_comp_inverse_catalan():
    # Oracle: f(h) = z checked by explicit composition; the coefficients
    # are the Catalan numbers 1, 1, 2, 5.
    f = Series([0, 1, -1, 0, 0])
    h = f.comp_inverse()
    assert h == Series([0, 1, 1, 2, 5])
    assert f.compose(h) == Series.identity(4)


def test_comp_inverse_rejects_bad_input():
    with pytest.raises(ValueError):
        Series([1, 1, 0]).comp_inverse()
    with pytest.raises(ValueError):
        Series([0, 0, 1]).comp_inverse()
    with pytest.raises(ValueError):
        Series([0]).comp_inverse()
    with pytest.raises(ValueError):
        Series([0, Poly.var("a_1"), 1]).comp_inverse()


def test_apply_operator_series():
    n = 6
    d = Series.identity(n, "D")
    assert d.apply_to_poly(X**3) == 3 * X**2

    c = Poly.var("y")
    shift = Series(
        [c**k * Fraction(1, factorial(k)) for k in range(n + 1)], "D"
    )
    assert shift.apply_to_poly(X**2) == (X + c) ** 2

    backdiff = one_minus_exp_neg_series(n, "D")
    assert backdiff.apply_to_poly(X**2) == 2 * X - 1


def test_apply_operator_rejects_low_order():
    with pytest.raises(ValueError):
        Series([0, 1], "D").apply_to_poly(X**3)


def test_truncation_is_explicit():
    s = Series([1, 2, 0, 0])
    assert s.order == 3
    assert s.truncate(1) == Series([1, 2])
    with pytest.raises(ValueError):
        s.truncate(5)
    with pytest.raises(ValueError):
        s.coeff(4)


def test_min_order_propagation():
    a = Series([1, 1, 1, 1])
    b = Series([1, 2])
    assert (a + b).order == 1
    assert (a * b).order == 1


def test_moments_egf_roundtrip():
    moments = [Poly.const(1), Poly.var("a_1"), Poly.var("a_2")]
    egf = egf_from_moments(moments)
    assert moments_from_egf(egf) == moments


def test_series_text_and_json():
    s = Series([1, Fraction(-1, 2), 0, Poly.var("a_1")])
    assert str(s) == "1 + -1/2*z + (a_1)*z^3 + O(z^4)"
    assert Series.from_json(s.to_json()) == s


def test_series_from_spec():
    assert series_from_spec("t", 4) == Series.identity(4)
    assert series_from_spec("expm1", 4) == expm1_series(4)
    assert series_from_spec("1-exp(-t)", 4) == one_minus_exp_neg_series(4)
    assert series_from_spec("t-t^2", 4) == Series([0, 1, -1, 0, 0])
    assert series_from_spec("coeffs:1,1/2", 3) == Series([1, Fraction(1, 2), 0, 0])
    with pytest.raises(ValueError):
        series_from_spec("nope", 4)


@settings(max_examples=40)
@given(delta_series())
def test_comp_inverse_roundtrip(f):
    h = f.comp_inverse()
    assert f.compose(h) == Series.identity(f.order)
    assert h.compose(f) == Series.identity(f.order)


@settings(max_examples=40)
@given(unit_series())
def test_exp_log_roundtrip(s):
    assert s.log().exp() == s


@settings(max_examples=40)
@given(delta_series(order=6), delta_series(order=6))
def test_mul_commutes(a, b):
    assert a * b == b * a


def test_operator_composition_is_series_multiplication():
    t = Series([1, Fraction(1, 2), Fraction(-1, 3), 2, 0, 1], "D")
    s = Series([0, 1, 1, Fraction(1, 4), 0, 0], "D")
    p = X**4 - 2 * X**2 + X
    composed = (t * s).apply_to_poly(p)
    staged = t.apply_to_poly(s.apply_to_poly(p))
    assert composed == staged


@pytest.mark.parametrize(
    "op",
    [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: a.compose(b),
    ],
    ids=["add", "sub", "mul", "compose"],
)
def test_mixed_variables_are_rejected(op):
    z = Series([0, 1, 2], "z")
    d = Series([0, 1, 3], "D")
    with pytest.raises(ValueError, match="different variables"):
        op(z, d)
    assert op(z, d.with_var("z")).var == "z"
