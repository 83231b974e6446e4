from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from umbral import (
    Alphabet,
    MomentSeq,
    Poly,
    UmbraError,
    UmbralPoly,
    dot_int,
    exchangeable_up_to,
    independent,
    momentseq_from_spec,
    umbrally_equivalent,
)

from conftest import polys, rationals


@pytest.fixture
def ab():
    return Alphabet()


def test_register_and_moments(ab):
    g = ab.register("g", MomentSeq.uniform())
    assert ab.evaluate(UmbralPoly.of(g) ** 2) == Fraction(1, 3)
    one = ab.register("one", MomentSeq.constant(1))
    assert all(ab.moment(one, k) == 1 for k in range(6))
    eps = ab.register("eps", MomentSeq.eps())
    assert ab.moment(eps, 0) == 1
    assert all(ab.moment(eps, k) == 0 for k in range(1, 6))


def test_register_duplicate_name(ab):
    ab.register("g", MomentSeq.uniform())
    with pytest.raises(UmbraError):
        ab.register("g", MomentSeq.eps())


def test_moment_list_is_not_zero_extended(ab):
    u = ab.register("u", MomentSeq.from_list([Fraction(1, 2), Fraction(1, 3)]))
    assert ab.moment(u, 2) == Fraction(1, 3)
    with pytest.raises(UmbraError):
        ab.moment(u, 3)


def test_clone_exchangeable_and_independent(ab):
    g = ab.register("g", MomentSeq.uniform())
    g2 = ab.clone(g)
    assert g2 != g
    assert exchangeable_up_to(ab, g, g2, 10)
    # independence: the product of moments factors
    prod = UmbralPoly.of(g) * UmbralPoly.of(g2)
    assert ab.evaluate(prod) == ab.evaluate(g) * ab.evaluate(g2)
    clones = [ab.clone(g) for _ in range(3)]
    for i, a in enumerate(clones):
        for b in clones[i + 1 :]:
            assert independent(UmbralPoly.of(a), UmbralPoly.of(b))


def test_eps_clone_still_vanishes(ab):
    e = ab.register("e", MomentSeq.eps())
    e2 = ab.clone(e)
    s = UmbralPoly.of(e) + UmbralPoly.of(e2)
    assert exchangeable_up_to(ab, s, UmbralPoly.of(e), 8)


def test_worked_evaluation(ab):
    g = ab.register("g", MomentSeq.uniform())
    g2 = ab.clone(g)
    p = (UmbralPoly.of(g) + UmbralPoly.of(g2)) ** 3 * 20
    assert ab.evaluate(p) == 30


def test_generic_independence_expansion(ab):
    a = ab.register("a", MomentSeq.generic("a"))
    a2 = ab.clone(a)
    a_1, a_2 = Poly.var("a_1"), Poly.var("a_2")
    assert ab.evaluate(UmbralPoly.of(a) ** 2) == a_2
    assert ab.evaluate((UmbralPoly.of(a) + UmbralPoly.of(a2)) ** 2) == 2 * a_2 + 2 * a_1**2


def test_same_umbra_is_not_an_independent_copy(ab):
    g = ab.register("g", MomentSeq.uniform())
    g2 = ab.clone(g)
    doubled = UmbralPoly.of(g) * 2
    summed = UmbralPoly.of(g) + UmbralPoly.of(g2)
    assert ab.evaluate(doubled**2) == Fraction(4, 3)
    assert ab.evaluate(summed**2) == Fraction(7, 6)


def test_umbral_equivalence(ab):
    g = ab.register("g", MomentSeq.uniform())
    b = ab.inverse(g)
    zero = UmbralPoly.scalar(0)
    assert umbrally_equivalent(ab, UmbralPoly.of(g) + UmbralPoly.of(b), zero)
    a = ab.register("a", MomentSeq.generic("a"))
    a2 = ab.clone(a)
    assert umbrally_equivalent(ab, a, a2)


def test_negated_umbra_differs_from_negative_dot(ab):
    a = ab.register("a", MomentSeq.generic("a"))
    minus_dot = UmbralPoly.of(dot_int(ab, -1, a))
    minus = -UmbralPoly.of(ab.clone(a))
    assert umbrally_equivalent(ab, minus_dot, minus)  # first moments agree
    assert ab.evaluate(minus_dot**2) != ab.evaluate(minus**2)


def test_exchangeability_examples(ab):
    g = ab.register("g", MomentSeq.uniform())
    assert exchangeable_up_to(ab, g, ab.clone(g), 10)
    a = ab.register("a", MomentSeq.generic("a"))
    b = ab.register("b", MomentSeq.generic("b"))
    pa, pb = UmbralPoly.of(a), UmbralPoly.of(b)
    assert exchangeable_up_to(ab, pa + pb, pb + pa, 8)
    two_dot = UmbralPoly.of(dot_int(ab, 2, a))
    assert not exchangeable_up_to(ab, two_dot, pa * 2, 2)


def test_equality_exchangeability_equivalence_hierarchy(ab):
    g = ab.register("g", MomentSeq.uniform())
    g2 = ab.clone(g)
    # exchangeable but not equal
    assert UmbralPoly.of(g) != UmbralPoly.of(g2)
    assert exchangeable_up_to(ab, g, g2, 8)
    # equivalent but not exchangeable
    p = UmbralPoly.of(g) + UmbralPoly.of(g2)
    q = UmbralPoly.of(g) * 2
    assert umbrally_equivalent(ab, p, q)
    assert not exchangeable_up_to(ab, p, q, 2)


def test_independence_is_syntactic(ab):
    names = {}
    for n in ("a", "b"):
        names[n] = ab.register(n, MomentSeq.generic(n))
    a = UmbralPoly.of(names["a"])
    a2 = UmbralPoly.of(ab.clone(names["a"]))
    a3 = UmbralPoly.of(ab.clone(names["a"]))
    b = UmbralPoly.of(names["b"])
    b2 = UmbralPoly.of(ab.clone(names["b"]))
    left = a**2 + a * a2
    assert independent(left, b * b2**2 - b + a3)
    assert not independent(left, b * b2**2 - b + a)
    t = Poly.var("y")
    assert independent(a * t**2 + b, UmbralPoly.of(names["b"]) * 0 + UmbralPoly.scalar(t) * -1 + a3 * 0 + b2)


def test_scalar_coefficients_do_not_break_independence(ab):
    a = ab.register("a", MomentSeq.generic("a"))
    c = ab.register("c", MomentSeq.generic("c"))
    t = Poly.var("y")
    p = UmbralPoly.of(a) * t**2 + UmbralPoly.scalar(3)
    q = UmbralPoly.of(c) - UmbralPoly.scalar(t)
    assert independent(p, q)


def test_inverse_umbra_bernoulli(ab):
    g = ab.register("g", MomentSeq.uniform())
    b = ab.inverse(g)
    values = [ab.moment(b, k) for k in range(7)]
    assert values == [
        Poly.const(1),
        Poly.const(Fraction(-1, 2)),
        Poly.const(Fraction(1, 6)),
        Poly.const(0),
        Poly.const(Fraction(-1, 30)),
        Poly.const(0),
        Poly.const(Fraction(1, 42)),
    ]
    assert exchangeable_up_to(
        ab, UmbralPoly.of(g) + UmbralPoly.of(b), UmbralPoly.scalar(0), 12
    )


def test_inverse_of_eps_and_constants(ab):
    e = ab.register("e", MomentSeq.eps())
    ie = ab.inverse(e)
    assert all(ab.moment(ie, k) == (1 if k == 0 else 0) for k in range(8))
    c = ab.register("c", MomentSeq.constant(Fraction(5, 3)))
    ic = ab.inverse(c)
    assert all(ab.moment(ic, k) == Fraction(-5, 3) ** k for k in range(8))


def test_inverse_involution(ab):
    g = ab.register("g", MomentSeq.uniform())
    gg = ab.inverse(ab.inverse(g))
    assert all(ab.moment(gg, k) == ab.moment(g, k) for k in range(10))


def test_inverse_with_generic_moments(ab):
    a = ab.register("a", MomentSeq.generic("a"))
    ia = ab.inverse(a)
    assert exchangeable_up_to(
        ab, UmbralPoly.of(a) + UmbralPoly.of(ia), UmbralPoly.scalar(0), 6
    )


def test_momentseq_from_spec():
    specs = {
        "uniform": Fraction(1, 3),
        "const:2": Fraction(4),
        "eps": Fraction(0),
        "bernoulli": Fraction(1, 6),
        "list:[1/2,1/3]": Fraction(1, 3),
        "egf:expm1": None,  # checked below
    }
    for spec, second_moment in specs.items():
        seq = momentseq_from_spec(spec)
        assert seq.moment(0) == 1
        if second_moment is not None:
            assert seq.moment(2) == second_moment
    gen = momentseq_from_spec("generic:q")
    assert gen.moment(3) == Poly.var("q_3")
    with pytest.raises(UmbraError):
        momentseq_from_spec("wat")


def test_egf_spec_moments():
    # e^z - 1 is not a valid moment EGF (constant term 0): the parser
    # should reject it the moment a value is realized.
    seq = momentseq_from_spec("egf:expm1")
    with pytest.raises(UmbraError):
        seq.moment(1)
    good = momentseq_from_spec("egf:coeffs:1,1/2,1/6")
    assert good.moment(1) == Fraction(1, 2)
    assert good.moment(2) == Fraction(1, 3)


def test_unknown_umbra_raises(ab):
    other = Alphabet()
    g = other.register("g", MomentSeq.uniform())
    with pytest.raises(UmbraError):
        ab.moment(g, 1)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=30)
@given(polys(variables=("y",), max_terms=3, max_exp=2), st.integers(0, 4))
def test_substitution_lemma(coeff_poly, extra_power):
    # p(t) = c(y) * t^extra + t + 1 is independent of the exchangeable pair.
    ab = Alphabet()
    alpha = ab.register("alpha", MomentSeq.uniform())
    alpha2 = ab.clone(alpha)
    delta = ab.register("delta", MomentSeq.generic("d"))

    def p_of(t):
        return (
            UmbralPoly.scalar(coeff_poly) * t**extra_power
            + t
            + UmbralPoly.of(delta)
        )

    assert exchangeable_up_to(ab, p_of(UmbralPoly.of(alpha)), p_of(UmbralPoly.of(alpha2)), 4)


@settings(max_examples=30)
@given(rationals, rationals)
def test_evaluation_linearity(c, d):
    ab = Alphabet()
    g = ab.register("g", MomentSeq.uniform())
    a = ab.register("a", MomentSeq.generic("a"))
    p = UmbralPoly.of(g) ** 2 + UmbralPoly.of(a)
    q = UmbralPoly.of(g) * UmbralPoly.of(a)
    lhs = ab.evaluate(p * c + q * d)
    assert lhs == ab.evaluate(p) * c + ab.evaluate(q) * d


@settings(max_examples=30)
@given(st.integers(0, 3), st.integers(0, 3))
def test_product_rule_for_independent(i, j):
    ab = Alphabet()
    g = ab.register("g", MomentSeq.uniform())
    a = ab.register("a", MomentSeq.generic("a"))
    p = UmbralPoly.of(g) ** i + 1
    q = UmbralPoly.of(a) ** j - 2
    assert ab.evaluate(p * q) == ab.evaluate(p) * ab.evaluate(q)
