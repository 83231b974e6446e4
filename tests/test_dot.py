from fractions import Fraction
from math import comb, factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from umbral import (
    Alphabet,
    MomentSeq,
    Poly,
    UmbraError,
    UmbralPoly,
    dot,
    dot_chain,
    dot_coeff_poly,
    dot_int,
    dot_int_oracle,
    dot_scalar,
    egf_from_moments,
    egf_of,
    exchangeable_up_to,
)
from umbral.dot import DOT_VAR

from conftest import rationals

N = Poly.var(DOT_VAR)
X = Poly.var("x")


@pytest.fixture
def ab():
    return Alphabet()


def sym(name, k):
    return Poly.var(f"{name}_{k}")


def test_dot_coeff_poly_low_orders(ab):
    g = ab.register("g", MomentSeq.generic("g"))
    assert dot_coeff_poly(ab, g, 0) == Poly.const(1)
    assert dot_coeff_poly(ab, g, 1) == N * sym("g", 1)
    expected = N * sym("g", 2) + N * (N - 1) * sym("g", 1) ** 2
    assert dot_coeff_poly(ab, g, 2) == expected


def test_dot_coeff_poly_degree_and_linear_term(ab):
    # Degree at most k in the formal variable; the coefficient of the
    # linear term contains the k-th moment with weight 1.
    g = ab.register("g", MomentSeq.generic("g"))
    for k in range(1, 7):
        q = dot_coeff_poly(ab, g, k)
        assert q.degree_in(DOT_VAR) == k
        linear = q.coefficient_of(DOT_VAR, 1)
        assert f"g_{k}" in linear.variables()
        remainder = linear - sym("g", k)
        assert f"g_{k}" not in remainder.variables()


def test_dot_int_two_copies(ab):
    a = ab.register("a", MomentSeq.generic("a"))
    two = dot_int(ab, 2, a)
    assert ab.is_auxiliary(two)
    assert ab.moment(two, 2) == 2 * sym("a", 2) + 2 * sym("a", 1) ** 2


def test_dot_int_zero_is_the_zero_umbra(ab):
    g = ab.register("g", MomentSeq.uniform())
    z = dot_int(ab, 0, g)
    assert ab.moment(z, 0) == 1
    assert all(ab.moment(z, k) == 0 for k in range(1, 8))


def test_negative_dot_cancels(ab):
    g = ab.register("g", MomentSeq.uniform())
    g2 = ab.clone(g)
    neg = UmbralPoly.of(dot_int(ab, -1, g))
    pos = UmbralPoly.of(dot_int(ab, 1, g2))
    for k in range(7):
        expected = Fraction(1) if k == 0 else Fraction(0)
        assert ab.evaluate((neg + pos) ** k) == expected


def test_dot_int_matches_explicit_clones(ab):
    a = ab.register("a", MomentSeq.generic("a"))
    total = UmbralPoly.scalar(0)
    for _ in range(3):
        total = total + UmbralPoly.of(ab.clone(a))
    tripled = UmbralPoly.of(dot_int(ab, 3, a))
    assert exchangeable_up_to(ab, tripled, total, 5)


def test_dot_with_unit_right_operand(ab):
    a = ab.register("a", MomentSeq.generic("a"))
    one = ab.register("one", MomentSeq.constant(1))
    left_unit = dot(ab, UmbralPoly.of(one), UmbralPoly.of(a))
    assert exchangeable_up_to(ab, UmbralPoly.of(left_unit), UmbralPoly.of(a), 8)
    right_unit = dot(ab, UmbralPoly.of(a), UmbralPoly.of(one))
    assert exchangeable_up_to(ab, UmbralPoly.of(right_unit), UmbralPoly.of(a), 8)


def test_dot_generic_second_moment(ab):
    a = ab.register("a", MomentSeq.generic("a"))
    g = ab.register("g", MomentSeq.generic("g"))
    u = dot(ab, UmbralPoly.of(a), UmbralPoly.of(g))
    expected = sym("a", 1) * sym("g", 2) + (sym("a", 2) - sym("a", 1)) * sym("g", 1) ** 2
    assert ab.moment(u, 2) == expected


def test_dot_egf_is_composition(ab):
    a = ab.register("a", MomentSeq.uniform())
    g = ab.register("g", MomentSeq.constant(Fraction(1, 2)))
    u = dot(ab, UmbralPoly.of(a), UmbralPoly.of(g))
    order = 6
    lhs = egf_of(ab, u, order)
    rhs = egf_of(ab, a, order).compose(egf_of(ab, g, order).log())
    assert lhs == rhs


def test_dot_rejects_auxiliary_operands(ab):
    a = ab.register("a", MomentSeq.uniform())
    g = ab.register("g", MomentSeq.uniform())
    aux = dot_int(ab, 2, a)
    with pytest.raises(UmbraError):
        dot(ab, UmbralPoly.of(aux), UmbralPoly.of(g))
    with pytest.raises(UmbraError):
        dot_int(ab, 3, UmbralPoly.of(aux))
    with pytest.raises(UmbraError):
        dot_chain(ab, [UmbralPoly.of(aux), UmbralPoly.of(g)])


def test_dot_results_are_independent_copies(ab):
    a = ab.register("a", MomentSeq.generic("a"))
    g = ab.register("g", MomentSeq.uniform())
    u1 = dot(ab, UmbralPoly.of(a), UmbralPoly.of(g))
    u2 = dot(ab, UmbralPoly.of(a), UmbralPoly.of(g))
    assert u1 != u2
    prod = UmbralPoly.of(u1) * UmbralPoly.of(u2)
    assert ab.evaluate(prod) == ab.evaluate(u1) * ab.evaluate(u2)


def test_chain_matches_egf_composition(ab):
    al = ab.register("al", MomentSeq.uniform())
    be = ab.register("be", MomentSeq.constant(Fraction(1, 3)))
    ga = ab.register("ga", MomentSeq.from_list([1, 2, 3, 5, 8, 13, 21, 34]))
    chained = dot_chain(ab, [UmbralPoly.of(al), UmbralPoly.of(be), UmbralPoly.of(ga)])
    order = 6
    a_s = egf_of(ab, al, order)
    b_s = egf_of(ab, be, order)
    c_s = egf_of(ab, ga, order)
    expected = a_s.compose(b_s.compose(c_s.log()).log())
    assert egf_of(ab, chained, order) == expected


def test_chain_unit_operands(ab):
    g = ab.register("g", MomentSeq.uniform())
    one = ab.register("one", MomentSeq.constant(1))
    chained = dot_chain(
        ab, [UmbralPoly.of(one), UmbralPoly.of(ab.clone(one)), UmbralPoly.of(g)]
    )
    assert exchangeable_up_to(ab, UmbralPoly.of(chained), UmbralPoly.of(g), 8)


def test_chain_needs_two_operands(ab):
    g = ab.register("g", MomentSeq.uniform())
    with pytest.raises(UmbraError):
        dot_chain(ab, [UmbralPoly.of(g)])


def test_scalar_left_operand_gives_polynomials(ab):
    g = ab.register("g", MomentSeq.generic("g"))
    p3 = dot_scalar(ab, X, g, 3)
    assert p3.degree_in("x") == 3
    assert p3 == dot_coeff_poly(ab, g, 3).substitute({DOT_VAR: X})


def test_chain_with_scalar_head_matches_scalar_dot(ab):
    be = ab.register("be", MomentSeq.uniform())
    al = ab.register("al", MomentSeq.constant(2))
    chained = dot_chain(ab, [UmbralPoly.scalar(X), UmbralPoly.of(be), UmbralPoly.of(al)])
    rho = ab.adopt("rho", UmbralPoly.of(dot(ab, UmbralPoly.of(be), UmbralPoly.of(al))))
    for k in range(6):
        assert ab.moment(chained, k) == dot_scalar(ab, X, rho, k)


# ---------------------------------------------------------------------------
# The algebraic laws
# ---------------------------------------------------------------------------


def test_left_linearity(ab):
    a = ab.register("a", MomentSeq.generic("a"))
    b = ab.register("b", MomentSeq.generic("b"))
    g = ab.register("g", MomentSeq.generic("g"))
    pa, pb, pg = UmbralPoly.of(a), UmbralPoly.of(b), UmbralPoly.of(g)
    joint = UmbralPoly.of(dot(ab, pa + pb, pg))
    split = UmbralPoly.of(dot(ab, pa, pg)) + UmbralPoly.of(dot(ab, pb, pg))
    assert exchangeable_up_to(ab, joint, split, 6)


def test_scalar_right_linearity(ab):
    b = ab.register("b", MomentSeq.generic("b"))
    g = ab.register("g", MomentSeq.generic("g"))
    pb, pg = UmbralPoly.of(b), UmbralPoly.of(g)
    for scalar in (UmbralPoly.scalar(Fraction(3, 7)), UmbralPoly.scalar(X)):
        joint = UmbralPoly.of(dot(ab, scalar, pb + pg))
        split = UmbralPoly.of(dot(ab, scalar, pb)) + UmbralPoly.of(dot(ab, scalar, pg))
        assert exchangeable_up_to(ab, joint, split, 6)


def test_scalar_law(ab):
    p = ab.register("p", MomentSeq.generic("p"))
    a = Fraction(3, 5)
    c = Fraction(-2, 3)
    scaled_inside = UmbralPoly.of(dot(ab, UmbralPoly.scalar(a), UmbralPoly.of(p) * Poly.const(c)))
    plain = UmbralPoly.of(dot(ab, UmbralPoly.scalar(a), UmbralPoly.of(p)))
    for k in range(7):
        assert ab.evaluate(scaled_inside**k) == ab.evaluate(plain**k) * c**k


def test_right_distributivity_fails_generically(ab):
    a = ab.register("a", MomentSeq.generic("a"))
    b = ab.register("b", MomentSeq.generic("b"))
    g = ab.register("g", MomentSeq.generic("g"))
    pa, pb, pg = UmbralPoly.of(a), UmbralPoly.of(b), UmbralPoly.of(g)
    joint = UmbralPoly.of(dot(ab, pa, pb + pg))
    split = UmbralPoly.of(dot(ab, pa, pb)) + UmbralPoly.of(dot(ab, pa, pg))
    assert ab.evaluate(joint) == ab.evaluate(split)
    lhs2 = ab.evaluate(joint**2)
    rhs2 = ab.evaluate(split**2)
    assert lhs2 != rhs2
    # the discrepancy is twice the product of first moments times the
    # "variance" a_2 - a_1^2 of the left operand
    a1, a2 = sym("a", 1), sym("a", 2)
    b1, g1 = sym("b", 1), sym("g", 1)
    assert lhs2 - rhs2 == 2 * b1 * g1 * (a2 - a1**2)


def test_associativity(ab):
    a = ab.register("a", MomentSeq.generic("a"))
    b = ab.register("b", MomentSeq.generic("b"))
    g = ab.register("g", MomentSeq.generic("g"))
    pa, pb, pg = UmbralPoly.of(a), UmbralPoly.of(b), UmbralPoly.of(g)
    rho = ab.adopt("rho", UmbralPoly.of(dot(ab, pa, pb)))
    sigma = ab.adopt("sigma", UmbralPoly.of(dot(ab, pb, pg)))
    left = UmbralPoly.of(dot(ab, UmbralPoly.of(rho), pg))
    right = UmbralPoly.of(dot(ab, pa, UmbralPoly.of(sigma)))
    assert exchangeable_up_to(ab, left, right, 6)
    chained = UmbralPoly.of(dot_chain(ab, [pa, pb, pg]))
    assert exchangeable_up_to(ab, chained, right, 6)


def test_oracle_equivalence(ab):
    g = ab.register("g", MomentSeq.generic("g"))
    for n in range(1, 6):
        for k in range(7):
            via_series = dot_coeff_poly(ab, g, k).substitute({DOT_VAR: Fraction(n)})
            assert via_series == dot_int_oracle(ab, n, g, k)


def test_oracle_small_cases(ab):
    a = ab.register("a", MomentSeq.generic("a"))
    assert dot_int_oracle(ab, 2, a, 2) == 2 * sym("a", 2) + 2 * sym("a", 1) ** 2
    assert dot_int_oracle(ab, 3, a, 1) == 3 * sym("a", 1)
    u = ab.register("u", MomentSeq.uniform())
    assert dot_int_oracle(ab, 5, u, 4) == dot_coeff_poly(ab, u, 4).substitute(
        {DOT_VAR: Fraction(5)}
    )


def test_binomial_law_for_integer_dots(ab):
    a = ab.register("a", MomentSeq.generic("a"))

    def f(k, n):
        return dot_coeff_poly(ab, a, k).substitute({DOT_VAR: Fraction(n)})

    for m in range(5):
        for n in range(5):
            for k in range(7):
                lhs = f(k, m + n)
                rhs = sum(
                    (comb(k, i) * f(i, m) * f(k - i, n) for i in range(k + 1)),
                    Poly.const(0),
                )
                assert lhs == rhs


# ---------------------------------------------------------------------------
# The cumulant route against two independent routes
# ---------------------------------------------------------------------------

K_MAX = 5


@st.composite
def dot_operands(draw):
    """An alphabet and an operand: list moments, generic symbols, or an
    umbral polynomial in two list-moment umbrae."""
    ab = Alphabet()
    kind = draw(st.sampled_from(["list", "generic", "poly"]))
    if kind == "generic":
        return ab, ab.register("g", MomentSeq.generic("g"))
    lists = st.lists(rationals, min_size=K_MAX * 2, max_size=K_MAX * 2)
    if kind == "list":
        return ab, ab.register("g", MomentSeq.from_list(draw(lists)))
    a = UmbralPoly.of(ab.register("a", MomentSeq.from_list(draw(lists))))
    b = UmbralPoly.of(ab.register("b", MomentSeq.from_list(draw(lists))))
    c0, c1, c2 = draw(rationals), draw(rationals), draw(rationals)
    return ab, a * c1 + b * b * c2 + c0


@settings(max_examples=25, deadline=None)
@given(dot_operands())
def test_dot_coeff_poly_matches_exp_log_and_oracle(case):
    ab, op = case
    moments = [ab.evaluate(UmbralPoly.coerce(op) ** i) for i in range(K_MAX + 1)]
    scaled_log = egf_from_moments(moments).log() * N
    via_exp_log = scaled_log.exp()
    for k in range(K_MAX + 1):
        q = dot_coeff_poly(ab, op, k)
        assert q == via_exp_log.coeff(k) * factorial(k)
        for n in range(1, 4):
            assert q.substitute({DOT_VAR: Fraction(n)}) == dot_int_oracle(ab, n, op, k)


def test_list_operand_raises_past_its_moments(ab):
    g = ab.register("g", MomentSeq.from_list([1, 2, 3]))
    assert dot_coeff_poly(ab, g, 3).degree_in(DOT_VAR) == 3
    with pytest.raises(UmbraError, match="moment 4"):
        dot_coeff_poly(ab, g, 4)
    # the cached table stays usable after the failure
    assert dot_coeff_poly(ab, g, 2) == N * 2 + N * (N - 1)
    two = dot_int(ab, 2, g)
    assert ab.moment(two, 3) == dot_int_oracle(ab, 2, g, 3)
    with pytest.raises(UmbraError, match="moment 4"):
        ab.moment(two, 4)
    left = ab.register("left", MomentSeq.from_list([1]))
    u = dot(ab, UmbralPoly.of(left), UmbralPoly.of(g))
    assert ab.moment(u, 1) == 1
    with pytest.raises(UmbraError, match="moment 2"):
        ab.moment(u, 2)
