from fractions import Fraction

import pytest

from umbral import (
    Alphabet,
    MomentSeq,
    Poly,
    UmbraError,
    general_multiplicative,
    is_homogeneous,
    is_multiplicative,
    k_polynomials,
    m_sequence,
    msequence_product_identity,
)
from umbral.multiplicative import (
    KSeq,
    is_linear_in_symbols,
    max_symbol_index,
    respects_dependence_bound,
)


@pytest.fixture
def ab():
    return Alphabet()


def sym(k, name="a"):
    return Poly.var(f"{name}_{k}")


def test_unit_umbra_gives_plain_moments(ab):
    one = ab.register("one", MomentSeq.constant(1))
    k = k_polynomials(ab, one, 5)
    for m in range(1, 6):
        assert k[m] == sym(m)


def test_first_entry_scales_with_first_moment(ab):
    g = ab.register("g", MomentSeq.from_list([Fraction(2, 7), 1, 1, 1]))
    k = k_polynomials(ab, g, 3)
    assert k[1] == sym(1) * Fraction(2, 7)


def test_uniform_second_entry(ab):
    uni = ab.register("uni", MomentSeq.uniform())
    k = k_polynomials(ab, uni, 4)
    expected = sym(1) * Fraction(1, 3) + (sym(2) - sym(1)) * Fraction(1, 4)
    assert k[2] == expected


def test_k_polynomials_structure(ab):
    uni = ab.register("uni", MomentSeq.uniform())
    k = k_polynomials(ab, uni, 6)
    assert is_multiplicative(k)
    assert is_linear_in_symbols(k)
    assert respects_dependence_bound(k)


def test_k_polynomials_rejects_symbolic_right_operand(ab):
    g = ab.register("g", MomentSeq.generic("g"))
    with pytest.raises(UmbraError):
        k_polynomials(ab, g, 3)


def test_general_single_unit_term(ab):
    one = ab.register("one", MomentSeq.constant(1))
    k = general_multiplicative(ab, [1], one, 5)
    for m in range(1, 6):
        assert k[m] == sym(m)


def test_general_two_copies(ab):
    # coefficients (0, 1) make the sum exchangeable with a double dot
    one = ab.register("one", MomentSeq.constant(1))
    k = general_multiplicative(ab, [0, 1], one, 4)
    assert k[2] == 2 * sym(2) + 2 * sym(1) ** 2
    assert is_multiplicative(k)
    assert is_homogeneous(k)


def test_general_graded_degree_bound(ab):
    uni = ab.register("uni", MomentSeq.uniform())
    k = general_multiplicative(ab, [1, Fraction(1, 2)], uni, 5)
    assert is_multiplicative(k)
    assert respects_dependence_bound(k)
    # inhomogeneous in general, but never exceeds graded degree m
    from umbral.multiplicative import _graded_degrees

    for m in range(6):
        assert max(_graded_degrees(k[m], "a"), default=0) <= m


def test_general_homogeneous_for_unit_umbra(ab):
    one = ab.register("one", MomentSeq.constant(1))
    k = general_multiplicative(ab, [Fraction(1, 3), 2, Fraction(-1, 2)], one, 5)
    assert is_multiplicative(k)
    assert is_homogeneous(k)


def test_is_multiplicative_counterexample():
    bad = KSeq((Poly.const(1), sym(1), sym(2) + 1))
    assert not is_multiplicative(bad)
    good = KSeq((Poly.const(1), sym(1), sym(2), sym(3)))
    assert is_multiplicative(good)


def test_m_sequence_plain_moments():
    from math import factorial

    k = KSeq(tuple([Poly.const(1)] + [sym(m) for m in range(1, 5)]))
    ell = m_sequence(k)
    for m in range(1, 5):
        assert ell[m] == sym(m) * Fraction(1, factorial(m))
    assert msequence_product_identity(ell, 4)


def test_m_sequence_from_double_dot(ab):
    one = ab.register("one", MomentSeq.constant(1))
    k = general_multiplicative(ab, [0, 1], one, 4)
    ell = m_sequence(k)
    assert ell[2] == sym(2) + sym(1) ** 2
    assert msequence_product_identity(ell, 4)


def test_m_sequence_rejects_inhomogeneous(ab):
    uni = ab.register("uni", MomentSeq.uniform())
    k = k_polynomials(ab, uni, 4)
    assert not is_homogeneous(k)
    with pytest.raises(ValueError):
        m_sequence(k)


def test_max_symbol_index():
    assert max_symbol_index(sym(3) * sym(1), "a") == 3
    assert max_symbol_index(Poly.const(2), "a") == 0


def test_k_polynomials_reject_a_moment_symbol_named_n(ab):
    for symbol in ("c", "n"):
        gamma = ab.register(symbol, MomentSeq.from_list([Poly.var(symbol), 1]))
        with pytest.raises(UmbraError):
            k_polynomials(ab, gamma, 2)
