"""Named identity suites, runnable from the CLI.

Each suite returns (check name, passed) pairs.  These are quick, exact
spot checks of the algebraic laws the engine is built around; the test
suite runs the same laws harder and wider.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable

from .core import Alphabet, MomentSeq, UmbralPoly, exchangeable_up_to
from .dot import dot, dot_chain, dot_coeff_poly, dot_int_oracle, DOT_VAR
from .multiplicative import (
    general_multiplicative,
    is_homogeneous,
    is_linear_in_symbols,
    is_multiplicative,
    k_polynomials,
    m_sequence,
    msequence_product_identity,
    respects_dependence_bound,
)
from .oracle import (
    ForestSpec,
    count_colored_forests,
    count_increasing_colored_forests,
    forward_difference_power,
    stirling2,
)
from .poly import Poly, first_law_failure
from .sequences import (
    abel_sequence,
    appell_from,
    apply_delta,
    binomial_from_umbra,
    blissard_example,
    delta_operator_of,
    rising_factorial_sequence,
    rodrigues_step,
    sequence_from_delta,
    sheffer_from,
    transfer_formula,
)
from .series import (
    Series,
    expm1_series,
    log1p_series,
    one_minus_exp_neg_series,
)

Check = tuple[str, bool]


def _series_suite() -> list[Check]:
    out: list[Check] = []
    n = 8
    f = log1p_series(n)
    out.append(("exp(log(1+z)) = 1+z", f.exp() == Series([1, 1] + [0] * (n - 1))))
    g = Series([0, 1, -1, Fraction(1, 3)] + [0] * (n - 3))
    out.append(
        ("compositional inverse roundtrip", g.compose(g.comp_inverse()) == Series.identity(n))
    )
    h = Series([2, 5, Fraction(-1, 2)] + [0] * (n - 2))
    out.append(("reciprocal * self = 1", h * h.reciprocal() == Series.constant(1, n)))
    return out


def _dot_suite() -> list[Check]:
    out: list[Check] = []
    top = 5
    ab = Alphabet()
    a = ab.register("a", MomentSeq.generic("a"))
    b = ab.register("b", MomentSeq.generic("b"))
    g = ab.register("g", MomentSeq.generic("g"))

    pa, pb = UmbralPoly.of(a), UmbralPoly.of(b)
    lhs = UmbralPoly.of(dot(ab, pa + pb, g))
    rhs = UmbralPoly.of(dot(ab, pa, g)) + UmbralPoly.of(dot(ab, pb, g))
    out.append(("left linearity", exchangeable_up_to(ab, lhs, rhs, top)))

    s = UmbralPoly.scalar(Fraction(3, 7))
    lhs = UmbralPoly.of(dot(ab, s, pa + pb))
    rhs = UmbralPoly.of(dot(ab, s, pa)) + UmbralPoly.of(dot(ab, s, pb))
    out.append(("scalar right linearity", exchangeable_up_to(ab, lhs, rhs, top)))

    c = Fraction(2, 5)
    lhs = UmbralPoly.of(dot(ab, s, pa * Poly.const(c)))
    rhs = UmbralPoly.of(dot(ab, s, pa))
    ok = all(
        ab.evaluate(lhs**k) == ab.evaluate(rhs**k) * c**k for k in range(top + 1)
    )
    out.append(("scalar law", ok))

    left = UmbralPoly.of(dot_chain(ab, [pa, pb, UmbralPoly.of(g)]))
    rho = ab.adopt("rho", UmbralPoly.of(dot(ab, pa, pb)))
    right = UmbralPoly.of(dot(ab, rho, g))
    out.append(("associativity", exchangeable_up_to(ab, left, right, top)))

    ok = all(
        dot_coeff_poly(ab, g, k).substitute({DOT_VAR: Fraction(n)})
        == dot_int_oracle(ab, n, g, k)
        for n in range(1, 4)
        for k in range(5)
    )
    out.append(("integer-dot oracle equivalence", ok))

    sum_side = UmbralPoly.of(dot(ab, pa, pb + UmbralPoly.of(g)))
    split_side = UmbralPoly.of(dot(ab, pa, pb)) + UmbralPoly.of(dot(ab, pa, g))
    differs = ab.evaluate(sum_side**2) != ab.evaluate(split_side**2)
    out.append(("right distributivity fails for umbral left operands", differs))
    return out


def _sequences_suite() -> list[Check]:
    out: list[Check] = []
    n = 6
    ab = Alphabet()
    uni = ab.register("u", MomentSeq.uniform())
    c1 = ab.register("one", MomentSeq.constant(1))
    seqs = {
        "binomial(uniform)": binomial_from_umbra(ab, uni, n),
        "abel(const 2/3)": abel_sequence(
            ab, ab.register("c", MomentSeq.constant(Fraction(2, 3))), n
        ),
        "rising(const 1)": rising_factorial_sequence(ab, c1, n),
    }
    x, y = Poly.var("x"), Poly.var("y")
    for name, seq in seqs.items():
        # The two-variable law, not the row check the constructors share.
        bad = first_law_failure(seq.entries, seq.entries, n, {"x": x + y}, {"x": y}, comb)
        out.append((f"binomial identity: {name}", bad is None))
        q = delta_operator_of(seq)
        ok = all(
            apply_delta(q, seq[k]) == seq[k - 1] * k for k in range(1, n + 1)
        )
        out.append((f"delta lowering: {name}", ok))
    for spec_name, f in (
        ("exp(t)-1", expm1_series(n)),
        ("1-exp(-t)", one_minus_exp_neg_series(n)),
    ):
        seq = sequence_from_delta(ab, f, n)
        ok = all(transfer_formula(f, k) == seq[k] for k in range(1, n + 1))
        out.append((f"transfer formula: {spec_name}", ok))
        p = seq[0]
        ok = True
        for k in range(1, n + 1):
            p = rodrigues_step(f, p)
            ok = ok and p == seq[k]
        out.append((f"rodrigues iteration: {spec_name}", ok))
        roundtrip = delta_operator_of(seq)
        out.append((f"delta roundtrip: {spec_name}", roundtrip.agrees_with(f, n)))
    return out


def _sheffer_suite() -> list[Check]:
    out: list[Check] = []
    n = 5
    ab = Alphabet()
    one = ab.register("one", MomentSeq.constant(1))
    bern = ab.inverse(ab.register("u", MomentSeq.uniform()))
    base = rising_factorial_sequence(ab, one, n)
    sheff = sheffer_from(ab, base, bern)
    q = delta_operator_of(base)
    ok = all(apply_delta(q, sheff[k]) == sheff[k - 1] * k for k in range(1, n + 1))
    out.append(("delta lowering on the shifted sequence", ok))

    x, y = Poly.var("x"), Poly.var("y")
    bad = first_law_failure(base.entries, sheff.entries, n, {"x": x + y}, {"x": y}, comb)
    out.append(("sheffer expansion identity", bad is None))

    app = appell_from(ab, bern, n)
    ok = all(
        app[k].derivative("x") == app[k - 1] * k for k in range(1, n + 1)
    )
    out.append(("appell derivative lowering", ok))
    return out


def _multiplicative_suite() -> list[Check]:
    out: list[Check] = []
    n = 5
    ab = Alphabet()
    uni = ab.register("u", MomentSeq.uniform())
    one = ab.register("one", MomentSeq.constant(1))
    k1 = k_polynomials(ab, uni, n)
    out.append(("k_polynomials multiplicative", is_multiplicative(k1)))
    out.append(("k_polynomials linear", is_linear_in_symbols(k1)))
    out.append(("k_polynomials dependence bound", respects_dependence_bound(k1)))
    k2 = general_multiplicative(ab, [1, Fraction(1, 2)], one, n)
    out.append(("general construction multiplicative", is_multiplicative(k2)))
    out.append(("general construction homogeneous for unit umbra", is_homogeneous(k2)))
    ell = m_sequence(k2)
    out.append(("m-sequence product law", msequence_product_identity(ell, n)))
    return out


def _oracle_suite() -> list[Check]:
    out: list[Check] = []
    ok = all(
        forward_difference_power(m, n) == factorial(m) * stirling2(m + n, m)
        for m in range(6)
        for n in range(6)
    )
    out.append(("forward differences give stirling numbers", ok))

    ab = Alphabet()
    ok = True
    for n in range(1, 5):
        colors = (1,) * n
        alpha = ab.register_derived("af", MomentSeq.from_list([1] * max(1, n - 1)), auxiliary=False)
        seq = abel_sequence(ab, alpha, n)
        for x in range(3):
            umbral = seq[n].substitute({"x": Fraction(x)}).as_rational()
            ok = ok and umbral == count_colored_forests(ForestSpec(n, x, colors))
    out.append(("abel values count colored forests", ok))

    ok = True
    for n in range(1, 5):
        mu = ab.register_derived("mf", MomentSeq.from_list([1] * max(1, n - 1)), auxiliary=False)
        seq = rising_factorial_sequence(ab, mu, n)
        for x in range(3):
            umbral = seq[n].substitute({"x": Fraction(x)}).as_rational()
            ok = ok and umbral == count_increasing_colored_forests(
                ForestSpec(n, x, (1,) * n)
            )
    out.append(("rising values count increasing forests", ok))
    return out


def _blissard_suite() -> list[Check]:
    out: list[Check] = []
    for m in (1, 2):
        report = blissard_example(m, 5)
        out.append((f"triple agreement at m={m}", report.ok))
    return out


_SUITES: dict[str, Callable[[], list[Check]]] = {
    "series": _series_suite,
    "dot": _dot_suite,
    "sequences": _sequences_suite,
    "sheffer": _sheffer_suite,
    "multiplicative": _multiplicative_suite,
    "oracle": _oracle_suite,
    "blissard": _blissard_suite,
}


def suite_names() -> list[str]:
    return [*_SUITES, "all"]


def run_suite(name: str) -> list[Check]:
    if name == "all":
        out: list[Check] = []
        for suite in _SUITES.values():
            out.extend(suite())
        return out
    suite = _SUITES.get(name)
    if suite is None:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(suite_names())}")
    return suite()
