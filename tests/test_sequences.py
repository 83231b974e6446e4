import random
from fractions import Fraction
from math import comb, factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from umbral import (
    Alphabet,
    MomentSeq,
    Poly,
    Series,
    UmbralPoly,
    abel_sequence,
    abel_umbra_for,
    appell_from,
    apply_delta,
    binomial_from_umbra,
    blissard_example,
    delta_operator_of,
    dot_int,
    expansion_coefficients,
    expm1_series,
    first_binomial_failure,
    normalize,
    one_minus_exp_neg_series,
    rising_factorial_sequence,
    rising_umbra_for,
    rodrigues_step,
    sequence_from_delta,
    sheffer_from,
    shift_by_umbra,
    stirling2,
    transfer_formula,
    umbra_for_sequence,
    umbra_with_derivative_targets,
    umbral_compose,
    validate_binomial,
)
import umbral.sequences as sequences
from umbral.sequences import PolySeq, Provenance

X = Poly.var("x")
Y = Poly.var("y")


@pytest.fixture
def ab():
    return Alphabet()


def powers_of_x(n_max):
    return [X**n for n in range(n_max + 1)]


def rising_product(a, n):
    """x(x+a)(x+2a)...(x+(n-1)a) for a constant a."""
    p = Poly.const(1)
    for j in range(n):
        p = p * (X + Poly.const(a) * j)
    return p


# ---------------------------------------------------------------------------
# binomial_from_umbra
# ---------------------------------------------------------------------------


def test_binomial_from_unit_umbra_is_powers(ab):
    one = ab.register("one", MomentSeq.constant(1))
    seq = binomial_from_umbra(ab, one, 6)
    assert list(seq.entries) == powers_of_x(6)


def test_binomial_from_uniform(ab):
    uni = ab.register("uni", MomentSeq.uniform())
    seq = binomial_from_umbra(ab, uni, 4)
    assert seq[1] == X * Fraction(1, 2)
    assert seq[2] == X * Fraction(1, 3) + X * (X - 1) * Fraction(1, 4)
    assert validate_binomial(seq)


def test_binomial_from_bell_moments(ab):
    # Moments from a set-partition EGF; no golden entries, the binomial
    # identity itself is the check.
    bell = ab.register("bell", MomentSeq.from_list([1, 2, 5, 15, 52, 203]))
    seq = binomial_from_umbra(ab, bell, 6)
    assert validate_binomial(seq)
    assert all(seq[n].degree_in("x") == n for n in range(7))


def test_binomial_rejects_vanishing_first_moment(ab):
    eps = ab.register("eps", MomentSeq.eps())
    with pytest.raises(ValueError):
        binomial_from_umbra(ab, eps, 3)


# ---------------------------------------------------------------------------
# abel_sequence
# ---------------------------------------------------------------------------


def test_abel_constant_closed_form(ab):
    a = Fraction(2, 3)
    ca = ab.register("ca", MomentSeq.constant(a))
    seq = abel_sequence(ab, ca, 5)
    for n in range(1, 6):
        assert seq[n] == X * (X + Poly.const(a) * n) ** (n - 1)
    assert validate_binomial(seq)


def test_abel_unit_tree_count(ab):
    one = ab.register("one", MomentSeq.constant(1))
    seq = abel_sequence(ab, one, 4)
    assert seq[4].substitute({"x": Fraction(1)}) == 125


def test_abel_of_zero_umbra_is_powers(ab):
    eps = ab.register("eps", MomentSeq.eps())
    seq = abel_sequence(ab, eps, 5)
    assert list(seq.entries) == powers_of_x(5)


def test_abel_generic_is_binomial(ab):
    a = ab.register("a", MomentSeq.generic("a"))
    seq = abel_sequence(ab, a, 6)
    assert validate_binomial(seq)


# ---------------------------------------------------------------------------
# rising_factorial_sequence
# ---------------------------------------------------------------------------


def test_rising_constant_families(ab):
    one = ab.register("one", MomentSeq.constant(1))
    seq = rising_factorial_sequence(ab, one, 5)
    for n in range(6):
        assert seq[n] == rising_product(Fraction(1), n)

    minus = ab.register("minus", MomentSeq.constant(-1))
    falling = rising_factorial_sequence(ab, minus, 5)
    for n in range(6):
        assert falling[n] == rising_product(Fraction(-1), n)

    eps = ab.register("eps", MomentSeq.eps())
    assert list(rising_factorial_sequence(ab, eps, 5).entries) == powers_of_x(5)


def test_rising_generic_is_binomial(ab):
    m = ab.register("m", MomentSeq.generic("m"))
    seq = rising_factorial_sequence(ab, m, 6)
    assert validate_binomial(seq)


def test_rising_matches_unoptimized_expansion(ab):
    # Same value as the straight product over clones, evaluated in one go.
    mu = ab.register("mu", MomentSeq.uniform())
    clones = [ab.clone(mu) for _ in range(4)]
    n = 5
    xs = UmbralPoly.scalar(X)
    prod = xs
    partial = UmbralPoly.scalar(0)
    for j in range(n - 1):
        partial = partial + UmbralPoly.of(clones[j])
        prod = prod * (xs + partial)
    direct = ab.evaluate(prod)
    seq = rising_factorial_sequence(ab, mu, n)
    assert seq[n] == direct


def test_rising_constructions_register_no_clones(ab):
    mu = ab.register("mu", MomentSeq.uniform())
    before = dict(ab._moments)
    seq = rising_factorial_sequence(ab, mu, 6)
    assert ab._moments == before
    rep = rising_umbra_for(ab, normalize(ab, seq))
    assert set(ab._moments) - set(before) == {rep}


# ---------------------------------------------------------------------------
# delta operators
# ---------------------------------------------------------------------------


def test_delta_of_powers_is_identity(ab):
    one = ab.register("one", MomentSeq.constant(1))
    seq = binomial_from_umbra(ab, one, 6)
    assert delta_operator_of(seq) == Series.identity(6, "D")


def test_delta_of_rising_is_backward_difference(ab):
    one = ab.register("one", MomentSeq.constant(1))
    seq = rising_factorial_sequence(ab, one, 6)
    assert delta_operator_of(seq) == one_minus_exp_neg_series(6, "D")


def test_delta_of_abel_constant(ab):
    a = Fraction(2, 3)
    ca = ab.register("ca", MomentSeq.constant(a))
    seq = abel_sequence(ab, ca, 6)
    f = delta_operator_of(seq)
    expected = Series(
        [0] + [(-a) ** (k - 1) * Fraction(1, factorial(k - 1)) for k in range(1, 7)],
        "D",
    )
    assert f == expected
    for n in range(1, 7):
        assert apply_delta(f, seq[n]) == seq[n - 1] * n


def test_delta_operator_rejects_non_binomial():
    broken = PolySeq((Poly.const(1), X, X**2 + 1), Provenance("manual"))
    with pytest.raises(ValueError):
        delta_operator_of(broken)


def test_apply_delta_examples(ab):
    assert apply_delta(Series.identity(4, "D"), X**3) == 3 * X**2
    backward = one_minus_exp_neg_series(4, "D")
    assert apply_delta(backward, X * (X + 1)) == 2 * X
    forward = expm1_series(4, "D")
    falling3 = X * (X - 1) * (X - 2)
    assert apply_delta(forward, falling3) == 3 * X * (X - 1)


def test_sequence_from_delta_families(ab):
    n = 6
    assert list(sequence_from_delta(ab, Series.identity(n, "D"), n).entries) == powers_of_x(n)
    falling = sequence_from_delta(ab, expm1_series(n, "D"), n)
    for k in range(n + 1):
        assert falling[k] == rising_product(Fraction(-1), k)
    rising = sequence_from_delta(ab, one_minus_exp_neg_series(n, "D"), n)
    mu = ab.register("one", MomentSeq.constant(1))
    assert rising.entries == rising_factorial_sequence(ab, mu, n).entries


def test_roundtrips(ab):
    n = 8
    uni = ab.register("uni", MomentSeq.uniform())
    seq = binomial_from_umbra(ab, uni, n)
    f = delta_operator_of(seq)
    back = sequence_from_delta(ab, f, n)
    assert back.entries == seq.entries

    for g in (expm1_series(n, "D"), one_minus_exp_neg_series(n, "D"),
              Series([0, 1, -1] + [0] * (n - 2), "D")):
        seq_g = sequence_from_delta(ab, g, n)
        assert delta_operator_of(seq_g) == g


def test_delta_lowering_across_constructors(ab):
    n = 7
    candidates = [
        binomial_from_umbra(ab, ab.register("uni", MomentSeq.uniform()), n),
        abel_sequence(ab, ab.register("one", MomentSeq.constant(1)), n),
        rising_factorial_sequence(ab, ab.register("two", MomentSeq.constant(2)), n),
    ]
    for seq in candidates:
        f = delta_operator_of(seq)
        for k in range(1, n + 1):
            assert apply_delta(f, seq[k]) == seq[k - 1] * k


# ---------------------------------------------------------------------------
# transfer and Rodrigues
# ---------------------------------------------------------------------------


def test_transfer_formula_families():
    n = 6
    assert transfer_formula(Series.identity(n, "D"), 4) == X**4
    assert transfer_formula(expm1_series(n, "D"), 3) == X * (X - 1) * (X - 2)
    assert transfer_formula(one_minus_exp_neg_series(n, "D"), 2) == X * (X + 1)


def test_transfer_matches_sequence(ab):
    n = 6
    for f in (expm1_series(n, "D"), one_minus_exp_neg_series(n, "D"),
              Series([0, 1, -1] + [0] * (n - 2), "D")):
        seq = sequence_from_delta(ab, f, n)
        for k in range(1, n + 1):
            assert transfer_formula(f, k) == seq[k]


def test_rodrigues_families(ab):
    n = 6
    cases = {
        "identity": (Series.identity(n, "D"), powers_of_x(n)),
        "backward": (
            one_minus_exp_neg_series(n, "D"),
            [rising_product(Fraction(1), k) for k in range(n + 1)],
        ),
        "forward": (
            expm1_series(n, "D"),
            [rising_product(Fraction(-1), k) for k in range(n + 1)],
        ),
    }
    for f, expected in cases.values():
        p = Poly.const(1)
        for k in range(1, n + 1):
            p = rodrigues_step(f, p)
            assert p == expected[k]


# ---------------------------------------------------------------------------
# expansion coefficients
# ---------------------------------------------------------------------------


def test_expansion_of_derivative(ab):
    n = 6
    d = Series.identity(n, "D")
    one = ab.register("one", MomentSeq.constant(1))
    assert expansion_coefficients(d, binomial_from_umbra(ab, one, n)) == [
        Fraction(k == 1) for k in range(n + 1)
    ]
    rising = rising_factorial_sequence(ab, ab.register("c1", MomentSeq.constant(1)), n)
    assert expansion_coefficients(d, rising) == [Fraction(0)] + [
        Fraction(factorial(k - 1)) for k in range(1, n + 1)
    ]


def test_expansion_of_identity_operator(ab):
    n = 5
    ident = Series.constant(1, n, "D")
    uni = ab.register("uni", MomentSeq.uniform())
    seq = binomial_from_umbra(ab, uni, n)
    assert expansion_coefficients(ident, seq) == [Fraction(1)] + [Fraction(0)] * n


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_binomial_counterexample():
    entries = [X**n for n in range(5)]
    entries[2] = X**2 + 1
    broken = PolySeq(tuple(entries), Provenance("manual"))
    assert not validate_binomial(broken)
    assert first_binomial_failure(broken) == 2


def _valid_sequence(kind, moments):
    ab = Alphabet()
    gamma = ab.register("g", MomentSeq.from_list(moments))
    build = {"binomial": binomial_from_umbra, "abel": abel_sequence, "rising": rising_factorial_sequence}
    return build[kind](ab, gamma, 5).entries


_law_defects = st.integers(0, 5).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.sampled_from([0, *range(2, k + 1)]),
        st.fractions(-3, 3, max_denominator=3).filter(bool),
    )
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["binomial", "abel", "rising"]),
    st.lists(st.fractions(-3, 3, max_denominator=3), min_size=5, max_size=5),
    st.fractions(1, 3, max_denominator=3),
    _law_defects,
    st.none() | st.integers(0, 5),
)
def test_first_binomial_failure_finds_the_first_defect(kind, moments, m1, law, degree_at):
    """``c x^d`` with ``d = 0`` or ``2 <= d <= k`` breaks the law exactly at
    entry k (``c x`` would not); ``x^{j+1}`` breaks the degree at j."""
    entries = list(_valid_sequence(kind, [m1, *moments]))
    assert first_binomial_failure(PolySeq(tuple(entries), Provenance("manual"))) is None
    k, d, c = law
    entries[k] = entries[k] + c * X**d
    expected = k
    if degree_at is not None:
        entries[degree_at] = entries[degree_at] + X ** (degree_at + 1)
        expected = min(k, degree_at)
    assert first_binomial_failure(PolySeq(tuple(entries), Provenance("manual"))) == expected


def test_validate_powers():
    seq = PolySeq(tuple(powers_of_x(6)), Provenance("manual"))
    assert validate_binomial(seq)


# ---------------------------------------------------------------------------
# Appell and Sheffer
# ---------------------------------------------------------------------------


def test_appell_families(ab):
    eps = ab.register("eps", MomentSeq.eps())
    assert list(appell_from(ab, eps, 5).entries) == powers_of_x(5)

    c = Fraction(3, 2)
    cc = ab.register("cc", MomentSeq.constant(c))
    shifted = appell_from(ab, cc, 4)
    for n in range(5):
        assert shifted[n] == (X + Poly.const(c)) ** n

    bern = ab.inverse(ab.register("uni", MomentSeq.uniform()))
    bpoly = appell_from(ab, bern, 4)
    assert bpoly[1] == X - Fraction(1, 2)
    assert bpoly[2] == X**2 - X + Fraction(1, 6)


def test_appell_derivative_lowering(ab):
    a = ab.register("a", MomentSeq.generic("a"))
    seq = appell_from(ab, a, 8)
    for n in range(1, 9):
        assert seq[n].derivative("x") == seq[n - 1] * n


def test_appell_shift_identity(ab):
    # s_n(y + x) = sum_i C(n,i) y^i s_{n-i}(x)
    a = ab.register("a", MomentSeq.generic("a"))
    seq = appell_from(ab, a, 6)
    for n in range(7):
        lhs = seq[n].substitute({"x": X + Y})
        rhs = Poly.const(0)
        for i in range(n + 1):
            rhs = rhs + comb(n, i) * Y**i * seq[n - i]
        assert lhs == rhs


def test_sheffer_zero_shift_is_identity(ab):
    one = ab.register("one", MomentSeq.constant(1))
    base = rising_factorial_sequence(ab, one, 5)
    eps = ab.register("eps", MomentSeq.eps())
    assert sheffer_from(ab, base, eps).entries == base.entries


def test_sheffer_of_powers_is_appell(ab):
    one = ab.register("one", MomentSeq.constant(1))
    base = binomial_from_umbra(ab, one, 5)
    bern = ab.inverse(ab.register("uni", MomentSeq.uniform()))
    assert sheffer_from(ab, base, bern).entries == appell_from(ab, bern, 5).entries


def test_sheffer_forward_difference(ab):
    n = 5
    falling = sequence_from_delta(ab, expm1_series(n, "D"), n)
    c1 = ab.register("c1", MomentSeq.constant(1))
    sh = sheffer_from(ab, falling, c1)
    for k in range(n + 1):
        assert sh[k] == falling[k].substitute({"x": X + 1})
    f = expm1_series(n, "D")
    for k in range(1, n + 1):
        assert apply_delta(f, sh[k]) == sh[k - 1] * k


def test_sheffer_rejects_bad_base(ab):
    broken = PolySeq((Poly.const(1), X, X**2 + 1), Provenance("manual"))
    b = ab.register("b", MomentSeq.generic("b"))
    with pytest.raises(ValueError):
        sheffer_from(ab, broken, b)


def test_sheffer_expansion_identity(ab):
    uni = ab.register("uni", MomentSeq.uniform())
    base = binomial_from_umbra(ab, uni, 6)
    b = ab.register("b", MomentSeq.generic("b"))
    sh = sheffer_from(ab, base, b)
    for n in range(7):
        lhs = sh[n].substitute({"x": X + Y})
        rhs = Poly.const(0)
        for i in range(n + 1):
            rhs = rhs + comb(n, i) * base[i] * sh[n - i].substitute({"x": Y})
        assert lhs == rhs


def test_four_presentations_of_sheffer(ab):
    # One normalized binomial base, one generic shift; the four routes to
    # the same Sheffer sequence must coincide entry by entry.
    n = 6
    targets = [Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(2), Fraction(0), Fraction(1, 4)]
    gamma = umbra_with_derivative_targets(ab, targets, "gamma")
    base = binomial_from_umbra(ab, gamma, n)
    beta = ab.register("beta", MomentSeq.generic("b"))
    sh = sheffer_from(ab, base, beta)

    # (1) the defining lowering relation
    q = delta_operator_of(base)
    for k in range(1, n + 1):
        assert apply_delta(q, sh[k]) == sh[k - 1] * k

    # (2) dot presentation over gamma
    from umbral import dot

    shifted = UmbralPoly.scalar(X) + UmbralPoly.of(beta)
    u = dot(ab, shifted, UmbralPoly.of(gamma))
    for k in range(n + 1):
        assert ab.moment(u, k) == sh[k]

    # (3) Abel presentation
    alpha = abel_umbra_for(ab, base, "alpha")
    assert abel_sequence(ab, alpha, n).entries == base.entries
    for k in range(1, n + 1):
        v = UmbralPoly.of(dot_int(ab, k, alpha))
        expr = shifted * (shifted + v) ** (k - 1)
        assert ab.evaluate(expr) == sh[k]

    # (4) rising presentation
    mu = rising_umbra_for(ab, base, "mu")
    assert rising_factorial_sequence(ab, mu, n).entries == base.entries
    clones = [ab.clone(mu) for _ in range(n - 1)]
    for k in range(1, n + 1):
        prod = shifted
        partial = UmbralPoly.scalar(0)
        for j in range(k - 1):
            partial = partial + UmbralPoly.of(clones[j])
            prod = prod * (shifted + partial)
        assert ab.evaluate(prod) == sh[k]


# ---------------------------------------------------------------------------
# umbral composition
# ---------------------------------------------------------------------------


def test_compose_with_powers_is_identity(ab):
    uni = ab.register("uni", MomentSeq.uniform())
    one = ab.register("one", MomentSeq.constant(1))
    seq = binomial_from_umbra(ab, uni, 5)
    powers = binomial_from_umbra(ab, one, 5)
    assert umbral_compose(ab, seq, powers).entries == seq.entries
    assert umbral_compose(ab, powers, seq).entries == seq.entries


def test_compose_of_binomials_is_binomial(ab):
    falling = sequence_from_delta(ab, expm1_series(5, "D"), 5)
    one = ab.register("one", MomentSeq.constant(1))
    rising = rising_factorial_sequence(ab, one, 5)
    composed = umbral_compose(ab, falling, rising)
    assert validate_binomial(composed)
    # and the result composes further thanks to adopted provenance
    again = umbral_compose(ab, composed, rising)
    assert validate_binomial(again)


def test_compose_without_provenance_uses_operator_rule(ab):
    uni = ab.register("uni", MomentSeq.uniform())
    seq = binomial_from_umbra(ab, uni, 4)
    bare = PolySeq(seq.entries, Provenance("manual"))
    composed = umbral_compose(ab, bare, bare)
    expected = umbral_compose(ab, seq, seq)
    assert composed.entries == expected.entries


def test_umbral_operator_linear_extension(ab):
    # The operator x^i -> p_i(x) applied to an arbitrary polynomial.
    uni = ab.register("uni", MomentSeq.uniform())
    seq = binomial_from_umbra(ab, uni, 4)
    r = 3 * X**2 - X + 2
    image = Poly.const(0)
    for i, c in r.coefficients_in("x").items():
        image = image + c * seq[i]
    assert image == 3 * seq[2] - seq[1] + 2


# ---------------------------------------------------------------------------
# representation solvers
# ---------------------------------------------------------------------------


def test_derivative_targets_are_realized(ab):
    random.seed(11)
    targets = [Fraction(1)] + [
        Fraction(random.randint(-6, 6), random.randint(1, 5)) for _ in range(5)
    ]
    gamma = umbra_with_derivative_targets(ab, targets, "g")
    seq = binomial_from_umbra(ab, gamma, 6)
    assert validate_binomial(seq)
    got = [seq[k].derivative("x").substitute({"x": 0}) for k in range(1, 7)]
    assert got == [Poly.const(t) for t in targets]


def test_umbra_for_sequence_roundtrip(ab):
    one = ab.register("one", MomentSeq.constant(1))
    seq = rising_factorial_sequence(ab, one, 6)
    gamma = umbra_for_sequence(ab, seq)
    assert binomial_from_umbra(ab, gamma, 6).entries == seq.entries


def test_abel_and_rising_solvers(ab):
    f = Series([0, 1, -1, 0, Fraction(1, 2), 0, -2], "D")
    seq = sequence_from_delta(ab, f, 6)
    alpha = abel_umbra_for(ab, seq)
    assert abel_sequence(ab, alpha, 6).entries == seq.entries
    mu = rising_umbra_for(ab, seq)
    assert rising_factorial_sequence(ab, mu, 6).entries == seq.entries


def test_abel_solver_keeps_a_moment_symbol_named_n(ab):
    alpha = ab.register("alpha", MomentSeq.from_list([Poly.var("n"), Poly.var("d"), 3]))
    rep = abel_umbra_for(ab, abel_sequence(ab, alpha, 4))
    assert ab.moments(rep, 3)[1:] == [Poly.var("n"), Poly.var("d"), Poly.const(3)]


def test_rising_solver_runs_one_sweep(ab, monkeypatch):
    calls = []
    original = sequences.shift_by_umbra

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    one = ab.register("one", MomentSeq.constant(1))
    seq = rising_factorial_sequence(ab, one, 8)
    monkeypatch.setattr(sequences, "shift_by_umbra", counted)
    mu = rising_umbra_for(ab, seq)
    assert len(calls) == 8 - 1
    monkeypatch.undo()
    assert rising_factorial_sequence(ab, mu, 8).entries == seq.entries


def test_solvers_require_normalized(ab):
    uni = ab.register("uni", MomentSeq.uniform())
    seq = binomial_from_umbra(ab, uni, 4)
    with pytest.raises(ValueError):
        abel_umbra_for(ab, seq)
    fixed = normalize(ab, seq)
    alpha = abel_umbra_for(ab, fixed)
    assert abel_sequence(ab, alpha, 4).entries == fixed.entries


def test_normalize(ab):
    uni = ab.register("uni", MomentSeq.uniform())
    seq = binomial_from_umbra(ab, uni, 5)
    fixed = normalize(ab, seq)
    assert fixed[1] == X
    assert validate_binomial(fixed)
    assert binomial_from_umbra(ab, fixed.provenance.umbra, 5).entries == fixed.entries


# ---------------------------------------------------------------------------
# operator-side presentations of the Abel and rising families
# ---------------------------------------------------------------------------


def exp_operator_of(ab, uid, order):
    """The shift-by-umbra operator sum_k E[u^k] D^k / k! as a series in D."""
    return Series(
        [ab.moment(uid, k) * Fraction(1, factorial(k)) for k in range(order + 1)],
        "D",
    )


def test_abel_delta_presentation(ab):
    n = 6
    for moments in (MomentSeq.uniform(), MomentSeq.generic("a")):
        alpha = ab.register_derived("alpha", moments, auxiliary=False)
        seq = abel_sequence(ab, alpha, n)
        neg = dot_int(ab, -1, alpha)
        shift = exp_operator_of(ab, neg, n)
        q = Series([0] + list(shift.coefficients[:-1]), "D")  # multiply by D
        for k in range(1, n + 1):
            assert q.apply_to_poly(seq[k]) == seq[k - 1] * k


def test_rising_delta_presentation(ab):
    n = 6
    for moments in (MomentSeq.constant(1), MomentSeq.uniform()):
        mu = ab.register_derived("mu", moments, auxiliary=False)
        seq = rising_factorial_sequence(ab, mu, n)
        neg = dot_int(ab, -1, mu)
        # (e^{beta t} - 1) / beta with beta the negative dot: coefficient of
        # t^k is E[beta^{k-1}] / k!
        q = Series(
            [0]
            + [ab.moment(neg, k - 1) * Fraction(1, factorial(k)) for k in range(1, n + 1)],
            "D",
        )
        for k in range(1, n + 1):
            assert q.apply_to_poly(seq[k]) == seq[k - 1] * k


# ---------------------------------------------------------------------------
# the classical expansion example
# ---------------------------------------------------------------------------


def test_blissard_first_coefficients():
    report = blissard_example(1, 4)
    assert report.coefficients[1] == Fraction(1, 2)
    assert report.coefficients[2] == Fraction(-1, 12)
    assert report.ok


def test_blissard_power_identity():
    report = blissard_example(2, 4)
    assert report.power_identity_ok
    # E[U^2] for two uniform clones: 2 g_2 + 2 g_1^2 = 7/6 = S(4,2)/C(4,2)
    assert Fraction(stirling2(4, 2), comb(4, 2)) == Fraction(7, 6)


def test_blissard_unit_leading_coefficient():
    for m in (1, 2, 3):
        assert blissard_example(m, 2).coefficients[0] == 1


def test_blissard_triple_agreement_small():
    for m in (1, 2, 3):
        report = blissard_example(m, 6)
        assert report.methods_agree == 3


def test_shift_by_umbra_matches_expansion(ab):
    b = ab.register("b", MomentSeq.generic("b"))
    p = X**3 - 2 * X + 5
    shifted = shift_by_umbra(ab, p, b)
    expanded = ab.evaluate(
        (UmbralPoly.scalar(X) + UmbralPoly.of(b)) ** 3
        - (UmbralPoly.scalar(X) + UmbralPoly.of(b)) * 2
        + 5
    )
    assert shifted == expanded
