"""Binomial-type, Appell, and Sheffer polynomial sequences.

A binomial-type sequence ``p_n(x) = E[(x.gamma)^n]`` is fixed by the
cumulants ``p_n'(0)`` of ``gamma``.  Each of its presentations (``x.gamma``,
the generalized Abel form ``x(x + n.alpha)^{n-1}``, the generalized rising
factorial over i.i.d. increments, a delta series, derivative targets)
computes its own cumulants and builds the entries by the one row
recurrence of the dot table.  Appell sequences ``E[(x+alpha)^n]`` and
Sheffer shifts ``E[p_n(x+beta)]`` average their umbra out of a shifted
argument through :func:`shift_by_umbra`.  Each sequence travels with its
delta operator: ``delta_operator_of`` inverts the derivative-at-zero
series, and the transfer and Rodrigues formulas rebuild entries
operator-side.

Everything is exact, and checked as polynomial identities rather than at
sampled points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Sequence, Union

from .core import Alphabet, MomentSeq, UmbraError, UmbraId, UmbralPoly
from .dot import _DotTable, _cumulant_seq, dot_chain, dot_scalar
from .oracle import stirling1, stirling2
from .poly import ONE, ZERO, Poly, as_poly
from .series import Series

X = Poly.var("x")


@dataclass(frozen=True)
class Provenance:
    """How a sequence was built.

    ``umbra`` is set only when the entries are literally the coefficient
    polynomials of ``x.umbra``; the Abel and rising constructors record
    their input under ``parameter`` instead, since that umbra enters a
    different presentation of the same sequence.
    """

    kind: str
    umbra: UmbraId | None = None
    parameter: UmbraId | None = None
    shift: UmbraId | None = None
    base: "Provenance | None" = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.umbra is not None:
            out["umbra"] = str(self.umbra)
        if self.parameter is not None:
            out["parameter"] = str(self.parameter)
        if self.shift is not None:
            out["shift"] = str(self.shift)
        if self.base is not None:
            out["base"] = self.base.to_json()
        return out


@dataclass(frozen=True)
class PolySeq:
    """A finite polynomial sequence ``p_0 .. p_N`` with construction metadata."""

    entries: tuple[Poly, ...]
    provenance: Provenance

    def __getitem__(self, n: int) -> Poly:
        return self.entries[n]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def n_max(self) -> int:
        return len(self.entries) - 1

    def to_json(self) -> dict:
        return {
            "provenance": self.provenance.to_json(),
            "entries": [p.to_json() for p in self.entries],
        }


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def binomial_from_umbra(
    alphabet: Alphabet, gamma: UmbraId, n_max: int, *, kind: str = "umbra"
) -> PolySeq:
    """The sequence ``p_n(x) = E[(x.gamma)^n]``; binomial type by construction.

    Not normalized unless the first moment of ``gamma`` is 1; entry n has
    degree n, which fails if the first moment vanishes.
    """
    if alphabet.moment(gamma, 1).is_zero:
        raise UmbraError(
            "the umbra's first moment is zero, so entry degrees would collapse"
        )
    entries = [dot_scalar(alphabet, X, gamma, n) for n in range(n_max + 1)]
    return PolySeq(tuple(entries), Provenance(kind, umbra=gamma))


def _from_cumulants(kappa: Callable[[int], Poly], n_max: int) -> tuple[Poly, ...]:
    """Entries ``0 .. n_max`` of the binomial-type sequence with ``p_k'(0) = kappa(k)``."""
    rows = _DotTable.of_cumulants(kappa)
    return tuple(rows.at(n, X) for n in range(n_max + 1))


def abel_sequence(alphabet: Alphabet, alpha: UmbraId, n_max: int) -> PolySeq:
    """The generalized Abel presentation ``p_n(x) = E[x (x + n.alpha)^{n-1}]``,
    built from its cumulants ``p_n'(0) = E[(n.alpha)^{n-1}]``."""
    entries = _from_cumulants(lambda n: dot_scalar(alphabet, n, alpha, n - 1), n_max)
    return PolySeq(entries, Provenance("abel", parameter=alpha))


def rising_factorial_sequence(alphabet: Alphabet, mu: UmbraId, n_max: int) -> PolySeq:
    """The presentation ``p_n(x) = E[x (x+mu_1) (x+mu_1+mu_2) ...]``.

    The ``mu_i`` are independent copies of ``mu``.  With
    ``S_j = mu_1 + ... + mu_j``, ``a_t(s) = E[(s+S_1) ... (s+S_t)]`` obeys
    ``a_{t+1}(s) = E[a_t(s+mu) (s+mu)]`` because the increments are i.i.d.,
    so one sweep in ``s`` gives every cumulant ``p_n'(0) = a_{n-1}(0)``,
    with no clone registered.  The sweep reads the moments ``1 .. n_max-1``,
    and ``s`` is renamed if one of them carries it.
    """
    s = _fresh_var(alphabet.moment(mu, i) for i in range(1, n_max))
    sweep = [ONE]
    for _ in range(2, n_max + 1):
        sweep.append(shift_by_umbra(alphabet, sweep[-1] * Poly.var(s), mu, s))
    entries = _from_cumulants(lambda k: sweep[k - 1].coefficient_of(s, 0), n_max)
    return PolySeq(entries, Provenance("rising", parameter=mu))


def appell_from(alphabet: Alphabet, alpha: UmbraId, n_max: int) -> PolySeq:
    """The Appell sequence ``s_n(x) = E[(x + alpha)^n]``."""
    entries = [shift_by_umbra(alphabet, X**n, alpha) for n in range(n_max + 1)]
    return PolySeq(tuple(entries), Provenance("appell", parameter=alpha))


def shift_by_umbra(alphabet: Alphabet, p: Poly, beta: UmbraId, var: str = "x") -> Poly:
    """``E[p(x + beta)]``: expand powers of the shifted variable umbrally."""
    out = ZERO
    for k, c in p.coefficients_in(var).items():
        for i in range(k + 1):
            out = out + c * comb(k, i) * Poly.var(var, k - i) * alphabet.moment(beta, i)
    return out


def sheffer_from(alphabet: Alphabet, base: PolySeq, beta: UmbraId) -> PolySeq:
    """The Sheffer sequence ``s_n(x) = E[p_n(x + beta)]`` over a binomial base."""
    bad = first_binomial_failure(base)
    if bad is not None:
        raise ValueError(f"base sequence is not of binomial type (fails at {bad})")
    entries = [shift_by_umbra(alphabet, p, beta) for p in base.entries]
    return PolySeq(
        tuple(entries),
        Provenance("sheffer", shift=beta, base=base.provenance),
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def first_binomial_failure(seq: PolySeq, n_max: int | None = None) -> int | None:
    """Index of the first entry violating the binomial identity, or None.

    Checks ``p_0 = 1``, the degrees, and then each entry against the one
    rebuilt from the cumulants ``p_k'(0)``.  The first mismatch is the first
    failure of ``p_k(x+y) = sum_i C(k,i) p_i(x) p_{k-i}(y)``: once the
    entries below k pass, that law fixes ``p_k`` up to ``c x``.
    """
    top = seq.n_max if n_max is None else min(n_max, seq.n_max)
    if seq[0] != ONE:
        return 0
    bad_degree = next((k for k in range(1, top + 1) if seq[k].degree_in("x") != k), None)
    law_top = top if bad_degree is None else bad_degree - 1
    rows = _from_cumulants(lambda k: derivative_at_zero(seq[k]), law_top)
    bad_law = next((k for k in range(1, law_top + 1) if rows[k] != seq[k]), None)
    return bad_degree if bad_law is None else bad_law


def validate_binomial(seq: PolySeq, n_max: int | None = None) -> bool:
    return first_binomial_failure(seq, n_max) is None


# ---------------------------------------------------------------------------
# Delta operators
# ---------------------------------------------------------------------------


def derivative_at_zero(p: Poly, var: str = "x") -> Poly:
    return p.coefficient_of(var, 1)


def delta_operator_of(seq: PolySeq, order: int | None = None) -> Series:
    """The delta series ``f`` with ``f(D) p_n = n p_{n-1}``.

    Computed as the compositional inverse of ``sum p_k'(0) t^k / k!``.
    """
    n = seq.n_max if order is None else order
    if n > seq.n_max:
        raise ValueError("requested order exceeds the sequence length")
    if n < 1:
        raise ValueError("a delta operator needs the entries up to p_1")
    bad = first_binomial_failure(seq, n)
    if bad is not None:
        raise ValueError(f"sequence is not of binomial type (fails at {bad})")
    derivs = [derivative_at_zero(p) for p in seq.entries[: n + 1]]
    if derivs[1].is_zero:
        raise ValueError("p_1'(0) = 0: no delta operator exists")
    h = Series(
        [ZERO] + [derivs[k] * Fraction(1, factorial(k)) for k in range(1, n + 1)]
    )
    return h.comp_inverse().with_var("D")


def apply_delta(f: Series, p: Poly, var: str = "x") -> Poly:
    """Apply a delta-operator series to a polynomial."""
    if f.coeff(0) != ZERO:
        raise ValueError("a delta operator has zero constant term")
    return f.apply_to_poly(p, var)


def sequence_from_delta(alphabet: Alphabet, f: Series, n_max: int) -> PolySeq:
    """The binomial-type sequence associated to a delta series.

    The representing umbra has cumulants ``k! [t^k] f^{<-1>}``; this is the
    exact inverse of :func:`delta_operator_of`.
    """
    if f.order < n_max:
        raise ValueError("series order too low for the requested entries")
    if f.coeff(0) != ZERO:
        raise ValueError("a delta operator has zero constant term")
    if f.coeff(1).as_rational() == 0:
        raise ValueError("f'(0) = 0: not a delta series")
    h = f.comp_inverse()
    kappas = [h.coeff(k) * factorial(k) for k in range(1, h.order + 1)]
    gamma = alphabet.register_derived("delta-rep", _cumulant_seq(kappas, "delta-rep"), auxiliary=False)
    return binomial_from_umbra(alphabet, gamma, n_max, kind="from-delta")


def transfer_formula(f: Series, n: int) -> Poly:
    """Entry ``n`` from the delta series alone: ``x (f(t)/t)^{-n} x^{n-1}``."""
    if n < 1:
        raise ValueError("the transfer formula needs n >= 1")
    if f.order < n:
        raise ValueError("series order too low for the requested entry")
    quotient = f.shift_down()
    op = (quotient**n).reciprocal()
    return X * op.apply_to_poly(X ** (n - 1))


def rodrigues_step(f: Series, p_prev: Poly) -> Poly:
    """One Rodrigues iteration: ``p_n = x (f'(D))^{-1} p_{n-1}``."""
    multiplier = f.derivative().reciprocal()
    return X * multiplier.apply_to_poly(p_prev)


def expansion_coefficients(op: Series, seq: PolySeq) -> list[Fraction]:
    """Expand an operator series in powers of the sequence's delta operator.

    Returns ``c_k = (op p_k)(0)`` and verifies ``sum c_k Q^k / k! = op`` as
    a series identity to the common truncation order; a mismatch raises.
    """
    q = delta_operator_of(seq)
    n = min(op.order, seq.n_max, q.order)
    cs: list[Fraction] = []
    for k in range(n + 1):
        value = op.apply_to_poly(seq[k]).substitute({"x": ZERO})
        cs.append(value.as_rational())
    rebuilt = Series.constant(cs[0], n, op.var)
    qt = q.truncate(n).with_var(op.var)
    power = Series.constant(1, n, op.var)
    for k in range(1, n + 1):
        power = power * qt
        rebuilt = rebuilt + power * Fraction(cs[k], factorial(k))
    if not rebuilt.agrees_with(op, n):
        raise ValueError("operator expansion failed to reconstruct the series")
    return cs


# ---------------------------------------------------------------------------
# Normalization, composition, representing umbrae
# ---------------------------------------------------------------------------


def normalize(alphabet: Alphabet, seq: PolySeq) -> PolySeq:
    """Rescale so the degree-1 entry is monic: entry n divided by ``p_1'(0)^n``.

    The representing umbra, when present, is rescaled to match, so the
    result still carries usable provenance.
    """
    a = derivative_at_zero(seq[1]).as_rational()
    if a == 0:
        raise ValueError("cannot normalize: p_1'(0) = 0")
    if a == 1:
        return seq
    entries = tuple(p * Fraction(1, a) ** n for n, p in enumerate(seq.entries))
    umbra = seq.provenance.umbra
    new_umbra = None
    if umbra is not None:
        seq_moments = alphabet.moment_seq(umbra)
        inv = Fraction(1, a)
        new_umbra = alphabet.register_derived(
            f"{umbra.name}/{a}",
            MomentSeq(lambda k: seq_moments.moment(k) * inv**k, "scaled"),
            auxiliary=False,
        )
    return PolySeq(entries, Provenance("normalized", umbra=new_umbra))


def _compose_by_operator(seq_outer: PolySeq, seq_inner: PolySeq, n_max: int) -> list[Poly]:
    entries = []
    for n in range(n_max + 1):
        acc = ZERO
        for i, c in seq_outer[n].coefficients_in("x").items():
            acc = acc + c * seq_inner[i]
        entries.append(acc)
    return entries


def umbral_compose(alphabet: Alphabet, seq_outer: PolySeq, seq_inner: PolySeq) -> PolySeq:
    """Umbral composition: substitute the inner sequence for powers of x.

    When both operands carry representing umbrae the result is built from
    the dot chain ``x.(inner umbra).(outer umbra)`` and cross-checked
    against the linear-operator definition; without provenance the
    operator definition is used directly.
    """
    n_max = min(seq_outer.n_max, seq_inner.n_max)
    by_operator = _compose_by_operator(seq_outer, seq_inner, n_max)
    alpha = seq_outer.provenance.umbra
    beta = seq_inner.provenance.umbra
    if alpha is None or beta is None:
        return PolySeq(tuple(by_operator), Provenance("compose"))
    chained = dot_chain(alphabet, [UmbralPoly.scalar(X), UmbralPoly.of(beta), UmbralPoly.of(alpha)])
    entries = alphabet.moments(chained, n_max)
    if entries != by_operator:
        raise ValueError("dot-chain composition disagrees with the operator definition")
    rep = alphabet.adopt(f"{beta.name}.{alpha.name}", UmbralPoly.of(chained))
    return PolySeq(tuple(entries), Provenance("compose", umbra=rep))


def umbra_with_derivative_targets(
    alphabet: Alphabet,
    targets: Sequence[Union[Poly, Fraction, int]],
    name: str = "rep",
) -> UmbraId:
    """An umbra whose ``x.umbra`` sequence has ``p_k'(0)`` equal to ``targets``.

    ``targets[0]`` is ``p_1'(0)`` and must be nonzero; the targets are the
    umbra's cumulants.
    """
    ds = [as_poly(t) for t in targets]
    if not ds or ds[0].is_zero:
        raise ValueError("the first derivative target must be nonzero")
    return alphabet.register_derived(name, _cumulant_seq(ds, "cumulants"), auxiliary=False)


def umbra_for_sequence(alphabet: Alphabet, seq: PolySeq, name: str = "rep") -> UmbraId:
    """An umbra representing a binomial-type sequence as ``x.umbra``."""
    bad = first_binomial_failure(seq)
    if bad is not None:
        raise ValueError(f"sequence is not of binomial type (fails at {bad})")
    targets = [derivative_at_zero(p) for p in seq.entries[1:]]
    return umbra_with_derivative_targets(alphabet, targets, name)


def abel_umbra_for(alphabet: Alphabet, seq: PolySeq, name: str = "abel-rep") -> UmbraId:
    """Solve for the umbra putting a normalized binomial sequence in Abel form.

    Recursion on ``p_n'(0) = E[(n.alpha)^{n-1}] = q_{n-1}(n)`` down the dot
    table of ``alpha``, where ``kappa_{n-1}`` enters as ``kappa_{n-1} n``:
    one division per row, and the moments are the row sums.
    """
    _require_normalized(seq)

    def cumulant(k: int, partial: list[Poly]) -> Poly:
        n = k + 1
        known = sum((c * n**i for i, c in enumerate(partial)), ZERO)
        return (derivative_at_zero(seq[n]) - known) * Fraction(1, n)

    table = _DotTable(cumulant)
    moments = [table.moment(k) for k in range(1, seq.n_max)]
    return alphabet.register_derived(
        name, MomentSeq.from_list(moments), auxiliary=False
    )


def rising_umbra_for(alphabet: Alphabet, seq: PolySeq, name: str = "rising-rep") -> UmbraId:
    """Solve for the umbra putting a normalized binomial sequence in rising form.

    Recursion on ``p_n'(0) = a_{n-1}(0) = E[a_{n-2}(mu) mu]`` along the
    sweep of :func:`rising_factorial_sequence`: each step averages
    ``b = s a_{n-3}(s)`` (``b = 1`` at first) into the monic ``a_{n-2}``,
    so ``m_{n-1}`` enters ``p_n'(0)`` with coefficient 1 and is solved for;
    one sweep in all.
    """
    _require_normalized(seq)
    s = _fresh_var(seq.entries)
    moments: list[Poly] = []
    scratch = Alphabet()
    mu = scratch.register("mu", MomentSeq(lambda k: moments[k - 1]))
    b = ONE
    for n in range(2, seq.n_max + 1):
        acc = shift_by_umbra(scratch, b, mu, s)
        lower = [c * moments[j] for j, c in acc.coefficients_in(s).items() if j < n - 2]
        moments.append(derivative_at_zero(seq[n]) - sum(lower, ZERO))
        b = acc * Poly.var(s)
    return alphabet.register_derived(
        name, MomentSeq.from_list(moments), auxiliary=False
    )


def _fresh_var(polys: Iterable[Poly]) -> str:
    """``s``, else ``s_1``, ``s_2``, ...: the first name none of ``polys`` carries."""
    used = frozenset().union(*(p.variables() for p in polys))
    name, k = "s", 0
    while name in used:
        k += 1
        name = f"s_{k}"
    return name


def _require_normalized(seq: PolySeq) -> None:
    if seq.n_max < 1 or seq[1] != X:
        raise ValueError("this presentation requires a normalized sequence (p_1 = x)")


# ---------------------------------------------------------------------------
# The classical expansion example
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlissardReport:
    """Result of computing ``{x/log(1+x)}^m`` three independent ways."""

    m: int
    coefficients: tuple[Fraction, ...]
    direct: tuple[Fraction, ...]
    binomial_form: tuple[Fraction, ...]
    stirling_form: tuple[Fraction, ...]
    power_identity_ok: bool

    @property
    def methods_agree(self) -> int:
        base = self.coefficients
        return sum(
            1
            for route in (self.direct, self.binomial_form, self.stirling_form)
            if route == base
        )

    @property
    def ok(self) -> bool:
        return self.methods_agree == 3 and self.power_identity_ok

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "coefficients": [str(c) for c in self.coefficients],
            "methods_agree": self.methods_agree,
            "power_identity_ok": self.power_identity_ok,
        }


def blissard_example(m: int, n_max: int) -> BlissardReport:
    """Expand ``{x/log(1+x)}^m`` by series division, by the umbral binomial
    coefficient of a sum of uniform-moment clones, and by the closed Stirling
    form, and check the three agree exactly."""
    if m < 1:
        raise ValueError("m must be at least 1")

    # Route 1: direct series division.
    log_over_x = Series(
        [Fraction(1)]
        + [Fraction((-1) ** k, k + 1) for k in range(1, n_max + 1)]
    )
    series_route = (log_over_x.reciprocal() ** m).coefficients
    direct = tuple(c.as_rational() for c in series_route)

    # Route 2: P_n = E[C(U, n)] with U a sum of m uniform-moment clones.
    scratch = Alphabet()
    base = scratch.register("u", MomentSeq.uniform())
    total = UmbralPoly.scalar(0)
    for _ in range(m):
        total = total + UmbralPoly.of(scratch.clone(base))
    binomial_route: list[Fraction] = []
    falling = UmbralPoly.scalar(1)
    for n in range(n_max + 1):
        if n:
            falling = falling * (total - (n - 1))
        value = scratch.evaluate(falling) * Fraction(1, factorial(n))
        binomial_route.append(value.as_rational())

    # Route 3: closed form from Stirling numbers of both kinds.
    stirling_route: list[Fraction] = []
    for n in range(n_max + 1):
        acc = Fraction(0)
        for k in range(n + 1):
            acc += (
                Fraction(stirling1(n, k) * stirling2(m + k, m), comb(m + k, m))
            )
        stirling_route.append(acc / factorial(n))

    # The power identity behind route 3.
    power_ok = all(
        scratch.evaluate(total**n) == Fraction(stirling2(m + n, m), comb(m + n, m))
        for n in range(n_max + 1)
    )

    return BlissardReport(
        m=m,
        coefficients=direct,
        direct=direct,
        binomial_form=tuple(binomial_route),
        stirling_form=tuple(stirling_route),
        power_identity_ok=power_ok,
    )
