"""Multiplicative polynomial sequences over generic moment symbols.

``K_m`` sequences are polynomials in symbolic moments ``a_1, a_2, ...``
that commute with products of exponential generating functions: feeding
the binomial convolution of two moment families into ``K_k`` equals the
binomial convolution of the two evaluated sequences.  Dividing a
homogeneous multiplicative sequence by factorials yields an m-sequence in
the sense of Hirzebruch, with the same property for ordinary (plain
convolution) generating functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .core import Alphabet, MomentSeq, UmbraError, UmbraId, UmbralPoly
from .dot import dot_chain, dot_coeff_poly, DOT_VAR
from .poly import ONE, ZERO, Poly, as_poly, first_law_failure

_SYMBOL_A = "a"
_SYMBOL_B = "b"


@dataclass(frozen=True)
class KSeq:
    """Entries ``K_0 .. K_N`` as polynomials in one moment-symbol family."""

    entries: tuple[Poly, ...]
    symbol: str = _SYMBOL_A

    def __getitem__(self, m: int) -> Poly:
        return self.entries[m]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def m_max(self) -> int:
        return len(self.entries) - 1

    def to_json(self) -> dict:
        return {"symbol": self.symbol, "entries": [p.to_json() for p in self.entries]}


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def k_polynomials(alphabet: Alphabet, gamma: UmbraId, m_max: int, symbol: str = _SYMBOL_A) -> KSeq:
    """``K_m`` with moment m of the dot of a generic umbra into ``gamma``.

    ``gamma`` must have concrete rational moments; the generic symbols all
    come from the left operand, so each ``K_m`` is linear in them.
    """
    entries: list[Poly] = [ONE]
    for m in range(1, m_max + 1):
        q = dot_coeff_poly(alphabet, gamma, m)
        if not alphabet.moment(gamma, m).is_constant:
            raise UmbraError("k_polynomials requires rational moments on the right operand")
        k_m = ZERO
        for j, c in q.coefficients_in(DOT_VAR).items():
            if j == 0:
                k_m = k_m + c
            else:
                k_m = k_m + c * Poly.var(f"{symbol}_{j}")
        entries.append(k_m)
    return KSeq(tuple(entries), symbol)


def general_multiplicative(
    alphabet: Alphabet,
    coeffs: Sequence[Fraction | int],
    gamma: UmbraId,
    m_max: int,
    symbol: str = _SYMBOL_A,
) -> KSeq:
    """``K_m`` from the sum of chains ``i.(c_i * alpha).gamma``, i = 1..l,
    with ``alpha`` the generic-moment umbra of the symbol family."""
    if not coeffs:
        raise ValueError("at least one scale coefficient is required")
    alpha = alphabet.register_derived(
        symbol, MomentSeq.generic(symbol), auxiliary=False
    )
    total = UmbralPoly.scalar(0)
    for i, c in enumerate(coeffs, start=1):
        scaled = UmbralPoly.of(alpha) * as_poly(Fraction(c))
        term = dot_chain(alphabet, [UmbralPoly.scalar(i), scaled, UmbralPoly.of(gamma)])
        total = total + UmbralPoly.of(term)
    entries = [alphabet.evaluate(total**m) for m in range(m_max + 1)]
    return KSeq(tuple(entries), symbol)


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


def _product_law(entries: Sequence[Poly], top: int, symbol: str, weight) -> bool:
    """``K_k(c) = sum_i w(k,i) K_i(a) K_{k-i}(b)`` for k up to ``top``, where
    ``c_j = sum_i w(j,i) a_i b_{j-i}`` convolves two independent symbol
    families with the weight ``w`` (binomial for EGFs, 1 for OGFs)."""
    convolution: dict[str, Poly] = {}
    for j in range(1, top + 1):
        c_j = ZERO
        for i in range(j + 1):
            a_i = ONE if i == 0 else Poly.var(f"{symbol}_{i}")
            b_ji = ONE if j - i == 0 else Poly.var(f"{_SYMBOL_B}_{j - i}")
            c_j = c_j + weight(j, i) * a_i * b_ji
        convolution[f"{symbol}_{j}"] = c_j
    prefix = f"{symbol}_"
    to_b = {
        v: Poly.var(f"{_SYMBOL_B}_{v[len(prefix):]}")
        for p in entries[: top + 1]
        for v in p.variables()
        if v.startswith(prefix)
    }
    return first_law_failure(entries, entries, top, convolution, to_b, weight) is None


def is_multiplicative(k: KSeq, m_max: int | None = None) -> bool:
    """Exact check of the EGF product law.

    With two independent symbol families and ``c_j`` their binomial
    convolution, ``K_k(c) = sum_i C(k,i) K_i(a) K_{k-i}(b)`` must hold as
    a polynomial identity for every k up to the bound.
    """
    top = k.m_max if m_max is None else min(m_max, k.m_max)
    return k[0] == ONE and _product_law(k.entries, top, k.symbol, comb)


def _graded_degrees(p: Poly, symbol: str) -> set[int]:
    """Graded degrees of the monomials of p, with ``symbol_i`` of degree i."""
    degrees = set()
    for mon, _ in p.items():
        total = 0
        for v, e in mon:
            if v.startswith(f"{symbol}_"):
                total += int(v.rsplit("_", 1)[1]) * e
            else:
                raise ValueError(f"unexpected variable {v} in a K-sequence entry")
        degrees.add(total)
    return degrees


def is_homogeneous(k: KSeq) -> bool:
    """Every monomial of ``K_m`` has graded degree exactly m."""
    return all(
        _graded_degrees(k[m], k.symbol) <= {m} for m in range(len(k))
    )


def max_symbol_index(p: Poly, symbol: str) -> int:
    """Largest i with ``symbol_i`` present; 0 if none."""
    best = 0
    for v in p.variables():
        if v.startswith(f"{symbol}_"):
            best = max(best, int(v.rsplit("_", 1)[1]))
    return best


def is_linear_in_symbols(k: KSeq) -> bool:
    """No symbol appears to a power above 1 in any entry."""
    for p in k.entries:
        for mon, _ in p.items():
            if any(e > 1 for v, e in mon if v.startswith(f"{k.symbol}_")):
                return False
    return True


def respects_dependence_bound(k: KSeq) -> bool:
    """``K_m`` involves no symbol with index above m."""
    return all(
        max_symbol_index(k[m], k.symbol) <= m for m in range(len(k))
    )


# ---------------------------------------------------------------------------
# Hirzebruch m-sequences
# ---------------------------------------------------------------------------


def m_sequence(k: KSeq) -> tuple[Poly, ...]:
    """``L_i = K_i / i!`` for a homogeneous multiplicative sequence."""
    if not is_homogeneous(k):
        raise ValueError("an m-sequence requires a homogeneous multiplicative sequence")
    return tuple(
        p * Fraction(1, factorial(i)) for i, p in enumerate(k.entries)
    )


def _to_ogf_symbols(p: Poly, symbol: str) -> Poly:
    """Rescale ``symbol_j -> j! symbol_j``.

    Entries are stated in moment symbols, which weight the generating
    function by ``1/j!``; the ordinary-generating-function law reads the
    same symbols without that weight, so checking it requires this change
    of coordinates.
    """
    bindings = {
        v: Poly.var(v) * factorial(int(v.rsplit("_", 1)[1]))
        for v in p.variables()
        if v.startswith(f"{symbol}_")
    }
    return p.substitute(bindings) if bindings else p


def msequence_product_identity(entries: Sequence[Poly], m_max: int, symbol: str = _SYMBOL_A) -> bool:
    """The ordinary-generating-function product law for an m-sequence.

    Same shape as the EGF law but with plain convolution: no binomial
    weights on either side.  Symbols are read as OGF coefficients (see
    :func:`_to_ogf_symbols`).
    """
    top = min(m_max, len(entries) - 1)
    ogf = [_to_ogf_symbols(p, symbol) for p in entries[: top + 1]]
    return _product_law(ogf, top, symbol, lambda j, i: 1)
