"""Exact multivariate polynomial arithmetic over arbitrary-precision rationals.

This is the coefficient ring for the whole engine: polynomials in a small
set of commuting indeterminates (``x``, ``y``, the formal argument ``n``,
and indexed symbol families such as ``a_1, a_2, ...``) with
:class:`fractions.Fraction` coefficients.  All arithmetic is exact; nothing
in this package ever rounds.

Values are immutable and canonical: no zero coefficient is stored and each
monomial key is a sorted exponent vector, so two polynomials are equal
exactly when their term mappings are equal.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence, Union

#: Exact scalar type used everywhere in the package.
Rational = Fraction

#: A monomial: variable/exponent pairs, sorted by :func:`var_sort_key`,
#: every exponent positive.  The empty tuple is the constant monomial.
Monomial = tuple[tuple[str, int], ...]

ScalarLike = Union["Poly", Fraction, int]

_INDEXED = re.compile(r"^(.+)_([0-9]+)$")


@lru_cache(maxsize=None)
def var_sort_key(name: str) -> tuple[str, int]:
    """Ordering key for variable names: family first, numeric index second.

    Indexed symbols sort naturally within their family (``a_2 < a_10``),
    and families sort alphabetically, so ``a_3 < b_1 < n < x < y``.
    """
    m = _INDEXED.match(name)
    if m:
        return (m.group(1), int(m.group(2)))
    return (name, -1)


def _var_key(ve: tuple[str, int]) -> tuple[str, int]:
    return var_sort_key(ve[0])


def _mul_monomials(m1, m2, key):
    """Product of two monomials of ``Poly`` (``key=_var_key``) or ``UmbralPoly`` (``key=None``)."""
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items(), key=key))


def _monomial_degree(mon: Monomial) -> int:
    return sum(e for _, e in mon)


def _term_sort_key(mon: Monomial):
    # Total degree descending, then graded-lexicographic within a degree.
    return (-_monomial_degree(mon), tuple((var_sort_key(v), -e) for v, e in mon))


class Poly:
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, ScalarLike] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mon, coeff in terms.items():
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c:
                    clean[mon] = c
        self._terms = clean
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: ScalarLike) -> "Poly":
        if isinstance(value, Poly):
            return value
        return cls({(): Fraction(value)})

    @classmethod
    def var(cls, name: str, exponent: int = 1) -> "Poly":
        if exponent < 0:
            raise ValueError("negative exponents are not supported")
        if exponent == 0:
            return ONE
        return cls({((name, exponent),): Fraction(1)})

    @classmethod
    def monomial(cls, vars: Mapping[str, int], coeff: ScalarLike = 1) -> "Poly":
        mon = tuple(sorted(((v, e) for v, e in vars.items() if e), key=_var_key))
        if any(e < 0 for _, e in mon):
            raise ValueError("negative exponents are not supported")
        return cls({mon: coeff})

    # -- inspection --------------------------------------------------------

    def items(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical print order (degree descending, then lex)."""
        return sorted(self._terms.items(), key=lambda kv: _term_sort_key(kv[0]))

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def constant_term(self) -> Fraction:
        """Coefficient of the empty monomial."""
        return self._terms.get((), Fraction(0))

    def as_rational(self) -> Fraction:
        """The value of a constant polynomial; raises if variables remain."""
        if not self.is_constant:
            raise ValueError(f"polynomial is not constant: {self}")
        return self.constant_term()

    def variables(self) -> frozenset[str]:
        return frozenset(v for mon in self._terms for v, _ in mon)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(_monomial_degree(m) for m in self._terms)

    def degree_in(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max((dict(m).get(var, 0) for m in self._terms), default=0)

    def coefficients_in(self, var: str) -> dict[int, "Poly"]:
        """Split into powers of ``var``: {k: coefficient Poly without var}."""
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for mon, c in self._terms.items():
            k = 0
            rest = []
            for v, e in mon:
                if v == var:
                    k = e
                else:
                    rest.append((v, e))
            buckets.setdefault(k, {})[tuple(rest)] = c
        return {k: Poly(t) for k, t in buckets.items()}

    def coefficient_of(self, var: str, k: int) -> "Poly":
        return self.coefficients_in(var).get(k, ZERO)

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Poly":
        other = Poly.const(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        terms = dict(self._terms)
        for mon, c in other._terms.items():
            s = terms.get(mon, Fraction(0)) + c
            if s:
                terms[mon] = s
            else:
                terms.pop(mon, None)
        out = Poly.__new__(Poly)
        out._terms = terms
        out._hash = None
        return out

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        out = Poly.__new__(Poly)
        out._terms = {m: -c for m, c in self._terms.items()}
        out._hash = None
        return out

    def __sub__(self, other: ScalarLike) -> "Poly":
        return self + (-Poly.const(other))

    def __rsub__(self, other: ScalarLike) -> "Poly":
        return Poly.const(other) + (-self)

    def __mul__(self, other: ScalarLike) -> "Poly":
        other = Poly.const(other)
        if not self._terms or not other._terms:
            return ZERO
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mon = _mul_monomials(m1, m2, _var_key)
                s = terms.get(mon, Fraction(0)) + c1 * c2
                if s:
                    terms[mon] = s
                else:
                    terms.pop(mon, None)
        out = Poly.__new__(Poly)
        out._terms = terms
        out._hash = None
        return out

    __rmul__ = __mul__

    def __truediv__(self, scalar: Union[Fraction, int]) -> "Poly":
        """Division by a nonzero rational scalar (not polynomial division)."""
        if isinstance(scalar, Poly):
            scalar = scalar.as_rational()
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, exponent: int) -> "Poly":
        return power(self, exponent, ONE)

    # -- calculus and substitution ------------------------------------------

    def derivative(self, var: str) -> "Poly":
        """Formal partial derivative with respect to ``var``."""
        terms: dict[Monomial, Fraction] = {}
        for mon, c in self._terms.items():
            for i, (v, e) in enumerate(mon):
                if v == var:
                    rest = mon[:i] + ((v, e - 1),) + mon[i + 1 :] if e > 1 else mon[:i] + mon[i + 1 :]
                    terms[rest] = terms.get(rest, Fraction(0)) + c * e
                    break
        return Poly(terms)

    def substitute(self, bindings: Mapping[str, ScalarLike]) -> "Poly":
        """Simultaneous substitution of variables by polynomials.

        Variables absent from ``bindings`` are left in place, so partial
        substitutions such as ``x -> x + y`` are exact and well defined.
        """
        return _substitute(self, {v: Poly.const(b) for v, b in bindings.items()}, {})

    # -- canonical forms -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for mon, c in self.items():
            mtxt = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mon)
            mag = abs(c)
            if not mon:
                body = str(mag)
            elif mag == 1:
                body = mtxt
            else:
                body = f"{mag}*{mtxt}"
            sign = "-" if c < 0 else "+"
            pieces.append(f"{sign}{body}")
        head = pieces[0]
        out = head[1:] if head[0] == "+" else head
        return out + "".join(pieces[1:])

    def __repr__(self) -> str:
        return f"Poly({self})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list[dict]:
        """Canonical JSON form: ``[{"coeff": "p/q", "vars": {...}}, ...]``."""
        return [
            {"coeff": str(c), "vars": {v: e for v, e in mon}}
            for mon, c in self.items()
        ]

    @classmethod
    def from_json(cls, data: Iterable[Mapping]) -> "Poly":
        total = ZERO
        for entry in data:
            total = total + cls.monomial(entry.get("vars", {}), Fraction(entry["coeff"]))
        return total


ZERO = Poly()
ONE = Poly({(): Fraction(1)})


def power(base, exponent: int, one):
    """``base ** exponent`` by square-and-multiply, starting from ``one``.

    The one exponentiation loop behind ``Poly``, ``Series`` and
    ``UmbralPoly``; ``base`` needs only ``*``.
    """
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        if exponent > 1:
            base = base * base
        exponent >>= 1
    return result


def _substitute(p: Poly, bound: Mapping[str, Poly], powers: dict[tuple[str, int], Poly]) -> Poly:
    """The one substitution loop: ``p`` with every bound variable replaced.

    ``powers`` caches ``bound[v] ** e``; a caller that substitutes the
    same bindings into several polynomials passes one table to all of them.
    """
    total = ZERO
    for mon, c in p._terms.items():
        acc = Poly.const(c)
        kept: list[tuple[str, int]] = []
        for v, e in mon:
            if v in bound:
                pw = powers.get((v, e))
                if pw is None:
                    pw = powers[(v, e)] = bound[v] ** e
                acc = acc * pw
            else:
                kept.append((v, e))
        if kept:
            acc = acc * Poly({tuple(kept): Fraction(1)})
        total = total + acc
    return total


def first_law_failure(
    left: Sequence[Poly], right: Sequence[Poly], top: int,
    at_sum: Mapping[str, Poly], rename: Mapping[str, Poly], weight: Callable[[int, int], int],
) -> int | None:
    """First ``k <= top`` where the convolution law fails, or None.

    The law is ``right_k|at_sum = sum_i weight(k, i) left_i rename(right_{k-i})``,
    checked as an exact polynomial identity.  With ``at_sum = {x: x+y}``,
    ``rename = {x: y}`` and binomial weights it is the binomial-type
    identity (``left = right``) or the Sheffer identity (``left`` the
    binomial base); with ``at_sum`` the convolution of two symbol families
    it is the product law of multiplicative sequences.  All entries share
    one table of powers per binding.
    """
    sum_powers: dict[tuple[str, int], Poly] = {}
    rename_powers: dict[tuple[str, int], Poly] = {}
    renamed: list[Poly] = []
    for k in range(top + 1):
        renamed.append(_substitute(right[k], rename, rename_powers))
        rhs = ZERO
        for i in range(k + 1):
            rhs = rhs + weight(k, i) * left[i] * renamed[k - i]
        if _substitute(right[k], at_sum, sum_powers) != rhs:
            return k
    return None


def _format_terms(terms: Iterable[tuple[Poly, str]]) -> str:
    """``c*m + ...`` for ``Series`` and ``UmbralPoly`` from (coefficient,
    monomial text) pairs, an empty text marking the constant term."""
    bits = []
    for c, mtxt in terms:
        if not mtxt:
            bits.append(str(c))
        elif c == ONE:
            bits.append(mtxt)
        elif c.is_constant:
            bits.append(f"{c}*{mtxt}")
        else:
            bits.append(f"({c})*{mtxt}")
    return " + ".join(bits) or "0"


def as_poly(value: ScalarLike) -> Poly:
    """Promote ints and Fractions to constant polynomials."""
    return value if isinstance(value, Poly) else Poly.const(value)


def parse_rational(token: str) -> Fraction:
    """An exact rational from text such as ``-3/4``.

    Malformed text and zero denominators raise ``ValueError`` naming the
    token, so callers parsing outside input need only one handler.
    """
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token.strip()!r}") from None
