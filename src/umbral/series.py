"""Truncated formal power series with polynomial coefficients.

A :class:`Series` holds coefficients ``c_0 .. c_N`` of a series in one
formal variable (``z`` for generating functions, ``D`` for operator
series in the derivative).  The truncation order ``N`` is explicit:
trailing zero coefficients are kept, and binary operations never claim
accuracy beyond the smaller operand order.

Coefficients are :class:`~umbral.poly.Poly` values, so series over symbol
families (generic moments, the formal argument ``n``) work exactly like
rational ones; ``exp``/``log``/``reciprocal`` require the relevant
constant term to be a plain rational, which is all the ring of
polynomial coefficients can invert.

Everything past the ring operations costs O(N^2) or O(N^3) coefficient
products: ``reciprocal`` solves one coefficient at a time, ``exp`` and
``log`` run their derivative recurrences, ``comp_inverse`` is Lagrange
inversion over one running power, and ``compose`` is Horner's rule (Brent
& Kung, *Fast algorithms for manipulating formal power series*, J. ACM
1978).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence, Union

from .poly import ONE, ZERO, Poly, _format_terms, as_poly, parse_rational, power

CoeffLike = Union[Poly, Fraction, int]


class Series:
    """Truncated power series ``c_0 + c_1 v + ... + c_N v^N + O(v^{N+1})``."""

    __slots__ = ("_coeffs", "_var")

    def __init__(self, coeffs: Iterable[CoeffLike], var: str = "z"):
        cs = tuple(as_poly(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = cs
        self._var = var

    # -- construction ---------------------------------------------------------

    @classmethod
    def constant(cls, value: CoeffLike, order: int, var: str = "z") -> "Series":
        return cls([value] + [0] * order, var)

    @classmethod
    def identity(cls, order: int, var: str = "z") -> "Series":
        """The series ``v`` itself, truncated at ``order``."""
        if order < 1:
            raise ValueError("identity series needs order >= 1")
        return cls([0, 1] + [0] * (order - 1), var)

    # -- basic access ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def var(self) -> str:
        return self._var

    @property
    def coefficients(self) -> tuple[Poly, ...]:
        return self._coeffs

    def coeff(self, k: int) -> Poly:
        if k < 0 or k > self.order:
            raise ValueError(f"coefficient {k} is beyond truncation order {self.order}")
        return self._coeffs[k]

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError("cannot extend a series beyond its truncation order")
        return Series(self._coeffs[: order + 1], self._var)

    def with_var(self, var: str) -> "Series":
        return Series(self._coeffs, var)

    def agrees_with(self, other: "Series", order: int | None = None) -> bool:
        """Coefficientwise equality up to ``order`` (default: min of the two)."""
        n = min(self.order, other.order)
        if order is not None:
            if order > n:
                raise ValueError("comparison order exceeds a truncation order")
            n = order
        return self._coeffs[: n + 1] == other._coeffs[: n + 1]

    # -- ring operations ---------------------------------------------------------

    def _check_same_var(self, other: "Series") -> None:
        if other._var != self._var:
            raise ValueError(
                f"series in different variables: {self._var!r} and {other._var!r}"
            )

    def __add__(self, other: Union["Series", CoeffLike]) -> "Series":
        if not isinstance(other, Series):
            other = Series.constant(other, self.order, self._var)
        self._check_same_var(other)
        n = min(self.order, other.order)
        return Series(
            [self._coeffs[k] + other._coeffs[k] for k in range(n + 1)], self._var
        )

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series([-c for c in self._coeffs], self._var)

    def __sub__(self, other: Union["Series", CoeffLike]) -> "Series":
        if not isinstance(other, Series):
            other = Series.constant(other, self.order, self._var)
        self._check_same_var(other)
        return self + (-other)

    def __rsub__(self, other: CoeffLike) -> "Series":
        return Series.constant(other, self.order, self._var) - self

    def __mul__(self, other: Union["Series", CoeffLike]) -> "Series":
        if not isinstance(other, Series):
            c = as_poly(other)
            return Series([ci * c for ci in self._coeffs], self._var)
        self._check_same_var(other)
        n = min(self.order, other.order)
        out = []
        for k in range(n + 1):
            acc = ZERO
            for i in range(k + 1):
                a = self._coeffs[i]
                b = other._coeffs[k - i]
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return Series(out, self._var)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Series":
        return power(self, exponent, Series.constant(1, self.order, self._var))

    def reciprocal(self) -> "Series":
        """Multiplicative inverse, solved coefficient by coefficient.

        Requires an invertible (nonzero rational) constant term.
        """
        c0 = self._coeffs[0].as_rational()
        if c0 == 0:
            raise ValueError("reciprocal of a series with zero constant term")
        inv0 = Fraction(1) / c0
        out: list[Poly] = [Poly.const(inv0)]
        for k in range(1, self.order + 1):
            acc = ZERO
            for i in range(1, k + 1):
                if self._coeffs[i] and out[k - i]:
                    acc = acc + self._coeffs[i] * out[k - i]
            out.append(acc * (-inv0))
        return Series(out, self._var)

    # -- composition, exp, log -----------------------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """Substitute ``inner`` (which must have zero constant term) for the variable."""
        self._check_same_var(inner)
        if inner._coeffs[0] != ZERO:
            raise ValueError("composition requires the inner series to vanish at 0")
        n = min(self.order, inner.order)
        g = inner.truncate(n)
        acc = Series.constant(self._coeffs[n], n, self._var)
        for k in range(n - 1, -1, -1):
            acc = acc * g + self._coeffs[k]
        return acc

    def exp(self) -> "Series":
        """Exponential of a series with constant term exactly 0.

        From ``e' = f' e``: ``e_0 = 1`` and ``k e_k = sum_{j<=k} j f_j e_{k-j}``,
        O(N^2) coefficient products.
        """
        if self._coeffs[0] != ZERO:
            raise ValueError("exp requires constant term 0")
        df = [c * j for j, c in enumerate(self._coeffs)]
        e = [ONE]
        for k in range(1, self.order + 1):
            acc = ZERO
            for j in range(1, k + 1):
                if df[j] and e[k - j]:
                    acc = acc + df[j] * e[k - j]
            e.append(acc * Fraction(1, k))
        return Series(e, self._var)

    def log(self) -> "Series":
        """Logarithm of a series with constant term exactly 1.

        ``log f = integral of f'/f``: one reciprocal and one product,
        integrated term by term, O(N^2).
        """
        if self._coeffs[0] != ONE:
            raise ValueError("log requires constant term 1")
        if self.order == 0:
            return Series.constant(0, 0, self._var)
        quotient = self.derivative() * self.truncate(self.order - 1).reciprocal()
        return Series(
            [ZERO] + [c * Fraction(1, k) for k, c in enumerate(quotient._coeffs, 1)],
            self._var,
        )

    def comp_inverse(self) -> "Series":
        """Compositional inverse of a delta series (``f(0)=0``, ``f'(0)`` invertible).

        Lagrange inversion: with ``q = v/f``, ``h_k = [v^{k-1}] q^k / k``.  One
        running power of ``q`` makes N series products, O(N^3) in all; the
        roundtrips ``f(h) = h(f) = v`` hold exactly to the truncation order.
        """
        if self._coeffs[0] != ZERO:
            raise ValueError("compositional inverse requires a delta series (f(0)=0)")
        if self.coeff(1).as_rational() == 0:
            raise ValueError("compositional inverse requires f'(0) != 0")
        q = self.shift_down().reciprocal()
        qk = q
        h = [ZERO, q._coeffs[0]]
        for k in range(2, self.order + 1):
            qk = qk * q
            h.append(qk._coeffs[k - 1] * Fraction(1, k))
        return Series(h, self._var)

    # -- calculus ---------------------------------------------------------------

    def derivative(self) -> "Series":
        """Formal derivative with respect to the series variable; order drops by 1."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 truncation")
        return Series(
            [self._coeffs[k] * k for k in range(1, self.order + 1)], self._var
        )

    def shift_down(self) -> "Series":
        """Divide by the variable; requires zero constant term, order drops by 1."""
        if self._coeffs[0] != ZERO:
            raise ValueError("division by the variable requires zero constant term")
        if self.order == 0:
            raise ValueError("cannot shift an order-0 truncation")
        return Series(self._coeffs[1:], self._var)

    def apply_to_poly(self, p: Poly, var: str = "x") -> Poly:
        """Apply the operator series ``sum c_k D^k`` with ``D = d/d(var)``.

        The truncation order must cover the polynomial degree; applying an
        operator known to too few terms is an error rather than a silent
        truncation.
        """
        deg = p.degree_in(var)
        if self.order < deg:
            raise ValueError(
                f"operator series of order {self.order} cannot act on degree {deg}"
            )
        out = ZERO
        dp = p
        for k in range(0, deg + 1):
            if self._coeffs[k]:
                out = out + self._coeffs[k] * dp
            dp = dp.derivative(var)
        return out

    # -- canonical forms -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs and self._var == other._var

    def __hash__(self) -> int:
        return hash((self._coeffs, self._var))

    def __str__(self) -> str:
        v = self._var
        body = _format_terms(
            (c, "" if k == 0 else v if k == 1 else f"{v}^{k}")
            for k, c in enumerate(self._coeffs)
            if c
        )
        return f"{body} + O({v}^{self.order + 1})"

    def __repr__(self) -> str:
        return f"Series({self})"

    def to_json(self) -> dict:
        return {
            "variable": self._var,
            "order": self.order,
            "coefficients": [c.to_json() for c in self._coeffs],
        }

    @classmethod
    def from_json(cls, data) -> "Series":
        coeffs = [Poly.from_json(c) for c in data["coefficients"]]
        return cls(coeffs, data.get("variable", "z"))


# -- common named series ------------------------------------------------------------


def exp_series(order: int, var: str = "z") -> Series:
    """``e^v`` truncated at ``order``."""
    return Series([Fraction(1, factorial(k)) for k in range(order + 1)], var)


def expm1_series(order: int, var: str = "z") -> Series:
    """``e^v - 1``: the forward-difference delta series."""
    return Series(
        [0] + [Fraction(1, factorial(k)) for k in range(1, order + 1)], var
    )


def one_minus_exp_neg_series(order: int, var: str = "z") -> Series:
    """``1 - e^{-v}``: the backward-difference delta series."""
    return Series(
        [0] + [Fraction(-((-1) ** k), factorial(k)) for k in range(1, order + 1)], var
    )


def log1p_series(order: int, var: str = "z") -> Series:
    """``log(1 + v)``."""
    return Series(
        [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)], var
    )


def egf_from_moments(moments: Sequence[CoeffLike], var: str = "z") -> Series:
    """Exponential generating function ``sum m_k v^k / k!`` of a moment list."""
    return Series(
        [as_poly(m) * Fraction(1, factorial(k)) for k, m in enumerate(moments)], var
    )


def moments_from_egf(egf: Series) -> list[Poly]:
    """Recover the moment list ``m_k = k! [v^k] egf``."""
    return [egf.coeff(k) * factorial(k) for k in range(egf.order + 1)]


_NAMED_SERIES = {
    "t": lambda n, var: Series.identity(n, var),
    "z": lambda n, var: Series.identity(n, var),
    "expm1": lambda n, var: expm1_series(n, var),
    "exp(t)-1": lambda n, var: expm1_series(n, var),
    "1-exp(-t)": lambda n, var: one_minus_exp_neg_series(n, var),
    "expm1neg": lambda n, var: one_minus_exp_neg_series(n, var),
    "log1p": lambda n, var: log1p_series(n, var),
    "log(1+t)": lambda n, var: log1p_series(n, var),
    "t-t^2": lambda n, var: Series([0, 1, -1] + [0] * (n - 2), var),
}


def series_from_spec(spec: str, order: int, var: str = "z") -> Series:
    """Parse the tiny series mini-language used by the CLI.

    Named series: ``t``, ``expm1`` (= ``exp(t)-1``), ``expm1neg``
    (= ``1-exp(-t)``), ``log1p``, ``t-t^2``.  Explicit coefficients:
    ``coeffs:c0,c1,...`` with rational entries, zero-padded to ``order``.
    """
    spec = spec.strip()
    if spec.startswith("coeffs:"):
        body = spec[len("coeffs:") :]
        cs = [parse_rational(tok) for tok in body.split(",") if tok.strip()]
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        cs = cs + [Fraction(0)] * (order + 1 - len(cs))
        return Series(cs, var)
    maker = _NAMED_SERIES.get(spec)
    if maker is None:
        raise ValueError(f"unknown series spec: {spec!r}")
    if order < 2 and spec == "t-t^2":
        raise ValueError("t-t^2 needs order >= 2")
    return maker(order, var)
