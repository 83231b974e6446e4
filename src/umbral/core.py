"""Umbrae, moment sequences, and the evaluation map.

An umbra is a formal symbol bound to a moment sequence ``m_0=1, m_1, ...``
whose powers evaluate to moments: ``E[alpha^k] = m_k``.  Distinct umbrae
behave like independent random variables, and cloning an umbra produces a
fresh symbol carrying the same moments (the analogue of an identically
distributed, independent copy).

The :class:`Alphabet` is the registry of umbrae.  It is split into base
umbrae, which users introduce and may feed to the dot constructors, and
auxiliary umbrae, which are produced by constructions such as ``n.alpha``
and evaluate like any other umbra but are rejected as raw dot operands.

:class:`UmbralPoly` values are finite linear combinations of umbral
monomials with polynomial coefficients; :meth:`Alphabet.evaluate` is the
linear map sending each monomial to the product of its factors' moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Mapping, Sequence, Union

from .poly import ONE, ZERO, Poly, _format_terms, _mul_monomials, as_poly, parse_rational, power
from .series import Series, series_from_spec


class UmbraError(ValueError):
    """Raised for umbra-level contract violations (unknown ids, bad operands)."""


# ---------------------------------------------------------------------------
# Moment sequences
# ---------------------------------------------------------------------------


class MomentSeq:
    """A lazily realized, memoized moment sequence.

    The zeroth moment is always 1.  Sequences may come from a closed form,
    an explicit finite list (requesting a moment beyond the list is an
    error, never a silent zero), symbolic families, a truncated EGF, or a
    derived rule such as the additive-inverse recursion.
    """

    __slots__ = ("_fn", "_memo", "description", "dot_table")

    def __init__(self, fn: Callable[[int], Union[Poly, Fraction, int]], description: str = "custom"):
        self._fn = fn
        self._memo: dict[int, Poly] = {0: ONE}
        self.description = description
        #: The cumulant table :mod:`umbral.dot` builds on first use; kept
        #: here so it lives exactly as long as the sequence.
        self.dot_table = None

    def moment(self, k: int) -> Poly:
        if k < 0:
            raise UmbraError("moment index must be non-negative")
        got = self._memo.get(k)
        if got is None:
            got = as_poly(self._fn(k))
            self._memo[k] = got
        return got

    def __repr__(self) -> str:
        return f"MomentSeq({self.description})"

    # -- stock sequences ----------------------------------------------------

    @classmethod
    def from_list(cls, values: Sequence[Union[Poly, Fraction, int]]) -> "MomentSeq":
        """Moments ``m_1 .. m_L`` from a finite list (``m_0 = 1`` implied)."""
        vals = [as_poly(v) for v in values]

        def fn(k: int) -> Poly:
            if k > len(vals):
                raise UmbraError(
                    f"moment {k} requested but only {len(vals)} moments were supplied"
                )
            return vals[k - 1]

        return cls(fn, f"list[{len(vals)}]")

    @classmethod
    def constant(cls, c: Union[Fraction, int]) -> "MomentSeq":
        """The umbra of a deterministic value: ``m_k = c^k``."""
        cc = Fraction(c)
        return cls(lambda k: cc**k, f"const:{cc}")

    @classmethod
    def uniform(cls) -> "MomentSeq":
        """``m_k = 1/(k+1)``, the moments of the uniform unit interval."""
        return cls(lambda k: Fraction(1, k + 1), "uniform")

    @classmethod
    def eps(cls) -> "MomentSeq":
        """The zero umbra: ``m_k = [k = 0]``."""
        return cls(lambda k: Fraction(0), "eps")

    @classmethod
    def generic(cls, prefix: str = "a") -> "MomentSeq":
        """Symbolic moments ``prefix_1, prefix_2, ...`` as polynomial symbols."""
        return cls(lambda k: Poly.var(f"{prefix}_{k}"), f"generic:{prefix}")

    @classmethod
    def from_egf(cls, egf: Series) -> "MomentSeq":
        """Moments ``k! [z^k] egf``; beyond the truncation order is an error."""
        if egf.coeff(0) != ONE:
            raise UmbraError("an EGF of moments must have constant term 1")

        def fn(k: int) -> Poly:
            if k > egf.order:
                raise UmbraError(
                    f"moment {k} exceeds the EGF truncation order {egf.order}"
                )
            return egf.coeff(k) * factorial(k)

        return cls(fn, "egf")

    @classmethod
    def inverse_of(cls, other: "MomentSeq") -> "MomentSeq":
        """The additive-inverse moments: ``b_n = -sum_{i<n} C(n,i) b_i g_{n-i}``.

        An umbra with these moments, added to one carrying ``other``, is
        exchangeable with the zero umbra.
        """
        memo: dict[int, Poly] = {0: ONE}

        def fn(k: int) -> Poly:
            for n in range(1, k + 1):
                if n in memo:
                    continue
                acc = ZERO
                for i in range(n):
                    acc = acc + memo[i] * other.moment(n - i) * comb(n, i)
                memo[n] = -acc
            return memo[k]

        return cls(fn, f"inverse({other.description})")


def momentseq_from_spec(spec: str) -> MomentSeq:
    """Parse the moment-spec mini-language shared with the CLI.

    ``uniform`` | ``const:c`` | ``eps`` | ``bernoulli`` | ``list:[m1,m2,...]``
    | ``generic:a`` | ``egf:<series-spec>``.
    """
    spec = spec.strip()
    if spec == "uniform":
        return MomentSeq.uniform()
    if spec == "eps":
        return MomentSeq.eps()
    if spec == "bernoulli":
        return MomentSeq.inverse_of(MomentSeq.uniform())
    if spec.startswith("const:"):
        return MomentSeq.constant(parse_rational(spec[len("const:") :]))
    if spec.startswith("generic:"):
        return MomentSeq.generic(spec[len("generic:") :])
    if spec.startswith("list:"):
        body = spec[len("list:") :].strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        values = [parse_rational(tok) for tok in body.split(",") if tok.strip()]
        return MomentSeq.from_list(values)
    if spec.startswith("egf:"):
        sub = spec[len("egf:") :]

        def egf_moment(k: int) -> Poly:
            s = series_from_spec(sub, max(k, 1))
            if s.coeff(0) != ONE:
                raise UmbraError("an EGF of moments must have constant term 1")
            return s.coeff(k) * factorial(k)

        return MomentSeq(egf_moment, f"egf:{sub}")
    raise UmbraError(f"unknown moment spec: {spec!r}")


# ---------------------------------------------------------------------------
# Umbra identifiers and the alphabet
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class UmbraId:
    """A named umbra symbol; distinct (name, copy) pairs are independent."""

    name: str
    copy: int = 0

    def __str__(self) -> str:
        if self.copy == 0:
            return self.name
        if self.copy <= 3:
            return self.name + "'" * self.copy
        return f"{self.name}'{self.copy}"


#: An umbral monomial: (umbra, positive exponent) pairs sorted by umbra.
UMonomial = tuple[tuple[UmbraId, int], ...]

OperandLike = Union["UmbralPoly", UmbraId, Poly, Fraction, int]


class Alphabet:
    """Registry mapping umbrae to moment sequences.

    Registration is the only mutation; bindings are never changed once
    added, so readers may hold ids freely.  Base umbrae are registered by
    users; auxiliary umbrae come out of the dot constructions.
    """

    def __init__(self) -> None:
        self._moments: dict[UmbraId, MomentSeq] = {}
        self._auxiliary: set[UmbraId] = set()
        self._copies: dict[str, int] = {}

    # -- registration ----------------------------------------------------------

    def register(self, name: str, moments: MomentSeq) -> UmbraId:
        """Register a fresh base umbra; duplicate names are an error."""
        if name in self._copies:
            raise UmbraError(f"umbra name already registered: {name!r}")
        uid = UmbraId(name, 0)
        self._copies[name] = 1
        self._moments[uid] = moments
        return uid

    def register_spec(self, name: str, spec: str) -> UmbraId:
        return self.register(name, momentseq_from_spec(spec))

    def register_derived(self, name: str, moments: MomentSeq, *, auxiliary: bool) -> UmbraId:
        """Register a derived umbra; repeated names get fresh copy indices."""
        copy = self._copies.get(name, 0)
        self._copies[name] = copy + 1
        uid = UmbraId(name, copy)
        self._moments[uid] = moments
        if auxiliary:
            self._auxiliary.add(uid)
        return uid

    def clone(self, uid: UmbraId) -> UmbraId:
        """A fresh umbra exchangeable with ``uid`` (same moments, independent)."""
        seq = self._seq(uid)
        copy = self._copies[uid.name]
        self._copies[uid.name] = copy + 1
        new = UmbraId(uid.name, copy)
        self._moments[new] = seq
        if uid in self._auxiliary:
            self._auxiliary.add(new)
        return new

    def adopt(self, name: str, p: "UmbralPoly") -> UmbraId:
        """A base umbra exchangeable with the umbral polynomial ``p``.

        Its k-th moment is ``E[p^k]``, realized lazily.
        """
        p = UmbralPoly.coerce(p)
        moments = MomentSeq(lambda k: self.evaluate(p**k), f"adopt({name})")
        return self.register_derived(name, moments, auxiliary=False)

    def inverse(self, uid: UmbraId) -> UmbraId:
        """Register the additive inverse umbra of ``uid``.

        The sum of ``uid`` and the result is exchangeable with the zero
        umbra to every order; for uniform moments this produces the
        Bernoulli numbers.
        """
        return self.register_derived(
            f"~{uid.name}", MomentSeq.inverse_of(self._seq(uid)), auxiliary=False
        )

    # -- lookups ---------------------------------------------------------------

    def _seq(self, uid: UmbraId) -> MomentSeq:
        """The moment sequence of ``uid``; the one unknown-umbra guard."""
        seq = self._moments.get(uid)
        if seq is None:
            raise UmbraError(f"unknown umbra: {uid}")
        return seq

    def moment(self, uid: UmbraId, k: int) -> Poly:
        return self._seq(uid).moment(k)

    def moments(self, uid: UmbraId, up_to: int) -> list[Poly]:
        return [self.moment(uid, k) for k in range(up_to + 1)]

    def moment_seq(self, uid: UmbraId) -> MomentSeq:
        return self._seq(uid)

    def is_auxiliary(self, uid: UmbraId) -> bool:
        self._seq(uid)
        return uid in self._auxiliary

    def u(self, uid: UmbraId) -> "UmbralPoly":
        """The umbra as an umbral polynomial (convenience)."""
        return UmbralPoly.of(uid)

    # -- the evaluation map ------------------------------------------------------

    def evaluate(self, p: OperandLike) -> Poly:
        """The linear evaluation map.

        A monomial in distinct umbrae evaluates to the product of the
        factors' moments (distinct umbrae act independently); the map is
        linear over polynomial coefficients and sends 1 to 1.
        """
        p = UmbralPoly.coerce(p)
        total = ZERO
        for mon, coeff in p._terms.items():
            acc = coeff
            for uid, e in mon:
                acc = acc * self.moment(uid, e)
            total = total + acc
        return total


# ---------------------------------------------------------------------------
# Umbral polynomials
# ---------------------------------------------------------------------------


class UmbralPoly:
    """A finite linear combination of umbral monomials over the ground ring."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[UMonomial, Poly] | None = None):
        clean: dict[UMonomial, Poly] = {}
        if terms:
            for mon, c in terms.items():
                c = as_poly(c)
                if not c.is_zero:
                    clean[mon] = c
        self._terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def of(cls, uid: UmbraId) -> "UmbralPoly":
        return cls({((uid, 1),): ONE})

    @classmethod
    def scalar(cls, value: Union[Poly, Fraction, int]) -> "UmbralPoly":
        return cls({(): as_poly(value)})

    @classmethod
    def coerce(cls, value: OperandLike) -> "UmbralPoly":
        if isinstance(value, UmbralPoly):
            return value
        if isinstance(value, UmbraId):
            return cls.of(value)
        return cls.scalar(value)

    # -- structure ----------------------------------------------------------

    def support(self) -> frozenset[UmbraId]:
        """All umbrae appearing to nonzero power."""
        return frozenset(u for mon in self._terms for u, _ in mon)

    def scalar_part(self) -> Poly:
        return self._terms.get((), ZERO)

    def is_scalar(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: OperandLike) -> "UmbralPoly":
        other = UmbralPoly.coerce(other)
        terms = dict(self._terms)
        for mon, c in other._terms.items():
            s = terms.get(mon, ZERO) + c
            if s.is_zero:
                terms.pop(mon, None)
            else:
                terms[mon] = s
        out = UmbralPoly.__new__(UmbralPoly)
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "UmbralPoly":
        out = UmbralPoly.__new__(UmbralPoly)
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __sub__(self, other: OperandLike) -> "UmbralPoly":
        return self + (-UmbralPoly.coerce(other))

    def __rsub__(self, other: OperandLike) -> "UmbralPoly":
        return UmbralPoly.coerce(other) + (-self)

    def __mul__(self, other: OperandLike) -> "UmbralPoly":
        other = UmbralPoly.coerce(other)
        terms: dict[UMonomial, Poly] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mon = _mul_monomials(m1, m2, None)
                s = terms.get(mon, ZERO) + c1 * c2
                if s.is_zero:
                    terms.pop(mon, None)
                else:
                    terms[mon] = s
        out = UmbralPoly.__new__(UmbralPoly)
        out._terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "UmbralPoly":
        return power(self, exponent, UmbralPoly.scalar(1))

    # -- canonical forms ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, Poly, UmbraId)):
            other = UmbralPoly.coerce(other)
        if not isinstance(other, UmbralPoly):
            return NotImplemented
        return self._terms == other._terms

    def __str__(self) -> str:
        terms = sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return _format_terms(
            (c, "*".join(str(u) if e == 1 else f"{u}^{e}" for u, e in mon))
            for mon, c in terms
        )

    def __repr__(self) -> str:
        return f"UmbralPoly({self})"


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------


def independent(p: OperandLike, q: OperandLike) -> bool:
    """Syntactic independence: no umbra appears in both operands."""
    return not (
        UmbralPoly.coerce(p).support() & UmbralPoly.coerce(q).support()
    )


def umbrally_equivalent(alphabet: Alphabet, p: OperandLike, q: OperandLike) -> bool:
    """Equality under the evaluation map."""
    return alphabet.evaluate(p) == alphabet.evaluate(q)


def exchangeable_up_to(
    alphabet: Alphabet, p: OperandLike, q: OperandLike, order: int
) -> bool:
    """Umbral exchangeability checked for all powers up to ``order``.

    The full relation quantifies over every power, which a finite engine
    cannot decide; callers always state the order they need.
    """
    p = UmbralPoly.coerce(p)
    q = UmbralPoly.coerce(q)
    return all(
        alphabet.evaluate(p**k) == alphabet.evaluate(q**k)
        for k in range(order + 1)
    )
