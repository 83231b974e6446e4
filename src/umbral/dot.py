"""The dot operation: integer dot ``n.p``, umbral dot ``p.q``, and chains.

``n.alpha`` stands for the sum of ``n`` independent copies of ``alpha``;
its k-th moment is a polynomial ``q_k(n)`` of degree at most k.  Cumulants
add over independent sums, so ``q_k`` follows from the cumulants
``kappa_j`` of ``alpha`` by one linear recurrence (the cumulant umbra of
Di Nardo and Senato):

    q_k(n) = n * sum_{j<=k} C(k-1, j-1) kappa_j q_{k-j}(n),   q_0 = 1,

and ``q_k(1) = m_k`` fixes ``kappa_k``.  The rows are the binomial-type
sequence ``E[(x.alpha)^k]``, so a table seeded with cumulants builds any
such sequence.

Each operand keeps one table of cumulants and the coefficients of ``q_k``
in powers of ``n``, extended only as far as a caller asks, so moment k is
requested only when ``q_k`` is needed.  An umbra's table lives
on its :class:`~umbral.core.MomentSeq` (and dies with its alphabet); an
umbral-polynomial operand gets a table local to the call.  Substituting an
umbra's moments for the powers of ``n`` defines the umbral dot ``p.q``,
the formal analogue of summing a random number of i.i.d. terms.

Results are registered as fresh auxiliary umbrae: calling a constructor
twice with the same operands yields distinct, independent umbrae.  The raw
constructors reject auxiliary operands; the chain constructor is the one
sanctioned way to nest dots, folding from the right.

A brute-force multinomial expansion over explicit clones is provided as an
independent oracle for the cumulant route.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterator, Sequence, Union

from .core import Alphabet, OperandLike, UmbraError, UmbraId, UmbralPoly, MomentSeq
from .poly import ONE, ZERO, Poly, as_poly
from .series import Series, egf_from_moments

#: Formal variable reserved for the integer argument of dot-coefficient polynomials.
DOT_VAR = "n"

MomentFn = Callable[[int], Poly]


def _operand_moments(alphabet: Alphabet, operand: OperandLike) -> MomentFn:
    """Moment provider ``k -> E[operand^k]``, memoized by a moment sequence."""
    if isinstance(operand, UmbraId):
        return lambda k: alphabet.moment(operand, k)
    p = UmbralPoly.coerce(operand)
    return MomentSeq(lambda k: alphabet.evaluate(p**k), "operand").moment


def egf_of(alphabet: Alphabet, operand: OperandLike, order: int, var: str = "z") -> Series:
    """EGF ``sum E[p^k] z^k / k!`` of an umbra or umbral polynomial."""
    mom = _operand_moments(alphabet, operand)
    return egf_from_moments([mom(k) for k in range(order + 1)], var)


class _DotTable:
    """Cumulants and dot-coefficient polynomials of one operand.

    ``coeffs(k)`` holds the coefficients of ``q_k(n)`` in powers of ``n``.
    Row k is summed over the cumulants below k, ``seed(k, partial)`` turns
    that partial row into ``kappa_k``, and ``kappa_k`` enters as
    ``kappa_k n``: seeded with moments, ``kappa_k = m_k - partial(1)``;
    seeded with cumulants, the moments are the row sums ``q_k(1)``.
    """

    __slots__ = ("_seed", "_kappa", "_q")

    def __init__(self, seed: Callable[[int, list[Poly]], Poly]):
        self._seed = seed
        self._kappa: list[Poly] = [ZERO]
        self._q: list[tuple[Poly, ...]] = [(ONE,)]

    @classmethod
    def of_moments(cls, moment: MomentFn) -> "_DotTable":
        return cls(lambda k, partial: moment(k) - sum(partial, ZERO))

    @classmethod
    def of_cumulants(cls, kappa: MomentFn) -> "_DotTable":
        return cls(lambda k, partial: kappa(k))

    def coeffs(self, k: int) -> tuple[Poly, ...]:
        """``(c_0, ..., c_k)`` with ``q_k(n) = sum_i c_i n^i``."""
        if k < 0:
            raise UmbraError("dot coefficient index must be non-negative")
        while len(self._q) <= k:
            self._extend()
        return self._q[k]

    def moment(self, k: int) -> Poly:
        """``m_k = q_k(1)``."""
        return sum(self.coeffs(k), ZERO)

    def at(self, k: int, s: Poly) -> Poly:
        """``q_k(s)`` for a ground-ring element ``s``."""
        return _combine(self.coeffs(k), lambda i: s**i)

    def _extend(self) -> None:
        k = len(self._q)
        kappa, q = self._kappa, self._q
        row = [ZERO] * (k + 1)
        for j in range(1, k):
            if not kappa[j]:
                continue
            w = kappa[j] * comb(k - 1, j - 1)
            for i, c in enumerate(q[k - j]):
                if c:
                    row[i + 1] = row[i + 1] + w * c
        kappa.append(self._seed(k, row))
        row[1] = row[1] + kappa[k]
        q.append(tuple(row))


def _cumulant_seq(kappas: Sequence[Poly], description: str) -> MomentSeq:
    """Moments with cumulants ``kappas`` (``kappa_1`` first), their table in place."""
    table = _DotTable.of_cumulants(MomentSeq.from_list(kappas).moment)
    seq = MomentSeq(table.moment, description)
    seq.dot_table = table
    return seq


def _table(alphabet: Alphabet, operand: OperandLike) -> _DotTable:
    """The operand's table: cached on an umbra's moment sequence, fresh otherwise."""
    if isinstance(operand, UmbraId):
        seq = alphabet.moment_seq(operand)
        if seq.dot_table is None:
            seq.dot_table = _DotTable.of_moments(seq.moment)
        return seq.dot_table
    return _DotTable.of_moments(_operand_moments(alphabet, operand))


def _combine(coeffs: tuple[Poly, ...], power: MomentFn) -> Poly:
    """``sum_i c_i power(i)`` over the nonzero coefficients only."""
    total = ZERO
    for i, c in enumerate(coeffs):
        if c:
            total = total + c * power(i)
    return total


def _require_base(alphabet: Alphabet, operand: OperandLike, what: str) -> None:
    for uid in UmbralPoly.coerce(operand).support():
        if alphabet.is_auxiliary(uid):
            raise UmbraError(
                f"{what} operand contains the auxiliary umbra {uid}; "
                "auxiliary umbrae may only enter through the chain constructor"
            )


def _operand_label(operand: OperandLike) -> str:
    if isinstance(operand, UmbraId):
        return str(operand)
    p = UmbralPoly.coerce(operand)
    if p.is_scalar():
        return str(p.scalar_part())
    sup = p.support()
    if len(sup) == 1 and len(p._terms) == 1:
        return str(next(iter(sup)))
    return "expr"


# ---------------------------------------------------------------------------
# Public constructors
# ---------------------------------------------------------------------------


def dot_coeff_poly(alphabet: Alphabet, gamma: OperandLike, k: int, var: str = DOT_VAR) -> Poly:
    """The k-th dot-coefficient polynomial of ``gamma`` in the formal variable.

    Its value at a positive integer ``n`` is the k-th moment of a sum of
    ``n`` independent copies of ``gamma``; degree in the variable is at
    most ``k``, and the coefficient ``q_0 = 1`` at ``k = 0``.
    """
    _require_base(alphabet, gamma, "dot")
    return _table(alphabet, gamma).at(k, Poly.var(var))


def dot_scalar(alphabet: Alphabet, scalar: Union[Poly, Fraction, int], gamma: UmbraId, k: int) -> Poly:
    """``E[(s.gamma)^k]`` for a ground-ring element ``s`` (e.g. the variable x).

    No umbra is registered; the dot-coefficient polynomial is evaluated at
    ``s`` directly.
    """
    _require_base(alphabet, gamma, "dot")
    return _table(alphabet, gamma).at(k, as_poly(scalar))


def _dot_momentseq(alphabet: Alphabet, left: OperandLike, right: OperandLike) -> MomentSeq:
    """Moment sequence of ``left.right``: substitute left moments for powers
    of the formal variable in the right operand's dot-coefficient polynomials."""
    mom_left = _operand_moments(alphabet, left)
    table = _table(alphabet, right)
    return MomentSeq(lambda k: _combine(table.coeffs(k), mom_left), "dot")


def _dot_any(alphabet: Alphabet, left: OperandLike, right: OperandLike) -> UmbraId:
    name = f"{_operand_label(left)}.{_operand_label(right)}"
    return alphabet.register_derived(
        name, _dot_momentseq(alphabet, left, right), auxiliary=True
    )


def dot(alphabet: Alphabet, left: OperandLike, right: OperandLike) -> UmbraId:
    """The auxiliary umbra ``left.right`` for base-only operands."""
    _require_base(alphabet, left, "dot")
    _require_base(alphabet, right, "dot")
    return _dot_any(alphabet, left, right)


def dot_int(alphabet: Alphabet, n: int, operand: OperandLike) -> UmbraId:
    """The auxiliary umbra ``n.p`` for an integer ``n`` of either sign.

    For ``n >= 0`` this matches the sum of ``n`` independent copies of
    ``p``; negative integers are defined by the same coefficient
    polynomials, so ``(-n).p + n.p'`` is exchangeable with the zero umbra.
    """
    if not isinstance(n, int):
        raise UmbraError("dot_int takes a Python integer multiplier")
    _require_base(alphabet, operand, "dot")
    table = _table(alphabet, operand)
    name = f"{n}.{_operand_label(operand)}"
    moments = MomentSeq(lambda k: table.at(k, Poly.const(n)), name)
    return alphabet.register_derived(name, moments, auxiliary=True)


def dot_chain(alphabet: Alphabet, operands: Sequence[OperandLike]) -> UmbraId:
    """Right-associated dot chain ``p_1.p_2.....p_m`` (m >= 2).

    Each operand must be base-only; the intermediate auxiliary umbrae are
    threaded internally, which the associativity of the operation makes
    well defined.
    """
    if len(operands) < 2:
        raise UmbraError("a dot chain needs at least two operands")
    for op in operands:
        _require_base(alphabet, op, "dot chain")
    rho: OperandLike = operands[-1]
    for op in reversed(operands[:-1]):
        rho = _dot_any(alphabet, op, rho)
    return rho  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def dot_int_oracle(alphabet: Alphabet, n: int, gamma: OperandLike, k: int) -> Poly:
    """``E[(gamma_1 + ... + gamma_n)^k]`` by explicit multinomial expansion.

    No series machinery: this is the independent ground truth for the
    coefficient-polynomial route, at small ``n`` and ``k``.
    """
    if n < 1:
        raise UmbraError("the oracle needs a positive number of copies")
    mom = _operand_moments(alphabet, gamma)
    total = ZERO
    for ks in _compositions(k, n):
        weight = factorial(k)
        for ki in ks:
            weight //= factorial(ki)
        term = as_poly(weight)
        for ki in ks:
            if ki:
                term = term * mom(ki)
        total = total + term
    return total
