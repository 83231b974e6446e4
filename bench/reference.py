"""Independent plain-Fraction references for every job the benchmark sends.

Nothing here imports umbral.  Values come from direct recurrences
(binomial convolution of moments, Lagrange inversion, Stirling numbers,
the Bernoulli recurrence) and are formatted with the CLI's documented
canonical text form, so a job is checked by comparing stdout bytes.

Polynomials are dicts mapping a monomial (a tuple of ``(variable,
exponent)`` pairs sorted by variable key) to a nonzero Fraction.
Univariate polynomials in ``x`` and truncated series are plain lists of
Fractions indexed by degree.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

_INDEXED = re.compile(r"^(.+)_([0-9]+)$")


# ---------------------------------------------------------------------------
# Canonical text form
# ---------------------------------------------------------------------------


def _var_key(name: str) -> tuple[str, int]:
    m = _INDEXED.match(name)
    return (m.group(1), int(m.group(2))) if m else (name, -1)


def _mono(vars_exps: dict[str, int]) -> tuple:
    return tuple(sorted(((v, e) for v, e in vars_exps.items() if e), key=lambda ve: _var_key(ve[0])))


def format_poly(terms: dict) -> str:
    """Total degree descending, then graded-lexicographic; ``+``/``-`` joined."""
    live = [(mon, c) for mon, c in terms.items() if c]
    if not live:
        return "0"
    live.sort(key=lambda mc: (-sum(e for _, e in mc[0]), tuple((_var_key(v), -e) for v, e in mc[0])))
    pieces = []
    for mon, c in live:
        mtxt = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mon)
        mag = abs(c)
        if not mon:
            body = str(mag)
        elif mag == 1:
            body = mtxt
        else:
            body = f"{mag}*{mtxt}"
        pieces.append(("-" if c < 0 else "+") + body)
    head = pieces[0][1:] if pieces[0][0] == "+" else pieces[0]
    return head + "".join(pieces[1:])


def format_upoly(coeffs: list, var: str = "x") -> str:
    return format_poly({_mono({var: k}): c for k, c in enumerate(coeffs)})


def format_sequence(entries: list[list]) -> str:
    return "; ".join(format_upoly(p) for p in entries) + "\n"


def format_delta_series(coeffs: list, var: str = "D") -> str:
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        vp = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        if k == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(vp)
        else:
            parts.append(f"{c}*{vp}")
    body = " + ".join(parts) if parts else "0"
    return f"{body} + O({var}^{len(coeffs)})\n"


def format_values(values: list) -> str:
    return ", ".join(str(v) for v in values) + "\n"


# ---------------------------------------------------------------------------
# Moment sequences named by the CLI's moment specs
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """``B_0..B_n`` with ``B_1 = -1/2``: ``sum_{k<=m} C(m+1,k) B_k = 0``."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return tuple(b)


def spec_moments(spec: str, n: int) -> list[Fraction]:
    """Moments ``m_0..m_n`` of a moment spec (list specs must be long enough)."""
    if spec == "uniform":
        return [Fraction(1, k + 1) for k in range(n + 1)]
    if spec == "eps":
        return [Fraction(1)] + [Fraction(0)] * n
    if spec == "bernoulli":
        return list(bernoulli_numbers(n))
    if spec.startswith("const:"):
        c = Fraction(spec[len("const:"):])
        return [c**k for k in range(n + 1)]
    if spec.startswith("list:[") and spec.endswith("]"):
        values = [Fraction(t) for t in spec[len("list:["):-1].split(",")]
        if len(values) < n:
            raise ValueError(f"{spec} has fewer than {n} moments")
        return [Fraction(1)] + values[:n]
    raise ValueError(f"no reference for moment spec {spec!r}")


# ---------------------------------------------------------------------------
# Univariate polynomial and truncated-series helpers
# ---------------------------------------------------------------------------


def convolve_moments(a: list, b: list) -> list:
    """Moments of the sum of two independent variables (binomial convolution)."""
    return [sum(comb(k, i) * a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def copy_sums(m: list, copies: int) -> list[list]:
    """Moments of the sums of 0, 1, ..., ``copies`` independent copies."""
    sums = [[Fraction(1)] + [Fraction(0)] * (len(m) - 1)]
    for _ in range(copies):
        sums.append(convolve_moments(sums[-1], m))
    return sums


def interpolate(values: list) -> list:
    """Coefficients of the polynomial of degree < len(values) with p(i) = values[i]."""
    n = len(values)
    diffs = list(values)
    newton = []
    for _ in range(n):
        newton.append(diffs[0])
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
    # sum_j newton[j] * C(x, j), expanded into monomials.
    coeffs = [Fraction(0)] * n
    falling = [Fraction(1)]
    for j, d in enumerate(newton):
        if j:
            falling = poly_mul(falling, [Fraction(-(j - 1)), Fraction(1)])
        for i, c in enumerate(falling):
            coeffs[i] += d * c / factorial(j)
    return coeffs


def poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def series_mul(a: list, b: list) -> list:
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def series_reciprocal(a: list) -> list:
    inv0 = 1 / Fraction(a[0])
    out = [inv0]
    for k in range(1, len(a)):
        out.append(-inv0 * sum(a[i] * out[k - i] for i in range(1, k + 1)))
    return out


def series_pow(a: list, e: int) -> list:
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(e):
        out = series_mul(out, a)
    return out


def lagrange_reversion(f: list) -> list:
    """Compositional inverse of ``f`` (``f_0 = 0``, ``f_1 != 0``) by Lagrange
    inversion: ``h_k = (1/k) [t^{k-1}] (t/f)^k``."""
    n = len(f) - 1
    t_over_f = series_reciprocal(f[1:] + [Fraction(0)])
    h = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        power = series_mul(power, t_over_f)
        h[k] = power[k - 1] / k
    return h


def cumulants(m: list) -> list:
    """``kappa_n = m_n - sum_{i<n} C(n-1,i-1) kappa_i m_{n-i}``; ``kappa_0 = 0``."""
    k = [Fraction(0)]
    for n in range(1, len(m)):
        k.append(m[n] - sum(comb(n - 1, i - 1) * k[i] * m[n - i] for i in range(1, n)))
    return k


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


def binomial_entries(m: list, n: int) -> list[list]:
    """``p_k(x) = E[(x.gamma)^k]``: at integer x it is the k-th moment of an
    x-fold sum, so p_k is interpolated from x = 0..n."""
    columns = copy_sums(m[: n + 1], n)
    return [interpolate([columns[x][k] for x in range(k + 1)]) for k in range(n + 1)]


def abel_entries(m: list, n: int) -> list[list]:
    """``p_k(x) = E[x (x + k.alpha)^{k-1}]`` with the moments of k.alpha by convolution."""
    entries = [[Fraction(1)]]
    columns = copy_sums(m[:n], n)
    for k in range(1, n + 1):
        mk = columns[k]  # entries below k depend only on m_0 .. m_{k-1}
        p = [Fraction(0)] * (k + 1)
        for i in range(k):
            p[k - i] = comb(k - 1, i) * mk[i]
        entries.append(p)
    return entries


def rising_entries(m: list, n: int) -> list[list]:
    """``p_k(x) = E[x (x+s_1) ... (x+s_{k-1})]`` for prefix sums ``s_j`` of
    independent increments, averaging one increment per step from the
    innermost factor outward.  Polynomials in (x, s) are dicts (a, b) -> c."""
    entries = [[Fraction(1)]]
    for k in range(1, n + 1):
        b = {(0, 0): Fraction(1)}
        for _ in range(k - 1):
            times = {}  # (x + t) * b(x, t)
            for (a, e), c in b.items():
                times[(a + 1, e)] = times.get((a + 1, e), 0) + c
                times[(a, e + 1)] = times.get((a, e + 1), 0) + c
            nxt = {}  # t -> s + mu, average over mu
            for (a, e), c in times.items():
                for i in range(e + 1):
                    v = c * comb(e, i) * m[i]
                    if v:
                        nxt[(a, e - i)] = nxt.get((a, e - i), 0) + v
            b = nxt
        p = [Fraction(0)] * (k + 1)
        for (a, e), c in b.items():
            if e == 0:
                p[a + 1] += c
            # terms with e > 0 vanish at s_0 = 0
        entries.append(p)
    return entries


def shift_entries(base: list[list], beta: list) -> list[list]:
    """Sheffer shift ``E[p(x + beta)]`` of each entry."""
    out = []
    for p in base:
        q = [Fraction(0)] * len(p)
        for k, c in enumerate(p):
            for i in range(k + 1):
                q[k - i] += c * comb(k, i) * beta[i]
        out.append(q)
    return out


def compose_entries(outer: list[list], inner: list[list]) -> list[list]:
    """Umbral composition: replace ``x^i`` in each outer entry by ``inner[i]``."""
    out = []
    for p in outer:
        q = [Fraction(0)] * len(p)
        for i, c in enumerate(p):
            for j, d in enumerate(inner[i]):
                q[j] += c * d
        out.append(q)
    return out


def appell_entries(m: list, n: int) -> list[list]:
    return [[comb(k, i) * m[i] for i in range(k, -1, -1)] for k in range(n + 1)]


def kseq_entries(m: list, n: int) -> list[dict]:
    """``K_k = sum_j [n^j] q_k(n) a_j`` with ``q_k`` interpolated from k-fold sums."""
    columns = copy_sums(m[: n + 1], n)
    out = []
    for k in range(n + 1):
        q = interpolate([columns[x][k] for x in range(k + 1)])
        out.append({(_mono({f"a_{j}": 1}) if j else ()): c for j, c in enumerate(q) if c})
    return out


def from_delta_entries(f: list, n: int) -> list[list]:
    """``p_k(x) = k! [z^k] exp(x h(z))`` with ``h`` the reversion of ``f``."""
    h = lagrange_reversion(f[: n + 1])
    entries = []
    powers = [series_pow(h, j) for j in range(n + 1)]
    for k in range(n + 1):
        entries.append([powers[j][k] * factorial(k) / factorial(j) for j in range(k + 1)])
    return entries


def named_series(spec: str, order: int) -> list[Fraction]:
    """Coefficients of the CLI's named series specs, written out directly."""
    if spec == "t":
        c = [0, 1]
    elif spec == "expm1":
        c = [0] + [Fraction(1, factorial(k)) for k in range(1, order + 1)]
    elif spec == "expm1neg":
        c = [0] + [Fraction((-1) ** (k + 1), factorial(k)) for k in range(1, order + 1)]
    elif spec == "log1p":
        c = [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)]
    elif spec == "t-t^2":
        c = [0, 1, -1]
    elif spec.startswith("coeffs:"):
        c = [Fraction(t) for t in spec[len("coeffs:"):].split(",")]
    else:
        raise ValueError(f"no reference for series spec {spec!r}")
    c = [Fraction(v) for v in c[: order + 1]]
    return c + [Fraction(0)] * (order + 1 - len(c))


def rising_delta(c: Fraction, n: int) -> list:
    """Delta series of the step-c rising factorial: ``(1 - e^{-cD})/c``."""
    return [Fraction(0)] + [Fraction((-1) ** (k + 1)) * c ** (k - 1) / factorial(k) for k in range(1, n + 1)]


@lru_cache(maxsize=None)
def stirling1(n: int, k: int) -> int:
    if n == k:
        return 1
    if k <= 0 or k > n:
        return 0
    return stirling1(n - 1, k - 1) - (n - 1) * stirling1(n - 1, k)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k <= 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def blissard_coefficients(m: int, n: int) -> list[Fraction]:
    """``[x^k] {x/log(1+x)}^m = (1/k!) sum_j s(k,j) S(m+j,m) / C(m+j,m)``."""
    return [
        sum(Fraction(stirling1(k, j) * stirling2(m + j, m), comb(m + j, m)) for j in range(k + 1)) / factorial(k)
        for k in range(n + 1)
    ]


def expand_umbral_product(factors: list[tuple[list[str], int]]) -> dict:
    """Expand a product of powers of sums of names into monomials over the names."""
    acc = {(): Fraction(1)}
    for names, power in factors:
        for _ in range(power):
            nxt = {}
            for mon, c in acc.items():
                for name in names:
                    exps = dict(mon)
                    exps[name] = exps.get(name, 0) + 1
                    key = tuple(sorted(exps.items()))
                    nxt[key] = nxt.get(key, 0) + c
            acc = nxt
    return acc


def evaluate_names(expanded: dict, moments: dict[str, list], scalars: set[str]) -> dict:
    """Replace each umbra's power by its moment; keep scalar variables formal."""
    out = {}
    for mon, c in expanded.items():
        value = Fraction(c)
        kept = {}
        for name, e in mon:
            if name in scalars:
                kept[name] = e
            else:
                value *= moments[name][e]
        if value:
            key = _mono(kept)
            out[key] = out.get(key, 0) + value
    return out
