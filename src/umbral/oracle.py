"""Brute-force combinatorial ground truth.

Stirling numbers by iterating the rows of their triangles, iterated
forward differences of powers by the alternating sum, and colored-forest
counts by explicit enumeration of parent functions.  Nothing here touches
the series machinery: these are the independent oracles the algebraic
routes are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

#: Hard cap on forest enumeration size; beyond this we refuse, never truncate.
FOREST_SCALE_LIMIT = 8


def _triangle(name: str, n: int, k: int, weight) -> int:
    """Entry (n, k) of the triangle ``t(m+1, j) = t(m, j-1) + weight(m, j) t(m, j)``,
    ``t(0, 0) = 1``, by iterating its rows up to column k."""
    if k < 0 or k > n:
        raise ValueError(f"{name} out of range: ({n}, {k})")
    row = [1] + [0] * k
    for m in range(n):
        for j in range(k, 0, -1):
            row[j] = row[j - 1] + weight(m, j) * row[j]
        row[0] = 0
    return row[k]


def stirling2(n: int, k: int) -> int:
    """Set partitions of an n-set into k blocks: S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    return _triangle("stirling2", n, k, lambda m, j: j)


def stirling1(n: int, k: int) -> int:
    """Signed Stirling numbers of the first kind: coefficients of the
    falling factorial, x(x-1)...(x-n+1) = sum_k s(n,k) x^k."""
    return _triangle("stirling1", n, k, lambda m, j: -m)


def forward_difference_power(m: int, n: int) -> int:
    """The m-fold forward difference of t^(m+n) at t = 0, by the direct
    alternating sum; equals m! S(m+n, m)."""
    if m < 0 or n < 0:
        raise ValueError("arguments must be non-negative")
    total = 0
    for j in range(m + 1):
        power = j ** (m + n) if (j or m + n) else 1  # 0^0 = 1
        total += (-1) ** (m - j) * comb(m, j) * power
    return total


@dataclass(frozen=True)
class ForestSpec:
    """Parameters for a colored-forest count.

    ``n`` labeled vertices; each tree gets one of ``x`` colors; a vertex of
    outdegree j gets one of ``outdegree_colors[j]`` colors (zero colors if
    the list is shorter).
    """

    n: int
    x: int
    outdegree_colors: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or self.x < 0 or any(c < 0 for c in self.outdegree_colors):
            raise ValueError("forest parameters must be non-negative")
        object.__setattr__(self, "outdegree_colors", tuple(self.outdegree_colors))


@lru_cache(maxsize=None)
def _forest_profiles(n: int, increasing: bool) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """All rooted forests on n labeled vertices, folded down to
    (roots, sorted outdegrees, count) profiles.

    Forests are enumerated as parent functions (0 = root); the increasing
    variant restricts to parent < child, where acyclicity is automatic.
    """
    profiles: dict[tuple[int, tuple[int, ...]], int] = {}
    if n == 0:
        return ((0, (), 1),)

    parent = [0] * (n + 1)  # 1-indexed

    def acyclic() -> bool:
        for v in range(1, n + 1):
            seen = 0
            w = v
            while w != 0:
                w = parent[w]
                seen += 1
                if seen > n:
                    return False
        return True

    def record() -> None:
        outdeg = [0] * (n + 1)
        roots = 0
        for v in range(1, n + 1):
            if parent[v] == 0:
                roots += 1
            else:
                outdeg[parent[v]] += 1
        key = (roots, tuple(sorted(outdeg[1:])))
        profiles[key] = profiles.get(key, 0) + 1

    def walk(v: int) -> None:
        if v > n:
            if increasing or acyclic():
                record()
            return
        choices = range(v) if increasing else range(n + 1)
        for p in choices:
            if p == v:
                continue
            parent[v] = p
            walk(v + 1)

    walk(1)
    return tuple((r, d, c) for (r, d), c in sorted(profiles.items()))


def _count(spec: ForestSpec, increasing: bool) -> int:
    if spec.n > FOREST_SCALE_LIMIT:
        raise ValueError(
            f"forest enumeration is capped at {FOREST_SCALE_LIMIT} vertices"
        )
    colors = spec.outdegree_colors
    total = 0
    for roots, outdegs, count in _forest_profiles(spec.n, increasing):
        weight = spec.x**roots
        for d in outdegs:
            weight *= colors[d] if d < len(colors) else 0
        total += count * weight
    return total


def count_colored_forests(spec: ForestSpec) -> int:
    """Planted forests on n labeled vertices, weighted by tree and
    outdegree colors, by explicit enumeration."""
    return _count(spec, increasing=False)


def count_increasing_colored_forests(spec: ForestSpec) -> int:
    """As above, restricted to forests where every parent label is smaller
    than its children's labels."""
    return _count(spec, increasing=True)
