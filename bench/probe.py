"""Shape probe: the roadmap's baseline rows, each timed once at two sizes.

The slope ``log(t2/t1) / log(s2/s1)`` reads the growth shape from the two
sizes (about 4 for an O(N^4) row; a slope that itself grows with size
points to exponential cost).  The probe is reported, never gated on.
"""

from __future__ import annotations

import math
import time

ROWS = {
    "comp_inverse": (20, 30),
    "exp": (20, 30),
    "log": (20, 30),
    "rising": (10, 12),
    "binomial": (12, 16),
}


def _work(umbral, row: str, size: int):
    if row == "comp_inverse":
        return lambda: umbral.expm1_series(size).comp_inverse()
    if row == "exp":
        return lambda: umbral.log1p_series(size).exp()
    if row == "log":
        return lambda: (umbral.expm1_series(size) + 1).log()
    ab = umbral.Alphabet()
    if row == "rising":
        g = ab.register("g", umbral.MomentSeq.constant(1))
        return lambda: umbral.rising_factorial_sequence(ab, g, size)
    g = ab.register("g", umbral.MomentSeq.uniform())
    return lambda: umbral.binomial_from_umbra(ab, g, size)


def run_probe(umbral) -> dict[str, float]:
    """Metric name -> value: ``probe.<row>_<size>_s`` and ``probe.<row>_slope``."""
    out: dict[str, float] = {}
    for row, sizes in ROWS.items():
        times = []
        for size in sizes:
            work = _work(umbral, row, size)
            start = time.perf_counter()
            work()
            times.append(time.perf_counter() - start)
            out[f"probe.{row}_{size}_s"] = times[-1]
        out[f"probe.{row}_slope"] = math.log(times[1] / times[0]) / math.log(sizes[1] / sizes[0])
    return out
