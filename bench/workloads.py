"""Seeded job mixes for the three workloads, and the check of each job.

A job is the argv of one ``umbral`` invocation.  Jobs come in blocks: every
block of a workload holds the same slots (subcommand and size) in a seeded
order, with seeded parameters, so the cost of a block varies little from
seed to seed while no two blocks share inputs (except in
``clone-evaluation``, whose inputs are drawn from a small fixed set on
purpose).  Block ``b`` of seed ``s`` depends only on ``(workload, s, b)``.

Why these workloads:

* ``dot-sequences`` spends most of its time in the dot coefficient
  polynomials (exp of n times log of an EGF with polynomial
  coefficients); every job has fresh moments, so nothing is shared.
* ``series-inversion`` spends most of its time in ``comp_inverse`` and
  ``compose`` over rational coefficients and almost none in the dot.
* ``clone-evaluation`` spends most of its time in umbral-polynomial
  products and evaluation over clones, none in series or the dot; its
  jobs are short, so the fixed per-job CLI cost shows most.  A seeded
  share of malformed jobs checks the CLI error contract.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import reference as ref

WORKLOADS = ("dot-sequences", "series-inversion", "clone-evaluation")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    #: For malformed input, the defect class the input probes; None for valid jobs.
    malformed: str | None = None

    @property
    def kind(self) -> str:
        return "malformed" if self.malformed else self.argv[0]


# ---------------------------------------------------------------------------
# Parameter draws
# ---------------------------------------------------------------------------


def _frac(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        v = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
        if v or not nonzero:
            return v


def _list_spec(rng: random.Random, length: int) -> str:
    values = [_frac(rng, nonzero=True)] + [_frac(rng) for _ in range(length - 1)]
    return "list:[" + ",".join(str(v) for v in values) + "]"


def _coeffs_spec(rng: random.Random) -> str:
    values = [Fraction(0)] + [_frac(rng, nonzero=True) for _ in range(5)]
    return "coeffs:" + ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# Blocks: the jobs of one block of each workload, before shuffling
# ---------------------------------------------------------------------------


def _dot_sequences_block(rng: random.Random) -> list[Job]:
    jobs = []
    for n in (8, 10, 12):
        jobs.append(Job(("binomial", _list_spec(rng, n), str(n))))
        jobs.append(Job(("ksequence", _list_spec(rng, n), str(n))))
    for n in (8, 10):
        jobs.append(Job(("abel", _list_spec(rng, n), str(n))))
        jobs.append(Job(("sheffer", "binomial", _list_spec(rng, n), _list_spec(rng, n), str(n))))
        jobs.append(Job(("delta-of", "binomial", _list_spec(rng, n), str(n))))
    for n in (6, 8):
        jobs.append(Job(("compose", _list_spec(rng, n), _list_spec(rng, n), str(n))))
    return jobs


#: (named delta series, truncation order).  The first three cost the same
#: (~0.3 s) and are a fifth of the block, its heaviest jobs, so p90 lies
#: inside that cluster rather than on its edge; the rest cost 0.1-0.2 s.
_NAMED_DELTAS = (
    ("expm1neg", 16), ("log1p", 16), ("expm1neg", 16),
    ("expm1", 12), ("expm1neg", 13), ("log1p", 14), ("t-t^2", 18), ("t-t^2", 20),
)


def _series_inversion_block(rng: random.Random) -> list[Job]:
    jobs = [Job(("from-delta", spec, str(rng.randint(4, 6)), "-N", str(order))) for spec, order in _NAMED_DELTAS]
    for order in (14, 16, 18):
        jobs.append(Job(("from-delta", _coeffs_spec(rng), str(rng.randint(4, 6)), "-N", str(order))))
    for n in (7, 8):
        jobs.append(Job(("delta-of", "rising", f"const:{_frac(rng, nonzero=True)}", str(n))))
    jobs.append(Job(("blissard", "1", str(rng.randint(10, 18)))))
    return jobs


_CLONE_SPECS = ("const:1", "const:2", "const:1/2", "const:-1", "uniform", "bernoulli")
_EVALS = (
    "(x+uniform+bernoulli)^8",
    "(x+uniform+bernoulli+one)^7",
    "(uniform+bernoulli)^5*(x+bernoulli)^4",
    "(x+y+uniform)^6*(bernoulli+one)^3",
    "(x+uniform+eps+bernoulli)^7",
)


def _malformed(rng: random.Random) -> Job:
    """Inputs the CLI contract says must fail cleanly (exit 1 or 2, an
    ``error:`` line on stderr, no traceback)."""
    p = rng.randint(1, 9)
    n = rng.randint(1, 5)
    choices = (
        ("zero-denominator", ("moments", f"const:{p}/0", str(n))),
        ("zero-denominator", ("eval", f"{p}/0")),
        ("negative-size", ("bernoulli", f"-{n}")),
        ("negative-size", ("binomial", "uniform", f"-{n}")),
        ("unknown-spec", ("moments", f"nosuch{p}", str(n))),
        ("unknown-spec", ("eval", f"(uniform+nosuch{p})^2")),
    )
    cls, argv = rng.choice(choices)
    return Job(argv, malformed=cls)


def _clone_evaluation_block(rng: random.Random) -> list[Job]:
    # The cost of ``rising`` hardly depends on the spec.  Four n=9 jobs, a
    # fifth of the block, are its heaviest, so p90 lies inside that cluster
    # rather than on its edge.
    jobs = [Job(("rising", spec, "9")) for spec in rng.sample(_CLONE_SPECS, 4)]
    jobs += [Job(("rising", rng.choice(_CLONE_SPECS), "7")) for _ in range(2)]
    jobs += [Job(("eval", expr)) for expr in _EVALS]
    jobs += [Job(("blissard", "2", "7")), Job(("blissard", "3", "7"))]
    jobs += [Job(("sheffer", "rising", "const:1", "bernoulli", "7")), Job(("sheffer", "rising", "uniform", "uniform", "6"))]
    jobs.append(Job(("bernoulli", str(rng.randint(25, 35)))))
    jobs.append(Job(("moments", rng.choice(_CLONE_SPECS + ("eps",)), str(rng.randint(12, 20)))))
    jobs.append(Job(("appell", rng.choice(_CLONE_SPECS + ("eps",)), str(rng.randint(8, 12)))))
    jobs += [_malformed(rng), _malformed(rng)]
    return jobs


_BLOCKS = {
    "dot-sequences": _dot_sequences_block,
    "series-inversion": _series_inversion_block,
    "clone-evaluation": _clone_evaluation_block,
}


def block(workload: str, seed: int, index: int) -> list[Job]:
    """Block ``index`` of the workload's job stream for ``seed``."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    jobs = _BLOCKS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def jobs(workload: str, seed: int, blocks: int) -> list[Job]:
    return [job for b in range(blocks) for job in block(workload, seed, b)]


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def expected_stdout(argv: tuple[str, ...]) -> str:
    """Reference stdout for a valid job, computed without umbral."""
    cmd, args = argv[0], argv[1:]
    if cmd in ("binomial", "abel", "ksequence", "appell", "rising"):
        spec, n = args[0], int(args[1])
        m = ref.spec_moments(spec, n)
        if cmd == "ksequence":
            return "; ".join(ref.format_poly(k) for k in ref.kseq_entries(m, n)) + "\n"
        build = {
            "binomial": ref.binomial_entries,
            "abel": ref.abel_entries,
            "appell": ref.appell_entries,
            "rising": ref.rising_entries,
        }[cmd]
        return ref.format_sequence(build(m, n))
    if cmd == "sheffer":
        kind, base_spec, beta_spec, n = args[0], args[1], args[2], int(args[3])
        build = ref.binomial_entries if kind == "binomial" else ref.rising_entries
        base = build(ref.spec_moments(base_spec, n), n)
        return ref.format_sequence(ref.shift_entries(base, ref.spec_moments(beta_spec, n)))
    if cmd == "compose":
        n = int(args[2])
        outer = ref.binomial_entries(ref.spec_moments(args[0], n), n)
        inner = ref.binomial_entries(ref.spec_moments(args[1], n), n)
        return ref.format_sequence(ref.compose_entries(outer, inner))
    if cmd == "delta-of":
        kind, spec, n = args[0], args[1], int(args[2])
        if kind == "rising":
            return ref.format_delta_series(ref.rising_delta(Fraction(spec[len("const:"):]), n))
        kappa = ref.cumulants(ref.spec_moments(spec, n))
        h = [k / factorial(i) for i, k in enumerate(kappa)]
        return ref.format_delta_series(ref.lagrange_reversion(h))
    if cmd == "from-delta":
        spec, n, order = args[0], int(args[1]), int(args[3])
        f = ref.named_series(spec, max(n, order))
        return ref.format_sequence(ref.from_delta_entries(f, n))
    if cmd == "blissard":
        m, n = int(args[0]), int(args[1])
        lines = [f"P_{k} = {c}" for k, c in enumerate(ref.blissard_coefficients(m, n))]
        return "\n".join(lines + ["3/3 methods agree"]) + "\n"
    if cmd == "bernoulli":
        return ref.format_values(ref.bernoulli_numbers(int(args[0])))
    if cmd == "moments":
        return ref.format_values(ref.spec_moments(args[0], int(args[1])))
    if cmd == "eval":
        factors = [
            (part[1:].split(")^")[0].split("+"), int(part.split(")^")[1]))
            for part in args[0].split("*")
        ]
        names = {name for names, _ in factors for name in names}
        degree = sum(p for _, p in factors)
        moments = {
            name: ref.spec_moments({"one": "const:1"}.get(name, name), degree)
            for name in names - {"x", "y"}
        }
        expanded = ref.expand_umbral_product(factors)
        return ref.format_poly(ref.evaluate_names(expanded, moments, {"x", "y"})) + "\n"
    raise ValueError(f"no reference for job {argv!r}")


@dataclass(frozen=True)
class Outcome:
    """What one invocation left behind."""

    code: int | None
    stdout: str
    stderr: str
    #: Name of the exception that escaped ``main``, if any (the CLI would
    #: have printed a traceback for it).
    raised: str | None = None


FAILURE_CLASSES = ("traceback", "exit-zero", "exit-nonzero", "wrong-output", "bad-exit-code", "no-error-line")


def failure_class(job: Job, outcome: Outcome) -> str | None:
    """None when the job met its reference; otherwise the failure class.

    A valid job must exit 0 with stdout equal to its reference.  A
    malformed job must exit 1 or 2 with an ``error:`` line on stderr and
    no traceback.
    """
    if outcome.raised or "Traceback" in outcome.stderr:
        return "traceback"
    if job.malformed is None:
        if outcome.code != 0:
            return "exit-nonzero"
        if outcome.stdout != expected_stdout(job.argv):
            return "wrong-output"
        return None
    if outcome.code == 0:
        return "exit-zero"
    if outcome.code not in (1, 2):
        return "bad-exit-code"
    if not any(line.startswith("error:") or ": error:" in line for line in outcome.stderr.splitlines()):
        return "no-error-line"
    return None
