"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

import reference as ref
import run
import workloads
from tracing import Tracer

umbral = run.load_umbral()


def _outcomes(job_list):
    return [run.run_job(umbral.cli, job.argv)[1] for job in job_list]


def test_same_seed_gives_identical_job_list():
    for workload in workloads.WORKLOADS:
        assert workloads.jobs(workload, 5, 3) == workloads.jobs(workload, 5, 3)
        assert workloads.jobs(workload, 5, 3) != workloads.jobs(workload, 6, 3)


def test_blocks_keep_their_job_mix_across_seeds():
    for workload in workloads.WORKLOADS:
        mixes = {tuple(sorted(j.kind for j in workloads.block(workload, seed, b))) for seed in range(3) for b in range(3)}
        assert len(mixes) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_block_meets_its_references(workload):
    job_list = workloads.block(workload, 0, 0)
    for job, outcome in zip(job_list, _outcomes(job_list)):
        if job.malformed is None:
            assert workloads.failure_class(job, outcome) is None, job.argv


def test_two_traced_runs_of_one_seed_give_identical_counts():
    job_list = workloads.block("clone-evaluation", 3, 0)[:8] + workloads.block("dot-sequences", 3, 0)[:2]
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            _outcomes(job_list)
        counts.append((tracer.calls, tracer.calls_in_dot, tracer.moment_computes))
    assert counts[0] == counts[1]
    assert counts[0][0]["poly.Poly.__mul__"] > 0


def test_tracer_restores_the_package_and_keeps_stdout():
    originals = (umbral.cli.main, umbral.Poly.__mul__, umbral.sequences.dot_scalar, umbral.cli._SEQ_BUILDERS["rising"])
    job_list = workloads.block("clone-evaluation", 1, 0)
    plain = _outcomes(job_list)
    with Tracer() as tracer:
        traced = _outcomes(job_list)
    assert traced == plain
    assert tracer.spans and all(parent < sid for sid, parent, *_ in tracer.spans)
    assert originals == (umbral.cli.main, umbral.Poly.__mul__, umbral.sequences.dot_scalar, umbral.cli._SEQ_BUILDERS["rising"])


def test_checker_rejects_corrupted_output():
    job = workloads.Job(("binomial", "list:[2,3,-1,5]", "4"))
    (outcome,) = _outcomes([job])
    assert workloads.failure_class(job, outcome) is None
    corrupt = outcome.stdout.replace("6", "7", 1)
    assert corrupt != outcome.stdout
    assert workloads.failure_class(job, dataclasses.replace(outcome, stdout=corrupt)) == "wrong-output"
    assert workloads.failure_class(job, dataclasses.replace(outcome, code=1)) == "exit-nonzero"
    assert workloads.failure_class(job, dataclasses.replace(outcome, raised="ValueError")) == "traceback"


def test_checker_applies_the_cli_error_contract():
    clean = workloads.Job(("moments", "nosuch", "3"), malformed="unknown-spec")
    silent = workloads.Job(("bernoulli", "-1"), malformed="negative-size")
    crash = workloads.Job(("eval", "1/0"), malformed="zero-denominator")
    usage = workloads.Job(("bernoulli", "abc"), malformed="usage")
    results = [workloads.failure_class(j, o) for j, o in zip((clean, silent, crash, usage), _outcomes((clean, silent, crash, usage)))]
    assert results[0] is None and results[3] is None
    assert results[1] in (None, "exit-zero")
    assert results[2] in (None, "traceback")


def test_references_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    # sympy >= 1.12 uses B_1 = +1/2; the CLI and the reference use -1/2.
    bern = [Fraction(str(sympy.bernoulli(k))) for k in range(12)]
    bern[1] = -bern[1]
    assert list(ref.bernoulli_numbers(11)) == bern
    assert all(
        ref.stirling1(n, k) == sympy.functions.combinatorial.numbers.stirling(n, k, kind=1, signed=True)
        and ref.stirling2(n, k) == sympy.functions.combinatorial.numbers.stirling(n, k, kind=2)
        for n in range(9)
        for k in range(n + 1)
    )
    t = sympy.symbols("t")
    f = [Fraction(0), Fraction(2), Fraction(1, 3), Fraction(-1), Fraction(5)]
    h = ref.lagrange_reversion(f)
    fs = sum(sympy.Rational(str(c)) * t**k for k, c in enumerate(f))
    hs = sum(sympy.Rational(str(c)) * t**k for k, c in enumerate(h))
    assert sympy.series(fs.subs(t, hs), t, 0, len(f)).removeO() == t
