"""End-to-end and per-layer benchmark of the umbral CLI.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload dot-sequences --seed 1 --seconds 20 --trace 0

The benchmark drives ``umbral.cli.main(argv)`` in this process as a closed
loop with one client: the next job is sent only after the previous one
returns.  Jobs come from ``workloads.py`` and depend only on the workload
and seed; umbral sees nothing but their argv.  Every job's stdout, stderr
and exit code are captured and checked against references computed
without umbral (``reference.py``), outside the timed region.

``--trace 0`` reports the end-to-end metrics: jobs per second, median and
90th-percentile job latency, peak RSS, and set-up time (median of several
cold starts of a fresh interpreter up to the point where the first job
could be sent).  ``--trace 1`` runs a fixed job list twice, untraced and
then traced with spans around every layer (``tracing.py``), and reports
per-layer counts and times, the tracing overhead, and the shape probe
(``probe.py``); spans are written to ``bench/out/``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a summary goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import workloads
from probe import run_probe
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: A run takes at least this many jobs, so at least ten lie beyond p90.
MIN_JOBS = 100
COLD_STARTS = 15
#: Jobs re-run after the timed loop to check that stdout is deterministic.
REPEAT_JOBS = 5
#: Blocks in the fixed job list of a traced run (about ten seconds untraced).
TRACE_BLOCKS = {"dot-sequences": 6, "series-inversion": 6, "clone-evaluation": 25}
#: End-to-end times are scaled to a machine on which :func:`calibrate` takes
#: this long.  On a shared host the CPU speed swings by up to 2x within
#: seconds, and the calibration slows down with umbral's jobs, so a job's
#: wall time times CALIBRATION_S over the calibration time measured just
#: before and after it varies a few percent where the raw time varies 20%.
CALIBRATION_S = 0.002


def calibrate() -> float:
    """Wall time of a fixed pure-Python Fraction workload that never touches umbral."""
    start = time.perf_counter()
    b = [Fraction(1)]
    for m in range(1, 32):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return time.perf_counter() - start


def load_umbral():
    """Import umbral from this checkout's sources, never from elsewhere."""
    if not (SRC / "umbral" / "cli.py").is_file():
        sys.exit(f"error: no umbral sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import umbral
    import umbral.cli

    if Path(umbral.__file__).resolve().parent != SRC / "umbral":
        sys.exit(f"error: imported umbral from {umbral.__file__}, not from {SRC}")
    return umbral


def run_job(cli, argv) -> tuple[float, workloads.Outcome]:
    """One closed-loop job: wall time and what it left behind."""
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # an escaping exception is a traceback for a CLI user
            raised = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, workloads.Outcome(code, out.getvalue(), err.getvalue(), raised)


def cold_start(cmd: list[str]) -> float:
    """Time from starting a fresh interpreter until it reports the first job ready."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line != "ready\n":
            sys.exit("error: cold start failed")
    return ready - start


def classify(records) -> tuple[Counter, Counter]:
    """Failures of valid jobs and contract violations of malformed jobs, by
    class; the first job of each class is printed to stderr."""
    failures, violations = Counter(), Counter()
    for job, _, outcome in records:
        cls = workloads.failure_class(job, outcome)
        if cls:
            counter = violations if job.malformed else failures
            if not counter[cls]:
                print(f"  first {cls}: {' '.join(job.argv)} -> {outcome.raised or outcome.code}", file=sys.stderr)
            counter[cls] += 1
    return failures, violations


def report(workload, seed, records, failures, violations) -> None:
    kinds = Counter(job.kind for job, _, _ in records)
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}", file=sys.stderr)
    print(f"{workload} seed {seed}: {len(records)} jobs {dict(kinds)}", file=sys.stderr)
    print(f"  failures of valid jobs by class: {dict(failures)}", file=sys.stderr)
    print(f"  malformed-input contract violations by class: {dict(violations)}", file=sys.stderr)


def end_to_end(umbral, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH / "coldstart.py"), str(SRC), workload, str(seed)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)  # writes bytecode caches
    # Cold starts are spread over the run, between blocks, so that their
    # median covers the same swings of host speed as the jobs do.  They are
    # not scaled: a cold start is mostly process creation and file reads,
    # which the calibration does not track.
    setups = []
    records = []  # (job, scaled latency, outcome)
    busy = 0.0  # unscaled wall time inside jobs
    calibrations = [calibrate()]
    blocks = (workloads.block(workload, seed, index) for index in itertools.count())
    while busy < seconds or len(records) < MIN_JOBS:
        if len(setups) < COLD_STARTS and busy >= len(setups) * seconds / COLD_STARTS:
            setups.append(cold_start(cmd))
        for job in next(blocks):
            latency, outcome = run_job(umbral.cli, job.argv)
            calibrations.append(calibrate())
            # The job's wall time at the calibration's reference speed.
            records.append((job, latency * 2 * CALIBRATION_S / sum(calibrations[-2:]), outcome))
            busy += latency
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < COLD_STARTS:
        setups.append(cold_start(cmd))

    failures, violations = classify(records)
    for job, _, first in records[:REPEAT_JOBS]:
        again = run_job(umbral.cli, job.argv)[1]
        if (again.code, again.stdout) != (first.code, first.stdout):
            failures["nondeterministic"] += 1
    report(workload, seed, records, failures, violations)
    latencies_ms = [latency * 1000 for _, latency, _ in records]
    print(
        f"  unscaled: {len(records) / busy:.2f} jobs/s; calibration median "
        f"{statistics.median(calibrations) * 1000:.3f} ms (reference {CALIBRATION_S * 1000} ms)",
        file=sys.stderr,
    )
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": {
            "jobs_per_s": (len(records) / (sum(latencies_ms) / 1000), "1/s"),
            "job_p50_ms": (statistics.median(latencies_ms), "ms"),
            "job_p90_ms": (statistics.quantiles(latencies_ms, n=10)[8], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        },
    }


def per_layer(umbral, workload: str, seed: int) -> dict:
    probe = run_probe(umbral)
    job_list = workloads.jobs(workload, seed, TRACE_BLOCKS[workload])
    start = time.perf_counter()
    plain = [run_job(umbral.cli, job.argv)[1] for job in job_list]
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    records = []
    with tracer:
        start = time.perf_counter()
        for i, job in enumerate(job_list):
            tracer.job = i
            latency, outcome = run_job(umbral.cli, job.argv)
            records.append((job, latency, outcome))
        traced_s = time.perf_counter() - start

    failures, violations = classify(records)
    for (job, _, traced), untraced in zip(records, plain):
        if (traced.code, traced.stdout) != (untraced.code, untraced.stdout):
            failures["tracing-changed-output"] += 1
    report(workload, seed, records, failures, violations)
    tracer.write_spans(BENCH / "out" / f"trace-{workload}-{seed}.tsv")

    t = tracer
    errors = failures + violations
    moment_calls = t.calls_of("core.MomentSeq.moment")
    metrics = {
        "trace.job_s": (t.inclusive_s["cli"], "s"),
        "trace.overhead": (traced_s / untraced_s, "ratio"),
        "cli.self_s": (t.layer_self_s("cli"), "s"),
        "cli.error_ratio": (sum(errors.values()) / len(records), "ratio"),
        **{f"cli.errors.{cls}": (errors[cls], "count") for cls in workloads.FAILURE_CLASSES},
        "poly.mul_calls": (t.calls_of("poly.Poly.__mul__"), "count"),
        "poly.add_calls": (t.calls_of("poly.Poly.__add__"), "count"),
        "poly.substitute_calls": (t.calls_of("poly.Poly.substitute"), "count"),
        "poly.self_s": (t.layer_self_s("poly"), "s"),
        "series.mul_calls": (t.calls_of("series.Series.__mul__"), "count"),
        "series.compose_calls": (t.calls_of("series.Series.compose"), "count"),
        "series.comp_inverse_calls": (t.calls_of("series.Series.comp_inverse"), "count"),
        "series.reciprocal_calls": (t.calls_of("series.Series.reciprocal"), "count"),
        "series.exp_calls": (t.calls_in_dot["series.Series.exp"], "count"),
        "series.log_calls": (t.calls_in_dot["series.Series.log"], "count"),
        "series.comp_inverse_s": (t.inclusive_s["series.comp_inverse"], "s"),
        "series.s": (t.inclusive_s["series"], "s"),
        "series.self_s": (t.layer_self_s("series"), "s"),
        "core.umbral_mul_calls": (t.calls_of("core.UmbralPoly.__mul__"), "count"),
        "core.evaluate_calls": (t.calls_of("core.Alphabet.evaluate"), "count"),
        "core.evaluate_partial_calls": (t.calls_of("core.Alphabet.evaluate_partial"), "count"),
        "core.clone_calls": (t.calls_of("core.Alphabet.clone"), "count"),
        "core.moment_calls": (moment_calls, "count"),
        "core.moment_computes": (t.moment_computes, "count"),
        "core.moment_hit_ratio": ((moment_calls - t.moment_computes) / max(moment_calls, 1), "ratio"),
        "core.products_eval_s": (t.inclusive_s["core.products_eval"], "s"),
        "core.s": (t.inclusive_s["core"], "s"),
        "core.self_s": (t.layer_self_s("core"), "s"),
        "dot.s": (t.inclusive_s["dot"], "s"),
        "dot.self_s": (t.layer_self_s("dot"), "s"),
        "sequences.validate_calls": (t.calls_of("sequences.first_binomial_failure"), "count"),
        "sequences.validate_s": (t.inclusive_s["sequences.validate"], "s"),
        "sequences.s": (t.inclusive_s["sequences"], "s"),
        "sequences.self_s": (t.layer_self_s("sequences"), "s"),
        "multiplicative.s": (t.inclusive_s["multiplicative"], "s"),
        "oracle.calls": (sum(n for name, n in t.calls.items() if name.startswith("oracle.")), "count"),
        "oracle.s": (t.inclusive_s["oracle"], "s"),
    }
    metrics.update({name: (value, "s" if name.endswith("_s") else "ratio") for name, value in probe.items()})
    job_s = t.inclusive_s["cli"]
    shares = {g: round(t.inclusive_s[g] / job_s, 3) for g in t.inclusive_s}
    print(f"  share of traced job time: {shares}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    umbral = load_umbral()
    if args.trace:
        result = per_layer(umbral, args.workload, args.seed)
    else:
        result = end_to_end(umbral, args.workload, args.seed, args.seconds)
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
