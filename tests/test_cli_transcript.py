"""Replay a recorded CLI transcript byte for byte.

``cli_transcript.json`` holds seeded presentation jobs (binomial, Abel,
rising, Appell, Sheffer, delta-of, from-delta and compose over ``generic:``,
``list:`` and ``const:`` specs, with and without ``--json``) together with
their exact stdout and exit code.  Regenerate it only when an output change
is intended: ``PYTHONPATH=src python tests/test_cli_transcript.py``.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from umbral.cli import main

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")
SEED = 20261018


def _rational(rng: random.Random) -> str:
    num, den = rng.randint(-4, 4), rng.randint(1, 3)
    return str(num) if den == 1 else f"{num}/{den}"


def _moment_spec(rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return f"generic:{rng.choice('ab')}"
    if kind == 1:
        return f"const:{_rational(rng)}"
    return "list:[" + ",".join(_rational(rng) for _ in range(rng.randint(2, 6))) + "]"


def _series_spec(rng: random.Random) -> str:
    if rng.random() < 0.4:
        return rng.choice(["t", "expm1", "expm1neg", "log1p", "t-t^2"])
    return "coeffs:0," + ",".join(_rational(rng) for _ in range(rng.randint(1, 6)))


def cases() -> list[list[str]]:
    """The seeded argument lists, distinct, every other one also with ``--json``."""
    rng = random.Random(SEED)
    argvs = []
    for _ in range(30):
        for kind in ("binomial", "abel", "rising", "appell"):
            argvs.append([kind, _moment_spec(rng), str(rng.randint(0, 6))])
    for _ in range(24):
        base = rng.choice(["binomial", "abel", "rising"])
        argvs.append(["sheffer", base, _moment_spec(rng), _moment_spec(rng), str(rng.randint(0, 6))])
        argvs.append(["delta-of", base, _moment_spec(rng), str(rng.randint(0, 6))])
        argvs.append(["compose", _moment_spec(rng), _moment_spec(rng), str(rng.randint(0, 5))])
        n = rng.randint(0, 6)
        order = ["-N", str(rng.randint(n, 8))] if rng.random() < 0.5 else []
        argvs.append(["from-delta", _series_spec(rng), str(n), *order])
    distinct = list(dict.fromkeys(map(tuple, argvs)))
    return [[*argv, *extra] for i, argv in enumerate(distinct) for extra in ([], ["--json"])[: 1 + i % 2]]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


def test_cli_output_matches_the_transcript():
    recorded = json.loads(TRANSCRIPT.read_text())
    assert [entry["argv"] for entry in recorded] == cases()
    for entry in recorded:
        assert run(entry["argv"]) == entry, entry["argv"]


if __name__ == "__main__":
    records = (json.dumps(run(argv)) for argv in cases())
    TRANSCRIPT.write_text("[\n" + ",\n".join(records) + "\n]\n")
