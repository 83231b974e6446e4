import gc
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import factorial

import hypothesis.strategies as st
from hypothesis import given, settings

from umbral import MomentSeq, Poly
from umbral.cli import main


def run_cli_captured(*args):
    """Run the CLI in-process: (exit code, stdout, stderr), usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_cli(*args):
    """Run the CLI in-process, capturing stdout."""
    code, out, _ = run_cli_captured(*args)
    return code, out


def run_cli_subprocess(*args):
    return subprocess.run(
        [sys.executable, "-m", "umbral.cli", *args],
        capture_output=True,
        text=True,
    )


def test_bernoulli_output():
    code, out = run_cli("bernoulli", "6")
    assert code == 0
    assert out == "1, -1/2, 1/6, 0, -1/30, 0, 1/42\n"


def test_rising_output():
    code, out = run_cli("rising", "const:1", "4")
    assert code == 0
    assert out == "1; x; x^2+x; x^3+3*x^2+2*x; x^4+6*x^3+11*x^2+6*x\n"


def test_blissard_output():
    code, out = run_cli("blissard", "1", "3")
    assert code == 0
    assert out.splitlines() == [
        "P_0 = 1",
        "P_1 = 1/2",
        "P_2 = -1/12",
        "P_3 = 1/24",
        "3/3 methods agree",
    ]


def test_moments_and_eval():
    code, out = run_cli("moments", "const:2", "3")
    assert (code, out) == (0, "1, 2, 4, 8\n")
    code, out = run_cli("eval", "(2.uniform)^2")
    assert (code, out) == (0, "7/6\n")
    code, out = run_cli("eval", "--let", "a=generic:a", "(x.a)^2")
    assert (code, out) == (0, "a_1^2*x^2-a_1^2*x+a_2*x\n")
    code, out = run_cli("eval", "uniform^2 + 1/3")
    assert (code, out) == (0, "2/3\n")
    code, out = run_cli("eval", "bernoulli + uniform")
    assert (code, out) == (0, "0\n")


def test_eval_unknown_name_fails():
    result = run_cli_subprocess("eval", "mystery^2")
    assert result.returncode == 1
    assert "mystery" in result.stderr


def test_binomial_appell_abel():
    code, out = run_cli("binomial", "const:1", "3")
    assert (code, out) == (0, "1; x; x^2; x^3\n")
    code, out = run_cli("appell", "bernoulli", "2")
    assert (code, out) == (0, "1; x-1/2; x^2-x+1/6\n")
    code, out = run_cli("abel", "const:1", "3")
    assert (code, out) == (0, "1; x; x^2+2*x; x^3+6*x^2+9*x\n")


def test_sheffer_and_compose_and_delta():
    code, out = run_cli("sheffer", "binomial", "const:1", "bernoulli", "2")
    assert (code, out) == (0, "1; x-1/2; x^2-x+1/6\n")
    code, out = run_cli("compose", "uniform", "const:1", "2")
    assert code == 0
    code, out = run_cli("delta-of", "rising", "const:1", "4")
    assert (code, out) == (0, "D + -1/2*D^2 + 1/6*D^3 + -1/24*D^4 + O(D^5)\n")
    code, out = run_cli("from-delta", "expm1", "3")
    assert (code, out) == (0, "1; x; x^2-x; x^3-3*x^2+2*x\n")


def test_ksequence():
    code, out = run_cli("ksequence", "const:1", "3")
    assert (code, out) == (0, "1; a_1; a_2; a_3\n")
    code, out = run_cli("ksequence", "const:1", "2", "--coeffs", "0,1")
    assert (code, out) == (0, "1; 2*a_1; 2*a_1^2+2*a_2\n")


def test_stirling_numbers_of_large_order():
    n = 600
    assert run_cli("oracle", "stirling2", str(n), "2") == (0, f"{2 ** (n - 1) - 1}\n")
    assert run_cli("oracle", "stirling1", str(n), "1") == (0, f"{(-1) ** (n - 1) * factorial(n - 1)}\n")


def test_oracle_commands():
    assert run_cli("oracle", "stirling2", "4", "2") == (0, "7\n")
    assert run_cli("oracle", "stirling1", "4", "2") == (0, "11\n")
    assert run_cli("oracle", "fdp", "2", "1") == (0, "6\n")
    code, out = run_cli("oracle", "forests", "4", "1", "--colors", "1,1,1,1")
    assert (code, out) == (0, "125\n")
    code, out = run_cli(
        "oracle", "increasing-forests", "3", "1", "--colors", "1,1,1"
    )
    assert (code, out) == (0, "6\n")


def test_json_roundtrips():
    code, out = run_cli("binomial", "uniform", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    from umbral import Poly

    entries = [Poly.from_json(e) for e in doc["entries"]]
    assert str(entries[1]) == "1/2*x"
    assert doc["provenance"]["kind"] == "umbra"

    code, out = run_cli("delta-of", "rising", "const:1", "4", "--json")
    from umbral import Series

    series = Series.from_json(json.loads(out))
    assert series.var == "D"
    assert series.order == 4

    code, out = run_cli("bernoulli", "4", "--json")
    assert json.loads(out)["moments"] == ["1", "-1/2", "1/6", "0", "-1/30"]


def test_verify_suite_passes():
    result = run_cli_subprocess("verify", "oracle")
    assert result.returncode == 0
    assert "FAIL" not in result.stdout


def test_exit_codes():
    usage = run_cli_subprocess("no-such-command")
    assert usage.returncode == 2
    validation = run_cli_subprocess("binomial", "eps", "3")
    assert validation.returncode == 1
    assert "error:" in validation.stderr


def test_byte_identical_reruns():
    for args in (
        ["bernoulli", "12"],
        ["rising", "const:1", "6"],
        ["blissard", "2", "6"],
    ):
        first = run_cli_subprocess(*args)
        second = run_cli_subprocess(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty


def test_malformed_input_exits_cleanly():
    for args, code, token in (
        (("moments", "const:1/0", "3"), 1, "1/0"),
        (("moments", "list:[1,2/0]", "2"), 1, "2/0"),
        (("moments", "egf:coeffs:1,1/0", "2"), 1, "1/0"),
        (("eval", "4/0"), 1, "4/0"),
        (("eval", "--let", "a=const:3/0", "a^2"), 1, "3/0"),
        (("ksequence", "uniform", "3", "--coeffs", "1/0"), 1, "1/0"),
        (("from-delta", "coeffs:0,1/0", "3"), 1, "1/0"),
        (("bernoulli", "-1"), 2, "-1"),
        (("binomial", "uniform", "-2"), 2, "-2"),
        (("blissard", "2", "-3"), 2, "-3"),
        (("from-delta", "expm1", "3", "-N", "-1"), 2, "-1"),
        (("bernoulli", "5", "-N", "3"), 2, "-N"),
        (("delta-of", "binomial", "uniform", "0"), 1, "p_1"),
        (("eval", "--let", "x=uniform", "x^2"), 1, "'x'"),
        (("eval", "--let", "y=const:2", "y"), 1, "'y'"),
        (("ksequence", "uniform", "3", "--coeffs", ""), 1, "coefficient"),
        (("eval", "--let", " =uniform", "x"), 1, "' =uniform'"),
        (("eval", "--let", "a b=uniform", "x"), 1, "'a b=uniform'"),
        (("eval", "(" * 200 + "1" + ")" * 200), 1, "recursion depth"),
        (("eval", ".".join(["uniform"] * 300)), 1, "recursion depth"),
    ):
        got, out, err = run_cli_captured(*args)
        assert (got, out) == (code, ""), args
        assert "error:" in err and token in err and "Traceback" not in err, args


def test_repeated_main_calls_share_no_state():
    bound = run_cli("eval", "--let", "a=const:2", "a^2", "--json")
    assert bound[0] == 0 and json.loads(bound[1]) == {"value": [{"coeff": "4", "vars": {}}]}
    code, out, err = run_cli_captured("eval", "a^2")
    assert (code, out) == (1, "") and "unknown name 'a'" in err
    assert run_cli("bernoulli", "2") == (0, "1, -1/2, 1/6\n")


def test_cli_jobs_leave_no_moment_sequences_behind():
    def live_objects():
        gc.collect()
        objs = gc.get_objects()
        return sum(isinstance(o, Poly) for o in objs), sum(isinstance(o, MomentSeq) for o in objs)

    def spec(i):
        return f"list:[{i % 5 + 1},{i % 3},-1/{i + 1},2,{i}]"

    jobs = (
        lambda i: ("binomial", spec(i), "5"),
        lambda i: ("abel", spec(i), "5"),
        lambda i: ("rising", spec(i), "5"),
        lambda i: ("sheffer", "rising", spec(i), spec(i + 1), "5"),
        lambda i: ("delta-of", "binomial", spec(i), "5"),
        lambda i: ("from-delta", f"coeffs:0,{i % 5 + 1},-1/{i + 1},{i}", "5"),
        lambda i: ("compose", spec(i), spec(i + 1), "4"),
        lambda i: ("ksequence", spec(i), "4"),
        lambda i: ("eval", "--let", f"a={spec(i)}", f"(x.a)^3 + a^2*{i}"),
    )
    for job in jobs:
        assert run_cli(*job(0))[0] == 0, job(0)
        after_first = live_objects()
        for i in range(1, 41):
            assert run_cli(*job(i))[0] == 0, job(i)
        assert live_objects() == after_first, job(0)


_SPECS = ("uniform", "eps", "bernoulli", "const:2", "const:-1/2", "const:1/0", "generic:a",
          "list:[1,2,3]", "list:[]", "list:[0,1]", "list:[1,2/0]", "list:[a]", "egf:expm1",
          "egf:coeffs:1,1/2", "egf:coeffs:1,1/0", "nosuch", "")
_SIZES = st.one_of(st.integers(min_value=-2, max_value=4).map(str), st.sampled_from(["abc", "1.5", ""]))
_EXPR_TOKENS = ("uniform", "bernoulli", "eps", "one", "x", "y", "nosuch", "2", "3/2", "1/0",
                "+", "-", "*", "^", ".", "(", ")")


@st.composite
def cli_argv(draw):
    cmd = draw(st.sampled_from(
        ["bernoulli", "moments", "eval", "binomial", "abel", "rising", "appell", "sheffer",
         "delta-of", "from-delta", "compose", "blissard", "ksequence", "oracle", "verify", "nosuch"]
    ))
    spec = st.sampled_from(_SPECS)
    kind = st.sampled_from(["binomial", "abel", "rising", "appell", "nosuch"])
    if cmd == "eval":
        args = [" ".join(draw(st.lists(st.sampled_from(_EXPR_TOKENS), max_size=8)))]
    elif cmd == "bernoulli":
        args = [draw(_SIZES)]
    elif cmd in ("moments", "binomial", "abel", "rising", "appell", "ksequence"):
        args = [draw(spec), draw(_SIZES)]
        if cmd == "ksequence" and draw(st.booleans()):
            args += ["--coeffs", draw(st.sampled_from(["1,2", "0,1/0", "x", ""]))]
    elif cmd == "sheffer":
        args = [draw(kind), draw(spec), draw(spec), draw(_SIZES)]
    elif cmd == "delta-of":
        args = [draw(kind), draw(spec), draw(_SIZES)]
    elif cmd == "from-delta":
        series = st.sampled_from(["expm1", "log1p", "t-t^2", "t", "coeffs:0,1,1/2", "coeffs:1/0", "coeffs:0,0,1", "nope"])
        args = [draw(series), draw(_SIZES), "-N", draw(_SIZES)]
    elif cmd == "compose":
        args = [draw(spec), draw(spec), draw(_SIZES)]
    elif cmd == "blissard":
        args = [draw(_SIZES), draw(_SIZES)]
    elif cmd == "oracle":
        what = st.sampled_from(["stirling1", "stirling2", "fdp", "forests", "increasing-forests", "nosuch"])
        args = [draw(what), draw(_SIZES), draw(_SIZES)]
        if draw(st.booleans()):
            args += ["--colors", draw(st.sampled_from(["1,1,1", "1,-1", "x", ""]))]
    elif cmd == "verify":
        args = ["nosuch"]
    else:
        args = []
    if draw(st.booleans()):
        args.append("--json")
    return [cmd, *args]


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_cli_fuzz_exits_cleanly(argv):
    code, _, err = run_cli_captured(*argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
