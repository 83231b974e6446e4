"""Command-line front end.

Deterministic text output (canonical polynomial form) or ``--json``;
exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .core import Alphabet, MomentSeq, UmbraError, UmbraId, UmbralPoly
from .dot import dot_chain
from .multiplicative import general_multiplicative, k_polynomials
from .oracle import (
    ForestSpec,
    count_colored_forests,
    count_increasing_colored_forests,
    forward_difference_power,
    stirling1,
    stirling2,
)
from .poly import Poly, parse_rational
from .sequences import (
    PolySeq,
    abel_sequence,
    appell_from,
    binomial_from_umbra,
    blissard_example,
    delta_operator_of,
    rising_factorial_sequence,
    sequence_from_delta,
    sheffer_from,
    umbral_compose,
)
from .series import series_from_spec
from .verify import run_suite, suite_names

DEFAULT_ORDER = 16

_SEQ_BUILDERS = {
    "binomial": binomial_from_umbra,
    "abel": abel_sequence,
    "rising": rising_factorial_sequence,
    "appell": appell_from,
}


# ---------------------------------------------------------------------------
# Tiny umbral-expression grammar for `eval`
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<number>-?\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^().]))"
)

_BUILTIN_LETS = {
    "uniform": "uniform",
    "eps": "eps",
    "bernoulli": "bernoulli",
    "one": "const:1",
}

_SCALAR_NAMES = {"x", "y"}


class _ExprParser:
    """Recursive-descent parser for names, + - *, integer powers, and dot chains."""

    def __init__(self, text: str, alphabet: Alphabet, lets: dict[str, str]):
        self.tokens = self._lex(text)
        self.pos = 0
        self.alphabet = alphabet
        self.lets = lets
        self.bound: dict[str, UmbraId] = {}

    @staticmethod
    def _lex(text: str) -> list[str]:
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                raise UmbraError(f"cannot tokenize expression at: {text[pos:]!r}")
            tokens.append(m.group(m.lastgroup))
            pos = m.end()
        return tokens

    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> str:
        tok = self._peek()
        if tok is None:
            raise UmbraError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> UmbralPoly:
        value = self.expr()
        if self._peek() is not None:
            raise UmbraError(f"trailing input in expression: {self._peek()!r}")
        return value

    def expr(self) -> UmbralPoly:
        negate = False
        if self._peek() == "-":
            self._next()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> UmbralPoly:
        value = self.power()
        while self._peek() == "*":
            self._next()
            value = value * self.power()
        return value

    def power(self) -> UmbralPoly:
        value = self.chain()
        if self._peek() == "^":
            self._next()
            exp = self._next()
            if not exp.isdigit():
                raise UmbraError("powers must be non-negative integers")
            value = value ** int(exp)
        return value

    def chain(self) -> UmbralPoly:
        operands = [self.atom()]
        while self._peek() == ".":
            self._next()
            operands.append(self.atom())
        if len(operands) == 1:
            return operands[0]
        return UmbralPoly.of(dot_chain(self.alphabet, operands))

    def atom(self) -> UmbralPoly:
        tok = self._next()
        if tok == "(":
            value = self.expr()
            if self._next() != ")":
                raise UmbraError("unbalanced parentheses")
            return value
        if re.fullmatch(r"-?\d+(/\d+)?", tok):
            return UmbralPoly.scalar(parse_rational(tok))
        if tok in _SCALAR_NAMES:
            return UmbralPoly.scalar(Poly.var(tok))
        return UmbralPoly.of(self._resolve(tok))

    def _resolve(self, name: str) -> UmbraId:
        uid = self.bound.get(name)
        if uid is None:
            spec = self.lets.get(name) or _BUILTIN_LETS.get(name)
            if spec is None:
                raise UmbraError(
                    f"unknown name {name!r}; bind it with --let {name}=<moment-spec>"
                )
            uid = self.alphabet.register_spec(name, spec)
            self.bound[name] = uid
        return uid


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _moments_output(values, as_json: bool) -> None:
    if as_json:
        _emit_json({"moments": [str(v.as_rational()) for v in values]})
    else:
        _emit([", ".join(str(v.as_rational()) for v in values)])


def _sequence_output(seq: PolySeq, as_json: bool) -> None:
    if as_json:
        _emit_json(seq.to_json())
    else:
        _emit(["; ".join(str(p) for p in seq.entries)])


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_bernoulli(args) -> int:
    ab = Alphabet()
    bern = ab.inverse(ab.register("u", MomentSeq.uniform()))
    _moments_output(ab.moments(bern, args.n), args.json)
    return 0


def _cmd_moments(args) -> int:
    ab = Alphabet()
    uid = ab.register_spec("g", args.spec)
    values = ab.moments(uid, args.n)
    if args.json:
        _emit_json({"moments": [v.to_json() for v in values]})
    else:
        _emit([", ".join(str(v) for v in values)])
    return 0


def _cmd_eval(args) -> int:
    lets: dict[str, str] = {}
    for pair in args.let or []:
        name, _, spec = pair.partition("=")
        if not name or not spec:
            raise UmbraError(f"malformed --let binding: {pair!r}")
        name = name.strip()
        if name in _SCALAR_NAMES:
            raise UmbraError(f"--let cannot bind {name!r}: x and y are ground-ring variables")
        lets[name] = spec.strip()
    ab = Alphabet()
    value = _ExprParser(args.expr, ab, lets).parse()
    result = ab.evaluate(value)
    if args.json:
        _emit_json({"value": result.to_json()})
    else:
        _emit([str(result)])
    return 0


def _cmd_sequence(kind: str, args) -> int:
    ab = Alphabet()
    uid = ab.register_spec("g", args.spec)
    seq = _SEQ_BUILDERS[kind](ab, uid, args.n)
    _sequence_output(seq, args.json)
    return 0


def _cmd_sheffer(args) -> int:
    if args.base_kind not in ("binomial", "abel", "rising"):
        raise UmbraError("sheffer base kind must be binomial, abel, or rising")
    ab = Alphabet()
    base_umbra = ab.register_spec("base", args.base_spec)
    base = _SEQ_BUILDERS[args.base_kind](ab, base_umbra, args.n)
    beta = ab.register_spec("beta", args.beta_spec)
    _sequence_output(sheffer_from(ab, base, beta), args.json)
    return 0


def _cmd_delta_of(args) -> int:
    if args.kind not in ("binomial", "abel", "rising"):
        raise UmbraError("delta-of kind must be binomial, abel, or rising")
    ab = Alphabet()
    uid = ab.register_spec("g", args.spec)
    seq = _SEQ_BUILDERS[args.kind](ab, uid, args.n)
    f = delta_operator_of(seq)
    if args.json:
        _emit_json(f.to_json())
    else:
        _emit([str(f)])
    return 0


def _cmd_from_delta(args) -> int:
    ab = Alphabet()
    f = series_from_spec(args.series_spec, max(args.n, args.order), var="D")
    seq = sequence_from_delta(ab, f, args.n)
    _sequence_output(seq, args.json)
    return 0


def _cmd_compose(args) -> int:
    ab = Alphabet()
    outer = binomial_from_umbra(ab, ab.register_spec("outer", args.outer_spec), args.n)
    inner = binomial_from_umbra(ab, ab.register_spec("inner", args.inner_spec), args.n)
    _sequence_output(umbral_compose(ab, outer, inner), args.json)
    return 0


def _cmd_blissard(args) -> int:
    report = blissard_example(args.m, args.n)
    if args.json:
        _emit_json(report.to_json())
    else:
        lines = [
            f"P_{n} = {c}" for n, c in enumerate(report.coefficients)
        ]
        lines.append(f"{report.methods_agree}/3 methods agree")
        _emit(lines)
    return 0 if report.ok else 1


def _cmd_ksequence(args) -> int:
    ab = Alphabet()
    uid = ab.register_spec("g", args.spec)
    if args.coeffs is not None:
        cs = [parse_rational(tok) for tok in args.coeffs.split(",") if tok.strip()]
        kseq = general_multiplicative(ab, cs, uid, args.n)
    else:
        kseq = k_polynomials(ab, uid, args.n)
    if args.json:
        _emit_json(kseq.to_json())
    else:
        _emit(["; ".join(str(p) for p in kseq.entries)])
    return 0


def _parse_colors(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _cmd_oracle(args) -> int:
    kind = args.what
    if kind == "stirling2":
        value = stirling2(args.a, args.b)
    elif kind == "stirling1":
        value = stirling1(args.a, args.b)
    elif kind == "fdp":
        value = forward_difference_power(args.a, args.b)
    elif kind in ("forests", "increasing-forests"):
        if args.colors is None:
            raise UmbraError("forest counts need --colors m0,m1,...")
        spec = ForestSpec(args.a, args.b, _parse_colors(args.colors))
        counter = (
            count_colored_forests
            if kind == "forests"
            else count_increasing_colored_forests
        )
        value = counter(spec)
    else:  # pragma: no cover - argparse restricts choices
        raise UmbraError(f"unknown oracle {kind!r}")
    if args.json:
        _emit_json({"value": value})
    else:
        _emit([str(value)])
    return 0


def _cmd_verify(args) -> int:
    checks = run_suite(args.suite)
    lines = [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in checks]
    passed = sum(ok for _, ok in checks)
    lines.append(f"{passed}/{len(checks)} checks passed")
    if args.json:
        _emit_json(
            {
                "suite": args.suite,
                "checks": [{"name": n, "passed": ok} for n, ok in checks],
                "passed": passed,
                "total": len(checks),
            }
        )
    else:
        _emit(lines)
    return 0 if passed == len(checks) else 1


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _size(text: str) -> int:
    """argparse type shared by every size argument: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid size: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"size must be non-negative, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="umbral",
        description="Exact umbral-calculus engine: moments, dots, and polynomial sequences.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", parents=[common], help="inverse-umbra moments of the uniform umbra")
    p.add_argument("n", type=_size)
    p.set_defaults(handler=_cmd_bernoulli)

    p = sub.add_parser("moments", parents=[common], help="moments 0..n of a moment spec")
    p.add_argument("spec")
    p.add_argument("n", type=_size)
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("eval", parents=[common], help="evaluate an umbral expression")
    p.add_argument("--let", action="append", metavar="NAME=SPEC")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_eval)

    for kind in ("binomial", "abel", "rising", "appell"):
        p = sub.add_parser(kind, parents=[common], help=f"{kind} sequence from a moment spec")
        p.add_argument("spec")
        p.add_argument("n", type=_size)
        p.set_defaults(handler=lambda args, _k=kind: _cmd_sequence(_k, args))

    p = sub.add_parser("sheffer", parents=[common], help="sheffer shift of a binomial-type base")
    p.add_argument("base_kind")
    p.add_argument("base_spec")
    p.add_argument("beta_spec")
    p.add_argument("n", type=_size)
    p.set_defaults(handler=_cmd_sheffer)

    p = sub.add_parser("delta-of", parents=[common], help="delta operator of a constructed sequence")
    p.add_argument("kind")
    p.add_argument("spec")
    p.add_argument("n", type=_size)
    p.set_defaults(handler=_cmd_delta_of)

    p = sub.add_parser("from-delta", parents=[common], help="sequence associated to a delta series")
    p.add_argument("series_spec")
    p.add_argument("n", type=_size)
    p.add_argument(
        "-N",
        dest="order",
        type=_size,
        default=DEFAULT_ORDER,
        help=f"series truncation order (default {DEFAULT_ORDER})",
    )
    p.set_defaults(handler=_cmd_from_delta)

    p = sub.add_parser("compose", parents=[common], help="umbral composition of two binomial sequences")
    p.add_argument("outer_spec")
    p.add_argument("inner_spec")
    p.add_argument("n", type=_size)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("blissard", parents=[common], help="triple-checked expansion of {x/log(1+x)}^m")
    p.add_argument("m", type=_size)
    p.add_argument("n", type=_size)
    p.set_defaults(handler=_cmd_blissard)

    p = sub.add_parser("ksequence", parents=[common], help="multiplicative K-sequence")
    p.add_argument("spec")
    p.add_argument("n", type=_size)
    p.add_argument("--coeffs", help="scale coefficients c1,c2,... for the general construction")
    p.set_defaults(handler=_cmd_ksequence)

    p = sub.add_parser("oracle", parents=[common], help="brute-force combinatorial counts")
    p.add_argument("what", choices=["stirling1", "stirling2", "fdp", "forests", "increasing-forests"])
    p.add_argument("a", type=_size)
    p.add_argument("b", type=_size)
    p.add_argument("--colors", help="outdegree color counts m0,m1,...")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("verify", parents=[common], help="run an identity suite")
    p.add_argument("suite", choices=suite_names())
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UmbraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
