"""Command-line surface.

A small expression language over Z_n,

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' nat | "'")*
    atom   := 'z[' nat ']' | 'w[' nat ']' | 'Q[' nat ']' | 'q' | int | '(' expr ')'

with explicit '*' (juxtaposition is not multiplication), postfix ' for the
*-involution, '/' restricted to scalar divisors, and subcommands for
normalization, Haar evaluation, inner products, spherical elements, and the
addition-formula verification suite.  Printing normal forms stays inside the
grammar, so parse(print(x)) always re-evaluates to x.  An expression is
evaluated as it is read, with the caps below checked before each product: the
whole source is tokenized first, so a character outside the grammar is
rejected before any product, and otherwise the first error in reading order wins.

Exit codes: 0 success / verification pass, 1 verification failure, 2 usage,
parse, or evaluation errors.  Hostile input exits 2 before any large
allocation or process pool: the rank (--n, $QDISK_DEFAULT_N) is capped at
MAX_RANK = 16, '^' exponents at MAX_EXPONENT = 64, parenthesis nesting at
MAX_NESTING = 100, the cases of a suite grid and the values of each of its
clauses (counted while the clause is read) at MAX_GRID_CASES = 1024, its
worker processes (--jobs, and never more than the cases) at MAX_JOBS = 32.
Those caps are this module's; the disk degrees, alpha and the terms of a
spherical element take the library's (MAX_DISK_DEGREE, MAX_SPHERICAL_TERMS of
`diskpoly`, MAX_ALPHA of `tensor`), through its gates `_check_spherical` and
`_check_addition`, which `suite` calls on every case before any case runs.
Before each product, each step of a power, each division by a scalar (a
product with its inverse) and, for `inner` a b, the product b* a, evaluation
checks that the result's total degree in the generators stays at most
MAX_DEGREE = 128, that it multiplies at most MAX_PAIRS = 4096 pairs of terms,
that the sizes of the two factors' largest coefficients (their integers'
bits) add up to at most MAX_COEFF_BITS = 4096, and that |mu_1| |lambda_2|, over
the pairs of a term z^lambda_1 w^mu_1 of the left factor and z^lambda_2 w^mu_2
of the right, stays at most MAX_ROW = 1024: the product builds the structure
row of w^mu_1 z^lambda_2, whose coefficients have q-degree about that size
(--n 3 w[2]^32*z[2]^32, at the cap, took 1.1 to 1.5 s and 75 MB on a 2-vCPU
x86-64 host; w[2]^64*z[2]^64 took 35 s before the cap).  The row's term count
grows with the largest generator index i among those w's and z's: the row of
w_i^k z_i^k has C(i - 1 + k, k) terms, and with k = min(|mu_1|, |lambda_2|)
that count times |mu_1| |lambda_2| stays at most MAX_ROW_SIZE = 40000 (the
slowest admitted row found, --n 3 w[3]^16*z[3]^16 of 153 terms, took 1.7 s
there; --n 4 w[4]^16*z[4]^16, of 969 terms, ran 27 s before this cap).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from math import comb

from .diskpoly import MAX_DISK_DEGREE, MAX_SPHERICAL_TERMS, assoc_spherical, spherical
from .haar import haar, inner
from .qfield import ZERO, QRat
from .tensor import MAX_ALPHA, _check_addition, verify_addition
from .zalgebra import ZElement, _unit_key, q_element, star, w_gen, z_gen

MAX_RANK = 16
MAX_EXPONENT = 64
MAX_NESTING = 100
MAX_GRID_CASES = 1024
MAX_DEGREE = 128
MAX_PAIRS = 4096
MAX_COEFF_BITS = 4096
MAX_ROW = 1024
MAX_ROW_SIZE = 40_000
MAX_JOBS = 32


class ExprError(ValueError):
    """Syntax or evaluation error, carrying a byte offset into the source
    (None for an error that no one source holds)."""

    def __init__(self, message: str, offset: int | None):
        super().__init__(message if offset is None else f"{message} (byte {offset})")
        self.offset = offset


# ----------------------------------------------------------------------
# lexer

_TOKEN_RE = re.compile(r"""
    (?P<WS>\s+)
  | (?P<GEN>[zwQ]\[(?P<IDX>\d+)\])
  | (?P<INT>\d+)
  | (?P<QLIT>q)
  | (?P<OP>[-+*/^'()])
""", re.VERBOSE)


def _tokenize(src: str):
    """The tokens (kind, value, byte offset) of src, END last; the offset is a running count,
    each token's text encoded once."""
    tokens, pos, offset = [], 0, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExprError(f"unexpected character {src[pos]!r}", offset)
        kind, text = m.lastgroup, m.group()
        if kind == "GEN":
            tokens.append((text[0], int(m.group("IDX")), offset))
        elif kind == "OP":
            tokens.append((text, None, offset))
        elif kind != "WS":
            tokens.append((kind, text, offset))
        pos, offset = m.end(), offset + len(text.encode("utf-8"))
    tokens.append(("END", None, offset))
    return tokens


# ----------------------------------------------------------------------
# parser: each rule returns the element it reads, checking the caps before each product;
# operator chains are loops, so only parentheses recurse


class _Parser:
    def __init__(self, src: str, n: int):
        self.tokens = _tokenize(src)
        self.i = 0
        self.n = n
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self) -> ZElement:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ExprError("trailing input", tok[2])
        return value

    def expr(self) -> ZElement:
        if self.peek()[0] == "-":
            self.advance()
            value = -self.term()
        else:
            value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> ZElement:
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.advance()
            rhs = self.factor()
            if op == "/":  # a product with the scalar's inverse
                divisor = _scalar_of(rhs, offset)
                if not divisor:
                    raise ExprError("division by zero", offset)
                rhs = ZElement.scalar(divisor.inverse(), self.n)
            value = _checked_mul(value, rhs, offset)
        return value

    def factor(self) -> ZElement:
        value = self.atom()
        while True:
            tok = self.peek()
            if tok[0] == "^":
                offset = self.advance()[2]
                exp = self.expect("INT")
                if int(exp[1]) > MAX_EXPONENT:
                    raise ExprError(f"exponent above {MAX_EXPONENT}", exp[2])
                base, value = value, ZElement.one(self.n)
                for _ in range(int(exp[1])):
                    value = _checked_mul(value, base, offset)
            elif tok[0] == "'":
                self.advance()
                value = star(value)
            else:
                return value

    def atom(self) -> ZElement:
        kind, value, offset = self.advance()
        if kind in ("z", "w", "Q"):
            if not 1 <= value <= self.n:
                raise ExprError(f"index {value} out of range for rank {self.n}", offset)
            return {"z": z_gen, "w": w_gen, "Q": q_element}[kind](value, self.n)
        if kind == "INT":
            return ZElement.scalar(QRat.from_int(int(value)), self.n)
        if kind == "QLIT":
            return ZElement.scalar(QRat.q_power(1), self.n)
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExprError(f"parentheses nested deeper than {MAX_NESTING}", offset)
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        raise ExprError("expected an atom", offset)


def _checked_rank(n: int) -> int:
    if not 1 <= n <= MAX_RANK:
        raise ValueError(f"rank must be between 1 and {MAX_RANK}, got {n}")
    return n


def parse(src: str, n: int) -> ZElement:
    """The element of Z_n that source text stands for, evaluated as it is read."""
    return _Parser(src, _checked_rank(n)).parse()


parse_element = parse


# ----------------------------------------------------------------------
# evaluation caps


def _scalar_of(elt: ZElement, offset: int) -> QRat:
    unit = _unit_key(elt.rank)
    if any(key != unit for key in elt.terms):
        raise ExprError("division by a non-scalar element", offset)
    return elt.terms.get(unit, ZERO)


def _sizes(elt: ZElement) -> tuple:
    """The largest degree, coefficient bits (each integer at least 1), |lambda|, |mu| and last i with a
    nonzero lambda_i, or mu_i, from 1, over the terms, in one pass; 0 for no terms."""
    rows = [(sum(lam) + sum(mu), sum(x.bit_length() or 1 for x in c.num + c.den), sum(lam), sum(mu),
             max([0] + [i for i, e in enumerate(lam, 1) if e]), max([0] + [i for i, e in enumerate(mu, 1) if e]))
            for (lam, mu), c in elt.terms.items()]
    return tuple(map(max, zip(*rows, (0,) * 6)))


def _check_product(a: ZElement, b: ZElement, offset: int | None) -> None:
    """ExprError at offset when the product a * b would pass a cap; each operand's terms are read once."""
    pairs = len(a.terms) * len(b.terms)
    if pairs > MAX_PAIRS:
        raise ExprError(f"product of {pairs} term pairs, more than {MAX_PAIRS}", offset)
    (degree_a, bits_a, _, ws, _, top_a), (degree_b, bits_b, zs, _, top_b, _) = _sizes(a), _sizes(b)
    if (degree := degree_a + degree_b) > MAX_DEGREE:
        raise ExprError(f"product of total degree {degree}, above {MAX_DEGREE}", offset)
    if (bits := bits_a + bits_b) > MAX_COEFF_BITS:
        raise ExprError(f"product of coefficients of {bits} bits, above {MAX_COEFF_BITS}", offset)
    if (row := ws * zs) > MAX_ROW:
        raise ExprError(f"product needs a structure row of |mu| |lambda| = {row}, above {MAX_ROW}", offset)
    terms = comb(max(top_a, top_b, 1) - 1 + min(ws, zs), min(ws, zs))
    if terms * row > MAX_ROW_SIZE:
        raise ExprError(f"product needs a structure row of {terms} terms at |mu| |lambda| = {row}: "
                        f"{terms * row}, above {MAX_ROW_SIZE}", offset)


def _checked_mul(a: ZElement, b: ZElement, offset: int) -> ZElement:
    """a * b, once its size is known to stay within the caps."""
    _check_product(a, b, offset)
    return a * b


# the printers of `ZElement` and `QRat`, under the names this module gave them
format_element = ZElement.__str__
format_qrat = QRat.__str__


# ----------------------------------------------------------------------
# subcommands


def _default_rank(args) -> int:
    n = args.n
    if n is None:
        env = os.environ.get("QDISK_DEFAULT_N", "2")
        try:
            n = int(env)
        except ValueError:
            raise ExprError(f"QDISK_DEFAULT_N is not an integer: {env!r}", None)
    return _checked_rank(n)


def _emit(args, value) -> int:
    """Print an element or a coefficient, as JSON or in the grammar."""
    print(json.dumps(value.to_json()) if args.json else value)
    return 0


def _cmd_normalize(args) -> int:
    return _emit(args, parse_element(args.expr, _default_rank(args)))


def _cmd_haar(args) -> int:
    return _emit(args, haar(parse_element(args.expr, _default_rank(args))))


def _cmd_inner(args) -> int:
    n = _default_rank(args)
    a, b = parse_element(args.lhs, n), parse_element(args.rhs, n)
    _check_product(star(b), a, None)  # <a, b> = h(b* a)
    return _emit(args, inner(a, b))


def _cmd_spherical(args) -> int:
    n = _default_rank(args)
    if args.assoc is None:
        return _emit(args, spherical(args.l, args.m, n))
    return _emit(args, assoc_spherical(args.l, args.m, *args.assoc, n))


def _verdict_line(v: dict) -> str:
    status = "pass" if v["pass"] else "FAIL"
    return (f"alpha={v['alpha']} l={v['l']} m={v['m']} variant={v['variant']}: "
            f"{status}  lhs={v['lhs_terms']} rhs={v['rhs_terms']} "
            f"residual={len(v['residual_terms'])} millis={v['millis']}")


def _cmd_verify_addition(args) -> int:
    variant = "precursor" if args.precursor else "final"
    verdict = verify_addition(args.l, args.m, args.alpha, variant).to_json()
    print(json.dumps(verdict) if args.json else _verdict_line(verdict))
    return 0 if verdict["pass"] else 1


def ProcessPoolExecutor(*args, **kwargs):
    """concurrent.futures.ProcessPoolExecutor, imported on first use: the
    import loads multiprocessing, which no other subcommand needs."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(*args, **kwargs)


def _run_case(case) -> dict:
    l, m, alpha, variant = case
    return verify_addition(l, m, alpha, variant).to_json()


def _parse_grid(text: str) -> dict:
    """Parse "alpha=1..3;l=0..2;m=0..2" into value lists per variable.  An
    error names the variable, never the clause, which may be long."""
    grid = {"alpha": [1], "l": [0], "m": [0]}
    for clause in filter(None, (part.strip() for part in text.split(";"))):
        name, _, spec_part = clause.partition("=")
        name = name.strip()
        if name not in grid or not spec_part:
            raise ValueError(f"bad grid clause for {name[:16]!r}: need alpha, l or m, '=' and values")
        values = []
        for piece in spec_part.split(","):
            lo, dots, hi = piece.partition("..")
            lo, hi = int(lo), int(hi if dots else lo)
            if len(values) + hi - lo >= MAX_GRID_CASES:  # the running count passes the cap
                raise ValueError(f"grid clause for {name} selects more than {MAX_GRID_CASES} values")
            values.extend(range(lo, hi + 1))
        if not values:
            raise ValueError(f"grid clause for {name} selects no values")
        grid[name] = values
    return grid


def _cmd_suite(args) -> int:
    if not 1 <= args.jobs <= MAX_JOBS:
        raise ValueError(f"--jobs must be at least 1 and at most {MAX_JOBS}, got {args.jobs}")
    grid = _parse_grid(args.grid)
    variants = ("final", "precursor") if args.variant == "both" else (args.variant,)
    size = len(grid["alpha"]) * len(grid["l"]) * len(grid["m"]) * len(variants)
    if size > MAX_GRID_CASES:
        raise ValueError(f"grid has {size} cases, more than {MAX_GRID_CASES}")
    cases = [(*_check_addition(l, m, alpha, variant), variant)  # all checked before any runs
             for alpha in grid["alpha"]
             for l in grid["l"]
             for m in grid["m"]
             for variant in variants]
    workers = min(args.jobs, len(cases))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            verdicts = list(pool.map(_run_case, cases))
    else:
        verdicts = [_run_case(case) for case in cases]
    if args.json:
        print(json.dumps(verdicts))
    else:
        for v in verdicts:
            print(_verdict_line(v))
        passed = sum(1 for v in verdicts if v["pass"])
        print(f"suite: {passed}/{len(verdicts)} passed")
    return 0 if all(v["pass"] for v in verdicts) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdisk",
        description="Exact computations in the quantized polynomial algebras Z_n.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rank(p):
        p.add_argument("--n", type=int, default=None,
                       help="rank (default: $QDISK_DEFAULT_N or 2)")

    p = sub.add_parser("normalize", help="reduce an expression to normal form")
    add_rank(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("haar", help="evaluate the Haar functional")
    add_rank(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(handler=_cmd_haar)

    p = sub.add_parser("inner", help="Haar inner product of two expressions")
    add_rank(p)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(handler=_cmd_inner)

    p = sub.add_parser("spherical", help="spherical or associated spherical element")
    add_rank(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--assoc", type=_assoc_pair, default=None, metavar="R,S")
    p.set_defaults(handler=_cmd_spherical)

    p = sub.add_parser("verify-addition", help="verify one addition-formula case")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--precursor", action="store_true")
    p.set_defaults(handler=_cmd_verify_addition)

    p = sub.add_parser("suite", help="verification battery over a parameter grid")
    p.add_argument("--grid", required=True, help='e.g. "alpha=1..3;l=0..2;m=0..2"')
    p.add_argument("--variant", choices=("final", "precursor", "both"), default="both")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(handler=_cmd_suite)
    for p in sub.choices.values():  # every subcommand takes --json, as its last option
        p.add_argument("--json", action="store_true")
    return parser


def _assoc_pair(text: str):
    try:
        r, s = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected R,S — got {text!r}")
    return r, s


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ExprError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
