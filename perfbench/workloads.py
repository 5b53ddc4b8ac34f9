"""Workload definitions: fixed case sets, seeded orders, and result checks.

This module never imports qdisk at module level, so the harness can use
the case lists without loading the library.  The functions that run cases
take the imported qdisk modules as an argument and call every library
function through its module attribute, so that the tracing wrappers in
`probes.py` (which rebind module attributes) see the calls.

A case list is run as one pass; each case is checked after the pass with
its result, outside the timed region.  A check failure or an exception is
a failed case, never a timing.
"""

from __future__ import annotations

import contextlib
import io
import random
import time

import calib

WORKLOADS = ("addition", "norms", "invariants", "cli")

# (l, m, alpha) -> lhs and rhs term count of the final variant
ADDITION_TERMS = {(4, 4, 1): 205, (5, 5, 2): 406, (6, 6, 2): 728}
ADDITION_TERMS_SMOKE = {(1, 1, 1): 8, (2, 1, 1): 14}

NORMS_RANK = 3
NORMS_MAX = 5
NORMS_MAX_SMOKE = 1

# (l, m, n, p)
INVARIANT_CASES = [(3, 3, 4, 4), (3, 3, 4, 3), (5, 5, 3, 3), (4, 4, 3, 2)]
INVARIANT_CASES_SMOKE = [(1, 1, 3, 3), (2, 1, 3, 2)]

SUITE_GRID = "alpha=1..4;l=0..3;m=0..3"
SUITE_CASES = 128
SUITE_GRID_SMOKE = "alpha=1;l=0..1;m=0..1"
SUITE_CASES_SMOKE = 8

STREAM_LEN = 100
STREAM_LEN_SMOKE = 4


def suite_argv(smoke: bool) -> list:
    return ["suite", "--grid", SUITE_GRID_SMOKE if smoke else SUITE_GRID, "--jobs", "1"]


def suite_expected_tail(smoke: bool) -> str:
    n = SUITE_CASES_SMOKE if smoke else SUITE_CASES
    return f"suite: {n}/{n} passed"


def cases(workload: str, seed: int, smoke: bool) -> list:
    """The workload's fixed case set in the order the seed picks."""
    if workload == "addition":
        out = list(ADDITION_TERMS_SMOKE if smoke else ADDITION_TERMS)
    elif workload == "norms":
        top = NORMS_MAX_SMOKE if smoke else NORMS_MAX
        out = [(l, m) for l in range(top + 1) for m in range(top + 1)]
    elif workload == "invariants":
        out = list(INVARIANT_CASES_SMOKE if smoke else INVARIANT_CASES)
    elif workload == "cli":
        # the suite grid is one case: its order is fixed by the CLI itself
        out = [tuple(suite_argv(smoke))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(out)
    return out


# ----------------------------------------------------------------------
# the seeded stream of short CLI invocations


def _monomial(rng: random.Random, n: int) -> str:
    factors = []
    for _ in range(rng.randint(1, 3)):
        gen = rng.choice("zwQ") if rng.random() < 0.2 else rng.choice("zw")
        idx = rng.randint(1, n)
        power = rng.choice((1, 1, 1, 2))
        factors.append(f"{gen}[{idx}]" + (f"^{power}" if power > 1 else ""))
    return "*".join(factors)


def _expression(rng: random.Random, n: int) -> str:
    coeffs = ("", "2*", "q*", "(1 - q)*", "q^2*", "3*")
    terms = [rng.choice(coeffs) + _monomial(rng, n) for _ in range(rng.randint(1, 3))]
    expr = terms[0]
    for t in terms[1:]:
        expr += rng.choice((" + ", " - ")) + t
    return expr


def stream(seed: int, smoke: bool) -> list:
    """Seeded argv lists of short normalize/haar/inner/spherical calls."""
    rng = random.Random(seed * 7919 + 1)
    out = []
    for _ in range(STREAM_LEN_SMOKE if smoke else STREAM_LEN):
        n = rng.choice((2, 3))
        cmd = rng.choice(("normalize", "haar", "inner", "spherical"))
        if cmd in ("normalize", "haar"):
            out.append([cmd, "--n", str(n), "--expr", _expression(rng, n)])
        elif cmd == "inner":
            out.append([cmd, "--n", str(n), "--lhs", _expression(rng, n),
                        "--rhs", _expression(rng, n)])
        else:
            l, m = rng.randint(0, 3), rng.randint(0, 3)
            argv = [cmd, "--n", str(n), "--l", str(l), "--m", str(m)]
            if n == 3 and rng.random() < 0.5:
                argv += ["--assoc", f"{rng.randint(0, l)},{rng.randint(0, m)}"]
            out.append(argv)
    return out


def expected_output(q, argv: list) -> str:
    """What the CLI must print for argv, computed through the library API."""
    cmd, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    n = int(opts["--n"])
    cli = q.cli
    if cmd == "normalize":
        return cli.format_element(cli.parse_element(opts["--expr"], n))
    if cmd == "haar":
        return str(q.haar.haar(cli.parse_element(opts["--expr"], n)))
    if cmd == "inner":
        return str(q.haar.inner(cli.parse_element(opts["--lhs"], n),
                                cli.parse_element(opts["--rhs"], n)))
    l, m = int(opts["--l"]), int(opts["--m"])
    if "--assoc" in opts:
        r, s = (int(x) for x in opts["--assoc"].split(","))
        return cli.format_element(q.diskpoly.assoc_spherical(l, m, r, s, n))
    return cli.format_element(q.diskpoly.spherical(l, m, n))


def run_cli_main(q, argv: list) -> tuple:
    """Run the CLI entry point in this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = q.cli.main(list(argv))
    return code, buf.getvalue()


# ----------------------------------------------------------------------
# one pass over a case list


def _solve(q, workload: str, case):
    if workload == "addition":
        l, m, alpha = case
        return q.tensor.verify_addition(l, m, alpha, "final")
    if workload == "norms":
        l, m = case
        s = q.diskpoly.spherical(l, m, NORMS_RANK)
        return q.haar.inner(s, s)
    if workload == "invariants":
        return q.uqaction.invariant_subspace(*case)
    return run_cli_main(q, case)  # cli: the suite argv; stream: one short call


def check(q, workload: str, case, result, smoke: bool) -> str | None:
    """None when the result is exact and complete, else why it is not."""
    if workload == "addition":
        want = (ADDITION_TERMS_SMOKE if smoke else ADDITION_TERMS)[case]
        if not result.passed or result.residual_terms:
            return f"verdict failed with {len(result.residual_terms)} residual terms"
        if (result.lhs_terms, result.rhs_terms) != (want, want):
            return f"term counts {result.lhs_terms}/{result.rhs_terms}, want {want}"
        return None
    if workload == "norms":
        l, m = case
        if result != q.haar.norm_const(l, m, NORMS_RANK - 2):
            return "inner(s, s) differs from norm_const"
        return None
    if workload == "invariants":
        l, m, n, p = case
        if p == n:
            want = 1 if l == m else 0
        elif p == n - 1:
            want = min(l, m) + 1
        else:
            raise ValueError(f"no closed form for p={p}, n={n}")
        if len(result) != want:
            return f"dimension {len(result)}, want {want}"
        if not all(q.uqaction.is_invariant(e, p) for e in result):
            return "a basis element is not invariant"
        return None
    code, out = result
    if workload == "stream":
        return check_stream(q, case, code, out)
    tail = out.rstrip("\n").rsplit("\n", 1)[-1]
    if code != 0 or tail != suite_expected_tail(smoke):
        return f"exit {code}, last line {tail!r}"
    return None


def check_stream(q, argv: list, code: int, out: str, expected: str | None = None) -> str | None:
    """A short invocation must exit 0 and print the in-process result."""
    if expected is None:
        expected = expected_output(q, argv)
    if code != 0 or out.rstrip("\n") != expected:
        return f"exit {code}, printed {out[:80]!r}, want {expected[:80]!r}"
    return None


def run_pass(q, workload: str, case_list: list, smoke: bool,
             timed=contextlib.nullcontext, on_case=None, sampler=None) -> dict:
    """Time one pass over case_list, then check every result untimed.

    timed and on_case are context manager factories that the traced run
    uses to profile the pass and to open a span per case.  With a running
    calib.Sampler, the pass's time is also given calibrated ("scaled")."""
    results = []
    with timed():
        mark = sampler.mark() if sampler else None
        start = time.perf_counter()
        for case in case_list:
            t0 = time.perf_counter()
            try:
                with on_case(case) if on_case else contextlib.nullcontext():
                    result, err = _solve(q, workload, case), None
            except Exception as exc:  # a crash is a failed case, counted below
                result, err = None, f"{type(exc).__name__}: {exc}"
            results.append((case, result, err, time.perf_counter() - t0))
        seconds = time.perf_counter() - start
        window = sampler.window(mark) if sampler else None
    errors = []
    for case, result, err, _ in results:
        if err is None:
            try:
                err = check(q, workload, case, result, smoke)
            except Exception as exc:  # a check that crashes fails the case
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            errors.append(f"{workload} {case}: {err}")
    return {"seconds": seconds, "scaled": calib.calibrate(seconds, window) if window else None,
            "attempted": len(case_list), "failed": len(errors),
            "errors": errors, "case_seconds": [r[3] for r in results]}
