"""Tests for the expression language and command-line interface."""

import json
import random
import time
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import degree
from qdisk.cli import (
    MAX_ALPHA,
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_DISK_DEGREE,
    MAX_EXPONENT,
    MAX_GRID_CASES,
    MAX_JOBS,
    MAX_NESTING,
    MAX_PAIRS,
    MAX_RANK,
    MAX_ROW,
    MAX_ROW_SIZE,
    MAX_SPHERICAL_TERMS,
    ExprError,
    format_element,
    main,
    parse,
    parse_element,
    _check_product,
    _parse_grid,
    _tokenize,
)
from qdisk.diskpoly import spherical
from qdisk.haar import inner
from qdisk.qfield import ONE, Parts, QRat
from qdisk.zalgebra import ZElement, q_element, star, w_gen, z_gen

Q = QRat.q_power(1)


# ------------------------------------------------------------------- parsing


def test_parse_errors_carry_byte_offsets():
    with pytest.raises(ExprError) as err:
        parse("z[2]*+z[1]", 2)
    assert err.value.offset == 5

    with pytest.raises(ExprError) as err:
        parse("$", 2)
    assert err.value.offset == 0

    with pytest.raises(ExprError) as err:
        parse("z[1] * €", 2)
    assert err.value.offset == 7

    with pytest.raises(ExprError) as err:
        parse("z[1])", 2)
    assert err.value.offset == 4

    # after the three UTF-8 bytes of an ideographic space, U+3000
    with pytest.raises(ExprError) as err:
        parse("z[1]\u3000*+", 2)
    assert err.value.offset == 8

    with pytest.raises(ExprError) as err:
        parse("w[5]", 2)
    assert err.value.offset == 0
    assert "index 5" in str(err.value)

    with pytest.raises(ExprError):
        parse("", 2)


def test_tokenizing_costs_linear_time():
    # offsets are a running byte count, so 4n characters cost well under the 16 times
    # n characters that encoding each token's prefix would
    def cost(n):
        src = "1+" * n + "1"
        start = time.perf_counter()
        _tokenize(src)
        return time.perf_counter() - start

    small, large = min(cost(20_000) for _ in range(5)), min(cost(80_000) for _ in range(3))
    assert large < 6 * small


# ---------------------------------------------------------------- evaluation


def test_eval_examples():
    elt = parse_element("w[2]*z[2]", 2)
    expected = ZElement(2, {((0, 1), (0, 1)): ONE,
                            ((1, 0), (1, 0)): ONE - Q * Q})
    assert elt == expected

    assert parse_element("Q[2] - z[2]*w[2]", 2) == ZElement(2, {((1, 0), (1, 0)): ONE})
    assert parse_element("q*z[1] - z[1]*q", 2) == ZElement(2, {})
    assert parse_element("z[1]'", 2) == w_gen(1, 2)
    assert parse_element("(z[1]*w[2])'", 2) == star(z_gen(1, 2) * w_gen(2, 2))
    assert parse_element("z[1]^0", 2) == ZElement(2, {((0, 0), (0, 0)): ONE})
    assert parse_element("Q[2]", 3) == q_element(2, 3)
    assert parse_element("-z[1] + z[1]", 2) == ZElement(2, {})


def test_scalar_division():
    elt = parse_element("z[1]/2", 2)
    assert elt == ZElement(2, {((1, 0), (0, 0)): QRat.fraction(1, 2)})

    elt = parse_element("z[1]/(1-q^2)", 2)
    assert elt.terms[((1, 0), (0, 0))] == (ONE - Q * Q).inverse()

    with pytest.raises(ExprError, match="non-scalar"):
        parse_element("z[1]/w[1]", 2)
    with pytest.raises(ExprError, match="division by zero"):
        parse_element("z[1]/(q-q)", 2)


def test_postfix_chains():
    assert parse_element("z[1]^2'", 2) == w_gen(1, 2) ** 2
    assert parse_element("(z[1]+w[1])^2", 2) == (z_gen(1, 2) + w_gen(1, 2)) ** 2


# the pieces of the benchmark stream's expressions, each with the element it stands for
COEFFS = {"": ONE, "2*": QRat.from_int(2), "q*": Q, "(1 - q)*": ONE - Q, "q^2*": Q * Q,
          "3*": QRat.from_int(3)}
GENERATORS = {"z": z_gen, "w": w_gen, "Q": q_element}


@st.composite
def monomial_sources(draw, n):
    factors, value = [], ZElement.one(n)
    for _ in range(draw(st.integers(1, 3))):
        gen, idx, power = draw(st.sampled_from("zwQ")), draw(st.integers(1, n)), draw(st.integers(1, 2))
        factors.append(f"{gen}[{idx}]" + (f"^{power}" if power > 1 else ""))
        value = value * GENERATORS[gen](idx, n) ** power
    return "*".join(factors), value


@st.composite
def chain_sources(draw, n, groups):
    """(source, element) of a +/- chain of coefficient * monomial terms, the first
    one negated or not; with groups, a term may be a coefficient times a
    parenthesized chain, squared or not."""
    text, value = "", ZElement.zero(n)
    for i in range(draw(st.integers(1, 3))):
        coeff = draw(st.sampled_from(sorted(COEFFS)))
        if groups and draw(st.booleans()):
            inner, elt = draw(chain_sources(n, False))
            power = draw(st.integers(1, 2))
            src, elt = f"({inner})" + (f"^{power}" if power > 1 else ""), elt ** power
        else:
            src, elt = draw(monomial_sources(n))
        op = draw(st.sampled_from(("+", "-"))) if i else draw(st.sampled_from(("", "-")))
        text += (f" {op} " if i else op) + coeff + src
        term = COEFFS[coeff] * elt
        value = value - term if op == "-" else value + term
    return text, value


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_stream_shaped_expressions_evaluate_to_the_element_built_from_their_pieces(data):
    n = data.draw(st.integers(1, 3))
    src, want = data.draw(chain_sources(n, True))
    assert parse_element is parse and parse(src, n) == want, src


# ------------------------------------------------------------------ printing


def test_format_qrat_examples():
    value = (Q ** 2 - Q ** 6) / (ONE - Q ** 10)
    # every rendering must re-evaluate to the same coefficient
    for c in (value, -value, value.inverse(), QRat.fraction(-3, 7)):
        elt = parse_element(str(c), 1)
        assert elt.terms.get(((0,), (0,)), QRat.from_int(0)) == c


def test_format_element_examples():
    elt = parse_element("w[2]*z[2]", 2)
    assert format_element(elt) == "z[2]*w[2] + (1 - q^2)*z[1]*w[1]"
    assert format_element(ZElement(2, {})) == "0"
    assert format_element(parse_element("z[2]*z[1]", 2)) == "(1/q)*z[1]*z[2]"
    assert format_element(-z_gen(1, 2)) == "-z[1]"


@given(rank=st.integers(1, 4), seed=st.integers(0, 10 ** 9))
@settings(max_examples=120, deadline=None)
def test_round_trip_random_elements(rank, seed):
    rng = random.Random(seed)
    terms = {}
    for _ in range(rng.randint(0, 4)):
        lam = tuple(rng.randint(0, 3) for _ in range(rank))
        mu = tuple(rng.randint(0, 3) for _ in range(rank))
        num = QRat.from_int(rng.randint(-5, 5))
        den = ONE - QRat.q_power(rng.randint(1, 3)) if rng.random() < 0.4 else ONE
        terms[(lam, mu)] = num / den if den else num
    elt = ZElement(rank, terms)
    assert str(elt) == format_element(elt)
    assert parse_element(str(elt), rank) == elt


# --------------------------------------------------------------- subcommands


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_command(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--n", "2", "--expr", "z[2]*z[1]")
    assert code == 0
    assert out.strip() == "(1/q)*z[1]*z[2]"

    code, out, _ = run_cli(capsys, "normalize", "--n", "2",
                           "--expr", "w[2]*z[2]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == parse_element("w[2]*z[2]", 2).to_json()


def test_haar_and_inner_commands(capsys):
    code, out, _ = run_cli(capsys, "haar", "--n", "2", "--expr", "z[2]*w[2]")
    assert code == 0
    assert out.strip() == "q^2/(1 + q^2)"

    code, out, _ = run_cli(capsys, "haar", "--n", "2", "--expr", "z[2]*w[2]", "--json")
    assert json.loads(out) == {"num": [0, 0, 1], "den": [1, 0, 1]}

    code, out, _ = run_cli(capsys, "inner", "--n", "2", "--lhs", "z[1]", "--rhs", "z[1]")
    assert code == 0
    assert out.strip() == "1/(1 + q^2)"


def test_spherical_command(capsys):
    code, out, _ = run_cli(capsys, "spherical", "--n", "2", "--l", "1", "--m", "1")
    assert code == 0
    assert out.strip() == "z[2]*w[2] - q^2*z[1]*w[1]"

    code, out, _ = run_cli(capsys, "spherical", "--n", "3", "--l", "1", "--m", "1",
                           "--assoc", "1,0")
    assert code == 0
    assert out.strip() == "q*z[2]*w[3]"

    code, _, err = run_cli(capsys, "spherical", "--n", "2", "--l", "-1", "--m", "0")
    assert code == 2
    assert "error" in err

    # argparse refuses a malformed pair: the process exits 2
    with pytest.raises(SystemExit) as exited:
        main(["spherical", "--n", "3", "--l", "1", "--m", "1", "--assoc", "1"])
    assert exited.value.code == 2
    assert "expected R,S" in capsys.readouterr().err


def test_verify_addition_command(capsys):
    code, out, _ = run_cli(capsys, "verify-addition",
                           "--alpha", "2", "--l", "1", "--m", "0")
    assert code == 0
    assert "pass" in out

    code, out, _ = run_cli(capsys, "verify-addition",
                           "--alpha", "1", "--l", "1", "--m", "1",
                           "--precursor", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["variant"] == "precursor"

    code, _, err = run_cli(capsys, "verify-addition",
                           "--alpha", "0", "--l", "1", "--m", "0")
    assert code == 2


def test_verify_addition_failure_exit_code(capsys, monkeypatch):
    class FakeVerdict:
        def to_json(self):
            return {"l": 1, "m": 0, "alpha": 1, "variant": "final", "pass": False,
                    "residual_terms": [{}], "lhs_terms": 2, "rhs_terms": 2, "millis": 0}

    monkeypatch.setattr("qdisk.cli.verify_addition", lambda *a, **k: FakeVerdict())
    code, out, _ = run_cli(capsys, "verify-addition", "--alpha", "1", "--l", "1", "--m", "0")
    assert code == 1
    assert "FAIL" in out


def test_suite_command(capsys):
    code, out, _ = run_cli(capsys, "suite", "--grid", "alpha=1..2;l=0..1;m=0,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "suite: 16/16 passed"

    code, out, _ = run_cli(capsys, "suite", "--grid", "alpha=1;l=1;m=1",
                           "--variant", "final", "--jobs", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1 and payload[0]["pass"] is True

    code, _, err = run_cli(capsys, "suite", "--grid", "beta=1..2")
    assert code == 2


@pytest.mark.parametrize("grid", ["alpha=1;l=3..1;m=0..1", "alpha=2..1"])
def test_suite_rejects_an_empty_grid(capsys, grid):
    with pytest.raises(ValueError, match="selects no values"):
        _parse_grid(grid)
    code, out, err = run_cli(capsys, "suite", "--grid", grid)
    assert code == 2
    assert "passed" not in out
    assert "selects no values" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_suite_rejects_jobs_below_one(capsys, monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr("qdisk.cli.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr("qdisk.cli._run_case", no_pool)
    code, out, err = run_cli(capsys, "suite", "--grid", "alpha=1;l=0;m=0", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "--jobs must be at least 1" in err


def test_suite_rejects_jobs_above_the_cap(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr("qdisk.cli.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr("qdisk.cli._run_case", no_pool)
    code, out, err = run_cli(capsys, "suite", "--grid", "alpha=1;l=0;m=0",
                             "--jobs", str(MAX_JOBS + 1))
    assert (code, out) == (2, "")
    assert f"at most {MAX_JOBS}" in err


def test_suite_pool_has_no_more_workers_than_cases(capsys, monkeypatch):
    sizes = []

    class SerialPool:
        """Records its size and runs the cases in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cases):
            return map(fn, cases)

    monkeypatch.setattr("qdisk.cli.ProcessPoolExecutor", SerialPool)
    code, out, _ = run_cli(capsys, "suite", "--grid", "alpha=1;l=0..2;m=0", "--variant", "final",
                           "--jobs", str(MAX_JOBS))
    assert (code, sizes) == (0, [3])
    assert out.rstrip().endswith("suite: 3/3 passed")
    # a single case runs without a pool
    code, out, _ = run_cli(capsys, "suite", "--grid", "alpha=1;l=0;m=0", "--variant", "final",
                           "--jobs", "4")
    assert (code, sizes) == (0, [3])


def test_grid_parsing():
    grid = _parse_grid("alpha=1..3;l=0..2;m=0..2")
    assert grid == {"alpha": [1, 2, 3], "l": [0, 1, 2], "m": [0, 1, 2]}
    assert _parse_grid("alpha=2,5;l=1;m=0..0")["alpha"] == [2, 5]
    with pytest.raises(ValueError):
        _parse_grid("alpha=")
    with pytest.raises(ValueError):
        _parse_grid("beta=1..2")


def test_default_rank_env(capsys, monkeypatch):
    monkeypatch.setenv("QDISK_DEFAULT_N", "3")
    code, out, _ = run_cli(capsys, "normalize", "--expr", "z[3]")
    assert code == 0
    assert out.strip() == "z[3]"

    monkeypatch.delenv("QDISK_DEFAULT_N")
    code, _, err = run_cli(capsys, "normalize", "--expr", "z[3]")
    assert code == 2
    assert "out of range" in err

    # a bad setting is no error of the expression: no byte offset is blamed
    monkeypatch.setenv("QDISK_DEFAULT_N", "x3")
    code, out, err = run_cli(capsys, "normalize", "--expr", "z[1]")
    assert (code, out) == (2, "")
    assert "QDISK_DEFAULT_N is not an integer: 'x3'" in err and "(byte" not in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "normalize", "--n", "2", "--expr", "z[2]*+z[1]")
    assert code == 2
    assert "byte 5" in err
    code, _, err = run_cli(capsys, "normalize", "--expr", "(z[1]")
    assert code == 2
    assert "expected ')' (byte 5)" in err


def test_errors_are_reported_in_reading_order(capsys):
    # evaluation runs as the source is read, so its error comes before a later grammar error
    code, out, err = run_cli(capsys, "normalize", "--n", "2", "--expr", "w[1]/z[1] +")
    assert (code, out) == (2, "")
    assert "division by a non-scalar element (byte 4)" in err
    # the whole source is tokenized first: a character outside the grammar comes before any product
    code, out, err = run_cli(capsys, "normalize", "--n", "2", "--expr", "z[1]/w[1] $")
    assert (code, out) == (2, "")
    assert "unexpected character '$' (byte 10)" in err


# ------------------------------------------------------- hostile input caps


def nested(depth):
    return "(" * depth + "z[1]" + ")" * depth


def test_nesting_at_the_cap_evaluates():
    assert parse_element(nested(MAX_NESTING), 2) == z_gen(1, 2)
    # the cap counts open parentheses, not groups side by side
    assert parse_element("+".join([nested(MAX_NESTING)] * 3), 2) == 3 * z_gen(1, 2)
    right = "z[1]*(" * MAX_NESTING + "z[1]" + ")" * MAX_NESTING
    assert parse_element(right, 2) == z_gen(1, 2) ** (MAX_NESTING + 1)


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_nesting_over_the_cap_exits_2(capsys, depth):
    with pytest.raises(ExprError, match="nested deeper"):
        parse(nested(depth), 2)
    code, out, err = run_cli(capsys, "normalize", "--n", "2", "--expr", nested(depth))
    assert (code, out) == (2, "")
    assert f"byte {MAX_NESTING}" in err


def test_long_operator_chains_do_not_recurse():
    # operator chains thousands of operators long, no parentheses
    assert parse_element("+".join(["z[1]"] * 3000), 2) == 3000 * z_gen(1, 2)
    assert parse_element("z[1]" + "^1" * 3000, 2) == z_gen(1, 2)
    assert parse_element("z[1]" + "'" * 3001, 2) == w_gen(1, 2)
    minus_one = ZElement.scalar(QRat.from_int(-1), 2)
    assert parse_element("-" + "*".join(["q"] * 3000) + "/q^60" * 50, 2) == minus_one


def test_exponent_cap(capsys):
    assert parse_element(f"q^{MAX_EXPONENT}", 1) == ZElement.scalar(QRat.q_power(MAX_EXPONENT), 1)
    with pytest.raises(ExprError, match="exponent above"):
        parse(f"z[1]^{MAX_EXPONENT + 1}", 1)
    code, out, err = run_cli(capsys, "haar", "--n", "2", "--expr", f"q^{MAX_EXPONENT + 1}")
    assert (code, out) == (2, "")
    assert "byte 2" in err


def test_degree_cap():
    half = MAX_DEGREE // 2
    assert parse_element(f"z[1]^{half}*w[1]^{half}", 1) == ZElement.monomial(1, [half], [half])
    assert parse_element(f"(z[1]^2)^{half}", 1) == z_gen(1, 1) ** MAX_DEGREE
    for over in (f"z[1]^{half}*z[1]^{half}*w[1]", f"(z[1]^3)^{(MAX_DEGREE + 1) // 3}"):
        with pytest.raises(ExprError, match=f"total degree {MAX_DEGREE + 1}, above"):
            parse_element(over, 1)


def test_term_pair_cap():
    # 64 * 64 pairs at the cap; 17 * 241 just over it
    assert MAX_PAIRS == 64 * 64
    assert len(parse_element("(z[1]+1)^63*(z[2]+1)^63", 2).terms) == MAX_PAIRS
    monomials = [f"z[2]^{i}*w[2]^{j}" for i in range(16) for j in range(16)][:241]
    with pytest.raises(ExprError, match=f"{MAX_PAIRS + 1} term pairs, more than"):
        parse_element(f"(z[1]+1)^16*({'+'.join(monomials)})", 2)


def test_nested_powers_exit_2_before_the_blowup(capsys):
    # each exponent is within MAX_EXPONENT; their product is not
    code, out, err = run_cli(capsys, "normalize", "--n", "1", "--expr", "((z[1]+1)^64)^64")
    assert (code, out) == (2, "")
    assert f"4225 term pairs, more than {MAX_PAIRS}" in err


def test_coefficient_cap(capsys):
    # the coefficient q^a counts a + 2 bits: a zero slots and a 1, over the denominator 1
    assert MAX_COEFF_BITS == 4096
    # q^4032 * q^60 multiplies 4034 + 62 bits, at the cap
    assert parse_element("(q^64)^63*q^60", 1) == ZElement.scalar(QRat.q_power(4092), 1)
    with pytest.raises(ExprError, match=f"coefficients of {MAX_COEFF_BITS + 1} bits, above"):
        parse_element("(q^64)^63*q^61", 1)
    # the last step of a power: 4034 + 66 bits
    with pytest.raises(ExprError, match="coefficients of 4100 bits, above"):
        parse_element("(q^64)^64", 1)
    code, out, err = run_cli(capsys, "normalize", "--n", "1", "--expr", "((1+q)^64)^64")
    assert (code, out) == (2, "")
    assert f"bits, above {MAX_COEFF_BITS}" in err


def test_division_is_under_the_coefficient_cap(capsys):
    # dividing by a scalar multiplies by its inverse, under the same bit check as '*'
    for op in ("/", "*"):
        code, out, err = run_cli(capsys, "normalize", "--n", "3", "--expr", "z[1]" + f"{op}(1-q)^32" * 8)
        assert (code, out) == (2, "")
        assert f"coefficients of 7067 bits, above {MAX_COEFF_BITS} (byte 31)" in err
    # the fourth quotient (at byte 31) is the first over the cap
    assert parse_element("z[1]" + "/(1-q)^32" * 3, 1) * (1 - Q) ** 96 == z_gen(1, 1)


def test_inner_is_under_the_product_caps(capsys, monkeypatch):
    # <a, b> = h(b* a): the product b* a is checked before inner runs
    mono = "z[1]^{e}*z[2]^{e}*w[1]^{e}*w[2]^{e}"
    code, out, _ = run_cli(capsys, "inner", "--n", "3", "--lhs", mono.format(e=16),
                           "--rhs", mono.format(e=16))
    a = parse_element(mono.format(e=16), 3)
    assert degree(star(a) * a) == MAX_DEGREE
    assert (code, out.strip()) == (0, str(inner(a, a)))
    monkeypatch.setattr("qdisk.cli.inner", no_work)
    code, out, err = run_cli(capsys, "inner", "--n", "3", "--lhs", mono.format(e=24),
                             "--rhs", mono.format(e=24))
    assert (code, out) == (2, "")
    assert f"product of total degree 192, above {MAX_DEGREE}" in err
    code, out, err = run_cli(capsys, "inner", "--n", "1", "--lhs", "(q^64)^32", "--rhs", "(q^64)^32")
    assert (code, out) == (2, "")
    assert f"coefficients of 4100 bits, above {MAX_COEFF_BITS}" in err


def test_structure_row_cap(capsys):
    # w^mu z^lam needs the row of |mu| |lam|: 32 * 32 at the cap, 33 * 32 just over it
    assert MAX_ROW == 32 * 32
    assert parse_element("w[1]^32*z[1]^32", 1) == ZElement.monomial(1, [32], [32])
    for expr, row in (("w[1]^33*z[1]^32", 1056), ("w[2]^64*z[2]^64", 4096)):
        code, out, err = run_cli(capsys, "normalize", "--n", "3", "--expr", expr)
        assert (code, out) == (2, "")
        assert f"|mu| |lambda| = {row}, above {MAX_ROW} (byte 7)" in err
    # the row is that of the left factor's w and the right factor's z
    assert parse_element("z[1]^64*w[1]^64", 1) == ZElement.monomial(1, [64], [64])
    with pytest.raises(ExprError, match=f"= {33 * 32}, above"):
        parse_element("(z[1]+w[1]^33)*(z[1]^32+w[1])", 1)


@pytest.mark.parametrize("n,k", [(4, 16), (8, 8), (16, 8)])
def test_structure_row_size_cap(capsys, n, k):
    # each passes MAX_ROW, but the row of w_n^k z_n^k has C(n - 1 + k, k) terms
    terms, row = comb(n - 1 + k, k), k * k
    assert row <= MAX_ROW
    start = time.monotonic()
    code, out, err = run_cli(capsys, "normalize", "--n", str(n), "--expr", f"w[{n}]^{k}*z[{n}]^{k}")
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert f"row of {terms} terms at |mu| |lambda| = {row}: {terms * row}, above {MAX_ROW_SIZE}" in err


def test_structure_row_size_counts_the_largest_index():
    # in Z_3, w[2]^32*z[2]^32 builds a row of 33 terms (the largest index is 2,
    # not the rank) at |mu| |lambda| = 1024, and w[3]^16*z[3]^16 one of 153 at
    # 256: both are inside the cap, and w[3]^17*z[3]^17 is not
    def check(k, i):
        _check_product(parse_element(f"w[{i}]^{k}", 3), parse_element(f"z[{i}]^{k}", 3), None)

    check(32, 2)
    check(16, 3)
    with pytest.raises(ExprError, match=f"row of {comb(19, 17)} terms at"):
        check(17, 3)
    assert parse_element("w[3]^8*z[3]^8", 3).term_count() == comb(10, 8)


def test_rank_cap(capsys, monkeypatch):
    assert parse_element(f"z[{MAX_RANK}]", MAX_RANK) == z_gen(MAX_RANK, MAX_RANK)
    with pytest.raises(ValueError, match="rank must be between"):
        parse("1", MAX_RANK + 1)

    def refuse(*args, **kwargs):
        raise AssertionError("an element was built")

    monkeypatch.setattr("qdisk.cli.spherical", refuse)
    over = str(MAX_RANK + 1)
    for argv in (["normalize", "--n", over, "--expr", "1"],
                 ["spherical", "--n", over, "--l", "1", "--m", "1"],
                 ["normalize", "--n", "0", "--expr", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "rank must be between" in err
    monkeypatch.setenv("QDISK_DEFAULT_N", over)
    code, _, err = run_cli(capsys, "inner", "--lhs", "1", "--rhs", "1")
    assert code == 2
    assert "rank must be between" in err


def no_work(*args, **kwargs):
    raise AssertionError("a case was run or a process pool was created")


# where the work of each subcommand starts: the level-chain table of the disk
# polynomials, the addition formula's lhs powers and scalars, a suite's
# cases and its process pool
WORK = ("qdisk.diskpoly._chain", "qdisk.tensor._chain", "qdisk.tensor._lhs_power",
        "qdisk.tensor._rhs_pieces", "qdisk.cli._run_case", "qdisk.cli.ProcessPoolExecutor")


@pytest.mark.parametrize("grid,message", [
    # one clause just over the cap, and one far over it (never materialized)
    (f"alpha=1;l=0..{MAX_GRID_CASES};m=0", f"selects more than {MAX_GRID_CASES} values"),
    ("alpha=1;l=0..1000000000000;m=0", f"selects more than {MAX_GRID_CASES} values"),
    # 5 * 205 = 1025 cases from small clauses
    (f"alpha=1..5;l=0..{MAX_GRID_CASES // 5};m=0", f"1025 cases, more than {MAX_GRID_CASES}"),
])
def test_grid_over_the_cap_exits_2_before_any_work(capsys, monkeypatch, grid, message):
    monkeypatch.setattr("qdisk.cli.ProcessPoolExecutor", no_work)
    monkeypatch.setattr("qdisk.cli._run_case", no_work)
    code, out, err = run_cli(capsys, "suite", "--grid", grid, "--variant", "final", "--jobs", "2")
    assert (code, out) == (2, "")
    assert message in err


def test_grid_clause_is_capped_while_it_is_read(capsys, monkeypatch):
    # each piece is within the cap, their running value count is not
    monkeypatch.setattr("qdisk.cli._run_case", no_work)
    code, out, err = run_cli(capsys, "suite", "--grid", "l=" + ",".join(["0..1000"] * 10000))
    assert (code, out) == (2, "")
    assert f"grid clause for l selects more than {MAX_GRID_CASES} values" in err
    assert len(err.encode()) < 200  # the 80 KB clause is not echoed
    with pytest.raises(ValueError, match="bad grid clause for 'xxx") as error:
        _parse_grid("x" * 80000 + "=1")
    assert len(str(error.value)) < 200
    clause = "l=" + ",".join(["0..1000"] * 1000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"selects more than {MAX_GRID_CASES} values"):
            _parse_grid(clause)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000  # a million values would take tens of MB
    assert _parse_grid("l=0..511,512..1023;m=2,0..1")["l"] == list(range(MAX_GRID_CASES))


def test_every_grid_case_is_checked_before_any_runs(capsys, monkeypatch):
    # the bad cases (l = -1) come after two good ones in the grid's order
    monkeypatch.setattr("qdisk.cli._run_case", no_work)
    code, out, err = run_cli(capsys, "suite", "--grid", "alpha=1;l=3,-1;m=3")
    assert (code, out) == (2, "")
    assert "got (-1, 3, 1)" in err


def test_grid_at_the_cap_is_accepted(capsys, monkeypatch):
    def fake_case(case):
        l, m, alpha, variant = case
        return {"l": l, "m": m, "alpha": alpha, "variant": variant, "pass": True,
                "residual_terms": [], "lhs_terms": 1, "rhs_terms": 1, "millis": 0}

    monkeypatch.setattr("qdisk.cli._run_case", fake_case)
    # 16 alphas * 8 l's * 4 m's * 2 variants, every value within the disk caps
    grid = "alpha=1..16;l=0..7;m=0..3"
    code, out, _ = run_cli(capsys, "suite", "--grid", grid)
    assert code == 0
    assert out.rstrip().endswith(f"suite: {MAX_GRID_CASES}/{MAX_GRID_CASES} passed")


OVER_DEGREE, OVER_ALPHA = str(MAX_DISK_DEGREE + 1), str(MAX_ALPHA + 1)


@pytest.mark.parametrize("argv,message", [
    (["verify-addition", "--alpha", "1000000", "--l", "1", "--m", "1"], "alpha 1000000, above"),
    (["verify-addition", "--alpha", OVER_ALPHA, "--l", "1", "--m", "1"],
     f"alpha {OVER_ALPHA}, above"),
    (["verify-addition", "--alpha", "1", "--l", "40", "--m", "40"], "disk degree 40, above"),
    (["verify-addition", "--alpha", "1", "--l", "0", "--m", OVER_DEGREE],
     f"disk degree {OVER_DEGREE}, above"),
    (["spherical", "--n", "3", "--l", "400", "--m", "400"], "disk degree 400, above"),
    (["spherical", "--n", "3", "--l", "1", "--m", "1", "--assoc", f"{OVER_DEGREE},0"],
     f"disk degree {OVER_DEGREE}, above"),
    (["suite", "--grid", "l=60;m=60"], "disk degree 60, above"),
    (["suite", "--grid", f"alpha=1,{OVER_ALPHA};l=0;m=0"], f"alpha {OVER_ALPHA}, above"),
])
def test_disk_caps_exit_2_before_any_work(capsys, monkeypatch, argv, message):
    for name in WORK:
        monkeypatch.setattr(name, no_work)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_disk_caps_admit_their_values(capsys):
    assert (MAX_DISK_DEGREE, MAX_ALPHA) == (8, 16)
    code, out, _ = run_cli(capsys, "verify-addition", "--alpha", str(MAX_ALPHA),
                           "--l", str(MAX_DISK_DEGREE), "--m", "0")
    assert code == 0 and "pass" in out
    code, out, _ = run_cli(capsys, "spherical", "--n", "2", "--l", "0",
                           "--m", str(MAX_DISK_DEGREE))
    assert (code, out.strip()) == (0, f"w[2]^{MAX_DISK_DEGREE}")


def test_spherical_term_counts_follow_the_closed_form():
    # the count the cap is checked on: C(n - 1 + k, k) terms, k = min(l, m)
    for n in range(2, 6):
        for l in range(4):
            for m in range(4):
                k = min(l, m)
                assert comb(n - 1 + k, k) == spherical(l, m, n).term_count(), (l, m, n)


# the cap is met exactly: C(13, 7) terms, and C(13, 6) for the outer (7, 6)
# factor on level 8 times 1 for the inner (1, 0) one; just over it, the
# smallest counts above it: C(16, 4) = 1820 terms, and 84 * 21 = 1764
AT_THE_CAP = [["--n", "7", "--l", "8", "--m", "7"],
              ["--n", "8", "--l", "8", "--m", "6", "--assoc", "1,0"]]
OVER_THE_CAP = [(["--n", "13", "--l", "4", "--m", "4"], 1820),
                (["--n", "7", "--l", "5", "--m", "5", "--assoc", "2,2"], 1764)]


@pytest.mark.parametrize("argv", AT_THE_CAP)
def test_spherical_term_cap_admits_its_value(capsys, monkeypatch, argv):
    assert MAX_SPHERICAL_TERMS == 1716
    calls = []
    monkeypatch.setattr("qdisk.diskpoly._chain", lambda *args: calls.append(args) or Parts((), 0))
    code, out, _ = run_cli(capsys, "spherical", *argv)
    assert (code, out.strip(), len(calls)) == (0, "0", 1)


@pytest.mark.parametrize("argv,terms", OVER_THE_CAP)
def test_spherical_term_cap_exits_2_before_any_work(capsys, monkeypatch, argv, terms):
    for name in WORK:
        monkeypatch.setattr(name, no_work)
    code, out, err = run_cli(capsys, "spherical", *argv)
    assert (code, out) == (2, "")
    assert f"spherical element of {terms} terms, above {MAX_SPHERICAL_TERMS}" in err
