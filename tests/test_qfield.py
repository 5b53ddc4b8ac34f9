import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import dense_solve_linear, eval_shift_loop, from_digits_loop, pack_laurent, scalar_termwise
from qdisk import qfield
from qdisk.haar import haar_monomial
from qdisk.qfield import (
    ONE,
    QRat,
    ZERO,
    LinearSolution,
    _eval_shift,
    _from_digits,
    _gcd_cofactors,
    _laurent,
    _prs_gcd,
    _reduce,
    int_from_json,
    poly_add,
    poly_divexact,
    poly_gcd,
    poly_mul,
    qnumber,
    qpoch,
    solve_linear,
    solve_sparse,
)
from qdisk.qfunc import little_q_jacobi
from qdisk.zalgebra import ZElement


def qr(num, den=1):
    return QRat(num, den)


small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=5)
nonzero_polys = small_polys.filter(lambda cs: any(cs))


def rationals():
    return st.builds(lambda n, d: QRat(n, d), small_polys, nonzero_polys)


# ---------------------------------------------------------------- canonical form


def test_pinned_values():
    # q^2 - 1 over q^2, both built from raw coefficient tuples
    assert qpoch(-2, 2, 1) == qr((-1, 0, 1), (0, 0, 1))
    # [2] in base q^-2 is (1 + q^2)/q^2
    assert qnumber(2, -2) == qr((1, 0, 1), (0, 0, 1))
    assert qnumber(3, 1) == qr((1, 1, 1))
    assert qpoch(1, 1, 0) == ONE
    assert qpoch(0, 1, 1) == ZERO  # (q^0; q)_1 = 1 - 1


def test_canonical_zero_and_signs():
    assert qr(()) == ZERO
    assert qr((0, 2), (0, -2)).num == (-1,)
    assert qr((0, 2), (0, -2)).den == (1,)
    x = qr((2, 2), (4,))
    assert (x.num, x.den) == ((1, 1), (2,))
    # content of the pair is 1, but each side may keep its own content
    y = qr((2, 0, 2), (3,))
    assert (y.num, y.den) == ((2, 0, 2), (3,))


@given(small_polys, nonzero_polys)
def test_reduction_idempotent(n, d):
    x = QRat(n, d)
    again = QRat(x.num, x.den)
    assert (again.num, again.den) == (x.num, x.den)
    assert x.den[-1] > 0
    g = poly_gcd(x.num, x.den)
    assert g in ((), (1,))
    if x.num:
        c = math.gcd(*(list(x.num) + list(x.den)))
        assert c == 1


@given(small_polys, nonzero_polys, nonzero_polys)
def test_equality_of_equivalent_pairs(n, d, scale):
    x = QRat(n, d)
    y = QRat(poly_mul(tuple(n), tuple(scale)), poly_mul(tuple(d), tuple(scale)))
    assert x == y
    assert hash(x) == hash(y)


# ---------------------------------------------------------------- field laws


@given(rationals(), rationals(), rationals())
@settings(max_examples=60)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO
    if not a.is_zero():
        assert a * a.inverse() == ONE


@given(rationals(), rationals())
@settings(max_examples=60)
def test_eval_is_a_homomorphism(a, b):
    r = Fraction(1, 3)
    try:
        av, bv = a.eval_at(r), b.eval_at(r)
    except ZeroDivisionError:
        return
    assert (a + b).eval_at(r) == av + bv
    assert (a - b).eval_at(r) == av - bv
    assert (a * b).eval_at(r) == av * bv
    if not b.is_zero() and bv != 0:
        assert (a / b).eval_at(r) == av / bv


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        QRat((1,), ())


def test_negative_powers():
    assert QRat.q_power(-2) == qr((1,), (0, 0, 1))
    assert QRat.q_power(-1) * QRat.q_power(1) == ONE
    assert QRat.q_power(3) == qr((0, 0, 0, 1))


# ---------------------------------------------------------------- q-combinatorics


@given(st.integers(-4, 4), st.integers(-3, 3).filter(bool), st.integers(0, 5))
def test_qpoch_recurrence(a, s, k):
    assert qpoch(a, s, k + 1) == qpoch(a, s, k) * (ONE - QRat.q_power(a + k * s))


def test_inverted_base_pochhammer_identity():
    # (a^-1; q^-1)_m = (-1)^m a^-m q^(-m(m-1)/2) (a; q)_m with a = q^j
    for j in range(1, 5):
        for m in range(5):
            lhs = qpoch(-j, -1, m)
            sign = ONE if m % 2 == 0 else -ONE
            rhs = sign * QRat.q_power(-j * m) * QRat.q_power(-m * (m - 1) // 2) * qpoch(j, 1, m)
            assert lhs == rhs, (j, m)


@given(st.integers(0, 6), st.integers(-3, 3).filter(bool))
def test_qnumber_matches_geometric_sum(m, b):
    total = ZERO
    for i in range(m):
        total = total + QRat.q_power(b * i)
    assert qnumber(m, b) == total


def test_qnumber_validation():
    with pytest.raises(ValueError):
        qnumber(2, 0)
    with pytest.raises(ValueError):
        qnumber(-1, 1)
    with pytest.raises(ValueError):
        qpoch(1, 1, -2)


# ---------------------------------------------------------------- linear solving


def test_nullspace_example():
    q = QRat.q_power(1)
    sol = solve_linear([[ONE, q], [q, q * q]], [ZERO, ZERO])
    assert sol.consistent
    assert len(sol.nullspace) == 1
    v = sol.nullspace[0]
    # spanned by (-q, 1)
    assert v[0] * ONE == -q * v[1]
    assert not all(x.is_zero() for x in v)


def test_no_solution_is_a_result():
    sol = solve_linear([[ONE], [ONE]], [ZERO, ONE])
    assert isinstance(sol, LinearSolution)
    assert not sol.consistent
    assert sol.particular is None


def test_unique_solution():
    q = QRat.q_power(1)
    sol = solve_linear([[ONE, q], [ZERO, ONE]], [ONE + q * q, q])
    assert sol.consistent and sol.nullspace == []
    assert sol.particular == [ONE, q]


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
@settings(max_examples=40)
def test_solve_linear_certificates(nr, nc, data):
    mat = [[QRat(data.draw(st.lists(st.integers(-3, 3), max_size=2)))
            for _ in range(nc)] for _ in range(nr)]
    rhs = [QRat(data.draw(st.lists(st.integers(-3, 3), max_size=2))) for _ in range(nr)]
    sol = solve_linear(mat, rhs)
    if sol.consistent:
        for row, b in zip(mat, rhs):
            acc = ZERO
            for c, x in zip(row, sol.particular):
                acc = acc + c * x
            assert acc == b
    for vec in sol.nullspace:
        for row in mat:
            acc = ZERO
            for c, x in zip(row, vec):
                acc = acc + c * x
            assert acc == ZERO


def test_solve_linear_rejects_ragged_rows():
    with pytest.raises(ValueError, match="same length"):
        solve_linear([[ONE, ONE], [ONE]], [ZERO, ZERO])


@pytest.mark.parametrize("rhs", [[ZERO], [ZERO, ZERO, ZERO]])
def test_solve_linear_rejects_rhs_of_the_wrong_length(rhs):
    with pytest.raises(ValueError, match="rhs has"):
        solve_linear([[ONE, ONE], [ONE, ZERO]], rhs)


def test_solve_linear_zero_matrix_is_all_free():
    sol = solve_linear([[ZERO] * 3, [ZERO] * 3], [ZERO, ZERO])
    assert sol.consistent and sol.particular == [ZERO] * 3
    assert sol.nullspace == [[ONE if i == j else ZERO for i in range(3)] for j in range(3)]
    assert solve_linear([], []) == LinearSolution(True, [], [])


@pytest.mark.parametrize("col", [-1, 3, "a"])
def test_solve_sparse_rejects_columns_out_of_range(col):
    with pytest.raises(ValueError, match="outside"):
        solve_sparse([{0: ONE}, {col: ONE}], 2)


_QV = QRat.q_power(1)
# Laurent entries and entries over (1 - q^k), so the sweep needs real gcds
SPARSE_ENTRIES = [ONE, -ONE, QRat.from_int(2), _QV, QRat.q_power(-2), _QV * _QV - ONE,
                  ONE / (ONE - _QV), _QV / (ONE - _QV ** 2), (ONE + _QV) / (ONE - _QV ** 3),
                  QRat((1, -1, 3), (2, 0, 1))]
SPARSE_POOL = [ZERO] * 12 + SPARSE_ENTRIES


@st.composite
def sparse_systems(draw):
    """Up to 8x8, mostly zero, with zero rows and columns, duplicated rows
    and right-hand sides that are consistent by construction or arbitrary."""
    nr, nc = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    dead = draw(st.sets(st.integers(0, nc - 1), max_size=nc))
    entry = st.sampled_from(SPARSE_POOL)
    mat = []
    for _ in range(nr):
        kind = draw(st.sampled_from(["sparse", "sparse", "zero", "copy"]))
        if kind == "copy" and mat:
            f = draw(st.sampled_from(SPARSE_ENTRIES))
            mat.append([f * x for x in draw(st.sampled_from(mat))])
        elif kind == "zero":
            mat.append([ZERO] * nc)
        else:
            mat.append([ZERO if c in dead else draw(entry) for c in range(nc)])
    if draw(st.booleans()):
        x = [draw(entry) for _ in range(nc)]
        rhs = [sum((a * b for a, b in zip(row, x)), ZERO) for row in mat]
    else:
        rhs = [draw(entry) for _ in range(nr)]
    return mat, rhs


@given(sparse_systems())
@settings(max_examples=200, deadline=None)
def test_solve_linear_equals_the_dense_oracle(system):
    mat, rhs = system
    got, want = solve_linear(mat, rhs), dense_solve_linear(mat, rhs)
    assert got.consistent == want.consistent
    assert got.particular == want.particular
    assert got.nullspace == want.nullspace


@given(sparse_systems())
@settings(max_examples=200, deadline=None)
def test_solve_sparse_stores_only_the_nonzeros_of_each_nullspace_vector(system):
    mat, rhs = system
    nc = len(mat[0])
    got = solve_sparse([dict(enumerate([*row, b])) for row, b in zip(mat, rhs)], nc)
    want = dense_solve_linear(mat, rhs).nullspace
    assert all(all(vec.values()) and list(vec) == sorted(vec) for vec in got.nullspace)
    assert [[vec.get(c, ZERO) for c in range(nc)] for vec in got.nullspace] == want


@pytest.mark.parametrize("call", [
    lambda: qpoch(1.5, 1, 2),
    lambda: qnumber(2, 1.5),
    lambda: QRat.q_power(1.5),
    lambda: haar_monomial([1.5], [1.5], 1),
    lambda: haar_monomial([1], [1], 1.0),
    lambda: little_q_jacobi(1.5, 1, 1),
    lambda: little_q_jacobi(1, 1, 1, 2.0),
    lambda: solve_sparse([], 2.5),
    # a float equal to an int whose entry is cached must not answer from it
    lambda: (qpoch(2, 2, 3), qpoch(2, 2, 3.0)),
    lambda: (qnumber(3, -2), qnumber(3.0, -2)),
    lambda: (QRat.q_power(3), QRat.q_power(3.0)),
], ids=range(11))
def test_non_integer_arguments_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_bool_arguments_count_as_integers():
    assert qpoch(True, 1, 2) == qpoch(1, 1, 2)
    assert qnumber(2, True) == qnumber(2, 1)
    assert QRat.q_power(True) == QRat.q_power(1)
    assert solve_sparse([], True) == LinearSolution(True, [ZERO], [{0: ONE}])


# ---------------------------------------------------------------- serialization


def test_json_round_trip_with_big_ints():
    big = 2 ** 64 + 3
    x = QRat((1, big), (0, 7))
    obj = x.to_json()
    assert isinstance(obj["num"][1], str)  # beyond the exact double window
    assert isinstance(obj["num"][0], int)
    assert QRat.from_json(obj) == x


@given(rationals())
def test_json_round_trip(x):
    assert QRat.from_json(x.to_json()) == x


@pytest.mark.parametrize("obj", [
    {"num": [1.9], "den": [1]},
    {"num": [1], "den": [2.0]},
    {"num": [True], "den": [1]},
    {"num": [1], "den": [False, 1]},
    {"num": [None], "den": [1]},
    {"num": ["1.5"], "den": [1]},
])
def test_from_json_rejects_non_integers(obj):
    with pytest.raises(ValueError):
        QRat.from_json(obj)


@pytest.mark.parametrize("obj", [
    {"num": [1]},                 # was KeyError
    5,                            # was TypeError
    {"num": [1], "den": 5},       # was TypeError
    {"num": "1", "den": [1]},
    None,
    [[1], [1]],
    {"num": [1], "den": []},      # was ZeroDivisionError
    {"num": [1], "den": [0, 0]},
])
def test_from_json_raises_only_value_error_on_malformed_documents(obj):
    with pytest.raises(ValueError):
        QRat.from_json(obj)


def test_int_from_json_accepts_ints_and_decimal_strings():
    assert int_from_json(7) == 7
    assert int_from_json("-123456789012345678901234567890") == -123456789012345678901234567890
    for bad in (1.0, True, None, [1]):
        with pytest.raises(ValueError):
            int_from_json(bad)


@pytest.mark.parametrize("num, den", [
    ((1.5,), 1), (1.5, 1), ((1,), (2.0,)), (True, 1), ((1, False), 1), ("12", 1),
])
def test_constructor_rejects_non_int_coefficients(num, den):
    with pytest.raises(ValueError):
        QRat(num, den)


# ---------------------------------------------------------------- hashing


@given(st.integers(-(2 ** 70), 2 ** 70))
def test_integer_constants_hash_as_ints(n):
    assert QRat(n) == n
    assert hash(QRat(n)) == hash(n)
    assert hash(QRat.from_int(n)) == hash(n)
    assert {n: "x"}[QRat((n,), (1,))] == "x"


# ---------------------------------------------------------------- exact division


def test_divexact_rejects_a_remainder():
    with pytest.raises(ArithmeticError):
        poly_divexact((1, 0, 1), (1, 1))  # (1 + q^2)/(1 + q) leaves 2
    with pytest.raises(ArithmeticError):
        poly_divexact((1,), (1, 1))       # lower degree than the divisor
    with pytest.raises(ArithmeticError):
        poly_divexact((1, 2), (2,))       # not divisible over Z


@given(nonzero_polys, nonzero_polys)
def test_divexact_inverts_mul(a, b):
    a, b = qfield.poly_from_coeffs(a), qfield.poly_from_coeffs(b)
    assert poly_divexact(poly_mul(a, b), b) == a
    assert poly_divexact((), b) == ()


# ---------------------------------------------------------------- gcd: heuristic vs PRS oracle

big_ints = st.integers(-(2 ** 48), 2 ** 48)


@st.composite
def gcd_factor(draw):
    """A factor for planted gcd inputs: random, 1 - q^k, q^k or a big constant."""
    kind = draw(st.sampled_from(["poly", "poly", "cyclic", "qpow", "big"]))
    if kind == "cyclic":
        k = draw(st.integers(1, 8))
        return (1,) + (0,) * (k - 1) + (-1,)
    if kind == "qpow":
        return (0,) * draw(st.integers(1, 4)) + (1,)
    if kind == "big":
        return (draw(big_ints.filter(bool)),)
    cs = draw(st.lists(st.one_of(st.integers(-9, 9), big_ints), min_size=1, max_size=6))
    cs = qfield.poly_from_coeffs(cs)
    return cs or (1,)


def _product(fs):
    out = (1,)
    for f in fs:
        out = poly_mul(out, f)
    return out


planted_pairs = st.builds(
    lambda common, ra, rb: (_product(common + ra), _product(common + rb)),
    st.lists(gcd_factor(), max_size=4),
    st.lists(gcd_factor(), max_size=3),
    st.lists(gcd_factor(), max_size=3),
)


@given(planted_pairs)
@settings(max_examples=150)
def test_heuristic_gcd_matches_prs_oracle(pair):
    a, b = pair
    g = poly_gcd(a, b)
    assert g == _prs_gcd(a, b)
    g2, ca, cb = _gcd_cofactors(a, b)
    assert g2 == g
    assert poly_mul(g, ca) == a and poly_mul(g, cb) == b


def test_heuristic_answers_the_planted_cases():
    # (1 - q^6) and (1 - q^4) share (1 - q^2); big coefficients ride along
    c = 2 ** 45 + 7
    a = poly_mul((1, 0, 0, 0, 0, 0, -1), (c, 1))
    b = poly_mul((1, 0, 0, 0, -1), (3, -c, 1))
    h, ca, cb = qfield._heu_gcd(a, b)
    assert h == _prs_gcd(a, b) == (-1, 0, 1)
    assert poly_mul(h, ca) == a and poly_mul(h, cb) == b


@pytest.mark.parametrize("a", [(-1, 0, 1), (2, 0, -4, 6), (-3, 3), (0, 0, 5, 5), (7, 0, 0, -7)])
def test_gcd_of_a_polynomial_and_itself_or_its_negative(a):
    for b in (a, tuple(-x for x in a)):
        g, ca, cb = _gcd_cofactors(a, b)
        assert g == _prs_gcd(a, b) and poly_mul(g, ca) == a and poly_mul(g, cb) == b


@given(planted_pairs, rationals(), rationals())
@settings(max_examples=60)
def test_forced_fallback_gives_identical_results(pair, x, y):
    a, b = pair
    expected = (poly_gcd(a, b), _gcd_cofactors(a, b),
                [(r.num, r.den) for r in (x + y, x - y, x * y, QRat(x.num, y.num or (1,)))])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qfield, "_heu_gcd", lambda a, b: None)
        got = (poly_gcd(a, b), _gcd_cofactors(a, b),
               [(r.num, r.den) for r in (x + y, x - y, x * y, QRat(x.num, y.num or (1,)))])
    assert got == expected


# ---------------------------------------------------------------- Laurent fast path


@st.composite
def laurent(draw):
    """A canonical n / q^k with coefficients up to 40+ bits."""
    k = draw(st.integers(0, 5))
    num = draw(st.lists(st.one_of(st.integers(-9, 9), big_ints), max_size=6))
    return QRat(num, (0,) * k + (1,))


def _assert_canonical(x):
    if not x.num:
        assert (x.num, x.den) == ((), (1,))
        return
    assert x.den[-1] > 0
    assert _prs_gcd(x.num, x.den) == (1,)
    assert math.gcd(*x.num, *x.den) == 1


# pairwise coprime irreducibles over Q, for denominators with a planted gcd
FACTORS = [(1, -1), (1, 1), (1, 0, 1), (3, 2), (1, 1, 1), (-2, 0, 1)]


@st.composite
def fraction_pairs(draw):
    """Two fractions over products of FACTORS (times a constant), the second
    with a denominator of 1, equal to, coprime to or sharing a factor with
    the first's, or else the negative of the first, in either order."""
    def frac(factors):
        den = (draw(st.sampled_from([1, -2, 3])),)
        for f in factors:
            den = poly_mul(den, FACTORS[f])
        return QRat(draw(small_polys), den)

    fx = draw(st.sets(st.integers(0, len(FACTORS) - 1), min_size=1, max_size=3))
    rest = sorted(set(range(len(FACTORS))) - fx)
    shape = draw(st.sampled_from(["one", "equal", "coprime", "shared", "cancel"]))
    x = frac(fx)
    if shape == "cancel":
        y = -x
    elif shape == "equal":  # x + a polynomial keeps x's canonical denominator
        y = QRat(poly_add(x.num, poly_mul(draw(nonzero_polys), x.den)), x.den)
    else:
        fy = {"one": set(), "coprime": {draw(st.sampled_from(rest))},
              "shared": {min(fx), draw(st.sampled_from(rest))}}[shape]
        y = frac(fy)
    return (y, x) if draw(st.booleans()) else (x, y)


@given(st.one_of(st.tuples(laurent(), laurent()), fraction_pairs()))
@settings(max_examples=300)
def test_laurent_fast_path_matches_generic_reduce(pair):
    # Laurent pairs take the gcd-free path, the others the lcm path
    x, y = pair
    cross = (poly_mul(x.num, y.den), poly_mul(y.num, x.den))
    den = poly_mul(x.den, y.den)
    routes = [
        (x + y, _reduce(poly_add(*cross), den)),
        (x - y, _reduce(poly_add(cross[0], tuple(-c for c in cross[1])), den)),
        (x * y, _reduce(poly_mul(x.num, y.num), den)),
    ]
    for fast, generic in routes:
        assert (fast.num, fast.den) == generic
        _assert_canonical(fast)


# ---------------------------------------------------------------- packing kernel

# the four array-code widths and two wider multiples of 8
WIDTHS = [8, 16, 32, 64, 72, 200]


@st.composite
def slot_polys(draw, s, fit=True):
    """Polynomials whose coefficients are symmetric digits of width s (fit),
    with negative and extreme ones, or else may overflow the slot."""
    h = 1 << (s - 1)
    coeff = st.one_of(st.integers(-9, 9), st.sampled_from([h - 1, 1 - h, h]),
                      st.integers(1 - h, h))
    if not fit:
        coeff = st.one_of(coeff, st.sampled_from([-h, 2 * h, -3 * h]),
                          st.integers(-(h << 70), h << 70))
    cs = draw(st.lists(coeff, max_size=12))
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


@given(st.sampled_from(WIDTHS), st.data())
@settings(max_examples=300)
def test_eval_shift_matches_the_shift_loop(s, data):
    a = data.draw(slot_polys(s, fit=False))
    assert _eval_shift(a, s) == eval_shift_loop(a, s)


@given(st.sampled_from(WIDTHS), st.data())
@settings(max_examples=300)
def test_symmetric_digits_round_trip(s, data):
    a = data.draw(slot_polys(s))
    n = _eval_shift(a, s)
    assert _from_digits(n, s) == from_digits_loop(n, s) == a
    assert _from_digits(-n, s) == from_digits_loop(-n, s)


@given(st.sampled_from(WIDTHS), st.one_of(st.integers(-10 ** 6, 10 ** 6),
                                          st.integers(-2 ** 3000, 2 ** 3000)))
@settings(max_examples=300)
def test_from_digits_matches_the_digit_loop_on_any_integer(s, n):
    assert _from_digits(n, s) == from_digits_loop(n, s)


@pytest.mark.parametrize("s", WIDTHS)
def test_packing_kernel_edge_cases(s):
    h = 1 << (s - 1)
    assert _from_digits(0, s) == () and _eval_shift((), s) == 0
    # a digit of exactly +2^(s-1) in an unbounded integer, as _heu_gcd reads them
    n = 5 + (h << s) + (7 << (3 * s)) - (1 << (40 * s))
    assert _from_digits(n, s) == from_digits_loop(n, s) == (5, h, 0, 7) + (0,) * 36 + (-1,)
    # -2^(s-1) is no symmetric digit: it reads as a borrow into the next slot
    assert _from_digits(-h, s) == (h, -1)
    # coefficients that overflow the array code of the width
    for a in [(h,), (1, -h), (3, h, -5), (0, 1 << (s + 9), -1)]:
        assert _eval_shift(a, s) == eval_shift_loop(a, s)


@pytest.mark.parametrize("s", [8, 16, 32, 64])
def test_signed_word_read_edge_cases(s):
    h = 1 << (s - 1)
    cases = [(3, -4, 5), (0, 0, 7), (-1, 2, -3),  # a top word with high zero bytes (s > 8), or negative
             (h - 1, 1 - h, h - 1), (1 - h,) * 3,  # words of +-(2^(s-1) - 1)
             (h,), (h, 5), (2, h), (1, h, h, -1), (h, h, h)]  # +2^(s-1) at the bottom, the top, in a row
    assert _from_digits(0, s) == from_digits_loop(0, s) == ()
    for digits in cases:
        n = eval_shift_loop(digits, s)
        assert _eval_shift(digits, s) == n and _from_digits(n, s) == from_digits_loop(n, s) == digits
        assert _from_digits(-n, s) == from_digits_loop(-n, s)
        assert _from_digits(n << s, s) == (0,) + digits


@pytest.mark.parametrize("k", range(-5, 6))
def test_laurent_is_exact_for_every_power_of_q(k):
    # cs / q^k for any integer k, q^-k cs for k < 0; trailing zeros of cs are dropped
    assert _laurent((1,), -2) == QRat.q_power(2) and _laurent((0, 1), -1) == QRat.q_power(2)
    for cs in [(1,), (0, 1), (0, 0, 3, -1), (2, 0, 0), (0, 5, 0), (-7, 0, 4)]:
        got, want = _laurent(cs, k), QRat(cs) * QRat.q_power(-k)
        assert (got.num, got.den) == (want.num, want.den), (cs, k)
    assert _laurent((), k) == _laurent((0, 0), k) == ZERO


@st.composite
def offset_laurents(draw, s):
    """Lists of Laurent coefficients q^j n / q^k, j and k up to 40, whose integers fit
    slots of width s: numerators with q-power factors, q^k denominators and both."""
    h = 1 << (s - 1)
    ints = st.one_of(st.integers(-9, 9), st.integers(1 - h, h - 1))
    num = st.lists(ints, min_size=1, max_size=6).filter(lambda ns: ns[0] and ns[-1])
    j, k = st.integers(0, 40), st.integers(0, 40)
    coeff = st.builds(lambda n, j, k: QRat(n) * QRat.q_power(j - k), num, j, k)
    return draw(st.lists(coeff, min_size=1, max_size=6))


@given(st.sampled_from(WIDTHS), st.data())
@settings(max_examples=300)
def test_pack_laurent_packs_each_value_at_its_own_power_of_q(s, data):
    cs = data.draw(offset_laurents(s))
    k, values, offsets = pack_laurent(cs, s)
    nets = [len(c.den) - 1 - next(i for i, x in enumerate(c.num) if x) for c in cs]
    assert k == max(0, *nets) and offsets == [k - e for e in nets] and min(offsets) >= 0
    for c, x, o, e in zip(cs, values, offsets, nets):
        assert x % (1 << s), c  # a value's lowest slot is n'(0) != 0
        assert _laurent(_from_digits(x, s), e) == c  # x alone is c at q^-e
        # shifted by its offset, x is the numerator over q^K as packed before the products
        aligned = eval_shift_loop(c.num, s) << s * (k + 1 - len(c.den))
        assert x << s * o == aligned and _laurent(_from_digits(aligned, s), k) == c


@pytest.mark.parametrize("s", WIDTHS)
def test_pack_laurent_edge_cases(s):
    assert pack_laurent([], s) == (0, [], [])
    assert pack_laurent([ZERO, ONE], s) == (0, [0, 1], [0, 0])
    # a coefficient wider than its slot takes `_eval_shift`'s shift loop: still exact
    wide = [QRat((0, 0, 1 << (s + 9), -3)), QRat((1 << (s + 3), 1), (0, 1))]
    k, values, offsets = pack_laurent(wide, s)
    assert (k, offsets) == (1, [3, 0])
    assert values == [eval_shift_loop((1 << (s + 9), -3), s), eval_shift_loop((1 << (s + 3), 1), s)]
    assert [x << s * o for x, o in zip(values, offsets)] == [
        eval_shift_loop(c.num, s) << s * (k + 1 - len(c.den)) for c in wide]


@st.composite
def laurent_lists(draw, long):
    """Nonempty lists of Laurent coefficients; when long, one of each list
    has a numerator of at least 8 coefficients."""
    ints = st.one_of(st.integers(-5, 5), big_ints)
    size = (8, 28) if long else (1, 7)
    def laurent_coeff(n):
        return st.builds(lambda num, k: QRat(num, (0,) * k + (1,)),
                         st.lists(ints, min_size=n[0], max_size=n[1]).filter(any),
                         st.integers(0, 6))
    first = draw(laurent_coeff(size))
    rest = draw(st.lists(laurent_coeff((1, 12)), max_size=4))
    return [first] + rest


def _element(xs):
    """The element of Z_1 with coefficients xs on the monomials z_1^i."""
    return ZElement(1, {((i,), (0,)): x for i, x in enumerate(xs)})


def _assert_scalar_products(xs, ys):
    # an element times a scalar is the per-term QRat products, in both orders
    a = _element(xs)
    for y in ys:
        assert a * y == y * a == scalar_termwise(a, y)
        assert [c for _, c in sorted((a * y).terms.items())] == [x * y for x in xs]


@given(st.booleans(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_laurent_products_equal_the_qrat_products(long_x, long_y, data):
    xs, ys = data.draw(laurent_lists(long_x)), data.draw(laurent_lists(long_y))
    _assert_scalar_products(xs, ys)
    # a coefficient off the Laurent path
    _assert_scalar_products(xs, ys + [QRat((1, 2), (1, 1))])


@pytest.mark.parametrize("n", [(1 << 62) - 1, math.isqrt(1 << 63) - 7])
def test_laurent_products_at_the_bound(n):
    # the top coefficient n^2 of the first product nearly fills |n_x| |n_y| =
    # (n + 7)^2, and the second n puts it just below 2^63
    xs = [QRat((1,) * 7 + (n,), (0, 0, 1))]
    ys = [QRat((-1,) * 7 + (n,), (0, 1)), QRat((2,) + (0,) * 8 + (1,))]
    _assert_scalar_products(xs, ys)
    assert (_element([]) * ys[0]).is_zero()
