"""Tests for the t-form of the verdict's packed sums: each Laurent coefficient split into its parts
q^e g(q^2) by the parity of its exponents, packed in t = q^2 with one accumulator per parity
(`qfield`, `diskpoly`, `tensor`), against the q-form routes kept in `oracle`; and for the grading
and the *-symmetry that the suite grid's tables have."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (code, eval_shift_loop, key_of, horner_sum_qform, join_parts, packed_qform, packed_terms, pair_moves,
                    pair_sum_qform, peak, q_form, t_form, unpacked)
from qdisk import diskpoly, tensor
from qdisk.diskpoly import DiskSpec
from qdisk.qfield import ONE, QRat, _eval_shift, _read, _split, _terms, _width
from qdisk.tensor import LEFT_RANK, RANKS, RIGHT_RANK, VARIANTS, pair, verify_addition
from qdisk.zalgebra import ZElement, star, z_gen

qp = QRat.q_power

# the slot widths of the packing, and one that is not a machine word
WIDTHS = [8, 16, 32, 64, 72]


def from_exponents(terms: dict) -> QRat:
    """sum c q^e over the items (e, c) of terms, by field operations."""
    lo = min(terms)
    return QRat(tuple(terms.get(e, 0) for e in range(lo, max(terms) + 1))) * qp(lo)


@st.composite
def laurent(draw, s: int, graded: bool):
    """A signed Laurent coefficient whose integers fit s-bit slots, with negative and odd exponents:
    of one parity of exponent when graded, else of both."""
    h = (1 << (s - 1)) - 1
    ints = st.one_of(st.integers(-9, 9), st.integers(-h, h)).filter(bool)
    if graded:
        parity = draw(st.integers(0, 1))
        return from_exponents(draw(st.dictionaries(st.integers(-12, 12).map(lambda e: 2 * e + parity), ints,
                                                   min_size=1, max_size=6)))
    even, odd = (st.integers(-12, 12).map(lambda e, p=p: 2 * e + p) for p in (0, 1))
    return from_exponents({**draw(st.dictionaries(even, ints, min_size=1, max_size=4)),
                           **draw(st.dictionaries(odd, ints, min_size=1, max_size=4))})


@given(st.sampled_from(WIDTHS), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_split_pack_and_read_back_return_every_coefficient(s, graded, data):
    cs = data.draw(st.lists(laurent(s, graded), min_size=1, max_size=5))
    for c in cs:
        parts = _split(c)
        assert len(parts) == (1 if graded else 2) and join_parts(parts) == c
        assert all(g[0] and g[-1] for _, g in parts) and len({e & 1 for e, _ in parts}) == len(parts)
    # each part packed at its own power of t, aligned over t^kd in its parity's accumulator, read back once
    # a part (key, e, g) is q^p t^(e >> 1) g(t) for p = e & 1; an ungraded coefficient has two parts on its key
    terms = {((i,), (0,)): c for i, c in enumerate(cs)}
    x = t_form(ZElement(1, terms))
    assert len(x.terms) == len(cs) * (1 if graded else 2)
    kd, (parts, values) = diskpoly._packed(x, s)
    assert kd == max(0, *(-(e >> 1) for _, e, _ in x.terms))
    assert parts == x.terms and list(values) == [eval_shift_loop(g, s) for _, _, g in x.terms]
    accs = ({}, {})
    for (key, e, _), v in zip(parts, values):
        accs[e & 1][key] = v << s * ((e >> 1) + kd)
    assert _read(accs, s, kd) == x and _terms(x) == terms and x.peak == peak(cs)


@given(st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_an_entry_keeps_one_exact_packing_per_width(graded, data):
    # an entry packed at every width, in any order and again: each packing is every part's value at 2^s,
    # kept once per width, and, at q = 2^(s/2), the q-form packing of its terms
    ints = st.one_of(st.integers(-9, 9), st.integers(-(1 << 40), 1 << 40)).filter(bool)

    def exponents(parity):
        return st.integers(-25, 25).filter(lambda e: e & 1 == parity)

    def coefficient25():
        if graded:
            parity = data.draw(st.integers(0, 1))
            return from_exponents(data.draw(st.dictionaries(exponents(parity), ints, min_size=1, max_size=6)))
        return from_exponents({**data.draw(st.dictionaries(exponents(0), ints, min_size=1, max_size=4)),
                               **data.draw(st.dictionaries(exponents(1), ints, min_size=1, max_size=4))})

    terms = {((i,), (0,)): coefficient25() for i in range(data.draw(st.integers(1, 5)))}
    x = t_form(ZElement(1, terms))
    widths = data.draw(st.permutations(WIDTHS)) + data.draw(st.lists(st.sampled_from(WIDTHS), min_size=1, max_size=6))
    kept = {}
    for s in data.draw(st.permutations(widths)):
        kd, (parts, values) = diskpoly._packed(x, s)
        assert kd == max(0, *(-(e >> 1) for _, e, _ in x.terms)) and parts == x.terms
        assert list(values) == [_eval_shift(g, s) for _, _, g in parts] == [eval_shift_loop(g, s) for _, _, g in parts]
        assert kept.setdefault(s, values) is values
        h = s // 2
        want, _, top = packed_qform(terms, h)
        for key, v in want.items():
            assert v == sum(y << h * (e + top) for (k, e, _), y in zip(parts, values) if k == code(key))


def coefficient():
    """Small signed Laurent coefficients, graded or not, with odd and negative exponents."""
    return st.dictionaries(st.integers(-5, 5), st.integers(-6, 6).filter(bool), min_size=1, max_size=4).map(
        from_exponents)


def element(rank, size=4):
    vec = st.tuples(*[st.integers(0, 2)] * rank)
    return st.dictionaries(st.tuples(vec, vec), coefficient(), min_size=1, max_size=size).map(
        lambda terms: ZElement(rank, terms))


@given(st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_t_form_horner_sum_equals_the_q_form_route(n, data):
    # H = sum_k coef_k Q_n^(mm-k) E_k on any Laurent data, ungraded included
    coefs = data.draw(st.lists(coefficient(), min_size=1, max_size=4))
    es = [data.draw(element(n)) for _ in coefs]
    xs = list(map(t_form, es))
    got = diskpoly._horner_sum(tuple(map(_split, coefs)), [x.peak for x in xs], n,
                               lambda s: ((0, *diskpoly._packed(x, s)) for x in xs))
    assert q_form(_read(*got), n) == ZElement._of(n, unpacked(*horner_sum_qform(coefs, es, n)))


@pytest.mark.parametrize("variant", VARIANTS)
def test_packed_lhs_equals_the_q_form_route(variant):
    for l, m, alpha in ((4, 4, 1), (5, 5, 2), (6, 6, 2), (3, 1, 2), (1, 3, 3)):
        spec = DiskSpec(l, m, alpha)
        coefs, es = diskpoly._jacobi(spec)[2], [tensor._lhs_power(variant, l - m, k) for k in range(min(l, m) + 1)]
        want = unpacked(*horner_sum_qform(coefs, [q_form(x, RANKS) for x in es], 6, pair_moves))
        assert q_form(_read(*tensor._packed_lhs(spec, variant)), RANKS).terms == want, spec


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_t_form_pair_sum_equals_the_q_form_route(data):
    # sum_i w_i left_i (x) right_i z_1^a w_1^b - d1 less, ungraded data and circle shifts included
    shift = st.tuples(st.integers(0, 3), st.integers(0, 3))
    sides = [(data.draw(element(LEFT_RANK, 3)), data.draw(element(RIGHT_RANK, 3)), data.draw(coefficient()),
              data.draw(shift)) for _ in range(data.draw(st.integers(1, 3)))]
    keys = st.tuples(*(st.tuples(*[st.tuples(*[st.integers(0, 2)] * rank)] * 2) for rank in RANKS))
    less = data.draw(st.dictionaries(keys, coefficient(), max_size=4))
    d1 = QRat(data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(any)))
    sa = _width(peak(less.values()).bit_length() + 1)
    got = tensor._pair_sum([(t_form(x), t_form(y), ab, _split(w)) for x, y, w, ab in sides],
                           packed_terms(less, sa), _split(d1))
    shifted = [(x, y * ZElement.monomial(RIGHT_RANK, (a, 0), (b, 0)), w) for x, y, w, (a, b) in sides]
    assert got == pair_sum_qform(shifted, packed_qform(less, sa), d1.num)


@pytest.mark.parametrize("factor", [qp(1), qp(2), ONE + qp(1)], ids=["q", "q^2", "1 + q"])
@pytest.mark.parametrize("case", [(2, 1, 1, "final"), (3, 3, 2, "precursor"), (4, 4, 1, "final")])
def test_an_error_in_one_rhs_weight_fails_the_verdict(monkeypatch, factor, case):
    # a q error moves every product of the piece to the other parity, a q^2 error one t up;
    # an ungraded one gives the piece parts of both parities
    rhs_sides = tensor._rhs_sides

    def planted(*args):
        inv, w, sides = rhs_sides(*args)
        x, y, ab, weight = sides[-1]
        return inv, w, sides[:-1] + [(x, y, ab, _split(join_parts(weight) * factor))]

    monkeypatch.setattr(tensor, "_rhs_sides", planted)
    verdict = verify_addition(*case)
    assert not verdict.passed and verdict.residual_terms


# ---------------------------------------------------------------- the grading


def theta(x: ZElement) -> ZElement:
    """q -> -q on the coefficients, z^lam w^mu -> (-1)^pi(lam, mu) z^lam w^mu, pi summed over the
    factors of a tensor key (`pi`)."""
    def flip(p):
        return tuple(-c if i % 2 else c for i, c in enumerate(p))
    return x._like({key: QRat(flip(c.num), flip(c.den)) * (-1) ** pi(key) for key, c in x.terms.items()})


def pi(key) -> int:
    """sum_(i<j) lam_i (lam_j + mu_j) mod 2 of a key (lam, mu), or of each factor of a tensor key."""
    if type(key[0][0]) is tuple:
        return sum(map(pi, key)) % 2
    lam, mu = key
    return sum(lam[i] * (lam[j] + mu[j]) for i in range(len(lam)) for j in range(i + 1, len(lam))) % 2


def levels(rank: int, low: int, high: int):
    """Elements of Z_rank in the generators z_i, w_i with low <= i <= high, coefficients over 1, q^j
    or 1 - q^j."""
    vec = st.tuples(*(st.integers(0, 2) if low <= i <= high else st.just(0) for i in range(1, rank + 1)))
    num = st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any).map(QRat)
    den = st.one_of(st.just(ONE), st.integers(1, 3).map(qp), st.integers(1, 3).map(lambda k: ONE - qp(k)))
    coeffs = st.tuples(num, den).map(lambda nd: nd[0] / nd[1])
    return st.dictionaries(st.tuples(vec, vec), coeffs, min_size=1, max_size=3).map(lambda t: ZElement(rank, t))


@given(st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_theta_is_multiplicative_on_level_ordered_products(n, data):
    # a in the generators of index k and up, b in those of index k and down: the order in which
    # `diskpoly._chain` multiplies its levels, level n on the left
    k = data.draw(st.integers(1, n))
    a, b = data.draw(levels(n, k, n)), data.draw(levels(n, 1, k))
    assert theta(a * b) == theta(a) * theta(b)


def test_theta_is_no_automorphism_of_z_n():
    # z_2 z_1 = q^-1 z_1 z_2 while z_1 z_2 is a basis monomial: with q -> -q, no sign on the keys
    # makes both products of z_1 and z_2 multiplicative, so the grading holds level by level only
    z1, z2 = z_gen(1, 2), z_gen(2, 2)
    assert z2 * z1 == z1 * z2 * qp(-1)
    assert theta(z2 * z1) == theta(z2) * theta(z1) and theta(z1 * z2) == -(theta(z1) * theta(z2))


@given(st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_structure_constants_are_graded(n, data):
    # every coefficient of a product of two basis monomials has one part
    vec = st.tuples(*[st.integers(0, 2)] * n)
    x, y = (ZElement.monomial(n, *data.draw(st.tuples(vec, vec))) for _ in "xy")
    assert all(len(_split(c)) == 1 for c in (x * y).terms.values())


SUITE = [(l, m, alpha, variant) for alpha in range(1, 5) for l in range(4) for m in range(4)
         for variant in VARIANTS]
BENCH = [(4, 4, 1), (5, 5, 2), (6, 6, 2)]  # the benchmark's addition cases


def _graded_by(x, parity) -> bool:
    """Whether x, in t-form, has one part per coefficient, of the parity its key gives: e & 1 = parity(key)
    for every part (code, e, g), key the code's, and at most one part per key and parity."""
    return all(e & 1 == parity(key_of(c)) for c, e, _ in x.terms) and len(
        {(c, e & 1) for c, e, _ in x.terms}) == len(x.terms)


def test_every_suite_table_entry_is_graded():
    # the half-slot path is the one the suite grid and the benchmark take: every E_k, `_chain` entry,
    # rhs weight and W they build has one part per coefficient; an E_k's parity is pi of its key,
    # with lam_1 + mu_1 of its Z_2 key added in the final variant, and a chain entry's is pi
    for l, m, alpha, variant in SUITE + [case + (variant,) for case in BENCH for variant in VARIANTS]:
        assert verify_addition(l, m, alpha, variant).passed
        extra = (lambda key: key[1][0][0] + key[1][1][0]) if variant == "final" else (lambda key: 0)
        for k in range(min(l, m) + 1):
            assert _graded_by(tensor._lhs_power(variant, l - m, k), lambda key: (pi(key) + extra(key)) % 2)
        plan, _, w, weights = tensor._rhs_pieces(l, m, alpha, variant)
        assert len(w) == 1 and all(len(weight) == 1 for weight in weights)
        for _, _, outer, inner in plan:
            assert _graded_by(diskpoly._chain(3, outer, inner), pi) and _graded_by(diskpoly._chain(2, outer), pi)


# ---------------------------------------------------------------- the *-symmetry of the final variant


def test_final_lhs_powers_are_star_symmetric():
    # B = A* in the final variant, so (A^j D^k)* = D^k B^j: every E_k the suite grid and the benchmark build
    for j, k in [*product(range(-3, 4), range(4)), *((0, k) for k in range(4, 7))]:
        got = star(q_form(tensor._lhs_power("final", j, k), RANKS))
        assert got == q_form(tensor._lhs_power("final", -j, k), RANKS), (j, k)


def _pieces(l: int, m: int, alpha: int) -> dict:
    """{(r, s): the final variant's rhs piece (w / V) X_rs I_rs (x) Y_rs z_1^s w_1^r}, its scalar whole: V
    is the lcm over the pieces of one case."""
    inv, _, sides = tensor._rhs_sides(l, m, alpha, "final")
    plan = tensor._rhs_pieces(l, m, alpha, "final")[0]
    circle = {(a, b): ZElement.monomial(RIGHT_RANK, (a, 0), (b, 0)) for _, _, (a, b), _ in sides}
    return {(r, s): pair(q_form(x, LEFT_RANK), q_form(y, RIGHT_RANK) * circle[ab]) * (join_parts(w) * inv)
            for (r, s, _, _), (x, y, ab, w) in zip(plan, sides)}


def test_final_rhs_is_star_symmetric_piece_by_piece():
    # star of piece (r, s) of (l, m), its scalar included, is piece (s, r) of (m, l), over the suite grid
    # and the benchmark cases
    for l, m, alpha in [*product(range(4), range(4), range(1, 5)), *BENCH]:
        pieces, mirrored = _pieces(l, m, alpha), _pieces(m, l, alpha)
        assert {(s, r): star(x) for (r, s), x in pieces.items()} == mirrored, (l, m, alpha)
