import itertools
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import haar_termwise, inner_via_product, pair_haar_termwise
from reference import MultiQPoly, haar_monomial_alt, multi_jackson
from qdisk.cli import main, parse_element
import qdisk.haar as haar_module
import qdisk.tensor as tensor
from qdisk.diskpoly import DiskSpec, disk_poly, spherical
from qdisk.haar import (
    _PAIR_HAAR_CACHE,
    _factor,
    _haar_num,
    _packed_sum,
    _pair_haar,
    haar,
    haar_monomial,
    inner,
    norm_const,
)
from qdisk.qfield import ONE, QRat, ZERO, qpoch, solve_sparse
from qdisk.uqaction import act_e, act_f, act_qh
from qdisk.zalgebra import (_MONO_CACHE, _WZ_CACHE, ZElement, _Memo, q_element, star, w_gen,
                            z_gen)

qp = QRat.q_power


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def random_element(rng, rank, nterms=3, maxdeg=2):
    terms = {}
    for _ in range(nterms):
        lam = tuple(rng.randint(0, maxdeg) for _ in range(rank))
        mu = tuple(rng.randint(0, maxdeg) for _ in range(rank))
        terms[(lam, mu)] = QRat.from_int(rng.randint(-3, 3))
    return ZElement(rank, terms)


def test_monomial_values():
    # off-diagonal kills, diagonal matches the hand-reduced value
    assert haar_monomial((1, 0), (0, 1), 2) == ZERO
    assert haar_monomial((0, 1), (0, 1), 2) == QRat((0, 0, 1), (1, 0, 1))  # q^2/(1+q^2)
    assert haar_monomial((1, 0), (1, 0), 2) == QRat((1,), (1, 0, 1))       # 1/(1+q^2)
    assert haar(ZElement.one(3)) == ONE


def test_two_monomial_formulas_agree():
    for n in (2, 3, 4):
        for total in range(5):
            for lam in compositions(total, n):
                assert haar_monomial(lam, lam, n) == haar_monomial_alt(lam, lam, n), (n, lam)


@pytest.mark.parametrize("n", [2, 3])
def test_quotient_well_defined(n):
    rng = random.Random(100 + n)
    Qn = q_element(n, n)
    for _ in range(25):
        x = random_element(rng, n)
        assert haar(Qn * x) == haar(x)
        assert haar(x * Qn) == haar(x)


@pytest.mark.parametrize("n", [2, 3])
def test_ground_relation_killed(n):
    # w_n z_n - q^2 z_n w_n - (1 - q^2) vanishes against h after multiplication
    rel = (w_gen(n, n) * z_gen(n, n) - qp(2) * z_gen(n, n) * w_gen(n, n)
           - ZElement.scalar(ONE - qp(2), n))
    rng = random.Random(7)
    for _ in range(20):
        x = random_element(rng, n)
        assert haar(rel * x) == ZERO


@pytest.mark.parametrize("n", [2, 3])
def test_action_invariance(n):
    rng = random.Random(31 + n)
    for _ in range(20):
        x = random_element(rng, n)
        h = tuple(rng.randint(-2, 2) for _ in range(n))
        assert haar(act_qh(h, x)) == haar(x)
        for k in range(1, n):
            assert haar(act_e(k, x)) == ZERO
            assert haar(act_f(k, x)) == ZERO


def test_inner_example():
    z2 = z_gen(2, 2)
    assert inner(z2, z2) == QRat((1,), (1, 0, 1))  # 1/(1+q^2)


@pytest.mark.parametrize("n", [2, 3])
def test_inner_routes_agree(n):
    rng = random.Random(53 + n)
    for _ in range(15):
        a = random_element(rng, n, nterms=2)
        b = random_element(rng, n, nterms=2)
        assert inner(a, b) == inner_via_product(a, b)


@pytest.mark.parametrize("n", [2, 3])
def test_inner_symmetry(n):
    rng = random.Random(71 + n)
    for _ in range(15):
        a = random_element(rng, n, nterms=2)
        b = random_element(rng, n, nterms=2)
        assert inner(a, b) == inner(b, a)


def ladder_poly(lam, n):
    """z^lam w^lam as a polynomial in Q_1..Q_{n-1} with Q_n = 1, Q_0 = 0."""
    nv = n - 1
    out = MultiQPoly.one(nv)

    def qvar(k):  # Q_k as a MultiQPoly
        if k == 0:
            return MultiQPoly.zero(nv)
        if k == n:
            return MultiQPoly.one(nv)
        return MultiQPoly.monomial(nv, tuple(1 if t == k - 1 else 0 for t in range(nv)))

    for k in range(1, n + 1):
        for t in range(lam[k - 1]):
            out = out * (qvar(k) - qp(-2 * t) * qvar(k - 1))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integral_representation_on_monomials(n):
    for total in range(4):
        for lam in compositions(total, n):
            assert multi_jackson(ladder_poly(lam, n), n) == haar_monomial(lam, lam, n), (n, lam)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integral_representation_on_ladder_monomials(n):
    # h of products of Q_i equals the normalized iterated Jackson integral
    for expo in itertools.product(range(3), repeat=n - 1):
        elem = ZElement.one(n)
        for i, e in enumerate(expo):
            elem = elem * q_element(i + 1, n) ** e
        phi = MultiQPoly.monomial(n - 1, expo)
        assert haar(elem) == multi_jackson(phi, n), (n, expo)


def test_norm_const_values():
    for alpha in (0, 1):
        assert norm_const(1, 0, alpha) == (ONE - qp(2)) / (ONE - qp(2 * (alpha + 2)))
    # asymmetry in (l, m): the swap costs an explicit q-power
    for alpha in range(3):
        for l in range(3):
            for m in range(3):
                assert norm_const(m, l, alpha) == qp(2 * (l - m) * (alpha + 1)) * norm_const(l, m, alpha)
    with pytest.raises(ValueError):
        norm_const(1, 0, -1)


def _fraction_matrix_is_positive_definite(mat):
    m = [row[:] for row in mat]
    size = len(m)
    for k in range(size):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, size):
            f = m[i][k] / m[k][k]
            for j in range(k, size):
                m[i][j] -= f * m[k][j]
    return True


@pytest.mark.parametrize("point", [Fraction(1, 2), Fraction(3, 4)])
def test_gram_positivity(point):
    n = 2
    keys = [(lam, mu) for lam in compositions(1, n) for mu in compositions(1, n)]
    basis = [ZElement(n, {k: ONE}) for k in keys]
    gram = [[inner(a, b).eval_at(point) for b in basis] for a in basis]
    assert gram == [list(row) for row in zip(*gram)]
    assert _fraction_matrix_is_positive_definite(gram)


# ----------------------------------------------------------------------
# the grouped sums against the term-by-term oracle


@st.composite
def coefficients(draw):
    """Nonzero integer polynomials over 1, q^j, (1 - q^k) or q^j (1 - q^k)."""
    num = QRat(tuple(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any))))
    j, k = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    den = draw(st.sampled_from([ONE, qp(j), ONE - qp(k), qp(j) * (ONE - qp(k))]))
    return num / den


@st.composite
def element_pairs(draw):
    """Two elements of one rank with mixed bidegrees, so several z-degrees
    (Haar groups) occur in one sum."""
    rank = draw(st.integers(2, 3))
    expo = st.tuples(*[st.integers(0, 2)] * rank)
    terms = st.dictionaries(st.tuples(expo, expo), coefficients(), min_size=1, max_size=4)
    return ZElement(rank, draw(terms)), ZElement(rank, draw(terms))


@given(element_pairs())
@settings(max_examples=40, deadline=None)
def test_grouped_sums_match_the_termwise_oracle(pair):
    a, b = pair
    assert haar(a) == haar_termwise(a)
    assert inner(a, b) == inner_via_product(a, b)


@given(element_pairs())
@settings(max_examples=25, deadline=None)
def test_inner_cancels_to_zero_after_projection(pair):
    # a - (<a, b>/<b, b>) b is orthogonal to b: every group must cancel
    a, b = pair
    bb = inner(b, b)
    assert bb  # the form is positive definite, so b != 0 has <b, b> != 0
    a_perp = a - (inner(a, b) / bb) * b
    assert inner(a_perp, b) == ZERO
    assert inner_via_product(a_perp, b) == ZERO


@given(element_pairs(), st.data())
@settings(max_examples=40, deadline=None)
def test_pair_haar_is_numerator_over_the_degree_denominator(pair, data):
    a, b = pair
    k1 = data.draw(st.sampled_from(sorted(a.terms)))
    k2 = data.draw(st.sampled_from(sorted(b.terms)))
    t, p, _ = _pair_haar(a.rank, k1, k2)
    assert t == sum(k1[0]) + sum(k2[0])
    product = ZElement(a.rank, {k1: ONE}) * ZElement(a.rank, {k2: ONE})
    assert p / qpoch(2, 2, t + a.rank - 1) == haar_termwise(product)


def test_monomial_numerators_are_polynomials():
    for n in (2, 3, 4):
        for total in range(5):
            for lam in compositions(total, n):
                assert _haar_num(lam, n).den == (1,), (n, lam)


@pytest.mark.parametrize("l,m", [(l, m) for l in range(3) for m in range(3)])
def test_rank_four_spherical_norms(l, m):
    s = spherical(l, m, 4)
    assert inner(s, s) == norm_const(l, m, 2)


SPHERICAL_CASES = ([(l, m, 3) for l in range(6) for m in range(6)]
                   + [(l, m, 4) for l in range(3) for m in range(3)])


@pytest.mark.parametrize("l,m,n", SPHERICAL_CASES)
def test_spherical_pair_values_match_the_full_rows(l, m, n):
    s = spherical(l, m, n)
    # a cold inner reads the w^mu z^lam rows and stores no product row
    _PAIR_HAAR_CACHE.clear()
    rows = len(_MONO_CACHE)
    assert inner(s, s) == norm_const(l, m, n - 2)
    assert len(_MONO_CACHE) == rows and _PAIR_HAAR_CACHE
    # every key pair that inner(s, s) could ask for, with weights cancelling or not
    for k1 in star(s).terms:
        for k2 in s.terms:
            t, p, f = _pair_haar(n, k1, k2)
            assert (t, p) == pair_haar_termwise(n, k1, k2), (k1, k2)
            assert f[:3] == _factor(p)[:3] if p else f is None


def orbit(k1, k2):
    """The key pairs that the star mirror and the modular swap reach from (k1, k2)."""
    return {(k1, k2), (k2[::-1], k1[::-1]), (k2, k1), (k1[::-1], k2[::-1])}


def test_pairs_whose_weights_do_not_cancel_are_not_evaluated():
    # <z_1, z_2> pairs w_2 with z_1 (weight -e_2 + e_1): no term of the product
    # is diagonal, so inner asks for no pair value; <z_1, z_1> asks for one,
    # w_1 z_1, and may store its orbit's representative z_1 w_1 too
    z1, z2 = z_gen(1, 2), z_gen(2, 2)
    _PAIR_HAAR_CACHE.clear()
    assert inner(z1, z2) == ZERO
    assert not _PAIR_HAAR_CACHE
    assert inner(z1, z1) == haar_monomial((1, 0), (1, 0), 2)
    asked = (((0, 0), (1, 0)), ((1, 0), (0, 0)))
    assert (2, *asked) in _PAIR_HAAR_CACHE
    assert {key[1:] for key in _PAIR_HAAR_CACHE} <= orbit(*asked)
    assert all(key[0] == 2 for key in _PAIR_HAAR_CACHE)


def test_a_pair_whose_weights_do_not_cancel_reads_no_row(monkeypatch):
    # w_2 z_1 and the product w^(1,1) z^(2,0): h vanishes on every term, and
    # with an empty row table and a cold memo the value needs no row
    monkeypatch.setattr(haar_module, "_WZ_CACHE", {})
    monkeypatch.setattr(haar_module, "_PAIR_HAAR_CACHE", _Memo(haar_module._pair_row))
    for key1, key2 in [(((0, 0), (0, 1)), ((1, 0), (0, 0))),
                       (((0, 1), (1, 1)), ((2, 0), (0, 1)))]:
        t, p, f = _pair_haar(2, key1, key2)
        assert (t, p, f) == (sum(key1[0]) + sum(key2[0]), ZERO, None)
        assert pair_haar_termwise(2, key1, key2) == (t, ZERO)
    assert not haar_module._WZ_CACHE


def weight(key):
    lam, mu = key
    return tuple(x - y for x, y in zip(lam, mu))


def twist(key):
    """tau(z^lam w^mu) = -2 sum_i (i - 1) (lam_i - mu_i), i from 1."""
    return -2 * sum((i - 1) * w for i, w in enumerate(weight(key), 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pair_values_follow_the_star_and_modular_symmetries(n):
    # every key pair of total degree <= 4 whose weights cancel, from a cold
    # memo: the oracle's full rows obey h(x*) = h(x) and h(x y) = q^tau(y) h(y x),
    # and each pair value, whether read from a row or derived, is the oracle's
    keys = [(lam, mu) for d in range(5) for dl in range(d + 1)
            for lam in compositions(dl, n) for mu in compositions(d - dl, n)]
    _PAIR_HAAR_CACHE.clear()
    pairs = 0
    for k1, k2 in itertools.product(keys, repeat=2):
        if sum(map(sum, k1 + k2)) > 4 or any(weight(k1)[i] + weight(k2)[i] for i in range(n)):
            continue
        pairs += 1
        t, p = pair_haar_termwise(n, k1, k2)
        assert pair_haar_termwise(n, k2[::-1], k1[::-1]) == (t, p)
        assert pair_haar_termwise(n, k2, k1) == (t, p / qp(twist(k2)))
        assert pair_haar_termwise(n, k1[::-1], k2[::-1]) == (t, p / qp(twist(k1[::-1])))
        got = _pair_haar(n, k1, k2)
        assert got[:2] == (t, p), (k1, k2)
        assert got[2][:3] == _factor(p)[:3] if p else got[2] is None
    assert pairs == {2: 43, 3: 88, 4: 149}[n]


def test_a_cold_norms_pass_evaluates_one_pair_per_orbit(monkeypatch):
    # inner(s, s) for s = spherical(l, m, 3), l, m <= 5, reads one row per
    # orbit, of degree 2 min(l, m); the other 1200 or so values are derived
    cases = {(l, m): spherical(l, m, 3) for l in range(6) for m in range(6)}
    reads = []

    class CountingRows:
        def __getitem__(self, key):
            reads.append(key)
            return _WZ_CACHE[key]

    monkeypatch.setattr(haar_module, "_WZ_CACHE", CountingRows())
    _PAIR_HAAR_CACHE.clear()
    for (l, m), s in cases.items():
        first = len(reads)
        assert inner(s, s) == norm_const(l, m, 1)
        assert all(sum(mu) + sum(lam) <= 2 * min(l, m) for _, mu, lam in reads[first:])
    assert len(reads) <= 800 < len(_PAIR_HAAR_CACHE)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_a_pair_value_at_its_width_bound_reads_back(monkeypatch, sign, bits):
    # in Z_1 with the row of w^0 z^0 replaced by the one constant c / q, c =
    # 2^bits - 1, the pair value of (1, 1) is c / q: the bound itself, one bit
    # over the slot of the next narrower width
    c, unit = sign * (2 ** bits - 1), ((0,), (0,))
    monkeypatch.setitem(_WZ_CACHE, (1, (0,), (0,)), ((unit, QRat((c,), (0, 1))),))
    monkeypatch.setattr(haar_module, "_PAIR_HAAR_CACHE", _Memo(haar_module._pair_row))
    t, p, f = _pair_haar(1, unit, unit)
    assert (t, p) == (0, QRat((c,), (0, 1))) and f[:3] == _factor(p)[:3]
    assert inner(ZElement.one(1), ZElement.one(1)) == p


@pytest.mark.parametrize("call", [
    lambda: haar(3),
    lambda: inner(z_gen(1, 2), 3),
    lambda: inner(3, z_gen(1, 2)),
    lambda: inner(None, None),
])
def test_non_elements_are_rejected(call):
    with pytest.raises(ValueError, match="acts on elements of Z_n, not on"):
        call()


@pytest.mark.parametrize("call", [
    lambda: star(3),
    lambda: tensor.pair(3, 3),
    lambda: disk_poly(DiskSpec(1, 1, 0), 1, 2, 3),
    lambda: disk_poly((1, 1, 0), z_gen(2, 2), w_gen(2, 2), q_element(2, 2)),
    lambda: solve_sparse([{0: 1}], 1),
], ids=["star", "pair", "disk_poly-elements", "disk_poly-spec", "solve_sparse"])
def test_other_entry_points_reject_non_elements(call):
    with pytest.raises(ValueError):
        call()


def test_a_warm_inner_packs_no_memoized_value_again():
    # N_lam and the pair values P are packed once per slot width (`_packed`)
    cases = [spherical(l, m, 3) for l in range(4) for m in range(4)]
    cold = [inner(s, s) for s in cases]
    misses = haar_module._packed.cache_info().misses
    assert [inner(s, s) for s in cases] == cold
    assert haar_module._packed.cache_info().misses == misses
    assert all(f is None or f[3].func is haar_module._packed
               for _, _, f in haar_module._PAIR_HAAR_CACHE.values())


@pytest.mark.parametrize("call", [
    lambda: haar_monomial([-1], [-1], 1),
    lambda: haar_monomial([1, -1], [0, 0], 2),
])
def test_negative_exponents_are_rejected(call):
    with pytest.raises(ValueError, match="exponents must be nonnegative integers"):
        call()


@pytest.mark.parametrize("call", [
    lambda: haar_monomial([], [], 0),
    lambda: haar_monomial([], [], -1),
])
def test_ranks_below_one_are_rejected(call):
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        call()


# ----------------------------------------------------------------------
# the packed group sums: wide slots, the width bound, mixed groups


@st.composite
def wide_coefficients(draw):
    """Numerators of 8 to 12 coefficients up to 2^40 in absolute value, over
    1, q^j, (1 - q^k) or q^j (1 - q^k): products need slots over 64 bits."""
    big = st.integers(-2 ** 40, 2 ** 40)
    num = QRat(tuple(draw(st.lists(big, min_size=8, max_size=12).filter(any))))
    j, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return num / draw(st.sampled_from([ONE, qp(j), ONE - qp(k), qp(j) * (ONE - qp(k))]))


@st.composite
def wide_pairs(draw):
    rank = draw(st.integers(1, 3))
    expo = st.tuples(*[st.integers(0, 2)] * rank)
    terms = st.dictionaries(st.tuples(expo, expo), wide_coefficients(), min_size=1, max_size=3)
    return ZElement(rank, draw(terms)), ZElement(rank, draw(terms))


@given(wide_pairs())
@settings(max_examples=30, deadline=None)
def test_packed_sums_match_the_oracle_in_wide_slots(pair):
    a, b = pair
    assert haar(a) == haar_termwise(a)
    assert inner(a, b) == inner_via_product(a, b)
    for k1, k2 in itertools.product(a.terms, b.terms):
        t, p, _ = _pair_haar(a.rank, k1, k2)
        product = ZElement(a.rank, {k1: ONE}) * ZElement(a.rank, {k2: ONE})
        assert p / qpoch(2, 2, t + a.rank - 1) == haar_termwise(product)


@pytest.mark.parametrize("sign", [1, -1])
def test_a_coefficient_at_the_width_bound_reads_back(sign):
    # every product lands on q^0 with one sign, so that coefficient is the
    # whole bound 2^64 - 1: a slot one bit narrower would wrap it
    c = 2 ** 32 - 1
    xs = [QRat((0, sign * c)), QRat((0, 0, sign * 2))]  # c q and 2 q^2
    ys = [QRat((c,), (0, 1)), QRat((c,), (0, 0, 1))]    # c / q and c / q^2
    cols = [list(map(_factor, xs)), list(map(_factor, ys))]
    assert _packed_sum(cols, [(0, 0, 0), (0, 1, 1)], 1) == sign * (2 ** 64 - 1)
    # the same bound through the public sums, in Z_1 where h(1) = 1
    unit = ((0,), (0,))
    x, y = ZElement(1, {unit: QRat((sign * c,))}), ZElement(1, {unit: QRat((c + 2,))})
    assert haar(ZElement(1, {unit: QRat((sign * (2 ** 64 - 1),))})) == sign * (2 ** 64 - 1)
    assert inner(x, y) == sign * (2 ** 64 - 1)


def test_laurent_and_non_laurent_coefficients_in_one_call():
    n = 2
    z1, w1, z2, w2 = z_gen(1, n), w_gen(1, n), z_gen(2, n), w_gen(2, n)
    a = (z1 * w1 * (ONE + qp(-2)) + z2 * w2 * (ONE / (ONE - qp(1)))
         + z1 * w1 * z2 * w2 * (qp(-1) / (ONE - qp(3))) + z2 * qp(2) + ZElement.one(n) * qp(-3))
    b = (w1 * z1 * (ONE / (qp(2) * (ONE - qp(2)))) + z2 * w2 * qp(1)
         + z1 * z2 * w1 * w2 * (ONE - qp(2)) + ZElement.one(n) * (ONE / (ONE - qp(1))))
    assert haar(a) == haar_termwise(a) and haar(b) == haar_termwise(b)
    for x, y in itertools.product((a, b), repeat=2):
        assert inner(x, y) == inner_via_product(x, y)


@pytest.mark.parametrize("n,lhs,rhs", [
    (2, "z[1]*w[1]/(1 - q) + q*z[2]*w[2]/(1 - q^2) + z[1]*w[2]/q", "w[1]*z[1]/(1 + q) - z[2]*w[2]"),
    (3, "(z[3]*w[3] - z[1]*w[1]/q^2)/(1 - q^3) + 2*w[2]*z[2]", "z[2]*w[2]/(q - q^4) + 3"),
])
def test_cli_sums_with_scalar_divisors_print_the_oracle_value(capsys, n, lhs, rhs):
    x, y = parse_element(lhs, n), parse_element(rhs, n)
    assert main(["haar", "--n", str(n), "--expr", lhs]) == 0
    assert capsys.readouterr().out.strip() == str(haar_termwise(x))
    assert main(["inner", "--n", str(n), "--lhs", lhs, "--rhs", rhs]) == 0
    assert capsys.readouterr().out.strip() == str(inner_via_product(x, y))
