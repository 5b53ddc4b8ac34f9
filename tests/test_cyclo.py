"""The cyclotomic-factored scalars against their QRat product routes.

Each verification constant is built as a `Cyclo` and converted once; the
oracle routes of `oracle.py` build the same closed forms from QRat products
and divisions.  The two must agree field for field, and every converted
denominator must be monic: no gcd ran, so canonical form rests on the
conversion alone.
"""

import random
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (common_denominator, coupling_const_product, jacobi_coeffs_product,
                    jacobi_scaled_product, join_parts, norm_const_product, qpoch_product, rhs_pieces_product)
from qdisk import qfield, tensor
from qdisk.diskpoly import DiskSpec, jacobi_scaled
from qdisk.haar import norm_const
from qdisk.qfield import ONE, Cyclo, QRat, ZERO, poly_divexact, poly_mul, poly_neg, qnumber, qpoch
from qdisk.qfunc import _jacobi_coeffs, little_q_jacobi
from qdisk.tensor import VARIANTS, coupling_const

Q = QRat.q_power(1)


def same(x: QRat, y: QRat) -> None:
    """x and y agree field for field, and x's denominator is monic."""
    assert (x.num, x.den) == (y.num, y.den)
    assert x.den[-1] == 1


def test_one_minus_is_signed_cyclotomic_exponents():
    # 1 - q^6 = -Phi_1 Phi_2 Phi_3 Phi_6, 1 - q^-4 = q^-4 Phi_1 Phi_2 Phi_4
    assert Cyclo.one_minus(6) == Cyclo(-1, 0, {1: 1, 2: 1, 3: 1, 6: 1})
    assert Cyclo.one_minus(-4) == Cyclo(1, -4, {1: 1, 2: 1, 4: 1})
    assert Cyclo.one_minus(3, 0, 5) == Cyclo(0) == Cyclo(0, 7, {2: 1})
    for k in range(-12, 13):
        same(Cyclo.one_minus(k).to_qrat(), ONE - QRat.q_power(k))


def test_products_quotients_and_lcm_are_exponent_arithmetic():
    x = Cyclo.one_minus(4) / Cyclo.one_minus(2)  # 1 + q^2 = Phi_4
    assert x == Cyclo(1, 0, {4: 1})
    y = Cyclo(-1, 3) / Cyclo.one_minus(6)
    assert y == Cyclo(1, 3, {1: -1, 2: -1, 3: -1, 6: -1})
    assert x * y / y == x and (x / x) == Cyclo()
    assert Cyclo.lcm([x, y, Cyclo(1, -2, {2: -2}), Cyclo(0)]) == Cyclo(1, 2, {1: 1, 2: 2, 3: 1, 6: 1})
    for c in (x, y):
        lcm = Cyclo.lcm([c])
        same((lcm * c).to_qrat(), c.to_qrat() * lcm.to_qrat())
        assert (lcm * c).to_qrat().den == (1,)
    # zero absorbs products and quotients, and no value divides by it
    assert Cyclo(0) * x == x * Cyclo(0) == Cyclo(0) / x == Cyclo(0)
    assert Cyclo(0).to_qrat() is ZERO
    with pytest.raises(ZeroDivisionError):
        x / Cyclo.one_minus(0)


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> QRat:
    """Phi_d as a QRat: q^d - 1 over the Phi_k of its proper divisors k."""
    phi = QRat.q_power(d) - ONE
    for k in range(1, d):
        if not d % k:
            phi = phi / cyclotomic(k)
    return phi


def test_conversion_is_canonical_for_random_exponents():
    rng = random.Random(20261018)
    for _ in range(200):
        phi = {d: rng.choice((-2, -1, 1, 2)) for d in rng.sample(range(1, 31), rng.randint(0, 6))}
        c = Cyclo(rng.choice((-1, 1)), rng.randint(-5, 5), phi)
        expect = QRat.q_power(c.qexp) * c.sign
        for d, e in phi.items():
            expect = expect * cyclotomic(d) ** e
        same(c.to_qrat(), expect)


@given(st.dictionaries(st.integers(1, 40), st.integers(-4, 4).filter(bool), max_size=7),
       st.sampled_from((-1, 1)), st.integers(-8, 8))
@settings(max_examples=150, deadline=None)
def test_memoized_phi_products_equal_a_fresh_expansion(phi, sign, qexp):
    # the table is keyed by the sorted items, so any insertion order of the same exponents reads the
    # same entry, and each entry is the Moebius expansion of its items, warm or cold
    fresh = qfield._phi_product.__wrapped__
    items = sorted(phi.items())
    num, den = (fresh(tuple((d, s * e) for d, e in items if s * e > 0)) for s in (1, -1))
    expect = QRat(poly_neg(num) if sign < 0 else num) * QRat.q_power(qexp) / QRat(den)
    for exps in (phi, dict(reversed(items)), phi):
        same(Cyclo(sign, qexp, exps).to_qrat(), expect)


def test_products_are_one_pass_over_every_factor():
    # sign q^qexp prod c^p: exponents add, odd powers carry the sign, a zero absorbs the rest and
    # no value divides by one
    x, y = Cyclo.one_minus(4, 6), Cyclo(-1, 3, {2: -1, 5: 2})
    assert Cyclo.product(((x, 2), (y, -1)), -1, 5) == x * x / y * Cyclo(-1, 5)
    assert Cyclo.product(((x, 1), (x, -1)), qexp=-2) == Cyclo(1, -2)
    assert Cyclo.product(((y, 3), (Cyclo(0), 1))) == Cyclo(0)
    with pytest.raises(ZeroDivisionError):
        Cyclo.product(((Cyclo(0), 1), (Cyclo.one_minus(0), -1)))


def test_qpoch_and_qnumber_match_their_products():
    for a, step, k in product(range(-6, 7), range(-3, 4), range(7)):
        same(qpoch(a, step, k), qpoch_product(a, step, k))
    same(qpoch(-2, 2, 2), ZERO)  # the factor 1 - q^0
    for m, b in product(range(8), (-3, -2, -1, 1, 2, 3)):
        same(qnumber(m, b), qpoch_product(m * b, 0, 1) / qpoch_product(b, 0, 1))


def test_jacobi_coefficients_match_the_quotients():
    # negative Jacobi exponents, vanishing numerator factors (a + b + m + 1 + i = 0)
    # and vanishing denominators (a + 1 + i = 0, a ValueError here)
    zeros = 0
    for m, a, b, base in product(range(7), range(-8, 5), range(-4, 5), (1, 2, -1)):
        try:
            expect = jacobi_coeffs_product(m, a, b, base)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="vanishing Pochhammer denominator"):
                _jacobi_coeffs(m, a, b, base)
            continue
        got = [c.to_qrat() for c in _jacobi_coeffs(m, a, b, base)]
        assert len(got) == len(expect) == m + 1
        for x, y in zip(got, expect):
            same(x, y)
        zeros += any(not y for y in expect)
        assert little_q_jacobi(m, a, b, base) == tuple(got)
    assert zeros


def test_norm_and_coupling_constants_match_their_quotients():
    for l, m, alpha in product(range(7), range(7), range(5)):
        same(norm_const(l, m, alpha), norm_const_product(l, m, alpha))
        if alpha:
            for r, s in product(range(l + 1), range(m + 1)):
                same(coupling_const(l, m, r, s, alpha), coupling_const_product(l, m, r, s, alpha))


def test_jacobi_scaled_matches_the_gcd_common_denominator():
    for l, m, alpha in product(range(7), range(7), range(11)):
        inv, scaled = jacobi_scaled(DiskSpec(l, m, alpha))
        inv_x, scaled_x = jacobi_scaled_product(DiskSpec(l, m, alpha))
        same(inv, inv_x)
        assert inv.num == (1,) and len(scaled) == len(scaled_x) == min(l, m) + 1
        for x, y in zip(scaled, scaled_x):
            same(x, y)
            assert x.den == (1,)


@pytest.mark.parametrize("variant", VARIANTS)
def test_rhs_pieces_match_the_gcd_common_denominator(variant):
    # the suite grid (l, m <= 3, alpha <= 4) and more
    for l, m, alpha in [*product(range(5), range(5), range(1, 5)), (5, 5, 2)]:
        plan, inv, w, weights = tensor._rhs_pieces(l, m, alpha, variant)
        inv_x, weights_x = rhs_pieces_product(l, m, alpha, variant)
        assert [(r, s) for r, s, _, _ in plan] == list(product(range(l + 1), range(m + 1)))
        same(inv, inv_x)
        # W = V / L, a polynomial: W / V is the lhs's 1/L
        same(join_parts(w) * inv_x, jacobi_scaled_product(DiskSpec(l, m, alpha))[0])
        assert len(weights) == len(weights_x)
        for x, y in zip(weights, weights_x):
            same(join_parts(x), y)


def test_oracle_common_denominator_is_the_lcm():
    inv, scaled = common_denominator([ONE / (ONE - Q * Q), Q / (ONE - Q), ZERO, QRat.q_power(-2)])
    same(inv, ONE / (QRat.q_power(4) - QRat.q_power(2)))
    assert [x.num for x in scaled] == [(0, 0, -1), (0, 0, 0, -1, -1), (), (-1, 0, 1)]


@given(st.lists(st.integers(-10 ** 20, 10 ** 20), max_size=12), st.integers(-10 ** 20, 10 ** 20).filter(bool),
       st.integers(1, 24))
@example([], 1, 1)
@example([3, -1], 2, 2)
@example([5, 0, -7], 4, 9)  # k above half the length of the product
@settings(max_examples=200, deadline=None)
def test_division_by_qk_minus_1_is_exact_division(cs, top, k):
    # the running sums per residue class mod k give the quotient of a product
    # p (q^k - 1) that poly_divexact gives, for any k against the length of p
    qk_minus_1 = (-1,) + (0,) * (k - 1) + (1,)
    a = poly_mul(tuple(cs) + (top,), qk_minus_1)
    assert tuple(qfield._over_qk_minus_1(list(a), k)) == poly_divexact(a, qk_minus_1)
