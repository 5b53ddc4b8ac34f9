import pytest

from qdisk.qfield import ONE, QRat, ZERO, qpoch
from reference import (
    MultiQPoly,
    UniPoly,
    falling_weight,
    jackson_integral,
    jackson_scale,
    little_q_jacobi,
    multi_jackson,
    multi_jackson_partial,
    rising_weight,
    shift_identity_check,
)

qp = QRat.q_power


def test_degree_and_normalization():
    for m in range(5):
        p = little_q_jacobi(m, 2, 1)
        assert p.degree() == m
        assert p.constant_term() == ONE


def test_first_degree_coefficient_built_from_raw_powers():
    # alpha = 1, beta = 1, base q: coefficient of x is
    # (1 - q^-1)(1 - q^4) q / ((1 - q^2)(1 - q)) = -(1 + q^2)
    p = little_q_jacobi(1, 1, 1)
    expected = (ONE - qp(-1)) * (ONE - qp(4)) * qp(1) / ((ONE - qp(2)) * (ONE - qp(1)))
    assert expected == QRat((-1, 0, -1))
    assert p.coeffs[1] == expected


def test_base_two_is_substitution():
    # replacing q by q^2 in every coefficient of the base-q polynomial
    p1 = little_q_jacobi(2, 1, 1, 1)
    p2 = little_q_jacobi(2, 1, 1, 2)
    for c1, c2 in zip(p1.coeffs, p2.coeffs):
        subbed = QRat([0 if i % 2 else c1.num[i // 2] for i in range(2 * len(c1.num) - 1)] if c1.num else (),
                      [0 if i % 2 else c1.den[i // 2] for i in range(2 * len(c1.den) - 1)])
        assert c2 == subbed


def test_vanishing_denominator_rejected():
    with pytest.raises(ValueError):
        little_q_jacobi(1, -1, 0)
    with pytest.raises(ValueError):
        little_q_jacobi(2, 1, 1, 0)


def test_jackson_monomial_rule():
    for k in range(6):
        v = jackson_integral(UniPoly.x_power(k))
        assert v == (ONE - qp(1)) / (ONE - qp(k + 1))
    assert jackson_integral(UniPoly.x_power(2), 2) == (ONE - qp(2)) / (ONE - qp(6))


def test_q_beta_integral():
    for alpha in range(4):
        for beta in range(4):
            lhs = jackson_integral(UniPoly.x_power(alpha) * rising_weight(beta))
            rhs = (ONE - qp(1)) * qpoch(1, 1, alpha) * qpoch(1, 1, beta) / qpoch(1, 1, alpha + beta + 1)
            assert lhs == rhs, (alpha, beta)


def test_jackson_scale_definite_rule():
    p = jackson_scale(UniPoly.x_power(3))
    assert p.coeffs == (ZERO, ZERO, ZERO, ZERO, (ONE - qp(1)) / (ONE - qp(4)))
    assert p.eval_at(ONE) == jackson_integral(UniPoly.x_power(3))


def test_scaling_identity():
    # int_0^c f(x/c) d_q x = c int_0^1 f(x) d_q x, coefficients tracked exactly
    f = UniPoly([ONE, qp(2), QRat.from_int(3)])
    lhs_linear_coeff = ZERO
    for k, a in enumerate(f.coeffs):
        scaled = jackson_scale(UniPoly.x_power(k))
        # divide the C^(k+1) result by C^k
        lhs_linear_coeff = lhs_linear_coeff + a * scaled.coeffs[k + 1]
    lhs = UniPoly([ZERO, lhs_linear_coeff])
    rhs = UniPoly([ZERO, jackson_integral(f)])
    assert lhs == rhs


@pytest.mark.parametrize("base", [1, 2])
def test_shift_identity(base):
    f = UniPoly([ONE, qp(1), QRat.from_int(-2), ONE])
    for alpha in range(3):
        for beta in range(3):
            assert shift_identity_check(f, alpha, beta, base)


def test_falling_weight_shape():
    w = falling_weight(2)
    # (x; q^-1)_2 = (1 - x)(1 - q^-1 x)
    assert w == UniPoly([ONE, -ONE]) * UniPoly([ONE, -qp(-1)])


def test_orthogonality_against_lower_monomials():
    # degree-m member is orthogonal to every lower monomial for the weight
    # x^alpha (qx; q)_beta; with constant term 1 this pins the polynomial
    for alpha in range(3):
        for beta in range(3):
            for m in range(4):
                p = little_q_jacobi(m, alpha, beta)
                for j in range(m):
                    v = jackson_integral(p * UniPoly.x_power(alpha + j) * rising_weight(beta))
                    assert v == ZERO, (alpha, beta, m, j)


def test_orthogonality_closed_form():
    for alpha in range(3):
        for beta in range(3):
            for l in range(3):
                for m in range(3):
                    pl = little_q_jacobi(l, alpha, beta)
                    pm = little_q_jacobi(m, alpha, beta)
                    v = jackson_integral(pl * pm * UniPoly.x_power(alpha) * rising_weight(beta))
                    if l != m:
                        assert v == ZERO
                    else:
                        expect = ((ONE - qp(1)) * qp(m * (alpha + 1))
                                  / (ONE - qp(alpha + beta + 2 * m + 1))
                                  * qpoch(1, 1, m) * qpoch(1, 1, beta + m)
                                  / (qpoch(alpha + 1, 1, m) * qpoch(alpha + 1, 1, beta + m)))
                        assert v == expect, (alpha, beta, m)


# ---------------------------------------------------------------- ladder integral


def test_multi_jackson_examples():
    assert multi_jackson(MultiQPoly.monomial(1, (1,)), 2) == (ONE - qp(2)) / (ONE - qp(4))
    for n in (2, 3, 4):
        assert multi_jackson(MultiQPoly.one(n - 1), n) == ONE


def test_partial_integral_of_one():
    for n in (3, 4, 5):
        part = multi_jackson_partial(MultiQPoly.one(n - 1), n)
        expect_coeff = (ONE - qp(2)) ** (n - 2) / qpoch(2, 2, n - 2)
        expected = UniPoly([ZERO] * (n - 2) + [expect_coeff])
        assert part == expected


def test_multi_jackson_validation():
    with pytest.raises(ValueError):
        multi_jackson(MultiQPoly.one(2), 2)
    with pytest.raises(ValueError):
        multi_jackson_partial(MultiQPoly.one(1), 1)


def test_multiqpoly_ring_ops():
    a = MultiQPoly(2, {(1, 0): ONE, (0, 1): qp(2)})
    b = MultiQPoly(2, {(1, 1): ONE})
    assert (a * b).terms == {(2, 1): ONE, (1, 2): qp(2)}
    assert (a + a).terms == {(1, 0): QRat.from_int(2), (0, 1): qp(2) * 2}
    assert a - a == MultiQPoly.zero(2)
