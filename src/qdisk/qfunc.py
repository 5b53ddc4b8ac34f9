"""Little q-Jacobi coefficients, exactly over Q(q), in base q^b (q replaced by
q^b throughout; the q-disk polynomials of `diskpoly` take base q^2).  Each is
the one before it times a ratio of factors 1 - q^k, so they are `Cyclo`s,
converted to `QRat` once.  The Jackson q-integral routes that check them
(orthogonality, the integral shift identity) are in the tests' `reference`.
"""

from __future__ import annotations

from .qfield import Cyclo, _check_ints


def _jacobi_coeffs(m: int, a_exp: int, b_exp: int, base_exp: int) -> list:
    """The coefficients of `little_q_jacobi` as `Cyclo`s, each the one before
    it times (1 - q^(k-m)) (1 - a b q^(m+1+k)) q / ((1 - a q^(1+k)) (1 - q^(1+k)))."""
    _check_ints(a_exp, b_exp, base_exp)
    _check_ints(m, least=0)
    if base_exp == 0:
        raise ValueError("base exponent must be nonzero")
    if 0 <= -(a_exp + 1) < m:
        raise ValueError("vanishing Pochhammer denominator: a q^(1+i) = 1")
    b, coeffs = base_exp, [Cyclo()]
    for k in range(m):
        step = Cyclo.one_minus((k - m) * b, (a_exp + b_exp + m + 1 + k) * b) * Cyclo(1, b)
        coeffs.append(coeffs[-1] * step / Cyclo.one_minus((a_exp + 1 + k) * b, (k + 1) * b))
    return coeffs


def little_q_jacobi(m: int, a_exp: int, b_exp: int, base_exp: int = 1) -> tuple:
    """The coefficients of x^0 .. x^m, ascending, of p_m(x; q^(a*b), q^(b*b'); q^b)
    with b = base_exp: the terminating series

    sum_k  (q^-m; q)_k (a b q^(m+1); q)_k / ((a q; q)_k (q; q)_k) (qx)^k

    in base q^base_exp, with a = q^(a_exp*base), b = q^(b_exp*base).  The
    constant term is 1; a factor 1 - a b q^(m+1+k) that vanishes zeroes
    every coefficient from x^(k+1) on."""
    return tuple(c.to_qrat() for c in _jacobi_coeffs(m, a_exp, b_exp, base_exp))
