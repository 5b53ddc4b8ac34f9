"""q-disk polynomials in three noncommuting arguments, divisionlessly.

R_{l,m}^(alpha)(A, B, C; q^2) homogenizes the little q-Jacobi expansion:
with coef_k the base-q^2 Jacobi coefficient of x^k (q^2k included), it is

    l >= m:  sum_k coef_k C^(m-k) A^(l-m) (C - AB)^k
    l <= m:  sum_k coef_k C^(l-k) (C - AB)^k B^(m-l)

where the Jacobi parameters are (alpha, l-m) at degree m, respectively
(alpha, m-l) at degree l.  C must commute with A and with B (checked);
no inverses of C are ever formed.  Specializing (A, B, C) to
(z_n, w_n, Q_n) gives the zonal spherical elements of the quantum
sphere; with a second factor in the next lower rank it gives the
associated spherical elements.

The sum is taken scaled: with L the lcm of the denominators of the coef_k
(products of q-powers and factors 1 - q^2j) and mm = min(l, m),

    L R = A^(l-m) H B^(m-l),   H = sum_k (L coef_k) C^(mm-k) D^k,  D = C - AB,

with the power of A present only for l > m and that of B only for m > l.
Each L coef_k is a polynomial, so when A, B and C have Laurent
coefficients every sum and product stays on the gcd-free path, and
`disk_poly` divides by L once per output term.  C commutes with A and B,
hence with D, so H is evaluated by Horner's rule in C:
H_0 = L coef_0, H_k = H_(k-1) C + (L coef_k) D^k.
"""

from __future__ import annotations

from functools import lru_cache

from .qfield import Record, common_denominator
from .qfunc import little_q_jacobi
from .zalgebra import ZElement, q_element, w_gen, z_gen


class DiskSpec(Record):
    """Degrees and parameter of one q-disk polynomial; base fixed at q^2.
    Immutable, hashable and compared by value."""

    __slots__ = ("l", "m", "alpha", "base_exp")

    def __init__(self, l: int, m: int, alpha: int, base_exp: int = 2):
        if l < 0 or m < 0:
            raise ValueError("degrees must be nonnegative")
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        super().__init__(l, m, alpha, base_exp)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a DiskSpec")

    def __hash__(self):
        return hash(self._values())


@lru_cache(maxsize=None)
def jacobi_scaled(spec: DiskSpec) -> tuple:
    """(1/L, (L coef_0, L coef_1, ...)) for the little q-Jacobi coefficients
    of the spec, L the lcm of their denominators, each L coef_k a polynomial."""
    mm, beta = min(spec.l, spec.m), abs(spec.l - spec.m)
    return common_denominator(little_q_jacobi(mm, spec.alpha, beta, spec.base_exp).coeffs)


def scaled_disk_poly(spec: DiskSpec, A, B, C):
    """L R_{l,m}^(alpha)(A, B, C; q^base), with (1/L, scaled) = jacobi_scaled(spec),
    by the Horner sum of the module docstring.

    Raises ValueError when C fails to commute with A or with B."""
    for name, other in (("A", A), ("B", B)):
        if C * other != other * C:
            raise ValueError(f"C does not commute with {name}")
    l, m = spec.l, spec.m
    scaled = jacobi_scaled(spec)[1]
    D = C - A * B
    d_pow = A.one_like()
    result = d_pow * scaled[0]
    for k in range(1, min(l, m) + 1):
        d_pow = d_pow * D
        result = result * C + d_pow * scaled[k]
    if l > m:
        result = A ** (l - m) * result
    elif m > l:
        result = result * B ** (m - l)
    return result


def disk_poly(spec: DiskSpec, A, B, C):
    """Evaluate R_{l,m}^(alpha)(A, B, C; q^base) on elements of any algebra
    supporting +, -, * and scalar multiplication by QRat: the scaled sum,
    divided by L once per output term.

    Raises ValueError when C fails to commute with A or with B."""
    return scaled_disk_poly(spec, A, B, C) * jacobi_scaled(spec)[0]


def spherical(l: int, m: int, n: int) -> ZElement:
    """Bidegree-(l, m) zonal spherical element of the rank-n quantum sphere,
    as its homogeneous representative R_{l,m}^(n-2)(z_n, w_n, Q_n; q^2)."""
    if n < 2:
        raise ValueError("spherical elements need rank at least 2")
    return disk_poly(DiskSpec(l, m, n - 2), z_gen(n, n), w_gen(n, n), q_element(n, n))


def assoc_spherical(l: int, m: int, r: int, s: int, n: int) -> ZElement:
    """Associated spherical element: the (l-r, m-s) disk polynomial on the
    top generators times the (r, s) one on the next level down."""
    if n < 3:
        raise ValueError("associated spherical elements need rank at least 3")
    if not (0 <= r <= l and 0 <= s <= m):
        raise ValueError("need 0 <= r <= l and 0 <= s <= m")
    outer = disk_poly(DiskSpec(l - r, m - s, n - 2 + r + s),
                      z_gen(n, n), w_gen(n, n), q_element(n, n))
    inner = disk_poly(DiskSpec(r, s, n - 3),
                      z_gen(n - 1, n), w_gen(n - 1, n), q_element(n - 1, n))
    return outer * inner
