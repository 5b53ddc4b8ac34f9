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
`disk_poly` divides by L once per output term.  The coef_k are `Cyclo`s
(`qfield`), so L is their exponent lcm, and `jacobi_scaled` expands each L
coef_k to a polynomial once per spec, with no gcd.  C commutes with A and B,
hence with D, so H is evaluated by Horner's rule in C:
H_0 = L coef_0, H_k = H_(k-1) C + (L coef_k) D^k.  `_DiskArgs` evaluates it; it
checks C once and keeps the powers it forms, so a bundle kept by `tensor` shares them.
"""

from __future__ import annotations

from functools import lru_cache

from .qfield import Cyclo, Record
from .qfunc import _jacobi_coeffs
from .zalgebra import ZElement, q_element, w_gen, z_gen


class _Hashed(Record):
    """A Record with a slot for its hash: a Record's fields are its class's
    __slots__, so the slot sits in this base."""

    __slots__ = ("_hash",)


class DiskSpec(_Hashed):
    """Degrees and parameter of one q-disk polynomial; base fixed at q^2.
    Immutable, hashable and compared by value.  The hash is computed once,
    as specs key the `lru_cache` tables of the verification path."""

    __slots__ = ("l", "m", "alpha")

    def __init__(self, l: int, m: int, alpha: int):
        if l < 0 or m < 0:
            raise ValueError("degrees must be nonnegative")
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        super().__init__(l, m, alpha)
        object.__setattr__(self, "_hash", hash((l, m, alpha)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a DiskSpec")

    def __hash__(self):
        return self._hash


@lru_cache(maxsize=None)
def _jacobi(spec: DiskSpec) -> tuple:
    """(L, (L coef_0, L coef_1, ...)) as `Cyclo`s: the little q-Jacobi
    coefficients of the spec, L the lcm of their denominators."""
    coeffs = _jacobi_coeffs(min(spec.l, spec.m), spec.alpha, abs(spec.l - spec.m), 2)
    lcm = Cyclo.lcm(coeffs)
    return lcm, tuple(lcm * c for c in coeffs)


@lru_cache(maxsize=None)
def jacobi_scaled(spec: DiskSpec) -> tuple:
    """(1/L, (L coef_0, L coef_1, ...)) for the little q-Jacobi coefficients
    of the spec, L the lcm of their denominators, each L coef_k a polynomial."""
    lcm, scaled = _jacobi(spec)
    return (Cyclo() / lcm).to_qrat(), tuple(c.to_qrat() for c in scaled)


class _DiskArgs:
    """Arguments (A, B, C), checked once: C commutes with A and B, else ValueError.
    Powers of A, B and D = C - AB are kept by exponent, so rewrites are idempotent."""

    def __init__(self, A, B, C):
        for name, other in (("A", A), ("B", B)):
            if C * other != other * C:
                raise ValueError(f"C does not commute with {name}")
        self.C, one = C, A.one_like()
        self.pows = {"A": {0: one, 1: A}, "B": {0: one, 1: B}, "D": {0: one, 1: C - A * B}}

    def power(self, name: str, k: int):
        pows = self.pows[name]
        for j in range(len(pows), k + 1):
            pows[j] = pows[j - 1] * pows[1]
        return pows[k]

    def scaled(self, spec: DiskSpec):
        """L R_{l,m}^(alpha)(A, B, C), by the Horner sum of the module docstring."""
        l, m = spec.l, spec.m
        scaled = jacobi_scaled(spec)[1]
        result = self.power("D", 0) * scaled[0]
        for k in range(1, min(l, m) + 1):
            result = result * self.C + self.power("D", k) * scaled[k]
        if l > m:
            result = self.power("A", l - m) * result
        elif m > l:
            result = result * self.power("B", m - l)
        return result


def scaled_disk_poly(spec: DiskSpec, A, B, C):
    """L R_{l,m}^(alpha)(A, B, C; q^base), with (1/L, scaled) = jacobi_scaled(spec),
    by the Horner sum of the module docstring.

    Raises ValueError when C fails to commute with A or with B."""
    return _DiskArgs(A, B, C).scaled(spec)


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
