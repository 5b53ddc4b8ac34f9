"""q-disk polynomials in three noncommuting arguments, divisionlessly.

R_{l,m}^(alpha)(A, B, C; q^2) homogenizes the little q-Jacobi expansion:
with coef_k the base-q^2 Jacobi coefficient of x^k (q^2k included), it is

    l >= m:  sum_k coef_k C^(m-k) A^(l-m) (C - AB)^k
    l <= m:  sum_k coef_k C^(l-k) (C - AB)^k B^(m-l)

where the Jacobi parameters are (alpha, l-m) at degree m, respectively
(alpha, m-l) at degree l.  C must commute with A and with B (checked);
no inverses of C are ever formed.

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
checks C once and keeps the powers it forms for every spec it evaluates.

For `ZElement`s with Laurent coefficients H stays packed (`zalgebra`) from
start to end, at one slot width s: C, each D^k and each L coef_k are packed
once, each step is one `zalgebra._core` pass over the shifted rows of
H_(k-1) C, and H is read back once.  With |x| the sum of the absolute values
of x's integer coefficients and S_k the largest row mass of step k, |H_k| <=
|H_(k-1)| |C| S_k + |D^k| |L coef_k| bounds every coefficient, and s puts
that bound on H below 2^(s-1).  A step's plan (the keys H_k may have, the
rows of H_(k-1) C, S_k) depends on neither alpha nor mm: the bundle keeps it
with its powers.  Other coefficients, and sums whose last step has fewer
than `zalgebra._PACK_MIN_PAIRS` term pairs, take the Horner rule on `QRat`s.

On (z_i, w_i, Q_i) in Z_n, L R gives the spherical elements (i = n), the two
factors of the associated ones (i = n, n - 1) and the rhs factors of the
addition formula (`tensor`).  `_sphere` is their one memo, on one bundle per
rank, embedding Z_i into Z_n for i < n.  Callers never receive a cached element.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .qfield import Cyclo, _check_ints, _is_qpow, _width, mass, pack_laurent
from .qfunc import _jacobi_coeffs
from .zalgebra import (_PACK_MIN_PAIRS, ZElement, _core, _element, _row_mass, _shift_sum, _shifted,
                       _tables, _unpacked, embed, q_element, w_gen, z_gen)


class DiskSpec(namedtuple("DiskSpec", "l m alpha")):
    """Degrees and parameter of one q-disk polynomial; base fixed at q^2.
    A named tuple, so immutable, hashable and compared by value at C speed
    (specs key the `lru_cache` tables); every construction is checked."""

    __slots__ = ()

    def __new__(cls, l: int, m: int, alpha: int):
        _check_ints(l, m, alpha)
        if l < 0 or m < 0:
            raise ValueError("degrees must be nonnegative")
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        return super().__new__(cls, l, m, alpha)

    @classmethod
    def _make(cls, iterable):  # also serves _replace
        return cls(*iterable)


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
        for x in (A, B, C):
            _element(x, "disk_poly")
        for name, other in (("A", A), ("B", B)):
            if C * other != other * C:
                raise ValueError(f"C does not commute with {name}")
        self.C, one = C, A.one_like()
        self.pows = {"A": {0: one, 1: A}, "B": {0: one, 1: B}, "D": {0: one, 1: C - A * B}}
        self.steps = [(set(one.terms), [], 0)]

    def power(self, name: str, k: int):
        pows = self.pows[name]
        for j in range(len(pows), k + 1):
            pows[j] = pows[j - 1] * pows[1]
        return pows[k]

    def step(self, k: int) -> tuple:
        """The plan (keys, tables, S) of Horner step k: the keys H_k may have (those
        the core reaches), the structure rows of H_(k-1) C and their largest mass."""
        for j in range(len(self.steps), k + 1):
            prev, C = self.steps[j - 1][0], self.C.terms
            tables, keys = _tables(prev, C, self.C.ranks), dict.fromkeys(self.power("D", j).terms)
            _core([(x, 0) for x in prev], [(y, 0) for y in C], tables, keys, lambda v, p, c: p, 0)
            self.steps.append((set(keys), tables, _row_mass(tables)))
        return self.steps[k]

    def _packed_horner(self, coefs: tuple):
        """H by the packed Horner sum (module docstring), or None where it does not apply."""
        C, pows = self.C, [self.power("D", k) for k in range(len(coefs))]
        if (len(coefs) < 2
                or not all(_is_qpow(c.den) for x in [C] + pows for c in x.terms.values())
                or not all(_is_qpow(c.den) for c in coefs)
                or len(self.step(len(coefs) - 2)[0]) * len(C.terms) < _PACK_MIN_PAIRS):
            return None
        bound, mass_c = 0, mass(C.terms.values())
        for k, coef in enumerate(coefs):
            bound = bound * mass_c * self.step(k)[2] + mass(pows[k].terms.values()) * mass([coef])
        s, acc, kh = _width(bound.bit_length() + 1), {}, 0
        kc, pc = pack_laurent(list(C.terms.values()), s)
        for k, coef in enumerate(coefs):
            if k:  # H_(k-1) C
                prev, acc = [(key, v) for key, v in acc.items() if v], {}
                kf, rows = _shifted(self.step(k)[1], s)
                _core(prev, list(zip(C.terms, pc)), rows, acc, _shift_sum, 0)
                kh += kc + kf
            (kx, (x,)), (kd, pd) = pack_laurent([coef], s), pack_laurent(list(pows[k].terms.values()), s)
            if kx + kd > kh:  # over the larger power of q
                acc, kh = {key: v << (s * (kx + kd - kh)) for key, v in acc.items()}, kx + kd
            for key, y in zip(pows[k].terms, pd):
                acc[key] = acc.get(key, 0) + ((x * y) << (s * (kh - kx - kd)))
        return C._like(_unpacked(acc, s, kh))

    def scaled(self, spec: DiskSpec):
        """L R_{l,m}^(alpha)(A, B, C), by the Horner sum of the module docstring."""
        l, m = spec.l, spec.m
        scaled = jacobi_scaled(spec)[1][:min(l, m) + 1]
        result = self._packed_horner(scaled)
        if result is None:
            result = self.power("D", 0) * scaled[0]
            for k in range(1, len(scaled)):
                result = result * self.C + self.power("D", k) * scaled[k]
        if l > m:
            result = self.power("A", l - m) * result
        elif m > l:
            result = result * self.power("B", m - l)
        return result


def disk_poly(spec: DiskSpec, A, B, C):
    """Evaluate R_{l,m}^(alpha)(A, B, C; q^base) on elements of Z_n or of a
    tensor product: the scaled sum L R of `_DiskArgs.scaled`, divided by L
    once per output term.  ValueError on a spec that is not a `DiskSpec`, on a
    non-element and when C fails to commute with A or with B."""
    if not isinstance(spec, DiskSpec):
        raise ValueError(f"disk_poly takes a DiskSpec, not {spec!r}")
    return _DiskArgs(A, B, C).scaled(spec) * jacobi_scaled(spec)[0]


@lru_cache(maxsize=None)
def _rank_args(n: int) -> _DiskArgs:
    """The checked bundle (z_n, w_n, Q_n) of Z_n."""
    return _DiskArgs(z_gen(n, n), w_gen(n, n), q_element(n, n))


@lru_cache(maxsize=None)
def _sphere(i: int, n: int, spec: DiskSpec) -> ZElement:
    """L R_spec(z_i, w_i, Q_i) in Z_n, L the lcm of the spec's Jacobi denominators."""
    if i < n:
        return embed(_sphere(i, i, spec), n)
    return _rank_args(n).scaled(spec)


def spherical(l: int, m: int, n: int) -> ZElement:
    """Bidegree-(l, m) zonal spherical element of the rank-n quantum sphere,
    as its homogeneous representative R_{l,m}^(n-2)(z_n, w_n, Q_n; q^2)."""
    if n < 2:
        raise ValueError("spherical elements need rank at least 2")
    spec = DiskSpec(l, m, n - 2)
    return _sphere(n, n, spec) * jacobi_scaled(spec)[0]


def assoc_spherical(l: int, m: int, r: int, s: int, n: int) -> ZElement:
    """Associated spherical element: the (l-r, m-s) disk polynomial on the
    top generators times the (r, s) one on the next level down."""
    if n < 3:
        raise ValueError("associated spherical elements need rank at least 3")
    if not (0 <= r <= l and 0 <= s <= m):
        raise ValueError("need 0 <= r <= l and 0 <= s <= m")
    outer, inner = DiskSpec(l - r, m - s, n - 2 + r + s), DiskSpec(r, s, n - 3)
    return (_sphere(n, n, outer) * _sphere(n - 1, n, inner)
            * (jacobi_scaled(outer)[0] * jacobi_scaled(inner)[0]))
