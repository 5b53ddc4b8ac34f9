"""q-disk polynomials in three noncommuting arguments, divisionlessly.

R_{l,m}^(alpha)(A, B, C; q^2) homogenizes the little q-Jacobi expansion:
with coef_k the base-q^2 Jacobi coefficient of x^k (q^2k included), it is

    l >= m:  sum_k coef_k C^(m-k) A^(l-m) (C - AB)^k
    l <= m:  sum_k coef_k C^(l-k) (C - AB)^k B^(m-l)

where the Jacobi parameters are (alpha, l-m) at degree m, respectively
(alpha, m-l) at degree l.  C must commute with A and with B (checked);
no inverses of C are ever formed.

The sum is taken scaled: with L the lcm of the denominators of the coef_k
(products of q-powers and factors 1 - q^2j) and mm = min(l, m), it is

    L R = H = sum_k (L coef_k) C^(mm-k) E_k,   E_k = A^(l-m) D^k or D^k B^(m-l),   D = C - AB,

as above.  Each L coef_k is a polynomial, so when A, B and C have Laurent
coefficients every sum and product stays on the gcd-free path, and
`disk_poly` divides by L once per output term.  The coef_k are `Cyclo`s
(`qfield`), so L is their exponent lcm, and `_jacobi` expands each L
coef_k to a polynomial once per spec, with no gcd.  C commutes with A, B, D
and so with each E_k, and H is taken by Horner's rule in C: H_0 = (L coef_0)
E_0, H_k = H_(k-1) C + (L coef_k) E_k.  `_DiskArgs` checks C once and keeps
the powers and E_k it forms across specs, so no element product follows H.

H C needs no structure row when C = Q_n, central in Z_n, or Q_n1 (x) Q_n2, as
in every bundle here and in `tensor`: moving z_a left past z_j and w_a right
past w_j (j > a) costs q^-1, so with t_a = sum_{j > a} (lam_j + mu_j),

    z^lam w^mu Q_n = sum_a (z^lam z_a)(w_a w^mu) = sum_a q^-t_a z^(lam + e_a) w^(mu + e_a),

and Q_n1 (x) Q_n2 moves each factor, the t's added.  With Laurent coefficients
H then stays packed (`zalgebra`) at one slot width s: each E_k and L coef_k is
packed once, a step adds each term shifted by s (big - t) onto its moves (big
the largest t_1 of the keys), and H is read back once.  A key of H_(k-1) C
takes at most |C| = n or n1 n2 moves of mass 1, so with |x| the largest sum of
absolute integer coefficients in one coefficient of x, |H_k| <= |C| |H_(k-1)|
+ |E_k| |L coef_k| < 2^(s-1).  Other sums take `QRat`s; no size cutoff pays (CHANGES.md).

The spherical and associated elements and the rhs factors of the addition
formula (`tensor`) are products down Z_n > Z_(n-1) > ..., level n on the left,
of L R(z_i, w_i, Q_i).  `_chain` is their one memo, kept for the process: each
level is built on its rank's one bundle, and the levels below are embedded
once.  Callers never receive a cached element.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb

from .qfield import ONE, Cyclo, _check_ints, _is_qpow, _width, mass, pack_laurent, peak
from .qfunc import _jacobi_coeffs
from .zalgebra import ZElement, _check_rank, _element, _Memo, _unpacked, embed, q_element, w_gen, z_gen

# Caps on disk degrees, which `DiskSpec` owns, and on spherical terms.  The slowest admitted cases
# found, verify_addition(8, 8, 16) and assoc_spherical(8, 8, 2, 0, 8), took 7.8 s and 102 MB, and
# 3.5 s and 87 MB, on a 2-vCPU x86-64 host (spherical(5, 5, 16), before the term cap, 17 s).
MAX_DISK_DEGREE = 8
MAX_SPHERICAL_TERMS = 1716


class DiskSpec(namedtuple("DiskSpec", "l m alpha")):
    """Degrees and parameter of one q-disk polynomial; base fixed at q^2.
    A named tuple, so immutable, hashable and compared by value at C speed
    (specs key the `lru_cache` tables); every construction is checked,
    the degrees against MAX_DISK_DEGREE."""

    __slots__ = ()

    def __new__(cls, l: int, m: int, alpha: int):
        _check_ints(l, m, alpha, least=0)
        if max(l, m) > MAX_DISK_DEGREE:
            raise ValueError(f"disk degree {max(l, m)}, above {MAX_DISK_DEGREE}")
        return super().__new__(cls, int(l), int(m), int(alpha))  # bools made ints

    @classmethod
    def _make(cls, iterable):  # also serves _replace
        return cls(*iterable)


@lru_cache(maxsize=None)
def _jacobi(spec: DiskSpec) -> tuple:
    """(L, 1/L, (L coef_0, L coef_1, ...)) of `jacobi_scaled`, L a `Cyclo` and the rest `QRat`s."""
    coeffs = _jacobi_coeffs(min(spec.l, spec.m), spec.alpha, abs(spec.l - spec.m), 2)
    lcm = Cyclo.lcm(coeffs)
    return lcm, (Cyclo() / lcm).to_qrat(), tuple((lcm * c).to_qrat() for c in coeffs)


def jacobi_scaled(spec: DiskSpec) -> tuple:
    """(1/L, (L coef_0, L coef_1, ...)) for the little q-Jacobi coefficients of the spec,
    L the lcm of their denominators, each L coef_k a polynomial; ValueError unless a `DiskSpec`."""
    if not isinstance(spec, DiskSpec):
        raise ValueError(f"expected a DiskSpec, got {spec!r}")
    return _jacobi(spec)[1:]


def _moves(lam: tuple, mu: tuple) -> tuple:
    """The moves (key, t_a) of z^lam w^mu times Q_n (module docstring), a = n, .., 1."""
    return tuple(((lam[:a] + (lam[a] + 1,) + lam[a + 1:], mu[:a] + (mu[a] + 1,) + mu[a + 1:]),
                  sum(lam[a + 1:]) + sum(mu[a + 1:])) for a in reversed(range(len(lam))))


class _DiskArgs:
    """Arguments (A, B, C), checked once: C commutes with A and B, else ValueError.
    Powers of A, B and D = C - AB, the E_k and the moves are kept, so rewrites are idempotent."""

    def __init__(self, A, B, C):
        for x in (A, B, C):
            _element(x, "disk_poly")
        for name, other in (("A", A), ("B", B)):
            if C * other != other * C:
                raise ValueError(f"C does not commute with {name}")
        self.C, one = C, A.one_like()
        self.pows = {"A": {0: one, 1: A}, "B": {0: one, 1: B}, "D": {0: one, 1: C - A * B}, "E": {}}
        qs = [q_element(n, n).terms for n in C.ranks]  # the moves serve C = Q_n, Q_n1 (x) Q_n2
        central = qs[0] if len(qs) == 1 else {(x, y): ONE for x in qs[0] for y in qs[1]}
        self.moves = _Memo(_moves) if C.terms == central else None

    def power(self, name: str, k: int):
        pows = self.pows[name]
        for j in range(len(pows), k + 1):
            pows[j] = pows[j - 1] * pows[1]
        return pows[k]

    def fold(self, j: int, k: int):
        """E_k = A^j D^k for j >= 0, D^k B^-j for j < 0 (module docstring), kept per (j, k)."""
        if (j, k) not in self.pows["E"]:
            x, d = self.power("A" if j >= 0 else "B", abs(j)), self.power("D", k)
            self.pows["E"][j, k] = d if not j else x if not k else x * d if j > 0 else d * x
        return self.pows["E"][j, k]

    def _times_c(self, acc: dict, s: int, kh: int) -> tuple:
        """(H C, kh + big) for H packed at slot width s over q^kh (module docstring)."""
        moves, out = self.moves, {}
        if len(self.C.ranks) == 1:  # the last move has the largest t, t_1
            big = max(moves[key][-1][1] for key in acc)
            for key, v in acc.items():
                for key2, t in moves[key]:
                    out[key2] = out.get(key2, 0) + (v << s * (big - t))
            return out, kh + big
        bl, br = (max(moves[key[f]][-1][1] for key in acc) for f in (0, 1))
        for (kl, kr), v in acc.items():
            right = [(k2, s * (br - t)) for k2, t in moves[kr]]
            for k1, t in moves[kl]:
                sl = s * (bl - t)
                for k2, sr in right:
                    out[k1, k2] = out.get((k1, k2), 0) + (v << (sl + sr))
        return out, kh + bl + br

    def _packed_horner(self, coefs: tuple, j: int = 0):
        """H over the E_k of A^j or B^-j by the packed Horner sum (module docstring), or None."""
        es = [self.fold(j, k) for k in range(len(coefs))]
        if self.moves is None or len(coefs) < 2 or not all(  # each L coef_k is a polynomial
                _is_qpow(c.den) for x in es for c in x.terms.values()):
            return None
        bound = 0
        for coef, x in zip(coefs, es):
            bound = bound * len(self.C.terms) + peak(x.terms.values()) * mass([coef])
        s, acc, kh = _width(bound.bit_length() + 1), {}, 0
        for k, coef in enumerate(coefs):
            if k:  # H_(k-1) C
                acc, kh = self._times_c(acc, s, kh)
            (kx, (x,)), (kd, pd) = pack_laurent([coef], s), pack_laurent(list(es[k].terms.values()), s)
            if kx + kd > kh:  # over the larger power of q
                acc, kh = {key: v << (s * (kx + kd - kh)) for key, v in acc.items()}, kx + kd
            for key, y in zip(es[k].terms, pd):
                acc[key] = acc.get(key, 0) + ((x * y) << (s * (kh - kx - kd)))
        return self.C._like(_unpacked(acc, s, kh))

    def scaled(self, spec: DiskSpec):
        """L R_{l,m}^(alpha)(A, B, C), by the Horner sum of the module docstring."""
        j, scaled = spec.l - spec.m, _jacobi(spec)[2][:min(spec.l, spec.m) + 1]
        result = self._packed_horner(scaled, j)
        if result is None:
            result = self.fold(j, 0) * scaled[0]
            for k in range(1, len(scaled)):
                result = result * self.C + self.fold(j, k) * scaled[k]
        return result


def disk_poly(spec: DiskSpec, A, B, C):
    """Evaluate R_{l,m}^(alpha)(A, B, C; q^base) on elements of Z_n or of a
    tensor product: the scaled sum L R of `_DiskArgs.scaled`, divided by L
    once per output term.  ValueError on a spec that is not a `DiskSpec`, on a
    non-element and when C fails to commute with A or with B."""
    inv_lcm = jacobi_scaled(spec)[0]  # checks the spec before any element work
    return _DiskArgs(A, B, C).scaled(spec) * inv_lcm


@lru_cache(maxsize=None)
def _rank_args(n: int) -> _DiskArgs:
    """The checked bundle (z_n, w_n, Q_n) of Z_n."""
    return _DiskArgs(z_gen(n, n), w_gen(n, n), q_element(n, n))


@lru_cache(maxsize=None)
def _chain(n: int, *specs: DiskSpec) -> ZElement:
    """The product in Z_n, level n on the left, of L R_spec(z_i, w_i, Q_i) over the specs for
    i = n, n - 1, ..., each L the lcm of its spec's Jacobi denominators."""
    if len(specs) == 1:
        return _rank_args(n).scaled(specs[0])
    return _chain(n, specs[0]) * embed(_chain(n - 1, *specs[1:]), n)


def _check_spherical(l: int, m: int, n: int, *rs) -> tuple:
    """(n, DiskSpec(l, m, n - 2)) of `spherical`, or of `assoc_spherical` for rs = (r, s); ValueError,
    before any element is built, past any cap or rule: C(n - 1 + k, k) C(n - 2 + j, j) terms,
    k = min(l - r, m - s) and j = min(r, s), and Q_n's n terms."""
    n, least = _check_rank(n), 3 if rs else 2
    if n < least:
        raise ValueError(f"{'associated ' if rs else ''}spherical elements need rank at least {least}")
    spec, (r, s, _) = DiskSpec(l, m, n - 2), DiskSpec(*(rs or (0, 0)), n - 2)
    if r > spec.l or s > spec.m:
        raise ValueError("need 0 <= r <= l and 0 <= s <= m")
    k, j = min(spec.l - r, spec.m - s), min(r, s)
    terms = comb(n - 1 + k, k) * comb(n - 2 + j, j)
    if terms > MAX_SPHERICAL_TERMS:
        raise ValueError(f"spherical element of {terms} terms, above {MAX_SPHERICAL_TERMS}")
    _check_rank(n, max(n, terms))
    return n, spec


def spherical(l: int, m: int, n: int) -> ZElement:
    """Bidegree-(l, m) zonal spherical element of the rank-n quantum sphere,
    as its homogeneous representative R_{l,m}^(n-2)(z_n, w_n, Q_n; q^2)."""
    n, spec = _check_spherical(l, m, n)
    return _chain(n, spec) * _jacobi(spec)[1]


def assoc_spherical(l: int, m: int, r: int, s: int, n: int) -> ZElement:
    """Associated spherical element: the (l-r, m-s) disk polynomial on the
    top generators times the (r, s) one on the next level down."""
    n, (l, m, _) = _check_spherical(l, m, n, r, s)
    outer, inner = DiskSpec(l - r, m - s, n - 2 + r + s), DiskSpec(r, s, n - 3)
    return _chain(n, outer, inner) * (_jacobi(outer)[1] * _jacobi(inner)[1])
