"""q-disk polynomials in three noncommuting arguments, divisionlessly.

R_{l,m}^(alpha)(A, B, C; q^2) homogenizes the little q-Jacobi expansion: with coef_k the base-q^2
Jacobi coefficient of x^k (q^2k included), Jacobi parameters (alpha, |l-m|) at degree mm = min(l, m),
L the lcm of their denominators (q-powers times factors 1 - q^2j) and D = C - AB, it is taken scaled,

    L R = H = sum_k (L coef_k) C^(mm-k) E_k,   E_k = A^(l-m) D^k (l >= m) or D^k B^(m-l).

C must commute with A and B (checked); no inverse of C is formed.  The coef_k are `Cyclo`s
(`qfield`), so `_jacobi` expands each L coef_k to a Laurent polynomial once per spec, with no
gcd, and `disk_poly` divides by L once per term.  H is taken by Horner's rule in C, H_k =
H_(k-1) C + (L coef_k) E_k, over E_k that `disk_poly`'s bundle `_DiskArgs` forms by products.

H C needs no structure row when C = Q_n, central in Z_n, or Q_n1 (x) Q_n2: moving z_a left
past z_j and w_a right past w_j (j > a) costs q^-1, so with t_a = sum_{j > a} (lam_j + mu_j),
z^lam w^mu Q_n = sum_a q^-t_a z^(lam + e_a) w^(mu + e_a), and Q_n1 (x) Q_n2 moves each factor,
the t's added.  With Laurent coefficients `_packed_sum` keeps H packed (`zalgebra`) at one slot
width s: a step adds each term, shifted by s (big - t), onto its moves (big the largest t_1),
then each product L coef_k E_k, multiplied at the operands' own powers of q and shifted after
(`qfield.pack_laurent`), and H is read back once, or, for the addition verdict of `tensor`, handed
over packed.  A key of H_(k-1) C takes at most |C| = n or n1 n2 moves of mass 1, so with |x| the
largest sum of absolute integer coefficients of one coefficient of x, |H_k| <= |C| |H_(k-1)| +
|E_k| |L coef_k| < 2^(s-1).  The lhs of `tensor` and `disk_poly` take it with no size cutoff; the
`QRat` Horner serves other C and non-Laurent E_k.

The spherical and associated elements and the rhs factors of `tensor` are products down Z_n >
Z_(n-1) > ..., level n on the left, of L R(z_i, w_i, Q_i); `_chain` builds and keeps each with
no element product.  On (z_n, w_n, Q_n), D = Q_n - z_n w_n is Q_(n-1), central in Z_(n-1); for
I in Z_(n-1), z_n^a w_n^b z^lam w^mu = q^((b-a)|lam|) z^(lam + a e_n) w^(mu + b e_n); and
Q_(n-1) w_n = q^-2 w_n Q_(n-1).  So with J_k = Q_(n-1)^k I by central moves at rank n - 1,
E_k I is z_n^j J_k (l >= m, j = l - m) or q^(-2kb) w_n^b J_k (l < m, b = m - l), a shift of
J_k's keys, which all have |lam| = |lam of I| + k, times one power of q, and L R I is one
packed Horner sum in Q_n over them, with |E_k I| <= (n-1)^k |I|, read back once.  Callers
never receive a `_chain` entry.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial
from itertools import repeat
from math import comb

from .qfield import ONE, Cyclo, _check_ints, _is_qpow, _width, mass, pack_laurent, peak
from .qfunc import _jacobi_coeffs
from .zalgebra import ZElement, _check_rank, _element, _Memo, _unpacked, q_element

# Caps on disk degrees and alpha, which `DiskSpec` owns, and on spherical terms.  The slowest admitted cases
# found, verify_addition(8, 8, 16) and assoc_spherical(8, 8, 2, 0, 8), took 2.0-2.6 s and 60 MB, and 0.28-0.44
# s and 27 MB, on a 2-vCPU x86-64 host (spherical(5, 5, 16), before the term cap, 17 s).  No route passes
# alpha above 263 (assoc_spherical(8, 8, 8, 1, 256)); norm_const(8, 8, 512): 0.07 s.
MAX_DISK_DEGREE = 8
MAX_DISK_ALPHA = 512
MAX_SPHERICAL_TERMS = 1716


class DiskSpec(namedtuple("DiskSpec", "l m alpha")):
    """Degrees and parameter of one q-disk polynomial; base fixed at q^2.  A named tuple, so
    immutable, hashable and compared by value at C speed (specs key the `lru_cache` tables);
    every construction is checked, the degrees against MAX_DISK_DEGREE, alpha MAX_DISK_ALPHA."""

    __slots__ = ()

    def __new__(cls, l: int, m: int, alpha: int):
        _check_ints(l, m, alpha, least=0)
        if max(l, m) > MAX_DISK_DEGREE:
            raise ValueError(f"disk degree {max(l, m)}, above {MAX_DISK_DEGREE}")
        if alpha > MAX_DISK_ALPHA:
            raise ValueError(f"alpha {alpha}, above {MAX_DISK_ALPHA}")
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


_MOVES = _Memo(_moves)  # the moves of every key met, of any rank


def _pair_moves(key) -> list:
    """The moves of a tensor key (k1, k2) times Q_n1 (x) Q_n2: the pairs of its factors' moves."""
    return [((k1, k2), t1 + t2) for k1, t1 in _MOVES[key[0]] for k2, t2 in _MOVES[key[1]]]


def _times_q(acc: dict, s: int, kh: int, moves=_MOVES.__getitem__) -> tuple:
    """(H C, kh + big) for H packed at width s over q^kh, C = Q_n (or Q_n1 (x) Q_n2: `_pair_moves`)."""
    acc = [(v, moves(key)) for key, v in acc.items()]
    out, big = {}, max(ms[-1][1] for _, ms in acc)  # the last move has the largest t
    for v, ms in acc:
        for key2, t in ms:
            out[key2] = out.get(key2, 0) + (v << s * (big - t))
    return out, kh + big


def _horner_sum(coefs: tuple, peaks: list, fan: int, terms, times_c) -> tuple:
    """H = sum_k coef_k C^(mm-k) E_k packed (module docstring), ({key: F(2^s)}, s, kh) for its terms F/q^kh:
    times_c moves a key onto fan keys, |E_k| <= peaks[k], and terms(s) yields E_k's `pack_laurent`, keys."""
    bound = 0
    for coef, p in zip(coefs, peaks):
        bound = bound * fan + p * mass([coef])
    s, acc, kh = _width(bound.bit_length() + 1), {}, 0
    for k, (coef, (kd, pd, od, keys)) in enumerate(zip(coefs, terms(s))):
        if k:  # H_(k-1) C
            acc, kh = times_c(acc, s, kh)
        kx, (x,), (ox,) = pack_laurent([coef], s)
        if kx + kd > kh:  # over the larger power of q
            acc, kh = {key: v << (s * (kx + kd - kh)) for key, v in acc.items()}, kx + kd
        for key, y, oy in zip(keys, pd, od):  # x y over q^(kx + kd), shifted by its offsets
            acc[key] = acc.get(key, 0) + ((x * y) << (s * (kh - kx - kd + ox + oy)))
    return acc, s, kh


def _packed_sum(coefs: tuple, es: list, fan: int, moves) -> tuple:
    """`_horner_sum` over the E_k of es, elements with Laurent coefficients, packed as they stand, with C
    by its moves onto fan keys (`_times_q`)."""
    return _horner_sum(coefs, [x._peak for x in es], fan, lambda s: (
        (*pack_laurent(list(x.terms.values()), s), x.terms) for x in es), partial(_times_q, moves=moves))


class _DiskArgs:
    """Arguments (A, B, C), checked once: C commutes with A and B, else ValueError.
    Powers of A, B and D = C - AB and the E_k are kept, so rewrites are idempotent."""

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
        self.moves = None if C.terms != central else _pair_moves if len(qs) == 2 else _MOVES.__getitem__

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

    def _packed_horner(self, coefs: tuple, j: int = 0):
        """H over the E_k of A^j or B^-j by the packed Horner sum (module docstring), or None."""
        es = [self.fold(j, k) for k in range(len(coefs))]
        if self.moves is None or not all(  # each L coef_k is a polynomial
                _is_qpow(c.den) for x in es for c in x.terms.values()):
            return None
        return self.C._like(_unpacked(*_packed_sum(coefs, es, len(self.C.terms), self.moves)))

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
    """Evaluate R_{l,m}^(alpha)(A, B, C; q^base) on elements of Z_n or of a tensor product: the
    scaled sum L R of `_DiskArgs.scaled`, divided by L once per output term.  ValueError on a spec
    that is not a `DiskSpec`, on a non-element and when C fails to commute with A or with B."""
    inv_lcm = jacobi_scaled(spec)[0]  # checks the spec before any element work
    return _DiskArgs(A, B, C).scaled(spec) * inv_lcm


@lru_cache(maxsize=None)
def _chain(n: int, spec: DiskSpec, *rest: DiskSpec) -> ZElement:
    """The product in Z_n (n >= 2), level n on the left, of L R_spec(z_i, w_i, Q_i) over the specs for
    i = n, n - 1, ..., each L the lcm of its spec's Jacobi denominators: one packed Horner sum on I,
    the chain of the rest (1 for none), over key shifts of J_k = Q_(n-1)^k I (module docstring)."""
    low = _chain(n - 1, *rest) if rest else ZElement.one(n - 1)
    j, coefs = spec.l - spec.m, _jacobi(spec)[2][:min(spec.l, spec.m) + 1]
    deg, (zn, wn) = sum(x.l for x in rest), ((j,), (0,)) if j >= 0 else ((0,), (-j,))

    def terms(s):  # E_k I = J_k q^(-j deg - |j| k) shifted, J_k aligned over q^kj
        kj, packed, offsets = pack_laurent(list(low.terms.values()), s)
        acc = {key: x << s * o for key, x, o in zip(low.terms, packed, offsets)}
        for k in range(len(coefs)):
            acc, kj = _times_q(acc, s, kj) if k else (acc, kj)
            yield kj + j * deg + abs(j) * k, acc.values(), repeat(0), ((lam + zn, mu + wn) for lam, mu in acc)
    peaks = [(n - 1) ** k * low._peak for k in range(len(coefs))]
    return ZElement._of(n, h := _unpacked(*_horner_sum(coefs, peaks, n, terms, _times_q)), peak(h.values()))


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
