"""q-disk polynomials in three noncommuting arguments, divisionlessly.

R_{l,m}^(alpha)(A, B, C; q^2) homogenizes the little q-Jacobi expansion: with coef_k the base-q^2 Jacobi coefficient
of x^k (q^2k included), Jacobi parameters (alpha, |l-m|) at degree mm = min(l, m), L the lcm of their denominators
(q-powers times factors 1 - q^2j) and D = C - AB, it is taken scaled,

    L R = H = sum_k (L coef_k) C^(mm-k) E_k,   E_k = A^(l-m) D^k (l >= m) or D^k B^(m-l).

C must commute with A and B (checked); no inverse of C is formed.  The coef_k are `Cyclo`s (`qfield`), so `_jacobi`
expands each L coef_k to a Laurent polynomial once per spec, with no gcd, and `disk_poly` divides by L once per term.
H is taken by Horner's rule in C, H_k = H_(k-1) C + (L coef_k) E_k; `disk_poly` takes it on `QRat`s, E_k = E_(k-1) D
or D E_(k-1).

H C needs no structure row when C = Q_n, central in Z_n, or Q_n1 (x) Q_n2: moving z_a left past z_j and w_a right past
w_j (j > a) costs q^-1, so with t_a = sum_{j > a} (lam_j + mu_j), z^lam w^mu Q_n = sum_a q^-t_a z^(lam + e_a)
w^(mu + e_a), and Q_n1 (x) Q_n2 moves each factor, the t's added.  Keys are integer codes (`qfield._id`): the moves of
an id are kept once (`_id_moves`), and `_times_q` moves a code (id1, id2) by the pairs of its factors' moves, a code
of one factor as (0, id).  With Laurent coefficients `_horner_sum` keeps H packed at one slot width s in t = q^2, one
accumulator per parity (`qfield`): a step adds each term onto its moves, to the other parity for odd t, then each
product of parts of L coef_k and E_k by `_products`, the one function that multiplies packed parts into the two
accumulators (parities p, p' into p ^ p', one more t when both are odd), and H is read back once, or handed over
packed to the verdict of `tensor`.  Both factors come packed as they are kept, once per width: E_k by
its element (`_packed`), L coef_k by `qfield._eval_kept`.  A key of H_(k-1) C takes at most |C| = n or n1 n2 moves of
mass 1, so with |x| the largest sum of absolute integer coefficients of one coefficient of x, |H_k| <= |C| |H_(k-1)| +
|E_k| |L coef_k| < 2^(s-1).  The lhs of `tensor` takes it, over E_k built by key shifts.

The spherical and associated elements and the rhs factors of `tensor` are products down Z_n > Z_(n-1) > ..., level n
on the left, of L R(z_i, w_i, Q_i); `_chain` builds and keeps each with no element product.  On (z_n, w_n, Q_n), D =
Q_n - z_n w_n is Q_(n-1), central in Z_(n-1); for I in Z_(n-1), z_n^a w_n^b z^lam w^mu = q^((b-a)|lam|)
z^(lam + a e_n) w^(mu + b e_n); and Q_(n-1) w_n = q^-2 w_n Q_(n-1).  So with J_k = Q_(n-1)^k I by central moves at
rank n - 1, E_k I is z_n^j J_k (l >= m, j = l - m) or q^(-2kb) w_n^b J_k (l < m, b = m - l), a shift of J_k's keys
(each id decoded, shifted and issued anew), which all have |lam| = |lam of I| + k, times one power of q, and L R I is
one packed Horner sum in Q_n over them, with |E_k I| <= (n-1)^k |I|, read back once in t-form.  Callers never receive
a `_chain` entry; `spherical` joins its parts.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb

from .qfield import (_BITS, _KEYS, _MASK, Cyclo, Parts, _check_ints, _eval_kept, _eval_shift, _id, _mass, _read,
                     _split, _terms, _width)
from .qfunc import _jacobi_coeffs
from .zalgebra import ZElement, _check_rank, _element

# Caps on disk degrees and alpha, which `DiskSpec` owns, and on spherical terms.  The slowest admitted cases
# found, verify_addition(8, 8, 16) and assoc_spherical(8, 8, 2, 0, 8), took 0.7-1.2 s and 39 MB, and 0.29-0.30
# s and 26 MB, on a 2-vCPU x86-64 host (spherical(5, 5, 16), before the term cap, 17 s).  No route passes
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
    """(L, 1/L, (L coef_0, L coef_1, ...), their parts) of `jacobi_scaled`, L a `Cyclo`, then `QRat`s."""
    coeffs = _jacobi_coeffs(min(spec.l, spec.m), spec.alpha, abs(spec.l - spec.m), 2)
    lcm = Cyclo.lcm(coeffs)
    scaled = tuple((lcm * c).to_qrat() for c in coeffs)
    return lcm, (Cyclo() / lcm).to_qrat(), scaled, tuple(map(_split, scaled))


def jacobi_scaled(spec: DiskSpec) -> tuple:
    """(1/L, (L coef_0, L coef_1, ...)) for the little q-Jacobi coefficients of the spec,
    L the lcm of their denominators, each L coef_k a polynomial; ValueError unless a `DiskSpec`."""
    if not isinstance(spec, DiskSpec):
        raise ValueError(f"expected a DiskSpec, got {spec!r}")
    return _jacobi(spec)[1:3]


def _moves(lam: tuple, mu: tuple) -> tuple:
    """The moves (key, t_a) of z^lam w^mu times Q_n (module docstring), a = n, .., 1."""
    return tuple(((lam[:a] + (lam[a] + 1,) + lam[a + 1:], mu[:a] + (mu[a] + 1,) + mu[a + 1:]),
                  sum(lam[a + 1:]) + sum(mu[a + 1:])) for a in reversed(range(len(lam))))


@lru_cache(maxsize=None)
def _id_moves(i: int) -> tuple:
    """The moves (id', t_a) of the key of id i (`_moves`), of any rank; id 0, no factor, moves onto itself at t = 0,
    so a code of one factor moves as the tensor code (0, id)."""
    return tuple((_id(key), t) for key, t in _moves(*_KEYS[i])) if i else ((0, 0),)


def _times_q(accs: tuple, s: int, kh: int) -> tuple:
    """(H C, kh + big) for H packed at width s over t^kh, one accumulator per parity keyed by codes (`qfield._id`),
    C = Q_n (or Q_n1 (x) Q_n2, each factor by its moves): q^p q^-t = q^((p + t) & 1) t^((p - t) >> 1)."""
    moves, bits = _id_moves, _BITS
    rows = [[(v, moves(code >> bits), moves(code & _MASK)) for code, v in acc.items()] for acc in accs]
    out = ({}, {})  # the last t of each factor is its largest
    big = (max(m1[-1][1] + m2[-1][1] for row in rows for _, m1, m2 in row) + 1) >> 1
    for p, row in enumerate(rows):
        for v, m1, m2 in row:
            for i1, t1 in m1:
                i1, d1 = i1 << bits, p - t1
                for i2, t2 in m2:  # q^(d1 - t2) v lands in parity (d1 - t2) & 1
                    acc = out[(d := d1 - t2) & 1]
                    acc[key] = acc.get(key := i1 | i2, 0) + (v << s * (big + (d >> 1)))
    return out, kh + big


def _horner_sum(coefs: tuple, peaks: list, fan: int, terms) -> tuple:
    """H = sum_k coef_k C^(mm-k) E_k packed, ((acc_0, acc_1), s, kh) for q^p F(t) / t^kh: C takes a key to its moves
    (`_times_q`), at most fan, |E_k| <= peaks[k], coefs are parts and terms(s) yields E_k as (e, kd, (parts, values)),
    q^e times q^e' v key per part (code, e', _) and value v, kd >= -(e' >> 1)."""
    bound = 0
    for coef, p in zip(coefs, peaks):
        bound = bound * fan + p * _mass(coef)
    s, accs, kh = _width(bound.bit_length() + 1), ({}, {}), 0
    for k, (coef, (e, kd, parts)) in enumerate(zip(coefs, terms(s))):
        if k:  # H_(k-1) C
            accs, kh = _times_q(accs, s, kh)
        if (need := max([kd - ((e + f) >> 1) for f, _ in coef], default=0)) > kh:  # over the larger power of t
            accs, kh = tuple({key: v << s * (need - kh) for key, v in acc.items()} for acc in accs), need
        _products(accs, s, kh, ([(0, e + f, None) for f, _ in coef], [_eval_kept(g, s) for _, g in coef]), parts)
    return accs, s, kh


def _products(accs: tuple, s: int, k: int, xs: tuple, ys: tuple) -> None:
    """Add each product q^(e + e') x y of a part (code, e, _) of xs and a part (code', e', _) of ys, each given as
    (parts, values) at width s, into the accumulators per parity over t^k at code (code << _BITS) | code': q^p t^a
    times q^p' t^b lands in parity p ^ p' at t^(a + b + (p & p'))."""
    for (code, e, _), x in zip(*xs):
        code, e = code << _BITS, e + 2 * k
        if code:  # a left factor's id, shifted
            for (c, f, _), y in zip(*ys):
                acc = accs[(d := e + f) & 1]
                acc[key] = acc.get(key := code | c, 0) + ((x * y) << s * (d >> 1))
        else:  # a scalar keeps code' as it is: 0 | code' would be a new int
            for (key, f, _), y in zip(*ys):
                acc = accs[(d := e + f) & 1]
                acc[key] = acc.get(key, 0) + ((x * y) << s * (d >> 1))


def _packed(x: Parts, s: int) -> tuple:
    """(kd, (parts, values)) of an element in t-form at width s: its parts (code, e, g), the values g(2^s) aligned
    with them, kd the largest -(e >> 1) (0 at least); packed once per width and kept (`qfield.Parts`)."""
    if s not in x.packs:
        x.packs[s] = (max(0, -(min([e for _, e, _ in x.terms], default=0) >> 1)),
                      (x.terms, tuple(_eval_shift(g, s) for _, _, g in x.terms)))
    return x.packs[s]


def _scaled(spec: DiskSpec, A, B, C):
    """L R_{l,m}^(alpha)(A, B, C) by Horner's rule on `QRat`s over E_k = A^j D^k or D^k B^-j (module
    docstring), each E_k one product from E_(k-1).  ValueError on a non-element, and when C fails to
    commute with A or with B."""
    for x in (A, B, C):
        _element(x, "disk_poly")
    for name, other in (("A", A), ("B", B)):
        if C * other != other * C:
            raise ValueError(f"C does not commute with {name}")
    j, coefs = spec.l - spec.m, _jacobi(spec)[2][:min(spec.l, spec.m) + 1]
    d, e = C - A * B, A ** j if j >= 0 else B ** -j
    h = e * coefs[0]
    for coef in coefs[1:]:
        e = e * d if j >= 0 else d * e
        h = h * C + e * coef
    return h


def disk_poly(spec: DiskSpec, A, B, C):
    """Evaluate R_{l,m}^(alpha)(A, B, C; q^base) on elements of Z_n or of a tensor product: the
    scaled sum L R of `_scaled`, divided by L once per output term.  ValueError on a spec that is
    not a `DiskSpec`, on a non-element and when C fails to commute with A or with B."""
    inv_lcm = jacobi_scaled(spec)[0]  # checks the spec before any element work
    return _scaled(spec, A, B, C) * inv_lcm


@lru_cache(maxsize=None)
def _chain(n: int, spec: DiskSpec, *rest: DiskSpec) -> Parts:
    """The product in Z_n (n >= 2), level n on the left, of L R_spec(z_i, w_i, Q_i) over the specs for
    i = n, n - 1, ..., each L the lcm of its spec's Jacobi denominators: one packed Horner sum on I,
    the chain of the rest (1 for none), over key shifts of J_k = Q_(n-1)^k I (module docstring)."""
    low = _chain(n - 1, *rest) if rest else Parts(((_id(((0,) * (n - 1),) * 2), 0, (1,)),), 1)
    j, coefs = spec.l - spec.m, _jacobi(spec)[3][:min(spec.l, spec.m) + 1]
    deg, (zn, wn) = sum(x.l for x in rest), ((j,), (0,)) if j >= 0 else ((0,), (-j,))

    def terms(s):  # E_k I = q^(-j deg - |j| k) J_k shifted, J_k aligned over t^kj: q^(p - 2 kj) v per code
        kj, parts = _packed(low, s)
        accs = tuple({key: v << s * ((e >> 1) + kj) for (key, e, _), v in zip(*parts) if e & 1 == p} for p in (0, 1))
        for k in range(len(coefs)):
            accs, kj = _times_q(accs, s, kj) if k else (accs, kj)
            keys = [(_KEYS[code], p - 2 * kj) for p, acc in enumerate(accs) for code in acc]
            yield -j * deg - abs(j) * k, kj, ([(_id((lam + zn, mu + wn)), e, None) for (lam, mu), e in keys],
                                              [v for acc in accs for v in acc.values()])
    peaks = [(n - 1) ** k * low.peak for k in range(len(coefs))]
    return _read(*_horner_sum(coefs, peaks, n, terms))


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
    return ZElement._of(n, _terms(_chain(n, spec))) * _jacobi(spec)[1]


def assoc_spherical(l: int, m: int, r: int, s: int, n: int) -> ZElement:
    """Associated spherical element: the (l-r, m-s) disk polynomial on the
    top generators times the (r, s) one on the next level down."""
    n, (l, m, _) = _check_spherical(l, m, n, r, s)
    outer, inner = DiskSpec(l - r, m - s, n - 2 + r + s), DiskSpec(r, s, n - 3)
    return ZElement._of(n, _terms(_chain(n, outer, inner))) * (_jacobi(outer)[1] * _jacobi(inner)[1])
