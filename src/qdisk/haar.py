"""The Haar functional on quantum spheres and the inner products it induces.

On basis monomials the functional is diagonal, a polynomial over a
denominator that depends on t = |lam| only:

    h(z^lam w^mu) = delta_{lam,mu} N_lam / (q^2; q^2)_{t + n - 1},
    N_lam = q^e (q^2; q^2)_{lam_1} ... (q^2; q^2)_{lam_n} (q^2; q^2)_{n-1},
    e = t^2 + sum_i (2 (i-1) lam_i - lam_i^2) >= 0,

and extends linearly.  It descends to the quotient by Q_n - 1 (checked
functionally: h(Q_n x) = h(x)); the quotient itself is never built.
The sesquilinear pairing is <a, b> = h(b* a).

Packed group sums.  `haar` (c N_lam), `_pair_haar` (the same over a monomial
product, undivided) and `inner` (nb na P) sum products of factors n / (q^k d),
d(0) != 0.  `_packed_sum` packs each distinct factor once (N_lam once per slot
width s) as n(2^s) 2^(s (K_j - k)), K_j the largest k in its column j, and
adds the products' integers per group keyed by t and the d's other than 1
(Laurent coefficients share one group per t): F(2^s) for F = sum prod_j n_j
q^(K_j - k_j), the group sum times q^(K_1 + ... + K_r), is read back and
divided once, by the d's and (q^2; q^2)_{t + n - 1}: the term-by-term sum.
Width: |f g| <= |f| |g| for |f| the sum of f's absolute coefficients, so F's
coefficients are at most B, the sum of prod_j |n_j| over the call's products,
and s > B.bit_length() makes F its value's symmetric base-2^s digits.  No size
cutoff, which would keep the per-term route: the 1997 haar and inner calls of
the perfbench CLI stream took 18 us each, not 14 us (2-vCPU x86-64).
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import prod

from .qfield import (ONE, Cyclo, QRat, ZERO, _check_ints, _eval_shift, _from_digits, _laurent,
                     _width, qpoch)
from .zalgebra import ZElement, _Memo, _mono_mul, _z_rank


@lru_cache(maxsize=None)
def _haar_num(lam: tuple, n: int) -> QRat:
    """N_lam, the polynomial numerator of h(z^lam w^lam), memoized."""
    t = sum(lam)
    e = t * t + sum(2 * i * lam[i] - lam[i] ** 2 for i in range(n))
    value = QRat.q_power(e) * qpoch(2, 2, n - 1)
    for li in lam:
        value = value * qpoch(2, 2, li)
    return value


def haar_monomial(lam, mu, n: int) -> QRat:
    """h applied to the basis monomial z^lam w^mu of Z_n."""
    lam, mu = tuple(lam), tuple(mu)
    _check_ints(n, *lam, *mu)
    if len(lam) != n or len(mu) != n:
        raise ValueError("exponent vectors must have length n")
    return _haar_num(lam, n) / qpoch(2, 2, sum(lam) + n - 1) if lam == mu else ZERO


def _factor(x: QRat) -> tuple:
    """x = n / (q^k d), d(0) != 0, as (d, k, |n|, pack), pack(s) = n(2^s)."""
    k = next(i for i, c in enumerate(x.den) if c) if not x.den[0] else 0
    return x.den[k:], k, sum(map(abs, x.num)), partial(_eval_shift, x.num)


@lru_cache(maxsize=None)
def _haar_packed(lam: tuple, n: int, s: int) -> int:
    return _eval_shift(_haar_num(lam, n).num, s)


@lru_cache(maxsize=None)
def _haar_factor(lam: tuple, n: int) -> tuple:
    return (*_factor(_haar_num(lam, n))[:3], partial(_haar_packed, lam, n))


def _packed_sum(cols: list, items: list, rank=None) -> QRat:
    """The sum over items (t, i_1, ..., i_r) of cols[0][i_1] ... cols[r-1][i_r]
    (`_factor`s), divided by (q^2; q^2)_{t + rank - 1} unless rank is None."""
    if not items:
        return ZERO
    s = _width(sum(prod([c[i][2] for c, i in zip(cols, idx)]) for _, *idx in items).bit_length() + 1)
    ks = [max(f[1] for f in col) for col in cols]
    packed = [[(d, pack(s) << s * (top - k)) for d, k, _, pack in col] for col, top in zip(cols, ks)]
    groups: dict = {}
    for t, *idx in items:
        fs = [p[i] for p, i in zip(packed, idx)]
        key = (t, *sorted(d for d, _ in fs if d != (1,)))
        groups[key] = groups.get(key, 0) + prod([v for _, v in fs])
    total = ZERO
    for (t, *ds), v in groups.items():
        den = prod(map(QRat, ds), start=ONE if rank is None else qpoch(2, 2, t + rank - 1))
        total = total + _laurent(_from_digits(v, s), sum(ks)) / den
    return total


def _diagonal_sum(terms, rank: int, den_rank) -> QRat:
    """`_packed_sum` of c N_lam over the diagonal terms c z^lam w^lam, rank den_rank."""
    diag = [(lam, c) for (lam, mu), c in terms if lam == mu]
    cols = [[_factor(c) for _, c in diag], [_haar_factor(lam, rank) for lam, _ in diag]]
    return _packed_sum(cols, [(sum(lam), i, i) for i, (lam, _) in enumerate(diag)], den_rank)


def haar(a: ZElement) -> QRat:
    """The Haar functional, linear over the monomial expansion."""
    rank = _z_rank(a, "the Haar functional")
    return _diagonal_sum(a.terms.items(), rank, rank)


def _pair_haar(rank: int, key1, key2) -> tuple:
    """(t, P) for the product of two basis monomials, memoized: t is its
    z-degree and P sums c N_lam over its diagonal terms c z^lam w^lam."""
    return _PAIR_HAAR_CACHE[rank, key1, key2]


_PAIR_HAAR_CACHE = _Memo(lambda rank, key1, key2: (
    sum(key1[0]) + sum(key2[0]), _diagonal_sum(_mono_mul(rank, key1, key2), rank, None)))


def inner(a: ZElement, b: ZElement) -> QRat:
    """<a, b> = h(b* a), computed by pairing monomials directly."""
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    rank = _z_rank(a, "the Haar functional")
    a_terms = [(i, key, sum(key[0]) - sum(key[1])) for i, key in enumerate(a.terms)]
    ps, items = [], []
    for j, (lam_b, mu_b) in enumerate(b.terms):
        # star of a basis monomial swaps the exponents
        bkey, db = (mu_b, lam_b), sum(mu_b) - sum(lam_b)
        for i, akey, da in a_terms:
            # h vanishes unless the product can hit the diagonal
            if db + da == 0:
                t, v = _pair_haar(rank, bkey, akey)
                if v:
                    items.append((t, j, i, len(ps)))
                    ps.append(v)
    cols = [b.terms.values(), a.terms.values(), ps]
    return _packed_sum([list(map(_factor, col)) for col in cols], items, rank)


@lru_cache(maxsize=None, typed=True)
def _norm(l: int, m: int, alpha: int) -> Cyclo:
    """`norm_const` as a `Cyclo`."""
    if not all(isinstance(x, int) and x >= 0 for x in (l, m, alpha)):
        raise ValueError("norm constant parameters must be nonnegative integers")
    a = 2 * (alpha + 1)
    num = Cyclo.one_minus(a) * Cyclo(1, m * a) * Cyclo.qpoch(2, 2, l) * Cyclo.qpoch(2, 2, m)
    den = Cyclo.one_minus(2 * (alpha + l + m + 1)) * Cyclo.qpoch(a, 2, l) * Cyclo.qpoch(a, 2, m)
    return num / den


@lru_cache(maxsize=None, typed=True)
def norm_const(l: int, m: int, alpha: int) -> QRat:
    """Squared norm c_{l,m}^(alpha) of the (l, m) q-disk polynomial:

    (1 - q^(2(alpha+1))) q^(2m(alpha+1)) / (1 - q^(2(alpha+l+m+1)))
        * (q^2; q^2)_l (q^2; q^2)_m
        / ((q^(2(alpha+1)); q^2)_l (q^(2(alpha+1)); q^2)_m).

    Not symmetric in l and m: the q-power weights the w-side degree."""
    return _norm(l, m, alpha).to_qrat()
