"""The Haar functional on quantum spheres and the inner products it induces.

On basis monomials the functional is diagonal, a polynomial over a
denominator that depends on t = |lam| only:

    h(z^lam w^mu) = delta_{lam,mu} N_lam / (q^2; q^2)_{t + n - 1},
    N_lam = q^e (q^2; q^2)_{lam_1} ... (q^2; q^2)_{lam_n} (q^2; q^2)_{n-1},
    e = t^2 + sum_i (2 (i-1) lam_i - lam_i^2) >= 0,

and extends linearly.  It descends to the quotient by Q_n - 1 (checked
functionally: h(Q_n x) = h(x)); the quotient itself is never built.
The sesquilinear pairing is <a, b> = h(b* a).

`haar` and `inner` add numerators only: a summand c N_lam joins the group
keyed by t and the denominators of its coefficients, and only numerators
(over 1) enter the group sum.  Z_n products keep the z-degree and have
Laurent structure constants, so all group arithmetic takes the gcd-free path
of `qfield`.  Each group is divided once, by its coefficient denominators
times (q^2; q^2)_{t + n - 1}.  Exactness does not rest on the Laurent shape
(other coefficients take the general path), and Q(q) has one canonical
form, so the result is the same `QRat` as the term-by-term sum.
"""

from __future__ import annotations

from functools import lru_cache

from .qfield import ONE, QRat, ZERO, qpoch
from .zalgebra import ZElement, _mono_mul, _z_rank

_PAIR_HAAR_CACHE: dict = {}


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
    if len(lam) != n or len(mu) != n:
        raise ValueError("exponent vectors must have length n")
    return _haar_num(lam, n) / qpoch(2, 2, sum(lam) + n - 1) if lam == mu else ZERO


def _numerator(c: QRat) -> QRat:
    return QRat(c.num, (1,), _canonical=True)


def _group_sum(groups: dict, rank: int) -> QRat:
    """Sum of s / (d_1 ... d_k (q^2; q^2)_{t + rank - 1}) over the groups
    {(t, d_1, ..., d_k): s}, one division per group."""
    total = ZERO
    for (t, *dens), s in groups.items():
        den = qpoch(2, 2, t + rank - 1)
        for d in dens:
            den = den * QRat(d, (1,), _canonical=True)
        total = total + s / den
    return total


def haar(a: ZElement) -> QRat:
    """The Haar functional, linear over the monomial expansion."""
    rank = _z_rank(a, "the Haar functional")
    groups: dict = {}
    for (lam, mu), c in a.terms.items():
        if lam == mu:
            key = (sum(lam), c.den)
            groups[key] = groups.get(key, ZERO) + _numerator(c) * _haar_num(lam, rank)
    return _group_sum(groups, rank)


def _pair_haar(rank: int, key1, key2) -> tuple:
    """(t, P) for the product of two basis monomials, memoized: t is its
    z-degree and P sums c N_lam over its diagonal terms c z^lam w^lam."""
    cached = _PAIR_HAAR_CACHE.get((rank, key1, key2))
    if cached is None:
        total = ZERO
        for (lam, mu), c in _mono_mul(rank, key1, key2):
            if lam == mu:
                total = total + c * _haar_num(lam, rank)
        cached = _PAIR_HAAR_CACHE[(rank, key1, key2)] = (sum(key1[0]) + sum(key2[0]), total)
    return cached


def inner(a: ZElement, b: ZElement) -> QRat:
    """<a, b> = h(b* a), computed by pairing monomials directly."""
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    rank = _z_rank(a, "the Haar functional")
    a_terms = [(key, sum(key[0]) - sum(key[1]), c.den, _numerator(c))
               for key, c in a.terms.items()]
    groups: dict = {}
    for (lam_b, mu_b), cb in b.terms.items():
        bkey = (mu_b, lam_b)  # star of a basis monomial swaps the exponents
        db, nb = sum(mu_b) - sum(lam_b), _numerator(cb)
        for akey, da, den_a, na in a_terms:
            # h vanishes unless the product can hit the diagonal
            if db + da == 0:
                t, v = _pair_haar(rank, bkey, akey)
                if v:
                    key = (t, cb.den, den_a)
                    groups[key] = groups.get(key, ZERO) + nb * na * v
    return _group_sum(groups, rank)


@lru_cache(maxsize=None)
def norm_const(l: int, m: int, alpha: int) -> QRat:
    """Squared norm c_{l,m}^(alpha) of the (l, m) q-disk polynomial:

    (1 - q^(2(alpha+1))) q^(2m(alpha+1)) / (1 - q^(2(alpha+l+m+1)))
        * (q^2; q^2)_l (q^2; q^2)_m
        / ((q^(2(alpha+1)); q^2)_l (q^(2(alpha+1)); q^2)_m).

    Not symmetric in l and m: the q-power weights the w-side degree."""
    if l < 0 or m < 0 or alpha < 0:
        raise ValueError("norm constant parameters must be nonnegative")
    num = (ONE - QRat.q_power(2 * (alpha + 1))) * QRat.q_power(2 * m * (alpha + 1))
    num = num * qpoch(2, 2, l) * qpoch(2, 2, m)
    den = (ONE - QRat.q_power(2 * (alpha + l + m + 1)))
    den = den * qpoch(2 * (alpha + 1), 2, l) * qpoch(2 * (alpha + 1), 2, m)
    return num / den
