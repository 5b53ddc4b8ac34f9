"""The Haar functional on quantum spheres and the inner products it induces.

On basis monomials the functional is diagonal, a polynomial over a
denominator that depends on t = |lam| only:

    h(z^lam w^mu) = delta_{lam,mu} N_lam / (q^2; q^2)_{t + n - 1},
    N_lam = q^e (q^2; q^2)_{lam_1} ... (q^2; q^2)_{lam_n} (q^2; q^2)_{n-1},
    e = t^2 + sum_i (2 (i-1) lam_i - lam_i^2) >= 0,

and extends linearly.  It descends to the quotient by Q_n - 1 (checked
functionally: h(Q_n x) = h(x)); the quotient itself is never built.
The sesquilinear pairing is <a, b> = h(b* a).  `_haar_num` builds N_lam from
N_0 = (q^2; q^2)_{n-1} part by part: N_lam = q^(2 lam_i (t - lam_i + i - 1))
(q^2; q^2)_{lam_i} N_lam', i the last index with lam_i > 0 and lam' = lam with
lam_i set to 0, each factor 1 - q^(2k) one shift and one subtraction.

Packed sums.  `haar` (c N_lam) and `inner` (nb na P) sum products of factors
n / (q^k d), d(0) != 0.  `_packed_sum` packs each distinct factor once, the
memoized N_lam and P once per slot width s (`_packed`), as n(2^s) 2^(s (K_j -
k)), K_j the largest k in its column j.  Items are summed per first-column
index (nb in `inner`), t and d's, and each partial is multiplied by its first
factor once, so an item costs one product; the products add per group keyed by
t and the d's to F(2^s), F = sum prod_j n_j q^(K_j - k_j).  Width: |f g| <= |f|
|g| for |f| the sum of f's absolute coefficients, so F's coefficients are at
most B, the sum of prod_j |n_j| over the products, and s > B.bit_length() makes
F its value's symmetric base-2^s digits; only groups are read back, so B covers
every read-back.  Each sum is reduced once: the Fs, read back and times their
cofactors, add over q^(K_1 + ... + K_r) M (q^2; q^2)_{T + n - 1}, T the largest
t and M each d as often as one group has it (no gcd finds it; it and each
cofactor are memoized, `_times`), as a packed sum of their own, and one gcd
reduces the quotient.  P, of (z^l1 w^m1)(z^l2 w^m2), sums x N_lam, x = n / q^k,
over the diagonal terms x z^lam w^lam of the product
(`zalgebra._product_terms`), with B = sum |x| |N_lam|, as shifts of N_lam(2^s)
(`_shift_sum`).  Normal ordering keeps the weight lam - mu, so `inner` pairs only
terms whose weights cancel.  No size cutoff pays (CHANGES.md).

Symmetries.  h is real on *-images, h(x*) = h(x), and a twisted trace, the
modular property of the Haar state (S. L. Woronowicz, Comm. Math. Phys. 111,
1987): h(x y) = q^tau(y) h(y x) on monomials, tau(z^lam w^mu) = -2 sum_i (i - 1)
(lam_i - mu_i).  So P(k1, k2) = P(k2*, k1*) = q^tau(k2) P(k2, k1) = q^tau(k1*)
P(k1*, k2*) when the weights cancel, and only the orbit member whose row w^mu1
z^lam2 has the least degree (ties: the least keys) is summed; the rest scale it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial, reduce
from math import prod
from operator import sub

from .diskpoly import DiskSpec
from .qfield import Cyclo, QRat, ZERO, _eval_kept, _eval_shift, _from_digits, _laurent, _qpoch, _width, poly_mul
from .zalgebra import _WZ_CACHE, ZElement, _Memo, _product_terms, _z_rank


@lru_cache(maxsize=None)
def _haar_num(lam: tuple, n: int) -> QRat:
    """N_lam, the polynomial numerator of h(z^lam w^lam), memoized, by the recurrence of the module docstring."""
    i = max((i for i, x in enumerate(lam) if x), default=-1)
    if i < 0:
        return _qpoch(2, 2, n - 1)
    num = _haar_num(lam[:i] + (0,) * (n - i), n).num
    for x in range(2, 2 * lam[i] + 1, 2):  # times 1 - q^x
        num = tuple(map(sub, num + (0,) * x, (0,) * x + num))
    return _laurent(num, -2 * lam[i] * (sum(lam) - lam[i] + i))


def haar_monomial(lam, mu, n: int) -> QRat:
    """h applied to the basis monomial z^lam w^mu of Z_n."""
    return haar(ZElement.monomial(n, lam, mu))


# memoized: the packing n(2^s) of a memoized numerator n (N_lam, P) at each width s (`qfield._eval_kept`),
# and the product of a tuple of d's and a Pochhammer's numerator (`_packed_sum`'s denominators and cofactors)
_packed = _eval_kept
_times = lru_cache(maxsize=None)(partial(reduce, poly_mul))


def _factor(x: QRat, pack=_eval_shift) -> tuple:
    """x = n / (q^k d), d(0) != 0, as (d, k, |n|, pack), pack(s) = n(2^s)."""
    k = next(i for i, c in enumerate(x.den) if c) if not x.den[0] else 0
    return x.den[k:], k, sum(map(abs, x.num)), partial(pack, x.num)


@lru_cache(maxsize=None)
def _haar_factor(lam: tuple, n: int) -> tuple:
    return _factor(_haar_num(lam, n), _packed)


def _packed_sum(cols: list, items: list, rank: int) -> QRat:
    """The sum over items (t, i_1, ..., i_r) of cols[0][i_1] ... cols[r-1][i_r]
    (`_factor`s), each divided by (q^2; q^2)_{t + rank - 1}."""
    if not items:
        return ZERO
    masses = zip(*(map([f[2] for f in c].__getitem__, ix) for c, ix in zip(cols, [*zip(*items)][1:])))
    s = _width(sum(map(prod, masses)).bit_length() + 1)  # per item, the product of its factors' masses
    ks = [max(f[1] for f in col) for col in cols]
    head, *tail = [[(d, pack(s) << s * (top - k)) for d, k, _, pack in col] for col, top in zip(cols, ks)]
    parts, groups = Counter(), Counter()
    for t, i, *idx in items:
        fs = [p[j] for p, j in zip(tail, idx)]
        parts[(i, t, *(d for d, _ in fs))] += prod([v for _, v in fs])
    for (i, t, *ds), v in parts.items():
        groups[t, tuple(sorted([head[i][0], *ds]))] += head[i][1] * v
    # one denominator q^K M (q^2; q^2)_{T + rank - 1}: each group's F times its cofactor
    hi, most = max(t for t, _ in groups), reduce(Counter.__or__, [Counter(ds) for _, ds in groups])
    reads = [(_from_digits(v, s), _times(tuple(sorted((most - Counter(ds)).elements())),
                                         _qpoch(2 * (t + rank), 2, hi - t).num)) for (t, ds), v in groups.items()]
    w = _width(sum(sum(map(abs, f)) * sum(map(abs, c)) for f, c in reads).bit_length() + 1)
    num = _from_digits(sum(_eval_shift(f, w) * _eval_shift(c, w) for f, c in reads), w)
    return QRat(num, (0,) * sum(ks) + _times(tuple(sorted(most.elements())), _qpoch(2, 2, hi + rank - 1).num))


def haar(a: ZElement) -> QRat:
    """The Haar functional, linear over the monomial expansion."""
    rank = _z_rank(a, "the Haar functional")
    diag = [(lam, c) for (lam, mu), c in a.terms.items() if lam == mu]
    cols = [[_factor(c) for _, c in diag], [_haar_factor(lam, rank) for lam, _ in diag]]
    return _packed_sum(cols, [(sum(lam), i, i) for i, (lam, _) in enumerate(diag)], rank)


def _pair_haar(rank: int, key1, key2) -> tuple:
    """(t, P, `_factor`(P) or None for P = 0), memoized: t is the z-degree of the
    product of two basis monomials and P sums c N_lam over its diagonal terms."""
    return _PAIR_HAAR_CACHE[rank, key1, key2]


def _shift_sum(v: int, p: int, shifts) -> int:
    """v + p X for a constant X given as its (n_i, shift_i) (`_pair_row`)."""
    for n, sh in shifts:
        if n == 1:
            v += p << sh
        elif n == -1:
            v -= p << sh
        else:
            v += (p * n) << sh
    return v


def _pair_row(rank: int, key1, key2) -> tuple:
    (l1, m1), (l2, m2) = key1, key2
    t, e = sum(l1) + sum(l2), 2 * sum(i * (a - b) for i, (a, b) in enumerate(zip(l1, m1)))
    if any(a - b + c - d for a, b, c, d in zip(l1, m1, l2, m2)):
        return t, ZERO, None
    # the orbit as (f, k1, k2), P(key1, key2) = q^f P(k1, k2), e = tau(key2) = tau(key1*)
    orbit = [(0, key1, key2), (0, key2[::-1], key1[::-1]), (e, key2, key1), (e, key1[::-1], key2[::-1])]
    f, k1, k2 = min(orbit, key=lambda o: (sum(o[1][1]) + sum(o[2][0]), o[1:]))
    if (k1, k2) == (key1, key2):
        # the product's terms (N_lam factor, n, k), from the row of w^m1 z^l2: all diagonal
        terms = _product_terms(_WZ_CACHE[rank, m1, l2], key1, key2)
        diag = [(_haar_factor(lam, rank), n, k) for lam, _, n, k in terms]
        s = _width(sum(sum(map(abs, n)) * h[2] for h, n, _ in diag).bit_length() + 1)
        top, v = max((k for *_, k in diag), default=0), 0
        for h, n, k in diag:
            v = _shift_sum(v, h[3](s), [(x, s * (top - k + i)) for i, x in enumerate(n) if x])
        p = _laurent(_from_digits(v, s), top)
    else:
        p = _laurent((r := _PAIR_HAAR_CACHE[rank, k1, k2][1]).num, len(r.den) - 1 - f)
    return t, p, _factor(p, _packed) if p else None


_PAIR_HAAR_CACHE = _Memo(_pair_row)


def inner(a: ZElement, b: ZElement) -> QRat:
    """<a, b> = h(b* a), computed by pairing monomials directly."""
    rank = _z_rank(a, "the Haar functional")
    if _z_rank(b, "the Haar functional") != rank:
        raise ValueError(f"rank mismatch: {rank} vs {b.rank}")
    a_terms = [(i, key, tuple(x - y for x, y in zip(*key))) for i, key in enumerate(a.terms)]
    fs, items = [], []
    for j, (lam_b, mu_b) in enumerate(b.terms):
        # star swaps the exponents: b*'s weight mu_b - lam_b must cancel a's weight
        bkey, wb = (mu_b, lam_b), tuple(x - y for x, y in zip(lam_b, mu_b))
        for i, akey, wa in a_terms:
            if wa == wb:
                t, _, f = _pair_haar(rank, bkey, akey)
                if f:
                    items.append((t, j, i, len(fs)))
                    fs.append(f)
    cols = [list(map(_factor, b.terms.values())), list(map(_factor, a.terms.values())), fs]
    return _packed_sum(cols, items, rank)


@lru_cache(maxsize=None, typed=True)
def _norm(l: int, m: int, alpha: int) -> Cyclo:
    """`norm_const` as a `Cyclo`, one factor 1 - q^k per Pochhammer term; ValueError unless a `DiskSpec`."""
    l, m, alpha = DiskSpec(l, m, alpha)
    a = 2 * (alpha + 1)
    num = Cyclo.one_minus(a, *range(2, 2 * l + 1, 2), *range(2, 2 * m + 1, 2))
    den = Cyclo.one_minus(2 * (alpha + l + m + 1), *range(a, a + 2 * l, 2), *range(a, a + 2 * m, 2))
    return Cyclo.product(((num, 1), (den, -1)), qexp=m * a)


def norm_const(l: int, m: int, alpha: int) -> QRat:
    """Squared norm c_{l,m}^(alpha) of the (l, m) q-disk polynomial:

    (1 - q^(2(alpha+1))) q^(2m(alpha+1)) / (1 - q^(2(alpha+l+m+1)))
        * (q^2; q^2)_l (q^2; q^2)_m
        / ((q^(2(alpha+1)); q^2)_l (q^(2(alpha+1)); q^2)_m).

    Not symmetric in l and m: the q-power weights the w-side degree."""
    return _norm(*DiskSpec(l, m, alpha)).to_qrat()
