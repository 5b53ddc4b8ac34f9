"""Normal-form arithmetic in the twisted coordinate *-algebra of quantum n-space.

The algebra Z_n has generators z_1..z_n and adjoints w_i = z_i*, subject to

    z_i z_j = q z_j z_i             (i < j)
    w_j w_i = q w_i w_j             (i < j)
    w_i z_j = q z_j w_i             (i != j)
    w_i z_i = z_i w_i + (1 - q^2) * sum_{k < i} z_k w_k

Every element has a unique expansion over the ordered monomial basis

    z^lam w^mu = z_1^lam_1 .. z_n^lam_n  w_n^mu_n .. w_1^mu_1

(z factors ascending, w factors descending by index).  Rewriting words
into this basis terminates, because each rule either lowers the number of
w-before-z inversions or keeps it while lowering an index-inversion count,
and it is confluent (checked in the test suite by racing single-step
reduction strategies against the products here).  Products of basis
monomials come from memoized tables built on the expansion of w^mu z_j.

One element type, `ZElement`, holds both an element of Z_n and one of a
tensor product Z_n1 (x) Z_n2, which multiplies factorwise.  Its `__str__`
is the printer of the `qdisk.cli` expression grammar.

Coefficients are packed into integers by one kernel, `qfield.pack_laurent`
(Kronecker substitution), which writes Laurent coefficients n_i/q^k_i, K
the largest k_i, as the values n_i(2^s) 2^(s(K - k_i)) at q = 2^s.  An
element times a scalar packs the scalar once (`qfield.laurent_products`,
with its measured cutoff).  Element products run through `_product`: from
_PACK_MIN_PAIRS term pairs on, both sides and the structure constants,
over q-powers as the relations are over Z[q, 1/q], are packed.  Evaluation
at 2^s is a ring homomorphism, so for each output monomial the sum of the
products A_i B_j X over the contributing pairs and structure constants is
F(2^s), F the output coefficient times q^Ktot (Ktot the sum of the K's),
read back from its symmetric digits.

Bound.  Write |f| for the sum of the absolute values of the integer
coefficients of f, |a| for the sum of |n_i| over a's terms, and S for the
largest mass of a structure-constant row, the sum of |X| over its entries.
In a tensor product S is the product of the factors' largest masses, since
|x y| <= |x| |y|.  Every coefficient of F is a sum of coefficients of
products n_i n_j X, and |n_i n_j X| <= |n_i| |n_j| |X|, so |F_t| <= |a| |b|
S = B.  A slot width s >= B.bit_length() + 1 gives B < 2^(s-1), and an
integer polynomial with coefficients in (-2^(s-1), 2^(s-1)) is its value's
symmetric base-2^s digits.  Packing needs every coefficient over a power of
q; a product with any other runs the per-pair loop, whatever its size.

Cutoff.  Below 16 term pairs the per-pair loop runs.  Every product that
the 128-case `qdisk suite` grid and the three `verify_addition` cases of
the benchmark make was replayed through both paths on warm tables (2-vCPU
x86 VM, best of five).  Below 16 pairs the per-pair loop was faster (up to
2x on single pairs); any cutoff from 8 to 32 gave totals within 3% of each
other.  End to end the loop is needed: in ten alternating pairs of
benchmark runs (`perfbench/run.py --seconds 20`, same VM), packing every
product instead of cutting off at 16 raised the median `solve_s` from 0.99
to 1.32 s on cli and from 0.97 to 1.05 s on addition, and lost all twenty
pairs.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .qfield import (ONE, QRat, ZERO, _coerce, _from_digits, _is_qpow, _laurent, _width,
                     int_from_json, laurent_products, mass, pack_laurent, poly_neg, poly_str)

# a monomial key is (lam, mu), two exponent tuples of length rank
Key = tuple


def _check_rank(rank: int) -> None:
    if not isinstance(rank, int) or rank < 1:
        raise ValueError(f"rank must be a positive integer, got {rank!r}")


def _z_rank(a: "ZElement", what: str) -> int:
    """The rank n of a, for `what` defined on Z_n only; ValueError on a tensor element."""
    if type(a.rank) is not int:
        raise ValueError(f"{what} acts on Z_n, not on rank {a.rank}")
    return a.rank


def _check_index(i: int, rank: int) -> None:
    if not 1 <= i <= rank:
        raise ValueError(f"generator index {i} out of range for rank {rank}")


# ----------------------------------------------------------------------
# memoized structure constants
#
# _pull_through(rank, mu, j): normal form of w^mu z_j
# _wz(rank, mu, lam):         normal form of w^mu z^lam
# _mono_mul(rank, k1, k2):    normal form of (z^lam1 w^mu1)(z^lam2 w^mu2)
#
# all return tuples of (key, coeff) pairs.

_PULL_CACHE: dict = {}
_WZ_CACHE: dict = {}
_MONO_CACHE: dict = {}


def _z_merge_exp(left: Sequence[int], right: Sequence[int]) -> int:
    """q-exponent from commuting z^right leftwards into z^left (result z^(left+right))."""
    total = 0
    for i, ri in enumerate(right):
        if ri:
            for j in range(i + 1, len(left)):
                if left[j]:
                    total += left[j] * ri
    return total


def _w_merge_exp(left: Sequence[int], right: Sequence[int]) -> int:
    """q-exponent from merging the w-blocks w^left w^right into w^(left+right)."""
    total = 0
    for i, li in enumerate(left):
        if li:
            for j in range(i + 1, len(right)):
                if right[j]:
                    total += li * right[j]
    return total


def _pull_through(rank: int, mu: tuple, j: int):
    cached = _PULL_CACHE.get((rank, mu, j))
    if cached is not None:
        return cached
    j0 = j - 1
    if not any(mu):
        lam = tuple(1 if i == j0 else 0 for i in range(rank))
        result = (((lam, mu), ONE),)
        _PULL_CACHE[(rank, mu, j)] = result
        return result
    i0 = next(i for i in range(rank) if mu[i])  # rightmost letter of the w block
    mu_rest = tuple(m - 1 if i == i0 else m for i, m in enumerate(mu))
    acc: dict = {}
    if i0 != j0:
        for (lam, nu), c in _pull_through(rank, mu_rest, j):
            e = -sum(nu[k] for k in range(i0))
            key = (lam, tuple(v + 1 if i == i0 else v for i, v in enumerate(nu)))
            _accum(acc, key, c * QRat.q_power(1 + e))
    else:
        one_minus_q2 = ONE - QRat.q_power(2)
        for t in range(i0 + 1):
            factor = ONE if t == i0 else one_minus_q2
            for (lam, nu), c in _pull_through(rank, mu_rest, t + 1):
                e = -sum(nu[k] for k in range(t))
                key = (lam, tuple(v + 1 if i == t else v for i, v in enumerate(nu)))
                _accum(acc, key, factor * c * QRat.q_power(e))
    result = tuple((k, v) for k, v in acc.items() if v)
    _PULL_CACHE[(rank, mu, j)] = result
    return result


def _wz(rank: int, mu: tuple, lam: tuple):
    cached = _WZ_CACHE.get((rank, mu, lam))
    if cached is not None:
        return cached
    if not any(lam):
        result = (((lam, mu), ONE),)
        _WZ_CACHE[(rank, mu, lam)] = result
        return result
    j0 = next(i for i in range(rank) if lam[i])
    rest = tuple(v - 1 if i == j0 else v for i, v in enumerate(lam))
    acc: dict = {}
    for (a, b), c in _pull_through(rank, mu, j0 + 1):
        for (a2, b2), c2 in _wz(rank, b, rest):
            e = _z_merge_exp(a, a2)
            key = (tuple(x + y for x, y in zip(a, a2)), b2)
            _accum(acc, key, c * c2 * QRat.q_power(-e))
    result = tuple((k, v) for k, v in acc.items() if v)
    _WZ_CACHE[(rank, mu, lam)] = result
    return result


def _mono_mul(rank: int, k1: Key, k2: Key):
    cached = _MONO_CACHE.get((rank, k1, k2))
    if cached is not None:
        return cached
    (l1, m1), (l2, m2) = k1, k2
    acc: dict = {}
    for (a, b), c in _wz(rank, m1, l2):
        e = _z_merge_exp(l1, a) + _w_merge_exp(b, m2)
        key = (tuple(x + y for x, y in zip(l1, a)),
               tuple(x + y for x, y in zip(b, m2)))
        _accum(acc, key, c * QRat.q_power(-e))
    result = tuple((k, v) for k, v in acc.items() if v)
    _MONO_CACHE[(rank, k1, k2)] = result
    return result


def _accum(acc: dict, key, coeff) -> None:
    prev = acc.get(key)
    acc[key] = coeff if prev is None else prev + coeff


# ----------------------------------------------------------------------
# element products (packing, bound and cutoff: see the module docstring)

_PACK_MIN_PAIRS = 16


def _product(a: dict, b: dict, ranks: tuple) -> dict:
    """Nonzero terms {key: coeff} of the product of the elements with terms a and b:
    ranks = (n,) multiplies in Z_n, keys being monomials (lam, mu); ranks =
    (n1, n2) multiplies in Z_n1 (x) Z_n2 factorwise, keys being pairs."""
    if len(a) * len(b) >= _PACK_MIN_PAIRS and all(
            _is_qpow(c.den) for terms in (a, b) for c in terms.values()):
        return _packed_product(a, b, ranks)
    out: dict = {}
    if len(ranks) == 1:
        rank, = ranks
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                c = c1 * c2
                for key, sc in _mono_mul(rank, k1, k2):
                    _accum(out, key, c * sc)
    else:
        left, right = ranks
        for (l1, r1), c1 in a.items():
            for (l2, r2), c2 in b.items():
                c = c1 * c2
                for kl, sl in _mono_mul(left, l1, l2):
                    csl = c * sl
                    for kr, sr in _mono_mul(right, r1, r2):
                        _accum(out, (kl, kr), csl * sr)
    return {key: c for key, c in out.items() if c}


def _packed_product(a: dict, b: dict, ranks: tuple) -> dict:
    """`_product` by Kronecker substitution, for coefficients over powers of q."""
    bound = mass(a.values()) * mass(b.values())
    # the rows each factor needs: every pair of its distinct keys on the two sides
    tables = []
    for f, rank in enumerate(ranks):
        xs, ys = (a, b) if len(ranks) == 1 else ({k[f] for k in a}, {k[f] for k in b})
        table = {(x, y): _mono_mul(rank, x, y) for x in xs for y in ys}
        bound *= max(mass(c for _, c in row) for row in table.values())
        tables.append(table)
    s = _width(bound.bit_length() + 1)
    (ka, pa), (kb, pb) = pack_laurent(list(a.values()), s), pack_laurent(list(b.values()), s)
    pa, pb, ktot = list(zip(a, pa)), list(zip(b, pb)), ka + kb
    prows = []
    for table in tables:
        consts = list({c: None for row in table.values() for _, c in row})
        kf, packed = pack_laurent(consts, s)
        packed, ktot = dict(zip(consts, packed)), ktot + kf
        prows.append({pair: [(key, packed[c]) for key, c in row] for pair, row in table.items()})
    acc: dict = {}
    if len(ranks) == 1:
        prow, = prows
        for k1, x1 in pa:
            for k2, x2 in pb:
                p = x1 * x2
                for key, x in prow[(k1, k2)]:
                    acc[key] = acc.get(key, 0) + p * x
    else:
        lrow, rrow = prows
        for (l1, r1), x1 in pa:
            for (l2, r2), x2 in pb:
                p = x1 * x2
                right = rrow[(r1, r2)]
                for kl, x in lrow[(l1, l2)]:
                    px = p * x
                    for kr, y in right:
                        key = (kl, kr)
                        acc[key] = acc.get(key, 0) + px * y
    return {key: _laurent(_from_digits(v, s), ktot) for key, v in acc.items() if v}


# ----------------------------------------------------------------------
# elements


def _term_order_key(key: Key):
    """Total order on basis monomials: graded, then lexicographic in the
    sequence (lam_n .. lam_1, mu_1 .. mu_n)."""
    lam, mu = key
    return (sum(lam) + sum(mu),) + tuple(reversed(lam)) + tuple(mu)


def _unit_key(rank) -> Key:
    if type(rank) is tuple:
        return tuple(map(_unit_key, rank))
    return ((0,) * rank,) * 2


class ZElement:
    """A finite Q(q)-combination of ordered basis monomials.

    rank is an int n for Z_n, with keys (lam, mu), or a pair (n1, n2) for
    Z_n1 (x) Z_n2, with keys pairs of such monomials, one per factor; the
    tensor product multiplies factorwise.  Elements of different ranks do
    not mix."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms: dict | None = None):
        for r in rank if type(rank) is tuple and len(rank) == 2 else (rank,):
            _check_rank(r)
        self.rank = rank
        self.terms: dict = {}
        if terms:
            for key, coeff in terms.items():
                if not isinstance(coeff, QRat):
                    coeff = QRat.from_int(coeff)
                if coeff:
                    self.terms[key] = coeff

    def _like(self, terms: dict) -> "ZElement":
        """An element of self's rank over terms with nonzero QRat coefficients."""
        out = object.__new__(ZElement)
        out.rank, out.terms = self.rank, terms
        return out

    @property
    def ranks(self) -> tuple:
        """The factor ranks: (n,) for Z_n, (n1, n2) for a tensor product."""
        return self.rank if type(self.rank) is tuple else (self.rank,)

    # -- constructors

    @staticmethod
    def zero(rank) -> "ZElement":
        return ZElement(rank)

    @staticmethod
    def one(rank) -> "ZElement":
        return ZElement.scalar(ONE, rank)

    @staticmethod
    def scalar(c, rank) -> "ZElement":
        return ZElement(rank, {_unit_key(rank): c})

    def one_like(self) -> "ZElement":
        return ZElement.one(self.rank)

    @staticmethod
    def monomial(rank: int, lam: Sequence[int], mu: Sequence[int], coeff=ONE) -> "ZElement":
        lam, mu = tuple(lam), tuple(mu)
        if len(lam) != rank or len(mu) != rank:
            raise ValueError("exponent vectors must have length equal to the rank")
        if any(e < 0 for e in lam + mu):
            raise ValueError("exponents must be nonnegative")
        return ZElement(rank, {(lam, mu): coeff})

    # -- structure queries

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list:
        if type(self.rank) is tuple:  # by left factor, then right
            return sorted(self.terms.items(), reverse=True,
                          key=lambda kv: tuple(map(_term_order_key, kv[0])))
        return sorted(self.terms.items(), key=lambda kv: _term_order_key(kv[0]), reverse=True)

    def coefficient(self, lam: Sequence[int], mu: Sequence[int]) -> QRat:
        return self.terms.get((tuple(lam), tuple(mu)), ZERO)

    # -- ring operations

    def _coerce(self, other):
        """other as an element of self's rank; ValueError on a rank mismatch."""
        if isinstance(other, (int, QRat)):
            return ZElement.scalar(other, self.rank)
        if isinstance(other, ZElement) and self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if not isinstance(other, ZElement):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            _accum(out, key, c)
        return self._like({k: c for k, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if not isinstance(other, ZElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, QRat)):
            other = _coerce(other)
            if not other:
                return self._like({})
            return self._like(dict(zip(self.terms, laurent_products(list(self.terms.values()), [other]))))
        other = self._coerce(other)
        if not isinstance(other, ZElement):
            return NotImplemented
        return self._like(_product(self.terms, other.terms, self.ranks))

    def __rmul__(self, other):
        if isinstance(other, (int, QRat)):
            return self.__mul__(other)  # coefficients are central
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("element powers take nonnegative integer exponents")
        acc = self.one_like()
        for _ in range(k):
            acc = acc * self
        return acc

    def __eq__(self, other):
        if isinstance(other, ZElement) and type(self.rank) is not type(other.rank):
            raise ValueError(f"cannot compare elements of ranks {self.rank} and {other.rank}")
        if isinstance(other, (int, QRat)):
            other = ZElement.scalar(other, self.rank)
        if not isinstance(other, ZElement):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    __hash__ = None

    def __str__(self):
        """The element in the expression grammar of `qdisk.cli`, so that the
        parser re-evaluates the printout to the element.  A tensor term
        prints its factors as (left (x) right), outside the grammar."""
        tensor = type(self.rank) is tuple
        pieces = []
        for key, c in self.sorted_terms():
            negative, body = _coeff_str(c)
            mono = ("(" + " (x) ".join(_mono_str(*k) or "1" for k in key) + ")" if tensor
                    else _mono_str(*key))
            if mono:
                body = mono if body == "1" else f"{body}*{mono}"
            sign = ("-" if negative else "") if not pieces else ("- " if negative else "+ ")
            pieces.append(sign + body)
        return " ".join(pieces) or "0"

    def __repr__(self):
        return f"ZElement(rank={self.rank}, terms={len(self.terms)})"

    # -- serialization

    def to_json(self) -> dict:
        def mono(key):
            return {"lambda": list(key[0]), "mu": list(key[1])}

        if type(self.rank) is tuple:
            return {"ranks": list(self.rank), "terms": [
                {"left": mono(kl), "right": mono(kr), "coeff": c.to_json()}
                for (kl, kr), c in self.sorted_terms()]}
        return {"rank": self.rank, "terms": [
            {**mono(key), "coeff": c.to_json()} for key, c in self.sorted_terms()]}

    @staticmethod
    def from_json(obj: dict) -> "ZElement":
        """Inverse of `to_json` on Z_n; ValueError on any malformed document."""
        try:
            rank = int_from_json(obj["rank"])
            terms = {}
            for t in obj["terms"]:
                if type(t["lambda"]) is not list or type(t["mu"]) is not list:
                    raise ValueError(f"lambda and mu must be lists, got {t!r}")
                key = (tuple(int_from_json(x) for x in t["lambda"]),
                       tuple(int_from_json(x) for x in t["mu"]))
                if any(len(e) != rank or min(e) < 0 for e in key):
                    raise ValueError(f"lambda and mu must be {rank} nonnegative exponents, got {key}")
                _accum(terms, key, QRat.from_json(t["coeff"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed element JSON: {type(exc).__name__} {exc}") from None
        return ZElement(rank, terms)


def _mono_str(lam, mu) -> str:
    """z^lam w^mu in the expression grammar; the empty string for 1."""
    parts = [f"z[{i}]" + (f"^{e}" if e > 1 else "")
             for i, e in enumerate(lam, start=1) if e]
    parts += [f"w[{i}]" + (f"^{e}" if e > 1 else "")
              for i, e in reversed(list(enumerate(mu, start=1))) if e]
    return "*".join(parts)


def _coeff_str(c: QRat) -> tuple:
    """(negative, body): the sign of c and a factor-safe rendering of -c or
    c, whose numerator and denominator lead (in ascending degree) with a
    positive coefficient."""
    num, den = c.num, c.den
    if next(x for x in den if x) < 0:
        num, den = poly_neg(num), poly_neg(den)
    negative = next(x for x in num if x) < 0
    num_s = poly_str(poly_neg(num) if negative else num)
    if sum(map(bool, num)) > 1:
        num_s = f"({num_s})"
    if den == (1,):
        return negative, num_s
    den_s = poly_str(den)
    if sum(map(bool, den)) > 1 or "*" in den_s:
        den_s = f"({den_s})"
    return negative, f"({num_s}/{den_s})"


# ----------------------------------------------------------------------
# generators and named elements


def z_gen(i: int, rank: int) -> ZElement:
    _check_rank(rank)
    _check_index(i, rank)
    lam = tuple(1 if k == i - 1 else 0 for k in range(rank))
    return ZElement.monomial(rank, lam, (0,) * rank)


def w_gen(i: int, rank: int) -> ZElement:
    _check_rank(rank)
    _check_index(i, rank)
    mu = tuple(1 if k == i - 1 else 0 for k in range(rank))
    return ZElement.monomial(rank, (0,) * rank, mu)


def q_element(i: int, rank: int) -> ZElement:
    """Q_i = sum_{k <= i} z_k w_k; Q_rank is central."""
    _check_rank(rank)
    _check_index(i, rank)
    terms = {}
    for k in range(i):
        key = (tuple(1 if t == k else 0 for t in range(rank)),) * 2
        terms[key] = ONE
    return ZElement(rank, terms)


def star(a: ZElement) -> ZElement:
    """The *-involution: anti-linear anti-homomorphism with z_i* = w_i.

    On basis monomials it swaps the exponent vectors, (z^lam w^mu)* =
    z^mu w^lam, with no q-power, in each factor of a tensor product;
    coefficients are fixed (they are their own conjugates in Q(q))."""
    if type(a.rank) is tuple:  # factorwise
        return a._like({tuple((mu, lam) for lam, mu in key): c for key, c in a.terms.items()})
    return a._like({(mu, lam): c for (lam, mu), c in a.terms.items()})


ANY_BIDEGREE = "any"


def bidegree(a: ZElement):
    """(l, m) if a is bihomogeneous, the string "any" for zero, else None."""
    _z_rank(a, "bidegree")
    if not a.terms:
        return ANY_BIDEGREE
    degs = {(sum(lam), sum(mu)) for lam, mu in a.terms}
    if len(degs) == 1:
        return degs.pop()
    return None


def embed(a: ZElement, n: int) -> ZElement:
    """Unital *-embedding of Z_s into Z_n (s <= n), z_i -> z_i."""
    s = _z_rank(a, "embed")
    if n < s:
        raise ValueError(f"cannot embed rank {s} into smaller rank {n}")
    pad = (0,) * (n - s)
    return ZElement(n, {(lam + pad, mu + pad): c for (lam, mu), c in a.terms.items()})


def restrict(a: ZElement, s: int) -> ZElement:
    """Surjective *-homomorphism Z_n -> Z_s sending z_i -> 0 for i <= n - s
    and z_i -> z_{i-n+s} for i > n - s."""
    n = _z_rank(a, "restrict")
    if not 1 <= s <= n:
        raise ValueError(f"restriction target rank {s} out of range for rank {n}")
    cut = n - s
    out: dict = {}
    for (lam, mu), c in a.terms.items():
        if any(lam[:cut]) or any(mu[:cut]):
            continue
        _accum(out, (lam[cut:], mu[cut:]), c)
    return ZElement(s, out)


def counit(a: ZElement) -> QRat:
    """Algebra character sending z_n -> 1 and z_i -> 0 for i < n."""
    total = ZERO
    n = _z_rank(a, "the counit")
    for (lam, mu), c in a.terms.items():
        if not any(lam[: n - 1]) and not any(mu[: n - 1]):
            total = total + c
    return total


def dim_z(l: int, m: int, n: int) -> int:
    """Dimension of the bidegree-(l, m) slice of Z_n."""
    return math.comb(l + n - 1, n - 1) * math.comb(m + n - 1, n - 1)


def dim_h(l: int, m: int, n: int) -> int:
    """Dimension of the bidegree-(l, m) slice of the quotient sphere algebra."""
    num = (l + m + n - 1) * math.factorial(l + n - 2) * math.factorial(m + n - 2)
    den = math.factorial(l) * math.factorial(m) * math.factorial(n - 1) * math.factorial(n - 2)
    return num // den


def normal_order(word: Iterable, rank: int) -> ZElement:
    """Normal form of a product of generators, given as a word of letters
    ("z", i) / ("w", i), multiplied out left to right."""
    _check_rank(rank)
    gens = {"z": z_gen, "w": w_gen}
    acc = ZElement.one(rank)
    for kind, i in word:
        if kind not in gens:
            raise ValueError(f"unknown generator kind {kind!r}")
        acc = acc * gens[kind](i, rank)
    return acc
