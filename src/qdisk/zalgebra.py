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
monomials come from memo tables (`_Memo`) on the expansion of w^mu z_j,
their Laurent entries built on integer numerators, with no Q(q) product.

The relations are closed under the *-involution, which fixes q, swaps z_i
and w_i and reverses products: the w-relation is the *-image of the
z-relation.  Since (z^a)* = w^a, w^b w^a = (z^a z^b)* merges with the
q-power of z^a z^b, so `_merge_exp` is the one merge rule of both blocks.

One element type, `ZElement`, holds both an element of Z_n and one of a
tensor product Z_n1 (x) Z_n2, which multiplies factorwise.  Its `__str__`
is the printer of the `qdisk.cli` expression grammar.

Coefficients are packed into integers by one kernel, `qfield.pack_laurent`
(Kronecker substitution), which writes Laurent coefficients n_i/q^k_i, K
the largest k_i, as the values n_i(2^s) 2^(s(K - k_i)) at q = 2^s.  An
element times a scalar is one `QRat` product per term.  Element products
run through one loop, `_core`, on `QRat`s or, from _PACK_MIN_PAIRS term
pairs on, on both sides packed; the structure constants are over q-powers,
as the relations are over Z[q, 1/q].  A constant n/q^k is applied as
shifts: over its table's largest k, K_f, it is the sum of n_i 2^(s(K_f - k
+ i)), so a product with it is a small-integer product and a shift per
nonzero n_i, not a multiply by a long integer.  Evaluation at 2^s is a ring
homomorphism, so for each output monomial the sum of the products A_i B_j X
over the contributing pairs and structure constants is F(2^s), F the output
coefficient times q^Ktot (Ktot the sum of the K's), read back from its
symmetric digits once.

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

Cutoff.  Below 16 term pairs the per-pair loop runs.  The 2119 products of
the 128-case `qdisk suite` grid and the 879 of the three benchmark
`verify_addition` cases were replayed through both paths on warm tables
(2-vCPU x86-64, best of five): the loop was 3-4x faster on one pair, packing
3x faster on the largest, and cutoffs from 8 to 64 gave totals within 5%,
16 the least (164 ms; 246 ms with every product packed).  End to end, five
alternating fresh runs each: the suite grid took 0.22-0.25 s in one process
at 16 and 0.28-0.36 s with every product packed; the addition cases did not
move (0.35-0.48 s).
"""

from __future__ import annotations

import math
from typing import Sequence

from .qfield import (ONE, QRat, ZERO, _accum, _coerce, _from_digits, _is_qpow, _laurent, _width,
                     int_from_json, mass, pack_laurent, poly_mul, poly_neg, poly_str)

# a monomial key is (lam, mu), two exponent tuples of length rank
Key = tuple


def _check_rank(rank: int) -> None:
    if not isinstance(rank, int) or rank < 1:
        raise ValueError(f"rank must be a positive integer, got {rank!r}")


def _element(a, what: str) -> "ZElement":
    """a, for `what` defined on elements; ValueError on anything else."""
    if not isinstance(a, ZElement):
        raise ValueError(f"{what} acts on elements of Z_n, not on {type(a).__name__}")
    return a


def _z_rank(a: "ZElement", what: str) -> int:
    """The rank n of a, for `what` defined on Z_n only; ValueError on anything else."""
    if type(_element(a, what).rank) is not int:
        raise ValueError(f"{what} acts on Z_n, not on rank {a.rank}")
    return a.rank


def _check_key(key, rank) -> Key:
    """key, if it is a monomial (lam, mu) of rank n, two tuples of n nonnegative
    ints, or for a tensor rank a tuple of one per factor; else ValueError."""
    if type(rank) is tuple:
        ok = type(key) is tuple and len(key) == len(rank) and all(map(_check_key, key, rank))
    else:
        ok = type(key) is tuple and len(key) == 2 and all(
            type(e) is tuple and len(e) == rank and all(isinstance(x, int) and x >= 0 for x in e)
            for e in key)
    if not ok:
        raise ValueError(f"exponents must be nonnegative integers: a key of rank {rank} is "
                         f"(lam, mu), two tuples of {rank} nonnegative exponents, got {key!r}")
    return key


def _check_index(i: int, rank: int) -> None:
    if not isinstance(i, int) or not 1 <= i <= rank:
        raise ValueError(f"generator index {i!r} out of range for rank {rank}")


# ----------------------------------------------------------------------
# memoized structure constants
#
# _PULL_CACHE[rank, mu, j]:   normal form of w^mu z_j
# _WZ_CACHE[rank, mu, lam]:   normal form of w^mu z^lam
# _MONO_CACHE[rank, k1, k2]:  normal form of (z^lam1 w^mu1)(z^lam2 w^mu2), read through _mono_mul
#
# each a tuple of (key, coeff) pairs, coeff a nonzero Laurent QRat.  The
# relations are over Z[q, 1/q], so a row is built on integer numerators: f
# times n / q^k times q^-e is _laurent(poly_mul(f, n), k + e), no Q(q) product.


class _Memo(dict):
    """A memo table: a missing key is built by build(*key) and stored."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(*key)
        return value


def _merge_exp(left: Sequence[int], right: Sequence[int]) -> int:
    """q-exponent from commuting z^right leftwards into z^left (result
    z^(left+right)); by the *-mirror, merging the w-blocks w^left w^right
    into w^(left+right) gives _merge_exp(right, left)."""
    total = 0
    for i, ri in enumerate(right):
        if ri:
            for j in range(i + 1, len(left)):
                if left[j]:
                    total += left[j] * ri
    return total


def _pull_row(rank: int, mu: tuple, j: int):
    j0 = j - 1
    if not any(mu):
        lam = tuple(1 if i == j0 else 0 for i in range(rank))
        return (((lam, mu), ONE),)
    i0 = next(i for i in range(rank) if mu[i])  # rightmost letter of the w block
    mu_rest = tuple(m - 1 if i == i0 else m for i, m in enumerate(mu))
    # w^mu z_j = w^mu_rest (w_i0 z_j), where w_i0 z_j is q z_j w_i0 for i0 != j0,
    # else z_i0 w_i0 + (1 - q^2) sum_{t < i0} z_t w_t: a move (t, j', factor) is
    # factor times the normal form of w^mu_rest z_j' with w_t merged into its w-block
    if i0 != j0:
        moves = [(i0, j, (0, 1))]
    else:
        moves = [(t, t + 1, (1,) if t == i0 else (1, 0, -1)) for t in range(i0 + 1)]
    acc: dict = {}
    for t, jt, factor in moves:
        for (lam, nu), c in _PULL_CACHE[rank, mu_rest, jt]:
            key = (lam, tuple(v + 1 if i == t else v for i, v in enumerate(nu)))
            _accum(acc, key, _laurent(poly_mul(factor, c.num), len(c.den) - 1 + sum(nu[:t])))
    return tuple((k, v) for k, v in acc.items() if v)


def _wz_row(rank: int, mu: tuple, lam: tuple):
    if not any(lam):
        return (((lam, mu), ONE),)
    j0 = next(i for i in range(rank) if lam[i])
    rest = tuple(v - 1 if i == j0 else v for i, v in enumerate(lam))
    acc: dict = {}
    for (a, b), c in _PULL_CACHE[rank, mu, j0 + 1]:
        for (a2, b2), c2 in _WZ_CACHE[rank, b, rest]:
            key = (tuple(x + y for x, y in zip(a, a2)), b2)
            e = len(c.den) + len(c2.den) - 2 + _merge_exp(a, a2)
            _accum(acc, key, _laurent(poly_mul(c.num, c2.num), e))
    return tuple((k, v) for k, v in acc.items() if v)


def _product_terms(row, k1: Key, k2: Key):
    """The terms (lam, mu, n, k), n/q^k times z^lam w^mu, of (z^lam1 w^mu1)(z^lam2
    w^mu2) = z^lam1 (w^mu1 z^lam2) w^mu2, row the normal form of w^mu1 z^lam2.
    (a, b) -> (lam1 + a, b + mu2) is one-to-one, so no two terms merge."""
    (l1, _), (_, m2) = k1, k2
    for (a, b), c in row:
        yield (tuple(x + y for x, y in zip(l1, a)), tuple(x + y for x, y in zip(b, m2)),
               c.num, len(c.den) - 1 + _merge_exp(l1, a) + _merge_exp(m2, b))


def _mono_row(rank: int, k1: Key, k2: Key):
    return tuple(((lam, mu), _laurent(n, k))
                 for lam, mu, n, k in _product_terms(_WZ_CACHE[rank, k1[1], k2[0]], k1, k2))


_PULL_CACHE = _Memo(_pull_row)
_WZ_CACHE = _Memo(_wz_row)
_MONO_CACHE = _Memo(_mono_row)


def _mono_mul(rank: int, k1: Key, k2: Key):
    return _MONO_CACHE[rank, k1, k2]


# ----------------------------------------------------------------------
# element products (packing, bound and cutoff: see the module docstring)

_PACK_MIN_PAIRS = 16


def _product(a: dict, b: dict, ranks: tuple) -> dict:
    """Nonzero terms {key: coeff} of the product of the elements with terms a and b:
    ranks = (n,) multiplies in Z_n, keys being monomials (lam, mu); ranks =
    (n1, n2) multiplies in Z_n1 (x) Z_n2 factorwise, keys being pairs."""
    tables, acc = _tables(a, b, ranks), {}
    if len(a) * len(b) < _PACK_MIN_PAIRS or not all(
            _is_qpow(c.den) for terms in (a, b) for c in terms.values()):
        _core(list(a.items()), list(b.items()), tables, acc, _mul_add, None)
        return {key: c for key, c in acc.items() if c}
    s = _width((mass(a.values()) * mass(b.values()) * _row_mass(tables)).bit_length() + 1)
    (ka, pa), (kb, pb) = pack_laurent(list(a.values()), s), pack_laurent(list(b.values()), s)
    k, rows = _shifted(tables, s)
    _core(list(zip(a, pa)), list(zip(b, pb)), rows, acc, _shift_sum, 0)
    return _unpacked(acc, s, ka + kb + k)


def _tables(xs, ys, ranks: tuple) -> list:
    """Per factor, the structure row of every pair of its distinct keys on the
    two sides, the keys of the one side being xs and of the other ys."""
    if len(ranks) == 1:
        return [{(x, y): _mono_mul(ranks[0], x, y) for x in xs for y in ys}]
    return [{(x, y): _mono_mul(rank, x, y) for x in {k[f] for k in xs} for y in {k[f] for k in ys}}
            for f, rank in enumerate(ranks)]


def _row_mass(tables: list) -> int:
    """S, the product over the tables of their largest row mass."""
    return math.prod(max(mass(c for _, c in row) for row in table.values()) for table in tables)


def _shifted(tables: list, s: int) -> tuple:
    """(K, rows): the tables with each constant n/q^k as the shifts s (K_f - k + i)
    of its nonzero n_i, K_f the largest k of its table and K the sum of the K_f."""
    ktot, rows = 0, []
    for table in tables:
        consts = {c: None for row in table.values() for _, c in row}
        k = max(len(c.den) for c in consts) - 1
        for c in consts:
            consts[c] = [(n, s * (k + 1 - len(c.den) + i)) for i, n in enumerate(c.num) if n]
        rows.append({pair: [(key, consts[c]) for key, c in row] for pair, row in table.items()})
        ktot += k
    return ktot, rows


def _core(pa, pb, rows: list, acc: dict, mul_add, zero) -> None:
    """acc[key] = mul_add(acc[key], x_a x_b, X), an absent key reading zero, over
    the pairs of (key_a, x_a) in pa and (key_b, x_b) in pb and the constants X of
    their rows, one table per factor, that land on key: `_mul_add` on `QRat`s
    (zero None), `_shift_sum` on packed values and `_shifted` rows (zero 0)."""
    if len(rows) == 1:
        row, = rows
        for k1, x1 in pa:
            for k2, x2 in pb:
                p = x1 * x2
                for key, c in row[k1, k2]:
                    acc[key] = mul_add(acc.get(key, zero), p, c)
    else:
        lrow, rrow = rows
        for (l1, r1), x1 in pa:
            for (l2, r2), x2 in pb:
                p = x1 * x2
                right = rrow[r1, r2]
                for kl, cl in lrow[l1, l2]:
                    pl = mul_add(zero, p, cl)
                    for kr, cr in right:
                        key = (kl, kr)
                        acc[key] = mul_add(acc.get(key, zero), pl, cr)


def _mul_add(v, p: QRat, c: QRat) -> QRat:
    """v + p c on `QRat`s, v None reading zero."""
    return p * c if v is None else v + p * c


def _shift_sum(v: int, p: int, shifts) -> int:
    """v + p X for a constant X given as its (n_i, shift_i) (`_shifted`)."""
    for n, sh in shifts:
        if n == 1:
            v += p << sh
        elif n == -1:
            v -= p << sh
        else:
            v += (p * n) << sh
    return v


def _unpacked(acc: dict, s: int, k: int) -> dict:
    """The nonzero terms {key: F/q^k} of packed values {key: F(2^s)}."""
    return {key: _laurent(_from_digits(v, s), k) for key, v in acc.items() if v}


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
    not mix.  The constructor checks every term (`_check_key`, an int or QRat
    coefficient); builders over terms of checked elements take `_of`."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms: dict | None = None):
        for r in rank if type(rank) is tuple and len(rank) == 2 else (rank,):
            _check_rank(r)
        self.rank = rank
        self.terms: dict = {}
        for key, coeff in (terms or {}).items():
            coeff = coeff if isinstance(coeff, QRat) else QRat.from_int(coeff)
            if _check_key(key, rank) and coeff:
                self.terms[key] = coeff

    @staticmethod
    def _of(rank, terms: dict) -> "ZElement":
        """An element of rank over checked terms: `_check_key` keys, nonzero QRats."""
        out = object.__new__(ZElement)
        out.rank, out.terms = rank, terms
        return out

    def _like(self, terms: dict) -> "ZElement":
        """An element of self's rank over checked terms (`_of`)."""
        return ZElement._of(self.rank, terms)

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
        return ZElement(rank, {(tuple(lam), tuple(mu)): coeff})

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
            return self._like({key: c * other for key, c in self.terms.items()})
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
    return star(z_gen(i, rank))


def q_element(i: int, rank: int) -> ZElement:
    """Q_i = sum_{k <= i} z_k w_k; Q_rank is central."""
    _check_rank(rank)
    _check_index(i, rank)
    return ZElement(rank, {(tuple(int(t == k) for t in range(rank)),) * 2: ONE for k in range(i)})


def star(a: ZElement) -> ZElement:
    """The *-involution: anti-linear anti-homomorphism with z_i* = w_i.

    On basis monomials it swaps the exponent vectors, (z^lam w^mu)* =
    z^mu w^lam, with no q-power, in each factor of a tensor product;
    coefficients are fixed (they are their own conjugates in Q(q))."""
    if type(_element(a, "the *-involution").rank) is tuple:  # factorwise
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
    if not isinstance(n, int) or n < s:
        raise ValueError(f"cannot embed rank {s} into rank {n!r}")
    pad = (0,) * (n - s)
    return ZElement._of(n, {(lam + pad, mu + pad): c for (lam, mu), c in a.terms.items()})


def restrict(a: ZElement, s: int) -> ZElement:
    """Surjective *-homomorphism Z_n -> Z_s sending z_i -> 0 for i <= n - s
    and z_i -> z_{i-n+s} for i > n - s."""
    n = _z_rank(a, "restrict")
    if not isinstance(s, int) or not 1 <= s <= n:
        raise ValueError(f"restriction target rank {s!r} out of range for rank {n}")
    cut = n - s  # the kept keys are zero below cut, so no two of them merge
    return ZElement._of(s, {(lam[cut:], mu[cut:]): c for (lam, mu), c in a.terms.items()
                            if not any(lam[:cut] + mu[:cut])})


def counit(a: ZElement) -> QRat:
    """Algebra character sending z_n -> 1 and z_i -> 0 for i < n."""
    n = _z_rank(a, "the counit")
    return sum((c for (lam, mu), c in a.terms.items() if not any(lam[:n - 1] + mu[:n - 1])), ZERO)

