"""Exact arithmetic in the field of rational functions of q.

Every coefficient that appears downstream (normal forms, Haar values, q-disk expansions, verification residuals) lives
in Q(q), represented as a reduced fraction of integer-coefficient polynomials.  Identities are checked by exact
reduction to the canonical zero, never numerically, so the canonical form matters: gcd(num, den) is a unit, den has
positive leading coefficient, and the pair carries overall integer content 1.  Zero is always the pair (0, 1).

Polynomials are plain tuples of ints, coefficient of q^i at index i, no trailing zeros.  Negative powers of q are
ordinary fractions (q^-2 is 1/q^2), but a denominator that is a power of q (1 included) takes a fast path in `+`, `-`
and `*`: such a Laurent polynomial n/q^k has content-1, positive denominator and n prime to q, so the sum or product
needs no gcd, only a shift of the numerators and the cancelling of common powers of q.

Every other field operation cancels a gcd.  `poly_gcd` tries the heuristic GCD of Char, Geddes and Gonnet (J. Symbolic
Comput. 1989) first: evaluate at a power of two, take the integer gcd, read the polynomial back from its symmetric
digits and keep it only when it divides both inputs exactly.  That check also yields the cofactors, which the field
operations use in place of dividing again.  When no evaluation point gives such a candidate, the primitive PRS gcd
`_prs_gcd` decides; it is also the oracle the tests compare the heuristic against.

The closed-form scalars (q-Pochhammers, the little q-Jacobi coefficients, the norm and coupling constants of the
addition formula, and the common denominators over them) all have the form +-q^e prod (1 - q^k)^(e_k).  Since q^k - 1
= prod_{d | k} Phi_d(q), a `Cyclo` holds one as a sign, a power of q and exponents of cyclotomic polynomials Phi_d:
products (n-ary, in one pass), quotients and the lcm of denominators are exponent arithmetic.  `to_qrat` converts
once, with no gcd: the Phi_d are distinct, monic, irreducible and prime to q, so the products over the positive and
over the negative exponents are coprime, the denominator is monic and the pair has content 1, which is canonical form;
each such product is expanded once per process (`_phi_product`).

A polynomial is packed into its value at q = 2^s and read back as signed s-bit words, its symmetric base-2^s digits in
(-2^(s-1), 2^(s-1)]: by one C-level array call for s of 8, 16, 32 or 64 bits on little-endian hosts, else slot by slot
(s a multiple of 8); a bound asking 2^s large holds rounded up.

The packed sums of `diskpoly` and `tensor` work in t = q^2 (Harvey's even/odd split): a coefficient is split once into
its parts q^e g(q^2), g(0) != 0, one per parity of e (`_split`), and an element into `Parts`, flat parts (code, e, g).
A code is a key as one small integer, after the packed exponent vectors of Monagan and Pearce (CASC 2007): each key
(lam, mu) of any rank gets an id once per process (`_id`), a tensor key (k1, k2) is (id k1 << _BITS) | id k2, and only
`_terms` decodes, where an element leaves the t-form.  Only a packed sum splits by parity: one accumulator per parity
p, {code: F(2^s)} for q^p F(t) / t^k, p and p' multiplying into p ^ p', two odd ones carrying q^2 into one more t
(`_read` gives back parts).  A slot holds one coefficient of q, so bounds on those hold; an ungraded coefficient costs
two parts, and a sum is 0 only when both are.  An element keeps its packing at each width it is packed at
(`Parts.packs`), as a table's scalar part does (`_eval_kept`).
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterable, Sequence, Union

Coeffs = tuple  # tuple[int, ...], ascending by degree, no trailing zeros


# ----------------------------------------------------------------------
# integer polynomial helpers


def poly_from_coeffs(cs: Iterable[int]) -> Coeffs:
    cs = list(cs)
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def poly_add(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return poly_from_coeffs(out)


def poly_neg(a: Coeffs) -> Coeffs:
    return tuple(-c for c in a)


def poly_mul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    if a == (1,):
        return b
    if b == (1,):
        return a
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return poly_from_coeffs(out)


def poly_content(a: Coeffs) -> int:
    g = 0
    for c in a:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def poly_valuation(a: Coeffs) -> int:
    """Order of vanishing at q = 0 (a must be nonzero)."""
    for i, c in enumerate(a):
        if c:
            return i
    raise ValueError("zero polynomial has no valuation")


def poly_eval(a: Coeffs, x):
    """a at q = x, in the arithmetic of x (an int or a Fraction)."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_divexact(a: Coeffs, b: Coeffs) -> Coeffs:
    """Quotient a / b over Z[q]; ArithmeticError unless b divides a exactly."""
    if not a:
        return ()
    lb, nb = b[-1], len(b)
    low = b[:-1]
    quot = [0] * (len(a) - nb + 1)
    rem = list(a)
    for k in range(len(a) - nb, -1, -1):
        c = rem[k + nb - 1]
        if c:
            if c % lb:
                raise ArithmeticError("inexact polynomial division")
            qc = c // lb
            quot[k] = qc
            # rem[k + nb - 1] is never read again, so it is left as is
            i = k
            for bc in low:
                if bc:
                    rem[i] -= qc * bc
                i += 1
    if any(rem[:nb - 1]):
        raise ArithmeticError("inexact polynomial division")
    return poly_from_coeffs(quot)


def _primitive(a: Coeffs) -> Coeffs:
    """a over its content, with a positive leading coefficient; () stays ()."""
    if not a:
        return a
    c = poly_content(a) if a[-1] > 0 else -poly_content(a)
    return a if c == 1 else tuple(x // c for x in a)


def _prem(a: Coeffs, b: Coeffs) -> Coeffs:
    """Scalar multiple of the remainder of a by b, fraction-free."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while len(r) - 1 >= db:
        c = r[-1]
        k = len(r) - 1 - db
        r = [lb * x for x in r]
        for i, bc in enumerate(b):
            r[i + k] -= c * bc
        r.pop()
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
    return tuple(r)


def _prs_gcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """Primitive gcd with positive leading coefficient (primitive PRS)."""
    if not a or not b:
        return _primitive(a or b)
    va, vb = poly_valuation(a), poly_valuation(b)
    v = min(va, vb)
    a = _primitive(a[va:])
    b = _primitive(b[vb:])
    while b:
        if len(b) == 1:
            # primitive constant, so the polynomial part is trivial
            b = ()
            a = (1,)
            break
        if len(a) < len(b):
            a, b = b, a
        r = _prem(a, b)
        a, b = b, _primitive(r)
    if v:
        a = (0,) * v + a
    return a


# evaluation points tried by the heuristic gcd before the PRS decides
_HEU_POINTS = 6


def _heu_gcd(a: Coeffs, b: Coeffs):
    """(h, a/h, b/h) by the heuristic GCD, or None when it finds no h.

    a and b are nonzero with nonzero constant terms; h is their primitive gcd with positive leading coefficient.  A
    candidate h is accepted only when it divides both inputs, and then it is the gcd.  Proof: write the true gcd as
    h*k.  The integer gcd at x is c*h(x) with c the content of the interpolant, and h(x)*k(x) divides it, so |k(x)| <=
    |c| <= x/2 (the digits are symmetric).  Every root z of a or b, and so of k, has |z| <= 1 + M (Cauchy), M the
    smaller max norm of a and b.  Since x > 2M + 2, a nonconstant k would have |k(x)| >= x - 1 - M > x/2."""
    if len(a) == 1 or len(b) == 1:
        return (1,), a, b
    if len(a) == len(b) and (a == b or a == poly_neg(b)):  # h = a up to its content
        h = _primitive(a)
        c = a[-1] // h[-1]
        return h, (c,), (c if a == b else -c,)
    # x = 2^s > 2M + 2 (a slot width, so maybe larger) makes the check sound;
    # 8 spare bits make a point rare where spurious factors spoil the digits
    s = _width((2 * min(max(map(abs, a)), max(map(abs, b))) + 3).bit_length() + 8)
    for _ in range(_HEU_POINTS):
        h = _from_digits(math.gcd(_eval_shift(a, s), _eval_shift(b, s)), s)
        if len(h) == 1:
            return (1,), a, b
        h = _primitive(h)
        try:
            return h, poly_divexact(a, h), poly_divexact(b, h)
        except ArithmeticError:
            s = _width(s + s // 4 + 3)
    return None


_CODES = {array(c).itemsize * 8: c for c in "bhiq"} if sys.byteorder == "little" else {}


def _width(bits: int) -> int:
    """The slot width for `bits`-bit digits: 8, 16, 32 or 64, else a multiple of 8."""
    return 8 << max(0, (bits - 1).bit_length() - 3) if bits <= 64 else -(-bits // 8) * 8


def _eval_shift(a: Coeffs, s: int) -> int:
    """a at q = 2^s, s a slot width: the coefficients as s-bit two's-complement slots
    read as one unsigned u; (u ^ m) - m, m holding 2^(s-1) in each slot, flips each
    top bit and takes 2^(s-1) off.  A coefficient too wide for its slot is shifted in."""
    try:
        raw = (array(_CODES[s], a).tobytes() if s in _CODES else
               b"".join(c.to_bytes(s // 8, "little", signed=True) for c in a))
    except OverflowError:
        return sum(c << (s * i) for i, c in enumerate(a))
    m = int.from_bytes((1 << (s - 1)).to_bytes(s // 8, "little") * len(a), "little")
    return (int.from_bytes(raw, "little") ^ m) - m


# a polynomial at 2^s kept per (coefficients, s): the scalar parts of `diskpoly` and `tensor`, N_lam and P
_eval_kept = lru_cache(maxsize=None)(_eval_shift)


def _words(n: int, s: int, negate: bool = False) -> Sequence[int]:
    """The symmetric base-2^s digits of any integer n, or of -n when negate, s a slot width: with m holding
    h = 2^(s-1) in each slot, over two slots more than n needs, each digit in [-h, h) is a carry-free slot of
    n + m, and (n + m) ^ m flips each top bit to leave signed words, read by one array call into a compact
    `array` for s of 8, 16, 32 or 64 bits.  A word -h is no symmetric digit: -n's, negated, are."""
    h, w = 1 << (s - 1), s // 8
    m = int.from_bytes(h.to_bytes(w, "little") * (n.bit_length() // s + 2), "little")
    x = (n + m) ^ m
    raw = x.to_bytes(-(-x.bit_length() // s) * w, "little")
    words = (array(_CODES[s], raw) if s in _CODES else
             [int.from_bytes(raw[i:i + w], "little", signed=True) for i in range(0, len(raw), w)])
    if negate:
        return tuple(map(operator.neg, words))
    return words if -h not in words else _words(-n, s, True)


def _from_digits(n: int, s: int) -> Coeffs:
    """The polynomial of the symmetric base-2^s digits of any integer n (`_words`)."""
    return tuple(_words(n, s))


def _gcd_cofactors(a: Coeffs, b: Coeffs) -> tuple:
    """(g, a/g, b/g) for nonzero a and b, where g = poly_gcd(a, b)."""
    va, vb = poly_valuation(a), poly_valuation(b)
    a1, b1 = a[va:], b[vb:]
    found = _heu_gcd(a1, b1)
    if found is None:
        h = _prs_gcd(a1, b1)
        found = h, poly_divexact(a1, h), poly_divexact(b1, h)
    if not va and not vb:
        return found
    h, ca, cb = found
    v = min(va, vb)
    return (0,) * v + h, (0,) * (va - v) + ca, (0,) * (vb - v) + cb


def poly_gcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """Primitive gcd with positive leading coefficient.

    The heuristic gcd answers first; the primitive PRS decides when it cannot, and for zero inputs."""
    if not a or not b:
        return _prs_gcd(a, b)
    return _gcd_cofactors(a, b)[0]


def poly_str(a: Coeffs, var: str = "q") -> str:
    if not a:
        return "0"
    parts = []
    for e, c in enumerate(a):
        if not c:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            pw = var if e == 1 else f"{var}^{e}"
            body = pw if abs(c) == 1 else f"{abs(c)}*{pw}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ----------------------------------------------------------------------
# the field


def _reduce(num: Coeffs, den: Coeffs) -> tuple[Coeffs, Coeffs]:
    if not den:
        raise ZeroDivisionError("zero denominator in Q(q)")
    if not num:
        return (), (1,)
    if den == (1,):
        return num, den
    _, num, den = _gcd_cofactors(num, den)
    return _unit_normal(num, den)


def _unit_normal(num: Coeffs, den: Coeffs) -> tuple[Coeffs, Coeffs]:
    """(num, den) over the integer content of the pair, den with a positive
    leading coefficient: the canonical form once the polynomial gcd is 1."""
    c = math.gcd(poly_content(num), poly_content(den))
    if den[-1] < 0:
        c = -c
    if c == 1:
        return num, den
    return tuple(x // c for x in num), tuple(x // c for x in den)


def _is_qpow(den: Coeffs) -> bool:
    """Whether a canonical denominator is q^k (k = len(den) - 1)."""
    return den[-1] == 1 and den.count(0) == len(den) - 1


def _laurent(cs: Sequence, k: int) -> "QRat":
    """cs / q^k in canonical form, for any integer k (q^-k cs for k < 0).

    cs is a sum or product of canonical Laurent numerators, so the only factor it can share with q^k is a power of q:
    stripping that is the whole reduction."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    if not n:
        return ZERO
    m = 0
    while m < k and not cs[m]:
        m += 1
    return QRat(tuple(cs[m:n]) if k >= 0 else (0,) * -k + tuple(cs[:n]), _q_power(m - k).den, _canonical=True)


PolyLike = Union[int, Sequence]


def _check_ints(*xs, least: int | None = None) -> tuple:
    """xs; ValueError unless every x is an int (bools count, as everywhere), and >= least if given."""
    if not all(isinstance(x, int) for x in xs) or least is not None and min(xs) < least:
        raise ValueError(f"expected integers{'' if least is None else f' >= {least}'}, got {xs!r}")
    return xs


def _as_poly(x: PolyLike) -> Coeffs:
    if type(x) is int:
        return (x,) if x else ()
    if isinstance(x, Sequence) and all(type(c) is int for c in x):
        return poly_from_coeffs(x)
    raise ValueError(f"Q(q) coefficients must be ints, got {x!r}")


class QRat:
    """An element of Q(q) in canonical reduced form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: PolyLike = (), den: PolyLike = 1, *, _canonical: bool = False):
        if _canonical:
            self.num, self.den = num, den
        else:
            self.num, self.den = _reduce(_as_poly(num), _as_poly(den))
        self._hash = None

    # -- constructors

    @staticmethod
    def from_int(n: int) -> "QRat":
        _check_ints(n)
        return _INT_CACHE.get(n) or QRat((n,) if n else (), (1,), _canonical=True)

    @staticmethod
    def fraction(num: int, den: int) -> "QRat":
        return QRat((num,) if num else (), (den,))

    @staticmethod
    def q_power(k: int) -> "QRat":
        """q^k for any integer k (negative powers become denominators), memoized."""
        return _q_power(*_check_ints(k))

    # -- predicates

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == (1,) and self.den == (1,)

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- field operations

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        b, d = self.den, other.den
        if _is_qpow(b) and _is_qpow(d):
            # n1/q^k1 + n2/q^k2 = (n1 + q^(k1-k2) n2)/q^k1 for k1 >= k2
            n1, k1, n2, k2 = self.num, len(b) - 1, other.num, len(d) - 1
            if k1 < k2:
                n1, k1, n2, k2 = n2, k2, n1, k1
            if k1 > k2:
                n2 = (0,) * (k1 - k2) + n2
            if len(n1) < len(n2):
                n1, n2 = n2, n1
            out = list(map(operator.add, n1, n2))
            out += n1[len(n2):]
            return _laurent(out, k1)
        # over the lcm b1 d of b = g b1 and d = g d1
        _, b1, d1 = _gcd_cofactors(b, d)
        t = poly_add(poly_mul(self.num, d1), poly_mul(other.num, b1))
        return QRat(*_reduce(t, poly_mul(b1, d)), _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self
        return QRat(poly_neg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if _is_qpow(d1) and _is_qpow(d2):
            return _laurent(poly_mul(n1, n2), len(d1) + len(d2) - 2)
        if self.is_one():
            return other
        if other.is_one():
            return self
        # cross-cancel before multiplying to keep intermediates small
        if d2 != (1,):
            _, n1, d2 = _gcd_cofactors(n1, d2)
        if d1 != (1,):
            _, n2, d1 = _gcd_cofactors(n2, d1)
        return QRat(*_unit_normal(poly_mul(n1, n2), poly_mul(d1, d2)), _canonical=True)

    __rmul__ = __mul__

    def inverse(self) -> "QRat":
        if not self.num:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = poly_neg(num), poly_neg(den)
        return QRat(num, den, _canonical=True)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        acc, base = ONE, self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    # -- comparisons, hashing, display

    def __eq__(self, other):
        if isinstance(other, int):
            other = QRat.from_int(other)
        if not isinstance(other, QRat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            num = self.num
            if self.den == (1,) and len(num) <= 1:
                # an integer constant hashes as its int, as == says they are equal
                h = hash(num[0] if num else 0)
            else:
                h = hash((num, self.den))
            self._hash = h
        return h

    def __str__(self):
        if self.den == (1,):
            return poly_str(self.num)
        num = poly_str(self.num)
        den = poly_str(self.den)
        if sum(1 for c in self.num if c) > 1 or (self.num and self.num[-1] < 0):
            num = f"({num})"
        if sum(1 for c in self.den if c) > 1 or "*" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"QRat({self.num!r}, {self.den!r})"

    # -- evaluation and serialization

    def eval_at(self, r):
        """Exact evaluation at a rational point q = r, as a Fraction."""
        # imported here: only tests evaluate, and the import costs every process ~2 ms
        from fractions import Fraction
        r = Fraction(r)
        dv = poly_eval(self.den, r)
        if dv == 0:
            raise ZeroDivisionError(f"denominator vanishes at q = {r}")
        return poly_eval(self.num, r) / dv

    def to_json(self) -> dict:
        return {"num": [int_to_json(c) for c in self.num],
                "den": [int_to_json(c) for c in self.den]}

    @staticmethod
    def from_json(obj: dict) -> "QRat":
        """Inverse of `to_json`; ValueError on any malformed document."""
        if type(obj) is not dict or any(type(obj.get(k)) is not list for k in ("num", "den")):
            raise ValueError(f"a coefficient is an object with lists num and den, got {obj!r}")
        den = [int_from_json(c) for c in obj["den"]]
        if not any(den):
            raise ValueError(f"zero denominator in {obj!r}")
        return QRat([int_from_json(c) for c in obj["num"]], den)


def _accum(acc: dict, key, coeff) -> None:
    """acc[key] += coeff, an absent key counting as zero."""
    prev = acc.get(key)
    acc[key] = coeff if prev is None else prev + coeff


def _coerce(x):
    if isinstance(x, QRat):
        return x
    if isinstance(x, int):
        return QRat.from_int(x)
    return NotImplemented


ZERO = QRat((), (1,), _canonical=True)
ONE = QRat((1,), (1,), _canonical=True)
_INT_CACHE = {0: ZERO, 1: ONE, -1: QRat((-1,), (1,), _canonical=True),
              2: QRat((2,), (1,), _canonical=True)}


# ----------------------------------------------------------------------
# the t-form: Laurent polynomials split by parity (Kronecker substitution at t = q^2; Harvey 2009)


# monomial codes: a key (lam, mu) of one factor is coded by its id (`_id`), a tensor key (k1, k2) by (id k1 <<
# _BITS) | id k2; id 0 is never issued, so a tensor code is at least 2^_BITS
_BITS, _KEYS, _IDS = 30, [None], {}
_MASK = (1 << _BITS) - 1


def _id(key) -> int:
    """The id of a key (lam, mu) of any rank, issued once per process; ValueError when it would not fit in _BITS
    bits, so that no two keys ever share a code."""
    if (i := _IDS.get(key)) is None:
        if (i := len(_KEYS)) >> _BITS:
            raise ValueError(f"more than {(1 << _BITS) - 1} monomial keys in one process")
        _IDS[key] = i
        _KEYS.append(key)
    return i


class Parts(namedtuple("Parts", "terms peak")):
    """An element in t-form: parts (code, e, g), q^e g(q^2) key, g(0) != 0, at most one per key and parity of e,
    and the largest mass of one coefficient; `packs` keeps one immutable packing per width (`diskpoly._packed`)."""

    @cached_property
    def packs(self) -> dict:
        return {}


def _split(c: QRat) -> tuple:
    """The parts (e, g) of a Laurent c = sum q^e g(q^2), one per parity of e in c, g(0) != 0."""
    parts, k = [], len(c.den) - 1
    for i in (0, 1):
        if any(g := c.num[i::2]):
            g = poly_from_coeffs(g)
            parts.append((i - k + 2 * (v := g.index(next(filter(None, g)))), g[v:]))
    return tuple(parts)


def _mass(parts) -> int:
    """Sum of the absolute values of the coefficients over parts (e, g)."""
    return sum(sum(map(abs, g)) for _, g in parts)


def _read(accs: tuple, s: int, k: int) -> Parts:
    """The `Parts` of packed values {key: F(2^s)} per parity p for q^p F(t) / t^k, with their peak."""
    masses, out = {}, []
    for p, acc in enumerate(accs):
        for key, v in acc.items():
            if v:  # v = n 2^(s o), n's low slot nonzero: the part q^p t^(o - k) g(t)
                o = ((v & -v).bit_length() - 1) // s
                out.append((key, p + 2 * (o - k), g := _from_digits(v >> s * o, s)))
                masses[key] = masses.get(key, 0) + sum(map(abs, g))
    return Parts(tuple(out), max(masses.values(), default=0))


def _terms(x: Parts) -> dict:
    """The nonzero terms {key: c} of an element in t-form, each key's parts joined and its code decoded."""
    out = {}
    for code, e, g in x.terms:
        num = [0] * (2 * len(g) - 1)
        num[::2] = g
        c, key = _laurent(num, -e), (_KEYS[i], _KEYS[code & _MASK]) if (i := code >> _BITS) else _KEYS[code]
        out[key] = out[key] + c if key in out else c
    return out


# JSON integer policy: values outside the IEEE-exact window are emitted as
# decimal strings so downstream consumers with 64-bit doubles stay exact.
_JSON_INT_MAX = 2 ** 53


def int_to_json(c: int):
    return c if -_JSON_INT_MAX < c < _JSON_INT_MAX else str(c)


def int_from_json(c) -> int:
    """An int or a decimal string; floats and bools are not integers here."""
    if type(c) is int:
        return c
    if isinstance(c, str):
        return int(c)
    raise ValueError(f"expected an integer or a decimal string, got {c!r}")


# ----------------------------------------------------------------------
# q-combinatorics: cyclotomic-factored scalars (see the module docstring)


@lru_cache(maxsize=None)
def _divisors(k: int) -> tuple:
    return tuple(d for d in range(1, k + 1) if not k % d)


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    """The Moebius function: 0 unless n is squarefree, else -1 to the number of its primes."""
    if n == 1:
        return 1
    p = next(d for d in range(2, n + 1) if not n % d)
    return 0 if not n // p % p else -_mobius(n // p)


def _over_qk_minus_1(a: list, k: int) -> list:
    """a / (q^k - 1) for a multiple a of it: u_i = u_(i-k) - a_i, a running sum per class mod k."""
    u = [0] * (len(a) - k)
    for r in range(min(k, len(u))):
        u[r::k] = map(operator.neg, accumulate(a[r:len(u):k]))
    return u


@lru_cache(maxsize=None)
def _phi_product(items: tuple) -> Coeffs:
    """prod Phi_d^e over the sorted items (d, e > 0) of an exponent map, memoized, as prod (q^k - 1)^f_k: by Moebius
    inversion of q^d - 1 = prod_{k | d} Phi_k, f_k sums e mu(d/k) over the multiples d of k.  Each factor multiplied
    in is a shift and a subtraction; they all come first, so each one then divided out divides exactly."""
    fs: dict = {}
    for d, e in items:
        for k in _divisors(d):
            fs[k] = fs.get(k, 0) + e * _mobius(d // k)
    acc = [1]
    for k, f in fs.items():
        for _ in range(f):
            acc = list(map(operator.sub, [0] * k + acc, acc + [0] * k))
    for k, f in fs.items():
        for _ in range(-f):
            acc = _over_qk_minus_1(acc, k)
    return tuple(acc)


class Cyclo:
    """sign q^qexp prod Phi_d^e over the items (d, e) of the dict phi, e != 0: a q-Pochhammer constant in factored
    form; sign 0 is zero.  Immutable: no method changes a value, and products (n-ary: `product`), quotients and `lcm`
    build new ones by exponent arithmetic."""

    __slots__ = ("sign", "qexp", "phi")

    def __init__(self, sign: int = 1, qexp: int = 0, phi: dict | None = None):
        self.sign, self.qexp, self.phi = (sign, qexp, phi or {}) if sign else (0, 0, {})

    @staticmethod
    def one_minus(*ks: int) -> "Cyclo":
        """prod (1 - q^k) over ks: 1 - q^k is -prod_{d | k} Phi_d for k > 0,
        q^k prod_{d | -k} Phi_d for k < 0, and zero for k = 0."""
        sign, qexp, phi = 1, 0, {}
        for k in ks:
            if k > 0:
                sign = -sign
            elif k < 0:
                qexp += k
            else:
                return Cyclo(0)
            for d in _divisors(abs(k)):
                phi[d] = phi.get(d, 0) + 1
        return Cyclo(sign, qexp, phi)

    @staticmethod
    def product(pairs: Iterable[tuple], sign: int = 1, qexp: int = 0) -> "Cyclo":
        """sign q^qexp prod c^p over the pairs (c, p), p a nonzero int, in one pass that adds every
        exponent into one dict; ZeroDivisionError for a zero c at p < 0."""
        phi: dict = {}
        for c, p in pairs:
            if not c.sign and p < 0:
                raise ZeroDivisionError("division by zero in Q(q)")
            sign, qexp = sign * (c.sign if p % 2 else abs(c.sign)), qexp + p * c.qexp
            for d, e in c.phi.items():
                phi[d] = phi.get(d, 0) + p * e
        return Cyclo(sign, qexp, {d: e for d, e in phi.items() if e})

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        return Cyclo.product(((self, 1), (other, 1)))

    def __truediv__(self, other: "Cyclo") -> "Cyclo":
        return Cyclo.product(((self, 1), (other, -1)))

    def __eq__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        return (self.sign, self.qexp, self.phi) == (other.sign, other.qexp, other.phi)

    @staticmethod
    def lcm(cs: Iterable["Cyclo"]) -> "Cyclo":
        """The lcm of the denominators of cs: each index, q included, at its
        largest negative exponent; so every L c is a polynomial."""
        qexp, phi = 0, {}
        for c in cs:
            qexp = max(qexp, -c.qexp)
            for d, e in c.phi.items():
                if -e > phi.get(d, 0):
                    phi[d] = -e
        return Cyclo(1, qexp, phi)

    def to_qrat(self) -> QRat:
        """The canonical QRat, with no gcd, each product of Phi_d expanded once per process (module docstring)."""
        if not self.sign:
            return ZERO
        items = sorted(self.phi.items())
        num = _phi_product(tuple((d, e) for d, e in items if e > 0))
        den = _phi_product(tuple((d, -e) for d, e in items if e < 0))
        if self.sign < 0:
            num = poly_neg(num)
        return QRat((0,) * max(self.qexp, 0) + num, (0,) * max(-self.qexp, 0) + den,
                    _canonical=True)


def qpoch(a_exp: int, step_exp: int, k: int) -> QRat:
    """q-shifted factorial (q^a_exp; q^step_exp)_k = prod (1 - q^(a_exp + i*step_exp)), memoized.

    Both exponents may be negative; negative powers of q land in the
    denominator, e.g. qpoch(-2, 2, 1) = (q^2 - 1)/q^2.
    """
    _check_ints(a_exp, step_exp, k)
    return _qpoch(a_exp, step_exp, *_check_ints(k, least=0))


def qnumber(m: int, base_exp: int) -> QRat:
    """The q-integer [m] in base q^base_exp: (1 - q^(m*base_exp))/(1 - q^base_exp), memoized."""
    _check_ints(base_exp)
    _check_ints(m, least=0)
    if base_exp == 0:
        raise ValueError("qnumber base exponent must be nonzero")
    return _qnumber(m, base_exp)


# the memos of `QRat.q_power`, `qpoch` and `qnumber` without their checks, for callers holding ints
@lru_cache(maxsize=None, typed=True)
def _q_power(k: int) -> QRat:
    if k >= 0:
        return QRat((0,) * k + (1,), (1,), _canonical=True)
    return QRat((1,), (0,) * (-k) + (1,), _canonical=True)


@lru_cache(maxsize=None, typed=True)
def _qpoch(a_exp: int, step_exp: int, k: int) -> QRat:
    return Cyclo.one_minus(*(a_exp + i * step_exp for i in range(k))).to_qrat()


@lru_cache(maxsize=None, typed=True)
def _qnumber(m: int, base_exp: int) -> QRat:
    return (Cyclo.one_minus(m * base_exp) / Cyclo.one_minus(base_exp)).to_qrat()


# ----------------------------------------------------------------------
# exact linear algebra over Q(q): one sparse Gauss-Jordan engine.  The
# systems of the U_q(gl(n)) action hold about one nonzero per row, so rows
# are {col: nonzero} dicts and the work scales with the nonzeros.


class Record:
    """A plain record, the base of `LinearSolution` and `Verdict`: the constructor sets the fields named in __slots__
    from its arguments, positional or by name; equality, repr and pickling go by the fields.  It stands in for
    dataclasses, whose import (with inspect) costs each process 7 to 10 ms."""

    __slots__ = ()

    def __init__(self, *values, **fields):
        names = self.__slots__
        values += tuple(fields.pop(name) for name in names[len(values):] if name in fields)
        if fields or len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class LinearSolution(Record):
    """Outcome of an exact linear solve: inconsistency is a result, not an error.

    Fields: consistent (bool), particular (list[QRat] when consistent, else None) and nullspace, the basis of the
    homogeneous space.  `solve_sparse` gives each basis vector as a {col: QRat} dict of its nonzeros, in column order;
    `solve_linear` gives it as a dense list[QRat]."""

    __slots__ = ("consistent", "particular", "nullspace")


def solve_sparse(rows: Sequence[dict], ncols: int) -> LinearSolution:
    """Solve the system of augmented rows {col: QRat} (right-hand side at key ncols) by reduced row echelon form.

    Each column in turn pivots on its candidate row with the fewest nonzeros (Markowitz 1957; ties to the lowest
    index), is scaled to 1 and cleared from every other row; cancelled entries are dropped.  The RREF is unique, so
    pivot order cannot change the result: `particular` (free columns 0) and the `nullspace` basis (free column 1, each
    pivot column minus its row's entry there) equal those of any Gauss-Jordan order."""
    _check_ints(ncols, least=0)
    rows = [{c: x for c, x in row.items() if x} for row in rows]
    index = [set() for _ in range(ncols + 1)]  # col -> rows holding it
    for i, row in enumerate(rows):
        for c, x in row.items():
            if not isinstance(c, int) or not 0 <= c <= ncols or not isinstance(x, QRat):
                raise ValueError(f"entry {x!r} at column {c!r}: not a QRat, or outside 0..{ncols}")
            index[c].add(i)
    col_of: dict = {}  # pivot row -> its column
    for col in range(ncols):
        cands = index[col] - col_of.keys()
        if cands:
            r = min(cands, key=lambda i: (len(rows[i]), i))
            inv = rows[r][col].inverse()
            prow = rows[r] = {c: x * inv for c, x in rows[r].items()}
            for i in index[col] - {r}:
                row = rows[i]
                f = row[col]
                for c, x in prow.items():
                    y = row.get(c, ZERO) - f * x
                    if y:
                        row[c] = y
                        index[c].add(i)
                    elif c in row:
                        del row[c]
                        index[c].discard(i)
            col_of[r] = col
    # rows that never pivoted are now empty but for the right-hand side
    consistent = not index[ncols] - col_of.keys()
    particular = None
    if consistent:
        particular = [ZERO] * ncols
        for r in index[ncols]:
            particular[col_of[r]] = rows[r][ncols]
    nullspace = []
    for fc in sorted(set(range(ncols)) - set(col_of.values())):
        vec = {col_of[r]: -rows[r][fc] for r in index[fc]}
        vec[fc] = ONE
        nullspace.append(dict(sorted(vec.items())))
    return LinearSolution(consistent, particular, nullspace)


def solve_linear(matrix: Sequence[Sequence[QRat]], rhs: Sequence[QRat]) -> LinearSolution:
    """Solve M x = rhs exactly over Q(q); M and each nullspace vector are dense lists."""
    ncols = len(matrix[0]) if matrix else 0
    if any(len(row) != ncols for row in matrix):
        raise ValueError("matrix rows must all have the same length")
    if len(rhs) != len(matrix):
        raise ValueError(f"rhs has {len(rhs)} entries for {len(matrix)} matrix rows")
    sol = solve_sparse([dict(enumerate([*row, b])) for row, b in zip(matrix, rhs)], ncols)
    dense = [[vec.get(c, ZERO) for c in range(ncols)] for vec in sol.nullspace]
    return LinearSolution(sol.consistent, sol.particular, dense)
