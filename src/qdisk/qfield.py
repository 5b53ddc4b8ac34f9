"""Exact arithmetic in the field of rational functions of q.

Every coefficient that appears downstream (normal forms, Haar values,
q-disk expansions, verification residuals) lives in Q(q), represented as
a reduced fraction of integer-coefficient polynomials.  Identities are
checked by exact reduction to the canonical zero, never numerically, so
the canonical form matters: gcd(num, den) is a unit, den has positive
leading coefficient, and the pair carries overall integer content 1.
Zero is always the pair (0, 1).

Polynomials are plain tuples of ints, coefficient of q^i at index i, no
trailing zeros.  Negative powers of q are ordinary fractions (q^-2 is
1/q^2), but a denominator that is a power of q (1 included) takes a fast
path in `+`, `-` and `*`: such a Laurent polynomial n/q^k has content-1,
positive denominator and n prime to q, so the sum or product needs no gcd,
only a shift of the numerators and the cancelling of common powers of q.

Every other field operation cancels a gcd.  `poly_gcd` tries the
heuristic GCD of Char, Geddes and Gonnet (J. Symbolic Comput. 1989)
first: evaluate at a power of two, take the integer gcd, read the
polynomial back from its symmetric digits and keep it only when it
divides both inputs exactly.  That check also yields the cofactors, which
the field operations use in place of dividing again.  When no evaluation
point gives such a candidate, the primitive PRS gcd `_prs_gcd` decides;
it is also the oracle the tests compare the heuristic against.

The closed-form scalars (q-Pochhammers, the little q-Jacobi coefficients,
the norm and coupling constants of the addition formula, and the common
denominators over them) all have the form +-q^e prod (1 - q^k)^(e_k).  Since
q^k - 1 = prod_{d | k} Phi_d(q), a `Cyclo` holds one as a sign, a power of q
and exponents of cyclotomic polynomials Phi_d: products, quotients and the
lcm of denominators are exponent arithmetic.  `Cyclo.to_qrat` converts once,
with no gcd: the Phi_d are distinct, monic, irreducible and prime to q, so
the products over the positive and over the negative exponents are coprime,
the denominator is monic and the pair has content 1, which is canonical form.

A polynomial is packed into its value at q = 2^s and read back from its
symmetric base-2^s digits, in (-2^(s-1), 2^(s-1)], by one C-level array
call for slot widths s of 8, 16, 32 or 64 bits on little-endian hosts, else
slot by slot (s a multiple of 8); a bound asking 2^s large holds rounded up.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from functools import lru_cache
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

    a and b are nonzero with nonzero constant terms; h is their primitive
    gcd with positive leading coefficient.  A candidate h is accepted only
    when it divides both inputs, and then it is the gcd.  Proof: write the
    true gcd as h*k.  The integer gcd at x is c*h(x) with c the content of
    the interpolant, and h(x)*k(x) divides it, so |k(x)| <= |c| <= x/2
    (the digits are symmetric).  Every root z of a or b, and so of k, has
    |z| <= 1 + M (Cauchy), M the smaller max norm of a and b.  Since
    x > 2M + 2, a nonconstant k would have |k(x)| >= x - 1 - M > x/2.
    """
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


def _spread(d: int, s: int, n: int) -> int:
    """The integer whose n base-2^s digits all equal d (0 <= d < 2^s)."""
    return int.from_bytes(d.to_bytes(s // 8, "little") * n, "little")


def _eval_shift(a: Coeffs, s: int) -> int:
    """a at q = 2^s, s a slot width: the coefficients as s-bit two's-complement
    slots read as one unsigned u, less each negative slot's borrow,
    u - 2 (u & topbits).  A coefficient too wide for its slot is shifted in."""
    try:
        raw = (array(_CODES[s], a).tobytes() if s in _CODES else
               b"".join(c.to_bytes(s // 8, "little", signed=True) for c in a))
    except OverflowError:
        return sum(c << (s * i) for i, c in enumerate(a))
    u = int.from_bytes(raw, "little")
    return u - 2 * (u & _spread(1 << (s - 1), s, len(a)))


def _from_digits(n: int, s: int) -> Coeffs:
    """The polynomial of the symmetric base-2^s digits of any integer n, s a
    slot width: a bias of 2^(s-1) - 1 per slot, over two slots more than n
    needs, makes each digit an unsigned, carry-free slot until unpacked."""
    slots, bias, w = n.bit_length() // s + 2, (1 << (s - 1)) - 1, s // 8
    raw = (n + _spread(bias, s, slots)).to_bytes(slots * w, "little")
    digits = (array(_CODES[s].upper(), raw) if s in _CODES else
              [int.from_bytes(raw[i:i + w], "little") for i in range(0, len(raw), w)])
    while digits and digits[-1] == bias:
        digits.pop()
    return tuple([d - bias for d in digits])


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

    The heuristic gcd answers first; the primitive PRS decides when it
    cannot, and for zero inputs."""
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


def _normal(num: Coeffs, den: Coeffs) -> "QRat":
    return QRat(*_reduce(num, den), _canonical=True)


def _is_qpow(den: Coeffs) -> bool:
    """Whether a canonical denominator is q^k (k = len(den) - 1)."""
    return den[-1] == 1 and den.count(0) == len(den) - 1


def _laurent(cs: Sequence, k: int) -> "QRat":
    """cs / q^k in canonical form.

    cs is a sum or product of canonical Laurent numerators, so the only
    factor it can share with q^k is a power of q: stripping that is the
    whole reduction."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    if not n:
        return ZERO
    m = 0
    while m < k and not cs[m]:
        m += 1
    return QRat(tuple(cs[m:n]), QRat.q_power(m - k).den, _canonical=True)


PolyLike = Union[int, Sequence]


def _check_ints(*xs) -> None:
    """ValueError unless every x is an int (bools count, as everywhere)."""
    if not all(isinstance(x, int) for x in xs):
        raise ValueError(f"expected integers, got {xs!r}")


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
    @lru_cache(maxsize=None, typed=True)
    def q_power(k: int) -> "QRat":
        """q^k for any integer k (negative powers become denominators), memoized."""
        _check_ints(k)
        if k >= 0:
            return QRat((0,) * k + (1,), (1,), _canonical=True)
        return QRat((1,), (0,) * (-k) + (1,), _canonical=True)

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
        return _normal(t, poly_mul(b1, d))

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
# packed Laurent products (Kronecker substitution; Harvey, J. Symbolic Comput. 2009)


def pack_laurent(cs: Sequence[QRat], s: int) -> tuple:
    """(K, [n(2^s) 2^(s(K - k)) for n/q^k in cs]) for Laurent cs, K the
    largest k (0 for no cs): the numerators over q^K, evaluated at q = 2^s."""
    k = max((len(c.den) for c in cs), default=1) - 1
    return k, [_eval_shift(c.num, s) << (s * (k + 1 - len(c.den))) for c in cs]


def mass(cs: Iterable[QRat]) -> int:
    """Sum of the absolute values of the numerator coefficients over cs."""
    return sum(sum(map(abs, c.num)) for c in cs)


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


def _phi_product(exps: dict) -> Coeffs:
    """prod Phi_d^e over exps {d: e > 0}, as prod (q^k - 1)^f_k: by Moebius
    inversion of q^d - 1 = prod_{k | d} Phi_k, f_k sums e mu(d/k) over the
    multiples d of k.  Each factor multiplied in is a shift and a subtraction;
    they all come first, so each one then divided out divides exactly, by a
    block recurrence."""
    fs: dict = {}
    for d, e in exps.items():
        for k in _divisors(d):
            fs[k] = fs.get(k, 0) + e * _mobius(d // k)
    acc = [1]
    for k, f in fs.items():
        for _ in range(f):
            acc = list(map(operator.sub, [0] * k + acc, acc + [0] * k))
    for k, f in fs.items():
        for _ in range(-f):
            # the quotient u of acc by q^k - 1 has u_i = u_(i-k) - acc_i
            n, u = len(acc) - k, [-c for c in acc[:k]]
            for j in range(k, n, k):
                u += map(operator.sub, u[j - k:j], acc[j:j + k])
            acc = u[:n]
    return tuple(acc)


class Cyclo:
    """sign q^qexp prod Phi_d^e over the items (d, e) of the dict phi, e != 0:
    a q-Pochhammer constant in factored form; sign 0 is zero.  Immutable: no
    method changes a value, and products, quotients and `lcm` build new ones
    by exponent arithmetic."""

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
    def qpoch(a_exp: int, step_exp: int, k: int) -> "Cyclo":
        """(q^a_exp; q^step_exp)_k, factored; see `qpoch`."""
        if k < 0:
            raise ValueError("qpoch length must be nonnegative")
        return Cyclo.one_minus(*(a_exp + i * step_exp for i in range(k)))

    def _combine(self, other: "Cyclo", s: int) -> "Cyclo":
        """self * other^s for s = 1 or -1."""
        if not (self.sign and other.sign):
            return Cyclo(0)
        phi = self.phi.copy()
        for d, e in other.phi.items():
            e = phi.get(d, 0) + s * e
            if e:
                phi[d] = e
            else:
                del phi[d]
        return Cyclo(self.sign * other.sign, self.qexp + s * other.qexp, phi)

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        return self._combine(other, 1)

    def __truediv__(self, other: "Cyclo") -> "Cyclo":
        if not other.sign:
            raise ZeroDivisionError("division by zero in Q(q)")
        return self._combine(other, -1)

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
        """The canonical QRat, with no gcd (see the module docstring)."""
        if not self.sign:
            return ZERO
        num = _phi_product({d: e for d, e in self.phi.items() if e > 0})
        den = _phi_product({d: -e for d, e in self.phi.items() if e < 0})
        if self.sign < 0:
            num = poly_neg(num)
        return QRat((0,) * max(self.qexp, 0) + num, (0,) * max(-self.qexp, 0) + den,
                    _canonical=True)


@lru_cache(maxsize=None, typed=True)
def qpoch(a_exp: int, step_exp: int, k: int) -> QRat:
    """q-shifted factorial (q^a_exp; q^step_exp)_k = prod (1 - q^(a_exp + i*step_exp)).

    Both exponents may be negative; negative powers of q land in the
    denominator, e.g. qpoch(-2, 2, 1) = (q^2 - 1)/q^2.
    """
    _check_ints(a_exp, step_exp, k)
    return Cyclo.qpoch(a_exp, step_exp, k).to_qrat()


@lru_cache(maxsize=None, typed=True)
def qnumber(m: int, base_exp: int) -> QRat:
    """The q-integer [m] in base q^base_exp: (1 - q^(m*base_exp))/(1 - q^base_exp)."""
    _check_ints(m, base_exp)
    if m < 0:
        raise ValueError("qnumber index must be nonnegative")
    if base_exp == 0:
        raise ValueError("qnumber base exponent must be nonzero")
    return (Cyclo.one_minus(m * base_exp) / Cyclo.one_minus(base_exp)).to_qrat()


# ----------------------------------------------------------------------
# exact linear algebra over Q(q): one sparse Gauss-Jordan engine.  The
# systems of the U_q(gl(n)) action hold about one nonzero per row, so rows
# are {col: nonzero} dicts and the work scales with the nonzeros.


class Record:
    """A plain record, the base of `LinearSolution` and `Verdict`: the
    constructor sets the fields named in __slots__ from its arguments,
    positional or by name; equality, repr and pickling go by the fields.
    It stands in for dataclasses, whose import (with inspect) costs each process 7 to 10 ms."""

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

    Fields: consistent (bool), particular (list[QRat] when consistent, else
    None) and nullspace, the basis of the homogeneous space.  `solve_sparse`
    gives each basis vector as a {col: QRat} dict of its nonzeros, in column
    order; `solve_linear` gives it as a dense list[QRat]."""

    __slots__ = ("consistent", "particular", "nullspace")


def solve_sparse(rows: Sequence[dict], ncols: int) -> LinearSolution:
    """Solve the system of augmented rows {col: QRat} (right-hand side at
    key ncols) by reduced row echelon form.

    Each column in turn pivots on its candidate row with the fewest
    nonzeros (Markowitz 1957; ties to the lowest index), is scaled to 1 and
    cleared from every other row; cancelled entries are dropped.  The RREF
    is unique, so pivot order cannot change the result: `particular` (free
    columns 0) and the `nullspace` basis (free column 1, each pivot column
    minus its row's entry there) equal those of any Gauss-Jordan order.
    """
    if not isinstance(ncols, int) or ncols < 0:
        raise ValueError(f"column count {ncols!r} is not a nonnegative integer")
    rows = [{c: x for c, x in row.items() if x} for row in rows]
    index = [set() for _ in range(ncols + 1)]  # col -> rows holding it
    for i, row in enumerate(rows):
        for c, x in row.items():
            if not 0 <= c <= ncols or not isinstance(x, QRat):
                raise ValueError(f"entry {x!r} at column {c}: not a QRat, or outside 0..{ncols}")
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
