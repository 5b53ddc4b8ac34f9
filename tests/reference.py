"""Reference routes that the tests race against the library.

`normal_order_strategy` rewrites a word one relation at a time, at its
leftmost or rightmost reducible position; the confluence tests compare it
with `normal_order`, which multiplies generators through the memoized
tables of `qdisk.zalgebra`.  `haar_monomial_alt` is the negative-base form
of the Haar functional on basis monomials, compared with
`qdisk.haar.haar_monomial`.  `dim_z` and `dim_h` are the closed-form slice
dimensions of Z_n and of the quotient sphere algebra.

The q-integral routes check the little q-Jacobi coefficients and the Haar
functional.  `UniPoly` is a dense polynomial over Q(q) and `little_q_jacobi`
wraps the library's coefficients (`qdisk.qfunc`) in one.  Jackson integrals
of polynomials reduce to the monomial rule

    int_0^1 x^k d_q x = (1 - q)/(1 - q^(k+1)),

and the iterated ladder integral `multi_jackson` applies the same rule with
a symbolic upper limit, sending a polynomial in Q_i (a `MultiQPoly`) to a
polynomial in Q_{i+1}: it is the iterated-integral form of `qdisk.haar`,
in base q^2.  The univariate routes take a base exponent b, replacing q by
q^b throughout.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from qdisk import qfunc
from qdisk.qfield import ONE, QRat, ZERO, qpoch
from qdisk.zalgebra import ZElement, _accum, _check_index, _check_rank, w_gen, z_gen

# a letter is ("z", i) or ("w", i) with 1 <= i <= rank; a word is a tuple of letters
Word = tuple
Key = tuple


def word_key(word: Word, rank: int) -> Key:
    """Exponent key of a word already in normal order."""
    lam = [0] * rank
    mu = [0] * rank
    for kind, i in word:
        if kind == "z":
            lam[i - 1] += 1
        else:
            mu[i - 1] += 1
    return tuple(lam), tuple(mu)


def _reducible_positions(word: Word) -> list:
    out = []
    for p in range(len(word) - 1):
        (k1, i1), (k2, i2) = word[p], word[p + 1]
        if k1 == "z" and k2 == "z" and i1 > i2:
            out.append(p)
        elif k1 == "w" and k2 == "w" and i1 < i2:
            out.append(p)
        elif k1 == "w" and k2 == "z":
            out.append(p)
    return out


def _apply_rule(word: Word, p: int):
    """One rewriting step at position p; returns [(coeff factor, new word)]."""
    (k1, i1), (k2, i2) = word[p], word[p + 1]
    head, tail = word[:p], word[p + 2:]
    qinv = QRat.q_power(-1)
    if k1 == "z" and k2 == "z":
        return [(qinv, head + (("z", i2), ("z", i1)) + tail)]
    if k1 == "w" and k2 == "w":
        return [(qinv, head + (("w", i2), ("w", i1)) + tail)]
    if i1 != i2:
        return [(QRat.q_power(1), head + (("z", i2), ("w", i1)) + tail)]
    out = [(ONE, head + (("z", i1), ("w", i1)) + tail)]
    corr = ONE - QRat.q_power(2)
    for k in range(1, i1):
        out.append((corr, head + (("z", k), ("w", k)) + tail))
    return out


def normal_order_strategy(word: Iterable, rank: int, strategy: str = "leftmost") -> ZElement:
    """Reference rewriter: applies one relation per step at the leftmost or
    rightmost reducible position.  Independent of the memoized fast path;
    the two are raced against each other in the confluence tests."""
    _check_rank(rank)
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    pick = (lambda ps: ps[0]) if strategy == "leftmost" else (lambda ps: ps[-1])
    word = tuple(word)
    for kind, i in word:
        _check_index(i, rank)
        if kind not in ("z", "w"):
            raise ValueError(f"unknown generator kind {kind!r}")
    pending = {word: ONE}
    done: dict = {}
    while pending:
        nxt: dict = {}
        for wd, coeff in pending.items():
            ps = _reducible_positions(wd)
            if not ps:
                _accum(done, word_key(wd, rank), coeff)
                continue
            for factor, wd2 in _apply_rule(wd, pick(ps)):
                _accum(nxt, wd2, coeff * factor)
        pending = {w: c for w, c in nxt.items() if c}
    return ZElement(rank, done)


def haar_monomial_alt(lam, mu, n: int) -> QRat:
    """h(z^lam w^mu) in its negative-base form, used as a cross-check:
    q-Pochhammers in base q^-2 with an explicit q-power."""
    lam, mu = tuple(lam), tuple(mu)
    if lam != mu:
        return ZERO
    value = QRat.q_power(-2 * sum((n - 1 - i) * lam[i] for i in range(n - 1)))
    for li in lam:
        value = value * qpoch(-2, -2, li)
    return value * qpoch(-2, -2, n - 1) / qpoch(-2, -2, sum(lam) + n - 1)


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


# ----------------------------------------------------------------------
# univariate polynomials over Q(q)


class UniPoly:
    """Dense univariate polynomial with QRat coefficients, ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [c if isinstance(c, QRat) else QRat.from_int(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def x_power(k: int) -> "UniPoly":
        return UniPoly((ZERO,) * k + (ONE,))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def constant_term(self) -> QRat:
        return self.coeffs[0] if self.coeffs else ZERO

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    def __sub__(self, other):
        return self + UniPoly([-c for c in other.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, QRat)):
            return UniPoly([c * other for c in self.coeffs])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def scale_argument(self, factor: QRat) -> "UniPoly":
        """Substitute x -> factor * x."""
        out, f = [], ONE
        for c in self.coeffs:
            out.append(c * f)
            f = f * factor
        return UniPoly(out)

    def eval_at(self, value: QRat) -> QRat:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        return f"UniPoly({[str(c) for c in self.coeffs]})"


def little_q_jacobi(m: int, a_exp: int, b_exp: int, base_exp: int = 1) -> UniPoly:
    """`qdisk.qfunc.little_q_jacobi` as a polynomial: degree m (unless a
    numerator factor vanishes) and constant term 1."""
    return UniPoly(qfunc.little_q_jacobi(m, a_exp, b_exp, base_exp))


def _weight(exps) -> UniPoly:
    """The product of the factors (1 - q^e x) over e in exps, as a polynomial in x."""
    out = UniPoly((ONE,))
    for e in exps:
        out = out * UniPoly((ONE, -QRat.q_power(e)))
    return out


def rising_weight(beta: int, base_exp: int = 1) -> UniPoly:
    """(q x; q)_beta in base q^base_exp, as a polynomial in x."""
    return _weight(base_exp * (1 + i) for i in range(beta))


def falling_weight(beta: int, base_exp: int = 1) -> UniPoly:
    """(x; q^-1)_beta in base q^base_exp, as a polynomial in x."""
    return _weight(-base_exp * i for i in range(beta))


# ----------------------------------------------------------------------
# Jackson integration


def jackson_integral(p: UniPoly, base_exp: int = 1) -> QRat:
    """int_0^1 p(x) d_q x in base q^base_exp: `jackson_scale` at C = 1."""
    return jackson_scale(p, base_exp).eval_at(ONE)


def jackson_scale(p: UniPoly, base_exp: int = 1) -> UniPoly:
    """int_0^C p(x) d_q x with a symbolic upper limit C, as a polynomial in C.

    This is the substitution rule iterated by multi_jackson:
    x^k integrates to C^(k+1) (1 - q)/(1 - q^(k+1))."""
    b = base_exp
    one_minus_q = ONE - QRat.q_power(b)
    out = [ZERO]
    for k, c in enumerate(p.coeffs):
        out.append(c * one_minus_q / (ONE - QRat.q_power(b * (k + 1))))
    return UniPoly(out)


def shift_identity_check(f: UniPoly, alpha: int, beta: int, base_exp: int = 1) -> bool:
    """Exact check of the integral shift identity

    int_0^1 f(q^-beta x) x^alpha (x; q^-1)_beta d_q x
        = q^(beta (alpha + 1)) int_0^1 f(x) x^alpha (q x; q)_beta d_q x

    in base q^base_exp."""
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be nonnegative")
    b = base_exp
    xa = UniPoly.x_power(alpha)
    lhs = jackson_integral(f.scale_argument(QRat.q_power(-beta * b)) * xa * falling_weight(beta, b), b)
    rhs = QRat.q_power(beta * (alpha + 1) * b) * jackson_integral(f * xa * rising_weight(beta, b), b)
    return lhs == rhs


# ----------------------------------------------------------------------
# multivariate ladder polynomials and the iterated integral


class MultiQPoly:
    """Sparse polynomial in the ladder variables Q_1 .. Q_nvars over Q(q)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        self.terms: dict = {}
        if terms:
            for expo, c in terms.items():
                expo = tuple(expo)
                if len(expo) != nvars:
                    raise ValueError("exponent length must equal nvars")
                if not isinstance(c, QRat):
                    c = QRat.from_int(c)
                if c:
                    self.terms[expo] = c

    @staticmethod
    def monomial(nvars: int, expo: Sequence[int], coeff=ONE) -> "MultiQPoly":
        return MultiQPoly(nvars, {tuple(expo): coeff})

    @staticmethod
    def one(nvars: int) -> "MultiQPoly":
        return MultiQPoly(nvars, {(0,) * nvars: ONE})

    @staticmethod
    def zero(nvars: int) -> "MultiQPoly":
        return MultiQPoly(nvars)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            _accum(out, e, c)
        return MultiQPoly(self.nvars, out)

    def __sub__(self, other):
        return self + (other * QRat.from_int(-1))

    def __mul__(self, other):
        if isinstance(other, (int, QRat)):
            return MultiQPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _accum(out, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
        return MultiQPoly(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, MultiQPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    __hash__ = None


def multi_jackson_partial(phi: MultiQPoly, n: int) -> UniPoly:
    """All inner integrals of the rank-n ladder integral, leaving a
    polynomial in the outermost variable Q_{n-1} (no prefactor)."""
    if n < 2:
        raise ValueError("ladder integral needs rank at least 2")
    if phi.nvars != n - 1:
        raise ValueError(f"expected a polynomial in {n - 1} ladder variables")
    current = phi
    for step in range(n - 2):
        # integrate out variable index `step` with upper limit variable step+1
        out: dict = {}
        for expo, c in current.terms.items():
            a = expo[step]
            factor = (ONE - QRat.q_power(2)) / (ONE - QRat.q_power(2 * (a + 1)))
            ne = list(expo)
            ne[step] = 0
            ne[step + 1] += a + 1
            _accum(out, tuple(ne), c * factor)
        current = MultiQPoly(n - 1, out)
    coeffs: list = []
    for expo, c in current.terms.items():
        d = expo[n - 2]
        if len(coeffs) <= d:
            coeffs.extend([ZERO] * (d + 1 - len(coeffs)))
        coeffs[d] = coeffs[d] + c
    return UniPoly(coeffs)


def multi_jackson(phi: MultiQPoly, n: int) -> QRat:
    """The normalized iterated Jackson integral in base q^2:

    (q^2; q^2)_{n-1} / (1 - q^2)^(n-1) *
        int_0^1 d_{q^2}Q_{n-1} ... int_0^{Q_2} d_{q^2}Q_1  phi."""
    inner = multi_jackson_partial(phi, n)
    value = jackson_integral(inner, 2)
    prefactor = qpoch(2, 2, n - 1) / (ONE - QRat.q_power(2)) ** (n - 1)
    return prefactor * value
