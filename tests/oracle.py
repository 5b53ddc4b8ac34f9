"""A deliberately naive, independent word-rewriting oracle.

Normal forms are re-derived straight from the four defining relations,
with none of the engine's machinery: an element is a bag of raw generator
words, reduction rewrites one adjacent pair at a time at the *rightmost*
reducible position (the engine folds left-to-right through memoized block
products), and nothing is cached or merged early.  The acceptance suite
checks the engine against this implementation precisely because it is too
simple to share the engine's bugs.

Only the coefficient field (QRat) and the published scalar constants
(little q-Jacobi coefficients, coupling constants) are shared with the
package; every noncommutative step is independent.

`dense_solve_linear` is the oracle for the sparse linear solver: textbook
dense Gauss-Jordan, first nonzero row as pivot, every row swept across the
full width.

`haar_termwise` and `inner_via_product` are the oracles for the grouped Haar
sums: normalize the whole product, then add c * h(monomial) one term at a
time from the negative-base monomial formula (`reference.haar_monomial_alt`),
with a reduced fraction after every addition.  `pair_haar_termwise` is the
oracle for the memoized pair values of `haar._pair_haar`: the full product row
from `_mono_mul`, with c * N_lam added over its diagonal terms as QRats.

`eval_shift_loop` and `from_digits_loop` are the oracles for the byte-level
packing of `qfield`: one shift per coefficient, respectively one shift and
one symmetric digit per slot.  `scalar_termwise` and `pair_termwise` are
those of the pack-once Laurent products: one QRat product per term, or per
term pair.

`rhs_per_piece` is the oracle for the packed rhs sum of `tensor.scaled_rhs`:
the same factor tables and scalars, but each (r, s) piece is its own simple
tensor, with the Y1 powers multiplied in, the weight applied to the right
factor and one QRat product per term pair, and the pieces are added by
QRat sums.

`qpoch_product`, `jacobi_coeffs_product`, `norm_const_product`,
`coupling_const_product`, `jacobi_scaled_product` and `rhs_pieces_product`
are the oracles for the cyclotomic-factored verification scalars: the same
closed forms, built from QRat products and divisions (each reduced by a
gcd), over denominators found by the gcd-based `common_denominator`.

`pairwise_mul`, `disk_poly_termwise` and `addition_sides_termwise` are the
oracles for the packed element products and the scaled disk sums: every
term pair multiplies its QRat coefficients and expands the monomial product
one structure constant at a time, and the disk polynomial is the plain sum
over k of coef_k times its product of powers, each coefficient reduced.
They take and return the package's `ZElement`, of a rank n or of the tensor
rank (3, 2), but multiply term pair by term pair, not through `_product`.
"""

from __future__ import annotations

from functools import lru_cache

from qdisk import diskpoly, tensor
from qdisk.diskpoly import DiskSpec
from qdisk.qfield import (ONE, QRat, ZERO, LinearSolution, poly_divexact, poly_gcd, poly_mul,
                          qpoch)
from qdisk.qfunc import little_q_jacobi
from qdisk.tensor import LEFT_RANK, RIGHT_RANK, RANKS, coupling_const, pair, xy_generators
from qdisk.zalgebra import ZElement, _mono_mul, star
from reference import haar_monomial_alt

_Q = QRat.q_power(1)
_QINV = QRat.q_power(-1)
_ONE_MINUS_Q2 = ONE - QRat.q_power(2)


def _rewrite_rightmost(word):
    """One rewrite step at the rightmost reducible position, or None if the
    word is already normal (z's ascending, then w's descending)."""
    for p in range(len(word) - 2, -1, -1):
        (ka, ia), (kb, ib) = word[p], word[p + 1]
        if ka == "z" and kb == "z" and ia > ib:
            return [(word[:p] + ((kb, ib), (ka, ia)) + word[p + 2:], _QINV)]
        if ka == "w" and kb == "w" and ia < ib:
            return [(word[:p] + ((kb, ib), (ka, ia)) + word[p + 2:], _QINV)]
        if ka == "w" and kb == "z":
            if ia != ib:
                return [(word[:p] + ((kb, ib), (ka, ia)) + word[p + 2:], _Q)]
            out = [(word[:p] + (("z", ia), ("w", ia)) + word[p + 2:], ONE)]
            for k in range(1, ia):
                out.append((word[:p] + (("z", k), ("w", k)) + word[p + 2:],
                            _ONE_MINUS_Q2))
            return out
    return None


def _word_key(word, rank):
    lam, mu = [0] * rank, [0] * rank
    for kind, i in word:
        (lam if kind == "z" else mu)[i - 1] += 1
    return tuple(lam), tuple(mu)


def naive_normal_form(raw: dict, rank: int) -> dict:
    """Reduce a bag of raw words to exponent-keyed normal form."""
    out: dict = {}
    stack = [(word, c) for word, c in raw.items()]
    while stack:
        word, c = stack.pop()
        if not c:
            continue
        step = _rewrite_rightmost(word)
        if step is None:
            key = _word_key(word, rank)
            acc = out.get(key)
            acc = c if acc is None else acc + c
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        else:
            stack.extend((new_word, c * factor) for new_word, factor in step)
    return out


# ----------------------------------------------------------------------
# raw (unreduced) elements and their tensor pairs


class NaiveElement:
    """A formal sum of raw words; products concatenate, nothing reduces."""

    def __init__(self, rank: int, words: dict | None = None):
        self.rank = rank
        self.words: dict = {}
        if words:
            for word, c in words.items():
                if c:
                    self.words[word] = c

    def __add__(self, other):
        merged = dict(self.words)
        for word, c in other.words.items():
            acc = merged.get(word)
            acc = c if acc is None else acc + c
            if acc:
                merged[word] = acc
            else:
                merged.pop(word, None)
        return NaiveElement(self.rank, merged)

    def __sub__(self, other):
        return self + other * QRat.from_int(-1)

    def __mul__(self, other):
        if isinstance(other, (int, QRat)):
            c = other if isinstance(other, QRat) else QRat.from_int(other)
            return NaiveElement(self.rank, {w: cc * c for w, cc in self.words.items()})
        out: dict = {}
        for w1, c1 in self.words.items():
            for w2, c2 in other.words.items():
                word = w1 + w2
                acc = out.get(word)
                acc = c1 * c2 if acc is None else acc + c1 * c2
                out[word] = acc
        return NaiveElement(self.rank, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        acc = NaiveElement.one(self.rank)
        for _ in range(k):
            acc = acc * self
        return acc

    @staticmethod
    def one(rank: int) -> "NaiveElement":
        return NaiveElement(rank, {(): ONE})

    def one_like(self) -> "NaiveElement":
        return NaiveElement.one(self.rank)

    def normal_form(self) -> dict:
        return naive_normal_form(self.words, self.rank)


def gen_word(kind: str, i: int, rank: int) -> NaiveElement:
    return NaiveElement(rank, {((kind, i),): ONE})


def ladder_sum(i: int, rank: int) -> NaiveElement:
    """The raw word sum behind Q_i."""
    return NaiveElement(rank, {(("z", k), ("w", k)): ONE for k in range(1, i + 1)})


class NaivePair:
    """Tensor of two raw elements of ranks 3 and 2, multiplied factorwise."""

    def __init__(self, terms: dict | None = None):
        self.terms: dict = {}
        if terms:
            for key, c in terms.items():
                if c:
                    self.terms[key] = c

    @staticmethod
    def of(left: NaiveElement, right: NaiveElement) -> "NaivePair":
        terms = {}
        for w1, c1 in left.words.items():
            for w2, c2 in right.words.items():
                terms[(w1, w2)] = c1 * c2
        return NaivePair(terms)

    @staticmethod
    def one() -> "NaivePair":
        return NaivePair({((), ()): ONE})

    def one_like(self) -> "NaivePair":
        return NaivePair.one()

    def __add__(self, other):
        merged = dict(self.terms)
        for key, c in other.terms.items():
            acc = merged.get(key)
            acc = c if acc is None else acc + c
            if acc:
                merged[key] = acc
            else:
                merged.pop(key, None)
        return NaivePair(merged)

    def __sub__(self, other):
        return self + other * QRat.from_int(-1)

    def __mul__(self, other):
        if isinstance(other, (int, QRat)):
            c = other if isinstance(other, QRat) else QRat.from_int(other)
            return NaivePair({k: cc * c for k, cc in self.terms.items()})
        out: dict = {}
        for (l1, r1), c1 in self.terms.items():
            for (l2, r2), c2 in other.terms.items():
                key = (l1 + l2, r1 + r2)
                acc = out.get(key)
                acc = c1 * c2 if acc is None else acc + c1 * c2
                out[key] = acc
        return NaivePair(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        acc = NaivePair.one()
        for _ in range(k):
            acc = acc * self
        return acc

    def normal_form(self) -> dict:
        """Reduce both factors of every raw term; keys are (key3, key2)."""
        out: dict = {}
        for (w3, w2), c in self.terms.items():
            nf3 = naive_normal_form({w3: ONE}, 3)
            nf2 = naive_normal_form({w2: ONE}, 2)
            for k3, c3 in nf3.items():
                for k2, c2 in nf2.items():
                    key = (k3, k2)
                    acc = out.get(key)
                    term = c * c3 * c2
                    acc = term if acc is None else acc + term
                    if acc:
                        out[key] = acc
                    else:
                        out.pop(key, None)
        return out


def naive_disk(l: int, m: int, alpha: int, A, B, C):
    """The divisionless disk-polynomial combination on raw elements.

    Same published expansion as the engine, but with no commutation
    checks and no normalization along the way."""
    mm, beta = min(l, m), abs(l - m)
    coeffs = little_q_jacobi(mm, alpha, beta, 2)
    D = C - A * B
    one = A.one_like()
    result = one * QRat.from_int(0)
    for k in range(mm + 1):
        term = C ** (mm - k)
        if l >= m:
            term = term * A ** (l - m) * D ** k
        else:
            term = term * D ** k * B ** (m - l)
        result = result + term * coeffs[k]
    return result


def naive_addition_sides(l: int, m: int, alpha: int, variant: str = "final"):
    """Fully reduced (lhs, rhs) of the addition formula, built and reduced
    entirely with the naive machinery; keys are (key3, key2)."""
    x1, x2 = gen_word("z", 2, 3), gen_word("z", 3, 3)
    x1s, x2s = gen_word("w", 2, 3), gen_word("w", 3, 3)
    qq = ladder_sum(3, 3)
    qp = qq - x2 * x2s
    y1, y2 = gen_word("z", 1, 2), gen_word("z", 2, 2)
    y1s, y2s = gen_word("w", 1, 2), gen_word("w", 2, 2)
    d = ladder_sum(2, 2)

    if variant == "final":
        A = NaivePair.of(x1, y1s) * (-_Q) + NaivePair.of(x2, y2)
        B = NaivePair.of(x1s, y1) * (-_Q) + NaivePair.of(x2s, y2s)
    elif variant == "precursor":
        A = NaivePair.of(x1, y1) + NaivePair.of(x2, y2)
        B = NaivePair.of(x1s, y1s) * (_Q * _Q) + NaivePair.of(x2s, y2s)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    C = NaivePair.of(qq, d)
    lhs = naive_disk(l, m, alpha, A, B, C)

    rhs = NaivePair()
    for r in range(l + 1):
        for s in range(m + 1):
            cc = coupling_const(l, m, r, s, alpha)
            left = (naive_disk(l - r, m - s, alpha + r + s, x2, x2s, qq)
                    * naive_disk(r, s, alpha - 1, x1, x1s, qp))
            right = naive_disk(l - r, m - s, alpha + r + s, y2, y2s, d)
            if variant == "final":
                right = right * y1 ** s * y1s ** r
                cc = cc * (-_Q) ** (r - s)
            else:
                right = right * y1 ** r * y1s ** s
            rhs = rhs + NaivePair.of(left, right) * cc
    return lhs.normal_form(), rhs.normal_form()


def dense_solve_linear(matrix, rhs) -> LinearSolution:
    """Solve M x = rhs over Q(q) by dense reduced row echelon form."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivots = []
    r = 0
    for col in range(ncols):
        pr = next((i for i in range(r, nrows) if aug[i][col]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = aug[r][col].inverse()
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    consistent = all(not aug[i][ncols] for i in range(r, nrows))
    particular = None
    if consistent:
        particular = [ZERO] * ncols
        for i, col in enumerate(pivots):
            particular[col] = aug[i][ncols]
    nullspace = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for i, col in enumerate(pivots):
            vec[col] = -aug[i][fc]
        nullspace.append(vec)
    return LinearSolution(consistent, particular, nullspace)


def haar_termwise(a) -> QRat:
    """h(a) as the plain sum of c * h(z^lam w^mu) over the terms of a."""
    total = ZERO
    for (lam, mu), c in a.terms.items():
        total = total + c * haar_monomial_alt(lam, mu, a.rank)
    return total


def inner_via_product(a, b) -> QRat:
    """<a, b>: normalize b* a fully, then apply h term by term."""
    return haar_termwise(star(b) * a)


def pair_haar_termwise(rank: int, key1, key2) -> tuple:
    """(t, P) for the product of two basis monomials: t its z-degree and P the
    sum of c N_lam over the diagonal terms c z^lam w^lam of its full row, with
    N_lam = h(z^lam w^lam) (q^2; q^2)_{t + rank - 1}."""
    t = sum(key1[0]) + sum(key2[0])
    total = ZERO
    for (lam, mu), c in _mono_mul(rank, key1, key2):
        if lam == mu:
            total = total + c * haar_monomial_alt(lam, mu, rank) * qpoch(2, 2, t + rank - 1)
    return t, total


# ----------------------------------------------------------------------
# element products and disk sums, one term pair and one k at a time


def _add_into(out: dict, key, c) -> None:
    acc = out.get(key)
    out[key] = c if acc is None else acc + c


def pairwise_mul(a, b):
    """a * b for two ZElements of rank n or of the tensor rank (3, 2) (factorwise)."""
    out: dict = {}
    if a.rank == RANKS:
        for (l1, r1), c1 in a.terms.items():
            for (l2, r2), c2 in b.terms.items():
                for kl, sl in _mono_mul(LEFT_RANK, l1, l2):
                    for kr, sr in _mono_mul(RIGHT_RANK, r1, r2):
                        _add_into(out, (kl, kr), c1 * c2 * sl * sr)
        return ZElement(RANKS, out)
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            for key, sc in _mono_mul(a.rank, k1, k2):
                _add_into(out, key, c1 * c2 * sc)
    return ZElement(a.rank, out)


def _pairwise_pow(a, k: int):
    acc = a.one_like()
    for _ in range(k):
        acc = pairwise_mul(acc, a)
    return acc


def disk_poly_termwise(l: int, m: int, alpha: int, A, B, C):
    """sum_k coef_k C^(mm-k) A^(l-m) D^k (l >= m) or coef_k C^(mm-k) D^k B^(m-l)."""
    mm, beta = min(l, m), abs(l - m)
    coeffs = little_q_jacobi(mm, alpha, beta, 2)
    D = C - pairwise_mul(A, B)
    result = A.one_like() * ZERO
    for k in range(mm + 1):
        term = _pairwise_pow(C, mm - k)
        if l >= m:
            term = pairwise_mul(pairwise_mul(term, _pairwise_pow(A, l - m)), _pairwise_pow(D, k))
        else:
            term = pairwise_mul(pairwise_mul(term, _pairwise_pow(D, k)), _pairwise_pow(B, m - l))
        result = result + term * coeffs[k]
    return result


def horner_stepwise(args, spec: DiskSpec):
    """L R_spec(A, B, C) on a checked argument bundle by the Horner sum one
    element operation at a time: H_k = H_(k-1) C + (L coef_k) D^k."""
    l, m = spec.l, spec.m
    scaled = diskpoly.jacobi_scaled(spec)[1]
    result = args.power("D", 0) * scaled[0]
    for k in range(1, min(l, m) + 1):
        result = result * args.C + args.power("D", k) * scaled[k]
    if l > m:
        result = args.power("A", l - m) * result
    elif m > l:
        result = result * args.power("B", m - l)
    return result


def addition_sides_termwise(l: int, m: int, alpha: int, variant: str = "final"):
    """(lhs, rhs) of the addition formula as tensor elements: the published
    arguments and coupling constants, each (r, s) piece times its constant."""
    g = xy_generators()
    if variant == "final":
        A = pair(g.X1, g.Y1s) * (-_Q) + pair(g.X2, g.Y2)
        B = pair(g.X1s, g.Y1) * (-_Q) + pair(g.X2s, g.Y2s)
    else:
        A = pair(g.X1, g.Y1) + pair(g.X2, g.Y2)
        B = pair(g.X1s, g.Y1s) * (_Q * _Q) + pair(g.X2s, g.Y2s)
    lhs = disk_poly_termwise(l, m, alpha, A, B, pair(g.Q, g.D))
    rhs = ZElement.zero(RANKS)
    for r in range(l + 1):
        for s in range(m + 1):
            cc = coupling_const(l, m, r, s, alpha)
            left = pairwise_mul(disk_poly_termwise(l - r, m - s, alpha + r + s, g.X2, g.X2s, g.Q),
                                disk_poly_termwise(r, s, alpha - 1, g.X1, g.X1s, g.Qp))
            right = disk_poly_termwise(l - r, m - s, alpha + r + s, g.Y2, g.Y2s, g.D)
            if variant == "final":
                ys = pairwise_mul(_pairwise_pow(g.Y1, s), _pairwise_pow(g.Y1s, r))
                cc = cc * (-_Q) ** (r - s)
            else:
                ys = pairwise_mul(_pairwise_pow(g.Y1, r), _pairwise_pow(g.Y1s, s))
            rhs = rhs + pair(left, pairwise_mul(right, ys)) * cc
    return lhs, rhs


# ----------------------------------------------------------------------
# the packing kernel, one slot at a time, and coefficient products one by one


def eval_shift_loop(a, s: int) -> int:
    """a at q = 2^s, by Horner's rule on shifts."""
    acc = 0
    for c in reversed(a):
        acc = (acc << s) + c
    return acc


def from_digits_loop(n: int, s: int) -> tuple:
    """The symmetric base-2^s digits of n, each in (-2^(s-1), 2^(s-1)], lowest first."""
    x = 1 << s
    mask, half = x - 1, x >> 1
    out = []
    while n:
        d = n & mask
        if d > half:
            d -= x
        out.append(d)
        n = (n - d) >> s
    return tuple(out)


def scalar_termwise(a, c):
    """a * c for a ZElement a and a QRat c, one coefficient product per term."""
    return ZElement(a.rank, {key: x * c for key, x in a.terms.items()})


def pair_termwise(left, right):
    """The simple tensor left (x) right, one coefficient product per term pair."""
    return ZElement(RANKS, {(kl, kr): cl * cr for kl, cl in left.terms.items()
                            for kr, cr in right.terms.items()})


def rhs_per_piece(l: int, m: int, alpha: int, variant: str = "final") -> tuple:
    """(1/V, V rhs) as the QRat sum of its (r, s) pieces, each built on its own."""
    g = xy_generators()
    plan, inv_lcm, weights = tensor._rhs_pieces(l, m, alpha, variant)
    total = ZElement.zero(RANKS)
    for (r, s, outer, inner), weight in zip(plan, weights):
        left = diskpoly._sphere(3, 3, outer) * diskpoly._sphere(2, 3, inner)
        ys = (s, r) if variant == "final" else (r, s)
        right = diskpoly._sphere(2, 2, outer) * g.Y1 ** ys[0] * g.Y1s ** ys[1]
        total = total + pair_termwise(left, right * weight)
    return inv_lcm, total


# ----------------------------------------------------------------------
# the verification scalars, by QRat products and divisions


def qpoch_product(a_exp: int, step_exp: int, k: int) -> QRat:
    """(q^a_exp; q^step_exp)_k as a product of QRat factors 1 - q^e."""
    acc = ONE
    for i in range(k):
        acc = acc * (ONE - QRat.q_power(a_exp + i * step_exp))
    return acc


def jacobi_coeffs_product(m: int, a_exp: int, b_exp: int, base_exp: int) -> list:
    """The coefficients of the little q-Jacobi series, each a quotient of
    q-Pochhammers; ZeroDivisionError where a denominator vanishes."""
    b = base_exp
    return [qpoch_product(-m * b, b, k) * qpoch_product((a_exp + b_exp + m + 1) * b, b, k)
            * QRat.q_power(b * k) / (qpoch_product((a_exp + 1) * b, b, k) * qpoch_product(b, b, k))
            for k in range(m + 1)]


@lru_cache(maxsize=None)
def norm_const_product(l: int, m: int, alpha: int) -> QRat:
    a = 2 * (alpha + 1)
    num = (ONE - QRat.q_power(a)) * QRat.q_power(m * a) * qpoch_product(2, 2, l) * qpoch_product(2, 2, m)
    den = (ONE - QRat.q_power(2 * (alpha + l + m + 1))) * qpoch_product(a, 2, l) * qpoch_product(a, 2, m)
    return num / den


def coupling_const_product(l: int, m: int, r: int, s: int, alpha: int) -> QRat:
    ratio = (ONE - QRat.q_power(2 * (alpha + r + s + 1))) / (ONE - QRat.q_power(2 * (alpha + 1)))
    return ratio * norm_const_product(l, m, alpha) / (
        norm_const_product(l - r, m - s, alpha + r + s) * norm_const_product(r, s, alpha - 1))


def common_denominator(cs) -> tuple:
    """(1/L, (L c for c in cs)): L grows as L d / gcd(L, d) over the
    denominators d; the gcd is primitive, so by Gauss's lemma d / gcd(L, d)
    and L / d are integer polynomials, and L keeps a positive leading
    coefficient."""
    lcm = (1,)
    for c in cs:
        lcm = poly_mul(lcm, poly_divexact(c.den, poly_gcd(lcm, c.den)))
    return QRat((1,), lcm), tuple(QRat(poly_mul(c.num, poly_divexact(lcm, c.den))) for c in cs)


def jacobi_scaled_product(spec: DiskSpec) -> tuple:
    return common_denominator(
        jacobi_coeffs_product(min(spec.l, spec.m), spec.alpha, abs(spec.l - spec.m), 2))


def rhs_pieces_product(l: int, m: int, alpha: int, variant: str) -> tuple:
    """(1/V, weights) of the rhs pieces (r, s), in the order of r, then s."""
    factors = []
    for r in range(l + 1):
        for s in range(m + 1):
            cc = coupling_const_product(l, m, r, s, alpha)
            if variant == "final":
                cc = cc * (-_Q) ** (r - s)
            inv_outer = jacobi_scaled_product(DiskSpec(l - r, m - s, alpha + r + s))[0]
            factors.append(cc * inv_outer * inv_outer * jacobi_scaled_product(DiskSpec(r, s, alpha - 1))[0])
    return common_denominator(factors)
