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
one symmetric digit per slot.  `code` is a key's monomial code (`qfield._id`)
and `key_of` its inverse.  `packed_terms` packs an element's terms one
coefficient at a time, in the t-form a packed Horner sum hands over, keyed by
codes, and `t_form` and `q_form` take an element to its t-form and back,
`t_sides` the sides of a pair sum, and `join_parts` a coefficient's parts.
`products_termwise` is the oracle of the packed-product kernel
`diskpoly._products`: one QRat product per pair of parts, each key decoded.
`scalar_termwise` and `pair_termwise` are those of the pack-once Laurent
products: one QRat product per term, or per term pair.

`pack_laurent`, `unpacked`, `packed_qform`, `times_q_qform`, `horner_sum_qform`
and `pair_sum_qform` are the packed routes as they were before the t-form: each
Laurent coefficient packed whole, in q, with every other slot zero on graded
input, keyed by tuples and moved by `diskpoly._moves` (`key_moves`, and
`pair_moves` for a tensor key).  They are the oracles for the t-form Horner
and pair sums.

`chain_product` is the oracle for the level chains of `diskpoly._chain`: each
level L R(z_n, w_n, Q_n) by the `QRat` Horner sum `diskpoly._scaled`, the
levels multiplied as elements.  `rhs_per_piece` is the oracle for the packed rhs sum of
`tensor.scaled_rhs`: the same scalars, with factors from `chain_product`, but
each (r, s) piece is its own simple tensor, with the Y1 powers multiplied in,
the weight applied to the right factor and one QRat product per term pair,
and the pieces are added by QRat sums.

`haar_num_product` is the oracle for the recurrence of `haar._haar_num`: the
closed form of N_lam, q^e (q^2; q^2)_{n-1} prod_i (q^2; q^2)_{lam_i}, as one
product of memoized q-Pochhammers.

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

`xy_generators` and `addition_arguments` are the oracle for the shift-built
lhs arguments of `tensor`: the images of the q-disk and q-circle generators
and the published A, B and C of each variant, formed as elements.
`horner_stepwise` is the oracle for the folded Horner sum of `diskpoly`: H over
the powers of D, with no fold, then A^(l-m) H or H B^(m-l), by element products.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from types import SimpleNamespace

from qdisk import diskpoly, tensor
from qdisk.diskpoly import DiskSpec
from qdisk.qfield import (_BITS, _KEYS, ONE, QRat, ZERO, LinearSolution, Parts, _eval_shift, _from_digits, _id,
                          _laurent, _split, _terms, _width, poly_divexact, poly_gcd, poly_mul, poly_valuation, qpoch)
from qdisk.qfunc import little_q_jacobi
from qdisk.tensor import LEFT_RANK, RIGHT_RANK, RANKS, coupling_const, pair
from qdisk.zalgebra import ZElement, _mono_mul, embed, q_element, star, w_gen, z_gen
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


def horner_stepwise(spec: DiskSpec, A, B, C):
    """L R_spec(A, B, C) by the Horner sum one element operation at a time:
    H_k = H_(k-1) C + (L coef_k) D^k, D = C - AB, then A^(l-m) H or H B^(m-l)."""
    l, m = spec.l, spec.m
    scaled, d = diskpoly.jacobi_scaled(spec)[1], C - A * B
    dk = A.one_like()
    result = dk * scaled[0]
    for k in range(1, min(l, m) + 1):
        dk = dk * d
        result = result * C + dk * scaled[k]
    if l > m:
        result = A ** (l - m) * result
    elif m > l:
        result = result * B ** (m - l)
    return result


@lru_cache(maxsize=None)
def xy_generators() -> SimpleNamespace:
    """The images X1, X2, their stars X1s, X2s and Q of Z_3, and Y1, Y2, Y1s, Y2s and D of Z_2."""
    return SimpleNamespace(X1=z_gen(2, LEFT_RANK), X2=z_gen(3, LEFT_RANK), X1s=w_gen(2, LEFT_RANK),
                           X2s=w_gen(3, LEFT_RANK), Q=q_element(3, LEFT_RANK), Y1=z_gen(1, RIGHT_RANK),
                           Y2=z_gen(2, RIGHT_RANK), Y1s=w_gen(1, RIGHT_RANK), Y2s=w_gen(2, RIGHT_RANK),
                           D=q_element(2, RIGHT_RANK))


def addition_arguments(variant: str) -> tuple:
    """The published arguments (A, B, C) of a variant's lhs, as tensor elements."""
    g = xy_generators()
    if variant == "final":
        A = pair(g.X1, g.Y1s) * (-_Q) + pair(g.X2, g.Y2)
        B = pair(g.X1s, g.Y1) * (-_Q) + pair(g.X2s, g.Y2s)
    else:
        A = pair(g.X1, g.Y1) + pair(g.X2, g.Y2)
        B = pair(g.X1s, g.Y1s) * (_Q * _Q) + pair(g.X2s, g.Y2s)
    return A, B, pair(g.Q, g.D)


def addition_sides_termwise(l: int, m: int, alpha: int, variant: str = "final"):
    """(lhs, rhs) of the addition formula as tensor elements: the published
    arguments and coupling constants, each (r, s) piece times its constant."""
    g = xy_generators()
    lhs = disk_poly_termwise(l, m, alpha, *addition_arguments(variant))
    rhs = ZElement.zero(RANKS)
    qp = g.Q - g.X2 * g.X2s  # Q', the central element of the inner disk pair (X1, X1*)
    for r in range(l + 1):
        for s in range(m + 1):
            cc = coupling_const(l, m, r, s, alpha)
            left = pairwise_mul(disk_poly_termwise(l - r, m - s, alpha + r + s, g.X2, g.X2s, g.Q),
                                disk_poly_termwise(r, s, alpha - 1, g.X1, g.X1s, qp))
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


def code(key) -> int:
    """The monomial code of a key (lam, mu) of any rank, or of a tensor key (k1, k2): (id k1 << _BITS) | id k2."""
    return (_id(key[0]) << _BITS) | _id(key[1]) if type(key[0][0]) is tuple else _id(key)


def key_of(c: int):
    """The key of a monomial code: the inverse of `code`."""
    return (_KEYS[c >> _BITS], _KEYS[c & ((1 << _BITS) - 1)]) if c >> _BITS else _KEYS[c]


def packed_terms(terms: dict, s: int) -> tuple:
    """Laurent terms {key: n / q^k} packed as `diskpoly._horner_sum` hands a sum over: (({code: F_0(2^s)},
    {code: F_1(2^s)}), s, K) for n / q^k = (F_0(q^2) + q F_1(q^2)) / q^(2K), K = the largest ceil(k / 2),
    each coefficient shifted into its parity's value on its own."""
    top, accs = max((len(c.den) // 2 for c in terms.values()), default=0), ({}, {})
    for key, c in terms.items():
        for i, x in enumerate(c.num):
            e, k = i - len(c.den) + 1 + 2 * top, code(key)
            accs[e & 1][k] = accs[e & 1].get(k, 0) + (x << s * (e >> 1))
    return accs, s, top


def degree(x: ZElement) -> int:
    """The largest total degree |lam| + |mu| of a term of x, 0 for no terms."""
    return max((sum(lam) + sum(mu) for lam, mu in x.terms), default=0)


def join_parts(parts) -> QRat:
    """sum q^e g(q^2) over parts (e, g) of `qfield._split`, by field operations: its inverse."""
    return sum((QRat([x for c in g for x in (c, 0)]) * QRat.q_power(e) for e, g in parts), ZERO)


def products_termwise(xs, ys) -> dict:
    """The nonzero terms {key: c} of sum q^(e + e') g(q^2) g'(q^2) over the parts (code, e, g) of xs and (code', e',
    g') of ys, on the key of the code (code << _BITS) | code': one `QRat` product per pair of parts."""
    out = {}
    for code_x, e, g in xs:
        for code_y, f, h in ys:
            _add_into(out, key_of((code_x << _BITS) | code_y), join_parts([(e, g)]) * join_parts([(f, h)]))
    return {key: c for key, c in out.items() if c}


def t_form(x: ZElement) -> Parts:
    """x in t-form (`qfield.Parts`): each coefficient split by the parity of its exponents, the even
    parts first, as `qfield._read` gives them, with the largest mass of one coefficient as its peak."""
    parts = [(code(key), e, g) for key, c in x.terms.items() for e, g in _split(c)]
    return Parts(tuple(sorted(parts, key=lambda part: part[1] & 1)), peak(x.terms.values()))


def q_form(x: Parts, rank) -> ZElement:
    """The element of rank whose t-form is x."""
    return ZElement._of(rank, _terms(x))


def t_sides(sides) -> list:
    """Sides (left, right, w), `ZElement`s and a `QRat`, as `tensor._pair_sum` takes them: in t-form,
    the right factor with no circle shift."""
    return [(t_form(x), t_form(y), (0, 0), _split(w)) for x, y, w in sides]


# ----------------------------------------------------------------------
# the q-form packing: the packed routes of `qfield`, `diskpoly` and `tensor` before the t-form


def mass(cs) -> int:
    """Sum of the absolute values of the numerator coefficients over cs."""
    return sum(sum(map(abs, c.num)) for c in cs)


def peak(cs) -> int:
    """The largest mass of one of cs, 0 for no cs: a bound on one packed key."""
    return max((sum(map(abs, c.num)) for c in cs), default=0)


def pack_laurent(cs, s: int) -> tuple:
    """(K, values, offsets) for Laurent cs: each n/q^k, n = q^v n' with n'(0) != 0, as the value n'(2^s)
    at its own power of q and the offset K - (k - v), K = max(0, largest k - v)."""
    values, nets = [], []
    for c in cs:
        v = c.num.index(next(filter(None, c.num))) if c.num[:1] == (0,) else 0
        values.append(_eval_shift(c.num[v:], s))
        nets.append(len(c.den) - 1 - v)
    k = max([0, *nets])
    return k, values, [k - e for e in nets]


def packed_qform(terms: dict, s: int) -> tuple:
    """Laurent terms {key: n / q^k} packed in q as `horner_sum_qform` hands a sum over: ({key: n(2^s)
    2^(s (K - k))}, s, K), K the largest k, each value one shift per coefficient."""
    top = max((len(c.den) - 1 for c in terms.values()), default=0)
    return {key: eval_shift_loop(c.num, s) << s * (top - len(c.den) + 1) for key, c in terms.items()}, s, top


def unpacked(acc: dict, s: int, k: int) -> dict:
    """The nonzero terms {key: F/q^k} of packed values {key: F(2^s)}: the inverse of `pack_laurent`."""
    return {key: _laurent(_from_digits(v, s), k) for key, v in acc.items() if v}


def key_moves(key) -> tuple:
    """The moves (key', t_a) of a key (lam, mu) times Q_n, keyed by tuples (`diskpoly._moves`)."""
    return diskpoly._moves(*key)


def pair_moves(key) -> list:
    """The moves of a tensor key (k1, k2) times Q_n1 (x) Q_n2: the pairs of its factors' moves."""
    return [((k1, k2), t1 + t2) for k1, t1 in key_moves(key[0]) for k2, t2 in key_moves(key[1])]


def times_q_qform(acc: dict, s: int, kh: int, moves=key_moves) -> tuple:
    """(H C, kh + big) for H packed at width s over q^kh."""
    acc = [(v, moves(key)) for key, v in acc.items()]
    out, big = {}, max(t for _, ms in acc for _, t in ms)
    for v, ms in acc:
        for key2, t in ms:
            out[key2] = out.get(key2, 0) + (v << s * (big - t))
    return out, kh + big


def horner_sum_qform(coefs, es, fan: int, moves=key_moves) -> tuple:
    """sum_k coef_k C^(mm-k) E_k packed in q, ({key: F(2^s)}, s, kh) for its terms F/q^kh, over
    `QRat` coefs and elements es with Laurent coefficients, C by its moves onto fan keys."""
    bound = 0
    for coef, x in zip(coefs, es):
        bound = bound * fan + peak(x.terms.values()) * mass([coef])
    s, acc, kh = _width(bound.bit_length() + 1), {}, 0
    for k, (coef, x) in enumerate(zip(coefs, es)):
        if k:
            acc, kh = times_q_qform(acc, s, kh, moves)
        (kx, (cx,), (ox,)), (kd, pd, od) = pack_laurent([coef], s), pack_laurent(list(x.terms.values()), s)
        if kx + kd > kh:
            acc, kh = {key: v << (s * (kx + kd - kh)) for key, v in acc.items()}, kx + kd
        for key, y, oy in zip(x.terms, pd, od):
            acc[key] = acc.get(key, 0) + ((cx * y) << (s * (kh - kx - kd + ox + oy)))
    return acc, s, kh


def pair_sum_qform(sides, packed: tuple = ({}, 8, 0), d1: tuple = (1,)) -> dict:
    """Nonzero terms of sum_i w_i left_i (x) right_i - d1 a packed in q, over sides (left_i, right_i, w_i) of
    `ZElement`s and `QRat`s, all Laurent, d1 a polynomial and a packed = ({key: F(2^sa)}, sa, ka)."""
    (values, sa, ka), weights = packed, [w for _, _, w in sides]
    lefts, rights = ([c for side in sides for c in side[i].terms.values()] for i in (0, 1))
    bound = sum(peak(x.terms.values()) * peak(y.terms.values()) * mass([w]) for x, y, w in sides)
    top = max((sum(map(abs, _from_digits(x, sa))) for x in values.values() if x), default=0)
    s = _width((bound + top * sum(map(abs, d1))).bit_length() + 1)
    (kl, *pl), (kr, *pr), (kw, pw, ow) = (pack_laurent(cs, s) for cs in (lefts, rights, weights))
    k, v, pl, pr = max(kl + kr + kw, ka), poly_valuation(d1), zip(*pl), zip(*pr)
    d, base = -_eval_shift(d1[v:], s), k - kl - kr - kw
    acc = {key: _eval_shift(_from_digits(n, sa), s) * d << s * (v + k - ka) for key, n in values.items() if n}
    for (left, right, _), w, o in zip(sides, pw, ow):
        xs = [(kx, x, s * ox) for kx, (x, ox) in zip(left.terms, pl)]
        ys = [(ky, y * w, s * (oy + o + base)) for ky, (y, oy) in zip(right.terms, pr)]
        for kx, x, sx in xs:
            for ky, y, sy in ys:
                acc[(kx, ky)] = acc.get((kx, ky), 0) + ((x * y) << (sx + sy))
    return unpacked(acc, s, k)


def scalar_termwise(a, c):
    """a * c for a ZElement a and a QRat c, one coefficient product per term."""
    return ZElement(a.rank, {key: x * c for key, x in a.terms.items()})


def pair_termwise(left, right):
    """The simple tensor left (x) right, one coefficient product per term pair."""
    return ZElement(RANKS, {(kl, kr): cl * cr for kl, cl in left.terms.items()
                            for kr, cr in right.terms.items()})


def chain_product(n: int, spec: DiskSpec, *rest: DiskSpec) -> ZElement:
    """`diskpoly._chain(n, spec, *rest)` by the product route: each level L R_spec(z_i, w_i, Q_i)
    by `diskpoly._scaled` at its rank, the levels below embedded and multiplied on the right."""
    level = diskpoly._scaled(spec, z_gen(n, n), w_gen(n, n), q_element(n, n))
    return level * embed(chain_product(n - 1, *rest), n) if rest else level


def rhs_per_piece(l: int, m: int, alpha: int, variant: str = "final") -> tuple:
    """(1/V, V rhs) as the QRat sum of its (r, s) pieces, each built on its own by element
    products of levels (`chain_product`), never read from `diskpoly._chain`."""
    g = xy_generators()
    plan, inv_lcm, _, weights = tensor._rhs_pieces(l, m, alpha, variant)
    total = ZElement.zero(RANKS)
    for (r, s, outer, inner), weight in zip(plan, weights):
        left = chain_product(3, outer, inner)
        ys = (s, r) if variant == "final" else (r, s)
        right = chain_product(2, outer) * g.Y1 ** ys[0] * g.Y1s ** ys[1]
        total = total + pair_termwise(left, right * join_parts(weight))
    return inv_lcm, total


def haar_num_product(lam: tuple, n: int) -> QRat:
    """N_lam of the `haar` module docstring, multiplied out: q^e times n + 1 q-Pochhammers."""
    e = sum(lam) ** 2 + sum(2 * i * lam[i] - lam[i] ** 2 for i in range(n))
    return prod([qpoch(2, 2, li) for li in lam], start=QRat.q_power(e) * qpoch(2, 2, n - 1))


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
