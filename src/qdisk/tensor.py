"""Verification of the q-disk polynomial addition formula in a tensor algebra.

The algebra of a q-disk pair (X1, X2) and a q-circle pair (Y1, Y2) is realized faithfully in Z_3 (x) Z_2 by X1 -> z_2,
X2 -> z_3, Q -> Q_3 and Y1 -> z_1, Y2 -> z_2, D -> Q_2, so both sides of the addition formula are `ZElement`s of rank
RANKS = (3, 2), multiplied factorwise, whose equality is decidable by exact normal forms.  The coupled-argument
identity has

    A = -q X1 (x) Y1* + X2 (x) Y2,  B = -q X1* (x) Y1 + X2* (x) Y2*,  C = Q (x) D,

and its precursor, also verified, A = X1 (x) Y1 + X2 (x) Y2 and B = q^2 X1* (x) Y1* + X2* (x) Y2*; the rhs couples
disk polynomials in the X and Y generators through constants built from the spherical norms.

The lhs L R(A, B, C) (`diskpoly`) is one packed Horner sum in C, `diskpoly._horner_sum`, over E_k = A^j D^k (j = l - m
>= 0) or D^k B^-j, built with no element product: A's terms act on the left of each factor, and B's on the right, by
key shifts times powers of q (`_shift`: the id of a factor's key decoded, shifted and issued anew, `qfield._id`); C is
central, D A = q^2 A D and D B = q^-2 B D (the q-disk pair relation), so E_k = E_(k-1) C - q^(2(k-1)) A E_(k-1) B,
with C by the central moves of each factor's id (`diskpoly._id_moves`).  A shift is one-to-one, so a key of E_k is
reached from at most 6 keys of E_(k-1) by C, one per pair of moves, and from at most 4 by A . B, one per pair of
terms, each times +-q^e: with |x| the largest sum of the absolute integer coefficients of one of x's coefficients,
|E_k| <= 10 |E_(k-1)|, |A^j| <= 2 |A^(j-1)| (or B) and |E_k| <= 10^k 2^|j|.  Each E_k is packed from its source at the
width of that bound, one accumulator per parity, and read back once in t-form (`qfield`).

The rhs scalars, the coupling constants, the final variant's sign and q-power and each piece's Jacobi denominators,
are `Cyclo`s (`qfield`), each piece's cc (-q)^(r-s) / (L_outer^2 L_inner) in one `Cyclo.product` pass: `_rhs_pieces`
takes their lcm V by exponent arithmetic and converts 1/V, W = V / L and each weight once, with no gcd, then splits
them into parts.  W is a polynomial: the scalar of piece (0, 0), whose coupling constant and inner lcm are 1, is
1/L^2, and V has each index, q included, at least twice L's.  The rhs is one packed sum, `_pair_sum`, of simple
tensors w left (x) right over the pieces (r, s): left = X_rs I_rs is the two-level `diskpoly._chain` entry, right =
Y_rs z_1^a w_1^b the one-level one, its keys and its parts' powers of q shifted, and w is V times a scalar whose
denominator divides V; a product's key is one code, (id left << _BITS) | id right.  Each coefficient, at most sum_rs
|left| |right| |w| < 2^(s-1), is read back once by `scaled_rhs`.  A passing `verify_addition` reads back neither side:
the lhs reaches it packed, as its Horner sum leaves it (`_packed_lhs`), and its pair sum starts there.

Case-independent work is done once per process, in `lru_cache` tables: `_lhs_power` (a variant's E_k, keyed by
(variant, j, k)), `_coupling` (the coupling constants), `_rhs_pieces` (a case's rhs scalars, in tuples) and `_chain`,
whose entries every case and variant that has them shares.  An E_k or chain entry is kept in t-form only, keyed by
codes, with its peak and its packing at each width (`diskpoly._packed`).  Callers never receive one: `qfield._terms`
decodes the keys of what leaves the t-form.
"""

from __future__ import annotations

import time
from functools import lru_cache

from .diskpoly import DiskSpec, _chain, _horner_sum, _id_moves, _jacobi, _packed
from .haar import _norm
from .qfield import (_BITS, _KEYS, _MASK, Cyclo, Parts, QRat, Record, _check_ints, _eval_kept, _eval_shift, _id, _mass,
                     _read, _split, _terms, _width, _words)
from .zalgebra import ZElement, _z_rank

LEFT_RANK = 3
RIGHT_RANK = 2
RANKS = (LEFT_RANK, RIGHT_RANK)

TensorElement = ZElement  # tensor elements are ZElements of rank RANKS; the former class name stays


def _pair_sum(sides, packed: tuple = (({}, {}), 8, 0), d1: tuple = ((0, (1,)),)) -> dict:
    """Nonzero terms of sum_i w_i left_i (x) right_i z_1^a w_1^b - d1 a over the sides (left_i, right_i, (a, b),
    w_i): left_i, right_i of ranks LEFT_RANK, RIGHT_RANK in t-form and w_i, d1 parts, read packed as kept
    (`_packed`, `_eval_kept`), a packed as `_horner_sum` leaves it (none by default); p, p' multiply into p ^ p'."""
    (values, sa, ka), bound = packed, sum(x.peak * y.peak * _mass(w) for x, y, _, w in sides)
    # each nonzero F(2^sa) as x = n 2^(sa o), n's low slot nonzero, and n's digits, read once: a's exact peak
    lows, masses = [[(key, x, o := ((x & -x).bit_length() - 1) // sa, _words(x >> sa * o, sa))
                     for key, x in acc.items() if x] for acc in values], {}
    for key, _, _, digits in lows[0] + lows[1]:
        masses[key] = masses.get(key, 0) + sum(map(abs, digits))
    s = _width((bound + max(masses.values(), default=0) * _mass(d1)).bit_length() + 1)
    for low in lows:  # n at width s, each value's digits dropped as it is taken
        for i, (key, x, o, digits) in enumerate(low):
            low[i] = key, x >> sa * o if s == sa else _eval_shift(digits, s), o - ka
    ds, packs, accs = [(f, -_eval_kept(g, s)) for f, g in d1], [], ({}, {})
    for left, right, (a, b), w in sides:
        (kx, xs), ys, ws = _packed(left, s), ([], []), [(f, _eval_kept(g, s)) for f, g in w]
        for (i, e, _), c in zip(*_packed(right, s)[1]):
            (l1, l2), (m1, m2) = _KEYS[i]
            key, e = _id(((l1 + a, l2), (m1 + b, m2))), e - a * (l2 - m2)
            for f, wv in ws:  # y z_1^a w_1^b = q^(-a (lam_2 - mu_2)) y on the shifted key, times each part of w
                ys[(e + f) & 1].append((key, c * wv, s * ((e + f) >> 1)))
        packs.append((kx, xs, ys))
    # over t^k, k the largest -e of a product (a left part's is at most kx) or of a term of d1 a
    k = -min([0, *(sy // s - kx for kx, _, ys in packs for ps in ys for _, _, sy in ps),
              *(o + ((p + f) >> 1) for p, low in enumerate(lows) for _, _, o in low for f, _ in ds)])
    for p, low in enumerate(lows):
        for f, d in ds:
            acc, e = accs[(p + f) & 1], k + ((p + f) >> 1)
            for key, n, o in low:
                acc[key] = acc.get(key, 0) + (n * d << s * (o + e))
    for _, xs, ys in packs:  # q^e x, p = e & 1, times q^q' t^f y: parity p ^ q', t^(p & q') more
        for (kl, e, _), x in zip(*xs):
            p, o, kl = e & 1, k + (e >> 1), kl << _BITS
            for q, ps in enumerate(ys):
                acc, sx = accs[p ^ q], s * (o + (p & q))
                for ky, y, sy in ps:
                    acc[key] = acc.get(key := kl | ky, 0) + ((x * y) << (sx + sy))
    return _terms(_read(accs, s, k))


def pair(left: ZElement, right: ZElement) -> ZElement:
    """The simple tensor left (x) right."""
    if _z_rank(left, "pair") != LEFT_RANK or _z_rank(right, "pair") != RIGHT_RANK:
        raise ValueError(f"tensor factors must have ranks {RANKS}")
    # distinct keys and nonzero products: nothing to add up
    return ZElement._of(RANKS, {(kx, ky): x * y for kx, x in left.terms.items()
                                for ky, y in right.terms.items()})


VARIANTS = ("final", "precursor")
MAX_ALPHA = 16  # l and m take `diskpoly.MAX_DISK_DEGREE`, where the slowest admitted case is timed


def _check_addition(l: int, m: int, alpha: int, variant: str) -> DiskSpec:
    """The `DiskSpec` (l, m, alpha) of an addition-formula case; ValueError, before any work,
    unless alpha >= 1, variant is in VARIANTS and the caps hold."""
    spec = DiskSpec(l, m, alpha)
    if spec.alpha < 1:
        raise ValueError("alpha must be at least 1 (alpha - 1 appears on the right)")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if spec.alpha > MAX_ALPHA:
        raise ValueError(f"alpha {spec.alpha}, above {MAX_ALPHA}")
    return spec


@lru_cache(maxsize=None, typed=True)
def _coupling(l: int, m: int, r: int, s: int, alpha: int) -> Cyclo:
    """`coupling_const` as a `Cyclo`, in one pass; `_norm` checks its three specs, (l, m, alpha) first."""
    return Cyclo.product(((_norm(l, m, alpha), 1), (_norm(r, s, alpha - 1), -1),
                          (_norm(l - r, m - s, alpha + r + s), -1), (Cyclo.one_minus(2 * (alpha + r + s + 1)), 1),
                          (Cyclo.one_minus(2 * (alpha + 1)), -1)))


def coupling_const(l: int, m: int, r: int, s: int, alpha: int) -> QRat:
    """Coupling coefficient of the (r, s) term on the right-hand side:

    (1 - q^(2(alpha+r+s+1))) / (1 - q^(2(alpha+1)))
        * c_{l,m}^(alpha) / (c_{l-r,m-s}^(alpha+r+s) c_{r,s}^(alpha-1))."""
    return _coupling(*_check_ints(l, m, r, s, alpha)).to_qrat()


# per variant, A's and B's terms (sign, e, letters), sign q^e times a letter per factor, i > 0 for
# z_i and 0 for w_1; a right product is the *-mirror of a left one, so B's letters are B*'s
_ARGUMENTS = {"final": (((-1, 1, (2, 0)), (1, 0, (3, 2))),) * 2,
              "precursor": (((1, 0, (2, 1)), (1, 0, (3, 2))), ((1, 2, (2, 1)), (1, 0, (3, 2))))}


def _shift(x: int, i: int, right: bool) -> tuple:
    """(id', e) with z_i key = q^e key' for the key of id x (`qfield._id`) and i > 0, and w_1 key for i = 0, or, for
    right, their *-mirrors key w_i and key z_1 (`zalgebra`'s relations): z_i z^lam w^mu = q^-(lam_1 + .. + lam_(i-1))
    z^(lam + e_i) w^mu and w_1 z^lam w^mu = q^(lam_2 + .. - mu_2 - ..) z^lam w^(mu + e_1)."""
    lam, mu = _KEYS[x][::-1] if right else _KEYS[x]
    lam, mu, e = ((lam[:i - 1] + (lam[i - 1] + 1,) + lam[i:], mu, -sum(lam[:i - 1])) if i
                  else (lam, (mu[0] + 1,) + mu[1:], sum(lam[1:]) - sum(mu[1:])))
    return _id((mu, lam) if right else (lam, mu)), e


def _act(moves: list, terms: tuple, right: bool = False) -> list:
    """The moves (code, f, v), q^f v key, of X H, or of H X for right, for X the sum of terms (`_ARGUMENTS`) and H the
    sum of moves: per term, each factor's key goes to one key shift."""
    out, factors = [], [{code >> _BITS for code, _, _ in moves}, {code & _MASK for code, _, _ in moves}]
    for sign, e, letters in terms:
        first, second = ({x: _shift(x, i, right) for x in xs} for xs, i in zip(factors, letters))
        for code, f, v in moves:
            (x, dx), (y, dy) = first[code >> _BITS], second[code & _MASK]
            out.append(((x << _BITS) | y, f + e + dx + dy, v if sign > 0 else -v))
    return out


@lru_cache(maxsize=None)
def _lhs_power(variant: str, j: int, k: int) -> Parts:
    """E_k = A^j D^k (j >= 0) or D^k B^-j of a variant in t-form, from E_(k-1), or A^j from A^(j-1), by key
    shifts and central moves, packed at the width of its per-key bound (module docstring)."""
    if not j and not k:
        (k1, k2), = ZElement.one(RANKS).terms
        return Parts((((_id(k1) << _BITS) | _id(k2), 0, (1,)),), 1)
    a, b = _ARGUMENTS[variant]
    x = _lhs_power(variant, j, k - 1) if k else _lhs_power(variant, j - 1 if j > 0 else j + 1, 0)
    s = _width(((10 if k else 2) * x.peak).bit_length() + 1)
    moves = [(code, e, _eval_shift(g, s)) for code, e, g in x.terms]
    if not k:
        moves = _act(moves, a) if j > 0 else _act(moves, b, True)
    else:  # E_(k-1) C - q^(2(k-1)) A E_(k-1) B, C by its central moves
        ab = _act(_act(moves, a), tuple((-sign, e + 2 * k - 2, ls) for sign, e, ls in b), True)
        moves = [((y1 << _BITS) | y2, f - u1 - u2, v) for code, f, v in moves
                 for y1, u1 in _id_moves(code >> _BITS) for y2, u2 in _id_moves(code & _MASK)] + ab
    lo, accs = min(f >> 1 for _, f, _ in moves), ({}, {})
    for code, f, v in moves:  # q^f v in parity f & 1, over t^-lo
        acc = accs[f & 1]
        acc[code] = acc.get(code, 0) + (v << s * ((f >> 1) - lo))
    return _read(accs, s, -lo)


def _packed_lhs(spec: DiskSpec, variant: str) -> tuple:
    """L lhs of a checked case, packed: one Horner sum over the E_k (`diskpoly._horner_sum`)."""
    coefs, j = _jacobi(spec)[3], spec.l - spec.m
    es = [_lhs_power(variant, j, k) for k in range(len(coefs))]
    return _horner_sum(coefs, [x.peak for x in es], 6, lambda s: ((0, *_packed(x, s)) for x in es))


def scaled_lhs(l: int, m: int, alpha: int, variant: str = "final") -> tuple:
    """(1/L, L lhs): the coupled arguments' disk polynomial, times the lcm L of its Jacobi denominators."""
    spec = _check_addition(l, m, alpha, variant)
    return _jacobi(spec)[1], ZElement._of(RANKS, _terms(_read(*_packed_lhs(spec, variant))))


@lru_cache(maxsize=None)
def _rhs_pieces(l: int, m: int, alpha: int, variant: str) -> tuple:
    """(pieces (r, s, outer, inner), 1/V, W, V cc (-q)^(r-s) / (L_outer^2 L_inner) for each), V the lcm
    of the denominators and W = V / L of the module docstring, built as `Cyclo`s, one pass each with the final
    variant's (-q)^(r-s) = (-1)^(r+s) q^(r-s) as integers, and converted and split (`qfield._split`) once."""
    plan = [(r, s, DiskSpec(l - r, m - s, alpha + r + s), DiskSpec(r, s, alpha - 1))
            for r in range(l + 1) for s in range(m + 1)]
    factors = [Cyclo.product(((_coupling(l, m, r, s, alpha), 1), (_jacobi(outer)[0], -2), (_jacobi(inner)[0], -1)),
                             *(((-1) ** (r + s), r - s) if variant == "final" else ()))
               for r, s, outer, inner in plan]
    lcm = Cyclo.lcm(factors)
    return (tuple(plan), (Cyclo() / lcm).to_qrat(), _split((lcm / _jacobi(DiskSpec(l, m, alpha))[0]).to_qrat()),
            tuple(_split((lcm * c).to_qrat()) for c in factors))


def _rhs_sides(l: int, m: int, alpha: int, variant: str) -> tuple:
    """(1/V, W, sides (X_rs I_rs, Y_rs, (a, b), V-scaled weight)) of a checked case's rhs, Y_rs z_1^a w_1^b in it."""
    plan, inv_lcm, w, weights = _rhs_pieces(l, m, alpha, variant)
    return inv_lcm, w, [(_chain(3, outer, inner), _chain(2, outer), (s, r) if variant == "final" else (r, s), c)
                        for (r, s, outer, inner), c in zip(plan, weights)]


def scaled_rhs(l: int, m: int, alpha: int, variant: str = "final") -> tuple:
    """(1/V, V rhs): the coupled sum of products of disk polynomials in the separate factors, over the
    common denominator V of its (r, s) pieces' scalars (`_rhs_pieces`).  As (X2, X2*, Q) = (z_3, w_3, Q_3),
    (X1, X1*, Q - X2 X2*) = (z_2, w_2, Q_2) and (Y2, Y2*, D) = (z_2, w_2, Q_2), its L-scaled factors
    are the Laurent `diskpoly._chain(3, outer, inner)` and `_chain(2, outer)`."""
    inv_lcm, _, sides = _rhs_sides(*_check_addition(l, m, alpha, variant), variant)
    return inv_lcm, ZElement._of(RANKS, _pair_sum(sides))


def addition_lhs(l: int, m: int, alpha: int, variant: str = "final") -> ZElement:
    """The disk polynomial of the coupled arguments, expanded in the tensor algebra."""
    inv_lcm, lhs = scaled_lhs(l, m, alpha, variant)
    return lhs * inv_lcm


def addition_rhs(l: int, m: int, alpha: int, variant: str = "final") -> ZElement:
    """The coupled sum of products of disk polynomials in the separate factors."""
    inv_lcm, rhs = scaled_rhs(l, m, alpha, variant)
    return rhs * inv_lcm


class Verdict(Record):
    """Outcome of one addition-formula verification: l, m, alpha, variant, passed,
    residual_terms, lhs_terms, rhs_terms (lhs_terms on a packed pass), millis."""

    __slots__ = ("l", "m", "alpha", "variant", "passed", "residual_terms",
                 "lhs_terms", "rhs_terms", "millis")

    def to_json(self) -> dict:
        """The fields in order, `passed` under the key "pass"."""
        return {"pass" if name == "passed" else name: value
                for name, value in zip(self.__slots__, self._values())}


def verify_addition(l: int, m: int, alpha: int, variant: str = "final") -> Verdict:
    """Expand both sides to normal form and decide lhs = rhs exactly.

    The sides come scaled, a = L lhs and b = V rhs, and V = W L with W a polynomial (module docstring),
    so lhs = rhs iff a W = b.  Neither is read back: the packed pair sum of b starts at -a W on each key
    of a, with a packed as its Horner sum leaves it (`_packed_lhs`, `_pair_sum`), and the case passes
    when every packed value is 0, which, with each key's coefficients at most sum_rs |left| |right| |w|
    + |a| |W| < 2^(s-1), |a| exact, holds only if the sum is 0.  A failure, reported and not raised,
    reads that sum b - a W back: the residual (a W - b) / V is it times -1/V, and the rhs alone is summed
    once more for its term count."""
    start, spec = time.monotonic(), _check_addition(l, m, alpha, variant)
    lhs, (inv_v, w, sides) = _packed_lhs(spec, variant), _rhs_sides(*spec, variant)
    residual, rhs_terms = [], (lhs_terms := len({key for acc in lhs[0] for key, v in acc.items() if v}))
    if diff := _pair_sum(sides, lhs, w):  # b - a W
        residual, rhs_terms = (ZElement._of(RANKS, diff) * -inv_v).to_json()["terms"], len(_pair_sum(sides))
    millis = int((time.monotonic() - start) * 1000)
    return Verdict(*spec, variant, not residual, residual, lhs_terms, rhs_terms, millis)
