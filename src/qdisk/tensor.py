"""Verification of the q-disk polynomial addition formula in a tensor algebra.

The algebra of a q-disk pair (X1, X2) and a q-circle pair (Y1, Y2) is realized faithfully in
Z_3 (x) Z_2 by X1 -> z_2, X2 -> z_3, Q -> Q_3 and Y1 -> z_1, Y2 -> z_2, D -> Q_2, so both sides
of the addition formula are `ZElement`s of rank RANKS = (3, 2), multiplied factorwise, whose
equality is decidable by exact normal forms.  The coupled-argument identity has

    A = -q X1 (x) Y1* + X2 (x) Y2,  B = -q X1* (x) Y1 + X2* (x) Y2*,  C = Q (x) D,

and its precursor, also verified, A = X1 (x) Y1 + X2 (x) Y2 and B = q^2 X1* (x) Y1* + X2* (x)
Y2*; the rhs couples disk polynomials in the X and Y generators through constants built from
the spherical norms.

The lhs L R(A, B, C) (`diskpoly`) is one packed Horner sum in C, `diskpoly._packed_sum`, over
E_k = A^j D^k (j = l - m >= 0) or D^k B^-j, built with no element product: A's terms act on the
left of each factor, and B's on the right, by key shifts times powers of q (`_shift`); C is
central, D A = q^2 A D and D B = q^-2 B D (the q-disk pair relation), so E_k = E_(k-1) C -
q^(2(k-1)) A E_(k-1) B, with C by its central moves (`diskpoly._pair_moves`).  A shift is
one-to-one, so a key of E_k is reached from at most 6 keys of E_(k-1) by C, one per pair of
moves, and from at most 4 by A . B, one per pair of terms, each times +-q^e: with |x| the largest
sum of the absolute integer coefficients of one of x's coefficients, |E_k| <= 10 |E_(k-1)|,
|A^j| <= 2 |A^(j-1)| (or B) and |E_k| <= 10^k 2^|j|.  Each E_k is packed from its source at the
width of that bound and read back once.

The rhs scalars, the coupling constants, the final variant's sign and q-power and each piece's
Jacobi denominators, are `Cyclo`s (`qfield`): `_rhs_pieces` takes their lcm V by exponent
arithmetic and converts 1/V, W = V / L and each weight once, with no gcd.  W is a polynomial: the
scalar of piece (0, 0), whose coupling constant and inner lcm are 1, is 1/L^2, and V has each
index, q included, at least twice L's.  The rhs is one packed sum, `_pair_sum`, of Laurent simple
tensors w left (x) right over the pieces (r, s): left = X_rs I_rs is the two-level `diskpoly._chain`
entry, right = Y_rs z_1^a w_1^b is `_circle_shift` of the one-level one, and w is V times a scalar
whose denominator divides V.  Each side is packed in one `pack_laurent` call at one slot width s,
and each output coefficient, at most sum_rs |left| |right| |w| < 2^(s-1), is read back once by
`scaled_rhs`.  A passing `verify_addition` reads back neither side: the lhs reaches it packed, as
its Horner sum leaves it (`_packed_lhs`), and its pair sum starts from that (`_pair_sum`).

Case-independent work is done once per process, in `lru_cache` tables: `_lhs_power` (a variant's
E_k, keyed by (variant, j, k)), `_coupling` (the coupling constants), `_rhs_pieces` (a case's rhs
scalars, in tuples) and `_chain`, whose entries every case and variant that has them shares.  An
E_k or chain entry keeps its `ZElement._peak` from when it is built.  Callers never receive one.
"""

from __future__ import annotations

import time
from functools import lru_cache

from .diskpoly import DiskSpec, _chain, _jacobi, _packed_sum, _pair_moves
from .haar import _norm
from .qfield import (Cyclo, QRat, Record, _check_ints, _eval_shift, _from_digits, _laurent, _width, mass,
                     pack_laurent, peak, poly_valuation)
from .zalgebra import ZElement, _unpacked, _z_rank

LEFT_RANK = 3
RIGHT_RANK = 2
RANKS = (LEFT_RANK, RIGHT_RANK)

TensorElement = ZElement  # tensor elements are ZElements of rank RANKS; the former class name stays


def _pair_sum(sides, packed: tuple = ({}, 8, 0), d1: tuple = (1,)) -> dict:
    """Nonzero terms of sum_i w_i left_i (x) right_i - d1 a over the sides (left_i, right_i, w_i),
    left_i and right_i of ranks LEFT_RANK and RIGHT_RANK, and d1 a polynomial, all Laurent, with a
    packed = ({key: F(2^sa)}, sa, ka) for its terms F/q^ka (`diskpoly._horner_sum`; none by default)."""
    (values, sa, ka), weights = packed, [w for _, _, w in sides]
    lefts, rights = ([c for side in sides for c in side[i].terms.values()] for i in (0, 1))
    bound = sum(x._peak * y._peak * mass([w]) for x, y, w in sides)
    # each nonzero F(2^sa) as n 2^(sa o), n's low slot nonzero; a's exact peak from the digits of the n
    lows = [(key, x >> sa * (o := ((x & -x).bit_length() - 1) // sa), o) for key, x in values.items() if x]
    top = max((sum(map(abs, _from_digits(n, sa))) for _, n, _ in lows), default=0)
    s = _width((bound + top * sum(map(abs, d1))).bit_length() + 1)
    (kl, *pl), (kr, *pr), (kw, pw, ow) = (pack_laurent(cs, s) for cs in (lefts, rights, weights))
    # over q^k: a product shifts by its offsets and k - (kl + kr + kw), n d1 by o, v and k - ka
    k, v, pl, pr = max(kl + kr + kw, ka), poly_valuation(d1), zip(*pl), zip(*pr)
    d, base = -_eval_shift(d1[v:], s), k - kl - kr - kw
    acc = {key: (n if s == sa else _eval_shift(_from_digits(n, sa), s)) * d << s * (o + v + k - ka)
           for key, n, o in lows}
    for (left, right, _), w, o in zip(sides, pw, ow):
        # zip stops at the keys, so each side takes its own (value, offset) pairs off pl and pr
        xs = [(kx, x, s * ox) for kx, (x, ox) in zip(left.terms, pl)]
        ys = [(ky, y * w, s * (oy + o + base)) for ky, (y, oy) in zip(right.terms, pr)]
        for kx, x, sx in xs:
            for ky, y, sy in ys:
                key = (kx, ky)
                acc[key] = acc.get(key, 0) + ((x * y) << (sx + sy))
    return _unpacked(acc, s, k)


def _circle_shift(y: ZElement, a: int, b: int) -> ZElement:
    """y z_1^a w_1^b for y in Z_2 with Laurent coefficients, by the right shifts of the module docstring:
    the term n / q^k z^lam w^mu goes to n / q^(k + a (lam_2 - mu_2)) z^(lam + a e_1) w^(mu + b e_1)."""
    return ZElement._of(y.rank, {((l1 + a, l2), (m1 + b, m2)): _laurent(c.num, len(c.den) - 1 + a * (l2 - m2))
                                 for ((l1, l2), (m1, m2)), c in y.terms.items()}, y._peak)


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
    """`coupling_const` as a `Cyclo`; `_norm` checks its three specs, (l, m, alpha) first."""
    whole, inner = _norm(l, m, alpha), _norm(r, s, alpha - 1)
    ratio = Cyclo.one_minus(2 * (alpha + r + s + 1)) / Cyclo.one_minus(2 * (alpha + 1))
    return ratio * whole / (_norm(l - r, m - s, alpha + r + s) * inner)


def coupling_const(l: int, m: int, r: int, s: int, alpha: int) -> QRat:
    """Coupling coefficient of the (r, s) term on the right-hand side:

    (1 - q^(2(alpha+r+s+1))) / (1 - q^(2(alpha+1)))
        * c_{l,m}^(alpha) / (c_{l-r,m-s}^(alpha+r+s) c_{r,s}^(alpha-1))."""
    return _coupling(*_check_ints(l, m, r, s, alpha)).to_qrat()


# per variant, A's and B's terms (sign, e, letters), sign q^e times a letter per factor, i > 0 for
# z_i and 0 for w_1; a right product is the *-mirror of a left one, so B's letters are B*'s
_ARGUMENTS = {"final": (((-1, 1, (2, 0)), (1, 0, (3, 2))),) * 2,
              "precursor": (((1, 0, (2, 1)), (1, 0, (3, 2))), ((1, 2, (2, 1)), (1, 0, (3, 2))))}


def _shift(key: tuple, i: int, right: bool) -> tuple:
    """(key', e) with z_i key = q^e key' for i > 0 and w_1 key for i = 0, or, for right, their
    *-mirrors key w_i and key z_1 (`zalgebra`'s relations): z_i z^lam w^mu = q^-(lam_1 + .. +
    lam_(i-1)) z^(lam + e_i) w^mu and w_1 z^lam w^mu = q^(lam_2 + .. - mu_2 - ..) z^lam w^(mu + e_1)."""
    lam, mu = key[::-1] if right else key
    lam, mu, e = ((lam[:i - 1] + (lam[i - 1] + 1,) + lam[i:], mu, -sum(lam[:i - 1])) if i
                  else (lam, (mu[0] + 1,) + mu[1:], sum(lam[1:]) - sum(mu[1:])))
    return ((mu, lam) if right else (lam, mu)), e


def _act(moves: list, terms: tuple, right: bool = False) -> list:
    """The moves (key, t, v), v q^-t key, of X H, or of H X for right, for X the sum of terms
    (`_ARGUMENTS`) and H the sum of moves: per term, each key goes to one key shift."""
    out, factors = [], [{key[f] for key, _, _ in moves} for f in (0, 1)]
    for sign, e, letters in terms:
        first, second = ({x: _shift(x, i, right) for x in xs} for xs, i in zip(factors, letters))
        for (x, y), t, v in moves:
            (x, dx), (y, dy) = first[x], second[y]
            out.append(((x, y), t - e - dx - dy, v if sign > 0 else -v))
    return out


@lru_cache(maxsize=None)
def _lhs_power(variant: str, j: int, k: int) -> ZElement:
    """E_k = A^j D^k (j >= 0) or D^k B^-j of a variant, from E_(k-1), or A^j from A^(j-1), by key
    shifts and central moves, packed at the width of its per-key bound (module docstring)."""
    if not j and not k:
        return ZElement._of(RANKS, ZElement.one(RANKS).terms, 1)
    a, b = _ARGUMENTS[variant]
    x = _lhs_power(variant, j, k - 1) if k else _lhs_power(variant, j - 1 if j > 0 else j + 1, 0)
    s = _width(((10 if k else 2) * x._peak).bit_length() + 1)
    kh, values, offsets = pack_laurent(list(x.terms.values()), s)
    moves = [(key, -o, v) for key, v, o in zip(x.terms, values, offsets)]  # v q^o over q^kh
    if not k:
        moves = _act(moves, a) if j > 0 else _act(moves, b, True)
    else:  # E_(k-1) C - q^(2(k-1)) A E_(k-1) B, C by its central moves
        ab = _act(_act(moves, a), tuple((-sign, e + 2 * k - 2, ls) for sign, e, ls in b), True)
        moves = [(y, t + u, v) for key, t, v in moves for y, u in _pair_moves(key)] + ab
    big, acc = max(t for _, t, _ in moves), {}
    for key, t, v in moves:  # over q^(kh + big)
        acc[key] = acc.get(key, 0) + (v << s * (big - t))
    return ZElement._of(RANKS, e := _unpacked(acc, s, kh + big), peak(e.values()))


def _packed_lhs(spec: DiskSpec, variant: str) -> tuple:
    """L lhs of a checked case, packed: one Horner sum over the E_k (`diskpoly._horner_sum`)."""
    coefs, j = _jacobi(spec)[2], spec.l - spec.m
    return _packed_sum(coefs, [_lhs_power(variant, j, k) for k in range(len(coefs))], 6, _pair_moves)


def scaled_lhs(l: int, m: int, alpha: int, variant: str = "final") -> tuple:
    """(1/L, L lhs): the coupled arguments' disk polynomial, times the lcm L of its Jacobi denominators."""
    spec = _check_addition(l, m, alpha, variant)
    return _jacobi(spec)[1], ZElement._of(RANKS, _unpacked(*_packed_lhs(spec, variant)))


@lru_cache(maxsize=None)
def _rhs_pieces(l: int, m: int, alpha: int, variant: str) -> tuple:
    """(pieces (r, s, outer, inner), 1/V, W, V cc (-q)^(r-s) / (L_outer^2 L_inner) for each), V the lcm
    of the denominators and W = V / L of the module docstring, built as `Cyclo`s and converted once."""
    plan = [(r, s, DiskSpec(l - r, m - s, alpha + r + s), DiskSpec(r, s, alpha - 1))
            for r in range(l + 1) for s in range(m + 1)]
    factors = []
    for r, s, outer, inner in plan:
        cc = _coupling(l, m, r, s, alpha)
        if variant == "final":
            cc = cc * Cyclo((-1) ** (r - s), r - s)
        lcm_outer = _jacobi(outer)[0]
        factors.append(cc / (lcm_outer * lcm_outer * _jacobi(inner)[0]))
    lcm = Cyclo.lcm(factors)
    return (tuple(plan), (Cyclo() / lcm).to_qrat(), (lcm / _jacobi(DiskSpec(l, m, alpha))[0]).to_qrat().num,
            tuple((lcm * c).to_qrat() for c in factors))


def _rhs_sides(l: int, m: int, alpha: int, variant: str) -> tuple:
    """(1/V, W, sides (X_rs I_rs, Y_rs z_1^a w_1^b, V-scaled weight)) of the rhs: see `scaled_rhs`."""
    plan, inv_lcm, w, weights = _rhs_pieces(*_check_addition(l, m, alpha, variant), variant)
    return inv_lcm, w, [(_chain(3, outer, inner),
                         _circle_shift(_chain(2, outer), *((s, r) if variant == "final" else (r, s))), weight)
                        for (r, s, outer, inner), weight in zip(plan, weights)]


def scaled_rhs(l: int, m: int, alpha: int, variant: str = "final") -> tuple:
    """(1/V, V rhs): the coupled sum of products of disk polynomials in the separate factors, over the
    common denominator V of its (r, s) pieces' scalars (`_rhs_pieces`).  As (X2, X2*, Q) = (z_3, w_3, Q_3),
    (X1, X1*, Q - X2 X2*) = (z_2, w_2, Q_2) and (Y2, Y2*, D) = (z_2, w_2, Q_2), its L-scaled factors
    are the Laurent `diskpoly._chain(3, outer, inner)` and `_chain(2, outer)`."""
    inv_lcm, _, sides = _rhs_sides(l, m, alpha, variant)
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
    + |a| |W| < 2^(s-1), |a| exact, holds only if the sum is 0.  Only a failure, reported and not
    raised, reads both back for the residual (a W - b) / V."""
    start, spec = time.monotonic(), _check_addition(l, m, alpha, variant)
    lhs, (inv_v, w, sides) = _packed_lhs(spec, variant), _rhs_sides(*spec, variant)
    residual, rhs_terms = [], (lhs_terms := sum(map(bool, lhs[0].values())))
    if _pair_sum(sides, lhs, w):
        a, rhs = ZElement._of(RANKS, _unpacked(*lhs)), ZElement._of(RANKS, _pair_sum(sides))
        residual, rhs_terms = ((a * QRat(w) - rhs) * inv_v).to_json()["terms"], rhs.term_count()
    millis = int((time.monotonic() - start) * 1000)
    return Verdict(*spec, variant, not residual, residual, lhs_terms, rhs_terms, millis)
