"""Verification of the q-disk polynomial addition formula in a tensor algebra.

The abstract algebra generated by a q-disk pair (X1, X2) and a q-circle
pair (Y1, Y2) is realized faithfully inside Z_3 (x) Z_2 via

    X1 -> z_2,  X2 -> z_3,  Q -> Q_3      (left factor, rank 3)
    Y1 -> z_1,  Y2 -> z_2,  D -> Q_2      (right factor, rank 2)

so both sides of the addition formula become concrete elements of the
tensor product, where equality is decidable by exact normal forms.  Those
elements are `ZElement`s of rank RANKS = (3, 2), made from simple tensors
by `pair`, and they multiply factorwise.  Two variants are verified: the
coupled-argument identity with arguments

    A = -q X1 (x) Y1* + X2 (x) Y2,  B = -q X1* (x) Y1 + X2* (x) Y2*,
    C = Q (x) D,

and its precursor with A = X1 (x) Y1 + X2 (x) Y2, B = q^2 X1* (x) Y1* + X2* (x)
Y2*.  The right-hand side couples disk polynomials in the X and Y generators
through explicit constants built from the spherical norms.

The rhs scalars are closed forms: the coupling constants (built on the norm
constants), the sign and q-power of the final variant and the Jacobi denominators
of each piece are `Cyclo`s (`qfield`), so `_rhs_pieces` takes their lcm V by
exponent arithmetic and converts 1/V, W = V / L and each weight once, with no gcd.
W is a polynomial: the piece (r, s) = (0, 0) has coupling constant 1 and inner
lcm 1, so its scalar is 1/L^2, and V has each index, q included, at least twice L's.

The rhs is one packed sum of weighted simple tensors, `_pair_sum`, whose sides are Laurent
by construction: each left and right coefficient comes out of `_unpacked` or `_laurent`,
and each weight, V times a scalar whose denominator divides V, is a polynomial.  Piece
(r, s) is w left (x) right, with left = X_rs I_rs the two-level `diskpoly._chain` entry,
built with no element product (D = Q_3 - z_3 w_3 is Q_2, and z_3, w_3 pass Z_2 as key
shifts), and right = Y_rs z_1^a w_1^b in closed form: as w_1 z_1 = z_1 w_1, w_2 z_1 =
q z_1 w_2 and z_2 z_1 = q^-1 z_1 z_2, z^lam w^mu z_1^a w_1^b = q^(a(mu_2 - lam_2))
z^(lam + a e_1) w^(mu + b e_1).  Left and right coefficients and weights are packed in
one `pack_laurent` call each, at one slot width s, each value at its own power of q;
times q^(Kl + Kr + Kw), each output coefficient is the sum of the integer products left
right w over its term pairs, one per piece, each shifted by s times its three offsets
once multiplied, and is read back once by `scaled_rhs`, never by `verify_addition`.
With |x| the largest sum of the absolute integer coefficients of one of x's
coefficients, each is at most sum_rs |left| |right| |w|, which s puts below 2^(s-1).

Case-independent work is done once per process, in `lru_cache` tables: `_args` (a
variant's checked lhs arguments), `_coupling` (the coupling constants), `_rhs_pieces`
(a case's rhs scalars, in tuples) and `_chain`, whose entries every case and variant
that has them shares.  Callers never receive a cached element.
"""

from __future__ import annotations

import time
from functools import lru_cache
from types import SimpleNamespace

from .diskpoly import DiskSpec, _chain, _DiskArgs, _jacobi
from .haar import _norm
from .qfield import (Cyclo, QRat, Record, _check_ints, _eval_shift, _laurent, _width, mass, pack_laurent,
                     peak, poly_valuation)
from .zalgebra import ZElement, _unpacked, _z_rank, q_element, w_gen, z_gen

LEFT_RANK = 3
RIGHT_RANK = 2
RANKS = (LEFT_RANK, RIGHT_RANK)

# tensor elements are ZElements of rank RANKS; the name of their former class
# stays bound to the type for callers that still use it
TensorElement = ZElement


def _pair_sum(sides, less: dict | None = None, d1: tuple = (1,)) -> dict:
    """Nonzero terms of sum_i w_i left_i (x) right_i - d1 less over the sides (left_i, right_i, w_i),
    left_i and right_i of ranks LEFT_RANK and RIGHT_RANK, less {key: coefficient} (none by
    default) and d1 a polynomial, all Laurent (module docstring)."""
    less, weights = less or {}, [w for _, _, w in sides]
    lefts, rights = ([c for side in sides for c in side[i].terms.values()] for i in (0, 1))
    bound = sum(peak(x.terms.values()) * peak(y.terms.values()) * mass([w]) for x, y, w in sides)
    s = _width((bound + peak(less.values()) * sum(map(abs, d1))).bit_length() + 1)
    (kl, *pl), (kr, *pr), (kw, pw, ow), (ka, pa, oa) = (
        pack_laurent(cs, s) for cs in (lefts, rights, weights, list(less.values())))
    # over q^k: a product shifts by its offsets and k - (kl + kr + kw), less by its offset, v and k - ka
    k, v, pl, pr = max(kl + kr + kw, ka), poly_valuation(d1), zip(*pl), zip(*pr)
    d, base = -_eval_shift(d1[v:], s), k - kl - kr - kw
    acc = {key: (a * d) << s * (o + v + k - ka) for key, a, o in zip(less, pa, oa)}
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
    """y z_1^a w_1^b for y in Z_2 with Laurent coefficients (module docstring): the
    term n / q^k z^lam w^mu goes to n / q^(k + a (lam_2 - mu_2)) z^(lam + a e_1) w^(mu + b e_1)."""
    return y._like({((l1 + a, l2), (m1 + b, m2)): _laurent(c.num, len(c.den) - 1 + a * (l2 - m2))
                    for ((l1, l2), (m1, m2)), c in y.terms.items()})


def pair(left: ZElement, right: ZElement) -> ZElement:
    """The simple tensor left (x) right."""
    if _z_rank(left, "pair") != LEFT_RANK or _z_rank(right, "pair") != RIGHT_RANK:
        raise ValueError(f"tensor factors must have ranks {RANKS}")
    # distinct keys and nonzero products: nothing to add up
    return ZElement._of(RANKS, {(kx, ky): x * y for kx, x in left.terms.items()
                                for ky, y in right.terms.items()})


# ----------------------------------------------------------------------
# generator bundle


@lru_cache(maxsize=None)
def xy_generators() -> SimpleNamespace:
    """The images X1, X2, their stars X1s, X2s and Q of Z_3, and Y1, Y2, Y1s, Y2s and D of Z_2."""
    return SimpleNamespace(X1=z_gen(2, LEFT_RANK), X2=z_gen(3, LEFT_RANK), X1s=w_gen(2, LEFT_RANK),
                           X2s=w_gen(3, LEFT_RANK), Q=q_element(3, LEFT_RANK), Y1=z_gen(1, RIGHT_RANK),
                           Y2=z_gen(2, RIGHT_RANK), Y1s=w_gen(1, RIGHT_RANK), Y2s=w_gen(2, RIGHT_RANK),
                           D=q_element(2, RIGHT_RANK))


# ----------------------------------------------------------------------
# the addition formula


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


@lru_cache(maxsize=None)
def _args(variant: str) -> _DiskArgs:
    """The checked arguments of a variant's lhs."""
    g = xy_generators()
    q = QRat.q_power(1)
    if variant == "final":
        A = pair(g.X1, g.Y1s) * (-q) + pair(g.X2, g.Y2)
        B = pair(g.X1s, g.Y1) * (-q) + pair(g.X2s, g.Y2s)
    else:
        A = pair(g.X1, g.Y1) + pair(g.X2, g.Y2)
        B = pair(g.X1s, g.Y1s) * (q * q) + pair(g.X2s, g.Y2s)
    return _DiskArgs(A, B, pair(g.Q, g.D))


def scaled_lhs(l: int, m: int, alpha: int, variant: str = "final") -> tuple:
    """(1/L, L lhs): the disk polynomial of the coupled arguments, expanded in
    the tensor algebra and scaled by the lcm L of its Jacobi denominators."""
    spec = _check_addition(l, m, alpha, variant)
    return _jacobi(spec)[1], _args(variant).scaled(spec)


@lru_cache(maxsize=None)
def _rhs_pieces(l: int, m: int, alpha: int, variant: str) -> tuple:
    """(pieces (r, s, outer, inner), 1/V, W, V cc (-q)^(r-s) / (L_outer^2 L_inner) for each), V the
    lcm of the denominators and W = V / L the polynomial of the module docstring, L the lhs's lcm,
    built as `Cyclo`s and converted once."""
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
    """(1/V, V rhs): the coupled sum of products of disk polynomials in the separate factors,
    over the common denominator V of the scalars of its (r, s) pieces (`_rhs_pieces`).  Its
    factors are L-scaled disk polynomials on (X2, X2*, Q) = (z_3, w_3, Q_3), (X1, X1*, Q') =
    (z_2, w_2, Q_2), Q' = Q - X2 X2*, and (Y2, Y2*, D) = (z_2, w_2, Q_2), so it stays Laurent:
    X_rs I_rs is the chain `diskpoly._chain(3, outer, inner)` and Y_rs is `_chain(2, outer)`."""
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

    The sides come scaled, a = L lhs and b = V rhs, and V = W L with W a polynomial (module
    docstring), so lhs = rhs iff a W = b.  b is not read back: the packed pair sum of its
    sides starts at -a W on each key of a (`_pair_sum`), and the case passes when every
    packed value is 0; each key's coefficients are at most sum_rs |left| |right| |w| +
    |a| |W| < 2^(s-1) (module docstring), so the sum is 0 only if it is 0 at q = 2^s.
    Only a failure, reported and not raised, reads b back for the residual (a W - b) / V."""
    start = time.monotonic()
    spec = _check_addition(l, m, alpha, variant)
    lhs = scaled_lhs(*spec, variant)[1]
    inv_v, w, sides = _rhs_sides(*spec, variant)
    residual, rhs_terms = [], lhs.term_count()
    if _pair_sum(sides, lhs.terms, w):
        rhs = ZElement._of(RANKS, _pair_sum(sides))
        residual, rhs_terms = ((lhs * QRat(w) - rhs) * inv_v).to_json()["terms"], rhs.term_count()
    millis = int((time.monotonic() - start) * 1000)
    return Verdict(*spec, variant, not residual, residual, lhs.term_count(), rhs_terms, millis)
