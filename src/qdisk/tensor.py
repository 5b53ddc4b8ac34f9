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

and its precursor with A = X1 (x) Y1 + X2 (x) Y2, B = q^2 X1* (x) Y1* +
X2* (x) Y2*.  The right-hand side couples disk polynomials in the X and
Y generators through explicit constants built from the spherical norms.

The rhs scalars are closed forms: the coupling constants (built on the
norm constants), the sign and q-power of the final variant and the Jacobi
denominators of each piece are `Cyclo`s (`qfield`), so `_rhs_pieces` takes
their lcm V by exponent arithmetic and converts 1/V and each weight once,
with no gcd.

The rhs is assembled as one packed sum of simple tensors, `_pair_sum`
(`pair` is its one-piece case).  Piece (r, s) is left (x) right, with left =
X_rs I_rs and right = Y_rs times the weighted basis monomial z_1^a w_1^b of
Z_2, one product.  Every left coefficient is packed in one
`qfield.pack_laurent` call and every right one in another, at one slot width
s; times q^(Kl + Kr), each output coefficient is the sum of the integer
products over its term pairs, read back from its digits once.  Bound: with
|x| the sum of the absolute values of the numerator coefficients over x's
terms, no integer coefficient of an output numerator exceeds
sum_rs |left| |right|, and s makes that below 2^(s-1).  Any coefficient not
over a power of q sends the whole sum through per-pair `QRat` products.

Case-independent work is done once per process, in `lru_cache` tables:
`_args` (a variant's checked lhs arguments), `coupling_const` and its factored
`_coupling`, and `_rhs_pieces` (a case's rhs scalars, in tuples); the rhs disk
polynomials come from `diskpoly._sphere`.  Callers never receive a cached element.
"""

from __future__ import annotations

import time
from functools import lru_cache

from .diskpoly import DiskSpec, _DiskArgs, _jacobi, _sphere, jacobi_scaled
from .haar import _norm
from .qfield import (Cyclo, QRat, Record, _accum, _check_ints, _eval_shift, _from_digits, _is_qpow,
                     _laurent, _width, mass, pack_laurent, poly_divexact, poly_mul)
from .zalgebra import ZElement, _z_rank, q_element, w_gen, z_gen

LEFT_RANK = 3
RIGHT_RANK = 2
RANKS = (LEFT_RANK, RIGHT_RANK)

# tensor elements are ZElements of rank RANKS; the name of their former class
# stays bound to the type for callers that still use it
TensorElement = ZElement


def _pair_sum(sides) -> dict:
    """Nonzero terms of sum_i left_i (x) right_i over the pairs (left_i, right_i)
    in sides, of ranks LEFT_RANK and RIGHT_RANK (packing and bound: see the
    module docstring)."""
    lefts = [c for left, _ in sides for c in left.terms.values()]
    rights = [c for _, right in sides for c in right.terms.values()]
    acc: dict = {}
    if not all(_is_qpow(c.den) for c in lefts + rights):
        for left, right in sides:
            for kx, x in left.terms.items():
                for ky, y in right.terms.items():
                    _accum(acc, (kx, ky), x * y)
        return {key: c for key, c in acc.items() if c}
    bound = sum(mass(left.terms.values()) * mass(right.terms.values()) for left, right in sides)
    s = _width(bound.bit_length() + 1)
    (kl, pl), (kr, pr) = pack_laurent(lefts, s), pack_laurent(rights, s)
    pl, pr = iter(pl), iter(pr)
    for left, right in sides:
        # zip stops at the keys, so each side takes its own slots off the iterators
        xs, ys = list(zip(left.terms, pl)), list(zip(right.terms, pr))
        for kx, x in xs:
            for ky, y in ys:
                key = (kx, ky)
                acc[key] = acc.get(key, 0) + x * y
    return {key: _laurent(_from_digits(v, s), kl + kr) for key, v in acc.items() if v}


def pair(left: ZElement, right: ZElement) -> ZElement:
    """The simple tensor left (x) right."""
    if _z_rank(left, "pair") != LEFT_RANK or _z_rank(right, "pair") != RIGHT_RANK:
        raise ValueError(f"tensor factors must have ranks {RANKS}")
    return ZElement._of(RANKS, _pair_sum([(left, right)]))


# ----------------------------------------------------------------------
# generator bundle


class XYGenerators:
    """The disk and circle generator images and their tensor lifts."""

    def __init__(self):
        self.X1 = z_gen(2, LEFT_RANK)
        self.X2 = z_gen(3, LEFT_RANK)
        self.X1s = w_gen(2, LEFT_RANK)
        self.X2s = w_gen(3, LEFT_RANK)
        self.Q = q_element(3, LEFT_RANK)
        self.Y1 = z_gen(1, RIGHT_RANK)
        self.Y2 = z_gen(2, RIGHT_RANK)
        self.Y1s = w_gen(1, RIGHT_RANK)
        self.Y2s = w_gen(2, RIGHT_RANK)
        self.D = q_element(2, RIGHT_RANK)
        # Q' = Q - X2 X2*, the central element of the inner disk pair (X1, X1*)
        self.Qp = self.Q - self.X2 * self.X2s


xy_generators = lru_cache(maxsize=None)(XYGenerators)


# ----------------------------------------------------------------------
# the addition formula


VARIANTS = ("final", "precursor")


def _check_addition_args(l: int, m: int, alpha: int, variant: str) -> None:
    if l < 0 or m < 0:
        raise ValueError("degrees must be nonnegative")
    if alpha < 1:
        raise ValueError("alpha must be at least 1 (alpha - 1 appears on the right)")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")


@lru_cache(maxsize=None, typed=True)
def _coupling(l: int, m: int, r: int, s: int, alpha: int) -> Cyclo:
    """`coupling_const` as a `Cyclo`."""
    _check_ints(l, m, r, s, alpha)
    if not (0 <= r <= l and 0 <= s <= m):
        raise ValueError("need 0 <= r <= l and 0 <= s <= m")
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    ratio = Cyclo.one_minus(2 * (alpha + r + s + 1)) / Cyclo.one_minus(2 * (alpha + 1))
    return ratio * _norm(l, m, alpha) / (_norm(l - r, m - s, alpha + r + s) * _norm(r, s, alpha - 1))


@lru_cache(maxsize=None, typed=True)
def coupling_const(l: int, m: int, r: int, s: int, alpha: int) -> QRat:
    """Coupling coefficient of the (r, s) term on the right-hand side:

    (1 - q^(2(alpha+r+s+1))) / (1 - q^(2(alpha+1)))
        * c_{l,m}^(alpha) / (c_{l-r,m-s}^(alpha+r+s) c_{r,s}^(alpha-1))."""
    return _coupling(l, m, r, s, alpha).to_qrat()


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
    _check_addition_args(l, m, alpha, variant)
    spec = DiskSpec(l, m, alpha)
    return jacobi_scaled(spec)[0], _args(variant).scaled(spec)


@lru_cache(maxsize=None)
def _rhs_pieces(l: int, m: int, alpha: int, variant: str) -> tuple:
    """(pieces (r, s, outer, inner), 1/V, V cc (-q)^(r-s) / (L_outer^2 L_inner) for each),
    V the lcm of the denominators, built as `Cyclo`s and converted once."""
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
    return tuple(plan), (Cyclo() / lcm).to_qrat(), tuple((lcm * c).to_qrat() for c in factors)


def scaled_rhs(l: int, m: int, alpha: int, variant: str = "final") -> tuple:
    """(1/V, V rhs): the coupled sum of products of disk polynomials in the
    separate factors, over the common denominator V of the scalars of its
    (r, s) pieces (`_rhs_pieces`).  They are products of the L-scaled disk
    polynomials `diskpoly._sphere` on (X2, X2*, Q) = (z_3, w_3, Q_3), (X1, X1*,
    Q') = (z_2, w_2, Q_2) and (Y2, Y2*, D) = (z_2, w_2, Q_2), so it stays Laurent."""
    _check_addition_args(l, m, alpha, variant)
    plan, inv_lcm, weights = _rhs_pieces(l, m, alpha, variant)
    sides = []
    for (r, s, outer, inner), weight in zip(plan, weights):
        a, b = (s, r) if variant == "final" else (r, s)
        sides.append((_sphere(3, 3, outer) * _sphere(2, 3, inner),
                      _sphere(2, 2, outer) * ZElement.monomial(RIGHT_RANK, (a, 0), (b, 0), weight)))
    return inv_lcm, ZElement._of(RANKS, _pair_sum(sides))


def addition_lhs(l: int, m: int, alpha: int, variant: str = "final") -> ZElement:
    """The disk polynomial of the coupled arguments, expanded in the tensor algebra."""
    inv_lcm, lhs = scaled_lhs(l, m, alpha, variant)
    return lhs * inv_lcm


def addition_rhs(l: int, m: int, alpha: int, variant: str = "final") -> ZElement:
    """The coupled sum of products of disk polynomials in the separate factors."""
    inv_lcm, rhs = scaled_rhs(l, m, alpha, variant)
    return rhs * inv_lcm


def _equal_over(a: ZElement, den_a: tuple, b: ZElement, den_b: tuple) -> bool:
    """Whether a / den_a == b / den_b for polynomials den_a, den_b (see
    `verify_addition`).  False also when a coefficient is not Laurent: the
    caller's exact residual then decides."""
    if a.terms.keys() != b.terms.keys():
        return False
    xs, ys = list(a.terms.values()), [b.terms[key] for key in a.terms]
    if not all(_is_qpow(c.den) for c in xs + ys):
        return False
    s = _width((max(map(mass, zip(xs, ys)), default=0) * sum(map(abs, den_a + den_b))).bit_length() + 1)
    (ka, pa), (kb, pb) = pack_laurent(xs, s), pack_laurent(ys, s)
    # pa holds a q^ka and pb holds b q^kb, so a den_b = b den_a times q^(ka + kb)
    # reads pa den_b q^kb = pb den_a q^ka
    xb, xa = _eval_shift(den_b, s) << (s * kb), _eval_shift(den_a, s) << (s * ka)
    return all(x * xb == y * xa for x, y in zip(pa, pb))


class Verdict(Record):
    """Outcome of one addition-formula verification: l, m, alpha, variant,
    passed, residual_terms, lhs_terms, rhs_terms, millis."""

    __slots__ = ("l", "m", "alpha", "variant", "passed", "residual_terms",
                 "lhs_terms", "rhs_terms", "millis")

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "m": self.m,
            "alpha": self.alpha,
            "variant": self.variant,
            "pass": self.passed,
            "residual_terms": self.residual_terms,
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
            "millis": self.millis,
        }


def verify_addition(l: int, m: int, alpha: int, variant: str = "final") -> Verdict:
    """Expand both sides to normal form and decide lhs = rhs exactly.

    The sides come scaled, a = L lhs and b = V rhs with polynomials L and V,
    and a / L = b / V if and only if a V = b L, so no coefficient is divided.
    L divides V in all 2592 cases with alpha <= 16 and l, m <= 8 (both
    variants), so the check is a W = b, W = V / L from the scalars the sides
    returned, and a V = b L where L does not divide V.  (The scalars' own
    numerators, 1 when the sides are right, multiply in.)  Each side is
    packed once (`qfield.pack_laurent`), as a q^Ka and b q^Kb with Ka and Kb
    its largest q-power denominators, and a q^Ka V q^Kb = b q^Kb L q^Ka, an
    identity in Z[q] for each key, is checked at q = 2^s.  Its coefficients
    are at most |a| |V| and |b| |L| (sums of absolute values), below
    2^(s-1), and symmetric base-2^s digits are unique: equal values mean
    equal sides.  A failure is reported, not raised: only then are the sides
    divided, for the residual lhs - rhs."""
    start = time.monotonic()
    inv_l, lhs = scaled_lhs(l, m, alpha, variant)
    inv_v, rhs = scaled_rhs(l, m, alpha, variant)
    # lhs = a nl / L and rhs = b nv / V, for the numerators nl and nv of 1/L and 1/V
    l_den, v_den = poly_mul(inv_l.den, inv_v.num), poly_mul(inv_v.den, inv_l.num)
    try:
        dens = (1,), poly_divexact(v_den, l_den)
    except ArithmeticError:
        dens = l_den, v_den
    residual = []
    if not _equal_over(lhs, dens[0], rhs, dens[1]):
        residual = (lhs * inv_l - rhs * inv_v).to_json()["terms"]
    millis = int((time.monotonic() - start) * 1000)
    return Verdict(l, m, alpha, variant, not residual, residual,
                   lhs.term_count(), rhs.term_count(), millis)
