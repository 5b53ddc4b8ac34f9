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

Case-independent work is done once per process, in `lru_cache` tables:
`_args` (checked argument bundles by name), `_factor` (scaled rhs disk
polynomials by triple and `DiskSpec`), `coupling_const` and `_rhs_pieces`
(a case's rhs scalars, in tuples); callers never receive a cached element.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import product

from .diskpoly import DiskSpec, _DiskArgs, jacobi_scaled
from .haar import norm_const
from .qfield import (ONE, QRat, Record, _eval_shift, _is_qpow, _width, common_denominator,
                     laurent_products, mass, pack_laurent)
from .zalgebra import ZElement, embed, q_element, w_gen, z_gen

LEFT_RANK = 3
RIGHT_RANK = 2
RANKS = (LEFT_RANK, RIGHT_RANK)

# tensor elements are ZElements of rank RANKS; the name of their former class
# stays bound to the type for callers that still use it
TensorElement = ZElement


def pair(left: ZElement, right: ZElement) -> ZElement:
    """The simple tensor left (x) right."""
    if left.rank != LEFT_RANK or right.rank != RIGHT_RANK:
        raise ValueError(f"tensor factors must have ranks {RANKS}")
    return ZElement(RANKS, dict(zip(product(left.terms, right.terms), laurent_products(
        list(left.terms.values()), list(right.terms.values())))))


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


@lru_cache(maxsize=None)
def coupling_const(l: int, m: int, r: int, s: int, alpha: int) -> QRat:
    """Coupling coefficient of the (r, s) term on the right-hand side:

    (1 - q^(2(alpha+r+s+1))) / (1 - q^(2(alpha+1)))
        * c_{l,m}^(alpha) / (c_{l-r,m-s}^(alpha+r+s) c_{r,s}^(alpha-1))."""
    if not (0 <= r <= l and 0 <= s <= m):
        raise ValueError("need 0 <= r <= l and 0 <= s <= m")
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    ratio = (ONE - QRat.q_power(2 * (alpha + r + s + 1))) / (ONE - QRat.q_power(2 * (alpha + 1)))
    return ratio * norm_const(l, m, alpha) / (
        norm_const(l - r, m - s, alpha + r + s) * norm_const(r, s, alpha - 1))


@lru_cache(maxsize=None)
def _args(name: str) -> _DiskArgs:
    """The checked arguments of a variant's lhs, or of the rhs triple named."""
    g = xy_generators()
    q = QRat.q_power(1)
    if name in ("X", "Y"):
        return _DiskArgs(*{"X": (g.X2, g.X2s, g.Q), "Y": (g.Y2, g.Y2s, g.D)}[name])
    if name == "final":
        A = pair(g.X1, g.Y1s) * (-q) + pair(g.X2, g.Y2)
        B = pair(g.X1s, g.Y1) * (-q) + pair(g.X2s, g.Y2s)
    else:
        A = pair(g.X1, g.Y1) + pair(g.X2, g.Y2)
        B = pair(g.X1s, g.Y1s) * (q * q) + pair(g.X2s, g.Y2s)
    return _DiskArgs(A, B, pair(g.Q, g.D))


@lru_cache(maxsize=None)
def _factor(name: str, spec: DiskSpec) -> ZElement:
    """L R(spec) on the rhs triple "X", "Y" or "inner" = (X1, X1*, Q'), which is
    (z_2, w_2, Q_2): the image of (Y2, Y2*, D) under Z_2 -> Z_3 (`embed`)."""
    if name == "inner":
        return embed(_factor("Y", spec), LEFT_RANK)
    return _args(name).scaled(spec)


def scaled_lhs(l: int, m: int, alpha: int, variant: str = "final") -> tuple:
    """(1/L, L lhs): the disk polynomial of the coupled arguments, expanded in
    the tensor algebra and scaled by the lcm L of its Jacobi denominators."""
    _check_addition_args(l, m, alpha, variant)
    spec = DiskSpec(l, m, alpha)
    return jacobi_scaled(spec)[0], _args(variant).scaled(spec)


@lru_cache(maxsize=None)
def _rhs_pieces(l: int, m: int, alpha: int, variant: str) -> tuple:
    """(pieces (r, s, outer, inner), 1/V, V cc (-q)^(r-s) / (L_outer^2 L_inner) for each)."""
    plan = [(r, s, DiskSpec(l - r, m - s, alpha + r + s), DiskSpec(r, s, alpha - 1))
            for r in range(l + 1) for s in range(m + 1)]
    factors = []
    for r, s, outer, inner in plan:
        cc = coupling_const(l, m, r, s, alpha)
        if variant == "final":
            cc = cc * (-QRat.q_power(1)) ** (r - s)
        inv_outer = jacobi_scaled(outer)[0]
        factors.append(cc * inv_outer * inv_outer * jacobi_scaled(inner)[0])
    return (tuple(plan), *common_denominator(factors))


def scaled_rhs(l: int, m: int, alpha: int, variant: str = "final") -> tuple:
    """(1/V, V rhs): the coupled sum of products of disk polynomials in the
    separate factors, over the common denominator V of the scalars of its
    (r, s) pieces (`_rhs_pieces`).  The pieces are built from L-scaled disk
    polynomials (the factor tables), so the sum stays Laurent."""
    _check_addition_args(l, m, alpha, variant)
    g = xy_generators()
    plan, inv_lcm, weights = _rhs_pieces(l, m, alpha, variant)
    total = ZElement.zero(RANKS)
    for (r, s, outer, inner), weight in zip(plan, weights):
        left = _factor("X", outer) * _factor("inner", inner)
        ys = (s, r) if variant == "final" else (r, s)
        right = _factor("Y", outer) * g.Y1 ** ys[0] * g.Y1s ** ys[1]
        total = total + pair(left, right * weight)
    return inv_lcm, total


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
    pairs = [(x, b.terms[key]) for key, x in a.terms.items()]
    if not all(_is_qpow(c.den) for xy in pairs for c in xy):
        return False
    s = _width((max(map(mass, pairs), default=0) * sum(map(abs, den_a + den_b))).bit_length() + 1)
    xa, xb = _eval_shift(den_a, s), _eval_shift(den_b, s)
    return all(px * xb == py * xa for _, (px, py) in (pack_laurent(xy, s) for xy in pairs))


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
    and a / L = b / V if and only if a V = b L, so no coefficient is divided:
    times q^K, K the larger q-power denominator of a and b, each a V = b L
    is an identity in Z[q], checked at q = 2^s on packed integers
    (`qfield.pack_laurent`).  Its coefficients are at most |a| |V| and |b| |L|
    (sums of absolute values), below 2^(s-1), and symmetric base-2^s digits
    are unique: equal values mean equal sides.  A failure is reported, not
    raised: only then are the sides divided, for the residual lhs - rhs."""
    start = time.monotonic()
    inv_l, lhs = scaled_lhs(l, m, alpha, variant)
    inv_v, rhs = scaled_rhs(l, m, alpha, variant)
    residual = []
    if not _equal_over(lhs, inv_l.den, rhs, inv_v.den):
        residual = (lhs * inv_l - rhs * inv_v).to_json()["terms"]
    millis = int((time.monotonic() - start) * 1000)
    return Verdict(l, m, alpha, variant, not residual, residual,
                   lhs.term_count(), rhs.term_count(), millis)
