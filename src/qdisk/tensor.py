"""Verification of the q-disk polynomial addition formula in a tensor algebra.

The abstract algebra generated by a q-disk pair (X1, X2) and a q-circle
pair (Y1, Y2) is realized faithfully inside Z_3 (x) Z_2 via

    X1 -> z_2,  X2 -> z_3,  Q -> Q_3      (left factor, rank 3)
    Y1 -> z_1,  Y2 -> z_2,  D -> Q_2      (right factor, rank 2)

so both sides of the addition formula become concrete elements of the
tensor product, where equality is decidable by exact normal forms.  Those
elements are `ZElement`s of rank RANKS = (3, 2), made from simple tensors
by `pair`, and they multiply factorwise.  Two
variants are verified: the coupled-argument identity with arguments

    A = -q X1 (x) Y1* + X2 (x) Y2,  B = -q X1* (x) Y1 + X2* (x) Y2*,
    C = Q (x) D,

and its precursor with A = X1 (x) Y1 + X2 (x) Y2, B = q^2 X1* (x) Y1* +
X2* (x) Y2*.  The right-hand side couples disk polynomials in the X and
Y generators through explicit constants built from the spherical norms.
"""

from __future__ import annotations

import time

from .diskpoly import DiskSpec, disk_poly, jacobi_scaled, scaled_disk_poly
from .haar import norm_const
from .qfield import ONE, QRat, Record, common_denominator
from .zalgebra import ZElement, q_element, w_gen, z_gen

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
    return ZElement(RANKS, {(kl, kr): cl * cr for kl, cl in left.terms.items()
                            for kr, cr in right.terms.items()})


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


_GENS: XYGenerators | None = None


def xy_generators() -> XYGenerators:
    global _GENS
    if _GENS is None:
        _GENS = XYGenerators()
    return _GENS


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


def addition_lhs(l: int, m: int, alpha: int, variant: str = "final") -> ZElement:
    """The disk polynomial of the coupled arguments, expanded in the tensor algebra."""
    _check_addition_args(l, m, alpha, variant)
    g = xy_generators()
    q = QRat.q_power(1)
    if variant == "final":
        A = pair(g.X1, g.Y1s) * (-q) + pair(g.X2, g.Y2)
        B = pair(g.X1s, g.Y1) * (-q) + pair(g.X2s, g.Y2s)
    else:
        A = pair(g.X1, g.Y1) + pair(g.X2, g.Y2)
        B = pair(g.X1s, g.Y1s) * (q * q) + pair(g.X2s, g.Y2s)
    C = pair(g.Q, g.D)
    return disk_poly(DiskSpec(l, m, alpha), A, B, C)


def addition_rhs(l: int, m: int, alpha: int, variant: str = "final") -> ZElement:
    """The coupled sum of products of disk polynomials in the separate factors.

    Each (r, s) piece is built from the L-scaled disk polynomials
    (`scaled_disk_poly`), so its coefficients stay Laurent; its scalar
    cc / (L_outer^2 L_inner) goes over the common denominator V of all the
    pieces, the pieces are summed with polynomial weights, and the sum is
    divided by V once per term."""
    _check_addition_args(l, m, alpha, variant)
    g = xy_generators()
    minus_q = -QRat.q_power(1)
    plan, factors = [], []
    for r in range(l + 1):
        for s in range(m + 1):
            outer, inner = DiskSpec(l - r, m - s, alpha + r + s), DiskSpec(r, s, alpha - 1)
            inv_outer, outer_scaled = jacobi_scaled(outer)
            inv_inner, inner_scaled = jacobi_scaled(inner)
            cc = coupling_const(l, m, r, s, alpha)
            if variant == "final":
                cc = cc * minus_q ** (r - s)
            factors.append(cc * inv_outer * inv_outer * inv_inner)
            plan.append((r, s, outer, outer_scaled, inner, inner_scaled))
    inv_lcm, weights = common_denominator(factors)
    total = ZElement.zero(RANKS)
    for (r, s, outer, outer_scaled, inner, inner_scaled), weight in zip(plan, weights):
        left = (scaled_disk_poly(outer, outer_scaled, g.X2, g.X2s, g.Q)
                * scaled_disk_poly(inner, inner_scaled, g.X1, g.X1s, g.Qp))
        right = scaled_disk_poly(outer, outer_scaled, g.Y2, g.Y2s, g.D)
        if variant == "final":
            right = right * g.Y1 ** s * g.Y1s ** r
        else:
            right = right * g.Y1 ** r * g.Y1s ** s
        total = total + pair(left, right * weight)
    return total * inv_lcm


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
    """Expand both sides to normal form and compare exactly.

    A failure is reported, not raised: the verdict carries the residual
    terms of lhs - rhs so a discrepancy can be inspected."""
    start = time.monotonic()
    lhs = addition_lhs(l, m, alpha, variant)
    rhs = addition_rhs(l, m, alpha, variant)
    diff = lhs - rhs
    residual = diff.to_json()["terms"]
    millis = int((time.monotonic() - start) * 1000)
    return Verdict(l, m, alpha, variant, diff.is_zero(), residual,
                   lhs.term_count(), rhs.term_count(), millis)
