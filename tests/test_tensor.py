"""Tests for the tensor-product realization and the addition formula."""

import copy
import importlib
import json
import operator
import pickle
import random
from itertools import product

import pytest

from oracle import (addition_arguments, addition_sides_termwise, packed_terms, pair_termwise, pairwise_mul,
                    rhs_per_piece, xy_generators)
from qdisk import cli, diskpoly, qfield, tensor, zalgebra
from qdisk.diskpoly import DiskSpec, disk_poly
from qdisk.haar import haar, inner
from qdisk.qfield import ONE, QRat, ZERO, LinearSolution
from qdisk.qfield import _is_qpow, _width, peak, solve_linear
from qdisk.tensor import (
    LEFT_RANK,
    VARIANTS,
    Verdict,
    addition_lhs,
    addition_rhs,
    coupling_const,
    pair,
    scaled_lhs,
    scaled_rhs,
    verify_addition,
)
from qdisk.uqaction import act_e, act_f, act_qh, is_invariant
from qdisk.zalgebra import (_MONO_CACHE, _PULL_CACHE, _WZ_CACHE, ZElement, bidegree, counit, embed,
                            q_element, restrict, star, z_gen)

Q = QRat.q_power(1)
Q2 = QRat.q_power(2)


def random_z(rng, rank, nterms=3, maxdeg=2):
    terms = {}
    for _ in range(nterms):
        lam = tuple(rng.randint(0, maxdeg) for _ in range(rank))
        mu = tuple(rng.randint(0, maxdeg) for _ in range(rank))
        terms[(lam, mu)] = QRat.from_int(rng.randint(-3, 3))
    return ZElement(rank, terms)


def random_tensor(rng, nterms=2):
    acc = ZElement.zero((3, 2))
    for _ in range(nterms):
        acc = acc + pair(random_z(rng, 3, nterms=2, maxdeg=1),
                         random_z(rng, 2, nterms=2, maxdeg=1))
    return acc


# ---------------------------------------------------------- generator images


def test_disk_pair_images_satisfy_relations():
    g = xy_generators()
    one_minus_q2 = ONE - Q2
    assert g.X1 * g.X2 == Q * (g.X2 * g.X1)
    assert g.X2s * g.X1s == Q * (g.X1s * g.X2s)
    assert g.X1s * g.X2 == Q * (g.X2 * g.X1s)
    assert g.X2s * g.X1 == Q * (g.X1 * g.X2s)
    assert g.X1s * g.X1 == Q2 * (g.X1 * g.X1s) + one_minus_q2 * (g.Q - g.X2 * g.X2s)
    assert g.X2s * g.X2 == Q2 * (g.X2 * g.X2s) + one_minus_q2 * g.Q
    for x in (g.X1, g.X2, g.X1s, g.X2s):
        assert g.Q * x == x * g.Q


def test_circle_pair_images_satisfy_relations():
    g = xy_generators()
    assert g.Y1 * g.Y2 == Q * (g.Y2 * g.Y1)
    assert g.Y2s * g.Y1s == Q * (g.Y1s * g.Y2s)
    assert g.Y1s * g.Y2 == Q * (g.Y2 * g.Y1s)
    assert g.Y2s * g.Y1 == Q * (g.Y1 * g.Y2s)
    assert g.Y1s * g.Y1 == g.Y1 * g.Y1s
    assert g.Y2s * g.Y2 == Q2 * (g.Y2 * g.Y2s) + (ONE - Q2) * g.D
    for y in (g.Y1, g.Y2, g.Y1s, g.Y2s):
        assert g.D * y == y * g.D


def test_inner_disk_center_commutes():
    # Q' = Q - X2 X2*, the central element of the inner disk pair (X1, X1*), is Q_2 in Z_3
    g = xy_generators()
    qp = g.Q - g.X2 * g.X2s
    assert qp == embed(q_element(2, 2), 3)
    for x in (g.X1, g.X1s):
        assert qp * x == x * qp


# -------------------------------------------------------- basis faithfulness


def _pbw_image(r, s, t, u, v):
    g = xy_generators()
    h = g.Q - g.X1 * g.X1s - g.X2 * g.X2s
    return g.X1 ** r * g.X2 ** s * g.X2s ** t * g.X1s ** u * h ** v


def test_pbw_images_are_distinct_monomials():
    seen = set()
    for r, s, t, u, v in product(range(3), repeat=5):
        img = _pbw_image(r, s, t, u, v)
        assert len(img.terms) == 1
        ((lam, mu), coeff), = img.terms.items()
        assert lam == (v, r, s) and mu == (v, u, t)
        assert coeff
        seen.add((lam, mu))
    assert len(seen) == 3 ** 5


def test_pbw_images_are_linearly_independent():
    images = [_pbw_image(r, s, t, u, v)
              for r, s, t, u, v in product(range(2), repeat=5)]
    keys = sorted({key for img in images for key in img.terms})
    index = {key: i for i, key in enumerate(keys)}
    matrix = [[QRat.from_int(0)] * len(images) for _ in keys]
    for j, img in enumerate(images):
        for key, c in img.terms.items():
            matrix[index[key]][j] = c
    sol = solve_linear(matrix, [QRat.from_int(0)] * len(keys))
    assert sol.consistent
    assert sol.nullspace == []


# ----------------------------------------------------------- tensor elements


def test_from_pair_is_multiplicative():
    rng = random.Random(7)
    for _ in range(10):
        a, c = random_z(rng, 3), random_z(rng, 3)
        b, d = random_z(rng, 2), random_z(rng, 2)
        lhs = pair(a, b) * pair(c, d)
        assert lhs == pair(a * c, b * d)


def test_tensor_ring_axioms():
    rng = random.Random(11)
    for _ in range(6):
        x, y, z = (random_tensor(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) - y == x
    one = ZElement.one((3, 2))
    x = random_tensor(rng)
    assert one * x == x and x * one == x
    assert x.one_like() == one
    assert (x * 0).is_zero()


def test_star_is_an_involutive_antihomomorphism():
    rng = random.Random(13)
    for _ in range(6):
        x, y = random_tensor(rng), random_tensor(rng)
        assert star(star(x)) == x
        assert star(x * y) == star(y) * star(x)
        assert star(x + y) == star(x) + star(y)


def test_star_swaps_coupled_arguments():
    g = xy_generators()
    A = pair(g.X1, g.Y1s) * (-Q) + pair(g.X2, g.Y2)
    B = pair(g.X1s, g.Y1) * (-Q) + pair(g.X2s, g.Y2s)
    C = pair(g.Q, g.D)
    assert star(A) == B
    assert star(C) == C
    for name, other in (("A", A), ("B", B)):
        assert C * other == other * C, name


def test_validation_errors():
    rng = random.Random(3)
    with pytest.raises(ValueError):
        pair(random_z(rng, 2), random_z(rng, 2))
    with pytest.raises(ValueError):
        ZElement.one((3, 2)) ** -1
    with pytest.raises(ValueError):
        coupling_const(1, 0, 2, 0, 1)
    with pytest.raises(ValueError):
        coupling_const(1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        verify_addition(1, 0, 0)
    with pytest.raises(ValueError):
        verify_addition(1, 0, 1, variant="bogus")


def test_tensor_and_rank_n_elements_do_not_mix():
    g = xy_generators()
    x = pair(g.X1, g.Y1)
    for other in (z_gen(1, 3), z_gen(1, 2)):
        for op in (operator.add, operator.sub, operator.mul, operator.eq):
            with pytest.raises(ValueError):
                op(x, other)
            with pytest.raises(ValueError):
                op(other, x)


def test_haar_rejects_tensor_elements():
    g = xy_generators()
    x = pair(g.Q, g.D)
    for call in (lambda: haar(x), lambda: inner(x, x)):
        with pytest.raises(ValueError, match="acts on Z_n"):
            call()


ZN_ONLY = {
    "bidegree": bidegree,
    "embed": lambda x: embed(x, 4),
    "restrict": lambda x: restrict(x, 1),
    "counit": counit,
    "act_qh": lambda x: act_qh([0, 1, 0], x),
    "act_e": lambda x: act_e(1, x),
    "act_f": lambda x: act_f(1, x),
    "is_invariant": lambda x: is_invariant(x, 1),
}


@pytest.mark.parametrize("name", list(ZN_ONLY))
def test_zn_only_functions_reject_tensor_elements(name):
    g = xy_generators()
    with pytest.raises(ValueError, match="acts on Z_n, not on rank"):
        ZN_ONLY[name](pair(g.X1, g.Y1))


def test_tensor_elements_print_factor_by_factor():
    g = xy_generators()
    x = pair(g.X1, g.Y1s) * (-Q) + ZElement.one((3, 2))
    assert str(x) == "-q*(z[2] (x) w[1]) + (1 (x) 1)"
    assert str(ZElement.zero((3, 2))) == "0"


# ---------------------------------------------------------------- the formula


def test_coupling_const_examples():
    assert coupling_const(1, 0, 0, 0, 1) == ONE
    assert coupling_const(1, 0, 1, 0, 1) == ONE
    assert coupling_const(0, 1, 0, 1, 1) == Q2
    # r = s = 0 term: the two norm ratios collapse to 1, leaving the prefactor.
    assert coupling_const(0, 0, 0, 0, 2) == ONE


def test_verify_addition_small_grid():
    for variant in ("final", "precursor"):
        for alpha in (1, 2):
            for l, m in product(range(2), repeat=2):
                v = verify_addition(l, m, alpha, variant)
                assert v.passed, (l, m, alpha, variant, v.residual_terms)
                assert v.residual_terms == []
                assert v.lhs_terms == v.rhs_terms
                assert v.millis >= 0


def test_verify_addition_degree_two():
    v = verify_addition(2, 1, 1)
    assert v.passed
    payload = v.to_json()
    assert payload["pass"] is True
    assert payload["l"] == 2 and payload["m"] == 1 and payload["alpha"] == 1
    assert payload["variant"] == "final"
    assert payload["residual_terms"] == []


def test_bool_arguments_give_int_fields():
    # the verdict is built from the checked spec, so bools do not reach the JSON
    payload = verify_addition(True, False, True).to_json()
    assert json.dumps(payload).startswith('{"l": 1, "m": 0, "alpha": 1, "variant": "final", "pass": true')
    assert [type(payload[k]) for k in ("l", "m", "alpha")] == [int] * 3
    assert repr(DiskSpec(True, 0, 0)) == "DiskSpec(l=1, m=0, alpha=0)"


def test_variants_do_not_mix():
    lhs = addition_lhs(1, 0, 1, "final")
    rhs = addition_rhs(1, 0, 1, "precursor")
    diff = lhs - rhs
    assert not diff.is_zero()


def test_residual_reported_on_mismatch():
    # Tamper with one side by scaling: the verdict machinery must surface it.
    lhs = addition_lhs(1, 1, 1)
    rhs = addition_rhs(1, 1, 1)
    assert (lhs - rhs).is_zero()
    bad = lhs * Q2 - rhs
    assert not bad.is_zero()
    assert all(c for c in bad.terms.values())


def test_to_json_structure():
    g = xy_generators()
    elt = pair(g.X1, g.Y1) + ZElement.one((3, 2))
    payload = elt.to_json()
    assert payload["ranks"] == [3, 2]
    assert len(payload["terms"]) == 2
    top = payload["terms"][0]
    assert top["left"]["lambda"] == [0, 1, 0]
    assert top["right"]["lambda"] == [1, 0]
    assert top["coeff"] == ONE.to_json()


@pytest.mark.parametrize("variant", ["final", "precursor"])
@pytest.mark.parametrize("l,m,alpha", [(1, 0, 1), (2, 1, 1), (1, 2, 2), (3, 3, 2)])
def test_addition_sides_equal_the_termwise_oracle(l, m, alpha, variant):
    lhs, rhs = addition_sides_termwise(l, m, alpha, variant)
    assert addition_lhs(l, m, alpha, variant).terms == lhs.terms
    assert addition_rhs(l, m, alpha, variant).terms == rhs.terms


def test_inner_factor_is_the_embedded_circle_factor():
    # (X1, X1*, Q') = (z_2, w_2, Q_2) in Z_3 is the image of (Y2, Y2*, D) in Z_2
    g = xy_generators()
    qp = g.Q - g.X2 * g.X2s
    for a, b, alpha in product(range(5), range(5), range(4)):
        spec = DiskSpec(a, b, alpha)
        assert (embed(disk_poly(spec, g.Y2, g.Y2s, g.D), 3)
                == disk_poly(spec, g.X1, g.X1s, qp)), spec


def _clear_tables():
    for table in (tensor._lhs_power, tensor._coupling, tensor._rhs_pieces, diskpoly._chain):
        table.cache_clear()


def test_warm_tables_give_the_termwise_sides_in_any_order():
    _clear_tables()
    for l, m, alpha, variant in ((2, 2, 2, "final"), (3, 2, 1, "precursor"), (2, 3, 2, "final"),
                                 (2, 2, 2, "precursor"), (3, 2, 1, "final")):
        lhs, rhs = addition_sides_termwise(l, m, alpha, variant)
        assert addition_lhs(l, m, alpha, variant).terms == lhs.terms
        assert addition_rhs(l, m, alpha, variant).terms == rhs.terms
        # a caller may mutate what it receives: no table hands out its own element
        for builder in (scaled_lhs, scaled_rhs):
            builder(l, m, alpha, variant)[1].terms.clear()
        assert verify_addition(l, m, alpha, variant).passed


def _suite_verdicts(cases) -> list:
    _clear_tables()
    return [{**cli._run_case(case), "millis": 0} for case in cases]


def test_suite_verdicts_do_not_depend_on_the_case_order():
    cases = [(l, m, alpha, variant) for alpha in (1, 2) for l in (1, 2) for m in (1, 2)
             for variant in VARIANTS]
    forward = _suite_verdicts(cases)
    assert json.dumps(_suite_verdicts(cases[::-1])[::-1]) == json.dumps(forward)
    assert all(v["pass"] for v in forward)


@pytest.mark.parametrize("variant", VARIANTS)
def test_lhs_arguments_satisfy_the_pair_relations(variant):
    # the shift-built lhs rests on these and checks none of them: C = Q (x) D commutes with A
    # and B, and D = C - A B q-commutes with them, D A = q^2 A D and D B = q^-2 B D
    A, B, C = addition_arguments(variant)
    D = C - pairwise_mul(A, B)
    assert pairwise_mul(C, A) == pairwise_mul(A, C) and pairwise_mul(C, B) == pairwise_mul(B, C)
    assert pairwise_mul(D, A) == pairwise_mul(A, D) * Q2
    assert pairwise_mul(D, B) == pairwise_mul(B, D) * QRat.q_power(-2)


def _clear_every_table():
    """Empty every `lru_cache` table and memo table of the library."""
    for name in ("qfield", "qfunc", "zalgebra", "haar", "diskpoly", "tensor", "uqaction", "cli"):
        for value in vars(importlib.import_module(f"qdisk.{name}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
            elif isinstance(value, zalgebra._Memo):
                value.clear()


def test_cold_verdicts_make_no_element_product(monkeypatch):
    # from empty tables, a verdict builds its lhs powers by key shifts and central moves: no
    # element product, by an element or a scalar, and no structure row
    products, mul, product_ = [], ZElement.__mul__, zalgebra._product
    monkeypatch.setattr(ZElement, "__mul__", lambda self, other: products.append(other) or mul(self, other))
    monkeypatch.setattr(zalgebra, "_product", lambda *args: products.append(args) or product_(*args))
    for case in ((6, 6, 2), (5, 3, 3), (2, 6, 1)):
        for variant in VARIANTS:
            _clear_every_table()
            assert verify_addition(*case, variant).passed
            assert products == [] and (len(_PULL_CACHE), len(_WZ_CACHE), len(_MONO_CACHE)) == (0, 0, 0)


def _element_powers(variant: str, top: int) -> dict:
    """{(j, k): A^j D^k for j >= 0, D^k B^-j for j < 0} by element products, |j|, k <= top."""
    A, B, C = addition_arguments(variant)
    D, one = C - pairwise_mul(A, B), ZElement.one(tensor.RANKS)
    a, b, d = [one], [one], [one]
    for _ in range(top):
        a, b, d = a + [pairwise_mul(a[-1], A)], b + [pairwise_mul(b[-1], B)], d + [pairwise_mul(d[-1], D)]
    return {(j, k): pairwise_mul(a[j], d[k]) if j >= 0 else pairwise_mul(d[k], b[-j])
            for j in range(-top, top + 1) for k in range(top + 1)}


@pytest.mark.parametrize("variant", VARIANTS)
def test_shift_built_powers_equal_the_element_products(variant):
    tensor._lhs_power.cache_clear()
    for (j, k), want in _element_powers(variant, 4).items():
        assert tensor._lhs_power(variant, j, k).terms == want.terms, (j, k)


@pytest.mark.parametrize("variant,j,widths", [
    ("final", 0, [8, 8, 8, 16, 16, 16]),
    ("final", -3, [8, 8, 8, 8, 8, 16]),
    ("precursor", 3, [8, 8, 8, 8, 8, 16]),
    ("precursor", 0, [8, 8, 8, 16, 16, 16]),
])
def test_shift_built_powers_read_back_at_their_bound(monkeypatch, variant, j, widths):
    # each power is read back once, at the width of its per-key bound: |A^j| <= 2 |A^(j-1)| (or B),
    # and |E_k| <= 10 |E_(k-1)|, as a key is reached from at most 6 keys by C = Q_3 (x) Q_2 and
    # from at most 4 by A (.) B, each a shift times +-q^e; so |E_k| <= 10^k 2^|j|
    chosen, unpacked = [], tensor._unpacked
    monkeypatch.setattr(tensor, "_unpacked", lambda acc, s, k: chosen.append(s) or unpacked(acc, s, k))
    tensor._lhs_power.cache_clear()
    top = 6 if j == 0 else 3
    tensor._lhs_power(variant, j, top)
    steps = [(i, 0) for i in range(1, abs(j) + 1)] + [(abs(j), k) for k in range(1, top + 1)]
    assert chosen == widths and len(widths) == len(steps)
    sign = 1 if j >= 0 else -1
    for (i, k), s in zip(steps, widths):
        got = peak(tensor._lhs_power(variant, sign * i, k).terms.values())
        source = peak(tensor._lhs_power(variant, sign * (i - (not k)), max(k - 1, 0)).terms.values())
        fan = 10 if k else 2
        assert s == _width((fan * source).bit_length() + 1) and got <= fan * source, (i, k)
        assert got <= 10 ** k * 2 ** i


@pytest.mark.parametrize("variant", VARIANTS)
def test_packed_rhs_equals_the_per_piece_sum(variant):
    cases = [(l, m, alpha) for l in range(5) for m in range(5) for alpha in range(1, 5)]
    for case in cases + [(6, 6, 2)]:
        assert scaled_rhs(*case, variant) == rhs_per_piece(*case, variant), case


def test_circle_shift_is_the_product_with_z1a_w1b():
    # every rank-2 key with exponents <= 3, times z_1^a w_1^b for a, b <= 3
    vecs = list(product(range(4), repeat=2))
    for lam, mu, a, b in product(vecs, vecs, range(4), range(4)):
        want = ZElement.monomial(2, lam, mu) * ZElement.monomial(2, (a, 0), (b, 0))
        assert tensor._circle_shift(ZElement.monomial(2, lam, mu), a, b) == want, (lam, mu, a, b)
    # and on the circle factors of the rhs, whose coefficients are over powers of q
    for spec in (DiskSpec(3, 1, 2), DiskSpec(2, 4, 3), DiskSpec(3, 3, 1)):
        y = diskpoly._chain(2, spec)
        for a, b in ((0, 2), (3, 1), (2, 2)):
            assert tensor._circle_shift(y, a, b) == y * ZElement.monomial(2, (a, 0), (b, 0)), (spec, a, b)


def test_weighted_pair_sum_equals_the_termwise_sum():
    # packed with Laurent weights, a piece repeated at weight 1
    g = xy_generators()
    left, right = g.Q * 2 - g.X2 * g.X1s, g.D * g.Y2 + g.Y1s * QRat.q_power(-3)
    w = (ONE - QRat.q_power(5)) * QRat.q_power(-2)
    sides = [(left, right, w), (g.X1, g.Y2s, QRat.q_power(4)), (left, right, ONE)]
    want = pair(left, right * w) + pair(g.X1, g.Y2s * QRat.q_power(4)) + pair(left, right)
    assert ZElement._of(tensor.RANKS, tensor._pair_sum(sides)) == want


@pytest.mark.parametrize("variant", VARIANTS)
def test_scaled_rhs_hands_the_pair_sum_laurent_sides_only(monkeypatch, variant):
    # `_pair_sum` packs every denominator as a power of q, so each coefficient and weight
    # it is given must be one: over the suite grid and the benchmark cases
    pair_sum, seen = tensor._pair_sum, []

    def laurent_only(sides):
        for left, right, w in sides:
            assert all(_is_qpow(c.den) for c in [*left.terms.values(), *right.terms.values(), w])
        seen.append(len(sides))
        return pair_sum(sides)

    monkeypatch.setattr(tensor, "_pair_sum", laurent_only)
    cases = [(l, m, alpha) for alpha in range(1, 5) for l in range(4) for m in range(4)]
    for case in cases + [(4, 4, 1), (5, 5, 2), (6, 6, 2)]:
        scaled_rhs(*case, variant)
    assert len(seen) == len(cases) + 3 and all(seen)


def _widths(monkeypatch) -> list:
    """From now on, each slot width `tensor._width` returns."""
    chosen, width = [], tensor._width
    monkeypatch.setattr(tensor, "_width", lambda bits: chosen.append(width(bits)) or chosen[-1])
    return chosen


def test_pair_sum_bound_adds_the_pieces_on_one_key(monkeypatch):
    # three pieces land on the key X1 (x) Y2* with one product each, 2^62 + (2^61 + 1) 2
    # + 3 q^3 2: its unit coefficient 2^63 + 2 is past 2^63, though no piece's peak
    # product is; a bound from the largest piece alone would choose s = 64 and misread it
    g, h = xy_generators(), 2 ** 61
    sides = [(g.X1 * (2 * h), g.Y2s, ONE), (g.X1 * (h + 1), g.Y2s * 2, ONE),
             (g.X1 * 3, g.Y2s * Q ** 3, QRat.from_int(2))]
    chosen = _widths(monkeypatch)
    got = ZElement._of(tensor.RANKS, tensor._pair_sum(sides))
    assert chosen == [72] and got == pair(g.X1, g.Y2s) * (2 ** 63 + 2 + 6 * Q ** 3)


def test_pair_sum_of_many_small_terms_packs_narrow(monkeypatch):
    # 35 x 15 unit terms: each key holds one product of mass 1, so 8-bit slots,
    # where the mass of the whole factors (525) asked 16
    left = ZElement(LEFT_RANK, {((i, 0, j), (0, 0, 0)): ONE for i, j in product(range(7), range(5))})
    right = ZElement(tensor.RIGHT_RANK, {((i, 0), (0, j)): ONE for i, j in product(range(5), range(3))})
    chosen = _widths(monkeypatch)
    got = ZElement._of(tensor.RANKS, tensor._pair_sum([(left, right, ONE)]))
    assert chosen == [8] and got.term_count() == 35 * 15
    assert got == pair_termwise(left, right)


def _record_products(monkeypatch) -> list:
    """From now on, (rank, whether the other factor is an element) for each `ZElement` product."""
    made, mul = [], ZElement.__mul__

    def recording(self, other):
        made.append((self.rank, isinstance(other, ZElement)))
        return mul(self, other)

    monkeypatch.setattr(ZElement, "__mul__", recording)
    return made


@pytest.mark.parametrize("variant", VARIANTS)
def test_warm_rhs_multiplies_only_the_left_pieces(monkeypatch, variant):
    # each left piece X_rs I_rs is one `diskpoly._chain` entry, kept and shared by
    # both variants; the right factors are shifted in closed form and the weights
    # applied packed, so a warm rhs makes no product at all, by an element or a
    # scalar, and neither does a case's other variant, run cold after this one
    other = VARIANTS[1 - VARIANTS.index(variant)]
    cases = [(3, 1, 2), (2, 3, 1), (4, 4, 1)]
    for case in cases:
        scaled_rhs(*case, variant)
    made = _record_products(monkeypatch)
    for case in cases:
        scaled_rhs(*case, variant)
    assert made == []
    for case in cases:
        _clear_tables()
        scaled_rhs(*case, variant)
        made.clear()
        rhs = scaled_rhs(*case, other)
        assert made == [], case
        assert rhs == rhs_per_piece(*case, other), case


def test_cold_suite_grid_makes_each_left_piece_once(monkeypatch):
    # the 128-case `qdisk suite` grid has 400 distinct (outer, inner) pieces over both
    # variants.  Cold, its rhs builds each as one two-level chain entry, from key shifts
    # and central moves, with the one-level entries of its rank-2 factors: no product at
    # all, by an element or a scalar, and no structure row.  The whole grid, lhs included
    # (its powers are key shifts and central moves too), then makes no product at all
    cases = [(l, m, alpha, variant) for alpha in range(1, 5) for l in range(4)
             for m in range(4) for variant in VARIANTS]
    plans = [tensor._rhs_pieces(*case)[0] for case in cases]
    pieces = {(outer, inner) for plan in plans for *_, outer, inner in plan}
    assert len(pieces) == 400
    levels = {spec for plan in plans for *_, outer, inner in plan for spec in (outer, inner)}

    _clear_tables()
    made = _record_products(monkeypatch)
    sizes = len(_PULL_CACHE), len(_WZ_CACHE), len(_MONO_CACHE)
    for case in cases:
        scaled_rhs(*case)
    assert made == [] and (len(_PULL_CACHE), len(_WZ_CACHE), len(_MONO_CACHE)) == sizes
    assert diskpoly._chain.cache_info().currsize == len(pieces) + len(levels)
    _clear_tables()
    assert all(cli._run_case(case)["pass"] for case in cases)
    assert made == []


# the 128-case `qdisk suite` grid, and the benchmark's addition cases in both variants
DECISION_CASES = ([(l, m, alpha, variant) for alpha in range(1, 5) for l in range(4)
                   for m in range(4) for variant in VARIANTS]
                  + [case + (variant,) for case in ((4, 4, 1), (5, 5, 2), (6, 6, 2))
                     for variant in VARIANTS])


def test_packed_decision_accepts_every_suite_and_benchmark_case():
    # a packed check that wrongly declines is overruled by the exact residual,
    # so a verdict cannot show it: the decision is asserted on its own, a W - b = 0
    # on the packed pair sum of the rhs sides, W = V / L the exact polynomial quotient.
    # The decision packs every lhs coefficient, side coefficient and weight with no
    # check: each is Laurent by construction, out of `_unpacked` or `_laurent`, or V c
    for case in DECISION_CASES:
        (inv_l, lhs), (inv_v, w, sides) = scaled_lhs(*case), tensor._rhs_sides(*case)
        assert inv_l.num == inv_v.num == (1,), case
        assert w == qfield.poly_divexact(inv_v.den, inv_l.den), case
        coeffs = [c for x, y, weight in sides for c in (*x.terms.values(), *y.terms.values(), weight)]
        assert all(_is_qpow(c.den) for c in [*coeffs, *lhs.terms.values()]), case
        assert tensor._pair_sum(sides, tensor._packed_lhs(DiskSpec(*case[:3]), case[3]), w) == {}, case


def test_zero_piece_scalar_is_one_over_l_squared():
    # the premise of W = V / L being a polynomial: the (0, 0) piece has coupling constant 1,
    # inner lcm 1 and, in the final variant, sign and q-power (-q)^0 = 1, for every admitted case
    degrees = range(diskpoly.MAX_DISK_DEGREE + 1)
    for l, m, alpha in product(degrees, degrees, range(1, tensor.MAX_ALPHA + 1)):
        assert tensor._coupling(l, m, 0, 0, alpha) == qfield.Cyclo(), (l, m, alpha)
        assert diskpoly._jacobi(DiskSpec(0, 0, alpha - 1))[0] == qfield.Cyclo(), alpha


def test_decision_bound_adds_the_lhs_term(monkeypatch):
    # on X1 (x) Y2*, the one side gives 100 / q and -d1 a gives 2 * 50 / q: the key's
    # coefficient 200 / q is at the bound 100 + 50 * 2, in 16-bit slots; a bound from the
    # products alone, or from the larger of the two terms (100 each), would choose 8 bits
    # and misread it.  a comes packed in 8-bit slots, so it is evaluated again at 16 bits
    g, q_inv = xy_generators(), QRat.q_power(-1)
    key, = pair(g.X1, g.Y2s).terms
    chosen = _widths(monkeypatch)
    got = tensor._pair_sum([(g.X1 * 100, g.Y2s * q_inv, ONE)], packed_terms({key: q_inv * -50}, 8), (2,))
    assert chosen == [16] and got == {key: q_inv * 200}


def test_decision_width_is_the_exact_lhs_peak_rule(monkeypatch):
    # the verdict's one width is width(R + peak(a) |W|), R = sum_rs |left| |right| |w| and peak(a)
    # the largest mass of one read-back lhs coefficient: 32 bits on the benchmark cases, where the
    # packed lhs is used as it stands; over the suite grid, some decisions are wider than the
    # Horner sum's width and evaluate the lhs digits again
    routes = set()
    for case in DECISION_CASES:
        (_, lhs), (_, w, sides) = scaled_lhs(*case), tensor._rhs_sides(*case)
        packed = tensor._packed_lhs(DiskSpec(*case[:3]), case[3])
        rule = sum(peak(x.terms.values()) * peak(y.terms.values()) * qfield.mass([c]) for x, y, c in sides)
        want = _width((rule + peak(lhs.terms.values()) * sum(map(abs, w))).bit_length() + 1)
        chosen, used, unpacked = _widths(monkeypatch), [], tensor._unpacked
        monkeypatch.setattr(tensor, "_unpacked", lambda acc, s, k: used.append(s) or unpacked(acc, s, k))
        assert tensor._pair_sum(sides, packed, w) == {} and chosen == used == [want], case
        monkeypatch.undo()
        routes.add(want == packed[1])
        if case[:3] in BENCH_CASES:
            assert want == packed[1] == 32, case
    assert routes == {True, False}


def test_warm_verdict_hands_its_lhs_over_packed(monkeypatch):
    # a warm pass reads no lhs coefficient back (no `_laurent` in a read-back), packs none of
    # them again (each `pack_laurent` call is one of the Horner sum's or of the rhs pair sum's),
    # takes no `peak` (each E_k and chain entry keeps its own) and builds no element of the
    # tensor rank; `_circle_shift` still makes each right factor's Laurent coefficients
    case = (6, 6, 2)
    assert verify_addition(*case).passed
    coefs, es = diskpoly._jacobi(DiskSpec(*case))[2], [tensor._lhs_power("final", 0, k) for k in range(7)]
    sides = tensor._rhs_sides(*case, "final")[2]
    laurents, packs, peaks, built = [], [], [], []
    read_back, pack_laurent, of = zalgebra._laurent, qfield.pack_laurent, ZElement._of
    monkeypatch.setattr(zalgebra, "_laurent", lambda *args: laurents.append(args) or read_back(*args))
    for module in (diskpoly, tensor):
        monkeypatch.setattr(module, "pack_laurent", lambda cs, s: packs.append(len(cs)) or pack_laurent(cs, s))
    for module in (zalgebra, diskpoly, tensor):
        monkeypatch.setattr(module, "peak", lambda cs: peaks.append(cs) or qfield.peak(cs))
    monkeypatch.setattr(ZElement, "_of", staticmethod(
        lambda rank, *args: built.append(rank) or of(rank, *args)))
    verdict = verify_addition(*case)
    assert verdict.passed and verdict.lhs_terms == BENCH_CASES[case]
    sizes = [len(x.terms) for x in es] + [1] * len(coefs)
    sizes += [sum(len(side[i].terms) for side in sides) for i in (0, 1)] + [len(sides)]
    assert laurents == [] and sorted(packs) == sorted(sizes) and peaks == []
    assert tensor.RANKS not in built


def _read_backs(monkeypatch) -> list:
    """From now on, (key count, nonzero count) of each packed sum `tensor._unpacked` is given."""
    seen, unpacked = [], tensor._unpacked

    def recording(acc, s, k):
        seen.append((len(acc), sum(1 for v in acc.values() if v)))
        return unpacked(acc, s, k)

    monkeypatch.setattr(tensor, "_unpacked", recording)
    return seen


BENCH_CASES = {(4, 4, 1): 205, (5, 5, 2): 406, (6, 6, 2): 728}


@pytest.mark.parametrize("variant", VARIANTS)
def test_passing_verdicts_read_back_no_rhs_key(monkeypatch, variant):
    # the verdict's one pair sum starts at -a W on the keys of a and ends at 0 on each
    # of them: no rhs coefficient is read back, and the rhs has the lhs's keys
    seen = _read_backs(monkeypatch)
    for case, terms in BENCH_CASES.items():
        verdict = verify_addition(*case, variant)
        assert verdict.passed and verdict.lhs_terms == verdict.rhs_terms == terms, case
    assert seen == [(terms, 0) for terms in BENCH_CASES.values()]


@pytest.mark.parametrize("variant", VARIANTS)
def test_packed_products_multiply_no_zero_low_slot(monkeypatch, variant):
    # `qfield.pack_laurent` packs each value at its own power of q, and the verdict's pair sum
    # and the lhs's packed Horner sum shift the products, not the operands: no operand of
    # their products starts with a zero slot, so no padding is multiplied
    assert verify_addition(6, 6, 2, variant).passed  # the chains built, before any recording
    seen = []

    class Packed(int):
        """A packed value at slot width s: its products are recorded, its shifts stay packed."""

        def __mul__(self, other):
            seen.append((self.s, int(self), int(other)))
            return int(self) * int(other)

        __rmul__ = __mul__

        def __lshift__(self, n):
            return packed(int(self) << n, self.s)

    def packed(x, s):
        value = Packed(x)
        value.s = s
        return value

    def recording(cs, s):
        k, values, offsets = qfield.pack_laurent(cs, s)
        return k, [packed(x, s) for x in values], offsets

    monkeypatch.setattr(tensor, "pack_laurent", recording)
    monkeypatch.setattr(diskpoly, "pack_laurent", recording)
    assert verify_addition(6, 6, 2, variant).passed
    assert len(seen) > 1000
    assert all(x % (1 << s) and y % (1 << s) for s, x, y in seen)


def _plant_rhs(monkeypatch, case, edit):
    """edit(terms) on V rhs of case, planted where the verdict reads the rhs: each key
    the edit changes becomes one more side (x, y, c), x (x) y the key and c the change
    on it.  The edited V rhs."""
    inv, w, sides = tensor._rhs_sides(*case)
    rhs = scaled_rhs(*case)[1]
    edited = rhs._like(dict(rhs.terms))
    edit(edited.terms)
    extra = [(ZElement.monomial(LEFT_RANK, *kx), ZElement.monomial(tensor.RIGHT_RANK, *ky), c)
             for (kx, ky), c in (edited - rhs).terms.items()]
    monkeypatch.setattr(tensor, "_rhs_sides", lambda *args: (inv, w, sides + extra))
    return edited


# the residual of verify_addition(2, 1, 1) with its top rhs coefficient times q^2
PLANTED_RESIDUAL = (
    '[{"left": {"lambda": [0, 0, 2], "mu": [0, 1, 0]}, "right": {"lambda": [1, 2], "mu": [0, 0]}, '
    '"coeff": {"num": [-1, 0, 1, 0, -1, 0, 1], "den": [0, 1]}}]')


def test_planted_error_reports_its_residual(monkeypatch):
    # the top coefficient c of V rhs times q^2: one more side, of weight c (q^2 - 1)
    _plant_rhs(monkeypatch, (2, 1, 1, "final"), _times_q2(0))
    verdict = verify_addition(2, 1, 1)
    assert not verdict.passed and (verdict.lhs_terms, verdict.rhs_terms) == (14, 14)
    assert json.dumps(verdict.to_json()["residual_terms"]) == PLANTED_RESIDUAL


def test_warm_verification_computes_no_scalar_gcd(monkeypatch):
    # the rhs scalars of a case are memoized, in tuples no caller can mutate
    assert verify_addition(3, 2, 1).passed
    plan, _, w, weights = tensor._rhs_pieces(3, 2, 1, "final")
    assert type(plan) is tuple and type(weights) is tuple and len(plan) == len(weights) == 12
    assert type(w) is tuple
    calls, gcd = [], qfield._gcd_cofactors
    monkeypatch.setattr(qfield, "_gcd_cofactors", lambda a, b: calls.append(a) or gcd(a, b))
    assert verify_addition(3, 2, 1).passed and calls == []


def test_cold_verification_computes_no_scalar_gcd(monkeypatch):
    # every rhs and Jacobi scalar is built in cyclotomic-factored form and
    # converted once, so even a cold case divides no polynomials by a gcd
    from qdisk import haar
    calls = []
    for name in ("_gcd_cofactors", "poly_gcd"):
        monkeypatch.setattr(qfield, name, lambda *args, f=getattr(qfield, name): calls.append(args) or f(*args))
    for case in ((3, 2, 1, "final"), (2, 3, 2, "precursor")):
        for table in (tensor._lhs_power, diskpoly._chain, tensor._rhs_pieces,
                      tensor._coupling, diskpoly._jacobi, haar._norm, qfield._qpoch, qfield._divisors,
                      qfield._mobius):
            table.cache_clear()
        assert verify_addition(*case).passed and calls == []


def _times_q2(index):
    def edit(terms):
        key, c = ZElement((3, 2), terms).sorted_terms()[index]
        terms[key] = c * Q2
    return edit


def _over_q(terms):
    key, c = ZElement((3, 2), terms).sorted_terms()[1]
    terms[key] = c / Q


def _times_one_minus_q(terms):
    key, c = ZElement((3, 2), terms).sorted_terms()[1]
    terms[key] = c * (ONE - Q)


def _drop_top(terms):
    del terms[ZElement((3, 2), terms).sorted_terms()[0][0]]


def _new_key():
    """A key of neither side: X1^3 (x) Y1^3 has the wrong bidegree."""
    g = xy_generators()
    key, = pair(g.X1 ** 3, g.Y1 ** 3).terms
    return key


def _add_key(terms):
    terms[_new_key()] = ONE


def _move_top(terms):
    key, c = ZElement((3, 2), terms).sorted_terms()[0]
    del terms[key]
    terms[_new_key()] = c


# (side, edit, variant): one planted error each, on a scaled side of the formula
PLANTS = {
    "lhs top times q^2": ("lhs", _times_q2(0), "final"),
    "lhs bottom times q^2": ("lhs", _times_q2(-1), "final"),
    "rhs non-top times q^2": ("rhs", _times_q2(1), "final"),
    "key on the lhs only": ("rhs", _drop_top, "final"),
    "key on the rhs only": ("rhs", _add_key, "final"),
    "top key moved on the rhs": ("rhs", _move_top, "final"),
    "rhs non-top over q": ("rhs", _over_q, "final"),
    "lhs non-top times 1 - q": ("lhs", _times_one_minus_q, "final"),
    "precursor rhs top times q^2": ("rhs", _times_q2(0), "precursor"),
    "precursor lhs non-top times q^2": ("lhs", _times_q2(2), "precursor"),
}


@pytest.mark.parametrize("plant", list(PLANTS))
@pytest.mark.parametrize("l,m,alpha", [(2, 1, 1), (2, 2, 2)])
def test_planted_errors_report_the_division_residual(monkeypatch, plant, l, m, alpha):
    side, edit, variant = PLANTS[plant]
    case = (l, m, alpha, variant)
    (inv_l, lhs), (inv_v, rhs) = scaled_lhs(*case), scaled_rhs(*case)
    if side == "lhs":  # planted where the verdict reads the lhs, packed at its own width
        edit(lhs.terms)
        packed = packed_terms(lhs.terms, _width(peak(lhs.terms.values()).bit_length() + 1))
        monkeypatch.setattr(tensor, "_packed_lhs", lambda *args: packed)
    else:
        rhs = _plant_rhs(monkeypatch, case, edit)
    # the division route: divide both sides, subtract and report every term
    diff = lhs * inv_l - rhs * inv_v
    want = Verdict(l, m, alpha, variant, False, diff.to_json()["terms"],
                   lhs.term_count(), rhs.term_count(), 0).to_json()
    got = verify_addition(l, m, alpha, variant).to_json()
    assert not diff.is_zero() and {**got, "millis": 0} == want


@pytest.mark.parametrize("factor", [(3,), (0, 0, 1), (1,) + (0,) * 6 + (1,), (-1,)], ids=range(4))
def test_planted_scalar_change_fails_the_verdict(monkeypatch, factor):
    # W = V / L is the one scalar the decision reads, with the rhs sides, from `_rhs_sides`:
    # W times a polynomial other than 1 fails
    rhs_sides = tensor._rhs_sides

    def planted(*args):
        inv, w, sides = rhs_sides(*args)
        return inv, qfield.poly_mul(w, factor), sides

    monkeypatch.setattr(tensor, "_rhs_sides", planted)
    for case in ((2, 1, 1), (4, 4, 1)):
        verdict = verify_addition(*case)
        assert not verdict.passed and verdict.residual_terms, case


def test_passing_decision_never_divides_an_element(monkeypatch):
    # the decision on cleared denominators scales no element by a quotient
    # over a denominator other than a power of q; only scalars are divided
    times = ZElement.__mul__

    def laurent_scalars_only(self, other):
        assert not isinstance(other, QRat) or _is_qpow(other.den)
        return times(self, other)

    monkeypatch.setattr(ZElement, "__mul__", laurent_scalars_only)
    assert verify_addition(3, 2, 1).passed and verify_addition(2, 3, 2, "precursor").passed
    with pytest.raises(AssertionError):
        addition_lhs(1, 1, 1)


VERDICT_FIELDS = dict(l=2, m=1, alpha=1, variant="final", passed=False,
                      residual_terms=[{"coeff": "q"}], lhs_terms=7, rhs_terms=6, millis=3)
RECORDS = [
    DiskSpec(2, 1, 3),
    DiskSpec(l=0, m=4, alpha=5),
    LinearSolution(consistent=True, particular=[ONE, Q2], nullspace=[[ZERO, Q]]),
    LinearSolution(False, None, []),
    Verdict(**VERDICT_FIELDS),
]


@pytest.mark.parametrize("record", RECORDS, ids=repr)
def test_records_survive_pickle_and_copy(record):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == repr(record)


def test_records_take_fields_by_position_or_name():
    assert Verdict(*VERDICT_FIELDS.values()) == Verdict(**VERDICT_FIELDS)
    assert Verdict(2, 1, 1, "final", **{k: VERDICT_FIELDS[k] for k in list(VERDICT_FIELDS)[4:]}) \
        == Verdict(**VERDICT_FIELDS)
    for bad in ({k: v for k, v in VERDICT_FIELDS.items() if k != "alpha"},
                {**VERDICT_FIELDS, "extra": 1}):
        with pytest.raises(TypeError):
            Verdict(**bad)
    with pytest.raises(TypeError):
        Verdict(2, l=2, **{k: v for k, v in VERDICT_FIELDS.items() if k != "l"})
    spec = DiskSpec(1, 2, 3)
    assert hash(pickle.loads(pickle.dumps(spec))) == hash(spec)
    with pytest.raises(AttributeError):
        copy.copy(spec).l = 5
    with pytest.raises(ValueError):
        DiskSpec(l=-1, m=0, alpha=0)
    verdict = copy.copy(Verdict(**VERDICT_FIELDS))
    verdict.passed = True
    assert verdict.passed
