"""Tests for the tensor-product realization and the addition formula."""

import copy
import json
import operator
import pickle
import random
from itertools import product

import pytest

from oracle import addition_sides_termwise
from qdisk import cli, qfield, tensor
from qdisk.diskpoly import DiskSpec, scaled_disk_poly
from qdisk.haar import haar, inner
from qdisk.qfield import ONE, QRat, ZERO, LinearSolution
from qdisk.qfield import _is_qpow, solve_linear
from qdisk.tensor import (
    VARIANTS,
    Verdict,
    addition_lhs,
    addition_rhs,
    coupling_const,
    pair,
    scaled_lhs,
    scaled_rhs,
    verify_addition,
    xy_generators,
)
from qdisk.uqaction import act_e, act_f, act_qh, is_invariant
from qdisk.zalgebra import ZElement, bidegree, counit, embed, restrict, star, z_gen

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
    g = xy_generators()
    assert g.Qp == g.Q - g.X2 * g.X2s
    for x in (g.X1, g.X1s):
        assert g.Qp * x == x * g.Qp


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
    for a, b, alpha in product(range(5), range(5), range(4)):
        spec = DiskSpec(a, b, alpha)
        assert (embed(scaled_disk_poly(spec, g.Y2, g.Y2s, g.D), 3)
                == scaled_disk_poly(spec, g.X1, g.X1s, g.Qp)), spec


def _clear_tables():
    for table in (tensor._args, tensor._factor, coupling_const):
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


def test_lhs_arguments_are_checked_once_per_variant(monkeypatch):
    # the commutation check multiplies C = Q (x) D on the left of A and of B;
    # nothing else in a verification does
    g = xy_generators()
    c = pair(g.Q, g.D)
    times, lefts = ZElement.__mul__, []

    def counting(self, other):
        if isinstance(other, ZElement) and self.rank == c.rank and self.terms == c.terms:
            lefts.append(other)
        return times(self, other)

    tensor._args.cache_clear()
    monkeypatch.setattr(ZElement, "__mul__", counting)
    assert verify_addition(2, 1, 1).passed and verify_addition(1, 2, 2).passed
    assert len(lefts) == 2
    assert verify_addition(2, 2, 1, "precursor").passed
    assert verify_addition(1, 1, 1, "precursor").passed
    assert len(lefts) == 4


# the residual of verify_addition(2, 1, 1) with its top rhs coefficient times q^2
PLANTED_RESIDUAL = (
    '[{"left": {"lambda": [0, 0, 2], "mu": [0, 1, 0]}, "right": {"lambda": [1, 2], "mu": [0, 0]}, '
    '"coeff": {"num": [-1, 0, 1, 0, -1, 0, 1], "den": [0, 1]}}]')


def test_planted_error_reports_its_residual(monkeypatch):
    def planted(*args):
        inv, rhs = scaled_rhs(*args)
        key, c = rhs.sorted_terms()[0]
        rhs.terms[key] = c * Q2
        return inv, rhs

    monkeypatch.setattr("qdisk.tensor.scaled_rhs", planted)
    verdict = verify_addition(2, 1, 1)
    assert not verdict.passed and (verdict.lhs_terms, verdict.rhs_terms) == (14, 14)
    assert json.dumps(verdict.to_json()["residual_terms"]) == PLANTED_RESIDUAL


def test_warm_verification_computes_no_scalar_gcd(monkeypatch):
    # the rhs scalars of a case are memoized, in tuples no caller can mutate
    assert verify_addition(3, 2, 1).passed
    plan, _, weights = tensor._rhs_pieces(3, 2, 1, "final")
    assert type(plan) is tuple and type(weights) is tuple and len(plan) == len(weights) == 12
    calls, gcd = [], qfield._gcd_cofactors
    monkeypatch.setattr(qfield, "_gcd_cofactors", lambda a, b: calls.append(a) or gcd(a, b))
    assert verify_addition(3, 2, 1).passed and calls == []


def _times_q2(index):
    def edit(terms):
        key, c = ZElement((3, 2), terms).sorted_terms()[index]
        terms[key] = c * Q2
    return edit


def _over_one_minus_q(terms):
    key, c = ZElement((3, 2), terms).sorted_terms()[1]
    terms[key] = c / (ONE - Q)


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
    "lhs top times q^2": ("scaled_lhs", _times_q2(0), "final"),
    "lhs bottom times q^2": ("scaled_lhs", _times_q2(-1), "final"),
    "rhs non-top times q^2": ("scaled_rhs", _times_q2(1), "final"),
    "key on the lhs only": ("scaled_rhs", _drop_top, "final"),
    "key on the rhs only": ("scaled_rhs", _add_key, "final"),
    "top key moved on the rhs": ("scaled_rhs", _move_top, "final"),
    "rhs non-top over 1 - q": ("scaled_rhs", _over_one_minus_q, "final"),
    "precursor rhs top times q^2": ("scaled_rhs", _times_q2(0), "precursor"),
    "precursor lhs non-top times q^2": ("scaled_lhs", _times_q2(2), "precursor"),
}


@pytest.mark.parametrize("plant", list(PLANTS))
@pytest.mark.parametrize("l,m,alpha", [(2, 1, 1), (2, 2, 2)])
def test_planted_errors_report_the_division_residual(monkeypatch, plant, l, m, alpha):
    name, edit, variant = PLANTS[plant]
    builder = getattr(tensor, name)

    def planted(*args):
        inv, side = builder(*args)
        edit(side.terms)
        return inv, side

    monkeypatch.setattr(tensor, name, planted)
    # the division route: divide both sides, subtract and report every term
    lhs, rhs = addition_lhs(l, m, alpha, variant), addition_rhs(l, m, alpha, variant)
    diff = lhs - rhs
    want = Verdict(l, m, alpha, variant, False, diff.to_json()["terms"],
                   lhs.term_count(), rhs.term_count(), 0).to_json()
    got = verify_addition(l, m, alpha, variant).to_json()
    assert not diff.is_zero() and {**got, "millis": 0} == want


def test_non_laurent_sides_are_decided_by_the_residual(monkeypatch):
    # the same rhs, divided by 1 - q with its 1/V times 1 - q: the packed
    # check declines a non-Laurent side, and the exact residual passes it
    def planted(*args):
        inv, rhs = scaled_rhs(*args)
        return inv * (ONE - Q), rhs * (ONE / (ONE - Q))

    monkeypatch.setattr(tensor, "scaled_rhs", planted)
    verdict = verify_addition(2, 1, 1)
    assert verdict.passed and verdict.residual_terms == []


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
    DiskSpec(l=0, m=4, alpha=0, base_exp=4),
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
