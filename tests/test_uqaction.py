import importlib
import itertools
import random
from pathlib import Path

import pytest

from oracle import dense_solve_linear
from qdisk import uqaction
from qdisk.qfield import ONE, QRat, ZERO, solve_linear
from qdisk.uqaction import act_e, act_f, act_qh, invariant_subspace, is_invariant
from qdisk.zalgebra import ZElement, bidegree, embed, q_element, restrict, w_gen, z_gen

qp = QRat.q_power
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def random_element(rng, rank, nterms=3, maxdeg=2):
    terms = {}
    for _ in range(nterms):
        lam = tuple(rng.randint(0, maxdeg) for _ in range(rank))
        mu = tuple(rng.randint(0, maxdeg) for _ in range(rank))
        terms[(lam, mu)] = QRat.from_int(rng.randint(-3, 3))
    return ZElement(rank, terms)


def test_action_examples():
    assert act_qh((1, 0), z_gen(1, 2)) == qp(1) * z_gen(1, 2)
    assert act_f(1, z_gen(1, 2)) == z_gen(2, 2)
    assert act_e(1, z_gen(2, 2)) == z_gen(1, 2)
    assert act_e(1, w_gen(1, 2)) == -qp(-1) * w_gen(2, 2)
    assert act_f(1, w_gen(2, 2)) == -qp(1) * w_gen(1, 2)


def test_ladder_index_validation():
    with pytest.raises(ValueError):
        act_e(2, z_gen(1, 2))
    with pytest.raises(ValueError):
        act_f(0, z_gen(1, 2))
    with pytest.raises(ValueError):
        act_qh((1, 0, 0), z_gen(1, 2))


def test_weight_composition():
    rng = random.Random(11)
    for _ in range(15):
        rank = rng.choice([2, 3])
        a = random_element(rng, rank)
        h1 = tuple(rng.randint(-2, 2) for _ in range(rank))
        h2 = tuple(rng.randint(-2, 2) for _ in range(rank))
        hsum = tuple(x + y for x, y in zip(h1, h2))
        assert act_qh(h1, act_qh(h2, a)) == act_qh(hsum, a)
        assert act_qh((0,) * rank, a) == a


def test_ladders_shift_weight_and_preserve_bidegree():
    rng = random.Random(5)
    for _ in range(20):
        rank = rng.choice([2, 3])
        k = rng.randint(1, rank - 1)
        lam = tuple(rng.randint(0, 2) for _ in range(rank))
        mu = tuple(rng.randint(0, 2) for _ in range(rank))
        x = ZElement(rank, {(lam, mu): ONE})
        wt = tuple(l - m for l, m in zip(lam, mu))
        for op, sgn in ((act_f, -1), (act_e, +1)):
            y = op(k, x)
            for (nl, nm) in y.terms:
                nwt = tuple(l - m for l, m in zip(nl, nm))
                expect = list(wt)
                expect[k - 1] += sgn
                expect[k] -= sgn
                assert nwt == tuple(expect)
                assert (sum(nl), sum(nm)) == (sum(lam), sum(mu))
            if not y.is_zero():
                assert bidegree(y) == bidegree(x)


def test_quantum_group_commutators():
    # [e_k, f_k] acts as (q^(e_k - e_{k+1}) - q^(e_{k+1} - e_k)) / (q - q^-1)
    denom = qp(1) - qp(-1)
    rng = random.Random(23)
    for rank in (2, 3):
        for k in range(1, rank):
            hplus = [0] * rank
            hplus[k - 1], hplus[k] = 1, -1
            hminus = [-x for x in hplus]
            for _ in range(8):
                a = random_element(rng, rank)
                lhs = act_e(k, act_f(k, a)) - act_f(k, act_e(k, a))
                rhs = (act_qh(hplus, a) - act_qh(hminus, a)) * denom.inverse()
                assert lhs == rhs
    # distant ladder operators commute
    for _ in range(8):
        a = random_element(rng, 3)
        assert act_e(1, act_f(2, a)) == act_f(2, act_e(1, a))


@pytest.mark.parametrize("n", [2, 3])
def test_central_ladder_is_invariant(n):
    assert is_invariant(q_element(n, n), n)
    assert is_invariant(q_element(n, n) ** 2, n)
    if n > 1:
        assert not is_invariant(z_gen(1, n), n)


def test_full_invariants_example():
    basis = invariant_subspace(1, 1, 2, 2)
    assert len(basis) == 1
    scale = next(iter(basis[0].terms.values()))
    assert basis[0] == scale * q_element(2, 2)


def test_corank_one_invariants_example():
    basis = invariant_subspace(1, 1, 3, 2)
    assert len(basis) == 2
    for b in basis:
        assert is_invariant(b, 2)


@pytest.mark.parametrize("n", [2, 3])
def test_full_invariant_dimensions(n):
    for l in range(3):
        for m in range(3):
            basis = invariant_subspace(l, m, n, n)
            if l != m:
                assert basis == []
            else:
                assert len(basis) == 1
                # spanned by Q_n^l
                target = q_element(n, n) ** l
                keys = sorted(set(basis[0].terms) | set(target.terms))
                mat = [[basis[0].terms.get(k, ZERO)] for k in keys]
                rhs = [target.terms.get(k, ZERO) for k in keys]
                assert solve_linear(mat, rhs).consistent


@pytest.mark.parametrize("n", [2, 3])
def test_corank_one_invariant_structure(n):
    for l in range(3):
        for m in range(3):
            basis = invariant_subspace(l, m, n, n - 1) if n > 1 else []
            if n == 1:
                continue
            assert len(basis) == min(l, m) + 1
            spanners = [
                z_gen(n, n) ** (l - j) * w_gen(n, n) ** (m - j) * q_element(n, n) ** j
                for j in range(min(l, m) + 1)
            ]
            for s in spanners:
                assert is_invariant(s, n - 1)
            keys = sorted({k for s in spanners for k in s.terms})
            mat = [[s.terms.get(k, ZERO) for s in spanners] for k in keys]
            sol = solve_linear(mat, [ZERO] * len(keys))
            assert sol.nullspace == []  # spanners independent, count matches


def test_corank_two_invariant_count():
    # rank-1 invariants in Z_3: only weight conditions apply
    for l in range(3):
        for m in range(3):
            expected = sum(
                1
                for j in range(min(l, m) + 1)
                for r in range(l - j + 1)
                for s in range(m - j + 1)
            )
            assert len(invariant_subspace(l, m, 3, 1)) == expected


def _dense_conditions(maps, keys, n):
    """One dense row per output monomial of each linear map on the slice."""
    rows = []
    for op in maps:
        images = [op(ZElement(n, {key: ONE})) for key in keys]
        for kk in sorted({kk for im in images for kk in im.terms}):
            rows.append([im.terms.get(kk, ZERO) for im in images])
    return rows


@pytest.mark.parametrize("l, m, n, p", [
    (4, 4, 3, 2), (2, 2, 3, 3),
    (2, 1, 3, 1),  # p = 1: no ladder rows
    (3, 2, 4, 4),  # no torus-fixed key: the answer is []
    (2, 2, 4, 4), (2, 2, 4, 2),
])
def test_invariant_subspace_matches_the_dense_oracle(l, m, n, p):
    def comps(total):
        return [c for c in itertools.product(range(total + 1), repeat=n) if sum(c) == total]

    keys = [(lam, mu) for lam in comps(l) for mu in comps(m)]
    maps = [lambda a, i=i: act_qh([int(t == i) for t in range(n)], a) - a for i in range(p)]
    maps += [lambda a, k=k, op=op: op(k, a) for k in range(1, p) for op in (act_e, act_f)]
    rows = _dense_conditions(maps, keys, n)
    want = dense_solve_linear(rows, [ZERO] * len(rows)).nullspace
    got = invariant_subspace(l, m, n, p)
    assert got == [ZElement(n, dict(zip(keys, vec))) for vec in want]
    assert [sorted(b.terms.items()) for b in got] == \
        [sorted((k, c) for k, c in zip(keys, vec) if c) for vec in want]


@pytest.mark.parametrize("l, m, n, p, dim", [
    (3, 3, 4, 4, 1), (3, 3, 4, 3, 4), (5, 5, 3, 3, 1), (4, 4, 3, 2, 5),
])
def test_invariant_dimensions_of_the_benchmark_slices(l, m, n, p, dim):
    # closed forms: 1 (resp. 0) for l == m (l != m) at p = n, min(l, m) + 1 at p = n - 1
    basis = invariant_subspace(l, m, n, p)
    assert len(basis) == dim
    assert all(is_invariant(b, p) for b in basis)


def test_ladders_see_only_torus_fixed_keys(monkeypatch):
    calls = []
    ladder = uqaction._ladder

    def counted(a, moves):
        calls.append(a)
        return ladder(a, moves)

    monkeypatch.setattr(uqaction, "_ladder", counted)
    assert len(invariant_subspace(3, 3, 4, 4)) == 1
    # 2(p - 1) ladders on the 20 keys with lam == mu, not on all 400 of the slice
    assert len(calls) == 2 * 3 * 20
    assert all(lam == mu for a in calls for lam, mu in a.terms)


@pytest.mark.parametrize("call", [
    lambda: invariant_subspace(1.5, 1, 3, 3),
    lambda: invariant_subspace(1, 1.0, 3, 3),
    lambda: invariant_subspace(1, 1, 3.0, 3),
    lambda: invariant_subspace(1, 1, 3, 2.0),
    lambda: act_e(1.5, z_gen(1, 3)),
    lambda: act_f(1.0, z_gen(1, 3)),
    lambda: is_invariant(z_gen(1, 3), 1.5),
    lambda: act_qh((1.5, 0, 0), z_gen(1, 3)),
    lambda: restrict(z_gen(1, 3), 1.5),
    lambda: embed(z_gen(1, 3), 4.0),
], ids=range(10))
def test_non_integer_arguments_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_bool_arguments_count_as_integers():
    assert invariant_subspace(True, True, 2, 2) == invariant_subspace(1, 1, 2, 2)
    assert act_e(True, z_gen(2, 2)) == z_gen(1, 2)
    assert is_invariant(q_element(2, 2), True)


def _lex_comps(total, parts):
    return sorted(c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total)


@pytest.mark.parametrize("l", range(5))
def test_rank_one_invariants_are_the_unit_vectors(l):
    # p = 1 gives no rows: one element z^lam w^mu per torus-fixed key, in key order
    basis = invariant_subspace(l, l, 4, 1)
    keys = [key for b in basis for key in b.terms]
    assert all(list(b.terms.values()) == [ONE] for b in basis)
    assert keys == sorted(set(keys))
    assert keys == [(lam, mu) for lam, mu in itertools.product(_lex_comps(l, 4), repeat=2)
                    if lam[0] == mu[0]]


@pytest.mark.parametrize("n, p", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 4)])
def test_the_key_count_is_exact_at_the_cap(monkeypatch, n, p):
    for l, m in itertools.product(range(4), repeat=2):
        size = sum(lam[:p] == mu[:p] for lam in _lex_comps(l, n) for mu in _lex_comps(m, n))
        monkeypatch.setattr(uqaction, "MAX_INVARIANT_KEYS", size)
        invariant_subspace(l, m, n, p)
        if size:
            monkeypatch.setattr(uqaction, "MAX_INVARIANT_KEYS", size - 1)
            with pytest.raises(ValueError, match="torus-fixed keys"):
                invariant_subspace(l, m, n, p)


@pytest.mark.parametrize("l, m, n, p, why", [
    (8, 8, 5, 1, "keys"),  # 53559 keys
    (16, 16, 10 ** 6, 1, "keys"),
    (2, 1, 10 ** 6, 10 ** 6 - 1, "keys"),
    (10 ** 6, 10 ** 6, 4, 1, "bidegree"),
    (10 ** 6, 10 ** 6 - 1, 4, 4, "bidegree"),
    (17, 0, 2, 1, "bidegree"),
])
def test_hostile_slices_raise_before_any_key_is_enumerated(monkeypatch, l, m, n, p, why):
    def enumerated(total, parts):
        raise AssertionError("keys enumerated")

    monkeypatch.setattr(uqaction, "_comps", enumerated)
    with pytest.raises(ValueError, match=why):
        invariant_subspace(l, m, n, p)


@pytest.mark.parametrize("l, m, n, p", [(0, 0, 5000, 1), (16, 0, 1000, 999)])
def test_huge_ranks_with_one_key_run(l, m, n, p):
    # the keys come from their count, not from all of comps(l, n), and no
    # recursion runs as deep as the rank
    (basis,) = invariant_subspace(l, m, n, p)
    assert basis.term_count() == 1


def test_every_benchmark_slice_is_admitted(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    slices = workloads.INVARIANT_CASES + workloads.INVARIANT_CASES_SMOKE
    assert len(slices) == 6
    for l, m, n, p in slices:
        assert all(is_invariant(b, p) for b in invariant_subspace(l, m, n, p))
    assert len(invariant_subspace(6, 6, 4, 1)) == 1596  # the largest slice in the tests
