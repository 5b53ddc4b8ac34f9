import itertools
from functools import cache

import pytest

from oracle import (addition_arguments, chain_product, code, disk_poly_termwise, horner_stepwise, mass,
                    pairwise_mul, peak, q_form, t_form, xy_generators)
from qdisk import diskpoly, tensor
from qdisk.diskpoly import DiskSpec, _scaled, assoc_spherical, disk_poly, jacobi_scaled, spherical
from qdisk.haar import inner, norm_const
from qdisk.qfield import ONE, QRat, ZERO, _read, _split, _width, qpoch
from qdisk.tensor import VARIANTS, coupling_const, verify_addition
from qdisk.uqaction import is_invariant
from qdisk.zalgebra import (_MONO_CACHE, _PULL_CACHE, _WZ_CACHE, ZElement, bidegree, counit, embed,
                            q_element, star, w_gen, z_gen)

qp = QRat.q_power


@cache
def _rank_args(n: int) -> tuple:
    """The arguments (z_n, w_n, Q_n) of Z_n, one tuple per rank, kept across these tests."""
    return z_gen(n, n), w_gen(n, n), q_element(n, n)


def _packed_horner(coefs: tuple, es: list, C: ZElement) -> ZElement:
    """H = sum_k coef_k C^(mm-k) E_k over es by the packed Horner sum `diskpoly._horner_sum`, read
    back, with C = Q_n by its moves."""
    xs = list(map(t_form, es))
    packed = diskpoly._horner_sum(tuple(map(_split, coefs)), [x.peak for x in xs], len(C.terms),
                                  lambda s: ((0, *diskpoly._packed(x, s)) for x in xs))
    return q_form(_read(*packed), C.rank)


def _record_products(monkeypatch) -> list:
    """From now on, (rank, whether the other factor is an element) for each `ZElement` product."""
    made, mul = [], ZElement.__mul__

    def recording(self, other):
        made.append((self.rank, isinstance(other, ZElement)))
        return mul(self, other)

    monkeypatch.setattr(ZElement, "__mul__", recording)
    return made


def _table_sizes() -> tuple:
    """The sizes of the structure-row tables."""
    return len(_PULL_CACHE), len(_WZ_CACHE), len(_MONO_CACHE)


def test_one_one_expansion():
    # R_{1,1}^(alpha)(z_n, w_n, Q_n) = Q_n + coef_1 q^2 Q_{n-1}
    for n, alpha in ((2, 0), (3, 1)):
        coef1 = (qpoch(-2, 2, 1) * qpoch(2 * (alpha + 2), 2, 1)
                 / (qpoch(2 * (alpha + 1), 2, 1) * qpoch(2, 2, 1))) * qp(2)
        expected = q_element(n, n) + coef1 * q_element(n - 1, n)
        assert spherical(1, 1, n) == expected


def test_degenerate_cases():
    assert spherical(0, 0, 3) == ZElement.one(3)
    assert spherical(1, 0, 3) == z_gen(3, 3)
    assert spherical(0, 2, 2) == w_gen(2, 2) ** 2


def test_commutation_precondition():
    spec = DiskSpec(1, 1, 0)
    with pytest.raises(ValueError, match="commute with A"):
        disk_poly(spec, z_gen(2, 2), w_gen(2, 2), q_element(1, 2))
    with pytest.raises(ValueError, match="commute with B"):
        disk_poly(spec, q_element(2, 2), z_gen(2, 2), q_element(1, 2))


def test_spec_validation():
    with pytest.raises(ValueError):
        DiskSpec(-1, 0, 0)
    with pytest.raises(ValueError):
        DiskSpec(0, 0, -1)
    with pytest.raises(ValueError):
        spherical(1, 1, 1)
    # the named tuple's own constructors check too
    spec = DiskSpec(1, 2, 3)
    assert spec._replace(m=4) == DiskSpec(1, 4, 3) and DiskSpec._make((0, 1, 2)) == DiskSpec(0, 1, 2)
    with pytest.raises(ValueError):
        spec._replace(alpha=-1)
    with pytest.raises(ValueError):
        DiskSpec._make((0, -1, 2))
    # bools are integers, as for ranks
    assert DiskSpec(True, 0, 0) == DiskSpec(1, 0, 0) and z_gen(True, 2) == z_gen(1, 2)


@pytest.mark.parametrize("call", [
    lambda: z_gen(1.5, 3),
    lambda: w_gen(2.0, 3),
    lambda: ZElement.monomial(2, (1.0, 0), (0, 0)),
    lambda: DiskSpec(1, 1.0, 0),
    lambda: spherical(1.5, 1, 3),
    lambda: assoc_spherical(2, 2, 1.0, 1, 3),
    lambda: verify_addition(1.5, 1, 1),
    lambda: verify_addition(1, 1, 1.5),
    lambda: norm_const(1.5, 1, 1),
    lambda: norm_const(1.0, 1, 1),
    lambda: coupling_const(2, 2, 1.0, 1, 1),
], ids=range(11))
def test_non_integer_arguments_raise_value_error(call):
    # a float equal to an int must not be answered from the int's table entry
    assert norm_const(1, 1, 1) and coupling_const(2, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        call()


def test_sphere_memo_equals_the_disk_poly_route():
    for n in range(2, 6):
        for l in range(4):
            for m in range(4):
                spec = DiskSpec(l, m, n - 2)
                assert spherical(l, m, n) == disk_poly(spec, z_gen(n, n), w_gen(n, n), q_element(n, n))
                if n < 3:
                    continue
                for r in range(l + 1):
                    for s in range(m + 1):
                        outer = disk_poly(DiskSpec(l - r, m - s, n - 2 + r + s),
                                          z_gen(n, n), w_gen(n, n), q_element(n, n))
                        inner = disk_poly(DiskSpec(r, s, n - 3),
                                          z_gen(n - 1, n), w_gen(n - 1, n), q_element(n - 1, n))
                        assert assoc_spherical(l, m, r, s, n) == outer * inner, (l, m, r, s, n)


def test_sphere_memo_hands_out_no_cached_element():
    want, want_assoc = spherical(2, 2, 3), assoc_spherical(2, 2, 1, 1, 3)
    spherical(2, 2, 3).terms.clear()
    assoc_spherical(2, 2, 1, 1, 3).terms.clear()
    assert spherical(2, 2, 3) == want and want.terms
    assert assoc_spherical(2, 2, 1, 1, 3) == want_assoc and want_assoc.terms


def test_cold_norms_grid_makes_no_element_product(monkeypatch):
    # the cold norms grid (n = 3, l, m <= 5) multiplies no two elements (only each result
    # by its scalar 1/L) and adds no structure row
    diskpoly._chain.cache_clear()
    sizes, made = _table_sizes(), _record_products(monkeypatch)
    for l in range(6):
        for m in range(6):
            spherical(l, m, 3)
    assert made == [(3, False)] * 36 and _table_sizes() == sizes


def test_cold_associated_elements_make_no_element_product(monkeypatch):
    # every (r, s) for n = 3, 4 and l, m <= 3: the two-level chains too are key shifts and
    # central moves, with one scalar product per element and no structure row
    cases = [(l, m, r, s, n) for n in (3, 4) for l in range(4) for m in range(4)
             for r in range(l + 1) for s in range(m + 1)]
    diskpoly._chain.cache_clear()
    sizes, made = _table_sizes(), _record_products(monkeypatch)
    for case in cases:
        assoc_spherical(*case)
    assert made == [(n, False) for *_, n in cases] and _table_sizes() == sizes


@pytest.mark.parametrize("n", [2, 3])
def test_bidegree_counit_star(n):
    for l in range(3):
        for m in range(3):
            ph = spherical(l, m, n)
            assert bidegree(ph) == (l, m)
            assert counit(ph) == ONE
            assert star(ph) == spherical(m, l, n)


@pytest.mark.parametrize("n", [2, 3])
def test_spherical_invariance(n):
    for l in range(3):
        for m in range(3):
            assert is_invariant(spherical(l, m, n), n - 1)


@pytest.mark.parametrize("n", [2, 3])
def test_norms_and_orthogonality(n):
    sph = {(l, m): spherical(l, m, n) for l in range(3) for m in range(3)}
    for (l, m), a in sph.items():
        for (l2, m2), b in sph.items():
            v = inner(a, b)
            if (l, m) == (l2, m2):
                assert v == norm_const(l, m, n - 2), (n, l, m)
            else:
                assert v == ZERO, (n, l, m, l2, m2)


def test_assoc_reduces_to_spherical():
    for n in (3, 4):
        for l in range(2):
            for m in range(2):
                assert assoc_spherical(l, m, 0, 0, n) == spherical(l, m, n)
    with pytest.raises(ValueError):
        assoc_spherical(1, 1, 2, 0, 3)
    with pytest.raises(ValueError):
        assoc_spherical(1, 1, 0, 0, 2)


def test_assoc_inner_products_rank_three():
    n, alpha = 3, 1
    tuples = [(l, m, r, s)
              for l in range(3) for m in range(3)
              for r in range(l + 1) for s in range(m + 1)]
    elems = {t: assoc_spherical(*t, n) for t in tuples}
    for t1 in tuples:
        for t2 in tuples:
            v = inner(elems[t1], elems[t2])
            if t1 != t2:
                assert v == ZERO, (t1, t2)
            else:
                l, m, r, s = t1
                expect = ((ONE - qp(2 * (alpha + 1))) / (ONE - qp(2 * (alpha + r + s + 1)))
                          * norm_const(l - r, m - s, alpha + r + s)
                          * norm_const(r, s, alpha - 1))
                assert v == expect, t1


@pytest.mark.parametrize("l,m,alpha", [(0, 0, 1), (3, 1, 1), (1, 3, 2), (2, 2, 0), (3, 3, 2)])
def test_disk_poly_equals_the_termwise_sum(l, m, alpha):
    # Laurent arguments, and arguments with (1 - q^k) coefficients (Q_3 is central)
    x, y, c = z_gen(3, 3), w_gen(3, 3), q_element(3, 3)
    f = (ONE - qp(2)) / (ONE - qp(4))
    for A, B, C in ((x, y, c), (x * f + z_gen(2, 3) * qp(-1), y * f, c * f)):
        assert disk_poly(DiskSpec(l, m, alpha), A, B, C) == disk_poly_termwise(l, m, alpha, A, B, C)


# the suite grid and the benchmark's addition cases, as specs of the lhs
ADDITION_SPECS = ([DiskSpec(l, m, alpha) for alpha in range(1, 5) for l in range(4) for m in range(4)]
                  + [DiskSpec(4, 4, 1), DiskSpec(5, 5, 2), DiskSpec(6, 6, 2)])


@pytest.mark.parametrize("variant", VARIANTS)
def test_packed_horner_equals_the_stepwise_horner_on_the_addition_bundles(variant):
    # the published arguments, and the shift-built lhs against them
    args = addition_arguments(variant)
    for spec in ADDITION_SPECS:
        want = horner_stepwise(spec, *args)
        assert _scaled(spec, *args) == want, spec
        assert tensor.scaled_lhs(*spec, variant)[1] == want, spec


@pytest.mark.parametrize("n", range(1, 6))
def test_packed_horner_equals_the_stepwise_horner_on_the_rank_bundles(n):
    # mm = 0 included
    args = _rank_args(n)
    for l in range(5):
        for m in range(5):
            for alpha in sorted({0, max(n - 2, 0), n + 1}):
                spec = DiskSpec(l, m, alpha)
                assert _scaled(spec, *args) == horner_stepwise(spec, *args), spec


def test_non_laurent_argument_takes_the_qrat_horner():
    # C = Q_3 / (1 - q^2) is central, so it commutes
    x, y, c = z_gen(3, 3), w_gen(3, 3), q_element(3, 3) * (ONE / (ONE - qp(2)))
    spec = DiskSpec(4, 3, 1)
    assert disk_poly(spec, x, y, c) == disk_poly_termwise(4, 3, 1, x, y, c)


@pytest.mark.parametrize("c,s", [(2 ** 62 - 15, 64), (2 ** 62 + 1, 72)])
def test_packed_horner_at_the_bound(c, s):
    # C = Q_n is central, so it commutes with B = -P, P = c + z_1 + .. + z_1^j.
    # With A = 1, D = Q_n + P, and the sum H = C + 2 D = 3 Q_n + 2 P (coefficients
    # 1, 2) has mass 3n + 2 (c + j) = |C| + 2 |D|, a bound over the whole sum;
    # j = (29 - 3n) / 2 makes it 2c + 29 for every n.  At s = 64 that mass is
    # 2^63 - 1; at s = 72 the unit coefficient 2c is past 2^63, so a bound short
    # of it would choose s = 64 and misread it
    for n in (1, 3, 5):
        P = ZElement(n, {((i,) + (0,) * (n - 1), (0,) * n): c if i == 0 else 1
                         for i in range((29 - 3 * n) // 2 + 1)})
        one, C = ZElement.one(n), q_element(n, n)
        es = [one, C + P]  # E_0 = 1 and E_1 = D
        bound = n + 2 * (n + mass(P.terms.values()))
        assert bound == 2 * c + 29 and _width(bound.bit_length() + 1) == s
        assert bound == 2 ** 63 - 1 if s == 64 else 2 * c > 2 ** 63
        H = _packed_horner((ONE, QRat.from_int(2)), es, C)
        assert H.coefficient((0,) * n, (0,) * n) == 2 * c
        assert H == C * 3 + P * 2 and _packed_horner((-ONE, ONE), es, C) == P


def test_packed_horner_bound_counts_the_mass_of_c():
    # H = x C^3 (coefficients x, 0, 0, 0) for C = Q_3 and A = B = 1: Q_3^3 has
    # the coefficient 1 + 2 q^-2 + 2 q^-4 + q^-6 at z_1 z_2 z_3 w_3 w_2 w_1, so H
    # has a coefficient 2 x = 2^63 + 2.  A bound without the factor |C| = 3 would
    # be x < 2^63 and choose s = 64, whose symmetric digits stop at 2^63
    x, C, one = 2 ** 62 + 1, q_element(3, 3), ZElement.one(3)
    H = _packed_horner((QRat.from_int(x), ZERO, ZERO, ZERO), [(C - one) ** k for k in range(4)], C)
    assert max(abs(n) for c in H.terms.values() for n in c.num) == 2 ** 63 + 2
    assert _width(x.bit_length() + 1) == 64 and H == pairwise_mul(pairwise_mul(C, C), C) * x


def _widths(monkeypatch, module) -> list:
    """From now on, each slot width the module's `_width` returns."""
    chosen, width = [], module._width
    monkeypatch.setattr(module, "_width", lambda bits: chosen.append(width(bits)) or chosen[-1])
    return chosen


def test_final_lhs_of_the_benchmark_case_packs_at_32_bits(monkeypatch):
    # its coefficients are bounded key by key; the mass of each E_k, all keys at once, asked 64 bits.
    # The shift-built E_k are read back at their own widths, in `tensor`
    chosen = _widths(monkeypatch, diskpoly)
    tensor._lhs_power.cache_clear()
    tensor.scaled_lhs(6, 6, 2)
    assert chosen == [32] and verify_addition(6, 6, 2).passed


def _all_moves_onto(n: int, coeffs) -> ZElement:
    """sum_a x_a q^(t_a) z^(1 - e_a) w^(1 - e_a) in Z_n: times Q_n, every term moves onto the
    key z_1 .. z_n w_n .. w_1 with the coefficient q^0, so that key holds sum_a x_a."""
    ones = (1,) * n
    return ZElement(n, {tuple(ones[:a] + (0,) + ones[a + 1:] for _ in "zw"): x * qp(2 * (n - 1 - a))
                        for a, x in enumerate(coeffs)})


@pytest.mark.parametrize("n,x,coefs,s", [(7, (2 ** 63 - 1) // 7, (1, 0), 64),
                                          (3, 2 ** 63 // 6 + 1, (1, 1), 72)])
def test_packed_horner_bound_per_key(monkeypatch, n, x, coefs, s):
    # B = 0, so D = C and H = (c0 + c1) A C over E_0 = A, E_1 = A C, at one key n (c0 + c1) x.
    # The per-key bound n peak(A) c0 + peak(A C) c1 = n x (c0 + c1) is that value: at n = 7 it
    # is 2^63 - 1, the top of s = 64; at n = 3 it is past 2^63, where a bound without the
    # factor |C| (4x) or with the larger step alone (3x) would choose s = 64 and misread it
    (c0, c1), top = map(QRat.from_int, coefs), ((1,) * n,) * 2
    A, C = _all_moves_onto(n, [x] * n), q_element(n, n)
    es = [A, A * C]
    chosen = _widths(monkeypatch, diskpoly)
    H = _packed_horner((c0, c1), es, C)
    assert chosen == [s] and H.terms[top] == n * x * (c0 + c1)
    assert H == pairwise_mul(A, C) * (c0 + c1)


def test_non_central_c_takes_the_qrat_horner():
    # Q_2 in Z_3 commutes with z_2 and w_2 but not with z_3
    x, y, c = z_gen(2, 3), w_gen(2, 3), q_element(2, 3)
    assert c * z_gen(3, 3) != z_gen(3, 3) * c
    for l, m, alpha in ((3, 3, 1), (4, 2, 0), (1, 3, 2)):
        spec = DiskSpec(l, m, alpha)
        assert disk_poly(spec, x, y, c) == disk_poly_termwise(l, m, alpha, x, y, c)


def _moved(C: ZElement, key) -> ZElement:
    """The basis monomial key times C, by the moves of its code (`diskpoly._times_q`)."""
    out, k = diskpoly._times_q(({code(key): 1}, {}), 8, 0)
    return q_form(_read(out, 8, k), C.rank)


def _keys(n: int, top: int) -> list:
    """Every key (lam, mu) of rank n with total degree at most top."""
    vecs = [v for v in itertools.product(range(top + 1), repeat=n) if sum(v) <= top]
    return [(lam, mu) for lam in vecs for mu in vecs if sum(lam) + sum(mu) <= top]


@pytest.mark.parametrize("n", range(1, 6))
def test_moves_are_the_product_with_q_n(n):
    c = q_element(n, n)
    for key in _keys(n, 3):
        assert _moved(c, key) == ZElement._of(n, {key: ONE}) * c, key


@pytest.mark.parametrize("variant", VARIANTS)
def test_tensor_moves_are_the_product_with_q3_q2(variant):
    # on every key the (4, 4) lhs reaches: those of H_k for k <= 4
    g = xy_generators()
    c = tensor.pair(g.Q, g.D)
    assert addition_arguments(variant)[2] == c
    keys = {key for alpha in (1, 2) for mm in range(5)
            for key in tensor.scaled_lhs(mm, mm, alpha, variant)[1].terms}
    for key in keys:
        assert _moved(c, key) == ZElement._of(tensor.RANKS, {key: ONE}) * c, key


def _unfolded(spec: DiskSpec, A, B, C) -> ZElement:
    """L R_spec(A, B, C) by the route without the fold: H = sum_k (L coef_k)
    C^(mm-k) D^k by Horner's rule, then A^(l-m) H or H B^(m-l), every product
    by H the oracle's."""
    j, coefs = spec.l - spec.m, jacobi_scaled(spec)[1][:min(spec.l, spec.m) + 1]
    d, dk = C - A * B, A.one_like()
    H = dk * coefs[0]
    for k in range(1, len(coefs)):
        dk = dk * d
        H = pairwise_mul(H, C) + dk * coefs[k]
    if j > 0:
        return pairwise_mul(A ** j, H)
    return pairwise_mul(H, B ** -j) if j < 0 else H


FOLD_DEGREES = [(l, m) for l in range(5) for m in range(5) if l != m]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_folded_sum_equals_the_unfolded_route_on_the_rank_bundles(n):
    # every l != m, mm = 0 included
    args = _rank_args(n)
    for l, m in FOLD_DEGREES:
        for alpha in sorted({0, n - 2, n}):
            spec = DiskSpec(l, m, alpha)
            assert _scaled(spec, *args) == _unfolded(spec, *args), spec


@pytest.mark.parametrize("variant", VARIANTS)
def test_folded_sum_equals_the_unfolded_route_on_the_addition_bundles(variant):
    args = addition_arguments(variant)
    for l, m in FOLD_DEGREES:
        spec = DiskSpec(l, m, 1 + (l + m) % 2)
        assert _scaled(spec, *args) == _unfolded(spec, *args), spec


def test_folded_sum_with_a_non_central_c_takes_the_qrat_horner():
    # Q_2 in Z_3 commutes with z_2 and w_2 but is not central, through the public entry point
    x, y, c = z_gen(2, 3), w_gen(2, 3), q_element(2, 3)
    for l, m, alpha in ((4, 1, 0), (1, 4, 2), (3, 0, 1), (0, 2, 1)):
        spec = DiskSpec(l, m, alpha)
        assert disk_poly(spec, x, y, c) == _unfolded(spec, x, y, c) * jacobi_scaled(spec)[0]


# one level for n = 2..5, l, m <= 5 and four alphas; two levels, the (r, s) chains of
# `assoc_spherical`, for n = 3, 4 and l, m <= 3; and a three- and a four-level chain
CHAINS = ([(n, DiskSpec(l, m, alpha)) for n in range(2, 6) for l in range(6) for m in range(6)
           for alpha in (0, 1, 2, 5)]
          + [(n, DiskSpec(l - r, m - s, n - 2 + r + s), DiskSpec(r, s, n - 3)) for n in (3, 4)
             for l in range(4) for m in range(4) for r in range(l + 1) for s in range(m + 1)]
          + [(5, DiskSpec(2, 1, 4), DiskSpec(1, 2, 3), DiskSpec(2, 2, 1)),
             (5, DiskSpec(1, 3, 6), DiskSpec(3, 1, 3), DiskSpec(2, 1, 1), DiskSpec(1, 1, 0))])


@pytest.mark.parametrize("n", range(2, 6))
def test_chain_equals_the_product_route(n):
    # the packed sum of key shifts and central moves against levels by `diskpoly._scaled`,
    # multiplied as elements, term by term: (num, den) of every key
    diskpoly._chain.cache_clear()
    for chain in [chain for chain in CHAINS if chain[0] == n]:
        assert q_form(diskpoly._chain(*chain), n).terms == chain_product(*chain).terms, chain


def _read_widths(monkeypatch) -> list:
    """From now on, the slot width at which `diskpoly` reads back each packed sum."""
    widths, read = [], diskpoly._read
    monkeypatch.setattr(diskpoly, "_read", lambda accs, s, k: widths.append(s) or read(accs, s, k))
    return widths


@pytest.mark.parametrize("chain,widths", [
    ((3, DiskSpec(4, 4, 7), DiskSpec(4, 4, 0)), [16, 32]),
    ((5, DiskSpec(2, 3, 6), DiskSpec(3, 3, 2)), [16, 32]),
    ((4, DiskSpec(8, 8, 2)), [64]),
    ((4, DiskSpec(4, 5, 2)), [32]),
])
def test_chain_slot_width(monkeypatch, chain, widths):
    # the per-key bound b_k = n b_(k-1) + (n-1)^k |I| |L coef_k| sets the width at which each
    # level's sum is read back, the level below first.  By element products, every E_k I =
    # z_n^j Q_(n-1)^k I or Q_(n-1)^k w_n^b I has |E_k I| <= (n-1)^k |I|, every partial Horner
    # sum H_k has |H_k| <= b_k, and the chain is H
    chosen = _read_widths(monkeypatch)
    diskpoly._chain.cache_clear()
    got, chosen = diskpoly._chain(*chain), list(chosen)  # the product route below packs too
    n, spec, *rest = chain
    low = embed(chain_product(n - 1, *rest), n) if rest else ZElement.one(n)
    x, y, c, d, j = z_gen(n, n), w_gen(n, n), q_element(n, n), q_element(n - 1, n), spec.l - spec.m
    top, H, bound = peak(low.terms.values()), ZElement.zero(n), 0
    for k, coef in enumerate(jacobi_scaled(spec)[1][:min(spec.l, spec.m) + 1]):
        e = (x ** j * d ** k if j >= 0 else d ** k * y ** -j) * low
        assert peak(e.terms.values()) <= (n - 1) ** k * top, k
        H, bound = H * c + e * coef, bound * n + (n - 1) ** k * top * mass([coef])
        assert peak(H.terms.values()) <= bound, k
    assert chosen == widths and widths[-1] == _width(bound.bit_length() + 1) >= 32
    assert q_form(got, n) == H
