import pytest

from oracle import disk_poly_termwise
from qdisk.diskpoly import DiskSpec, _DiskArgs, assoc_spherical, disk_poly, spherical
from qdisk.haar import inner, norm_const
from qdisk.qfield import ONE, QRat, ZERO, qpoch
from qdisk.uqaction import is_invariant
from qdisk.zalgebra import ZElement, bidegree, counit, q_element, star, w_gen, z_gen

qp = QRat.q_power


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


def test_argument_bundle_checks_at_construction():
    with pytest.raises(ValueError, match="commute with A"):
        _DiskArgs(z_gen(2, 2), w_gen(2, 2), q_element(1, 2))
    with pytest.raises(ValueError, match="commute with B"):
        _DiskArgs(q_element(2, 2), z_gen(2, 2), q_element(1, 2))


def test_argument_bundle_shares_powers_across_specs():
    # one bundle evaluates every spec as the transient bundle of disk_poly does,
    # in any order, and hands out no power it keeps
    args = _DiskArgs(z_gen(3, 3), w_gen(3, 3), q_element(3, 3))
    specs = [DiskSpec(3, 3, 1), DiskSpec(0, 0, 2), DiskSpec(1, 4, 0), DiskSpec(4, 1, 1),
             DiskSpec(2, 2, 1)]
    for spec in specs + specs[::-1]:
        got = args.scaled(spec)
        assert got == _DiskArgs(z_gen(3, 3), w_gen(3, 3), q_element(3, 3)).scaled(spec)
        assert all(got is not p for pows in args.pows.values() for p in pows.values())
    assert args.power("A", 2) == z_gen(3, 3) ** 2
    assert args.power("D", 3) == q_element(2, 3) ** 3


def test_spec_validation():
    with pytest.raises(ValueError):
        DiskSpec(-1, 0, 0)
    with pytest.raises(ValueError):
        DiskSpec(0, 0, -1)
    with pytest.raises(ValueError):
        spherical(1, 1, 1)


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
