"""The library's argument and size gates: each public entry point raises
ValueError on a hostile argument at once, before it builds anything of the
argument's size, and each cap admits its value and refuses the next one."""

import time

import pytest

from qdisk import diskpoly, tensor, zalgebra
from qdisk.diskpoly import (MAX_DISK_ALPHA, MAX_DISK_DEGREE, MAX_SPHERICAL_TERMS, DiskSpec,
                            _check_spherical, assoc_spherical, jacobi_scaled, spherical)
from qdisk.haar import norm_const
from qdisk.qfield import ONE, QRat, qnumber, qpoch, solve_sparse
from qdisk.tensor import MAX_ALPHA, _check_addition, coupling_const, scaled_rhs, verify_addition
from qdisk.uqaction import invariant_subspace
from qdisk.zalgebra import MAX_RANK_TERMS, ZElement, _check_rank, embed, q_element, z_gen

GENERATOR, ZERO_ELEMENT = z_gen(1, 1), ZElement.zero(1)

HOSTILE = {
    "verify_addition-str-degree": lambda: verify_addition("1", 1, 1),
    "verify_addition-none-alpha": lambda: verify_addition(1, 1, None),
    "verify_addition-huge-degrees": lambda: verify_addition(40, 40, 1),
    "scaled_rhs-float-degree": lambda: scaled_rhs(1.5, 1, 1),
    "spherical-str-rank": lambda: spherical(1, 1, "3"),
    "spherical-huge-rank": lambda: spherical(0, 0, 10 ** 9),
    "assoc_spherical-str-r": lambda: assoc_spherical(1, 1, "0", 0, 3),
    "solve_sparse-str-column": lambda: solve_sparse([{"a": ONE}], 1),
    "one-huge-rank": lambda: ZElement.one(10 ** 8),
    "q_element-huge-rank": lambda: q_element(1, 10 ** 8),
    "embed-huge-rank": lambda: embed(GENERATOR, 10 ** 9),
    "embed-zero-huge-rank": lambda: embed(ZERO_ELEMENT, 10 ** 9),
    # memoized entry points: each checks before its table hashes the arguments
    "norm_const-list-degree": lambda: norm_const([1], 1, 1),
    "coupling_const-list-degree": lambda: coupling_const([1], 1, 0, 0, 1),
    "qpoch-list-length": lambda: qpoch(1, 1, [2]),
    "qnumber-dict-degree": lambda: qnumber({}, 2),
    "q_power-list-exponent": lambda: QRat.q_power([1]),
    "jacobi_scaled-tuple-spec": lambda: jacobi_scaled((1, 1, 1)),
    # the degree cap is the spec's, so the scalars built on a spec take it too
    "DiskSpec-over-degree": lambda: DiskSpec(MAX_DISK_DEGREE + 1, 0, 0),
    "norm_const-over-degree": lambda: norm_const(MAX_DISK_DEGREE + 1, 0, 1),
    "coupling_const-over-degree": lambda: coupling_const(MAX_DISK_DEGREE + 1, 0, 0, 0, 1),
    # and so is the alpha cap
    "DiskSpec-over-alpha": lambda: DiskSpec(0, 0, MAX_DISK_ALPHA + 1),
    "norm_const-over-alpha": lambda: norm_const(8, 8, MAX_DISK_ALPHA + 1),
    "norm_const-huge-alpha": lambda: norm_const(8, 8, 2 ** 16),
}


def refuse(*args, **kwargs):
    raise AssertionError("work began on a hostile argument")


def test_hostile_calls_raise_value_error_within_a_millisecond(monkeypatch):
    # every builder of a rank-length tuple and every case's work fails, so a
    # call that passed its gate would raise AssertionError, not ValueError; the
    # patches fail at once on a tree without the gates, so no hostile rank runs
    for module, name in ((zalgebra, "_exponents"), (diskpoly, "_chain"), (tensor, "_chain"),
                         (tensor, "_lhs_power"), (tensor, "_rhs_pieces")):
        monkeypatch.setattr(module, name, refuse)
    slow = {}
    for name, call in HOSTILE.items():
        best = float("inf")
        for _ in range(3):  # the best of three, against scheduling noise
            start = time.perf_counter()
            with pytest.raises(ValueError):
                call()
            best = min(best, time.perf_counter() - start)
        if best >= 1e-3:
            slow[name] = best
    assert slow == {}


def test_the_addition_gate_admits_its_caps_and_refuses_one_past_them():
    assert (MAX_DISK_DEGREE, MAX_ALPHA) == (8, 16)
    assert _check_addition(MAX_DISK_DEGREE, MAX_DISK_DEGREE, MAX_ALPHA, "final") == (8, 8, 16)
    for args, message in [((MAX_DISK_DEGREE + 1, 0, 1), "disk degree 9, above 8"),
                          ((0, MAX_DISK_DEGREE + 1, 1), "disk degree 9, above 8"),
                          ((0, 0, MAX_ALPHA + 1), "alpha 17, above 16"),
                          ((0, 0, 0), "alpha must be at least 1"),
                          ((-1, 0, 1), ">= 0")]:
        with pytest.raises(ValueError, match=message):
            _check_addition(*args, "final")
    with pytest.raises(ValueError, match="variant"):
        _check_addition(1, 1, 1, "bogus")


def test_the_spherical_gate_admits_its_caps_and_refuses_one_past_them():
    assert MAX_SPHERICAL_TERMS == 1716
    # C(13, 7) = 1716 terms; with (r, s) = (1, 0), C(13, 6) times 1
    assert _check_spherical(8, 7, 7) == (7, DiskSpec(8, 7, 5))
    assert _check_spherical(8, 6, 8, 1, 0) == (8, DiskSpec(8, 6, 6))
    for args, message in [((4, 4, 13), "1820 terms"), ((5, 5, 7, 2, 2), "1764 terms"),
                          ((0, MAX_DISK_DEGREE + 1, 2), "disk degree 9, above 8"),
                          ((1, 1, 3, MAX_DISK_DEGREE + 1, 0), "disk degree 9, above 8"),
                          ((1, 1, 3, 2, 0), "need 0 <= r <= l"),
                          ((1, 1, 1), "rank at least 2"), ((1, 1, 2, 0, 0), "rank at least 3")]:
        with pytest.raises(ValueError, match=message):
            _check_spherical(*args)


def test_the_rank_gate_admits_its_cap_and_refuses_one_past_it():
    assert MAX_RANK_TERMS == 2 ** 16
    top = 256  # 256 terms of rank 256, as Q_256 has
    assert _check_rank(MAX_RANK_TERMS) == MAX_RANK_TERMS and _check_rank(top, top) == top
    assert _check_rank(True) == 1 and type(_check_rank(True)) is int
    assert ZElement.one(MAX_RANK_TERMS).term_count() == 1
    assert q_element(top, top).term_count() == top
    assert embed(q_element(2, 2), MAX_RANK_TERMS // 2).rank == MAX_RANK_TERMS // 2
    assert _check_spherical(0, 0, top) == (top, DiskSpec(0, 0, top - 2))
    (basis,) = invariant_subspace(0, 0, MAX_RANK_TERMS, 1)
    assert basis.term_count() == 1
    for call in (lambda: _check_rank(MAX_RANK_TERMS + 1), lambda: _check_rank(top, top + 1),
                 lambda: ZElement.one(MAX_RANK_TERMS + 1), lambda: q_element(top + 1, top + 1),
                 lambda: embed(q_element(2, 2), MAX_RANK_TERMS // 2 + 1),
                 lambda: _check_spherical(0, 0, top + 1),
                 lambda: invariant_subspace(0, 0, MAX_RANK_TERMS + 1, 1)):
        with pytest.raises(ValueError, match=f"above {MAX_RANK_TERMS}"):
            call()


def _admitted(*args) -> bool:
    try:
        _check_spherical(*args)
    except ValueError:
        return False
    return True


def test_the_alpha_cap_admits_every_library_route_and_refuses_one_past_it():
    # the largest alpha a library route passes is an assoc_spherical outer level,
    # n - 2 + r + s.  It does not depend on l and m, and l = r makes k = min(l - r, m - s)
    # zero, the fewest terms, so its largest value over admitted cases is at l = r and m = 8
    largest = max(n - 2 + r + s for n in range(3, 257) for r in range(MAX_DISK_DEGREE + 1)
                  for s in range(MAX_DISK_DEGREE + 1) if _admitted(r, MAX_DISK_DEGREE, n, r, s))
    assert largest == 263 and MAX_ALPHA + 2 * MAX_DISK_DEGREE < largest < MAX_DISK_ALPHA == 512
    element = assoc_spherical(8, 8, 8, 1, 256)  # outer DiskSpec(0, 7, 263)
    assert element.term_count() == 255
    assert DiskSpec(8, 8, MAX_DISK_ALPHA).alpha == MAX_DISK_ALPHA and norm_const(8, 8, MAX_DISK_ALPHA)
    for call in (lambda: DiskSpec(0, 0, MAX_DISK_ALPHA + 1), lambda: norm_const(0, 0, MAX_DISK_ALPHA + 1),
                 lambda: coupling_const(1, 1, 0, 0, MAX_DISK_ALPHA + 1)):
        with pytest.raises(ValueError, match="alpha 513, above 512"):
            call()
