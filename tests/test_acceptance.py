"""Acceptance battery: eleven exact verification criteria, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every algebraic identity is checked exactly over Q(q) — tolerance zero;
the positivity criteria evaluate Gram matrices exactly at rational points.
"""

import random
from fractions import Fraction
from itertools import product

from oracle import naive_addition_sides
from reference import (
    MultiQPoly,
    UniPoly,
    haar_monomial_alt,
    jackson_integral,
    little_q_jacobi,
    multi_jackson,
    normal_order,
    normal_order_strategy,
    rising_weight,
    shift_identity_check,
)
from test_haar import _fraction_matrix_is_positive_definite

from qdisk.diskpoly import assoc_spherical, spherical
from qdisk.haar import haar, haar_monomial, inner, norm_const
from qdisk.qfield import ONE, QRat, ZERO, qpoch, solve_linear
from qdisk.tensor import addition_lhs, addition_rhs, verify_addition
from qdisk.uqaction import act_e, act_f, act_qh, invariant_subspace, is_invariant
from qdisk.zalgebra import (
    ZElement,
    q_element,
    w_gen,
    z_gen,
)

qp = QRat.q_power

ADDITION_GRID = ([(alpha, l, m) for alpha in (1, 2, 3, 4)
                  for l in range(3) for m in range(3)]
                 + [(alpha, l, m) for alpha in (1, 2) for (l, m) in ((3, 1), (2, 3))])

CASE_BUDGET_MILLIS = 120_000


def _verdict(num: int, name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"\ncriterion {num:2d} [{name}]: {status}")
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _random_element(rng, rank, nterms=3, maxdeg=2):
    terms = {}
    for _ in range(nterms):
        lam = tuple(rng.randint(0, maxdeg) for _ in range(rank))
        mu = tuple(rng.randint(0, maxdeg) for _ in range(rank))
        terms[(lam, mu)] = QRat.from_int(rng.randint(-3, 3))
    return ZElement(rank, terms)


def _run_addition_grid(variant):
    failures = []
    for alpha, l, m in ADDITION_GRID:
        v = verify_addition(l, m, alpha, variant)
        if not v.passed:
            failures.append((alpha, l, m, f"{len(v.residual_terms)} residual terms"))
        if v.millis > CASE_BUDGET_MILLIS:
            failures.append((alpha, l, m, f"case took {v.millis} ms"))
    return failures


def test_criterion_01_addition_formula():
    _verdict(1, "addition formula, coupled arguments", _run_addition_grid("final"))


def test_criterion_02_addition_formula_precursor():
    _verdict(2, "addition formula, precursor variant", _run_addition_grid("precursor"))


def test_criterion_03_spherical_norms():
    failures = []
    for n in (2, 3, 4):
        for l in range(4):
            for m in range(4):
                s = spherical(l, m, n)
                if inner(s, s) != norm_const(l, m, n - 2):
                    failures.append((n, l, m))
    _verdict(3, "spherical norms", failures)


def test_criterion_04_spherical_orthogonality():
    failures = []
    for n in (2, 3):
        elems = {(l, m): spherical(l, m, n)
                 for l in range(3) for m in range(3)}
        for a, b in product(elems, repeat=2):
            if a != b and inner(elems[a], elems[b]) != ZERO:
                failures.append((n, a, b))
    _verdict(4, "spherical orthogonality", failures)


def test_criterion_05_associated_inner_products():
    failures = []
    for n in (3, 4):
        alpha = n - 2
        elems = {(l, m, r, s): assoc_spherical(l, m, r, s, n)
                 for l in range(3) for m in range(3)
                 for r in range(l + 1) for s in range(m + 1)}
        for ka, kb in product(elems, repeat=2):
            value = inner(elems[ka], elems[kb])
            if ka != kb:
                if value != ZERO:
                    failures.append((n, ka, kb, "nonzero"))
                continue
            l, m, r, s = ka
            expected = ((ONE - qp(2 * (alpha + 1)))
                        / (ONE - qp(2 * (alpha + r + s + 1)))
                        * norm_const(l - r, m - s, alpha + r + s)
                        * norm_const(r, s, alpha - 1))
            if value != expected:
                failures.append((n, ka, "norm mismatch"))
    _verdict(5, "associated spherical inner products", failures)


def test_criterion_06_haar_consistency():
    failures = []
    # the two closed monomial formulas agree
    for n in (1, 2, 3, 4):
        for total in range(5):
            for lam in _compositions(total, n):
                if haar_monomial(lam, lam, n) != haar_monomial_alt(lam, lam, n):
                    failures.append(("forms", n, lam))
    # the iterated Jackson integral representation matches on ladder monomials
    for n in (2, 3, 4):
        for exps in product(range(3), repeat=n - 1):
            phi = MultiQPoly.monomial(n - 1, exps)
            elt = ZElement.one(n)
            for i, e in enumerate(exps, start=1):
                elt = elt * q_element(i, n) ** e
            if multi_jackson(phi, n) != haar(elt):
                failures.append(("integral", n, exps))
    # normalization
    for n in (1, 2, 3, 4):
        if haar(ZElement.one(n)) != ONE:
            failures.append(("unit", n))
    # invariance on a random sample
    rng = random.Random(31415)
    for i in range(100):
        n = rng.randint(2, 4)
        x = _random_element(rng, n)
        if haar(q_element(n, n) * x) != haar(x):
            failures.append(("center", i))
        k = rng.randint(1, n - 1)
        if haar(act_e(k, x)) != ZERO or haar(act_f(k, x)) != ZERO:
            failures.append(("ladder", i))
        hvec = tuple(rng.randint(-2, 2) for _ in range(n))
        if haar(act_qh(hvec, x)) != haar(x):
            failures.append(("torus", i))
    _verdict(6, "Haar functional consistency", failures)


def test_criterion_07_invariance_suite():
    failures = []
    for n in (2, 3, 4):
        for l in range(4):
            for m in range(4):
                if not is_invariant(spherical(l, m, n), n - 1):
                    failures.append(("spherical", n, l, m))
    for n in (3, 4):
        for l in range(3):
            for m in range(3):
                for r in range(l + 1):
                    for s in range(m + 1):
                        if not is_invariant(assoc_spherical(l, m, r, s, n), n - 2):
                            failures.append(("associated", n, l, m, r, s))
    for n in (2, 3):
        for l in range(3):
            for m in range(3):
                full = len(invariant_subspace(l, m, n, n))
                if full != (1 if l == m else 0):
                    failures.append(("full", n, l, m, full))
                corank1 = len(invariant_subspace(l, m, n, n - 1))
                if corank1 != min(l, m) + 1:
                    failures.append(("corank1", n, l, m, corank1))
    for l in range(3):
        for m in range(3):
            expected = sum((l - j + 1) * (m - j + 1) for j in range(min(l, m) + 1))
            got = len(invariant_subspace(l, m, 3, 1))
            if got != expected:
                failures.append(("corank2", l, m, got, expected))
    _verdict(7, "invariance suite", failures)


def test_criterion_08_engine_integrity():
    failures = []
    # confluence race on random words
    rng = random.Random(27182818)
    for i in range(200):
        rank = rng.randint(1, 4)
        length = rng.randint(0, 8)
        word = tuple((rng.choice("zw"), rng.randint(1, rank)) for _ in range(length))
        fast = normal_order(word, rank)
        if (normal_order_strategy(word, rank, "leftmost") != fast
                or normal_order_strategy(word, rank, "rightmost") != fast):
            failures.append(("confluence", word))
    # ladder identities
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            zk, wk, Qk = z_gen(k, n), w_gen(k, n), q_element(k, n)
            Qk1 = q_element(k - 1, n) if k > 1 else ZElement.zero(n)
            if zk * wk != Qk - Qk1 or wk * zk != Qk - qp(2) * Qk1:
                failures.append(("ladder", n, k))
            for i in range(1, n + 1):
                Qi = q_element(i, n)
                want_z = qp(-2) * Qi * zk if k > i else Qi * zk
                want_w = qp(2) * Qi * wk if k > i else Qi * wk
                if zk * Qi != want_z or wk * Qi != want_w:
                    failures.append(("ladder-commute", n, k, i))
    # power products and single-generator pull-throughs
    for n, k, m in ((2, 1, 2), (2, 2, 3), (3, 2, 2), (3, 3, 3)):
        zk, wk, Qk = z_gen(k, n), w_gen(k, n), q_element(k, n)
        Qk1 = q_element(k - 1, n) if k > 1 else ZElement.zero(n)
        rhs = ZElement.one(n)
        for t in range(m):
            rhs = rhs * (Qk - qp(-2 * t) * Qk1)
        if zk ** m * wk ** m != rhs:
            failures.append(("power-product", n, k, m))
    for n in (2, 3):
        for i in range(1, n + 1):
            zi, wi, Qi = z_gen(i, n), w_gen(i, n), q_element(i, n)
            for m in range(1, 4):
                rhs = qp(2 * m) * zi * wi ** m + (ONE - qp(2 * m)) * wi ** (m - 1) * Qi
                if wi ** m * zi != rhs:
                    failures.append(("pull-through", n, i, m))
    # basis faithfulness of the tensor-model monomials
    from test_tensor import _pbw_image
    seen = set()
    for r, s, t, u, v in product(range(3), repeat=5):
        img = _pbw_image(r, s, t, u, v)
        if len(img.terms) != 1:
            failures.append(("pbw-monomial", (r, s, t, u, v)))
            continue
        ((lam, mu), coeff), = img.terms.items()
        if (lam, mu) != ((v, r, s), (v, u, t)) or not coeff:
            failures.append(("pbw-key", (r, s, t, u, v)))
        seen.add((lam, mu))
    if len(seen) != 3 ** 5:
        failures.append(("pbw-count", len(seen)))
    images = [_pbw_image(r, s, t, u, v)
              for r, s, t, u, v in product(range(2), repeat=5)]
    keys = sorted({key for img in images for key in img.terms})
    index = {key: i for i, key in enumerate(keys)}
    matrix = [[ZERO] * len(images) for _ in keys]
    for j, img in enumerate(images):
        for key, c in img.terms.items():
            matrix[index[key]][j] = c
    if solve_linear(matrix, [ZERO] * len(keys)).nullspace != []:
        failures.append(("pbw-rank",))
    _verdict(8, "normal-form engine integrity", failures)


def test_criterion_09_q_special_functions():
    failures = []
    for alpha in range(4):
        for beta in range(4):
            for l in range(4):
                for m in range(4):
                    pl = little_q_jacobi(l, alpha, beta)
                    pm = little_q_jacobi(m, alpha, beta)
                    v = jackson_integral(
                        pl * pm * UniPoly.x_power(alpha) * rising_weight(beta))
                    if l != m:
                        if v != ZERO:
                            failures.append(("orthogonality", alpha, beta, l, m))
                    else:
                        expected = ((ONE - qp(1)) * qp(m * (alpha + 1))
                                    / (ONE - qp(alpha + beta + 2 * m + 1))
                                    * qpoch(1, 1, m) * qpoch(1, 1, beta + m)
                                    / (qpoch(alpha + 1, 1, m)
                                       * qpoch(alpha + 1, 1, beta + m)))
                        if v != expected:
                            failures.append(("norm", alpha, beta, m))
    for alpha in range(4):
        for beta in range(4):
            lhs = jackson_integral(UniPoly.x_power(alpha) * rising_weight(beta))
            rhs = ((ONE - qp(1)) * qpoch(1, 1, alpha) * qpoch(1, 1, beta)
                   / qpoch(1, 1, alpha + beta + 1))
            if lhs != rhs:
                failures.append(("q-beta", alpha, beta))
    f = UniPoly([ONE, qp(1), QRat.from_int(-2), ONE])
    for alpha in range(4):
        for beta in range(4):
            for g in (f, UniPoly.x_power(3), UniPoly.x_power(0)):
                if not shift_identity_check(g, alpha, beta):
                    failures.append(("shift", alpha, beta))
    _verdict(9, "q-special-function suite", failures)


def test_criterion_10_gram_positivity():
    failures = []
    slices = [(2, 1, 1), (3, 1, 0)]
    for point in (Fraction(1, 2), Fraction(3, 4)):
        for n, dl, dm in slices:
            keys = [(lam, mu)
                    for lam in _compositions(dl, n)
                    for mu in _compositions(dm, n)]
            basis = [ZElement(n, {k: ONE}) for k in keys]
            gram = [[inner(a, b).eval_at(point) for b in basis] for a in basis]
            if gram != [list(row) for row in zip(*gram)]:
                failures.append(("symmetry", n, (dl, dm), point))
            if not _fraction_matrix_is_positive_definite(gram):
                failures.append(("positivity", n, (dl, dm), point))
    _verdict(10, "Gram positivity at rational points", failures)


def test_criterion_11_independent_oracle():
    failures = []
    for variant in ("final", "precursor"):
        lhs, rhs = naive_addition_sides(1, 1, 1, variant)
        if lhs != rhs:
            failures.append((variant, "oracle sides differ"))
        if lhs != addition_lhs(1, 1, 1, variant).terms:
            failures.append((variant, "lhs differs from engine"))
        if rhs != addition_rhs(1, 1, 1, variant).terms:
            failures.append((variant, "rhs differs from engine"))
    _verdict(11, "independent rewriting oracle", failures)
