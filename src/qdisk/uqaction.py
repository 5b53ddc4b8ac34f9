"""Action of the quantized enveloping algebra of gl(n) on quantum n-space.

The generators q^h (h an integer weight), e_k, f_k (1 <= k <= n-1) act on
basis monomials z^lam w^mu by weight scaling and index-shifting ladder
moves whose coefficients are q-integers in base q^-2:

    q^h  . z^lam w^mu = q^<h, lam - mu> z^lam w^mu
    f_k  . z^lam w^mu = -q^(mu_k + 1) [mu_{k+1}] z^lam w^(mu - e_{k+1} + e_k)
                        + q^(lam_{k+1} + mu_k - mu_{k+1}) [lam_k] z^(lam - e_k + e_{k+1}) w^mu
    e_k  . z^lam w^mu = -q^(-1) q^(mu_{k+1} + lam_k - lam_{k+1}) [mu_k] z^lam w^(mu + e_{k+1} - e_k)
                        + q^(lam_k) [lam_{k+1}] z^(lam + e_k - e_{k+1}) w^mu

with [m] = (1 - q^(-2m))/(1 - q^(-2)).  Invariance under the rank-p
subalgebra means being fixed by q^(e_i) for i <= p and killed by e_k, f_k
for k <= p-1.  An invariant slice is the nullspace of these conditions,
given as sparse rows to the exact solver `qfield.solve_sparse`.
"""

from __future__ import annotations

from typing import Sequence

from .qfield import ONE, QRat, ZERO, qnumber, solve_sparse
from .zalgebra import ZElement, _accum, _z_rank

Weight = Sequence


def _qnum(m: int) -> QRat:
    return qnumber(m, -2) if m > 0 else ZERO


def act_qh(h: Weight, a: ZElement) -> ZElement:
    """Apply q^h for an integer weight vector h of length rank."""
    if len(h) != _z_rank(a, "q^h"):
        raise ValueError("weight length must equal the rank")
    out = {}
    for (lam, mu), c in a.terms.items():
        e = sum(hi * (li - mi) for hi, li, mi in zip(h, lam, mu))
        out[(lam, mu)] = c * QRat.q_power(e)
    return ZElement(a.rank, out)


def _check_ladder_index(k: int, a: ZElement) -> None:
    rank = _z_rank(a, "a ladder operator")
    if not 1 <= k <= rank - 1:
        raise ValueError(f"ladder index {k} out of range for rank {rank}")


def act_f(k: int, a: ZElement) -> ZElement:
    _check_ladder_index(k, a)
    k0 = k - 1
    out: dict = {}
    for (lam, mu), c in a.terms.items():
        if mu[k0 + 1]:
            coeff = -QRat.q_power(mu[k0] + 1) * _qnum(mu[k0 + 1])
            nmu = list(mu)
            nmu[k0 + 1] -= 1
            nmu[k0] += 1
            _accum(out, (lam, tuple(nmu)), c * coeff)
        if lam[k0]:
            coeff = QRat.q_power(lam[k0 + 1] + mu[k0] - mu[k0 + 1]) * _qnum(lam[k0])
            nlam = list(lam)
            nlam[k0] -= 1
            nlam[k0 + 1] += 1
            _accum(out, (tuple(nlam), mu), c * coeff)
    return ZElement(a.rank, out)


def act_e(k: int, a: ZElement) -> ZElement:
    _check_ladder_index(k, a)
    k0 = k - 1
    out: dict = {}
    for (lam, mu), c in a.terms.items():
        if mu[k0]:
            coeff = -QRat.q_power(-1) * QRat.q_power(mu[k0 + 1] + lam[k0] - lam[k0 + 1]) * _qnum(mu[k0])
            nmu = list(mu)
            nmu[k0] -= 1
            nmu[k0 + 1] += 1
            _accum(out, (lam, tuple(nmu)), c * coeff)
        if lam[k0 + 1]:
            coeff = QRat.q_power(lam[k0]) * _qnum(lam[k0 + 1])
            nlam = list(lam)
            nlam[k0 + 1] -= 1
            nlam[k0] += 1
            _accum(out, (tuple(nlam), mu), c * coeff)
    return ZElement(a.rank, out)


def is_invariant(a: ZElement, p: int) -> bool:
    """Invariance under the rank-p subalgebra (1 <= p <= rank)."""
    if not 1 <= p <= _z_rank(a, "the U_q(gl(n)) action"):
        raise ValueError(f"subalgebra rank {p} out of range for rank {a.rank}")
    for i in range(p):
        if act_qh([int(t == i) for t in range(a.rank)], a) != a:
            return False
    for k in range(1, p):
        if not act_e(k, a).is_zero() or not act_f(k, a).is_zero():
            return False
    return True


def _slice_keys(l: int, m: int, n: int) -> list:
    def comps(total, parts):
        if parts == 1:
            return [(total,)]
        return [(f,) + rest for f in range(total + 1) for rest in comps(total - f, parts - 1)]

    return [(lam, mu) for lam in comps(l, n) for mu in comps(m, n)]


def invariant_subspace(l: int, m: int, n: int, p: int) -> list:
    """Basis of the rank-p invariants inside the bidegree-(l, m) slice of Z_n.

    Sparse condition rows: one entry per weight condition, then the images
    of e_k, f_k transposed from their terms (none for p = 1)."""
    if l < 0 or m < 0:
        raise ValueError("bidegree components must be nonnegative")
    if not 1 <= p <= n:
        raise ValueError(f"subalgebra rank {p} out of range for rank {n}")
    keys = _slice_keys(l, m, n)
    rows = []
    for t, (lam, mu) in enumerate(keys):
        i = next((i for i in range(p) if lam[i] != mu[i]), None)
        if i is not None:
            rows.append({t: QRat.q_power(lam[i] - mu[i]) - ONE})
    for k in range(1, p):
        for op in (act_e, act_f):
            by_out: dict = {}
            for t, key in enumerate(keys):
                for kk, c in op(k, ZElement(n, {key: ONE})).terms.items():
                    by_out.setdefault(kk, {})[t] = c
            rows.extend(by_out[kk] for kk in sorted(by_out))
    return [ZElement(n, dict(zip(keys, vec))) for vec in solve_sparse(rows, len(keys)).nullspace]
