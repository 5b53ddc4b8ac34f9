"""Action of the quantized enveloping algebra of gl(n) on quantum n-space.

The generators q^h (h an integer weight), e_k, f_k (1 <= k <= n-1) act on
basis monomials z^lam w^mu by weight scaling and index-shifting ladder
moves whose coefficients are q-integers in base q^-2:

    q^h  . z^lam w^mu = q^<h, lam - mu> z^lam w^mu
    f_k  . z^lam w^mu = -q^(mu_k + 1) [mu_{k+1}] z^lam w^(mu - e_{k+1} + e_k)
                        + q^(lam_{k+1} + mu_k - mu_{k+1}) [lam_k] z^(lam - e_k + e_{k+1}) w^mu
    e_k  . z^lam w^mu = -q^(-1) q^(mu_{k+1} + lam_k - lam_{k+1}) [mu_k] z^lam w^(mu + e_{k+1} - e_k)
                        + q^(lam_k) [lam_{k+1}] z^(lam + e_k - e_{k+1}) w^mu

with [m] = (1 - q^(-2m))/(1 - q^(-2)): each move carries [m] for the
exponent m it takes its unit from.  Invariance under the rank-p subalgebra
means being fixed by q^(e_i) for i <= p and killed by e_k, f_k for
k <= p-1.  The torus q^(e_i) is diagonal on monomials, so it fixes exactly
the span of the torus-fixed keys, those with lam[:p] == mu[:p]: the torus
conditions select keys and give no equations.  An invariant slice is the
nullspace of the ladder conditions on those keys, given as sparse rows to
the exact solver `qfield.solve_sparse`.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Sequence

from .qfield import ONE, QRat, _accum, qnumber, solve_sparse
from .zalgebra import ZElement, _check_rank, _z_rank

Weight = Sequence

# Caps on an invariant slice: its torus-fixed keys, and its degrees l, m, since
# the nullspace coefficients grow in degree with them.  The slowest admitted
# slice found, (12, 12, 5, 5) with 1820 keys, took 5.6 s and 50 MB on a 2-vCPU
# x86-64 host; (61, 61, 3, 3) ran 100 s before the degree cap.
MAX_INVARIANT_KEYS = 2000
MAX_INVARIANT_DEGREE = 16


def act_qh(h: Weight, a: ZElement) -> ZElement:
    """Apply q^h for an integer weight vector h of length rank."""
    if len(h) != _z_rank(a, "q^h") or not all(isinstance(hi, int) for hi in h):
        raise ValueError("weight must be an integer vector of length the rank")
    out = {}
    for (lam, mu), c in a.terms.items():
        e = sum(hi * (li - mi) for hi, li, mi in zip(h, lam, mu))
        out[(lam, mu)] = c * QRat.q_power(e)
    return a._like(out)


def _check_ladder_index(k: int, a: ZElement) -> None:
    rank = _z_rank(a, "a ladder operator")
    if not isinstance(k, int) or not 1 <= k <= rank - 1:
        raise ValueError(f"ladder index {k!r} out of range for rank {rank}")


def _ladder(a: ZElement, moves) -> ZElement:
    """The sum over the terms c z^lam w^mu of a and over the moves (side, src,
    dst, prefactor) of c prefactor(lam, mu) [x] times the monomial with one unit
    of lam (side 0) or mu (side 1) moved from index src to dst, x the source
    exponent; a move with x = 0 contributes nothing and builds no coefficient."""
    out: dict = {}
    for key, c in a.terms.items():
        for side, src, dst, prefactor in moves:
            x = key[side][src]
            if x:
                e = list(key[side])
                e[src] -= 1
                e[dst] += 1
                moved = (key[0], tuple(e)) if side else (tuple(e), key[1])
                _accum(out, moved, c * (prefactor(*key) * qnumber(x, -2)))
    return a._like({key: c for key, c in out.items() if c})


def act_f(k: int, a: ZElement) -> ZElement:
    _check_ladder_index(k, a)
    i, j = k - 1, k
    return _ladder(a, ((1, j, i, lambda lam, mu: -QRat.q_power(mu[i] + 1)),
                       (0, i, j, lambda lam, mu: QRat.q_power(lam[j] + mu[i] - mu[j]))))


def act_e(k: int, a: ZElement) -> ZElement:
    _check_ladder_index(k, a)
    i, j = k - 1, k
    return _ladder(a, ((1, i, j, lambda lam, mu: -QRat.q_power(mu[j] + lam[i] - lam[j] - 1)),
                       (0, j, i, lambda lam, mu: QRat.q_power(lam[i]))))


def is_invariant(a: ZElement, p: int) -> bool:
    """Invariance under the rank-p subalgebra (1 <= p <= rank): every key of a
    is torus-fixed, and e_k, f_k kill a for k < p."""
    if not isinstance(p, int) or not 1 <= p <= _z_rank(a, "the U_q(gl(n)) action"):
        raise ValueError(f"subalgebra rank {p!r} out of range for rank {a.rank}")
    if any(lam[:p] != mu[:p] for lam, mu in a.terms):
        return False
    return all(act_e(k, a).is_zero() and act_f(k, a).is_zero() for k in range(1, p))


def _comps(total: int, parts: int) -> list:
    """The compositions of total into parts nonnegative parts, in lexicographic
    order: the gaps between parts - 1 bars among total + parts - 1 slots."""
    if parts == 0:
        return [()] if total == 0 else []
    end = (total + parts - 1,)
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + end))
            for bars in combinations(range(end[0]), parts - 1)]


def _count_comps(total: int, parts: int) -> int:
    """len(_comps(total, parts)), in at most total steps."""
    return comb(total + parts - 1, total) if parts else int(total == 0)


def invariant_subspace(l: int, m: int, n: int, p: int) -> list:
    """Basis of the rank-p invariants inside the bidegree-(l, m) slice of Z_n.

    The unknowns are the torus-fixed keys (lam, mu), lam[:p] == mu[:p], in
    lexicographic order: sum over j = |lam[:p]| of |comps(j, p)| |comps(l - j,
    n - p)| |comps(m - j, n - p)|, counted first.  A degree above
    MAX_INVARIANT_DEGREE or a count above MAX_INVARIANT_KEYS raises ValueError
    before any key is enumerated.  The torus condition on any other key is a
    one-entry row, a pivot with nullspace entry 0, so the reduced echelon
    basis is the full slice's.  The rows are the ladder images of e_k, f_k on
    the kept keys, transposed from their terms (none for p = 1).  Each basis
    element is built from its vector's nonzeros only, in key order."""
    _check_rank(n)
    if not all(isinstance(x, int) and x >= 0 for x in (l, m, p)):
        raise ValueError("bidegree and subalgebra rank must be nonnegative integers")
    if not 1 <= p <= n:
        raise ValueError(f"subalgebra rank {p} out of range for rank {n}")
    if max(l, m) > MAX_INVARIANT_DEGREE:
        raise ValueError(f"bidegree {(l, m)} above {MAX_INVARIANT_DEGREE}")
    # j = |lam[:p]|; for p = n only j = l = m has keys
    js, size = range(min(l, m) if p == n else 0, min(l, m) + 1), 0
    for j in js:
        size += _count_comps(j, p) * _count_comps(l - j, n - p) * _count_comps(m - j, n - p)
        if size > MAX_INVARIANT_KEYS:
            raise ValueError(f"slice {(l, m, n, p)} has over {MAX_INVARIANT_KEYS} torus-fixed keys")
    keys = sorted((head + rest, head + tail) for j in js
                  for rest in _comps(l - j, n - p) for tail in _comps(m - j, n - p)
                  for head in _comps(j, p))
    rows = []
    for k in range(1, p):
        for op in (act_e, act_f):
            by_out: dict = {}
            for t, key in enumerate(keys):
                for kk, c in op(k, ZElement._of(n, {key: ONE})).terms.items():
                    by_out.setdefault(kk, {})[t] = c
            rows.extend(by_out[kk] for kk in sorted(by_out))
    return [ZElement._of(n, {keys[c]: x for c, x in vec.items()})
            for vec in solve_sparse(rows, len(keys)).nullspace]
