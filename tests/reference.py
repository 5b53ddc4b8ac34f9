"""Reference routes that the tests race against the library.

`normal_order_strategy` rewrites a word one relation at a time, at its
leftmost or rightmost reducible position; the confluence tests compare it
with `qdisk.zalgebra.normal_order`, which multiplies generators through the
memoized tables.  `haar_monomial_alt` is the negative-base form of the Haar
functional on basis monomials, compared with `qdisk.haar.haar_monomial`.
"""

from __future__ import annotations

from typing import Iterable

from qdisk.qfield import ONE, QRat, ZERO, qpoch
from qdisk.zalgebra import ZElement, _accum, _check_index, _check_rank

# a letter is ("z", i) or ("w", i) with 1 <= i <= rank; a word is a tuple of letters
Word = tuple
Key = tuple


def word_key(word: Word, rank: int) -> Key:
    """Exponent key of a word already in normal order."""
    lam = [0] * rank
    mu = [0] * rank
    for kind, i in word:
        if kind == "z":
            lam[i - 1] += 1
        else:
            mu[i - 1] += 1
    return tuple(lam), tuple(mu)


def _reducible_positions(word: Word) -> list:
    out = []
    for p in range(len(word) - 1):
        (k1, i1), (k2, i2) = word[p], word[p + 1]
        if k1 == "z" and k2 == "z" and i1 > i2:
            out.append(p)
        elif k1 == "w" and k2 == "w" and i1 < i2:
            out.append(p)
        elif k1 == "w" and k2 == "z":
            out.append(p)
    return out


def _apply_rule(word: Word, p: int):
    """One rewriting step at position p; returns [(coeff factor, new word)]."""
    (k1, i1), (k2, i2) = word[p], word[p + 1]
    head, tail = word[:p], word[p + 2:]
    qinv = QRat.q_power(-1)
    if k1 == "z" and k2 == "z":
        return [(qinv, head + (("z", i2), ("z", i1)) + tail)]
    if k1 == "w" and k2 == "w":
        return [(qinv, head + (("w", i2), ("w", i1)) + tail)]
    if i1 != i2:
        return [(QRat.q_power(1), head + (("z", i2), ("w", i1)) + tail)]
    out = [(ONE, head + (("z", i1), ("w", i1)) + tail)]
    corr = ONE - QRat.q_power(2)
    for k in range(1, i1):
        out.append((corr, head + (("z", k), ("w", k)) + tail))
    return out


def normal_order_strategy(word: Iterable, rank: int, strategy: str = "leftmost") -> ZElement:
    """Reference rewriter: applies one relation per step at the leftmost or
    rightmost reducible position.  Independent of the memoized fast path;
    the two are raced against each other in the confluence tests."""
    _check_rank(rank)
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    pick = (lambda ps: ps[0]) if strategy == "leftmost" else (lambda ps: ps[-1])
    word = tuple(word)
    for kind, i in word:
        _check_index(i, rank)
        if kind not in ("z", "w"):
            raise ValueError(f"unknown generator kind {kind!r}")
    pending = {word: ONE}
    done: dict = {}
    while pending:
        nxt: dict = {}
        for wd, coeff in pending.items():
            ps = _reducible_positions(wd)
            if not ps:
                _accum(done, word_key(wd, rank), coeff)
                continue
            for factor, wd2 in _apply_rule(wd, pick(ps)):
                _accum(nxt, wd2, coeff * factor)
        pending = {w: c for w, c in nxt.items() if c}
    return ZElement(rank, done)


def haar_monomial_alt(lam, mu, n: int) -> QRat:
    """h(z^lam w^mu) in its negative-base form, used as a cross-check:
    q-Pochhammers in base q^-2 with an explicit q-power."""
    lam, mu = tuple(lam), tuple(mu)
    if lam != mu:
        return ZERO
    value = QRat.q_power(-2 * sum((n - 1 - i) * lam[i] for i in range(n - 1)))
    for li in lam:
        value = value * qpoch(-2, -2, li)
    return value * qpoch(-2, -2, n - 1) / qpoch(-2, -2, sum(lam) + n - 1)
