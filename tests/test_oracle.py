"""The naive oracle agrees with the engine wherever both are defined."""

import random

from oracle import NaiveElement, gen_word, ladder_sum, naive_addition_sides, naive_normal_form
from qdisk.qfield import ONE, QRat
from qdisk.tensor import addition_lhs, addition_rhs
from reference import normal_order

Q2 = QRat.q_power(2)


def test_hand_checked_words():
    assert naive_normal_form({(("w", 1), ("z", 1)): ONE}, 2) == {((1, 0), (1, 0)): ONE}
    nf = naive_normal_form({(("w", 2), ("z", 2)): ONE}, 2)
    assert nf == {((0, 1), (0, 1)): ONE, ((1, 0), (1, 0)): ONE - Q2}
    assert naive_normal_form({(("z", 2), ("z", 1)): ONE}, 2) == {
        ((1, 1), (0, 0)): QRat.q_power(-1)}


def test_agrees_with_engine_on_random_words():
    rng = random.Random(20260814)
    for _ in range(120):
        rank = rng.randint(1, 4)
        length = rng.randint(0, 8)
        word = tuple((rng.choice("zw"), rng.randint(1, rank)) for _ in range(length))
        assert naive_normal_form({word: ONE}, rank) == normal_order(word, rank).terms, word


def test_naive_element_products_reduce_like_engine():
    x = gen_word("z", 2, 3) * gen_word("w", 2, 3) + ladder_sum(3, 3) * 2
    y = gen_word("w", 3, 3) * gen_word("z", 1, 3)
    raw = (x * y + y * x).words
    engine = {}
    for word, c in raw.items():
        for key, cc in normal_order(word, 3).terms.items():
            acc = engine.get(key)
            acc = c * cc if acc is None else acc + c * cc
            if acc:
                engine[key] = acc
            else:
                engine.pop(key, None)
    assert naive_normal_form(raw, 3) == engine


def test_addition_case_matches_engine():
    for variant in ("final", "precursor"):
        lhs, rhs = naive_addition_sides(1, 1, 1, variant)
        assert lhs == rhs, variant
        assert lhs == addition_lhs(1, 1, 1, variant).terms, variant
        assert rhs == addition_rhs(1, 1, 1, variant).terms, variant
