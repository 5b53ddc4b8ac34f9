"""Monomial codes (`qfield._id`): every key of the t-form is one integer, a tensor key two ids in one.

The round trip goes through the library's one decoder, `qfield._terms`; the moves of an id are checked
against the tuple-keyed `diskpoly._moves`; a planted move exponent must fail a verdict; and the width
guard is reached by narrowing the code width, never by issuing 2^_BITS ids."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import code, key_moves, key_of
from qdisk import diskpoly, qfield, tensor
from qdisk.qfield import Parts, _id, _terms


def keys(rank: int):
    vec = st.tuples(*[st.integers(0, 3)] * rank)
    return st.tuples(vec, vec)


ANY_KEY = st.integers(1, 5).flatmap(keys)
TENSOR_KEY = st.tuples(ANY_KEY, ANY_KEY)


@given(st.lists(st.one_of(ANY_KEY, TENSOR_KEY), min_size=1, max_size=12, unique=True))
@settings(max_examples=200, deadline=None)
def test_codes_round_trip_and_are_one_to_one(ks):
    codes = [code(key) for key in ks]
    assert len(set(codes)) == len(ks)
    assert [key_of(c) for c in codes] == ks
    assert list(_terms(Parts(tuple((c, 0, (1,)) for c in codes), 1))) == ks
    assert all(code(key) == c for key, c in zip(ks, codes))  # issued once


@given(ANY_KEY)
@settings(max_examples=200, deadline=None)
def test_the_moves_of_an_id_are_those_of_its_key(key):
    assert [(key_of(i), t) for i, t in diskpoly._id_moves(_id(key))] == list(key_moves(key))


def test_id_zero_is_no_factor():
    # never issued, so a tensor code is at least 2^_BITS; a code of one factor moves as the tensor code
    # (0, id), id 0 staying where it is, at t = 0
    assert qfield._KEYS[0] is None and diskpoly._id_moves(0) == ((0, 0),)
    assert all(code(((key, key), (key, key))) >> qfield._BITS for key in [(0,), (0, 0)])


def test_a_planted_move_exponent_fails_a_warm_verdict(monkeypatch):
    # Q_3's last move of the rank-3 unit key taken at q^-2 more: the warm Horner sum moves H by it
    assert tensor.verify_addition(3, 3, 2).passed
    lhs = tensor.scaled_lhs(3, 3, 2)[1]
    i, moves = _id(((0,) * 3,) * 2), diskpoly._id_moves
    *rest, (j, t) = moves(i)
    monkeypatch.setattr(diskpoly, "_id_moves", lambda x: (*rest, (j, t + 2)) if x == i else moves(x))
    verdict = tensor.verify_addition(3, 3, 2)
    assert not verdict.passed and verdict.residual_terms
    assert tensor.scaled_lhs(3, 3, 2)[1] != lhs


def test_an_id_past_the_code_width_raises(monkeypatch):
    # the next id needs one bit more than the width: it is refused, and ids issued before still hold
    known, fresh = ((0,), (0,)), ((7,) * 9, (5,) * 9)
    i, issued = _id(known), len(qfield._KEYS)
    monkeypatch.setattr(qfield, "_BITS", issued.bit_length() - 1)
    with pytest.raises(ValueError, match="monomial keys"):
        _id(fresh)
    assert fresh not in qfield._IDS and len(qfield._KEYS) == issued and _id(known) == i
