import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import naive_normal_form, pair_termwise, pairwise_mul, scalar_termwise
from reference import dim_h, dim_z, normal_order, normal_order_strategy
from qdisk.haar import _pair_haar, haar
from qdisk.qfield import ONE, QRat, ZERO, _is_qpow, _reduce, qpoch, solve_linear
from qdisk.tensor import LEFT_RANK, RANKS, RIGHT_RANK, _pair_sum, pair
from qdisk.zalgebra import (
    _PACK_MIN_PAIRS,
    _mono_mul,
    _tables,
    ANY_BIDEGREE,
    ZElement,
    bidegree,
    counit,
    embed,
    q_element,
    restrict,
    star,
    w_gen,
    z_gen,
)

qp = QRat.q_power


def words(rank, max_len=6):
    letter = st.tuples(st.sampled_from(["z", "w"]), st.integers(1, rank))
    return st.lists(letter, max_size=max_len).map(tuple)


def random_element(rng, rank, nterms=3, maxdeg=2):
    terms = {}
    for _ in range(nterms):
        lam = tuple(rng.randint(0, maxdeg) for _ in range(rank))
        mu = tuple(rng.randint(0, maxdeg) for _ in range(rank))
        terms[(lam, mu)] = QRat.from_int(rng.randint(-3, 3))
    return ZElement(rank, terms)


# ---------------------------------------------------------------- normal forms


def test_normal_order_examples():
    a = normal_order([("z", 2), ("z", 1)], 2)
    assert a.terms == {((1, 1), (0, 0)): qp(-1)}
    b = normal_order([("w", 2), ("z", 2)], 2)
    assert b.terms == {
        ((0, 1), (0, 1)): ONE,
        ((1, 0), (1, 0)): ONE - qp(2),
    }
    # already-normal words pass through unchanged
    c = normal_order([("z", 1), ("z", 2), ("w", 2), ("w", 1)], 2)
    assert c.terms == {((1, 1), (1, 1)): ONE}


def test_mul_matches_relations():
    w2, z2 = w_gen(2, 2), z_gen(2, 2)
    prod = w2 * z2
    assert prod == z2 * w2 + (ONE - qp(2)) * z_gen(1, 2) * w_gen(1, 2)


def test_rank_validation():
    with pytest.raises(ValueError):
        z_gen(3, 2)
    with pytest.raises(ValueError):
        normal_order([("z", 5)], 4)
    with pytest.raises(ValueError):
        z_gen(1, 2) * z_gen(1, 3)


def test_rank_is_a_positive_int_or_a_pair_of_them():
    assert ZElement.one((3, 2)).terms == {(((0,) * 3,) * 2, ((0,) * 2,) * 2): ONE}
    assert ZElement((3, 2)).ranks == (3, 2) and ZElement(3).ranks == (3,)
    for bad in (0, (3,), (3, 0), (3, 2, 1), "3"):
        with pytest.raises(ValueError):
            ZElement(bad)


@given(st.integers(2, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_confluence_of_strategies(rank, data):
    word = data.draw(words(rank))
    left = normal_order_strategy(word, rank, "leftmost")
    right = normal_order_strategy(word, rank, "rightmost")
    fast = normal_order(word, rank)
    assert left == right
    assert left == fast


@given(st.integers(2, 3), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_multiplication_associative(rank, seed):
    rng = random.Random(seed)
    a = random_element(rng, rank, nterms=2, maxdeg=1)
    b = random_element(rng, rank, nterms=2, maxdeg=1)
    c = random_element(rng, rank, nterms=2, maxdeg=1)
    assert (a * b) * c == a * (b * c)


def _keys(rank, degree):
    """Every monomial key (lam, mu) of Z_rank of total degree at most degree."""
    vectors = [v for v in itertools.product(range(degree + 1), repeat=rank) if sum(v) <= degree]
    return [(lam, mu) for lam in vectors for mu in vectors if sum(lam) + sum(mu) <= degree]


def _word(key):
    """The letters of z^lam w^mu: z's ascending, then w's descending by index."""
    lam, mu = key
    return (tuple(("z", i + 1) for i, e in enumerate(lam) for _ in range(e))
            + tuple(("w", i + 1) for i, e in reversed(list(enumerate(mu))) for _ in range(e)))


@pytest.mark.parametrize("rank,degree", [(1, 8), (2, 6), (3, 5)])
def test_structure_rows_match_the_naive_rewriter(rank, degree):
    # the mono and pair-Haar rows, read through _mono_mul and _pair_haar, of
    # each key pair (k1, k2) of total degree at most degree
    keys = _keys(rank, degree)
    pairs = [(k1, k2) for k1 in keys for k2 in keys
             if sum(map(sum, k1)) + sum(map(sum, k2)) <= degree]
    for k1, k2 in pairs:
        row = _mono_mul(rank, k1, k2)
        assert dict(row) == naive_normal_form({_word(k1) + _word(k2): ONE}, rank), (k1, k2)
        assert len({key for key, _ in row}) == len(row)
        for _, c in row:
            # nonzero, canonical and Laurent: what _packed_product packs
            assert type(c) is QRat and c and _is_qpow(c.den)
            assert (c.num, c.den) == _reduce(c.num, c.den)
        t, p, _ = _pair_haar(rank, k1, k2)
        assert t == sum(k1[0]) + sum(k2[0])
        assert p / qpoch(2, 2, t + rank - 1) == haar(ZElement(rank, dict(row)))


# ---------------------------------------------------------------- ladder identities


@pytest.mark.parametrize("n", [2, 3])
def test_q_ladder_identities(n):
    for k in range(1, n + 1):
        zk, wk = z_gen(k, n), w_gen(k, n)
        Qk = q_element(k, n)
        Qk1 = q_element(k - 1, n) if k > 1 else ZElement.zero(n)
        assert zk * wk == Qk - Qk1
        assert wk * zk == Qk - qp(2) * Qk1
        for i in range(1, n + 1):
            Qi = q_element(i, n)
            assert Qi * Qk == Qk * Qi
            if k > i:
                assert zk * Qi == qp(-2) * Qi * zk
                assert wk * Qi == qp(2) * Qi * wk
            else:
                assert zk * Qi == Qi * zk
                assert wk * Qi == Qi * wk


@pytest.mark.parametrize("n,k,m", [(2, 1, 2), (2, 2, 3), (3, 2, 2), (3, 3, 3)])
def test_power_product_expansions(n, k, m):
    zk, wk = z_gen(k, n), w_gen(k, n)
    Qk = q_element(k, n)
    Qk1 = q_element(k - 1, n) if k > 1 else ZElement.zero(n)
    lhs = zk ** m * wk ** m
    rhs = ZElement.one(n)
    for t in range(m):
        rhs = rhs * (Qk - qp(-2 * t) * Qk1)
    assert lhs == rhs
    lhs2 = wk ** m * zk ** m
    rhs2 = ZElement.one(n)
    for t in range(m):
        rhs2 = rhs2 * (Qk - qp(2 * (t + 1)) * Qk1)
    assert lhs2 == rhs2


@pytest.mark.parametrize("n", [2, 3])
def test_single_z_through_w_powers(n):
    # w_i^m z_i = q^(2m) z_i w_i^m + (1 - q^(2m)) w_i^(m-1) Q_i
    for i in range(1, n + 1):
        zi, wi = z_gen(i, n), w_gen(i, n)
        Qi = q_element(i, n)
        for m in range(1, 4):
            lhs = wi ** m * zi
            rhs = qp(2 * m) * zi * wi ** m + (ONE - qp(2 * m)) * wi ** (m - 1) * Qi
            assert lhs == rhs, (i, m)


@pytest.mark.parametrize("n,i,m", [(2, 1, 2), (2, 2, 2), (3, 2, 3), (3, 3, 2)])
def test_change_of_basis_exists(n, i, m):
    # (z_i w_i)^m and (w_i z_i)^m lie in the span of z_i^k w_i^k Q_i^(m-k)
    basis = [z_gen(i, n) ** k * w_gen(i, n) ** k * q_element(i, n) ** (m - k)
             for k in range(m + 1)]
    for target in [(z_gen(i, n) * w_gen(i, n)) ** m, (w_gen(i, n) * z_gen(i, n)) ** m]:
        keys = sorted({k for b in basis for k in b.terms} | set(target.terms))
        matrix = [[b.terms.get(key, ZERO) for b in basis] for key in keys]
        rhs = [target.terms.get(key, ZERO) for key in keys]
        sol = solve_linear(matrix, rhs)
        assert sol.consistent


@pytest.mark.parametrize("n", [2, 3, 4])
def test_central_element(n):
    Qn = q_element(n, n)
    for i in range(1, n + 1):
        assert Qn * z_gen(i, n) == z_gen(i, n) * Qn
        assert Qn * w_gen(i, n) == w_gen(i, n) * Qn


@pytest.mark.parametrize("n", [2, 3])
def test_centralizer_in_bidegree_one_one(n):
    # solve for all bidegree-(1,1) elements commuting with every generator
    keys = []
    for i in range(n):
        for j in range(n):
            lam = tuple(1 if t == i else 0 for t in range(n))
            mu = tuple(1 if t == j else 0 for t in range(n))
            keys.append((lam, mu))
    basis = [ZElement(n, {k: ONE}) for k in keys]
    gens = [z_gen(i, n) for i in range(1, n + 1)] + [w_gen(i, n) for i in range(1, n + 1)]
    rows, rhs = [], []
    for g in gens:
        diffs = [b * g - g * b for b in basis]
        out_keys = sorted({k for d in diffs for k in d.terms})
        for key in out_keys:
            rows.append([d.terms.get(key, ZERO) for d in diffs])
            rhs.append(ZERO)
    sol = solve_linear(rows, rhs)
    assert len(sol.nullspace) == 1
    # the single solution is proportional to Q_n
    vec = sol.nullspace[0]
    elem = ZElement.zero(n)
    for c, b in zip(vec, basis):
        elem = elem + c * b
    scale = next(iter(elem.terms.values()))
    assert elem == scale * q_element(n, n)


# ---------------------------------------------------------------- star, gradings


@given(st.integers(2, 3), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_star_is_an_antihomomorphism(rank, seed):
    rng = random.Random(seed)
    a = random_element(rng, rank, nterms=2, maxdeg=1)
    b = random_element(rng, rank, nterms=2, maxdeg=1)
    assert star(a * b) == star(b) * star(a)
    assert star(star(a)) == a
    assert star(a + b) == star(a) + star(b)


def test_star_examples():
    assert star(z_gen(1, 2)) == w_gen(1, 2)
    prod = z_gen(1, 2) * z_gen(2, 2)
    assert star(prod).terms == {((0, 0), (1, 1)): ONE}
    assert star(q_element(2, 2)) == q_element(2, 2)


def test_bidegree():
    assert bidegree(z_gen(1, 3) * w_gen(2, 3)) == (1, 1)
    assert bidegree(q_element(3, 3) - ZElement.one(3)) is None
    assert bidegree(ZElement.zero(2)) == ANY_BIDEGREE
    a = z_gen(1, 2) * z_gen(2, 2)
    b = w_gen(1, 2)
    la, ma = bidegree(a)
    lb, mb = bidegree(b)
    assert bidegree(a * b) == (la + lb, ma + mb)


# ---------------------------------------------------------------- maps


@pytest.mark.parametrize("n,s", [(3, 2), (4, 2), (4, 3)])
def test_embed_and_restrict_are_star_homomorphisms(n, s):
    rng = random.Random(n * 10 + s)
    a = random_element(rng, s, nterms=2, maxdeg=1)
    b = random_element(rng, s, nterms=2, maxdeg=1)
    assert embed(a * b, n) == embed(a, n) * embed(b, n)
    assert embed(star(a), n) == star(embed(a, n))
    c = random_element(rng, n, nterms=2, maxdeg=1)
    d = random_element(rng, n, nterms=2, maxdeg=1)
    assert restrict(c * d, s) == restrict(c, s) * restrict(d, s)
    assert restrict(star(c), s) == star(restrict(c, s))


def test_restrict_example():
    assert restrict(q_element(3, 3), 2) == q_element(2, 2)
    assert restrict(z_gen(1, 3), 2) == ZElement.zero(2)
    assert restrict(z_gen(2, 3), 2) == z_gen(1, 2)


def test_counit():
    assert counit(q_element(3, 3)) == ONE
    assert counit(q_element(2, 3)) == ZERO
    rng = random.Random(7)
    for _ in range(10):
        a = random_element(rng, 3, nterms=2, maxdeg=1)
        b = random_element(rng, 3, nterms=2, maxdeg=1)
        assert counit(a * b) == counit(a) * counit(b)


# ---------------------------------------------------------------- dimensions


def test_dimensions():
    assert dim_z(1, 1, 2) == 4
    assert dim_h(1, 1, 2) == 3
    # dim_z counts the monomial basis of the slice
    for n in (2, 3):
        for l in range(3):
            for m in range(3):
                count = 0
                for lam in _compositions(l, n):
                    for mu in _compositions(m, n):
                        count += 1
                assert count == dim_z(l, m, n)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_dim_h_is_a_difference_of_slices():
    # the sphere relation identifies the (l, m) slice with Z(l, m) minus Q_n * Z(l-1, m-1)
    for n in (2, 3, 4):
        for l in range(4):
            for m in range(4):
                lower = dim_z(l - 1, m - 1, n) if l and m else 0
                assert dim_h(l, m, n) == dim_z(l, m, n) - lower


# ---------------------------------------------------------------- serialization


def test_json_round_trip_and_order():
    rng = random.Random(3)
    a = random_element(rng, 3, nterms=5, maxdeg=2)
    obj = a.to_json()
    assert ZElement.from_json(obj) == a
    degrees = [sum(t["lambda"]) + sum(t["mu"]) for t in obj["terms"]]
    assert degrees == sorted(degrees, reverse=True)


def exponent_vectors(rank):
    return st.tuples(*[st.integers(0, 3)] * rank)


@st.composite
def elements(draw):
    rank = draw(st.integers(1, 3))
    keys = st.tuples(exponent_vectors(rank), exponent_vectors(rank))
    coeffs = st.builds(lambda n, d: QRat(n, d),
                       st.lists(st.integers(-5, 5), max_size=3),
                       st.lists(st.integers(-5, 5), min_size=1, max_size=3).filter(any))
    return ZElement(rank, draw(st.dictionaries(keys, coeffs, max_size=5)))


@given(elements())
@settings(max_examples=60)
def test_json_round_trip_property(a):
    assert ZElement.from_json(a.to_json()) == a
    assert ZElement.from_json(a.to_json()).to_json() == a.to_json()


@given(elements(), st.data())
@settings(max_examples=60)
def test_from_json_rejects_bad_exponent_vectors(a, data):
    obj = ZElement(a.rank, {((0,) * a.rank, (0,) * a.rank): ONE}).to_json()
    term = obj["terms"][0]
    field = data.draw(st.sampled_from(["lambda", "mu"]))
    bad = data.draw(st.one_of(
        st.lists(st.integers(0, 3), max_size=5).filter(lambda v: len(v) != a.rank),
        st.lists(st.integers(-3, 3), min_size=a.rank, max_size=a.rank)
        .filter(lambda v: min(v) < 0)))
    term[field] = bad
    with pytest.raises(ValueError):
        ZElement.from_json(obj)


def test_from_json_rejects_the_reported_inputs():
    one = ONE.to_json()
    short = {"rank": 2, "terms": [{"lambda": [1], "mu": [0, 0], "coeff": one}]}
    negative = {"rank": 2, "terms": [{"lambda": [-1, 0], "mu": [0, 0], "coeff": one}]}
    for obj in (short, negative):
        with pytest.raises(ValueError, match="nonnegative exponents"):
            ZElement.from_json(obj)


def test_json_term_order_breaks_ties_lexicographically():
    a = ZElement(2, {((1, 0), (0, 0)): ONE, ((0, 1), (0, 0)): ONE})
    lams = [tuple(t["lambda"]) for t in a.to_json()["terms"]]
    # reversed-lambda sequences compared descending: (0,1) sorts before (1,0)
    assert lams == [(0, 1), (1, 0)]


@pytest.mark.parametrize("obj", [
    {"rank": 2, "terms": [{"lambda": 1, "mu": [0, 0], "coeff": ONE.to_json()}]},
    {"rank": 2, "terms": [{"lambda": "10", "mu": [0, 0], "coeff": ONE.to_json()}]},
    {"rank": 2, "terms": [{"mu": [0, 0], "coeff": ONE.to_json()}]},
    {"rank": 2, "terms": [{"lambda": [1, 0], "mu": [0, 0]}]},
    {"rank": 2, "terms": [{"lambda": [1, 0], "mu": [0, 0], "coeff": 1}]},
    {"rank": 2},
    {"terms": []},
    {"rank": 2, "terms": [7]},
    {"rank": 2, "terms": {"lambda": [1, 0]}},
    [],
])
def test_from_json_raises_value_error_on_malformed_documents(obj):
    with pytest.raises(ValueError):
        ZElement.from_json(obj)


LEFT_UNIT = ((0, 0, 0), (0, 0, 0))


@pytest.mark.parametrize("call", [
    # coefficients: ints and QRats only, no float or string enters Q(q)
    lambda: ZElement(2, {((1, 0), (0, 0)): 1.5}),
    lambda: ZElement.scalar(2.5, 2),
    lambda: ZElement.monomial(2, (1, 0), (0, 0), 0.5),
    lambda: ZElement.monomial(2, (1, 0), (0, 0), "x"),
    lambda: QRat.from_int(1.5),
    # keys: two tuples of rank nonnegative int exponents, one pair per tensor factor
    lambda: ZElement(2, {((1,), (0,)): 1}),
    lambda: ZElement(2, {((-1, 0), (0, 0)): 1}),
    lambda: ZElement(2, {((1, 0), (0, 0.0)): 1}),
    lambda: ZElement(2, {((1, 0), (0, 0), (0, 0)): 1}),
    lambda: ZElement(2, {"z1": 1}),
    lambda: ZElement(2, {((-1, 0), (0, 0)): 0}),
    lambda: ZElement(RANKS, {(LEFT_UNIT, ((1,), (0, 0))): 1}),
    lambda: ZElement(RANKS, {(LEFT_UNIT,): 1}),
    lambda: ZElement(RANKS, {((0, 0, 0), (0, 0, 0)): 1}),
    lambda: ZElement.monomial(2, (1, 0, 0), (0, 0)),
    lambda: ZElement.monomial(2, (1, -1), (0, 0)),
], ids=range(16))
def test_element_terms_are_checked_at_construction(call):
    with pytest.raises(ValueError):
        call()


def test_the_key_message_names_the_rule():
    for bad in (((1,), (0,)), ((-1, 0), (0, 0))):
        with pytest.raises(ValueError, match="exponents must be nonnegative integers.*"
                                             "nonnegative exponents"):
            ZElement(2, {bad: 1})


# ---------------------------------------------------------------- element products


def coefficients(laurent):
    """Numerators with small or >= 2^40 integers, over 1 or q^j, and unless
    laurent also over (1 - q^k)."""
    ints = st.one_of(st.integers(-3, 3), st.integers(2 ** 40, 2 ** 42), st.integers(-2 ** 42, -2 ** 40))
    num = st.lists(ints, min_size=1, max_size=4).map(QRat)
    dens = [st.just(ONE), st.integers(1, 5).map(qp)]
    if not laurent:
        dens.append(st.integers(1, 4).map(lambda k: ONE - qp(k)))
    return st.tuples(num, st.one_of(dens)).map(lambda nd: nd[0] / nd[1]).filter(bool)


def monomials(rank):
    vec = st.tuples(*[st.integers(0, 2)] * rank)
    return st.tuples(vec, vec)


def terms_of(keys, size, laurent):
    return st.lists(st.tuples(keys, coefficients(laurent)), min_size=size[0], max_size=size[1],
                    unique_by=lambda t: t[0]).map(dict)


# term counts per side with all products under, respectively at or over, the
# cutoff; over it, Laurent coefficients take the packed path and others mostly not
SMALL, LARGE = (1, 3), (4, 7)


@given(st.integers(1, 3), st.booleans(), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_zelement_product_equals_the_pairwise_oracle(rank, large, laurent, data):
    size = LARGE if large else SMALL
    a = ZElement(rank, data.draw(terms_of(monomials(rank), size, laurent)))
    b = ZElement(rank, data.draw(terms_of(monomials(rank), size, laurent)))
    assert (len(a.terms) * len(b.terms) >= _PACK_MIN_PAIRS) == large
    assert a * b == pairwise_mul(a, b)


@given(st.booleans(), st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_tensor_product_equals_the_pairwise_oracle(large, laurent, data):
    size = LARGE if large else SMALL
    keys = st.tuples(monomials(LEFT_RANK), monomials(RIGHT_RANK))
    a = ZElement((LEFT_RANK, RIGHT_RANK), data.draw(terms_of(keys, size, laurent)))
    b = ZElement((LEFT_RANK, RIGHT_RANK), data.draw(terms_of(keys, size, laurent)))
    assert (len(a.terms) * len(b.terms) >= _PACK_MIN_PAIRS) == large
    assert a * b == pairwise_mul(a, b)


def test_packed_product_at_the_bound():
    # Z_1 is commutative, so every structure-constant row is one entry 1 (S = 1)
    # and the unit monomial of a * b gets only n * m, which is over half of the
    # bound |a| |b| S: one bit less of digit width would misread it
    n = m = 3 * 2 ** 40
    unit = ((0,), (0,))
    a = ZElement(1, {unit: n, **{((i,), (0,)): 1 for i in range(1, 5)}})
    b = ZElement(1, {unit: m, **{((0,), (j,)): -1 for j in range(1, 5)}})
    assert len(a.terms) * len(b.terms) >= _PACK_MIN_PAIRS
    bound = (n + 4) * (m + 4)
    assert n * m > 2 ** (bound.bit_length() - 1)
    product = a * b
    assert product.coefficient((0,), (0,)) == n * m
    assert product == pairwise_mul(a, b)
    assert (-a) * b == -product


def _multi_term_rows(a, b, ranks):
    """How many structure rows of a * b hold a constant with two or more
    nonzero numerator coefficients."""
    rows = [row for table in _tables(a.terms, b.terms, ranks) for row in table.values()]
    return sum(any(sum(map(bool, c.num)) > 1 for _, c in row) for row in rows)


def top_keys(rank, side):
    """Keys of Z_rank with a w_rank (side "w") or a z_rank (side "z") factor:
    the rows of w^mu z^lam then carry (1 - q^2)-sums over powers of q."""
    vec = st.tuples(*[st.integers(0, 1)] * (rank - 1), st.integers(1, 3))
    zero = st.just((0,) * rank)
    return st.tuples(zero, vec) if side == "w" else st.tuples(vec, zero)


@given(st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_shifted_constants_equal_the_pairwise_oracle(tensor, data):
    # packed products whose rows hold multi-term constants over q^k, with
    # coefficients over mixed powers of q on both sides: w_3^a z_3^b in Z_3,
    # and in Z_3 (x) Z_2 with w_2^c z_2^d on the right
    ranks = RANKS if tensor else (3,)
    keys = {side: st.tuples(*(top_keys(rank, side) for rank in ranks)) if tensor
            else top_keys(3, side) for side in "wz"}
    a = ZElement(RANKS if tensor else 3, data.draw(terms_of(keys["w"], LARGE, True)))
    b = ZElement(RANKS if tensor else 3, data.draw(terms_of(keys["z"], LARGE, True)))
    assert len(a.terms) * len(b.terms) >= _PACK_MIN_PAIRS and _multi_term_rows(a, b, ranks)
    assert a * b == pairwise_mul(a, b)


def long_coefficients(laurent):
    """Like `coefficients`, with numerators of up to 16 terms."""
    ints = st.one_of(st.integers(-3, 3), st.integers(-2 ** 42, 2 ** 42))
    num = st.lists(ints, min_size=1, max_size=16).map(QRat)
    dens = [st.just(ONE), st.integers(1, 5).map(qp)]
    if not laurent:
        dens.append(st.integers(1, 4).map(lambda k: ONE - qp(k)))
    return st.tuples(num, st.one_of(dens)).map(lambda nd: nd[0] / nd[1]).filter(bool)


def long_terms(rank, laurent):
    return st.dictionaries(monomials(rank), long_coefficients(laurent), min_size=0, max_size=5)


@given(st.booleans(), st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_scalar_products_equal_the_termwise_oracle(laurent, laurent_scalar, data):
    # numerators of 1 to 16 terms, with and without non-Laurent coefficients
    a = ZElement(2, data.draw(long_terms(2, laurent)))
    c = data.draw(long_coefficients(laurent_scalar))
    assert a * c == c * a == scalar_termwise(a, c)
    assert a * 3 == scalar_termwise(a, QRat.from_int(3)) and (a * 0).is_zero()


@given(st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_pair_equals_the_termwise_oracle(laurent, data):
    left = ZElement(LEFT_RANK, data.draw(long_terms(LEFT_RANK, laurent)))
    right = ZElement(RIGHT_RANK, data.draw(long_terms(RIGHT_RANK, True)))
    assert pair(left, right) == pair_termwise(left, right)


@given(st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_pair_sum_equals_the_termwise_oracle(laurent, data):
    # pieces that share their keys (one piece scaled) and cancel (one negated)
    sides = [(ZElement(LEFT_RANK, data.draw(long_terms(LEFT_RANK, laurent))),
              ZElement(RIGHT_RANK, data.draw(long_terms(RIGHT_RANK, True))))
             for _ in range(data.draw(st.integers(1, 3)))]
    left, right = sides[0]
    sides += [(left, right * data.draw(long_coefficients(True))), (left, -right)]
    want = ZElement.zero(RANKS)
    for left, right in sides:
        want = want + pair_termwise(left, right)
    assert ZElement(RANKS, _pair_sum(sides)) == want
