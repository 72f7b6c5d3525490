import functools
import itertools
import random

import pytest

from tangles.words import (
    FREE_PRODUCT_UNIT,
    FreeProductElement,
    LEFT,
    RIGHT,
    MonoidError,
    PointedMonoid,
    alternating_factorization,
    concat,
    free_product_enumerate,
    free_product_listing,
    free_product_multiply,
    free_product_normalize,
    free_product_totals,
    free_product_walk,
    is_alternating,
    letter_text,
    stratified_counts,
)


def test_concat():
    assert concat([]) == ()
    assert concat(["01", "10"]) == tuple("0110")
    assert concat(["0", "", "1"]) == tuple("01")


def test_is_alternating():
    assert is_alternating("0101")
    assert not is_alternating("00")
    assert is_alternating("")
    assert is_alternating("0")


def test_factorization_examples():
    assert alternating_factorization("0110") == [tuple("01"), tuple("10")]
    assert alternating_factorization("0101") == [tuple("0101")]
    assert alternating_factorization("000") == [("0",), ("0",), ("0",)]
    assert alternating_factorization("") == []


def minimal_factor_count(w):
    """Brute-force minimum over all factorizations into alternating words."""

    @functools.lru_cache(maxsize=None)
    def best(i):
        if i == len(w):
            return 0
        out = None
        for j in range(i + 1, len(w) + 1):
            if is_alternating(w[i:j]):
                tail = best(j)
                if out is None or 1 + tail < out:
                    out = 1 + tail
        assert out is not None
        return out

    return best(0)


def test_factorization_minimal_short_words():
    for n in range(0, 9):
        for w in itertools.product("01", repeat=n):
            factors = alternating_factorization(w)
            assert concat(factors) == w
            assert all(f and is_alternating(f) for f in factors)
            assert len(factors) == (minimal_factor_count(w) if w else 0)


def test_factorization_roundtrip_random():
    rng = random.Random(5)
    for _ in range(300):
        w = tuple(rng.choice("abc") for _ in range(rng.randrange(0, 20)))
        assert concat(alternating_factorization(w)) == w


# ---------------------------------------------------------------------------
# pointed monoids and free products


def fx():
    return PointedMonoid.free("x")


def fy():
    return PointedMonoid.free("y")


def el(*letters):
    return FreeProductElement(tuple(letters))


def test_monoid_validation():
    with pytest.raises(MonoidError):
        PointedMonoid.from_table("bad-unit", [[0, 1], [0, 1]])  # 1*0 = 0 breaks unit law
    with pytest.raises(MonoidError):
        # (1*1)*2 = 1 but 1*(1*2) = 2
        PointedMonoid.from_table("bad-assoc", [[0, 1, 2], [1, 2, 1], [2, 1, 1]])


@pytest.mark.parametrize(
    "table, unit",
    [([[0, 1], [1, 7]], 0), ([[0, 1], [1, -1]], 0), ([[0, 1.0], [1.0, 0]], 0), ([[0, 1], [1, 1]], 5), ([], 0)],
    ids=["entry-past-n", "negative-entry", "float-entry", "unit-past-n", "empty-table"],
)
def test_from_table_refuses_an_element_outside_the_table(table, unit):
    with pytest.raises(MonoidError, match=r"must be an int in range\("):
        PointedMonoid.from_table("bad", table, unit=unit)


def test_free_refuses_a_repeated_letter():
    with pytest.raises(MonoidError, match="repeated"):
        PointedMonoid.free("xx")
    assert PointedMonoid.free("xy").nonunits(2) == [("x",), ("y",)] + list(itertools.product("xy", repeat=2))


def test_alternation_enforced():
    with pytest.raises(MonoidError):
        el((LEFT, ("x",)), (LEFT, ("x",)))


def test_free_product_merge_within_factor():
    A, B = fx(), fy()
    u = el((LEFT, ("x", "x")))
    v = el((LEFT, ("x",)), (RIGHT, ("y",)))
    assert free_product_multiply(A, B, u, v) == el((LEFT, ("x", "x", "x")), (RIGHT, ("y",)))


def test_free_product_merge_middle():
    A, B = fx(), fy()
    u = el((LEFT, ("x",)), (RIGHT, ("y",)))
    v = el((RIGHT, ("y",)), (LEFT, ("x",)))
    assert free_product_multiply(A, B, u, v) == el(
        (LEFT, ("x",)), (RIGHT, ("y", "y")), (LEFT, ("x",))
    )


def test_free_product_unit_laws():
    A, B = PointedMonoid.cyclic(2), PointedMonoid.cyclic(3)
    for u in free_product_enumerate(A, B, 3):
        assert free_product_multiply(A, B, u, FREE_PRODUCT_UNIT) == u
        assert free_product_multiply(A, B, FREE_PRODUCT_UNIT, u) == u


def test_free_product_cancellation():
    # in Z/2 * Z/2 the same letter squares away, and cancellation cascades
    A = B = PointedMonoid.cyclic(2)
    g = el((LEFT, 1))
    assert free_product_multiply(A, B, g, g) == FREE_PRODUCT_UNIT
    gh = el((LEFT, 1), (RIGHT, 1))
    hg = el((RIGHT, 1), (LEFT, 1))
    assert free_product_multiply(A, B, gh, hg) == FREE_PRODUCT_UNIT
    assert free_product_multiply(A, B, gh, gh) == el(
        (LEFT, 1), (RIGHT, 1), (LEFT, 1), (RIGHT, 1)
    )


def test_free_product_associative_random():
    rng = random.Random(11)
    cases = [
        (PointedMonoid.cyclic(2), PointedMonoid.cyclic(3)),
        (PointedMonoid.cyclic(3), PointedMonoid.cyclic(3)),
        (fx(), PointedMonoid.cyclic(2)),
    ]
    for A, B in cases:
        pool = free_product_enumerate(A, B, 3)
        for _ in range(200):
            u, v, w = (rng.choice(pool) for _ in range(3))
            left = free_product_multiply(A, B, free_product_multiply(A, B, u, v), w)
            right = free_product_multiply(A, B, u, free_product_multiply(A, B, v, w))
            assert left == right


def test_enumerate_z2_z2_length5():
    A = B = PointedMonoid.cyclic(2)
    elements = free_product_enumerate(A, B, 5)
    assert len(elements) == 11  # the unit plus two per alternation length 1..5
    lengths = sorted(e.alternation_length() for e in elements)
    assert lengths == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


def test_enumerate_trivial_factor():
    A = PointedMonoid.trivial()
    B = PointedMonoid.cyclic(3)
    elements = free_product_enumerate(A, B, 4)
    # only B's contributions survive: unit plus the two nonunits of Z/3
    assert sorted(e.alternation_length() for e in elements) == [0, 1, 1]


def test_free_on_two_generators_oracle():
    # F(x) * F(y) is the free monoid on {x, y}, compared through weight 4
    A, B = fx(), fy()
    elements = free_product_enumerate(A, B, 4)

    def flatten(e: FreeProductElement) -> tuple:
        out = []
        for _, letters in e.letters:
            out.extend(letters)
        return tuple(out)

    images = sorted(flatten(e) for e in elements)
    expected = sorted(
        w for n in range(5) for w in itertools.product("xy", repeat=n)
    )
    assert images == expected
    # multiplication agrees with concatenation wherever the product stays in range
    pool = list(elements)
    for u in pool:
        for v in pool:
            w = free_product_multiply(A, B, u, v)
            assert flatten(w) == flatten(u) + flatten(v)


def test_stratified_counts_z2_z3():
    A, B = PointedMonoid.cyclic(2), PointedMonoid.cyclic(3)
    na, nb = 1, 2  # nonunit counts
    elements = free_product_enumerate(A, B, 6)
    counts = stratified_counts(elements)
    # closed form by (first, last) tag and alternation length <= 6
    expect = {("", ""): 1}
    expect[(LEFT, LEFT)] = sum(na * (nb * na) ** k for k in range(3))  # lengths 1,3,5
    expect[(RIGHT, RIGHT)] = sum(nb * (na * nb) ** k for k in range(3))
    expect[(LEFT, RIGHT)] = sum((na * nb) ** (k + 1) for k in range(3))  # lengths 2,4,6
    expect[(RIGHT, LEFT)] = sum((nb * na) ** (k + 1) for k in range(3))
    assert counts == expect


def test_normalize_drops_units():
    A, B = PointedMonoid.cyclic(2), PointedMonoid.cyclic(2)
    raw = [(LEFT, 0), (RIGHT, 1), (RIGHT, 1), (LEFT, 1), (LEFT, 0)]
    assert free_product_normalize(A, B, raw) == el((LEFT, 1))


def _enumerate_by_recursion(A, B, max_weight):
    """free_product_enumerate as it was first written: one recursive call
    per letter, so its depth is the weight bound."""
    found = [FREE_PRODUCT_UNIT]

    def extend(prefix, remaining, last_side):
        for side in (LEFT, RIGHT):
            if side == last_side:
                continue
            monoid = A if side == LEFT else B
            for w in range(1, remaining + 1):
                for el in dict(monoid.graded(w)).get(w, []):
                    element = prefix + ((side, el),)
                    found.append(FreeProductElement(element))
                    extend(element, remaining - w, side)

    extend((), max_weight, None)
    return found


def test_enumerate_lists_the_recursive_order_for_every_monoid_pair():
    from tangles.cli import _MONOIDS

    for left, right in itertools.product(sorted(_MONOIDS), repeat=2):
        A, B = _MONOIDS[left](), _MONOIDS[right]()
        for bound in range(9):
            assert free_product_enumerate(A, B, bound) == _enumerate_by_recursion(A, B, bound), (
                left, right, bound
            )


def test_enumerate_walks_past_the_recursion_limit():
    import sys

    bound = sys.getrecursionlimit() + 500
    elements = free_product_enumerate(PointedMonoid.cyclic(2), PointedMonoid.cyclic(2), bound)
    assert len(elements) == 2 * bound + 1
    assert max(e.alternation_length() for e in elements) == bound


def test_listing_is_the_sorted_text_of_the_enumeration_for_every_monoid_pair():
    from tangles.cli import _MONOIDS

    for left, right in itertools.product(sorted(_MONOIDS), repeat=2):
        A, B = _MONOIDS[left](), _MONOIDS[right]()
        for bound in range(9):
            elements = free_product_enumerate(A, B, bound)
            texts = sorted((e.alternation_length(), str(e)) for e in elements)
            assert free_product_listing(A, B, bound) == texts, (left, right, bound)
            *_, last = free_product_totals(A, B, bound, {LEFT: [], RIGHT: []})
            assert last == (bound, len(texts), sum(len(text) + 1 for _, text in texts)), (left, right, bound)


def test_walk_spells_each_element_from_its_parent_in_enumeration_order():
    A, B = PointedMonoid.cyclic(3), PointedMonoid.free("x")
    elements = free_product_enumerate(A, B, 6)
    spelled = {side: [(w, [(side, el)]) for w, nonunits in m.graded(6) for el in nonunits]
               for side, m in ((LEFT, A), (RIGHT, B))}
    walk = list(free_product_walk(spelled, 6, ["|"]))
    assert len(walk) == len(elements) - 1
    for (length, spelling), e in zip(walk, elements[1:]):
        expected = []
        for k, letter in enumerate(e.letters):
            expected += (["|"] if k else []) + [letter]
        assert (length, spelling) == (e.alternation_length(), expected)


def test_walk_refuses_a_negative_bound():
    with pytest.raises(MonoidError, match="got -1"):
        list(free_product_walk({side: [(1, letter_text(side, 1))] for side in (LEFT, RIGHT)}, -1))
    with pytest.raises(MonoidError, match="got -1"):
        free_product_listing(PointedMonoid.cyclic(2), PointedMonoid.cyclic(2), -1)


@pytest.mark.parametrize("left, right, count", [("z4", "trivial", 4), ("trivial", "trivial", 1)])
def test_a_product_of_table_monoids_is_counted_and_listed_to_a_bound_of_ten_million_at_once(left, right, count):
    import time

    from tangles.cli import _MONOIDS

    A, B = _MONOIDS[left](), _MONOIDS[right]()
    start = time.perf_counter()
    *_, last = free_product_totals(A, B, 10**7, {LEFT: [], RIGHT: []})
    listing = free_product_listing(A, B, 10**7)
    assert time.perf_counter() - start < 3
    assert len(listing) == count
    assert last == (10**7, count, sum(len(text) + 1 for _, text in listing))


def test_a_count_over_a_free_factor_is_linear_in_the_bound():
    import operator
    import time

    # the free monoid on one letter, each element its length: free("x") with
    # short letter texts (free("x") itself spells 5w characters at weight w)
    lengths = PointedMonoid("N", 0, operator.add, lambda: ([w] for w in itertools.count(1)))
    trivial = PointedMonoid.trivial()
    counts = [(w, n) for w, n, _ in free_product_totals(PointedMonoid.free("x"), trivial, 50, {LEFT: [], RIGHT: []})]
    assert counts == [(w, n) for w, n, _ in free_product_totals(lengths, trivial, 50, {LEFT: [], RIGHT: []})]
    start = time.perf_counter()
    *_, last = free_product_totals(lengths, trivial, 20000, {LEFT: [], RIGHT: []})
    assert time.perf_counter() - start < 3  # a sum over every letter weight read takes 2 * 10^8 steps
    assert last == (20000, 20001, 2 + sum(len(letter_text(LEFT, w)) + 1 for w in range(1, 20001)))


def test_a_listing_reads_each_grading_once_and_spells_each_letter_once(monkeypatch):
    from tangles import words

    reads, spelled = [], []

    def counted(monoid):
        def grading():
            reads.append(monoid.name)
            return monoid.grading()

        return PointedMonoid(monoid.name, monoid.unit, monoid.multiply, grading)

    def text(side, el):
        spelled.append((side, el))
        return letter_text(side, el)

    monkeypatch.setattr(words, "letter_text", text)
    for A, B, bound, letters in [
        (PointedMonoid.cyclic(4), PointedMonoid.cyclic(3), 5, 3 + 2),
        (PointedMonoid.cyclic(2), PointedMonoid.free("xy"), 4, 1 + 2 + 4 + 8 + 16),
    ]:
        A, B = counted(A), counted(B)
        reads.clear()
        spelled.clear()
        listing = free_product_listing(A, B, bound)
        assert sorted(reads) == sorted([A.name, B.name])
        assert len(spelled) == len(set(spelled)) == letters
        assert listing == sorted((e.alternation_length(), str(e)) for e in free_product_enumerate(A, B, bound))
