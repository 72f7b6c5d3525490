"""Words over an alphabet, alternating factorizations, and free products of
pointed monoids.

A word is any finite sequence of letters; the functions here treat it as a
tuple.  A word is alternating when no two consecutive letters agree, and
``alternating_factorization`` produces the unique minimal factorization of
a word into alternating pieces, obtained by cutting exactly between equal
consecutive letters.

``PointedMonoid`` packages a monoid whose nonunit elements can be
enumerated by a weight bound: finite monoids are given by multiplication
tables (every nonunit has weight 1), free monoids by their letter tuples
(weight = letter count).  The free product A * B of two such monoids has a
normal form: alternating sequences of tagged nonunit letters, with
adjacent letters from different factors.  Multiplication concatenates and
then merges adjacent same-side letters, deleting any units produced; each
merge strictly decreases the letter count, so the loop terminates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

Word = tuple

LEFT = "L"
RIGHT = "R"
LISTING_LIMIT = 1 << 20  # the most elements free_product_listing lists
LISTING_TEXT_LIMIT = 1 << 26  # the most characters of text it builds, a newline after each element


def concat(ws: Iterable[Sequence]) -> Word:
    """In-order join of finitely many words."""
    out: list = []
    for w in ws:
        out.extend(w)
    return tuple(out)


def is_alternating(w: Sequence) -> bool:
    """True when no two consecutive letters of w agree; empty words qualify."""
    return all(a != b for a, b in zip(w, w[1:]))


def alternating_factorization(w: Sequence) -> list[Word]:
    """Minimal factorization of w into nonempty alternating words.

    Cuts are placed exactly between equal consecutive letters, which
    realizes the minimum number of factors over all factorizations into
    alternating words.
    """
    if not w:
        return []
    factors: list[Word] = []
    start = 0
    for i in range(1, len(w)):
        if w[i] == w[i - 1]:
            factors.append(tuple(w[start:i]))
            start = i
    factors.append(tuple(w[start:]))
    return factors


class MonoidError(ValueError):
    """Raised for malformed monoid data or elements."""


class PointedMonoid:
    """A monoid with a distinguished unit and weight-graded enumeration.

    ``elements_by_weight(n)`` must return the (finite) list of nonunit
    elements of weight exactly n >= 1.  The unit laws (on weights up to 2)
    and associativity (on weights up to 1) are checked at construction; a
    table that makes ``is_unit`` hold for more than one listed element is
    rejected.
    """

    def __init__(
        self,
        name: str,
        unit: Hashable,
        multiply: Callable[[Hashable, Hashable], Hashable],
        elements_by_weight: Callable[[int], list],
    ):
        self.name = name
        self.unit = unit
        self._multiply = multiply
        self._elements_by_weight = elements_by_weight
        self._validate()

    def multiply(self, a: Hashable, b: Hashable) -> Hashable:
        return self._multiply(a, b)

    def is_unit(self, a: Hashable) -> bool:
        return a == self.unit

    def nonunits(self, max_weight: int) -> list:
        out = []
        for n in range(1, max_weight + 1):
            out.extend(self._elements_by_weight(n))
        return out

    def elements(self, max_weight: int) -> list:
        return [self.unit] + self.nonunits(max_weight)

    def _validate(self) -> None:
        elems = self.elements(2)
        if sum(1 for e in elems if self.is_unit(e)) != 1:
            raise MonoidError(f"{self.name}: unit must appear exactly once")
        for a in elems:
            if self.multiply(a, self.unit) != a or self.multiply(self.unit, a) != a:
                raise MonoidError(f"{self.name}: unit law fails at {a!r}")
        small = self.elements(1)
        for a, b, c in itertools.product(small, repeat=3):
            left = self.multiply(self.multiply(a, b), c)
            right = self.multiply(a, self.multiply(b, c))
            if left != right:
                raise MonoidError(f"{self.name}: associativity fails at {(a, b, c)}")

    def __repr__(self) -> str:
        return f"PointedMonoid({self.name})"

    @staticmethod
    def from_table(name: str, table: Sequence[Sequence[int]], unit: int = 0) -> "PointedMonoid":
        """Finite monoid on 0..n-1 from its multiplication table."""
        n = len(table)
        if any(len(row) != n for row in table):
            raise MonoidError("table must be square")
        rows = tuple(tuple(row) for row in table)
        others = [i for i in range(n) if i != unit]

        def mult(a, b):
            return rows[a][b]

        def by_weight(w):
            return list(others) if w == 1 else []

        return PointedMonoid(name, unit, mult, by_weight)

    @staticmethod
    def cyclic(n: int) -> "PointedMonoid":
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return PointedMonoid.from_table(f"Z/{n}", table)

    @staticmethod
    def trivial() -> "PointedMonoid":
        return PointedMonoid.from_table("1", [[0]])

    @staticmethod
    def free(letters: Sequence[str]) -> "PointedMonoid":
        """Free monoid on the given letters; elements are letter tuples."""
        alphabet = tuple(letters)

        def mult(a, b):
            return tuple(a) + tuple(b)

        def by_weight(w):
            return [p for p in itertools.product(alphabet, repeat=w)]

        return PointedMonoid("F(" + ",".join(alphabet) + ")", (), mult, by_weight)


UNIT_TEXT = "1"  # the text of the unit of a free product


def letter_text(side: str, el: Hashable) -> str:
    """The text of one letter of a free product element, as in ``str``."""
    return f"{side}:{el}"


@dataclass(frozen=True)
class FreeProductElement:
    """Normal form of an element of the free product A * B: an alternating
    tuple of (side, element) pairs, sides in {L, R}, no element a unit."""

    letters: tuple[tuple[str, Hashable], ...]

    def __post_init__(self) -> None:
        for side, _ in self.letters:
            if side not in (LEFT, RIGHT):
                raise MonoidError(f"bad side tag {side!r}")
        for (s1, _), (s2, _) in zip(self.letters, self.letters[1:]):
            if s1 == s2:
                raise MonoidError("adjacent letters must come from different factors")

    def is_unit(self) -> bool:
        return not self.letters

    def alternation_length(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return UNIT_TEXT
        return "*".join(letter_text(side, el) for side, el in self.letters)


FREE_PRODUCT_UNIT = FreeProductElement(())


def check_element(A: PointedMonoid, B: PointedMonoid, u: FreeProductElement) -> None:
    for side, el in u.letters:
        monoid = A if side == LEFT else B
        if monoid.is_unit(el):
            raise MonoidError(f"letter {el!r} is the unit of {monoid.name}")


def free_product_normalize(
    A: PointedMonoid, B: PointedMonoid, letters: Sequence[tuple[str, Hashable]]
) -> FreeProductElement:
    """Merge adjacent same-side letters and delete units until alternating.

    Each merge removes at least one letter, so this terminates.
    """
    stack: list[tuple[str, Hashable]] = []
    for side, el in letters:
        monoid = A if side == LEFT else B
        if monoid.is_unit(el):
            continue
        stack.append((side, el))
        while len(stack) >= 2 and stack[-1][0] == stack[-2][0]:
            side2, b = stack.pop()
            _, a = stack.pop()
            monoid = A if side2 == LEFT else B
            prod = monoid.multiply(a, b)
            if not monoid.is_unit(prod):
                stack.append((side2, prod))
    return FreeProductElement(tuple(stack))


def free_product_multiply(
    A: PointedMonoid, B: PointedMonoid, u: FreeProductElement, v: FreeProductElement
) -> FreeProductElement:
    """Product in A * B: concatenate then renormalize."""
    check_element(A, B, u)
    check_element(A, B, v)
    return free_product_normalize(A, B, u.letters + v.letters)


def free_product_walk(
    A: PointedMonoid,
    B: PointedMonoid,
    max_weight: int,
    spell: Callable[[str, Hashable], Sequence],
    glue: Sequence = (),
) -> Iterator[tuple[int, Sequence]]:
    """Every element of A * B of total weight in 1..max_weight, depth first
    (an element, then its extensions, then its next sibling), as
    (alternation length, spelling).

    An element's spelling is its parent's followed by its last letter's
    ``spell(side, el)``, with ``glue`` in between unless the parent is the
    unit, whose spelling is empty; each letter is spelled once, and each
    element's spelling is built once, from its parent's.  The walk keeps
    its own stack, so the bound is not limited by Python's recursion limit.
    """
    if max_weight < 0:
        raise MonoidError(f"weight bound must be >= 0, got {max_weight}")
    spelled = {  # side -> (weight, spelling) of its nonunits, lightest first
        side: [(w, spell(side, el)) for w in range(1, max_weight + 1) for el in m._elements_by_weight(w)]
        for side, m in ((LEFT, A), (RIGHT, B))
    }
    # an element's last side -> (weight, glued spelling, side) of the letters that may follow it
    after = {
        last: [(w, glue + sp, side) for w, sp in spelled[side]]
        for last, side in ((LEFT, RIGHT), (RIGHT, LEFT))
    }
    stack = [iter([(sp, max_weight - w, side) for side in (LEFT, RIGHT) for w, sp in spelled[side]])]
    while stack:
        for spelling, remaining, last in stack[-1]:
            yield len(stack), spelling
            if remaining:
                stack.append(iter([(spelling + sp, remaining - w, side)
                                   for w, sp, side in after[last] if w <= remaining]))
                break
        else:
            stack.pop()


def free_product_enumerate(
    A: PointedMonoid, B: PointedMonoid, max_weight: int
) -> list[FreeProductElement]:
    """All elements of A * B of total weight <= max_weight, unit included,
    in the order of :func:`free_product_walk`.

    The weight of an element is the sum of the weights of its letters; for
    finite (table) monoids every letter has weight 1, so the bound is the
    alternation length.
    """
    walk = free_product_walk(A, B, max_weight, lambda side, el: ((side, el),))
    return [FREE_PRODUCT_UNIT] + [FreeProductElement(letters) for _, letters in walk]


def free_product_totals(A: PointedMonoid, B: PointedMonoid, max_weight: int) -> Iterator[tuple[int, int, int]]:
    """For each bound w from 0 to max_weight: w, the number of elements of
    A * B of total weight <= w (unit included), and the characters of their
    texts with a newline after each, counted by weight and last side
    without listing them.

    An element's text and newline are its parent's, one character (a ``*``
    or the newline) and its last letter's text; the unit, as a parent,
    brings nothing.  Letters are spelled only at weights that have
    nonunits, and each weight's sum runs over one side's letter weights;
    a side with no letters yet is skipped.
    """
    if max_weight < 0:
        return
    count, chars = 1, len(UNIT_TEXT) + 1
    yield 0, count, chars
    # per side: its monoid, its letters (weight -> nonunits, characters of their texts
    # plus one each), and the elements that end on it and on the other side (weight ->
    # elements, characters of their texts and newlines), the unit at 0 on both
    left, right = {0: (1, 0)}, {0: (1, 0)}
    sides = ((LEFT, A, {}, left, right), (RIGHT, B, {}, right, left))
    for weight in range(1, max_weight + 1):
        for side, m, mine, grown, before in sides:
            if nonunits := m._elements_by_weight(weight):
                mine[weight] = (len(nonunits), sum(len(letter_text(side, el)) + 1 for el in nonunits))
            elif not mine:
                continue
            n = c = 0
            for w, (a, t) in mine.items():
                if parent := before.get(weight - w):
                    n += a * parent[0]
                    c += a * parent[1] + t * parent[0]
            if n:  # no sum reads weight itself, since every letter weighs at least 1
                grown[weight] = (n, c)
                count += n
                chars += c
        yield weight, count, chars


def free_product_listing(A: PointedMonoid, B: PointedMonoid, max_weight: int) -> list[tuple[int, str]]:
    """(alternation length, text) of every element of A * B of total weight
    <= max_weight, sorted; the text is ``str`` of the element, built once
    per element from its parent's, without building the element.  More
    than LISTING_LIMIT elements, or more than LISTING_TEXT_LIMIT characters
    of text with a newline after each element, are refused before the
    first is built, at the first weight whose running total passes its limit."""
    for weight, count, chars in free_product_totals(A, B, max_weight):
        if count > LISTING_LIMIT:
            raise MonoidError(f"{count} elements of weight <= {weight} exceed {LISTING_LIMIT}")
        if chars > LISTING_TEXT_LIMIT:
            raise MonoidError(f"{chars} characters of text for weight <= {weight} exceed {LISTING_TEXT_LIMIT}")
    listing = [(0, UNIT_TEXT)]
    listing += free_product_walk(A, B, max_weight, letter_text, "*")
    listing.sort()
    return listing


def stratified_counts(elements: Iterable[FreeProductElement]) -> dict[tuple[str, str], int]:
    """Count elements by (first side, last side); the unit is keyed ("", "")."""
    counts: dict[tuple[str, str], int] = {}
    for e in elements:
        if e.is_unit():
            key = ("", "")
        else:
            key = (e.letters[0][0], e.letters[-1][0])
        counts[key] = counts.get(key, 0) + 1
    return counts
