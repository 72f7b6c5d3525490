"""Combinatorics of the simplex category.

An object is a finite nonempty linear order [p] = {0 < 1 < ... < p}; a
morphism is a monotone map, stored as the tuple of its values.  A
``ConvexSubset`` is a nonempty interval [lo, hi] inside some [p]; these are
the subsets along which restriction of simplices makes sense.

There are two hull operators on convex subsets:

* ``hull_image(f, C)`` is the convex hull of the set-image f(C), for C a
  convex subset of f's source.
* ``outer_hull(f, C)`` widens C inside f's *target*: the lower end drops to
  the largest value of f that is <= lo (to 0 if there is none), and the
  upper end rises to the smallest value of f that is >= hi (to the top of
  the ambient simplex if there is none).  The result always contains C.

``restrict_across_square`` restricts a monotone map between outer hulls
taken on the two sides of a commuting square; the inequalities that make
this well defined are asserted at runtime rather than assumed.

Open covers of the unit interval are modelled by ``IntervalCover`` with
exact rational endpoints.  ``localize_cover`` sends a cover to the linearly
ordered set of connected components of its complement, and
``cover_inclusion_map`` sends an inclusion of covers to the induced
monotone map between the complements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


class SimplexError(ValueError):
    """Raised on malformed simplex-category data or mismatched composites."""


class HullBoundsViolation(RuntimeError):
    """Raised by ``restrict_across_square`` when the endpoint inequalities
    that would make the restriction well typed fail.

    For injective f the inequalities always hold (exhaustively tested).
    When f merges image values across an end of C they can genuinely
    fail -- the outer hull on the coarse side can shrink past the image of
    the fine side's hull -- so this error marks a real boundary phenomenon
    of the hull calculus, not bad input shape."""


@dataclass(frozen=True)
class SimplexObject:
    """The linear order [p] = {0 < ... < p}."""

    p: int

    def __post_init__(self) -> None:
        if self.p < 0:
            raise SimplexError(f"[p] needs p >= 0, got {self.p}")

    def points(self) -> range:
        return range(self.p + 1)

    def __str__(self) -> str:
        return f"[{self.p}]"


@dataclass(frozen=True)
class MonotoneMap:
    """A monotone map between simplex objects, as its tuple of values."""

    source: SimplexObject
    target: SimplexObject
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.source.p + 1:
            raise SimplexError(
                f"map out of {self.source} needs {self.source.p + 1} values, "
                f"got {len(self.values)}"
            )
        for a, b in zip(self.values, self.values[1:]):
            if a > b:
                raise SimplexError(f"values {self.values} are not monotone")
        for v in self.values:
            if not 0 <= v <= self.target.p:
                raise SimplexError(f"value {v} outside {self.target}")

    @staticmethod
    def identity(obj: SimplexObject) -> "MonotoneMap":
        return MonotoneMap(obj, obj, tuple(obj.points()))

    @staticmethod
    def constant(source: SimplexObject, target: SimplexObject, value: int) -> "MonotoneMap":
        return MonotoneMap(source, target, (value,) * (source.p + 1))

    def __call__(self, i: int) -> int:
        if not 0 <= i <= self.source.p:
            raise SimplexError(f"{i} is not a point of {self.source}")
        return self.values[i]

    def is_identity(self) -> bool:
        return self.source == self.target and self.values == tuple(self.source.points())

    def __str__(self) -> str:
        inside = ",".join(str(v) for v in self.values)
        return f"({inside}):{self.source}->{self.target}"


def compose_monotone(f: MonotoneMap, g: MonotoneMap) -> MonotoneMap:
    """The composite "f then g", defined when f.target == g.source."""
    if f.target != g.source:
        raise SimplexError(f"cannot compose {f} with {g}: middle objects differ")
    return MonotoneMap(f.source, g.target, tuple(g(v) for v in f.values))


def all_monotone_maps(source: SimplexObject, target: SimplexObject) -> list[MonotoneMap]:
    """Every monotone map [source.p] -> [target.p], in lexicographic order."""
    values = itertools.combinations_with_replacement(target.points(), source.p + 1)
    return [MonotoneMap(source, target, v) for v in values]


def elementary_maps(source: SimplexObject, target: SimplexObject) -> list[MonotoneMap]:
    """The faces [n-1] -> [n] (skip i) and the degeneracies [n+1] -> [n]
    (hit i twice), for i = 0..n; no maps between other sizes."""
    n = target.p
    if source.p == n - 1:
        values = [tuple(v for v in range(n + 1) if v != i) for i in range(n + 1)]
    elif source.p == n + 1:
        values = [tuple(range(i + 1)) + tuple(range(i, n + 1)) for i in range(n + 1)]
    else:
        values = []
    return [MonotoneMap(source, target, v) for v in values]


@dataclass(frozen=True)
class ConvexSubset:
    """The nonempty interval [lo, hi] inside an ambient simplex object."""

    lo: int
    hi: int
    ambient: SimplexObject

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi <= self.ambient.p:
            raise SimplexError(
                f"[{self.lo},{self.hi}] is not a convex subset of {self.ambient}"
            )

    def points(self) -> range:
        return range(self.lo, self.hi + 1)

    def contains(self, other: "ConvexSubset") -> bool:
        return self.ambient == other.ambient and self.lo <= other.lo and other.hi <= self.hi

    def as_simplex(self) -> SimplexObject:
        """The abstract simplex object [hi - lo] this interval is isomorphic to."""
        return SimplexObject(self.hi - self.lo)

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


def hull_image(f: MonotoneMap, C: ConvexSubset) -> ConvexSubset:
    """Convex hull of the image f(C), for C convex in f's source.

    For monotone f this is just [f(lo), f(hi)].
    """
    if C.ambient != f.source:
        raise SimplexError(f"{C} is not a subset of the source of {f}")
    return ConvexSubset(f(C.lo), f(C.hi), f.target)


def outer_hull(f: MonotoneMap, C: ConvexSubset) -> ConvexSubset:
    """Widen C outward to the nearest values of f, inside f's target.

    The lower end becomes sup{f(x) : f(x) <= C.lo} (0 when the set is
    empty); the upper end becomes inf{f(x) : f(x) >= C.hi} (the top of the
    ambient when empty).  The result contains C, and applying the operator
    twice gives the same answer as applying it once.
    """
    if C.ambient != f.target:
        raise SimplexError(f"{C} is not a subset of the target of {f}")
    lo = max((v for v in f.values if v <= C.lo), default=0)
    hi = min((v for v in f.values if v >= C.hi), default=f.target.p)
    return ConvexSubset(lo, hi, C.ambient)


def restrict_across_square(
    f: MonotoneMap,
    g: MonotoneMap,
    outer: MonotoneMap,
    inner: MonotoneMap,
    C: ConvexSubset,
) -> MonotoneMap:
    """Restrict f between outer hulls across the commuting square
    outer = f o inner o g.

    Here ``inner`` maps into f's source and ``outer`` into f's target, with
    g connecting their sources; C is a convex subset of f's source.  The
    returned map is the restriction of f, as a monotone map from the
    abstract simplex of ``outer_hull(inner, C)`` to the abstract simplex of
    ``outer_hull(outer, hull_image(f, C))``.

    The two endpoint inequalities that make the restriction well typed are
    asserted at runtime rather than assumed; see ``HullBoundsViolation``
    for when they can fail.
    """
    if inner.target != f.source:
        raise SimplexError("inner map must land in the source of f")
    if outer.target != f.target:
        raise SimplexError("outer map must land in the target of f")
    if g.source != outer.source or g.target != inner.source:
        raise SimplexError("g must connect the sources of the outer and inner maps")
    if compose_monotone(compose_monotone(g, inner), f).values != outer.values:
        raise SimplexError("square does not commute: outer != f o inner o g")
    if C.ambient != f.source:
        raise SimplexError(f"{C} is not a subset of the source of f")

    C0 = hull_image(f, C)
    D1 = outer_hull(inner, C)
    D0 = outer_hull(outer, C0)
    if f(D1.lo) < D0.lo or f(D1.hi) > D0.hi:
        raise HullBoundsViolation(
            f"restriction of {f} does not carry {D1} into {D0}"
        )
    values = tuple(f(x) - D0.lo for x in D1.points())
    return MonotoneMap(D1.as_simplex(), D0.as_simplex(), values)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise SimplexError(f"expected an exact rational endpoint, got {x!r}")


@dataclass(frozen=True)
class IntervalCover:
    """A finite open cover of [0,1] by disjoint intervals, with exact
    rational endpoints.

    ``components`` lists the intervals in increasing order as (lo, hi)
    pairs.  The first component contains 0 (it is [0, hi)), the last
    contains 1, and consecutive components may share an endpoint, leaving a
    single point of [0,1] uncovered there.  There are always at least two
    components, since no single open component can contain both endpoints.
    """

    components: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        comps = tuple(
            (_as_fraction(lo), _as_fraction(hi)) for lo, hi in self.components
        )
        object.__setattr__(self, "components", comps)
        if len(comps) < 2:
            raise SimplexError("a cover of [0,1] needs at least two components")
        for lo, hi in comps:
            if not (0 <= lo < hi <= 1):
                raise SimplexError(f"component ({lo},{hi}) is not an interval in [0,1]")
        if comps[0][0] != 0:
            raise SimplexError("first component must contain 0")
        if comps[-1][1] != 1:
            raise SimplexError("last component must contain 1")
        for (_, hi), (lo, _) in zip(comps, comps[1:]):
            if hi > lo:
                raise SimplexError("components must be disjoint and sorted")

    def complement_components(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Closed (possibly degenerate) intervals making up [0,1] minus the cover."""
        return tuple(
            (hi, lo) for (_, hi), (lo, _) in zip(self.components, self.components[1:])
        )

    def refines_into(self, other: "IntervalCover") -> bool:
        """True when every component of self lies inside a component of other."""
        return all(
            any(olo <= lo and hi <= ohi for olo, ohi in other.components)
            for lo, hi in self.components
        )


def cover(*components) -> IntervalCover:
    """Convenience constructor accepting int/str/Fraction endpoints."""
    return IntervalCover(tuple((_as_fraction(a), _as_fraction(b)) for a, b in components))


def localize_cover(U: IntervalCover) -> SimplexObject:
    """The simplex object [m] with m + 1 the number of components of the
    complement of U in [0,1]."""
    return SimplexObject(len(U.components) - 2)


def cover_inclusion_map(U: IntervalCover, V: IntervalCover) -> MonotoneMap:
    """The monotone map localize(V) -> localize(U) induced by an inclusion
    of covers U into V (componentwise containment).

    Each complement component of V is sent to the complement component of U
    containing it.
    """
    if not U.refines_into(V):
        raise SimplexError("U is not contained in V componentwise")
    gaps_u = U.complement_components()
    gaps_v = V.complement_components()
    values = []
    for a, b in gaps_v:
        hits = [i for i, (c, d) in enumerate(gaps_u) if c <= a and b <= d]
        if len(hits) != 1:
            raise SimplexError(
                f"complement component [{a},{b}] of V not inside a unique "
                "complement component of U"
            )
        values.append(hits[0])
    return MonotoneMap(localize_cover(V), localize_cover(U), tuple(values))
