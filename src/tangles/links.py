"""Standard closed diagrams built from the generators.

A closed component must turn back an even number of times and, in this
calculus, always carries an odd number of self-crossings: the typing of
cups (which emit a descending pair) and caps (which consume an ascending
pair) forces one extra swap per component.  Exhaustive search over all
closed diagrams with at most six events confirms both facts, and that no
crossing-free closed loop exists is a theorem (see ``diagram.validate``).
So the simplest unknot diagram is a circle with a single kink, of
self-writhe +1 (or -1 for the mirror).  Framing-sensitive quantities
therefore never vanish on these diagrams; the writhe-normalized
invariants in :mod:`tangles.evaluate` remove exactly that dependence.

Each builtin is assembled from generators, which type it, once, at import
time; ``BUILTINS[name]()`` returns that one diagram.  The tests trace its
components (1, 1, 2 and 2, all closed), so no stale golden value passes.
"""

from __future__ import annotations

from .diagram import (
    Diagram,
    cap,
    cross_neg,
    cross_pos,
    cup,
    mirror,
    tensor,
)


def unknot(positive: bool = True) -> Diagram:
    """A closed unknot with a single kink: self-writhe +1, or -1 when
    ``positive`` is false."""
    x = cross_pos(1, 0) if positive else cross_neg(1, 0)
    return Diagram.from_events((), [[cup(0)], [x], [cap(0)]])


def trefoil(positive: bool = True) -> Diagram:
    """The trace closure of three equal twists on a two-strand braid: a
    trefoil of writhe +3, or -3 for the mirror.

    The braid acts on the middle two strands and each closing cap joins a
    braid slot to its own return strand (an annular closure); a cap joining
    the two braid slots directly would let the twists slide off as kinks.
    The label algebra forces the right turnback one dual level up."""
    d = Diagram.from_events(
        (),
        [
            [cup(0, at=0)],          # (1, 0)
            [cup(1, at=2)],          # (1, 0, 2, 1)
            [cross_pos(0, 2, at=1)],
            [cross_pos(2, 0, at=1)],
            [cross_pos(0, 2, at=1)],
            [cap(1, at=0)],          # consumes (1, 2) -> (0, 1)
            [cap(0, at=0)],
        ],
    )
    return d if positive else mirror(d)


def hopf() -> Diagram:
    """A Hopf link: two circles sharing two positive crossings (linking
    number +1), each closed off with one kink; the kinks have opposite
    signs so the total writhe is +2, entirely from the linking."""
    return Diagram.from_events(
        (),
        [
            [cup(0, at=0)],
            [cup(0, at=1)],
            [cross_pos(0, 0, at=2)],
            [cross_pos(1, 1, at=0)],
            [cross_pos(1, 0, at=1)],
            [cap(0, at=1)],
            [cross_neg(1, 0, at=0)],
            [cap(0, at=0)],
        ],
    )


def unlink() -> Diagram:
    """Two split unknots with opposite kinks (total writhe 0)."""
    return tensor(unknot(True), unknot(False))


BUILTINS = {f.__name__: (lambda d=f(): d) for f in (unknot, trefoil, hopf, unlink)}
