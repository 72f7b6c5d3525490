"""Local moves on diagrams, planar normal forms, and equality decisions.

Moves are detected and applied on *expanded* diagrams (one event per
slice); ``expand`` produces that layout and every application returns one.
Each forward rule is written once, as a matcher that finds the redex of
its kind whose lowest slice is a given one.  ``applicable_moves`` lists
what the matchers find, ``apply_move`` applies a forward move exactly when
its kind's matcher finds that move at its slice, and ``reduce_diagram``
rewrites the first redex found.  The rule set, by ambient dimension:

* zigzag (all dimensions): a cup whose two strands are consumed, together
  with an adjacent through strand, by a matching cap; forward removes the
  pair, backward inserts one around any strand.  The cup and cap may be
  separated by slices whose events do not touch the cup's strands; the
  detector tracks the strand pair across such slices.
* interchange (all dimensions): swap events in adjacent slices whose
  supports are disjoint.
* second Reidemeister (braided and symmetric): a crossing undone by the
  opposite crossing on the same strands (in the symmetric case the signs
  need not be opposite, since the two crossings are identified there).
* third Reidemeister (braided and symmetric): the braid relation on three
  consecutive crossings of equal sign.
* sign collapse (symmetric only): flip one crossing's sign.
* double-twist removal (symmetric only): a cup, two crossings and a cap
  whose block carries every strand back to its own position cancel.  Open
  strands in this calculus always carry an even number of self-crossings
  (single curls exist only around closed components), so the double twist
  is the atomic framing change, and this move realizes the fact that in
  ambient dimension >= 4 only the parity of a framing is invariant.  Any
  datum valid for the symmetric case has squared braiding equal to the
  identity, which makes the move a composite of sign collapses, second
  Reidemeister pairs and zigzags, hence evaluation-sound.

A planar diagram's normal form is its boundary matching, read off by
strand tracing.  That it is a labelled non-crossing matching losing no
closed component is a theorem of the typing (``normalize_planar`` states
it), checked once by a census test, not on every call.  Two planar
diagrams are equal exactly when their normal forms coincide; soundness is
the zigzag/interchange congruence (checked move by move in the tests), and
completeness rests on the discreteness of planar mapping sets, probed at
desk scale by the exhaustive suites.

``reduce_diagram`` rewrites one list of slices in place.  Each matcher
keeps the slices where it found no redex as two ranges, below a low mark
and from a high mark up.  As matchers read upward only, after a step the
slices above the redex stay clean, and the scan resumes at the lowest
slice whose read reached the redex (slice 0 if the redex is among the
first four): a cup or crossing whose tracked pair is untouched up to it,
or a double-twist window that overlaps it.

``interchange_normal`` brings each event as low as interchanges take it
and reads each layer left to right: a diagram of the input's orbit, the
same for the whole orbit on the connected diagrams the tests list.

``equal`` decides planar equality by the planar normal form.  Otherwise
it reduces both sides, then tries the cheapest sound decider first:
identical reductions or interchange normal forms give Equal; different
signatures, or different values under a validated datum, give Distinct;
last, a bounded bidirectional search over the move graph gives Equal
when it joins the pair, and Unknown when its budget runs out.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from .diagram import (
    AmbientDim,
    Diagram,
    DiagramError,
    Event,
    EventKind,
    ObjectWord,
    Slice,
    cap,
    cross_neg,
    cross_pos,
    cup,
    trace_components,
    validate,
)
from .evaluate import EvaluationError, evaluate, flip_datum, preset_datum, unit_datum


class MoveError(ValueError):
    """Raised when a move does not apply at its site."""


class MoveKind(enum.Enum):
    ZIGZAG = "zigzag"
    INTERCHANGE = "interchange"
    R2 = "r2"
    R3 = "r3"
    SYM_COLLAPSE = "collapse"
    KINK2 = "kink2"


@dataclass(frozen=True)
class Move:
    """A single rewrite at a definite site of an expanded diagram.

    ``slice_index`` is the lower slice of the redex (or the insertion
    boundary for backward moves); ``other_index`` the upper slice where a
    second event participates.  ``position`` and ``labels`` carry the
    kind-specific anchor data documented in the module docstring.
    """

    kind: MoveKind
    forward: bool
    slice_index: int
    other_index: int = -1
    position: int = 0
    labels: tuple[int, ...] = ()
    variant: str = ""


def expand(d: Diagram) -> Diagram:
    """One event per slice, empty slices dropped, original order kept.
    An already expanded diagram is returned as it is."""
    if all(len(s.events) == 1 for s in d.slices):
        return d
    layers: list[list[Event]] = []
    for s in d.slices:
        shift = 0  # each event reads the word its predecessors in the slice left
        for e in s.events:
            layers.append([Event(e.kind, e.position + shift, e.labels)])
            shift += e.arity_out - e.arity_in
    return Diagram.from_events(d.source, layers)


# ---------------------------------------------------------------------------
# strand-pair tracking across slices


def _track_pair(slices: Sequence[Slice], start: int, left: int):
    """Follow the adjacent strand pair (left, left+1) upward from the word
    below slice ``start``: one (slice index, left position of the pair
    below that slice, event, touches) entry per slice, up to the first
    slice whose event touches the pair (``touches`` True), else the top."""
    out = []
    pos = left
    for j in range(start, len(slices)):
        e = slices[j].events[0]
        p, a = e.position, e.arity_in
        # e consumes a strand of the pair or inserts strictly between them
        touches = p < pos + 2 and pos < p + a
        out.append((j, pos, e, touches))
        if touches:
            break
        if p + a <= pos:  # e sits left of the pair, which moves by e's arity change
            pos += e.arity_out - a
    return out


# ---------------------------------------------------------------------------
# one matcher per forward rule
#
# ``_<kind>_at(slices, i, dim)`` looks in the slices of an expanded diagram
# for the redex of its kind whose lowest slice is i.  It returns None, or
# (move, stop, layers): the Move naming the redex and the event layers that
# replace slices i..stop-1.

_Site = tuple[Move, int, Iterable[Iterable[Event]]]


def _zigzag_at(slices: Sequence[Slice], i: int, dim: AmbientDim) -> _Site | None:
    """A cup whose strand pair, tracked upward, is next touched by a cap
    that consumes it together with the strand on its left or right."""
    e = slices[i].events[0]
    if e.kind is not EventKind.CUP or i + 1 == len(slices):
        return None
    track = _track_pair(slices, i + 1, e.position)
    j, pos, f, touches = track[-1]
    if not touches or f.kind is not EventKind.CAP or abs(f.position - pos) != 1:
        return None
    variant = "cap_left" if f.position < pos else "cap_right"
    # the slices between lose the pair; an event right of it moves down by two
    between = (
        [Event(g.kind, g.position - 2 if g.position > p + 1 else g.position, g.labels)]
        for _, p, g, _ in track[:-1]
    )
    return Move(MoveKind.ZIGZAG, True, i, j, e.position, e.labels, variant), j + 1, between


def _r2_at(slices: Sequence[Slice], i: int, dim: AmbientDim) -> _Site | None:
    """A crossing whose strand pair, tracked upward, is next touched by a
    crossing of exactly that pair that undoes it: of the opposite sign, or
    of either sign in the symmetric case, where the two are identified."""
    e = slices[i].events[0]
    if not e.is_crossing or i + 1 == len(slices):
        return None
    j, pos, f, touches = _track_pair(slices, i + 1, e.position)[-1]
    # of all events only a crossing has two labels
    if not touches or f.position != pos or f.labels != (e.labels[1], e.labels[0]):
        return None
    if f.sign == e.sign and dim is not AmbientDim.SYMMETRIC:
        return None
    between = [s.events for s in slices[i + 1 : j]]
    return Move(MoveKind.R2, True, i, j, e.position, e.labels), j + 1, between


def _r3_at(slices: Sequence[Slice], i: int, dim: AmbientDim) -> _Site | None:
    """Three crossings of one sign on the strands q..q+2, at positions
    q, q+1, q ("left") or q+1, q, q+1 ("right"): the two sides of the
    braid relation, each rewritten into the other."""
    if i + 2 >= len(slices):
        return None
    e1, e2, e3 = (s.events[0] for s in slices[i : i + 3])
    sign, q = e1.sign, e1.position  # the sign of a cup or cap is 0
    if not sign or e2.sign != sign or e3.sign != sign:
        return None
    if e3.position != q or abs(e2.position - q) != 1:
        return None
    left = e2.position == q + 1
    q = min(q, e2.position)
    a, b, c = slices[i].input[q : q + 3]
    x = cross_pos if sign > 0 else cross_neg
    if left:
        layers = [[x(b, c, at=q + 1)], [x(a, c, at=q)], [x(a, b, at=q + 1)]]
    else:
        layers = [[x(a, b, at=q)], [x(a, c, at=q + 1)], [x(b, c, at=q)]]
    move = Move(MoveKind.R3, True, i, i + 2, q, (sign,), "left" if left else "right")
    return move, i + 3, layers


def _collapse_at(slices: Sequence[Slice], i: int, dim: AmbientDim) -> _Site | None:
    """A crossing, which becomes the crossing of the other sign."""
    e = slices[i].events[0]
    if not e.is_crossing:
        return None
    flip = EventKind.XNEG if e.kind is EventKind.XPOS else EventKind.XPOS
    move = Move(MoveKind.SYM_COLLAPSE, True, i, position=e.position)
    return move, i + 1, [[Event(flip, e.position, e.labels)]]


def _kink2_at(slices: Sequence[Slice], i: int, dim: AmbientDim) -> _Site | None:
    """A cup, two crossings and a cap on four consecutive slices whose block
    carries every strand back to its own position (no turnbacks, no closed
    components): a double framing twist, possibly padded with a cancelling
    pair.  Sound for symmetric data, where the squared braiding is the
    identity: the block is then a composite of sign collapses, second
    Reidemeister pairs and zigzags."""
    if i + 3 >= len(slices):
        return None
    e0, e1, e2, e3 = (s.events[0] for s in slices[i : i + 4])
    if e0.kind is not EventKind.CUP or e3.kind is not EventKind.CAP:
        return None
    if not (e1.is_crossing and e2.is_crossing):
        return None
    block = Diagram(slices[i].input, slices[i : i + 4])
    through = [(("source", q), ("target", q)) for q in range(len(block.source))]
    if block.target != block.source or [c.ends for c in trace_components(block)] != through:
        return None
    return Move(MoveKind.KINK2, True, i, i + 3), i + 4, []


def _interchange_at(slices: Sequence[Slice], i: int, dim: AmbientDim) -> _Site | None:
    """Independent events at slices i and i+1, which trade places."""
    pair = _interchange_apply(slices, i)
    if pair is None:
        return None
    return Move(MoveKind.INTERCHANGE, True, i, i + 1), i + 2, [[f] for f in pair]


def _interchange_apply(slices: Sequence[Slice], i: int) -> tuple[Event, Event] | None:
    """The events e of slice i and f of slice i+1 swapped, as the pair
    (f', e') to stack in that order, or None when they are not independent.

    With e at p and f at q, they are dependent when f's input interval
    [q, q + f.arity_in) meets e's output interval [p, p + e.arity_out),
    an empty interval meeting one that holds it strictly inside.  f' is f
    read on the word below e, and e' is e read on the word above f'.  When
    f lies left of e (a cup at e's first output counts as left), f stays
    and e moves by f's arity change; otherwise f moves back by e's arity
    change and e stays: a cup f' at p, right of e, ties with e at p."""
    if i + 1 >= len(slices):
        return None
    e, f = slices[i].events[0], slices[i + 1].events[0]
    p, q = e.position, f.position
    if p < q + f.arity_in and q < p + e.arity_out:
        return None
    if q < p or (q == p and e.arity_out):
        return Event(f.kind, q, f.labels), Event(e.kind, p + f.arity_out - f.arity_in, e.labels)
    return Event(f.kind, q - e.arity_out + e.arity_in, f.labels), Event(e.kind, p, e.labels)


_MATCHERS = {
    MoveKind.ZIGZAG: _zigzag_at,
    MoveKind.R2: _r2_at,
    MoveKind.R3: _r3_at,
    MoveKind.SYM_COLLAPSE: _collapse_at,
    MoveKind.KINK2: _kink2_at,
    MoveKind.INTERCHANGE: _interchange_at,
}


def _sites(d: Diagram, matchers, dim: AmbientDim) -> Iterator[_Site]:
    """The redexes that each matcher finds in turn, from the lowest slice up."""
    for at in matchers:
        for i in range(len(d.slices)):
            site = at(d.slices, i, dim)
            if site is not None:
                yield site


# ---------------------------------------------------------------------------
# listing and applying moves


def applicable_moves(
    d: Diagram,
    dim: AmbientDim,
    include_backward: bool = False,
    label_window: tuple[int, int] | None = None,
) -> list[Move]:
    """Enumerate the redexes of the dimension-legal rule set on an
    expanded diagram, kind by kind in a fixed order.

    Forward moves are what each kind's matcher finds, slice by slice.
    Backward insertions (zigzag and second Reidemeister pairs) are
    enumerated only when requested since they are parametrized by a level,
    bounded by ``label_window`` (defaults to the diagram's label range
    widened by one).
    """
    d = expand(d)
    matchers = [_zigzag_at]
    if dim.allows_crossings:
        matchers += [_r2_at, _r3_at]
    if dim is AmbientDim.SYMMETRIC:
        matchers += [_collapse_at, _kink2_at]
    moves = [m for m, _, _ in _sites(d, matchers, dim)]
    if include_backward:
        if label_window is None:
            labels = d.labels() or {0}
            label_window = (min(labels) - 1, max(labels) + 1)
        moves += _insertions(d, label_window, dim.allows_crossings)
    moves += [m for m, _, _ in _sites(d, [_interchange_at], dim)]
    return moves


def _insertions(d: Diagram, window: tuple[int, int], crossings: bool) -> list[Move]:
    """The backward moves, in one walk over the level words: a zigzag pair
    beside every strand at every level of the window that fits, then (when
    crossings are allowed) an R2 pair of either sign on every adjacent
    strand pair."""
    zigzags, pairs = [], []
    for i, word in enumerate([d.source] + [s.output() for s in d.slices]):
        for t, label in enumerate(word):
            for k, variant in ((label, "cap_left"), (label - 1, "cap_right")):
                if window[0] <= k <= window[1]:
                    move = Move(MoveKind.ZIGZAG, False, i, position=t, labels=(k,), variant=variant)
                    zigzags.append(move)
            if crossings and t + 1 < len(word):
                for sign in (1, -1):
                    pairs.append(Move(MoveKind.R2, False, i, position=t, labels=(sign,)))
    return zigzags + pairs


def _inserted(d: Diagram, m: Move) -> list[list[Event]]:
    """The event layers that the backward move m inserts at its level."""
    word = _boundary(d, m.slice_index)
    t = m.position
    if m.kind is MoveKind.ZIGZAG:
        k = m.labels[0]
        left = m.variant == "cap_left"  # the pair right of strand k, else left of strand k+1
        if t >= len(word) or word[t] != (k if left else k + 1):
            raise MoveError("no strand of the required level at the site")
        cup_at, cap_at = (t + 1, t) if left else (t, t + 1)
        return [[cup(k, at=cup_at)], [cap(k, at=cap_at)]]
    if m.kind is MoveKind.R2:
        if t + 1 >= len(word):
            raise MoveError("no adjacent strand pair at the site")
        a, b = word[t], word[t + 1]
        x, y = (cross_pos, cross_neg) if m.labels[0] > 0 else (cross_neg, cross_pos)
        return [[x(a, b, at=t)], [y(b, a, at=t)]]
    raise MoveError(f"{m.kind.value} has no backward move")


def apply_move(d: Diagram, m: Move) -> Diagram:
    """Apply a move; boundary words are unchanged and the result is valid
    (the slices of the redex are rebuilt through the event-typing
    constructor, the others are shared with ``d``).

    A forward move applies exactly when its kind's matcher, run at
    ``m.slice_index``, finds that same move there.  R2 is matched under
    the symmetric rule, pairs of either sign, since no dimension is given.
    A backward move applies where its level has the strands it needs."""
    d = expand(d)
    i, slices = m.slice_index, list(d.slices)
    try:
        if not m.forward:
            if not 0 <= i <= len(d.slices):
                raise MoveError(f"no level {i} in a diagram of {len(d.slices)} slices")
            _replace(slices, i, i, _inserted(d, m), _boundary(d, i))
        else:
            site = _MATCHERS[m.kind](d.slices, i, AmbientDim.SYMMETRIC) if 0 <= i < len(d.slices) else None
            if site is None or site[0] != m:
                raise MoveError(f"no {m.kind.value} redex at slice {i} matches {m}")
            _replace(slices, i, site[1], site[2], d.slices[i].input)
    except DiagramError as exc:
        raise MoveError(f"move {m} failed to apply: {exc}") from exc
    return Diagram(d.source, tuple(slices))


def _boundary(d: Diagram, i: int) -> ObjectWord:
    """The word below slice i (the target when i is the top level)."""
    return d.target if i == len(d.slices) else d.slices[i].input


def _replace(slices: list[Slice], start: int, stop: int, layers, word: ObjectWord) -> None:
    """Replace slices start..stop-1 by one slice per event layer, typed
    from word (the word below start).  Every move keeps its boundary, so
    layers that do not end on the word above them are a fault."""
    above = slices[stop - 1].output() if stop > start else word
    new = []
    for layer in layers:
        s = Slice(word, tuple(layer))
        new.append(s)
        word = s.output()
    if word != above:
        raise RuntimeError(f"a move changed the word {above} above it to {word}")
    slices[start:stop] = new


# ---------------------------------------------------------------------------
# interchange normal form


def interchange_normal(d: Diagram) -> Diagram:
    """One expanded diagram of d's interchange orbit: each event as low as
    it goes, each layer read left to right (the Foata form of Cartier and
    Foata).  Layer h holds the events of height h, one more than the
    height of the events they need below them; its events are placed on
    the word the lower layers leave, in the order in which they land at
    its bottom.  At one position a consumer (cap or crossing) goes before
    a cup; of two cups at one gap the left one goes first, and the other,
    brought down directly above it, lands two places right.

    Moving events one interchange at a time would cost a swap for every
    pair that the form reorders, quadratic on two independent towers, so
    the form is read off strand identities instead, in O(events x width):

    * A consumer lands on the two segments it takes.  A cup lands at the
      gap left of the segment on its right: brought down, a cup keeps
      that neighbour except where it passes the neighbour's emitter.
      Beside a cup y it goes to y's right neighbour, left of y; beside a
      crossing, to the crossing's left input; past a cap whose strands
      meet above it, it lands right of them, as ``_interchange_apply``
      places it.
    * A consumer needs the emitters of its inputs and the caps closed
      between them; a cup needs the emitter of the two segments it ends
      up between, by the same descent.
    * Closed caps are one height per gap, kept against the segment on the
      gap's left: a consumer takes the one between its inputs, a crossing
      carries the one on its right, a cap merges its own with its sides'.
    * Positions in a layer are prefix sums of the arity changes to the
      left, read on the segments the layers below leave.

    The form lies in d's orbit.  The tests check, by listing the orbits,
    that on the connected diagrams of up to six events they draw it is
    the same for the whole orbit.  Not every swap can be undone (a cup
    left of a cap's strands passes above the cap and comes down on its
    right), and a larger connected orbit can hold two forms.
    """
    d = expand(d)
    events = [s.events[0] for s in d.slices]
    word: list[int] = list(range(len(d.source)))  # the segments
    caps: dict[int | None, int] = {}  # segment (None: the left end) -> height of the caps closed right of it
    # blocked[a]: the height of what a cup left of segment a (None: the end) needs below it
    blocked: dict[int | None, int] = dict.fromkeys(word + [None], -1)
    emitted_at: dict[int, int] = dict.fromkeys(word, -1)
    emitter: dict[int, tuple[int, bool]] = {}  # segment -> (event, is its right output)
    heights, ins, outs, anchors = [], [], [], {}
    fresh = len(word)
    for k, e in enumerate(events):
        j = e.position
        made = (fresh, fresh + 1) if e.arity_out else ()
        fresh += len(made)
        # anchor: the segment a cup left of the left output descends beside
        if e.kind is EventKind.CUP:
            anchor = anchors[k] = word[j] if j < len(word) else None
            height = blocked[anchor] + 1
            taken = ()
        else:
            taken = anchor, b = word[j], word[j + 1]
            height = 1 + max(emitted_at[anchor], emitted_at[b], caps.pop(anchor, -1))
            if not made:  # a closed cap merges with the closed caps beside it
                beside = word[j - 1] if j else None
                caps[beside] = max(height, caps.get(beside, -1), caps.pop(b, -1))
            elif b in caps:  # the caps right of a crossing stay right of it
                caps[made[1]] = caps.pop(b)
        for x, is_right in zip(made, (False, True)):
            emitter[x], emitted_at[x] = (k, is_right), height
            blocked[x] = height if is_right else blocked[anchor]
        word[j : j + len(taken)] = made
        heights.append(height)
        ins.append(taken)
        outs.append(made)

    def land(a):
        """Where a cup left of segment a lands on the front, and the first
        cup of the layer that it descends beside."""
        path = []
        while a not in landing:
            k, right = emitter.get(a, (-1, True))
            if right or heights[k] < h:
                raise RuntimeError("a cup of the layer cannot descend to its bottom")
            path.append(a)
            a = anchors[k] if k in anchors else ins[k][0]
        at, first = landing[a]
        for a in reversed(path):
            k = emitter[a][0]
            first = k if k in anchors else first
            landing[a] = (at, first)
        return at, first

    front = list(range(len(d.source)))
    out: list[list[Event]] = []
    by_height = sorted(range(len(events)), key=heights.__getitem__)
    for h, layer in itertools.groupby(by_height, heights.__getitem__):
        landing = {x: (i, None) for i, x in enumerate(front + [None])}
        keys, gaps = {}, {}
        for k in layer:
            if k in anchors:
                at, first = land(anchors[k])
                gap = gaps.setdefault(at, [])
                gap.insert(gap.index(first) if first in gap else len(gap), k)
            else:
                keys[k] = (landing[ins[k][0]][0], 0)
        for at, gap in gaps.items():
            keys.update((k, (at, 1 + r)) for r, k in enumerate(gap))
        # a consumer shifts what lies right of it, but not the cups at its gap
        shift, held, held_at = 0, 0, -1
        for k in sorted(keys, key=keys.get):
            at = keys[k][0]
            if at > held_at:
                shift, held = shift + held, 0
            p = at + shift
            if k in anchors:
                shift += 2
            elif front[p : p + 2] != list(ins[k]):
                raise RuntimeError("a consumer of the layer does not find its inputs")
            else:
                held, held_at = len(outs[k]) - 2, at
            front[p : p + len(ins[k])] = outs[k]
            out.append([Event(events[k].kind, p, events[k].labels)])
    form = Diagram.from_events(d.source, out)
    if form.target != d.target:
        raise RuntimeError("the interchange normal form changed the target")
    return form


# ---------------------------------------------------------------------------
# planar normal form


@dataclass(frozen=True)
class PlanarNormalForm:
    """A labelled non-crossing matching of the boundary positions."""

    source: ObjectWord
    target: ObjectWord
    arcs: tuple[tuple[tuple[str, int], tuple[str, int]], ...]

    def __str__(self) -> str:
        lines = [
            "source: " + " ".join(str(k) for k in self.source),
            "target: " + " ".join(str(k) for k in self.target),
        ]
        for (sa, ia), (sb, ib) in self.arcs:
            la = self.source[ia] if sa == "source" else self.target[ia]
            lb = self.source[ib] if sb == "source" else self.target[ib]
            lines.append(f"arc: {sa}[{ia}]({la}) -- {sb}[{ib}]({lb})")
        return "\n".join(lines) + "\n"


def normalize_planar(d: Diagram) -> PlanarNormalForm:
    """The boundary matching of a valid planar diagram, by strand tracing.

    The trace is that matching: no planar component is closed (see
    ``validate``), so each is an arc, and ``trace_components`` sorts them.
    The label drops by one at a left turn and rises by one at a right turn,
    so a through arc, turning as often each way, keeps its label, and a
    source (target) turnback read from its left end turns right (left) once
    more: la, la + 1 (la, la - 1).  Arcs without crossings are disjoint, so
    no two interleave on the boundary.
    """
    if any(e.is_crossing for s in d.slices for e in s.events):
        raise DiagramError(f"not a valid planar diagram:\n{validate(d, AmbientDim.PLANAR)}")
    return PlanarNormalForm(d.source, d.target, tuple(c.ends for c in trace_components(d)))


# ---------------------------------------------------------------------------
# reduction and equality


def reduce_diagram(d: Diagram, dim: AmbientDim) -> Diagram:
    """Apply forward moves (zigzag, second Reidemeister, and in the
    symmetric case sign collapse and double-kink removal) until none is
    left.  Every step removes at least two events (a zigzag or R2 pair two,
    a double twist four), so at most half the event count of steps run;
    one more is a fault.

    In the symmetric case negative crossings are first made positive.  Each
    step rewrites the first redex that ``applicable_moves`` would list among
    the zigzag, R2 and double-twist kinds; no R3 or interchange is sought."""
    d = expand(d)
    matchers = [_zigzag_at]
    if dim.allows_crossings:
        matchers.append(_r2_at)
    slices: Sequence[Slice] = d.slices
    if dim is AmbientDim.SYMMETRIC:
        matchers.append(_kink2_at)
        if any(s.events[0].kind is EventKind.XNEG for s in slices):
            slices = [
                Slice(s.input, (replace(s.events[0], kind=EventKind.XPOS),)) if s.events[0].sign < 0 else s
                for s in slices
            ]
    lo, hi = [0] * len(matchers), [len(slices)] * len(matchers)  # no redex below lo, nor from hi up
    last = -1  # the slice of the last step: a step leaves the slices below it as they were
    for _ in range(len(d.slices) // 2 + 1):  # expanded: one event per slice
        for k, at in enumerate(matchers):
            for h in range(lo[k], hi[k]):
                site = at(slices, h, dim)
                if site is not None:
                    break
            else:
                lo[k] = hi[k] = len(slices)
                continue
            break
        else:
            return d if slices is d.slices else Diagram(d.source, tuple(slices))
        lo[k] = h
        if not isinstance(slices, list):
            slices = list(slices)
        m, stop, layers = site
        i, n = m.slice_index, len(slices)
        if i != last:
            reaching = _reads_reaching(slices, i) + (i - 3,) if i > 3 else (0, 0, 0)
        last = i
        _replace(slices, i, stop, layers, slices[i].input)
        for k in range(len(matchers)):
            hi[k] = (stop if lo[k] >= hi[k] else max(hi[k], stop)) + len(slices) - n
            lo[k] = min(lo[k], reaching[k])
    raise MoveError("reduction did not terminate within the step bound")


def _reads_reaching(slices: Sequence[Slice], i: int) -> tuple[int, int]:
    """The lowest cup and crossing below slice i (else i) whose strand pair
    is untouched up to slice i, by a walk down that keeps untouched runs."""
    lowest, runs, k = [i, i], [(0, len(slices[i].input))], i
    while runs and k:
        k -= 1
        e = slices[k].events[0]
        p, a, b = e.position, e.arity_in, e.arity_out
        below = []  # the runs as read below e
        for r0, r1 in runs:
            if b and r0 <= p <= r1 - 2:
                lowest[e.kind is not EventKind.CUP] = k
            if min(r1, p) - r0 >= 2:
                below.append((r0, min(r1, p)))
            if r1 - max(r0, p + b) >= 2:
                below.append((max(r0, p + b) + a - b, r1 + a - b))
        runs = below
    return lowest[0], lowest[1]


class Equality(enum.Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


def _signature(d: Diagram, dim: AmbientDim):
    # the ends in trace order, which is canonical; a closed component's are ()
    total = sum(e.sign for _, e in d.events() if e.is_crossing)
    if dim is AmbientDim.SYMMETRIC:
        total %= 2
    return (tuple(c.ends for c in trace_components(d)), total)


def _neighbors(d: Diagram, dim: AmbientDim, window) -> Iterable[Diagram]:
    for m in applicable_moves(d, dim, include_backward=True, label_window=window):
        yield apply_move(d, m)


def equal(d1: Diagram, d2: Diagram, dim: AmbientDim, budget: int = 200) -> Equality:
    """Decide equality of two diagrams with the given ambient dimension.

    Planar diagrams are decided by normal form.  Otherwise the cheapest
    sound decider runs first, on the reduced pair r1, r2:

    1. r1 == r2 gives Equal: reduction applies moves only.  Otherwise,
       when r1 and r2 have as many events, equal interchange normal forms
       give Equal: each form lies in its input's interchange orbit.
    2. Different signatures (components, their ends, writhe, mod 2 in the
       symmetric case) give Distinct.  Reduction keeps all three, so they
       are the signatures of the inputs.
    3. Different values under the Kauffman datum or a rank-one unit datum
       (symmetric data in the symmetric case) give Distinct.  Valid data
       are move invariants, so no search could join such a pair.  A datum
       whose evaluation refuses a group over ``EVALUATE_LIMIT`` is skipped,
       so no ``EvaluationError`` escapes: the search decides, or Unknown.
    4. A bidirectional search over the move graph, within ``budget`` node
       expansions, gives Equal if it joins the pair, else Unknown.
    """
    if d1.source != d2.source or d1.target != d2.target:
        raise DiagramError("equality needs matching boundary words")
    if dim is AmbientDim.PLANAR:
        return (
            Equality.EQUAL
            if normalize_planar(d1) == normalize_planar(d2)
            else Equality.DISTINCT
        )
    r1, r2 = reduce_diagram(d1, dim), reduce_diagram(d2, dim)
    # interchanges keep the number of events (one per slice of a reduction)
    if r1 == r2 or (len(r1.slices) == len(r2.slices) and interchange_normal(r1) == interchange_normal(r2)):
        return Equality.EQUAL
    if _signature(r1, dim) != _signature(r2, dim):
        return Equality.DISTINCT

    for datum in _separating_data(dim is AmbientDim.SYMMETRIC):
        try:
            if evaluate(r1, datum) != evaluate(r2, datum):
                return Equality.DISTINCT
        except EvaluationError:
            continue

    labels = r1.labels() | r2.labels() | {0}
    window = (min(labels) - 1, max(labels) + 1)
    sides = [
        ({r1}, [r1]),
        ({r2}, [r2]),
    ]
    spent = 0
    while spent < budget and (sides[0][1] or sides[1][1]):
        seen, frontier = min(
            (side for side in sides if side[1]), key=lambda side: len(side[1])
        )
        other_seen = sides[1][0] if seen is sides[0][0] else sides[0][0]
        nxt = []
        for node in frontier:
            for nb in _neighbors(node, dim, window):
                spent += 1
                if nb in other_seen:
                    return Equality.EQUAL
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
                if spent >= budget:
                    break
            if spent >= budget:
                break
        frontier[:] = nxt
    return Equality.UNKNOWN


@functools.cache
def _separating_data(symmetric: bool) -> tuple:
    """The data ``equal`` evaluates under before it searches, built once
    per process: the Kauffman preset, which the CLI shares, and a rank-one
    unit datum, or their symmetric counterparts."""
    if symmetric:
        return flip_datum(), unit_datum(0, -1)
    return preset_datum("kauffman"), unit_datum(2, 1)
