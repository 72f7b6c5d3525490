"""Local moves on diagrams, planar normal forms, and equality decisions.

Moves are detected and applied on *expanded* diagrams (one event per
slice); ``expand`` produces that layout and every application returns one.
The rule set, by ambient dimension:

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

A planar diagram's normal form is the labelled non-crossing matching of
its boundary obtained by strand tracing.  Two planar diagrams are declared
equal exactly when their normal forms coincide; soundness is the
zigzag/interchange congruence (checked move by move in the tests), and
completeness rests on the discreteness of planar mapping sets, probed at
desk scale by the exhaustive suites.  Through arcs carry equal labels and
turnbacks carry consecutive ones; violations raise RuntimeError because
they indicate bugs, not bad input.

``equal`` decides planar equality by normal form; otherwise it runs a
bounded bidirectional search over the move graph and falls back to
evaluation: differing values under a validated datum certify distinctness,
exhaustion without separation returns Unknown.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
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


def _through(e: Event, q: int) -> int:
    """Where a strand at position q below the one-event slice of e sits
    above it; e must leave the strand alone."""
    return q + e.arity_out - e.arity_in if e.position + e.arity_in <= q else q


def _single_event(s: Slice) -> Event | None:
    if len(s.events) > 1:
        raise MoveError("rewriting requires an expanded diagram (use expand)")
    return s.events[0] if s.events else None


# ---------------------------------------------------------------------------
# strand-pair tracking across slices


def _track_pair(d: Diagram, start: int, left: int):
    """Follow the adjacent strand pair (left, left+1) upward from the word
    below slice ``start``.

    Returns a list with one (slice index, left position of the pair below
    that slice, event, touches) entry per slice, stopping after the first
    slice whose event touches the pair (its ``touches`` is True); when no
    event touches the pair the list runs to the top of the diagram.
    """
    out = []
    pos = left
    for j in range(start, len(d.slices)):
        e = _single_event(d.slices[j])
        # e consumes a strand of the pair or inserts strictly between them
        touches = e is not None and e.position < pos + 2 and pos < e.position + e.arity_in
        out.append((j, pos, e, touches))
        if touches:
            break
        if e is not None:
            pos = _through(e, pos)
    return out


def _remap_after_removal(events: Sequence[Event], left: int) -> list[Event]:
    """Shift event positions after deleting the strand pair (left, left+1)
    from their slice's input word; the events are known not to touch it."""
    out = []
    for e in events:
        q = e.position
        if q > left + 1:
            q -= 2
        out.append(Event(e.kind, q, e.labels))
    return out


# ---------------------------------------------------------------------------
# move detection


def applicable_moves(
    d: Diagram,
    dim: AmbientDim,
    include_backward: bool = False,
    label_window: tuple[int, int] | None = None,
) -> list[Move]:
    """Enumerate the redexes of the dimension-legal rule set on an
    expanded diagram, kind by kind in a fixed order.

    Forward moves are enumerated completely.  Backward insertions (zigzag
    and second Reidemeister pairs) are enumerated only when requested
    since they are parametrized by a level, bounded by ``label_window``
    (defaults to the diagram's label range widened by one).

    Each finder is a generator that does its work only as its moves are
    asked for; this function drains them all, while ``reduce_diagram``
    chains only the kinds it applies and stops at the first move.
    """
    d = expand(d)
    finders: list[Iterable[Move]] = [_zigzag_forward(d)]
    if dim.allows_crossings:
        finders += [_r2_forward(d, dim), _r3_moves(d)]
    if dim is AmbientDim.SYMMETRIC:
        finders += [_collapse_moves(d), _kink2_forward(d)]
    if include_backward:
        if label_window is None:
            labels = d.labels() or {0}
            label_window = (min(labels) - 1, max(labels) + 1)
        finders.append(_zigzag_backward(d, label_window))
        if dim.allows_crossings:
            finders.append(_r2_backward(d))
    finders.append(_interchange_moves(d))
    return list(itertools.chain.from_iterable(finders))


def _zigzag_forward(d: Diagram) -> Iterator[Move]:
    for i, s in enumerate(d.slices):
        e = _single_event(s)
        if e is None or e.kind is not EventKind.CUP:
            continue
        track = _track_pair(d, i + 1, e.position)
        if not track:
            continue
        j, pos, f, touches = track[-1]
        if not touches or f is None or f.kind is not EventKind.CAP:
            continue
        variant = {pos - 1: "cap_left", pos + 1: "cap_right"}.get(f.position)
        if variant:
            yield Move(MoveKind.ZIGZAG, True, i, j, e.position, e.labels, variant)


def _r2_forward(d: Diagram, dim: AmbientDim) -> Iterator[Move]:
    for i, s in enumerate(d.slices):
        e = _single_event(s)
        if e is None or not e.is_crossing:
            continue
        track = _track_pair(d, i + 1, e.position)
        if not track:
            continue
        j, pos, f, touches = track[-1]
        if not touches or f is None or not f.is_crossing:
            continue
        if f.position != pos:
            continue
        opposite = f.sign == -e.sign or dim is AmbientDim.SYMMETRIC
        if opposite and f.labels == (e.labels[1], e.labels[0]):
            yield Move(MoveKind.R2, True, i, j, e.position, e.labels)


def _r3_moves(d: Diagram) -> Iterator[Move]:
    for i in range(len(d.slices) - 2):
        es = [_single_event(d.slices[i + k]) for k in range(3)]
        if any(e is None or not e.is_crossing for e in es):
            continue
        e1, e2, e3 = es
        if not (e1.sign == e2.sign == e3.sign):
            continue
        q = e1.position
        if e2.position == q + 1 and e3.position == q:
            yield Move(MoveKind.R3, True, i, i + 2, q, (e1.sign,), "left")
        elif e2.position == q - 1 and e3.position == q:
            yield Move(MoveKind.R3, True, i, i + 2, q - 1, (e1.sign,), "right")


def _collapse_moves(d: Diagram) -> Iterator[Move]:
    for i, s in enumerate(d.slices):
        e = _single_event(s)
        if e is not None and e.is_crossing:
            yield Move(MoveKind.SYM_COLLAPSE, True, i, position=e.position)


def _is_trivial_block(d: Diagram, i: int, length: int) -> bool:
    """True when slices i..i+length-1 form a block with equal input and
    output words whose strand matching is the identity (every strand comes
    back to its own position, no turnbacks, no closed components)."""
    block = Diagram(d.slices[i].input, d.slices[i : i + length])
    if block.target != block.source:
        return False
    for comp in trace_components(block):
        if comp.closed or len(comp.ends) != 2:
            return False
        (sa, pa), (sb, pb) = comp.ends
        if {sa, sb} != {"source", "target"} or pa != pb:
            return False
    return True


def _kink2_forward(d: Diagram) -> Iterator[Move]:
    """Four consecutive slices cup, crossing, crossing, cap whose block
    matches every strand back to itself: a double framing twist (possibly
    padded with a cancelling pair).  Sound for symmetric data, where the
    squared braiding is the identity: the block is then a composite of
    sign collapses, second Reidemeister pairs and zigzags."""
    for i in range(len(d.slices) - 3):
        events = [_single_event(d.slices[i + k]) for k in range(4)]
        if any(e is None for e in events):
            continue
        if events[0].kind is not EventKind.CUP or events[3].kind is not EventKind.CAP:
            continue
        if not (events[1].is_crossing and events[2].is_crossing):
            continue
        if _is_trivial_block(d, i, 4):
            yield Move(MoveKind.KINK2, True, i, i + 3)


def _interchange_moves(d: Diagram) -> Iterator[Move]:
    for i in range(len(d.slices) - 1):
        if _interchange_apply(d, i) is not None:
            yield Move(MoveKind.INTERCHANGE, True, i, i + 1)


def _zigzag_backward(d: Diagram, window: tuple[int, int]) -> Iterator[Move]:
    for i, word in enumerate([d.source] + [s.output() for s in d.slices]):
        for t, label in enumerate(word):
            for k, variant in ((label, "cap_left"), (label - 1, "cap_right")):
                if window[0] <= k <= window[1]:
                    yield Move(MoveKind.ZIGZAG, False, i, position=t, labels=(k,), variant=variant)


def _r2_backward(d: Diagram) -> Iterator[Move]:
    for i, word in enumerate([d.source] + [s.output() for s in d.slices]):
        for t in range(len(word) - 1):
            for sign in (1, -1):
                yield Move(MoveKind.R2, False, i, position=t, labels=(sign,))


# ---------------------------------------------------------------------------
# move application


def apply_move(d: Diagram, m: Move) -> Diagram:
    """Apply a move; boundary words are unchanged and the result is valid
    (the slices of the redex are rebuilt through the event-typing
    constructor, the others are shared with ``d``)."""
    d = expand(d)
    try:
        if m.kind is MoveKind.ZIGZAG:
            return _apply_zigzag(d, m)
        if m.kind is MoveKind.R2:
            return _apply_r2(d, m)
        if m.kind is MoveKind.R3:
            return _apply_r3(d, m)
        if m.kind is MoveKind.SYM_COLLAPSE:
            return _apply_collapse(d, m)
        if m.kind is MoveKind.KINK2:
            return _apply_kink2(d, m)
        if m.kind is MoveKind.INTERCHANGE:
            pair = _interchange_apply(d, m.slice_index)
            if pair is None:
                raise MoveError("events are not interchangeable")
            return _splice(d, m.slice_index, m.slice_index + 2, [[f] for f in pair])
    except DiagramError as exc:
        raise MoveError(f"move {m} failed to apply: {exc}") from exc
    raise MoveError(f"unknown move kind {m.kind}")


def _boundary(d: Diagram, i: int) -> ObjectWord:
    """The word below slice i (the target when i is the top level)."""
    return d.target if i == len(d.slices) else d.slices[i].input


def _splice(d: Diagram, start: int, stop: int, layers: Iterable[Iterable[Event]]) -> Diagram:
    """d with slices start..stop-1 replaced by one slice per event layer.

    Slices below the site are reused, and so is every slice above it whose
    input word still chains; one whose input changed is retyped on the new
    word, as rebuilding the whole diagram from its events would do."""
    slices = list(d.slices[:start])
    word = _boundary(d, start)
    for layer in layers:
        s = Slice(word, tuple(layer))
        slices.append(s)
        word = s.output()
    for s in d.slices[stop:]:
        if s.input != word:
            s = Slice(word, s.events)
        slices.append(s)
        word = s.output()
    return Diagram(d.source, tuple(slices))


def _apply_zigzag(d: Diagram, m: Move) -> Diagram:
    if not m.forward:
        word = _boundary(d, m.slice_index)
        t = m.position
        k = m.labels[0]
        if m.variant == "cap_left":
            if t >= len(word) or word[t] != k:
                raise MoveError("no strand of the required level at the site")
            pair = [[cup(k, at=t + 1)], [cap(k, at=t)]]
        else:
            if t >= len(word) or word[t] != k + 1:
                raise MoveError("no strand of the required level at the site")
            pair = [[cup(k, at=t)], [cap(k, at=t + 1)]]
        return _splice(d, m.slice_index, m.slice_index, pair)

    i, j = m.slice_index, m.other_index
    e = _single_event(d.slices[i])
    if e is None or e.kind is not EventKind.CUP or e.position != m.position:
        raise MoveError("no cup at the move site")
    track = _track_pair(d, i + 1, e.position)
    if not track or track[-1][0] != j or not track[-1][3]:
        raise MoveError("cap is no longer reachable from the cup")
    between = [_remap_after_removal(d.slices[jj].events, pos) for jj, pos, _, _ in track[:-1]]
    return _splice(d, i, j + 1, between)


def _apply_r2(d: Diagram, m: Move) -> Diagram:
    if not m.forward:
        word = _boundary(d, m.slice_index)
        t = m.position
        if t + 1 >= len(word):
            raise MoveError("no adjacent strand pair at the site")
        a, b = word[t], word[t + 1]
        sign = m.labels[0]
        first = cross_pos(a, b, at=t) if sign > 0 else cross_neg(a, b, at=t)
        second = cross_neg(b, a, at=t) if sign > 0 else cross_pos(b, a, at=t)
        return _splice(d, m.slice_index, m.slice_index, [[first], [second]])

    i, j = m.slice_index, m.other_index
    e = _single_event(d.slices[i])
    if e is None or not e.is_crossing or e.position != m.position:
        raise MoveError("no crossing at the move site")
    track = _track_pair(d, i + 1, e.position)
    if not track or track[-1][0] != j or not track[-1][3]:
        raise MoveError("partner crossing is no longer reachable")
    return _splice(d, i, j + 1, [s.events for s in d.slices[i + 1 : j]])


def _apply_r3(d: Diagram, m: Move) -> Diagram:
    i = m.slice_index
    es = [_single_event(d.slices[i + k]) for k in range(3)]
    if any(e is None or not e.is_crossing for e in es):
        raise MoveError("no braid-relation pattern at the site")
    sign = es[0].sign  # type: ignore[union-attr]
    word = d.slices[i].input
    q = m.position
    a, b, c = word[q], word[q + 1], word[q + 2]

    def x(u, v, at):
        return cross_pos(u, v, at=at) if sign > 0 else cross_neg(u, v, at=at)

    if m.variant == "left":
        replacement = [[x(b, c, q + 1)], [x(a, c, q)], [x(a, b, q + 1)]]
    else:
        replacement = [[x(a, b, q)], [x(a, c, q + 1)], [x(b, c, q)]]
    return _splice(d, i, i + 3, replacement)


def _apply_collapse(d: Diagram, m: Move) -> Diagram:
    e = _single_event(d.slices[m.slice_index])
    if e is None or not e.is_crossing:
        raise MoveError("no crossing at the collapse site")
    flip = EventKind.XNEG if e.kind is EventKind.XPOS else EventKind.XPOS
    return _splice(d, m.slice_index, m.slice_index + 1, [[Event(flip, e.position, e.labels)]])


def _apply_kink2(d: Diagram, m: Move) -> Diagram:
    i = m.slice_index
    if i + 3 >= len(d.slices) or not _is_trivial_block(d, i, 4):
        raise MoveError("no double twist block at the site")
    return _splice(d, i, i + 4, [])


def _interchange_apply(d: Diagram, i: int) -> tuple[Event, Event] | None:
    """The events e of slice i and f of slice i+1 swapped, as the pair
    (f', e') to stack in that order, or None when they are not independent.

    With e at p and f at q, they are dependent when f's input interval
    [q, q + f.arity_in) meets e's output interval [p, p + e.arity_out),
    an empty interval meeting one that holds it strictly inside.  f' is f
    read on the word below e, and e' is e read on the word above f'."""
    if i + 1 >= len(d.slices):
        return None
    e, f = _single_event(d.slices[i]), _single_event(d.slices[i + 1])
    if e is None or f is None:
        return None
    p, q = e.position, f.position
    if p < q + f.arity_in and q < p + e.arity_out:
        return None
    pre = q if q < p or (q == p and e.arity_out) else q - e.arity_out + e.arity_in
    f_new = Event(f.kind, pre, f.labels)
    return f_new, Event(e.kind, _through(f_new, p), e.labels)


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

    Two planar diagrams are equal (in the zigzag/interchange congruence)
    exactly when their normal forms agree.  The invariants of the matching
    (equal labels on through arcs, consecutive labels on turnbacks, and
    planarity) are theorems about valid planar diagrams, so violations
    raise RuntimeError.
    """
    planar = not any(e.is_crossing for s in d.slices for e in s.events)
    components = trace_components(d) if planar else ()
    if not planar or any(comp.closed for comp in components):
        raise DiagramError(f"not a valid planar diagram:\n{validate(d, AmbientDim.PLANAR)}")
    arcs = []
    for comp in components:
        if comp.closed or len(comp.ends) != 2:
            raise RuntimeError("planar component without exactly two boundary ends")
        (sa, ia), (sb, ib) = comp.ends
        la = d.source[ia] if sa == "source" else d.target[ia]
        lb = d.source[ib] if sb == "source" else d.target[ib]
        if sa == "source" and sb == "target":
            if la != lb:
                raise RuntimeError("through strand changed its level")
        elif sa == sb == "source":
            if lb != la + 1:
                raise RuntimeError("source turnback is not consecutively labelled")
        elif sa == sb == "target":
            if lb != la - 1:
                raise RuntimeError("target turnback is not consecutively labelled")
        arcs.append(((sa, ia), (sb, ib)))
    arcs.sort()
    _assert_planar_matching(arcs, len(d.source), len(d.target))
    return PlanarNormalForm(d.source, d.target, tuple(arcs))


def _assert_planar_matching(arcs, n_source: int, n_target: int) -> None:
    def circle(end: tuple[str, int]) -> int:
        side, i = end
        return i if side == "source" else n_source + (n_target - 1 - i)

    chords = [tuple(sorted((circle(a), circle(b)))) for a, b in arcs]
    for (a1, b1), (a2, b2) in itertools.combinations(chords, 2):
        if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
            raise RuntimeError("strand matching is not planar")


# ---------------------------------------------------------------------------
# reduction and equality


def reduce_diagram(d: Diagram, dim: AmbientDim, max_steps: int = 10_000) -> Diagram:
    """Apply forward moves (zigzag, second Reidemeister, and in the
    symmetric case sign collapse and double-kink removal) until none is
    left.  Every forward move removes events, so this terminates.

    Each step applies the first move that ``applicable_moves`` would list
    among those kinds.  It chains only the finders of the kinds it applies
    and, the finders being lazy, stops at the first move found, so no
    other kind of redex (R3, interchange) is ever searched for."""
    d = expand(d)
    if dim is AmbientDim.SYMMETRIC:
        for i, s in enumerate(d.slices):
            e = _single_event(s)
            if e is not None and e.kind is EventKind.XNEG:
                d = _apply_collapse(d, Move(MoveKind.SYM_COLLAPSE, True, i))
    for _ in range(max_steps):
        finders = [_zigzag_forward(d)]
        if dim.allows_crossings:
            finders.append(_r2_forward(d, dim))
        if dim is AmbientDim.SYMMETRIC:
            finders.append(_kink2_forward(d))
        move = next(itertools.chain.from_iterable(finders), None)
        if move is None:
            return d
        d = apply_move(d, move)
    raise MoveError("reduction did not terminate within the step bound")


class Equality(enum.Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


def _signature(d: Diagram, dim: AmbientDim):
    comps = trace_components(d)
    ends = tuple(sorted(c.ends for c in comps))
    total = sum(e.sign for _, e in d.events() if e.is_crossing)
    if dim is AmbientDim.SYMMETRIC:
        total %= 2
    return (len(comps), ends, total)


def _neighbors(d: Diagram, dim: AmbientDim, window) -> Iterable[Diagram]:
    for m in applicable_moves(d, dim, include_backward=True, label_window=window):
        try:
            yield apply_move(d, m)
        except MoveError:
            continue


def equal(d1: Diagram, d2: Diagram, dim: AmbientDim, budget: int = 200) -> Equality:
    """Decide equality of two diagrams with the given ambient dimension.

    Planar diagrams are decided by normal form.  Otherwise a bidirectional
    search over the move graph runs within ``budget`` node expansions; if
    the diagrams are not joined, evaluation under the Kauffman datum and a
    rank-one unit datum (symmetric data in the symmetric case) separates
    them or the answer stays Unknown.
    """
    if d1.source != d2.source or d1.target != d2.target:
        raise DiagramError("equality needs matching boundary words")
    if dim is AmbientDim.PLANAR:
        return (
            Equality.EQUAL
            if normalize_planar(d1) == normalize_planar(d2)
            else Equality.DISTINCT
        )
    if _signature(d1, dim) != _signature(d2, dim):
        return Equality.DISTINCT

    r1, r2 = reduce_diagram(d1, dim), reduce_diagram(d2, dim)
    if r1 == r2:
        return Equality.EQUAL

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

    from .evaluate import evaluate, flip_datum, kauffman_datum, unit_datum

    if dim is AmbientDim.SYMMETRIC:
        data = [flip_datum(), unit_datum(0, -1)]
    else:
        data = [kauffman_datum(), unit_datum(2, 1)]
    for datum in data:
        if evaluate(d1, datum) != evaluate(d2, datum):
            return Equality.DISTINCT
    return Equality.UNKNOWN
