"""Slice-encoded framed tangle diagrams.

A diagram is a vertical stack of slices, read bottom to top.  Each slice
carries its input word (a tuple of integer strand labels) and a sorted
tuple of events; strands not touched by an event pass straight through.
The label on a strand is its dual level: the generating object is 0, its
j-th right dual is j, its j-th left dual is -j.  In ambient dimension 3
(and higher) only the parity of a label is invariant data, but labels are
always stored exactly.

Events and their typing, with k, a, b arbitrary integers:

* ``cup(k)``   creates two strands labelled (k+1, k); consumes nothing.
  One family of cups covers both chiralities of turnback: a cup read as a
  unit for the strand k is the same event as a cup read as a counit shape
  for the strand k+1 (dualling shifts the label by one: the left dual of
  level j is j-1, the right dual is j+1).
* ``cap(k)``   consumes two adjacent strands labelled (k, k+1).
* ``cross_pos(a, b)`` / ``cross_neg(a, b)`` consume adjacent strands
  (a, b) and emit (b, a).  Crossings are illegal in the planar (n = 2)
  ambient dimension.  ``cross_pos`` is pinned by the Kauffman convention
  used in :mod:`tangles.evaluate`: the kink built from a positive crossing
  multiplies a closed evaluation by -A^3.

Event positions index into the slice's input word.  A cup at position p
inserts its strands before strand p; consuming events start at strand p.
Within a slice, positions strictly increase and consumed ranges are
disjoint, so a slice determines its output word.

``compose(d1, d2)`` stacks d2 on top of d1 (d1 happens first), and
``tensor`` juxtaposes side by side, padding the shorter diagram with
identity slices.  Both match the geometric reading: stacking is the
monoidal direction of the ambient space, concatenation of slices is
composition.

The text serialization is one slice per line::

    source: 1 0
    slice: cup@0(0) x+@2(0,1)
    slice: cap@1(0)

and is bit-exact under round trip.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .unionfind import UnionFind

ObjectWord = tuple[int, ...]


class DiagramError(ValueError):
    """Raised for ill-typed events, mismatched boundaries, or bad input."""


class AmbientDim(enum.Enum):
    """The ambient dimension n of the tangle category, bucketed by behavior:
    planar (n = 2, integer labels, no crossings), braided (n = 3), and
    symmetric (n >= 4, where the two crossings are identified)."""

    PLANAR = 2
    BRAIDED = 3
    SYMMETRIC = 4

    @staticmethod
    def from_dimension(n: int) -> "AmbientDim":
        if n < 2:
            raise DiagramError(f"ambient dimension must be >= 2, got {n}")
        return AmbientDim(min(n, 4))  # every n >= 4 behaves as 4

    @property
    def allows_crossings(self) -> bool:
        return self is not AmbientDim.PLANAR


class EventKind(enum.Enum):
    CUP = "cup"
    CAP = "cap"
    XPOS = "x+"
    XNEG = "x-"


_CUP, _CAP, _XPOS, _XNEG = EventKind  # per-event kind tests, with no enum lookup


@dataclass(frozen=True, slots=True, init=False)
class Event:
    """A single elementary happening at a position of a slice.  Construction
    checks the position and the label count, then sets each slot once."""

    kind: EventKind
    position: int
    labels: tuple[int, ...]

    def __init__(self, kind: EventKind, position: int, labels: tuple[int, ...]) -> None:
        if position < 0:
            raise DiagramError(f"negative event position {position}")
        need = 1 if kind is _CUP or kind is _CAP else 2
        if len(labels) != need:
            raise DiagramError(f"{kind.value} event needs {need} label(s)")
        _set_kind(self, kind)
        _set_position(self, position)
        _set_labels(self, labels)

    @property
    def arity_in(self) -> int:
        return 0 if self.kind is _CUP else 2

    @property
    def arity_out(self) -> int:
        return 0 if self.kind is _CAP else 2

    @property
    def is_crossing(self) -> bool:
        return self.kind in (_XPOS, _XNEG)

    @property
    def sign(self) -> int:
        if self.kind is _XPOS:
            return 1
        if self.kind is _XNEG:
            return -1
        return 0

    def consumes(self) -> tuple[int, ...]:
        """Labels this event requires on its input strands."""
        if self.kind is _CUP:
            return ()
        if self.kind is _CAP:
            k = self.labels[0]
            return (k, k + 1)
        return self.labels

    def emits(self) -> tuple[int, ...]:
        if self.kind is _CUP:
            k = self.labels[0]
            return (k + 1, k)
        if self.kind is _CAP:
            return ()
        a, b = self.labels
        return (b, a)

    def shifted(self, offset: int) -> "Event":
        return Event(self.kind, self.position + offset, self.labels)

    def __str__(self) -> str:
        inside = ",".join(str(x) for x in self.labels)
        return f"{self.kind.value}@{self.position}({inside})"


# a frozen value sets its slots through their descriptors, not object.__setattr__
_set_kind, _set_position, _set_labels = Event.kind.__set__, Event.position.__set__, Event.labels.__set__


def cup(k: int, at: int = 0) -> Event:
    return Event(EventKind.CUP, at, (k,))


def cap(k: int, at: int = 0) -> Event:
    return Event(EventKind.CAP, at, (k,))


def cross_pos(a: int, b: int, at: int = 0) -> Event:
    return Event(EventKind.XPOS, at, (a, b))


def cross_neg(a: int, b: int, at: int = 0) -> Event:
    return Event(EventKind.XNEG, at, (a, b))


@dataclass(frozen=True, slots=True, init=False)
class Slice:
    """One horizontal layer: an input word and in-order disjoint events.
    Construction sets each slot once (a tuple argument is kept as it is),
    types the slice by one walk, ``layout``, and keeps the output word;
    strand connectivity is position arithmetic (``strand_segments``)."""

    input: ObjectWord
    events: tuple[Event, ...] = ()
    _output: ObjectWord = field(init=False, repr=False, compare=False)

    def __init__(self, input: Sequence[int], events: Iterable[Event] = ()) -> None:
        _set_input(self, input if type(input) is tuple else tuple(input))
        _set_events(self, events if type(events) is tuple else tuple(events))
        self.__post_init__()

    def __post_init__(self) -> None:
        _set_output(self, self.layout())  # typing errors raise here

    def layout(self) -> ObjectWord:
        """The output word.  Positions are nondecreasing, and cups may tie
        (firing left to right); an event tied with, or inside the span of,
        an earlier consumer, or past the end of the word, is unreachable."""
        w = self.input
        out: list[int] = []
        p = 0  # the first input strand that no event has passed
        for e in self.events:
            q = e.position
            if q < p or q > len(w):
                span = "inside an earlier event's span or past the end of the word"
                self._refuse(f"event {e} is unreachable ({span})")
            out += w[p:q]
            if e.kind is not _CUP:
                have = w[q : q + 2]
                if len(have) < 2:
                    self._refuse(f"event {e} runs past the end of the word")
                if have != e.consumes():
                    self._refuse(f"event {e} expects strands {e.consumes()}, found {have}")
            out += e.emits()
            p = q + e.arity_in
        out += w[p:]
        return tuple(out)

    def _refuse(self, message: str) -> None:
        """Raise the walk's error, or the order error when positions decrease."""
        for e1, e2 in zip(self.events, self.events[1:]):
            if e2.position < e1.position:
                message = f"event positions must be nondecreasing within a slice ({e2})"
                break
        raise DiagramError(message)

    def output(self) -> ObjectWord:
        return self._output

    def __str__(self) -> str:
        return "slice: " + " ".join(str(e) for e in self.events)


_set_input, _set_events, _set_output = Slice.input.__set__, Slice.events.__set__, Slice._output.__set__


@dataclass(frozen=True)
class Diagram:
    """A stack of slices whose boundaries chain.

    The hash is computed on first use and kept: seen-sets look a diagram
    up many times, and most diagrams are never hashed at all.
    """

    source: ObjectWord
    slices: tuple[Slice, ...]
    target: ObjectWord = field(init=False)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", tuple(self.source))
        object.__setattr__(self, "slices", tuple(self.slices))
        word = self.source
        for i, s in enumerate(self.slices):
            if s.input != word:
                raise DiagramError(
                    f"slice {i} expects input {s.input}, previous boundary is {word}"
                )
            word = s.output()
        object.__setattr__(self, "target", word)

    def __hash__(self) -> int:
        if self._hash is None:  # target follows from source and slices
            object.__setattr__(self, "_hash", hash((self.source, self.slices)))
        return self._hash

    @staticmethod
    def identity(word: Sequence[int]) -> "Diagram":
        return Diagram(tuple(word), ())

    @staticmethod
    def from_events(source: Sequence[int], layers: Iterable[Iterable[Event]]) -> "Diagram":
        """Build a diagram from per-slice event lists, deriving each slice's
        input from the previous output."""
        word = tuple(source)
        slices = []
        for layer in layers:
            s = Slice(word, tuple(layer))
            slices.append(s)
            word = s.output()
        return Diagram(tuple(source), tuple(slices))

    @property
    def num_events(self) -> int:
        return sum(len(s.events) for s in self.slices)

    def events(self) -> list[tuple[int, Event]]:
        return [(i, e) for i, s in enumerate(self.slices) for e in s.events]

    def labels(self) -> set[int]:
        out = set(self.source)
        for s in self.slices:
            out.update(s.output())
            for e in s.events:
                out.update(e.labels)
        return out

    def __str__(self) -> str:
        return to_text(self)


def elementary(event: Event, dim: AmbientDim) -> Diagram:
    """One-slice diagram holding a single generator."""
    if event.is_crossing and not dim.allows_crossings:
        raise DiagramError("crossings are not allowed in the planar ambient dimension")
    source = event.consumes()
    e = Event(event.kind, 0, event.labels)
    return Diagram(source, (Slice(source, (e,)),))


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    """d1 then d2; requires d1.target == d2.source exactly."""
    compose_check(d1.target, d2.source)
    return Diagram(d1.source, d1.slices + d2.slices)


def compose_check(upper: ObjectWord, lower: ObjectWord) -> None:
    """Refuse to stack a lower boundary on an upper one it differs from."""
    if upper != lower:
        raise DiagramError(f"cannot compose: upper boundary {upper} != lower boundary {lower}")


def widen(acc: list[int], widths: Sequence[int]) -> None:
    """Add a factor's level widths to acc, the width left of the next
    factor at each level: offsets are prefix sums.  Above its top, a factor
    (and acc's last entry) counts its top width, as identity padding does."""
    top = len(widths) - 1
    acc += acc[-1:] * (top + 1 - len(acc))
    for i in range(len(acc)):
        acc[i] += widths[min(i, top)]


def place(layers: list[list[Event]], d: Diagram, level: int, offset: Callable) -> list[int]:
    """Append the events of d's slices to layers from level up, each built
    once, shifted by offset(its level); returns d's level widths."""
    widths = [len(d.source)]
    for i, s in enumerate(d.slices, level):
        if i == len(layers):
            layers.append([])
        x = offset(i)
        layers[i] += [Event(e.kind, e.position + x, e.labels) for e in s.events] if x else s.events
        widths.append(len(s.output()))
    return widths


def tensor(d1: Diagram, d2: Diagram) -> Diagram:
    """Horizontal juxtaposition, d1 on the left; the shorter diagram is
    padded on top with identity slices."""
    layers: list[list[Event]] = []
    acc = [0]
    for d in (d1, d2):
        widen(acc, place(layers, d, 0, lambda i: acc[min(i, len(acc) - 1)]))
    return Diagram.from_events(d1.source + d2.source, layers)


def degree(w: Sequence[int]) -> int:
    """Sum of (-1)^label over the word; conserved by every event."""
    return sum(-1 if k % 2 else 1 for k in w)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.valid:
            return "ok"
        return "\n".join(self.issues)


def validate(
    d: Diagram,
    dim: AmbientDim,
    label_window: tuple[int, int] | None = None,
) -> ValidationReport:
    """Check dimension legality.  Slice chaining and event typing need no
    check here: ``Slice`` and ``Diagram`` refuse to be built without them.
    Nor does a planar closed component: the label is constant along a
    strand and drops by one where the strand turns left, rises by one
    where it turns right, and a crossing-free closed curve, read
    counterclockwise, turns left twice more than right, so none types.

    ``label_window=(i, j)`` additionally rejects labels outside [-i, j].
    """
    issues: list[str] = []
    for idx, s in enumerate(d.slices):
        for e in s.events:
            if e.is_crossing and not dim.allows_crossings:
                issues.append(f"slice {idx}, position {e.position}: crossing in planar dimension")
    if label_window is not None:
        lo, hi = -label_window[0], label_window[1]
        bad = sorted(k for k in d.labels() if not lo <= k <= hi)
        if bad:
            issues.append(f"labels {bad} outside window [{lo},{hi}]")
    return ValidationReport(tuple(issues))


# ---------------------------------------------------------------------------
# strand tracing


@dataclass(frozen=True)
class Component:
    """A maximal strand of the underlying 1-manifold."""

    closed: bool
    ends: tuple[tuple[str, int], ...]
    crossings: tuple[tuple[int, int, int], ...]
    # each crossing incidence is (slice index, event position, sign),
    # listed once per strand of the crossing that lies on this component.


def strand_segments(
    d: Diagram,
) -> tuple[list[tuple[int, Event, tuple[int, ...], tuple[int, ...]]], ObjectWord]:
    """The strand segments of d, numbered by position arithmetic.

    A segment runs from where an event (or the source) emits a strand to
    where an event (or the target) takes it.  The source strands are
    segments 0..n-1 and each emitted strand takes the next number in
    reading order, so a strand that passes a slice keeps its number.
    Returns, for each event in reading order, (slice index, event,
    segments consumed, segments emitted), and the target's segments.
    """
    ids = list(range(len(d.source)))
    fresh = len(ids)
    events = []
    for i, s in enumerate(d.slices):
        shift = 0  # strands emitted minus strands consumed so far in this slice
        for e in s.events:
            p = e.position + shift
            ins = tuple(ids[p : p + e.arity_in])
            outs = tuple(range(fresh, fresh + e.arity_out))
            ids[p : p + e.arity_in] = outs
            fresh += e.arity_out
            shift += e.arity_out - e.arity_in
            events.append((i, e, ins, outs))
    return events, tuple(ids)


def trace_components(d: Diagram) -> list[Component]:
    """Partition strand segments into maximal components.

    A cup joins the two segments it emits, a cap the two it consumes, and
    each strand of a crossing leaves on the other side.  Closed components
    that tie in the sort keep the reading order of their lowest cups: the
    segments are registered in number order.
    """
    events, target = strand_segments(d)
    n = len(d.source)
    uf = UnionFind()
    for p in range(n):  # isolated when no event touches them
        uf.find(p)
    tagged = []
    for i, e, ins, outs in events:
        if e.kind is EventKind.CUP:
            uf.union(*outs)
        elif e.kind is EventKind.CAP:
            uf.union(*ins)
        else:
            uf.union(ins[1], outs[0])
            uf.union(ins[0], outs[1])
            tagged += [(x, (i, e.position, e.sign)) for x in ins]
    tags: dict = {}
    for x, tag in tagged:
        tags.setdefault(uf.find(x), []).append(tag)
    at_target = {x: q for q, x in enumerate(target)}
    components = []
    for segments in uf.groups():
        ends = [("source", x) for x in segments if x < n]
        ends += [("target", at_target[x]) for x in segments if x in at_target]
        crossings_on = tuple(sorted(tags.get(uf.find(segments[0]), ())))
        components.append(Component(not ends, tuple(sorted(ends)), crossings_on))
    components.sort(key=lambda c: (c.closed, c.ends))
    return components


def writhe(d: Diagram) -> int:
    """Total signed crossing count of a diagram all of whose components are
    closed."""
    if d.source or d.target:
        raise DiagramError("writhe requires all components closed")
    return sum(e.sign for _, e in d.events() if e.is_crossing)


def component_framings(d: Diagram) -> list[int]:
    """Per-component signed count of self-crossings (both strands of the
    crossing on the same component), aligned with trace_components."""
    comps = trace_components(d)
    framings = []
    for c in comps:
        seen: dict[tuple[int, int, int], int] = {}
        for tag in c.crossings:
            seen[tag] = seen.get(tag, 0) + 1
        framings.append(sum(tag[2] for tag, n in seen.items() if n == 2))
    return framings


def self_writhe(d: Diagram) -> int:
    """Signed count of crossings whose two strands lie on one component."""
    if d.source or d.target:
        raise DiagramError("writhe requires all components closed")
    return sum(component_framings(d))


def mirror(d: Diagram) -> Diagram:
    """Swap positive and negative crossings everywhere."""
    flip = {_XPOS: _XNEG, _XNEG: _XPOS}
    layers = [[Event(flip.get(e.kind, e.kind), e.position, e.labels) for e in s.events] for s in d.slices]
    return Diagram.from_events(d.source, layers)


# ---------------------------------------------------------------------------
# serialization


def to_text(d: Diagram) -> str:
    lines = ["source: " + " ".join(str(k) for k in d.source)]
    for s in d.slices:
        lines.append(("slice: " + " ".join(str(e) for e in s.events)).rstrip())
    return "\n".join(lines) + "\n"


def _parse_event(token: str) -> Event:
    try:
        head, rest = token.split("@", 1)
        pos_text, label_text = rest.split("(", 1)
        if not label_text.endswith(")"):
            raise ValueError
        labels = tuple(int(x) for x in label_text[:-1].split(","))
        position = int(pos_text)
    except ValueError as exc:
        raise DiagramError(f"cannot parse event {token!r}") from exc
    try:
        kind = EventKind(head)
    except ValueError:
        raise DiagramError(f"unknown event kind {head!r} in {token!r}") from None
    return Event(kind, position, labels)


def from_text(text: str) -> Diagram:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("source:"):
        raise DiagramError("serialized diagram must start with a 'source:' line")
    try:
        source = tuple(int(x) for x in lines[0][len("source:") :].split())
    except ValueError as exc:
        raise DiagramError(f"cannot parse source line {lines[0]!r}") from exc
    layers = []
    for ln in lines[1:]:
        if not ln.startswith("slice:"):
            raise DiagramError(f"expected a 'slice:' line, got {ln!r}")
        tokens = ln[len("slice:") :].split()
        layers.append([_parse_event(t) for t in tokens])
    return Diagram.from_events(source, layers)
