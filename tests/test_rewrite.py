import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from tangles import diagram, rewrite
from tangles.cli import parse_expr, to_diagram
from tangles.diagram import (
    AmbientDim,
    Diagram,
    DiagramError,
    EventKind,
    Slice,
    cap,
    compose,
    cross_neg,
    cross_pos,
    cup,
    degree,
    tensor,
    to_text,
    trace_components,
    validate,
)
from tangles.evaluate import (
    EvaluationError,
    evaluate,
    flip_datum,
    kauffman_datum,
    trivial_datum,
    unit_datum,
    validate_datum,
)
from tangles.generate import iter_closed_diagrams, random_diagram
from tangles.links import trefoil, unknot
from test_diagram import assert_planar_matching, reference_layout
from tangles.rewrite import (
    Equality,
    Move,
    MoveError,
    MoveKind,
    applicable_moves,
    apply_move,
    equal,
    expand,
    interchange_normal,
    normalize_planar,
    reduce_diagram,
)
from tangles.unionfind import UnionFind

PLANAR, BRAIDED, SYMMETRIC = AmbientDim.PLANAR, AmbientDim.BRAIDED, AmbientDim.SYMMETRIC


def zigzag_right(k=0):
    # strand k with a turnback pair on its right
    return Diagram.from_events((k,), [[cup(k, at=1)], [cap(k, at=0)]])


def zigzag_left(k=0):
    # strand k+1 with the turnback pair on its left
    return Diagram.from_events((k + 1,), [[cup(k, at=0)], [cap(k, at=1)]])


def double_twist_layers(k, p, sign):
    """A double framing curl on the strand of label k at position p: the
    matching is the identity but the strand crosses itself twice with the
    given sign (open strands always twist in pairs in this calculus)."""
    x = cross_pos if sign > 0 else cross_neg
    return [
        [cup(k - 1, at=p)],
        [x(k, k - 1, at=p)],
        [x(k - 1, k, at=p)],
        [cap(k - 1, at=p + 1)],
    ]


def test_zigzag_forward_both_shapes():
    for d, word in ((zigzag_right(), (0,)), (zigzag_left(), (1,))):
        moves = [m for m in applicable_moves(d, PLANAR) if m.kind is MoveKind.ZIGZAG]
        assert len(moves) == 1 and moves[0].forward
        assert apply_move(d, moves[0]) == Diagram.identity(word)


def test_zigzag_normal_forms_equal_identity():
    for k in range(-3, 3):
        assert normalize_planar(zigzag_right(k)) == normalize_planar(
            Diagram.identity((k,))
        )
        assert normalize_planar(zigzag_left(k)) == normalize_planar(
            Diagram.identity((k + 1,))
        )


def test_normalize_planar_traces_once(monkeypatch):
    rng = random.Random(7)
    cases = [random_diagram(rng, PLANAR) for _ in range(60)]
    cases += [trefoil(True), unknot(True)]
    expected = {}  # the error text, built before tracing is counted
    for d in cases:
        report = validate(d, PLANAR)
        if not report.valid:
            expected[id(d)] = f"not a valid planar diagram:\n{report}"
    assert 0 < len(expected) < len(cases)
    calls = []
    real = diagram.trace_components
    counting = lambda d: calls.append(d) or real(d)
    monkeypatch.setattr(diagram, "trace_components", counting)
    monkeypatch.setattr(rewrite, "trace_components", counting)
    for d in cases:
        calls.clear()
        if id(d) in expected:
            with pytest.raises(DiagramError) as err:
                normalize_planar(d)
            assert str(err.value) == expected[id(d)]
        else:
            normalize_planar(d)
            assert len(calls) == 1


def test_zigzag_tracked_through_interposed_slice():
    d = Diagram.from_events(
        (0, 2), [[cup(0, at=1)], [cup(1, at=4)], [cap(0, at=0)]]
    )
    moves = [m for m in applicable_moves(d, PLANAR) if m.kind is MoveKind.ZIGZAG]
    assert len(moves) == 1
    r = apply_move(d, moves[0])
    assert (r.source, r.target) == (d.source, d.target)
    assert r.num_events == 1


def test_zigzag_blocked_by_insertion_between_legs():
    # a cup inserted between the outer legs blocks the outer pair; only the
    # inner pair is a redex
    d = Diagram.from_events(
        (0,), [[cup(0, at=1)], [cup(1, at=2)], [cap(1, at=1)], [cap(0, at=0)]]
    )
    moves = [m for m in applicable_moves(d, PLANAR) if m.kind is MoveKind.ZIGZAG and m.forward]
    assert len(moves) == 1 and moves[0].slice_index == 1
    # after removing the inner pair, the outer pair becomes a redex and the
    # whole diagram reduces to the identity strand
    assert reduce_diagram(d, PLANAR) == Diagram.identity((0,))


def test_backward_zigzag_roundtrip():
    d = Diagram.identity((0, 1))
    moves = [
        m
        for m in applicable_moves(d, PLANAR, include_backward=True)
        if m.kind is MoveKind.ZIGZAG and not m.forward
    ]
    assert moves
    for m in moves[:6]:
        bigger = apply_move(d, m)
        assert (bigger.source, bigger.target) == (d.source, d.target)
        assert normalize_planar(bigger) == normalize_planar(d)


def test_expand_places_repeated_event_objects_in_turn():
    c = cup(0)
    aliased = Diagram.from_events((0,), [[c, c]])
    separate = Diagram.from_events((0,), [[cup(0), cup(0)]])
    assert aliased == separate
    stacked = Diagram.from_events((0,), [[cup(0, at=0)], [cup(0, at=2)]])
    assert expand(aliased) == expand(separate) == stacked
    c = cup(0, at=1)
    d = Diagram.from_events((0,), [[cup(-1, at=0), c, c]])
    assert [str(e) for _, e in expand(d).events()] == ["cup@0(-1)", "cup@3(0)", "cup@5(0)"]
    assert expand(d).target == d.target


def test_interchange_preserves_normal_form():
    d = Diagram.from_events((0, 0), [[cup(0, at=0)], [cup(0, at=4)]])
    moves = [m for m in applicable_moves(d, PLANAR) if m.kind is MoveKind.INTERCHANGE]
    assert moves
    swapped = apply_move(d, moves[0])
    assert swapped != expand(d)
    assert normalize_planar(swapped) == normalize_planar(d)
    # swapping back returns the original expanded form
    back_moves = [
        m for m in applicable_moves(swapped, PLANAR) if m.kind is MoveKind.INTERCHANGE
    ]
    assert any(apply_move(swapped, m) == expand(d) for m in back_moves)


def test_interchange_blocked_on_dependency():
    d = Diagram.from_events((0,), [[cup(0, at=1)], [cap(0, at=0)]])
    moves = [m for m in applicable_moves(d, PLANAR) if m.kind is MoveKind.INTERCHANGE]
    assert not moves


def layout_interchange(d, i):
    """The reference swap, read off the lower slice's layout: f is pulled
    below e through the inverted passthrough map (or beside e's output
    block), e is shifted by f's arity change when f lies to its left, and
    the swapped pair is typed on two throwaway slices."""
    if i + 1 >= len(d.slices):
        return None
    lower, upper = d.slices[i], d.slices[i + 1]
    (e,), (f,) = lower.events, upper.events
    _, passthrough, placements = reference_layout(lower.input, lower.events)
    outputs = placements[0].outputs
    inverse = {q: p for p, q in passthrough.items()}
    if f.arity_in:
        span = (f.position, f.position + 1)
        if any(q in outputs for q in span):
            return None
        if span[0] not in inverse or span[1] not in inverse:
            return None
        pre0, pre1 = inverse[span[0]], inverse[span[1]]
        if pre1 != pre0 + 1:
            return None
        f_new = diagram.Event(f.kind, pre0, f.labels)
        shift = f.arity_out - f.arity_in if pre1 < e.position else 0
    else:
        q = f.position
        if outputs and outputs[0] < q <= outputs[-1]:
            return None
        if q == len(upper.input):
            pre = len(lower.input)
        elif q in inverse:
            pre = inverse[q]
        elif outputs and q == outputs[0]:
            pre = e.position
        elif outputs and q == outputs[-1] + 1:
            pre = e.position + e.arity_in
        else:
            return None
        f_new = diagram.Event(f.kind, pre, f.labels)
        # f lies left of e when it inserts before e's output block: left of
        # e's position, or at the first of e's outputs
        left = q < e.position or (outputs and q == outputs[0])
        shift = f.arity_out if left else 0
    e_new = diagram.Event(e.kind, e.position + shift, e.labels)
    try:
        Slice(Slice(lower.input, (f_new,)).output(), (e_new,))
    except DiagramError:
        return None
    return f_new, e_new


def test_interchange_matches_the_layout_reference():
    cases = [(d, BRAIDED) for d in iter_closed_diagrams(6, 3)]
    for dim in (PLANAR, BRAIDED, SYMMETRIC):
        rng = random.Random(70 + dim.value)
        cases += [(random_diagram(rng, dim), dim) for _ in range(1500)]
    swaps = refusals = 0
    for d, dim in cases:
        pairs = [rewrite._interchange_apply(d.slices, i) for i in range(len(d.slices) - 1)]
        assert pairs == [layout_interchange(d, i) for i in range(len(d.slices) - 1)], to_text(d)
        listed = [m.slice_index for m in applicable_moves(d, dim) if m.kind is MoveKind.INTERCHANGE]
        assert listed == [i for i, pair in enumerate(pairs) if pair is not None]
        swaps += len(listed)
        refusals += len(pairs) - len(listed)
    assert swaps > 4000 and refusals > 4000


def test_interchange_of_a_cup_beside_a_cup_on_its_right_keeps_the_target():
    # f = cup(0) at 2 lies right of e = cup(1) at 0: f moves back to 0,
    # where it ties with e, and e stays at 0, left of f's strands
    d = Diagram.from_events((), [[cup(1, at=0)], [cup(0, at=2)]])
    assert d.target == (2, 1, 1, 0)
    (m,) = [m for m in applicable_moves(d, PLANAR) if m.kind is MoveKind.INTERCHANGE]
    swapped = apply_move(d, m)
    assert swapped == Diagram.from_events((), [[cup(0, at=0)], [cup(1, at=0)]])
    assert swapped.target == d.target


def test_every_listed_interchange_applies_keeps_the_boundary_and_changes_the_diagram():
    cases = [(d, BRAIDED) for d in iter_closed_diagrams(6, 3)]
    for dim in (PLANAR, BRAIDED, SYMMETRIC):
        cases += [(random_diagram(random.Random(s), dim), dim) for s in range(3000)]
    swaps = 0
    for d, dim in cases:
        for m in applicable_moves(d, dim):
            if m.kind is MoveKind.INTERCHANGE:
                r = apply_move(d, m)
                assert (r.source, r.target) == (d.source, d.target), (to_text(d), m)
                assert r != expand(d), (to_text(d), m)
                swaps += 1
    assert len(cases) == 9404 and swaps == 7470


def test_every_listed_move_applies():
    # the move search takes each listed neighbour without catching MoveError,
    # so a listed move that does not apply is a fault, not a skip
    cases = [(d, BRAIDED) for d in iter_closed_diagrams(6, 3)]
    for dim in (PLANAR, BRAIDED, SYMMETRIC):
        cases += [(random_diagram(random.Random(s), dim), dim) for s in range(1000)]
    applied = 0
    for d, dim in cases:
        for m in applicable_moves(d, dim, include_backward=True):
            r = apply_move(d, m)
            assert (r.source, r.target) == (d.source, d.target), (to_text(d), m)
            applied += 1
    assert len(cases) == 3404 and applied == 133150


def interchange_orbit(d):
    """Every diagram that listed INTERCHANGE moves reach from d.  Not every
    swap can be undone: a cup left of a cap's strands passes above the cap,
    and from there goes down on the right."""
    d = expand(d)
    seen, todo = {d}, [d]
    while todo:
        x = todo.pop()
        for m in applicable_moves(x, PLANAR):
            if m.kind is MoveKind.INTERCHANGE:
                y = apply_move(x, m)
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
    return seen


def is_connected(d):
    """One piece when each event joins the segments it consumes and emits
    (no joining through the boundary)."""
    events, _ = diagram.strand_segments(d)
    pieces = UnionFind()
    for x in range(len(d.source)):
        pieces.find(x)
    for _, _, ins, outs in events:
        for x in ins + outs:
            pieces.union((ins + outs)[0], x)
    return len(pieces.groups()) <= 1


def test_interchange_normal_lies_in_the_orbit_and_is_one_per_connected_orbit():
    cases = list(iter_closed_diagrams(6, 3))
    for dim in (PLANAR, BRAIDED, SYMMETRIC):
        cases += [random_diagram(random.Random(s), dim) for s in range(1000)]
    forms = {}

    def form(x):
        if x not in forms:
            forms[x] = interchange_normal(x)
        return forms[x]

    connected = several = 0
    for d in cases:
        orbit = interchange_orbit(d)
        assert form(d) in orbit, to_text(d)
        found = {form(x) for x in orbit}
        if is_connected(d):
            connected += 1
            assert found == {form(d)}, to_text(d)
        else:
            several += len(found) > 1
    # a closed loop or a floating turnback can pass a cap on either side
    assert len(cases) == 3404 and connected == 885 and several > 0


def test_interchange_normal_keeps_what_interchanges_keep():
    # draws too large to list their orbits: the form keeps each event's kind
    # and labels, the strand ends and every value, and on a connected
    # diagram it is its own form
    data = (kauffman_datum(), unit_datum(2, 1))

    def kept(x):
        return (
            sorted((e.kind.value, e.labels) for _, e in x.events()),
            sorted((c.closed, c.ends) for c in trace_components(x)),
            [evaluate(x, datum) for datum in data],
        )

    connected = 0
    for s in range(600):
        d = random_diagram(random.Random(s), (PLANAR, BRAIDED, SYMMETRIC)[s % 3], max_events=16, width=6, lo=-1, hi=1)
        form = interchange_normal(d)
        assert kept(form) == kept(d), to_text(d)
        if is_connected(d):
            connected += 1
            assert interchange_normal(form) == form, to_text(d)
    assert connected == 153


def test_interchange_normal_ties():
    # a cup directly above a cap: the cap goes first, the cup lands in its gap
    form = Diagram.from_events((0, 1), [[cap(0, at=0)], [cup(0, at=0)]])
    for layers in (
        [[cup(0, at=0)], [cap(0, at=2)]],
        [[cap(0, at=0)], [cup(0, at=0)]],
        [[cup(0, at=2)], [cap(0, at=0)]],
    ):
        assert interchange_normal(Diagram.from_events((0, 1), layers)) == form
    # two cups at one gap: the left one first; the other, brought down
    # directly above it, lands at p + 2
    form = Diagram.from_events((), [[cup(1, at=0)], [cup(0, at=2)]])
    for layers in ([[cup(1, at=0)], [cup(0, at=2)]], [[cup(0, at=0)], [cup(1, at=0)]]):
        assert interchange_normal(Diagram.from_events((), layers)) == form


def test_interchange_normal_layers_independent_towers():
    # two twisted pairs side by side, the left one listed first: the form
    # interleaves them, one crossing of each per layer
    left = [[cross_pos(0, 1, at=0)], [cross_pos(1, 0, at=0)]] * 3
    right = [[cross_pos(2, 3, at=2)], [cross_pos(3, 2, at=2)]] * 3
    form = Diagram.from_events((0, 1, 2, 3), [x for pair in zip(left, right) for x in pair])
    assert interchange_normal(Diagram.from_events((0, 1, 2, 3), left + right)) == form
    assert interchange_normal(form) == form


def marker_interchange_normal(d):
    """``interchange_normal`` as first written, with the closed caps kept
    as negative markers (-2 - height) inside the segment word, a count of
    them, and a per-event map from positions to word indices once a cap has
    closed: the reference the gap-height form must match."""
    d = expand(d)
    word: list[int] = list(range(len(d.source)))  # segments, and closed caps as -2 - height
    closed = 0  # closed caps in the word
    # blocked[a]: the height of what a cup left of segment a (None: the end) needs below it
    blocked: dict[int | None, int] = dict.fromkeys(word + [None], -1)
    emitted_at: dict[int, int] = dict.fromkeys(word, -1)
    emitter: dict[int, tuple[int, bool]] = {}  # segment -> (event, is its right output)
    events, heights, ins, outs, anchors = [], [], [], [], {}
    fresh = len(word)
    for k, s in enumerate(d.slices):
        e = s.events[0]
        reals = [j for j, x in enumerate(word) if x >= 0] + [len(word)] if closed else None
        j = reals[e.position] if closed else e.position
        if e.kind is EventKind.CUP:
            anchor = word[j] if j < len(word) else None
            anchors[k] = anchor
            height = blocked[anchor] + 1
            taken, lo, hi = (), j, j
        else:
            hi = (reals[e.position + 1] if closed else j + 1) + 1
            taken, lo = (word[j], word[hi - 1]), j
            between = word[j + 1 : hi - 1]
            closed -= len(between)
            height = 1 + max([emitted_at[x] for x in taken] + [-2 - g for g in between])
        made = (fresh, fresh + 1) if e.arity_out else ()
        fresh += len(made)
        if made:
            left, right = made
            blocked[left] = blocked[anchor if e.kind is EventKind.CUP else taken[0]]
            blocked[right] = emitted_at[left] = emitted_at[right] = height
            emitter[left], emitter[right] = (k, False), (k, True)
            word[lo:hi] = made
        else:  # a closed cap merges with the closed caps beside it
            ghost = -2 - height
            if lo and word[lo - 1] < 0:
                lo, ghost, closed = lo - 1, min(ghost, word[lo - 1]), closed - 1
            if hi < len(word) and word[hi] < 0:
                hi, ghost, closed = hi + 1, min(ghost, word[hi]), closed - 1
            word[lo:hi] = [ghost]
            closed += 1
        events.append(e)
        heights.append(height)
        ins.append(taken)
        outs.append(made)

    def land(a):
        """Where a cup left of segment a lands on the front, and the first
        cup of the layer that it descends beside."""
        path = []
        while a not in index and a not in landing:
            k, right = emitter.get(a, (-1, True))
            if right or heights[k] < h:
                raise RuntimeError("a cup of the layer cannot descend to its bottom")
            path.append(a)
            a = anchors[k] if k in anchors else ins[k][0]
        at, first = landing[a] if a in landing else (index[a], None)
        for a in reversed(path):
            k = emitter[a][0]
            first = k if k in anchors else first
            landing[a] = (at, first)
        return at, first

    layers: dict[int, list[int]] = {}
    for k, h in enumerate(heights):
        layers.setdefault(h, []).append(k)
    front = list(range(len(d.source)))
    out: list[list[diagram.Event]] = []
    for h in sorted(layers):
        index = {x: i for i, x in enumerate(front)}
        landing: dict[int | None, tuple[int, int | None]] = {None: (len(front), None)}
        keys, gaps = {}, {}
        for k in layers[h]:
            if k in anchors:
                at, first = land(anchors[k])
                gap = gaps.setdefault(at, [])
                gap.insert(gap.index(first) if first in gap else len(gap), k)
            else:
                keys[k] = (index[ins[k][0]], 0)
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
            out.append([diagram.Event(events[k].kind, p, events[k].labels)])
    form = Diagram.from_events(d.source, out)
    if form.target != d.target:
        raise RuntimeError("the interchange normal form changed the target")
    return form


def test_interchange_normal_matches_the_marker_reference():
    # closed caps as gap heights give the same forms, or the same fault,
    # as markers in the word, on the closed diagrams and draws of three sizes
    cases = list(iter_closed_diagrams(6, 3))
    for dim in (PLANAR, BRAIDED, SYMMETRIC):
        cases += [random_diagram(random.Random(s), dim) for s in range(1000)]
        cases += [random_diagram(random.Random(s), dim, max_events=16, width=6, lo=-1, hi=1) for s in range(1000)]
        cases += [random_diagram(random.Random(s), dim, max_events=40, width=8, lo=-2, hi=2) for s in range(300)]

    def outcome(form, d):
        try:
            return form(d)
        except RuntimeError as exc:
            return str(exc)

    capped = 0
    for d in cases:
        assert outcome(interchange_normal, d) == outcome(marker_interchange_normal, d), to_text(d)
        events = [e for _, e in d.events()]
        capped += any(e.kind is EventKind.CAP and i + 1 < len(events) for i, e in enumerate(events))
    assert len(cases) == 7304 and capped > 1000


def test_r2_forward_and_backward():
    d = Diagram.from_events((0, 1), [[cross_pos(0, 1)], [cross_neg(1, 0)]])
    moves = [m for m in applicable_moves(d, BRAIDED) if m.kind is MoveKind.R2]
    forward = [m for m in moves if m.forward]
    assert len(forward) == 1
    assert apply_move(d, forward[0]) == Diagram.identity((0, 1))
    ident = Diagram.identity((0, 1))
    back = [
        m
        for m in applicable_moves(ident, BRAIDED, include_backward=True)
        if m.kind is MoveKind.R2 and not m.forward
    ]
    assert back
    grown = apply_move(ident, back[0])
    assert grown.num_events == 2
    assert equal(grown, ident, BRAIDED, budget=50) is Equality.EQUAL


def test_r2_requires_same_strands():
    # the two crossings act on different strand pairs: no redex
    d = Diagram.from_events(
        (0, 1, 0, 1), [[cross_pos(0, 1, at=0)], [cross_neg(0, 1, at=2)]]
    )
    assert not [m for m in applicable_moves(d, BRAIDED) if m.kind is MoveKind.R2]
    # the second crossing takes one strand of the pair and its neighbour;
    # equal labels make its labels those of an undoing crossing
    for at in (0, 2):
        d = Diagram.from_events((0, 0, 0, 0), [[cross_pos(0, 0, at=1)], [cross_neg(0, 0, at=at)]])
        assert not [m for m in applicable_moves(d, SYMMETRIC) if m.kind is MoveKind.R2]


def test_r3_exchange():
    d = Diagram.from_events(
        (0, 0, 0),
        [[cross_pos(0, 0, at=0)], [cross_pos(0, 0, at=1)], [cross_pos(0, 0, at=0)]],
    )
    moves = [m for m in applicable_moves(d, BRAIDED) if m.kind is MoveKind.R3]
    assert moves
    other = apply_move(d, moves[0])
    positions = [s.events[0].position for s in other.slices]
    assert positions == [1, 0, 1]
    assert equal(d, other, BRAIDED, budget=10) is Equality.EQUAL
    # applying the symmetric detection on the result returns the original
    back = [m for m in applicable_moves(other, BRAIDED) if m.kind is MoveKind.R3]
    assert any(apply_move(other, m) == expand(d) for m in back)


def test_sym_collapse_only_symmetric():
    d = Diagram.from_events((0, 0), [[cross_pos(0, 0)]])
    assert not [m for m in applicable_moves(d, BRAIDED) if m.kind is MoveKind.SYM_COLLAPSE]
    moves = [m for m in applicable_moves(d, SYMMETRIC) if m.kind is MoveKind.SYM_COLLAPSE]
    assert len(moves) == 1
    flipped = apply_move(d, moves[0])
    assert flipped.slices[0].events[0].sign == -1


def test_kink2_removal():
    base = (0, 1)
    d = Diagram.from_events(base, double_twist_layers(0, 0, 1))
    # the block matches every strand to itself, with two self-crossings
    comps = trace_components(d)
    assert len(comps) == 2 and all(not c.closed for c in comps)
    moves = [m for m in applicable_moves(d, SYMMETRIC) if m.kind is MoveKind.KINK2]
    assert len(moves) == 1
    assert apply_move(d, moves[0]) == Diagram.identity(base)
    # not applicable in the braided case
    assert not [m for m in applicable_moves(d, BRAIDED) if m.kind is MoveKind.KINK2]


def test_kink2_does_not_drop_closed_components():
    # inside a cup-cross-cross-cap block a closed component forces the two
    # passing strands to swap (only two crossings exist), so the matching
    # is never the identity and the block is never removable
    circle_and_swap = Diagram.from_events(
        (0, 0),
        [
            [cup(0, at=2)],
            [cross_pos(1, 0, at=2)],
            [cross_pos(0, 0, at=0)],
            [cap(0, at=2)],
        ],
    )
    assert any(c.closed for c in trace_components(circle_and_swap))
    moves = [
        m
        for m in applicable_moves(circle_and_swap, SYMMETRIC)
        if m.kind is MoveKind.KINK2
    ]
    assert not moves


def test_apply_move_refuses_hand_built_moves_off_their_redex():
    # three crossings of mixed sign are no side of the braid relation
    mixed = Diagram.from_events(
        (0, 1, 2),
        [[cross_pos(0, 1, at=0)], [cross_neg(0, 2, at=1)], [cross_pos(1, 2, at=0)]],
    )
    with pytest.raises(MoveError):
        apply_move(mixed, Move(MoveKind.R3, True, 0, 2, 0, (1,), "left"))
    # the cup's strand pair is next touched by a crossing, not by a cap
    crossed = Diagram.from_events((0,), [[cup(0, at=1)], [cross_pos(0, 1, at=0)]])
    assert crossed.target == (1, 0, 0)
    with pytest.raises(MoveError):
        apply_move(crossed, Move(MoveKind.ZIGZAG, True, 0, 1, 1, (0,), "cap_left"))


def test_apply_move_refuses_a_backward_move_off_the_levels():
    d = Diagram.from_events((0,), [[cup(0, at=1)]])
    for i in (5, -1):  # past the top level, and a negative level
        with pytest.raises(MoveError):
            apply_move(d, Move(MoveKind.ZIGZAG, False, i, position=0, labels=(0,), variant="cap_left"))
    for i in (0, 1):  # the source and the target are levels
        grown = apply_move(d, Move(MoveKind.ZIGZAG, False, i, position=0, labels=(0,), variant="cap_left"))
        assert grown.num_events == 3 and [len(s.events) for s in grown.slices[i : i + 2]] == [1, 1]


_OTHER_VARIANT = {"cap_left": "cap_right", "cap_right": "cap_left", "left": "right", "right": "left"}


def single_field_changes(m):
    """m with one of position, other_index, variant or labels changed."""
    labels = m.labels[:-1] + (m.labels[-1] + 1,) if m.labels else (0,)
    return [
        replace(m, position=m.position - 1),
        replace(m, position=m.position + 1),
        replace(m, other_index=m.other_index - 1),
        replace(m, other_index=m.other_index + 1),
        replace(m, variant=_OTHER_VARIANT.get(m.variant, "left")),
        replace(m, labels=labels),
    ]


def test_forward_moves_apply_only_at_their_redex():
    cases = [(d, dim) for d in iter_closed_diagrams(6, 3) for dim in (BRAIDED, SYMMETRIC)]
    rng = random.Random(71)
    for dim in (BRAIDED, SYMMETRIC):
        cases += [(random_diagram(rng, dim, max_events=8, width=6), dim) for _ in range(300)]
    changed = refused = 0
    for d, dim in cases:
        listed = applicable_moves(d, dim)
        for m in listed:
            for other in single_field_changes(m):
                changed += 1
                try:
                    apply_move(d, other)
                except MoveError:
                    refused += 1
                    continue
                assert other in listed, (to_text(d), m, other)
    assert refused > changed // 2  # most single-field changes leave the redex


def test_reduce_symmetric_normalizes_double_twists():
    base = (0,)
    d = Diagram.from_events(base, double_twist_layers(0, 0, 1))
    assert reduce_diagram(d, SYMMETRIC) == Diagram.identity(base)
    # an opposite-sign pair already cancels through R2 plus zigzag
    braided_pair = Diagram.from_events(
        base,
        [
            [cup(-1, at=0)],
            [cross_pos(0, -1, at=0)],
            [cross_neg(-1, 0, at=0)],
            [cap(-1, at=1)],
        ],
    )
    assert reduce_diagram(braided_pair, SYMMETRIC) == Diagram.identity(base)


def reference_reduce(d, dim):
    """Forward reduction as a list-then-filter loop: list every move, keep
    the forward zigzag, R2 and double-twist moves, apply the first."""
    d = expand(d)
    if dim is SYMMETRIC:
        for i, s in enumerate(d.slices):
            e = s.events[0]
            if e.kind is EventKind.XNEG:
                d = apply_move(d, Move(MoveKind.SYM_COLLAPSE, True, i, position=e.position))
    reducing = (MoveKind.ZIGZAG, MoveKind.R2, MoveKind.KINK2)
    while True:
        moves = [m for m in applicable_moves(d, dim) if m.forward and m.kind in reducing]
        if not moves:
            return d
        d = apply_move(d, moves[0])


def r2_chain(pairs):
    """pairs second Reidemeister pairs on the strands (0, 1), alternating sign."""
    layers = []
    for i in range(pairs):
        x, y = (cross_pos, cross_neg) if i % 2 == 0 else (cross_neg, cross_pos)
        layers += [[x(0, 1)], [y(1, 0)]]
    return Diagram.from_events((0, 1), layers)


def cupped_r2_chain(pairs):
    """A cup whose right strand meets strand 1 in pairs second Reidemeister
    pairs before a cap closes the zigzag: the cup's read reaches every R2
    redex above it, and only the last R2 step makes it a zigzag redex."""
    layers = [[cup(0)]]
    for i in range(pairs):
        x, y = (cross_pos, cross_neg) if i % 2 == 0 else (cross_neg, cross_pos)
        layers += [[x(0, 1, at=1)], [y(1, 0, at=1)]]
    return Diagram.from_events((1,), layers + [[cap(0, at=1)]])


def lifted(d, crossings=4, idle=()):
    """d above a braid of positive crossings on two extra strands at its
    right, which no move reduces in the braided case, so that every redex
    of d sits that many slices higher; idle strands pass at the far right."""
    n = len(d.source)
    braid = [[cross_pos(*pair, at=n)] for pair in ((5, 6), (6, 5)) * (crossings // 2)]
    return Diagram.from_events(d.source + (5, 6) + idle, braid + [list(s.events) for s in d.slices])


def test_reduce_matches_list_then_filter_reference():
    cases = [(d, dim) for d in iter_closed_diagrams(6, 3) for dim in (BRAIDED, SYMMETRIC)]
    rng = random.Random(53)
    for dim in (PLANAR, BRAIDED, SYMMETRIC):
        cases += [(random_diagram(rng, dim, max_events=12, width=6), dim) for _ in range(150)]
        cases += [(random_diagram(rng, dim, max_events=40, width=6), dim) for _ in range(60)]
    for pairs in (20, 80):
        cases += [(zigzag_chain(pairs), dim) for dim in (PLANAR, BRAIDED, SYMMETRIC)]
        cases += [(chain(pairs), dim) for chain in (r2_chain, cupped_r2_chain) for dim in (BRAIDED, SYMMETRIC)]
    cases += [(zigzag_chain(320), BRAIDED), (r2_chain(320), SYMMETRIC), (cupped_r2_chain(320), BRAIDED)]
    cases += [(lifted(cupped_r2_chain(pairs)), BRAIDED) for pairs in (1, 2, 20)]
    reduced = 0
    for d, dim in cases:
        r = reduce_diagram(d, dim)
        assert to_text(r) == to_text(reference_reduce(d, dim))
        reduced += r.num_events < d.num_events
    assert reduced > len(cases) // 5  # the reference is exercised, not only on normal forms


def zigzag_chain(pairs):
    """pairs zigzags on one strand of level 0, the turnback alternating
    between its right and its left."""
    layers = []
    for i in range(pairs):
        if i % 2 == 0:
            layers += [[cup(0, at=1)], [cap(0, at=0)]]
        else:
            layers += [[cup(-1, at=0)], [cap(-1, at=1)]]
    return Diagram.from_events((0,), layers)


def test_reduce_zigzag_chain_searches_only_reducing_moves(monkeypatch):
    d = zigzag_chain(80)
    layouts, interchanges = [], []
    real_layout = Slice.layout
    monkeypatch.setattr(Slice, "layout", lambda s: layouts.append(s) or real_layout(s))
    monkeypatch.setattr(rewrite, "_interchange_apply", lambda *args, **kw: interchanges.append(args))
    assert reduce_diagram(d, BRAIDED) == Diagram.identity((0,))
    assert len(layouts) <= len(d.slices) == 160
    assert interchanges == []


def test_reduce_calls_its_matchers_a_bounded_number_of_times_per_event(monkeypatch):
    # a count, not a timing: a step resumes each matcher near its redex, so
    # the calls per event stay flat as the chains grow
    calls = []
    for name in ("_zigzag_at", "_r2_at", "_kink2_at"):
        real = getattr(rewrite, name)
        monkeypatch.setattr(rewrite, name, lambda *args, real=real: calls.append(1) or real(*args))
    for pairs in (80, 320, 1280):  # 160, 640 and 2,560 events
        for d, dim in (
            (zigzag_chain(pairs), BRAIDED),
            (r2_chain(pairs), BRAIDED),
            (r2_chain(pairs), SYMMETRIC),
            (cupped_r2_chain(pairs), BRAIDED),
        ):
            calls.clear()
            assert reduce_diagram(d, dim).num_events == 0
            assert len(calls) <= 3 * d.num_events, (pairs, dim, len(calls))
    # the walk down from a redex is taken once for a run of steps at one
    # slice, even when two idle strands keep it going to the bottom
    walks = []
    real_walk = rewrite._reads_reaching
    monkeypatch.setattr(rewrite, "_reads_reaching", lambda *args: walks.append(1) or real_walk(*args))
    d = lifted(zigzag_chain(640), crossings=1280, idle=(7, 8))
    calls.clear()
    assert reduce_diagram(d, BRAIDED).num_events == 1280
    assert len(calls) <= 3 * d.num_events and len(walks) == 1


def test_moves_preserve_structure_randomized():
    rng = random.Random(41)
    data = [kauffman_datum(), trivial_datum(), unit_datum(2, 1)]
    checked = 0
    while checked < 60:
        d = random_diagram(rng, BRAIDED, max_events=5, width=5, lo=-1, hi=1)
        moves = applicable_moves(d, BRAIDED, include_backward=True)
        if not moves:
            continue
        m = rng.choice(moves)
        r = apply_move(d, m)
        checked += 1
        assert expand(d) is d
        assert all(a is b for a, b in zip(r.slices[: m.slice_index], d.slices))
        assert (r.source, r.target) == (d.source, d.target)
        assert degree(r.source) == degree(r.target)
        ends = sorted(c.ends for c in trace_components(d))
        assert ends == sorted(c.ends for c in trace_components(r))
        for datum in data:
            assert evaluate(d, datum) == evaluate(r, datum)


def test_slice_output_is_its_layout_word():
    for d in iter_closed_diagrams(6, 3):
        m = applicable_moves(d, BRAIDED, include_backward=True)[0]
        r = apply_move(d, m)
        assert expand(d) is d
        assert all(a is b for a, b in zip(r.slices[: m.slice_index], d.slices))
        for s in d.slices + r.slices:
            assert s.output() == s.layout() == reference_layout(s.input, s.events)[0]


def test_symmetric_moves_preserve_symmetric_data():
    rng = random.Random(43)
    data = [trivial_datum(), unit_datum(0, -1), flip_datum()]
    checked = 0
    while checked < 40:
        d = random_diagram(rng, SYMMETRIC, max_events=6, width=5, lo=-1, hi=1)
        moves = [
            m
            for m in applicable_moves(d, SYMMETRIC, include_backward=True)
            if m.kind in (MoveKind.SYM_COLLAPSE, MoveKind.KINK2)
        ]
        if not moves:
            continue
        m = rng.choice(moves)
        r = apply_move(d, m)
        checked += 1
        for datum in data:
            assert evaluate(d, datum) == evaluate(r, datum)


def test_kink2_invariance_under_flip_datum():
    base = (0, 1)
    d = Diagram.from_events(base, double_twist_layers(0, 0, 1))
    moves = [m for m in applicable_moves(d, SYMMETRIC) if m.kind is MoveKind.KINK2]
    r = apply_move(d, moves[0])
    F = flip_datum()
    assert evaluate(d, F) == evaluate(r, F)


def test_normalize_planar_invariants_random():
    rng = random.Random(47)
    for _ in range(300):
        assert_planar_matching(random_diagram(rng, PLANAR, max_events=6, width=6, lo=-2, hi=2))


def test_interchange_law_up_to_congruence():
    # (a x b) ; (c x d) and (a ; c) x (b ; d) agree up to far commutation:
    # equal planar normal forms, equal braided evaluations
    rng = random.Random(59)
    quadruples = 0
    while quadruples < 60:
        a = random_diagram(rng, BRAIDED, max_events=3, width=3, lo=-1, hi=1)
        b = random_diagram(rng, BRAIDED, max_events=3, width=3, lo=-1, hi=1)
        c = random_diagram(rng, BRAIDED, source=a.target, max_events=3, width=3, lo=-1, hi=1)
        d = random_diagram(rng, BRAIDED, source=b.target, max_events=3, width=3, lo=-1, hi=1)
        lhs = compose(tensor(a, b), tensor(c, d))
        rhs = tensor(compose(a, c), compose(b, d))
        quadruples += 1
        planar = all(
            not e.is_crossing for dd in (lhs, rhs) for _, e in dd.events()
        )
        if planar:
            assert normalize_planar(lhs) == normalize_planar(rhs)
        K = kauffman_datum()
        assert evaluate(lhs, K) == evaluate(rhs, K)


def test_normalize_planar_functorial_on_compositions():
    # the normal form of a composite depends only on the factors' forms
    rng = random.Random(53)
    for _ in range(100):
        d1 = random_diagram(rng, PLANAR, max_events=4, width=5, lo=-1, hi=1)
        d2 = random_diagram(rng, PLANAR, source=d1.target, max_events=4, width=5, lo=-1, hi=1)
        e1 = reduce_diagram(d1, PLANAR)
        e2 = reduce_diagram(d2, PLANAR)
        assert normalize_planar(compose(d1, d2)) == normalize_planar(compose(e1, e2))


def test_equal_planar_examples():
    assert equal(zigzag_right(), Diagram.identity((0,)), PLANAR) is Equality.EQUAL
    other = Diagram.from_events((0,), [[cup(-1, at=0)], [cap(-1, at=1)]])
    assert (other.source, other.target) == ((0,), (0,))
    assert equal(other, Diagram.identity((0,)), PLANAR) is Equality.EQUAL


def test_equal_planar_distinct_matchings():
    # (1, 0) -> (1, 0, 1, 0): the new turnback right of the through strands, or left
    right = Diagram.from_events((1, 0), [[cup(0, at=2)]])
    left = Diagram.from_events((1, 0), [[cup(0, at=0)]])
    assert normalize_planar(right) != normalize_planar(left)
    assert equal(right, left, PLANAR) is Equality.DISTINCT


def test_replace_refuses_layers_that_change_the_word_above():
    # every move keeps its boundary, so such layers are a fault, not a move
    slices = list(Diagram.from_events((0,), [[cup(0, at=1)], [cap(0, at=0)]]).slices)
    before = list(slices)
    for start, stop, layers in (
        (0, 2, [[cup(1, at=1)]]),  # (0,) -> (0, 2, 1) where (0,) was
        (1, 2, []),  # leaves (0, 1, 0) where (0,) was
        (1, 1, [[cap(0, at=0)]]),  # an insertion that does not end on (0, 1, 0)
        (2, 2, [[cup(0, at=0)]]),  # an insertion at the top
    ):
        word = slices[start].input if start < len(slices) else slices[-1].output()
        with pytest.raises(RuntimeError):
            rewrite._replace(slices, start, stop, layers, word)
        assert slices == before
    rewrite._replace(slices, 0, 2, [], (0,))  # the zigzag's removal keeps (0,)
    assert slices == []


def test_mixed_matching_normal_form():
    # a cup beside a cap: one target turnback (1, 0), one source turnback (2, 3)
    d = tensor(
        Diagram.from_events((), [[cup(0)]]),
        Diagram.from_events((2, 3), [[cap(2, at=0)]]),
    )
    nf = normalize_planar(d)
    assert nf.source == (2, 3) and nf.target == (1, 0)
    assert nf.arcs == (
        (("source", 0), ("source", 1)),
        (("target", 0), ("target", 1)),
    )


def test_equal_braided_examples():
    assert equal(trefoil(), unknot(), BRAIDED, budget=50) is Equality.DISTINCT
    d = Diagram.from_events(
        (0, 0, 0),
        [[cross_pos(0, 0, at=0)], [cross_pos(0, 0, at=1)], [cross_pos(0, 0, at=0)]],
    )
    assert equal(d, apply_move(d, applicable_moves(d, BRAIDED)[0]), BRAIDED) is Equality.EQUAL


def test_equal_unknown_with_tiny_budget():
    # the same unknot grown by opposite double twists: framed-equal, with
    # all evaluations agreeing, but a tiny search budget cannot join them
    u1 = unknot(True)
    layers = [list(s.events) for s in u1.slices]
    # after the cup the word is (1, 0); twist the strand at position 1
    grown = Diagram.from_events(
        (),
        layers[:1]
        + double_twist_layers(0, 1, 1)
        + double_twist_layers(0, 1, -1)
        + layers[1:],
    )
    assert len(trace_components(grown)) == 1
    verdict = equal(u1, grown, BRAIDED, budget=1)
    assert verdict in (Equality.UNKNOWN, Equality.EQUAL)


def _bench_equal_pairs():
    """(key, d1, d2, budget, verdict) of every recorded benchmark equal op."""
    path = Path(__file__).resolve().parent.parent / "bench" / "expected.json"
    pairs = []
    for key, verdict in json.loads(path.read_text(encoding="utf-8")).items():
        if key.startswith("equal "):
            head, rest = key.split(" [", 1)
            d1, d2 = (to_diagram(parse_expr(t), BRAIDED) for t in rest[:-1].split("] ["))
            pairs.append((key, d1, d2, int(head.split()[-1]), verdict))
    return pairs


def test_equal_verdicts_on_the_bench_universe():
    recorded = _bench_equal_pairs()
    assert len(recorded) > 300
    for key, d1, d2, budget, verdict in recorded:
        assert equal(d1, d2, BRAIDED, budget=budget).value == verdict, key


def test_reduction_keeps_the_signature():
    # equal compares the signatures of the reduced pair; they must be those
    # of the inputs, or reduction would decide pairs the signature separates
    rng = random.Random(71)
    for dim in (BRAIDED, SYMMETRIC):
        pool = list(iter_closed_diagrams(6, 3)) + [
            random_diagram(rng, dim, max_events=8, width=5, lo=-1, hi=1) for _ in range(600)
        ]
        reduced = 0
        for d in pool:
            r = reduce_diagram(d, dim)
            reduced += r.num_events < d.num_events
            assert rewrite._signature(r, dim) == rewrite._signature(d, dim), to_text(d)
        assert reduced > 100


def test_pairs_the_search_joins_have_equal_values():
    # equal evaluates before it searches, which is sound only if no pair the
    # search joins is separated by a separating datum: the benchmark's search
    # pairs (equal, yet reduced apart) and seeded one-move neighbours
    pairs = [
        (BRAIDED, d1, d2)
        for _, d1, d2, _, verdict in _bench_equal_pairs()
        if verdict == "equal" and reduce_diagram(d1, BRAIDED) != reduce_diagram(d2, BRAIDED)
    ]
    assert len(pairs) >= 8
    rng = random.Random(73)
    for dim in (BRAIDED, SYMMETRIC):
        for _ in range(60):
            d = random_diagram(rng, dim, max_events=6, width=5, lo=-1, hi=1)
            moves = applicable_moves(d, dim, include_backward=True)
            for m in rng.sample(moves, min(6, len(moves))):
                d2 = apply_move(d, m)
                assert (d2.source, d2.target) == (d.source, d.target), (to_text(d), m)
                pairs.append((dim, d, d2))
    assert len(pairs) > 500
    for dim, d1, d2 in pairs:
        for datum in rewrite._separating_data(dim is SYMMETRIC):
            assert evaluate(d1, datum) == evaluate(d2, datum), (to_text(d1), to_text(d2))


def test_separating_data_are_valid():
    for symmetric, dim in ((False, BRAIDED), (True, SYMMETRIC)):
        for datum in rewrite._separating_data(symmetric):
            assert validate_datum(datum, dim).valid, datum.name


def test_equal_searches_a_pair_too_wide_to_evaluate():
    # six trefoils side by side, each joined to the next by one crossing:
    # one component and one group 24 strands wide, which the rank-2 Kauffman
    # datum refuses (2^24 words), so only the search can decide the pair
    k = 6
    layers = []
    for t in range(k):
        layers += [[cup(0, at=4 * t)], [cup(1, at=4 * t + 2)]]
    for t in range(k):
        layers += [[cross_pos(0, 2, at=4 * t + 1)], [cross_pos(2, 0, at=4 * t + 1)]]
        layers += [[cross_pos(0, 2, at=4 * t + 1)]]
    layers += [[cross_pos(1, 1, at=4 * t + 3)] for t in range(k - 1)]
    for t in reversed(range(k)):
        layers += [[cap(1, at=4 * t)], [cap(0, at=4 * t)]]
    d1 = Diagram.from_events((), layers)
    # the first trefoil's last twist and the second trefoil's first, swapped
    i = 2 * k + 2
    d2 = Diagram.from_events((), layers[:i] + [layers[i + 1], layers[i]] + layers[i + 2 :])
    assert len(trace_components(d1)) == 1
    assert reduce_diagram(d1, BRAIDED) != reduce_diagram(d2, BRAIDED)
    with pytest.raises(EvaluationError):
        evaluate(d1, kauffman_datum())
    assert equal(d1, d2, BRAIDED, budget=5000) is Equality.EQUAL
    # the pair is one interchange apart, so the normal forms decide it
    assert interchange_normal(d1) == interchange_normal(d2)
    assert equal(d1, d2, BRAIDED, budget=0) is Equality.EQUAL
    # the braid relation is no interchange: with the full twist on three
    # strands before the caps, nothing but the search could join the pair
    # one R3 apart, and at budget 0 it is Unknown
    i = len(layers) - 2 * k
    a, b, c = Diagram.from_events((), layers[:i]).target[:3]
    braid = [[cross_pos(a, b, at=0)], [cross_pos(a, c, at=1)], [cross_pos(b, c, at=0)]]
    braid += [[cross_pos(c, b, at=0)], [cross_pos(c, a, at=1)], [cross_pos(b, a, at=0)]]
    d3 = Diagram.from_events((), layers[:i] + braid + layers[i:])
    (m,) = [m for m in applicable_moves(d3, BRAIDED) if m.kind is MoveKind.R3 and m.slice_index == i]
    d4 = apply_move(d3, m)
    assert interchange_normal(reduce_diagram(d3, BRAIDED)) != interchange_normal(reduce_diagram(d4, BRAIDED))
    with pytest.raises(EvaluationError):
        evaluate(d3, kauffman_datum())
    assert equal(d3, d4, BRAIDED, budget=0) is Equality.UNKNOWN


def test_equal_boundary_mismatch():
    with pytest.raises(Exception):
        equal(Diagram.identity((0,)), Diagram.identity((1,)), PLANAR)


def test_normalize_planar_at_scale():
    # a tower of 500 turnback pairs: 1000 events
    layers = []
    for _ in range(500):
        layers.append([cup(0, at=1)])
        layers.append([cap(0, at=0)])
    tall = Diagram.from_events((0,), layers)
    assert tall.num_events == 1000
    assert normalize_planar(tall) == normalize_planar(Diagram.identity((0,)))
    # full rewriting to the empty diagram, at a smaller height
    shorter = Diagram.from_events((0,), layers[:200])
    assert reduce_diagram(shorter, PLANAR) == Diagram.identity((0,))


def test_reduce_diagram_bounds_its_steps_by_the_event_count(monkeypatch):
    # every step removes at least two events, so a reduction that has not
    # ended after num_events // 2 + 1 steps is a fault: a step that
    # removes nothing is stopped there
    d = Diagram.from_events((0,), [[cup(0, at=1)], [cap(0, at=0)]] * 3)
    calls = []

    def stuck(slices, start, stop, layers, word):
        calls.append(start)

    monkeypatch.setattr(rewrite, "_replace", stuck)
    with pytest.raises(MoveError):
        reduce_diagram(d, PLANAR)
    assert len(calls) == d.num_events // 2 + 1 == 4


def test_equal_builds_its_evaluation_data_once(monkeypatch):
    # ``tangles.evaluate`` is shadowed by the function the package exports
    evaluate_module = sys.modules["tangles.evaluate"]
    calls = []
    real = evaluate_module.kauffman_datum
    monkeypatch.setattr(evaluate_module, "kauffman_datum", lambda: calls.append(1) or real())
    # an unknot with three kinks has the trefoil's signature, so evaluation
    # decides before any search
    kinked = Diagram.from_events(
        (),
        [[cup(0)], [cross_pos(1, 0)], [cross_pos(0, 1)], [cross_pos(1, 0)], [cap(0)]],
    )
    for _ in range(3):
        assert equal(trefoil(), kinked, BRAIDED, budget=5) is Equality.DISTINCT
    assert len(calls) <= 1


@pytest.mark.parametrize(
    "move, message",
    [
        (Move(MoveKind.ZIGZAG, False, 0, position=0, labels=(5,), variant="cap_left"),
         "no strand of the required level at the site"),
        (Move(MoveKind.ZIGZAG, False, 0, position=1, labels=(0,), variant="cap_right"),
         "no strand of the required level at the site"),
        (Move(MoveKind.R2, False, 0, position=0, labels=(1,)), "no adjacent strand pair at the site"),
        (Move(MoveKind.R3, False, 0), "r3 has no backward move"),
    ],
)
def test_a_backward_move_without_its_site_is_refused(move, message):
    with pytest.raises(MoveError) as info:
        apply_move(Diagram.identity((0,)), move)
    assert str(info.value) == message
