import dataclasses
import itertools
import random

import pytest

from tangles.diagram import (
    AmbientDim,
    Component,
    Diagram,
    DiagramError,
    Event,
    EventKind,
    Slice,
    cap,
    component_framings,
    compose,
    cross_pos,
    cup,
    degree,
    elementary,
    from_text,
    mirror,
    self_writhe,
    tensor,
    to_text,
    trace_components,
    validate,
    writhe,
)
from tangles.evaluate import bracket, loop_value
from tangles.generate import (
    iter_closed_diagrams,
    iter_diagrams,
    random_composable_pair,
    random_diagram,
)
from tangles.links import BUILTINS, hopf, trefoil, unknot, unlink
from tangles.rewrite import normalize_planar
from tangles.rings import Laurent
from tangles.unionfind import UnionFind

PLANAR = AmbientDim.PLANAR
BRAIDED = AmbientDim.BRAIDED


def zigzag():
    return Diagram.from_events((0,), [[cup(0, at=1)], [cap(0, at=0)]])


def test_elementary_boundaries():
    d = elementary(cup(0), BRAIDED)
    assert d.source == () and d.target == (1, 0)
    d = elementary(cap(0), BRAIDED)
    assert d.source == (0, 1) and d.target == ()
    d = elementary(cross_pos(3, -1), BRAIDED)
    assert d.source == (3, -1) and d.target == (-1, 3)


def test_crossing_forbidden_planar():
    with pytest.raises(DiagramError):
        elementary(cross_pos(0, 0), PLANAR)


def test_compose_identity_neutral():
    d = zigzag()
    assert compose(Diagram.identity(d.source), d) == d
    assert compose(d, Diagram.identity(d.target)) == d


def test_compose_zigzag_shape():
    lower = tensor(Diagram.identity((0,)), elementary(cup(0), PLANAR))
    upper = tensor(elementary(cap(0), PLANAR), Diagram.identity((0,)))
    d = compose(lower, upper)
    assert d.source == (0,) and d.target == (0,)
    assert d.slices[0].output() == (0, 1, 0)


def test_compose_mismatch():
    with pytest.raises(DiagramError):
        compose(elementary(cup(0), PLANAR), elementary(cap(1), PLANAR))
    with pytest.raises(DiagramError) as err:
        Diagram((0,), (Slice((1,), ()),))  # the slices must chain from the source
    assert str(err.value) == "slice 0 expects input (1,), previous boundary is (0,)"


def test_tensor_examples():
    d = zigzag()
    assert tensor(d, Diagram.identity(())) == d
    both = tensor(elementary(cup(0), PLANAR), elementary(cup(2), PLANAR))
    assert both.source == () and both.target == (1, 0, 3, 2)
    u, v = (0, 1), (5,)
    assert tensor(Diagram.identity(u), Diagram.identity(v)) == Diagram.identity(u + v)


def test_tensor_padding():
    tall = compose(zigzag(), zigzag())
    wide = tensor(tall, elementary(cup(1), PLANAR))
    assert wide.target == (0, 2, 1)
    assert len(wide.slices) == 4


def side_by_side_reference(factors):
    """Juxtaposition as it was first written, level by level: each factor's
    events shifted by the sum of the widths to its left at that level, a
    factor above its top counting its top width (identity padding)."""
    layers = []
    for i in range(max(len(d.slices) for d in factors)):
        offset, events = 0, []
        for d in factors:
            if i < len(d.slices):
                events += [e.shifted(offset) for e in d.slices[i].events]
                offset += len(d.slices[i].input)
            else:
                offset += len(d.target)
        layers.append(events)
    return Diagram.from_events(sum((d.source for d in factors), ()), layers)


def random_factors(rng, count):
    """count random diagrams of one dimension, mostly of unequal heights; a
    third of them are juxtapositions themselves, so that slices hold
    several, often tied, events."""
    dim = rng.choice(list(AmbientDim))
    factors = []
    for _ in range(count):
        d = random_diagram(rng, dim, max_events=rng.randrange(7), width=4)
        if rng.random() < 0.3:
            d = side_by_side_reference([d, random_diagram(rng, dim, max_events=3, width=3)])
        factors.append(d)
    return dim, factors


def test_tensor_matches_the_side_by_side_reference():
    rng = random.Random(83)
    unequal = 0
    for _ in range(800):
        _, (d1, d2) = random_factors(rng, 2)
        assert tensor(d1, d2) == side_by_side_reference([d1, d2]), (to_text(d1), to_text(d2))
        unequal += len(d1.slices) != len(d2.slices)
    assert unequal > 600


def test_slice_typing_errors():
    with pytest.raises(DiagramError):
        Slice((0, 0), (cap(0, at=0),))  # needs (0, 1)
    with pytest.raises(DiagramError):
        Slice((0,), (cross_pos(0, 1, at=0),))  # runs past the end
    with pytest.raises(DiagramError):
        Slice((0, 1), (cap(0, at=0), cup(0, at=1)))  # cup inside consumed span


def test_slice_frozen_and_compared_by_input_and_events():
    s = Slice((0,), (cup(0, at=1),))
    t = Slice((0,), (cup(0, at=1),))
    object.__setattr__(t, "_output", ())  # a stale cache must not matter
    assert s == t and hash(s) == hash(t)
    assert "_output" not in repr(s)
    from_lists = Slice([0], [cup(0, at=1)])  # other sequences are stored as tuples
    assert from_lists.input == (0,) and from_lists.events == (cup(0, at=1),)
    assert from_lists == s and hash(from_lists) == hash(s) and repr(from_lists) == repr(s)
    e = cup(0, at=1)
    for value, names in [(s, ("input", "events", "_output")), (e, ("kind", "position", "labels"))]:
        assert not hasattr(value, "__dict__")
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, ())


def test_diagram_hash_is_cached_and_agrees_with_equality():
    rng = random.Random(11)
    made = [random_diagram(rng, BRAIDED) for _ in range(200)]
    for d in made:
        twin = Diagram.from_events(d.source, [list(s.events) for s in d.slices])
        assert twin is not d and twin == d
        assert d._hash is None  # nothing is hashed until a lookup asks
        assert hash(twin) == hash(d) == hash((d.source, d.slices))
        assert d._hash == hash(d)
    assert len(set(made)) == len({to_text(d) for d in made})
    assert "_hash" not in repr(made[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        made[0]._hash = 0


def test_validate_reports_positions():
    d = Diagram.from_events((0, 1), [[cross_pos(0, 1, at=0)]])
    report = validate(d, PLANAR)
    assert not report.valid
    assert "crossing" in str(report)
    assert validate(d, BRAIDED).valid


def test_validate_label_window():
    d = elementary(cup(2), BRAIDED)
    assert validate(d, BRAIDED, label_window=(0, 3)).valid
    assert not validate(d, BRAIDED, label_window=(0, 2)).valid


def _interleaving(arcs, n_source: int, n_target: int) -> bool:
    """Whether the ends of two arcs interleave around the rectangle's
    boundary, read source left to right, then target right to left."""

    def circle(end):
        side, i = end
        return i if side == "source" else n_source + (n_target - 1 - i)

    chords = [tuple(sorted((circle(a), circle(b)))) for a, b in arcs]
    return any(
        a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1
        for (a1, b1), (a2, b2) in itertools.combinations(chords, 2)
    )


_STEP = {("source", "target"): 0, ("source", "source"): 1, ("target", "target"): -1}


def assert_planar_matching(d):
    """The theorems normalize_planar states rather than checks: every end is
    matched once, the arcs (and each arc's ends) are sorted, a through arc
    keeps its label, source and target turnbacks step it by +1 and -1, and
    no two arcs interleave."""
    nf = normalize_planar(d)
    assert nf.source == d.source and nf.target == d.target
    matched = [end for arc in nf.arcs for end in arc]
    assert len(matched) == len(set(matched)) == len(d.source) + len(d.target)
    assert list(nf.arcs) == sorted(tuple(sorted(arc)) for arc in nf.arcs), to_text(d)
    for (sa, ia), (sb, ib) in nf.arcs:
        la = (d.source if sa == "source" else d.target)[ia]
        lb = (d.source if sb == "source" else d.target)[ib]
        assert lb - la == _STEP[sa, sb], to_text(d)
    assert not _interleaving(nf.arcs, len(d.source), len(d.target)), to_text(d)


def test_no_crossing_free_closed_loop():
    # a cup followed directly by a cap cannot type: (1, 0) is descending
    with pytest.raises(DiagramError):
        Diagram.from_events((), [[cup(0)], [cap(0)]])
    # exhaustively: no closed diagram without crossings at <= 6 events
    for d in iter_closed_diagrams(max_events=6, max_crossings=0, width=6, lo=-2, hi=2):
        raise AssertionError(f"found a crossing-free closed diagram:\n{to_text(d)}")
    # nor a closed component of an open planar diagram, which validate and
    # normalize_planar therefore do not look for; the same walk checks the
    # matching's theorems that normalize_planar states
    count = 0
    for src in ((), (0,), (0, 1), (1, 0), (-1, 0, 1)):
        for d in iter_diagrams(src, PLANAR, max_events=5, width=6, lo=-2, hi=2):
            assert not any(c.closed for c in trace_components(d)), to_text(d)
            assert_planar_matching(d)
            count += 1
    assert count == 61955
    for seed in range(2000):
        d = random_diagram(random.Random(seed), PLANAR, max_events=40, width=8, lo=-3, hi=3)
        assert not any(c.closed for c in trace_components(d)), to_text(d)
        assert_planar_matching(d)


def test_closed_components_have_odd_self_crossings():
    count = 0
    for d in iter_closed_diagrams(max_events=6, max_crossings=6, width=5, lo=-1, hi=1):
        comps = trace_components(d)
        for c in comps:
            selfs = {}
            for tag in c.crossings:
                selfs[tag] = selfs.get(tag, 0) + 1
            assert sum(1 for n in selfs.values() if n == 2) % 2 == 1
        count += 1
    assert count > 300


def test_trace_identity():
    comps = trace_components(Diagram.identity((0, 1, 2)))
    assert len(comps) == 3 and all(not c.closed for c in comps)


def test_trace_zigzag_single_component():
    comps = trace_components(zigzag())
    assert len(comps) == 1
    assert comps[0].ends == (("source", 0), ("target", 0))


def test_trace_closed_unknot():
    comps = trace_components(unknot())
    assert len(comps) == 1 and comps[0].closed


def test_all_closed_iff_empty_boundary():
    rng = random.Random(41)
    diagrams = list(iter_closed_diagrams(6, 3))
    diagrams += [random_diagram(rng, dim) for dim in AmbientDim for _ in range(200)]
    assert any(d.source or d.target for d in diagrams)
    for d in diagrams:
        assert all(c.closed for c in trace_components(d)) == (not d.source and not d.target)


def test_degree():
    assert degree(()) == 0
    assert degree((1, 0)) == 0
    assert degree((0, 0, 1)) == 1
    assert degree((-1, -2)) == 0
    assert degree((-2,)) == 1


def test_degree_conservation_random():
    rng = random.Random(17)
    for _ in range(500):
        dim = rng.choice(list(AmbientDim))
        d = random_diagram(rng, dim)
        assert degree(d.source) == degree(d.target)


def test_writhe_examples():
    assert writhe(trefoil()) == 3
    assert writhe(trefoil(False)) == -3
    assert writhe(hopf()) == 2
    assert writhe(unlink()) == 0
    assert self_writhe(hopf()) == 0
    assert component_framings(hopf()) == [1, -1]
    with pytest.raises(DiagramError):
        writhe(zigzag())  # open components
    with pytest.raises(DiagramError):
        self_writhe(zigzag())


def test_mirror_involution():
    for d in (trefoil(), hopf(), unknot()):
        assert mirror(mirror(d)) == d
        assert writhe(mirror(d)) == -writhe(d)


def test_serialization_roundtrip():
    rng = random.Random(23)
    for d in (zigzag(), trefoil(), hopf(), unlink(), Diagram.identity((1, -1))):
        assert from_text(to_text(d)) == d
    for _ in range(200):
        d = random_diagram(rng, BRAIDED)
        assert from_text(to_text(d)) == d


def test_serialization_errors():
    with pytest.raises(DiagramError):
        from_text("slice: cup@0(0)\n")
    with pytest.raises(DiagramError):
        from_text("source: 0\nslice: cup@x(0)\n")
    with pytest.raises(DiagramError):
        from_text("source: 0\nslice: twist@0(0)\n")
    with pytest.raises(DiagramError):
        from_text("source: a")


def test_component_count_subadditive_under_compose():
    rng = random.Random(29)
    for _ in range(100):
        d1 = random_diagram(rng, BRAIDED)
        d2 = random_diagram(rng, BRAIDED, source=d1.target)
        whole = compose(d1, d2)
        assert len(trace_components(whole)) <= len(trace_components(d1)) + len(
            trace_components(d2)
        )


# ---------------------------------------------------------------------------
# slice typing against the three-part layout walk it replaced


@dataclasses.dataclass(frozen=True)
class Placement:
    """Where an event sits once a slice is laid out: the input strand
    positions it consumes and the output positions it emits."""

    event: Event
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]


def reference_layout(w, events):
    """(output word, passthrough position map, placements) of the events
    on the input word w, by the walk that typed slices before."""
    out = []
    passthrough = {}
    placements = []
    ei = 0
    p = 0
    while True:
        while ei < len(events) and events[ei].position == p:
            e = events[ei]
            if e.arity_in:
                if p + e.arity_in > len(w):
                    raise DiagramError(f"event {e} runs past the end of the word")
                have = tuple(w[p : p + e.arity_in])
                if have != e.consumes():
                    raise DiagramError(f"event {e} expects strands {e.consumes()}, found {have}")
            outs = tuple(range(len(out), len(out) + e.arity_out))
            ins = tuple(range(p, p + e.arity_in))
            placements.append(Placement(e, ins, outs))
            out.extend(e.emits())
            p += e.arity_in
            ei += 1
        if p < len(w):
            passthrough[p] = len(out)
            out.append(w[p])
            p += 1
        else:
            break
    if ei < len(events):
        raise DiagramError(
            f"event {events[ei]} is unreachable (inside an earlier "
            "event's span or past the end of the word)"
        )
    return tuple(out), passthrough, tuple(placements)


def reference_typing(w, events):
    """The output word, or the DiagramError text, of the slice typing that
    checked the order of positions first and then ran the layout walk."""
    try:
        for e1, e2 in zip(events, events[1:]):
            if e2.position < e1.position:
                raise DiagramError(
                    f"event positions must be nondecreasing within a slice ({e2})"
                )
        return reference_layout(w, events)[0]
    except DiagramError as exc:
        return str(exc)


def lean_typing(w, events):
    try:
        return Slice(w, events).output()
    except DiagramError as exc:
        return str(exc)


def random_events(rng, w):
    """Up to four events in order on the word w, each at or after the last
    strand its predecessor passed, with labels read off w where it has them."""
    events, p = [], 0
    for _ in range(rng.randrange(5)):
        q = rng.randrange(p, len(w) + 1) if p <= len(w) else p
        kind = rng.choice(list(EventKind))
        if kind is EventKind.CUP:
            events.append(cup(rng.randrange(-2, 3), at=q))
            p = q
            continue
        have = tuple(w[q : q + 2]) + (0, 1)[len(w[q : q + 2]) :]
        labels = (have[0],) if kind is EventKind.CAP else have
        events.append(Event(kind, q, labels))
        p = q + 2
    return events


def corrupted(rng, w, events):
    """events spoilt in one of five ways: a wrong label, a consumer that
    runs past the end, an event inside an earlier consumer's span, two
    positions out of order, a cup past the end of the word."""
    events = list(events)
    way = rng.randrange(5)
    consumers = [j for j, e in enumerate(events) if e.arity_in]
    if way == 0 and events:
        j = rng.randrange(len(events))
        e = events[j]
        events[j] = Event(e.kind, e.position, (e.labels[0] + 1,) + e.labels[1:])
    elif way == 1:
        events.append(cross_pos(0, 1, at=max(len(w) - rng.randrange(2), 0)))
    elif way == 2 and consumers:
        j = rng.choice(consumers)
        e = events[j]
        events.insert(j + 1, cup(0, at=e.position + rng.randrange(2)))
    elif way == 3 and len({e.position for e in events}) > 1:
        j = rng.randrange(len(events) - 1)
        while events[j].position == events[j + 1].position:
            j = (j + 1) % (len(events) - 1)
        events[j], events[j + 1] = events[j + 1], events[j]
    else:
        events.append(cup(0, at=len(w) + 1 + rng.randrange(2)))
    return events


def test_slice_typing_matches_the_reference_walk():
    rng = random.Random(18)
    seen = set()
    for _ in range(6000):
        w = tuple(rng.randrange(-2, 3) for _ in range(rng.randrange(7)))
        events = random_events(rng, w)
        for evs in (events, corrupted(rng, w, events)):
            got = lean_typing(w, evs)
            assert got == reference_typing(w, evs), (w, [str(e) for e in evs])
            kinds = ("nondecreasing", "runs past", "expects", "unreachable")
            seen.add("word" if isinstance(got, tuple) else next(k for k in kinds if k in got))
            if isinstance(got, tuple):
                assert Slice(w, evs).layout() == got
    assert len(seen) == 5  # words and every kind of refusal were compared


def reference_strand_graph(d):
    """Nodes are (level, position) pairs read from each slice's layout;
    returns the fixed edges and, per crossing, its legs (lower left, lower
    right, upper left, upper right) and its tag."""
    edges, crossings = [], []
    for i, s in enumerate(d.slices):
        _, passthrough, placements = reference_layout(s.input, s.events)
        for p, q in passthrough.items():
            edges.append(((i, p), (i + 1, q)))
        for pl in placements:
            e = pl.event
            if e.kind is EventKind.CUP:
                edges.append(((i + 1, pl.outputs[0]), (i + 1, pl.outputs[1])))
            elif e.kind is EventKind.CAP:
                edges.append(((i, pl.inputs[0]), (i, pl.inputs[1])))
            else:
                (sw, se), (nw, ne) = pl.inputs, pl.outputs
                crossings.append(((i, sw), (i, se), (i + 1, nw), (i + 1, ne), (i, e.position, e.sign)))
    return edges, crossings


def reference_trace_components(d):
    edges, crossings = reference_strand_graph(d)
    uf = UnionFind()
    for p in range(len(d.source)):
        uf.find((0, p))
    for a, b in edges:
        uf.union(a, b)
    for sw, se, nw, ne, _ in crossings:
        uf.union(sw, ne)
        uf.union(se, nw)
    tags = {}
    for sw, se, _, _, tag in crossings:
        for leg in (sw, se):
            tags.setdefault(uf.find(leg), []).append(tag)
    top = len(d.slices)
    components = []
    for nodes in uf.groups():
        ends = [("source", pos) for level, pos in nodes if level == 0]
        ends += [("target", pos) for level, pos in nodes if level == top]
        crossings_on = tuple(sorted(tags.get(uf.find(nodes[0]), ())))
        components.append(Component(not ends, tuple(sorted(ends)), crossings_on))
    components.sort(key=lambda c: (c.closed, c.ends))
    return components


def reference_framings(components):
    framings = []
    for c in components:
        seen = {}
        for tag in c.crossings:
            seen[tag] = seen.get(tag, 0) + 1
        framings.append(sum(tag[2] for tag, n in seen.items() if n == 2))
    return framings


def reference_bracket_state_sum(d):
    """The state sum with its arcs built from the strand graph's nodes."""
    edges, crossings = reference_strand_graph(d)
    nodes = UnionFind()
    for a, b in edges:
        nodes.union(a, b)
    for sw, se, nw, ne, _ in crossings:
        for leg in (sw, se, nw, ne):
            nodes.find(leg)
    arcs = {}
    for x in nodes.parent:
        arcs.setdefault(nodes.find(x), len(arcs))
    legs = [
        (sign, *(arcs[nodes.find(leg)] for leg in (sw, se, nw, ne)))
        for sw, se, nw, ne, (_, _, sign) in crossings
    ]
    total = Laurent.zero()
    for state in range(1 << len(legs)):
        uf, joins, exponent = UnionFind(), 0, 0
        for idx, (sign, sw, se, nw, ne) in enumerate(legs):
            turnback = bool(state >> idx & 1)
            exponent += sign if turnback else -sign
            if turnback:
                joins += uf.union(sw, se) + uf.union(nw, ne)
            else:
                joins += uf.union(sw, nw) + uf.union(se, ne)
        total = total + Laurent.monomial(exponent) * loop_value() ** (len(arcs) - joins - 1)
    return total


def assert_segments_match_the_strand_graph(diagrams):
    count = closed = 0
    for d in diagrams:
        reference = reference_trace_components(d)
        assert trace_components(d) == reference, to_text(d)
        assert component_framings(d) == reference_framings(reference)
        if not (d.source or d.target) and d.num_events:
            assert bracket(d) == reference_bracket_state_sum(d), to_text(d)
            closed += 1
        count += 1
    return count, closed


def test_strand_segments_match_the_strand_graph_on_closed_diagrams():
    closed_63 = list(iter_closed_diagrams(6, 3))
    assert assert_segments_match_the_strand_graph(closed_63) == (404, 404)
    universe = iter_closed_diagrams(max_events=7, max_crossings=5, width=4, lo=-1, hi=1)
    assert assert_segments_match_the_strand_graph(universe) == (3056, 3056)


def test_strand_segments_match_the_strand_graph_on_random_diagrams():
    rng = random.Random(14)
    for dim in AmbientDim:
        diagrams = [random_diagram(rng, dim, max_events=8, width=6) for _ in range(3000)]
        assert assert_segments_match_the_strand_graph(diagrams)[0] == 3000


def test_strand_segments_match_the_strand_graph_on_tensors_and_composites():
    rng = random.Random(15)
    closed = list(iter_closed_diagrams(6, 3))
    diagrams = []
    for _ in range(300):  # several closed components whose lowest cups share a slice
        diagrams.append(tensor(rng.choice(closed), rng.choice(closed)))
    for dim in AmbientDim:
        for _ in range(300):
            d1, d2 = random_composable_pair(rng, dim, max_events=6, width=6)
            whole = compose(d1, d2)
            diagrams += [whole, tensor(whole, rng.choice(closed)), tensor(rng.choice(closed), d1)]
    count, closed_count = assert_segments_match_the_strand_graph(diagrams)
    assert count == 3000 and closed_count >= 300


def test_closed_components_that_tie_keep_the_order_of_their_lowest_cups():
    assert component_framings(unlink()) == [1, -1]
    assert component_framings(tensor(unknot(False), unknot(True))) == [-1, 1]


def test_each_builtin_is_built_once():
    for make in BUILTINS.values():
        assert make() is make()
    # and each has its components, all closed (traced here, not at each import)
    components = {"unknot": 1, "trefoil": 1, "hopf": 2, "unlink": 2}
    assert sorted(components) == sorted(BUILTINS)
    for name, count in components.items():
        comps = trace_components(BUILTINS[name]())
        assert len(comps) == count and all(c.closed for c in comps), name


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AmbientDim.from_dimension(1), "ambient dimension must be >= 2, got 1"),
        (lambda: Event(EventKind.CUP, -1, (0,)), "negative event position -1"),
        (lambda: Event(EventKind.CAP, 0, (0, 1)), "cap event needs 1 label(s)"),
        (lambda: Event(EventKind.XPOS, 0, (0,)), "x+ event needs 2 label(s)"),
        pytest.param(lambda: dataclasses.replace(cup(0), kind=EventKind.XPOS), "x+ event needs 2 label(s)", id="replace"),
        (lambda: from_text("source: 0\ncap@0(0)\n"), "expected a 'slice:' line, got 'cap@0(0)'"),
        (lambda: from_text("source:\nslice: cop@0(0)\n"), "unknown event kind 'cop' in 'cop@0(0)'"),
        (lambda: from_text("source:\nslice: cup@x(0)\n"), "cannot parse event 'cup@x(0)'"),
        (lambda: from_text("source:\nslice: cup@0(0\n"), "cannot parse event 'cup@0(0'"),
    ],
)
def test_bad_input_is_refused_with_its_message(build, message):
    with pytest.raises(DiagramError) as info:
        build()
    assert str(info.value) == message


def test_validate_reports_each_issue_as_its_text():
    kink = Diagram.from_events((), [[cup(0)], [cross_pos(1, 0)], [cap(0)]])
    report = validate(kink, PLANAR, label_window=(0, 0))
    assert report.issues == ("slice 1, position 0: crossing in planar dimension", "labels [1] outside window [0,0]")
    assert str(report) == "\n".join(report.issues) and not report.valid
    assert str(validate(kink, BRAIDED)) == "ok"
