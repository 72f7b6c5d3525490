import functools
import itertools
import random
import re
import time

import pytest

from tangles import segal
from tangles.cli import _PRESETS, main
from tangles.segal import (
    CategoryPresentation,
    SimplicialData,
    SimplicialError,
    _close_words,
    _count_normal_forms,
    colimit_truncated,
    complete,
    cut_fiber_product,
    is_segal,
    nerve_of_interval_poset,
    nerve_of_monoid,
    one_truncated,
    pieces_of,
    presentation_of,
    pushout_of_nerves,
    restrict_chain,
    restriction_plan,
)
from tangles.simplex import (
    ConvexSubset,
    MonotoneMap,
    SimplexError,
    SimplexObject,
    all_monotone_maps,
    compose_monotone,
    elementary_maps,
    outer_hull,
)
from tangles.unionfind import UnionFind
from tangles.words import (
    LEFT,
    RIGHT,
    PointedMonoid,
    free_product_enumerate,
    free_product_normalize,
)

Z2 = PointedMonoid.cyclic(2)
Z3 = PointedMonoid.cyclic(3)


def test_simplicial_identities_checked():
    n = nerve_of_monoid(Z2, K=2)
    broken = dict(n.faces)
    # corrupt one face value
    key = (2, 1)
    table = dict(broken[key])
    some = next(iter(table))
    table[some] = (1 - table[some][0],)
    broken[key] = table
    with pytest.raises(SimplicialError):
        SimplicialData(n.levels, broken, n.degeneracies)


def _first_identity_error(levels, faces, degeneracies):
    """SimplicialData's identity check as it was first written, one simplex
    at a time: the first failure as (type, text), or None."""
    K = len(levels) - 1
    try:
        for p in range(2, K + 1):
            for x in levels[p]:
                for j in range(p + 1):
                    for i in range(j):
                        a = faces[(p - 1, i)][faces[(p, j)][x]]
                        b = faces[(p - 1, j - 1)][faces[(p, i)][x]]
                        if a != b:
                            raise SimplicialError(f"d_{i} d_{j} != d_{j-1} d_{i} at level {p} on {x!r}")
        for p in range(K):
            for x in levels[p]:
                for j in range(p + 1):
                    sx = degeneracies[(p, j)][x]
                    if sx not in levels[p + 1]:
                        raise SimplicialError(f"s_{j}({x!r}) missing from level {p+1}")
                    for i in range(p + 2):
                        fx = faces[(p + 1, i)][sx]
                        if i == j or i == j + 1:
                            expected = x
                        elif i < j:
                            expected = degeneracies[(p - 1, j - 1)][faces[(p, i)][x]]
                        else:
                            expected = degeneracies[(p - 1, j)][faces[(p, i - 1)][x]]
                        if fx != expected:
                            raise SimplicialError(f"d_{i} s_{j} identity fails at level {p} on {x!r}")
    except (SimplicialError, KeyError) as exc:
        return type(exc), str(exc)
    return None


def _construction_error(levels, faces, degeneracies):
    try:
        SimplicialData(levels, faces, degeneracies)
    except (SimplicialError, KeyError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_identity_check_raises_the_first_error_of_the_simplex_loop(preset):
    # one table entry at a time is sent to another simplex of its level or
    # out of it: construction must raise what the reference loop
    # _first_identity_error raises first, or nothing when it raises nothing
    X = _PRESETS[preset]()
    rng = random.Random(preset)
    assert _first_identity_error(X.levels, X.faces, X.degeneracies) is None
    corruptions = 0
    for kind in ("faces", "degeneracies"):
        for (p, i), table in getattr(X, kind).items():
            level = X.levels[p - 1 if kind == "faces" else p + 1]
            for x in rng.sample(list(table), min(3, len(table))):
                others = [y for y in level if y != table[x]]
                for value in ([rng.choice(others)] if others else []) + [("outside", p, i)]:
                    tables = {"faces": X.faces, "degeneracies": X.degeneracies}
                    tables[kind] = {**tables[kind], (p, i): {**table, x: value}}
                    data = (X.levels, tables["faces"], tables["degeneracies"])
                    want = _first_identity_error(*data)
                    assert _construction_error(*data) == want, (kind, p, i, x, value)
                    corruptions += want is not None
    assert corruptions > 0


def _ghost_loop_data(d0_of_C="e", d2_of_B="e"):
    """One vertex v, its identity e and a loop g; A degenerates e, and B
    and C are s_0 g and s_1 g.  With the defaults every identity holds."""
    faces = {
        (1, 0): {"e": "v", "g": "v"},
        (1, 1): {"e": "v", "g": "v"},
        (2, 0): {"A": "e", "B": "g", "C": d0_of_C},
        (2, 1): {"A": "e", "B": "g", "C": "g"},
        (2, 2): {"A": "e", "B": d2_of_B, "C": "g"},
    }
    degeneracies = {(0, 0): {"v": "e"}, (1, 0): {"e": "A", "g": "B"}, (1, 1): {"e": "A", "g": "C"}}
    return (("v",), ("e", "g"), ("A", "B", "C")), faces, degeneracies


@pytest.mark.parametrize("broken, message", [
    ({"d0_of_C": "g"}, "d_0 s_1 identity fails at level 1 on 'g'"),  # only d_i s_j = s_{j-1} d_i, i < j
    ({"d2_of_B": "g"}, "d_2 s_0 identity fails at level 1 on 'g'"),  # only d_i s_j = s_j d_{i-1}, i > j + 1
])
def test_identity_check_catches_one_failing_identity(broken, message):
    # every other identity holds on these tables, so a table-at-a-time
    # check that skipped this one identity would accept them
    SimplicialData(*_ghost_loop_data())
    data = _ghost_loop_data(**broken)
    assert _first_identity_error(*data) == (SimplicialError, message)
    with pytest.raises(SimplicialError, match=f"^{re.escape(message)}$"):
        SimplicialData(*data)


def test_identity_check_names_a_degeneracy_outside_its_level():
    # the one loop over the simplices names the simplex whose degeneracy
    # leaves the next level
    X = nerve_of_monoid(Z2, K=2)
    degeneracies = {**X.degeneracies, (1, 0): {**X.degeneracies[(1, 0)], (1,): ("outside",)}}
    with pytest.raises(SimplicialError, match=r"^s_0\(\(1,\)\) missing from level 2$"):
        SimplicialData(X.levels, X.faces, degeneracies)


def test_act_matches_nerve_formula():
    # on a nerve, the operator of u sends a chain to the chain of partial
    # products over the preimage intervals
    n = nerve_of_monoid(Z3, K=3)
    rng = random.Random(2)
    for _ in range(200):
        m = rng.randrange(0, 4)
        k = rng.randrange(0, 4)
        u = rng.choice(all_monotone_maps(SimplexObject(k), SimplexObject(m)))
        x = rng.choice(n.levels[m])
        expected = tuple(
            _fold(Z3, x[u(i - 1) : u(i)]) for i in range(1, k + 1)
        )
        assert n.act(u, x) == expected


def _fold(monoid, elements):
    out = monoid.unit
    for e in elements:
        out = monoid.multiply(out, e)
    return out


def test_nerve_is_segal():
    n = nerve_of_monoid(Z3, K=3)
    assert is_segal(n, 2) and is_segal(n, 3)


def test_a_nerve_refuses_a_monoid_with_nonunits_past_weight_1():
    def unlisted(max_weight):
        raise AssertionError("a level was built")

    free = PointedMonoid.free("x")
    free.elements = unlisted
    for build, args in ((nerve_of_monoid, (free,)), (pushout_of_nerves, (Z2, free)), (pushout_of_nerves, (free, Z2))):
        with pytest.raises(SimplicialError, match="F\\(x\\): a nerve needs a finite monoid"):
            build(*args)


def test_pushout_not_segal():
    p = pushout_of_nerves(Z2, Z2, K=2)
    # 2-level has 7 elements but there are 9 composable pairs
    assert len(p.levels[2]) == 7 and len(p.levels[1]) ** 2 == 9
    assert not is_segal(p, 2)


def test_two_simplices_with_one_spine_are_not_segal():
    # the point, with a second 2-simplex u beside the degenerate t: both
    # have the spine (e, e)
    X = SimplicialData(
        levels=(("v",), ("e",), ("t", "u")),
        faces={(1, i): {"e": "v"} for i in range(2)} | {(2, i): {"t": "e", "u": "e"} for i in range(3)},
        degeneracies={(0, 0): {"v": "e"}, (1, 0): {"e": "t"}, (1, 1): {"e": "t"}},
    )
    assert is_segal(X, 1) and not is_segal(X, 2)


def test_degenerate_only_is_segal():
    x = one_truncated("ab", [], K=2)
    assert is_segal(x, 2)


def _composable_chains(X, p):
    """The composable p-chains of edges, grown edge by edge from each
    vertex: an enumeration independent of the cut fiber product."""
    edges_by_source = {}
    for e in X.levels[1]:
        edges_by_source.setdefault(X.vertex(1, e, 0), []).append(e)

    def extend(chain, cursor):
        if len(chain) == p:
            yield chain
            return
        for e in edges_by_source.get(cursor, ()):
            yield from extend(chain + (e,), X.vertex(1, e, 1))

    for v in X.levels[0]:
        yield from extend((), v)


def _is_segal_by_chains(X, p):
    if p <= 1:
        return True
    spines = {}
    for x in X.levels[p]:
        spine = tuple(X.edge(p, x, i) for i in range(1, p + 1))
        if spines.setdefault(spine, x) != x:
            return False
    chains = list(_composable_chains(X, p))
    return len(chains) == len(X.levels[p]) and all(chain in spines for chain in chains)


_CONSTRUCTED = {
    "nerve-1": lambda: nerve_of_monoid(PointedMonoid.trivial(), K=3),
    "nerve-z2": lambda: nerve_of_monoid(Z2, K=4),
    "nerve-z3": lambda: nerve_of_monoid(Z3, K=3),
    "pushout-z2-z2": lambda: pushout_of_nerves(Z2, Z2, K=3),
    "pushout-z2-z3": lambda: pushout_of_nerves(Z2, Z3, K=3),
    "pushout-z3-1": lambda: pushout_of_nerves(Z3, PointedMonoid.trivial(), K=3),
    **{f"interval-{n}": (lambda n=n: nerve_of_interval_poset(n, K=3)) for n in range(4)},
    "graph-uvw": lambda: one_truncated("uvw", [("a", "u", "v"), ("b", "v", "w")], K=3),
    "graph-ab": lambda: one_truncated("ab", [], K=3),
}


@pytest.mark.parametrize("name", sorted(_CONSTRUCTED))
def test_is_segal_agrees_with_the_composable_chains(name):
    X = _CONSTRUCTED[name]()
    for p in range(X.K + 1):
        assert is_segal(X, p) == _is_segal_by_chains(X, p), p
        if p >= 2:
            spine_map = MonotoneMap(SimplexObject(p - 2), SimplexObject(p), tuple(range(1, p)))
            chains = cut_fiber_product(X, spine_map)
            reference = list(_composable_chains(X, p))
            assert len(chains) == len(reference) and set(chains) == set(reference), p


def _cut_fiber_product_by_scan(C, f):
    """The cut fiber product as it was first written: every prefix scans
    the whole level of the next piece for simplices starting at its end."""
    chains = [((), None)]
    for piece in pieces_of(f):
        dim = piece.hi - piece.lo
        nxt = []
        for prefix, cursor in chains:
            for x in C.levels[dim]:
                if cursor is not None and C.vertex(dim, x, 0) != cursor:
                    continue
                nxt.append((prefix + (x,), C.vertex(dim, x, dim)))
        chains = nxt
    return [prefix for prefix, _ in chains]


def _segal_check_data(K):
    """Nerves and all pushouts over Z/2, Z/3, Z/4 and the trivial monoid,
    the interval posets n <= 3, and three graphs: 27 data at each K."""
    monoids = [PointedMonoid.trivial(), Z2, Z3, PointedMonoid.cyclic(4)]
    return (
        [nerve_of_monoid(M, K=K) for M in monoids]
        + [pushout_of_nerves(A, B, K=K) for A in monoids for B in monoids]
        + [nerve_of_interval_poset(n, K=K) for n in range(4)]
        + [
            one_truncated("uvw", [("a", "u", "v"), ("b", "v", "w")], K=K),
            one_truncated("ab", [], K=K),
            one_truncated("uv", [("a", "u", "v"), ("b", "v", "u"), ("c", "u", "u")], K=K),
        ]
    )


@pytest.mark.parametrize("K", [2, 3, 4])
def test_cut_fiber_product_indexed_by_first_vertex_matches_the_scan(K):
    # same chains in the same order, for every monotone map [b] -> [a] with
    # b <= min(a, 2) and a <= K
    for X in _segal_check_data(K):
        for a in range(K + 1):
            for b in range(min(a, 2) + 1):
                for f in all_monotone_maps(SimplexObject(b), SimplexObject(a)):
                    assert cut_fiber_product(X, f) == _cut_fiber_product_by_scan(X, f), f


def test_cut_fiber_product_reads_each_vertex_once_per_piece_dimension(monkeypatch):
    # the spine of [4] cuts it into four edges: the index reads the two end
    # vertices of every edge once from their operator tables, where the scan
    # read them per prefix (through C.vertex, which reads the same tables)
    X = pushout_of_nerves(Z3, Z3, K=4)
    calls = []
    real = X.table

    class Counted(dict):
        def __getitem__(self, x):
            calls.append(x)
            return dict.__getitem__(self, x)

    monkeypatch.setattr(
        X, "table", lambda m, values: Counted(real(m, values)) if len(values) == 1 else real(m, values)
    )
    spine = MonotoneMap(SimplexObject(2), SimplexObject(4), (1, 2, 3))
    chains = cut_fiber_product(X, spine)
    assert len(calls) == 2 * len(X.levels[1])
    calls.clear()
    assert _cut_fiber_product_by_scan(X, spine) == chains
    assert len(calls) > 10 * len(X.levels[1])
    assert not is_segal(X, 4)


@pytest.mark.parametrize("name", sorted(name for name in _PRESETS if _PRESETS[name]().K == 3))
def test_cut_fiber_product_is_its_prefix_product_extended_by_one_simplex(name):
    # the pieces of phi: [b] -> [a] are those of its restriction [b-1] ->
    # [phi(b)] and [phi(b), a]; for b = 0 the prefix is the piece [0, phi(0)]
    C = _PRESETS[name]()
    for a in range(C.K + 1):
        for b in range(C.K + 1):
            for phi in all_monotone_maps(SimplexObject(b), SimplexObject(a)):
                c, dim = phi.values[-1], a - phi.values[-1]
                if b:
                    restriction = MonotoneMap(SimplexObject(b - 1), SimplexObject(c), phi.values[:-1])
                    prefix = cut_fiber_product(C, restriction)
                    last = c - phi.values[-2]
                else:
                    prefix, last = [(x,) for x in C.levels[c]], c
                extended = [
                    chain + (x,)
                    for chain in prefix
                    for x in C.levels[dim]
                    if C.vertex(dim, x, 0) == C.vertex(last, chain[-1], last)
                ]
                assert cut_fiber_product(C, phi) == extended, phi


def test_vertex_and_edge_refuse_indices_outside_the_simplex():
    X = nerve_of_monoid(Z2, K=2)
    x = X.levels[2][1]
    assert X.edge(2, x, 1) == (x[0],) and X.vertex(2, x, 2) == ()
    for bad in (lambda: X.edge(2, x, 0), lambda: X.edge(2, x, 3), lambda: X.vertex(2, x, 3)):
        with pytest.raises(SimplexError):
            bad()


def _act_by_factoring(C, m, values, x):
    """The operator of a monotone map [k] -> [m] on x, uncached: the faces
    that skip the values missing from its image (highest first), then the
    degeneracies of its surjection onto the image."""
    image = sorted(set(values))
    for level, i in zip(range(m, -1, -1), [i for i in range(m, -1, -1) if i not in image]):
        x = C.face(level, i, x)
    return _degenerate(C, [image.index(v) for v in values], x)


def _degenerate(C, sigma, y):
    """The degeneracies of the surjection sigma, the outermost at its first
    repeat."""
    for t in range(len(sigma) - 1):
        if sigma[t] == sigma[t + 1]:
            inner = sigma[:t] + sigma[t + 1 :]
            return C.degeneracy(len(inner) - 1, t, _degenerate(C, inner, y))
    return y


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_operator_tables_match_the_factorization(name):
    C = _PRESETS[name]()
    rng = random.Random(5)
    for _ in range(300):
        m, k = rng.randrange(C.K + 1), rng.randrange(C.K + 1)
        u = rng.choice(all_monotone_maps(SimplexObject(k), SimplexObject(m)))
        x = rng.choice(C.levels[m])
        assert C.act(u, x) == _act_by_factoring(C, m, u.values, x), (u, x)
        assert (m, u.values) in C._tables
    for m in range(C.K + 1):
        for x in C.levels[m]:
            for v in range(m + 1):
                assert C.vertex(m, x, v) == _act_by_factoring(C, m, (v,), x)
            for i in range(1, m + 1):
                assert C.edge(m, x, i) == _act_by_factoring(C, m, (i - 1, i), x)
    # bad values are refused on every call, so no table is stored for them
    x = C.levels[C.K][0]
    for call, key in (
        (lambda: C.table(C.K, ()), ()),
        (lambda: C.table(C.K, (1, 0)), (1, 0)),
        (lambda: C.table(C.K, (0, C.K + 1)), (0, C.K + 1)),
        (lambda: C.vertex(C.K, x, -1), (-1,)),
        (lambda: C.edge(C.K, x, C.K + 1), (C.K, C.K + 1)),
    ):
        for _ in range(2):
            with pytest.raises(SimplexError):
                call()
        assert (C.K, key) not in C._tables


def test_completion_of_monoid_nerve():
    for monoid in (Z2, Z3):
        comp = complete(nerve_of_monoid(monoid, K=2), budget=4)
        (obj,) = comp.presentation.objects
        classes = comp.hom(obj, obj)
        assert len(classes) == len(monoid.elements(1))
        assert comp.stabilized
        # the canonical map to the monoid is a bijection on classes
        images = set()
        for cls in classes:
            values = {_fold(monoid, tuple(g[0] for g in w)) for w in cls}
            assert len(values) == 1
            images.update(values)
        assert images == set(monoid.elements(1))


def test_completion_of_graph():
    g = one_truncated("uvw", [("a", "u", "v"), ("b", "v", "w")], K=2)
    comp = complete(g, budget=4)
    homs = {key: comp.class_count(*key) for key in comp.hom_classes}
    assert homs == {
        ("u", "u"): 1,
        ("v", "v"): 1,
        ("w", "w"): 1,
        ("u", "v"): 1,
        ("v", "w"): 1,
        ("u", "w"): 1,
    }
    assert comp.stabilized


def test_completion_unit_reproduces_segal_input():
    # when the input is Segal, completion classes compose like the monoid
    # and the nerve of the result matches the input levels
    comp = complete(nerve_of_monoid(Z3, K=3), budget=5)
    (obj,) = comp.presentation.objects
    classes = comp.hom(obj, obj)
    by_value = {}
    for cls in classes:
        value = _fold(Z3, tuple(g[0] for g in cls[0]))
        by_value[value] = cls
    # completion hom-set == monoid, so chains of length p == level p
    n = nerve_of_monoid(Z3, K=3)
    for p in range(4):
        assert len(n.levels[p]) == len(by_value) ** p


def test_completion_of_pushout_matches_free_product():
    p = pushout_of_nerves(Z2, Z3, K=2)
    comp = complete(p, budget=4)
    (obj,) = comp.presentation.objects
    classes = comp.hom(obj, obj)
    oracle = free_product_enumerate(Z2, Z3, 4)
    assert len(classes) == len(oracle)
    assert not comp.stabilized  # the free product of nontrivial monoids is infinite

    def to_element(word):
        letters = []
        for g in word:
            side, tup = g
            letters.append((LEFT if side == "L" else RIGHT, tup[0]))
        return free_product_normalize(Z2, Z3, letters)

    images = set()
    for cls in classes:
        values = {to_element(w) for w in cls}
        assert len(values) == 1
        images.update(values)
    assert images == set(oracle)


def test_pieces_match_outer_hull():
    for a in range(4):
        for b in range(3):
            A, B = SimplexObject(a), SimplexObject(b)
            for f in all_monotone_maps(B, A):
                pieces = pieces_of(f)
                # the hull of a unit interval is the piece containing it
                for i in range(1, a + 1):
                    hull = outer_hull(f, ConvexSubset(i - 1, i, A))
                    assert any(q.lo <= i - 1 and i <= q.hi and hull == q for q in pieces) or any(
                        hull.lo == q.lo and hull.hi == q.hi for q in pieces if q.contains(hull)
                    )


def test_cut_fiber_product_poset_example():
    n = nerve_of_interval_poset(2, K=3)
    phi = MonotoneMap(SimplexObject(1), SimplexObject(2), (0, 2))
    assert len(cut_fiber_product(n, phi)) == len(n.levels[2]) == 10


def test_cut_fiber_product_identity():
    n = nerve_of_interval_poset(2, K=3)
    for a in range(3):
        ident = MonotoneMap.identity(SimplexObject(a))
        assert len(cut_fiber_product(n, ident)) == len(n.levels[a])


def test_cut_fiber_product_no_connecting_edges():
    g = one_truncated("uv", [], K=2)  # two vertices, no edges
    ident = MonotoneMap.identity(SimplexObject(1))
    chains = cut_fiber_product(g, ident)
    # only the identity chains exist; no chain mixes the two vertices
    assert len(chains) == 2
    for chain in chains:
        vertices = {g.vertex(0, chain[0], 0), g.vertex(0, chain[-1], 0)}
        assert len(vertices) == 1


def test_colimit_on_segal_input():
    n = nerve_of_monoid(Z2, K=3)
    for p in (0, 1):
        col = colimit_truncated(n, p, p + 1)
        assert col.class_count() == len(n.levels[p])
        assert col.stabilized
        assert col.class_count() == colimit_truncated(n, p, p).class_count()


def test_colimit_p0_any_input():
    p = pushout_of_nerves(Z2, Z2, K=2)
    col = colimit_truncated(p, 0, 2)
    assert col.class_count() == len(p.levels[0]) == 1


def test_colimit_matches_free_product_slicewise():
    p = pushout_of_nerves(Z2, Z2, K=3)
    col = colimit_truncated(p, 1, 3)
    oracle = free_product_enumerate(Z2, Z2, 3)
    assert col.class_count() == len(oracle)
    assert not col.stabilized  # honest: the true colimit is infinite


def test_presentation_relations_shape():
    pres = presentation_of(nerve_of_monoid(Z2, K=2))
    ends = pres.endpoints()
    for lhs, rhs in pres.relations:
        assert len(lhs) <= 2 and len(rhs) <= 1
        for word in (lhs, rhs):
            for g in word:
                assert g in ends


def _map(target: int, *values: int) -> MonotoneMap:
    return MonotoneMap(SimplexObject(len(values) - 1), SimplexObject(target), values)


def _plan(f: MonotoneMap, outer: MonotoneMap, inner: MonotoneMap):
    """restriction_plan on the values of f, outer and inner."""
    return restriction_plan(f.values, f.target.p, outer.values, inner.values)


def test_restriction_plan_identity():
    phi = _map(2, 1)  # pieces [0, 1] and [1, 2]
    plan = _plan(MonotoneMap.identity(SimplexObject(2)), phi, phi)
    # each piece to itself: (piece index, its dimension, operator values)
    assert plan == ((0, 1, (0, 1)), (1, 1, (0, 1)))
    n = nerve_of_monoid(Z3, K=3)
    for chain in cut_fiber_product(n, phi):
        assert restrict_chain(n, plan, chain) == chain


def test_restriction_plan_face_map():
    f = _map(2, 0, 2)  # the face [1] -> [2] that skips 1
    inner = MonotoneMap.identity(SimplexObject(1))  # pieces [0,0], [0,1], [1,1]
    outer = compose_monotone(inner, f)  # pieces [0,0], [0,2], [2,2]
    plan = _plan(f, outer, inner)
    # the last inner piece lands on the point 2, which [0, 2] (the first
    # outer piece holding it) contains
    assert plan == ((0, 0, (0,)), (1, 2, (0, 2)), (1, 2, (2,)))
    n = nerve_of_monoid(Z3, K=3)
    for chain in cut_fiber_product(n, outer):
        x0, (g, h), _ = chain
        assert restrict_chain(n, plan, chain) == (x0, (Z3.multiply(g, h),), ())


def test_restriction_plan_rejects_a_piece_across_a_cut():
    outer = _map(2, 1)  # pieces [0, 1] and [1, 2]
    inner = _map(2, 0)  # the piece [0, 2] crosses the cut at 1
    with pytest.raises(SimplicialError):
        _plan(MonotoneMap.identity(SimplexObject(2)), outer, inner)


def _registration_order(C, p, N):
    """Every tag of the bound-N colimit: index objects (a, phi, anchor) in
    the order a, then phi by source size, then anchor, each with the
    chains of phi's cut fiber product in order."""
    order = []
    for a in range(N + 1):
        A = SimplexObject(a)
        phis = [phi for b in range(N + 1) for phi in all_monotone_maps(SimplexObject(b), A)]
        for phi in phis:
            chains = cut_fiber_product(C, phi)
            for s in all_monotone_maps(SimplexObject(p), A):
                order.extend(((a, phi.values, s.values), chain) for chain in chains)
    return order


@pytest.mark.parametrize(
    "C", [nerve_of_monoid(Z3, K=3), pushout_of_nerves(Z2, Z3, K=3)], ids=["nerve-z3", "pushout-z2-z3"]
)
def test_colimit_classes_partition_tags_in_registration_order(C):
    for p in range(3):
        for N in range(3):
            rank = {tag: i for i, tag in enumerate(_registration_order(C, p, N))}
            classes = colimit_truncated(C, p, N).classes
            members = [rank[tag] for group in classes for tag in group]
            assert sorted(members) == list(range(len(rank)))  # each tag exactly once
            for group in classes:
                places = [rank[tag] for tag in group]
                assert places == sorted(places)
            firsts = [rank[group[0]] for group in classes]
            assert firsts == sorted(firsts)


def _random_map(rng, source: int, target: int) -> MonotoneMap:
    return rng.choice(all_monotone_maps(SimplexObject(source), SimplexObject(target)))


@pytest.mark.parametrize(
    "C", [nerve_of_monoid(Z3, K=3), pushout_of_nerves(Z2, Z3, K=3)], ids=["nerve-z3", "pushout-z2-z3"]
)
def test_restriction_along_a_composite_is_the_composite_of_restrictions(C):
    # an index morphism (f, g) from (outer over [a0]) to (inner over [a1])
    # has outer = f o inner o g; compose two of them and restrict
    rng = random.Random(11)
    for _ in range(300):
        a0, a1, a2, b0, b1, b2 = (rng.randrange(4) for _ in range(6))
        inner2 = _random_map(rng, b2, a2)
        f2, g2 = _random_map(rng, a2, a1), _random_map(rng, b1, b2)
        inner1 = compose_monotone(compose_monotone(g2, inner2), f2)
        f1, g1 = _random_map(rng, a1, a0), _random_map(rng, b0, b1)
        outer = compose_monotone(compose_monotone(g1, inner1), f1)
        whole = _plan(compose_monotone(f2, f1), outer, inner2)
        first = _plan(f1, outer, inner1)
        then = _plan(f2, inner1, inner2)
        for chain in cut_fiber_product(C, outer):
            assert restrict_chain(C, whole, chain) == restrict_chain(
                C, then, restrict_chain(C, first, chain)
            )


def _all_maps_colimit(C, p, N):
    """The truncated colimit's classes with tags related along every
    monotone map up to the bound: every g with the ambient fixed, and
    every f changing the ambient (the elementary maps generate this)."""
    tags = _registration_order(C, p, N)
    number = {tag: i for i, tag in enumerate(tags)}
    uf = UnionFind()
    for i in range(len(tags)):
        uf.find(i)
    simplex = [SimplexObject(a) for a in range(N + 1)]
    anchors = [all_monotone_maps(SimplexObject(p), A) for A in simplex]
    phis = [[phi for B in simplex for phi in all_monotone_maps(B, A)] for A in simplex]
    values = {phi: cut_fiber_product(C, phi) for maps in phis for phi in maps}

    def relate(a0, phi0, a1, phi1, f, anchor_pairs):
        plan = _plan(f, phi0, phi1)
        for chain in values[phi0]:
            moved = restrict_chain(C, plan, chain)
            for s0, s1 in anchor_pairs:
                uf.union(
                    number[((a0, phi0.values, s0.values), chain)],
                    number[((a1, phi1.values, s1.values), moved)],
                )

    for a, A in enumerate(simplex):
        for phi1 in phis[a]:
            for B in simplex:
                for g in all_monotone_maps(B, phi1.source):
                    phi0 = compose_monotone(g, phi1)
                    relate(a, phi0, a, phi1, MonotoneMap.identity(A), [(s, s) for s in anchors[a]])
    for a1, A1 in enumerate(simplex):
        for a0, A0 in enumerate(simplex):
            for f in all_monotone_maps(A1, A0):
                pairs = [(compose_monotone(s, f), s) for s in anchors[a1]]
                for phi1 in phis[a1]:
                    relate(a0, compose_monotone(phi1, f), a1, phi1, f, pairs)
    return [[tags[i] for i in group] for group in uf.groups()]


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_colimit_matches_the_all_maps_relation(name):
    C = _PRESETS[name]()
    for p in range(3):
        smaller = None
        for N in range(4 if name == "nerve-z2" and p < 2 else 3):
            classes = _all_maps_colimit(C, p, N)
            stabilized = smaller is not None and len(smaller) == len(classes) and all(
                any(tag in small_tags for tag in group) for group in classes
            )
            col = colimit_truncated(C, p, N)
            assert (col.classes, col.stabilized) == (classes, stabilized), (p, N)
            smaller = classes
            small_tags = {tag for group in classes for tag in group}


def test_colimit_reads_stabilized_from_one_forest(monkeypatch):
    calls = []

    def counted(C, p, N):
        calls.append(N)
        return tags_and_classes(C, p, N)

    tags_and_classes = segal._colimit_tags_and_classes
    monkeypatch.setattr(segal, "_colimit_tags_and_classes", counted)
    C = _PRESETS["pushout-z2-z2"]()
    for N in range(3):
        colimit_truncated(C, 1, N)
    assert calls == [0, 1, 2]


def _plan_by_pieces(f, outer, inner):
    """restriction_plan as first written, on MonotoneMap and ConvexSubset
    objects: (outer piece index, operator) for each piece of ``inner``."""
    outer_pieces = pieces_of(outer)
    plan = []
    for piece in pieces_of(inner):
        lo, hi = f(piece.lo), f(piece.hi)
        idx = next((i for i, q in enumerate(outer_pieces) if q.lo <= lo and hi <= q.hi), None)
        if idx is None:
            raise SimplicialError("piece image not contained in a single piece")
        q = outer_pieces[idx]
        values = tuple(f(piece.lo + t) - q.lo for t in range(piece.hi - piece.lo + 1))
        plan.append((idx, MonotoneMap(piece.as_simplex(), q.as_simplex(), values)))
    return plan


def _colimit_by_one_forest(C, p, N):
    """The truncated colimit as computed before its two stages: one forest
    over every tag (a, phi, s, chain), each Family 1 move united once per
    anchor, on MonotoneMap objects, with chains restricted through C.act.
    Returns (classes, stabilized)."""
    uf = UnionFind()
    simplex = [SimplexObject(a) for a in range(N + 1)]
    anchors = {a: all_monotone_maps(SimplexObject(p), simplex[a]) for a in range(N + 1)}
    maps_into = {
        a: [phi for b in range(N + 1) for phi in all_monotone_maps(simplex[b], simplex[a])]
        for a in range(N + 1)
    }
    values, first, tags, small = {}, {}, [], []
    for a in range(N + 1):
        for phi in maps_into[a]:
            chains = cut_fiber_product(C, phi)
            values[(a, phi.values)] = {chain: i for i, chain in enumerate(chains)}
            for s in anchors[a]:
                key = (a, phi.values, s.values)
                first[key] = len(tags)
                tags.extend((key, chain) for chain in chains)
                if max(a, phi.source.p) < N:
                    small.extend(range(first[key], len(tags)))
    for tag in range(len(tags)):  # groups() orders classes by first registration
        uf.find(tag)
    bounded, rest = [], []

    def add_move(a0, phi0, a1, phi1, f, anchor_pairs):
        inside = max(a0, a1, phi0.source.p, phi1.source.p) < N
        (bounded if inside else rest).append((a0, phi0, a1, phi1, f, anchor_pairs))

    def union_moves(a0, phi0, a1, phi1, f, anchor_pairs):
        plan = _plan_by_pieces(f, phi0, phi1)
        target = values[(a1, phi1.values)]
        moved = [target[tuple(C.act(u, chain[i]) for i, u in plan)] for chain in values[(a0, phi0.values)]]
        for s0, s1 in anchor_pairs:
            base0 = first[(a0, phi0.values, s0.values)]
            base1 = first[(a1, phi1.values, s1.values)]
            for i, place in enumerate(moved):
                uf.union(base0 + i, base1 + place)

    for a in range(N + 1):  # Family 1
        ident = MonotoneMap.identity(simplex[a])
        same_anchor = [(s, s) for s in anchors[a]]
        for phi1 in maps_into[a]:
            for b0 in range(N + 1):
                for g in elementary_maps(simplex[b0], phi1.source):
                    add_move(a, compose_monotone(g, phi1), a, phi1, ident, same_anchor)
    for a1 in range(N + 1):  # Family 2
        for a0 in range(N + 1):
            for f in elementary_maps(simplex[a1], simplex[a0]):
                anchor_pairs = [(compose_monotone(s1, f), s1) for s1 in anchors[a1]]
                for phi1 in maps_into[a1]:
                    add_move(a0, compose_monotone(phi1, f), a1, phi1, f, anchor_pairs)
    for move in bounded:
        union_moves(*move)
    smaller = len({uf.find(tag) for tag in small})
    for move in rest:
        union_moves(*move)
    classes = [[tags[tag] for tag in group] for group in uf.groups()]
    return classes, N >= 1 and smaller == len({uf.find(tag) for tag in small}) == len(classes)


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_colimit_matches_the_one_forest_reference(name):
    # every p and N the preset stores, N = 3 included
    C = _PRESETS[name]()
    for p in range(C.K + 1):
        for N in range(C.K + 1):
            col = colimit_truncated(C, p, N)
            assert (col.classes, col.stabilized) == _colimit_by_one_forest(C, p, N), (p, N)


def test_colimit_matches_the_one_forest_reference_on_small_monoid_nerves():
    tables = [t for order in range(1, 5) for t in _monoid_tables(order)]
    assert len(tables) == 45
    for t in tables:
        C = nerve_of_monoid(PointedMonoid.from_table(str(t), t), K=2)
        for p in (0, 1):
            for N in (0, 1, 2):
                col = colimit_truncated(C, p, N)
                assert (col.classes, col.stabilized) == _colimit_by_one_forest(C, p, N), (t, p, N)


@pytest.mark.parametrize(
    "C",
    [
        nerve_of_interval_poset(3, K=3),
        one_truncated("uv", [("a", "u", "v"), ("b", "v", "u"), ("c", "u", "u")], K=3),
    ],
    ids=["interval-poset-3", "graph-uv"],
)
def test_colimit_matches_the_one_forest_reference_outside_the_presets(C):
    for p in range(4):
        for N in range(4):
            col = colimit_truncated(C, p, N)
            assert (col.classes, col.stabilized) == _colimit_by_one_forest(C, p, N), (p, N)


def _doubled_generator():
    """Two-truncated data like the nerve of Z/2, with its generator doubled
    into the edges a and b: the triangles are the triples (x, y, z) whose
    long edge z has the class of x then y.  Completion identifies a with b."""
    parity = {"1": 0, "a": 1, "b": 1}
    edges = tuple(parity)
    triangles = tuple(
        (x, y, z) for x in edges for y in edges for z in edges if parity[z] == (parity[x] + parity[y]) % 2
    )
    faces = {
        (1, 0): dict.fromkeys(edges, "v"),
        (1, 1): dict.fromkeys(edges, "v"),
        **{(2, i): {t: t[(1, 2, 0)[i]] for t in triangles} for i in range(3)},
    }
    degeneracies = {
        (0, 0): {"v": "1"},
        (1, 0): {e: ("1", e, e) for e in edges},
        (1, 1): {e: (e, "1", e) for e in edges},
    }
    return SimplicialData((("v",), edges, triangles), faces, degeneracies)


def test_classes_merged_by_the_larger_bound_are_not_stable():
    # at N = 1 the edges 1, a and b give three classes; the triangle
    # (1, a, b) joins a and b at N = 2, where every class still holds a
    # bound-1 tag, so only the count read before the rest tells
    C = _doubled_generator()
    assert colimit_truncated(C, 1, 1).class_count() == 3
    col = colimit_truncated(C, 1, 2)
    assert col.class_count() == 2 == complete(C, 4).class_count("v", "v")
    assert all(any(max(a, len(phi) - 1) < 2 for (a, phi, _), _ in group) for group in col.classes)
    assert not col.stabilized
    assert (col.classes, col.stabilized) == _colimit_by_one_forest(C, 1, 2)


def _family1_forest(C, N):
    """The first stage of the two-stage colimit, kept as the reference for
    the spine chains that replace it: one forest over the items (a, phi,
    chain) with a, b <= N, each Family 1 move (from phi o g to phi, g
    elementary, the ambient kept) united on MonotoneMap objects with
    chains restricted through C.act.  Returns the item classes."""
    uf = UnionFind()
    simplex = [SimplexObject(a) for a in range(N + 1)]
    values = {}
    for a in range(N + 1):
        for phi in (phi for B in simplex for phi in all_monotone_maps(B, simplex[a])):
            values[(a, phi.values)] = set(cut_fiber_product(C, phi))
            for chain in values[(a, phi.values)]:
                uf.find((a, phi.values, chain))
    for a in range(N + 1):
        ident = MonotoneMap.identity(simplex[a])
        for phi1 in (phi for B in simplex for phi in all_monotone_maps(B, simplex[a])):
            for B in simplex:
                for g in elementary_maps(B, phi1.source):
                    phi0 = compose_monotone(g, phi1)
                    plan = _plan_by_pieces(ident, phi0, phi1)
                    for chain in values[(a, phi0.values)]:
                        moved = tuple(C.act(u, chain[i]) for i, u in plan)
                        assert moved in values[(a, phi1.values)]
                        uf.union((a, phi0.values, chain), (a, phi1.values, moved))
    return uf.groups()


def _assert_family1_classes_are_spine_chains(C, N):
    """The items' Family 1 classes at bound N are their restrictions to
    the spine of [a], one class per spine chain.  Items and Family 1 do
    not involve the anchor, so this holds at every p alike; the bounded
    run at N is the full run at N - 1 on the smaller items."""
    classes = _family1_forest(C, N)
    ident = [MonotoneMap.identity(SimplexObject(a)) for a in range(N + 1)]

    def spine(a, phi, chain):
        f = ident[a]
        return a, tuple(C.act(u, chain[i]) for i, u in _plan_by_pieces(f, _map(a, *phi), f))

    for group in classes:
        assert len({spine(*item) for item in group}) == 1
    by_spine = {}
    for group in classes:
        for item in group:
            by_spine.setdefault(spine(*item), set()).add(item)
    assert {frozenset(group) for group in classes} == {frozenset(group) for group in by_spine.values()}


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_family1_classes_are_the_spine_chains(name):
    C = _PRESETS[name]()
    for N in range(C.K + 1):
        _assert_family1_classes_are_spine_chains(C, N)


def test_family1_classes_are_the_spine_chains_on_small_monoid_nerves():
    for t in (t for order in range(1, 5) for t in _monoid_tables(order)):
        C = nerve_of_monoid(PointedMonoid.from_table(str(t), t), K=2)
        for N in (0, 1, 2):
            _assert_family1_classes_are_spine_chains(C, N)


def test_colimit_unions_once_per_elementary_map_and_pair_of_spine_chains(monkeypatch):
    # a forest over (phi, chain) items, then one over (item class, anchor)
    # nodes, made 2,979 union calls at N = 2 and 87,989 at N = 3
    calls = []
    union = UnionFind.union

    def counted(self, a, b):
        calls.append((a, b))
        return union(self, a, b)

    monkeypatch.setattr(UnionFind, "union", counted)
    C = _PRESETS["pushout-z2-z3"]()
    for N, most in ((2, 250), (3, 2500)):
        calls.clear()
        assert colimit_truncated(C, 1, N).class_count() == len(free_product_enumerate(Z2, Z3, N))
        assert len(calls) <= most, (N, len(calls))


def test_colimit_reads_each_nodes_class_once(monkeypatch):
    # a tag's class is its (spine chain, anchor) node's: reading it per tag
    # made 1,843 finds besides those of union at N = 2 and 40,098 at N = 3
    counts = {"find": 0, "union": 0}
    find, union = UnionFind.find, UnionFind.union

    def counted_find(self, x):
        counts["find"] += 1
        return find(self, x)

    def counted_union(self, a, b):
        counts["union"] += 1
        return union(self, a, b)

    monkeypatch.setattr(UnionFind, "find", counted_find)
    monkeypatch.setattr(UnionFind, "union", counted_union)
    C = _PRESETS["pushout-z2-z3"]()
    for N, most in ((2, 150), (3, 1000)):
        counts.update(find=0, union=0)
        assert colimit_truncated(C, 1, N).class_count() == len(free_product_enumerate(Z2, Z3, N))
        assert counts["find"] - 2 * counts["union"] <= most, (N, counts)


def test_a_negative_bound_or_level_is_refused_up_front():
    C = _PRESETS["nerve-z2"]()
    with pytest.raises(SimplicialError, match="bound"):
        colimit_truncated(C, 1, -1)
    with pytest.raises(SimplexError):
        colimit_truncated(C, -1, 1)


def test_close_words_matches_brute_force_closure():
    # e: x -> x with ee = 1 (an empty side), f: x -> y, g: y -> x with fg = e
    pres = CategoryPresentation(
        objects=("x", "y"),
        generators=(("e", "x", "x"), ("f", "x", "y"), ("g", "y", "x")),
        relations=((("e", "e"), ()), (("f", "g"), ("e",))),
    )
    ends = pres.endpoints()
    sides = [(lhs, rhs) for lhs, rhs in pres.relations] + [(rhs, lhs) for lhs, rhs in pres.relations]

    def closure(budget):
        words = {}  # (source, word) -> target
        for x in pres.objects:
            for n in range(budget + 1):
                for w in itertools.product(ends, repeat=n):
                    cursor = x
                    for g in w:
                        if ends[g][0] != cursor:
                            break
                        cursor = ends[g][1]
                    else:
                        words[(x, w)] = cursor

        def neighbours(x, w):
            for i in range(len(w) + 1):
                for j in range(i, len(w) + 1):
                    for a, b in sides:
                        if w[i:j] == a and (x, w[:i] + b + w[j:]) in words:
                            yield (x, w[:i] + b + w[j:])

        expected: dict = {}
        seen = set()
        for start in words:
            if start in seen:
                continue
            component, stack = set(), [start]
            while stack:
                key = stack.pop()
                if key in component:
                    continue
                component.add(key)
                stack.extend(neighbours(*key))
            seen |= component
            expected.setdefault((start[0], words[start]), set()).add(frozenset(w for _, w in component))
        return expected

    budget = 5
    expected, smaller = closure(budget), closure(budget - 1)
    assert any(len(classes) > 1 for classes in expected.values())
    hom, stabilized = _close_words(pres, budget)
    assert {key: {frozenset(cls) for cls in classes} for key, classes in hom.items()} == expected
    counts = {key: len(classes) for key, classes in expected.items()}
    assert stabilized == (counts == {key: len(classes) for key, classes in smaller.items()})


def _two_pass_completion(X, budget):
    """The completion as two separate closures: enumerate the words, close
    them at the budget and again at budget - 1, and compare class counts."""
    pres = presentation_of(X)
    ends = pres.endpoints()
    by_source: dict = {}
    for g, s, _ in pres.generators:
        by_source.setdefault(s, []).append(g)

    def close(budget):
        words = {}  # (source, word) -> (source, target)
        for x in pres.objects:
            words[(x, ())] = (x, x)
            frontier = [((), x)]
            for _ in range(budget):
                frontier = [(w + (g,), ends[g][1]) for w, t in frontier for g in by_source.get(t, ())]
                words.update({(x, w): (x, t) for w, t in frontier})
        uf = UnionFind()
        for key in words:
            uf.find(key)
        for key in words:
            x, w = key
            for lhs, rhs in pres.relations:
                for a, b in ((lhs, rhs), (rhs, lhs)):
                    for pos in range(len(w) - len(a) + 1):
                        if w[pos : pos + len(a)] == a:
                            other = (x, w[:pos] + b + w[pos + len(a) :])
                            if other in words:
                                uf.union(key, other)
        hom: dict = {}
        for members in uf.groups():
            hom.setdefault(words[members[0]], []).append(
                sorted((w for _, w in members), key=lambda w: (len(w), repr(w)))
            )
        for classes in hom.values():
            classes.sort(key=lambda ws: (len(ws[0]), repr(ws[0])))
        return hom

    hom = close(budget)
    smaller = close(budget - 1) if budget > 1 else {}
    stabilized = budget > 1 and all(
        len(hom.get(key, [])) == len(smaller.get(key, [])) for key in set(hom) | set(smaller)
    )
    return hom, stabilized


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_completion_matches_the_two_pass_closure(name):
    X = _PRESETS[name]()
    for budget in range(8):
        comp = complete(X, budget)
        assert (comp.hom_classes, comp.stabilized) == _two_pass_completion(X, budget), budget


def test_completion_closes_the_words_once(monkeypatch, capsys):
    calls = []

    def counted(pres, budget):
        calls.append(budget)
        return _close_words(pres, budget)

    monkeypatch.setattr(segal, "_close_words", counted)
    # the counts and the CLI, which prints the flag, never close the words on a preset
    for name in sorted(_PRESETS):
        for budget in range(6):
            comp = complete(_PRESETS[name](), budget)
            assert all(comp.class_count(*key) == n >= 1 for key, n in comp.class_counts.items())
        assert main(["seg", "complete", "--preset", name, "--budget", "5"]) == 0
    assert calls == [] and "classes" in capsys.readouterr().out
    # the classes themselves are closed on first read, once
    for budget in range(6):
        comp = complete(_PRESETS["pushout-z2-z3"](), budget)
        first = comp.hom_classes
        assert comp.hom_classes is first and comp.hom(("U", 0), ("U", 0)) is first[("U", 0), ("U", 0)]
    assert calls == list(range(6))
    # without a convergent system, complete closes them at once, and once
    calls.clear()
    for budget in range(6):
        comp = complete(_magma_nerve(), budget)
        assert comp.class_counts == {key: len(c) for key, c in comp.hom_classes.items()}
    assert calls == list(range(6))


def test_closing_more_words_than_the_cap_is_refused_up_front(monkeypatch):
    # pushout-z2-z3 has 797,161 composable words of length <= 12: complete
    # counts its classes at once, and closing them is refused at once
    comp = complete(_PRESETS["pushout-z2-z3"](), 12)
    assert comp.class_count(("U", 0), ("U", 0)) > 1
    start = time.perf_counter()
    with pytest.raises(SimplicialError):
        comp.hom_classes
    with pytest.raises(SimplicialError):
        complete(_magma_nerve(), 10**6)  # no convergent system: complete closes at once
    assert time.perf_counter() - start < 1.0
    # the cap counts the words exactly: 364 of length <= 5, 1,093 of length <= 6
    monkeypatch.setattr(segal, "CLOSE_LIMIT", 364)
    five = complete(_PRESETS["pushout-z2-z3"](), 5)
    assert {key: len(classes) for key, classes in five.hom_classes.items()} == five.class_counts
    with pytest.raises(SimplicialError):
        complete(_PRESETS["pushout-z2-z3"](), 6).hom_classes
    monkeypatch.setattr(segal, "CLOSE_LIMIT", 363)
    with pytest.raises(SimplicialError):
        complete(_PRESETS["pushout-z2-z3"](), 5).hom_classes


# ---------------------------------------------------------------------------
# counting hom-sets from a convergent rewriting system


def _monoid_tables(order):
    """The multiplication tables of the monoids on 0..order-1 with unit 0,
    one per isomorphism class (1, 2, 7 and 35 of them for orders 1 to 4)."""
    others = range(1, order)
    seen, tables = set(), []
    for block in itertools.product(range(order), repeat=(order - 1) ** 2):
        t = [list(range(order))] + [[a] + list(block[(a - 1) * (order - 1) : a * (order - 1)]) for a in others]
        if any(t[t[a][b]][c] != t[a][t[b][c]] for a in others for b in others for c in others):
            continue
        relabelled = (
            tuple(tuple(p.index(t[p[a]][p[b]]) for b in range(order)) for a in range(order))
            for p in ([0, *q] for q in itertools.permutations(others))
        )
        key = min(relabelled)
        if key not in seen:
            seen.add(key)
            tables.append(t)
    return tables


@functools.cache
def _certification_cases():
    """436 (name, datum, budget) cases: the six presets at budgets 0-8, the
    2-truncated nerves of the 45 monoids of order <= 4 at budgets 0-5, and
    the 16 pushouts over Z/2, Z/3, Z/4 and the trivial monoid at 0-6."""
    cases = [(name, _PRESETS[name](), range(9)) for name in sorted(_PRESETS)]
    for order in range(1, 5):
        for t in _monoid_tables(order):
            M = PointedMonoid.from_table(str(t), t)
            cases.append((f"nerve {t}", nerve_of_monoid(M, K=2), range(6)))
    base = [PointedMonoid.trivial(), Z2, Z3, PointedMonoid.cyclic(4)]
    for A, B in itertools.product(base, repeat=2):
        cases.append((f"{A.name} * {B.name}", pushout_of_nerves(A, B, K=2), range(7)))
    return [(name, X, budget) for name, X, budgets in cases for budget in budgets]


def _closure_counts(pres, budget):
    hom, stabilized = _close_words(pres, budget)
    return {key: len(classes) for key, classes in hom.items()}, stabilized


def test_normal_form_counts_equal_the_closure():
    cases = _certification_cases()
    assert len(cases) == 436
    for name, X, budget in cases:
        pres = presentation_of(X)
        counted = _count_normal_forms(pres, budget)
        assert counted == _closure_counts(pres, budget), (name, budget)
        comp = complete(X, budget)
        assert (comp.class_counts, comp.stabilized) == counted


def test_certified_stabilized_is_exact():
    flagged = 0
    for name, X, budget in _certification_cases():
        pres = presentation_of(X)
        counts, stabilized = _count_normal_forms(pres, budget)
        if stabilized:
            flagged += 1
            for more in range(budget + 1, budget + 5):
                assert _count_normal_forms(pres, more) == (counts, True), (name, budget, more)
    assert flagged > 100


def test_pushout_counts_equal_the_free_product():
    base = [PointedMonoid.trivial(), Z2, Z3, PointedMonoid.cyclic(4)]
    for A, B in itertools.product(base, repeat=2):
        X = pushout_of_nerves(A, B, K=2)
        sizes = [len(free_product_enumerate(A, B, budget)) for budget in range(11)]
        for budget, size in enumerate(sizes):
            comp = complete(X, budget)
            assert comp.class_counts == {(("U", 0), ("U", 0)): size}, (A, B, budget)
            assert comp.stabilized == (budget > 1 and size == sizes[budget - 1])


def _magma_nerve():
    """The 2-truncated nerve of the unital magma on {0, 1, 2} with unit 0
    and rows [0,1,2], [1,2,0], [2,2,1]; it is not associative: (2*1)*1 = 2
    but 2*(1*1) = 1."""
    rows = ((0, 1, 2), (1, 2, 0), (2, 2, 1))
    levels = [tuple(itertools.product(range(3), repeat=p)) for p in range(3)]
    return segal._from_maps(
        levels,
        lambda p, i, x: segal._nerve_face(lambda a, b: rows[a][b], p, i, x),
        lambda p, i, x: x[:i] + (0,) + x[i:],
    )


def test_a_failed_critical_pair_falls_back_to_the_closure():
    X = _magma_nerve()
    pres = presentation_of(X)
    for budget in range(6):
        assert _count_normal_forms(pres, budget) is None
        comp = complete(X, budget)
        hom, stabilized = _close_words(pres, budget)
        assert (comp.hom_classes, comp.stabilized) == (hom, stabilized)
        assert comp.class_counts == {key: len(classes) for key, classes in hom.items()}
    # the closure's flag is not exact: it reads True at 2, and the count moves at 3
    counts = [complete(X, budget).class_count((), ()) for budget in range(5)]
    assert counts == [1, 3, 3, 1, 1] and complete(X, 2).stabilized


def _random_presentation(rng):
    """One or two objects, up to three generators, and up to four relations
    of the shape read off level 2: a word of length <= 2 against a parallel
    word of length <= 1."""
    objects = ("x", "y")[: rng.randint(1, 2)]
    generators = tuple((g, rng.choice(objects), rng.choice(objects)) for g in "abc"[: rng.randint(1, 3)])
    paths = [((), x, x) for x in objects] + [((g,), s, t) for g, s, t in generators]
    paths += [((g, h), s, u) for g, s, t in generators for h, t2, u in generators if t == t2]
    relations = []
    for _ in range(rng.randint(1, 4)):
        lhs, s, t = rng.choice(paths)
        short = [w for w, s2, t2 in paths if (s2, t2) == (s, t) and len(w) <= 1 and w != lhs]
        if short:
            relations.append((lhs, rng.choice(short)))
    return CategoryPresentation(objects, generators, tuple(relations))


def test_normal_form_counts_equal_the_closure_on_random_presentations():
    rng = random.Random(15)
    certified = failed = 0
    for _ in range(1500):
        pres = _random_presentation(rng)
        for budget in range(5):
            counted = _count_normal_forms(pres, budget)
            if counted is None:
                failed += 1
            else:
                certified += 1
                assert counted == _closure_counts(pres, budget), (pres, budget)
    assert certified > 1000 and failed > 1000


def _nerve_without(faces=(), degeneracies=()):
    n = nerve_of_monoid(Z2, K=2)
    return SimplicialData(
        n.levels,
        {k: v for k, v in n.faces.items() if k not in faces},
        {k: v for k, v in n.degeneracies.items() if k not in degeneracies},
    )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SimplicialData(nerve_of_monoid(Z2, K=2).levels[:2], {}, {}),
         "simplicial data must be stored at least to level 2"),
        (lambda: _nerve_without(faces=[(2, 1)]), "missing face map d_1 at level 2"),
        (lambda: _nerve_without(degeneracies=[(1, 0)]), "missing degeneracy s_0 at level 1"),
        (lambda: is_segal(nerve_of_monoid(Z2, K=2), 3), "level 3 not stored (K = 2)"),
        (lambda: cut_fiber_product(nerve_of_monoid(Z2, K=2), MonotoneMap(SimplexObject(0), SimplexObject(3), (1,))),
         "level 3 not stored (K = 2)"),
        (lambda: colimit_truncated(nerve_of_monoid(Z2, K=2), 1, 3), "levels up to 3 needed, stored 2"),
    ],
)
def test_malformed_data_and_levels_not_stored_are_refused(build, message):
    with pytest.raises(SimplicialError) as info:
        build()
    assert str(info.value) == message
