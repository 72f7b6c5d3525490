import random

import pytest

from tangles.segal import (
    SimplicialData,
    SimplicialError,
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
)
from tangles.simplex import ConvexSubset, MonotoneMap, SimplexObject, all_monotone_maps, outer_hull
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


def test_pushout_not_segal():
    p = pushout_of_nerves(Z2, Z2, K=2)
    # 2-level has 7 elements but there are 9 composable pairs
    assert len(p.levels[2]) == 7 and len(p.levels[1]) ** 2 == 9
    assert not is_segal(p, 2)


def test_degenerate_only_is_segal():
    x = one_truncated("ab", [], K=2)
    assert is_segal(x, 2)


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
