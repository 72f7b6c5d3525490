import random
from fractions import Fraction

import pytest

from tangles.simplex import (
    ConvexSubset,
    HullBoundsViolation,
    IntervalCover,
    MonotoneMap,
    SimplexError,
    SimplexObject,
    all_monotone_maps,
    compose_monotone,
    cover,
    cover_inclusion_map,
    elementary_maps,
    hull_image,
    localize_cover,
    outer_hull,
    restrict_across_square,
)


def mono(values, target):
    return MonotoneMap(SimplexObject(len(values) - 1), SimplexObject(target), tuple(values))


def test_compose_identity():
    i2 = MonotoneMap.identity(SimplexObject(2))
    assert compose_monotone(i2, i2) == i2


def test_compose_pointwise():
    f = mono((0, 1, 3), 3)
    g = mono((0, 0, 1, 2), 2)
    assert compose_monotone(f, g).values == (0, 0, 2)


def test_compose_constant():
    c = MonotoneMap.constant(SimplexObject(2), SimplexObject(3), 0)
    g = mono((1, 2, 2, 3), 3)
    assert compose_monotone(c, g).values == (1, 1, 1)


def test_compose_mismatch():
    f = mono((0, 1), 2)
    with pytest.raises(SimplexError):
        compose_monotone(f, f)


def test_monotone_validation():
    with pytest.raises(SimplexError):
        mono((1, 0), 2)
    with pytest.raises(SimplexError):
        mono((0, 5), 2)


def test_elementary_maps_are_the_faces_and_degeneracies():
    for m in range(5):
        for n in range(5):
            source, target = SimplexObject(m), SimplexObject(n)
            maps = elementary_maps(source, target)
            assert len(set(maps)) == len(maps)
            image_sizes = {u: len(set(u.values)) for u in all_monotone_maps(source, target)}
            if m == n - 1:  # faces: the injective maps
                expected = [u for u, k in image_sizes.items() if k == m + 1]
            elif m == n + 1:  # degeneracies: the surjective maps
                expected = [u for u, k in image_sizes.items() if k == n + 1]
            else:
                expected = []
            assert set(maps) == set(expected)
            assert len(maps) == (n + 1 if expected else 0)


def test_monotone_maps_factor_into_elementary_maps_within_the_bound():
    # every map [s] -> [t] is a composite of elementary maps whose
    # intermediate objects stay within max(s, t)
    top = 3
    objects = [SimplexObject(k) for k in range(top + 1)]
    for s in objects:
        for t in objects:
            bound = max(s.p, t.p)
            reached = {MonotoneMap.identity(s)}
            frontier = list(reached)
            while frontier:
                nxt = []
                for u in frontier:
                    for c in objects[: bound + 1]:
                        for e in elementary_maps(u.target, c):
                            v = compose_monotone(u, e)
                            if v not in reached:
                                reached.add(v)
                                nxt.append(v)
                frontier = nxt
            assert {u for u in reached if u.target == t} == set(all_monotone_maps(s, t))


def test_hull_image_examples():
    i3 = SimplexObject(3)
    assert hull_image(MonotoneMap.identity(i3), ConvexSubset(1, 2, i3)) == ConvexSubset(1, 2, i3)
    f = mono((0, 1, 3), 3)
    assert hull_image(f, ConvexSubset(0, 2, SimplexObject(2))) == ConvexSubset(0, 3, i3)
    c = MonotoneMap.constant(SimplexObject(2), i3, 2)
    assert hull_image(c, ConvexSubset(0, 1, SimplexObject(2))) == ConvexSubset(2, 2, i3)


def test_hull_image_functorial_exhaustive():
    # Hull(g o f) = Hull(g) o Hull(f) for all composables with sizes <= 4
    for a in range(4):
        for b in range(4):
            for c in range(4):
                A, B, C = SimplexObject(a), SimplexObject(b), SimplexObject(c)
                for f in all_monotone_maps(A, B):
                    for g in all_monotone_maps(B, C):
                        gf = compose_monotone(f, g)
                        for lo in range(a + 1):
                            for hi in range(lo, a + 1):
                                sub = ConvexSubset(lo, hi, A)
                                assert hull_image(gf, sub) == hull_image(g, hull_image(f, sub))


def test_outer_hull_examples():
    # the map (1, 2): [1] -> [3]
    phi = mono((1, 2), 3)
    amb = SimplexObject(3)
    assert outer_hull(phi, ConvexSubset(0, 1, amb)) == ConvexSubset(0, 1, amb)
    assert outer_hull(phi, ConvexSubset(2, 3, amb)) == ConvexSubset(2, 3, amb)
    assert outer_hull(phi, ConvexSubset(1, 2, amb)) == ConvexSubset(1, 2, amb)
    assert outer_hull(phi, ConvexSubset(2, 2, amb)) == ConvexSubset(2, 2, amb)
    # ends snap outward to the boundary when no value brackets them
    assert outer_hull(phi, ConvexSubset(0, 0, amb)) == ConvexSubset(0, 1, amb)
    assert outer_hull(phi, ConvexSubset(3, 3, amb)) == ConvexSubset(2, 3, amb)


def test_outer_hull_contains_and_idempotent():
    for a in range(5):
        for b in range(4):
            A, B = SimplexObject(a), SimplexObject(b)
            for phi in all_monotone_maps(B, A):
                for lo in range(a + 1):
                    for hi in range(lo, a + 1):
                        sub = ConvexSubset(lo, hi, A)
                        hull = outer_hull(phi, sub)
                        assert hull.contains(sub)
                        assert outer_hull(phi, hull) == hull


def test_restrict_across_square_identity():
    A = SimplexObject(3)
    ident = MonotoneMap.identity(A)
    phi = mono((1, 2), 3)
    sub = ConvexSubset(1, 2, A)
    r = restrict_across_square(ident, MonotoneMap.identity(phi.source), phi, phi, sub)
    assert r.is_identity()


def test_restrict_across_square_point():
    A = SimplexObject(3)
    phi = mono((1, 2), 3)
    sub = ConvexSubset(2, 2, A)
    r = restrict_across_square(
        MonotoneMap.identity(A), MonotoneMap.identity(phi.source), phi, phi, sub
    )
    assert r.source.p == 0 and r.target.p == 0


def test_restrict_across_square_worked_example():
    # f = (0,1,3): [2] -> [3], g = id on [1], inner = (1,2): [1] -> [2]
    f = mono((0, 1, 3), 3)
    inner = mono((1, 2), 2)
    g = MonotoneMap.identity(inner.source)
    outer = compose_monotone(compose_monotone(g, inner), f)
    A1 = SimplexObject(2)
    for lo in range(3):
        for hi in range(lo, 3):
            r = restrict_across_square(f, g, outer, inner, ConvexSubset(lo, hi, A1))
            assert r.values == tuple(sorted(r.values))


def test_restrict_across_square_exhaustive_small():
    # All commuting squares with every simplex of size <= 2, every convex
    # subset.  For injective f the endpoint bounds always hold and the
    # restriction is monotone; collapsing f can genuinely violate them,
    # in which case the named error is raised (never a wrong map).
    sizes = range(3)
    outcomes = {"ok": 0, "bounds": 0}
    for a0 in sizes:
        for a1 in sizes:
            for b0 in sizes:
                for b1 in sizes:
                    A0, A1 = SimplexObject(a0), SimplexObject(a1)
                    B0, B1 = SimplexObject(b0), SimplexObject(b1)
                    for f in all_monotone_maps(A1, A0):
                        injective = len(set(f.values)) == len(f.values)
                        for g in all_monotone_maps(B0, B1):
                            for inner in all_monotone_maps(B1, A1):
                                outer = compose_monotone(compose_monotone(g, inner), f)
                                for lo in range(a1 + 1):
                                    for hi in range(lo, a1 + 1):
                                        sub = ConvexSubset(lo, hi, A1)
                                        try:
                                            r = restrict_across_square(f, g, outer, inner, sub)
                                        except HullBoundsViolation:
                                            assert not injective
                                            outcomes["bounds"] += 1
                                            continue
                                        outcomes["ok"] += 1
                                        assert all(
                                            x <= y for x, y in zip(r.values, r.values[1:])
                                        )
    assert outcomes["ok"] > 0 and outcomes["bounds"] > 0


def test_restrict_bounds_can_fail_for_collapsing_f():
    # inner = (0,3): [1] -> [3], f = (0,1,1,1): [3] -> [1], C = {1}:
    # the fine hull is [0,3] but the coarse hull is {1}, and f(0) = 0.
    f = mono((0, 1, 1, 1), 1)
    inner = mono((0, 3), 3)
    g = MonotoneMap.identity(inner.source)
    outer = compose_monotone(compose_monotone(g, inner), f)
    with pytest.raises(HullBoundsViolation):
        restrict_across_square(f, g, outer, inner, ConvexSubset(1, 1, SimplexObject(3)))


def test_restrict_across_square_random_dim3():
    rng = random.Random(7)
    simplexes = [SimplexObject(p) for p in range(4)]
    for _ in range(400):
        A0, A1, B0, B1 = (rng.choice(simplexes) for _ in range(4))
        f = rng.choice(all_monotone_maps(A1, A0))
        g = rng.choice(all_monotone_maps(B0, B1))
        inner = rng.choice(all_monotone_maps(B1, A1))
        outer = compose_monotone(compose_monotone(g, inner), f)
        lo = rng.randrange(A1.p + 1)
        hi = rng.randrange(lo, A1.p + 1)
        try:
            restrict_across_square(f, g, outer, inner, ConvexSubset(lo, hi, A1))
        except HullBoundsViolation:
            assert len(set(f.values)) < len(f.values)


def test_restrict_rejects_noncommuting_square():
    A = SimplexObject(2)
    f = MonotoneMap.identity(A)
    inner = mono((0, 1), 2)
    g = MonotoneMap.identity(inner.source)
    bad_outer = mono((0, 2), 2)
    with pytest.raises(SimplexError):
        restrict_across_square(f, g, bad_outer, inner, ConvexSubset(0, 1, A))


# ---------------------------------------------------------------------------
# interval covers


def test_localize_examples():
    u1 = cover((0, "1/10"), ("9/10", 1))
    assert localize_cover(u1) == SimplexObject(0)
    u2 = cover((0, "1/10"), ("4/10", "6/10"), ("9/10", 1))
    assert localize_cover(u2) == SimplexObject(1)
    # covering everything except two points
    u3 = cover((0, "1/3"), ("1/3", "2/3"), ("2/3", 1))
    assert localize_cover(u3) == SimplexObject(1)
    assert u3.complement_components() == (
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(2, 3), Fraction(2, 3)),
    )


def test_cover_validation():
    with pytest.raises(SimplexError):
        cover((0, 1))  # a single component cannot cover both endpoints
    with pytest.raises(SimplexError):
        cover(("1/10", "2/10"), ("9/10", 1))  # first misses 0
    with pytest.raises(SimplexError):
        cover((0, "5/10"), ("4/10", 1))  # overlap


def test_cover_inclusion_identity():
    u = cover((0, "1/10"), ("4/10", "6/10"), ("9/10", 1))
    assert cover_inclusion_map(u, u).is_identity()


def test_cover_inclusion_example():
    u = cover((0, "1/10"), ("4/10", "6/10"), ("9/10", 1))
    v = cover((0, "1/10"), ("2/10", "3/10"), ("4/10", "6/10"), ("9/10", 1))
    m = cover_inclusion_map(u, v)
    assert m.source == SimplexObject(2)
    assert m.target == SimplexObject(1)
    assert m.values == (0, 0, 1)


def test_cover_inclusion_refining_last_gap():
    u = cover((0, "1/10"), ("4/10", "6/10"), ("9/10", 1))
    v = cover((0, "1/10"), ("4/10", "6/10"), ("7/10", "8/10"), ("9/10", 1))
    m = cover_inclusion_map(u, v)
    assert m.values == (0, 1, 1)


def test_cover_inclusion_requires_containment():
    u = cover((0, "5/10"), ("9/10", 1))
    v = cover((0, "1/10"), ("9/10", 1))
    with pytest.raises(SimplexError):
        cover_inclusion_map(u, v)


def _random_refinement(rng: random.Random, u: IntervalCover) -> IntervalCover:
    """Split some components of u in two; every component of the result
    lies inside a component of u, so the result refines into u."""
    comps = []
    for lo, hi in u.components:
        if rng.random() < 0.5:
            mid1 = lo + (hi - lo) * Fraction(1, 3)
            mid2 = lo + (hi - lo) * Fraction(2, 3)
            comps.append((lo, mid1))
            comps.append((mid2, hi))
        else:
            comps.append((lo, hi))
    return IntervalCover(tuple(comps))


def test_localization_functor_randomized():
    rng = random.Random(13)
    for _ in range(50):
        w = cover((0, "1/4"), ("1/2", "3/4"), ("7/8", 1))
        v = _random_refinement(rng, w)
        u = _random_refinement(rng, v)
        # u refines into v refines into w: inclusions of covers go u <= v <= w
        via = compose_monotone(cover_inclusion_map(v, w), cover_inclusion_map(u, v))
        direct = cover_inclusion_map(u, w)
        assert via == direct
