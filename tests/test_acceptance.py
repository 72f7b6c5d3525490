"""Acceptance suite: one test per criterion, exact assertions throughout.

Each test prints a single PASS line on success (visible with -s or -rA);
under ``pytest -v`` the per-test verdicts serve as the pass/fail lines.
"""

import dataclasses
import functools
import itertools
import random

from tangles.diagram import (
    AmbientDim,
    Diagram,
    cap,
    compose,
    cross_pos,
    cup,
    degree,
    tensor,
    to_text,
    validate,
    writhe,
)
from tangles.evaluate import (
    bracket_state_sum,
    evaluate,
    flip_datum,
    jones_normalized,
    kauffman_datum,
    kink_factor,
    loop_value,
    trivial_datum,
    unit_datum,
    validate_datum,
)
from tangles.generate import (
    iter_closed_diagrams,
    iter_diagrams,
    random_composable_pair,
    random_diagram,
)
from tangles.links import hopf, trefoil, unknot, unlink
from tangles.rewrite import (
    MoveKind,
    applicable_moves,
    apply_move,
    normalize_planar,
)
from tangles.rings import Laurent
from tangles.segal import (
    colimit_truncated,
    complete,
    nerve_of_monoid,
    pushout_of_nerves,
)
from tangles.simplex import (
    ConvexSubset,
    MonotoneMap,
    SimplexObject,
    all_monotone_maps,
    outer_hull,
)
from tangles.words import (
    LEFT,
    RIGHT,
    PointedMonoid,
    alternating_factorization,
    concat,
    free_product_enumerate,
    free_product_normalize,
    is_alternating,
)

PLANAR, BRAIDED, SYMMETRIC = AmbientDim.PLANAR, AmbientDim.BRAIDED, AmbientDim.SYMMETRIC
DELTA = loop_value()


# ---------------------------------------------------------------------------
# criterion 1: the hull case analysis, exhaustively for sizes <= 5


def _case_table_interval(phi: MonotoneMap, i: int) -> tuple[int, int]:
    """Independent case-by-case formula for the hull of the unit
    interval {i-1 < i}, written directly from the definition."""
    a, b = phi.target.p, phi.source.p
    if i <= phi(0):
        return (0, phi(0))
    if phi(b) <= i - 1:
        return (phi(b), a)
    for j in range(1, b + 1):
        if phi(j - 1) <= i - 1 and i <= phi(j):
            return (phi(j - 1), phi(j))
    raise AssertionError(f"case analysis not exhaustive at {phi}, i={i}")


def _case_table_point(phi: MonotoneMap, i: int) -> tuple[int, int]:
    """Independent case-by-case formula for the hull of the point {i},
    0 < i <= a."""
    a, b = phi.target.p, phi.source.p
    if i < phi(0):
        return (0, phi(0))
    if phi(b) < i:
        return (phi(b), a)
    for j in range(b + 1):
        if phi(j) == i:
            return (i, i)
    for j in range(1, b + 1):
        if phi(j - 1) < i < phi(j):
            return (phi(j - 1), phi(j))
    raise AssertionError(f"case analysis not exhaustive at {phi}, i={i}")


def test_criterion_01_hull_case_table():
    checked = 0
    for a in range(6):
        for b in range(6):
            A, B = SimplexObject(a), SimplexObject(b)
            for phi in all_monotone_maps(B, A):
                for i in range(1, a + 1):
                    got = outer_hull(phi, ConvexSubset(i - 1, i, A))
                    assert (got.lo, got.hi) == _case_table_interval(phi, i)
                    got = outer_hull(phi, ConvexSubset(i, i, A))
                    assert (got.lo, got.hi) == _case_table_point(phi, i)
                    checked += 2
    print(f"\n[criterion 1] PASS hull case table, {checked} hulls checked exhaustively")


# ---------------------------------------------------------------------------
# criterion 2: minimal alternating factorization vs brute force, length <= 12


def test_criterion_02_alternating_factorization_minimality():
    def brute_minimum(w):
        @functools.lru_cache(maxsize=None)
        def best(i):
            if i == len(w):
                return 0
            out = None
            for j in range(i + 1, len(w) + 1):
                if is_alternating(w[i:j]):
                    tail = best(j)
                    if out is None or 1 + tail < out:
                        out = 1 + tail
            return out

        return best(0)

    words = 0
    for n in range(13):
        for w in itertools.product((0, 1), repeat=n):
            factors = alternating_factorization(w)
            assert concat(factors) == w
            assert all(f and is_alternating(f) for f in factors)
            expected = brute_minimum(w) if w else 0
            assert len(factors) == expected
            words += 1
    print(f"\n[criterion 2] PASS factorization minimal on all {words} binary words")


# ---------------------------------------------------------------------------
# criterion 3: free product counts against the closed-form decomposition


def _closed_form_counts(na: int, nb: int, bound: int) -> dict:
    counts = {("", ""): 1}
    counts[(LEFT, LEFT)] = sum(
        na * (nb * na) ** k for k in range(bound + 1) if 2 * k + 1 <= bound
    )
    counts[(RIGHT, RIGHT)] = sum(
        nb * (na * nb) ** k for k in range(bound + 1) if 2 * k + 1 <= bound
    )
    counts[(LEFT, RIGHT)] = sum(
        (na * nb) ** (k + 1) for k in range(bound + 1) if 2 * (k + 1) <= bound
    )
    counts[(RIGHT, LEFT)] = sum(
        (nb * na) ** (k + 1) for k in range(bound + 1) if 2 * (k + 1) <= bound
    )
    return counts


def test_criterion_03_free_product_counts():
    pairs = [
        (PointedMonoid.cyclic(2), PointedMonoid.cyclic(2)),
        (PointedMonoid.cyclic(2), PointedMonoid.cyclic(3)),
        (PointedMonoid.cyclic(3), PointedMonoid.cyclic(4)),
    ]
    for A, B in pairs:
        na, nb = len(A.nonunits(1)), len(B.nonunits(1))
        elements = free_product_enumerate(A, B, 6)
        counts: dict = {}
        for e in elements:
            key = ("", "") if e.is_unit() else (e.letters[0][0], e.letters[-1][0])
            counts[key] = counts.get(key, 0) + 1
        assert counts == _closed_form_counts(na, nb, 6)

    # F(x) * F(y) is the free monoid on two letters through weight 6
    FX, FY = PointedMonoid.free("x"), PointedMonoid.free("y")
    elements = free_product_enumerate(FX, FY, 6)

    def flatten(e):
        return tuple(l for _, letters in e.letters for l in letters)

    images = sorted(flatten(e) for e in elements)
    expected = sorted(w for n in range(7) for w in itertools.product("xy", repeat=n))
    assert images == expected
    for u in elements:
        for v in elements:
            if len(flatten(u)) + len(flatten(v)) <= 6:
                from tangles.words import free_product_multiply

                assert flatten(free_product_multiply(FX, FY, u, v)) == flatten(u) + flatten(v)
    print("\n[criterion 3] PASS free product decomposition counts for three pairs,"
          " and F(x)*F(y) = F(x,y) through weight 6")


# ---------------------------------------------------------------------------
# criterion 4: Segal completion is the identity on nerves of small monoids


def _all_monoid_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every associative unital table on {0..n-1} with unit 0, one per
    isomorphism class."""
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[0][i] = i
        table[i][0] = i

    found: set = set()

    def assoc_ok(filled_count: int) -> bool:
        # check all triples whose products are already determined
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                if ab is None:
                    continue
                for c in range(n):
                    bc = table[b][c]
                    if bc is None:
                        continue
                    left = table[ab][c]
                    right = table[a][bc]
                    if left is not None and right is not None and left != right:
                        return False
        return True

    def canonical(t) -> tuple:
        best = None
        for perm in itertools.permutations(range(1, n)):
            sigma = (0,) + perm
            inv = [0] * n
            for idx, v in enumerate(sigma):
                inv[v] = idx
            relabeled = tuple(
                tuple(inv[t[sigma[i]][sigma[j]]] for j in range(n)) for i in range(n)
            )
            if best is None or relabeled < best:
                best = relabeled
        return best

    def backtrack(idx: int) -> None:
        if idx == len(cells):
            found.add(canonical([row[:] for row in table]))
            return
        i, j = cells[idx]
        for v in range(n):
            table[i][j] = v
            if assoc_ok(idx):
                backtrack(idx + 1)
        table[i][j] = None

    for i, j in cells:
        table[i][j] = None
    backtrack(0)
    return sorted(found)


def test_criterion_04_segal_unit_on_monoid_nerves():
    tables = []
    for n in range(1, 5):
        tables.extend(_all_monoid_tables(n))
    # 1 + 2 + 7 + 35 isomorphism classes of monoids of order <= 4
    assert len(tables) == 45

    for table in tables:
        n = len(table)
        monoid = PointedMonoid.from_table(f"M{n}", table)
        comp = complete(nerve_of_monoid(monoid, K=2), budget=4)
        (obj,) = comp.presentation.objects
        classes = comp.hom(obj, obj)
        assert len(classes) == n
        assert comp.stabilized
        seen = set()
        for cls in classes:
            values = set()
            for word in cls:
                value = 0
                for g in word:
                    value = table[value][g[0]]
                values.add(value)
            assert len(values) == 1  # the congruence refines monoid equality
            seen.update(values)
        assert seen == set(range(n))  # and exhausts it: unit is an isomorphism
    print(f"\n[criterion 4] PASS Segal completion identity on all {len(tables)} "
          "monoids of order <= 4")


# ---------------------------------------------------------------------------
# criterion 5: pushout of nerves vs the free product, three ways


def _chain_to_element(A, B, key, chain):
    """The free-product element a colimit tag represents: the chain is cut
    along its map's values and then clipped to the anchor's image (the
    cocone into level p restricts the glued simplex along the anchor)."""
    a, phi_values, s_values = key
    cuts = [0] + list(phi_values) + [a]
    s0, s1 = s_values
    letters = []
    for j, piece in enumerate(chain):
        lo, hi = cuts[j], cuts[j + 1]
        clip_lo, clip_hi = max(lo, s0), min(hi, s1)
        if clip_lo >= clip_hi or piece[0] == "U":
            continue
        side, tup = piece
        monoid = A if side == "L" else B
        value = monoid.unit
        for x in tup[clip_lo - lo : clip_hi - lo]:
            value = monoid.multiply(value, x)
        letters.append((LEFT if side == "L" else RIGHT, value))
    return free_product_normalize(A, B, letters)


def test_criterion_05_pushout_shadow():
    A = B = PointedMonoid.cyclic(2)
    P = pushout_of_nerves(A, B, K=3)

    # completion side, at word-length budget 4
    comp = complete(P, budget=4)
    (obj,) = comp.presentation.objects
    classes = comp.hom(obj, obj)
    oracle4 = set(free_product_enumerate(A, B, 4))

    def word_to_element(word):
        letters = []
        for g in word:
            side, tup = g
            monoid = A if side == "L" else B
            letters.append((LEFT if side == "L" else RIGHT, tup[0]))
        return free_product_normalize(A, B, letters)

    images = set()
    for cls in classes:
        values = {word_to_element(w) for w in cls}
        assert len(values) == 1
        images.update(values)
    assert images == oracle4 and len(classes) == len(oracle4)

    # truncated colimit side, at simplex bound 3: classes are exactly the
    # elements of alternation length <= 3
    col = colimit_truncated(P, 1, 3)
    oracle3 = set(free_product_enumerate(A, B, 3))
    col_images = []
    for group in col.classes:
        values = {_chain_to_element(A, B, key, chain) for key, chain in group}
        assert len(values) == 1
        col_images.append(values.pop())
    assert set(col_images) == oracle3 and len(col_images) == len(oracle3)

    # three-way agreement on the common slice (alternation <= 3)
    comp_slice = {e for e in images if e.alternation_length() <= 3}
    assert comp_slice == set(col_images)

    # slice stability: the alternation <= 2 classes are already present and
    # stable at bound 2
    col2 = colimit_truncated(P, 1, 2)
    col2_images = set()
    for group in col2.classes:
        values = {_chain_to_element(A, B, k, c) for k, c in group}
        assert len(values) == 1
        col2_images.update(values)
    assert col2_images == {e for e in oracle3 if e.alternation_length() <= 2}

    # the stabilized flag is honest: true on Segal input, false here (the
    # free product of nontrivial monoids is infinite)
    assert not col.stabilized
    nerve = nerve_of_monoid(A, K=3)
    assert colimit_truncated(nerve, 1, 2).stabilized
    print("\n[criterion 5] PASS pushout completion == free product oracle == "
          "truncated colimit (slicewise), stabilization reported honestly")


# ---------------------------------------------------------------------------
# criterion 6: planar termination and confluence, exhaustively


def _planar_universe():
    sources = [()] + [(k,) for k in range(-3, 4)]
    sources += [(a, b) for a in (-2, 0, 3) for b in (-3, -1, 0, 1)]
    for src in sources:
        yield from iter_diagrams(src, PLANAR, max_events=6, width=4, lo=-3, hi=3)


def _maximal_forward_normal_forms(d, limit=200):
    """Normal forms of all maximal forward-zigzag rewrite sequences."""
    results = set()
    stack = [d]
    seen = set()
    while stack:
        current = stack.pop()
        key = to_text(current)
        if key in seen:
            continue
        seen.add(key)
        moves = [
            m
            for m in applicable_moves(current, PLANAR)
            if m.forward and m.kind is MoveKind.ZIGZAG
        ]
        if not moves:
            results.add(normalize_planar(current))
            continue
        for m in moves:
            stack.append(apply_move(current, m))
        assert len(seen) <= limit
    return results


def test_criterion_06_planar_confluence():
    total = 0
    rewritten = 0
    for d in _planar_universe():
        total += 1
        assert validate(d, PLANAR).valid
        nf = normalize_planar(d)
        moves = [
            m
            for m in applicable_moves(d, PLANAR)
            if m.forward and m.kind is MoveKind.ZIGZAG
        ]
        for m in moves:
            r = apply_move(d, m)
            rewritten += 1
            assert (r.source, r.target) == (d.source, d.target)
            assert r.num_events == d.num_events - 2
            assert normalize_planar(r) == nf
        if len(moves) >= 2:
            # exercise every maximal rewrite sequence where branching occurs
            assert _maximal_forward_normal_forms(d) == {nf}
    assert total > 2500

    # the triangle composites are identities, at every level
    for k in range(-3, 3):
        zig = Diagram.from_events((k,), [[cup(k, at=1)], [cap(k, at=0)]])
        zag = Diagram.from_events((k + 1,), [[cup(k, at=0)], [cap(k, at=1)]])
        assert normalize_planar(zig) == normalize_planar(Diagram.identity((k,)))
        assert normalize_planar(zag) == normalize_planar(Diagram.identity((k + 1,)))
    print(f"\n[criterion 6] PASS planar confluence on {total} diagrams "
          f"({rewritten} rewrites checked), triangles are identities")


# ---------------------------------------------------------------------------
# criterion 7: evaluation functoriality and move invariance


def test_criterion_07_functoriality_and_move_invariance():
    rng = random.Random(97)
    K = kauffman_datum()

    pairs = 0
    while pairs < 200:
        d1, d2 = random_composable_pair(rng, BRAIDED, max_events=4, width=4, lo=-1, hi=1)
        assert evaluate(compose(d1, d2), K) == evaluate(d2, K) @ evaluate(d1, K)
        e1 = random_diagram(rng, BRAIDED, max_events=3, width=3, lo=-1, hi=1)
        e2 = random_diagram(rng, BRAIDED, max_events=3, width=3, lo=-1, hi=1)
        assert evaluate(tensor(e1, e2), K) == evaluate(e1, K).kron(evaluate(e2, K))
        pairs += 1

    braided_data = [K, trivial_datum(), unit_datum(2, 1)]
    symmetric_data = [flip_datum(), trivial_datum(), unit_datum(0, -1)]
    checked = 0
    while checked < 200:
        d = random_diagram(rng, BRAIDED, max_events=5, width=4, lo=-1, hi=1)
        moves = applicable_moves(d, BRAIDED, include_backward=True)
        if not moves:
            continue
        m = rng.choice(moves)
        r = apply_move(d, m)
        checked += 1
        assert (r.source, r.target) == (d.source, d.target)
        for datum in braided_data:
            assert evaluate(d, datum) == evaluate(r, datum)

    sym_checked = 0
    while sym_checked < 60:
        d = random_diagram(rng, SYMMETRIC, max_events=6, width=4, lo=-1, hi=1)
        moves = [
            m
            for m in applicable_moves(d, SYMMETRIC, include_backward=True)
            if m.kind in (MoveKind.SYM_COLLAPSE, MoveKind.KINK2)
        ]
        if not moves:
            continue
        m = rng.choice(moves)
        r = apply_move(d, m)
        sym_checked += 1
        for datum in symmetric_data:
            assert evaluate(d, datum) == evaluate(r, datum)
    print(f"\n[criterion 7] PASS functoriality on 200 pairs; invariance on "
          f"{checked} braided and {sym_checked} symmetric (diagram, move) pairs x 3 data")


# ---------------------------------------------------------------------------
# criterion 8: the Kauffman oracle


def state_sum_jones(d):
    """The writhe-normalized bracket read from the state-sum oracle."""
    return kink_factor(-writhe(d)) * bracket_state_sum(d)


def test_criterion_08_kauffman_oracle():
    K = kauffman_datum()

    builtins = [unknot(True), unknot(False), trefoil(True), trefoil(False), hopf(), unlink()]
    count = 0
    for d in itertools.chain(
        builtins, iter_closed_diagrams(max_events=7, max_crossings=5, width=4, lo=-1, hi=1)
    ):
        ev = Laurent.promote(evaluate(d, K).scalar())
        assert ev == DELTA * bracket_state_sum(d)
        count += 1

    # the unknot evaluates to the loop value once its framing is removed
    u = unknot(True)
    assert kink_factor(-writhe(u)) * Laurent.promote(evaluate(u, K).scalar()) == DELTA
    assert jones_normalized(u) == Laurent.one()
    assert state_sum_jones(u) == Laurent.one()
    assert jones_normalized(unknot(False)) == Laurent.one()
    assert state_sum_jones(unknot(False)) == Laurent.one()

    # kink insertion: a double twist shifts writhe by 2 and the bracket by
    # the exact kink factor, so the normalized value is unchanged
    base = trefoil(True)
    layers = [list(s.events) for s in base.slices]
    twisted = Diagram.from_events(
        (),
        layers[:2]
        + [
            [cup(0, at=0)],
            [cross_pos(1, 0, at=0)],
            [cross_pos(0, 1, at=0)],
            [cap(0, at=1)],
        ]
        + layers[2:],
    )
    assert writhe(twisted) == writhe(base) + 2
    assert bracket_state_sum(twisted) == kink_factor(2) * bracket_state_sum(base)
    assert jones_normalized(twisted) == jones_normalized(base)
    assert state_sum_jones(twisted) == state_sum_jones(base)

    # separation
    jt, jm = jones_normalized(trefoil(True)), jones_normalized(trefoil(False))
    st, sm = state_sum_jones(trefoil(True)), state_sum_jones(trefoil(False))
    assert jt != jones_normalized(unknot())
    assert st != state_sum_jones(unknot())
    assert jones_normalized(hopf()) != jones_normalized(unlink())
    assert state_sum_jones(hopf()) != state_sum_jones(unlink())
    assert jt != jm and jm == jt.substitute_inverse()
    assert st != sm and sm == st.substitute_inverse()
    print(f"\n[criterion 8] PASS oracle agreement on {count} closed diagrams; "
          "unknot -> loop value; kinks cancel; trefoil/unknot/hopf/unlink/mirror separated")


# ---------------------------------------------------------------------------
# criterion 9: degree conservation on 10^4 random diagrams


def test_criterion_09_degree_conservation():
    rng = random.Random(101)
    for i in range(10_000):
        dim = (PLANAR, BRAIDED, SYMMETRIC)[i % 3]
        d = random_diagram(rng, dim, max_events=8, width=6, lo=-2, hi=2)
        assert degree(d.source) == degree(d.target)
    print("\n[criterion 9] PASS degree conserved on 10000 random diagrams in all dimensions")


# ---------------------------------------------------------------------------
# criterion 10: datum validation


def test_criterion_10_datum_validation():
    report = validate_datum(kauffman_datum(), BRAIDED)
    assert report.valid, str(report)
    names = [c.name for c in report.checks]
    assert sum("zigzag" in n for n in names) == 4
    assert any("Yang-Baxter" in n for n in names)
    assert sum("Reidemeister" in n for n in names) == 8

    for dim in AmbientDim:
        assert validate_datum(trivial_datum(), dim).valid

    # and the preset is genuinely braided, not symmetric
    flagged = dataclasses.replace(kauffman_datum(), symmetric=True)
    assert not validate_datum(flagged, SYMMETRIC).valid
    print("\n[criterion 10] PASS Kauffman datum passes all identities symbolically; "
          "trivial datum valid in every dimension")
