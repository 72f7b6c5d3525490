import dataclasses
import functools
import itertools
import pathlib
import random
import sys
import time
from fractions import Fraction

import pytest

from tangles.cli import parse_expr, to_diagram
from tangles.diagram import (
    AmbientDim,
    Diagram,
    cap,
    compose,
    cross_neg,
    cross_pos,
    cup,
    mirror,
    tensor,
    writhe,
)
from tangles.evaluate import (
    EVALUATE_LIMIT,
    PRESETS,
    EvaluationError,
    RigidDatum,
    bracket,
    bracket_state_sum,
    datum_from_text,
    datum_to_text,
    evaluate,
    flip_datum,
    jones_normalized,
    kauffman_datum,
    kink_factor,
    loop_value,
    preset_datum,
    trivial_datum,
    unit_datum,
    validate_datum,
)
from tangles.generate import iter_closed_diagrams, random_composable_pair, random_diagram
from tangles.links import hopf, trefoil, unknot, unlink
from tangles.rings import Laurent, Matrix, is_zero, kron_all

GOLDEN = pathlib.Path(__file__).parent / "golden" / "kauffman.datum"
BRAIDED = AmbientDim.BRAIDED
DELTA = loop_value()


def test_kauffman_datum_valid():
    report = validate_datum(kauffman_datum(), BRAIDED)
    assert report.valid, str(report)


def test_kauffman_not_symmetric():
    datum = kauffman_datum()
    assert not validate_datum(datum, AmbientDim.SYMMETRIC).valid  # c^2 != 1, flag or not
    datum = dataclasses.replace(datum, symmetric=True)
    report = validate_datum(datum, AmbientDim.SYMMETRIC)
    assert not report.valid
    assert any("c^2" in c.name and not c.ok for c in report.checks)


def test_trivial_datum_valid_everywhere():
    for dim in AmbientDim:
        assert validate_datum(trivial_datum(), dim).valid


def test_preset_datum_refuses_an_unknown_name():
    for name, build in zip(PRESETS, (kauffman_datum, trivial_datum)):
        assert preset_datum(name) is preset_datum(name) == build()
    with pytest.raises(KeyError):
        preset_datum("kauffmann")


def test_unit_and_flip_data_valid():
    assert validate_datum(unit_datum(2, 1), BRAIDED).valid
    assert validate_datum(unit_datum(0, -1), AmbientDim.SYMMETRIC).valid
    assert validate_datum(flip_datum(), AmbientDim.SYMMETRIC).valid


def test_planar_only_datum_rejects_crossings():
    datum = dataclasses.replace(kauffman_datum(), braiding=None, braiding_inv=None)
    d = Diagram.from_events((0, 0), [[cross_pos(0, 0)]])
    with pytest.raises(EvaluationError):
        evaluate(d, datum)


def test_evaluate_identity():
    K = kauffman_datum()
    for word in ((), (0,), (0, 1), (2, -1, 0)):
        assert evaluate(Diagram.identity(word), K) == Matrix.identity(2 ** len(word))


def test_evaluate_zigzag_is_identity():
    K = kauffman_datum()
    for k in range(-2, 2):
        zig = Diagram.from_events((k,), [[cup(k, at=1)], [cap(k, at=0)]])
        zag = Diagram.from_events((k + 1,), [[cup(k, at=0)], [cap(k, at=1)]])
        assert evaluate(zig, K) == Matrix.identity(2)
        assert evaluate(zag, K) == Matrix.identity(2)


def test_double_twist_scalar():
    # the double curl multiplies a strand by (-A^3)^{+-2} = A^{+-6}
    K = kauffman_datum()
    for sign, expected in ((1, Laurent.monomial(6)), (-1, Laurent.monomial(-6))):
        x = cross_pos if sign > 0 else cross_neg
        d = Diagram.from_events(
            (0,),
            [[cup(-1, at=0)], [x(0, -1, at=0)], [x(-1, 0, at=0)], [cap(-1, at=1)]],
        )
        assert evaluate(d, K) == Matrix.identity(2).scale(expected)


def test_functoriality_random():
    rng = random.Random(61)
    K = kauffman_datum()
    for _ in range(40):
        d1, d2 = random_composable_pair(rng, BRAIDED, max_events=4, width=4, lo=-1, hi=1)
        assert evaluate(compose(d1, d2), K) == evaluate(d2, K) @ evaluate(d1, K)
        e1 = random_diagram(rng, BRAIDED, max_events=3, width=3, lo=-1, hi=1)
        e2 = random_diagram(rng, BRAIDED, max_events=3, width=3, lo=-1, hi=1)
        assert evaluate(tensor(e1, e2), K) == evaluate(e1, K).kron(evaluate(e2, K))


def test_builtin_links_against_oracle():
    K = kauffman_datum()
    for d in (unknot(True), unknot(False), trefoil(True), trefoil(False), hopf(), unlink()):
        ev = Laurent.promote(evaluate(d, K).scalar())
        assert ev == DELTA * bracket_state_sum(d)


def test_bracket_values():
    assert bracket_state_sum(unknot(True)) == Laurent.monomial(3, -1)
    assert bracket_state_sum(hopf()) == Laurent({4: -1, -4: -1})
    assert bracket_state_sum(unlink()) == DELTA
    assert bracket_state_sum(trefoil(True)) == Laurent({7: 1, 3: -1, -5: -1})


def test_bracket_needs_closed():
    with pytest.raises(EvaluationError):
        bracket_state_sum(Diagram.identity((0,)))


def test_bracket_needs_a_strand():
    # closed but empty: the state sum would score zero loops as delta^-1
    with pytest.raises(EvaluationError):
        bracket_state_sum(Diagram.identity(()))


def evaluate_over_delta(d):
    """The bracket's oracle: the closed evaluation under the Kauffman datum
    divided by the loop value."""
    return Laurent.promote(evaluate(d, kauffman_datum()).scalar()).divide_exact(DELTA)


def test_bracket_is_the_transfer_and_equals_evaluate_over_delta(monkeypatch):
    for d in iter_closed_diagrams(6, 3):
        assert bracket(d) == evaluate_over_delta(d)
    with pytest.raises(EvaluationError, match="closed diagram"):
        bracket(Diagram.identity((0,)))
    with pytest.raises(EvaluationError, match="no strands"):
        bracket(Diagram.identity(()))
    # jones_normalized reads the same bracket, not an evaluation
    module = sys.modules["tangles.evaluate"]
    monkeypatch.setattr(module, "evaluate", lambda d, datum: pytest.fail("evaluate ran"))
    assert jones_normalized(trefoil(True)) == kink_factor(-3) * bracket(trefoil(True))


def test_bracket_equals_evaluate_over_delta_on_torus_knots_and_trefoil_stacks():
    for n in range(1, 42, 2):
        assert bracket(torus(n)) == evaluate_over_delta(torus(n)), n
    for k in range(1, 5):
        assert bracket(stack(k)) == evaluate_over_delta(stack(k)), k
    assert bracket(stack(4)) == DELTA**3 * bracket(trefoil(True)) ** 4


def state_sum_jones(d):
    """The writhe-normalized bracket read from the Temperley-Lieb transfer."""
    return kink_factor(-writhe(d)) * bracket_state_sum(d)


def test_jones_values():
    assert jones_normalized(unknot(True)) == Laurent.one()
    assert state_sum_jones(unknot(True)) == Laurent.one()
    assert jones_normalized(unknot(False)) == Laurent.one()
    assert state_sum_jones(unknot(False)) == Laurent.one()
    assert jones_normalized(unlink()) == DELTA
    assert state_sum_jones(unlink()) == DELTA
    jt = jones_normalized(trefoil(True))
    assert state_sum_jones(trefoil(True)) == jt
    assert jt != Laurent.one()
    assert jones_normalized(trefoil(False)) == jt.substitute_inverse()
    assert state_sum_jones(trefoil(False)) == jt.substitute_inverse()
    assert jones_normalized(hopf()) != jones_normalized(unlink())
    assert state_sum_jones(hopf()) != state_sum_jones(unlink())


def test_jones_kink_insertion_invariance():
    # grow the trefoil by a double twist: bracket changes by A^6, the
    # writhe by 2, and the normalized value not at all
    base = trefoil(True)
    layers = [list(s.events) for s in base.slices]
    # after the second cup the word is (1, 0, 2, 1); twist the first strand
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
    assert jones_normalized(twisted) == jones_normalized(base)
    assert state_sum_jones(twisted) == state_sum_jones(base)


def test_mirror_symmetry_random_closed():
    count = 0
    for d in iter_closed_diagrams(max_events=6, max_crossings=3, width=4, lo=-1, hi=1):
        count += 1
        assert bracket_state_sum(mirror(d)) == bracket_state_sum(d).substitute_inverse()
        assert jones_normalized(mirror(d)) == jones_normalized(d).substitute_inverse()
        assert state_sum_jones(mirror(d)) == state_sum_jones(d).substitute_inverse()
        if count >= 150:
            break
    assert count >= 100


def test_invertible_datum_collapse():
    # rank-one unit data send every closed diagram to a unit of the ring
    data = [unit_datum(2, 1), unit_datum(-1, -1), trivial_datum()]
    count = 0
    for d in iter_closed_diagrams(max_events=6, max_crossings=3, width=4, lo=-1, hi=1):
        count += 1
        for datum in data:
            value = evaluate(d, datum).scalar()
            if datum.ring == "laurent":
                assert Laurent.promote(value).is_unit()
            else:
                assert value in (1, -1)
        if count >= 60:
            break
    assert count >= 60


def test_kink_factor():
    assert kink_factor(0) == Laurent.one()
    assert kink_factor(1) == Laurent.monomial(3, -1)
    assert kink_factor(-2) == Laurent.monomial(-6)
    assert kink_factor(2) * kink_factor(-2) == Laurent.one()


def test_datum_serialization_roundtrip():
    one = lambda x: Matrix(1, 1, {(0, 0): Fraction(x)})
    halves = RigidDatum("halves", "rational", 1, *map(one, ("1/2", "1/2", "2", "2")), one("-3/5"), one("-5/3"))
    for datum in (kauffman_datum(), trivial_datum(), flip_datum(), unit_datum(3, -1), halves):
        text = datum_to_text(datum)
        back = datum_from_text(text)
        assert datum_to_text(back) == text and back == datum
        assert back.rank == datum.rank and back.symmetric == datum.symmetric
    assert "b: 1/2\n" in text and "c: -3/5\n" in text  # the rational entries as written


def test_datum_serialization_keeps_each_structure_map():
    # b' and d' are read from their own fields, not copied from b and d
    b, b_prime, d, d_prime = (Matrix(1, 1, {(0, 0): x}) for x in (2, 3, 5, 7))
    datum = RigidDatum("lopsided", "int", 1, b, b_prime, d, d_prime)
    back = datum_from_text(datum_to_text(datum))
    assert [back.b, back.b_prime, back.d, back.d_prime] == [datum.b, datum.b_prime, datum.d, datum.d_prime]
    assert back.b != back.b_prime and back.d != back.d_prime


def test_datum_from_text_skips_blank_lines_inside_the_text():
    text = datum_to_text(kauffman_datum())
    spaced = text.replace("\n", "\n\n   \n", 4)
    assert spaced.count("\n") == text.count("\n") + 8
    assert datum_to_text(datum_from_text(spaced)) == text


def test_symmetric_flag_on_a_planar_only_datum_fails():
    datum = dataclasses.replace(kauffman_datum(), braiding=None, braiding_inv=None)
    assert validate_datum(datum, AmbientDim.PLANAR).valid
    report = validate_datum(dataclasses.replace(datum, symmetric=True), AmbientDim.PLANAR)
    assert [str(c) for c in report.checks if not c.ok] == ["FAIL symmetric flag on planar-only datum"]


def test_kauffman_golden_file():
    golden = GOLDEN.read_text()
    assert datum_to_text(kauffman_datum()) == golden
    loaded = datum_from_text(golden)
    assert validate_datum(loaded, BRAIDED).valid
    assert evaluate(unknot(), loaded) == evaluate(unknot(), kauffman_datum())


# ---------------------------------------------------------------------------
# differential check against the Kronecker-padded slice evaluator


def padded_evaluate(d, datum):
    """Reference: one r^width matrix per slice, each event's matrix
    Kronecker-padded with identities on the strands it does not touch."""
    r = datum.rank
    out = Matrix.identity(r ** len(d.source))
    for s in d.slices:
        if not s.events:
            continue
        factors, ei, p, idrun = [], 0, 0, 0
        while True:
            while ei < len(s.events) and s.events[ei].position == p:
                if idrun:
                    factors.append(Matrix.identity(r**idrun))
                    idrun = 0
                e = s.events[ei]
                factors.append(datum.event_matrix(e.kind, e.labels))
                p += e.arity_in
                ei += 1
            if p < len(s.input):
                idrun += 1
                p += 1
            else:
                break
        if idrun:
            factors.append(Matrix.identity(r**idrun))
        out = kron_all(factors) @ out
    return out


DATA = (kauffman_datum(), trivial_datum(), flip_datum(), unit_datum(2, -1))


def torus(n):
    """T(2,n) (odd n) as the trace closure of n twists on two strands."""
    terms = ["cup(0)", "id[1,0] | cup(1)"]
    for i in range(n):
        terms.append("id[1] | x+(0,2) | id[1]" if i % 2 == 0 else "id[1] | x+(2,0) | id[1]")
    terms += ["cap(1) | id[0,1]", "cap(0)"]
    return to_diagram(parse_expr(" ; ".join(terms)), BRAIDED)


def test_evaluate_matches_padded_on_random_open_diagrams():
    # tensors put several events, often tied ones, into one slice
    rng = random.Random(67)
    for dim in AmbientDim:
        for _ in range(25):
            d1 = random_diagram(rng, dim, max_events=4, width=4, lo=-1, hi=1)
            d2 = random_diagram(rng, dim, max_events=4, width=4, lo=-1, hi=1)
            for d in (d1, tensor(d1, d2), tensor(tensor(d2, d1), d2)):
                for datum in DATA:
                    assert evaluate(d, datum) == padded_evaluate(d, datum), (dim, datum.name, d)


def test_evaluate_matches_padded_on_torus_knots_and_stacks():
    K = kauffman_datum()
    for n in range(1, 14, 2):
        d = torus(n)
        assert evaluate(d, K) == padded_evaluate(d, K), n
    for d in (trefoil(True), tensor(trefoil(True), trefoil(False))):
        for datum in DATA:
            assert evaluate(d, datum) == padded_evaluate(d, datum)


@pytest.mark.parametrize(
    "source, events",
    [
        ((0,), [cup(0, at=0), cup(2, at=0)]),  # tied cups at the left end
        ((0, 1), [cup(-1, at=1), cup(1, at=1), cup(3, at=1)]),  # tied inside
        ((0, 1), [cup(4, at=0), cap(0, at=0)]),  # a cup tied with the cap after it
        ((0, 1), [cup(0, at=0), cross_pos(0, 1, at=0)]),  # ... with a crossing
        ((0, 1, 2), [cap(0, at=0), cup(3, at=2)]),  # a cup right after a span
        ((0, 1, 2), [cross_neg(0, 1, at=0), cup(1, at=2), cup(0, at=2)]),
        ((0, 1, 0, 1), [cross_pos(0, 1, at=0), cup(2, at=2), cap(0, at=2)]),
    ],
)
def test_evaluate_matches_padded_on_tied_slices(source, events):
    d = Diagram.from_events(source, [events])
    for datum in DATA:
        assert evaluate(d, datum) == padded_evaluate(d, datum), datum.name


def test_evaluate_reads_a_replaced_datum_matrix():
    # a datum is a value: a matrix is replaced in a new datum, whose event
    # columns are its own, and the datum it came from evaluates as before
    datum = flip_datum()
    d = Diagram.from_events((0,), [[cup(0, at=1)], [cap(0, at=0)]])
    assert evaluate(d, datum) == padded_evaluate(d, datum)
    with pytest.raises(dataclasses.FrozenInstanceError):
        datum.b_prime = datum.b_prime.scale(3)
    scaled = dataclasses.replace(datum, b_prime=datum.b_prime.scale(3))
    assert evaluate(d, scaled) == padded_evaluate(d, scaled) == Matrix.identity(2).scale(3)
    assert evaluate(d, datum) == padded_evaluate(d, datum) == Matrix.identity(2)


def test_evaluate_reads_a_replaced_braiding():
    # the derived crossings follow the matrices they were derived from; a
    # datum is a value, so the swap makes a new datum and the old one stays
    original = kauffman_datum()
    trefoil_value = Laurent({9: -1, 1: 1, -3: 1, -7: 1})
    assert evaluate(trefoil(True), original).scalar() == trefoil_value
    with pytest.raises(dataclasses.FrozenInstanceError):
        original.braiding = original.braiding_inv
    datum = dataclasses.replace(original, braiding=original.braiding_inv, braiding_inv=original.braiding)
    fresh = kauffman_datum()
    fresh = dataclasses.replace(fresh, braiding=fresh.braiding_inv, braiding_inv=fresh.braiding)
    mirror = Laurent({7: 1, 3: 1, -1: 1, -9: -1})
    assert evaluate(trefoil(True), fresh).scalar() == mirror
    assert evaluate(trefoil(True), datum).scalar() == mirror
    assert evaluate(trefoil(True), original).scalar() == trefoil_value
    for pa in (0, 1):
        for pb in (0, 1):
            for sign in (1, -1):
                assert datum.crossing(pa, pb, sign) == fresh.crossing(pa, pb, sign)


# ---------------------------------------------------------------------------
# group by group: the split against one state over the whole width


def single_state_evaluate(d, datum):
    """Reference: the contraction walk with one state over the whole width,
    whatever the groups of crossing-linked components."""
    sources = list(itertools.product(range(datum.rank), repeat=len(d.source)))
    state = {(w, w): 1 for w in sources}
    for s in d.slices:
        for e in reversed(s.events):
            columns = datum.columns(e)
            p, q = e.position, e.position + e.arity_in
            acc = {}
            for (src, cur), x in state.items():
                for digits, v in columns.get(cur[p:q], ()):
                    key = (src, cur[:p] + digits + cur[q:])
                    acc[key] = acc[key] + x * v if key in acc else x * v
            state = {k: x for k, x in acc.items() if not is_zero(x)}
    targets = itertools.product(range(datum.rank), repeat=len(d.target))
    rows = {w: i for i, w in enumerate(targets)}
    cols = {w: j for j, w in enumerate(sources)}
    return Matrix(
        len(rows), len(cols), {(rows[cur], cols[src]): x for (src, cur), x in state.items()}
    )


def assert_split_matches(d, datum):
    split, whole = evaluate(d, datum), single_state_evaluate(d, datum)
    assert split == whole, (datum.name, str(d))
    assert str(split.to_rows()) == str(whole.to_rows())  # prints as before, zeros included


SPLIT_DATA = {
    "kauffman": kauffman_datum(),
    "flip": flip_datum(),
    "trivial": trivial_datum(),
    "unit": unit_datum(2, -1),
}


@functools.cache
def criterion_08_universe():
    return list(iter_closed_diagrams(max_events=7, max_crossings=5, width=4, lo=-1, hi=1))


def nest(outer, inner, level, position):
    """The closed diagram ``inner`` drawn between strands position - 1 and
    position of ``outer``, after outer's first ``level`` slices."""
    layers = [list(s.events) for s in outer.slices]
    middle = [[e.shifted(position) for e in s.events] for s in inner.slices]
    return Diagram.from_events(outer.source, layers[:level] + middle + layers[level:])


def stack(k):
    d = Diagram.identity(())
    for _ in range(k):
        d = tensor(d, trefoil(True))
    return d


@pytest.mark.parametrize("name", sorted(SPLIT_DATA))
def test_evaluate_by_groups_matches_one_state_on_the_criterion_08_universe(name):
    datum = SPLIT_DATA[name]
    for d in criterion_08_universe():
        assert_split_matches(d, datum)


@pytest.mark.parametrize("name", sorted(SPLIT_DATA))
def test_evaluate_by_groups_matches_one_state_on_stacks_tensors_nests_and_open(name):
    datum = SPLIT_DATA[name]
    for k in range(1, 5):
        assert_split_matches(stack(k), datum)
    assert_split_matches(tensor(trefoil(False), tensor(hopf(), unknot(True))), datum)
    rng = random.Random(71)
    for _ in range(20):  # split unions of random closed diagrams, some of them twice
        parts = rng.sample(criterion_08_universe(), rng.randint(2, 3))
        d = parts[0]
        for part in parts[1:]:
            d = tensor(d, part)
        assert_split_matches(d, datum)
        assert_split_matches(tensor(d, parts[0]), datum)
    # a trefoil inside a hopf link and a hopf link inside a trefoil, at
    # every level where they fit between two strands
    for outer, inner in ((hopf(), trefoil(True)), (trefoil(True), hopf())):
        for level in range(1, len(outer.slices)):
            for position in range(1, len(outer.slices[level].input)):
                assert_split_matches(nest(outer, inner, level, position), datum)
    for dim in AmbientDim:  # a diagram with boundary keeps one state
        for _ in range(15):
            d = random_diagram(rng, dim, max_events=5, width=4, lo=-1, hi=1)
            assert_split_matches(d, datum)
            if dim.allows_crossings:
                assert_split_matches(tensor(d, trefoil(True)), datum)


def test_a_stack_of_six_trefoils_evaluates_to_the_sixth_power_quickly():
    K = kauffman_datum()
    start = time.perf_counter()
    value = evaluate(stack(6), K).scalar()
    assert time.perf_counter() - start < 1.0
    assert value == evaluate(trefoil(True), K).scalar() ** 6


# ---------------------------------------------------------------------------
# the cost guards


def linked_chain(m):
    """Expression text for a chain of m unknots, each linked to the next by
    a double crossing: one group whose widest slice holds 2m strands."""
    def ids(word):
        return "id[" + ",".join(map(str, word)) + "]"

    terms = [" | ".join(["cup(0)"] * m)]
    word = (1, 0) * m
    for i in range(m - 1):
        for x in ("x+(0,1)", "x+(1,0)"):
            terms.append(f"{ids(word[: 2 * i + 1])} | {x} | {ids(word[2 * i + 3 :])}")
    for i in range(m):
        rest = ids(word[2 * i + 2 :])
        terms += [f"x+(1,0) | {rest}", f"cap(0) | {rest}"]
    return " ; ".join(terms)


def test_evaluate_admits_a_group_at_the_limit_and_refuses_one_past_it():
    assert EVALUATE_LIMIT == 2**20
    flip = flip_datum()  # a permuting braiding: the state stays small
    at_limit = to_diagram(parse_expr(linked_chain(10)), BRAIDED)  # 20 strands at rank 2
    assert evaluate(at_limit, flip).scalar() == 2**10
    past = to_diagram(parse_expr(linked_chain(11)), BRAIDED)
    with pytest.raises(EvaluationError, match="exceed"):
        evaluate(past, flip)
    assert evaluate(past, trivial_datum()).scalar() == 1  # rank 1 is never refused
    # with boundary, the source digits count as well as the live strands
    assert evaluate(Diagram.identity((0,) * 10), flip) == Matrix.identity(2**10)
    with pytest.raises(EvaluationError, match=r"2\^22 words exceed"):
        evaluate(Diagram.identity((0,) * 11), flip)


def test_evaluate_refuses_a_wide_group_before_contracting():
    d = to_diagram(parse_expr(linked_chain(30)), BRAIDED)
    start = time.perf_counter()
    with pytest.raises(EvaluationError, match=r"2\^60 words exceed"):
        evaluate(d, kauffman_datum())
    assert time.perf_counter() - start < 0.1
    start = time.perf_counter()
    with pytest.raises(EvaluationError):
        bracket(d)
    assert time.perf_counter() - start < 0.1


def linked_chain_bracket(m):
    """The bracket of ``linked_chain(m)`` without an engine.  The chain is a
    connected sum of m-1 Hopf links with m kinks, and the bracket multiplies
    over a connected sum: each clasp gives -A^4 - A^-4 and each kink -A^3,
    so the product is -A^(4-m) (1 + A^8)^(m-1)."""
    return Laurent.monomial(4 - m, -1) * Laurent({0: 1, 8: 1}) ** (m - 1)


def test_bracket_of_a_linked_chain_is_its_closed_form():
    for m in range(1, 14):
        assert bracket(to_diagram(parse_expr(linked_chain(m)), BRAIDED)) == linked_chain_bracket(m), m


def test_state_sum_refuses_a_group_past_the_catalan_limit_up_front():
    # the crossings are not limited: T(2,17) has 17
    assert bracket_state_sum(torus(17)) == evaluate_over_delta(torus(17))
    # 26 strands hold Catalan(13) = 742,900 matchings, within EVALUATE_LIMIT
    at_limit = to_diagram(parse_expr(linked_chain(13)), BRAIDED)
    assert bracket_state_sum(at_limit) == linked_chain_bracket(13)
    past = to_diagram(parse_expr(linked_chain(14)), BRAIDED)  # Catalan(14) = 2,674,440
    start = time.perf_counter()
    with pytest.raises(EvaluationError, match="2674440 matchings of 28 strands exceed 1048576"):
        bracket_state_sum(past)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"b": kauffman_datum().d}, "b must have shape (4, 1)"),
        ({"d_prime": kauffman_datum().b}, "d_prime must have shape (1, 4)"),
        ({"braiding_inv": None}, "braiding and its inverse must come together"),
        ({"braiding": kauffman_datum().b}, "braiding must act on V (x) V"),
        ({"braiding_inv": kauffman_datum().b}, "braiding_inv must act on V (x) V"),
        ({"ring": "foo"}, "unknown ring 'foo' (expected int, rational or laurent)"),
    ],
)
def test_a_datum_of_the_wrong_shape_is_refused(changes, message):
    with pytest.raises(EvaluationError) as info:
        dataclasses.replace(kauffman_datum(), **changes)
    assert str(info.value) == message
