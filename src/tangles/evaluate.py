"""Evaluation of diagrams against rigid/braided algebra data.

A ``RigidDatum`` fixes a rank-r object V over an exact coefficient ring
and the four duality maps

    b : 1 -> V (x) V*      d : V* (x) V -> 1
    b': 1 -> V* (x) V      d': V (x) V* -> 1

together with (outside the planar case) a braiding c on V (x) V and its
inverse.  Strand labels are read 2-periodically: even labels mean V, odd
labels mean V*.  A cup labelled k emits (k+1, k), so an even-k cup is b'
and an odd-k cup is b; caps match d'/d the same way.

Crossings between strands of arbitrary parities are derived from c and
the duality maps by bending one strand around the crossing, and the
derived family is checked (matrix-exactly) to satisfy the second
Reidemeister identities in every parity combination; supplying only c
keeps the datum and its validation surface small.

``evaluate`` keeps a sparse map from (source basis word, current basis
word) to a coefficient, and each event rewrites only its own strands' digits.
A closed diagram is split into groups, the components linked by crossings:
each group keeps its own state over its own strands, and the value is the
product of the groups' scalars, as a monoidal functor sends a split union
to the product of its parts.  Both exponential paths refuse oversized work
up front with EvaluationError: ``evaluate`` a group whose state could range
over more than EVALUATE_LIMIT words, and ``bracket_state_sum`` more than
STATE_SUM_LIMIT smoothings.

Conventions pinned here (and exercised by the mirror tests):

* The positive crossing expands, for the Kauffman preset, as
  c = A * (turnback) + A^-1 * (identity).  Hence a kink built from a
  positive crossing multiplies a closed evaluation by -A^3, and
  ``jones_normalized`` divides by (-A^3)^writhe.
* ``bracket_state_sum`` weighs the turnback smoothing of a positive
  crossing by A (by A^-1 for a negative crossing) and scores a state with
  m loops as delta^(m-1), with loop value delta = -A^2 - A^-2.  For every
  closed diagram with a strand, evaluate == delta * bracket_state_sum
  under the preset.  ``bracket`` reads the bracket as that quotient, from
  one evaluation; ``jones_normalized`` and ``tangles invariant`` both go
  through it, and the 2^c state sum stays as the tests' oracle.

Everything is exact; no floating point is used anywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .diagram import (
    AmbientDim,
    Diagram,
    Event,
    EventKind,
    strand_segments,
    writhe,
)
from .rings import Laurent, Matrix, is_zero
from .unionfind import UnionFind

A = Laurent.monomial(1)
A_INV = Laurent.monomial(-1)
EVALUATE_LIMIT = 1 << 20  # the most basis words one group's state may range over
STATE_SUM_LIMIT = 1 << 16  # the most smoothings bracket_state_sum enumerates
RINGS = ("int", "rational", "laurent")
# One row per structure map: (text key, field, strands out, strands in).  A
# map is a matrix from r^in to r^out; the square ones, c and c^-1, are the
# braiding pair, which a planar datum leaves out.
_MAPS = (
    ("b", "b", 2, 0),
    ("b'", "b_prime", 2, 0),
    ("d", "d", 0, 2),
    ("d'", "d_prime", 0, 2),
    ("c", "braiding", 2, 2),
    ("c^-1", "braiding_inv", 2, 2),
)


def loop_value() -> Laurent:
    """The value of a closed loop under the Kauffman preset: -A^2 - A^-2."""
    return Laurent({2: -1, -2: -1})


class EvaluationError(ValueError):
    """Raised when a diagram and a datum cannot be paired."""


def _check_ring(ring: str) -> None:
    if ring not in RINGS:
        raise EvaluationError(f"unknown ring {ring!r} (expected int, rational or laurent)")


@dataclass(frozen=True)
class RigidDatum:
    """Exact matrices presenting a rigid (optionally braided) object.  A
    datum is a value: its fields cannot be reassigned, so a report of
    ``validate_datum`` and the columns kept on it stay true of it."""

    name: str
    ring: str  # one of RINGS
    rank: int
    b: Matrix
    b_prime: Matrix
    d: Matrix
    d_prime: Matrix
    braiding: Matrix | None = None
    braiding_inv: Matrix | None = None
    symmetric: bool = False
    # (kind, first and last label parities) -> columns
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_ring(self.ring)
        for _, name, outs, ins in _MAPS:
            m, shape = getattr(self, name), (self.rank**outs, self.rank**ins)
            if m is None and outs == ins:
                continue
            if m is None or (m.rows, m.cols) != shape:
                what = "act on V (x) V" if outs == ins else f"have shape {shape}"
                raise EvaluationError(f"{name} must {what}")
        if (self.braiding is None) != (self.braiding_inv is None):
            raise EvaluationError("braiding and its inverse must come together")

    # -- derived crossings ---------------------------------------------------

    def crossing(self, parity_a: int, parity_b: int, sign: int) -> Matrix:
        """Matrix of the crossing that consumes strands of the given label
        parities (0 = V, 1 = V*) and the given sign, derived by bending."""
        if self.braiding is None:
            raise EvaluationError(f"datum {self.name} has no braiding")
        if not parity_a and not parity_b:
            return self.braiding if sign > 0 else self.braiding_inv
        r = self.rank
        idr = Matrix.identity(r)
        id2 = Matrix.identity(r * r)
        # Bending one strand of a crossing around a duality turns the
        # crossing over: each single bend wraps the opposite-sign crossing
        # of the less-dual parity pair.
        if parity_a:
            # V* x V bends the left strand around the V x V crossing,
            # V* x V* around the V* x V one.
            inner = self.crossing(parity_b, 0, -sign)
            lift = id2.kron(self.b)
            mid = idr.kron(inner).kron(idr)
            drop = self.d.kron(id2)
            return drop @ mid @ lift
        inner = self.crossing(0, 0, -sign)
        lift = self.b_prime.kron(id2)
        mid = idr.kron(inner).kron(idr)
        drop = id2.kron(self.d_prime)
        return drop @ mid @ lift

    def event_matrix(self, kind: EventKind, labels: tuple[int, ...]) -> Matrix:
        if kind is EventKind.CUP:
            return self.b_prime if labels[0] % 2 == 0 else self.b
        if kind is EventKind.CAP:
            return self.d_prime if labels[0] % 2 == 0 else self.d
        sign = 1 if kind is EventKind.XPOS else -1
        return self.crossing(labels[0] % 2, labels[1] % 2, sign)

    def columns(self, e: Event) -> dict:
        """The event's matrix as input digits -> [(output digits, entry)],
        built once per kind and label parities."""
        key = (e.kind, e.labels[0] % 2, e.labels[-1] % 2)
        table = self._columns.get(key)
        if table is None:
            ins, outs = (list(product(range(self.rank), repeat=n)) for n in (e.arity_in, e.arity_out))
            table = self._columns[key] = {}
            for (i, j), v in self.event_matrix(e.kind, e.labels).entries.items():
                table.setdefault(ins[j], []).append((outs[i], v))
        return table


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class DatumCheck:
    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        return f"{'ok  ' if self.ok else 'FAIL'} {self.name}" + (
            f" ({self.detail})" if self.detail else ""
        )


@dataclass(frozen=True)
class DatumReport:
    checks: tuple[DatumCheck, ...]

    @property
    def valid(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def validate_datum(datum: RigidDatum, dim: AmbientDim) -> DatumReport:
    """Check the duality and braiding identities by exact matrix equality."""
    r = datum.rank
    idr = Matrix.identity(r)
    checks: list[DatumCheck] = []

    def check(name: str, lhs: Matrix, rhs: Matrix) -> None:
        checks.append(DatumCheck(name, lhs == rhs))

    dualities = (("", datum.b, datum.d, "V", "V*"), ("'", datum.b_prime, datum.d_prime, "V*", "V"))
    for prime, b, d, left, right in dualities:
        check(f"zigzag (1 x d{prime})(b{prime} x 1) = 1 on {left}", idr.kron(d) @ b.kron(idr), idr)
        check(f"zigzag (d{prime} x 1)(1 x b{prime}) = 1 on {right}", d.kron(idr) @ idr.kron(b), idr)

    if dim.allows_crossings or datum.braiding is not None:
        if datum.braiding is None:
            checks.append(
                DatumCheck("braiding present", False, f"required for {dim.name}")
            )
        else:
            c, ci = datum.braiding, datum.braiding_inv
            id2 = Matrix.identity(r * r)
            check("braiding invertible (c c^-1)", c @ ci, id2)
            check("braiding invertible (c^-1 c)", ci @ c, id2)
            lhs = (c.kron(idr)) @ (idr.kron(c)) @ (c.kron(idr))
            rhs = (idr.kron(c)) @ (c.kron(idr)) @ (idr.kron(c))
            check("Yang-Baxter on V x V x V", lhs, rhs)
            crossings = {k: datum.crossing(*k) for k in product((0, 1), (0, 1), (1, -1))}
            for (pa, pb, s), forward in crossings.items():
                name = f"mixed second Reidemeister ({pa},{pb},{'+' if s > 0 else '-'})"
                check(name, crossings[pb, pa, -s] @ forward, id2)
            if datum.symmetric or dim is AmbientDim.SYMMETRIC:
                check("symmetric: c^2 = 1", c @ c, id2)
    elif datum.symmetric:
        checks.append(DatumCheck("symmetric flag on planar-only datum", False))
    return DatumReport(tuple(checks))


# ---------------------------------------------------------------------------
# evaluation


def _schedule(d: Diagram) -> tuple[list[tuple[Event, int, int]], int]:
    """Each event in evaluation order with its group and its position among
    that group's strands, and the most digits a group's state words hold
    (source digits included).  A diagram with boundary is group 0."""
    n, closed = len(d.source), not (d.source or d.target)
    ids, into, mine, fresh = [0] * n, {}, [], 0
    for s in d.slices:
        for e in reversed(s.events):
            p = e.position
            if e.kind is EventKind.CUP:
                ids[p:p] = (fresh, fresh)
                fresh += closed
            elif ids[p] != ids[p + 1]:  # the older id stays, so the first group is 0
                into[max(ids[p], ids[p + 1])] = min(ids[p], ids[p + 1])
                ids = [into.get(x, x) for x in ids]
            mine.append((e, ids[p]))
            if e.kind is EventKind.CAP:
                del ids[p : p + 2]
    owners, steps, widest = [0] * n, [], 2 * n
    for e, g in mine:
        while g in into:
            g = into[g]
        p = e.position
        steps.append((e, g, owners[:p].count(g)))
        if e.kind is EventKind.CUP:
            owners[p:p] = (g, g)
            widest = max(widest, n + owners.count(g))
        elif e.kind is EventKind.CAP:
            del owners[p : p + 2]
    return steps, widest


def evaluate(d: Diagram, datum: RigidDatum) -> Matrix:
    """The r^|target| by r^|source| matrix of the diagram.  Events in a slice
    run right to left, so the input positions of those still to come hold.
    Raises EvaluationError, before contracting, if a group's state could
    range over more than EVALUATE_LIMIT words."""
    steps, widest = _schedule(d)
    if datum.rank**widest > EVALUATE_LIMIT:
        raise EvaluationError(f"{datum.rank}^{widest} words exceed {EVALUATE_LIMIT} in one group")
    sources = list(product(range(datum.rank), repeat=len(d.source)))
    states = {0: {(w, w): 1 for w in sources}}
    for e, g, p in steps:
        columns = datum.columns(e)
        q = p + e.arity_in
        acc: dict = {}
        for (src, cur), x in states.setdefault(g, {((), ()): 1}).items():
            for digits, v in columns.get(cur[p:q], ()):
                key = (src, cur[:p] + digits + cur[q:])
                acc[key] = acc[key] + x * v if key in acc else x * v
        states[g] = {k: x for k, x in acc.items() if not is_zero(x)}
    state = states.pop(0)
    for other in states.values():  # every group of a closed diagram ends as a scalar
        state = {k: y * x for k, y in state.items() for x in other.values()}
    rows = {w: i for i, w in enumerate(product(range(datum.rank), repeat=len(d.target)))}
    cols = {w: j for j, w in enumerate(sources)}
    return Matrix(
        len(rows), len(cols), {(rows[cur], cols[src]): x for (src, cur), x in state.items()}
    )


# ---------------------------------------------------------------------------
# the Kauffman preset and friends


def kauffman_datum() -> RigidDatum:
    """The rank-2 bracket datum over Z[A, A^-1].

    The copairing b and the pairing d, read row-major from the 2x2 forms
    [[0, -A], [A^-1, 0]] and [[0, A], [-A^-1, 0]], are forced (up to
    basis) by requiring both loop values to equal -A^2 - A^-2, all four
    zigzags, and the skein form of the braiding c = A * turnback + A^-1 *
    identity; the state-sum oracle certifies the choice on every closed
    diagram it is compared against.
    """
    b = Matrix.column([0, -A, A_INV, 0])
    d = Matrix.row([0, A, -A_INV, 0])
    turnback = b @ d  # E on V x V, with E^2 = delta E
    c = turnback.scale(A) + Matrix.identity(4).scale(A_INV)
    c_inv = turnback.scale(A_INV) + Matrix.identity(4).scale(A)
    return RigidDatum(
        name="kauffman",
        ring="laurent",
        rank=2,
        b=b,
        b_prime=b,
        d=d,
        d_prime=d,
        braiding=c,
        braiding_inv=c_inv,
        symmetric=False,
    )


def trivial_datum() -> RigidDatum:
    """Rank 1, every structure map the scalar 1; valid in every dimension."""
    one = Matrix.identity(1)
    return RigidDatum(
        name="trivial",
        ring="int",
        rank=1,
        b=one,
        b_prime=one,
        d=one,
        d_prime=one,
        braiding=one,
        braiding_inv=one,
        symmetric=True,
    )


def flip_datum() -> RigidDatum:
    """Rank 2 over the integers, with the hyperbolic pairing and the
    strand-swap braiding; genuinely symmetric (c^2 = 1) and with loop
    value 2, so it detects any move that would drop a closed component."""
    b = Matrix.column([0, 1, 1, 0])  # the pairing [[0, 1], [1, 0]], read row-major
    d = Matrix.row([0, 1, 1, 0])
    swap = Matrix(4, 4, {(0, 0): 1, (1, 2): 1, (2, 1): 1, (3, 3): 1})
    return RigidDatum(
        name="flip",
        ring="int",
        rank=2,
        b=b,
        b_prime=b,
        d=d,
        d_prime=d,
        braiding=swap,
        braiding_inv=swap,
        symmetric=True,
    )


def unit_datum(twist_exponent: int = 2, sign: int = 1) -> RigidDatum:
    """A rank-1 datum whose maps are units of Z[A, A^-1]; the braiding is
    sign * A^twist_exponent.  Every closed diagram evaluates to a unit."""
    u = Laurent.monomial(twist_exponent, sign)
    one = Matrix.identity(1)
    return RigidDatum(
        name=f"unit({sign}A^{twist_exponent})",
        ring="laurent",
        rank=1,
        b=one,
        b_prime=one,
        d=one,
        d_prime=one,
        braiding=Matrix(1, 1, {(0, 0): u}),
        braiding_inv=Matrix(1, 1, {(0, 0): u.inverse_of_unit()}),
        symmetric=(u * u == Laurent.one()),
    )


# ---------------------------------------------------------------------------
# the state-sum oracle and the writhe normalization


def bracket_state_sum(d: Diagram) -> Laurent:
    """Kauffman bracket by direct enumeration of crossing smoothings.

    Sums, over the 2^c ways of smoothing the c crossings, the monomial
    A^(a - b) * delta^(loops - 1), where a and b count the two smoothing
    types.  Independent of ``evaluate``: no matrices are involved, loops
    are counted on the strand segments of
    :func:`tangles.diagram.strand_segments`.  Cups and caps join the
    segments into arcs once; each state then joins arcs only, and
    loops = arcs - successful joins.  More than STATE_SUM_LIMIT smoothings
    are refused before the first.
    """
    if d.source or d.target:
        raise EvaluationError("the bracket needs a closed diagram")
    events, _ = strand_segments(d)
    crossings = [(e.sign, *ins, *outs) for _, e, ins, outs in events if e.is_crossing]
    if 1 << len(crossings) > STATE_SUM_LIMIT:
        raise EvaluationError(f"2^{len(crossings)} smoothings exceed {STATE_SUM_LIMIT}")
    segments = UnionFind()
    for _, e, ins, outs in events:
        if e.kind is EventKind.CUP:
            segments.union(*outs)
        elif e.kind is EventKind.CAP:
            segments.union(*ins)
    arcs: dict = {}  # root segment -> arc number
    for _, _, _, outs in events:  # a closed diagram emits every segment
        for x in outs:
            arcs.setdefault(segments.find(x), len(arcs))
    if not arcs:
        raise EvaluationError("the bracket of a diagram with no strands is undefined")
    legs = [(sign, *(arcs[segments.find(x)] for x in ends)) for sign, *ends in crossings]

    delta = loop_value()
    total = Laurent.zero()
    for state in range(1 << len(legs)):
        uf = UnionFind()
        joins = 0
        exponent = 0
        for idx, (sign, sw, se, nw, ne) in enumerate(legs):
            turnback = bool(state >> idx & 1)
            # For a positive crossing the A-weighted smoothing is the
            # turnback; mirrored for a negative crossing.
            exponent += sign if turnback else -sign
            if turnback:
                joins += uf.union(sw, se) + uf.union(nw, ne)
            else:
                joins += uf.union(sw, nw) + uf.union(se, ne)
        loops = len(arcs) - joins
        total = total + Laurent.monomial(exponent) * delta ** (loops - 1)
    return total


def kink_factor(w: int) -> Laurent:
    """(-A^3)^w, the bracket factor of w positive kinks."""
    return Laurent.monomial(3 * w, -1 if w % 2 else 1)


PRESETS = ("kauffman", "trivial")


@functools.cache
def preset_datum(name: str) -> RigidDatum:
    """The preset of ``PRESETS`` by that name, built once per process."""
    if name not in PRESETS:
        raise KeyError(name)
    return kauffman_datum() if name == "kauffman" else trivial_datum()


def bracket(d: Diagram) -> Laurent:
    """Kauffman bracket of a closed diagram, read from one evaluation under
    the Kauffman datum as evaluate / delta; it agrees with
    ``bracket_state_sum`` without enumerating smoothings."""
    if d.source or d.target:
        raise EvaluationError("the bracket needs a closed diagram")
    if not d.num_events:
        raise EvaluationError("the bracket of a diagram with no strands is undefined")
    value = evaluate(d, preset_datum("kauffman")).scalar()
    return Laurent.promote(value).divide_exact(loop_value())


def jones_normalized(d: Diagram) -> Laurent:
    """Writhe-normalized bracket: (-A^3)^(-writhe) * bracket(d).

    Invariant under the framed moves and under kink insertion or removal.
    """
    return kink_factor(-writhe(d)) * bracket(d)


# ---------------------------------------------------------------------------
# serialization


def _entry_to_text(x, ring: str) -> str:
    if ring == "laurent":
        lx = Laurent.promote(x)
        inside = ",".join(f"{e}:{c}" for e, c in sorted(lx.coeffs.items(), reverse=True))
        return "{" + inside + "}"
    if ring == "rational":
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    return str(int(x))


def _entry_from_text(token: str, ring: str):
    try:
        if ring == "rational":
            return Fraction(token)
        if ring == "int":
            return int(token)
        if token.startswith("{") and token.endswith("}"):
            inside = token[1:-1]
            coeffs = {}
            if inside:
                for part in inside.split(","):
                    e, c = (int(x) for x in part.split(":"))
                    if e in coeffs:
                        raise ValueError(f"repeated exponent {e}")
                    coeffs[e] = c
            return Laurent(coeffs)
    except (ValueError, ZeroDivisionError):
        pass
    raise EvaluationError(f"bad {ring} value {token!r}")


def datum_to_text(datum: RigidDatum) -> str:
    """The datum's name, ring, rank and symmetric flag, then one line per
    structure map of ``_MAPS``: its entries row-major, or ``none``."""
    lines = [
        f"name: {datum.name}",
        f"ring: {datum.ring}",
        f"rank: {datum.rank}",
        f"symmetric: {int(datum.symmetric)}",
    ]
    for key, name, _, _ in _MAPS:
        m = getattr(datum, name)
        entries = ["none"] if m is None else [_entry_to_text(x, datum.ring) for r in m.to_rows() for x in r]
        lines.append(f"{key}: " + " ".join(entries))
    return "\n".join(lines) + "\n"


def datum_from_text(text: str) -> RigidDatum:
    """Read the format ``datum_to_text`` writes; blank lines are skipped.
    A malformed datum (a missing, repeated or unknown field, a rank or
    flag that is not an integer, a bad matrix entry, a wrong number of
    entries, rank below 1, a datum the ``RigidDatum`` checks refuse)
    raises EvaluationError."""
    known = {"name", "ring", "rank", "symmetric", *(key for key, _, _, _ in _MAPS)}
    fields: dict[str, str] = {}
    for ln in filter(str.strip, text.splitlines()):
        key, _, value = (part.strip() for part in ln.partition(":"))
        if key in fields:
            raise EvaluationError(f"datum field {key!r} given twice")
        if key not in known:
            raise EvaluationError(f"unknown datum field {key!r}")
        fields[key] = value
    try:
        ring = fields["ring"]
        _check_ring(ring)
        rank = _entry_from_text(fields["rank"], "int")
        if rank < 1:
            raise EvaluationError(f"rank must be at least 1, got {rank}")
        symmetric = bool(_entry_from_text(fields["symmetric"], "int"))
        maps = {}
        for key, name, outs, ins in _MAPS:
            rows, cols, tokens = rank**outs, rank**ins, fields[key].split()
            if tokens == ["none"]:
                maps[name] = None
            elif len(tokens) != rows * cols:
                raise EvaluationError(f"expected {rows * cols} entries, got {len(tokens)}")
            else:
                entries = {divmod(k, cols): _entry_from_text(t, ring) for k, t in enumerate(tokens)}
                maps[name] = Matrix(rows, cols, entries)
    except KeyError as exc:
        raise EvaluationError(f"datum text missing field {exc}") from exc
    return RigidDatum(name=fields.get("name", "datum"), ring=ring, rank=rank, symmetric=symmetric, **maps)
