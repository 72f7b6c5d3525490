"""The benchmark's workloads: one pass of ops each, built from a seed.

Every op goes through an entry point users call: ``tangles.cli.main(argv)``
for the CLI verbs, ``tangles.equal`` and ``tangles.segal.colimit_truncated``
for the two library calls that have no verb.  The program sees only the
expression text or the diagrams built here, never the seed.

A workload is a fixed scaling series (the same ops for every seed) plus
seeded instances drawn from fixed pools, so a seed changes which instances
run and in what order but not how many ops of each kind and size run.
Expected outputs for every op of every pool are recorded in
``expected.json`` (see ``record.py``); each op is also held to an identity
that does not use the code path being timed (``Op.identity``).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
import shlex
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tangles
from tangles import cli, generate, links, segal
from tangles.diagram import (
    AmbientDim,
    Diagram,
    Event,
    EventKind,
    cap,
    cross_neg,
    cross_pos,
    cup,
)
from tangles.rewrite import MoveError, MoveKind, applicable_moves, apply_move, reduce_diagram
from tangles.words import PointedMonoid, free_product_enumerate

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

BRAIDED = AmbientDim.BRAIDED

# invariants: T(2,n) only closes for odd n.  The state sum doubles per
# crossing: T(2,13) takes seconds per call, which would leave too few
# repeats of each op in a run to measure it steadily.
TORUS_INVARIANT = (3, 5, 7, 9, 11)
TORUS_EVAL = (3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23)
# Side-by-side trefoils; k = 4 takes seconds to minutes per call today.
STACKS = (1, 2, 3)
BUILTINS = ("unknot", "trefoil", "hopf", "unlink")
CLOSED_BOUNDS = (6, 3)  # max events, max crossings of the generated pool
CLOSED_DRAWS = {1: 30, 2: 60, 3: 16}  # seeded closed diagrams per crossing count

# rewrite: chain lengths in events.  Reduction is quadratic today; 320
# events take seconds per call, too few repeats in a run to measure.
CHAIN_EVENTS = (10, 20, 40, 80, 160)
# Seeded equal pairs per pass.  Reduction pairs are the majority so that
# the median of equal falls inside one class of pairs.
EQUAL_PER_CLASS = {"reduction": 219, "search": 8, "distinct": 8}
EQUAL_BUDGET = 200

# segal
SEG_BUDGETS = (4, 5, 6, 7)
STAR_BOUNDS = (6, 7, 8, 9, 10)
# Seeded star pairs: the seed picks the orientation, which keeps the load.
STAR_SEEDED = (
    (("z2", "z3"), ("z3", "z2")),
    (("z2", "z4"), ("z4", "z2")),
    (("trivial", "z4"), ("z4", "trivial")),
)
COLIMITS = (
    ("pushout-z2-z2", 1, 1),
    ("pushout-z2-z3", 1, 1),
    ("pushout-z2-z2", 1, 2),
    ("pushout-z2-z3", 1, 2),
    ("nerve-z2", 1, 2),
    ("nerve-z3", 1, 2),
    ("nerve-z4", 1, 2),
    ("nerve-z2", 2, 2),
    ("nerve-z3", 2, 2),
)

# Ops per pass are 250, 250 and 53, and a pass takes 1.5 to 5 seconds, so
# a run's op count stays inside one band of the tail rule in run.py (p99
# for 1000 to 9999 ops, p95 for 200 to 999).  0.99 * 250 and 0.95 * 53
# are not whole, so the tail's rank falls inside the repeats of one op
# rather than between two ops, whatever the number of passes.


class OpError(Exception):
    """An op that exited non-zero."""


@dataclass
class Op:
    """One call into the program.

    ``call`` returns the op's output as text; ``key`` names the op and is
    the key of its recorded output.  ``identity`` returns None when the
    output satisfies an independent identity, else the reason it does not.
    """

    kind: str
    key: str
    call: Callable[[], str]
    series: str = ""
    size: int = 0
    identity: Callable[[str], str | None] | None = None


def fingerprint(text: str) -> str:
    """What is recorded for an output: the text itself, or its hash when
    the text is long (star enum lists every element)."""
    if len(text) <= 2000:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict[str, str]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Laurent polynomials in A, kept apart from tangles.rings so that checks
# neither trust nor count the ring code being timed.

_TERM = re.compile(r"([+-]?)(\d*)(A(?:\^(-?\d+))?)?")


def poly(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    s = text.strip()
    pos = 0
    while pos < len(s) and s != "0":
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"not a Laurent polynomial: {text!r}")
        sign, digits, var, exp = m.groups()
        coeff = (-1 if sign == "-" else 1) * (int(digits) if digits else 1)
        e = (int(exp) if exp is not None else 1) if var else 0
        out[e] = out.get(e, 0) + coeff
        pos = m.end()
    return {e: c for e, c in out.items() if c}


def pmul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ppow(p: dict[int, int], k: int) -> dict[int, int]:
    out = {0: 1}
    for _ in range(k):
        out = pmul(out, p)
    return out


def pmirror(p: dict[int, int]) -> dict[int, int]:
    """Substitute A -> A^-1."""
    return {-e: c for e, c in p.items()}


DELTA = {2: -1, -2: -1}  # the loop value -A^2 - A^-2


def kink(w: int) -> dict[int, int]:
    """(-A^3)^w."""
    return {3 * w: -1 if w % 2 else 1}


def fields(text: str) -> dict[str, str]:
    """The 'name: value' lines of an output."""
    out = {}
    for line in text.splitlines():
        name, _, value = line.partition(": ")
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# inputs


def torus(n: int) -> str:
    """T(2,n) as the trace closure of n twists on two strands (odd n)."""
    terms = ["cup(0)", "id[1,0] | cup(1)"]
    for i in range(n):
        terms.append("id[1] | x+(0,2) | id[1]" if i % 2 == 0 else "id[1] | x+(2,0) | id[1]")
    terms += ["cap(1) | id[0,1]", "cap(0)"]
    return " ; ".join(terms)


def stack(k: int) -> str:
    return " | ".join(["trefoil"] * k)


_GEN = {EventKind.CUP: "cup", EventKind.CAP: "cap", EventKind.XPOS: "x+", EventKind.XNEG: "x-"}


def _ident(labels) -> str:
    return "id[" + ",".join(str(k) for k in labels) + "]"


def expression(d: Diagram) -> str:
    """A diagram as CLI expression text, one ';' term per slice."""
    terms = []
    for s in d.slices:
        factors: list[str] = []
        run: list[int] = []
        events, ei, p = s.events, 0, 0
        while True:
            while ei < len(events) and events[ei].position == p:
                if run:
                    factors.append(_ident(run))
                    run = []
                e = events[ei]
                factors.append(f"{_GEN[e.kind]}({','.join(str(k) for k in e.labels)})")
                p += e.arity_in
                ei += 1
            if p == len(s.input):
                break
            run.append(s.input[p])
            p += 1
        if run:
            factors.append(_ident(run))
        if factors:
            terms.append(" | ".join(factors))
    return " ; ".join(terms) if terms else _ident(d.source)


def mirror_text(expr: str) -> str:
    return expr.replace("x+", "x\0").replace("x-", "x+").replace("x\0", "x-")


def zigzag_chain(events: int) -> str:
    """events/2 zigzags on one strand of level 0, alternating the side the
    turnback sits on."""
    right = "id[0] | cup(0) ; cap(0) | id[0]"
    left = "cup(-1) | id[0] ; id[0] | cap(-1)"
    return " ; ".join(right if i % 2 == 0 else left for i in range(events // 2))


def r2_chain(events: int) -> str:
    """events/2 second-Reidemeister pairs on strands (0, 1), alternating sign."""
    pos = "x+(0,1) ; x-(1,0)"
    neg = "x-(0,1) ; x+(1,0)"
    return " ; ".join(pos if i % 2 == 0 else neg for i in range(events // 2))


IDENTITY_TEXT = {
    ("zigzag", 3): "source: 0\n",
    ("r2", 3): "source: 0 1\n",
    ("zigzag", 2): "source: 0\ntarget: 0\narc: source[0](0) -- target[0](0)\n",
}


def shifted(d: Diagram, s: int) -> Diagram:
    """Every label moved up by s; typing is unchanged."""
    return Diagram.from_events(
        tuple(k + s for k in d.source),
        [[Event(e.kind, e.position, tuple(k + s for k in e.labels)) for e in sl.events]
         for sl in d.slices],
    )


def three_kinks(positive: bool) -> Diagram:
    """An unknot with three kinks of one sign: same components and writhe
    as the trefoil of that sign."""
    x = cross_pos if positive else cross_neg
    return Diagram.from_events((), [[cup(0)], [x(1, 0)], [x(0, 1)], [x(1, 0)], [cap(0)]])


def star_count(left: str, right: str, bound: int, length: int | None = None) -> int:
    """Elements of Z/m * Z/n of alternation length <= bound (or == length),
    by counting alternating words of non-units."""
    nonunits = {"trivial": 0, "z2": 1, "z3": 2, "z4": 3}
    a, b = nonunits[left], nonunits[right]
    lengths = range(bound + 1) if length is None else (length,)
    total = 0
    for n in lengths:
        if n == 0:
            total += 1
        else:
            hi, lo = (n + 1) // 2, n // 2
            total += a**hi * b**lo + b**hi * a**lo
    return total


# ---------------------------------------------------------------------------
# ops


def cli_op(kind: str, argv: list[str], **kwargs) -> Op:
    def call() -> str:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        if code != 0:
            raise OpError(f"exit status {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return Op(kind, _key(argv), call, **kwargs)


def _invariant_argv(expr: str) -> list[str]:
    return ["invariant", expr]


def _eval_argv(expr: str) -> list[str]:
    return ["eval", "--dim", "3", "--datum", "kauffman", expr]


def _key(argv: list[str]) -> str:
    return shlex.join(["tangles", *argv])


def _normalized_holds(out: str) -> str | None:
    f = fields(out)
    if pmul(kink(-int(f["writhe"])), poly(f["bracket"])) != poly(f["normalized"]):
        return "normalized != (-A^3)^-writhe * bracket"
    return None


def _closed_pair(expr: str, expected, series="", size=0, inv_check=None, eval_check=None):
    """invariant and eval on one closed diagram.  Both hold the identities
    every closed diagram obeys: the normalized value is the writhe-corrected
    bracket, and the transfer-matrix value is delta times the state-sum
    bracket recorded for the same diagram."""
    inv_key = _key(_invariant_argv(expr))

    def inv_identity(out: str) -> str | None:
        return _normalized_holds(out) or (inv_check(out) if inv_check else None)

    def eval_identity(out: str) -> str | None:
        ref = expected.get(inv_key)
        if ref is not None and poly(out) != pmul(DELTA, poly(fields(ref)["bracket"])):
            return "eval != delta * recorded bracket"
        return eval_check(out) if eval_check else None

    return [
        cli_op("invariant", _invariant_argv(expr), series=series and f"invariant {series}",
               size=size, identity=inv_identity),
        cli_op("eval", _eval_argv(expr), series=series and f"eval {series}", size=size,
               identity=eval_identity),
    ]


def _ref(expected, argv, field=None):
    """A recorded value as a polynomial, or None if it was never recorded."""
    text = expected.get(_key(argv))
    if text is None:
        return None
    return poly(fields(text)[field] if field else text)


def _invariants(expected, closed_pool):
    fixed: list[Op] = []
    for n in TORUS_INVARIANT:
        fixed.append(cli_op("invariant", _invariant_argv(torus(n)), series="invariant T(2,n)",
                            size=n, identity=_normalized_holds))
    for n in TORUS_EVAL:
        fixed.append(cli_op("eval", _eval_argv(torus(n)), series="eval T(2,n)", size=n))

    def stack_checks(k):
        # Tensor multiplies closed values: a stack of k trefoils has
        # normalized value delta^(k-1) * (trefoil)^k and eval (trefoil)^k.
        def inv_check(out):
            base = _ref(expected, _invariant_argv("trefoil"), "normalized")
            if base is not None and poly(fields(out)["normalized"]) != pmul(
                ppow(DELTA, k - 1), ppow(base, k)
            ):
                return "stack normalized != delta^(k-1) trefoil^k"
            return None

        def eval_check(out):
            base = _ref(expected, _eval_argv("trefoil"))
            if base is not None and poly(out) != ppow(base, k):
                return "stack eval != trefoil^k"
            return None

        return inv_check, eval_check

    for k in STACKS:
        inv_check, eval_check = stack_checks(k)
        fixed += _closed_pair(stack(k), expected, "trefoil stack", k, inv_check, eval_check)

    def mirror_checks(name):
        # Mirroring substitutes A -> A^-1 in every invariant.
        def inv_check(out):
            for field in ("bracket", "normalized"):
                base = _ref(expected, _invariant_argv(name), field)
                if base is not None and poly(fields(out)[field]) != pmirror(base):
                    return f"mirror {field} != {field}(A -> A^-1)"
            return None

        def eval_check(out):
            base = _ref(expected, _eval_argv(name))
            if base is not None and poly(out) != pmirror(base):
                return "mirror eval != eval(A -> A^-1)"
            return None

        return inv_check, eval_check

    for name in BUILTINS:
        fixed += _closed_pair(name, expected)
        inv_check, eval_check = mirror_checks(name)
        mirrored = mirror_text(expression(links.BUILTINS[name]()))
        fixed += _closed_pair(mirrored, expected, inv_check=inv_check, eval_check=eval_check)

    by_crossings: dict[int, list[list[Op]]] = {}
    for d in closed_pool:
        c = sum(1 for _, e in d.events() if e.is_crossing)
        by_crossings.setdefault(c, []).append(_closed_pair(expression(d), expected))
    pools = [(by_crossings[c], count) for c, count in CLOSED_DRAWS.items()]
    return fixed, pools


def _rewrite(expected, pairs):
    fixed: list[Op] = []
    for n in CHAIN_EVENTS:
        for shape, dim, text in (
            ("zigzag", 3, zigzag_chain(n)),
            ("r2", 3, r2_chain(n)),
            ("zigzag", 2, zigzag_chain(n)),
        ):
            want = IDENTITY_TEXT[(shape, dim)]
            fixed.append(
                cli_op(
                    "normalize",
                    ["normalize", "--dim", str(dim), text],
                    series=f"normalize --dim {dim} {shape} chain",
                    size=n,
                    identity=lambda out, want=want: None if out == want else "chain did not normalize to the identity",
                )
            )
    pools = []
    for cls, count in EQUAL_PER_CLASS.items():
        group = [_equal_op(d1, d2, answer) for d1, d2, answer in pairs[cls]]
        pools.append(([[op] for op in group], count))
    return fixed, pools


def _equal_op(d1: Diagram, d2: Diagram, answer: str) -> Op:
    def call() -> str:
        return tangles.equal(d1, d2, BRAIDED, budget=EQUAL_BUDGET).value

    key = f"equal --budget {EQUAL_BUDGET} [{expression(d1)}] [{expression(d2)}]"
    return Op("equal", key, call,
              identity=lambda out: None if out == answer else f"verdict {out}, known answer {answer}")


def equal_pairs(closed_pool) -> dict[str, list[tuple[Diagram, Diagram, str]]]:
    """The pools of equal pairs, with each pair's known answer.

    reduction: a closed diagram and itself with one backward zigzag or R2
    pair inserted, which forward reduction removes again.
    search: a closed diagram and itself after one interchange that
    reduction alone does not undo; the move search joins them.
    distinct: a trefoil against an unknot with three kinks of the same
    sign (same components and writhe), at several label levels; the
    search spends its whole budget and evaluation separates them.
    """
    pairs: dict[str, list] = {"reduction": [], "search": [], "distinct": []}
    for i, d in enumerate(closed_pool):
        moves = [
            m
            for m in applicable_moves(d, BRAIDED, include_backward=True)
            if (not m.forward and m.kind in (MoveKind.ZIGZAG, MoveKind.R2))
            or (m.forward and m.kind is MoveKind.INTERCHANGE)
        ]
        if not moves:
            continue
        m = moves[i % len(moves)]
        try:
            d2 = apply_move(d, m)
        except MoveError:
            continue
        same = tangles.to_text(reduce_diagram(d, BRAIDED)) == tangles.to_text(reduce_diagram(d2, BRAIDED))
        if same and not m.forward:
            pairs["reduction"].append((d2, d, "equal"))
        elif not same and m.forward:
            pairs["search"].append((d2, d, "equal"))
    for s in (-2, -1, 0, 1, 2):
        for positive in (True, False):
            pairs["distinct"].append(
                (shifted(links.trefoil(positive), s), shifted(three_kinks(positive), s), "distinct")
            )
    return pairs


def _segal(expected, state):
    fixed: list[Op] = []
    for preset in sorted(cli._PRESETS):
        for budget in SEG_BUDGETS:
            fixed.append(
                cli_op("seg", ["seg", "complete", "--preset", preset, "--budget", str(budget)],
                       series=f"seg complete {preset}", size=budget,
                       identity=_seg_identity(preset, budget, state))
            )
    for bound in STAR_BOUNDS:
        fixed.append(_star_op("z2", "z2", bound, series="star enum z2 z2"))
    pools = []
    for choices in STAR_SEEDED:
        for bound in STAR_BOUNDS:
            pools.append(([[_star_op(left, right, bound)] for left, right in choices], 1))
    for preset, p, n in COLIMITS:
        fixed.append(_colimit_op(preset, p, n, state))
    return fixed, pools


def _seg_identity(preset: str, budget: int, state):
    """Completion class counts: a pushout of nerves gives the free product
    (counted by free_product_enumerate), a nerve gives the monoid back, and
    the chain preset is a free category with one arrow per hom-set."""
    if preset.startswith("pushout"):
        want = state["free_product_sizes"][(preset, budget)]
    elif preset.startswith("nerve"):
        want = int(preset[-1])
    else:
        want = 1

    def check(out: str) -> str | None:
        counts = [int(v.split()[0]) for k, v in fields(out).items() if k.startswith("hom ")]
        if not counts:
            return "no hom-sets in the output"
        if any(c != want for c in counts):
            return f"class counts {counts}, expected {want}"
        return None

    return check


def _star_op(left: str, right: str, bound: int, series: str = "") -> Op:
    def check(out: str) -> str | None:
        f = fields(out)
        if int(f["total"]) != star_count(left, right, bound):
            return "total != number of alternating words"
        for name, value in f.items():
            if name.startswith("length ") and int(value) != star_count(left, right, 0, int(name[7:])):
                return f"{name} count is wrong"
        return None

    argv = ["star", "enum", "--left", left, "--right", right, "--bound", str(bound)]
    return cli_op("seg", argv, series=series, size=bound if series else 0, identity=check)


def colimit_text(result) -> str:
    sizes = sorted(len(group) for group in result.classes)
    return (
        f"classes: {result.class_count()}\n"
        f"stabilized: {result.stabilized}\n"
        f"sizes: {' '.join(str(s) for s in sizes)}\n"
    )


def _colimit_op(preset: str, p: int, n: int, state) -> Op:
    datum = state["data"][preset]

    def call() -> str:
        return colimit_text(segal.colimit_truncated(datum, p, n))

    if preset.startswith("pushout"):
        # classes are the free-product elements of alternation length <= n,
        # and the truncations never stabilize (the free product is infinite)
        want, stable = state["free_product_sizes"][(preset, n)], False
    else:
        # a nerve is Segal: level p of the colimit is M^p, and the bound-n
        # truncation is already stable when p < n
        want, stable = int(preset[-1]) ** p, p < n

    def check(out: str) -> str | None:
        f = fields(out)
        if int(f["classes"]) != want or f["stabilized"] != str(stable):
            return f"colimit gave {f['classes']} classes, stabilized {f['stabilized']}"
        return None

    return Op("colimit", f"colimit_truncated {preset} p={p} N={n}", call,
              series=f"colimit_truncated {preset} p={p}", size=n, identity=check)


# ---------------------------------------------------------------------------
# set-up and assembly


def setup(workload: str) -> dict:
    """What a workload's ops reuse: the simplicial data the colimit ops
    run on.  This is the program set-up that setup_s measures beyond the
    imports."""
    if workload != "segal":
        return {}
    return {"data": {preset: cli._PRESETS[preset]() for preset, _, _ in COLIMITS}}


def _parts(workload: str, state: dict, expected: dict):
    if workload == "invariants":
        return _invariants(expected, list(generate.iter_closed_diagrams(*CLOSED_BOUNDS)))
    if workload == "rewrite":
        pool = list(generate.iter_closed_diagrams(*CLOSED_BOUNDS))
        return _rewrite(expected, equal_pairs(pool))
    if workload == "segal":
        # The free-product oracle runs here, untimed and before any tracing.
        z = {"z2": PointedMonoid.cyclic(2), "z3": PointedMonoid.cyclic(3)}
        state["free_product_sizes"] = {
            (f"pushout-{a}-{b}", n): len(free_product_enumerate(z[a], z[b], n))
            for a, b in (("z2", "z2"), ("z2", "z3"))
            for n in set(SEG_BUDGETS) | {n for _, _, n in COLIMITS}
        }
        return _segal(expected, state)
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, state: dict, expected: dict) -> list[Op]:
    """One pass: the fixed series plus the seeded draws from each pool."""
    fixed, pools = _parts(workload, state, expected)
    rng = random.Random(seed)
    ops = list(fixed)
    for group, count in pools:
        for draw in rng.sample(group, count):
            ops.extend(draw)
    return ops


def universe(workload: str, state: dict, expected: dict) -> list[Op]:
    """Every op any seed can draw; the ops whose outputs are recorded."""
    fixed, pools = _parts(workload, state, expected)
    return fixed + [op for group, _ in pools for draw in group for op in draw]


def load(ops: list[Op]) -> dict:
    """Ops per kind and per series size: what a seed must not change."""
    by_kind = Counter(op.kind for op in ops)
    by_series = Counter(f"{op.series} [{op.size}]" for op in ops if op.series)
    return {"kinds": dict(sorted(by_kind.items())), "series": dict(sorted(by_series.items()))}
