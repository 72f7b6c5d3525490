"""Command line surface: a small expression language for building
diagrams, plus subcommands over the library.

The expression grammar (";" composes bottom-to-top, "|" tensors and binds
tighter than ";"):

    expr   := term (";" term)*
    term   := factor ("|" factor)*
    factor := "cup(" int ")" | "cap(" int ")"
            | "x+(" int "," int ")" | "x-(" int "," int ")"
            | "id[" int ("," int)* "]" | "id[]"
            | "unknot" | "trefoil" | "hopf" | "unlink"
            | "(" expr ")"

An expression has the grammar's shape: a ";" chain is one ``Seq`` and a
"|" chain one ``Par``, members in order, and a chain of one is its member.
A group that starts a chain of its own kind joins it (``(a ; b) ; c`` is
``a ; b ; c``); a later group stays one member (``a ; (b ; c)``).  Text
becomes a diagram in one pass: each event is built once, at its final
position (offsets along a "|" chain are prefix sums of widths), and each
slice is typed once, so a chain of terms of any length is built in time
linear in its length.  The parser, ``print_expr`` and ``to_diagram`` keep
their own stacks, so neither length nor parenthesis depth meets Python's
recursion limit.  The dataclass ``==``, ``hash`` and ``repr``, which no
command calls, recurse once per group nested in a group: under the default
limit they raise ``RecursionError`` from about 250, 500 and 250 groups.

Subcommands write deterministic text to stdout and use exit status 0 for
success, 1 for user errors (usage, syntax, typing, boundary mismatches,
malformed data or option values, unreadable files), and 2 for any other
exception, which is an internal fault.  When the reader of stdout leaves
early (``... | head -1``), the rest of the output is dropped silently and
the status is 141 (128 + SIGPIPE), as a shell reports for such a writer.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Sequence

from . import links
from .diagram import (
    AmbientDim,
    Diagram,
    DiagramError,
    Event,
    EventKind,
    compose_check,
    place,
    to_text,
    validate,
    widen,
    writhe,
    component_framings,
)
from .evaluate import (
    PRESETS,
    DatumReport,
    EvaluationError,
    RigidDatum,
    bracket,
    datum_from_text,
    evaluate,
    kink_factor,
    preset_datum,
    validate_datum,
)
from .rewrite import MoveError, normalize_planar, reduce_diagram
from .segal import SimplicialError, complete, nerve_of_monoid, one_truncated, pushout_of_nerves
from .simplex import ConvexSubset, MonotoneMap, SimplexObject, outer_hull, SimplexError
from .words import MonoidError, PointedMonoid, alternating_factorization, free_product_listing


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


# ---------------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Gen(Expr):
    kind: str  # "cup", "cap", "x+", "x-"
    args: tuple[int, ...]


@dataclass(frozen=True)
class IdWord(Expr):
    labels: tuple[int, ...]


@dataclass(frozen=True)
class Named(Expr):
    name: str


@dataclass(frozen=True)
class Seq(Expr):
    """A ";" chain, bottom first."""

    members: tuple[Expr, ...]


@dataclass(frozen=True)
class Par(Expr):
    """A "|" chain, left first."""

    members: tuple[Expr, ...]


# Every non-space character starts a token; a character that starts no
# other token is one on its own, which the tokenizer refuses.
_TOKEN = re.compile(r"unknot|trefoil|hopf|unlink|cup|cap|x\+|x-|id|-?\d+|[();,|\[\]]|\S")
_NAMES = frozenset(("unknot", "trefoil", "hopf", "unlink"))
_PUNCT = frozenset("();,|[]")
_SHAPES = dict.fromkeys(("cup", "cap"), ("(", int, ")"))  # what follows a generator
_SHAPES.update(dict.fromkeys(("x+", "x-"), ("(", int, ",", int, ")")))


def _tokenize(text: str) -> list[str]:
    """The token values of text: words, marks, integers; stray characters raise."""
    tokens = _TOKEN.findall(text)
    others = set(tokens).difference(_NAMES, _PUNCT, _SHAPES, ("id",))
    j = min((tokens.index(v) for v in others if not v[-1].isdecimal()), default=None)
    if j is not None:
        raise ParseError(f"unexpected character {tokens[j]!r}", _start(text, j))
    return tokens


def _start(text: str, j: int) -> int:
    return next(itertools.islice(_TOKEN.finditer(text), j, None)).start()  # errors only


def _error(text: str, tokens: list, j: int, want: object = None) -> ParseError:
    """The error at token j, where want (a mark, or int) was expected, or
    else a token that can start or end a factor."""
    value = tokens[j]
    if value is None:
        return ParseError("unexpected end of input", len(text))
    if want is None:
        message = f"unexpected {value!r}"
    elif want is not int and value in _PUNCT:
        message = f"expected {want!r}, found {value!r}"
    else:
        message = f"expected {'int' if want is int else 'punct'}, found {value!r}"
    return ParseError(message, _start(text, j))


def _int(text: str, tokens: list, j: int) -> int:
    try:
        return int(tokens[j])
    except (TypeError, ValueError):  # a token that is no integer, or the end
        raise _error(text, tokens, j, int) from None


def parse_expr(text: str) -> Expr:
    """expr, term and factor of the grammar in one loop over the tokens.
    The open ";" and "|" chains gather their members in lists, and each "("
    saves the enclosing pair on a stack, so nesting depth costs no recursion;
    a group that starts a chain of its own kind gives it its members."""
    t = _tokenize(text)
    t.append(None)  # the end of input, equal to no token
    i = 0
    enclosing: list[tuple[list[Expr], list[Expr]]] = []
    seq: list[Expr] = []  # the terms of the current expression
    par: list[Expr] = []  # the factors of the current term
    while True:
        v = t[i]
        if v == "(":
            i += 1
            enclosing.append((seq, par))
            seq, par = [], []
            continue
        ints = []
        if v in _SHAPES:
            for want in _SHAPES[v]:
                i += 1
                if want is int:
                    ints.append(_int(text, t, i))
                elif t[i] != want:
                    raise _error(text, t, i, want)
            factor: Expr = Gen(v, tuple(ints))
        elif v == "id":
            i += 1
            if t[i] != "[":
                raise _error(text, t, i, "[")
            i += 1
            if t[i] != "]":
                ints.append(_int(text, t, i))
                i += 1
                while t[i] == ",":
                    i += 1
                    ints.append(_int(text, t, i))
                    i += 1
            if t[i] != "]":
                raise _error(text, t, i, "]")
            factor = IdWord(tuple(ints))
        elif v in _NAMES:
            factor = Named(v)
        else:
            raise _error(text, t, i)
        i += 1
        par.append(factor)
        while True:  # after a factor: close groups until "|", ";" or the end
            v = t[i]
            if v == "|":
                i += 1
                break
            term = par[0] if len(par) == 1 else Par(tuple(par))
            seq += term.members if not seq and type(term) is Seq else [term]
            if v == ";":
                i += 1
                par = []
                break
            e = seq[0] if len(seq) == 1 else Seq(tuple(seq))
            if not enclosing:
                if v is not None:
                    raise _error(text, t, i)
                return e
            if v != ")":
                raise _error(text, t, i, ")")
            i += 1
            seq, par = enclosing.pop()
            par += e.members if not par and type(e) is Par else [e]


def print_expr(e: Expr) -> str:
    """The text of an expression, with the parentheses its tree needs.
    The tree is walked with an explicit stack of pieces, text or
    subexpressions, so no length or depth costs recursion."""
    todo: list = [e]
    out: list[str] = []
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Gen):
            out.append(f"{item.kind}({','.join(str(a) for a in item.args)})")
        elif isinstance(item, IdWord):
            out.append(f"id[{','.join(str(a) for a in item.labels)}]")
        elif isinstance(item, Named):
            out.append(item.name)
        elif isinstance(item, (Seq, Par)):
            mark, kinds = (" ; ", Seq) if isinstance(item, Seq) else (" | ", (Seq, Par))
            for m in reversed(item.members):
                todo += (")", m, "(", mark) if isinstance(m, kinds) else (m, mark)
            todo.pop()  # no mark before the first member
        else:
            raise TypeError(f"not an expression: {item!r}")
    return "".join(out)


_KINDS = {k.value: k for k in EventKind}  # the kinds are spelled as in the grammar


def _place_event(f: Gen, x: int, level: int, layers, planar: bool) -> Event:
    """The event of generator f at position x, appended to its level."""
    event = Event(_KINDS[f.kind], x, f.args)
    if planar and event.is_crossing:
        raise DiagramError("crossings are not allowed in the planar ambient dimension")
    if level == len(layers):
        layers.append([])
    layers[level].append(event)
    return event


def _beside(rest: list, x: int, level: int, layers, planar: bool, source: list, target: list):
    """Read in place the generators and identity words ending rest, a "|"
    chain's members still to place: each event is built at x plus the
    width of the members before it, and their words extend source and
    target.  Returns their widths."""
    start, above, tall = x, 0, False
    while rest and type(rest[-1]) in (Gen, IdWord):
        f = rest.pop()
        if type(f) is Gen:
            event = _place_event(f, x, level, layers, planar)
            words, tall = (event.consumes(), event.emits()), True
        else:
            words = f.labels, f.labels
        x += len(words[0])
        above += len(words[1])
        source += words[0]
        target += words[1]
    return [x - start, above] if tall else [x - start]


@dataclass(slots=True)
class _Chain:
    """An open Seq or Par: its members still to place, last first, the
    level the next starts at, and the placed ones' source, target and
    level widths, which offset a "|" chain's next member."""

    par: bool
    rest: list
    level: int
    source: Sequence[int] = ()
    target: Sequence[int] = ()
    widths: list[int] = field(default_factory=list)


def to_diagram(e: Expr, dim: AmbientDim) -> Diagram:
    """The diagram of an expression, built in one pass.

    Along a "|" chain each member's offset at each level is the prefix sum
    of the widths to its left (``widen``, as in ``tensor``), so each event
    is built once, at its final position; ";" checks the boundary, as
    ``compose`` does.  Each slice is typed once, when the result is.  Each
    Seq or Par is an open chain on a stack, its members placed left to
    right, so errors come in the order of a fold through ``compose`` and
    ``tensor``, and a chain of any length or depth costs no recursion."""
    planar = not dim.allows_crossings
    layers: list[list[Event]] = []
    pars: list[_Chain] = []  # the open "|" chains, outermost first

    def origin(level: int) -> int:
        if not pars:
            return 0
        return sum(c.widths[min(level - c.level, len(c.widths) - 1)] for c in pars)

    chains = [_Chain(False, [e], 0)]
    done = None  # the source, target and widths of the member just placed
    while True:
        c = chains[-1]
        if done is not None and c.par:
            c.source += done[0]
            c.target += done[1]
            widen(c.widths, done[2])
            widen(c.widths, _beside(c.rest, origin(c.level), c.level, layers, planar, c.source, c.target))
        elif done is not None:
            if c.widths:
                compose_check(c.target, done[0])
            else:
                c.source = done[0]
            c.target = done[1]
            c.widths += done[2][1:] if c.widths else done[2]
            c.level += len(done[2]) - 1
        if not c.rest:
            chains.pop()
            if c.par:
                pars.pop()
            done = (tuple(c.source), tuple(c.target), c.widths)
            if not chains:
                return Diagram.from_events(done[0], layers)
            continue
        f, level, done = c.rest.pop(), c.level, None
        if isinstance(f, Named):
            d = links.BUILTINS[f.name]()
            if planar:
                raise DiagramError(f"builtin {f.name!r} has crossings, illegal for n=2")
            done = (d.source, d.target, place(layers, d, level, origin))
        elif isinstance(f, Seq):
            chains.append(_Chain(False, list(reversed(f.members)), level))
        elif type(f) is Gen:  # a generator that is a whole ";" member, read in place
            event = _place_event(f, origin(level), level, layers, planar)
            source, target = event.consumes(), event.emits()
            done = (source, target, [len(source), len(target)])
        elif isinstance(f, (Par, IdWord)):  # an identity word is a "|" chain of one
            rest, source, target = list(reversed(f.members)) if isinstance(f, Par) else [f], [], []
            widths = _beside(rest, origin(level), level, layers, planar, source, target)
            if rest:
                pars.append(_Chain(True, rest, level, source, target, widths))
                chains.append(pars[-1])
            else:  # all read in place
                done = (tuple(source), tuple(target), widths)
        else:
            raise TypeError(f"not an expression: {f!r}")


# ---------------------------------------------------------------------------
# command plumbing


_MONOIDS = {
    "z2": lambda: PointedMonoid.cyclic(2),
    "z3": lambda: PointedMonoid.cyclic(3),
    "z4": lambda: PointedMonoid.cyclic(4),
    "trivial": PointedMonoid.trivial,
    "free-x": lambda: PointedMonoid.free("x"),
    "free-y": lambda: PointedMonoid.free("y"),
}

_PRESETS = {
    "nerve-z2": lambda: nerve_of_monoid(PointedMonoid.cyclic(2), K=3),
    "nerve-z3": lambda: nerve_of_monoid(PointedMonoid.cyclic(3), K=3),
    "nerve-z4": lambda: nerve_of_monoid(PointedMonoid.cyclic(4), K=3),
    "pushout-z2-z2": lambda: pushout_of_nerves(
        PointedMonoid.cyclic(2), PointedMonoid.cyclic(2), K=3
    ),
    "pushout-z2-z3": lambda: pushout_of_nerves(
        PointedMonoid.cyclic(2), PointedMonoid.cyclic(3), K=3
    ),
    "chain3": lambda: one_truncated("uvw", [("a", "u", "v"), ("b", "v", "w")], K=2),
}


def _read_expr(args) -> str:
    if args.expr is not None:
        return args.expr
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return fh.read()
    return sys.stdin.read()


@functools.cache
def _preset_report(name: str, dim: AmbientDim) -> DatumReport:
    return validate_datum(preset_datum(name), dim)


def _datum(name: str, dim: AmbientDim) -> tuple[RigidDatum, DatumReport]:
    """The named datum and its validation report for dim.  The fixed
    presets are built and validated once per process; a datum file is
    read and validated on every call."""
    if name in PRESETS:
        return preset_datum(name), _preset_report(name, dim)
    with open(name, "r", encoding="utf-8") as fh:
        datum = datum_from_text(fh.read())
    return datum, validate_datum(datum, dim)


def _parsed_diagram(args, dim: AmbientDim) -> Diagram:
    """The diagram of the expression argument.  ``to_diagram`` refuses a
    planar crossing, the one fault ``validate`` finds without a window."""
    return to_diagram(parse_expr(_read_expr(args)), dim)


def _cmd_validate(args) -> int:
    dim = AmbientDim.from_dimension(args.dim)
    d = _parsed_diagram(args, dim)
    window = None
    if args.window:
        try:
            lo, hi = args.window.split(",")
            window = (int(lo), int(hi))
        except ValueError:
            raise DiagramError(f"--window needs 'i,j', got {args.window!r}") from None
    report = validate(d, dim, label_window=window)
    print(report)
    print(f"source: {' '.join(str(k) for k in d.source)}")
    print(f"target: {' '.join(str(k) for k in d.target)}")
    print(f"events: {d.num_events}")
    return 0 if report.valid else 1


def _cmd_normalize(args) -> int:
    dim = AmbientDim.from_dimension(args.dim)
    d = _parsed_diagram(args, dim)
    print(normalize_planar(d) if dim is AmbientDim.PLANAR else to_text(reduce_diagram(d, dim)), end="")
    return 0


def _cmd_eval(args) -> int:
    dim = AmbientDim.from_dimension(args.dim)
    d = _parsed_diagram(args, dim)
    datum, report = _datum(args.datum, dim)
    if not report.valid:
        raise EvaluationError(f"datum {datum.name!r} is not valid for n={args.dim}:\n{report}")
    m = evaluate(d, datum)
    if m.rows == 1 and m.cols == 1:
        print(m.scalar())
    else:
        print(f"matrix {m.rows}x{m.cols}")
        for row in m.to_rows():
            print(" ".join(str(x) for x in row))
    return 0


def _cmd_invariant(args) -> int:
    dim = AmbientDim.from_dimension(args.dim)
    if dim is AmbientDim.SYMMETRIC:
        raise EvaluationError(
            f"the bracket is not an invariant for n={args.dim}, where the two crossings "
            "are identified"
        )
    d = _parsed_diagram(args, dim)
    if d.source or d.target:
        raise DiagramError("invariants need a closed diagram")
    value = bracket(d)
    crossings = sum(1 for _, e in d.events() if e.is_crossing)
    framings = component_framings(d)
    w = writhe(d)
    print(f"components: {len(framings)}")
    print(f"crossings: {crossings}")
    print(f"writhe: {w}")
    print(f"self-writhe: {sum(framings)}")
    print("framings: " + " ".join(str(f) for f in framings))
    print(f"bracket: {value}")
    print(f"normalized: {kink_factor(-w) * value}")
    return 0


def _cmd_datum(args) -> int:
    _, report = _datum(args.datum, AmbientDim.from_dimension(args.dim))
    print(report)
    return 0 if report.valid else 1


def _cmd_words_factor(args) -> int:
    factors = alternating_factorization(tuple(args.word))
    print(" ".join("".join(f) for f in factors) if factors else "(empty)")
    return 0


@functools.cache
def _monoid(name: str) -> PointedMonoid:
    """The named monoid, built and checked once per process."""
    return _MONOIDS[name]()


def _cmd_star_enum(args) -> int:
    listing = free_product_listing(_monoid(args.left), _monoid(args.right), args.bound)
    by_length = Counter(length for length, _ in listing)  # the listing is sorted: lengths in order
    lines = [f"total: {len(listing)}"]
    lines += [f"length {length}: {count}" for length, count in by_length.items()]
    lines += [text for _, text in listing]
    print("\n".join(lines))
    return 0


@functools.cache
def _preset(name: str):
    """The named preset, built and checked once per process."""
    return _PRESETS[name]()


def _cmd_seg_complete(args) -> int:
    comp = complete(_preset(args.preset), args.budget)
    print(f"objects: {len(comp.presentation.objects)}")
    print(f"generators: {len(comp.presentation.generators)}")
    print(f"relations: {len(comp.presentation.relations)}")
    for key in sorted(comp.class_counts, key=repr):  # Decimal prints past the int-to-str limit
        print(f"hom {key[0]} -> {key[1]}: {Decimal(comp.class_counts[key])} classes")
    print(f"stabilized: {comp.stabilized}")
    return 0


def _cmd_simplex_phi(args) -> int:
    try:
        values = tuple(int(v) for v in args.map.split(","))
    except ValueError:
        raise SimplexError(f"--map needs comma-separated integers, got {args.map!r}") from None
    f = MonotoneMap(SimplexObject(len(values) - 1), SimplexObject(args.target), values)
    C = ConvexSubset(args.lo, args.hi, SimplexObject(args.target))
    print(str(outer_hull(f, C)))
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is a user error: exit status 1, where argparse uses 2.
    Each subcommand reports the arguments it does not take, with its usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = _ArgumentParser(
        prog="tangles", description="framed tangle diagrams: validate, rewrite, evaluate"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_expr_command(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("expr", nargs="?", help="diagram expression (default: stdin)")
        p.add_argument("--file", help="read the expression from a file")
        p.add_argument("--dim", type=int, default=3, help="ambient dimension n >= 2")
        p.set_defaults(fn=fn)
        return p

    p = add_expr_command("validate", _cmd_validate, help="type-check a diagram")
    p.add_argument("--window", help="label window 'i,j' restricting levels to [-i, j]")
    add_expr_command("normalize", _cmd_normalize, help="planar normal form or reduced diagram")
    p = add_expr_command("eval", _cmd_eval, help="evaluate against a rigid datum")
    p.add_argument("--datum", default="kauffman", help="kauffman, trivial, or a datum file")
    add_expr_command("invariant", _cmd_invariant, help="bracket, normalized value, writhe table")
    p = sub.add_parser("datum", help="validate a rigid datum")
    p.add_argument("--dim", type=int, default=3, help="ambient dimension n >= 2")
    p.add_argument("--datum", default="kauffman", help="kauffman, trivial, or a datum file")
    p.set_defaults(fn=_cmd_datum)

    words = sub.add_parser("words", help="word combinatorics").add_subparsers(
        dest="subcommand", required=True
    )
    p = words.add_parser("factor", help="minimal alternating factorization")
    p.add_argument("word", help="a word, one character per letter")
    p.set_defaults(fn=_cmd_words_factor)

    star = sub.add_parser("star", help="free products of monoids").add_subparsers(
        dest="subcommand", required=True
    )
    p = star.add_parser("enum", help="enumerate a free product")
    p.add_argument("--left", default="z2", choices=sorted(_MONOIDS))
    p.add_argument("--right", default="z2", choices=sorted(_MONOIDS))
    p.add_argument("--bound", type=int, default=4)
    p.set_defaults(fn=_cmd_star_enum)

    seg = sub.add_parser("seg", help="Segal machinery").add_subparsers(
        dest="subcommand", required=True
    )
    p = seg.add_parser("complete", help="complete a preset simplicial datum")
    p.add_argument("--preset", default="pushout-z2-z2", choices=sorted(_PRESETS))
    p.add_argument("--budget", type=int, default=4)
    p.set_defaults(fn=_cmd_seg_complete)

    simplex = sub.add_parser("simplex", help="simplex-category operators").add_subparsers(
        dest="subcommand", required=True
    )
    p = simplex.add_parser("phi", help="outer hull of a convex subset along a map")
    p.add_argument("--map", required=True, help="comma-separated values of the map")
    p.add_argument("--target", type=int, required=True, help="p of the target simplex [p]")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.set_defaults(fn=_cmd_simplex_phi)

    return parser


USER_ERRORS = (
    ParseError,
    DiagramError,
    MoveError,
    EvaluationError,
    MonoidError,
    SimplexError,
    SimplicialError,
    OSError,
    UnicodeDecodeError,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return status
    except BrokenPipeError:  # an OSError, but the reader left: no user error
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())  # so the flush at exit cannot fail
        os.close(null)
        return 141
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        import traceback  # only a fault pays for the import
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
