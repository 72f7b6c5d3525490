import dataclasses
import functools
import itertools
import json
import random
import re
import shlex
import sys
import time
from pathlib import Path

import pytest

from tangles import cli, diagram, links, rewrite
from tangles.cli import (
    Gen,
    IdWord,
    Named,
    Par,
    ParseError,
    Seq,
    main,
    parse_expr,
    print_expr,
    to_diagram,
)
from tangles.diagram import (
    AmbientDim,
    Diagram,
    DiagramError,
    cap,
    compose,
    cross_neg,
    cross_pos,
    cup,
    elementary,
    tensor,
    validate,
)
from tangles.evaluate import datum_to_text, kauffman_datum, trivial_datum
from tangles.links import trefoil
from tangles.segal import complete

BRAIDED = AmbientDim.BRAIDED


def test_parse_generators():
    assert parse_expr("cup(0)") == Gen("cup", (0,))
    assert parse_expr("x+(0,-1)") == Gen("x+", (0, -1))
    assert parse_expr("id[0,1]") == IdWord((0, 1))
    assert parse_expr("id[]") == IdWord(())
    assert parse_expr("trefoil") == Named("trefoil")


def test_parse_precedence():
    e = parse_expr("id[0] | cup(0) ; cap(0) | id[0]")
    assert e == Seq(
        (Par((IdWord((0,)), Gen("cup", (0,)))), Par((Gen("cap", (0,)), IdWord((0,)))))
    )


def test_parse_parens():
    e = parse_expr("(cup(0) ; cap(0)) | id[]")
    assert isinstance(e, Par) and isinstance(e.members[0], Seq)


def test_parse_joins_a_group_that_starts_a_chain_of_its_kind():
    a, b, c = Gen("cup", (0,)), Gen("cap", (0,)), IdWord((0,))
    assert parse_expr("(cup(0) ; cap(0)) ; id[0]") == Seq((a, b, c))
    assert parse_expr("(cup(0) | cap(0)) | id[0]") == Par((a, b, c))
    assert parse_expr("cup(0) ; (cap(0) ; id[0])") == Seq((a, Seq((b, c))))
    for op in (";", "|"):
        assert len(parse_expr(f" {op} ".join(["id[0]"] * 3000)).members) == 3000


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr("cup(0) ; id[1] | cap? ")
    assert err.value.position == len("cup(0) ; id[1] | cap")
    with pytest.raises(ParseError):
        parse_expr("cup(0,1)")  # too many arguments
    with pytest.raises(ParseError):
        parse_expr("cup(0) cap(0)")  # missing operator


def random_expr(rng, depth=0):
    roll = rng.random()
    if depth > 3 or roll < 0.4:
        kind = rng.choice(["gen", "id", "named"])
        if kind == "gen":
            g = rng.choice(["cup", "cap", "x+", "x-"])
            args = (rng.randrange(-3, 4),) if g in ("cup", "cap") else (
                rng.randrange(-3, 4),
                rng.randrange(-3, 4),
            )
            return Gen(g, args)
        if kind == "id":
            return IdWord(tuple(rng.randrange(-3, 4) for _ in range(rng.randrange(0, 3))))
        return Named(rng.choice(["unknot", "trefoil", "hopf", "unlink"]))
    kind = Seq if roll < 0.7 else Par
    members = [random_expr(rng, depth + 1), random_expr(rng, depth + 1)]
    if type(members[0]) is kind:  # the parser's form: a first member of the chain's kind joins it
        members[:1] = members[0].members
    return kind(tuple(members))


def test_print_parse_roundtrip():
    rng = random.Random(67)
    for _ in range(300):
        e = random_expr(rng)
        assert parse_expr(print_expr(e)) == e
    for op in (";", "|"):
        text = f" {op} ".join(["id[0]"] * 3000)
        printed = print_expr(parse_expr(text))
        assert printed == text
        assert parse_expr(printed) == parse_expr(text)


def test_long_chains_compare_hash_and_print_without_recursion():
    assert repr(parse_expr("id[0] ; id[1] | cup(0)")) == (
        "Seq(members=(IdWord(labels=(0,)), "
        "Par(members=(IdWord(labels=(1,)), Gen(kind='cup', args=(0,))))))"
    )
    for op in (";", "|"):
        terms = ["id[0]"] * 3000
        a, b = parse_expr(f" {op} ".join(terms)), parse_expr(f" {op} ".join(terms))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != parse_expr(f" {op} ".join(terms[:-1] + ["id[1]"]))
        assert repr(a) == repr(b) and repr(a).count("IdWord(labels=(0,))") == 3000


# ---------------------------------------------------------------------------
# the parser against the token-kind parser it replaced


REFERENCE_TOKEN = re.compile(
    r"\s*(?:(?P<name>unknot|trefoil|hopf|unlink)"
    r"|(?P<gen>cup|cap|x\+|x-)"
    r"|(?P<id>id)"
    r"|(?P<int>-?\d+)"
    r"|(?P<punct>[();,|\[\]])"
    r"|(?P<bad>\S))"
)


def reference_tokenize(text):
    tokens = []
    for m in REFERENCE_TOKEN.finditer(text):  # every non-space character starts a match
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    return tokens


@dataclasses.dataclass(frozen=True)
class Bin:
    """The reference parser's node: one ";" or "|" between two operands."""

    op: str
    first: object
    second: object


def flattened(e):
    """A reference tree as chains: each left spine of one operator is one
    Seq or Par, members in order."""
    if not isinstance(e, Bin):
        return e
    op, members = e.op, []
    while isinstance(e, Bin) and e.op == op:
        members.append(flattened(e.second))
        e = e.first
    members.append(flattened(e))
    return (Seq if op == ";" else Par)(tuple(reversed(members)))


class ReferenceParser:
    """(kind, value, position) tokens read through peek and take."""

    def __init__(self, text):
        self.text = text
        self.tokens = reference_tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self, kind=None, value=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        if value is not None and tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])
        self.index += 1
        return tok

    def parse(self):
        enclosing = []
        seq = par = None
        while True:
            tok = self.peek()
            if tok is not None and tok[1] == "(":
                self.take()
                enclosing.append((seq, par))
                seq = par = None
                continue
            factor = self.atom()
            par = factor if par is None else Bin("|", par, factor)
            while True:
                tok = self.peek()
                if tok is not None and tok[1] == "|":
                    self.take()
                    break
                e = par if seq is None else Bin(";", seq, par)
                if tok is not None and tok[1] == ";":
                    self.take()
                    seq, par = e, None
                    break
                if not enclosing:
                    if tok is not None:
                        raise ParseError(f"unexpected {tok[1]!r}", tok[2])
                    return e
                self.take("punct", ")")
                seq, par = enclosing.pop()
                par = e if par is None else Bin("|", par, e)

    def ints(self, count):
        out = [int(self.take("int")[1])]
        for _ in range(count - 1):
            self.take("punct", ",")
            out.append(int(self.take("int")[1]))
        return tuple(out)

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        kind, value, pos = tok
        if kind == "name":
            self.take()
            return Named(value)
        if kind == "gen":
            self.take()
            self.take("punct", "(")
            args = self.ints(1 if value in ("cup", "cap") else 2)
            self.take("punct", ")")
            return Gen(value, args)
        if kind == "id":
            self.take()
            self.take("punct", "[")
            labels = ()
            if self.peek() and self.peek()[1] != "]":
                labels = (int(self.take("int")[1]),)
                while self.peek() and self.peek()[1] == ",":
                    self.take()
                    labels += (int(self.take("int")[1]),)
            self.take("punct", "]")
            return IdWord(labels)
        raise ParseError(f"unexpected {value!r}", pos)


def parsed(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.position


MUTATION_PIECES = [
    *("cup", "cap", "x+", "x-", "id", "unknot", "trefoil", "hopf", "unlink"),
    *"();,|[]",
    *("0", "7", "-1", "12", "٣", " ", "\t"),
    *("?", "-", "+", "x", "u", "i", "d", "²", "é"),
]


def mutated(rng, text):
    """text with one piece deleted, one token or stray character inserted
    or put in place of a character, or cut short."""
    p = rng.randrange(len(text) + 1)
    way = rng.randrange(4)
    if way == 0:
        return text[:p] + text[p + rng.randrange(1, 4) :]
    if way == 1:
        return text[:p] + rng.choice(MUTATION_PIECES) + text[p:]
    if way == 2:
        return text[:p] + rng.choice(MUTATION_PIECES) + text[p + 1 :]
    return text[:p]


def test_parser_matches_the_reference_on_mutated_expressions():
    rng = random.Random(18)
    texts = [text for text, _ in bench_expressions()]
    texts += [print_expr(random_expr(rng)) for _ in range(200)]
    texts += ["cup(0) ; id[1] | cap? ", "(cup(0) ; cap(0)) | id[]", "x+(0,-1)", zigzag_chain(6)]
    outcomes = {True: 0, False: 0}
    for _ in range(12000):
        text = rng.choice(texts)
        if len(text) > 300:  # long chains: a prefix, which is itself a truncation
            text = text[: rng.randrange(300)]
        text = mutated(rng, text)
        got = parsed(parse_expr, text)
        assert got == parsed(lambda t: flattened(ReferenceParser(t).parse()), text), repr(text)
        outcomes[isinstance(got, tuple)] += 1
    assert min(outcomes.values()) > 1000  # both trees and errors were compared


def test_to_diagram_zigzag():
    d = to_diagram(parse_expr("id[0] | cup(0) ; cap(0) | id[0]"), AmbientDim.PLANAR)
    assert d.source == (0,) and d.target == (0,)
    assert d.slices[0].output() == (0, 1, 0)


def test_to_diagram_builtin_validated():
    d = to_diagram(parse_expr("trefoil"), BRAIDED)
    assert d == trefoil()


def folded(e, dim):
    """The reference builder: a recursive fold through compose and tensor."""
    if isinstance(e, Gen):
        event = {
            "cup": lambda: cup(e.args[0]),
            "cap": lambda: cap(e.args[0]),
            "x+": lambda: cross_pos(*e.args),
            "x-": lambda: cross_neg(*e.args),
        }[e.kind]()
        return elementary(event, dim)
    if isinstance(e, IdWord):
        return Diagram.identity(e.labels)
    if isinstance(e, Named):
        d = links.BUILTINS[e.name]()
        if not dim.allows_crossings:
            raise DiagramError(f"builtin {e.name!r} has crossings, illegal for n=2")
        return d
    parts = (folded(m, dim) for m in e.members)
    return functools.reduce(compose if isinstance(e, Seq) else tensor, parts)


def built(build, e, dim):
    try:
        return build(e, dim)
    except DiagramError as exc:
        return type(exc), str(exc)


def bench_expressions():
    """Every diagram expression the benchmark runs, with its dimension."""
    path = Path(__file__).resolve().parent.parent / "bench" / "expected.json"
    out = set()
    for key in json.loads(path.read_text(encoding="utf-8")):
        if key.startswith("equal "):
            first, second = key.split(" [", 1)[1][:-1].split("] [")
            out.update(((first, 3), (second, 3)))
            continue
        argv = shlex.split(key)[1:]
        if argv[0] in ("invariant", "eval", "normalize", "validate"):
            dim = int(argv[argv.index("--dim") + 1]) if "--dim" in argv else 3
            out.add((argv[-1], dim))
    return sorted(out)


def test_to_diagram_matches_the_fold():
    rng = random.Random(2024)
    cases = [random_expr(rng) for _ in range(400)]
    dims = (AmbientDim.PLANAR, AmbientDim.BRAIDED, AmbientDim.SYMMETRIC)
    outcomes = set()
    for e in cases:
        for dim in dims:
            got = built(to_diagram, e, dim)
            assert got == built(folded, e, dim), print_expr(e)
            outcomes.add(type(got))
            # the CLI validates nothing after to_diagram: nothing is left to find
            assert not isinstance(got, Diagram) or validate(got, dim).valid, print_expr(e)
    assert outcomes == {Diagram, tuple}  # both results and errors were compared
    exprs = bench_expressions()
    assert len(exprs) > 400
    for text, dim in exprs:
        e = parse_expr(text)
        assert isinstance(to_diagram(e, AmbientDim.from_dimension(dim)), Diagram), text
        for other in dims:
            got = built(to_diagram, e, other)
            assert got == built(folded, e, other), text
            assert not isinstance(got, Diagram) or validate(got, other).valid, text


def expression_text(d):
    """A diagram as expression text: one ";" term per slice, each a "|"
    chain of its events' generators and identity words between them."""
    terms = []
    for s in d.slices:
        factors, p = [], 0
        for e in s.events:
            if e.position > p:
                factors.append(f"id[{','.join(map(str, s.input[p:e.position]))}]")
            factors.append(f"{e.kind.value}({','.join(map(str, e.labels))})")
            p = e.position + e.arity_in
        if p < len(s.input):
            factors.append(f"id[{','.join(map(str, s.input[p:]))}]")
        terms.append(" | ".join(factors))
    return " ; ".join(terms) or f"id[{','.join(map(str, d.source))}]"


def test_to_diagram_matches_the_side_by_side_reference():
    from test_diagram import random_factors, side_by_side_reference

    rng = random.Random(89)
    unequal = nested_unequal = 0
    for _ in range(600):
        dim, factors = random_factors(rng, rng.randrange(2, 5))
        texts = [f"({expression_text(d)})" for d in factors]
        if dim is not AmbientDim.PLANAR and rng.random() < 0.3:  # a builtin among them
            name = rng.choice(sorted(links.BUILTINS))
            at = rng.randrange(len(factors) + 1)
            texts.insert(at, name)
            factors.insert(at, links.BUILTINS[name]())
        nested = rng.random() < 0.3  # the last two as one parenthesized member
        text = " | ".join(texts[:-2] + [f"({texts[-2]} | {texts[-1]})"] if nested else texts)
        want = side_by_side_reference(factors)
        assert to_diagram(parse_expr(text), dim) == want, text
        if len({len(d.slices) for d in factors}) > 1:
            unequal += 1
            nested_unequal += nested
    assert unequal > 450 and nested_unequal > 100


def named_leaves(e):
    out, todo = [], [e]
    while todo:
        e = todo.pop()
        if isinstance(e, (Seq, Par)):
            todo += e.members
        elif isinstance(e, Named):
            out.append(e.name)
    return out


def test_to_diagram_types_each_slice_once(monkeypatch):
    counts = {"slices": 0, "diagrams": 0}
    real_slice, real_diagram = diagram.Slice.__post_init__, diagram.Diagram.__post_init__

    def counting_slice(self):
        counts["slices"] += 1
        real_slice(self)

    def counting_diagram(self):
        counts["diagrams"] += 1
        real_diagram(self)

    monkeypatch.setattr(diagram.Slice, "__post_init__", counting_slice)
    monkeypatch.setattr(diagram.Diagram, "__post_init__", counting_diagram)

    def cost(build, *args):
        counts.update(slices=0, diagrams=0)
        result = build(*args)
        return result, dict(counts)

    builtin = {name: cost(make)[1] for name, make in links.BUILTINS.items()}
    rng = random.Random(5)
    cases = [random_expr(rng) for _ in range(300)]
    cases += [parse_expr(text) for text, dim in bench_expressions() if dim == 3]
    checked = 0
    for e in cases:
        try:
            d, used = cost(to_diagram, e, BRAIDED)
        except DiagramError:
            continue
        names = named_leaves(e)
        assert used["slices"] == len(d.slices) + sum(builtin[n]["slices"] for n in names)
        assert used["diagrams"] == 1 + sum(builtin[n]["diagrams"] for n in names)
        checked += 1
    assert checked > 400


def zigzag_chain(terms):
    right = ("id[0] | cup(0)", "cap(0) | id[0]")
    left = ("cup(-1) | id[0]", "id[0] | cap(-1)")
    return " ; ".join((right if i % 4 < 2 else left)[i % 2] for i in range(terms))


def test_cli_long_chains_and_deep_nesting(capsys):
    # each of these ran out of recursion depth when the front end recursed
    chain = zigzag_chain(2400)
    assert chain.count(";") == 2399
    assert run(capsys, "normalize", "--dim", "3", chain) == (0, "source: 0\n", "")
    assert run(capsys, "normalize", "--dim", "2", chain)[0] == 0
    wide = " | ".join(["id[0]"] * 1100)
    code, out, _ = run(capsys, "validate", wide)
    assert code == 0 and out.splitlines()[1] == "source: " + " ".join(["0"] * 1100)
    code, out, _ = run(capsys, "validate", "(" * 1000 + "id[0]" + ")" * 1000)
    assert code == 0 and out.splitlines()[:2] == ["ok", "source: 0"]
    unclosed = "(" * 1000 + "id[0]"
    code, _, err = run(capsys, "validate", unclosed)
    assert code == 1
    assert err == f"error: syntax error at position {len(unclosed)}: unexpected end of input\n"


def test_cli_nested_right_chains(capsys):
    # a ; (b ; (c ; ...)) and a | (b | (c | ...)) nest to the right, 800 deep
    depth = 800

    def nested(op, terms):  # terms[0] op (terms[1] op (... op (terms[-2] op terms[-1])))
        return f" {op} (".join(terms[:-1]) + f" {op} {terms[-1]}" + ")" * (len(terms) - 2)

    seq = nested(";", zigzag_chain(depth).split(" ; "))
    e = parse_expr(seq)
    assert isinstance(e, Seq) and len(e.members) == 2 and isinstance(e.members[1], Seq)
    code, out, _ = run(capsys, "normalize", "--dim", "2", seq)
    assert (code, out) == (0, "source: 0\ntarget: 0\narc: source[0](0) -- target[0](0)\n")
    par = nested("|", ["cup(0)"] * depth)
    code, out, _ = run(capsys, "validate", par)
    assert code == 0 and out.splitlines()[2] == "target: " + " ".join(["1 0"] * depth)
    for text in (seq, par):  # texts, not trees: == on trees this deep recurses
        assert print_expr(parse_expr(text)) == text


def test_cli_planar_normalize_traces_once(capsys, monkeypatch):
    calls = []
    real = diagram.trace_components
    counting = lambda d: calls.append(d) or real(d)
    monkeypatch.setattr(diagram, "trace_components", counting)
    monkeypatch.setattr(rewrite, "trace_components", counting)
    for expr in ("id[0] | cup(0) ; cap(0) | id[0]", zigzag_chain(160), "cup(3) | id[1]", "id[]"):
        calls.clear()
        code, out, _ = run(capsys, "normalize", "--dim", "2", expr)
        assert code == 0 and out.startswith("source: ")
        assert len(calls) == 1
    code, _, err = run(capsys, "normalize", "--dim", "2", "cup(0) ; x+(1,0)")
    assert code == 1 and err == "error: crossings are not allowed in the planar ambient dimension\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_validate(capsys):
    code, out, _ = run(capsys, "validate", "--dim", "2", "id[0] | cup(0) ; cap(0) | id[0]")
    assert code == 0
    assert out.splitlines()[0] == "ok"


def test_cli_validate_rejects_planar_crossing(capsys):
    code, out, err = run(capsys, "validate", "--dim", "2", "x+(0,0)")
    assert code == 1


def test_cli_validate_label_window(capsys):
    code, out, _ = run(capsys, "validate", "--dim", "3", "--window", "0,1", "cup(1)")
    assert code == 1 and "window" in out
    code, out, _ = run(capsys, "validate", "--dim", "3", "--window", "0,2", "cup(1)")
    assert code == 0


def test_cli_syntax_error(capsys):
    code, _, err = run(capsys, "eval", "cup(")
    assert code == 1 and "syntax error" in err


def test_cli_boundary_mismatch(capsys):
    code, _, err = run(capsys, "eval", "cup(0) ; cap(1)")
    assert code == 1 and "compose" in err


def test_cli_eval_unknot(capsys):
    code, out, _ = run(capsys, "eval", "--dim", "3", "--datum", "kauffman", "unknot")
    assert code == 0
    assert out.strip() == "A^5+A"  # -A^3 * delta: the minimal unknot has one kink


def test_cli_eval_matrix_output(capsys):
    code, out, _ = run(capsys, "eval", "--dim", "3", "id[0]")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "matrix 2x2"
    assert lines[1].split() == ["1", "0"] and lines[2].split() == ["0", "1"]


def test_cli_normalize_planar(capsys):
    code, out, _ = run(capsys, "normalize", "--dim", "2", "id[0] | cup(0) ; cap(0) | id[0]")
    assert code == 0
    assert "arc: source[0](0) -- target[0](0)" in out


def test_cli_normalize_braided(capsys):
    code, out, _ = run(capsys, "normalize", "--dim", "3", "x+(0,1) ; x-(1,0)")
    assert code == 0
    assert out == "source: 0 1\n"


def test_cli_invariant_values(capsys):
    code, out1, _ = run(capsys, "invariant", "trefoil")
    assert code == 0
    fields = dict(line.split(": ", 1) for line in out1.strip().splitlines())
    assert fields["components"] == "1"
    assert fields["writhe"] == "3"
    code, out2, _ = run(capsys, "invariant", "hopf")
    fields2 = dict(line.split(": ", 1) for line in out2.strip().splitlines())
    assert fields2["writhe"] == "2"
    assert fields2["normalized"] == "-A^-2-A^-10"


def test_cli_invariant_mirror_pair(capsys):
    # the trefoil expression with all crossings flipped is its mirror; the
    # two normalized values are exchanged by A -> A^-1
    from tangles.rings import Laurent

    expr = (
        "cup(0) ; id[1,0] | cup(1) ; id[1] | x+(0,2) | id[1] ; "
        "id[1] | x+(2,0) | id[1] ; id[1] | x+(0,2) | id[1] ; "
        "cap(1) | id[0,1] ; cap(0)"
    )
    flipped = expr.replace("x+", "x-")
    _, out1, _ = run(capsys, "invariant", expr)
    _, out2, _ = run(capsys, "invariant", flipped)
    v1 = Laurent.parse(dict(l.split(": ", 1) for l in out1.strip().splitlines())["normalized"])
    v2 = Laurent.parse(dict(l.split(": ", 1) for l in out2.strip().splitlines())["normalized"])
    assert v2 == v1.substitute_inverse()


def test_cli_invariant_one_evaluation(capsys, monkeypatch):
    # the bracket is read from one evaluation, inside evaluate.bracket; the
    # state sum is only an oracle.  The package exports a function named
    # ``evaluate``, so the modules are taken from sys.modules
    cli_module, evaluate_module = sys.modules["tangles.cli"], sys.modules["tangles.evaluate"]
    assert not hasattr(cli_module, "bracket_state_sum")
    sums, evaluations = [], []
    real_sum, real_evaluate = evaluate_module.bracket_state_sum, evaluate_module.evaluate
    monkeypatch.setattr(
        evaluate_module, "bracket_state_sum", lambda d: sums.append(d) or real_sum(d)
    )
    monkeypatch.setattr(
        evaluate_module,
        "evaluate",
        lambda d, datum: evaluations.append(d) or real_evaluate(d, datum),
    )
    for name in ("unknot", "trefoil", "hopf"):
        sums.clear()
        evaluations.clear()
        code, out, _ = run(capsys, "invariant", name)
        assert code == 0 and "normalized: " in out
        assert sums == []
        assert len(evaluations) == 1


def test_cli_eval_validates_a_preset_once(tmp_path, capsys, monkeypatch):
    module = sys.modules["tangles.cli"]
    calls = []
    real = module.validate_datum
    monkeypatch.setattr(module, "validate_datum", lambda d, dim: calls.append(d) or real(d, dim))
    run(capsys, "eval", "--datum", "kauffman", "unknot")  # validated here unless cached already
    calls.clear()
    for name in ("unknot", "trefoil"):
        code, out, _ = run(capsys, "eval", "--datum", "kauffman", name)
        assert code == 0 and out.strip()
    assert calls == []
    path = tmp_path / "k.datum"
    path.write_text(datum_to_text(kauffman_datum()))
    for _ in range(2):  # a datum file is read and validated on every call
        assert run(capsys, "eval", "--datum", str(path), "unknot")[0] == 0
    assert len(calls) == 2


def test_cli_invariant_deterministic(capsys):
    _, out1, _ = run(capsys, "invariant", "trefoil")
    _, out2, _ = run(capsys, "invariant", "trefoil")
    assert out1 == out2


def test_cli_invariant_rejects_open(capsys):
    code, _, err = run(capsys, "invariant", "id[0]")
    assert code == 1 and "closed" in err


def test_cli_datum_file(tmp_path, capsys):
    path = tmp_path / "k.datum"
    path.write_text(datum_to_text(kauffman_datum()))
    code, out_file, _ = run(capsys, "eval", "--datum", str(path), "trefoil")
    assert code == 0
    code, out_preset, _ = run(capsys, "eval", "--datum", "kauffman", "trefoil")
    assert out_file == out_preset


def test_cli_datum_validate(capsys):
    code, out, _ = run(capsys, "datum", "--datum", "kauffman")
    assert code == 0
    assert "Yang-Baxter" in out


def test_cli_datum_without_a_braiding_fails_where_crossings_are(tmp_path, capsys):
    path = tmp_path / "planar.datum"
    path.write_text(datum_to_text(dataclasses.replace(kauffman_datum(), braiding=None, braiding_inv=None)))
    assert "c: none" in path.read_text()
    code, out, _ = run(capsys, "datum", "--dim", "2", "--datum", str(path))
    assert code == 0 and "braiding" not in out
    code, out, _ = run(capsys, "datum", "--dim", "3", "--datum", str(path))
    assert code == 1
    assert [ln for ln in out.splitlines() if ln.startswith("FAIL")] == [
        "FAIL braiding present (required for BRAIDED)"
    ]


def test_cli_words_factor(capsys):
    code, out, _ = run(capsys, "words", "factor", "0110")
    assert code == 0 and out.strip() == "01 10"


def test_cli_star_enum(capsys):
    code, out, _ = run(capsys, "star", "enum", "--left", "z2", "--right", "z2", "--bound", "5")
    assert code == 0
    assert out.splitlines()[0] == "total: 11"


def test_cli_star_enum_deeper_than_the_recursion_limit(capsys):
    # 1,200 alternating letters: the enumeration keeps its own stack
    code, out, err = run(capsys, "star", "enum", "--left", "z2", "--right", "z2", "--bound", "1200")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "total: 2401"


def _star_listing_by_objects(left, right, bound):
    """star enum as it was first written: one FreeProductElement per
    element, sorted on (alternation length, str), then printed a line at
    a time."""
    from tangles.cli import _MONOIDS
    from tangles.words import free_product_enumerate

    elements = free_product_enumerate(_MONOIDS[left](), _MONOIDS[right](), bound)
    by_length = {}
    for e in elements:
        by_length[e.alternation_length()] = by_length.get(e.alternation_length(), 0) + 1
    lines = [f"total: {len(elements)}"]
    lines += [f"length {length}: {by_length[length]}" for length in sorted(by_length)]
    lines += [str(e) for e in sorted(elements, key=lambda e: (e.alternation_length(), str(e)))]
    return "".join(line + "\n" for line in lines)


def test_cli_star_enum_matches_the_object_listing_for_every_monoid_pair(capsys):
    from tangles.cli import _MONOIDS
    from tangles.words import free_product_totals

    for left, right in itertools.product(sorted(_MONOIDS), repeat=2):
        top = 8 if "free" in left + right else 10
        for bound in range(top + 1):
            argv = ("star", "enum", "--left", left, "--right", right, "--bound", str(bound))
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert out == _star_listing_by_objects(left, right, bound), (left, right, bound)
            *_, (_, count, _) = free_product_totals(_MONOIDS[left](), _MONOIDS[right](), bound)
            assert out.startswith(f"total: {count}\n"), (left, right, bound)


def test_cli_star_enum_refuses_more_elements_than_the_limit_before_listing(capsys, monkeypatch):
    from tangles import words

    # Z/4 * Z/3 has 205,584,996 elements of alternation length <= 20
    code, out, err = run(capsys, "star", "enum", "--left", "z4", "--right", "z3", "--bound", "20")
    assert (code, out) == (1, "")
    assert err == "error: 2351460 elements of weight <= 15 exceed 1048576\n"
    # counting stops at the first weight past the limit, whatever the bound
    code, out, err = run(capsys, "star", "enum", "--left", "z4", "--right", "z3", "--bound", "12000")
    assert (code, out) == (1, "")
    assert err == "error: 2351460 elements of weight <= 15 exceed 1048576\n"
    # a listing of exactly the limit is listed, and one element more is refused
    argv = ("star", "enum", "--left", "z4", "--right", "z2", "--bound", "12")
    monkeypatch.setattr(words, "LISTING_LIMIT", 3641)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.splitlines()[0] == "total: 3641"
    monkeypatch.setattr(words, "LISTING_LIMIT", 3640)
    assert run(capsys, *argv) == (1, "", "error: 3641 elements of weight <= 12 exceed 3640\n")


@pytest.mark.parametrize(
    "left, right, bound, message",
    [
        ("free-x", "trivial", 100000, "67109493 characters of text for weight <= 5180 exceed 67108864"),
        ("z4", "z3", 1000000, "2351460 elements of weight <= 15 exceed 1048576"),
    ],
    ids=["text-limit", "element-limit"],
)
def test_cli_star_enum_refuses_at_the_first_weight_past_a_limit(capsys, left, right, bound, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "star", "enum", "--left", left, "--right", right, "--bound", str(bound))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert time.perf_counter() - start < 3


def test_cli_star_enum_builds_each_monoid_once(capsys, monkeypatch):
    built = []
    makers = {name: (lambda name=name, make=make: built.append(name) or make()) for name, make in cli._MONOIDS.items()}
    monkeypatch.setattr(cli, "_MONOIDS", makers)
    cli._monoid.cache_clear()
    try:
        for bound, total in ((3, 23), (4, 41)):
            code, out, _ = run(capsys, "star", "enum", "--left", "z4", "--right", "z2", "--bound", str(bound))
            assert code == 0 and out.splitlines()[0] == f"total: {total}"
        assert sorted(built) == ["z2", "z4"]
    finally:
        cli._monoid.cache_clear()


def test_cli_star_enum_refuses_a_negative_bound(capsys):
    code, out, err = run(capsys, "star", "enum", "--left", "z4", "--right", "z2", "--bound", "-1")
    assert (code, out, err) == (1, "", "error: weight bound must be >= 0, got -1\n")


def test_cli_star_enum_builds_no_element(capsys, monkeypatch):
    # the listing spells each element from its parent's text: no
    # FreeProductElement is built, so none is turned into text either
    from tangles import words

    def refuse(*args, **kwargs):
        raise AssertionError("star enum built a FreeProductElement")

    monkeypatch.setattr(words.FreeProductElement, "__post_init__", refuse)
    monkeypatch.setattr(words.FreeProductElement, "__str__", refuse)
    code, out, _ = run(capsys, "star", "enum", "--left", "z3", "--right", "free-x", "--bound", "6")
    assert code == 0 and out.splitlines()[0] == "total: 169"


def test_cli_star_enum_exits_141_quietly_when_the_reader_closes_stdout(capsys, monkeypatch, tmp_path):
    import io
    import os

    class ClosedPipe(io.TextIOBase):
        """A stdout whose reader has gone, over a file descriptor of its own."""

        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr("sys.stdout", ClosedPipe(fh.fileno()))
        code = main(["star", "enum", "--left", "z4", "--right", "z2", "--bound", "12"])
        # what is left to flush at exit goes to the null device
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    monkeypatch.undo()
    assert code == 141
    assert capsys.readouterr().err == ""


def test_cli_seg_complete(capsys):
    code, out, _ = run(capsys, "seg", "complete", "--preset", "nerve-z3", "--budget", "4")
    assert code == 0
    assert "3 classes" in out and "stabilized: True" in out


def _completion_text(comp) -> str:
    """What ``seg complete`` prints for a completion."""
    pres = comp.presentation
    lines = [f"objects: {len(pres.objects)}", f"generators: {len(pres.generators)}",
             f"relations: {len(pres.relations)}"]
    lines += [f"hom {x} -> {y}: {n} classes" for (x, y), n in sorted(comp.class_counts.items(), key=repr)]
    return "\n".join(lines + [f"stabilized: {comp.stabilized}", ""])


def test_cli_seg_complete_builds_each_preset_once(capsys, monkeypatch):
    fresh = dict(cli._PRESETS)
    builds = []
    for name, build in fresh.items():
        monkeypatch.setitem(cli._PRESETS, name, lambda name=name, build=build: builds.append(name) or build())
    cli._preset.cache_clear()
    try:
        for name in sorted(fresh):
            for budget in range(8):
                argv = ("seg", "complete", "--preset", name, "--budget", str(budget))
                want = (0, _completion_text(complete(fresh[name](), budget)), "")
                assert run(capsys, *argv) == want and run(capsys, *argv) == want, (name, budget)
        assert builds == sorted(fresh)  # each preset once, on its first call
        for name in fresh:  # while the builders still return fresh data
            assert cli._PRESETS[name]() is not cli._preset(name) is cli._preset(name)
    finally:
        cli._preset.cache_clear()


def test_cli_seg_complete_prints_a_count_past_the_int_digit_limit(capsys):
    # at budget 30,000 a class count has 4,517 digits, past the default
    # limit (4,300) on int-to-str conversion: it is printed whole, and the
    # limit is left in force for user text
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "seg", "complete", "--preset", "pushout-z2-z3", "--budget", "30000")
    assert (code, err) == (0, "")
    line = next(line for line in out.splitlines() if line.startswith("hom "))
    digits = line.removeprefix("hom ('U', 0) -> ('U', 0): ").removesuffix(" classes")
    assert len(digits) > 4300 and digits.isdigit()
    value = 0
    for i in range(0, len(digits), 500):  # read back in chunks below any limit
        value = value * 10 ** len(digits[i : i + 500]) + int(digits[i : i + 500])
    assert value == complete(cli._PRESETS["pushout-z2-z3"](), 30000).class_count(("U", 0), ("U", 0))
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    if limit:  # the interpreter limits conversion: a 5,000-digit label is refused
        code, _, err = run(capsys, "validate", f"cup({'1' * 5000})")
        assert code == 1 and err.startswith("error: syntax error at position 4")


def test_cli_simplex_phi(capsys):
    code, out, _ = run(capsys, "simplex", "phi", "--map", "1,2", "--target", "3", "--lo", "2", "--hi", "2")
    assert code == 0 and out.strip() == "[2,2]"


def test_cli_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("unknot"))
    code, out, _ = run(capsys, "invariant")
    assert code == 0 and "writhe: 1" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("seg", "complete", "--preset", "nerve-z3", "--budget", "-1"),
        ("star", "enum", "--left", "z2", "--right", "z2", "--bound", "-1"),
        ("eval", "--dim", "4", "--datum", "kauffman", "unknot"),  # c^2 != 1
        ("invariant", "id[]"),  # no strands: the bracket would be delta^-1
        ("invariant", "--dim", "4", "trefoil"),  # the two crossings are identified
        ("validate", "--window", "1", "unknot"),
        ("simplex", "phi", "--map", "0,x", "--target", "1", "--lo", "0", "--hi", "0"),
    ],
)
def test_cli_rejects_bad_input(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("error: ")


def test_cli_datum_file_unknown_ring(tmp_path, capsys):
    text = datum_to_text(trivial_datum())
    assert "ring: int\n" in text
    path = tmp_path / "foo.datum"
    path.write_text(text.replace("ring: int\n", "ring: foo\n"))
    code, _, err = run(capsys, "eval", "--datum", str(path), "unknot")
    assert code == 1 and err.startswith("error: ") and "ring" in err


@pytest.mark.parametrize(
    "old, new",
    [
        ("rank: 1\n", ""),
        ("rank: 1\n", "rank: x\n"),
        ("rank: 1\n", "rank: -1\n"),
        ("rank: 1\n", "rank: 0\n"),
        ("symmetric: 1\n", "symmetric: yes\n"),
        ("b: 1\n", "b: x\n"),
        ("b: 1\n", "b: 1 1\n"),
        ("ring: int\nrank: 1\nsymmetric: 1\nb: 1\n", "ring: rational\nrank: 1\nsymmetric: 1\nb: 1/0\n"),
        ("c: 1\nc^-1: 1\n", "c: none\nc^-1: x\n"),
        ("c: 1\nc^-1: 1\n", "c: none\n"),
        ("b: 1\n", "b: garbage ((\nb: 1\n"),
        ("b: 1\n", "b: 1\nfrobnicate: 1\n"),
    ],
    ids=[
        "missing-field", "rank-x", "rank-negative", "rank-zero", "flag-x", "bad-entry", "entry-count", "zero-denominator",
        "c-inverse-garbage", "c-inverse-missing", "repeated-key", "unknown-key",
    ],
)
def test_cli_rejects_malformed_datum_file(tmp_path, capsys, old, new):
    text = datum_to_text(trivial_datum())
    assert old in text
    path = tmp_path / "bad.datum"
    path.write_text(text.replace(old, new))
    code, _, err = run(capsys, "eval", "--datum", str(path), "unknot")
    assert code == 1 and err.startswith("error: ")


def test_cli_rejects_a_repeated_exponent_in_a_kauffman_datum_entry(tmp_path, capsys):
    golden = (Path(__file__).parent / "golden" / "kauffman.datum").read_text()
    path = tmp_path / "golden.datum"
    path.write_text(golden)
    assert run(capsys, "eval", "--datum", str(path), "trefoil")[0] == 0
    assert "\nc: {-1:1} " in golden
    path.write_text(golden.replace("\nc: {-1:1} ", "\nc: {-1:5,-1:1} "))
    code, out, err = run(capsys, "eval", "--datum", str(path), "trefoil")
    assert code == 1 and out == "" and err.startswith("error: bad laurent value '{-1:5,-1:1}'")


def test_cli_rejects_unreadable_files(tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00")
    for argv in (
        ("eval", "--datum", str(tmp_path), "unknot"),  # a directory
        ("eval", "--datum", str(binary), "unknot"),
        ("normalize", "--file", str(tmp_path / "missing")),
        ("normalize", "--file", str(binary)),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error: "), argv


def test_cli_internal_fault_exits_2(capsys, monkeypatch):
    def broken(d, datum):
        raise KeyError("lost")

    monkeypatch.setattr(sys.modules["tangles.cli"], "evaluate", broken)
    code, _, err = run(capsys, "eval", "unknot")
    assert code == 2 and err.startswith("internal error: KeyError")
    assert "Traceback" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--dim", "x", "unknot"),
        ("seg", "complete", "--preset", "nope"),
        ("frobnicate",),
        ("datum", "id[]"),  # datum reads no expression
        ("datum", "cup(((", "--file", "/nonexistent"),
    ],
)
def test_cli_usage_error_exits_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1 and "error: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, prog",
    [
        (("datum", "--dim", "3", "id[]"), "tangles datum"),
        (("seg", "complete", "--budget", "3", "zzz"), "tangles seg complete"),
        (("validate", "id[0]", "id[1]"), "tangles validate"),
    ],
)
def test_cli_subcommand_reports_its_own_unrecognized_arguments(capsys, argv, prog):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    lines = capsys.readouterr().err.splitlines()
    assert exc.value.code == 1
    assert lines[0].startswith(f"usage: {prog} ")
    assert lines[-1] == f"{prog}: error: unrecognized arguments: {argv[-1]}"


def test_cli_eval_refuses_a_wide_group_at_once(capsys):
    # twelve unknots in a chain, each linked to the next by a double
    # crossing: one group of 24 strands, 2^24 words at rank 2
    def ids(word):
        return "id[" + ",".join(map(str, word)) + "]"

    m, word = 12, (1, 0) * 12
    terms = [" | ".join(["cup(0)"] * m)]
    for i in range(m - 1):
        for x in ("x+(0,1)", "x+(1,0)"):
            terms.append(f"{ids(word[: 2 * i + 1])} | {x} | {ids(word[2 * i + 3 :])}")
    for i in range(m):
        terms += [f"x+(1,0) | {ids(word[2 * i + 2 :])}", f"cap(0) | {ids(word[2 * i + 2 :])}"]
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--dim", "3", "--datum", "kauffman", " ; ".join(terms))
    assert time.perf_counter() - start < 0.1
    assert code == 1 and out == "" and "2^24 words exceed" in err
    code, out, _ = run(capsys, "eval", "--dim", "3", "--datum", "trivial", " ; ".join(terms))
    assert code == 0 and out == "1\n"
