"""Set-valued simplicial data, the Segal condition, completion into a
category presentation, and a truncated colimit computing the same thing.

A ``SimplicialData`` stores finite levels X_0 ... X_K together with all
face and degeneracy maps in that range; the simplicial identities are
checked at construction, one simplex at a time.  The standard inputs
(monoid nerves, their pushouts, interval posets and graphs) are built
from face and degeneracy formulas.  ``act`` evaluates the contravariant
action of an arbitrary monotone map from one table per operator, built
on first use by factoring the map into faces and degeneracies.

``is_segal`` tests whether level p is exactly the set of p-chains of
composable edges, read from a cut fiber product.  ``complete`` builds the
category presented by the nondegenerate edges modulo the triangle
relations read off level 2 (with degenerate edges as identities), and
counts its hom-sets up to a word-length budget.  When the relations,
oriented by shortlex, form a convergent rewriting system (every critical
pair resolves), the classes are the irreducible words and are counted
without building any word; otherwise the bounded generator words are
closed by congruence closure.  Whether the count stopped growing below
the budget is reported, never assumed; it is exact on the counted route.

``cut_fiber_product`` evaluates, for a monotone map f into [a], the
iterated fiber product of the levels over the convex pieces into which
the values of f cut [a]; the pieces agree with the outer hulls (from
:mod:`tangles.simplex`) of the one-point and unit-interval subsets of [a].
``colimit_truncated`` glues these sets over all pairs (f, anchor) with
bounded simplex sizes into zigzag classes, on maps given by their value
tuples; on inputs satisfying the Segal condition it reproduces level p
on the nose, and in general it grows towards the completion's hom-sets
as the bound rises.  The moves that keep the ambient simplex need no
union-find: they join a (phi, chain) item exactly to the items with the
same restriction to the spine of the ambient (its element of the cut
fiber product of the identity), so that spine chain names its class.  One
union-find then joins (spine chain, anchor) nodes along the moves that
change the ambient, once per elementary map, and whether the classes
stabilized is read from it after the moves within bound N - 1 and before
the rest.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Sequence

from .simplex import ConvexSubset, MonotoneMap, SimplexObject, elementary_maps
from .unionfind import UnionFind
from .words import PointedMonoid


CLOSE_LIMIT = 1 << 17  # the most generator words _close_words may build


class SimplicialError(ValueError):
    """Raised on malformed simplicial data."""


@dataclass
class SimplicialData:
    """Finite sets X_0..X_K with face and degeneracy maps."""

    levels: tuple[tuple[Hashable, ...], ...]
    faces: dict[tuple[int, int], dict]
    degeneracies: dict[tuple[int, int], dict]

    def __post_init__(self) -> None:
        if len(self.levels) < 3:
            raise SimplicialError("simplicial data must be stored at least to level 2")
        self.levels = tuple(tuple(level) for level in self.levels)
        for p in range(1, self.K + 1):
            for i in range(p + 1):
                if (p, i) not in self.faces:
                    raise SimplicialError(f"missing face map d_{i} at level {p}")
        for p in range(self.K):
            for i in range(p + 1):
                if (p, i) not in self.degeneracies:
                    raise SimplicialError(f"missing degeneracy s_{i} at level {p}")
        self._check_identities()
        self._tables: dict[tuple[int, tuple[int, ...]], dict] = {}  # (m, values) -> table()

    @property
    def K(self) -> int:
        return len(self.levels) - 1

    def face(self, p: int, i: int, x):
        return self.faces[(p, i)][x]

    def degeneracy(self, p: int, i: int, x):
        return self.degeneracies[(p, i)][x]

    def _check_identities(self) -> None:
        """Check d_i d_j = d_{j-1} d_i (i < j), that each s_j lands in its
        level, and the d_i s_j identities, one simplex at a time, and raise
        the first failure in simplex order.  Each simplex's faces are read
        once, as its row."""
        degeneracies = self.degeneracies
        faces = [[self.faces[(p, i)] for i in range(p + 1)] if p else [] for p in range(self.K + 1)]
        for p in range(2, self.K + 1):
            for x in self.levels[p]:
                row = [table[x] for table in faces[p]]
                for j in range(p + 1):
                    for i in range(j):
                        if faces[p - 1][i][row[j]] != faces[p - 1][j - 1][row[i]]:
                            raise SimplicialError(
                                f"d_{i} d_{j} != d_{j-1} d_{i} at level {p} on {x!r}"
                            )
        for p in range(self.K):
            above = set(self.levels[p + 1])
            for x in self.levels[p]:
                row = [table[x] for table in faces[p]]
                for j in range(p + 1):
                    sx = degeneracies[(p, j)][x]
                    if sx not in above:
                        raise SimplicialError(f"s_{j}({x!r}) missing from level {p+1}")
                    for i in range(p + 2):
                        fx = faces[p + 1][i][sx]
                        if i == j or i == j + 1:
                            expected = x
                        elif i < j:
                            expected = degeneracies[(p - 1, j - 1)][row[i]]
                        else:
                            expected = degeneracies[(p - 1, j)][row[i - 1]]
                        if fx != expected:
                            raise SimplicialError(
                                f"d_{i} s_{j} identity fails at level {p} on {x!r}"
                            )

    # -- contravariant action ------------------------------------------------

    def act(self, u: MonotoneMap, x):
        """Apply the simplicial operator of u: [k] -> [m] to x in X_m,
        producing an element of X_k."""
        return self.table(u.target.p, u.values)[x]

    def table(self, m: int, values: tuple[int, ...]) -> dict:
        """The operator of the monotone map [k] -> [m] with these values, as
        a table from X_m to X_k.  It is built on first use, when the values
        are checked, by factoring the map through its image: the faces
        that skip the missing values (highest first), then the
        degeneracies of the surjection onto the image."""
        table = self._tables.get((m, values))
        if table is not None:
            return table
        MonotoneMap(SimplexObject(len(values) - 1), SimplexObject(m), values)  # refuses bad values
        image = sorted(set(values))
        steps = [self.faces[(m - n, i)] for n, i in enumerate(i for i in range(m, -1, -1) if i not in image)]
        sigma = [image.index(v) for v in values]
        degeneracies = []  # s_t at the first repeat t of what is left, outermost first
        while (t := next((t for t in range(len(sigma) - 1) if sigma[t] == sigma[t + 1]), -1)) >= 0:
            del sigma[t]
            degeneracies.append(self.degeneracies[(len(sigma) - 1, t)])
        table = {x: x for x in self.levels[m]}
        for step in steps + degeneracies[::-1]:
            table = {x: step[y] for x, y in table.items()}
        self._tables[(m, values)] = table
        return table

    def vertex(self, p: int, x, v: int):
        """The v-th vertex of a p-simplex."""
        return self.table(p, (v,))[x]

    def edge(self, p: int, x, i: int):
        """The restriction of a p-simplex to the edge {i-1 < i}."""
        return self.table(p, (i - 1, i))[x]


def is_segal(X: SimplicialData, p: int) -> bool:
    """True iff the spine map X_p -> X_1 x_{X_0} ... x_{X_0} X_1 is a
    bijection.  The composable p-chains of edges are the cut fiber product
    of the map [p-2] -> [p] with values 1..p-1, whose pieces are the unit
    intervals [0, 1], ..., [p-1, p]."""
    if p > X.K:
        raise SimplicialError(f"level {p} not stored (K = {X.K})")
    if p <= 1:
        return True
    spines = {tuple(X.edge(p, x, i) for i in range(1, p + 1)) for x in X.levels[p]}
    chains = cut_fiber_product(
        X, MonotoneMap(SimplexObject(p - 2), SimplexObject(p), tuple(range(1, p)))
    )
    # the chains are distinct: when all |X_p| of them are spines, no two simplices share one
    return len(chains) == len(X.levels[p]) and all(chain in spines for chain in chains)


# ---------------------------------------------------------------------------
# completion by generators and relations


@dataclass(frozen=True)
class CategoryPresentation:
    """Objects, generating arrows with endpoints, and relations between
    parallel composable generator words."""

    objects: tuple
    generators: tuple[tuple[Hashable, Hashable, Hashable], ...]  # (arrow, src, tgt)
    relations: tuple[tuple[tuple, tuple], ...]  # pairs of parallel words

    def endpoints(self) -> dict:
        return {g: (s, t) for g, s, t in self.generators}


@dataclass
class Completion:
    """Hom-sets of the presented category up to a word-length budget: the
    class count of each nonempty hom-set and whether each is the same at
    budget - 1.  ``hom_classes``, the classes themselves, closes the words
    on first read unless ``complete`` had to close them already; either
    closure refuses more than CLOSE_LIMIT words up front."""

    presentation: CategoryPresentation
    budget: int
    class_counts: dict[tuple[Hashable, Hashable], int]
    stabilized: bool

    @cached_property
    def hom_classes(self) -> dict[tuple[Hashable, Hashable], list[list[tuple]]]:
        return _close_words(self.presentation, self.budget)[0]

    def hom(self, x, y) -> list[list[tuple]]:
        return self.hom_classes.get((x, y), [])

    def class_count(self, x, y) -> int:
        return self.class_counts.get((x, y), 0)


def presentation_of(X: SimplicialData) -> CategoryPresentation:
    """Objects X_0, arrows the nondegenerate edges, one relation per
    2-simplex (spine composite = long edge), identities from s_0."""
    objects = tuple(X.levels[0])
    identities = {X.degeneracy(0, 0, v) for v in objects}
    generators = tuple(
        (e, X.vertex(1, e, 0), X.vertex(1, e, 1))
        for e in X.levels[1]
        if e not in identities
    )
    relations = {}  # each relation once, in the order of its first 2-simplex
    for sigma in X.levels[2]:
        first = X.face(2, 2, sigma)
        second = X.face(2, 0, sigma)
        long = X.face(2, 1, sigma)
        lhs = tuple(e for e in (first, second) if e not in identities)
        rhs = tuple(e for e in (long,) if e not in identities)
        if lhs != rhs:
            relations[(lhs, rhs)] = None
    return CategoryPresentation(objects, generators, tuple(relations))


def _close_words(pres: CategoryPresentation, budget: int):
    """Close the composable generator words of length <= budget, keyed by
    (source, word) with the empty word at x the identity of x, in one pass;
    returns (hom-sets, stabilized).  Words are built one length at a time,
    and a relation is indexed only in its non-lengthening direction, so
    each edge is joined from its longer end.  The forest at the end of
    level budget - 1 is thus the closure at budget - 1, and the class
    counts copied then say whether the last level changed anything.

    Raises SimplicialError, before building any word, when there would be
    more than CLOSE_LIMIT words."""
    ends = pres.endpoints()
    by_source: dict[Hashable, list] = {}
    for g, s, _ in pres.generators:
        by_source.setdefault(s, []).append(g)
    letters = [g for g, _, _ in pres.generators]
    total = len(pres.objects)
    for walks in _walks(ends, letters, {g: by_source.get(ends[g][1], []) for g in letters}, budget):
        total += sum(walks.values())
        if total > CLOSE_LIMIT:
            raise SimplicialError(f"more than {CLOSE_LIMIT} composable words of length <= {budget}")
    # side length -> side -> the sides no longer than it that may replace it
    rewrites: dict[int, dict[tuple, list[tuple]]] = {}
    for lhs, rhs in pres.relations:
        for a, b in ((lhs, rhs), (rhs, lhs)):
            if len(b) <= len(a):
                rewrites.setdefault(len(a), {}).setdefault(a, []).append(b)
    uf = UnionFind()
    words: dict[tuple, tuple[Hashable, Hashable]] = {}  # (source, word) -> hom-set
    counts: dict[tuple, int] = {}  # hom-set -> its classes so far
    level = {(x, ()): (x, x) for x in pres.objects}
    for length in range(budget + 1):
        if length == budget:
            smaller = dict(counts)
        for key, homset in level.items():
            uf.find(key)  # the forest then shares these keys instead of copying them
            counts[homset] = counts.get(homset, 0) + 1
        words.update(level)
        for key, homset in level.items():
            x, w = key
            for n, sides in rewrites.items():
                for pos in range(length - n + 1):
                    for b in sides.get(w[pos : pos + n], ()):
                        other = (x, w[:pos] + b + w[pos + n :])
                        if other in words:
                            counts[homset] -= uf.union(key, other)
        if length < budget:
            level = {
                (x, w + (g,)): (x, ends[g][1])
                for (x, w), (_, t) in level.items()
                for g in by_source.get(t, ())
            }
    hom: dict[tuple, list[list[tuple]]] = {}
    for members in uf.groups():
        hom.setdefault(words[members[0]], []).append(
            sorted((w for _, w in members), key=lambda w: (len(w), repr(w)))
        )
    for classes in hom.values():
        classes.sort(key=lambda ws: (len(ws[0]), repr(ws[0])))
    return hom, budget > 1 and smaller == counts


def _count_normal_forms(pres: CategoryPresentation, budget: int):
    """(class counts, stabilized) of the closure at ``budget``, counted
    without building a word, or None unless the relations form a
    convergent rewriting system.

    Each relation is oriented from its shortlex-larger side (length, then
    generator order) to the smaller one, so no rule lengthens a word.  The
    system is convergent when its critical pairs resolve (Knuth-Bendix):
    two rules on one left side, a one-letter left side inside a two-letter
    one, and two two-letter left sides overlapping in a letter.  A word
    then reduces, through words no longer than itself, to its one
    irreducible word, so the classes at budget B are the irreducible words
    of length <= B, counted per (source, last letter) one length at a time.
    Their factors are irreducible too, so when none has length B none is
    longer, and ``stabilized`` (B > 1 and none has length B) is exact."""
    rank = {g: i for i, (g, _, _) in enumerate(pres.generators)}
    rules: dict[tuple, list[tuple]] = {}  # left side -> its right sides
    for sides in pres.relations:
        small, big = sorted(sides, key=lambda w: (len(w), [rank[g] for g in w]))
        rules.setdefault(big, []).append(small)

    def normal(w: tuple) -> tuple:
        while sites := [(i, n) for i in range(len(w)) for n in (1, 2) if w[i : i + n] in rules]:
            i, n = sites[0]
            w = w[:i] + rules[w[i : i + n]][0] + w[i + n :]
        return w

    pairs = [(rs[0], r) for rs in rules.values() for r in rs[1:]]
    for left, (r, *_) in rules.items():
        if len(left) == 2:
            pairs += [(r, left[:i] + rules[left[i : i + 1]][0] + left[i + 1 :])
                      for i in (0, 1) if left[i : i + 1] in rules]
            pairs += [(r + other[1:], left[:1] + s)
                      for other, (s, *_) in rules.items() if len(other) == 2 and other[0] == left[1]]
    if any(normal(u) != normal(v) for u, v in pairs):
        return None
    ends = pres.endpoints()
    letters = [g for g, _, _ in pres.generators if (g,) not in rules]
    after = {g: [h for h in letters if ends[h][0] == ends[g][1] and (g, h) not in rules] for g in letters}
    counts = {(x, x): 1 for x in pres.objects}
    walks: dict = {}
    for walks in _walks(ends, letters, after, budget):
        for (x, g), n in walks.items():
            counts[x, ends[g][1]] = counts.get((x, ends[g][1]), 0) + n
    return counts, budget > 1 and not walks


def _walks(ends: dict, letters: list, after: dict, budget: int):
    """For each length 1..budget, the number of words of that length per
    (source, last letter), where a word starts with any of ``letters`` and
    ``after[g]`` lists the letters that may follow g.  Stops after the first
    length with no word, since no longer word has one either."""
    walks = {(ends[g][0], g): 1 for g in letters}
    for length in range(1, budget + 1):
        if length > 1:
            step: dict[tuple, int] = {}
            for (x, g), n in walks.items():
                for h in after[g]:
                    step[x, h] = step.get((x, h), 0) + n
            walks = step
        yield walks
        if not walks:
            return


def complete(X: SimplicialData, budget: int) -> Completion:
    """Segal completion at set level: the presented category with its
    hom-sets counted up to the word-length budget.  A convergent system
    counts its irreducible words (``_count_normal_forms``), and then
    ``stabilized`` is exact; otherwise the bounded words are closed at once,
    and ``stabilized`` only says that no count changed from budget - 1."""
    if budget < 0:
        raise SimplicialError(f"word-length budget must be >= 0, got {budget}")
    pres = presentation_of(X)
    counted = _count_normal_forms(pres, budget)
    if counted is not None:
        return Completion(pres, budget, *counted)
    hom, stabilized = _close_words(pres, budget)
    comp = Completion(pres, budget, {key: len(classes) for key, classes in hom.items()}, stabilized)
    comp.hom_classes = hom
    return comp


# ---------------------------------------------------------------------------
# the cut fiber product and the truncated colimit


def pieces_of(f: MonotoneMap) -> list[ConvexSubset]:
    """The b + 2 convex pieces into which the values of f: [b] -> [a] cut
    [a]: [0, f(0)], [f(0), f(1)], ..., [f(b), a].

    Each piece equals the outer hull (along f) of any one-point subset
    strictly inside it, and of the unit intervals it contains.
    """
    a = f.target
    cuts = [0] + list(f.values) + [a.p]
    return [ConvexSubset(lo, hi, a) for lo, hi in zip(cuts, cuts[1:])]


def _first_vertex_index(C: SimplicialData, dims) -> dict[int, dict]:
    """For each d in ``dims``, the d-simplices x by first vertex as (x, last
    vertex, its edges), and under None the chains ((x,), last vertex, first
    vertex and edges); each table is looked up once, each entry read once."""
    index: dict[int, dict] = {d: {None: []} for d in dims}
    for d, by_first in index.items():
        first, last, *edges = [C.table(d, v) for v in [(0,), (d,), *zip(range(d), range(1, d + 1))]]
        for x in C.levels[d]:
            v, end, part = first[x], last[x], tuple([e[x] for e in edges])
            by_first[None].append(((x,), end, (v, *part)))
            by_first.setdefault(v, []).append((x, end, part))
    return index


def _extend(states: list, by_first: dict) -> list:
    """Each (chain, end vertex, spine chain so far) extended by each simplex starting at its end."""
    return [(chain + (x,), last, spine + part)
            for chain, end, spine in states for x, last, part in by_first.get(end, ())]


def cut_fiber_product(C: SimplicialData, f: MonotoneMap) -> list[tuple]:
    """The iterated fiber product of C over the pieces cut by f.

    An element is a tuple of simplices, one per piece (of dimension the
    piece length), consecutive entries sharing the boundary vertex at the
    cut point.  For f the identity this recovers C at level a whenever C
    satisfies the Segal condition there.
    """
    a = f.target.p
    if a > C.K:
        raise SimplicialError(f"level {a} not stored (K = {C.K})")
    dims = [piece.hi - piece.lo for piece in pieces_of(f)]
    index = _first_vertex_index(C, set(dims))
    states = index[dims[0]][None]
    for dim in dims[1:]:
        states = _extend(states, index[dim])
    return [chain for chain, _, _ in states]


def restriction_plan(f: tuple, a0: int, outer: tuple, inner: tuple) -> tuple[tuple[int, int, tuple], ...]:
    """How to restrict a chain for ``outer`` (over [a0]) along f: [a1] ->
    [a0] to a chain for ``inner`` (over [a1]), every map given by its
    values: for each piece of ``inner``, the index of the piece of
    ``outer`` that f carries it into, that piece's dimension, and the
    values of the operator sending that piece's simplex to the new one.

    Requires that f carries each piece of ``inner`` into a single piece
    of ``outer``, which holds whenever outer = f o inner o g for some g
    (the twisted-square shape of the colimit's index category).
    """
    cuts, inner_cuts = (0, *outer, a0), (0, *inner, len(f) - 1)
    plan = []
    for lo, hi in zip(inner_cuts, inner_cuts[1:]):
        idx = bisect_left(cuts, f[hi], 1) - 1  # the first piece reaching f(hi)
        if cuts[idx] > f[lo]:
            raise SimplicialError("piece image not contained in a single piece")
        plan.append((idx, cuts[idx + 1] - cuts[idx], tuple([v - cuts[idx] for v in f[lo : hi + 1]])))
    return tuple(plan)


def restrict_chain(C: SimplicialData, plan: tuple, chain: tuple) -> tuple:
    """Push a chain along the index morphism that ``plan`` (from
    :func:`restriction_plan`) was made for, piece by piece through the
    operator tables of C; only this step depends on the chain, so one plan
    serves every chain of a fiber product."""
    table = C.table
    return tuple([table(dim, values)[chain[i]] for i, dim, values in plan])


@dataclass
class TruncatedColimit:
    """Zigzag classes of the disjoint union of cut fiber products over all
    index objects with both simplex sizes bounded by N."""

    p: int
    bound: int
    classes: list[list[tuple]]  # members are (object key, chain) tags
    stabilized: bool

    def class_count(self) -> int:
        return len(self.classes)


def _colimit_tags_and_classes(C: SimplicialData, p: int, N: int):
    """The truncated colimit's classes at bound N, and whether they
    stabilized.

    An index object is (a, phi: [b] -> [a], s: [p] -> [a]); its value is
    the cut fiber product of phi, which does not depend on the anchor s.
    Every index morphism factors as one changing only phi's source (g,
    Family 1) followed by one changing the ambient simplex (f, Family 2),
    so those two families generate the zigzag relation.  Both range over
    the faces [n-1] -> [n] and degeneracies [n+1] -> [n] only: every
    monotone map factors through its image as degeneracies followed by
    faces, with every object on the way no larger than its source or its
    target, so within the bound; restriction is functorial, so the
    relation of the composite is implied by those of its factors.  Maps
    are value tuples.  The cut fiber product of phi: [b] -> [a] is built
    from its prefix's, that of [b-1] -> [phi(b)], built before it: each
    chain extended by a simplex of dimension a - phi(b), found in one
    index of levels 0..N by first vertex.

    Family 1 needs no union-find.  Call the restriction of an item (a,
    phi, chain) along phi to id_[a] its spine chain: its element of the
    cut fiber product of the identity, carried as the chain grows (its
    first vertex, each piece's edges, its last vertex).  A Family 1 move
    relates an item over (a, phi o g) to its restriction over (a, phi),
    and restriction is functorial, so both have the same spine chain.
    Every item is also joined to its spine chain through elementary maps
    of sizes at most max(a, b), inside the bound of whichever run holds
    the item.  So the Family 1 classes, bounded or not, are the spine
    chains, one each.

    Family 2 runs once per elementary f: [a1] -> [a0], with phi = f: each
    chain x of the cut fiber product of f joins (the spine chain of x, f o
    s) to (x restricted along f to the spine of [a1], s) for every anchor
    s of a1, on the distinct pairs of spine chains (one plan per f, its
    tables looked up once).  A move with any phi1, from f o phi1 over [a0]
    to phi1 over [a1], follows from three: Family 1 at a0 along phi1 (from
    f o phi1 to f), this move, and Family 1 at a1.  A tag's class is that
    of (its spine chain, its anchor).

    The moves within bound N - 1 (a0, a1 < N) run first, and the classes
    of the bound-(N-1) tags, those of the nodes over [a] with a < N, are
    counted then, before the rest.  That colimit maps bijectively onto
    the bound-N one when the rest leaves the count unchanged and equal to
    the final class count (no two classes merge, and every class is
    reached).  Each node's class is read once, and a tag takes its
    node's.  Classes list their tags in registration order (a, then phi
    by source size and values, then anchor, then chain) and come ordered
    by their first tag.
    """
    identity = [tuple(range(a + 1)) for a in range(N + 1)]
    anchors = [list(itertools.combinations_with_replacement(range(a + 1), p + 1)) for a in range(N + 1)]
    anchor_index = [{s: k for k, s in enumerate(maps)} for maps in anchors]
    width = len(anchors[N])  # node of (spine chain r, anchor k): r * width + k
    index = _first_vertex_index(C, range(N + 1))
    chains: dict[tuple, list] = {}  # (a, phi) -> [(chain, end vertex, spine chain but its end)]
    for a, b in itertools.product(range(N + 1), repeat=2):
        for phi in itertools.combinations_with_replacement(range(a + 1), b + 1):
            prefix = chains[(phi[-1], phi[:-1])] if b else index[phi[0]][None]
            chains[(a, phi)] = _extend(prefix, index[a - phi[-1]])
    number = itertools.count()  # spine[a]: spine chain over [a] -> its number, counted from [0] up
    spine = [{chain: next(number) for chain, _, _ in chains[(a, identity[a])]} for a in range(N + 1)]
    labels = {key: [spine[key[0]][part + (end,)] for _, end, part in items] for key, items in chains.items()}

    uf = UnionFind()

    def run(sizes) -> None:
        for a1, a0 in sizes:
            for f in (u.values for u in elementary_maps(SimplexObject(a1), SimplexObject(a0))):
                plan = [(i, C.table(d, v)) for i, d, v in restriction_plan(f, a0, f, identity[a1])]
                moved = [spine[a1][tuple([t[chain[i]] for i, t in plan])] for chain, _, _ in chains[(a0, f)]]
                pairs = set(zip(labels[(a0, f)], moved))
                for k1, s in enumerate(anchors[a1]):
                    k0 = anchor_index[a0][tuple([f[v] for v in s])]
                    for r0, r1 in pairs:
                        uf.union(r0 * width + k0, r1 * width + k1)

    def roots(sizes) -> dict[int, int]:
        """The class of every (spine chain, anchor) node over [a], a in sizes."""
        return {node: uf.find(node) for a in sizes for r in spine[a].values()
                for node in range(r * width, r * width + len(anchors[a]))}

    run([(a1, a0) for a1 in range(N) for a0 in range(N)])
    smaller = len(set(roots(range(N)).values()))
    run([(a1, a0) for a1 in range(N + 1) for a0 in range(N + 1) if N in (a1, a0)])
    root = roots(range(N + 1))
    groups: dict[int, list[tuple]] = {}
    for (a, phi), items in chains.items():
        for k, s in enumerate(anchors[a]):
            tag = (a, phi, s)
            for r, (chain, _, _) in zip(labels[(a, phi)], items):
                groups.setdefault(root[r * width + k], []).append((tag, chain))
    classes = list(groups.values())
    below = sum(map(len, spine[:N])) * width  # the nodes over [a] with a < N are numbered below this
    stabilized = N >= 1 and smaller == len({c for node, c in root.items() if node < below}) == len(classes)
    return classes, stabilized


def colimit_truncated(C: SimplicialData, p: int, N: int) -> TruncatedColimit:
    """Truncated colimit of the cut fiber products over the index category
    of pairs (map into [a], anchor [p] -> [a]) with a, b <= N.

    ``stabilized`` reports whether the canonical map from the bound-(N-1)
    classes to the bound-N classes is a bijection; for inputs whose true
    colimit is infinite it stays False, and that is reported honestly.
    The classes come from one forest (``_colimit_tags_and_classes``): a
    (phi, chain) item's class under the moves that keep the ambient is
    its restriction to the spine of [a], carried as the chain is built
    from its prefix's, the moves that change the ambient join (spine
    chain, anchor) nodes once per elementary map, and the bound-(N-1)
    classes are counted after the bounded moves and before the rest.
    Raises SimplicialError on a negative bound or a level C does not
    store, SimplexError on a negative p.
    """
    if N < 0:
        raise SimplicialError(f"colimit bound must be >= 0, got {N}")
    SimplexObject(p)  # refuses a negative p
    if max(p, N) > C.K:
        raise SimplicialError(f"levels up to {max(p, N)} needed, stored {C.K}")
    return TruncatedColimit(p, N, *_colimit_tags_and_classes(C, p, N))


# ---------------------------------------------------------------------------
# constructors for the standard inputs


def _from_maps(levels: Sequence[tuple], face: Callable, degeneracy: Callable) -> SimplicialData:
    """Simplicial data on ``levels`` whose d_i and s_i at level p send x to
    ``face(p, i, x)`` and ``degeneracy(p, i, x)``."""

    def table(rule: Callable, ps: range) -> dict:
        return {(p, i): {x: rule(p, i, x) for x in levels[p]} for p in ps for i in range(p + 1)}

    K = len(levels) - 1
    return SimplicialData(tuple(levels), table(face, range(1, K + 1)), table(degeneracy, range(K)))


def _nerve_face(multiply: Callable, p: int, i: int, x: tuple) -> tuple:
    """d_i of a nerve p-tuple: drop an end, or multiply the entries
    around i."""
    if i == 0:
        return x[1:]
    if i == p:
        return x[:-1]
    return x[: i - 1] + (multiply(x[i - 1], x[i]),) + x[i + 1 :]


def _nerve_maps(M: PointedMonoid) -> tuple[Callable, Callable]:
    """The face and degeneracy of M's nerve; s_i inserts the unit at i."""
    return (
        lambda p, i, x: _nerve_face(M.multiply, p, i, x),
        lambda p, i, x: x[:i] + (M.unit,) + x[i:],
    )


def nerve_of_monoid(M: PointedMonoid, K: int = 3) -> SimplicialData:
    """The nerve of a finite monoid: level p is the set of p-tuples."""
    elements = M.elements(1)
    levels = [tuple(itertools.product(elements, repeat=p)) for p in range(K + 1)]
    return _from_maps(levels, *_nerve_maps(M))


def pushout_of_nerves(A: PointedMonoid, B: PointedMonoid, K: int = 3) -> SimplicialData:
    """Levelwise pushout of the nerves of A and B over the point: tuples
    from one factor at each level, with the all-units tuples identified."""
    nerves = {"L": A, "R": B}

    def tagged(side: str, tup: tuple) -> tuple:
        return ("U", len(tup)) if all(map(nerves[side].is_unit, tup)) else (side, tup)

    levels = [
        (("U", p),)
        + tuple(
            (side, tup)
            for side, monoid in nerves.items()
            for tup in itertools.product(monoid.elements(1), repeat=p)
            if tagged(side, tup)[0] != "U"
        )
        for p in range(K + 1)
    ]

    maps = {side: _nerve_maps(monoid) for side, monoid in nerves.items()}

    def lifted(k: int) -> Callable:  # k = 0: the face, 1: the degeneracy
        def mapped(p: int, i: int, x):  # the all-units tuple is read in A's nerve
            side, tup = ("L", (A.unit,) * p) if x[0] == "U" else x
            return tagged(side, maps[side][k](p, i, tup))

        return mapped

    return _from_maps(levels, lifted(0), lifted(1))


def nerve_of_interval_poset(n: int, K: int = 3) -> SimplicialData:
    """The nerve of the linear poset 0 < 1 < ... < n: level p is the set
    of monotone (p+1)-tuples."""
    levels = [
        tuple(itertools.combinations_with_replacement(range(n + 1), p + 1)) for p in range(K + 1)
    ]
    return _from_maps(
        levels,
        lambda p, i, x: x[:i] + x[i + 1 :],
        lambda p, i, x: x[: i + 1] + x[i:],
    )


def one_truncated(
    vertices: Sequence[Hashable],
    edges: Sequence[tuple[Hashable, Hashable, Hashable]],
    K: int = 2,
) -> SimplicialData:
    """The simplicial data of a graph (no nondegenerate simplices above
    dimension 1): edges are (name, source, target) triples, and all higher
    levels consist of degeneracies only."""
    verts = tuple(vertices)
    edge_list = [("id", v, v) for v in verts] + [tuple(e) for e in edges]

    def is_identity(e) -> bool:
        return e[0] == "id"

    # level p > 0 holds the composable p-tuples of edges with at most one
    # nondegenerate entry, so every simplex above level 1 is a degeneracy
    levels = [verts] + [
        tuple(
            tup
            for tup in itertools.product(edge_list, repeat=p)
            if all(a[2] == b[1] for a, b in zip(tup, tup[1:]))
            and sum(not is_identity(e) for e in tup) <= 1
        )
        for p in range(1, K + 1)
    ]

    def compose(a, b):  # a level tuple has one non-identity edge at most: a or b is an identity
        return b if is_identity(a) else a

    def face(p: int, i: int, x):
        if p == 1:  # an edge's d_0 is its target, d_1 its source
            return x[0][2] if i == 0 else x[0][1]
        return _nerve_face(compose, p, i, x)

    def degeneracy(p: int, i: int, x):
        if p == 0:
            return (("id", x, x),)
        v = x[i][1] if i < p else x[-1][2]
        return x[:i] + (("id", v, v),) + x[i:]

    return _from_maps(levels, face, degeneracy)
