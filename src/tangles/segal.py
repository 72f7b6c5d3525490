"""Set-valued simplicial data, the Segal condition, completion into a
category presentation, and a truncated colimit computing the same thing.

A ``SimplicialData`` stores finite levels X_0 ... X_K together with all
face and degeneracy maps in that range; the simplicial identities are
checked at construction.  ``act`` evaluates the contravariant action of an
arbitrary monotone map by factoring it into faces and degeneracies.

``is_segal`` tests whether level p is exactly the set of p-chains of
composable edges.  ``complete`` builds the category presented by the
nondegenerate edges modulo the triangle relations read off level 2 (with
degenerate edges as identities), and enumerates hom-sets by congruence
closure on bounded generator words; whether the enumeration stopped
growing strictly below the budget is reported, never assumed.

``cut_fiber_product`` evaluates, for a monotone map f into [a], the
iterated fiber product of the levels over the convex pieces into which
the values of f cut [a]; the pieces agree with the outer hulls (from
:mod:`tangles.simplex`) of the one-point and unit-interval subsets of [a].
``colimit_truncated`` glues these sets over all pairs (f, anchor) with
bounded simplex sizes into zigzag classes via union-find; on inputs
satisfying the Segal condition it reproduces level p on the nose, and in
general it grows towards the completion's hom-sets as the bound rises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .simplex import (
    ConvexSubset,
    MonotoneMap,
    SimplexObject,
    all_monotone_maps,
    compose_monotone,
    elementary_maps,
)
from .unionfind import UnionFind
from .words import PointedMonoid


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

    @property
    def K(self) -> int:
        return len(self.levels) - 1

    def face(self, p: int, i: int, x):
        return self.faces[(p, i)][x]

    def degeneracy(self, p: int, i: int, x):
        return self.degeneracies[(p, i)][x]

    def _check_identities(self) -> None:
        for p in range(2, self.K + 1):
            for x in self.levels[p]:
                for j in range(p + 1):
                    for i in range(j):
                        a = self.face(p - 1, i, self.face(p, j, x))
                        b = self.face(p - 1, j - 1, self.face(p, i, x))
                        if a != b:
                            raise SimplicialError(
                                f"d_{i} d_{j} != d_{j-1} d_{i} at level {p} on {x!r}"
                            )
        for p in range(self.K):
            for x in self.levels[p]:
                for j in range(p + 1):
                    sx = self.degeneracy(p, j, x)
                    if sx not in self.levels[p + 1]:
                        raise SimplicialError(f"s_{j}({x!r}) missing from level {p+1}")
                    for i in range(p + 2):
                        fx = self.face(p + 1, i, sx)
                        if i == j or i == j + 1:
                            expected = x
                        elif i < j:
                            expected = self.degeneracy(p - 1, j - 1, self.face(p, i, x))
                        else:
                            expected = self.degeneracy(p - 1, j, self.face(p, i - 1, x))
                        if fx != expected:
                            raise SimplicialError(
                                f"d_{i} s_{j} identity fails at level {p} on {x!r}"
                            )

    # -- contravariant action ------------------------------------------------

    def act(self, u: MonotoneMap, x):
        """Apply the simplicial operator of u: [k] -> [m] to x in X_m,
        producing an element of X_k."""
        cache = self.__dict__.setdefault("_act_cache", {})
        key = (u.source.p, u.target.p, u.values, x)
        if key in cache:
            return cache[key]
        m = u.target.p
        image = sorted(set(u.values))
        y = x
        level = m
        for i in sorted((i for i in range(m + 1) if i not in image), reverse=True):
            y = self.face(level, i, y)
            level -= 1
        rank = {v: r for r, v in enumerate(image)}
        sigma = [rank[v] for v in u.values]
        result = self._apply_surjection(sigma, y)
        cache[key] = result
        return result

    def _apply_surjection(self, sigma: Sequence[int], y):
        k = len(sigma) - 1
        for t in range(k):
            if sigma[t] == sigma[t + 1]:
                inner = list(sigma[:t]) + list(sigma[t + 1 :])
                y = self._apply_surjection(inner, y)
                return self.degeneracy(len(inner) - 1, t, y)
        return y

    def vertex(self, p: int, x, v: int):
        """The v-th vertex of a p-simplex."""
        return self.act(MonotoneMap(SimplexObject(0), SimplexObject(p), (v,)), x)

    def edge(self, p: int, x, i: int):
        """The restriction of a p-simplex to the edge {i-1 < i}."""
        return self.act(MonotoneMap(SimplexObject(1), SimplexObject(p), (i - 1, i)), x)


def is_segal(X: SimplicialData, p: int) -> bool:
    """True iff the spine map X_p -> X_1 x_{X_0} ... x_{X_0} X_1 is a
    bijection."""
    if p > X.K:
        raise SimplicialError(f"level {p} not stored (K = {X.K})")
    if p <= 1:
        return True
    spines = {}
    for x in X.levels[p]:
        spine = tuple(X.edge(p, x, i) for i in range(1, p + 1))
        if spine in spines and spines[spine] != x:
            return False
        spines[spine] = x
    count = 0
    for chain in _composable_chains(X, p):
        count += 1
        if chain not in spines:
            return False
    return count == len(X.levels[p])


def _composable_chains(X: SimplicialData, p: int) -> Iterable[tuple]:
    edges_by_source: dict[Hashable, list] = {}
    for e in X.levels[1]:
        edges_by_source.setdefault(X.vertex(1, e, 0), []).append(e)

    def extend(chain: tuple, cursor) -> Iterable[tuple]:
        if len(chain) == p:
            yield chain
            return
        for e in edges_by_source.get(cursor, ()):  # matching endpoints only
            yield from extend(chain + (e,), X.vertex(1, e, 1))

    for v in X.levels[0]:
        yield from extend((), v)


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
    """Hom-sets of the presented category, enumerated up to a word-length
    budget by congruence closure."""

    presentation: CategoryPresentation
    budget: int
    hom_classes: dict[tuple[Hashable, Hashable], list[list[tuple]]]
    stabilized: bool

    def hom(self, x, y) -> list[list[tuple]]:
        return self.hom_classes.get((x, y), [])

    def class_count(self, x, y) -> int:
        return len(self.hom(x, y))


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
    relations = []
    seen = set()
    for sigma in X.levels[2]:
        first = X.face(2, 2, sigma)
        second = X.face(2, 0, sigma)
        long = X.face(2, 1, sigma)
        lhs = tuple(e for e in (first, second) if e not in identities)
        rhs = tuple(e for e in (long,) if e not in identities)
        if lhs == rhs:
            continue
        key = (lhs, rhs)
        if key not in seen:
            seen.add(key)
            relations.append(key)
    return CategoryPresentation(objects, generators, tuple(relations))


def _close_words(pres: CategoryPresentation, budget: int):
    """Close the composable generator words of length <= budget, keyed by
    (source, word) with the empty word at x the identity of x, in one pass;
    returns (hom-sets, stabilized).  Words are built one length at a time,
    and a relation is indexed only in its non-lengthening direction, so
    each edge is joined from its longer end.  The forest at the end of
    level budget - 1 is thus the closure at budget - 1, and the class
    counts copied then say whether the last level changed anything."""
    ends = pres.endpoints()
    by_source: dict[Hashable, list] = {}
    for g, s, _ in pres.generators:
        by_source.setdefault(s, []).append(g)
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


def complete(X: SimplicialData, budget: int) -> Completion:
    """Segal completion at set level: presented category with hom-sets
    enumerated by congruence closure up to the word-length budget, in one
    pass; ``stabilized`` compares with the closure at budget - 1, which
    the same pass holds just before its last level."""
    if budget < 0:
        raise SimplicialError(f"word-length budget must be >= 0, got {budget}")
    pres = presentation_of(X)
    return Completion(pres, budget, *_close_words(pres, budget))


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
    return [
        ConvexSubset(cuts[i], cuts[i + 1], a) for i in range(len(cuts) - 1)
    ]


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
    pieces = pieces_of(f)
    chains: list[tuple[tuple, Hashable]] = [((), None)]
    for piece in pieces:
        dim = piece.hi - piece.lo
        nxt = []
        for prefix, cursor in chains:
            for x in C.levels[dim]:
                if cursor is not None and C.vertex(dim, x, 0) != cursor:
                    continue
                nxt.append((prefix + (x,), C.vertex(dim, x, dim)))
        chains = nxt
    return [prefix for prefix, _ in chains]


def restriction_plan(
    f: MonotoneMap, outer_f: MonotoneMap, inner_f: MonotoneMap
) -> tuple[tuple[int, MonotoneMap], ...]:
    """How to restrict a chain for ``outer_f`` (over f's target) along f
    to a chain for ``inner_f`` (over f's source): for each piece of
    ``inner_f``, the index of the piece of ``outer_f`` that f carries it
    into, and the operator u sending that piece's simplex to the new one.

    Requires that f carries each piece of ``inner_f`` into a single piece
    of ``outer_f``, which holds whenever outer_f = f o inner_f o g for
    some g (the twisted-square shape of the colimit's index category).
    """
    outer_pieces = pieces_of(outer_f)
    plan = []
    for piece in pieces_of(inner_f):
        lo, hi = f(piece.lo), f(piece.hi)
        idx = next(
            (i for i, q in enumerate(outer_pieces) if q.lo <= lo and hi <= q.hi), None
        )
        if idx is None:
            raise SimplicialError("piece image not contained in a single piece")
        q = outer_pieces[idx]
        u = MonotoneMap(
            SimplexObject(piece.hi - piece.lo),
            SimplexObject(q.hi - q.lo),
            tuple(f(piece.lo + t) - q.lo for t in range(piece.hi - piece.lo + 1)),
        )
        plan.append((idx, u))
    return tuple(plan)


def restrict_chain(
    C: SimplicialData, plan: tuple[tuple[int, MonotoneMap], ...], chain: tuple
) -> tuple:
    """Push a chain along the index morphism that ``plan`` (from
    :func:`restriction_plan`) was made for, piece by piece; only this step
    depends on the chain, so one plan serves every chain of a fiber
    product."""
    return tuple(C.act(u, chain[i]) for i, u in plan)


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
    """Union-find pass for the truncated colimit at bound N.

    An index object is (a, phi: [b] -> [a], s: [p] -> [a]); its value is
    the cut fiber product of phi, which does not depend on the anchor s.
    Every index morphism factors as one changing only phi's source (g)
    followed by one changing the ambient simplex (f), so those two
    families generate the zigzag relation.  Both families range over the
    faces [n-1] -> [n] and degeneracies [n+1] -> [n] only: every monotone
    map factors through its image as degeneracies followed by faces, with
    every object on the way no larger than its source or its target, so
    within the bound; restriction is functorial, so the relation of the
    composite is implied by those of its factors, and identities relate
    a tag to itself.  Each morphism restricts its chains through one
    :func:`restriction_plan`.

    The forest runs on tag numbers: the tags ((a, phi, s), chain) are
    numbered in registration order, object by object and chain by chain
    within an object, and mapped back at the end.  Classes list their
    members in that order and come ordered by their first member.
    """
    uf = UnionFind()
    simplex = [SimplexObject(a) for a in range(N + 1)]
    anchor_obj = SimplexObject(p)
    anchors = {a: all_monotone_maps(anchor_obj, simplex[a]) for a in range(N + 1)}
    maps_into = {
        a: [
            phi
            for b in range(N + 1)
            for phi in all_monotone_maps(simplex[b], simplex[a])
        ]
        for a in range(N + 1)
    }

    # each (a, phi) maps the chains of its value to their places in it; a
    # tag's number is first[index object] plus its chain's place
    values: dict[tuple[int, tuple], dict[tuple, int]] = {}
    for a in range(N + 1):
        for phi in maps_into[a]:
            chains = cut_fiber_product(C, phi)
            values[(a, phi.values)] = {chain: i for i, chain in enumerate(chains)}
    first: dict[tuple[int, tuple, tuple], int] = {}
    tags: list[tuple] = []
    for a in range(N + 1):
        for phi in maps_into[a]:
            for s in anchors[a]:
                key = (a, phi.values, s.values)
                first[key] = len(tags)
                tags.extend((key, chain) for chain in values[(a, phi.values)])
    for tag in range(len(tags)):  # groups() orders classes by first registration
        uf.find(tag)

    def union_moves(a0, phi0, a1, phi1, f, anchor_pairs):
        plan = restriction_plan(f, phi0, phi1)
        target = values[(a1, phi1.values)]
        moved = []
        for chain in values[(a0, phi0.values)]:
            place = target.get(restrict_chain(C, plan, chain))
            if place is None:
                raise SimplicialError("restricted chain missing from its target's fiber product")
            moved.append(place)
        for s0, s1 in anchor_pairs:
            base0 = first[(a0, phi0.values, s0.values)]
            base1 = first[(a1, phi1.values, s1.values)]
            for i, place in enumerate(moved):
                uf.union(base0 + i, base1 + place)

    # Family 1: reparametrize the source of phi (g only; ambient fixed).
    for a in range(N + 1):
        ident = MonotoneMap.identity(simplex[a])
        same_anchor = [(s, s) for s in anchors[a]]
        for phi1 in maps_into[a]:
            b1 = phi1.source.p
            for b0 in range(N + 1):
                for g in elementary_maps(simplex[b0], simplex[b1]):
                    union_moves(a, compose_monotone(g, phi1), a, phi1, ident, same_anchor)

    # Family 2: change the ambient simplex along f (phi's source fixed).
    for a1 in range(N + 1):
        for a0 in range(N + 1):
            for f in elementary_maps(simplex[a1], simplex[a0]):
                anchor_pairs = [
                    (compose_monotone(s1, f), s1) for s1 in anchors[a1]
                ]
                for phi1 in maps_into[a1]:
                    union_moves(a0, compose_monotone(phi1, f), a1, phi1, f, anchor_pairs)

    return [[tags[tag] for tag in group] for group in uf.groups()]


def colimit_truncated(C: SimplicialData, p: int, N: int) -> TruncatedColimit:
    """Truncated colimit of the cut fiber products over the index category
    of pairs (map into [a], anchor [p] -> [a]) with a, b <= N.

    ``stabilized`` reports whether the canonical map from the bound-(N-1)
    classes to the bound-N classes is a bijection; for inputs whose true
    colimit is infinite it stays False, and that is reported honestly.
    """
    if max(p, N) > C.K:
        raise SimplicialError(f"levels up to {max(p, N)} needed, stored {C.K}")
    classes = _colimit_tags_and_classes(C, p, N)
    stabilized = False
    if N >= 1:
        smaller = _colimit_tags_and_classes(C, p, N - 1)
        # Each bound-(N-1) class lies inside one bound-N class, so the map
        # is a bijection when it is onto and the class counts agree.
        small_tags = {tag for group in smaller for tag in group}
        stabilized = len(smaller) == len(classes) and all(
            any(tag in small_tags for tag in group) for group in classes
        )
    return TruncatedColimit(p, N, classes, stabilized)


# ---------------------------------------------------------------------------
# constructors for the standard inputs


def nerve_of_monoid(M: PointedMonoid, K: int = 3) -> SimplicialData:
    """The nerve of a finite monoid: level p is the set of p-tuples."""
    elements = M.elements(1)
    levels = [tuple(itertools.product(elements, repeat=p)) for p in range(K + 1)]
    faces = {}
    degeneracies = {}
    for p in range(1, K + 1):
        for i in range(p + 1):
            m = {}
            for x in levels[p]:
                if i == 0:
                    m[x] = x[1:]
                elif i == p:
                    m[x] = x[:-1]
                else:
                    m[x] = x[: i - 1] + (M.multiply(x[i - 1], x[i]),) + x[i + 1 :]
            faces[(p, i)] = m
    for p in range(K):
        for i in range(p + 1):
            degeneracies[(p, i)] = {
                x: x[:i] + (M.unit,) + x[i:] for x in levels[p]
            }
    return SimplicialData(tuple(levels), faces, degeneracies)


_POINT = ("pt",)


def pushout_of_nerves(A: PointedMonoid, B: PointedMonoid, K: int = 3) -> SimplicialData:
    """Levelwise pushout of the nerves of A and B over the point: tuples
    from one factor at each level, with the all-units tuples identified."""

    def canon(side: str, tup: tuple, monoid: PointedMonoid):
        if all(monoid.is_unit(x) for x in tup):
            return ("U", len(tup))
        return (side, tup)

    def level(p: int):
        out = [("U", p)]
        for side, monoid in (("L", A), ("R", B)):
            for tup in itertools.product(monoid.elements(1), repeat=p):
                tagged = canon(side, tup, monoid)
                if tagged[0] != "U":
                    out.append(tagged)
        return tuple(out)

    def untag(x, p: int):
        if x[0] == "U":
            return [("L", (A.unit,) * p), ("R", (B.unit,) * p)]
        return [x]

    levels = [level(p) for p in range(K + 1)]
    faces = {}
    degeneracies = {}
    nerves = {"L": A, "R": B}
    for p in range(1, K + 1):
        for i in range(p + 1):
            m = {}
            for x in levels[p]:
                side, tup = untag(x, p)[0]
                monoid = nerves[side]
                if i == 0:
                    res = tup[1:]
                elif i == p:
                    res = tup[:-1]
                else:
                    res = tup[: i - 1] + (monoid.multiply(tup[i - 1], tup[i]),) + tup[i + 1 :]
                m[x] = canon(side, res, monoid)
            faces[(p, i)] = m
    for p in range(K):
        for i in range(p + 1):
            m = {}
            for x in levels[p]:
                side, tup = untag(x, p)[0]
                monoid = nerves[side]
                m[x] = canon(side, tup[:i] + (monoid.unit,) + tup[i:], monoid)
            degeneracies[(p, i)] = m
    return SimplicialData(tuple(levels), faces, degeneracies)


def nerve_of_interval_poset(n: int, K: int = 3) -> SimplicialData:
    """The nerve of the linear poset 0 < 1 < ... < n: level p is the set
    of monotone (p+1)-tuples."""
    levels = [
        tuple(
            t
            for t in itertools.product(range(n + 1), repeat=p + 1)
            if all(a <= b for a, b in zip(t, t[1:]))
        )
        for p in range(K + 1)
    ]
    faces = {}
    degeneracies = {}
    for p in range(1, K + 1):
        for i in range(p + 1):
            faces[(p, i)] = {x: x[:i] + x[i + 1 :] for x in levels[p]}
    for p in range(K):
        for i in range(p + 1):
            degeneracies[(p, i)] = {x: x[: i + 1] + x[i:] for x in levels[p]}
    return SimplicialData(tuple(levels), faces, degeneracies)


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

    def src(e):
        return e[1]

    def tgt(e):
        return e[2]

    # A degenerate word of an edge path: level p elements are p-tuples of
    # edges, composable, with at most one nondegenerate entry (so every
    # simplex above level 1 is a degeneracy).
    def is_identity(e):
        return e[0] == "id"

    def level(p: int):
        if p == 0:
            return verts
        out = []
        for tup in itertools.product(edge_list, repeat=p):
            if any(tgt(a) != src(b) for a, b in zip(tup, tup[1:])):
                continue
            if sum(0 if is_identity(e) else 1 for e in tup) <= (1 if p > 1 else p):
                out.append(tup)
        return tuple(out)

    levels = [level(p) for p in range(K + 1)]
    faces = {}
    degeneracies = {}
    for p in range(1, K + 1):
        for i in range(p + 1):
            m = {}
            for x in levels[p]:
                if p == 1:
                    m[x] = tgt(x[0]) if i == 0 else src(x[0])
                    continue
                if i == 0:
                    m[x] = x[1:]
                elif i == p:
                    m[x] = x[:-1]
                else:
                    a, b = x[i - 1], x[i]
                    if is_identity(a):
                        merged = b
                    elif is_identity(b):
                        merged = a
                    else:
                        raise SimplicialError("graph data cannot compose two edges")
                    m[x] = x[: i - 1] + (merged,) + x[i + 1 :]
            faces[(p, i)] = m
    for p in range(K):
        for i in range(p + 1):
            m = {}
            for x in levels[p]:
                if p == 0:
                    m[x] = (("id", x, x),)
                else:
                    v = src(x[i]) if i < p else tgt(x[-1])
                    m[x] = x[:i] + (("id", v, v),) + x[i:]
            degeneracies[(p, i)] = m
    return SimplicialData(tuple(levels), faces, degeneracies)
