"""Bounded random and exhaustive diagram generators.

Used by the test suites (conservation laws, move invariance, oracle
agreement) and handy for experiments.  All generators are deterministic
given a seeded Random instance, and all bound the word width and the
label range so the search spaces stay desk-scale.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from .diagram import (
    AmbientDim,
    Diagram,
    Event,
    Slice,
    cap,
    cross_neg,
    cross_pos,
    cup,
)


def legal_events(
    word: Sequence[int],
    dim: AmbientDim,
    lo: int = -2,
    hi: int = 2,
    width: int = 5,
) -> list[Event]:
    """Every event that can extend the given word, respecting the label
    window [lo, hi], the width bound, and the ambient dimension."""
    out: list[Event] = []
    n = len(word)
    if n + 2 <= width:
        for p in range(n + 1):
            for k in range(lo, hi):
                out.append(cup(k, at=p))
    for p in range(n - 1):
        if word[p + 1] == word[p] + 1:
            out.append(cap(word[p], at=p))
        if dim.allows_crossings:
            out.append(cross_pos(word[p], word[p + 1], at=p))
            out.append(cross_neg(word[p], word[p + 1], at=p))
    return out


def random_diagram(
    rng: random.Random,
    dim: AmbientDim,
    source: Sequence[int] | None = None,
    max_events: int = 6,
    width: int = 5,
    lo: int = -2,
    hi: int = 2,
) -> Diagram:
    """A random valid diagram, one event per slice."""
    if source is None:
        length = rng.randrange(0, 4)
        source = tuple(rng.randrange(lo, hi + 1) for _ in range(length))
    word = tuple(source)
    slices: list[Slice] = []
    for _ in range(rng.randrange(0, max_events + 1)):
        options = legal_events(word, dim, lo, hi, width)
        if not options:
            break
        slices.append(Slice(word, (rng.choice(options),)))
        word = slices[-1].output()
    return Diagram(tuple(source), tuple(slices))


def random_composable_pair(
    rng: random.Random, dim: AmbientDim, **kwargs
) -> tuple[Diagram, Diagram]:
    d1 = random_diagram(rng, dim, **kwargs)
    d2 = random_diagram(rng, dim, source=d1.target, **kwargs)
    return d1, d2


def _walk(
    source: tuple, dim: AmbientDim, max_events: int, max_crossings: int, width: int, lo: int, hi: int
) -> Iterator[list[Slice]]:
    """Depth-first over all diagrams over source with at most max_events
    events, one per slice, and at most max_crossings crossings: each one's
    slices, before the diagrams that extend it.  One list is yielded each
    time, changed as the walk goes on, and each slice is typed once."""
    slices: list[Slice] = []
    yield slices
    stack = [(source, 0, iter(legal_events(source, dim, lo, hi, width)))] if max_events else []
    while stack:
        word, crossings, events = stack[-1]
        for e in events:
            if crossings + e.is_crossing > max_crossings:
                continue
            slices.append(Slice(word, (e,)))
            yield slices
            if len(slices) < max_events:
                out = slices[-1].output()
                stack.append((out, crossings + e.is_crossing, iter(legal_events(out, dim, lo, hi, width))))
                break
            slices.pop()
        else:
            stack.pop()
            if stack:  # the slice that led to the frame just left
                slices.pop()


def iter_diagrams(
    source: Sequence[int],
    dim: AmbientDim,
    max_events: int,
    width: int = 5,
    lo: int = -3,
    hi: int = 3,
) -> Iterator[Diagram]:
    """Depth-first enumeration of all diagrams over the given source word
    with at most max_events events, one per slice."""
    source = tuple(source)
    for slices in _walk(source, dim, max_events, max_events, width, lo, hi):
        yield Diagram(source, tuple(slices))


def iter_closed_diagrams(
    max_events: int,
    max_crossings: int,
    width: int = 4,
    lo: int = -1,
    hi: int = 1,
) -> Iterator[Diagram]:
    """All closed diagrams (empty boundary) reachable from the empty word
    within the bounds, in braided ambient dimension."""
    for slices in _walk((), AmbientDim.BRAIDED, max_events, max_crossings, width, lo, hi):
        if slices and not slices[-1].output():
            yield Diagram((), tuple(slices))
