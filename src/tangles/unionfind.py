"""Disjoint sets over hashable items, shared by strand tracing, the
bracket state sum and the Segal congruence closures."""

from __future__ import annotations


class UnionFind:
    """Union-find with path compression; items are registered on first
    ``find``, and the registration order is kept."""

    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> bool:
        """Merge the classes of a and b; True when they were apart."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def groups(self) -> list[list]:
        """The classes, each in insertion order, ordered by first-inserted
        member."""
        classes: dict = {}
        for x in self.parent:
            classes.setdefault(self.find(x), []).append(x)
        return list(classes.values())
