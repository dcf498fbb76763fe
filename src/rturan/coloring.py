"""Proper edge colorings: validation, canonical exhaustive enumeration,
and the circle-method 1-factorization of K_{2m}."""

from __future__ import annotations

import json
from typing import Iterator, NamedTuple, Optional, Sequence

from ._kernels.pure import (BudgetExhausted, PrunePredicate, canonical_dfs,
                            canonicalize, unique_color_count)
from .certs import sha256_hex
from .graphs import Graph, Record, make_complete, read_only


class ColoringError(ValueError):
    pass


def graph_hash(g: Graph) -> str:
    """The first 16 hex digits of sha256_hex of the graph as compact JSON
    (n, then its edge list in order): an avoider's coloring records it, and
    its recheck compares it with the stored graph's."""
    payload = json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]},
                         separators=(",", ":"))
    return sha256_hex(payload)[:16]


class EdgeColoring(Record):
    """Total color assignment edge-index -> color id on a fixed graph.

    Immutable; equal and hashed by value over graph and colors."""

    __slots__ = _fields = ("graph", "colors")
    __setattr__ = __delattr__ = read_only
    __hash__ = Record._hash_fields

    def __init__(self, graph: Graph, colors: tuple[int, ...]):
        if len(colors) != graph.num_edges:
            raise ColoringError("coloring length does not match edge count")
        if any(c < 0 for c in colors):
            raise ColoringError("color ids must be nonnegative")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "colors", colors)

    @property
    def num_colors(self) -> int:
        return len(set(self.colors))

    def to_json(self) -> dict:
        return {"graph_hash": graph_hash(self.graph), "colors": list(self.colors)}


def is_proper(g: Graph, coloring: EdgeColoring | Sequence[int]) -> bool:
    """True iff no two edges sharing a vertex have the same color."""
    colors = coloring.colors if isinstance(coloring, EdgeColoring) else tuple(coloring)
    if len(colors) != g.num_edges:
        raise ColoringError("coloring length does not match edge count")
    seen: dict[tuple[int, int], bool] = {}
    for (u, v), c in zip(g.edges, colors):
        for x in (u, v):
            if (x, c) in seen:
                return False
            seen[(x, c)] = True
    return True


def proper_coloring(g: Graph, colors: Sequence[int]) -> EdgeColoring:
    c = EdgeColoring(g, tuple(colors))
    if not is_proper(g, c):
        raise ColoringError("coloring is not proper")
    return c


def conflict_lists(g: Graph) -> list[list[int]]:
    """For each edge index, the earlier edge indices sharing a vertex."""
    out: list[list[int]] = []
    for i, (u, v) in enumerate(g.edges):
        out.append([j for j in range(i) if set(g.edges[j]) & {u, v}])
    return out


def enumerate_proper_colorings(g: Graph, max_colors: int,
                               budget: Optional[int] = None,
                               prune: Optional[PrunePredicate] = None,
                               ) -> Iterator[EdgeColoring]:
    """Depth-first canonical enumeration of proper colorings with <= max_colors colors.

    Yields exactly one representative per color-permutation class (first-occurrence
    canonical form).  `prune(partial, i)` is consulted after edge i is assigned;
    returning True cuts the subtree.  Raises BudgetExhausted when the node budget
    (number of edge assignments) trips; a negative budget means no limit.
    """
    if max_colors < 1:
        raise ColoringError("need at least one color")
    for colors in canonical_dfs(conflict_lists(g), max_colors, budget, prune):
        yield EdgeColoring(g, tuple(colors))


def one_factorization(m: int) -> EdgeColoring:
    """Circle-method 1-factorization of K_{2m}: 2m-1 colors, each class a
    perfect matching, every vertex meeting every color exactly once."""
    if m < 1:
        raise ColoringError("need m >= 1")
    n = 2 * m
    g = make_complete(n)
    colors = [-1] * g.num_edges
    mod = n - 1
    for rnd in range(mod):
        pairs = [(rnd, mod)]
        for i in range(1, m):
            pairs.append(((rnd + i) % mod, (rnd - i) % mod))
        for (u, v) in pairs:
            colors[g.edge_index[(min(u, v), max(u, v))]] = rnd
    return proper_coloring(g, colors)


class ColorClassProfile(NamedTuple):
    """Color class sizes sorted descending."""

    sizes: tuple[int, ...]


def color_class_profile(c: EdgeColoring) -> ColorClassProfile:
    counts: dict[int, int] = {}
    for col in c.colors:
        counts[col] = counts.get(col, 0) + 1
    return ColorClassProfile(tuple(sorted(counts.values(), reverse=True)))


def color_classes(c: EdgeColoring) -> list[list[int]]:
    """Edge indices per color, classes sorted by descending size (ties by color id)."""
    by_color: dict[int, list[int]] = {}
    for i, col in enumerate(c.colors):
        by_color.setdefault(col, []).append(i)
    return [cls for _, cls in sorted(by_color.items(),
                                     key=lambda kv: (-len(kv[1]), kv[0]))]
