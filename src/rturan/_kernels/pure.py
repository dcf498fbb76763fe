"""Pure-Python kernels for the hot search loops.

The reference implementation: the compiled kernels (native.c, loaded by
native.py) return bit-identical results, the sampling RNG included, so either
backend can stand behind certificates.  Every rule the C mirrors lives here,
and nothing here imports the rest of rturan.
"""

from __future__ import annotations

import struct
from itertools import accumulate, chain
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

BACKEND = "python"

_MASK = (1 << 64) - 1
MAX_KEY_VERTICES = 64  # the most vertices canonical_key takes; RT_MAXN in native.c


class BudgetExhausted(Exception):
    """Raised when a node-count budget trips; a distinguished non-error outcome."""

    def __init__(self, nodes_visited: int):
        super().__init__(f"search budget exhausted after {nodes_visited} nodes")
        self.nodes_visited = nodes_visited


def canonicalize(colors: Sequence[int]) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in relabel:
            relabel[c] = len(relabel)
        out.append(relabel[c])
    return tuple(out)


PrunePredicate = Callable[[list[int], int], bool]


def unique_color_count(colors: Sequence[int]) -> int:
    """Number of entries whose color occurs exactly once in the sequence."""
    return list(map(colors.count, colors)).count(1)


def canonical_dfs(conflicts: Sequence[Sequence[int]], max_colors: int,
                  budget: Optional[int] = None,
                  prune: Optional[PrunePredicate] = None) -> Iterator[list[int]]:
    """Depth-first canonical enumeration of proper colorings over raw arrays.

    Edge i may not share a color with the edges in conflicts[i] and takes a
    color at most one above the largest color before it, below max_colors.
    `prune(colors, i)` is consulted after edge i is assigned (edges after i
    read -1); returning True cuts the subtree.  Each assignment is a node;
    when a node beyond the budget is due, BudgetExhausted is raised with the
    budget as the nodes visited.  None or a negative budget means no limit.
    Yields the same list at every leaf, so callers copy what they keep.
    """
    m = len(conflicts)
    colors = [-1] * m
    nodes = 0
    if budget is not None and budget < 0:
        budget = None

    def walk(i: int, used: int) -> Iterator[list[int]]:
        nonlocal nodes
        if i == m:
            yield colors
            return
        forbidden = {colors[j] for j in conflicts[i]}
        for c in range(min(used + 1, max_colors)):
            if c in forbidden:
                continue
            if budget is not None and nodes >= budget:
                raise BudgetExhausted(nodes)
            nodes += 1
            colors[i] = c
            if prune is None or not prune(colors, i):
                yield from walk(i + 1, max(used, c + 1))
        colors[i] = -1

    return walk(0, 0)


class XorShift64Star:
    """Tiny deterministic PRNG shared verbatim with the compiled kernel."""

    def __init__(self, seed: int):
        self.state = (seed & _MASK) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= (x >> 12)
        x = (x ^ (x << 25)) & _MASK
        x ^= (x >> 27)
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK

    def randbelow(self, n: int) -> int:
        return (self.next_u64() >> 33) % n

    def skip(self, n: int):
        """Step the state as n draws would, without their outputs."""
        x = self.state
        for _ in range(n):
            x ^= (x >> 12)
            x = (x ^ (x << 25)) & _MASK
            x ^= (x >> 27)
        self.state = x


def _embeddings_by_last_edge(num_edges: int,
                             emb_edges: Sequence[Sequence[int]]) -> list[list[int]]:
    by_last: list[list[int]] = [[] for _ in range(num_edges)]
    for row, edges in enumerate(emb_edges):
        by_last[max(edges)].append(row)
    return by_last


def _copy_satisfied(colors: Sequence[int], edges: Sequence[int],
                    k: int, exactly: bool) -> bool:
    uniq = unique_color_count([colors[e] for e in edges])
    return uniq == k if exactly else uniq >= k


def _c_ints(values: Sequence[int]) -> bytes:
    return struct.pack(f"{len(values)}i", *values)


class Packed:
    """A list of index lists in the one input form of both backends.  `rows`
    is the lists as given, which the kernels here read; `off` and `idx` are
    the same rows flat, bytes of C ints that native.py hands to native.c
    with no copy: row r is idx[off[r]] .. idx[off[r + 1] - 1].  The `count`
    rows hold `size` indices in all, from `low` to `high` (0 and -1 when
    there is none), for the range checks.

    `off` and `idx` are built on their first read (native.py's, after the
    checks) from the indices as packed, the ones `low` and `high` bound:
    the kernels here never pay for them, and an index past a C int meets
    check_rows before struct does.
    `masks`, restrict's copy filter, is built on its first read too, so a
    table packed once builds it once."""

    __slots__ = ("rows", "count", "size", "low", "high", "has_empty",
                 "_lens", "_flat", "_c", "_masks")

    def __init__(self, rows: Sequence[Sequence[int]]):
        self._lens = list(map(len, rows))
        self._flat = flat = list(chain.from_iterable(rows))
        self._c = self._masks = None
        self.rows = rows
        self.count, self.size = len(rows), len(flat)
        self.low, self.high = (min(flat), max(flat)) if flat else (0, -1)
        self.has_empty = not all(self._lens)  # some row holds no index

    def _c_tables(self) -> tuple[bytes, bytes]:
        if self._c is None:
            self._c = (_c_ints([0, *accumulate(self._lens)]), _c_ints(self._flat))
            self._lens = self._flat = None
        return self._c

    @property
    def off(self) -> bytes:
        return self._c_tables()[0]

    @property
    def idx(self) -> bytes:
        return self._c_tables()[1]

    @property
    def masks(self) -> list[int]:
        """Each row's indices as one bit mask."""
        if self._masks is None:
            self._masks = [_bits(row) for row in self.rows]
        return self._masks


def _bits(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


Rows = Union[Sequence[Sequence[int]], Packed]


def pack_rows(rows: Rows) -> Packed:
    """rows in the kernels' input form, once: a caller that passes the same
    rows to many calls packs them first.  A Packed is returned as it is."""
    return rows if isinstance(rows, Packed) else Packed(rows)


def check_rows(rows: Rows, bound: int) -> Packed:
    """rows packed; every index must be in 0..bound-1."""
    packed = pack_rows(rows)
    if packed.low < 0 or packed.high >= bound:
        raise ValueError(f"index out of range 0..{bound - 1} in kernel input")
    return packed


def check_tables(num_edges: int, conflicts: Rows, emb_edges: Rows,
                 edgeless_copies: bool) -> tuple[Packed, Packed]:
    """The refusals of both backends' find_avoiding_coloring and
    sample_and_check for their tables, packed: one conflict list per edge,
    every index a host edge, and a copy with no edge only where
    edgeless_copies allows it (the avoider checks a copy at its largest
    edge, which an edgeless copy lacks)."""
    conf = pack_rows(conflicts)
    if conf.count != num_edges:
        raise ValueError(f"{conf.count} conflict lists for {num_edges} edges")
    check_rows(conf, num_edges)
    emb = check_rows(emb_edges, num_edges)
    if emb.has_empty and not edgeless_copies:
        raise ValueError("a pattern copy with no edge in kernel input")
    return conf, emb


def check_keep(num_edges: int, keep: Sequence[int]):
    """The refusal of both find_avoiding_coloring kernels for a bad `keep`:
    it must name host edges 0..num_edges-1 in strictly ascending order."""
    if any(a >= b for a, b in zip(keep, keep[1:])):
        raise ValueError("kept edges not strictly ascending in kernel input")
    if keep and not 0 <= keep[0] <= keep[-1] < num_edges:
        raise ValueError(f"kept edge out of range 0..{num_edges - 1} in kernel input")


def restrict(conflicts: Sequence[Sequence[int]], emb_edges: Rows,
             keep: Sequence[int]) -> tuple[list[list[int]], list[list[int]]]:
    """The host's conflict lists and copies restricted to its subgraph on
    the edges `keep` (ascending, check_keep): edge keep[j] becomes edge j,
    each conflict list keeps its kept edges, renumbered, and the copies
    whose edges are all kept stay, renumbered, in row order.  A copy is
    kept when its edge mask (Packed.masks) meets no edge outside `keep`.

    For a graph g on K_n's vertices with keep its edges' K_n indices, this
    is (conflict_lists(g), the edge maps of enumerate_embeddings(f, g)) from
    K_n's: both edge orders are lexicographic, so renumbering keeps each
    conflict list ascending, and the embedding stream's order depends on
    the pattern alone, so filtering K_n's keeps it."""
    to = {e: j for j, e in enumerate(keep)}
    emb = pack_rows(emb_edges)
    absent = ~_bits(keep)
    return ([[to[c] for c in conflicts[e] if c in to] for e in keep],
            [[to[e] for e in row] for row, mask in zip(emb.rows, emb.masks)
             if not mask & absent])


def find_avoiding_coloring(num_edges: int, conflicts: Rows, emb_edges: Rows,
                           k: int, exactly: bool, max_colors: int,
                           budget: Optional[int] = None,
                           keep: Optional[Sequence[int]] = None,
                           ) -> tuple[Optional[list[int]], int, bool]:
    """First canonical proper coloring with no satisfied copy.

    A copy is satisfied when its unique-edge count is >= k (== k in exactly
    mode).  Branches are cut as soon as a fully colored copy is satisfied,
    since the copy's count can no longer change.  A negative budget means no
    limit.  With `keep`, the search runs on the subgraph of those edges
    (restrict), and the coloring is indexed by keep's positions; without
    it, every edge is kept.  Returns (colors or None, nodes_visited,
    exhausted).  The tables may come packed (pack_rows); check_tables and
    check_keep refuse malformed ones, and a copy with no edge.
    """
    conf, emb = check_tables(num_edges, conflicts, emb_edges, False)
    conflicts, emb_edges = conf.rows, emb.rows
    if keep is not None:
        check_keep(num_edges, keep)
        conflicts, emb_edges = restrict(conflicts, emb, keep)
        num_edges = len(keep)
    by_last = _embeddings_by_last_edge(num_edges, emb_edges)
    nodes = 0

    def satisfied(colors: list[int], i: int) -> bool:
        nonlocal nodes
        nodes += 1
        return any(_copy_satisfied(colors, emb_edges[r], k, exactly)
                   for r in by_last[i])

    try:
        found = next(canonical_dfs(conflicts, max_colors, budget, satisfied), None)
    except BudgetExhausted as exc:
        return None, exc.nodes_visited, False
    return (list(found) if found is not None else None), nodes, True


def unique_counts(colors: Sequence[int], emb_edges: Rows) -> list[int]:
    """Each copy's unique-edge count under colors; every index of the copies
    must be one of colors (check_rows)."""
    return [unique_color_count([colors[e] for e in edges])
            for edges in check_rows(emb_edges, len(colors)).rows]


def _draw_color(colors: Sequence[int], conflict: Sequence[int], used: int,
                rng: XorShift64Star) -> int:
    """An edge's color in a random proper coloring whose colors so far are
    0..used-1: one draw, uniform over those no edge in `conflict` holds and
    the fresh color `used`, which is always an option."""
    forbidden = {colors[j] for j in conflict}
    options = [c for c in range(used) if c not in forbidden]
    options.append(used)
    return options[rng.randbelow(len(options))]


def random_proper_coloring(num_edges: int, conflicts: Sequence[Sequence[int]],
                           rng: XorShift64Star) -> list[int]:
    """Randomized greedy proper coloring, one _draw_color per edge; a fresh
    color is always an option, so generation never fails."""
    colors = [-1] * num_edges
    used = 0
    for i in range(num_edges):
        colors[i] = c = _draw_color(colors, conflicts[i], used, rng)
        used += c == used
    return colors


def sample_and_check(num_edges: int, conflicts: Rows, emb_edges: Rows,
                     k: int, exactly: bool,
                     num_samples: int, seed: int,
                     skip_rainbow: bool = True) -> dict:
    """Draw seeded random proper colorings, each as random_proper_coloring
    draws it from one stream, and check each contains a satisfied copy.
    With skip_rainbow, a rainbow sample is counted apart and not checked.
    Returns counts plus the first counterexample coloring, if any.

    Once edge i is colored, the copies whose largest edge is i are complete
    and are checked.  A satisfied copy settles the sample once it cannot be
    skipped as rainbow: a color has repeated, or skip_rainbow is off.  The
    rest of a settled sample is not colored, but the stream still steps once
    per edge left, so the counts and the counterexample, which is colored in
    full, are those of coloring every sample in full.  A copy with no edge is
    satisfied before edge 0, iff its unique count of 0 meets k.  The
    tables may come packed (pack_rows); check_tables refuses malformed ones."""
    conf, emb = check_tables(num_edges, conflicts, emb_edges, True)
    conflicts, emb_edges = conf.rows, emb.rows
    rng = XorShift64Star(seed)
    placed = [edges for edges in emb_edges if edges]
    by_last = _embeddings_by_last_edge(num_edges, placed)
    edgeless_hit = len(placed) < len(emb_edges) and _copy_satisfied([], [], k, exactly)
    checked = 0
    rainbow_skipped = 0
    for s in range(num_samples):
        colors = [-1] * num_edges
        used = 0
        hit = edgeless_hit
        for i in range(num_edges):
            if hit and (used < i or not skip_rainbow):
                rng.skip(num_edges - i)
                break
            colors[i] = c = _draw_color(colors, conflicts[i], used, rng)
            used += c == used
            hit = hit or any(_copy_satisfied(colors, placed[r], k, exactly)
                             for r in by_last[i])
        if skip_rainbow and used == num_edges:
            rainbow_skipped += 1
            continue
        checked += 1
        if not hit:
            return {"checked": checked, "rainbow_skipped": rainbow_skipped,
                    "counterexample": colors, "sample_index": s}
    return {"checked": checked, "rainbow_skipped": rainbow_skipped,
            "counterexample": None, "sample_index": None}


def _equitable(adj: list[int], cells: list[list[int]],
               splitters: list[int]) -> list[list[int]]:
    """Refine the ordered partition `cells` until it is equitable: every
    vertex of a cell has the same number of neighbors in each cell.

    `adj[v]` is v's neighborhood as a bit mask.  Each round splits every
    cell by its vertices' neighbor counts in the `splitters` (cell masks)
    and orders the pieces by that count vector, so the result depends on
    the graph and the input order of the cells, not on vertex labels.  On
    entry, two vertices of one cell with the same counts in every splitter
    must have the same counts in every cell.  Of each split cell, every
    piece but the last becomes a splitter for the next round: counts in the
    last piece are the counts in the whole cell minus those in the others.
    """
    while splitters:
        out: list[list[int]] = []
        fresh: list[int] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                a = adj[v]
                groups.setdefault(tuple([(a & s).bit_count() for s in splitters]),
                                  []).append(v)
            if len(groups) == 1:
                out.append(cell)
                continue
            pieces = [groups[sig] for sig in sorted(groups)]
            out += pieces
            for piece in pieces[:-1]:
                mask = 0
                for v in piece:
                    mask |= 1 << v
                fresh.append(mask)
        cells, splitters = out, fresh
    return cells


def check_vertex_count(n: int):
    """The one refusal of both canonical_key kernels: a key's bit a * n + b
    indexes the vertex pairs, and the compiled kernel holds a vertex's
    neighbors in one 64-bit mask."""
    if not 0 <= n <= MAX_KEY_VERTICES:
        raise ValueError(f"canonical_key takes 0..{MAX_KEY_VERTICES} "
                         f"vertices, got {n}")


def endpoint_error(n: int) -> ValueError:
    """The refusal of both canonical_key kernels for an edge endpoint outside
    0..n-1: the compiled one indexes its adjacency masks by endpoint, and
    checks each edge as it reads it."""
    return ValueError(f"edge endpoint out of range 0..{n - 1} in kernel input")


def canonical_key(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """The code of graphs.canonical_key (see there) of the graph on vertices
    0..n-1 with these edges: the largest leaf code of the
    individualisation-refinement search.  Raises ValueError unless
    0 <= n <= MAX_KEY_VERTICES and every endpoint is in 0..n-1."""
    check_vertex_count(n)
    adj = [0] * n
    for (u, v) in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise endpoint_error(n)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = -1

    def search(cells: list[list[int]], splitters: list[int]):
        nonlocal best
        cells = _equitable(adj, cells, splitters)
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            pos = [0] * n
            for p, (v,) in enumerate(cells):
                pos[v] = p
            code = 0
            for (u, v) in edges:
                a, b = pos[u], pos[v]
                code |= (1 << (a * n + b)) | (1 << (b * n + a))
            best = max(best, code)
            return
        tried: list[int] = []
        for v in cell:
            av = adj[v]
            if any((av & ~(1 << u)) == (adj[u] & ~(1 << v)) for u in tried):
                continue
            tried.append(v)
            rest = [w for w in cell if w != v]
            search(cells[:i] + [[v], rest] + cells[i + 1:], [1 << v])

    search([list(range(n))] if n else [], [(1 << n) - 1])
    return best
