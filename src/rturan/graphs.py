"""Immutable simple graphs, the named tree families, and embedding enumeration.

Vertices are dense integers 0..n-1.  The edge list is sorted lexicographically
with each pair's endpoints sorted, which fixes a canonical edge index space
that colorings and certificates refer to.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple, Optional, Sequence

from . import _kernels

DEFAULT_VERTEX_CAP = _kernels.pure.MAX_KEY_VERTICES
# the most vertices of any graph rturan builds (an augmented k-ary tree); a
# serialized graph with more is refused, as each vertex costs memory first
MAX_VERTICES = 100_000


class GraphError(ValueError):
    pass


class Record:
    """Base of rturan's value records.

    A subclass lists its __init__ arguments, in order, as ``_fields``, and
    keeps each one under the same attribute name.  Records of one class are
    equal when their ``_fields`` values are, repr lists every field, and copy
    and pickle rebuild through __init__ from those values.  A record is
    unhashable, as it may hold a dict; the immutable Graph and EdgeColoring
    set ``__hash__ = Record._hash_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def _hash_fields(self) -> int:
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def read_only(self, name, value=None):
    """__setattr__ and __delattr__ of the immutable Graph and EdgeColoring.

    Their __init__ sets each slot once through object.__setattr__, and
    Record.__reduce__ rebuilds through __init__, so copy and pickle never set
    a slot."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set "
                         f"or delete {name!r}")


class Graph(Record):
    """Simple undirected graph with canonical (lexicographic) edge indexing.

    Immutable; equal and hashed by value over n, edges and labels."""

    __slots__ = ("n", "edges", "labels", "adjacency", "edge_index")
    _fields = ("n", "edges", "labels")
    __setattr__ = __delattr__ = read_only
    __hash__ = Record._hash_fields

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...],
                 labels: Optional[tuple[str, ...]] = None):
        if n < 0:
            raise GraphError("negative vertex count")
        seen = set()
        prev = None
        for (u, v) in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range")
            if u >= v:
                raise GraphError(f"edge ({u},{v}) endpoints not sorted / self-loop")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            if prev is not None and (u, v) <= prev:
                raise GraphError("edge list not sorted lexicographically")
            seen.add((u, v))
            prev = (u, v)
        if labels is not None and len(labels) != n:
            raise GraphError("labels length mismatch")
        adj = [set() for _ in range(n)]
        for (u, v) in edges:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "adjacency", tuple(frozenset(a) for a in adj))
        object.__setattr__(self, "edge_index", {e: i for i, e in enumerate(edges)})

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def to_json(self) -> dict:
        out = {"n": self.n, "edges": [list(e) for e in self.edges]}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Graph":
        """Raises GraphError on input that is not a serialized graph."""
        if not isinstance(obj, dict):
            raise GraphError(f"graph is not a JSON object: {obj!r}")
        n, edges, labels = obj.get("n"), obj.get("edges"), obj.get("labels")
        if not is_int(n):
            raise GraphError(f"graph field 'n' is not an integer: {n!r}")
        if n > MAX_VERTICES:
            raise GraphError(f"graph field 'n' is {n}, above the "
                             f"{MAX_VERTICES}-vertex cap")
        if not (isinstance(edges, list) and all(
                isinstance(e, (list, tuple)) and len(e) == 2
                and all(map(is_int, e)) for e in edges)):
            raise GraphError(f"graph field 'edges' is not a list of integer "
                             f"pairs: {edges!r}")
        if "labels" in obj and not (isinstance(labels, list) and all(
                isinstance(x, str) for x in labels)):
            raise GraphError(f"graph field 'labels' is not a list of strings: "
                             f"{labels!r}")
        return graph_from_edges(n, [tuple(e) for e in edges], labels or None)


def is_int(value) -> bool:
    """An integer as a JSON field means it: bool is an int subclass, but
    true/false there is a wrong type."""
    return isinstance(value, int) and not isinstance(value, bool)


def graph_from_edges(n: int, edges: Sequence[tuple[int, int]],
                     labels: Optional[Sequence[str]] = None) -> Graph:
    """Normalize an edge list (sort endpoints, sort and dedup edges) into a Graph."""
    norm = sorted({(min(u, v), max(u, v)) for (u, v) in edges})
    return Graph(n, tuple(norm), tuple(labels) if labels is not None else None)


def _check_cap(n: int, cap: int):
    if n > cap:
        raise GraphError(f"vertex count {n} exceeds cap {cap}")


def make_path(k: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Path P_k with k edges and k+1 vertices (indexed by length)."""
    if k < 1:
        raise GraphError("path length must be >= 1")
    _check_cap(k + 1, cap)
    return graph_from_edges(k + 1, [(i, i + 1) for i in range(k)])


def make_cycle(k: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Cycle C_k on k vertices, k >= 3."""
    if k < 3:
        raise GraphError("cycle needs at least 3 vertices")
    _check_cap(k, cap)
    return graph_from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def make_complete(n: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs at least 1 vertex")
    _check_cap(n, cap)
    return graph_from_edges(n, list(itertools.combinations(range(n), 2)))


def make_double_star(r: int, s: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Double star DS_{r,s}: edge yx with r pendants at y and s pendants at x.

    Vertex 0 is y, vertex 1 is x, then y_1..y_r, then x_1..x_s.
    """
    if r < 0 or s < 0:
        raise GraphError("pendant counts must be nonnegative")
    _check_cap(r + s + 2, cap)
    labels = ["y", "x"] + [f"y_{i + 1}" for i in range(r)] + [f"x_{i + 1}" for i in range(s)]
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(r)]
    edges += [(1, 2 + r + i) for i in range(s)]
    return graph_from_edges(r + s + 2, edges, labels)


def make_caterpillar(pendants: Sequence[int], cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Caterpillar: spine x_1..x_k with pendants[i] leaves at x_{i+1}."""
    if len(pendants) == 0:
        raise GraphError("caterpillar needs a nonempty spine")
    if any(c < 0 for c in pendants):
        raise GraphError("pendant counts must be nonnegative")
    k = len(pendants)
    n = k + sum(pendants)
    _check_cap(n, cap)
    labels = [f"x_{i + 1}" for i in range(k)]
    edges = [(i, i + 1) for i in range(k - 1)]
    nxt = k
    for i, c in enumerate(pendants):
        for j in range(c):
            edges.append((i, nxt))
            labels.append(f"y_{i + 1},{j + 1}")
            nxt += 1
    return graph_from_edges(n, edges, labels)


def make_broom(k: int, r: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Broom B_{k,r}: path on k vertices with r leaves at the last vertex."""
    if k < 1:
        raise GraphError("broom spine needs at least 1 vertex")
    return make_caterpillar([0] * (k - 1) + [r], cap=cap)


def make_perfect_kary(k: int, d: int, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Perfect k-ary tree T(k,d): every internal vertex has k children, leaves at depth d."""
    if k < 2 or d < 1:
        raise GraphError("need arity >= 2 and depth >= 1")
    n = (k ** (d + 1) - 1) // (k - 1)
    _check_cap(n, cap)
    labels = ["v_{0,1}"]
    edges = []
    # breadth-first ids: level i starts at (k^i - 1)//(k - 1)
    for i in range(1, d + 1):
        start = (k ** i - 1) // (k - 1)
        parent_start = (k ** (i - 1) - 1) // (k - 1)
        for j in range(k ** i):
            child = start + j
            parent = parent_start + j // k
            edges.append((parent, child))
            labels.append(f"v_{{{i},{j + 1}}}")
    return graph_from_edges(n, edges, labels)


def _distances(g: Graph, src: int) -> dict[int, int]:
    """Breadth-first distances from src to every vertex it reaches."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def diameter(g: Graph) -> Optional[int]:
    """Longest shortest path; None if disconnected or empty.

    A tree takes two sweeps: in a tree, a vertex farthest from any vertex
    ends a longest path.  Other graphs take a sweep from every vertex."""
    if g.n == 0:
        return None
    dist = _distances(g, 0)
    if len(dist) < g.n:
        return None
    if g.num_edges == g.n - 1:
        return max(_distances(g, max(dist, key=dist.get)).values())
    return max(max(_distances(g, src).values()) for src in range(g.n))


class Embedding(NamedTuple):
    """Injective vertex map of a pattern into a host, with the induced edge map."""

    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]

    @classmethod
    def from_vertex_map(cls, pattern: Graph, host: Graph,
                        vertex_map: Sequence[int]) -> "Embedding":
        vm = tuple(vertex_map)
        if len(vm) != pattern.n or len(set(vm)) != len(vm):
            raise GraphError("vertex map must be injective and total")
        emap = []
        for (u, v) in pattern.edges:
            a, b = vm[u], vm[v]
            key = (min(a, b), max(a, b))
            if key not in host.edge_index:
                raise GraphError(f"pattern edge ({u},{v}) not preserved")
            emap.append(host.edge_index[key])
        return cls(vm, tuple(emap))

    def to_json(self) -> dict:
        return {"vertex_map": list(self.vertex_map), "edge_map": list(self.edge_map)}


def _search_order(pattern: Graph) -> list[int]:
    """Degree-descending DFS order over pattern vertices (early pruning).

    The leaves of each twin class take consecutive steps after their
    parent, which `enumerate_embeddings` relies on.  A root has the largest
    degree left, and a class's parent has degree >= 2, so no leaf of a class
    is a root; each is pushed only when its parent is placed, below the
    parent's other new neighbors (it sorts first), and it pushes nothing."""
    remaining = set(range(pattern.n))
    order: list[int] = []
    while remaining:
        root = max(remaining, key=lambda v: (pattern.degree(v), -v))
        stack = [root]
        while stack:
            v = stack.pop()
            if v not in remaining:
                continue
            remaining.discard(v)
            order.append(v)
            nbrs = sorted(pattern.adjacency[v] & remaining,
                          key=lambda w: (pattern.degree(w), -w))
            stack.extend(nbrs)
    return order


def twin_classes(pattern: Graph) -> list[list[int]]:
    """Classes of twin leaves: degree-1 vertices sharing their one neighbor,
    in increasing vertex order.  Classes of size 1 are left out."""
    by_parent: dict[int, list[int]] = {}
    for v, nbrs in enumerate(pattern.adjacency):
        if len(nbrs) == 1:
            by_parent.setdefault(next(iter(nbrs)), []).append(v)
    return [leaves for leaves in by_parent.values() if len(leaves) > 1]


def twin_orbit_size(pattern: Graph) -> int:
    """Labeled embeddings per embedding that enumerate_embeddings yields: the
    product of the twin classes' factorials, so labeled = orbits x this."""
    return math.prod(math.factorial(len(leaves)) for leaves in twin_classes(pattern))


def enumerate_embeddings(pattern: Graph, host: Graph) -> Iterator[Embedding]:
    """Yield one embedding (injective homomorphism) of pattern into host per
    orbit of twin-leaf swaps.

    Each class of twin leaves (see `twin_classes`) takes increasing host
    vertices in search order.  The stream is the labeled stream filtered to
    those embeddings, so its length times `twin_orbit_size(pattern)` is the
    labeled count.  Copies in one orbit map onto the same host edge set, so
    a search that reads a copy only through its edges (its color multiset,
    its largest edge) loses nothing.  Other pattern automorphisms are not
    quotiented.  The order is deterministic: lexicographic in the host
    images taken in search order.  Empty stream when no copy exists.

    One step per twin class: `_search_order` gives the r leaves of a class r
    consecutive steps after their parent, so the class is placed at its
    first step, all at once.  Its images are one r-combination of the free
    list, the host neighbors of the parent's image not yet used, in sorted
    order.  The increasing r-tuples that `itertools.combinations` draws
    from that list, in its lexicographic order, are exactly the increasing
    maps of the class in the order a step per leaf would try them, and no
    leaf adds a test (its one neighbor is the parent).  So the stream, its
    order and its edge maps are those of a step per leaf, reached with
    fewer generator frames and no dead end inside a class.

    Degree cut: a single-vertex step skips a host vertex with fewer
    neighbors than its pattern vertex.  No embedding maps a vertex there
    (the map is injective, so the image of a vertex of degree d has at
    least d neighbors), so the cut only prunes subtrees that yield nothing,
    and the stream and its order are unchanged.  It matters on hosts whose
    degrees differ: a center of a double star placed at a host vertex of
    too small a degree would otherwise meet its dead end only after every
    placement of the other center's leaf class.
    """
    if pattern.n > host.n or pattern.n == 0:
        return
    order = _search_order(pattern)
    pos = {v: i for i, v in enumerate(order)}
    # for each step, (placed neighbor, pattern edge index) pairs: the pattern
    # edges that become mapped when the step's vertex is placed; the first
    # one supplies the candidates, the others are adjacency tests
    steps = [[(w, pattern.edge_index[(min(v, w), max(v, w))])
              for w in pattern.adjacency[v] if pos[w] < pos[v]] for v in order]
    checks = [[w for w, _ in nbrs[1:]] for nbrs in steps]
    # for the first step of each twin class, its leaves with their edges to
    # the parent, in search order; the class's later steps are never entered
    classes: list[Optional[list[tuple[int, int]]]] = [None] * len(order)
    for leaves in twin_classes(pattern):
        first = min(map(pos.__getitem__, leaves))
        classes[first] = [(order[i], steps[i][0][1])
                          for i in range(first, first + len(leaves))]
    # the degree each step's image needs; twin leaves need 1, which every
    # neighbor of their parent's image has, so class steps skip the test
    need = [pattern.degree(v) for v in order]
    adjacency = host.adjacency
    edge_index = host.edge_index
    neighbors = [sorted(a) for a in adjacency]
    host_degree = [len(a) for a in adjacency]
    last = len(order) - 1
    vmap = [-1] * pattern.n
    emap = [-1] * pattern.num_edges
    used = [False] * host.n

    def extend(i: int) -> Iterator[Embedding]:
        leaves = classes[i]
        if leaves is not None:
            p = vmap[steps[i][0][0]]
            free = [(c, edge_index[(c, p) if c < p else (p, c)])
                    for c in neighbors[p] if not used[c]]
            nxt = i + len(leaves)
            for images in itertools.combinations(free, len(leaves)):
                for (v, ei), (c, hi) in zip(leaves, images):
                    vmap[v] = c
                    emap[ei] = hi
                if nxt > last:
                    yield Embedding(tuple(vmap), tuple(emap))
                else:
                    for c, _ in images:
                        used[c] = True
                    yield from extend(nxt)
                    for c, _ in images:
                        used[c] = False
            return
        v = order[i]
        nbrs = steps[i]
        rest = checks[i]
        degree = need[i]
        for c in neighbors[vmap[nbrs[0][0]]] if nbrs else range(host.n):
            if used[c] or host_degree[c] < degree:
                continue
            if rest and any(c not in adjacency[vmap[w]] for w in rest):
                continue
            vmap[v] = c
            for w, ei in nbrs:
                hw = vmap[w]
                emap[ei] = edge_index[(c, hw) if c < hw else (hw, c)]
            if i == last:
                yield Embedding(tuple(vmap), tuple(emap))
            else:
                used[c] = True
                yield from extend(i + 1)
                used[c] = False

    yield from extend(0)


def canonical_key(g) -> tuple:
    """Canonical form: ``canonical_key(g) == canonical_key(h)`` exactly when g
    and h are isomorphic (same vertex count, same edges up to relabeling).
    Labels are ignored, and g may be any record with a vertex count ``n`` and
    an edge list ``edges``, as a Graph has.  At most DEFAULT_VERTEX_CAP (64)
    vertices; more raise ValueError.

    The key is ``(n, code)``, where code is the integer the kernel
    (_kernels.canonical_key) computes.  Its value, not only its equality, is
    a contract, the same integer on both backends: graphs_up_to_iso orders
    each level by key, which picks the representative graphs and the avoider
    brute_extremal certifies.

    Individualisation-refinement (McKay & Piperno, *Practical graph
    isomorphism II*, 2014): refine the vertex partition until it is
    equitable, then individualise each vertex of the first non-singleton
    cell in turn and recurse.  Each leaf, a discrete partition, relabels g
    by cell position; code is the largest relabeled edge set over the
    leaves, bit a * n + b standing for the edge between positions a and b.
    A vertex whose swap with an already tried vertex is an automorphism (a
    twin: ``N(u) - {v} == N(v) - {u}``) is not tried, so complete, empty and
    near-complete graphs take one branch per level.  Other symmetric graphs
    still branch: r disjoint edges take r! leaves.
    """
    return (g.n, _kernels.canonical_key(g.n, g.edges))
