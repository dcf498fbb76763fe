"""Slow reference implementations used to cross-check the fast engines.

These are deliberately naive: generate-and-filter over full product or
permutation spaces, with no pruning and no shared code with the package
internals beyond the Graph container, except that naive_graphs_up_to_iso
and augmented_graphs_up_to_iso take canonical_key as their isomorphism test
(naive_canonical_key checks that one), naive_embedding_stream takes the
search order of the pattern's vertices from graphs._search_order, which
fixes the stream's order, top_down_extremal runs
search.exists_avoiding_coloring on each class (the avoider search has its
own oracles), and full_draw_sample_and_check draws each sample with
pure.random_proper_coloring (the stream is pinned by its own tests).
"""

import functools
import itertools
import math
from collections import Counter

from rturan._kernels import pure
from rturan.graphs import Graph, _search_order, canonical_key
from rturan.search import exists_avoiding_coloring


def naive_is_proper(g: Graph, colors) -> bool:
    for i, (u, v) in enumerate(g.edges):
        for j, (x, y) in enumerate(g.edges):
            if i < j and {u, v} & {x, y} and colors[i] == colors[j]:
                return False
    return True


def naive_is_canonical(colors) -> bool:
    top = -1
    for c in colors:
        if c > top + 1:
            return False
        top = max(top, c)
    return True


def naive_proper_colorings(g: Graph, max_colors: int):
    """Every canonical proper coloring, by filtering the full product space."""
    out = []
    for colors in itertools.product(range(max_colors), repeat=g.num_edges):
        if naive_is_canonical(colors) and naive_is_proper(g, colors):
            out.append(colors)
    return out


def naive_embeddings(pattern: Graph, host: Graph):
    """Every injective vertex map preserving edges, as sorted vertex-map tuples."""
    out = []
    for perm in itertools.permutations(range(host.n), pattern.n):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in host.edge_index
               for (u, v) in pattern.edges):
            out.append(perm)
    return sorted(out)


def naive_embedding_stream(pattern: Graph, host: Graph, twins: bool = False):
    """Every injective vertex map preserving edges, in the order that
    enumerate_embeddings yields them: sorted by the host images taken in
    search order.  With twins, only the maps that give each class of twin
    leaves (degree-1 vertices with the same neighbor) increasing images in
    search order."""
    order = _search_order(pattern)
    maps = sorted(naive_embeddings(pattern, host),
                  key=lambda vm: [vm[v] for v in order])
    if not twins:
        return maps
    classes: dict[int, list[int]] = {}
    for v in order:
        if len(pattern.adjacency[v]) == 1:
            classes.setdefault(next(iter(pattern.adjacency[v])), []).append(v)
    return [vm for vm in maps
            if all(vm[a] < vm[b] for leaves in classes.values()
                   for a, b in zip(leaves, leaves[1:]))]


def naive_unique_count(pattern: Graph, host: Graph, colors, vertex_map) -> int:
    copy_cols = []
    for (u, v) in pattern.edges:
        a, b = vertex_map[u], vertex_map[v]
        copy_cols.append(colors[host.edge_index[(min(a, b), max(a, b))]])
    counts = Counter(copy_cols)
    return sum(1 for c in copy_cols if counts[c] == 1)


def naive_max_unique(pattern: Graph, host: Graph, colors):
    """Max unique count over all copies, or None when no copy exists."""
    best = None
    for vm in naive_embeddings(pattern, host):
        u = naive_unique_count(pattern, host, colors, vm)
        best = u if best is None else max(best, u)
    return best


def naive_canonical_key(g: Graph) -> tuple:
    """Lexicographically smallest sorted edge list over every vertex
    permutation that maps each degree class onto a block of positions: equal
    exactly for isomorphic graphs, at a cost of the product of the classes'
    factorials (n! on a regular graph)."""
    by_deg: dict[int, list[int]] = {}
    for v, dg in enumerate(g.degrees()):
        by_deg.setdefault(dg, []).append(v)
    classes = sorted(by_deg.items())
    slots = []
    start = 0
    for _, verts in classes:
        slots.append(range(start, start + len(verts)))
        start += len(verts)
    best = None
    for assignment in itertools.product(*(list(itertools.permutations(s))
                                          for s in slots)):
        perm = [0] * g.n
        for (_, verts), images in zip(classes, assignment):
            for v, img in zip(verts, images):
                perm[v] = img
        key = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                           for (u, v) in g.edges))
        if best is None or key < best:
            best = key
    return (g.n, best)


def naive_graphs_up_to_iso(n: int):
    """One graph per isomorphism class of n-vertex graphs, by edge count from
    0 up to binom(n, 2): within an edge count m, the lexicographically first
    labeled m-subset of K_n's edges in each class, in that order, found by
    canonicalising every subset."""
    pairs = list(itertools.combinations(range(n), 2))
    for m in range(len(pairs) + 1):
        seen = set()
        for subset in itertools.combinations(pairs, m):
            g = Graph(n, subset)  # combinations yields sorted, unique pairs
            key = canonical_key(g)
            if key not in seen:
                seen.add(key)
                yield g


def augmented_graphs_up_to_iso(n: int, prune=None):
    """The stream of search.graphs_up_to_iso without its twin-swap skip: every
    absent edge of every class of level s that prune keeps is added, and the
    first graph to reach each canonical_key is kept, until a level is empty."""
    all_edges = list(itertools.combinations(range(n), 2))
    level = [Graph(n, ())]
    while level:
        yield from level
        reps = {}
        for g in level:
            if prune is None or not prune(g):
                for e in all_edges:
                    if e not in g.edge_index:
                        h = Graph(n, tuple(sorted((*g.edges, e))))
                        reps.setdefault(canonical_key(h), h)
        level = [reps[key] for key in sorted(reps)]


@functools.lru_cache(maxsize=None)
def _largest_first(classes, n: int) -> tuple:
    return tuple(sorted(classes(n), key=lambda g: -g.num_edges))


def top_down_extremal(n: int, f: Graph, k, classes=augmented_graphs_up_to_iso) -> int:
    """ex_k(n, f) searched from the top, with no pruning and no budget: the
    edge count of the first class with an avoider among those classes(n)
    yields, taken largest edge count first."""
    for g in _largest_first(classes, n):
        if exists_avoiding_coloring(g, f, k).coloring is not None:
            return g.num_edges
    raise AssertionError("unreachable: the empty graph avoids everything")


def naive_classical_turan(n: int, f: Graph) -> int:
    """Classical ex(n, f): the most edges of a subgraph of K_n holding no copy
    of f, found by testing every edge subset with naive_embeddings, largest
    subsets first."""
    pairs = list(itertools.combinations(range(n), 2))
    for m in range(len(pairs), -1, -1):
        for subset in itertools.combinations(pairs, m):
            if not naive_embeddings(f, Graph(n, subset)):
                return m
    raise AssertionError("unreachable: the empty graph holds no copy of f")


def _partitions(n: int, largest: int):
    """Partitions of n into parts of at most `largest`, parts non-increasing."""
    if n == 0:
        yield []
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k] + rest


def burnside_graph_count(n: int, m: int) -> int:
    """Number of n-vertex, m-edge graphs up to isomorphism, by Burnside's
    lemma: the average over S_n of the m-edge sets a permutation fixes, summed
    by cycle type (Harary & Palmer, *Graphical Enumeration*, 1973; OEIS
    A008406).  A fixed edge set is a union of cycles of the permutation's
    action on vertex pairs."""
    total = 0
    for parts in _partitions(n, n):
        perms = math.factorial(n)
        for k, j in Counter(parts).items():
            perms //= k ** j * math.factorial(j)
        pair_cycles = []
        for i, a in enumerate(parts):
            # pairs inside one a-cycle: (a-1)//2 cycles of length a, plus
            # the a/2 antipodal pairs when a is even
            pair_cycles += [a] * ((a - 1) // 2)
            if a % 2 == 0:
                pair_cycles.append(a // 2)
            # pairs across an a-cycle and a b-cycle: gcd cycles of length lcm
            for b in parts[i + 1:]:
                pair_cycles += [math.lcm(a, b)] * math.gcd(a, b)
        fixed = [1] + [0] * m  # fixed[s]: unions of pair cycles with s pairs
        for length in pair_cycles:
            for s in range(m, length - 1, -1):
                fixed[s] += fixed[s - length]
        total += perms * fixed[m]
    count, rest = divmod(total, math.factorial(n))
    assert rest == 0, "Burnside sum not divisible by n!"
    return count


def naive_spectrum(g: Graph):
    """Spec(g) by the full canonical enumeration: every proper coloring with
    at most ||g|| colors whose colors first occur in order 0, 1, 2, ..., in
    lexicographic order, keeping the first coloring of each unique count.
    Returns (values, {value: colors})."""
    m = g.num_edges
    witnesses: dict[int, tuple] = {}
    colors: list[int] = []

    def walk():
        i = len(colors)
        if i == m:
            counts = Counter(colors)
            witnesses.setdefault(sum(1 for c in colors if counts[c] == 1),
                                 tuple(colors))
            return
        for c in range(min(max(colors, default=-1) + 2, max(m, 1))):
            if all(colors[j] != c or not set(g.edges[i]) & set(g.edges[j])
                   for j in range(i)):
                colors.append(c)
                walk()
                colors.pop()

    walk()
    return tuple(sorted(witnesses)), witnesses


def full_draw_sample_and_check(num_edges: int, conflicts, emb_edges, k: int,
                               exactly: bool, num_samples: int, seed: int,
                               skip_rainbow: bool = True) -> dict:
    """The result of _kernels.sample_and_check with every sample colored in
    full before any copy is checked: draw all edges from the one seeded
    stream, skip a rainbow sample when asked, then scan every copy."""
    rng = pure.XorShift64Star(seed)
    checked = rainbow_skipped = 0
    for s in range(num_samples):
        colors = pure.random_proper_coloring(num_edges, conflicts, rng)
        if skip_rainbow and len(set(colors)) == num_edges:
            rainbow_skipped += 1
            continue
        checked += 1
        uniques = (sum(1 for e in edges
                       if [colors[f] for f in edges].count(colors[e]) == 1)
                   for edges in emb_edges)
        if not any(u == k if exactly else u >= k for u in uniques):
            return {"checked": checked, "rainbow_skipped": rainbow_skipped,
                    "counterexample": colors, "sample_index": s}
    return {"checked": checked, "rainbow_skipped": rainbow_skipped,
            "counterexample": None, "sample_index": None}
