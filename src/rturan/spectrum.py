"""Exact k-spectra: canonical enumeration cut by reachable values, the
closed-form double-star spectrum, the full-spectrum criterion with its
witness procedure, and the k -> k' rounding rule.

Spec(F) is a property of proper colorings of F itself; unique counts are
taken over the identity embedding.  The enumeration cuts a subtree once every
value its colorings could reach already has a witness, so it stops early on
spectra without gaps; a value no coloring reaches (a gap) is refuted only by
exhausting every subtree that could still reach it, which is where the cost
of a spectrum lies.
"""

from __future__ import annotations

from typing import Optional

from .coloring import (BudgetExhausted, ColorClassProfile, ColoringError,
                       EdgeColoring, color_classes, color_class_profile,
                       enumerate_proper_colorings, proper_coloring,
                       unique_color_count)
from .graphs import Graph, GraphError, Record, make_double_star

# largest edge count compute_spectrum enumerates
EDGE_CAP = 12


class KSpectrum(Record):
    _fields = ("graph", "values", "witnesses", "exhaustive", "nodes_visited")

    def __init__(self, graph: Graph, values: tuple[int, ...],
                 witnesses: dict[int, EdgeColoring], exhaustive: bool = True,
                 nodes_visited: int = 0):
        self.graph = graph
        self.values = values
        self.witnesses = witnesses
        self.exhaustive = exhaustive
        self.nodes_visited = nodes_visited

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "graph": self.graph.to_json(),
            "values": list(self.values),
            "witnesses": {str(v): list(w.colors) for v, w in self.witnesses.items()},
            "exhaustive": self.exhaustive,
            "nodes_visited": self.nodes_visited,
        }


def compute_spectrum(f: Graph, budget: Optional[int] = None) -> KSpectrum:
    """Exact spectrum by canonical proper-coloring enumeration.

    Colors are capped at ||F|| (more are never needed).  One more colored
    edge moves the unique count by at most 1, so a prefix of edges 0..i with
    unique count u can only finish in [u - r, u + r], r = ||F|| - 1 - i.  The
    subtree is cut once every value in that window has a witness; ||F|| - 1
    counts as witnessed, as it never occurs (a lone non-unique edge shares its
    color with another edge, which is then non-unique too).  Leaves arrive in
    lexicographic order and a cut never removes an unwitnessed value, so each
    witness is the first coloring with its value, as in the full enumeration.
    Gap values are refuted by exhausting every subtree whose window holds
    them.  nodes_visited counts the colored edges the search tried, the unit
    of the budget; on budget exhaustion the partial spectrum is returned
    flagged non-exhaustive.
    """
    m = f.num_edges
    if m > EDGE_CAP:
        raise GraphError(f"graph has {m} edges, above the spectrum cap {EDGE_CAP}")
    witnesses: dict[int, EdgeColoring] = {}
    # prefix_unique[i]: unique count of edges 0..i-1 on the current DFS path;
    # the DFS calls settled(colors, i) on a prefix only after settled(colors, i - 1),
    # and yields a leaf right after settled(colors, m - 1), so prefix_unique[m]
    # is the leaf's value
    prefix_unique = [0] * (m + 1)
    nodes = 0

    def settled(colors: list[int], i: int) -> bool:
        nonlocal nodes
        nodes += 1  # the DFS consults the prune once per node
        repeats = colors[:i].count(colors[i])
        u = prefix_unique[i] + (1 if repeats == 0 else -1 if repeats == 1 else 0)
        prefix_unique[i + 1] = u
        left = m - 1 - i
        return all(v in witnesses or v == m - 1
                   for v in range(max(u - left, 0), min(u + left, m) + 1))

    exhaustive = True
    gen = enumerate_proper_colorings(f, max_colors=max(m, 1), budget=budget,
                                     prune=settled)
    try:
        for c in gen:
            witnesses.setdefault(prefix_unique[m], c)
    except BudgetExhausted as exc:
        nodes = exc.nodes_visited
        exhaustive = False
    return KSpectrum(f, tuple(sorted(witnesses)), witnesses,
                     exhaustive=exhaustive, nodes_visited=nodes)


def ds_spectrum_closed_form(r: int, s: int) -> KSpectrum:
    """Spec(DS_{r,s}) = {j + 2l : 0 <= l <= min(r, s)} with j = |s - r| + 1.
    Witnesses color make_double_star(r, s)'s edges, in its order: (y,x), then
    r y-pendant edges and s x-pendant edges.  The witness for j+2l gives yx
    color 0 and y's pendants colors 1..r, and repeats colors 1..min(r, s) - l
    on x's pendants, each of the rest of which gets a fresh color."""
    g = make_double_star(r, s)
    witnesses: dict[int, EdgeColoring] = {}
    for l in range(min(r, s) + 1):
        paired = min(r, s) - l
        colors = [0, *range(1, r + 1), *range(1, paired + 1),
                  *range(r + 1, r + 1 + s - paired)]
        witnesses[abs(s - r) + 1 + 2 * l] = proper_coloring(g, colors)
    return KSpectrum(g, tuple(sorted(witnesses)), witnesses)


def full_spectrum_criterion(profile: ColorClassProfile) -> bool:
    """Sufficient condition: largest class >= 3 and smallest class >= 2."""
    sizes = profile.sizes
    return bool(sizes) and sizes[0] >= 3 and sizes[-1] >= 2


def find_qualifying_coloring(f: Graph) -> Optional[EdgeColoring]:
    """Lexicographically least canonical proper coloring whose class profile
    satisfies the full-spectrum criterion, or None."""
    for c in enumerate_proper_colorings(f, max_colors=max(f.num_edges, 1)):
        if full_spectrum_criterion(color_class_profile(c)):
            return c
    return None


def witness_family(f: Graph, coloring: EdgeColoring) -> dict[int, EdgeColoring]:
    """Color-switching procedure: from a qualifying proper coloring, emit one
    proper coloring per spectrum value 0..||F||-2 plus the rainbow ||F||.

    Classes L_1..L_r are collapsed onto their own color one edge at a time,
    starting from a rainbow recoloring; the largest class's last edge is
    switched back and forth to fill the parity gaps.
    """
    profile = color_class_profile(coloring)
    if not full_spectrum_criterion(profile):
        raise ColoringError("coloring does not satisfy the full-spectrum criterion")
    m = f.num_edges
    classes = color_classes(coloring)  # descending size
    rcount = len(classes)
    # rainbow base: class representative e_{i,1} gets color i, the rest fresh
    phi_r = [-1] * m
    for i, cls in enumerate(classes):
        phi_r[cls[0]] = i
    nxt = rcount
    for e in range(m):
        if phi_r[e] == -1:
            phi_r[e] = nxt
            nxt += 1

    out: dict[int, EdgeColoring] = {}

    def emit(expected: int, colors: list[int]):
        c = proper_coloring(f, list(colors))
        got = unique_color_count(c.colors)
        if got != expected:
            raise ColoringError(
                f"switch procedure produced {got}-unique, expected {expected}")
        out.setdefault(expected, c)

    cur = list(phi_r)
    emit(m, cur)
    l1 = len(classes[0])
    e1 = classes[0]
    # collapse L_1 sequentially: ||F||-2 down to ||F||-l1
    for t in range(1, l1):
        cur[e1[t]] = 0
        emit(m - t - 1, cur)
    collapsed = l1
    for i in range(1, rcount):
        cls = classes[i]
        li = len(cls)
        # switch: e_{1,l1} back to its rainbow color while e_{i,2} joins class i
        cur[e1[l1 - 1]] = phi_r[e1[l1 - 1]]
        cur[cls[1]] = i
        emit(m - collapsed - 1, cur)
        cur[e1[l1 - 1]] = 0
        emit(m - collapsed - 2, cur)
        for t in range(2, li):
            cur[cls[t]] = i
            emit(m - collapsed - t - 1, cur)
        collapsed += li
    return out


def round_up_k(f: Graph, k: int, spectrum: Optional[KSpectrum] = None) -> int:
    """Smallest k' >= k lying in Spec(f); equals k when k is achievable."""
    if k > f.num_edges:
        raise ValueError("k exceeds the edge count; the rainbow value is the maximum")
    if spectrum is None:
        spectrum = compute_spectrum(f)
    for v in spectrum.values:
        if v >= k:
            return v
    raise ValueError("spectrum has no value >= k")  # unreachable: ||F|| is achievable
