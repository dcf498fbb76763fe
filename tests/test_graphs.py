import copy
import itertools
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from rturan.bounds import augment_double_star, caterpillar_bounds
from rturan.coloring import proper_coloring
from rturan.graphs import (DEFAULT_VERTEX_CAP, MAX_VERTICES, Embedding, Graph,
                           GraphError, Record, canonical_key, diameter,
                           enumerate_embeddings, graph_from_edges,
                           make_broom, make_caterpillar, make_complete,
                           make_cycle, make_double_star, make_path,
                           make_perfect_kary, _search_order, twin_classes,
                           twin_orbit_size)
from rturan.search import verify_k2s4_construction
from rturan.spectrum import compute_spectrum

from oracles import naive_canonical_key, naive_embedding_stream, naive_embeddings


def test_graph_normalization_and_validation():
    g = graph_from_edges(3, [(2, 0), (1, 0), (0, 2)])
    assert g.edges == ((0, 1), (0, 2))
    assert g.degrees() == (2, 1, 1)
    with pytest.raises(GraphError):
        graph_from_edges(2, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(2, ((0, 3),))
    with pytest.raises(GraphError):
        Graph(3, ((0, 2), (0, 1)))  # not sorted
    with pytest.raises(GraphError):
        Graph(2, ((0, 1),), labels=("a",) * 3)
    with pytest.raises(GraphError, match="negative"):
        Graph(-1, ())
    with pytest.raises(GraphError, match="duplicate"):
        Graph(2, ((0, 1), (0, 1)))


def test_graph_json_roundtrip():
    g = make_double_star(2, 3)
    assert Graph.from_json(g.to_json()) == g
    for bad in ([], {"n": True, "edges": []}, {"n": 3, "edges": [[0]]},
                {"n": 3, "edges": [[0, 1, 2]]}, {"n": 3, "edges": [[0, "1"]]},
                {"n": 3, "edges": [[0, 1.0]]},
                {"n": 2, "edges": [[0, 1]], "labels": [1, 2]},
                {"n": 2, "edges": [[0, 1]], "labels": None}):
        with pytest.raises(GraphError):
            Graph.from_json(bad)
    # n is refused above the cap before a vertex is allocated
    for n in (MAX_VERTICES + 1, 10**12):
        with pytest.raises(GraphError, match="vertex cap"):
            Graph.from_json({"n": n, "edges": []})


def test_path_cycle_complete_shapes():
    p = make_path(4)
    assert (p.n, p.num_edges) == (5, 4)
    assert diameter(p) == 4
    c = make_cycle(6)
    assert (c.n, c.num_edges) == (6, 6)
    assert diameter(c) == 3
    k = make_complete(5)
    assert k.num_edges == 10 and diameter(k) == 1
    with pytest.raises(GraphError):
        make_path(0)
    with pytest.raises(GraphError):
        make_cycle(2)
    with pytest.raises(GraphError):
        make_complete(0)
    with pytest.raises(GraphError):
        make_path(DEFAULT_VERTEX_CAP + 1)


def test_double_star_layout():
    g = make_double_star(2, 3)
    assert (g.n, g.num_edges) == (7, 6)
    assert g.degree(0) == 3 and g.degree(1) == 4
    assert diameter(g) == 3
    assert g.labels[:2] == ("y", "x")
    star = make_double_star(0, 4)
    assert sorted(star.degrees(), reverse=True) == [5, 1, 1, 1, 1, 1]
    assert diameter(star) == 2
    with pytest.raises(GraphError, match="nonnegative"):
        make_double_star(-1, 2)


def test_caterpillar_and_broom():
    cat = make_caterpillar([1, 0, 2])
    assert (cat.n, cat.num_edges) == (6, 5) and diameter(cat) is not None
    assert canonical_key(make_caterpillar([0, 0, 0, 0])) == canonical_key(make_path(3))
    assert canonical_key(make_broom(3, 2)) == canonical_key(make_double_star(1, 2))
    assert make_broom(1, 4).num_edges == 4  # pure star
    with pytest.raises(GraphError):
        make_caterpillar([])
    with pytest.raises(GraphError, match="nonnegative"):
        make_caterpillar([1, -1])
    with pytest.raises(GraphError):
        make_broom(0, 2)


def test_perfect_kary_shapes():
    t = make_perfect_kary(2, 2)
    assert (t.n, t.num_edges) == (7, 6) and diameter(t) is not None
    assert sorted(t.degrees(), reverse=True) == [3, 3, 2, 1, 1, 1, 1]
    assert diameter(t) == 4
    assert make_perfect_kary(3, 2).n == 13
    t3 = make_perfect_kary(2, 3)
    assert (t3.n, t3.num_edges) == (15, 14) and diameter(t3) == 6
    with pytest.raises(GraphError):
        make_perfect_kary(1, 2)


@given(st.integers(2, 7), st.data())
def test_handshake_lemma(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    g = graph_from_edges(n, chosen)
    assert sum(g.degrees()) == 2 * g.num_edges


def test_isomorphism_basic():
    assert canonical_key(make_path(3)) == canonical_key(make_double_star(1, 1))
    assert canonical_key(make_path(3)) != canonical_key(make_double_star(0, 3))
    assert canonical_key(make_cycle(4)) != canonical_key(make_path(4))
    assert canonical_key(make_complete(11)) == canonical_key(make_complete(11))
    empty = [canonical_key(graph_from_edges(n, [])) for n in range(3)]
    assert len(set(empty)) == 3


def test_graph_and_embedding_are_immutable_values():
    g = make_double_star(2, 3)
    same = Graph(n=g.n, edges=tuple(g.edges), labels=g.labels)
    assert g == same and hash(g) == hash(same) and len({g, same}) == 1
    assert g.labels is not None and g != Graph(g.n, g.edges)
    assert g != make_path(g.num_edges) and g != g.to_json()
    for field in ("n", "edges", "labels", "adjacency", "edge_index"):
        with pytest.raises(AttributeError):
            setattr(g, field, None)
        with pytest.raises(AttributeError):
            delattr(g, field)
    assert copy.deepcopy(g) == g == pickle.loads(pickle.dumps(g))
    e = Embedding.from_vertex_map(make_path(2), g, [2, 0, 1])
    same_e = Embedding(vertex_map=(2, 0, 1), edge_map=e.edge_map)
    assert e == same_e and hash(e) == hash(same_e) and len({e, same_e}) == 1
    with pytest.raises(AttributeError):
        e.vertex_map = (0, 1, 2)



# one small real value of each record class, built by the code that makes it
RECORDS = {
    "Graph": lambda: make_double_star(1, 2),
    "EdgeColoring": lambda: proper_coloring(make_path(3), (0, 1, 0)),
    "KSpectrum": lambda: compute_spectrum(make_path(3)),
    "BoundReport": lambda: caterpillar_bounds([1, 1, 1])["constructive"],
    "AugmentedTree": lambda: augment_double_star(1, 1, 1),
    "Certificate": lambda: verify_k2s4_construction(0),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_share_one_value_rule(name):
    record = RECORDS[name]()
    cls = type(record)
    assert cls.__name__ == name and isinstance(record, Record)
    code = cls.__init__.__code__
    assert cls._fields == code.co_varnames[1:code.co_argcount]
    assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))
    assert record != RECORDS["Graph" if name != "Graph" else "EdgeColoring"]()
    assert repr(record).startswith(f"{name}(")
    assert all(f"{field}={getattr(record, field)!r}" in repr(record)
               for field in cls._fields)
    if name in ("Graph", "EdgeColoring"):
        assert hash(copy.deepcopy(record)) == hash(record)
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(record)


def test_embedding_constructor_validates():
    p, k4 = make_path(2), make_complete(4)
    e = Embedding.from_vertex_map(p, k4, [0, 1, 2])
    assert e.edge_map == (k4.edge_index[(0, 1)], k4.edge_index[(1, 2)])
    with pytest.raises(GraphError):
        Embedding.from_vertex_map(p, k4, [0, 0, 1])
    with pytest.raises(GraphError):
        Embedding.from_vertex_map(make_cycle(3), make_path(3), [0, 1, 2])


def test_embedding_counts_frozen():
    # labeled counts: orbits x twin_orbit_size, and the oracle's count
    cases = [
        # single edge: ordered vertex pairs
        (make_path(1), make_complete(4), 12),
        (make_path(2), make_complete(4), 24),
        (make_double_star(2, 2), make_complete(6), 720),
        # self-embeddings count the automorphism group
        *((g, g, aut) for g, aut in ((make_path(3), 2), (make_cycle(6), 12),
                                     (make_double_star(2, 2), 8),
                                     (make_complete(4), 24))),
    ]
    for pattern, host, labeled in cases:
        orbits = sum(1 for _ in enumerate_embeddings(pattern, host))
        assert orbits * twin_orbit_size(pattern) == labeled
        assert len(naive_embeddings(pattern, host)) == labeled


def test_twin_classes():
    assert twin_classes(make_path(1)) == []
    assert twin_classes(make_path(2)) == [[0, 2]]
    assert twin_classes(make_double_star(1, 3)) == [[3, 4, 5]]
    # DS_{0,3}: y is a leaf of x like x_1..x_3
    assert twin_classes(make_double_star(0, 3)) == [[0, 2, 3, 4]]
    assert twin_classes(make_caterpillar([2, 0, 3])) == [[3, 4], [5, 6, 7]]
    assert twin_classes(make_cycle(5)) == []


def circulant(n: int, offsets) -> Graph:
    """Vertex i joined to i + d (mod n) for each offset d."""
    return graph_from_edges(n, [(i, (i + d) % n) for d in offsets for i in range(n)])


@pytest.mark.parametrize("pattern, host, factor, labeled", [
    (make_double_star(2, 2), make_complete(6), 2 * 2, 720),
    (make_double_star(1, 7), make_complete(10), 5040, math.perm(10, 9)),
    (make_path(2), make_complete(4), 2, 24),
    (make_caterpillar([2, 0, 3]), make_complete(8), 2 * 6, math.perm(8, 8)),
    (make_caterpillar([2, 0, 2]), circulant(9, (1, 2)), 2 * 2, None),
    # K_{1,4}: its center has 4 free neighbors at every vertex of K5, and at
    # only the hub of the wheel W5, whose rim vertices have 3
    (make_double_star(0, 3), make_complete(5), 24, 5 * 24),
    (make_double_star(0, 3), graph_from_edges(5, [(0, i) for i in range(1, 5)]
                                              + [(1, 2), (2, 3), (3, 4), (1, 4)]), 24, 24),
], ids=["DS22-K6", "DS17-K10", "P2-K4", "CAT203-K8", "CAT202-circulant9",
        "K14-K5", "K14-W5"])
def test_twin_orbit_counts(pattern, host, factor, labeled):
    # one embedding per orbit of twin swaps: orbit count x prod(|class|!) is
    # the labeled count (DS17-K10 is only counted: 3.6M labeled embeddings)
    assert twin_orbit_size(pattern) == factor
    orbits = [e.vertex_map for e in enumerate_embeddings(pattern, host)]
    if pattern.n < 10:
        stream = naive_embedding_stream(pattern, host)
        assert labeled in (None, len(stream))
        labeled = len(stream)
        assert orbits == naive_embedding_stream(pattern, host, twins=True)
    assert len(orbits) * factor == labeled


def test_embeddings_match_naive_oracle():
    cases = [
        (make_path(2), make_cycle(4)),
        (make_path(3), make_complete(5)),
        (make_double_star(1, 2), make_complete(5)),
        (make_cycle(3), make_complete(5)),
        (make_cycle(4), make_cycle(4)),
        (make_double_star(0, 3), graph_from_edges(6, [(0, 1), (0, 2), (0, 3),
                                                      (3, 4), (4, 5)])),
    ]
    for pattern, host in cases:
        # one embedding per orbit of twin swaps, standing for the labeled ones
        got = sorted(e.vertex_map for e in enumerate_embeddings(pattern, host))
        assert got == sorted(naive_embedding_stream(pattern, host, twins=True))
        assert len(got) * twin_orbit_size(pattern) == len(naive_embeddings(pattern, host))


ORDER_PATTERNS = {
    "P2": make_path(2),
    "DS13": make_double_star(1, 3),
    "DS22": make_double_star(2, 2),
    "CAT203": make_caterpillar([2, 0, 3]),
    "C4": make_cycle(4),
    "forest": graph_from_edges(7, [(0, 1), (0, 2), (3, 4), (3, 5), (3, 6)]),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ORDER_PATTERNS)), st.data())
def test_embedding_stream_order_matches_oracle(name, data):
    # the stream itself, in order, not only its set of vertex maps; hosts are
    # K_n minus a few edges, and since CAT 2,0,3 has 8 vertices, its go up to 8
    pattern = ORDER_PATTERNS[name]
    n = data.draw(st.integers(pattern.n, max(7, pattern.n)), label="n")
    pairs = list(itertools.combinations(range(n), 2))
    dropped = data.draw(st.sets(st.sampled_from(pairs)), label="dropped")
    host = graph_from_edges(n, [e for e in pairs if e not in dropped])
    expected = naive_embedding_stream(pattern, host, twins=True)
    # whole embeddings, so each edge map is checked against the host's too
    got = list(enumerate_embeddings(pattern, host))
    assert got == [Embedding.from_vertex_map(pattern, host, vm) for vm in expected]


CLASS_PATTERNS = {
    # two classes, of 2 and 3, at either end of a spine
    "CAT203": make_caterpillar([2, 0, 3]),
    # two classes of 2, and a middle spine vertex with one leaf
    "CAT212": make_caterpillar([2, 1, 2]),
    # a class of 4, and one of 5 where y is a leaf of x like x_1..x_4
    "DS14": make_double_star(1, 4),
    "DS04": make_double_star(0, 4),
    # twins in two components
    "forest": graph_from_edges(7, [(0, 1), (0, 2), (3, 4), (3, 5), (3, 6)]),
    # a class whose parent lies on a cycle
    "triangle+2": graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)]),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CLASS_PATTERNS)), st.data())
def test_twin_class_stream_matches_oracle(name, data):
    # each twin class is placed in one step, as a combination of the free
    # neighbors of its parent's image; on sparse hosts that list is often
    # shorter than the class.  The stream must still be the labeled stream
    # filtered to twin-increasing maps, in order, with its edge maps
    pattern = CLASS_PATTERNS[name]
    n = data.draw(st.integers(pattern.n, 8), label="n")
    pairs = list(itertools.combinations(range(n), 2))
    kept = data.draw(st.sets(st.sampled_from(pairs)), label="kept")
    host = graph_from_edges(n, sorted(kept))
    expected = naive_embedding_stream(pattern, host, twins=True)
    got = list(enumerate_embeddings(pattern, host))
    assert got == [Embedding.from_vertex_map(pattern, host, vm) for vm in expected]


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 9), st.data())
def test_search_order_places_twin_classes_consecutively(n, data):
    # enumerate_embeddings places a twin class at its first step, which is
    # right only when the class takes consecutive steps after its parent:
    # a leaf pushes nothing onto the search stack, and a class's parent has
    # degree >= 2, so no leaf of a class is ever a root
    pairs = list(itertools.combinations(range(n), 2))
    g = graph_from_edges(n, data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                               max_size=len(pairs))))
    patterns = [g, *(make_double_star(r, s) for r, s in ((0, 4), (2, 5), (3, 3))),
                make_caterpillar([2, 0, 3, 1, 4]), make_perfect_kary(3, 2)]
    for pattern in patterns:
        order = _search_order(pattern)
        assert sorted(order) == list(range(pattern.n))
        pos = {v: i for i, v in enumerate(order)}
        for leaves in twin_classes(pattern):
            steps = sorted(pos[v] for v in leaves)
            assert steps == list(range(steps[0], steps[0] + len(leaves)))
            parent = next(iter(pattern.adjacency[leaves[0]]))
            assert pos[parent] < steps[0]


def test_diameter_of_trees_by_two_sweeps():
    # a tree takes two breadth-first sweeps, other graphs one per vertex;
    # both must give the largest distance Floyd-Warshall finds
    def all_pairs_diameter(g):
        d = [[0 if u == v else 1 if v in g.adjacency[u] else math.inf
              for v in range(g.n)] for u in range(g.n)]
        for w, u, v in itertools.product(range(g.n), repeat=3):
            d[u][v] = min(d[u][v], d[u][w] + d[w][v])
        return max(map(max, d))

    graphs = [make_path(6), make_double_star(3, 5), make_caterpillar([2, 0, 3, 1]),
              make_perfect_kary(2, 3), make_perfect_kary(3, 2), make_broom(4, 3),
              make_path(1), make_complete(1), make_cycle(7), make_complete(5),
              circulant(9, (1, 2)),
              # K4 minus an edge, where two sweeps from vertex 0 would give 1
              graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])]
    for g in graphs:
        assert diameter(g) == all_pairs_diameter(g)


def test_embeddings_empty_cases():
    assert list(enumerate_embeddings(make_complete(5), make_complete(4))) == []
    assert list(enumerate_embeddings(make_cycle(3), make_path(5))) == []


def test_diameter_edge_cases():
    assert diameter(graph_from_edges(2, [])) is None  # disconnected
    assert diameter(make_complete(1)) == 0
    assert diameter(Graph(0, ())) is None  # empty
    assert diameter(make_cycle(7)) == 3


def test_canonical_key_iso_invariant():
    a = make_caterpillar([2, 0, 1])
    b = make_caterpillar([1, 0, 2])
    assert canonical_key(a) == canonical_key(b)
    assert canonical_key(make_path(4)) != canonical_key(make_double_star(1, 2))


def relabel(g: Graph, perm) -> Graph:
    return graph_from_edges(g.n, [(perm[u], perm[v]) for (u, v) in g.edges])


def petersen() -> Graph:
    return graph_from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def graph_pairs(max_n: int):
    """A graph and a second graph with as many vertices: a relabeling of
    the first, a relabeling with one edge moved to a non-edge (same edge
    count), or an unrelated graph with the same edge count."""
    @st.composite
    def draw(draw_):
        n = draw_(st.integers(2, max_n))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw_(st.lists(st.sampled_from(pairs), unique=True))
        perm = draw_(st.permutations(range(n)))
        how = draw_(st.sampled_from(("relabel", "move", "unrelated")))
        other = [(perm[u], perm[v]) for (u, v) in edges]
        if how == "unrelated":
            other = draw_(st.lists(st.sampled_from(pairs), unique=True,
                                   min_size=len(edges), max_size=len(edges)))
        elif how == "move" and 0 < len(edges) < len(pairs):
            present = {tuple(sorted(e)) for e in other}
            other.remove(draw_(st.sampled_from(other)))
            other.append(draw_(st.sampled_from(
                [e for e in pairs if e not in present])))
        return graph_from_edges(n, edges), graph_from_edges(n, other)
    return draw()


@settings(deadline=None)
@given(graph_pairs(7))
def test_canonical_key_matches_naive_key(pair):
    a, b = pair
    assert (canonical_key(a) == canonical_key(b)) == \
        (naive_canonical_key(a) == naive_canonical_key(b))


@settings(deadline=None)
@given(st.integers(2, 10), st.data())
def test_canonical_key_relabeling_invariant(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    g = graph_from_edges(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)))
    perm = data.draw(st.permutations(range(n)))
    assert canonical_key(relabel(g, perm)) == canonical_key(g)


def cycles(*lengths: int) -> Graph:
    """Disjoint cycles of the given lengths."""
    edges, start = [], 0
    for k in lengths:
        edges += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    return graph_from_edges(start, edges)


# high-symmetry graphs on 10 vertices.  The last three are regular with two
# vertex orbits: refinement leaves one cell, and a key that tried only some
# of its vertices would depend on the labels.
SYMMETRIC_10 = {
    "K10": make_complete(10),
    "empty": graph_from_edges(10, []),
    "Petersen": petersen(),
    "5K2": graph_from_edges(10, [(2 * i, 2 * i + 1) for i in range(5)]),
    "K5,5": graph_from_edges(10, [(i, j) for i in range(5) for j in range(5, 10)]),
    "C10": make_cycle(10),
    "K10-e": graph_from_edges(10, list(itertools.combinations(range(10), 2))[1:]),
    "C4+C6": cycles(4, 6),
    "C3+C7": cycles(3, 7),
    "K4+prism": graph_from_edges(10, list(itertools.combinations(range(4), 2))
                                 + [(4, 5), (5, 6), (4, 6), (7, 8), (8, 9), (7, 9),
                                    (4, 7), (5, 8), (6, 9)]),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_10))
@settings(deadline=None, max_examples=10)
@given(perm=st.permutations(range(10)))
def test_canonical_key_relabeling_invariant_symmetric(name, perm):
    g = SYMMETRIC_10[name]
    assert canonical_key(relabel(g, perm)) == canonical_key(g)


def test_canonical_key_separates_equitable_lookalikes():
    # pairs that colour refinement alone cannot tell apart: regular graphs
    # with the same degree, so only individualisation separates them
    assert canonical_key(make_cycle(10)) != canonical_key(cycles(5, 5))
    assert canonical_key(cycles(4, 6)) != canonical_key(cycles(3, 7))
    assert canonical_key(petersen()) != canonical_key(circulant(10, (1, 5)))
    k33 = graph_from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    prism = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                 (0, 3), (1, 4), (2, 5)])
    assert canonical_key(k33) != canonical_key(prism)
    assert canonical_key(k33) == canonical_key(circulant(6, (1, 3)))

