import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rturan._kernels import pure
from rturan.coloring import (EdgeColoring, conflict_lists, one_factorization,
                             proper_coloring, unique_color_count)
from rturan.detect import find_k_unique, report_for
from rturan.graphs import (Embedding, Graph, enumerate_embeddings, graph_from_edges,
                           make_caterpillar, make_complete, make_cycle,
                           make_double_star, make_path)

from oracles import naive_embedding_stream, naive_max_unique


def labeled_stream(pattern, host):
    """Every labeled embedding, in the order a search over all of them
    would take: the plain filter that find_k_unique must agree with."""
    return [Embedding.from_vertex_map(pattern, host, vm)
            for vm in naive_embedding_stream(pattern, host)]


def test_unique_count_examples():
    p3 = make_path(3)
    rainbow = proper_coloring(p3, (0, 1, 2))
    ident = next(enumerate_embeddings(p3, p3))
    assert unique_color_count([rainbow.colors[i] for i in ident.edge_map]) == 3
    c4 = make_cycle(4)
    paired = proper_coloring(c4, (0, 1, 1, 0))
    ident4 = next(e for e in enumerate_embeddings(c4, c4)
                  if e.vertex_map == (0, 1, 2, 3))
    assert unique_color_count([paired.colors[i] for i in ident4.edge_map]) == 0
    rep = report_for(paired, ident4)
    assert rep.unique_count == 0 and sorted(rep.color_multiset) == [0, 0, 1, 1]


def test_find_k_unique_modes():
    c = proper_coloring(make_cycle(4), (0, 1, 1, 0))
    p2 = make_path(2)
    # properness forces both edges of any 2-path to differ
    assert find_k_unique(c, p2, 2) is not None
    assert find_k_unique(c, p2, 3) is None  # k above the edge count


def test_found_report_is_self_consistent():
    host = make_complete(5)
    f = make_double_star(1, 2)
    c = proper_coloring(host, tuple(pure.random_proper_coloring(
        host.num_edges, conflict_lists(host), pure.XorShift64Star(99))))
    for k in range(f.num_edges + 1):
        rep = find_k_unique(c, f, k)
        if rep is not None:
            assert rep.unique_count >= k
            copy_colors = [c.colors[i] for i in rep.embedding.edge_map]
            assert unique_color_count(copy_colors) == rep.unique_count


def test_against_naive_max_over_embeddings():
    host = make_complete(5)
    patterns = [make_path(2), make_path(3), make_double_star(1, 1),
                make_double_star(1, 2)]
    rng = pure.XorShift64Star(7)
    conf = conflict_lists(host)
    for _ in range(5):
        colors = pure.random_proper_coloring(host.num_edges, conf, rng)
        c = proper_coloring(host, tuple(colors))
        for f in patterns:
            best = naive_max_unique(f, host, colors)
            for k in range(f.num_edges + 1):
                hit = find_k_unique(c, f, k)
                assert (hit is not None) == (best is not None and best >= k)


def test_monotone_in_k():
    c = one_factorization(3)
    f = make_double_star(2, 2)
    hits = [find_k_unique(c, f, k) is not None
            for k in range(f.num_edges + 1)]
    # once absent, absent for all larger k
    assert hits == sorted(hits, reverse=True)


def test_rainbow_free_k6():
    c = one_factorization(3)
    ds22, p2 = make_double_star(2, 2), make_path(2)
    assert find_k_unique(c, ds22, ds22.num_edges) is None
    assert find_k_unique(c, p2, p2.num_edges) is not None


def test_no_copy_at_all():
    host = make_path(2)
    c = proper_coloring(host, (0, 1))
    assert find_k_unique(c, make_cycle(3), 0) is None
    assert find_k_unique(c, make_complete(5), 0) is None


@pytest.mark.parametrize("host", [make_complete(5), make_complete(6), make_cycle(6)],
                         ids=["K5", "K6", "C6"])
def test_pruned_search_matches_plain_filter(host):
    # the pruned search must return the first embedding a plain filter over
    # every labeled embedding accepts, for every k
    conf = conflict_lists(host)
    patterns = [make_path(2), make_path(3), make_double_star(1, 2),
                make_double_star(2, 2)]
    streams = {f: labeled_stream(f, host) for f in patterns}
    for seed in (3, 17, 2024):
        colors = pure.random_proper_coloring(host.num_edges, conf,
                                             pure.XorShift64Star(seed))
        c = proper_coloring(host, tuple(colors))
        for f in patterns:
            embs = streams[f]
            counts = [report_for(c, e).unique_count for e in embs]
            for k in range(f.num_edges + 1):
                want = next((e for e, u in zip(embs, counts) if u >= k), None)
                rep = find_k_unique(c, f, k)
                assert (rep.embedding if rep else None) == want, (seed, f.edges, k)


# patterns with twin leaves (classes of 2, 3 and 4, one or two classes), and
# P3 and C4, which have none
TWIN_PATTERNS = [make_path(2), make_double_star(1, 2), make_double_star(2, 2),
                 make_double_star(1, 3), make_double_star(0, 3),
                 make_caterpillar([2, 0, 2]), make_caterpillar([1, 1, 2]),
                 make_path(3), make_cycle(4)]


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 7), st.data())
def test_orbit_search_matches_labeled_filter(n, data):
    # find_k_unique walks one embedding per twin orbit; it must still return
    # exactly the first labeled embedding a plain filter accepts, on any host
    # and any coloring, proper or not, for every k
    pairs = list(itertools.combinations(range(n), 2))
    host = graph_from_edges(n, data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                                  min_size=1, max_size=len(pairs))))
    colors = data.draw(st.lists(st.integers(0, 4), min_size=host.num_edges,
                                max_size=host.num_edges))
    c = EdgeColoring(host, tuple(colors))
    for f in TWIN_PATTERNS:
        embs = labeled_stream(f, host)
        counts = [report_for(c, e).unique_count for e in embs]
        for k in range(f.num_edges + 1):
            want = next((e for e, u in zip(embs, counts) if u >= k), None)
            rep = find_k_unique(c, f, k)
            assert (rep.embedding if rep else None) == want, (f.edges, k)


class CountingIndex(dict):
    """A host edge index that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def _instrumented(g: Graph) -> tuple[Graph, CountingIndex]:
    """A private copy of g whose edge index counts its lookups."""
    host = Graph(g.n, g.edges)
    index = CountingIndex(host.edge_index)
    object.__setattr__(host, "edge_index", index)
    return host, index


def test_twin_class_edge_lookups_k10():
    # the search behind `verify k2s4 --s 3`: find_k_unique streams every
    # orbit of DS_{1,7} in the 1-factorized K10, none rainbow.  Each twin
    # class is placed in one step: x, y and y_1 are placed one at a time (90
    # lookups for the 90 images of xy, 720 for y y_1), then the class of 7
    # leaves at x at once, from a free list that takes one lookup per free
    # neighbor of x's image (720 x 7).  K10 is regular, so the degree cut
    # never skips a candidate here
    c = one_factorization(5)
    host, index = _instrumented(c.graph)
    pattern = make_double_star(1, 7)
    assert find_k_unique(EdgeColoring(host, c.colors), pattern, pattern.num_edges) is None
    assert 0 < index.lookups <= 5_850


def test_degree_cut_edge_lookups_double_star():
    # the first embedding of DS_{10,12} in DS_{10,16}: x (degree 13) can only
    # go to the host's x (degree 17), as the host's y has 11 neighbors; then y
    # takes 1 lookup and the two leaf classes 16 and 10.  Were x placed at
    # the host's y, y's class of 10 would take each of the C(16, 10) = 8,008
    # places among the host x's leaves, every one a dead end (80,134 lookups)
    host, index = _instrumented(make_double_star(10, 16))
    pattern = make_double_star(10, 12)
    first = next(enumerate_embeddings(pattern, host))
    assert first.vertex_map == tuple(range(pattern.n))
    assert 0 < index.lookups <= 27
