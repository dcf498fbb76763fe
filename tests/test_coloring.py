import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from rturan.coloring import (BudgetExhausted, ColoringError, EdgeColoring,
                             canonicalize, color_class_profile, color_classes,
                             conflict_lists, enumerate_proper_colorings,
                             is_proper, one_factorization, proper_coloring)
from rturan.graphs import (graph_from_edges, make_complete, make_cycle,
                           make_double_star, make_path)
from rturan.spectrum import full_spectrum_criterion

from oracles import naive_is_canonical, naive_proper_colorings


def test_is_proper_basics():
    k3 = make_cycle(3)
    assert is_proper(k3, (0, 1, 2))
    assert not is_proper(k3, (0, 0, 1))
    p2 = make_path(2)
    assert not is_proper(p2, (0, 0))
    c4 = make_cycle(4)
    # edge order (0,1),(0,3),(1,2),(2,3): opposite edges may repeat
    assert is_proper(c4, (0, 1, 1, 0))
    with pytest.raises(ColoringError):
        is_proper(p2, (0,))


def test_proper_coloring_constructor():
    with pytest.raises(ColoringError):
        proper_coloring(make_path(2), (0, 0))
    c = proper_coloring(make_path(2), (0, 1))
    assert c.num_colors == 2 == len(c.colors)
    with pytest.raises(ColoringError):
        EdgeColoring(make_path(2), (0, -1))
    with pytest.raises(ColoringError):
        EdgeColoring(make_path(2), (0, 1, 2))


def test_edge_coloring_is_an_immutable_value():
    c = EdgeColoring(make_path(3), (0, 1, 0))
    same = EdgeColoring(graph=make_path(3), colors=(0, 1, 0))
    assert c == same and hash(c) == hash(same) and len({c, same}) == 1
    assert c != EdgeColoring(make_path(3), (1, 0, 1))
    assert c != EdgeColoring(make_cycle(3), (0, 1, 0))
    for field in ("graph", "colors"):
        with pytest.raises(AttributeError):
            setattr(c, field, None)
        with pytest.raises(AttributeError):
            delattr(c, field)
    assert copy.deepcopy(c) == c == pickle.loads(pickle.dumps(c))


def test_canonical_form():
    assert naive_is_canonical((0, 1, 0, 2))
    assert not naive_is_canonical((1, 0))
    assert not naive_is_canonical((0, 2))
    assert canonicalize((5, 3, 5, 7)) == (0, 1, 0, 2)


@given(st.lists(st.integers(0, 9), max_size=8))
def test_canonicalize_idempotent_and_canonical(colors):
    out = canonicalize(colors)
    assert naive_is_canonical(out)
    assert canonicalize(out) == out


def test_conflict_lists():
    p3 = make_path(3)
    assert conflict_lists(p3) == [[], [0], [1]]
    c4 = make_cycle(4)
    assert conflict_lists(c4) == [[], [0], [0], [1, 2]]


def test_enumeration_small_frozen():
    assert [c.colors for c in enumerate_proper_colorings(make_path(2), 2)] == [(0, 1)]
    assert list(enumerate_proper_colorings(make_path(2), 1)) == []
    assert [c.colors for c in enumerate_proper_colorings(make_cycle(3), 3)] == [(0, 1, 2)]
    c4 = sorted(c.colors for c in enumerate_proper_colorings(make_cycle(4), 4))
    assert c4 == [(0, 1, 1, 0), (0, 1, 1, 2), (0, 1, 2, 0), (0, 1, 2, 3)]
    # K4 with 3 colors: only the pairing of opposite edges
    k4 = [c.colors for c in enumerate_proper_colorings(make_complete(4), 3)]
    assert k4 == [(0, 1, 2, 2, 1, 0)]


def test_enumeration_matches_naive_oracle():
    for g in (make_path(4), make_cycle(5), make_double_star(1, 2),
              make_complete(4), graph_from_edges(5, [(0, 1), (0, 2), (1, 2),
                                                     (2, 3), (3, 4)])):
        for cap in (2, g.num_edges):
            got = sorted(c.colors for c in enumerate_proper_colorings(g, cap))
            assert got == sorted(naive_proper_colorings(g, cap))


def test_enumeration_budget_and_prune():
    with pytest.raises(BudgetExhausted):
        list(enumerate_proper_colorings(make_complete(4), 6, budget=3))
    # pruning right after the first edge kills everything
    assert list(enumerate_proper_colorings(make_cycle(4), 4,
                                           prune=lambda partial, i: i == 0)) == []
    seen = []
    list(enumerate_proper_colorings(make_path(2), 2,
                                    prune=lambda partial, i: bool(seen.append((partial[i], i)))))
    assert (0, 0) in seen


def test_negative_budget_means_no_limit():
    for g in (make_complete(4), make_cycle(5)):
        unlimited = [c.colors for c in enumerate_proper_colorings(g, 4)]
        assert [c.colors for c in enumerate_proper_colorings(g, 4, budget=-1)] == unlimited


def test_one_factorization():
    for m in (1, 2, 3, 4):
        c = one_factorization(m)
        n = 2 * m
        assert c.graph.num_edges == n * (n - 1) // 2
        assert c.num_colors == n - 1
        assert is_proper(c.graph, c)
        classes = color_classes(c)
        assert all(len(cls) == m for cls in classes)
        for cls in classes:  # each class is a perfect matching
            verts = [v for i in cls for v in c.graph.edges[i]]
            assert sorted(verts) == list(range(n))
    with pytest.raises(ColoringError):
        one_factorization(0)


def test_color_class_profile():
    c = one_factorization(3)
    prof = color_class_profile(c)
    assert prof.sizes == (3, 3, 3, 3, 3)
    assert full_spectrum_criterion(prof)
    rainbow = proper_coloring(make_path(3), (0, 1, 2))
    assert color_class_profile(rainbow).sizes == (1, 1, 1)
    assert not full_spectrum_criterion(color_class_profile(rainbow))
    c4 = proper_coloring(make_cycle(4), (0, 1, 1, 0))
    assert color_class_profile(c4).sizes == (2, 2)
    assert not full_spectrum_criterion(color_class_profile(c4))


def test_empty_graph_coloring():
    g = graph_from_edges(3, [])
    out = list(enumerate_proper_colorings(g, 1))
    assert len(out) == 1 and out[0].colors == ()
    with pytest.raises(ColoringError):
        next(enumerate_proper_colorings(g, 0))
