import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import naive_spectrum
from rturan.cli import parse_family
from rturan.coloring import (ColoringError, color_class_profile, is_proper,
                             proper_coloring, unique_color_count)
from rturan.graphs import (GraphError, graph_from_edges, make_caterpillar,
                           make_cycle, make_double_star, make_path)
from rturan.spectrum import (KSpectrum, compute_spectrum, ds_spectrum_closed_form,
                             find_qualifying_coloring, full_spectrum_criterion,
                             round_up_k, witness_family)


def full_values(m):
    return tuple(range(m - 1)) + (m,)


def test_small_path_spectra():
    assert compute_spectrum(make_path(1)).values == (1,)
    assert compute_spectrum(make_path(2)).values == (2,)
    assert compute_spectrum(make_path(3)).values == (1, 3)
    assert compute_spectrum(make_path(4)).values == (0, 2, 4)
    assert compute_spectrum(make_path(5)).values == full_values(5)


def test_small_cycle_spectra():
    assert compute_spectrum(make_cycle(3)).values == (3,)
    assert compute_spectrum(make_cycle(4)).values == (0, 2, 4)
    assert compute_spectrum(make_cycle(5)).values == (1, 3, 5)
    assert compute_spectrum(make_cycle(6)).values == full_values(6)


def test_near_rainbow_value_never_occurs():
    for g in (make_path(2), make_path(5), make_cycle(4), make_cycle(6),
              make_double_star(1, 2), make_double_star(2, 2),
              make_caterpillar([1, 0, 1])):
        spec = compute_spectrum(g)
        assert g.num_edges - 1 not in spec.values
        assert g.num_edges == spec.values[-1]


def test_witnesses_are_valid():
    for spec in (compute_spectrum(make_cycle(5)),
                 compute_spectrum(make_double_star(2, 3)),
                 ds_spectrum_closed_form(2, 3)):
        for v, w in spec.witnesses.items():
            assert is_proper(spec.graph, w)
            assert unique_color_count(w.colors) == v


def test_ds_closed_form_matches_enumeration():
    for r, s in ((0, 3), (1, 1), (1, 2), (2, 2), (2, 3)):
        cf = ds_spectrum_closed_form(r, s)
        assert cf.values == compute_spectrum(cf.graph).values
        j = s - r + 1
        assert cf.values == tuple(j + 2 * l for l in range(r + 1))
    # argument order does not matter
    assert ds_spectrum_closed_form(3, 1).values == ds_spectrum_closed_form(1, 3).values


def test_full_spectrum_criterion():
    qualifying = proper_coloring(make_cycle(6), (0, 1, 1, 0, 1, 0))
    assert full_spectrum_criterion(color_class_profile(qualifying))
    rainbow = proper_coloring(make_path(3), (0, 1, 2))
    assert not full_spectrum_criterion(color_class_profile(rainbow))


def test_find_qualifying_coloring():
    c6 = find_qualifying_coloring(make_cycle(6))
    assert c6 is not None
    assert full_spectrum_criterion(color_class_profile(c6))
    # 4 edges cannot host classes of sizes >= 3 and >= 2
    assert find_qualifying_coloring(make_path(4)) is None


def test_witness_family_cycle():
    f = make_cycle(6)
    fam = witness_family(f, find_qualifying_coloring(f))
    assert sorted(fam) == [0, 1, 2, 3, 4, 6]
    for v, w in fam.items():
        assert is_proper(f, w) and unique_color_count(w.colors) == v


def test_witness_family_requires_qualifying_input():
    c4 = make_cycle(4)
    with pytest.raises(ColoringError):
        witness_family(c4, proper_coloring(c4, (0, 1, 1, 0)))


def test_round_up():
    ds22 = make_double_star(2, 2)  # spectrum {1, 3, 5}
    assert round_up_k(ds22, 0) == 1
    assert round_up_k(ds22, 2) == 3
    assert round_up_k(ds22, 3) == 3
    assert round_up_k(ds22, 4) == 5
    assert round_up_k(ds22, 5) == 5
    assert round_up_k(make_cycle(4), 1) == 2
    with pytest.raises(ValueError):
        round_up_k(ds22, 6)
    spec = compute_spectrum(ds22)
    assert round_up_k(ds22, 2, spectrum=spec) == 3


def test_edge_cap_and_budget():
    with pytest.raises(GraphError):
        compute_spectrum(make_path(13))
    partial = compute_spectrum(make_cycle(6), budget=10)
    assert not partial.exhaustive and partial.nodes_visited > 0


def test_spectrum_json():
    spec = compute_spectrum(make_path(3))
    obj = spec.to_json()
    assert obj["values"] == [1, 3]
    assert obj["exhaustive"] is True
    assert set(obj["witnesses"]) == {"1", "3"}


def test_spectrum_of_disconnected_pattern():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    # two independent edges: same color gives 0 unique, distinct gives 2
    assert compute_spectrum(g).values == (0, 2)


def family_specs(max_edges):
    """Every P/C/K/DS/B/T spec, and every caterpillar with at most 4 spine
    vertices, of at most max_edges edges, as CLI tokens."""
    m = max_edges
    yield from ([f"P{k}"] for k in range(1, m + 1))
    yield from ([f"C{k}"] for k in range(3, m + 1))
    yield from ([f"K{n}"] for n in range(1, m + 2) if n * (n - 1) // 2 <= m)
    yield from (["DS", str(r), str(s)] for r in range(m) for s in range(m - r))
    yield from (["B", str(k), str(r)] for k in range(1, m + 2)
                for r in range(m + 2 - k))
    yield from (["T", str(k), str(d)] for k in range(2, m + 1) for d in range(1, m)
                if sum(k ** i for i in range(1, d + 1)) <= m)
    for spine in range(1, 5):
        for pendants in itertools.product(range(m + 1), repeat=spine):
            if spine - 1 + sum(pendants) <= m:
                yield ["CAT", ",".join(map(str, pendants))]


def assert_matches_oracle(g):
    spec = compute_spectrum(g)
    values, witnesses = naive_spectrum(g)
    assert spec.exhaustive
    assert spec.values == values
    assert {v: w.colors for v, w in spec.witnesses.items()} == witnesses


def test_spectrum_matches_full_enumeration_on_families():
    specs = list(family_specs(9))
    assert len(specs) == 514
    for tokens in specs:
        assert_matches_oracle(parse_family(tokens)[1])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.data())
def test_spectrum_matches_full_enumeration_on_random_graphs(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)
                      if pairs else st.just([]))
    assert_matches_oracle(graph_from_edges(n, edges))


# recorded from the full enumeration; witness colors as base-12 digits
FROZEN_12_EDGE_SPECTRA = {
    "P12": {0: "010101010101", 1: "010101010102", 2: "010101010123",
            3: "010101010234", 4: "010101012345", 5: "010101023456",
            6: "010101234567", 7: "010102345678", 8: "010123456789",
            9: "010203456789", 10: "01023456789a", 12: "0123456789ab"},
    "C12": {0: "011010101010", 1: "011010101012", 2: "011010101023",
            3: "011010101234", 4: "011010102345", 5: "011010123456",
            6: "011010234567", 7: "011012345678", 8: "011023456789",
            9: "011213456789", 10: "01123456789a", 12: "0123456789ab"},
    "T 3 2": {0: "012123023013", 1: "012123023014", 2: "012123023045",
              3: "012123023456", 4: "012123024056", 5: "012123024567",
              6: "012123045678", 7: "012123245678", 8: "012123456789",
              9: "012134567189", 10: "01213456789a", 12: "0123456789ab"},
    "B 8 5": {0: "012345012345", 1: "010234012345", 2: "010123012345",
              3: "010102012345", 4: "010101012345", 5: "010101023456",
              6: "010101234567", 7: "010102345678", 8: "010123456789",
              9: "010203456789", 10: "01023456789a", 12: "0123456789ab"},
    "DS 5 6": {2: "012345123456", 4: "012345123467", 6: "012345123678",
               8: "012345126789", 10: "01234516789a", 12: "0123456789ab"},
}


# nodes of the cut canonical search, the unit --budget counts
FROZEN_12_EDGE_NODES = {"P12": 319, "C12": 309, "T 3 2": 241, "B 8 5": 30_181,
                        "DS 5 6": 6_277}


@pytest.mark.parametrize("name", sorted(FROZEN_12_EDGE_SPECTRA))
def test_frozen_12_edge_spectra(name):
    g = parse_family(name.split())[1]
    spec = compute_spectrum(g)
    frozen = FROZEN_12_EDGE_SPECTRA[name]
    nodes = FROZEN_12_EDGE_NODES[name]
    assert spec.exhaustive and spec.nodes_visited == nodes
    assert spec.values == tuple(sorted(frozen))
    assert {v: w.colors for v, w in spec.witnesses.items()} == {
        v: tuple(int(c, 12) for c in digits) for v, digits in frozen.items()}
    # the count is the budget that just suffices; one less reports the nodes
    # the cut search completed
    assert compute_spectrum(g, budget=nodes).exhaustive
    partial = compute_spectrum(g, budget=nodes - 1)
    assert not partial.exhaustive and partial.nodes_visited == nodes - 1


@pytest.mark.parametrize("name", ["P12", "DS 4 7"])
def test_budgeted_spectrum_keeps_first_witnesses(name):
    g = parse_family(name.split())[1]
    full = compute_spectrum(g)
    for budget in (1, 10, 100, 1000):
        partial = compute_spectrum(g, budget=budget)
        for v, w in partial.witnesses.items():
            assert w.colors == full.witnesses[v].colors
