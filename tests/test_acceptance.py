"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them inline).
"""

import itertools
from contextlib import contextmanager
from fractions import Fraction

from rturan.bounds import (augment_binary, augment_double_star,
                           binary_coefficients, caterpillar_bounds,
                           ds22_bounds, ds_1_odd_exact, kary_coefficients)
from rturan.coloring import (enumerate_proper_colorings, is_proper,
                             unique_color_count)
from rturan.graphs import (enumerate_embeddings, graph_from_edges,
                           make_caterpillar, make_complete, make_cycle,
                           make_double_star, make_path, twin_orbit_size)
from rturan.search import (RAINBOW, brute_extremal, verify_k2s4_construction,
                           verify_k6_rainbow_free, verify_k6_universal_3unique,
                           verify_reduction)
from rturan.spectrum import (compute_spectrum, ds_spectrum_closed_form,
                             find_qualifying_coloring, round_up_k,
                             witness_family)

from oracles import (naive_classical_turan, naive_embedding_stream,
                     naive_embeddings, naive_proper_colorings)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:2d} [{title}]: FAIL")
        raise
    print(f"\nACCEPTANCE {number:2d} [{title}]: PASS")


def full_values(m):
    return tuple(range(m - 1)) + (m,)


def test_criterion_01_cycle_spectra():
    with criterion(1, "cycle spectra"):
        assert compute_spectrum(make_cycle(3)).values == (3,)
        assert compute_spectrum(make_cycle(4)).values == (0, 2, 4)
        assert compute_spectrum(make_cycle(5)).values == (1, 3, 5)
        for k in (6, 7, 8):
            assert compute_spectrum(make_cycle(k)).values == full_values(k)


def test_criterion_02_path_spectra():
    with criterion(2, "path spectra"):
        assert compute_spectrum(make_path(1)).values == (1,)
        assert compute_spectrum(make_path(2)).values == (2,)
        assert compute_spectrum(make_path(3)).values == (1, 3)
        assert compute_spectrum(make_path(4)).values == (0, 2, 4)
        for k in (5, 6, 7, 8):
            assert compute_spectrum(make_path(k)).values == full_values(k)


def test_criterion_03_double_star_spectrum_closed_form():
    with criterion(3, "double-star spectrum closed form"):
        for r in range(0, 5):
            for s in range(r, 9):
                if r + s + 1 > 9:
                    continue
                cf = ds_spectrum_closed_form(r, s)
                assert cf.values == tuple(s - r + 1 + 2 * l for l in range(r + 1))
                assert cf.values == compute_spectrum(cf.graph).values


def test_criterion_04_full_spectrum_witness_procedure():
    spider = graph_from_edges(
        10, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6),
             (0, 7), (7, 8), (8, 9)])  # three legs of length 3
    trees = [make_caterpillar([0, 1, 0, 0, 1, 0]), spider]
    with criterion(4, "full-spectrum witness procedure"):
        for f in [make_cycle(6), make_cycle(8), make_path(6)] + trees:
            coloring = find_qualifying_coloring(f)
            assert coloring is not None, f
            fam = witness_family(f, coloring)
            m = f.num_edges
            assert sorted(fam) == list(range(m - 1)) + [m]
            for v, w in fam.items():
                assert is_proper(f, w)
                assert unique_color_count(w.colors) == v


def test_criterion_05_k6_one_factorization_rainbow_free():
    with criterion(5, "K6 1-factorization has no rainbow DS22"):
        cert = verify_k6_rainbow_free()
        assert cert.verdict == "PASS"
        assert cert.payload["embeddings_checked"] == 720


def test_criterion_06_k6_universal_exactly_3_unique():
    with criterion(6, "every non-rainbow proper K6 coloring has a 3-unique DS22"):
        cert = verify_k6_universal_3unique(color_cap=6, sample_count=1_000_000,
                                           seed=20240901)
        assert cert.verdict == "PASS"
        assert cert.payload["exhaustive_regime"]["color_cap"] == 6
        sampled = cert.payload["sampled_regime"]
        assert sampled["samples_checked"] + sampled["rainbow_skipped"] == 1_000_000
        assert cert.seed == 20240901
        # sanity anchor for the exhaustive regime: with exactly 5 colors there
        # are six canonical proper colorings of K6, none of them avoiders
        five = [c for c in enumerate_proper_colorings(make_complete(6), 5)
                if c.num_colors == 5]
        assert len(five) == 6


def test_criterion_07_k2s4_constructions():
    with criterion(7, "1-factorized K_{2s+4} avoids rainbow DS_{1,2s+1}"):
        for s in (0, 1, 2, 3):
            assert verify_k2s4_construction(s).verdict == "PASS"


def test_criterion_08_reduction_verification():
    with criterion(8, "double-star reduction exhaustive verification"):
        cases = 0
        for r in range(0, 4):
            for s in range(max(r, 1), 4):
                if r > s:
                    continue
                for l in range(0, r + 1):
                    if r + s + l + 1 > 9:
                        continue
                    aug = augment_double_star(r, s, l)
                    k = s - r + 1 + 2 * l
                    cert = verify_reduction(aug.original, aug, k)
                    assert cert.verdict == "PASS", (r, s, l)
                    assert cert.exhaustive
                    cases += 1
        assert cases >= 10


def test_criterion_09_bound_regressions():
    with criterion(9, "bound formula regressions"):
        lo, hi = ds22_bounds()
        assert (lo.coefficient, hi.coefficient) == (Fraction(5, 2), Fraction(3))
        for s in range(5):
            assert ds_1_odd_exact(s).coefficient == Fraction(2 * s + 3, 2)
        grid = [c for c in itertools.product(range(3), repeat=3)][:20]
        assert len(grid) == 20
        for c1, c2, c3 in grid:
            out = caterpillar_bounds([c1, c2, c3])
            assert out["augmented_edges"] == 3 * c1 + 2 * c2 + c3 + 5
        assert augment_binary(2).edge_count == 12
        assert binary_coefficients(2)["proof_form"].coefficient == Fraction(10, 2)
        # k-ary literal at k=2 uses the 2^{i+1}-3 branching factor
        assert kary_coefficients(2, 2)["literal"].coefficient == \
            Fraction(1 + 2 * (2 ** 3 - 3), 2)
        assert kary_coefficients(2, 3)["literal"].coefficient == \
            Fraction(1 + 2 * (2 ** 3 - 3) + 2 * (2 ** 3 - 3) * (2 ** 4 - 3), 2)


def test_criterion_10_chain_of_inequalities():
    with criterion(10, "k-unique Turan chain"):
        for f in (make_path(3), make_double_star(1, 1), make_double_star(1, 2)):
            m = f.num_edges
            spectrum = compute_spectrum(f)
            for n in (4, 5):
                vals = [brute_extremal(n, f, k)["value"] for k in range(m + 1)]
                assert vals == sorted(vals), (n, vals)
                assert vals[0] == naive_classical_turan(n, f)
                assert vals[m] == brute_extremal(n, f, RAINBOW)["value"]
                for k in range(m + 1):  # rounding identity
                    assert vals[k] == vals[round_up_k(f, k, spectrum=spectrum)]


def test_criterion_11_oracle_equivalences():
    coloring_corpus = [
        make_path(4), make_path(6), make_cycle(4), make_cycle(5), make_cycle(6),
        make_double_star(1, 2), make_double_star(2, 2), make_complete(4),
        make_caterpillar([1, 1, 1]),
        graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]),
        # 7..8 edge entries, checked with a reduced palette
        make_path(7), make_path(8), make_cycle(7), make_cycle(8),
        make_double_star(3, 4),
    ]
    embedding_corpus = [
        (make_path(2), make_cycle(4)),
        (make_path(3), make_complete(5)),
        (make_path(4), make_complete(6)),
        (make_cycle(3), make_complete(6)),
        (make_cycle(4), make_complete(5)),
        (make_double_star(1, 2), make_complete(6)),
        (make_double_star(2, 2), make_complete(6)),
        (make_double_star(0, 3), make_complete(7)),
        (make_path(3), make_cycle(7)),
    ]
    with criterion(11, "oracle equivalences"):
        for g in coloring_corpus:
            assert g.num_edges <= 8
            cap = g.num_edges if g.num_edges <= 6 else 4
            got = sorted(c.colors for c in enumerate_proper_colorings(g, cap))
            assert got == sorted(naive_proper_colorings(g, cap)), g
        for pattern, host in embedding_corpus:
            assert host.n <= 7
            # one embedding per orbit of twin swaps, standing for the labeled ones
            got = sorted(e.vertex_map
                         for e in enumerate_embeddings(pattern, host))
            assert got == sorted(naive_embedding_stream(pattern, host, twins=True)), \
                (pattern, host)
            assert len(got) * twin_orbit_size(pattern) == \
                len(naive_embeddings(pattern, host)), (pattern, host)
