import itertools
import tracemalloc
from fractions import Fraction

import pytest

from rturan.bounds import (ERDOS_SOS, MCLENNAN, BoundReport, augment_binary,
                           augment_caterpillar, augment_double_star,
                           augment_kary, binary_coefficients,
                           caterpillar_bounds, caterpillar_coefficient_literal,
                           ds22_bounds, ds_1_odd_exact, ds_k_unique_bounds,
                           ds_rainbow_bounds, erdos_sos_coefficient,
                           kary_coefficients, reduction_bound, tree_assumption)
from rturan.certs import BUDGET_EXHAUSTED, FAIL, PASS
from rturan.coloring import EdgeColoring, is_proper
from rturan.detect import find_k_unique
from rturan.graphs import (MAX_VERTICES, GraphError, canonical_key, diameter,
                           make_double_star, make_path, make_perfect_kary)
from rturan.search import verify_reduction


def test_erdos_sos_coefficient():
    assert erdos_sos_coefficient(7) == 3
    assert erdos_sos_coefficient(12) == Fraction(11, 2)
    assert erdos_sos_coefficient(1) == 0
    with pytest.raises(ValueError):
        erdos_sos_coefficient(0)


def test_bound_report_fields():
    report = BoundReport("ds_rainbow_lower", {"r": 1, "s": 2}, Fraction(1),
                         assumptions=(ERDOS_SOS,))
    assert report == BoundReport(family="ds_rainbow_lower", params={"r": 1, "s": 2},
                                 coefficient=Fraction(1), assumptions=(ERDOS_SOS,),
                                 notes=(), construction_log=None)
    assert report != BoundReport("ds_rainbow_lower", {"r": 1, "s": 2}, Fraction(1))
    with pytest.raises(ValueError):
        BoundReport("ds_rainbow_lower", {}, Fraction(-1, 2))


def test_tree_assumption_flags():
    assert tree_assumption(make_double_star(3, 5)) == MCLENNAN  # diameter 3
    assert tree_assumption(make_path(5)) == ERDOS_SOS  # diameter 5
    assert tree_assumption(make_perfect_kary(2, 2)) == MCLENNAN  # diameter 4


def test_ds_k_unique_bounds():
    out = ds_k_unique_bounds(2, 2, 1)
    assert out["k"] == 3
    assert out["lower"].coefficient == 1
    assert out["upper"].coefficient == Fraction(5, 2)
    assert out["upper"].assumptions == (MCLENNAN,)
    out = ds_k_unique_bounds(2, 3, 2)
    assert out["k"] == 6
    assert (out["lower"].coefficient, out["upper"].coefficient) == (2, Fraction(7, 2))
    out = ds_k_unique_bounds(1, 1, 0)
    assert out["k"] == 1
    assert (out["lower"].coefficient, out["upper"].coefficient) == (0, 1)
    with pytest.raises(ValueError):
        ds_k_unique_bounds(3, 2, 0)
    with pytest.raises(ValueError):
        ds_k_unique_bounds(2, 2, 3)


def test_ds_rainbow_and_ds22():
    lo, hi = ds_rainbow_bounds(2, 2)
    assert (lo.coefficient, hi.coefficient) == (Fraction(3, 2), 3)
    lo22, hi22 = ds22_bounds()
    assert (lo22.coefficient, hi22.coefficient) == (Fraction(5, 2), 3)
    assert lo22.coefficient > lo.coefficient  # the K6 blowup beats the generic bound
    # argument order swaps internally
    a = ds_rainbow_bounds(3, 1)
    b = ds_rainbow_bounds(1, 3)
    assert (a[0].coefficient, a[1].coefficient) == (b[0].coefficient, b[1].coefficient)


def test_ds_1_odd_exact():
    for s in range(4):
        rep = ds_1_odd_exact(s)
        assert rep.coefficient == Fraction(2 * s + 3, 2)
        assert rep.assumptions == (MCLENNAN,)
    with pytest.raises(ValueError):
        ds_1_odd_exact(-1)


def test_reduction_bound_reads_its_tree():
    # (||T'|| - 1)/2 with the diameter flag of the tree it is given
    for tree, coeff, flag in ((make_double_star(2, 4), 3, MCLENNAN),
                              (make_path(5), 2, ERDOS_SOS)):
        rep = reduction_bound("fam", {"p": 1}, tree, notes=("n",))
        assert rep == BoundReport("fam", {"p": 1}, coeff, (flag,), ("n",))


def test_double_star_bounds_keep_the_closed_forms():
    # each upper bound is read off its augmented tree, and it must still be
    # the paper's closed form: DS_{r,s+l} has r+s+l+1 edges, DS_{r,s+r} has
    # s+2r+1 and DS_{1,2s+2} has 2s+4
    for s in range(13):
        for r in range(s + 1):
            lo, hi = ds_rainbow_bounds(r, s)
            assert (lo.coefficient, hi.coefficient) == (
                Fraction(max(s + r - 1, 0), 2), Fraction(s + 2 * r, 2)), (r, s)
            for l in range(r + 1):
                out = ds_k_unique_bounds(r, s, l)
                assert (out["lower"].coefficient, out["upper"].coefficient) == (
                    Fraction(max(s + l - 1, 0), 2), Fraction(r + s + l, 2)), (r, s, l)
    for s in range(61):
        assert ds_1_odd_exact(s).coefficient == Fraction(2 * s + 3, 2)
    # T' above the 64-vertex default cap of a family spec
    for r, s, l in ((20, 29, 0), (30, 31, 5), (40, 50, 10)):
        assert ds_rainbow_bounds(r, s)[1].coefficient == Fraction(s + 2 * r, 2)
        assert ds_k_unique_bounds(r, s, l)["upper"].coefficient == Fraction(r + s + l, 2)
    # DS_{1,99998} has MAX_VERTICES + 1 vertices, refused before it is built
    with pytest.raises(GraphError, match=f"cap {MAX_VERTICES}"):
        ds_1_odd_exact(49_998)


def test_augment_double_star():
    aug = augment_double_star(2, 2, 2)
    assert canonical_key(aug.augmented) == canonical_key(make_double_star(2, 4))
    assert aug.edge_count == 7
    aug.validate()
    ident = augment_double_star(2, 3, 0)
    assert ident.augmented == ident.original
    with pytest.raises(ValueError):
        augment_double_star(2, 1, 0)  # r > s
    with pytest.raises(ValueError):
        augment_double_star(1, 2, 2)  # l > r


def test_caterpillar_base_edge_count_grid():
    for c in itertools.product(range(3), repeat=3):
        aug = augment_caterpillar(c)
        c1, c2, c3 = c
        assert aug.edge_count == 3 * c1 + 2 * c2 + c3 + 5
        aug.validate()


def test_caterpillar_literal_vs_constructive():
    out = caterpillar_bounds([1, 1, 1])
    assert out["augmented_edges"] == 11
    assert out["constructive"].coefficient == 5
    assert out["literal"].coefficient == Fraction(15, 2)
    assert out["discrepancy"]
    lit = caterpillar_coefficient_literal([0, 0, 0])
    assert lit.coefficient == 3  # 3 + (l3 + 1) over 2 with l3 = 2
    with pytest.raises(ValueError):
        caterpillar_coefficient_literal([1, 2])
    with pytest.raises(ValueError, match="nonnegative"):
        augment_caterpillar([1, -1, 1])


def test_caterpillar_literal_branching_factor():
    # twice the coefficient is 3c_1 + 2c_2 + c_3 + 3 plus P_j (L_j + 1) for
    # j = 3..k, with L_j = (j-1) + c_1 + ... + c_j; from j = 4, P_j is P_{j-1}
    # times sum(c_i + 1, i = 4..j-2), an empty sum read as 1
    for c, coeff in (([1, 1, 1, 1], Fraction(23, 2)),  # 9 + 6 + 8
                     ([0] * 5, Fraction(15, 2)),  # 3 + 3 + 4 + 5
                     # the first factor above 1: 9 + 6 + 8 + 10 + 2 * 12
                     ([1] * 6, Fraction(57, 2))):
        assert caterpillar_coefficient_literal(c).coefficient == coeff, c
    out = caterpillar_bounds([1, 1, 1, 1])
    assert out["constructive"].coefficient == 21
    assert out["augmented_edges"] == 43 and out["discrepancy"]


def test_caterpillar_level_four():
    aug = augment_caterpillar([1, 1, 1, 1])
    assert aug.edge_count == 43
    steps = dict(aug.construction_log)
    assert steps["level 4: 4 branches per parent, 7 pendants per branch"] == 32
    aug.validate()


def test_binary_coefficients():
    out = binary_coefficients(2)
    assert out["augmented_edges"] == 12
    assert out["literal"].coefficient == Fraction(3, 2)
    assert out["proof_form"].coefficient == 5
    assert out["constructive"].coefficient == Fraction(11, 2)
    assert out["discrepancy"]
    out3 = binary_coefficients(3)
    assert out3["augmented_edges"] == 142
    assert out3["proof_form"].coefficient == 13
    assert out3["constructive"].coefficient == Fraction(141, 2)
    assert out3["literal"].coefficient == Fraction(13, 2)
    with pytest.raises(ValueError):
        binary_coefficients(1)


def test_kary_coefficients():
    out = kary_coefficients(2, 2)
    # the k-ary literal formula reproduces the binary construction exactly
    assert out["literal"].coefficient == Fraction(11, 2)
    assert out["constructive"].coefficient == Fraction(11, 2)
    assert not out["discrepancy"]
    out32 = kary_coefficients(3, 2)
    assert out32["augmented_edges"] == 36
    assert out32["literal"].coefficient == out32["constructive"].coefficient == Fraction(35, 2)
    aug = augment_kary(2, 3)
    aug.validate()
    assert aug.edge_count == 142
    for refused in (augment_kary, kary_coefficients):
        with pytest.raises(ValueError, match="depth >= 2"):
            refused(2, 1)


def test_constructive_tree_bounds_flag_the_augmented_diameter():
    # T'(k, d) keeps the depth d of T(k, d), so its diameter is 2d: proven
    # (McLennan) at d = 2, the Erdos-Sos conjecture at d = 3
    for d, flag in ((2, MCLENNAN), (3, ERDOS_SOS)):
        assert binary_coefficients(d)["constructive"].assumptions == (flag,)
        for k in (2, 3):
            assert kary_coefficients(k, d)["constructive"].assumptions == (flag,)
            assert tree_assumption(augment_kary(k, d).augmented) == flag
    # the literal and proof-form readings keep the general flag
    assert binary_coefficients(2)["literal"].assumptions == (ERDOS_SOS,)
    assert kary_coefficients(2, 2)["literal"].assumptions == (ERDOS_SOS,)


def test_augmenters_record_the_lemma_k():
    assert augment_double_star(2, 3, 1).k == 3 - 2 + 1 + 2
    for aug in (augment_caterpillar([1, 0, 2]), augment_kary(3, 2)):
        assert aug.k == aug.original.num_edges  # rainbow


@pytest.mark.parametrize("build", [lambda: augment_kary(4, 4),
                                   lambda: augment_caterpillar([0] * 18)])
def test_augmenters_refuse_before_building_an_oversized_level(build):
    # the refused level holds millions of vertices; only the levels below
    # it (a few thousand) may be built before the cap check
    tracemalloc.start()
    try:
        with pytest.raises(GraphError):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_bound_report_json():
    rep = ds_1_odd_exact(1)
    obj = rep.to_json()
    assert obj["coefficient"] == {"num": 5, "den": 2}
    assert obj["assumptions"] == [MCLENNAN]


def test_verify_reduction_pass():
    aug = augment_double_star(1, 1, 1)
    cert = verify_reduction(aug.original, aug, k=3)
    assert cert.verdict == PASS and cert.exhaustive
    assert cert.payload["embeddings_considered"] > 0


def test_verify_reduction_fail_with_counterexample():
    ds22 = make_double_star(2, 2)
    cert = verify_reduction(ds22, ds22, k=5)  # no augmentation: rainbow avoidable
    assert cert.verdict == FAIL
    colors = cert.payload["counterexample_coloring"]
    assert is_proper(ds22, colors)
    c = EdgeColoring(ds22, tuple(colors))
    assert find_k_unique(c, ds22, 5) is None


def test_verify_reduction_no_copy_and_budget():
    big = make_double_star(3, 3)
    small_host = make_double_star(1, 1)
    cert = verify_reduction(big, small_host, k=1)
    assert cert.verdict == FAIL and "no copy" in cert.payload["reason"]
    aug = augment_double_star(2, 2, 1)
    cert = verify_reduction(aug.original, aug, k=3, budget=2)
    assert cert.verdict == BUDGET_EXHAUSTED and not cert.exhaustive
