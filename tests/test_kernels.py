import ast
import itertools
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rturan import _kernels
from rturan._kernels import pure
from rturan.certs import FAIL, PASS, Certificate
from rturan.coloring import conflict_lists, is_proper
from rturan.graphs import (DEFAULT_VERTEX_CAP, enumerate_embeddings, make_complete,
                           make_cycle, make_double_star, make_path)
from rturan.search import (graphs_up_to_iso, recheck_certificate,
                           verify_k6_universal_3unique)

from oracles import full_draw_sample_and_check

try:
    from rturan._kernels import native
except ImportError:
    native = None

# only the compiled-vs-pure comparisons need the compiled kernel, which
# tests/conftest.py builds wherever a C compiler is found
needs_native = pytest.mark.skipif(native is None, reason="compiled kernel not built")


def instance(host, pattern):
    emb = [list(e.edge_map) for e in enumerate_embeddings(pattern, host)]
    return host.num_edges, conflict_lists(host), emb


CASES = [
    (make_complete(4), make_path(3), 2, False, 6),
    (make_complete(4), make_path(3), 3, True, 4),
    (make_complete(6), make_double_star(2, 2), 3, True, 6),
    (make_complete(6), make_double_star(2, 2), 5, False, 15),
    (make_cycle(5), make_path(2), 2, False, 5),
]


# the pure kernel on CASES: the coloring it finds, then (nodes_visited,
# exhausted) under each of BUDGETS; a negative budget means no limit, and a
# tripped budget reports the nodes completed, which is the budget
BUDGETS = (None, 1, 10, 100, -1)
FROZEN = [
    ([0, 1, 2, 2, 1, 0],
     [(6, True), (1, False), (6, True), (6, True), (6, True)]),
    ([0, 1, 2, 2, 1, 0],
     [(6, True), (1, False), (6, True), (6, True), (6, True)]),
    (None,
     [(50, True), (1, False), (10, False), (50, True), (50, True)]),
    ([0, 1, 2, 3, 4, 2, 3, 4, 1, 4, 0, 3, 1, 0, 2],
     [(23, True), (1, False), (10, False), (23, True), (23, True)]),
    (None,
     [(2, True), (1, False), (2, True), (2, True), (2, True)]),
]


@pytest.mark.parametrize("case,expected", zip(CASES, FROZEN))
def test_find_avoiding_frozen_values(case, expected):
    host, pattern, k, exactly, cap = case
    m, conf, emb = instance(host, pattern)
    colors, runs = expected
    for budget, (nodes, exhausted) in zip(BUDGETS, runs):
        got = pure.find_avoiding_coloring(m, conf, emb, k, exactly, cap, budget)
        assert got == (colors if exhausted else None, nodes, exhausted), budget


@needs_native
@pytest.mark.parametrize("host,pattern,k,exactly,cap", CASES)
def test_find_avoiding_backends_agree(host, pattern, k, exactly, cap):
    m, conf, emb = instance(host, pattern)
    got_native = native.find_avoiding_coloring(m, conf, emb, k, exactly, cap, None)
    got_pure = pure.find_avoiding_coloring(m, conf, emb, k, exactly, cap, None)
    assert got_native == got_pure


@needs_native
def test_find_avoiding_budget_behaviour_matches():
    m, conf, emb = instance(make_complete(6), make_double_star(2, 2))
    for budget in (1, 10, 100):
        got_native = native.find_avoiding_coloring(m, conf, emb, 5, False, 15, budget)
        got_pure = pure.find_avoiding_coloring(m, conf, emb, 5, False, 15, budget)
        assert got_native == got_pure


@needs_native
def test_unique_counts_backends_agree():
    m, conf, emb = instance(make_complete(6), make_double_star(2, 2))
    rng = pure.XorShift64Star(3)
    for _ in range(10):
        colors = pure.random_proper_coloring(m, conf, rng)
        assert native.unique_counts(colors, emb) == pure.unique_counts(colors, emb)


@needs_native
def test_sampler_backends_bit_identical():
    m, conf, emb = instance(make_complete(6), make_double_star(2, 2))
    # the seed is taken mod 2**64, 0 remapped, on both backends
    for seed in (1, 42, 20240901, 0, -1, 2 ** 64 + 5):
        a = native.sample_and_check(m, conf, emb, 3, True, 5_000, seed)
        b = pure.sample_and_check(m, conf, emb, 3, True, 5_000, seed)
        assert a == b
        assert a["counterexample"] is None
    m, conf, emb = instance(make_complete(4), make_path(2))
    assert (native.sample_and_check(m, conf, emb, 3, False, 100, 5)
            == pure.sample_and_check(m, conf, emb, 3, False, 100, 5))


def test_sampler_reports_counterexamples():
    # k above the edge count is unsatisfiable, so the very first
    # non-rainbow sample comes back as a counterexample
    m, conf, emb = instance(make_complete(4), make_path(2))
    res = pure.sample_and_check(m, conf, emb, 3, False, 100, 5)
    assert res["counterexample"] is not None
    assert is_proper(make_complete(4), res["counterexample"])


def test_rng_reference_stream():
    rng = pure.XorShift64Star(1)
    stream = [rng.next_u64() for _ in range(4)]
    assert stream == [5180492295206395165, 12380297144915551517,
                      13389498078930870103, 5599127315341312413]


def test_rng_zero_seed_is_remapped():
    assert pure.XorShift64Star(0).state == 0x9E3779B97F4A7C15
    assert pure.XorShift64Star(0).next_u64() == pure.XorShift64Star(2 ** 64).next_u64()


def test_random_coloring_is_proper_and_reproducible():
    host = make_complete(5)
    m, conf = host.num_edges, conflict_lists(host)
    a = pure.random_proper_coloring(m, conf, pure.XorShift64Star(11))
    b = pure.random_proper_coloring(m, conf, pure.XorShift64Star(11))
    assert a == b
    assert is_proper(host, a)


def test_backend_selection_env_override():
    assert _kernels.BACKEND in ("c", "python")
    assert _kernels.pack_rows is pure.pack_rows  # one input form on both
    env = dict(os.environ, RTURAN_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c",
         "from rturan import _kernels; print(_kernels.BACKEND)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "python"


def test_kernels_import_nothing_of_the_rest_of_the_package():
    # the kernel layer sits at the bottom: graphs imports it at module level,
    # so an import of the rest of rturan from here would close a cycle
    for path in sorted(Path(_kernels.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # a relative import of level 1 starts at rturan._kernels
                package = ["rturan", "_kernels"][:3 - node.level] if node.level else []
                modules = [".".join(package + [node.module] if node.module else package)]
            else:
                continue
            for module in modules:
                top = module.split(".")[:2]
                assert top[0] != "rturan" or top == ["rturan", "_kernels"], \
                    f"{path.name} imports {module}"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_compiled_kernel_is_built_where_a_compiler_exists():
    assert native is not None, "see python setup.py build_ext --inplace"


@needs_native
def test_large_pattern_backends_agree():
    # a 65-edge copy, both ways along the path P65
    m, conf = 65, conflict_lists(make_path(65, cap=66))
    emb = [list(range(m)), list(range(m))[::-1]]
    for k in (0, 1, 2, 65):
        for cap in (1, 2, 3):
            assert (native.find_avoiding_coloring(m, conf, emb, k, False, cap, 1000)
                    == pure.find_avoiding_coloring(m, conf, emb, k, False, cap, 1000))
        assert (native.sample_and_check(m, conf, emb, k, True, 200, 7)
                == pure.sample_and_check(m, conf, emb, k, True, 200, 7))
    colors = pure.random_proper_coloring(m, conf, pure.XorShift64Star(5))
    assert native.unique_counts(colors, emb) == pure.unique_counts(colors, emb)


@needs_native
def test_backends_agree_on_arbitrary_conflict_lists():
    # a conflict list may name any edge, later ones and the edge itself
    # included; an uncolored edge reads -1 on both backends
    rng = pure.XorShift64Star(5)
    for trial in range(60):
        m = 2 + rng.randbelow(7)
        conf = [[rng.randbelow(m) for _ in range(rng.randbelow(4))] for _ in range(m)]
        emb = [[rng.randbelow(m) for _ in range(2)] for _ in range(1 + rng.randbelow(6))]
        for k, exactly in ((0, True), (1, False), (2, True)):
            for budget in (None, 3):
                assert (native.find_avoiding_coloring(m, conf, emb, k, exactly, 3, budget)
                        == pure.find_avoiding_coloring(m, conf, emb, k, exactly, 3, budget))
            assert (native.sample_and_check(m, conf, emb, k, exactly, 20, trial)
                    == pure.sample_and_check(m, conf, emb, k, exactly, 20, trial))


@pytest.mark.parametrize("backend", [
    pytest.param(pure, id="pure"),
    pytest.param(native, id="native", marks=needs_native),
])
def test_sampler_deep_counterexample_frozen(backend):
    # the first sample of this stream with no copy of at least 4 unique
    # edges is number 974; a choice of colors that leaks from one sample to
    # the next changes the stream only this deep
    m, conf, emb = instance(make_complete(6), make_double_star(2, 2))
    assert backend.sample_and_check(m, conf, emb, 4, False, 200_000, 20240901) == {
        "checked": 975, "rainbow_skipped": 0, "sample_index": 974,
        "counterexample": [0, 1, 2, 3, 4, 3, 4, 2, 1, 0, 4, 2, 1, 3, 0]}


@needs_native
@pytest.mark.parametrize("backend", [
    pytest.param(pure, id="pure"),
    pytest.param(native, id="native", marks=needs_native),
])
def test_k6_exhaustive_regime_leaves_out_the_rainbow_coloring(monkeypatch, backend):
    # the claim excludes the rainbow coloring of K_6, the only canonical one
    # with 15 colors, so from cap 14 on the exhaustive regime walks the same
    # 105 nodes and its PASS covers every coloring the claim does
    for name in ("find_avoiding_coloring", "sample_and_check", "unique_counts"):
        monkeypatch.setattr(_kernels, name, getattr(backend, name))
    assert not verify_k6_universal_3unique(color_cap=13, sample_count=0).exhaustive
    for cap in (14, 15, 100):
        cert = verify_k6_universal_3unique(color_cap=cap, sample_count=0)
        assert (cert.verdict, cert.nodes_visited, cert.exhaustive) == (PASS, 105, True)
        assert cert.params["color_cap"] == cap
        assert recheck_certificate(cert) == (True, "re-run verdict PASS")
    # a stored rainbow counterexample is refused for what it is
    obj = cert.to_json()
    obj["verdict"] = FAIL
    obj["payload"] = {"counterexample_coloring": list(range(15)), "regime": "exhaustive"}
    assert recheck_certificate(Certificate.from_json(obj)) == (
        False, "counterexample is rainbow, which the claim excludes")


@needs_native
def test_sampler_backends_agree_past_64_colors():
    # a 70-edge star: every edge conflicts with all earlier ones, so each
    # sample is the rainbow coloring 0..69 and colors 64..69 are drawn
    m, conf = 70, [list(range(i)) for i in range(70)]
    emb = [[0, 1], [63, 64], [64, 65], [68, 69]]
    for k in (2, 3):  # every copy, then no copy, satisfied when proper
        for skip_rainbow in (False, True):
            assert (native.sample_and_check(m, conf, emb, k, True, 2_000, 9, skip_rainbow)
                    == pure.sample_and_check(m, conf, emb, k, True, 2_000, 9, skip_rainbow))


SAMPLER_BACKENDS = [
    pytest.param(pure, id="pure"),
    pytest.param(native, id="native", marks=needs_native),
]


def assert_sampler_matches_oracle(backend, m, conf, emb, k, exactly, samples, seed,
                                  skip_rainbow=True):
    # the sampler checks copies while it colors and stops a settled sample
    # early; the oracle colors every sample in full, then scans every copy
    want = full_draw_sample_and_check(m, conf, emb, k, exactly, samples, seed,
                                      skip_rainbow)
    got = backend.sample_and_check(m, conf, emb, k, exactly, samples, seed,
                                   skip_rainbow)
    assert got == want, (k, exactly, seed, skip_rainbow)
    return got


@pytest.mark.parametrize("backend", SAMPLER_BACKENDS)
def test_sampler_matches_full_draw_oracle_on_k6(backend):
    m, conf, emb = instance(make_complete(6), make_double_star(2, 2))
    found = set()
    for k in range(6):
        for exactly in (True, False):
            for skip_rainbow in (True, False):
                res = assert_sampler_matches_oracle(backend, m, conf, emb, k, exactly,
                                                    1_000, 7, skip_rainbow)
                found.add(res["counterexample"] is not None)
    assert found == {False, True}
    # the deep counterexample: 974 samples settled early, then one colored
    # in full, on the stream a full draw of every sample takes
    res = assert_sampler_matches_oracle(backend, m, conf, emb, 4, False, 200_000,
                                        20240901)
    assert res["sample_index"] == 974


@pytest.mark.parametrize("backend", SAMPLER_BACKENDS)
def test_sampler_matches_full_draw_oracle_while_rainbow(backend):
    # K_4 and P_2: a rainbow copy has 2 unique edges, so in at-least mode a
    # copy is often satisfied while the sample is still rainbow, and the
    # sample must be colored on to learn whether it is skipped
    m, conf, emb = instance(make_complete(4), make_path(2))
    for k in range(4):
        for exactly in (True, False):
            for skip_rainbow in (True, False):
                res = assert_sampler_matches_oracle(backend, m, conf, emb, k, exactly,
                                                    2_000, 5, skip_rainbow)
                if skip_rainbow and not exactly and k <= 2:
                    assert res["rainbow_skipped"] > 0
                    assert res["checked"] + res["rainbow_skipped"] == 2_000


@pytest.mark.parametrize("backend", SAMPLER_BACKENDS)
def test_sampler_matches_full_draw_oracle_on_70_edge_star(backend):
    m, conf = 70, [list(range(i)) for i in range(70)]
    emb = [[0, 1], [63, 64], [64, 65], [68, 69]]
    for k in (0, 1, 2, 3):
        for exactly in (True, False):
            for skip_rainbow in (False, True):
                assert_sampler_matches_oracle(backend, m, conf, emb, k, exactly, 100, 9,
                                              skip_rainbow)


@pytest.mark.parametrize("backend", SAMPLER_BACKENDS)
def test_sampler_matches_full_draw_oracle_on_arbitrary_conflict_lists(backend):
    # conflict lists may name later edges and the edge itself; copies may
    # repeat an edge or have none
    rng = random.Random(30)
    for trial in range(80):
        m = rng.randint(1, 8)
        conf = [[rng.randrange(m) for _ in range(rng.randrange(4))] for _ in range(m)]
        emb = [[rng.randrange(m) for _ in range(rng.randrange(4))]
               for _ in range(rng.randrange(6))]
        for k, exactly in ((0, True), (1, False), (2, True), (2, False)):
            for skip_rainbow in (True, False):
                assert_sampler_matches_oracle(backend, m, conf, emb, k, exactly, 20,
                                              trial, skip_rainbow)


@pytest.mark.parametrize("backend", SAMPLER_BACKENDS)
def test_sampler_edgeless_copy(backend):
    # a copy with no edge has a unique count of 0, so it is satisfied iff
    # 0 meets k; no edge is its largest, so the sampler counts it as
    # satisfied before edge 0 (with skip_rainbow off, such a sample is
    # settled before its first draw)
    m, conf, emb = instance(make_complete(4), make_path(2))
    for copies in ([[]], [[]] + emb, emb + [[]]):
        for k in (0, 1):
            for exactly in (True, False):
                for skip_rainbow in (True, False):
                    res = assert_sampler_matches_oracle(backend, m, conf, copies, k,
                                                        exactly, 500, 3, skip_rainbow)
                    if copies == [[]]:
                        assert (res["counterexample"] is None) == (k == 0)


def refusal(call):
    """(type, message) of the exception call() raises, None if it returns."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("backend", [
    pytest.param(pure, id="pure"),
    pytest.param(native, id="native", marks=needs_native),
])
def test_backends_refuse_malformed_tables(backend):
    # the C code trusts every index, count and copy it is given, so pure's
    # checks refuse a malformed table first, with one message on both
    # backends, whether the table comes as lists or packed
    m, conf, emb = 3, [[1], [0, 2], [1]], [[0, 1], [1, 2]]
    out_of_range = (ValueError, "index out of range 0..2 in kernel input")
    for pack in (list, pure.pack_rows):
        def avoid(conflicts, copies, keep=None):
            return backend.find_avoiding_coloring(m, pack(conflicts), pack(copies),
                                                  2, False, 3, None, keep)

        def sample(conflicts, copies):
            return backend.sample_and_check(m, pack(conflicts), pack(copies),
                                            2, False, 10, 1)

        # a copy index at the bound, a negative one, and one past a C int,
        # which must meet the range check before it is packed for C
        for bad in ([[0, 3]], [[-1, 1]], [[0, 2**31]]):
            assert refusal(lambda: avoid(conf, bad)) == out_of_range
            assert refusal(lambda: sample(conf, bad)) == out_of_range
            assert refusal(lambda: backend.unique_counts([0, 1, 0], pack(bad))) \
                == out_of_range
        # a conflict index at the bound, a negative one, and one past a C int
        for bad in ([[1], [0, 3], [1]], [[1], [-1], [1]], [[1], [0, 2**31], [1]]):
            assert refusal(lambda: avoid(bad, emb)) == out_of_range
            assert refusal(lambda: sample(bad, emb)) == out_of_range
        # too few and too many conflict lists
        for bad in ([[1], [0, 2]], [[1], [0, 2], [1], [0]]):
            want = (ValueError, f"{len(bad)} conflict lists for 3 edges")
            assert refusal(lambda: avoid(bad, emb)) == want
            assert refusal(lambda: sample(bad, emb)) == want
        # a copy with no edge has no largest edge for the avoider to check
        # it at; the sampler counts it as satisfied before edge 0
        edgeless = emb + [[]]
        assert refusal(lambda: avoid(conf, edgeless)) == (
            ValueError, "a pattern copy with no edge in kernel input")
        assert sample(conf, edgeless) == pure.sample_and_check(m, conf, edgeless,
                                                               2, False, 10, 1)
        for keep, message in (([0, 3], "kept edge out of range 0..2"),
                              ([-1, 2], "kept edge out of range 0..2"),
                              ([1, 1], "kept edges not strictly ascending")):
            assert refusal(lambda: avoid(conf, emb, keep)) == (
                ValueError, message + " in kernel input")


@pytest.mark.parametrize("backend", [
    pytest.param(pure, id="pure"),
    pytest.param(native, id="native", marks=needs_native),
])
def test_find_avoiding_refuses_a_bad_keep(backend):
    # keep names host edges in strictly ascending order, as pure.check_rows
    # checks the rows: the C code trusts it
    m, conf, emb = instance(make_complete(4), make_path(2))
    for keep, match in (([0, 6], "out of range"), ([-1, 2], "out of range"),
                        ([2, 1], "ascending"), ([1, 1], "ascending"),
                        ([0, 3, 3, 5], "ascending")):
        with pytest.raises(ValueError, match=match):
            backend.find_avoiding_coloring(m, conf, emb, 2, False, 3, None, keep)
        with pytest.raises(ValueError, match=match):
            backend.find_avoiding_coloring(m, pure.pack_rows(conf),
                                           pure.pack_rows(emb), 2, False, 3,
                                           None, keep)


@needs_native
def test_kept_edges_backends_agree():
    # random subgraphs of K_n, each searched from K_n's tables (packed once on
    # the compiled side) and the K_n indices of its edges
    rng = random.Random(29)
    patterns = [make_path(2), make_path(3), make_double_star(1, 2),
                make_double_star(2, 2)]
    for n in range(1, 8):
        host = make_complete(n)
        m, conf = host.num_edges, conflict_lists(host)
        for f in patterns:
            emb = [list(e.edge_map) for e in enumerate_embeddings(f, host)]
            packed = pure.pack_rows(conf), pure.pack_rows(emb)
            for _ in range(8):
                keep = sorted(rng.sample(range(m), rng.randint(0, m)))
                k, cap = rng.randint(0, f.num_edges), rng.randint(1, max(1, len(keep)))
                for exactly in (False, True):
                    for budget in (None, 0, 1, 10, -1):
                        want = pure.find_avoiding_coloring(m, conf, emb, k, exactly,
                                                           cap, budget, keep)
                        assert native.find_avoiding_coloring(
                            m, *packed, k, exactly, cap, budget, keep) == want, \
                            (n, f.edges, keep, k, cap, exactly, budget)


def keys_agree(n, edges):
    # equal integers, not only equal classes: each level's order, and so the
    # representatives and certified avoiders, follow the key values
    key = pure.canonical_key(n, edges)
    assert native.canonical_key(n, edges) == key, (n, edges)
    return key


@needs_native
@pytest.mark.parametrize("n", range(8))
def test_canonical_key_backends_agree_on_every_class(n):
    rng = random.Random(n)
    for g in graphs_up_to_iso(n):
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges)
        assert keys_agree(n, relabeled) == keys_agree(n, list(g.edges))


@needs_native
def test_canonical_key_backends_agree_on_random_graphs():
    rng = random.Random(22)
    for n in range(1, DEFAULT_VERTEX_CAP + 1):
        for p in (0.05, 0.15, 0.5, 0.85, 0.95):
            keys_agree(n, [e for e in itertools.combinations(range(n), 2)
                           if rng.random() < p])


@needs_native
def test_canonical_key_backends_agree_on_near_regular_graphs():
    # two random Hamiltonian cycles: refinement barely splits the vertices,
    # so the key is the largest of many leaves with distinct codes, compared
    # over all (n * n + 63) // 64 words of the key
    rng = random.Random(7)
    for n in range(5, 41):
        edges = set()
        for _ in range(2):
            cycle = list(range(n))
            rng.shuffle(cycle)
            edges |= {tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])}
        keys_agree(n, sorted(edges))


@needs_native
def test_canonical_key_backends_agree_on_edge_cases():
    assert keys_agree(0, []) == keys_agree(1, []) == 0
    # K_64: every leaf code sets every off-diagonal bit of the 64 x 64 square
    n = DEFAULT_VERTEX_CAP
    assert keys_agree(n, list(itertools.combinations(range(n), 2))) == sum(
        1 << (a * n + b) for a in range(n) for b in range(n) if a != b)
    # six disjoint edges: no refinement splits them, so 6! = 720 leaves
    keys_agree(12, [(2 * i, 2 * i + 1) for i in range(6)])


@pytest.mark.parametrize("backend", [
    pytest.param(pure, id="pure"),
    pytest.param(native, id="native", marks=needs_native),
])
def test_canonical_key_refuses_more_than_64_vertices(backend):
    with pytest.raises(ValueError, match=r"0\.\.64 vertices, got 65"):
        backend.canonical_key(DEFAULT_VERTEX_CAP + 1, [])


@pytest.mark.parametrize("backend", [
    pytest.param(pure, id="pure"),
    pytest.param(native, id="native", marks=needs_native),
])
def test_canonical_key_refuses_out_of_range_endpoints(backend):
    # the C code indexes its adjacency masks by endpoint
    for edges in ([(0, 3)], [(-1, 1)], [(0, 1), (2, 3)], [(1, -2)], [(0, 2**31)]):
        assert refusal(lambda: backend.canonical_key(3, edges)) == (
            ValueError, "edge endpoint out of range 0..2 in kernel input")
