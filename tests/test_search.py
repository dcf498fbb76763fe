import hashlib
import itertools
import json
import math
from collections import Counter

import pytest

from rturan import _kernels, certs, search
from rturan._kernels import pure
from rturan.certs import (FAIL, PASS, Certificate, load_certificate,
                          save_certificate)
from rturan.coloring import conflict_lists, is_proper, one_factorization
from rturan.detect import find_k_unique
from rturan.graphs import (Graph, canonical_key, enumerate_embeddings,
                           graph_from_edges, make_caterpillar, make_complete,
                           make_cycle, make_double_star, make_path)
from rturan.search import (RAINBOW, brute_extremal, copy_table,
                           exists_avoiding_coloring, graphs_up_to_iso,
                           recheck_certificate,
                           verify_k2s4_construction, verify_k6_rainbow_free,
                           verify_k6_universal_3unique, verify_reduction)
from rturan.bounds import augment_caterpillar

import oracles
from oracles import (augmented_graphs_up_to_iso, burnside_graph_count,
                     naive_classical_turan, naive_embeddings,
                     naive_graphs_up_to_iso, top_down_extremal)


def test_exists_avoiding_basic():
    p2 = make_path(2)
    # a proper coloring of a 2-path is forced rainbow
    assert exists_avoiding_coloring(p2, p2, RAINBOW).coloring is None
    c4 = make_cycle(4)
    res = exists_avoiding_coloring(c4, c4, RAINBOW)
    assert res.coloring.colors == (0, 1, 1, 0)
    assert res.exhaustive
    with pytest.raises(ValueError):
        exists_avoiding_coloring(c4, c4, -1)


def test_exists_avoiding_k6_ds22():
    k6 = make_complete(6)
    ds22 = make_double_star(2, 2)
    res5 = exists_avoiding_coloring(k6, ds22, 5)
    assert res5.coloring is not None
    assert is_proper(k6, res5.coloring)
    assert find_k_unique(res5.coloring, ds22, 5) is None
    # at-least-3-unique copies cannot be dodged at all
    res3 = exists_avoiding_coloring(k6, ds22, 3)
    assert res3.coloring is None and res3.exhaustive
    assert res3.nodes_visited == 29


ORBIT_FEED_PATTERNS = [make_path(2), make_double_star(1, 2), make_double_star(2, 2),
                       make_caterpillar([2, 0, 1])]


def _orbit_feed_hosts():
    # every class on at most 5 vertices, and every third class on 6
    for n in range(1, 6):
        yield from graphs_up_to_iso(n)
    yield from itertools.islice(graphs_up_to_iso(6), 0, None, 3)


def test_orbit_feed_changes_no_avoider_search():
    # exists_avoiding_coloring feeds the kernel one copy per twin-leaf orbit;
    # the pure kernel fed every labeled copy (the oracle's) must give the same
    # coloring, nodes and exhaustion, and .copies must count labeled copies
    for g in _orbit_feed_hosts():
        conf = conflict_lists(g)
        for f in ORBIT_FEED_PATTERNS:
            rows = [[g.edge_index[(min(vm[u], vm[v]), max(vm[u], vm[v]))]
                     for (u, v) in f.edges] for vm in naive_embeddings(f, g)]
            for k in range(f.num_edges + 1):
                for budget in (None, 3):
                    res = exists_avoiding_coloring(g, f, k, budget)
                    got = (list(res.coloring.colors) if res.coloring else None,
                           res.nodes_visited, res.exhaustive)
                    want = pure.find_avoiding_coloring(
                        g.num_edges, conf, rows, k, False, g.num_edges, budget)
                    assert got == want, (g.edges, f.edges, k, budget)
                    assert res.copies == len(rows)


def test_verify_reduction_cat_202_frozen():
    aug = augment_caterpillar([2, 0, 2])
    cert = verify_reduction(aug.original, aug, aug.k)
    assert cert.verdict == PASS
    assert cert.nodes_visited == 7_868
    assert cert.payload == {"embeddings_considered": 360}


def test_graphs_up_to_iso_counts():
    assert sum(g.num_edges == 3 for g in graphs_up_to_iso(4)) == 3
    assert sum(g.num_edges == 4 for g in graphs_up_to_iso(5)) == 6
    # 11 graphs on four vertices in total
    assert sum(1 for _ in graphs_up_to_iso(4)) == 11


def test_burnside_count_matches_oeis():
    # OEIS A008406: graphs on n nodes, summed over the edge count
    totals = {n: sum(burnside_graph_count(n, m) for m in range(n * (n - 1) // 2 + 1))
              for n in range(4, 9)}
    assert totals == {4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
    assert [burnside_graph_count(5, m) for m in range(11)] == \
        [1, 1, 2, 4, 6, 6, 6, 4, 2, 1, 1]


@pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 7)
                                  for m in range(n * (n - 1) // 2 + 1)])
def test_graphs_up_to_iso_matches_burnside(n, m):
    assert sum(g.num_edges == m for g in graphs_up_to_iso(n)) == burnside_graph_count(n, m)


def test_graphs_up_to_iso_total_n7():
    # OEIS A008406: 1,044 graphs on seven vertices
    by_edges = Counter(g.num_edges for g in graphs_up_to_iso(7))
    assert by_edges == {m: burnside_graph_count(7, m) for m in range(math.comb(7, 2) + 1)}
    assert sum(by_edges.values()) == 1044


@pytest.mark.parametrize("n", range(6))
def test_graphs_up_to_iso_matches_labeled_scan(n):
    got = list(graphs_up_to_iso(n))
    naive = list(naive_graphs_up_to_iso(n))
    assert all(g.n == n for g in got)
    # the same edge counts in the same order, smallest first
    assert [g.num_edges for g in got] == [g.num_edges for g in naive]
    keys = [canonical_key(g) for g in got]
    assert len(set(keys)) == len(keys)
    assert set(keys) == {canonical_key(g) for g in naive}


def test_graphs_up_to_iso_edge_cases():
    assert list(graphs_up_to_iso(0)) == [Graph(0, ())]
    for n in range(8):
        got = list(graphs_up_to_iso(n))
        edges = [g.num_edges for g in got]
        assert edges == sorted(edges), n
        keys = [canonical_key(g) for g in got]
        assert len(set(keys)) == len(keys), n


def _count_canonical_keys(monkeypatch) -> list[int]:
    calls = [0]
    canonical = search.canonical_key

    def counting(g):
        calls[0] += 1
        return canonical(g)

    monkeypatch.setattr(search, "canonical_key", counting)
    monkeypatch.setattr(oracles, "canonical_key", counting)
    return calls


def test_brute_extremal_one_pass_cost(monkeypatch):
    # the walk augments only the classes it keeps: without the twin-swap skip,
    # each class of levels 0..7 with a rainbow-P3-free coloring gets each of
    # its absent edges added once on the way to ex*(6, P3) = 7; the skip
    # leaves 119 of those 307
    f = make_path(3)
    good = [g for g in graphs_up_to_iso(6)
            if exists_avoiding_coloring(g, f, RAINBOW).coloring is not None]
    assert max(g.num_edges for g in good) == 7
    calls = _count_canonical_keys(monkeypatch)
    assert brute_extremal(6, f, RAINBOW)["value"] == 7
    assert calls[0] == 119
    calls[0] = 0
    monkeypatch.setattr(search, "graphs_up_to_iso", augmented_graphs_up_to_iso)
    assert brute_extremal(6, f, RAINBOW)["value"] == 7
    assert calls[0] == sum(15 - g.num_edges for g in good) == 307


@pytest.mark.parametrize("n, pruned, unpruned", [(6, 726, 1_170), (7, 7_863, 10_962)])
def test_graphs_up_to_iso_canonical_key_calls(monkeypatch, n, pruned, unpruned):
    calls = _count_canonical_keys(monkeypatch)
    total = math.comb(n, 2)
    assert sum(1 for _ in graphs_up_to_iso(n)) == sum(
        burnside_graph_count(n, m) for m in range(total + 1))
    assert calls[0] == pruned
    calls[0] = 0
    sum(1 for _ in augmented_graphs_up_to_iso(n))
    # every absent edge of every class is added once
    assert calls[0] == unpruned == sum(
        burnside_graph_count(n, m) * (total - m) for m in range(total + 1))


@pytest.mark.parametrize("n", range(8))
def test_twin_pruned_levels_match_unpruned_reference(n):
    # the skipped augmentations only reach keys already set, so the stream,
    # representatives and order included, is the unpruned one
    assert list(graphs_up_to_iso(n)) == list(augmented_graphs_up_to_iso(n))


def _has_triangle(g: Graph) -> bool:
    return any(g.adjacency[u] & g.adjacency[v] for u, v in g.edges)


@pytest.mark.parametrize("n", range(8))
def test_graphs_up_to_iso_prune(n):
    # pruning every class with a triangle leaves the triangle-free classes
    # and those one edge above one, each once, and the same stream as the
    # reference with the same prune
    got = list(graphs_up_to_iso(n, prune=_has_triangle))
    assert got == list(augmented_graphs_up_to_iso(n, prune=_has_triangle))
    free = {canonical_key(g) for g in graphs_up_to_iso(n) if not _has_triangle(g)}
    assert {canonical_key(g) for g in got if not _has_triangle(g)} == free
    for g in got:
        if _has_triangle(g):
            assert any(canonical_key(Graph(n, g.edges[:i] + g.edges[i + 1:])) in free
                       for i in range(g.num_edges))
    # a prune of every class stops the stream after the empty graph
    assert list(graphs_up_to_iso(n, prune=lambda g: True)) == [Graph(n, ())]


COPY_TABLE_PATTERNS = [make_path(2), make_path(3), make_double_star(1, 2),
                       make_double_star(2, 2), make_caterpillar([2, 0, 1])]


@pytest.mark.parametrize("n", range(7))
def test_copy_table_rows_match_enumeration(n):
    # K_n's copy table, restricted to a class's edges by their K_n indices
    # (keep), is the class's own conflict lists and copies in
    # enumerate_embeddings order; exists_avoiding_coloring, the one kernel
    # call site, searches the class alike from K_n's table and from its own
    complete = Graph(n, tuple(itertools.combinations(range(n), 2)))
    for f in COPY_TABLE_PATTERNS:
        table = copy_table(f, complete)
        _, conf, rows = table
        for g in graphs_up_to_iso(n):
            keep = [complete.edge_index[e] for e in g.edges]
            own = [list(e.edge_map) for e in enumerate_embeddings(f, g)]
            assert pure.restrict(conf.rows, rows, keep) == (conflict_lists(g), own), \
                (f.edges, g.edges)
            for k in range(f.num_edges + 1):
                for budget in (None, 3):
                    assert (exists_avoiding_coloring(g, f, k, budget, table)[:3]
                            == exists_avoiding_coloring(g, f, k, budget)[:3]), \
                        (f.edges, g.edges, k, budget)


def test_brute_extremal_refuses_too_many_copies_before_any_search(monkeypatch):
    # K_5 holds 120 labeled copies of P3, and every class on its 5 vertices
    # at most as many, so the cap is checked once, on K_5's copy table
    def no_search(*args):
        raise AssertionError("kernel called")

    p3 = make_path(3)
    monkeypatch.setattr(search, "MAX_COPIES", 119)
    monkeypatch.setattr(_kernels, "find_avoiding_coloring", no_search)
    with pytest.raises(ValueError, match="^host holds over 119 labeled copies of "
                                         "the pattern; too many to search$"):
        brute_extremal(5, p3, RAINBOW)
    monkeypatch.undo()
    monkeypatch.setattr(search, "MAX_COPIES", 120)
    assert brute_extremal(5, p3, RAINBOW)["value"] == 6


# sha256 of each certificate's file bytes (save_certificate's text), measured
# when brute_extremal first walked upward; the (6, P3) avoiders are those of
# the earlier top-down search, whose representatives of the levels above
# half of binom(n, 2) edges were complements
FROZEN_CERTIFICATES = {
    (6, "P3", RAINBOW, None): (7, {
        "lower_witness": "f40d9fc28fb898432daf5eaf0882a6e1890be4622e526f00f6032b5da5ce09a5",
        "upper_exhaustion": "0747b3cb7a39364db3d33b16997a3d6e7b4b49dc61e50ab1e22f26972a37bfb6"}),
    (7, "DS22", RAINBOW, None): (15, {
        "lower_witness": "e0d4bb2d3306b5d07fe23f1c7fe902a92f18d7a421483c2faaaf6d2c5e3ddbd4",
        "upper_exhaustion": "b0a023972619408fcd6b49498c808e91890e5b07fc5a4659dfeb12ea01e549e1"}),
    (5, "DS12", 2, None): (6, {
        "lower_witness": "f66ce3b7c05860c239cef5a5ae6478c17215bffd374eb589fc43015f13ab6825",
        "upper_exhaustion": "a0278d62ee49de12c50ee372118a48a5e9845e74e6ca312247620df6a8309527"}),
    # budget 3 leaves K6 undecided and the first avoider has 3 edges: bracket [3, 15]
    (6, "P3", RAINBOW, 3): (None, {
        "lower_witness": "0813336deb8a570871456e850b2f5a819c83be09c66b8f234167ffb287e2f085"}),
}
FROZEN_PATTERNS = {"P3": make_path(3), "DS12": make_double_star(1, 2),
                   "DS22": make_double_star(2, 2)}


@pytest.mark.parametrize("case", FROZEN_CERTIFICATES, ids=str)
def test_brute_extremal_certificates_frozen(case):
    n, name, k, budget = case
    value, digests = FROZEN_CERTIFICATES[case]
    out = brute_extremal(n, FROZEN_PATTERNS[name], k, budget=budget)
    assert out["value"] == value
    if value is None:
        assert (out["lower"], out["upper"], out["upper_exhaustion"]) == (3, 15, None)
    for key, digest in digests.items():
        text = json.dumps(out[key].to_json(), sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest, key
        ok, detail = recheck_certificate(out[key])
        assert ok, detail


def _rechecked_value(out):
    for key in ("lower_witness", "upper_exhaustion"):
        ok, detail = recheck_certificate(out[key])
        assert ok, detail
    return out["value"]


def test_classical_turan():
    # k = 0 accepts any copy, so ex_0(n, F) is the classical ex(n, F)
    assert _rechecked_value(brute_extremal(4, make_path(2), 0)) == 2  # max matching
    assert _rechecked_value(brute_extremal(4, make_path(3), 0)) == 3
    assert _rechecked_value(brute_extremal(5, make_cycle(3), 0)) == 6  # bipartite Turan


def test_classical_turan_paths_faudree_schelp():
    # Faudree & Schelp (JCTB 1975): ex(n, P) for the path with e edges is
    # q * C(e, 2) + C(r, 2) where n = q * e + r and 0 <= r < e
    for e in range(1, 7):
        for n in range(2, 8):
            q, r = divmod(n, e)
            assert _rechecked_value(brute_extremal(n, make_path(e), 0)) == \
                q * math.comb(e, 2) + math.comb(r, 2), (n, e)


@pytest.mark.parametrize("f", [make_path(2), make_path(3), make_double_star(1, 1),
                               make_double_star(1, 2)],
                         ids=["P2", "P3", "DS11", "DS12"])
def test_brute_extremal_matches_labeled_scan(f):
    cases = [(n, k) for n in range(1, 6)
             for k in [*range(f.num_edges + 1), RAINBOW]]
    assert [_rechecked_value(brute_extremal(n, f, k)) for n, k in cases] == \
        [top_down_extremal(n, f, k, classes=naive_graphs_up_to_iso) for n, k in cases]


DIFFERENTIAL_PATTERNS = {"P2": make_path(2), "P3": make_path(3), "P4": make_path(4),
                         "DS12": make_double_star(1, 2), "DS22": make_double_star(2, 2),
                         "CAT201": make_caterpillar([2, 0, 1])}


@pytest.mark.parametrize("name", DIFFERENTIAL_PATTERNS)
def test_brute_extremal_matches_top_down(name):
    # the upward walk against the unpruned top-down search it replaced, at
    # every k and rainbow: equal values with no budget, and with a budget of
    # 3 nodes per class, a bracket (or value) that holds the value
    f = DIFFERENTIAL_PATTERNS[name]
    for n in range(7):
        for k in [*range(f.num_edges + 1), RAINBOW]:
            value = top_down_extremal(n, f, k)
            assert brute_extremal(n, f, k)["value"] == value, (n, k)
            out = brute_extremal(n, f, k, budget=3)
            if out["value"] is None:
                assert out["lower"] <= value <= out["upper"], (n, k, out)
                assert out["lower"] < out["upper"] and out["upper_exhaustion"] is None
            else:
                assert out["value"] == value, (n, k)


def test_brute_extremal_at_n_cap():
    # ex*(7, P3) = 9, witnessed by K4 + K3; ex*(7, DS_{2,2}) = 15
    p3 = brute_extremal(7, make_path(3), RAINBOW)
    assert _rechecked_value(p3) == 9
    k4_k3 = graph_from_edges(7, [(a, b) for a in range(4) for b in range(a + 1, 4)]
                             + [(4, 5), (4, 6), (5, 6)])
    witness = Graph.from_json(p3["lower_witness"].payload["graph"])
    assert canonical_key(witness) == canonical_key(k4_k3)
    assert _rechecked_value(brute_extremal(7, make_double_star(2, 2), RAINBOW)) == 15


def test_brute_extremal_value_and_certificates(tmp_path):
    out = brute_extremal(4, make_path(2), RAINBOW)
    assert out["value"] == 2
    lower, upper = out["lower_witness"], out["upper_exhaustion"]
    assert lower.verdict == PASS and upper.verdict == PASS
    ok, detail = recheck_certificate(lower)
    assert ok, detail
    ok, _ = recheck_certificate(upper)
    assert ok
    # round-trip through disk
    p = save_certificate(lower, tmp_path)
    ok, _ = recheck_certificate(load_certificate(p))
    assert ok


def test_recheck_rejects_tampering():
    out = brute_extremal(4, make_path(3), 2)  # avoider lives on K4
    cert = out["lower_witness"]
    # the claim must be the stored graph's: ex(4, P3) >= 6 on K4, a PASS
    for field, value in (("n", 5), ("m", 7), ("verdict", FAIL)):
        edited = json.loads(json.dumps(cert.to_json()))
        (edited if field == "verdict" else edited["params"])[field] = value
        ok, detail = recheck_certificate(Certificate.from_json(edited))
        assert not ok and "does not match the stored graph" in detail, field
    obj = cert.to_json()
    obj["payload"]["coloring"]["colors"] = [0] * len(
        obj["payload"]["coloring"]["colors"])
    ok, detail = recheck_certificate(Certificate.from_json(obj))
    assert not ok and "not proper" in detail
    obj["payload"]["coloring"]["colors"][0] = [0]
    with pytest.raises(ValueError, match="integer 'colors'"):
        recheck_certificate(Certificate.from_json(obj))


def test_brute_extremal_budget_bracket():
    out = brute_extremal(4, make_path(3), 3, budget=2)
    assert out["value"] is None
    assert 0 <= out["lower"] < out["upper"] <= 6


def test_brute_extremal_chain_p3():
    f = make_path(3)
    vals = [brute_extremal(4, f, k)["value"] for k in range(4)]
    assert vals == [3, 3, 6, 6]
    assert vals[0] == naive_classical_turan(4, f)
    assert brute_extremal(4, f, RAINBOW)["value"] == vals[-1]


def test_k6_rainbow_free_certificate():
    cert = verify_k6_rainbow_free()
    assert cert.verdict == PASS
    assert cert.payload["embeddings_checked"] == 720
    ok, detail = recheck_certificate(cert)
    assert ok, detail


def test_k6_universal_small_run_deterministic():
    a = verify_k6_universal_3unique(color_cap=6, sample_count=20_000)
    b = verify_k6_universal_3unique(color_cap=6, sample_count=20_000)
    assert a.verdict == PASS
    assert a.to_json() == b.to_json()
    assert not a.exhaustive  # below color cap 14 the claim is only sampled
    regimes = a.payload
    assert regimes["exhaustive_regime"]["nodes_visited"] > 0
    assert regimes["sampled_regime"]["samples_checked"] + \
        regimes["sampled_regime"]["rainbow_skipped"] == 20_000


def test_k6_universal_planted_fail_is_rejected():
    good = verify_k6_universal_3unique(color_cap=6, sample_count=1_000)
    obj = good.to_json()
    obj["verdict"] = FAIL
    # the 1-factorization does contain exactly-3-unique copies, so it is not
    # a valid counterexample and the recheck must say so
    obj["payload"] = {"counterexample_coloring": list(one_factorization(3).colors),
                      "regime": "planted"}
    ok, detail = recheck_certificate(Certificate.from_json(obj))
    assert not ok and "does contain" in detail


def test_k6_universal_params_and_sample_count_guard():
    cert = verify_k6_universal_3unique(color_cap=6, sample_count=1_000, seed=7)
    assert cert.params == {"color_cap": 6, "sample_count": 1_000, "seed": 7}
    # certificates from when sampling ran in chunks carry chunk_size; the
    # unknown field is ignored and they recheck like any other
    obj = cert.to_json()
    obj["params"]["chunk_size"] = 50_000
    ok, detail = recheck_certificate(Certificate.from_json(obj))
    assert ok, detail
    with pytest.raises(ValueError, match="sample_count"):
        verify_k6_universal_3unique(color_cap=6, sample_count=-1)
    for cap in (0, -1):
        with pytest.raises(ValueError, match="color_cap"):
            verify_k6_universal_3unique(color_cap=cap, sample_count=10)


def test_k2s4_construction():
    for s in (0, 1):
        cert = verify_k2s4_construction(s)
        assert cert.verdict == PASS
        assert cert.params["host"] == f"K{2 * s + 4}"
        ok, detail = recheck_certificate(cert)
        assert ok, detail
    with pytest.raises(ValueError):
        verify_k2s4_construction(99)


def test_k2s4_construction_at_cap():
    # K28 with DS_{1,25}: S_CAP = 12
    cert = verify_k2s4_construction(12)
    assert cert.verdict == PASS and cert.params["host"] == "K28"


def test_certificate_write_is_atomic(tmp_path, monkeypatch):
    cert = verify_k2s4_construction(0)
    path = save_certificate(cert, tmp_path)
    assert path.read_text() == json.dumps(cert.to_json(), sort_keys=True, indent=2) + "\n"
    assert load_certificate(path).to_json() == cert.to_json()
    assert save_certificate(cert, tmp_path) == path
    assert list(tmp_path.iterdir()) == [path]
    # a failed rename leaves neither the temp file nor a new certificate
    def broken_replace(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr(certs.os, "replace", broken_replace)
    with pytest.raises(OSError):
        save_certificate(verify_k2s4_construction(1), tmp_path)
    assert list(tmp_path.iterdir()) == [path]


def test_certificate_serialization(tmp_path):
    cert = verify_k2s4_construction(0)
    path = save_certificate(cert, tmp_path)
    text = path.read_text()
    again = load_certificate(path)
    assert again.to_json() == cert.to_json()
    assert json.loads(text)["schema"] == 1
    bad = json.loads(text)
    bad["schema"] = 99
    with pytest.raises(ValueError):
        Certificate.from_json(bad)


def test_certificate_fields():
    a, b = Certificate("avoider", PASS, {}), Certificate("avoider", PASS, {})
    assert a == b and a.payload == {} and a.payload is not b.payload
    a.seed = 7
    assert a.seed == 7 and a != b
    cert = verify_k2s4_construction(0)
    again = Certificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert again == cert


def test_recheck_unknown_kind():
    ok, detail = recheck_certificate(Certificate("mystery", PASS, {}))
    assert not ok and "unknown" in detail


def test_empty_host():
    g = graph_from_edges(3, [])
    res = exists_avoiding_coloring(g, make_path(1), 1)
    assert res.coloring is not None and res.coloring.colors == ()
