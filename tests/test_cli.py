import argparse
import functools
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from rturan import search
from rturan.certs import PASS, Certificate
from rturan.coloring import EdgeColoring, is_proper, one_factorization, proper_coloring
from rturan.cli import (EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, SpecError,
                        build_parser, main, parse_family)
from rturan.graphs import (Graph, canonical_key, enumerate_embeddings, graph_from_edges,
                           make_caterpillar, make_complete, make_double_star)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_family_grammar():
    for spec, n, m in (("P4", 5, 4), ("C5", 5, 5), ("K4", 4, 6)):
        name, g = parse_family([spec])
        assert (g.n, g.num_edges) == (n, m) and name == spec
    _, ds = parse_family(["DS", "2", "3"])
    assert canonical_key(ds) == canonical_key(make_double_star(2, 3))
    _, cat = parse_family(["CAT", "1,0,2"])
    assert canonical_key(cat) == canonical_key(make_caterpillar([1, 0, 2]))
    _, t = parse_family(["T", "2", "2"])
    assert (t.n, t.num_edges) == (7, 6)
    _, b = parse_family(["B", "3", "2"])
    assert canonical_key(b) == canonical_key(make_double_star(1, 2))
    for bad in (["P0"], ["C2"], ["DS", "2"], ["Q7"], []):
        with pytest.raises(SpecError):
            parse_family(bad)


def test_parse_family_graph_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(make_double_star(1, 2).to_json()))
    name, g = parse_family([], graph_file=str(path))
    assert g.num_edges == 4 and name.startswith("file:")


def test_spectrum_table_and_json(capsys):
    code, out, _ = run(capsys, "spectrum", "C5")
    assert code == EXIT_OK and "{1, 3, 5}" in out
    code, out, _ = run(capsys, "--format", "json", "spectrum", "C5")
    obj = json.loads(out)
    assert code == EXIT_OK and obj["values"] == [1, 3, 5]
    assert obj["schema"] == 1 and "seed" in obj


def test_spectrum_closed_form(capsys):
    code, out, _ = run(capsys, "--format", "json", "spectrum", "DS", "2", "2",
                       "--closed-form")
    assert code == EXIT_OK
    assert json.loads(out)["values"] == [1, 3, 5]
    code, _, err = run(capsys, "spectrum", "P3", "--closed-form")
    assert code == EXIT_USAGE and "closed-form" in err


@pytest.mark.parametrize("spec", ["DS 2 1", "DS 3 1"])
def test_spectrum_closed_form_keeps_the_sides(capsys, spec):
    # r > s: the witnesses color the named DS_{r,s}, in construct's edge order
    code, out, _ = run(capsys, "--format", "json", "spectrum", *spec.split(),
                       "--closed-form")
    closed = json.loads(out)
    assert code == EXIT_OK and closed["family"] == spec
    _, out, _ = run(capsys, "--format", "json", "construct", *spec.split())
    built = json.loads(out)
    assert closed["graph"] == {key: built[key] for key in ("n", "edges", "labels")}
    _, out, _ = run(capsys, "--format", "json", "spectrum", *spec.split())
    assert closed["values"] == json.loads(out)["values"]
    g = Graph.from_json(closed["graph"])
    for value, colors in closed["witnesses"].items():
        assert is_proper(g, colors)
        assert sum(colors.count(c) == 1 for c in colors) == int(value)


def test_spectrum_budget_exit_code(capsys):
    code, _, _ = run(capsys, "--budget", "1", "spectrum", "C6")
    assert code == EXIT_BUDGET
    # Spec(P12) takes 319 nodes; a budget one short trips after 318
    for budget, code, exhaustive in ((318, EXIT_BUDGET, False), (319, EXIT_OK, True)):
        got, out, _ = run(capsys, "--format", "json", "--budget", str(budget),
                          "spectrum", "P12")
        obj = json.loads(out)
        assert got == code
        assert (obj["nodes_visited"], obj["exhaustive"]) == (budget, exhaustive)


def test_bounds_ds22(capsys):
    code, out, _ = run(capsys, "--format", "json", "bounds", "DS", "2", "2")
    assert code == EXIT_OK
    obj = json.loads(out)
    coeffs = [(b["coefficient"]["num"], b["coefficient"]["den"])
              for b in obj["bounds"]]
    assert coeffs == [(5, 2), (3, 1)]


def test_bounds_ds_1_odd_appended(capsys):
    code, out, _ = run(capsys, "--format", "json", "bounds", "DS", "1", "3")
    obj = json.loads(out)
    assert code == EXIT_OK
    assert obj["bounds"][-1]["family"] == "ds12s1_exact"
    assert obj["bounds"][-1]["coefficient"] == {"num": 5, "den": 2}


def test_bounds_k_unique(capsys):
    code, out, _ = run(capsys, "--format", "json", "bounds", "DS", "2", "2",
                       "--k-unique", "1")
    obj = json.loads(out)
    assert code == EXIT_OK and obj["k"] == 3
    assert obj["bounds"][0]["coefficient"] == {"num": 1, "den": 1}
    assert obj["bounds"][1]["coefficient"] == {"num": 5, "den": 2}


def test_bounds_caterpillar_and_binary(capsys):
    code, out, _ = run(capsys, "--format", "json", "bounds", "CAT", "1,1,1")
    obj = json.loads(out)
    assert code == EXIT_OK and obj["discrepancy"] is True
    assert obj["augmented_edges"] == 11
    code, out, _ = run(capsys, "--format", "json", "bounds", "T", "2", "2")
    obj = json.loads(out)
    assert code == EXIT_OK and len(obj["bounds"]) == 3
    code, _, err = run(capsys, "bounds", "P5")
    assert code == EXIT_USAGE


def test_bounds_kary(capsys):
    # k = 3 takes the k-ary branch, whose two readings agree at d = 2
    code, out, _ = run(capsys, "--format", "json", "bounds", "T", "3", "2")
    obj = json.loads(out)
    assert code == EXIT_OK and obj["augmented_edges"] == 36
    assert obj["discrepancy"] is False
    assert [(b["family"], b["coefficient"], b["assumptions"]) for b in obj["bounds"]] == [
        ("kary_upper_literal", {"num": 35, "den": 2}, ["erdos_sos_conjecture"]),
        ("kary_upper_constructive", {"num": 35, "den": 2}, ["mclennan_diam4"])]


def test_construct_and_augment(capsys):
    code, out, _ = run(capsys, "--format", "json", "construct", "P3")
    obj = json.loads(out)
    assert code == EXIT_OK and obj["edges"] == [[0, 1], [1, 2], [2, 3]]
    code, out, _ = run(capsys, "--format", "json", "construct", "--augment",
                       "DS", "2", "2", "1")
    obj = json.loads(out)
    assert code == EXIT_OK and obj["edge_count"] == 6
    assert obj["construction_log"] == [["append 1 pendants at x", 1]]


def test_verify_and_recheck_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "--format", "json", "--cache-dir", str(tmp_path),
                       "verify", "k2s4", "--s", "0")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "PASS"
    certs = list(tmp_path.glob("*.json"))
    assert len(certs) == 1
    code, out, _ = run(capsys, "verify", "--recheck", str(certs[0]))
    assert code == EXIT_OK and "OK" in out


def test_verify_k6_rainbow_free(capsys, tmp_path):
    code, out, _ = run(capsys, "--cache-dir", str(tmp_path),
                       "verify", "k6-rainbow-free")
    assert code == EXIT_OK and "PASS" in out


def _rainbow_coloring(m: int) -> EdgeColoring:
    """K_{2m} with every edge its own color: proper, every copy rainbow."""
    host = make_complete(2 * m)
    return EdgeColoring(host, tuple(range(host.num_edges)))


@pytest.mark.parametrize("check, m", [(["k6-rainbow-free"], 3), (["k2s4", "--s", "0"], 2)],
                         ids=["k6_rainbow_free", "k2s4"])
def test_verify_fail_exits_1_and_recheck_reruns_to_pass(capsys, tmp_path, monkeypatch,
                                                        check, m):
    # a rainbow coloring in place of the 1-factorization holds a rainbow copy,
    # so the check FAILs, exits 1 and names the copy
    monkeypatch.setattr(search, "one_factorization", _rainbow_coloring)
    code, out, _ = run(capsys, "--format", "json", "--cache-dir", str(tmp_path),
                       "verify", *check)
    obj = json.loads(out)
    assert code == EXIT_FAIL and obj["verdict"] == "FAIL"
    payload = obj["payload"]
    if check[0] == "k2s4":
        # K4 and DS_{1,1}: the first copy is already rainbow
        first = next(enumerate_embeddings(make_double_star(1, 1), make_complete(4)))
        assert payload["rainbow_witness"] == {"vertex_map": list(first.vertex_map),
                                              "edge_colors": list(first.edge_map),
                                              "unique_count": 3}
    else:
        assert payload["rainbow_embedding_rows"] == list(range(180))  # every orbit
    assert payload["coloring"]["colors"] == list(_rainbow_coloring(m).colors)
    # the real coloring re-runs to PASS, so the FAIL is not reproduced
    monkeypatch.undo()
    (path,) = tmp_path.glob("*.json")
    code, out, _ = run(capsys, "verify", "--recheck", str(path))
    assert code == EXIT_FAIL and "FAILED (re-run verdict PASS" in out


@pytest.mark.parametrize("kernel, regime", [("find_avoiding_coloring", "exhaustive"),
                                            ("sample_and_check", "sampled")])
def test_verify_k6_universal_fail_exits_1(capsys, tmp_path, monkeypatch, kernel, regime):
    # a kernel that reports the 1-factorization as a counterexample makes
    # the check FAIL in that regime; the recheck finds the exactly-3-unique
    # copies the coloring does hold
    planted = list(one_factorization(3).colors)
    fake = {"find_avoiding_coloring": lambda *args: (planted, 7, True),
            "sample_and_check": lambda *args: {"counterexample": planted,
                                               "sample_index": 4}}[kernel]
    monkeypatch.setattr(search._kernels, kernel, fake)
    code, out, _ = run(capsys, "--format", "json", "--cache-dir", str(tmp_path),
                       "verify", "k6-universal-3unique", "--color-cap", "3",
                       "--samples", "10")
    obj = json.loads(out)
    assert code == EXIT_FAIL and obj["verdict"] == "FAIL"
    assert obj["payload"]["regime"] == regime
    assert obj["payload"]["counterexample_coloring"] == planted
    monkeypatch.undo()
    (path,) = tmp_path.glob("*.json")
    code, out, _ = run(capsys, "verify", "--recheck", str(path))
    assert code == EXIT_FAIL and "does contain an exactly-3-unique copy" in out


def test_improper_k6_counterexample_fails_recheck(capsys, tmp_path):
    # 15 integer colors, so the certificate is well typed, but not proper
    path = tmp_path / "k6.json"
    path.write_text(_k6_fail([0] * 15))
    code, out, _ = run(capsys, "verify", "--recheck", str(path))
    assert code == EXIT_FAIL and "counterexample is not proper" in out


def test_avoider_with_a_k_unique_copy_fails_recheck(capsys, tmp_path):
    # ex(4, P3) at k = 2 is 6: the avoider is K4.  Six colors on K4 are
    # proper and make every copy rainbow; the graph hash is kept
    code, out, _ = run(capsys, "--format", "json", "--cache-dir", str(tmp_path),
                       "search", "--n", "4", "--pattern", "P3", "--k", "2")
    assert code == EXIT_OK and json.loads(out)["value"] == 6
    with open(json.loads(out)["lower_witness"]) as fh:
        cert = json.load(fh)
    assert len(cert["payload"]["graph"]["edges"]) == 6
    cert["payload"]["coloring"]["colors"] = list(range(6))
    target = tmp_path / "edited.json"
    target.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", "--recheck", str(target))
    assert code == EXIT_FAIL and "stored coloring contains a k-unique copy" in out


def test_verify_reduction_ds(capsys, tmp_path):
    code, out, _ = run(capsys, "--format", "json", "--cache-dir", str(tmp_path),
                       "verify", "reduction", "DS", "1", "1", "1")
    assert code == EXIT_OK and json.loads(out)["verdict"] == "PASS"
    assert json.loads(out)["params"]["k"] == 1 - 1 + 1 + 2 * 1
    code, _, err = run(capsys, "verify", "reduction-ds", "--r", "1",
                       "--s-param", "1", "--l", "1")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("spec", ["CAT 1,1,1", "T 2 2"])
def test_verify_reduction_rainbow_specs_pass_and_recheck(capsys, tmp_path, spec):
    code, out, _ = run(capsys, "--format", "json", "--cache-dir", str(tmp_path),
                       "verify", "reduction", *spec.split())
    obj = json.loads(out)
    assert code == EXIT_OK and obj["verdict"] == "PASS"
    original = obj["params"]["original"]
    assert obj["params"]["k"] == len(original["edges"])  # rainbow
    (cert,) = tmp_path.glob("*.json")
    code, out, _ = run(capsys, "verify", "--recheck", str(cert))
    assert code == EXIT_OK and "OK" in out


def test_verify_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "k2s4")
    assert code == EXIT_USAGE and "--s" in err
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "verify")
    assert code == EXIT_USAGE and "check name or --recheck FILE" in err
    # a check named beside --recheck is refused, not dropped, even when the
    # file rechecks OK on its own
    assert run(capsys, "--cache-dir", str(tmp_path), "verify", "k2s4", "--s", "0")[0] == EXIT_OK
    (path,) = tmp_path.glob("*.json")
    assert run(capsys, "verify", "--recheck", str(path))[0] == EXIT_OK
    for argv in (["k2s4", "--s", "3"], ["reduction", "DS", "2", "2", "1"],
                 ["k6-rainbow-free"]):
        for order in ([*argv, "--recheck", str(path)], ["--recheck", str(path), *argv]):
            code, out, err = run(capsys, "verify", *order)
            assert code == EXIT_USAGE and out == "", order
            assert len(err.strip().splitlines()) == 1 and "--recheck" in err, order


def test_search_command(capsys, tmp_path):
    code, out, _ = run(capsys, "--format", "json", "--cache-dir", str(tmp_path),
                       "search", "--n", "4", "--pattern", "P2", "--rainbow")
    obj = json.loads(out)
    assert code == EXIT_OK and obj["value"] == 2
    assert (tmp_path / obj["lower_witness"].split("/")[-1]).exists()
    code, _, err = run(capsys, "search", "--n", "4", "--pattern", "P2")
    assert code == EXIT_USAGE


def test_search_budget_bracket(capsys, tmp_path):
    # one node per class: the value is only bracketed, exit 3, and no
    # exhaustion certificate is written
    code, out, _ = run(capsys, "--format", "json", "--budget", "1", "--cache-dir",
                       str(tmp_path), "search", "--n", "5", "--pattern", "P3", "--rainbow")
    obj = json.loads(out)
    assert code == EXIT_BUDGET and obj["bracket"] == {"lower": 1, "upper": 10}
    assert "value" not in obj and "upper_exhaustion" not in obj
    code, out, _ = run(capsys, "verify", "--recheck", obj["lower_witness"])
    assert code == EXIT_OK and "OK" in out


def test_search_vertex_count_floor(capsys, tmp_path):
    code, out, err = run(capsys, "search", "--n", "-1", "--pattern", "P3", "--rainbow")
    assert code == EXIT_USAGE and out == "" and "--n" in err
    assert len(err.strip().splitlines()) == 1
    # no vertex, no edge: the empty graph is the avoider
    code, out, _ = run(capsys, "--format", "json", "--cache-dir", str(tmp_path),
                       "search", "--n", "0", "--pattern", "P3", "--rainbow")
    assert code == EXIT_OK and json.loads(out)["value"] == 0
    for k in (0, 2, search.RAINBOW):
        assert search.brute_extremal(0, make_double_star(1, 2), k)["value"] == 0


@pytest.mark.parametrize("n, value", [(5, 4), (6, 6), (7, 6)])
def test_search_k0_is_classical_turan(capsys, tmp_path, n, value):
    # Faudree & Schelp: ex(n, P3) = floor(n/3) * 3 + C(n mod 3, 2)
    code, out, _ = run(capsys, "--format", "json", "--cache-dir", str(tmp_path),
                       "search", "--n", str(n), "--pattern", "P3", "--k", "0")
    obj = json.loads(out)
    assert code == EXIT_OK and obj["value"] == value
    for key in ("lower_witness", "upper_exhaustion"):
        code, out, _ = run(capsys, "verify", "--recheck", obj[key])
        assert code == EXIT_OK and "OK" in out


@pytest.mark.parametrize("argv", [
    ["verify", "reduction", "CAT", "2,0,2"],
    ["verify", "k6-universal-3unique", "--samples", "10"],
    ["verify", "k6-universal-3unique"],
], ids=["reduction", "k6_universal", "k6_universal_default_samples"])
def test_budget_exhausted_certificate_rechecks(capsys, tmp_path, argv):
    code, _, _ = run(capsys, "--budget", "5", "--cache-dir", str(tmp_path), *argv)
    assert code == EXIT_BUDGET
    (path,) = tmp_path.glob("*.json")
    code, out, _ = run(capsys, "verify", "--recheck", str(path))
    assert code == EXIT_OK and "OK" in out
    # the re-run trips at the recorded node, so a claimed PASS fails
    obj = json.loads(path.read_text())
    assert obj["nodes_visited"] == 5
    target = tmp_path / "tampered.json"
    target.write_text(json.dumps({**obj, "verdict": "PASS"}))
    code, out, _ = run(capsys, "verify", "--recheck", str(target))
    assert code == EXIT_FAIL and "FAILED" in out
    # a payload field the re-run does not record is not reproduced either
    target.write_text(json.dumps(_with(obj, ("payload", "sampled_regime"), "garbage")))
    code, out, _ = run(capsys, "verify", "--recheck", str(target))
    assert code == EXIT_FAIL and "FAILED" in out
    target.write_text(json.dumps({**obj, "nodes_visited": "5"}))
    code, _, err = run(capsys, "verify", "--recheck", str(target))
    assert code == EXIT_USAGE and "nodes_visited" in err


def test_json_output_is_deterministic(capsys):
    _, a, _ = run(capsys, "--format", "json", "bounds", "DS", "2", "2")
    _, b, _ = run(capsys, "--format", "json", "bounds", "DS", "2", "2")
    assert a == b


def test_bad_arguments_exit_usage(capsys):
    assert main(["spectrum", "Q9"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["--threads", "2", "verify", "k6-rainbow-free"]) == EXIT_USAGE


def _k6_fail(counterexample) -> str:
    return json.dumps({"schema": 1, "kind": "k6_universal", "verdict": "FAIL", "params": {},
                       "payload": {"counterexample_coloring": counterexample}})


def _k4_forest_avoider() -> str:
    """A self-consistent avoider certificate of n = 64, above search.N_CAP:
    16 disjoint K4s, each 1-factorized with colors 0..2, hold no 30-unique
    copy of 10 disjoint P3s, but the copy stream a recheck would walk to
    show it is astronomically long."""
    k4 = one_factorization(2)
    host = graph_from_edges(64, [(u + 4 * i, v + 4 * i) for i in range(16)
                                 for u, v in k4.graph.edges])
    pattern = graph_from_edges(40, [(4 * i + j, 4 * i + j + 1) for i in range(10)
                                    for j in range(3)])
    coloring = proper_coloring(host, k4.colors * 16)
    params = {"n": 64, "m": 96, "pattern": pattern.to_json(), "k": 30}
    return json.dumps(Certificate("avoider", PASS, params, payload={
        "graph": host.to_json(), "coloring": coloring.to_json()}).to_json())


MALFORMED_CERTIFICATES = {
    "no-kind.json": '{"schema": 1}',
    "no-graph.json": '{"schema": 1, "kind": "avoider", "verdict": "PASS", "params": {}}',
    "not-an-object.json": "[1]",
    # the re-run kinds below carry nodes_visited, which a recheck reads first,
    # so each exits 2 for the field its name gives
    "k2s4-s-string.json": '{"schema": 1, "kind": "k2s4", "verdict": "PASS", "nodes_visited": 0, '
                          '"params": {"s": "x"}}',
    "k2s4-s-bool.json": '{"schema": 1, "kind": "k2s4", "verdict": "PASS", "nodes_visited": 0, '
                        '"params": {"s": true}}',
    "reduction-k-negative.json": '{"schema": 1, "kind": "reduction", "verdict": "PASS", '
                                 '"nodes_visited": 0, "params": '
                                 '{"original": {"n": 2, "edges": [[0, 1]]}, '
                                 '"augmented": {"n": 2, "edges": [[0, 1]]}, "k": -1}}',
    "reduction-k-above.json": '{"schema": 1, "kind": "reduction", "verdict": "PASS", '
                              '"nodes_visited": 0, "params": '
                              '{"original": {"n": 2, "edges": [[0, 1]]}, '
                              '"augmented": {"n": 2, "edges": [[0, 1]]}, "k": 2}}',
    "reduction-k-null.json": '{"schema": 1, "kind": "reduction", "verdict": "PASS", '
                             '"nodes_visited": 0, "params": '
                             '{"original": {"n": 2, "edges": [[0, 1]]}, '
                             '"augmented": {"n": 2, "edges": [[0, 1]]}, "k": null}}',
    # a negative budget means no limit to the kernels, so a re-run with the
    # stored count as its budget would search the whole tree
    "reduction-nodes-negative.json": '{"schema": 1, "kind": "reduction", "verdict": "PASS", '
                                     '"nodes_visited": -1, "params": '
                                     '{"original": {"n": 2, "edges": [[0, 1]]}, '
                                     '"augmented": {"n": 2, "edges": [[0, 1]]}, "k": 1}}',
    "k6-samples-negative.json":'{"schema": 1, "kind": "k6_universal", "verdict": "PASS", '
                                '"nodes_visited": 0, '
                                '"params": {"color_cap": 7, "sample_count": -1, "seed": 1}}',
    "k6-seed-float.json": '{"schema": 1, "kind": "k6_universal", "verdict": "PASS", '
                          '"nodes_visited": 0, "params": '
                          '{"color_cap": 7, "sample_count": 10, "seed": 1.5, "chunk_size": 5}}',
    "k6-color-cap-zero.json": '{"schema": 1, "kind": "k6_universal", "verdict": "PASS", '
                              '"nodes_visited": 0, '
                              '"params": {"color_cap": 0, "sample_count": 10, "seed": 1}}',
    "k6-color-cap-negative.json": '{"schema": 1, "kind": "k6_universal", "verdict": "PASS", '
                                  '"nodes_visited": 0, '
                                  '"params": {"color_cap": -1, "sample_count": 10, "seed": 1}}',
    # the producer refuses color_cap 0 before it draws a sample, whatever the
    # sample count and the stored sampled regime say
    "k6-color-cap-zero-prefix.json": '{"schema": 1, "kind": "k6_universal", "verdict": "PASS", '
                                     '"nodes_visited": 0, '
                                     '"params": {"color_cap": 0, "sample_count": 60000, "seed": 1}, '
                                     '"payload": {"sampled_regime": {"samples_checked": 0, '
                                     '"rainbow_skipped": 0}}}',
    # a 10-sample certificate asking its re-run for 10^12 samples, about six
    # days of drawing: the producer refuses it before the first draw
    "k6-samples-huge.json": '{"schema": 1, "kind": "k6_universal", "verdict": "PASS", '
                            '"nodes_visited": 57, "exhaustive": false, "seed": 20240901, '
                            '"params": {"color_cap": 7, "sample_count": 1000000000000, '
                            '"seed": 20240901}, '
                            '"payload": {"exhaustive_regime": {"color_cap": 7, '
                            '"nodes_visited": 57}, "sampled_regime": '
                            '{"samples_checked": 10, "rainbow_skipped": 0}}}',
    # FAIL verdicts: K6 has 15 edges, so each wrong-typed list has the right length
    "k6-fail-null.json": _k6_fail(None),
    "k6-fail-nested.json": _k6_fail([[i] for i in range(15)]),
    "k6-fail-objects.json": _k6_fail([{} for _ in range(15)]),
    "k6-fail-strings.json": _k6_fail([str(i) for i in range(15)]),
    # every field agrees, but n is above the largest host brute_extremal
    # searches, so the recheck refuses it before walking the copies
    "avoider-n-above-cap.json": _k4_forest_avoider(),
}


@pytest.mark.parametrize("argv", [
    "bounds DS",
    "bounds CAT x",
    "bounds DS 3 1 --k-unique 5",
    "bounds CAT 1,1,1 --k-unique 5",
    "construct --augment DS 1",
    "construct --augment CAT 1,1",
    "spectrum P20",
    "search --n 8 --pattern P3 --rainbow",
    "search --n 1 --pattern K1 --k 0",  # a pattern with no edge
    "search --n 4 --pattern K1 --k 0",
    "search --n 4 --pattern P3 --rainbow --k 1",
    "search --n 4 --pattern P3",
    "search --n 4 --pattern P3 --k 4",  # above the pattern's 3 edges
    "verify",  # neither a check nor --recheck
    "verify k2s4 --s 13",
    "verify --recheck missing.json",
    "verify --recheck missing.json k2s4 --s 0",  # a check after --recheck FILE
    *(f"verify --recheck {name}" for name in MALFORMED_CERTIFICATES),
    "verify reduction T 2 3",  # over the copy cap
    "verify reduction DS 0 9 0",
    "verify reduction P3",
    "verify reduction DS 1",
    "verify reduction-ds --r 1 --s-param 1 --l 1",
    "verify k2s4 --s 1 junk",
    "verify k2s4 junk --s 1",
    "verify k6-universal-3unique --color-cap 0",
    "verify k6-universal-3unique --samples -5",
    "verify k6-universal-3unique --sam 5",  # no abbreviated flags
    "verify k6-universal-3unique --samples 100000001",  # above search.MAX_SAMPLES
    # a check takes only its own flags
    "verify reduction DS 1 1 1 --color-cap 1 --s 4 --samples 0",
    "verify k2s4 --s 0 --samples 5 --color-cap 3",
    "verify k6-rainbow-free --s 9 --samples 3",
    # a family spec beside --graph-file is refused, not dropped
    "spectrum K5 --graph-file g.json",
    "construct --augment DS 2 2 1 --graph-file g.json",
    "--form json spectrum C5",
    "--budget -1 spectrum C5",
    "bounds DS 2 2 --rainbow",
    "no-such-command",
])
def test_user_errors_exit_usage_with_one_line(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in MALFORMED_CERTIFICATES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "g.json").write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
    code, out, err = run(capsys, *argv.split())
    assert code == EXIT_USAGE
    assert out == "" and len(err.strip().splitlines()) == 1


def test_huge_vertex_count_is_refused_at_once(capsys, tmp_path):
    # a graph of 10^12 vertices would ask for about 480 GB before any check
    assert main(["--cache-dir", str(tmp_path), "search", "--n", "4", "--pattern", "P2",
                 "--rainbow"]) == EXIT_OK
    capsys.readouterr()
    (avoider,) = [obj for obj in (json.loads(p.read_text()) for p in tmp_path.glob("*.json"))
                  if obj["kind"] == "avoider"]
    cert, graph = tmp_path / "huge-avoider.cert", tmp_path / "huge.graph"
    cert.write_text(json.dumps(_with(avoider, ("payload", "graph", "n"), 10**12)))
    graph.write_text(json.dumps({"n": 10**12, "edges": []}))
    for argv in (["verify", "--recheck", str(cert)], ["spectrum", "--graph-file", str(graph)]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == EXIT_USAGE and out == "", argv
        assert len(err.strip().splitlines()) == 1 and "vertex cap" in err, argv


def test_huge_sample_count_is_refused_at_once(capsys, tmp_path):
    # one cap bounds the run and the recheck: a re-run is the producer's run
    cert = tmp_path / "huge-samples.cert"
    cert.write_text(MALFORMED_CERTIFICATES["k6-samples-huge.json"])
    for argv in (["verify", "--recheck", str(cert)],
                 ["verify", "k6-universal-3unique", "--samples", str(search.MAX_SAMPLES + 1)]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == EXIT_USAGE and out == "", argv
        assert len(err.strip().splitlines()) == 1 and str(search.MAX_SAMPLES) in err, argv


def test_negative_budget_is_rejected(capsys):
    for flag, argv in (("--budget", ["--budget", "-1", "spectrum", "C5"]),
                       ("--budget", ["--budget", "-1", "search", "--n", "4",
                                     "--pattern", "P2", "--rainbow"]),
                       ("--samples", ["verify", "k6-universal-3unique",
                                      "--samples", "-5"]),
                       *(("--color-cap", ["verify", "k6-universal-3unique",
                                          "--color-cap", cap, "--samples", "10"])
                         for cap in ("0", "-1"))):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == "" and flag in err


# one small valid certificate per kind, from the CLI that writes it
SWEEP_RUNS = (
    ["search", "--n", "4", "--pattern", "P2", "--rainbow"],  # avoider, exhaustion
    ["verify", "k6-rainbow-free"],
    ["verify", "k6-universal-3unique", "--samples", "10"],
    ["verify", "k2s4", "--s", "0"],
    ["verify", "reduction", "DS", "1", "1", "0"],
)
BAD_VALUES = (None, "x", 1.5, True, [], {})
# fields whose type `verify --recheck` checks: every bad value there exits 2
# with one line, except [] where the field is a list, which is well-typed
TYPED_SITES = {
    *((kind, "assumptions") for kind in ("avoider", "exhaustion", "k2s4",
                                         "k6_rainbow_free", "k6_universal",
                                         "reduction")),
    ("avoider", "params.pattern"), ("avoider", "params.pattern.n"),
    ("avoider", "params.pattern.edges"), ("avoider", "params.n"),
    ("avoider", "params.m"), ("avoider", "params.k"), ("avoider", "payload.graph"),
    ("avoider", "payload.graph.n"), ("avoider", "payload.graph.edges"),
    ("avoider", "payload.coloring"), ("avoider", "payload.coloring.colors"),
    ("exhaustion", "payload.graphs_checked"), ("exhaustion", "params.n"),
    ("exhaustion", "params.k"), ("exhaustion", "params.pattern"),
    ("exhaustion", "params.pattern.n"), ("exhaustion", "params.pattern.edges"),
    ("exhaustion", "params.budget"),
    *((kind, "nodes_visited") for kind in ("exhaustion", "k2s4", "k6_rainbow_free",
                                           "k6_universal", "reduction")),
    *(("reduction", f"params.{g}{f}") for g in ("original", "augmented")
      for f in ("", ".n", ".edges", ".labels")),
}
LIST_FIELDS = {"assumptions", "edges", "colors", "labels"}
# fields where null is a well-typed value: an exhaustion's budget is null when
# the search had none
NULLABLE_FIELDS = {"budget"}
# well-typed values out of range at a typed site, which exit 2 with one line
# as a wrong type does: the pattern is P2, so k lies in 0..2, and a search's
# n lies in 0..N_CAP
RANGE_SITES = {("avoider", "params.k"): (-1, 99), ("exhaustion", "params.k"): (-1, 99),
               ("exhaustion", "params.n"): (-1, search.N_CAP + 1)}
# one edit per kind that alone fails its recheck (exit 1); a recheck reads and
# type-checks every field before its first check, so a bad value at a typed
# site still exits 2 beside it
SPOILERS = {
    "avoider": (("payload", "coloring", "graph_hash"), "0" * 16),
    "exhaustion": (("verdict",), "FAIL"),
    "k2s4": (("exhaustive",), False),
    "k6_rainbow_free": (("exhaustive",), False),
    "k6_universal": (("exhaustive",), True),
    "reduction": (("exhaustive",), False),
}


def _with(obj: dict, path: tuple[str, ...], value) -> dict:
    """A deep copy of obj with the field at path set to value."""
    obj = json.loads(json.dumps(obj))
    holder = obj
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return obj


def _field_paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


def test_certificate_field_type_sweep(capsys, tmp_path):
    certs = {}
    for i, argv in enumerate(SWEEP_RUNS):
        out_dir = tmp_path / str(i)
        assert main(["--cache-dir", str(out_dir), *argv]) == EXIT_OK
        for path in out_dir.glob("*.json"):
            cert = json.loads(path.read_text())
            certs[cert["kind"]] = cert
    capsys.readouterr()
    assert len(certs) == 6
    seen = set()
    target = tmp_path / "bad.json"
    for kind, cert in sorted(certs.items()):
        spoiled = _with(cert, *SPOILERS[kind])
        target.write_text(json.dumps(spoiled))
        assert run(capsys, "verify", "--recheck", str(target))[0] == EXIT_FAIL, kind
        for path in _field_paths(cert):
            site = (kind, ".".join(path))
            seen.add(site)
            for bad in (*BAD_VALUES, *RANGE_SITES.get(site, ())):
                target.write_text(json.dumps(_with(cert, path, bad)))
                code, _, err = run(capsys, "verify", "--recheck", str(target))
                assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE), (site, bad)
                if site in TYPED_SITES and not (bad == [] and path[-1] in LIST_FIELDS
                                                or bad is None and path[-1] in NULLABLE_FIELDS):
                    assert code == EXIT_USAGE, (site, bad)
                    assert len(err.strip().splitlines()) == 1, (site, bad, err)
                    target.write_text(json.dumps(_with(spoiled, path, bad)))
                    code, _, err = run(capsys, "verify", "--recheck", str(target))
                    assert code == EXIT_USAGE, (site, bad, "spoiled")
                    assert len(err.strip().splitlines()) == 1, (site, bad, err)
    assert TYPED_SITES <= seen


# payload fields of each re-run kind's SWEEP_RUNS certificate that a recheck
# must find edited: an integer gets 1 added, a list is zeroed
PAYLOAD_EDITS = {
    "k6_rainbow_free": (("embeddings_checked",), ("coloring", "colors")),
    "k6_universal": (("exhaustive_regime", "nodes_visited"),
                     ("sampled_regime", "samples_checked")),
    "k2s4": (("m",), ("coloring", "colors")),
    "reduction": (("embeddings_considered",),),
}


def _edited(obj: dict, path: tuple[str, ...]) -> dict:
    value = functools.reduce(dict.__getitem__, path, obj)
    return _with(obj, path, [0] * len(value) if isinstance(value, list) else value + 1)


@pytest.mark.parametrize("argv", SWEEP_RUNS[1:], ids=list(PAYLOAD_EDITS))
def test_rerun_certificate_rechecks_only_when_reproduced(capsys, tmp_path, argv):
    code, _, _ = run(capsys, "--cache-dir", str(tmp_path), *argv)
    assert code == EXIT_OK
    (path,) = tmp_path.glob("*.json")
    obj = json.loads(path.read_text())
    code, out, _ = run(capsys, "verify", "--recheck", str(path))
    assert code == EXIT_OK and out == f"recheck {obj['kind']}: OK (re-run verdict PASS)\n"
    tampered = [{**obj, "nodes_visited": obj["nodes_visited"] + 1000},
                {**obj, "exhaustive": not obj["exhaustive"]},
                *(_edited(obj, ("payload", *field))
                  for field in PAYLOAD_EDITS[obj["kind"]])]
    target = tmp_path / "tampered.json"
    for bad in tampered:
        target.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "verify", "--recheck", str(target))
        assert code == EXIT_FAIL and "FAILED" in out, bad


def test_edited_exhaustion_certificate_fails_recheck(capsys, tmp_path):
    # the recheck re-runs the search, so the claim itself (above_edges), its
    # counts and its budget must all be reproduced
    code, out, _ = run(capsys, "--format", "json", "--cache-dir", str(tmp_path),
                       "search", "--n", "6", "--pattern", "P3", "--rainbow")
    assert code == EXIT_OK and json.loads(out)["value"] == 7
    path = json.loads(out)["upper_exhaustion"]
    code, out, _ = run(capsys, "verify", "--recheck", path)
    assert code == EXIT_OK and "OK" in out
    obj = json.loads(open(path).read())
    assert obj["params"]["above_edges"] == 7 and obj["params"]["budget"] is None
    checked, nodes = obj["payload"]["graphs_checked"], obj["nodes_visited"]
    target = tmp_path / "tampered.json"
    for path, value in ((("params", "above_edges"), 8),
                        (("payload", "graphs_checked"), checked + 1),
                        (("payload", "graphs_checked"), checked - 1),
                        (("nodes_visited",), nodes + 1),
                        (("nodes_visited",), nodes - 1),
                        (("params", "budget"), 1),
                        (("params", "budget"), 5)):
        target.write_text(json.dumps(_with(obj, path, value)))
        code, out, _ = run(capsys, "verify", "--recheck", str(target))
        assert code == EXIT_FAIL and "FAILED" in out, (path, value)


@pytest.mark.parametrize("argv", SWEEP_RUNS, ids=["exhaustion", *PAYLOAD_EDITS])
def test_rerun_certificate_needs_its_node_count_and_exhaustive_flag(capsys, tmp_path, argv):
    # the re-run takes nodes_visited as its budget and is compared on
    # exhaustive, so neither field is filled in when the certificate lacks it
    assert main(["--cache-dir", str(tmp_path), *argv]) == EXIT_OK
    capsys.readouterr()
    (obj,) = [obj for obj in (json.loads(p.read_text()) for p in tmp_path.glob("*.json"))
              if obj["kind"] != "avoider"]
    target = tmp_path / "edited.cert"
    target.write_text(json.dumps({k: v for k, v in obj.items() if k != "nodes_visited"}))
    code, out, err = run(capsys, "verify", "--recheck", str(target))
    assert code == EXIT_USAGE and out == ""
    assert len(err.strip().splitlines()) == 1 and "'nodes_visited'" in err
    target.write_text(json.dumps({k: v for k, v in obj.items() if k != "exhaustive"}))
    code, out, _ = run(capsys, "verify", "--recheck", str(target))
    assert code == EXIT_FAIL and "certificate not reproduced" in out


def test_k6_universal_recheck_redraws_every_sample(capsys, tmp_path):
    # the recheck draws every sample the certificate records again and
    # compares the sampled regime like any other payload field; 50,001
    # samples, so a recheck that re-drew only the first 50,000 would miss the
    # forged split below
    code, _, _ = run(capsys, "--cache-dir", str(tmp_path),
                     "verify", "k6-universal-3unique", "--samples", "50001")
    assert code == EXIT_OK
    (path,) = tmp_path.glob("*.json")
    code, out, _ = run(capsys, "verify", "--recheck", str(path))
    assert code == EXIT_OK and out == "recheck k6_universal: OK (re-run verdict PASS)\n"
    # no sample of this stream is rainbow, so a split that still adds up to
    # the sample count is forged
    obj = json.loads(path.read_text())
    assert obj["payload"]["sampled_regime"] == {"samples_checked": 50001, "rainbow_skipped": 0}
    target = tmp_path / "tampered.cert"
    target.write_text(json.dumps(_with(obj, ("payload", "sampled_regime"),
                                       {"samples_checked": 50000, "rainbow_skipped": 1})))
    code, out, _ = run(capsys, "verify", "--recheck", str(target))
    assert code == EXIT_FAIL and "certificate not reproduced" in out
    # a wrong type in the sampled regime is a payload the re-run does not
    # reproduce (exit 1), shown on a 10-sample certificate to keep it cheap
    small = tmp_path / "small"
    assert run(capsys, "--cache-dir", str(small), "verify", "k6-universal-3unique",
               "--samples", "10")[0] == EXIT_OK
    (path,) = small.glob("*.json")
    obj = json.loads(path.read_text())
    for field in (("sampled_regime",), ("sampled_regime", "samples_checked"),
                  ("sampled_regime", "rainbow_skipped")):
        for value in BAD_VALUES:
            target.write_text(json.dumps(_with(obj, ("payload", *field), value)))
            code, out, _ = run(capsys, "verify", "--recheck", str(target))
            assert code == EXIT_FAIL and "certificate not reproduced" in out, (field, value)


def _subcommands(parser) -> dict:
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _flags(parser) -> list[str]:
    return sorted(opt for a in parser._actions for opt in a.option_strings)


SUBCOMMAND_FLAGS = {name: _flags(sp) for name, sp in _subcommands(build_parser()).items()}
CHECK_FLAGS = {name: _flags(sp)
               for name, sp in _subcommands(_subcommands(build_parser())["verify"]).items()}
FUZZ_WORDS = ["P3", "C4", "K4", "P20", "DS", "B", "CAT", "T", "1,0,2", "2,,1",
              "k6-rainbow-free", "k6-universal-3unique", "k2s4", "reduction",
              "junk", "", "-", "--", "x1", "1.5"]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_with_a_contract_code(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    flags = SUBCOMMAND_FLAGS[command]
    head = [command]
    if command == "verify":
        # a check's flags follow its name, from that check's parser; the
        # sampled K6 regime has no node budget, so keep it tiny
        check = data.draw(st.sampled_from(sorted(CHECK_FLAGS)))
        flags = CHECK_FLAGS[check]
        head += [check, "--samples", "3"] if check == "k6-universal-3unique" else [check]
    word = st.sampled_from(flags + FUZZ_WORDS) | st.integers(-2, 5).map(str)
    tokens = data.draw(st.lists(word, max_size=7))
    argv = ["--budget", data.draw(st.sampled_from(["0", "1", "10"])),
            "--cache-dir", str(tmp_path_factory.getbasetemp() / "fuzz"),
            *head, *tokens]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET), argv
    assert "Traceback" not in err.getvalue(), argv


# Runs in a fresh interpreter: imports rturan.cli, then runs cli.main on each
# argv of the JSON list in argv[1], with stdout discarded.  Prints, as JSON,
# the watched modules (the rest of argv) loaded after the import, the exit
# codes, and the watched modules loaded after the runs; each loaded module
# maps to the rturan module whose import pulled it in.
IMPORT_WATCH = """
import io, json, sys
from contextlib import redirect_stdout

runs, watched = json.loads(sys.argv[1]), sys.argv[2:]
blamed = {}

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name in watched and name not in blamed:
            frame = sys._getframe(1)
            while frame and not frame.f_globals.get("__name__", "").startswith("rturan"):
                frame = frame.f_back
            blamed[name] = frame.f_globals["__name__"] if frame else "?"
        return None

def loaded():
    return {name: blamed.get(name, "loaded before rturan")
            for name in watched if name in sys.modules}

sys.meta_path.insert(0, Watch())
import rturan.cli
at_import = loaded()
codes = []
for argv in runs:
    with redirect_stdout(io.StringIO()):
        codes.append(rturan.cli.main(argv))
print(json.dumps([at_import, codes, loaded()]))
"""

# fractions loads decimal and numbers with it
FRACTIONS = ("fractions", "decimal", "numbers")


def watch_imports(runs, *watched):
    """In a fresh process (pytest loads these modules itself): the watched
    modules that `import rturan.cli` loads, the exit codes of cli.main on
    each argv of runs, and the watched modules loaded after the runs, each
    mapped to the rturan module that imported it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_WATCH, json.dumps(runs),
                          *watched], capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def blame(loaded):
    return "imported by: " + ", ".join(f"{name} <- {importer}"
                                       for name, importer in loaded.items())


def test_cli_import_loads_no_heavy_modules(tmp_path):
    # dataclasses and inspect took about 13 ms of every launch, hashlib
    # with OpenSSL's _hashlib 3-4 ms, and fractions with decimal and
    # numbers 2-3 ms (2.1 GHz Xeon).  spectrum, search and verify compute
    # no bound, so their runs never load fractions either
    runs = [["--cache-dir", str(tmp_path / argv[0]), *argv] for argv in (
        ["spectrum", "P12"], ["search", "--n", "5", "--pattern", "P3", "--rainbow"],
        ["verify", "k2s4", "--s", "3"])]
    at_import, codes, after = watch_imports(runs, "dataclasses", "inspect",
                                            "hashlib", "_hashlib", *FRACTIONS)
    assert at_import == {}, blame(at_import)
    assert codes == [EXIT_OK] * len(runs)
    after = {name: who for name, who in after.items() if name in FRACTIONS}
    assert after == {}, blame(after)


def test_only_a_bound_computation_loads_fractions(tmp_path):
    _, codes, after = watch_imports([["--cache-dir", str(tmp_path), "bounds",
                                      "DS", "2", "2"]], "fractions")
    assert codes == [EXIT_OK]
    assert after == {"fractions": "rturan.bounds"}
