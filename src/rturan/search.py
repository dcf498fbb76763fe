"""Exact desk-scale computation of rainbow / k-unique Turan numbers, plus
every certified check: the K_6 and K_{2s+4} verifications, the
reduction-method check on an augmented tree, and certificate rechecks."""

from __future__ import annotations

import itertools
import json
from typing import Callable, Iterator, NamedTuple, Optional

from . import _kernels
from ._kernels.pure import Packed
from .bounds import AugmentedTree
from .certs import (BUDGET_EXHAUSTED, FAIL, PASS, Certificate)
from .coloring import (EdgeColoring, conflict_lists, graph_hash, is_proper,
                       one_factorization)
from .detect import find_k_unique
from .graphs import (Graph, canonical_key, enumerate_embeddings, is_int,
                     make_complete, make_double_star, twin_orbit_size)

RAINBOW = "rainbow"
# hosts with more labeled copies of the pattern are refused, not searched
MAX_COPIES = 100_000
# largest host order brute_extremal searches
N_CAP = 7
# largest s verify_k2s4_construction checks (K_28, DS_{1,25})
S_CAP = 12
# most samples verify_k6_universal_3unique draws, and so a recheck of its
# certificate: 100 times the default, about a minute on the compiled kernel
MAX_SAMPLES = 100_000_000


class AvoiderResult(NamedTuple):
    coloring: Optional[EdgeColoring]
    nodes_visited: int
    exhaustive: bool
    copies: Optional[int]  # labeled copies of the pattern in the host, if counted


def _resolve_k(f: Graph, k) -> int:
    if not f.num_edges:
        raise ValueError("the pattern must have at least one edge")
    if k == RAINBOW:
        return f.num_edges
    if not isinstance(k, int) or not 0 <= k <= f.num_edges:
        raise ValueError(f"bad k {k!r}: must be within 0..{f.num_edges}, "
                         "the pattern's edge count")
    return k


def copy_table(f: Graph, g: Graph) -> tuple[Graph, Packed, Packed]:
    """(g, its conflict lists, the copies of f in it), the two tables packed
    once for the kernels (_kernels.pack_rows).  The copies are the edge maps
    of enumerate_embeddings(f, g), one per orbit of twin-leaf swaps.  Raises
    ValueError when g holds more than MAX_COPIES labeled copies of f
    (orbits x twin_orbit_size(f)).  For g = K_n every graph on the n
    vertices is a subgraph, and its lexicographic edge order is K_n's
    restricted to its edges, so the avoider kernel searches it from K_n's
    tables and the K_n indices of its edges (pure.restrict); it holds at
    most as many copies as K_n, so the cap checked there holds for it."""
    per_orbit = twin_orbit_size(f)
    rows = [list(e.edge_map) for e in itertools.islice(
        enumerate_embeddings(f, g), MAX_COPIES // per_orbit + 1)]
    if len(rows) * per_orbit > MAX_COPIES:
        raise ValueError(f"host holds over {MAX_COPIES} labeled copies of the "
                         "pattern; too many to search")
    return g, _kernels.pack_rows(conflict_lists(g)), _kernels.pack_rows(rows)


def exists_avoiding_coloring(g: Graph, f: Graph, k,
                             budget: Optional[int] = None,
                             table: Optional[tuple] = None,
                             ) -> AvoiderResult:
    """Search for a proper coloring of g with no k-unique copy of f.

    Canonical coloring DFS; branches where a fully colored copy already
    satisfies k are cut.  Exhaustive unless the budget trips.  The kernel
    gets one copy per orbit of twin-leaf swaps (copy_table): the copies of
    an orbit cover one host edge set, so the cut at a copy's largest edge
    decides alike for each of them.  `copies` and the MAX_COPIES cap still
    count labeled copies, orbits x twin_orbit_size(f).  Raises ValueError
    when g holds more than MAX_COPIES labeled copies of f.
    `table`, when given, is copy_table(f, K_n) for g on n vertices: the
    kernel then keeps g's edges of it, no copy is enumerated, and copies
    is None (the table checked the cap).
    """
    kk = _resolve_k(f, k)
    host, conflicts, rows = table or copy_table(f, g)
    if table is None:
        keep, copies = None, rows.count * twin_orbit_size(f)
    else:
        keep, copies = list(map(host.edge_index.__getitem__, g.edges)), None
    colors, nodes, exhausted = _kernels.find_avoiding_coloring(
        host.num_edges, conflicts, rows, kk, False, g.num_edges, budget, keep)
    coloring = EdgeColoring(g, tuple(colors)) if colors is not None else None
    return AvoiderResult(coloring, nodes, exhausted, copies)


def _twin_ranks(g: Graph) -> tuple[list[int], list[int]]:
    """Each vertex's twin class, named by its smallest vertex, and the
    vertex's place in it.  Twins are as in canonical_key: N(u) - {v} ==
    N(v) - {u}.  A class is either independent (equal neighborhoods) or a
    clique (equal closed neighborhoods), and no vertex has twins of both
    kinds: with N(u) = N(v) and N[v] = N[w], w is in N(v) = N(u), so u is in
    N[w] = N[v], against uv absent."""
    cls = list(range(g.n))
    rank = [0] * g.n
    for closed in (False, True):
        groups: dict[frozenset, list[int]] = {}
        for v, nbrs in enumerate(g.adjacency):
            groups.setdefault(nbrs | {v} if closed else nbrs, []).append(v)
        for members in groups.values():
            for r, v in enumerate(members[1:], 1):
                cls[v], rank[v] = members[0], r
    return cls, rank


class _Candidate(NamedTuple):
    """An augmentation as canonical_key reads it, before any Graph is built."""
    n: int
    edges: tuple[tuple[int, int], ...]


def graphs_up_to_iso(n: int, prune: Optional[Callable[[Graph], bool]] = None,
                     ) -> Iterator[Graph]:
    """n-vertex graphs up to isomorphism, one per class, by edge count from 0
    upward, each edge count's in increasing canonical_key order.

    Level s + 1 is built from the classes of level s that `prune` keeps: it
    is consulted for each once the whole level has been yielded, and True
    drops the class.  Every absent edge is added to each class kept, and the
    first graph to reach each canonical_key is kept (McKay, *Isomorph-free
    exhaustive generation*, 1998), so the level holds every class with a kept
    subgraph one edge smaller.  Each augmentation is keyed as a bare
    (n, edges) record, and only the first one per key is built as a Graph.
    The stream stops at the first empty level.
    Swapping two twins of g (_twin_ranks) is an automorphism s of g, so g + e
    and g + s(e) are isomorphic: of each orbit of absent edges under the twin
    swaps only the first in edge order is added.  Across twin classes A and B
    that is (min A, min B); inside one class, its two smallest vertices.  The
    edges skipped would reach a key their orbit's first edge has set, so the
    stream is the same as without the skip.
    """
    all_edges = list(itertools.combinations(range(n), 2))
    level = [Graph(n, ())]
    while level:
        yield from level
        reps: dict[tuple, Graph] = {}
        for g in level:
            if prune is not None and prune(g):
                continue
            cls, rank = _twin_ranks(g)
            for e in all_edges:
                u, v = e
                # rank[v] is 1 inside u's class, 0 across classes
                if rank[u] or rank[v] != (cls[u] == cls[v]) or e in g.edge_index:
                    continue
                edges = tuple(sorted((*g.edges, e)))
                key = canonical_key(_Candidate(n, edges))
                if key not in reps:
                    reps[key] = Graph(n, edges)
        level = [reps[key] for key in sorted(reps)]


def brute_extremal(n: int, f: Graph, k, budget: Optional[int] = None) -> dict:
    """Exact ex_k(n, f): the most edges of an n-vertex graph with a proper
    coloring that has no k-unique copy of f (k = 0 accepts any copy, so
    ex_0(n, f) is the classical ex(n, f)).

    Such graphs form a down-set: restrict the coloring to a subgraph.  So K_n
    is tested first, and when it avoids, the value is binom(n, 2).  Otherwise
    graphs_up_to_iso(n) walks upward, pruning each class whose search neither
    finds an avoider nor trips the budget.  Its first empty level has only
    bad graphs: the exhaustion certificate's claim.  Every class is searched
    from one copy_table(f, K_n), which refuses more than MAX_COPIES labeled
    copies in K_n before any search.  The budget bounds each class's search
    on its own, and nodes_visited sums them.  When the top level kept has no
    avoider, returns a bracket {lower, upper} instead of a value.
    """
    if not 0 <= n <= N_CAP:
        raise ValueError(f"n={n} outside the brute-force range 0..{N_CAP}")
    kk = _resolve_k(f, k)
    table = copy_table(f, Graph(n, tuple(itertools.combinations(range(n), 2))))
    searched: dict[Graph, AvoiderResult] = {}  # each class checked, once

    def search(g: Graph) -> AvoiderResult:
        if g not in searched:
            searched[g] = exists_avoiding_coloring(g, f, kk, budget, table)
        return searched[g]

    complete = table[0]
    top = complete.num_edges  # edge count of the highest class kept
    if search(complete).coloring is None:
        bad: set[Graph] = set()
        for g in graphs_up_to_iso(n, prune=bad.__contains__):
            res = search(g)
            if res.coloring is None and res.exhaustive:
                bad.add(g)
            else:
                top = g.num_edges
    # the first class found to avoid on the highest level that has one
    g = max((g for g, res in searched.items() if res.coloring is not None),
            key=lambda g: g.num_edges)
    m, res = g.num_edges, searched[g]
    lower = Certificate(
        "avoider", PASS, {"n": n, "m": m, "pattern": f.to_json(), "k": kk},
        payload={"graph": g.to_json(), "coloring": res.coloring.to_json()},
        nodes_visited=res.nodes_visited)
    if m < top:
        return {"value": None, "lower": m, "upper": top,
                "lower_witness": lower, "upper_exhaustion": None}
    upper = Certificate(
        "exhaustion", PASS,
        {"n": n, "pattern": f.to_json(), "k": kk, "above_edges": m, "budget": budget},
        payload={"graphs_checked": len(searched)},
        nodes_visited=sum(res.nodes_visited for res in searched.values()))
    return {"value": m, "lower_witness": lower, "upper_exhaustion": upper}


def verify_k6_rainbow_free() -> Certificate:
    """All DS_{2,2} embeddings of K_6 under the circle-method 1-factorization:
    none is rainbow.  One embedding per twin-leaf orbit is checked (180 of
    them), and embeddings_checked counts the labeled ones, 180 x 4 = 720.
    A FAIL's rainbow_embedding_rows index the orbit rows."""
    pattern = make_double_star(2, 2)
    _, _, emb = copy_table(pattern, make_complete(6))
    coloring = one_factorization(3)
    counts = _kernels.unique_counts(list(coloring.colors), emb)
    rainbow = [i for i, c in enumerate(counts) if c == pattern.num_edges]
    params = {"host": "K6", "pattern": "DS_2_2", "coloring": "one_factorization(3)"}
    if rainbow:
        return Certificate("k6_rainbow_free", FAIL, params,
                           payload={"rainbow_embedding_rows": rainbow,
                                    "coloring": coloring.to_json()})
    return Certificate("k6_rainbow_free", PASS, params,
                       payload={"embeddings_checked":
                                    emb.count * twin_orbit_size(pattern),
                                "coloring": coloring.to_json()})


def verify_k6_universal_3unique(budget: Optional[int] = None,
                                color_cap: int = 7,
                                sample_count: int = 1_000_000,
                                seed: int = 20240901) -> Certificate:
    """Every proper non-rainbow coloring of K_6 contains an exactly-3-unique
    DS_{2,2}: exhaustive over canonical colorings with <= color_cap colors,
    then sample_count draws from the one xorshift64* stream seeded by seed.
    A sampled counterexample's sample_index is its position in that stream.
    At a color_cap of 14 or more the exhaustive regime covers every coloring
    the claim does, and a PASS is a proof (exhaustive); below that it is a
    verification."""
    if color_cap < 1:
        raise ValueError(f"color_cap must be >= 1, got {color_cap}")
    if not 0 <= sample_count <= MAX_SAMPLES:
        raise ValueError(f"sample_count must be within 0..{MAX_SAMPLES}, "
                         f"got {sample_count}")
    host, conflicts, emb = copy_table(make_double_star(2, 2), make_complete(6))
    params = {"color_cap": color_cap, "sample_count": sample_count, "seed": seed}
    # the claim excludes the rainbow coloring, the only canonical one with 15
    # colors, so a cap of 14 walks every coloring the claim covers (105 nodes)
    full_cap = host.num_edges - 1
    colors, nodes, exhausted = _kernels.find_avoiding_coloring(
        host.num_edges, conflicts, emb, 3, True, min(color_cap, full_cap), budget)
    if colors is not None:
        return Certificate("k6_universal", FAIL, params,
                           payload={"counterexample_coloring": colors,
                                    "regime": "exhaustive"},
                           nodes_visited=nodes, seed=seed)
    if not exhausted:
        return Certificate("k6_universal", BUDGET_EXHAUSTED, params,
                           nodes_visited=nodes, exhaustive=False, seed=seed)

    res = _kernels.sample_and_check(host.num_edges, conflicts, emb, 3, True,
                                    sample_count, seed, True)
    if res["counterexample"] is not None:
        return Certificate("k6_universal", FAIL, params,
                           payload={"counterexample_coloring": res["counterexample"],
                                    "regime": "sampled",
                                    "sample_index": res["sample_index"]},
                           seed=seed, exhaustive=False)
    return Certificate(
        "k6_universal", PASS, params,
        payload={"exhaustive_regime": {"color_cap": color_cap,
                                       "nodes_visited": nodes},
                 "sampled_regime": {"samples_checked": res["checked"],
                                    "rainbow_skipped": res["rainbow_skipped"]}},
        nodes_visited=nodes, seed=seed, exhaustive=color_cap >= full_cap)


def verify_k2s4_construction(s: int) -> Certificate:
    """1-factorized K_{2s+4} avoids a rainbow DS_{1,2s+1}."""
    if not (0 <= s <= S_CAP):
        raise ValueError(f"s must be within 0..{S_CAP}")
    coloring = one_factorization(s + 2)
    pattern = make_double_star(1, 2 * s + 1)
    params = {"s": s, "host": f"K{2 * s + 4}"}
    hit = find_k_unique(coloring, pattern, pattern.num_edges)
    if hit is not None:
        return Certificate("k2s4", FAIL, params,
                           payload={"rainbow_witness": hit.to_json(),
                                    "coloring": coloring.to_json()})
    return Certificate("k2s4", PASS, params,
                       payload={"coloring": coloring.to_json(),
                                "rotation_scheme": "circle-method",
                                "m": s + 2})


def verify_reduction(original: Graph, augmented: AugmentedTree | Graph, k: int,
                     budget: Optional[int] = None) -> Certificate:
    """Exhaustively check that every proper coloring of the augmented graph
    contains a k-unique copy of the original."""
    if isinstance(augmented, AugmentedTree):
        augmented.validate()
        augmented = augmented.augmented
    params = {"original": original.to_json(), "augmented": augmented.to_json(), "k": k}
    res = exists_avoiding_coloring(augmented, original, k, budget=budget)
    if not res.copies:
        return Certificate("reduction", FAIL, params,
                           payload={"reason": "no copy of the original at all"})
    if res.coloring is not None:
        return Certificate("reduction", FAIL, params,
                           payload={"counterexample_coloring": list(res.coloring.colors)},
                           nodes_visited=res.nodes_visited)
    if not res.exhaustive:
        return Certificate("reduction", BUDGET_EXHAUSTED, params,
                           nodes_visited=res.nodes_visited, exhaustive=False)
    return Certificate("reduction", PASS, params, nodes_visited=res.nodes_visited,
                       payload={"embeddings_considered": res.copies})


def revalidate_avoider(cert: Certificate) -> tuple[bool, str]:
    g = Graph.from_json(cert.payload["graph"])
    f = Graph.from_json(cert.params["pattern"])
    coloring = cert.payload["coloring"]
    if not isinstance(coloring, dict):
        raise ValueError(f"avoider certificate field 'coloring' is not an "
                         f"object: {coloring!r}")
    colors = _int_list(cert, coloring.get("colors"), "colors")
    n, m, k = (_int_param(cert, name) for name in ("n", "m", "k"))
    # brute_extremal writes n <= N_CAP, which bounds the copy stream at N_CAP!
    if not 0 <= n <= N_CAP:
        raise ValueError(f"avoider certificate field 'n' is {n}, outside the "
                         f"brute-force range 0..{N_CAP}")
    k = _resolve_k(f, k)
    if not is_proper(g, colors):  # first, as it raises on a wrong length
        return False, "stored coloring is not proper"
    if cert.verdict != PASS or (n, m) != (g.n, g.num_edges):
        return False, "verdict, n or m does not match the stored graph"
    if coloring.get("graph_hash") != graph_hash(g):
        return False, "coloring hash does not match the stored graph"
    if find_k_unique(EdgeColoring(g, tuple(colors)), f, k) is not None:
        return False, "stored coloring contains a k-unique copy"
    return True, "avoider re-validated"


def recheck_certificate(cert: Certificate) -> tuple[bool, str]:
    """Re-validate a certificate from its serialized form.  Raises ValueError
    naming the field when the certificate lacks one that its kind needs, or
    when an integer field it reads holds something else."""
    try:
        return _recheck(cert)
    except KeyError as exc:
        raise ValueError(f"{cert.kind} certificate has no {exc.args[0]!r} field") from None


def _int_param(cert: Certificate, name: str, fields: Optional[dict] = None) -> int:
    # fields defaults to cert.params; vars(cert) reads a top-level field
    value = (cert.params if fields is None else fields)[name]
    if not is_int(value):
        raise ValueError(f"{cert.kind} certificate field {name!r} is not an "
                         f"integer: {value!r}")
    return value


def _int_list(cert: Certificate, value, name: str) -> list[int]:
    if not (isinstance(value, list) and all(map(is_int, value))):
        raise ValueError(f"{cert.kind} certificate needs a list of integer "
                         f"{name!r}, got {value!r}")
    return value


def _recheck(cert: Certificate) -> tuple[bool, str]:
    # Every kind is rechecked in one order, so the exit code for a wrong-typed
    # field does not depend on which other fields were edited:
    # 1. read and type-check every field the recheck uses (ValueError, exit 2);
    # 2. run every check that needs no search (a failed one returns False);
    # 3. run at most one search, then make one comparison.
    if cert.kind == "avoider":
        return revalidate_avoider(cert)
    if cert.kind == "k6_universal" and cert.verdict == FAIL:
        colors = _int_list(cert, cert.payload["counterexample_coloring"],
                           "counterexample_coloring")
        host, _, emb = copy_table(make_double_star(2, 2), make_complete(6))
        if not is_proper(host, colors):
            return False, "counterexample is not proper"
        if len(set(colors)) == host.num_edges:
            return False, "counterexample is rainbow, which the claim excludes"
        ok = all(c != 3 for c in _kernels.unique_counts(colors, emb))
        return ok, "counterexample re-validated" if ok else \
            "stored coloring does contain an exactly-3-unique copy"
    # every other kind is re-run with the recorded node count as its budget
    # (an exhaustion with its recorded per-class budget), so the re-run
    # repeats the recorded search, budget trip included.  No search writes a
    # negative count, and to the kernels a negative budget means no limit
    budget = _int_param(cert, "nodes_visited", vars(cert))
    if budget < 0:
        raise ValueError(f"{cert.kind} certificate field 'nodes_visited' is "
                         f"negative: {budget}")
    if cert.kind == "exhaustion":
        _int_param(cert, "graphs_checked", cert.payload)
        per_class = None if cert.params["budget"] is None else _int_param(cert, "budget")
        out = brute_extremal(_int_param(cert, "n"), Graph.from_json(cert.params["pattern"]),
                             _int_param(cert, "k"), per_class)
        # a re-run that ends in a bracket has no exhaustion to compare
        fresh = out["upper_exhaustion"] or Certificate(cert.kind, BUDGET_EXHAUSTED, {})
    elif cert.kind == "k6_rainbow_free":
        fresh = verify_k6_rainbow_free()
    elif cert.kind == "k2s4":
        fresh = verify_k2s4_construction(_int_param(cert, "s"))
    elif cert.kind == "reduction":
        original = Graph.from_json(cert.params["original"])
        host = Graph.from_json(cert.params["augmented"])
        fresh = verify_reduction(original, host, _int_param(cert, "k"), budget)
    elif cert.kind == "k6_universal":
        # every sample the certificate records is drawn again
        color_cap, sample_count, seed = (
            _int_param(cert, name) for name in ("color_cap", "sample_count", "seed"))
        fresh = verify_k6_universal_3unique(budget=budget, color_cap=color_cap,
                                            sample_count=sample_count, seed=seed)
    else:
        return False, f"unknown certificate kind {cert.kind!r}"
    # it passes only when it reproduces these fields, compared as JSON text
    # (so 1.0 and true are not 1): the params the re-run records and the rest
    stored, rerun = (json.dumps([c.verdict, c.nodes_visited, c.exhaustive,
                                 {k: c.params.get(k) for k in fresh.params}, c.payload],
                                sort_keys=True) for c in (cert, fresh))
    detail = f"re-run verdict {fresh.verdict}"
    if stored != rerun:
        return False, f"{detail}, certificate not reproduced"
    return True, detail
