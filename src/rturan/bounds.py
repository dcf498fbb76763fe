"""Bound evaluators and the reduction-method augmented-tree constructors.

Every coefficient is an exact Fraction c, read as a bound of c*n edges.  The
`fractions` module (which loads `decimal` and `numbers`) is imported only when
a coefficient is built, so CLI runs that compute no bound never load it.  All
upper bounds obtained through the tree Turan bound carry an assumption flag:
`erdos_sos_conjecture` in general, `mclennan_diam4` when the augmented tree
has diameter at most 4 (where the conjecture is proven).

The displayed caterpillar and perfect-binary formulas conflict with their own
constructions in places; both a `literal` and a `constructive` evaluator are
exposed and disagreements are flagged, never silently reconciled.
"""

from __future__ import annotations

from math import prod
from typing import TYPE_CHECKING, Optional, Sequence

from .graphs import (DEFAULT_VERTEX_CAP, MAX_VERTICES, Embedding, Graph,
                     GraphError, Record, diameter, graph_from_edges,
                     make_caterpillar, make_double_star, make_perfect_kary)

if TYPE_CHECKING:
    from fractions import Fraction

ERDOS_SOS = "erdos_sos_conjecture"
MCLENNAN = "mclennan_diam4"
EMPTY_SUM_NOTE = "literal empty products over i=4..j-2 evaluated as 1"
# vertex caps of the augmented trees; an augmenter refuses a level that
# would grow its tree past the cap before building it.  A k-ary tree's and a
# double star's cap is graphs.MAX_VERTICES, the most vertices rturan builds
CATERPILLAR_CAP = 4 * DEFAULT_VERTEX_CAP


def _half(num: int) -> Fraction:
    """The exact coefficient num/2; every coefficient here is an integer over 2."""
    from fractions import Fraction  # loads decimal; only bound computations pay for it
    return Fraction(num, 2)


class BoundReport(Record):
    _fields = ("family", "params", "coefficient", "assumptions", "notes",
               "construction_log")

    def __init__(self, family: str, params: dict, coefficient: Fraction,
                 assumptions: tuple[str, ...] = (), notes: tuple[str, ...] = (),
                 construction_log: Optional[tuple] = None):
        if coefficient < 0:
            raise ValueError("bound coefficients are nonnegative")
        self.family = family
        self.params = params
        self.coefficient = coefficient
        self.assumptions = assumptions
        self.notes = notes
        self.construction_log = construction_log

    def to_json(self) -> dict:
        out = {
            "schema": 1,
            "family": self.family,
            "params": self.params,
            "coefficient": {"num": self.coefficient.numerator,
                            "den": self.coefficient.denominator},
            "assumptions": list(self.assumptions),
            "notes": list(self.notes),
        }
        if self.construction_log is not None:
            out["construction_log"] = [list(step) for step in self.construction_log]
        return out


class AugmentedTree(Record):
    _fields = ("original", "augmented", "construction_log", "embedding", "k")

    def __init__(self, original: Graph, augmented: Graph,
                 construction_log: tuple[tuple[str, int], ...],
                 embedding: Embedding, k: int):
        self.original = original
        self.augmented = augmented
        self.construction_log = construction_log  # (step description, edges added)
        self.embedding = embedding
        self.k = k  # the lemma's claim: every proper coloring holds a k-unique original

    @property
    def edge_count(self) -> int:
        return self.augmented.num_edges

    def validate(self):
        """Re-check the stored witness that original sits inside augmented."""
        Embedding.from_vertex_map(self.original, self.augmented,
                                  self.embedding.vertex_map)


def tree_assumption(tree: Graph) -> str:
    d = diameter(tree)
    return MCLENNAN if d is not None and d <= 4 else ERDOS_SOS


def erdos_sos_coefficient(t: int) -> Fraction:
    """Tree Turan coefficient (t-1)/2 for a tree with t edges."""
    if t < 1:
        raise ValueError("a tree has at least one edge here")
    return _half(t - 1)


def reduction_bound(family: str, params: dict, tree: Graph,
                    **report_fields) -> BoundReport:
    """The reduction-method upper bound: if every proper coloring of tree T'
    holds a k-unique copy of T, ex_k(n, T) <= ex(n, T') <= (||T'|| - 1)n/2,
    the last step by Erdos-Sos, flagged by tree_assumption(T')."""
    return BoundReport(family, params, erdos_sos_coefficient(tree.num_edges),
                       assumptions=(tree_assumption(tree),), **report_fields)


def ds_k_unique_bounds(r: int, s: int, l: int) -> dict:
    """Bounds on the (j+2l)-unique Turan number of DS_{r,s}, j = s-r+1."""
    aug = augment_double_star(r, s, l)
    params = {"r": r, "s": s, "l": l}
    return {
        "k": aug.k,
        "lower": BoundReport("ds_k_unique_lower", params,
                             _half(max(s + l - 1, 0))),
        "upper": reduction_bound("ds_k_unique_upper", params, aug.augmented),
    }


def ds_rainbow_bounds(r: int, s: int) -> tuple[BoundReport, BoundReport]:
    """(s+r-1)/2 <= ex*(n, DS_{r,s})/n <= (s+2r)/2, via T' = DS_{r,s+r}."""
    if r > s:
        r, s = s, r
    aug = make_double_star(r, s + r, cap=MAX_VERTICES)
    lower = BoundReport("ds_rainbow_lower", {"r": r, "s": s},
                        _half(max(s + r - 1, 0)))
    return lower, reduction_bound("ds_rainbow_upper", {"r": r, "s": s}, aug)


def ds22_bounds() -> tuple[BoundReport, BoundReport]:
    """5/2 <= ex*(n, DS_{2,2})/n <= 3; the lower bound comes from the K_6
    1-factorization and strictly improves the generic 3/2."""
    lower = BoundReport("ds22_lower", {}, _half(5),
                        notes=("witness: 1-factorized K_6 blowup",))
    return lower, ds_rainbow_bounds(2, 2)[1]


def ds_1_odd_exact(s: int) -> BoundReport:
    """ex*(n, DS_{1,2s+1}) = (2s+3)n/2 + o(1), read off T' = DS_{1,2s+2}."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    return reduction_bound("ds12s1_exact", {"s": s},
                           make_double_star(1, 2 * s + 2, cap=MAX_VERTICES),
                           notes=("matching upper and lower bounds; o(1) term symbolic",))


def augment_double_star(r: int, s: int, l: int) -> AugmentedTree:
    """DS_{r,s} -> DS_{r,s+l}: l extra pendants at x."""
    if not (0 <= l <= r <= s):
        raise ValueError("need 0 <= l <= r <= s")
    original = make_double_star(r, s, cap=MAX_VERTICES)
    augmented = make_double_star(r, s + l, cap=MAX_VERTICES)
    # original vertices: y, x, y-pendants, then x-pendants; same prefix order
    emb = Embedding.from_vertex_map(original, augmented, range(original.n))
    log = ((f"append {l} pendants at x", l),)
    return AugmentedTree(original, augmented, log, emb, s - r + 1 + 2 * l)


def _check_growth(n: int, cap: int):
    if n > cap:
        raise GraphError(f"augmented tree needs {n} vertices, cap {cap}")


def _hang(edges: list[tuple[int, int]], parent: int, count: int,
          nxt: int) -> range:
    """Join the new vertices nxt, ..., nxt + count - 1 to parent."""
    kids = range(nxt, nxt + count)
    edges.extend((parent, v) for v in kids)
    return kids


def augment_caterpillar(c: Sequence[int]) -> AugmentedTree:
    """Constructive augmentation of the caterpillar C_{c_1..c_k} (k >= 3).

    Base (k=3): pendant counts (c1+1, c1+c2, c1+c2+c3+2), 3c1+2c2+c3+5 edges.
    For j >= 4 every eligible parent gets sum(c_1..c_{j-2})+2 branch edges and
    each branch endpoint gets L_j = (j-1) + sum(c_1..c_j) pendants.
    """
    c = list(c)
    k = len(c)
    if k < 3:
        raise ValueError("the construction starts at spine length 3")
    if any(x < 0 for x in c):
        raise ValueError("pendant counts must be nonnegative")
    original = make_caterpillar(c, cap=CATERPILLAR_CAP)

    edges: list[tuple[int, int]] = [(0, 1), (1, 2)]
    nxt = 3
    log: list[tuple[str, int]] = []
    c1, c2, c3 = c[:3]
    # base pendant counts; the x3 count carries one more pendant than the
    # prose narrative so the total matches the stated 3c1+2c2+c3+5 edges
    base = (c1 + 1, c1 + c2, c1 + c2 + c3 + 2)
    _check_growth(nxt + sum(base), CATERPILLAR_CAP)
    pend: dict[int, range] = {}
    for spine_v, cnt in zip((0, 1, 2), base):
        pend[spine_v] = _hang(edges, spine_v, cnt, nxt)
        nxt += cnt
        log.append((f"x_{spine_v + 1}: {cnt} pendants", cnt))
    parents = [2]
    branch_child: dict[int, range] = {}
    for j in range(4, k + 1):
        bj = sum(c[:j - 2]) + 2
        lj = (j - 1) + sum(c[:j])
        _check_growth(nxt + len(parents) * bj * (1 + lj), CATERPILLAR_CAP)
        new_parents = []
        start = nxt
        for p in parents:
            branch_child[p] = _hang(edges, p, bj, nxt)
            nxt += bj
            new_parents.extend(branch_child[p])
            for child in branch_child[p]:
                pend[child] = _hang(edges, child, lj, nxt)
                nxt += lj
        log.append((f"level {j}: {bj} branches per parent, "
                    f"{lj} pendants per branch", nxt - start))
        parents = new_parents
    augmented = graph_from_edges(nxt, edges)

    # witness embedding: spine down the first branch chain, pendants in order
    vmap = []
    chain = [0, 1, 2]
    node = 2
    for j in range(4, k + 1):
        node = branch_child[node][0]
        chain.append(node)
    vmap.extend(chain)
    for i in range(k):
        vmap.extend(pend[chain[i]][:c[i]])
    emb = Embedding.from_vertex_map(original, augmented, vmap)
    return AugmentedTree(original, augmented, tuple(log), emb, original.num_edges)


def caterpillar_coefficient_literal(c: Sequence[int]) -> BoundReport:
    """The displayed caterpillar bound, taken at face value.

    P_3 = 1 and the empty branching products for j <= 5 evaluate to 1 (a zero
    value would push the bound below the k=3 base case)."""
    c = list(c)
    k = len(c)
    if k < 3:
        raise ValueError("the formula starts at spine length 3")
    c1, c2, c3 = c[0], c[1], c[2]
    total = 0
    pj = 1
    for j in range(3, k + 1):
        if j >= 4:
            factor = sum(ci + 1 for ci in c[3:j - 2])  # c_i for i = 4..j-2, 1-based
            pj = pj * (factor if factor > 0 else 1)
        lj = (j - 1) + sum(c[:j])
        total += pj * (lj + 1)
    coeff = _half(3 * c1 + 2 * c2 + c3 + 3 + total)
    return BoundReport("caterpillar_upper_literal", {"c": c}, coeff,
                       assumptions=(ERDOS_SOS,), notes=(EMPTY_SUM_NOTE,))


def caterpillar_bounds(c: Sequence[int]) -> dict:
    """Literal and constructive caterpillar upper bounds, side by side."""
    aug = augment_caterpillar(c)
    constructive = reduction_bound("caterpillar_upper_constructive", {"c": list(c)},
                                   aug.augmented, construction_log=aug.construction_log)
    literal = caterpillar_coefficient_literal(c)
    return {
        "literal": literal,
        "constructive": constructive,
        "augmented_edges": aug.edge_count,
        "discrepancy": literal.coefficient != constructive.coefficient,
    }


def _kary_leaf_factor(k: int, i: int) -> int:
    return k ** i + (k ** i - 1) // (k - 1) - 2


def augment_kary(k: int, d: int) -> AugmentedTree:
    """Constructive T'(k,d): k spine edges at the root, then every vertex at
    depth j-1 gets k^j + (k^j-1)/(k-1) - 2 children, cascading to depth d."""
    if k < 2 or d < 2:
        raise ValueError("need arity >= 2 and depth >= 2")
    original = make_perfect_kary(k, d, cap=MAX_VERTICES)
    edges: list[tuple[int, int]] = []
    children: dict[int, range] = {0: _hang(edges, 0, k, 1)}
    nxt = 1 + k
    level = list(children[0])
    log: list[tuple[str, int]] = [(f"root: {k} branch edges", k)]
    for j in range(2, d + 1):
        bj = _kary_leaf_factor(k, j)
        _check_growth(nxt + len(level) * bj, MAX_VERTICES)
        new_level = []
        start = nxt
        for p in level:
            children[p] = _hang(edges, p, bj, nxt)
            nxt += bj
            new_level.extend(children[p])
        log.append((f"depth {j}: {bj} children per parent", nxt - start))
        level = new_level
    augmented = graph_from_edges(nxt, edges)

    # witness: map T(k,d) level-wise onto the first k children of each image
    images = {0: 0}
    for i in range(1, d + 1):
        start = (k ** i - 1) // (k - 1)
        parent_start = (k ** (i - 1) - 1) // (k - 1)
        for j in range(k ** i):
            v = start + j
            parent = parent_start + j // k
            images[v] = children[images[parent]][j % k]
    vmap = [images[v] for v in range(original.n)]
    emb = Embedding.from_vertex_map(original, augmented, vmap)
    return AugmentedTree(original, augmented, tuple(log), emb, original.num_edges)


def augment_binary(d: int) -> AugmentedTree:
    """T'(2,d) per the construction: 2^{j+1}-3 children per depth-(j-1) vertex."""
    return augment_kary(2, d)


def binary_coefficients(d: int) -> dict:
    """Three readings of the perfect-binary upper bound.

    literal: the displayed formula with its (2^i - 3) product factor.
    proof_form: the closed form 2(2^{d+1}-3)/2 stated for d=2.
    constructive: (edge count of the constructed T'(2,d) - 1)/2.
    The three disagree; reports carry all of them and flag it.
    """
    if d < 2:
        raise ValueError("need depth >= 2")
    literal = _half(
        sum(2 * prod(2 ** i - 3 for i in range(2, j + 1)) for j in range(2, d + 1)) + 1)
    proof_form = _half(2 * (2 ** (d + 1) - 3))
    aug = augment_binary(d)
    constructive = reduction_bound("binary_upper_constructive", {"d": d},
                                   aug.augmented, construction_log=aug.construction_log)
    reports = {
        "literal": BoundReport("binary_upper_literal", {"d": d}, literal,
                               assumptions=(ERDOS_SOS,)),
        "proof_form": BoundReport("binary_upper_proof_form", {"d": d}, proof_form,
                                  assumptions=(ERDOS_SOS,)),
        "constructive": constructive,
    }
    reports["discrepancy"] = len({literal, proof_form, constructive.coefficient}) > 1
    reports["augmented_edges"] = aug.edge_count
    return reports


def kary_coefficients(k: int, d: int) -> dict:
    """Literal and constructive k-ary upper bounds; at k=2 the literal factor
    is 2^{i+1}-3, matching the binary construction rather than the binary
    displayed formula."""
    if k < 2 or d < 2:
        raise ValueError("need arity >= 2 and depth >= 2")
    literal = _half(
        k - 1 + sum(k * prod(_kary_leaf_factor(k, i) for i in range(2, j + 1))
                    for j in range(2, d + 1)))
    aug = augment_kary(k, d)
    constructive = reduction_bound("kary_upper_constructive", {"k": k, "d": d},
                                   aug.augmented, construction_log=aug.construction_log)
    return {
        "literal": BoundReport("kary_upper_literal", {"k": k, "d": d}, literal,
                               assumptions=(ERDOS_SOS,)),
        "constructive": constructive,
        "augmented_edges": aug.edge_count,
        "discrepancy": literal != constructive.coefficient,
    }
