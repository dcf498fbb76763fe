"""Rainbow / k-unique copy detection in colored hosts.

Unique counting is scoped to the embedded copy: an edge counts when its host
color appears exactly once among the copy's edges, regardless of colors used
elsewhere in the host.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .coloring import EdgeColoring, unique_color_count
from .graphs import Embedding, Graph, enumerate_embeddings


class UniquenessReport(NamedTuple):
    embedding: Embedding
    unique_count: int
    color_multiset: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "vertex_map": list(self.embedding.vertex_map),
            "edge_colors": list(self.color_multiset),
            "unique_count": self.unique_count,
        }


def report_for(c: EdgeColoring, e: Embedding) -> UniquenessReport:
    colors = tuple(c.colors[i] for i in e.edge_map)
    return UniquenessReport(e, unique_color_count(colors), colors)


def find_k_unique(c: EdgeColoring, pattern: Graph,
                  k: int) -> Optional[UniquenessReport]:
    """First embedding of pattern in c.graph whose unique count is >= k, in
    the deterministic order of enumerate_embeddings: a plain filter over
    that stream.

    enumerate_embeddings yields only one embedding per orbit of twin-leaf
    swaps, yet the report is the same as a filter over every labeled
    embedding would return:
    - the accept test reads only the copy's color multiset, which swapping
      the images of two twin leaves leaves unchanged;
    - the labeled stream is lexicographic in the images (candidates are
      tried in ascending order), so had the first accepted embedding a twin
      pair in decreasing order, swapping the pair would give an accepted
      embedding that comes earlier.
    So the first labeled hit already has increasing images on every twin
    class, and it is the first hit of the quotient search.
    """
    colors = c.colors
    for e in enumerate_embeddings(pattern, c.graph):
        if unique_color_count([colors[i] for i in e.edge_map]) >= k:
            return report_for(c, e)
    return None
