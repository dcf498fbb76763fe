"""Front end of the compiled kernels in native.c, which builds as the
extension module _native.

Same contracts and bit-identical results as pure.py, the reference: each
call passes its inputs to pure's checks (check_tables, check_rows,
check_keep, check_vertex_count), which refuse malformed ones and return the
tables packed, then makes one call into native.c, whose glue reads the
packed tables, the ints and the sequences it is given and builds the result.
Importing raises ImportError until the module is built with
``python setup.py build_ext --inplace``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import _native
from .pure import (Rows, XorShift64Star, canonicalize, check_keep, check_rows,
                   check_tables, check_vertex_count, endpoint_error)

BACKEND = "c"


def find_avoiding_coloring(num_edges: int, conflicts: Rows, emb_edges: Rows,
                           k: int, exactly: bool, max_colors: int,
                           budget: Optional[int] = None,
                           keep: Optional[Sequence[int]] = None,
                           ) -> tuple[Optional[list[int]], int, bool]:
    """See pure.find_avoiding_coloring."""
    conf, emb = check_tables(num_edges, conflicts, emb_edges, False)
    if keep is not None:
        check_keep(num_edges, keep)
    return _native.find_avoiding(conf.off, conf.idx, emb.off, emb.idx, keep, k,
                                 exactly, max_colors, budget)


def unique_counts(colors: Sequence[int], emb_edges: Rows) -> list[int]:
    """See pure.unique_counts."""
    emb = check_rows(emb_edges, len(colors))
    # relabeled 0, 1, ... in order of first use, so any colors fit a C int
    return _native.unique_counts(canonicalize(colors), emb.off, emb.idx)


def sample_and_check(num_edges: int, conflicts: Rows, emb_edges: Rows,
                     k: int, exactly: bool,
                     num_samples: int, seed: int,
                     skip_rainbow: bool = True) -> dict:
    """See pure.sample_and_check; any Python int seeds the same stream."""
    conf, emb = check_tables(num_edges, conflicts, emb_edges, True)
    checked, skipped, colors, index = _native.sample_and_check(
        conf.off, conf.idx, emb.off, emb.idx, k, exactly, num_samples,
        XorShift64Star(seed).state, skip_rainbow)
    return {"checked": checked, "rainbow_skipped": skipped,
            "counterexample": colors, "sample_index": index}


def canonical_key(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """See pure.canonical_key."""
    check_vertex_count(n)
    key = _native.canonical_key(n, edges)
    if key is None:
        raise endpoint_error(n)
    return key
