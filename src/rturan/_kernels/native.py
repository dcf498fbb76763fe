"""ctypes front end of the compiled kernels in native.c.

Same contracts and bit-identical results as pure.py, the reference: each
call passes its inputs to pure's checks (check_tables, check_rows,
check_keep, check_vertex_count), which refuse malformed ones and return the
tables packed, then hands their flat C int arrays to the same search in C.
This file only marshals.  Importing raises ImportError until the library is
built with ``python setup.py build_ext --inplace``.
"""

from __future__ import annotations

import ctypes
import struct
from importlib.machinery import EXTENSION_SUFFIXES
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

from .pure import (Rows, XorShift64Star, canonicalize, check_keep, check_rows,
                   check_tables, check_vertex_count, endpoint_error)

BACKEND = "c"

# the file name setup.py's build gives it, e.g. _native.cpython-311-x86_64-linux-gnu.so
_LIBRARY = Path(__file__).with_name("_native" + EXTENSION_SUFFIXES[0])
try:
    _lib = ctypes.CDLL(str(_LIBRARY))
except OSError as exc:
    raise ImportError(f"compiled kernel not built: {exc}") from exc

_int, _ll, _u64 = ctypes.c_int, ctypes.c_longlong, ctypes.c_uint64
_ints_p, _ll_p, _u64_p = ctypes.POINTER(_int), ctypes.POINTER(_ll), ctypes.POINTER(_u64)
# a Packed table's off or idx: bytes of C ints, which ctypes passes as a
# pointer to their data, with no copy
_table = ctypes.c_void_p
_lib.rt_find_avoiding.argtypes = [_int, _table, _table, _int, _table, _table,
                                  _int, _ints_p, _int, _int, _int, _ll,
                                  _ints_p, _ll_p, _ints_p]
_lib.rt_find_avoiding.restype = _int
_lib.rt_sample_and_check.argtypes = [_int, _table, _table, _int, _table, _table,
                                     _int, _int, _ll, _u64, _int,
                                     _ints_p, _ints_p, _u64_p, _ll_p, _ints_p]
_lib.rt_sample_and_check.restype = _ll
_lib.rt_unique_counts.argtypes = [_ints_p, _int, _table, _table, _ints_p]
_lib.rt_unique_counts.restype = None
_lib.rt_canonical_key.argtypes = [_int, _int, _ints_p, ctypes.POINTER(ctypes.c_ubyte)]
_lib.rt_canonical_key.restype = _int


def _sat(x: int, bits: int = 32) -> int:
    """x clamped to a signed C integer.  The kernels only compare k, the color
    cap, the budget and the sample count with counts far inside that range,
    so clamping changes no result, where ctypes would wrap the value."""
    top = 1 << (bits - 1)
    return max(-top, min(x, top - 1))


def _ints(values: Sequence[int]) -> ctypes.Array:
    # one struct.pack call; (_int * n)(*values) converts element by element
    n = len(values)
    return (_int * n).from_buffer_copy(struct.pack(f"{n}i", *values))


def find_avoiding_coloring(num_edges: int, conflicts: Rows, emb_edges: Rows,
                           k: int, exactly: bool, max_colors: int,
                           budget: Optional[int] = None,
                           keep: Optional[Sequence[int]] = None,
                           ) -> tuple[Optional[list[int]], int, bool]:
    """See pure.find_avoiding_coloring."""
    conf, emb = check_tables(num_edges, conflicts, emb_edges, False)
    work = num_edges + 1 + emb.count
    if keep is None:
        n_keep, kept = num_edges, None
    else:
        check_keep(num_edges, keep)
        n_keep, kept = len(keep), _ints(keep)
        work += 2 * num_edges + 2 + emb.count + conf.size + emb.size
    colors = (_int * n_keep)()
    nodes = _ll()
    found = _lib.rt_find_avoiding(num_edges, conf.off, conf.idx, emb.count, emb.off,
                                  emb.idx, n_keep, kept, _sat(k), bool(exactly),
                                  _sat(max_colors),
                                  -1 if budget is None else _sat(budget, 64),
                                  colors, ctypes.byref(nodes), (_int * work)())
    return (list(colors) if found == 1 else None), nodes.value, found >= 0


def unique_counts(colors: Sequence[int], emb_edges: Rows) -> list[int]:
    """See pure.unique_counts."""
    emb = check_rows(emb_edges, len(colors))
    out = (_int * emb.count)()
    # relabeled 0, 1, ... in order of first use, so any colors fit a C int
    _lib.rt_unique_counts(_ints(canonicalize(colors)), emb.count, emb.off, emb.idx, out)
    return list(out)


def sample_and_check(num_edges: int, conflicts: Rows, emb_edges: Rows,
                     k: int, exactly: bool,
                     num_samples: int, seed: int,
                     skip_rainbow: bool = True) -> dict:
    """See pure.sample_and_check; any Python int seeds the same stream."""
    conf, emb = check_tables(num_edges, conflicts, emb_edges, True)
    colors = (_int * num_edges)()
    counts = (_ll * 2)()
    index = _lib.rt_sample_and_check(
        num_edges, conf.off, conf.idx, emb.count, emb.off, emb.idx, _sat(k), bool(exactly),
        _sat(num_samples, 64), XorShift64Star(seed).state, bool(skip_rainbow),
        colors, (_int * (num_edges + 1))(), (_u64 * (num_edges + 1))(), counts,
        (_int * (num_edges + 1 + emb.count))())
    found = index >= 0
    return {"checked": counts[0], "rainbow_skipped": counts[1],
            "counterexample": list(colors) if found else None,
            "sample_index": index if found else None}


def canonical_key(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """See pure.canonical_key."""
    check_vertex_count(n)
    m = len(edges)
    try:
        flat = (_int * (2 * m)).from_buffer_copy(
            struct.pack(f"{2 * m}i", *chain.from_iterable(edges)))
    except struct.error:  # an endpoint past a C int, so past n - 1
        raise endpoint_error(n) from None
    key = (ctypes.c_ubyte * ((n * n + 63) // 64 * 8))()
    if _lib.rt_canonical_key(n, m, flat, key):
        raise endpoint_error(n)
    return int.from_bytes(key, "little")
