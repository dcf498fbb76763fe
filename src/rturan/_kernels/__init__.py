"""Kernel backend selection: the compiled C kernels (native.c through
native.py) when the library is built, pure Python fallback otherwise.  Set
RTURAN_PURE=1 to force the fallback (benchmarks and cross-checks rely on
this)."""

import os

if os.environ.get("RTURAN_PURE") == "1":
    from . import pure as _impl
else:
    try:
        from . import native as _impl
    except ImportError:
        from . import pure as _impl

from . import pure  # reference implementation is always importable

BACKEND = _impl.BACKEND
canonical_key = _impl.canonical_key
find_avoiding_coloring = _impl.find_avoiding_coloring
pack_rows = pure.pack_rows  # one input form on both backends (pure.Packed)
sample_and_check = _impl.sample_and_check
unique_counts = _impl.unique_counts
