"""Out-of-program tracer for the benchmark's traced runs.

Run as a job in place of ``python3 -m rturan.cli``::

    PYTHONPATH=src python3 perfbench/tracer.py STATS.json CLI-ARGS...

It wraps the functions listed in SPANS wherever the package binds them (the
modules import each other's functions by name, so the home module alone is
not enough), runs ``rturan.cli.main(CLI-ARGS)`` as the root span ``cli.main``
and writes per-span counts and times to STATS.json.  No code of the package
is changed.

Per span it records ``calls``, ``busy_s`` (time inside the call; for a
generator, only time inside ``next()``), ``self_s`` (busy time minus the time
of nested spans) and the counts in COUNTERS, read from return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module of rturan, function); the span is named "<module>.<function>" with
# the leading underscore of _kernels dropped.
SPANS = [
    ("_kernels", "sample_and_check"),
    ("_kernels", "find_avoiding_coloring"),
    ("_kernels", "unique_counts"),
    ("detect", "find_k_unique"),
    ("graphs", "canonical_key"),
    ("graphs", "enumerate_embeddings"),
    ("search", "graphs_up_to_iso"),
    ("search", "exists_avoiding_coloring"),
    ("search", "brute_extremal"),
    ("coloring", "enumerate_proper_colorings"),
    ("coloring", "conflict_lists"),
    ("spectrum", "compute_spectrum"),
    ("certs", "save_certificate"),
]


def _count_samples(res, st):
    st["samples"] += res["checked"] + res["rainbow_skipped"]
    st["rainbow_skipped"] += res["rainbow_skipped"]


def _count_nodes(res, st):
    st["nodes"] += res[1]


def _count_hits(res, st):
    st["hits"] += res is not None


def _count_graphs_checked(res, st):
    cert = res.get("upper_exhaustion")
    st["graphs_checked"] += cert.payload["graphs_checked"] if cert else 0


def _count_bytes(res, st):
    st["bytes"] += Path(res).stat().st_size


COUNTERS = {
    "kernels.sample_and_check": _count_samples,
    "kernels.find_avoiding_coloring": _count_nodes,
    "detect.find_k_unique": _count_hits,
    "search.brute_extremal": _count_graphs_checked,
    "certs.save_certificate": _count_bytes,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, defaultdict] = {}
        self._stack: list[list[float]] = []  # [start, time of nested spans]

    def _enter(self):
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, st):
        start, nested = self._stack.pop()
        dur = time.perf_counter() - start
        st["busy_s"] += dur
        st["self_s"] += dur - nested
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, name: str, fn):
        st = self.stats.setdefault(name, defaultdict(int))
        count = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st["calls"] += 1
                return self._timed_next(st, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st["calls"] += 1
            self._enter()
            try:
                res = fn(*args, **kwargs)
            finally:
                self._exit(st)
            if count is not None:
                count(res, st)
            return res
        return wrapper

    def _timed_next(self, st, it):
        try:
            while True:
                self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(st)
                st["items"] += 1
                yield item
        finally:
            it.close()

    def install(self):
        """Wrap every SPANS function under each name any loaded rturan module
        binds it to; import the package first."""
        modules = [m for n, m in sys.modules.items()
                   if n == "rturan" or n.startswith("rturan.")]
        for module, func in SPANS:
            orig = getattr(importlib.import_module(f"rturan.{module}"), func)
            wrapped = self.wrap(f"{module.lstrip('_')}.{func}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)


def main(argv: list[str]) -> int:
    out, cli_args = argv[1], argv[2:]
    import rturan.cli  # loads every module the CLI uses

    tracer = Tracer()
    tracer.install()
    code = tracer.wrap("cli.main", rturan.cli.main)(cli_args)
    Path(out).write_text(json.dumps(tracer.stats, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
