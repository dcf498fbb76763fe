#!/usr/bin/env python3
"""The rturan benchmark: four fixed CLI jobs, each run as one closed-loop client.

Run from the root of a checkout; nothing needs installing::

    python3 perfbench/run.py --workload k6_sample --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # every workload, one table

A run starts each job only after the previous one has exited and its output
has been checked.  The last line of output is one JSON object.
perfbench/README.md describes the workloads, the checks and the metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
TRACER = Path(__file__).resolve().parent / "tracer.py"

K6_SAMPLES = 200_000
SETUP_PROBES = 15
AGREEMENT_SAMPLES = 2_000
# the speed probe: probe_loop timed every PROBE_GAP_S on the jobs' CPU while a
# job runs, and the loop's time on an uncontended core of the first host
# (Intel Xeon at 2.1 GHz, Python 3.11.7), to which wall_norm_s is scaled
PROBE_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3))
PROBE_GAP_S = 0.05
PROBE_REF_S = 0.45e-3
PROBE_TRIM = 0.1
# jobs yield their CPU to the probe, so that no job preempts a probe loop
JOB_NICE = 10


@dataclass(frozen=True)
class Workload:
    name: str
    args: Callable[[int], list[str]]
    # returns None when the parsed JSON output is right, else what is wrong
    check: Callable[[dict, int, Path], Optional[str]]
    # spans that must have at least one call on this workload's traced jobs
    home_spans: tuple[str, ...]


def _check_k6(obj, seed, cache):
    if (obj["kind"], obj["verdict"]) != ("k6_universal", "PASS"):
        return f"expected k6_universal PASS, got {obj['kind']} {obj['verdict']}"
    if obj["params"]["seed"] != seed:
        return f"certificate seed {obj['params']['seed']}, expected {seed}"
    sampled = obj["payload"]["sampled_regime"]
    drawn = sampled["samples_checked"] + sampled["rainbow_skipped"]
    if drawn != K6_SAMPLES:
        return f"samples_checked + rainbow_skipped = {drawn}, expected {K6_SAMPLES}"
    return None


def _check_k2s4(obj, seed, cache):
    if (obj["kind"], obj["verdict"], obj["params"]["s"]) != ("k2s4", "PASS", 3):
        return f"expected k2s4 s=3 PASS, got {obj['kind']} s={obj['params']['s']} {obj['verdict']}"
    return None


def _check_search(obj, seed, cache):
    from rturan import load_certificate, recheck_certificate

    if obj.get("value") != 7:
        return f"expected value 7, got {obj.get('value')!r}"
    for key, kind in (("lower_witness", "avoider"), ("upper_exhaustion", "exhaustion")):
        path = Path(obj[key])
        if path.parent.resolve() != cache.resolve():
            return f"{key} written outside the job's cache dir: {path}"
        cert = load_certificate(path)
        if cert.kind != kind:
            return f"{key} is a {cert.kind} certificate, expected {kind}"
        ok, detail = recheck_certificate(cert)
        if not ok:
            return f"{key} does not re-validate: {detail}"
    return None


SPECTRUM_P12 = list(range(11)) + [12]


def _check_spectrum(obj, seed, cache):
    if obj["values"] != SPECTRUM_P12 or obj["exhaustive"] is not True:
        return f"expected exhaustive Spec(P12) = {SPECTRUM_P12}, got {obj['values']}"
    return None


# Each workload loads a layer the others barely touch, so a change to that layer
# shows on its own workload and must show no movement on the rest.  Why each
# was chosen is in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # the sampler kernel takes about 99% of the time; only workload using the seed
    Workload("k6_sample",
             lambda seed: ["--seed", str(seed), "verify", "k6-universal-3unique",
                           "--samples", str(K6_SAMPLES), "--color-cap", "7"],
             _check_k6,
             ("cli.main", "kernels.sample_and_check", "kernels.find_avoiding_coloring",
              "graphs.enumerate_embeddings", "coloring.conflict_lists",
              "certs.save_certificate")),
    # one pure-Python find_k_unique call on K10 and no kernel call
    Workload("k2s4",
             lambda seed: ["verify", "k2s4", "--s", "3"],
             _check_k2s4,
             ("cli.main", "detect.find_k_unique", "certs.save_certificate")),
    # canonical_key dominates; 92 tiny kernel DFS calls show per-call overhead
    Workload("search",
             lambda seed: ["search", "--n", "6", "--pattern", "P3", "--rainbow"],
             _check_search,
             ("cli.main", "graphs.canonical_key", "search.graphs_up_to_iso",
              "graphs.enumerate_embeddings", "search.exists_avoiding_coloring",
              "search.brute_extremal", "kernels.find_avoiding_coloring",
              "coloring.conflict_lists", "certs.save_certificate")),
    # 678,570 canonical colorings: the only workload of the coloring enumeration
    Workload("spectrum",
             lambda seed: ["spectrum", "P12"],
             _check_spectrum,
             ("cli.main", "coloring.enumerate_proper_colorings",
              "spectrum.compute_spectrum")),
)}

# span -> fields reported as "<span>.<field>"; rates and renamed fields follow
# in layer_metrics
LAYER_FIELDS = {
    "kernels.sample_and_check": ("calls", "busy_s", "samples", "rainbow_skipped"),
    "kernels.find_avoiding_coloring": ("calls", "busy_s", "nodes"),
    "kernels.unique_counts": ("calls", "busy_s"),
    "detect.find_k_unique": ("calls", "busy_s", "hits"),
    "graphs.canonical_key": ("calls", "busy_s"),
    "search.graphs_up_to_iso": ("busy_s",),
    "graphs.enumerate_embeddings": ("calls", "items", "busy_s"),
    "search.exists_avoiding_coloring": ("calls", "self_s"),
    "search.brute_extremal": ("graphs_checked",),
    "coloring.enumerate_proper_colorings": ("items", "busy_s"),
    "coloring.conflict_lists": ("busy_s",),
    "spectrum.compute_spectrum": ("self_s",),
    "certs.save_certificate": ("calls", "busy_s", "bytes"),
}


def layer_metrics(stats: dict) -> dict[str, float]:
    def get(span, key):
        return stats.get(span, {}).get(key, 0)

    def per_busy_s(span, key):
        busy = get(span, "busy_s")
        return get(span, key) / busy if busy else 0.0

    out = {f"{span}.{key}": get(span, key)
           for span, keys in LAYER_FIELDS.items() for key in keys}
    out["kernels.sample_and_check.samples_per_s"] = per_busy_s(
        "kernels.sample_and_check", "samples")
    out["kernels.find_avoiding_coloring.nodes_per_s"] = per_busy_s(
        "kernels.find_avoiding_coloring", "nodes")
    out["coloring.enumerate_proper_colorings.items_per_s"] = per_busy_s(
        "coloring.enumerate_proper_colorings", "items")
    classes = get("search.graphs_up_to_iso", "items")
    keys = get("graphs.canonical_key", "calls")
    out["search.graphs_up_to_iso.classes"] = classes
    out["search.iso_yield"] = classes / keys if keys else 0.0
    out["cli.self_s"] = get("cli.main", "self_s")
    return out


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric == "peak_rss_mb":
        return "MB"
    if metric in ("search.iso_yield", "trace.overhead_ratio"):
        return "ratio"
    return "count"


@dataclass
class Job:
    argv: list[str]
    wall_s: float
    probe_s: float
    rss_mb: float
    error: Optional[str]
    stats: Optional[dict] = None

    @property
    def wall_norm_s(self) -> float:
        return normalise(self.wall_s, self.probe_s)


def normalise(seconds: float, loop_s: float) -> float:
    """A time measured while probe_loop took loop_s, on an uncontended core."""
    return seconds * PROBE_REF_S / loop_s


def probe_loop() -> int:
    """Distinct relabellings of a 6-edge graph on 5 vertices, by brute force.

    Tuples, sorting, generator expressions and dict updates: the kind of work
    the jobs do, so that contention slows it as much as it slows them.  An
    integer loop, which stays in the core's cache and pipeline, was slowed
    less than the jobs, and left 1.5 to 2.3 times the spread per job.
    """
    seen: dict[tuple, int] = {}
    for perm in itertools.permutations(range(5)):
        key = tuple(sorted((min(perm[a], perm[b]), max(perm[a], perm[b]))
                           for a, b in PROBE_EDGES))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


class SpeedProbe:
    """Times probe_loop every PROBE_GAP_S from a thread, on the CPU the job
    shares with it, for as long as the job (or the set-up launches) is timed.

    On a shared host a core's speed swings by a quarter to a half within
    seconds, with the load of the host's other tenants.  A job's wall time
    scaled by PROBE_REF_S over the mean loop time while it ran (normalise) is
    its wall time on an uncontended core.  The slowest PROBE_TRIM of the loops are dropped:
    they are the ones that something else preempted.
    """

    def __init__(self):
        self.loops: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _time_loop(self):
        t0 = time.perf_counter()
        probe_loop()
        self.loops.append(time.perf_counter() - t0)

    def _run(self):
        while not self._stop.wait(PROBE_GAP_S):
            self._time_loop()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.loops:  # a job shorter than one gap
            self._time_loop()

    def loop_s(self) -> float:
        kept = sorted(self.loops)[:max(1, round(len(self.loops) * (1 - PROBE_TRIM)))]
        return statistics.fmean(kept)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(WORK)
    env.pop("RT_CACHE_DIR", None)
    # jobs read cached bytecode, as an installed package's users do
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def job_argv(workload: Workload, seed: int, cache: Path, stats: Optional[Path]) -> list[str]:
    head = ([sys.executable, str(TRACER), str(stats)] if stats
            else [sys.executable, "-m", "rturan.cli"])
    return head + ["--format", "json", "--cache-dir", str(cache)] + workload.args(seed)


def check_output(workload: Workload, seed: int, code: int, stdout: bytes,
                 cache: Path) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    try:
        return workload.check(json.loads(stdout), seed, cache)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return f"malformed output: {exc!r}"


def run_job(workload: Workload, seed: int, env: dict, traced: bool) -> Job:
    """One job, timed from launch until its output has been checked."""
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        cache = tmp / "cache"
        stats_path = tmp / "stats.json" if traced else None
        argv = job_argv(workload, seed, cache, stats_path)
        with open(tmp / "stdout", "w+b") as out, open(tmp / "stderr", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                    preexec_fn=lambda: os.nice(JOB_NICE))
            with SpeedProbe() as probe:
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                proc.returncode = os.waitstatus_to_exitcode(status)
                out.seek(0)
                error = check_output(workload, seed, proc.returncode, out.read(), cache)
                wall = time.perf_counter() - t0
            if error and proc.returncode != 0:
                err.seek(0)
                error += ": " + err.read().decode(errors="replace").strip()[-500:]
        stats = None
        if traced and error is None:
            stats = json.loads(stats_path.read_text())
            missing = [s for s in workload.home_spans if not stats.get(s, {}).get("calls")]
            if missing:
                error = f"traced spans with zero calls: {', '.join(missing)}"
    return Job(argv, wall, probe.loop_s(), usage.ru_maxrss / 1024, error, stats)


def probe_setup(env: dict) -> float:
    """Launch to exit of a cold interpreter that imports the CLI and builds its parser."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import rturan.cli; rturan.cli.build_parser()"],
                   env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   preexec_fn=lambda: os.nice(JOB_NICE))
    return time.perf_counter() - t0


def closed_loop(seconds: float, step: Callable[[], list[Job]]) -> list[Job]:
    """Repeat step while a step of median length still fits in the time left."""
    jobs: list[Job] = []
    lengths: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        jobs += step()
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return jobs


def tail_percentile(values: list[float]) -> Optional[tuple[int, float]]:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def backend_agreement(seed: int) -> Optional[str]:
    """Compiled kernels must agree with the pure reference on the k6_sample inputs."""
    from rturan import _kernels, enumerate_embeddings, make_complete, make_double_star
    from rturan._kernels import pure
    from rturan.coloring import conflict_lists

    host = make_complete(6)
    m, conflicts = host.num_edges, conflict_lists(host)
    emb = [list(e.edge_map) for e in enumerate_embeddings(make_double_star(2, 2), host)]
    colors = pure.random_proper_coloring(m, conflicts, pure.XorShift64Star(seed))
    calls = {
        "find_avoiding_coloring":
            lambda k: k.find_avoiding_coloring(m, conflicts, emb, 3, True, 7, None),
        "sample_and_check":
            lambda k: k.sample_and_check(m, conflicts, emb, 3, True,
                                         AGREEMENT_SAMPLES, seed, True),
        "unique_counts": lambda k: k.unique_counts(colors, emb),
    }
    for name, call in calls.items():
        if json.dumps(call(_kernels)) != json.dumps(call(pure)):
            return f"{_kernels.BACKEND} and pure {name} disagree on the K6 inputs"
    return None


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 meta: dict) -> dict:
    env = child_env()
    probe_setup(env)  # compiles bytecode once; later launches read it, as users' do
    agreement = (backend_agreement(seed)
                 if workload.name == "k6_sample" and meta["kernel_backend"] != "python"
                 else None)
    if trace:
        jobs = closed_loop(seconds, lambda: [run_job(workload, seed, env, False),
                                             run_job(workload, seed, env, True)])
    else:
        with SpeedProbe() as setup_probe:
            setup = [probe_setup(env) for _ in range(SETUP_PROBES)]
        jobs = closed_loop(seconds, lambda: [run_job(workload, seed, env, False)])
    errors = [e for e in [agreement, *(j.error for j in jobs)] if e]
    ok = [j for j in jobs if j.error is None] or jobs
    if trace:
        plain = [j.wall_norm_s for j in ok if j.stats is None]
        traced = [j for j in ok if j.stats is not None]
        per_job = [layer_metrics(j.stats) for j in traced]
        metrics = {}
        for name in per_job[0] if per_job else ():
            values = [pm[name] for pm in per_job]
            if unit(name) == "count" and len(set(values)) > 1:
                errors.append(f"{name} differs between identical jobs: {values}")
            metrics[name] = statistics.median_low(values)  # a measured value
        walls = [j.wall_norm_s for j in traced]
        metrics["trace.overhead_ratio"] = (
            statistics.median(walls) / statistics.median(plain) - 1 if walls and plain else 0.0)
    else:
        metrics = {"wall_norm_s": statistics.median(j.wall_norm_s for j in ok),
                   "setup_s": normalise(statistics.median(setup), setup_probe.loop_s()),
                   "peak_rss_mb": statistics.median(j.rss_mb for j in ok)}
    failed = sum(j.error is not None for j in jobs)
    record = {
        "meta": {**meta, "workload": workload.name, "argv": jobs[0].argv},
        "correct": not errors, "attempted": len(jobs), "failed": failed,
        "errors": errors, "metrics": metrics,
        "jobs": [{"wall_s": j.wall_s, "wall_norm_s": j.wall_norm_s, "probe_s": j.probe_s,
                  "peak_rss_mb": j.rss_mb, "error": j.error,
                  "traced": j.stats is not None} for j in jobs],
        "setup_s": [] if trace else setup,
        "setup_probe_s": None if trace else setup_probe.loop_s(),
    }
    (WORK / f"BENCH_{workload.name}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print_summary(record, trace)
    return record


def print_summary(record: dict, trace: bool) -> None:
    name = record["meta"]["workload"]
    print(f"{name}: argv {' '.join(record['meta']['argv'])}")
    for err in record["errors"]:
        print(f"{name}: FAILED CHECK {err}")
    metrics = record["metrics"]
    if trace:
        for metric in sorted(metrics):
            print(f"{name}: {metric} = {metrics[metric]:.6g} {unit(metric)}")
        return
    walls = [j["wall_s"] for j in record["jobs"] if j["error"] is None] or [
        j["wall_s"] for j in record["jobs"]]
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                 "no tail percentile (needs at least 11 samples)")
    print(f"{name}: wall_s median {statistics.median(walls):.4f} s, {tail_text}, "
          f"n={len(walls)}")
    print(f"{name}: wall_norm_s median {metrics['wall_norm_s']:.4f} s, n={len(walls)}")
    print(f"{name}: setup_s median {metrics['setup_s']:.4f} s normalised, "
          f"{statistics.median(record['setup_s']):.4f} s measured, n={SETUP_PROBES}")
    print(f"{name}: peak_rss_mb median {metrics['peak_rss_mb']:.2f} MB")
    print(f"{name}: fail_ratio {record['failed'] / record['attempted']:.4g} "
          f"({record['failed']} of {record['attempted']} jobs)")


def build() -> None:
    """Build the package in place (compiled kernels, when the checkout has any)."""
    WORK.mkdir(exist_ok=True)
    marker = WORK / "built"
    if (ROOT / "setup.py").is_file() and not marker.exists():
        proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"in-place build failed:\n{proc.stdout}\n{proc.stderr}")
        marker.touch()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that run_job kills and reaps its running job
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "rturan" / "__init__.py").is_file():
        print(f"no rturan sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    build()
    sys.path.insert(0, str(SRC))
    import rturan

    if not Path(rturan.__file__).resolve().is_relative_to(SRC):
        print(f"imported rturan from {rturan.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    meta = {"kernel_backend": rturan.KERNEL_BACKEND,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    # the jobs, the speed probe and the set-up launches all share one CPU, so
    # the probe times the core the jobs run on
    meta["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {meta["cpu"]})
    print("meta: " + json.dumps(meta, sort_keys=True))
    if rturan.KERNEL_BACKEND == "python":
        print("kernel backend: python only; no compiled backend to cross-check")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), meta)
               for n in names}
    prefix = len(names) > 1
    result = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {(f"{n}.{m}" if prefix else m): {"value": v, "unit": unit(m)}
                    for n, r in records.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
