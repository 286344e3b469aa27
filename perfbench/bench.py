"""Run one workload: set-up timing, closed-loop pipeline iterations with
stage timers, output checks, and the optional traced iteration.

One caller runs ``run_experiment`` (what ``sfsynth run`` does) on the
workload's timed size again and again in this process, each time into a
fresh output directory, as long as the next iteration should end within
the requested seconds (at least twice).  Only the stage boundaries are
timed in those iterations, and their means are reported, adjusted for
the speed the host gave the run (see PROBE_SHARE).  A traced run makes
one untraced and one traced iteration of the traced size instead; the
difference of their wall times is the tracing overhead.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import netcount
from spans import Tracer, stage_timers
from workloads import DEFAULT_SEED, build_setup, workload_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
REFERENCE = HERE / "reference.json"

# Set-up takes milliseconds, so it is repeated for a window before and
# another after the iterations; the first repetition warms up, and the
# mean of the rest is reported, host-adjusted like the other times.
SETUP_WINDOW_S = 1.0
SETUP_MIN_REPEATS = 9
# A timed run repeats the pipeline at least this often, whatever its
# seconds; the first iteration warms up and is not measured.
MIN_ITERATIONS = 2
# The speed a shared host gives this process changes within seconds and
# from one minute to the next (the same iteration takes 1.8 s or 3 s).
# After each measured iteration a fixed probe kernel that does not touch
# sfsynth runs for PROBE_SHARE of the iteration's wall time (at least
# PROBE_MIN_REPEATS times).  Its mean time over PROBE_REFERENCE_S, its
# time on an idle 2-vCPU Xeon, is how much the host slowed the run down,
# and the time metrics are divided by it: they are the times on a host
# where the probe takes PROBE_REFERENCE_S.
PROBE_SHARE = 0.2
PROBE_MIN_REPEATS = 3
PROBE_REFERENCE_S = 0.040

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("dataset_sources_per_s", "1/s", "higher", 0.25),
    ("sweep_evals_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# per-layer metrics of one function: suffix -> (unit, better)
_SUFFIX = {
    "calls": ("count", "lower"),
    "points": ("count", "lower"),
    "entries": ("count", "lower"),
    "samples": ("count", "higher"),
    "bytes": ("B", "lower"),
    "self_s": ("s", "lower"),
    "ns_per_point": ("ns", "lower"),
    "ms_per_sample": ("ms", "lower"),
    "gflop_per_s": ("GFLOP/s", "higher"),
    "distinct_ratio": ("ratio", "higher"),
}

LAYER_FUNCTIONS = (
    ("bessel.hankel2_zero", ("calls", "points", "self_s", "ns_per_point")),
    ("bessel.hankel2_sym_range", ("calls", "self_s", "distinct_ratio")),
    ("acoustics.green_matrix", ("calls", "entries", "self_s", "distinct_ratio")),
    ("acoustics.herglotz_point_source", ("calls", "self_s")),
    ("renderers.mr_linear_filter_bank", ("calls", "self_s", "distinct_ratio")),
    ("renderers.mr_circular_driving", ("calls", "self_s")),
    ("renderers.pm_operator", ("calls", "self_s", "distinct_ratio")),
    ("datasets.build_dataset", ("self_s",)),
    ("network.forward", ("calls", "samples", "self_s", "ms_per_sample",
                         "gflop_per_s")),
    ("network.backward", ("calls", "samples", "self_s", "ms_per_sample",
                          "gflop_per_s")),
    ("network.Adam.step", ("calls", "self_s")),
    ("compensator.train_compensator", ("self_s",)),
    ("compensator.evaluate_loss", ("self_s",)),
    ("evaluation.metric_samples", ("self_s",)),
    ("evaluation.nre", ("calls", "self_s")),
    ("evaluation.ssim_global", ("calls", "self_s")),
    ("fileio.save_dataset", ("self_s", "bytes")),
    ("fileio.save_checkpoint", ("self_s", "bytes")),
    ("fileio.sha256_file", ("self_s", "bytes")),
    ("fileio.write_field_csv", ("self_s",)),
    ("experiment.render_field", ("self_s",)),
)


# root span of a traced iteration
ROOT_SPAN = "experiment.run_experiment"


def traced_functions() -> list:
    return [ROOT_SPAN] + [fn for fn, _ in LAYER_FUNCTIONS]


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = [(f"{fn}.{suffix}",) + _SUFFIX[suffix]
           for fn, suffixes in LAYER_FUNCTIONS for suffix in suffixes]
    out += [(name, unit, "lower")
            for name, (_, unit) in netcount.computed_counts().items()]
    out.append(("experiment.tracing_overhead_s", "s", "lower"))
    return out


# -- environment ---------------------------------------------------------------

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_thread_counts() -> dict:
    """Live thread count of each OpenBLAS bundled with numpy and scipy
    (empty when the BLAS cannot be queried)."""
    out = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for so in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(so))
            for sym in _THREAD_SYMBOLS:
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    out[so.name] = int(fn())
                    break
    return out


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {
        "workload": workload, "seed": seed, "nproc": nproc,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_pinned": threads,
        "blas_threads_observed": blas_thread_counts(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": git_commit(ROOT),
    }


# -- one iteration ---------------------------------------------------------------

@dataclass
class Iteration:
    wall_s: float
    manifest: object
    stages: list                     # spans.StageCall, empty when traced


def run_iteration(cfg, out_dir: Path, tracer: Tracer | None = None) -> Iteration:
    import sfsynth.experiment as experiment
    stages = []
    ctx = (tracer.active(traced_functions()) if tracer is not None
           else stage_timers(stages))
    with ctx:
        t0 = time.perf_counter()
        manifest = experiment.run_experiment(cfg, out_dir)
        wall = time.perf_counter() - t0
    return Iteration(wall, manifest, stages)


def stage_work(it: Iteration) -> dict:
    """Work and seconds of each stage of an untraced iteration, keyed by
    the throughput they make.  The sweep stage runs from the end of
    training (of the dataset stage when nothing trains) to the first
    field render, after the last metrics CSV is written."""
    by = {}
    for call in it.stages:
        by.setdefault(call.name, []).append(call)
    ds = by["build_dataset"][0]
    out = {"dataset_sources_per_s":
           (len(ds.args[1].all_sources), ds.end - ds.start)}
    prev_end = ds.end
    if "train_compensator" in by:
        tr = by["train_compensator"][0]
        out["train_samples_per_s"] = (len(tr.args[0]) * tr.result.epochs_run,
                                      tr.end - tr.start)
        prev_end = tr.end
    ms = by["metric_samples"][0]
    sweep_ctx, methods = ms.args[0], ms.args[1]
    evals = len(sweep_ctx.sources) * sweep_ctx.freq_grid.k * len(methods)
    out["sweep_evals_per_s"] = (evals, by["render_field"][0].start - prev_end)
    return out


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    computed = netcount.computed_counts()
    out = {}
    for name, unit, _ in per_layer_spec():
        fn, _, suffix = name.rpartition(".")
        st = tracer.stats.get(fn, {})
        calls = st.get("calls", 0)
        self_s = st.get("self_s", 0.0)
        if name in computed:
            value = computed[name][0]
        elif name == "experiment.tracing_overhead_s":
            value = overhead_s
        elif suffix == "ns_per_point":
            value = self_s * 1e9 / st["points"] if st.get("points") else 0.0
        elif suffix == "ms_per_sample":
            value = self_s * 1e3 / st["samples"] if st.get("samples") else 0.0
        elif suffix == "gflop_per_s":
            value = st["flop"] / 1e9 / self_s if self_s > 0 else 0.0
        elif suffix == "distinct_ratio":
            value = len(tracer.keys[fn]) / calls if calls else 0.0
        else:
            value = st.get(suffix, 0)
        out[name] = {"value": value, "unit": unit}
    return out


# -- a whole run -----------------------------------------------------------------

def _reference(workload: str, size: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(size)


def _checked(cfg, it: Iteration, out_dir: Path, log: checks.CheckLog,
             seed: int, reference: dict | None, state_path: Path) -> dict:
    sub, means = checks.check_outputs(cfg, out_dir, it.manifest, seed,
                                      reference, state_path)
    log.items.extend(sub.items)
    shutil.rmtree(out_dir, ignore_errors=True)
    return means


_PROBE_A = np.random.default_rng(0).standard_normal((200, 200))


def host_probe() -> float:
    """Seconds of a fixed matrix-product and Python-loop kernel that
    does not touch sfsynth."""
    t0 = time.perf_counter()
    for _ in range(60):
        _PROBE_A @ _PROBE_A
    x = 0
    for j in range(300_000):
        x += j * j
    return time.perf_counter() - t0


def probe_host(seconds: float, out: list) -> None:
    """Append probe times to `out` for `seconds` (at least
    PROBE_MIN_REPEATS probes)."""
    start = time.perf_counter()
    n = 0
    while n < PROBE_MIN_REPEATS or time.perf_counter() - start < seconds:
        out.append(host_probe())
        n += 1


def host_slowdown(probes: list) -> float:
    """Mean probe time over PROBE_REFERENCE_S."""
    return statistics.fmean(probes) / PROBE_REFERENCE_S


def measure_setup(workload: str, seed: int, times: list,
                  probes: list) -> None:
    """Set up the timed size repeatedly for SETUP_WINDOW_S (at least
    SETUP_MIN_REPEATS times), appending each duration to `times`, then
    probe the host for PROBE_SHARE of the window."""
    start = time.perf_counter()
    n = 0
    while n < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_WINDOW_S:
        t0 = time.perf_counter()
        build_setup(workload_config(workload, seed))
        times.append(time.perf_counter() - t0)
        n += 1
    probe_host(PROBE_SHARE * (time.perf_counter() - start), probes)


def run(workload: str, seed: int, seconds: float, trace: bool,
        threads: int, cfg=None) -> dict:
    """Run the workload; returns {"env", "summary", "result"}.

    Untraced, the timed size runs again and again while the next
    iteration should end within `seconds` (at least twice).  Traced, the
    traced size runs once untraced and once traced.  `cfg` replaces the
    config (the benchmark's tests pass a tiny one); set-up is still timed
    on the named workload.
    """
    env = environment(workload, seed, threads)
    log = checks.CheckLog()
    observed = env["blas_threads_observed"]
    if observed:
        log.add("BLAS thread pin took effect",
                all(n == threads for n in observed.values()))
    size = "traced" if trace else "timed"
    base_cfg = workload_config(workload, seed, size)
    cfg = cfg or base_cfg
    reference = _reference(workload, size, seed) if cfg == base_cfg else None
    state = WORK / "hashes" / f"{workload}-{seed}-{cfg.config_hash()[:12]}.json"
    run_dir = WORK / f"{workload}-{seed}-{os.getpid()}"
    # wall time and stage work of each iteration; the iterations
    # themselves are dropped, since their stage calls hold the datasets
    setup_times, walls, work, means, probes = [], [], [], {}, []
    tracer = None
    if not trace:
        measure_setup(workload, seed, setup_times, probes)
    try:
        start = time.perf_counter()
        while True:
            out_dir = run_dir / f"it{len(walls)}"
            it = run_iteration(cfg, out_dir)
            means = _checked(cfg, it, out_dir, log, seed, reference, state)
            walls.append(it.wall_s)
            work.append(stage_work(it))
            del it
            if trace:
                break
            if len(walls) > 1:
                probe_host(PROBE_SHARE * walls[-1], probes)
            # start another iteration only if it should end in time
            elapsed = time.perf_counter() - start
            if (len(walls) >= MIN_ITERATIONS
                    and elapsed + elapsed / len(walls) > seconds):
                break
        if trace:
            tracer = Tracer(run_id=f"{workload}-{seed}-{os.getpid()}")
            out_dir = run_dir / "traced"
            traced = run_iteration(cfg, out_dir, tracer)
            _checked(cfg, traced, out_dir, log, seed, reference, state)
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            tracer.write(WORK / "traces" / f"{workload}-{seed}.csv")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not trace:
        measure_setup(workload, seed, setup_times, probes)

    result_metrics = None
    summary = {"iterations": len(walls)}
    if not trace:
        # the first iteration warms up; the rest are measured
        slowdown = host_slowdown(probes)

        def rate(key):
            done = sum(w[key][0] for w in work[1:])
            secs = sum(w[key][1] for w in work[1:])
            return done / secs * slowdown

        raw_wall = statistics.fmean(walls[1:])
        e2e = {
            "setup_s": statistics.fmean(setup_times[1:]) / slowdown,
            "wall_s": raw_wall / slowdown,
            "dataset_sources_per_s": rate("dataset_sources_per_s"),
            "sweep_evals_per_s": rate("sweep_evals_per_s"),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            * 1024 / 1e6,
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
        result_metrics = {name: {"value": e2e[name], "unit": units[name]}
                          for name in units}
        summary.update(e2e)
        summary.update({
            "train_samples_per_s": (rate("train_samples_per_s")
                                    if "train_samples_per_s" in work[0]
                                    else None),
            "host_slowdown": slowdown,
            "host_probe_min_s": min(probes),
            "wall_s_unadjusted": raw_wall,
            "iteration_wall_s": walls,
        })
    summary.update({
        "cnn_nre_db": means.get("cnn"),
        "mean_nre_db": means,
        "failed_frac": log.failed / log.attempted,
        "failed_checks": log.failures(),
    })
    if tracer is not None:
        overhead = traced.wall_s - walls[0]
        result_metrics = layer_metrics(tracer, overhead)
        summary.update({"traced_wall_s": traced.wall_s,
                        "span_self_s_total": tracer.self_time_total(),
                        "spans": len(tracer.spans)})
    result = {"correct": log.failed == 0, "attempted": log.attempted,
              "failed": log.failed, "metrics": result_metrics}
    return {"env": env, "summary": summary, "result": result}
