"""The benchmark's own tests, each workload at a tiny size.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
import checks  # noqa: E402
from workloads import NAMES, workload_config  # noqa: E402

from sfsynth import fileio  # noqa: E402

TINY = {
    "desk-circular": dict(n_radii=1, n_angles=6, val_count=2, n_test=2,
                          max_epochs=1, patience=1),
    "desk-linear-classic": dict(n_train_linear=4, n_val_linear=2,
                                n_test_linear=2),
}

# layers each workload must reach, and the ones it must bypass
RUNS = {
    "desk-circular": ("renderers.mr_circular_driving", "network.forward",
                      "network.backward", "renderers.pm_operator"),
    "desk-linear-classic": ("renderers.mr_linear_filter_bank",
                            "renderers.pm_operator"),
}
BYPASSES = {
    "desk-circular": ("renderers.mr_linear_filter_bank",),
    "desk-linear-classic": ("network.forward", "network.backward",
                            "renderers.mr_circular_driving"),
}

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_config(name):
    return replace(workload_config(name, 0), **TINY[name])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    old = bench.WORK
    bench.WORK = tmp_path_factory.mktemp("perfbench")
    yield bench.WORK
    bench.WORK = old


@pytest.fixture(scope="module")
def runs(work):
    """name -> (untraced run, traced run) at the tiny size."""
    # the test process does not pin BLAS; expect what it runs with
    threads = next(iter(bench.blas_thread_counts().values()), 1)
    out = {}
    for name in NAMES:
        cfg = tiny_config(name)
        out[name] = tuple(bench.run(name, 0, 0.0, trace, threads, cfg=cfg)
                          for trace in (False, True))
    return out


def _check_named(metrics, spec_list):
    assert set(metrics) == {m["name"] for m in spec_list}
    for m in spec_list:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])


def test_spec_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == [tuple(e) for e in bench.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == bench.per_layer_spec()


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_printed_with_unit(runs, name):
    untraced, traced = runs[name]
    _check_named(untraced["result"]["metrics"], SPEC["end_to_end"])
    _check_named(traced["result"]["metrics"], SPEC["per_layer"])
    for m in untraced["result"]["metrics"].values():
        assert m["value"] > 0
    for result in (untraced["result"], traced["result"]):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert result["failed"] == 0 and result["correct"]


@pytest.mark.parametrize("name", NAMES)
def test_layers_reached_and_bypassed(runs, name):
    metrics = runs[name][1]["result"]["metrics"]
    for fn in RUNS[name]:
        assert metrics[f"{fn}.calls"]["value"] > 0, fn
        assert metrics[f"{fn}.self_s"]["value"] > 0, fn
    for fn in BYPASSES[name]:
        assert metrics[f"{fn}.calls"]["value"] == 0, fn


@pytest.mark.parametrize("name", NAMES)
def test_span_self_times_sum_to_traced_wall(runs, name):
    s = runs[name][1]["summary"]
    assert s["span_self_s_total"] == pytest.approx(s["traced_wall_s"],
                                                   rel=1e-3, abs=1e-4)


def test_nan_in_driving_tensor_raises_failed_frac(work, tmp_path):
    cfg = tiny_config("desk-circular")
    it = bench.run_iteration(cfg, tmp_path / "out")
    state = tmp_path / "hashes.json"
    log, _ = checks.check_outputs(cfg, tmp_path / "out", it.manifest, 0,
                                  None, state)
    assert log.attempted > 0 and log.failed == 0

    path = tmp_path / "out" / "dataset.sfsx"
    ds, header = fileio.load_dataset(path)
    ds.train[0].tensor[0, 0] = np.nan
    fileio.save_dataset(path, ds, header_extra={"config_hash":
                                                header["config_hash"]})
    log, _ = checks.check_outputs(cfg, tmp_path / "out", it.manifest, 0,
                                  None, state)
    assert log.failed / log.attempted > 0
    assert f"record {ds.train[0].source_id} finite and shaped" in log.failures()
    assert "dataset.sfsx hash equals the first run" in log.failures()
