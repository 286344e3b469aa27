"""Output checks run after every workload iteration.

Each check is one attempted item; ``failed / attempted`` is the run's
``failed_frac``.  The checks read the artifacts the pipeline wrote, so a
corrupted file fails them the same way a wrong computation does.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

from sfsynth import fileio
from sfsynth.acoustics import green_matrix

# records whose control pressures are recomputed from scratch
PRESSURE_SAMPLE = 4
PRESSURE_RTOL = 1e-12
# mean-NRE tolerance against the recorded default-seed reference
NRE_TOLERANCE_DB = 0.05
HASHED_ROLES = ("dataset", "metrics", "checkpoint")


class CheckLog:
    def __init__(self):
        self.items = []             # (name, ok)

    def add(self, name: str, ok: bool) -> None:
        self.items.append((name, bool(ok)))

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.items if not ok)

    def failures(self) -> list:
        return [name for name, ok in self.items if not ok]


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(a)))


def check_dataset(log: CheckLog, cfg, out_dir: Path, seed: int) -> None:
    try:
        ds, _ = fileio.load_dataset(out_dir / "dataset.sfsx")
    except (OSError, ValueError, KeyError, struct.error):
        log.add("dataset.sfsx readable", False)
        return
    l_active = cfg.n_loudspeakers - cfg.n_remove
    k = cfg.freq_count
    recs = ds.all_records
    for rec in recs:
        ok = (rec.tensor.shape == (2 * l_active, k) and _finite(rec.tensor)
              and rec.pressures.shape == (ds.n_control, k)
              and _finite(rec.pressures))
        log.add(f"record {rec.source_id} finite and shaped", ok)
    cp = cfg.control_points()
    log.add("record control-point count", ds.n_control == len(cp))
    freq = cfg.freq_grid()
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(recs), size=min(PRESSURE_SAMPLE, len(recs)),
                      replace=False)
    for i in sorted(pick):
        rec = recs[i]
        want = np.stack([green_matrix(cp.points, rec.source.position[None, :],
                                      omega, freq.c)[:, 0]
                         for omega in freq.angular], axis=1)
        ok = (rec.pressures.shape == want.shape
              and np.allclose(rec.pressures, want, rtol=PRESSURE_RTOL, atol=0.0))
        log.add(f"record {rec.source_id} control pressures", ok)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_metrics(log: CheckLog, cfg, out_dir: Path) -> dict:
    """Checks the metric CSVs; returns the mean NRE per method."""
    methods = list(cfg.methods)
    means = {}
    for metric in ("nre", "ssim"):
        rows = _read_csv(out_dir / f"metrics_{metric}_frequency.csv")
        ok = len(rows) == cfg.freq_count
        cols = {}
        for m in methods:
            vals = np.array([float(r[m]) for r in rows]) if ok else np.array([])
            ok = ok and _finite(vals)
            cols[m] = vals
        log.add(f"metrics_{metric}_frequency.csv has K finite rows", ok)
        if metric == "nre" and ok:
            means = {m: float(v.mean()) for m, v in cols.items()}
    if cfg.family == "circular":
        n_test = cfg.n_test if cfg.n_test is not None else cfg.n_radii * cfg.n_angles
        for metric in ("nre", "ssim"):
            rows = _read_csv(out_dir / f"metrics_{metric}_radius.csv")
            ok = (len(rows) == cfg.n_radius_bins
                  and sum(int(r["count"]) for r in rows) == n_test)
            log.add(f"metrics_{metric}_radius.csv bins and counts", ok)
    return means


def check_reference(log: CheckLog, means: dict, reference: dict | None) -> None:
    """Mean NRE per method against the recorded default-seed values."""
    if reference is None:
        return
    for m, want in sorted(reference.items()):
        got = means.get(m)
        ok = got is not None and abs(got - want) <= NRE_TOLERANCE_DB
        log.add(f"mean {m} NRE within {NRE_TOLERANCE_DB} dB of reference", ok)


def artifact_hashes(log: CheckLog, manifest, out_dir: Path) -> dict:
    """sha256 of every dataset, metric and checkpoint file, read from
    disk; each must also match the hash the manifest recorded."""
    out = {}
    for f in manifest.files:
        if f["role"] in HASHED_ROLES:
            out[f["path"]] = fileio.sha256_file(out_dir / f["path"])
            log.add(f"{f['path']} matches its manifest hash",
                    out[f["path"]] == f["sha256"])
    return out


def check_hashes(log: CheckLog, hashes: dict, state_path: Path) -> None:
    """Hashes equal those of the first run at the same workload and seed
    (recorded in `state_path` when absent)."""
    if not state_path.exists():
        state_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = state_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(hashes, indent=1, sort_keys=True))
        tmp.replace(state_path)
        return
    first = json.loads(state_path.read_text())
    log.add("same artifact set as the first run", set(first) == set(hashes))
    for path, digest in sorted(hashes.items()):
        log.add(f"{path} hash equals the first run", first.get(path) == digest)


def check_outputs(cfg, out_dir: Path, manifest, seed: int,
                  reference: dict | None, state_path: Path) -> tuple:
    """Run every output check; returns (CheckLog, mean NRE per method)."""
    log = CheckLog()
    check_dataset(log, cfg, out_dir, seed)
    means = check_metrics(log, cfg, out_dir)
    check_reference(log, means, reference)
    check_hashes(log, artifact_hashes(log, manifest, out_dir), state_path)
    return log, means
