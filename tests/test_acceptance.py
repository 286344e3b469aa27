"""Acceptance criteria.

Each test enforces one numbered criterion at its stated tolerance and
runtime budget and prints a PASS line (run with -s to see them inline).
The desk-scale end-to-end and determinism criteria execute the real
pipeline and dominate the module's runtime (roughly 15-25 minutes on one
CPU core).
"""

import csv
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sfsynth.acoustics import Source, green_matrix, truncation_order
from sfsynth.bessel import hankel2_orders
from sfsynth.compensator import (
    loss,
    loss_gradient,
    predict_control_pressure,
    train_compensator,
    unpack_driving,
)
from sfsynth.config import desk_config
from sfsynth.evaluation import nre, ssim_global
from sfsynth.experiment import run_experiment
from sfsynth.fileio import sha256_file
from sfsynth.geometry import (
    ListeningArea,
    decimate_array,
    make_circular_array,
    sample_listening_grid,
)
from sfsynth.network import backward, forward, init_params
from sfsynth.renderers import mr_circular_driving
from test_compensator import W, _assert_no_prelu_flip

C = 343.0


def _announce(num, text):
    print(f"\n[acceptance] criterion {num:2d} PASS: {text}")


# -- criterion 1: special-function oracle suite ---------------------------------

def test_criterion_01_special_function_oracle():
    t0 = time.time()
    fixture = Path(__file__).parent / "fixtures" / "bessel_oracle.csv"
    rows = [(int(r["m"]), float(r["x"]), float(r["J"]), float(r["Y"]))
            for r in csv.DictReader(open(fixture))]
    assert len(rows) >= 500
    worst = 0.0
    for m, x, j, y in rows:
        ref = j - 1j * y
        worst = max(worst, abs(hankel2_orders(m, x)[m] - ref) / abs(ref))
    assert worst <= 1e-10

    rng = np.random.default_rng(101)
    from sfsynth.bessel import bessel_j_orders, bessel_y_orders
    worst_inv = 0.0
    for _ in range(100):
        m = int(rng.integers(0, 41))
        x = float(rng.uniform(0.1, 50.0))
        j = bessel_j_orders(m + 1, x)
        yv = bessel_y_orders(m + 1, x)
        wr = j[m] * yv[m + 1] - j[m + 1] * yv[m]
        worst_inv = max(worst_inv,
                        abs(wr + 2 / (np.pi * x)) / (2 / (np.pi * x)))
        if m >= 1:
            h = j - 1j * yv
            rhs = (2 * m / x) * h[m]
            worst_inv = max(worst_inv, abs(h[m - 1] + h[m + 1] - rhs) / abs(rhs))
    assert worst_inv <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _announce(1, f"hankel2_orders vs oracle worst rel {worst:.2e} (<=1e-10), "
                 f"invariants {worst_inv:.2e} (<=1e-9), {elapsed:.1f}s (<5s)")


# -- criterion 2: plane-wave expansion equivalence -------------------------------

def test_criterion_02_plane_wave_expansion():
    t0 = time.time()
    rng = np.random.default_rng(42)
    freqs = 46 + 23 * np.arange(63)
    worst = 0.0
    for _ in range(20):
        f = float(rng.choice(freqs))
        omega = 2 * np.pi * f
        k = omega / C
        rho_z = rng.uniform(1.5, 3.5)
        th_z = rng.uniform(0, 2 * np.pi)
        src = Source(position=rho_z * np.array([np.cos(th_z), np.sin(th_z)]))
        r_pt = rng.uniform(0.05, min(0.95, 0.45 * rho_z))
        th_pt = rng.uniform(0, 2 * np.pi)
        pt = r_pt * np.array([np.cos(th_pt), np.sin(th_pt)])
        # M satisfies the truncation bound for the field radius; walk
        # upward while the density coefficients stay numerically benign
        M = truncation_order(omega, r_pt, C)
        while M < truncation_order(omega, r_pt, C) + 60:
            if abs(hankel2_orders(M + 1, k * rho_z)[M + 1]) > 1e5:
                break
            M += 1
        n_quad = max(2048, 8 * M)
        from sfsynth.acoustics import herglotz_point_source
        th = 2 * np.pi * np.arange(n_quad) / n_quad
        phi = herglotz_point_source(th, omega, [src], M, C)[0]
        pw = np.exp(1j * k * (np.cos(th) * pt[0] + np.sin(th) * pt[1]))
        p_rec = np.mean(pw * phi)
        p_ref = green_matrix(pt[None, :], src.position[None, :], omega,
                             C)[0, 0]
        worst = max(worst, abs(p_rec - p_ref) / abs(p_ref))
    assert worst <= 1e-6
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _announce(2, f"20 triples, worst rel {worst:.2e} (<=1e-6), "
                 f"{elapsed:.1f}s (<30s)")


# -- criterion 3: MR circular reproduction ----------------------------------------

def test_criterion_03_mr_circular_reproduction():
    t0 = time.time()
    arr = make_circular_array(64, 1.0)
    grid = sample_listening_grid(ListeningArea.disk(0.8, 0.04))
    omega = 2 * np.pi * 500
    rng = np.random.default_rng(0)
    worst = -np.inf
    for _ in range(10):
        rho = rng.uniform(1.5, 3.5)
        th = rng.uniform(0, 2 * np.pi)
        src = Source(position=rho * np.array([np.cos(th), np.sin(th)]))
        d = mr_circular_driving(arr, [src], omega, C,
                                listening_radius=1.0)[:, 0]
        p_hat = green_matrix(grid.points, arr.active_positions, omega, C) @ d
        p = green_matrix(grid.points, src.position[None, :], omega, C)[:, 0]
        worst = max(worst, nre(p_hat, p))
    assert worst <= -15.0
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _announce(3, f"10 sources at 500 Hz, worst NRE {worst:.1f} dB "
                 f"(<=-15), {elapsed:.1f}s (<1min)")


# -- criterion 4: degradation ordering ---------------------------------------------

def test_criterion_04_degradation_ordering():
    t0 = time.time()
    full = make_circular_array(64, 1.0)
    grid = sample_listening_grid(ListeningArea.disk(0.8, 0.04))
    omega = 2 * np.pi * 500
    means = []
    for n_remove in (0, 16, 32, 48):
        arr = decimate_array(full, n_remove, seed=97)
        rng = np.random.default_rng(1)
        vals = []
        for _ in range(10):
            rho = rng.uniform(1.5, 3.5)
            th = rng.uniform(0, 2 * np.pi)
            src = Source(position=rho * np.array([np.cos(th), np.sin(th)]))
            d = mr_circular_driving(arr, [src], omega, C,
                                listening_radius=1.0)[:, 0]
            p_hat = green_matrix(grid.points, arr.active_positions, omega,
                                 C) @ d
            p = green_matrix(grid.points, src.position[None, :], omega,
                             C)[:, 0]
            vals.append(nre(p_hat, p))
        means.append(np.mean(vals))
    assert means[0] < means[1] < means[2] < means[3], means
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _announce(4, "mean MR NRE strictly increases L=64->48->32->16: "
                 + " -> ".join(f"{m:.1f}" for m in means)
                 + f" dB, {elapsed:.1f}s (<2min)")


# -- criterion 5: PM control-point residual -----------------------------------------

def test_criterion_05_pm_residual():
    t0 = time.time()
    import scipy.linalg as sla
    rng = np.random.default_rng(5)
    worst = {1e-6: 0.0, 1e-2: 0.0}
    for trial in range(5):
        g = (rng.normal(size=(100, 16)) + 1j * rng.normal(size=(100, 16)))
        g /= np.sqrt(2 * 16)
        d_true = rng.normal(size=16) + 1j * rng.normal(size=16)
        p_cp = g @ d_true
        for lam in (1e-6, 1e-2):
            d = sla.cho_solve(
                sla.cho_factor(g.conj().T @ g + lam * np.eye(16)),
                g.conj().T @ p_cp)
            res = np.linalg.norm(g @ d - p_cp) / np.linalg.norm(p_cp)
            worst[lam] = max(worst[lam], res)
    assert worst[1e-6] <= 1e-3
    assert worst[1e-2] <= 0.1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _announce(5, f"residuals {worst[1e-6]:.2e} (lam=1e-6, <=1e-3) and "
                 f"{worst[1e-2]:.2e} (lam=1e-2, <=0.1), {elapsed:.1f}s (<10s)")


# -- criterion 6: gradient check -----------------------------------------------------

def test_criterion_06_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(6)
    # the compensator chain at 16x15 with small channels: skip pair (1, 3),
    # a 4x3 transposed kernel and the padded stride-1 output layer
    rows, cols, n_cp = 16, 15, 5
    params = init_params(rows, cols, seed=6, channels=(4, 4, 4, 4, 4, 4, 1))
    g = (rng.normal(size=(cols, n_cp, rows // 2))
         + 1j * rng.normal(size=(cols, n_cp, rows // 2)))
    x = rng.normal(size=(rows, cols))
    p_gt = rng.normal(size=(n_cp, cols)) + 1j * rng.normal(size=(n_cp, cols))

    def full_loss():
        y, cache = forward(params, x[None, :, :, None])
        p = predict_control_pressure(unpack_driving(y[0, :, :, 0]), g)
        return loss(p, p_gt, W), cache, p

    base, cache, p = full_loss()
    # the loss is piecewise smooth; verify the draw sits away from kinks
    assert np.min(np.abs(np.abs(p_gt) - np.abs(p))) > 1e-3
    gp = loss_gradient(p, p_gt, W)
    gd = np.einsum("kil,ik->lk", g.conj(), gp)
    gt_tensor = np.concatenate([gd.real, gd.imag], axis=0)
    grads = backward(params, gt_tensor[None, :, :, None], cache)

    h = 1e-5
    worst = 0.0
    for pi, (arr, ana) in enumerate(zip(params.flat(), grads)):
        idxs = rng.choice(arr.size, size=min(10, arr.size), replace=False)
        for idx in idxs:
            flat = arr.ravel()
            old = flat[idx]
            flat[idx] = old + h
            lp, cache_p, _ = full_loss()
            flat[idx] = old - h
            lm, cache_m, _ = full_loss()
            flat[idx] = old
            for sign, step in (("+h", cache_p), ("-h", cache_m)):
                _assert_no_prelu_flip(cache, step,
                                      f"the {sign} step of parameter {pi}[{idx}]")
            num = (lp - lm) / (2 * h)
            a = float(ana.ravel()[idx])
            worst = max(worst, abs(num - a) / max(abs(num), abs(a), 1e-10))
    assert worst <= 1e-4
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _announce(6, f"analytic vs central differences worst rel {worst:.2e} "
                 f"(<=1e-4), {elapsed:.1f}s (<1min)")


# -- shared desk-scale fixtures -------------------------------------------------------

def _desk_record():
    """One desk-scale dataset record plus its propagation stack."""
    cfg = desk_config("circular")
    arr = cfg.array()
    cp = cfg.control_points()
    freq = cfg.freq_grid()
    src = Source(position=2.0 * np.array([np.cos(0.7), np.sin(0.7)]))
    from types import SimpleNamespace

    from sfsynth.compensator import pack_driving
    from sfsynth.datasets import control_pressures, mr_driving_matrix
    from sfsynth.renderers import pm_operators
    ops = pm_operators(arr, cp, freq, cfg.lam)
    d = mr_driving_matrix(arr, [src], freq, cp, ops,
                          cfg.mr_listening_radius())[0]
    rec = SimpleNamespace(tensor=pack_driving(d),
                          pressures=control_pressures([src], cp, freq)[0])
    return rec, np.stack([op.g_cp for op in ops])


# -- criterion 7: overfit-one smoke test ----------------------------------------------

@pytest.mark.slow
def test_criterion_07_overfit_single_record():
    t0 = time.time()
    rec, g = _desk_record()
    cfg = replace(W, learning_rate=1e-4, max_epochs=500, patience=500,
                  batch_size=1, train_seed=7)
    result = train_compensator([rec], [rec], cfg, g)
    initial = result.history[0][0]
    final = result.history[-1][0]
    assert final < 0.1 * initial, (initial, final)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _announce(7, f"single-record training loss {initial:.3f} -> {final:.3f} "
                 f"({final / initial:.1%} of initial, <10%), "
                 f"{elapsed:.0f}s (<5min)")


# -- criterion 8: desk-scale end to end ------------------------------------------------

@pytest.mark.slow
def test_criterion_08_desk_scale_end_to_end(tmp_path):
    t0 = time.time()
    cfg = desk_config("circular")
    assert cfg.max_epochs <= 300
    split = cfg.source_split()
    assert (len(split.train), len(split.val), len(split.test)) == (256, 64, 64)
    assert len(cfg.control_points()) in range(50, 90)
    manifest = run_experiment(cfg, tmp_path)
    rows = list(csv.DictReader(open(tmp_path / "metrics_nre_frequency.csv")))
    assert len(rows) == 15
    mr = np.array([float(r["mr"]) for r in rows])
    cnn = np.array([float(r["cnn"]) for r in rows])
    frac = float(np.mean(cnn <= mr))
    assert frac >= 0.7, f"CNN beats MR at only {frac:.0%} of frequencies"
    assert cnn.mean() < mr.mean()
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    _announce(8, f"CNN<=MR at {frac:.0%} of 15 frequencies (>=70%), "
                 f"mean NRE CNN {cnn.mean():.1f} vs MR {mr.mean():.1f} dB, "
                 f"{elapsed:.0f}s (<30min)")


# -- criterion 9: metric self-tests ------------------------------------------------------

def test_criterion_09_metric_self_tests():
    t0 = time.time()
    p = np.array([1 + 1j, -2.0, 3j, 0.5])
    assert nre(p, p) == -300.0
    assert nre(np.zeros(4), p) == pytest.approx(0.0, abs=1e-12)
    x = np.random.default_rng(9).uniform(0, 1, 64)
    assert ssim_global(x, x) == pytest.approx(1.0, abs=1e-15)
    expected = 1e-4 / 1.0001
    got = ssim_global(np.zeros(64), np.ones(64))
    assert got == pytest.approx(expected, abs=1e-12)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _announce(9, f"NRE clamp/zero cases and SSIM closed forms exact, "
                 f"{elapsed:.2f}s (<1s)")


# -- criterion 10: pipeline determinism ----------------------------------------------------

def _hashes(out: Path, patterns):
    found = {}
    for pat in patterns:
        for p in sorted(out.glob(pat)):
            found[p.name] = sha256_file(p)
    return found


@pytest.mark.slow
def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    # full desk-scale pipeline twice with the classical methods: covers
    # dataset and metric determinism end to end
    cfg_classic = replace(desk_config("circular"), methods=("mr", "pm"))
    h = []
    for sub in ("a", "b"):
        run_experiment(cfg_classic, tmp_path / sub)
        h.append(_hashes(tmp_path / sub, ("dataset.sfsx", "metrics_*.csv")))
    assert h[0] == h[1]
    assert len(h[0]) == 5

    # desk geometry with the network enabled at a reduced epoch budget:
    # covers training, checkpoint and cnn-metric determinism (bit-exact
    # training at full length is separately pinned by the unit tests)
    cfg_cnn = replace(desk_config("circular"), max_epochs=25, patience=25,
                      n_radii=8, n_angles=8, val_count=16, n_test=16)
    h2 = []
    for sub in ("c", "d"):
        run_experiment(cfg_cnn, tmp_path / sub)
        h2.append(_hashes(tmp_path / sub,
                          ("dataset.sfsx", "metrics_*.csv",
                           "checkpoint.sfsm")))
    assert h2[0] == h2[1]
    assert "checkpoint.sfsm" in h2[0]
    elapsed = time.time() - t0
    _announce(10, f"byte-identical dataset/metric/checkpoint hashes across "
                  f"repeated runs, {elapsed:.0f}s")
