"""Packing, the magnitude/phase loss, gradients through the propagation
layer, and the training loop."""

import hashlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sfsynth.compensator import (
    TrainConfig,
    TrainingDivergedError,
    compensate,
    evaluate_loss,
    loss,
    loss_gradient,
    pack_driving,
    predict_control_pressure,
    train_compensator,
    unpack_driving,
)
from sfsynth.network import backward, forward, init_params

# the paper's loss weights; each training test sets its own Adam and
# early-stopping values
W = TrainConfig(learning_rate=1e-4, max_epochs=5000, patience=100,
                batch_size=32, seed=0, lambda_abs=25.0, lambda_phase=1.0)


# -- pack / unpack -------------------------------------------------------------

def test_pack_single_entry():
    t = pack_driving(np.array([[2 + 3j]]))
    assert np.array_equal(t, [[2.0], [3.0]])


def test_pack_real_matrix_zero_lower_half():
    d = np.arange(6.0).reshape(2, 3) + 0j
    t = pack_driving(d)
    assert np.all(t[2:] == 0)


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(0)
    d = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    assert np.array_equal(unpack_driving(pack_driving(d)), d)
    t = rng.normal(size=(8, 3))
    assert np.array_equal(pack_driving(unpack_driving(t)), t)


def test_unpack_examples():
    assert np.array_equal(unpack_driving(np.array([[0.0], [1.0]])),
                          np.array([[1j]]))
    assert np.all(unpack_driving(np.zeros((4, 2))) == 0)
    with pytest.raises(ValueError):
        unpack_driving(np.zeros((3, 2)))


# -- propagation layer ----------------------------------------------------------

def test_predict_scalar_case():
    g = np.array([[[0.5 - 0.5j]]])          # (K=1, I=1, L=1)
    d = np.array([[2.0 + 0j]])              # (L=1, K=1)
    p = predict_control_pressure(d, g)
    assert p[0, 0] == (0.5 - 0.5j) * 2.0


def test_predict_zero_and_linearity():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(4, 6, 3)) + 1j * rng.normal(size=(4, 6, 3))
    d1 = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    d2 = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    assert np.all(predict_control_pressure(np.zeros_like(d1), g) == 0)
    a, b = 1.5 - 0.5j, -2.0 + 1.0j
    lhs = predict_control_pressure(a * d1 + b * d2, g)
    rhs = a * predict_control_pressure(d1, g) + b * predict_control_pressure(d2, g)
    assert np.allclose(lhs, rhs, rtol=1e-13)


def test_predict_matches_synthesize():
    from sfsynth.acoustics import green_matrix
    from sfsynth.geometry import (ListeningArea, make_circular_array,
                                  sample_control_points)
    arr = make_circular_array(8, 1.0)
    cp = sample_control_points(ListeningArea.disk(0.8, 0.04), 30,
                               clearance_from=arr)
    freqs = np.array([200.0, 500.0])
    rng = np.random.default_rng(2)
    d = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    g = np.stack([green_matrix(cp.points, arr.active_positions,
                               2 * np.pi * f, 343.0) for f in freqs])
    p = predict_control_pressure(d, g)
    for ki, f in enumerate(freqs):
        ref = green_matrix(cp.points, arr.active_positions, 2 * np.pi * f,
                           343.0) @ d[:, ki]
        assert np.allclose(p[:, ki], ref, rtol=1e-13)


# -- loss -----------------------------------------------------------------------

def test_loss_zero_when_equal():
    rng = np.random.default_rng(3)
    p = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    assert loss(p, p, W) == 0.0


def test_loss_pi_phase_flip():
    assert loss(np.array([[-1.0 + 0j]]), np.array([[1.0 + 0j]]), W) \
        == pytest.approx(np.pi)


def test_loss_pure_magnitude_gap():
    assert loss(np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]]), W) \
        == pytest.approx(25.0)


def test_loss_nonnegative_and_wrap():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert loss(a, b, W) >= 0
    # wrapped difference: angles 0.1 and 2 pi - 0.1 are 0.2 apart
    p1 = np.array([[np.exp(1j * 0.1)]])
    p2 = np.array([[np.exp(-1j * 0.1)]])
    assert loss(p1, p2, replace(W, lambda_abs=0.0)) == pytest.approx(0.2)


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    p = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    gt = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    g = loss_gradient(p, gt, W)
    h = 1e-7
    for idx in np.ndindex(3, 4):
        pr = p.copy()
        pr[idx] += h
        num_re = (loss(pr, gt, W) - loss(p, gt, W)) / h
        pi = p.copy()
        pi[idx] += 1j * h
        num_im = (loss(pi, gt, W) - loss(p, gt, W)) / h
        assert num_re == pytest.approx(g[idx].real, rel=1e-4, abs=1e-8)
        assert num_im == pytest.approx(g[idx].imag, rel=1e-4, abs=1e-8)


# -- full gradient through network + propagation ---------------------------------

def _tiny_setup(seed=7):
    # the draw of seed 6 samples a kernel gradient of 3.5e-7, below what a
    # central difference with h = 1e-5 resolves on a loss of ~28
    # (round-off ~5e-10)
    rng = np.random.default_rng(seed)
    rows, cols = 16, 15
    params = init_params(rows, cols, seed=seed, channels=(4, 4, 4, 4, 4, 4, 1))
    n_cp = 5
    g = (rng.normal(size=(cols, n_cp, rows // 2))
         + 1j * rng.normal(size=(cols, n_cp, rows // 2)))
    x = rng.normal(size=(rows, cols))
    p_gt = rng.normal(size=(n_cp, cols)) + 1j * rng.normal(size=(n_cp, cols))
    return params, g, x, p_gt


def _full_loss(params, g, x, p_gt):
    y, cache = forward(params, x[None, :, :, None])
    d = unpack_driving(y[0, :, :, 0])
    p = predict_control_pressure(d, g)
    return loss(p, p_gt, W), cache, p


def _assert_no_prelu_flip(base_cache, step_cache, what):
    # a step across a PReLU kink breaks the central difference, so report
    # it as a kink rather than as a gradient mismatch
    for i, (a, b) in enumerate(zip(base_cache, step_cache)):
        if "neg" in a:
            assert np.array_equal(a["neg"], b["neg"]), \
                f"{what} flips a PReLU sign in layer {i} (kink)"


def test_full_chain_gradient_check():
    """Analytic parameter gradients of the complete loss, through the
    fixed propagation layer, against central finite differences."""
    params, g, x, p_gt = _tiny_setup()
    base, cache, p = _full_loss(params, g, x, p_gt)
    # stay away from the |.| kinks so the finite-difference window is clean
    assert np.min(np.abs(np.abs(p_gt) - np.abs(p))) > 1e-3
    gp = loss_gradient(p, p_gt, W)
    gd = np.einsum("kil,ik->lk", g.conj(), gp)
    gt_tensor = np.concatenate([gd.real, gd.imag], axis=0)
    grads = backward(params, gt_tensor[None, :, :, None], cache)

    rng = np.random.default_rng(8)
    worst = 0.0
    h = 1e-5
    for pi, (arr, ana) in enumerate(zip(params.flat(), grads)):
        idxs = rng.choice(arr.size, size=min(6, arr.size), replace=False)
        for idx in idxs:
            flat = arr.ravel()
            old = flat[idx]
            flat[idx] = old + h
            lp, cache_p, _ = _full_loss(params, g, x, p_gt)
            flat[idx] = old - h
            lm, cache_m, _ = _full_loss(params, g, x, p_gt)
            flat[idx] = old
            for sign, step in (("+h", cache_p), ("-h", cache_m)):
                _assert_no_prelu_flip(cache, step,
                                      f"the {sign} step of parameter {pi}[{idx}]")
            num = (lp - lm) / (2 * h)
            a = float(ana.ravel()[idx])
            rel = abs(num - a) / max(abs(num), abs(a), 1e-10)
            worst = max(worst, rel)
    assert worst <= 1e-4, f"worst full-chain gradient error {worst:.3e}"


# -- training loop ----------------------------------------------------------------

def _toy_records(rows=16, cols=15, n_cp=6, count=3, seed=8):
    rng = np.random.default_rng(seed)
    g = (rng.normal(size=(cols, n_cp, rows // 2))
         + 1j * rng.normal(size=(cols, n_cp, rows // 2))) / 3
    recs = []
    for _ in range(count):
        t = rng.normal(size=(rows, cols))
        p = rng.normal(size=(n_cp, cols)) + 1j * rng.normal(size=(n_cp, cols))
        recs.append(SimpleNamespace(tensor=t, pressures=p))
    return recs, g


def test_training_deterministic():
    recs, g = _toy_records()
    cfg = replace(W, learning_rate=1e-3, max_epochs=4, patience=4,
                  batch_size=2, seed=123)
    r1 = train_compensator(recs[:2], recs[2:], cfg, g)
    r2 = train_compensator(recs[:2], recs[2:], cfg, g)
    assert r1.best_val_loss == r2.best_val_loss
    for a, b in zip(r1.params.flat(), r2.params.flat()):
        assert np.array_equal(a, b)


def test_training_patience_zero_stops_on_first_regression():
    recs, g = _toy_records(seed=9)
    # a large step size makes the validation loss bounce within a few epochs
    cfg = replace(W, learning_rate=0.5, max_epochs=200, patience=0,
                  batch_size=2, seed=0)
    r = train_compensator(recs[:2], recs[2:], cfg, g)
    vals = [v for _, v in r.history]
    assert r.epochs_run < cfg.max_epochs
    # every epoch before the last strictly improved the running best;
    # the final epoch is the first that did not
    running = np.inf
    for v in vals[:-1]:
        assert v < running
        running = v
    assert vals[-1] >= running


def test_training_requires_splits():
    recs, g = _toy_records()
    cfg = replace(W, max_epochs=1, patience=0)
    with pytest.raises(ValueError):
        train_compensator([], recs, cfg, g)
    with pytest.raises(ValueError):
        train_compensator(recs, [], cfg, g)


def test_training_divergence_reported():
    recs, g = _toy_records(seed=10)
    bad = [SimpleNamespace(tensor=r.tensor * np.inf, pressures=r.pressures)
           for r in recs]
    cfg = replace(W, learning_rate=1e-3, max_epochs=2, patience=2)
    with np.errstate(invalid="ignore"):
        with pytest.raises((TrainingDivergedError, ValueError)):
            train_compensator(bad[:2], bad[2:], cfg, g)


def test_overfit_single_record_smoke():
    # scaled-down version of the acceptance criterion: one record, the
    # training loss must collapse well below its starting value
    recs, g = _toy_records(count=1, seed=11)
    cfg = replace(W, learning_rate=1e-3, max_epochs=60, patience=60,
                  batch_size=1, seed=1)
    r = train_compensator(recs, recs, cfg, g)
    first = r.history[0][0]
    last = r.history[-1][0]
    assert last < 0.5 * first


def test_best_epoch_parameters_returned():
    recs, g = _toy_records(count=4, seed=12)
    cfg = replace(W, learning_rate=1e-3, max_epochs=6, patience=6,
                  batch_size=2, seed=2)
    r = train_compensator(recs[:2], recs[2:], cfg, g)
    # the loss the best epoch measured, not a recomputation of it
    assert evaluate_loss(r.params, recs[2:], g, cfg) == r.best_val_loss


def test_trained_parameters_bytes_pinned():
    # the parameters of the best epoch (2 of 3) after a short float32
    # run; the toy records involve no Bessel call, so only a change to
    # the initialization, the shuffles, a training step or the training
    # dtype moves this hash.  It hashes the float64 upcast, which earlier
    # versions returned, so the trained values are pinned across them
    recs, g = _toy_records(count=4, seed=13)
    cfg = replace(W, learning_rate=1e-3, max_epochs=3, patience=3,
                  batch_size=2, seed=5)
    r = train_compensator(recs[:2], recs[2:], cfg, g)
    assert (r.best_epoch, r.epochs_run) == (2, 3)
    assert all(p.dtype == np.float32 for p in r.params.flat())
    digest = hashlib.sha256()
    for p in r.params.flat():
        digest.update(p.astype(np.float64).tobytes())
    assert digest.hexdigest() == \
        "827cb2b9712df91939786953c8c023624c5d4f4957c7161cc835d50e71aca7d1"


# -- compensate -------------------------------------------------------------------

def test_compensate_zero_params_zero_output():
    p = init_params(16, 15, seed=0)
    for k in p.kernels:
        k[:] = 0
    for b in p.biases:
        b[:] = 0
    out = compensate(np.ones((3, 8, 15), complex), p)
    assert out.shape == (3, 8, 15)
    assert np.all(out == 0)


def test_compensate_geometry_mismatch():
    p = init_params(16, 15, seed=0)
    with pytest.raises(ValueError, match="trained geometry"):
        compensate(np.ones((1, 7, 15), complex), p)
    # one source's (L, K) matrix is not a batch
    with pytest.raises(ValueError, match="trained geometry"):
        compensate(np.ones((8, 15), complex), p)


def test_compensate_rejects_non_finite():
    p = init_params(16, 15, seed=0)
    d = np.ones((2, 8, 15), complex)
    d[1, 3, 4] = np.inf
    with pytest.raises(ValueError, match="finite"):
        compensate(d, p)


def test_compensate_batch_matches_one_source_calls():
    p = init_params(16, 15, seed=5)
    rng = np.random.default_rng(21)
    d = rng.normal(size=(5, 8, 15)) + 1j * rng.normal(size=(5, 8, 15))
    batched = compensate(d, p)
    for s in range(len(d)):
        np.testing.assert_allclose(batched[s], compensate(d[s:s + 1], p)[0],
                                   rtol=1e-12, atol=0)
