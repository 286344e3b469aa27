"""Network machinery: shape solver, forward/backward consistency and the
optimizer."""

import numpy as np
import pytest

from sfsynth.network import (
    Adam,
    LayerSpec,
    backward,
    compensator_layers,
    forward,
    init_params,
)


def tiny_params(seed=2, rows=8, cols=9):
    """2 conv + 2 transposed-conv, 4 channels; skip from layer 0 to 2."""
    specs = [
        LayerSpec("conv", 1, 4, 3, 3),
        LayerSpec("conv", 4, 4, 3, 3),
        LayerSpec("tconv", 4, 4, 3, 4),
        LayerSpec("tconv", 4, 1, 4, 3, act="linear"),
    ]
    p = init_params(rows, cols, seed=seed, layers=specs, skip=(0, 2))
    rng = np.random.default_rng(seed + 1)
    for i in range(len(p.layers)):
        p.biases[i][:] = rng.normal(0, 0.1, p.biases[i].shape)
    return p


def test_shape_solver_full_scale():
    specs = compensator_layers(128, 63)
    chans = [sp.out_ch for sp in specs]
    assert chans == [128, 256, 512, 256, 128, 128, 1]
    # the layer restoring the loudspeaker axis needs the taller kernel
    assert (specs[5].kh, specs[5].kw) == (4, 3)
    assert specs[6].sh == 1 and specs[6].ph == 1 and specs[6].act == "linear"
    h, w = 128, 63
    for sp in specs:
        h, w = sp.out_shape(h, w)
    assert (h, w) == (128, 63)


def test_shape_solver_desk_scale():
    specs = compensator_layers(16, 15)
    h, w = 16, 15
    shapes = []
    for sp in specs:
        h, w = sp.out_shape(h, w)
        shapes.append((h, w))
    assert shapes[-1] == (16, 15)
    assert shapes[2] == (1, 1)          # encoder bottleneck
    assert shapes[1] == shapes[3]       # skip shapes line up


def test_shape_solver_32x15():
    specs = compensator_layers(32, 15)
    h, w = 32, 15
    for sp in specs:
        h, w = sp.out_shape(h, w)
    assert (h, w) == (32, 15)


def test_shape_solver_rejects_small_input():
    with pytest.raises(ValueError):
        compensator_layers(8, 9)
    with pytest.raises(ValueError):
        compensator_layers(16, 13)


def test_forward_full_scale_shape():
    # 64-loudspeaker, 63-frequency geometry: (128, 63) in and out
    p = init_params(128, 63, seed=0)
    out, _ = forward(p, np.zeros((1, 128, 63, 1)))
    assert out.shape == (1, 128, 63, 1)


def test_forward_output_shape_and_zero_params():
    p = init_params(16, 15, seed=0)
    x = np.random.default_rng(1).normal(size=(1, 16, 15, 2))
    y, _ = forward(p, x)
    assert y.shape == (1, 16, 15, 2)
    for k in p.kernels:
        k[:] = 0
    for b in p.biases:
        b[:] = 0
    y, _ = forward(p, x)
    assert np.all(y == 0)


def test_forward_shape_validation():
    p = init_params(16, 15, seed=0)
    out, _ = forward(p, np.zeros((1, 16, 15, 1)))
    assert out.shape == (1, 16, 15, 1)
    with pytest.raises(ValueError):
        forward(p, np.zeros((1, 16, 14, 1)))


def test_identity_single_layer():
    # a single stride-1 same-padded layer with a centred delta kernel
    # reproduces its input exactly
    spec = LayerSpec("tconv", 1, 1, 3, 3, sh=1, sw=1, ph=1, pw=1, act="linear")
    p = init_params(6, 7, seed=0, layers=[spec], skip=None)
    p.kernels[0][:] = 0
    p.kernels[0][0, 0, 1, 1] = 1.0
    p.biases[0][:] = 0
    x = np.random.default_rng(3).normal(size=(1, 6, 7, 1))
    assert np.allclose(forward(p, x)[0], x, atol=1e-15)


def _numeric_grad(p, x, wmask, arr, idx, h=1e-5):
    flat = arr.ravel()
    old = flat[idx]
    flat[idx] = old + h
    yp, _ = forward(p, x)
    flat[idx] = old - h
    ym, _ = forward(p, x)
    flat[idx] = old
    return float(((yp - ym) * wmask).sum() / (2 * h))


def test_parameter_gradients_match_finite_differences():
    p = tiny_params()
    rng = np.random.default_rng(10)
    x = rng.normal(size=(1, 8, 9, 2))
    wmask = rng.normal(size=(1, 8, 9, 2))
    y, cache = forward(p, x)
    grads = backward(p, wmask, cache)
    gi = 0
    worst = 0.0
    for i in range(len(p.layers)):
        arrays = [p.kernels[i], p.biases[i]]
        if p.slopes[i] is not None:
            arrays.append(p.slopes[i])
        for arr in arrays:
            g = grads[gi]
            gi += 1
            idxs = rng.choice(arr.size, size=min(8, arr.size), replace=False)
            for idx in idxs:
                num = _numeric_grad(p, x, wmask, arr, idx)
                ana = float(g.ravel()[idx])
                rel = abs(num - ana) / max(abs(num), abs(ana), 1e-10)
                worst = max(worst, rel)
    assert worst <= 1e-6, f"worst gradient relative error {worst:.3e}"


def test_gradients_without_skip():
    specs = [
        LayerSpec("conv", 1, 3, 3, 3),
        LayerSpec("tconv", 3, 1, 4, 3, act="linear"),
    ]
    p = init_params(8, 9, seed=4, layers=specs, skip=None)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1, 8, 9, 3))
    wmask = rng.normal(size=(1, 8, 9, 3))
    _, cache = forward(p, x)
    grads = backward(p, wmask, cache)
    arr = p.kernels[0]
    num = _numeric_grad(p, x, wmask, arr, 5)
    assert num == pytest.approx(float(grads[0].ravel()[5]), rel=1e-7)


def test_param_count_and_flat_order():
    p = init_params(16, 15, seed=0)
    flat = p.flat()
    # kernel, bias, slope per PReLU layer; kernel, bias for the linear one
    assert len(flat) == 6 * 3 + 2
    assert p.param_count() == sum(a.size for a in flat)
    assert flat[0] is p.kernels[0]
    assert flat[1] is p.biases[0]
    assert flat[2] is p.slopes[0]


def test_adam_converges_on_quadratic():
    rng = np.random.default_rng(0)
    target = rng.normal(size=(5,))
    x = [np.zeros(5)]
    opt = Adam(x, lr=0.05)
    for _ in range(800):
        g = [2 * (x[0] - target)]
        opt.step(x, g)
    assert np.allclose(x[0], target, atol=1e-4)


def test_init_deterministic():
    a = init_params(16, 15, seed=42)
    b = init_params(16, 15, seed=42)
    for ka, kb in zip(a.kernels, b.kernels):
        assert np.array_equal(ka, kb)
    c = init_params(16, 15, seed=43)
    assert not np.array_equal(a.kernels[0], c.kernels[0])
