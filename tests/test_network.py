"""Network machinery: shape solver, forward/backward consistency, a
direct-sum forward oracle and the optimizer."""

import numpy as np
import pytest

from sfsynth.network import (
    SKIP_DST,
    SKIP_SRC,
    Adam,
    backward,
    compensator_layers,
    forward,
    init_params,
)

SMALL_CHANNELS = (4, 4, 4, 4, 4, 4, 1)


def small_params(seed=2):
    """The compensator chain for a 16x15 input with four channels per
    hidden layer, random biases and per-channel PReLU slopes."""
    p = init_params(16, 15, seed=seed, channels=SMALL_CHANNELS)
    rng = np.random.default_rng(seed + 1)
    for b, s in zip(p.biases, p.slopes):
        b[:] = rng.normal(0, 0.1, b.shape)
        if s is not None:
            s[:] = rng.uniform(0.1, 0.4, s.shape)
    return p


def test_shape_solver_full_scale():
    specs = compensator_layers(128, 63)
    chans = [sp.out_ch for sp in specs]
    assert chans == [128, 256, 512, 256, 128, 128, 1]
    # the layer restoring the loudspeaker axis needs the taller kernel
    assert (specs[5].kh, specs[5].kw) == (4, 3)
    assert specs[6].sh == 1 and specs[6].ph == 1
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


def _reference_forward(p, x, masks=None):
    """Direct-sum forward pass of one (rows, cols) sample: explicit loops
    over every output pixel of a convolution, every input pixel of a
    transposed convolution, the padding crop, PReLU and the skip add.

    Runs in the dtype of the parameters and input, complex included.
    `masks[i]`, when given, is layer i's (out_ch, h, w) PReLU negative
    side in place of `y < 0`, so the pass is a polynomial in p and x."""
    cur = x
    acts = []
    for i, sp in enumerate(p.layers):
        c, h, w = cur.shape
        ker = p.kernels[i]
        dtype = np.result_type(cur, ker)
        if sp.kind == "conv":
            ho, wo = (h - sp.kh) // sp.sh + 1, (w - sp.kw) // sp.sw + 1
            y = np.zeros((sp.out_ch, ho, wo), dtype=dtype)
            for o in range(sp.out_ch):
                for r in range(ho):
                    for q in range(wo):
                        patch = cur[:, r * sp.sh:r * sp.sh + sp.kh,
                                    q * sp.sw:q * sp.sw + sp.kw]
                        y[o, r, q] = np.sum(ker[o] * patch)
        else:
            full = np.zeros((sp.out_ch, (h - 1) * sp.sh + sp.kh,
                             (w - 1) * sp.sw + sp.kw), dtype=dtype)
            for ci in range(c):
                for r in range(h):
                    for q in range(w):
                        full[:, r * sp.sh:r * sp.sh + sp.kh,
                             q * sp.sw:q * sp.sw + sp.kw] += cur[ci, r, q] * ker[ci]
            y = full[:, sp.ph:full.shape[1] - sp.ph, sp.pw:full.shape[2] - sp.pw]
        y = y + p.biases[i][:, None, None]
        if p.slopes[i] is not None:
            neg = y < 0 if masks is None else masks[i]
            y = np.where(neg, p.slopes[i][:, None, None] * y, y)
        acts.append(y)
        cur = y + acts[SKIP_SRC] if i == SKIP_DST else y
    return cur


def test_forward_matches_direct_sum_reference():
    p = small_params(seed=5)
    # the real chain: skip pair (1, 3), a 4x3 transposed kernel and the
    # padded stride-1 linear output layer
    assert (SKIP_SRC, SKIP_DST) == (1, 3)
    assert any((sp.kh, sp.kw) == (4, 3) for sp in p.layers)
    assert (p.layers[-1].sh, p.layers[-1].ph, p.slopes[-1]) == (1, 1, None)
    x = np.random.default_rng(6).normal(size=(1, 16, 15, 3))
    y, _ = forward(p, x)
    for j in range(x.shape[-1]):
        np.testing.assert_allclose(y[..., j], _reference_forward(p, x[..., j]),
                                   rtol=1e-12, atol=0)


def test_backward_is_adjoint_of_complex_step_derivative():
    # dot-product test of the adjoint: <v, J u> = <backward(v), u> for a
    # random direction u over every parameter at once and a random output
    # cotangent v.  With the PReLU masks frozen at the base point the
    # chain is a polynomial in its parameters, so the complex step gives
    # J u = Im f(p + i h u) / h with no subtractive cancellation
    # (Squire & Trapp, SIAM Rev. 40(1), 1998); h = 1e-30 leaves only
    # round-off.  This draw agrees to 2.8e-15 relative
    p = small_params(seed=8)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(1, 16, 15, 2))
    v = rng.normal(size=(1, 16, 15, 2))
    _, caches = forward(p, x)
    grads = backward(p, v, caches)
    u = [rng.normal(size=a.shape) for a in p.flat()]
    h = 1e-30
    pc = p.astype(np.float64)
    for i in range(len(pc.layers)):
        pc.kernels[i] = pc.kernels[i] + 0j
        pc.biases[i] = pc.biases[i] + 0j
        if pc.slopes[i] is not None:
            pc.slopes[i] = pc.slopes[i] + 0j
    for a, du in zip(pc.flat(), u):
        a += 1j * h * du
    jvp = 0.0
    for j in range(x.shape[-1]):
        masks = [c["neg"][..., j] if "neg" in c else None for c in caches]
        y = _reference_forward(pc, x[..., j], masks)
        jvp += float(np.sum(v[..., j] * y.imag)) / h
    vjp = sum(float(np.sum(g * du)) for g, du in zip(grads, u))
    rel = abs(jvp - vjp) / max(abs(jvp), abs(vjp))
    assert rel <= 1e-10, f"<v, J u> = {jvp!r}, <J^T v, u> = {vjp!r}, rel {rel:.2e}"


def test_float32_backward_is_adjoint_of_float64_complex_step_derivative():
    # the dot-product test above for the float32 network that training
    # runs: float32 parameters, input and cotangent, and the PReLU masks
    # of the float32 forward.  The reference is the float64 complex-step
    # J u at the same values, upcast (exactly).  Bound, set before the
    # first run: each of the 14 GEMM/scatter stages (7 forward, 7
    # backward) rounds sums of at most 480 terms (a kernel gradient over
    # 16 x 15 pixels x 2 samples); with float32's unit round-off
    # u = 2^-24 = 6e-8 and random rounding, a stage adds about
    # sqrt(480) u = 1.3e-6 relative and the chain about 14 times that,
    # 1.8e-5; 1e-4 leaves a factor of 5.  This draw agrees to 7.4e-7
    p = small_params(seed=8).astype(np.float32)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(1, 16, 15, 2)).astype(np.float32)
    v = rng.normal(size=(1, 16, 15, 2)).astype(np.float32)
    _, caches = forward(p, x)
    grads = backward(p, v, caches)
    assert all(g.dtype == np.float32 for g in grads)
    u = [rng.normal(size=a.shape) for a in p.flat()]
    h = 1e-30
    pc = p.astype(np.complex128)
    for a, du in zip(pc.flat(), u):
        a += 1j * h * du
    jvp = 0.0
    for j in range(x.shape[-1]):
        masks = [c["neg"][..., j] if "neg" in c else None for c in caches]
        y = _reference_forward(pc, x[..., j], masks)
        jvp += float(np.sum(v[..., j] * y.imag)) / h
    vjp = sum(float(np.sum(g * du)) for g, du in zip(grads, u))
    rel = abs(jvp - vjp) / max(abs(jvp), abs(vjp))
    assert rel <= 1e-4, f"<v, J u> = {jvp!r}, <J^T v, u> = {vjp!r}, rel {rel:.2e}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_network_computes_in_parameter_dtype(dtype):
    # a stray float64 constant, np.pad or np.where would promote a
    # float32 network to float64 without failing anything else
    p = small_params(seed=3).astype(dtype)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(1, 16, 15, 2))
    y, caches = forward(p, x)
    grads = backward(p, rng.normal(size=y.shape), caches)
    opt = Adam(p.flat(), lr=1e-3)
    opt.step(p.flat(), grads)
    arrays = {"output": y}
    for i, cache in enumerate(caches):
        arrays.update({f"cache {i} {k}": a for k, a in cache.items()
                       if isinstance(a, np.ndarray) and a.dtype != bool})
    for name, group in (("gradient", grads), ("parameter", p.flat()),
                        ("Adam m", opt.m), ("Adam v", opt.v)):
        arrays.update({f"{name} {i}": a for i, a in enumerate(group)})
    wrong = {name: a.dtype for name, a in arrays.items() if a.dtype != dtype}
    assert not wrong, wrong


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
    p = small_params()
    rng = np.random.default_rng(10)
    x = rng.normal(size=(1, 16, 15, 2))
    wmask = rng.normal(size=(1, 16, 15, 2))
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


def test_gradients_through_skip_branch():
    # the kernels up to the skip source reach the output along both the
    # decoder path and the skip branch
    p = small_params(seed=4)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1, 16, 15, 3))
    wmask = rng.normal(size=(1, 16, 15, 3))
    _, cache = forward(p, x)
    grads = backward(p, wmask, cache)
    for layer, gi in ((0, 0), (SKIP_SRC, 3)):
        num = _numeric_grad(p, x, wmask, p.kernels[layer], 5)
        assert num == pytest.approx(float(grads[gi].ravel()[5]), rel=1e-7)


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
