"""Convolutional compensator network: layer specification, shape solver,
forward/backward passes and the Adam optimizer.

The network computes in the dtype of its parameters: forward and
backward cast their input to it, and Adam's moments follow it.  The
trained model is float32 from training through its checkpoint to the
sweep and render (the loss around the network stays float64);
init_params draws float64, which the gradient checks run.  Feature maps
use the layout (channels, height, width, batch): the batch axis sits
innermost so the im2col gather and the column/weight matmuls stay
contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMPENSATOR_CHANNELS = (128, 256, 512, 256, 128, 128, 1)
# output of encoder layer SKIP_SRC is added to the output of decoder
# layer SKIP_DST before the next layer runs
SKIP_SRC = 1
SKIP_DST = 3
# initial PReLU slope, also the negative-side gain the init variance assumes
PRELU_INIT_SLOPE = 0.25
# Adam moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LayerSpec:
    kind: str            # "conv" | "tconv"
    in_ch: int
    out_ch: int
    kh: int
    kw: int
    sh: int = 2
    sw: int = 2
    ph: int = 0
    pw: int = 0

    def out_shape(self, h: int, w: int) -> tuple:
        if self.kind == "conv":
            return ((h + 2 * self.ph - self.kh) // self.sh + 1,
                    (w + 2 * self.pw - self.kw) // self.sw + 1)
        return ((h - 1) * self.sh + self.kh - 2 * self.ph,
                (w - 1) * self.sw + self.kw - 2 * self.pw)

    def kernel_shape(self) -> tuple:
        if self.kind == "conv":
            return (self.out_ch, self.in_ch, self.kh, self.kw)
        return (self.in_ch, self.out_ch, self.kh, self.kw)


def compensator_layers(rows: int, cols: int,
                       channels: tuple = COMPENSATOR_CHANNELS) -> list:
    """Derive the 7-layer chain for a (rows, cols) input.

    Encoder: three stride-2 valid 3x3 convolutions.  Decoder: three
    stride-2 transposed convolutions whose kernel heights/widths (3 or 4)
    are solved so each one exactly inverts the matching encoder shape,
    then a stride-1 zero-padded output layer.  Every layer but that last,
    linear one is followed by a PReLU.  Raises when no 3/4 kernel chain
    can reproduce the input shape (input too small).
    """
    if len(channels) != 7:
        raise ValueError("seven channel counts expected")
    shapes = [(rows, cols)]
    h, w = rows, cols
    for _ in range(3):
        if h < 3 or w < 3:
            raise ValueError(
                f"input {rows}x{cols} is too small for the three-level encoder")
        h = (h - 3) // 2 + 1
        w = (w - 3) // 2 + 1
        shapes.append((h, w))
    specs = []
    in_ch = 1
    for i in range(3):
        specs.append(LayerSpec("conv", in_ch, channels[i], 3, 3))
        in_ch = channels[i]
    for i, tgt in enumerate((shapes[2], shapes[1], shapes[0])):
        src = shapes[3 - i]
        kh = tgt[0] - (src[0] - 1) * 2
        kw = tgt[1] - (src[1] - 1) * 2
        if kh not in (3, 4) or kw not in (3, 4):
            raise ValueError(
                f"no 3x3/4x3 transposed kernel maps {src} back to {tgt}")
        specs.append(LayerSpec("tconv", in_ch, channels[3 + i], kh, kw))
        in_ch = channels[3 + i]
    specs.append(LayerSpec("tconv", in_ch, channels[6], 3, 3, sh=1, sw=1,
                           ph=1, pw=1))
    return specs


@dataclass
class ModelParams:
    """All learnable parameters of the compensator chain for a
    (rows, cols) input."""

    rows: int
    cols: int
    kernels: list                    # list[np.ndarray]
    biases: list                     # list[np.ndarray]
    slopes: list                     # PReLU slopes; None for the last layer

    @property
    def layers(self) -> list:
        """The layer table, derived from the input shape and the channel
        counts (the bias sizes)."""
        return compensator_layers(self.rows, self.cols,
                                  tuple(b.size for b in self.biases))

    def flat(self) -> list:
        """Parameter arrays in declaration order: kernel, bias, slope."""
        out = []
        for k, b, s in zip(self.kernels, self.biases, self.slopes):
            out += [k, b] if s is None else [k, b, s]
        return out

    def param_count(self) -> int:
        return sum(p.size for p in self.flat())

    @property
    def dtype(self) -> np.dtype:
        return self.kernels[0].dtype

    def astype(self, dtype) -> "ModelParams":
        """A copy with every parameter array cast to dtype."""
        return ModelParams(
            rows=self.rows, cols=self.cols,
            kernels=[k.astype(dtype) for k in self.kernels],
            biases=[b.astype(dtype) for b in self.biases],
            slopes=[None if s is None else s.astype(dtype)
                    for s in self.slopes])


def init_params(rows: int, cols: int, seed,
                channels: tuple = COMPENSATOR_CHANNELS) -> ModelParams:
    """Variance-scaled fan-in initialization suited to PReLU; zero biases.

    seed is anything numpy's default_rng accepts (int or SeedSequence).
    """
    specs = compensator_layers(rows, cols, channels)
    rng = np.random.default_rng(seed)
    kernels, biases, slopes = [], [], []
    for i, sp in enumerate(specs):
        fan_in = sp.in_ch * sp.kh * sp.kw
        std = np.sqrt(2.0 / ((1.0 + PRELU_INIT_SLOPE ** 2) * fan_in))
        kernels.append(rng.normal(0.0, std, sp.kernel_shape()))
        biases.append(np.zeros(sp.out_ch))
        slopes.append(np.full(sp.out_ch, PRELU_INIT_SLOPE)
                      if i < len(specs) - 1 else None)
    return ModelParams(rows=rows, cols=cols, kernels=kernels, biases=biases,
                       slopes=slopes)


def _im2col(x: np.ndarray, kh, kw, sh, sw):
    c, h, w, b = x.shape
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    cols = np.empty((c, kh, kw, ho, wo, b), dtype=x.dtype)
    for u in range(kh):
        for v in range(kw):
            cols[:, u, v] = x[:, u:u + sh * ho:sh, v:v + sw * wo:sw, :]
    return cols.reshape(c * kh * kw, ho * wo * b), ho, wo


def _col2im(cols, c, h, w, b, kh, kw, sh, sw, ho, wo):
    out = np.zeros((c, h, w, b), dtype=cols.dtype)
    cc = cols.reshape(c, kh, kw, ho, wo, b)
    for u in range(kh):
        for v in range(kw):
            out[:, u:u + sh * ho:sh, v:v + sw * wo:sw, :] += cc[:, u, v]
    return out


def forward(params: ModelParams, x: np.ndarray):
    """Run the network on x of shape (1, rows, cols, batch).

    Returns (output, cache) in the parameter dtype, to which x is cast;
    the cache feeds backward().  The encoder convolutions are unpadded;
    the transposed layers crop their padding from the full-size output.
    """
    if x.ndim != 4 or x.shape[0] != 1 or x.shape[1:3] != (params.rows, params.cols):
        raise ValueError(
            f"input must have shape (1, {params.rows}, {params.cols}, batch)")
    caches = []
    cur = x.astype(params.dtype, copy=False)
    for i, sp in enumerate(params.layers):
        if sp.kind == "conv":
            cols, ho, wo = _im2col(cur, sp.kh, sp.kw, sp.sh, sp.sw)
            y = (params.kernels[i].reshape(sp.out_ch, -1) @ cols)
            y = y.reshape(sp.out_ch, ho, wo, -1) + params.biases[i][:, None, None, None]
            cache = {"cols": cols, "x_shape": cur.shape}
        else:
            c, h, w, b = cur.shape
            hf = (h - 1) * sp.sh + sp.kh
            wf = (w - 1) * sp.sw + sp.kw
            x2 = cur.reshape(c, -1)
            cols = params.kernels[i].reshape(sp.in_ch, -1).T @ x2
            full = _col2im(cols, sp.out_ch, hf, wf, b,
                           sp.kh, sp.kw, sp.sh, sp.sw, h, w)
            y = full[:, sp.ph:hf - sp.ph, sp.pw:wf - sp.pw, :]
            y = y + params.biases[i][:, None, None, None]
            cache = {"x2": x2, "x_shape": (c, h, w, b)}
        if params.slopes[i] is not None:
            cache["pre"] = y
            neg = y < 0
            cache["neg"] = neg
            y = np.where(neg, params.slopes[i][:, None, None, None] * y, y)
        caches.append(cache)
        if i == SKIP_SRC:
            skip = y
        cur = y + skip if i == SKIP_DST else y
    return cur, caches


def backward(params: ModelParams, gout: np.ndarray, caches) -> list:
    """Gradients of a scalar loss with respect to every parameter, given
    the loss gradient at the network output, which is cast to the
    parameter dtype.  Order matches flat()."""
    layers = params.layers
    n = len(layers)
    gk = [None] * n
    gb = [None] * n
    gs = [None] * n
    g = gout.astype(params.dtype, copy=False)
    for i in range(n - 1, -1, -1):
        sp = layers[i]
        if i == SKIP_DST:
            g_skip = g
        if i == SKIP_SRC:
            g = g + g_skip
        cache = caches[i]
        if params.slopes[i] is not None:
            pre, neg = cache["pre"], cache["neg"]
            gs[i] = np.where(neg, g * pre, 0.0).sum(axis=(1, 2, 3))
            g = np.where(neg, params.slopes[i][:, None, None, None] * g, g)
        c, h, w, b = cache["x_shape"]
        if sp.kind == "conv":
            cols = cache["cols"]
            g2 = g.reshape(sp.out_ch, -1)
            gk[i] = (g2 @ cols.T).reshape(params.kernels[i].shape)
            gb[i] = g.sum(axis=(1, 2, 3))
            gcols = params.kernels[i].reshape(sp.out_ch, -1).T @ g2
            g = _col2im(gcols, sp.in_ch, h, w, b,
                        sp.kh, sp.kw, sp.sh, sp.sw, g.shape[1], g.shape[2])
        else:
            x2 = cache["x2"]
            gb[i] = g.sum(axis=(1, 2, 3))
            if sp.ph or sp.pw:
                g = np.pad(g, ((0, 0), (sp.ph, sp.ph), (sp.pw, sp.pw), (0, 0)))
            cols, _, _ = _im2col(g, sp.kh, sp.kw, sp.sh, sp.sw)
            gk[i] = (x2 @ cols.T).reshape(params.kernels[i].shape)
            g = (params.kernels[i].reshape(sp.in_ch, -1) @ cols).reshape(c, h, w, b)
    grads = []
    for i in range(n):
        grads += [gk[i], gb[i]] if gs[i] is None else [gk[i], gb[i], gs[i]]
    return grads


class Adam:
    """Adam with bias correction; operates in place on a parameter list.
    The moments take the dtype of the parameters."""

    def __init__(self, params: list, lr: float):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list, grads: list) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * (g * g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
