"""Convolutional compensator network: layer specification, shape solver,
forward/backward passes and the Adam optimizer.

Everything runs in float64 numpy.  Feature maps use the layout
(channels, height, width, batch): the batch axis sits innermost so the
im2col gather and the column/weight matmuls stay contiguous.
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
    oph: int = 0         # trailing output padding (transposed layers)
    opw: int = 0
    act: str = "prelu"   # "prelu" | "linear"

    def out_shape(self, h: int, w: int) -> tuple:
        if self.kind == "conv":
            return ((h + 2 * self.ph - self.kh) // self.sh + 1,
                    (w + 2 * self.pw - self.kw) // self.sw + 1)
        return ((h - 1) * self.sh + self.kh - 2 * self.ph + self.oph,
                (w - 1) * self.sw + self.kw - 2 * self.pw + self.opw)

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
    then a stride-1 zero-padded linear layer.  Raises when no 3/4 kernel
    chain can reproduce the input shape (input too small).
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
                           ph=1, pw=1, act="linear"))
    return specs


@dataclass
class ModelParams:
    """All learnable parameters plus the layer table and skip wiring."""

    rows: int
    cols: int
    layers: list                     # list[LayerSpec]
    kernels: list                    # list[np.ndarray]
    biases: list                     # list[np.ndarray]
    slopes: list                     # list[np.ndarray | None], PReLU only
    skip_src: int | None = SKIP_SRC
    skip_dst: int | None = SKIP_DST

    def flat(self) -> list:
        """Parameter arrays in declaration order: kernel, bias, slope."""
        out = []
        for i in range(len(self.layers)):
            out.append(self.kernels[i])
            out.append(self.biases[i])
            if self.slopes[i] is not None:
                out.append(self.slopes[i])
        return out

    def param_count(self) -> int:
        return sum(p.size for p in self.flat())

    def copy(self) -> "ModelParams":
        return ModelParams(
            rows=self.rows, cols=self.cols, layers=list(self.layers),
            kernels=[k.copy() for k in self.kernels],
            biases=[b.copy() for b in self.biases],
            slopes=[None if s is None else s.copy() for s in self.slopes],
            skip_src=self.skip_src, skip_dst=self.skip_dst)


def init_params(rows: int, cols: int, seed,
                layers: list | None = None,
                skip: tuple | None = (SKIP_SRC, SKIP_DST)) -> ModelParams:
    """Variance-scaled fan-in initialization suited to PReLU; zero biases.

    seed is anything numpy's default_rng accepts (int or SeedSequence).
    """
    specs = compensator_layers(rows, cols) if layers is None else list(layers)
    rng = np.random.default_rng(seed)
    kernels, biases, slopes = [], [], []
    for sp in specs:
        fan_in = sp.in_ch * sp.kh * sp.kw
        std = np.sqrt(2.0 / ((1.0 + PRELU_INIT_SLOPE ** 2) * fan_in))
        kernels.append(rng.normal(0.0, std, sp.kernel_shape()))
        biases.append(np.zeros(sp.out_ch))
        slopes.append(np.full(sp.out_ch, PRELU_INIT_SLOPE) if sp.act == "prelu" else None)
    src, dst = (None, None) if skip is None else skip
    return ModelParams(rows=rows, cols=cols, layers=specs, kernels=kernels,
                       biases=biases, slopes=slopes, skip_src=src, skip_dst=dst)


def _pad_hw(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))


def _im2col(x: np.ndarray, kh, kw, sh, sw):
    c, h, w, b = x.shape
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    cols = np.empty((c, kh, kw, ho, wo, b))
    for u in range(kh):
        for v in range(kw):
            cols[:, u, v] = x[:, u:u + sh * ho:sh, v:v + sw * wo:sw, :]
    return cols.reshape(c * kh * kw, ho * wo * b), ho, wo


def _col2im(cols, c, h, w, b, kh, kw, sh, sw, ho, wo):
    out = np.zeros((c, h, w, b))
    cc = cols.reshape(c, kh, kw, ho, wo, b)
    for u in range(kh):
        for v in range(kw):
            out[:, u:u + sh * ho:sh, v:v + sw * wo:sw, :] += cc[:, u, v]
    return out


def forward(params: ModelParams, x: np.ndarray):
    """Run the network on x of shape (1, rows, cols, batch).

    Returns (output, cache); the cache feeds backward().
    """
    if x.ndim != 4 or x.shape[0] != 1 or x.shape[1:3] != (params.rows, params.cols):
        raise ValueError(
            f"input must have shape (1, {params.rows}, {params.cols}, batch)")
    caches = []
    acts = []
    cur = x
    for i, sp in enumerate(params.layers):
        if sp.kind == "conv":
            xp = _pad_hw(cur, sp.ph, sp.pw)
            cols, ho, wo = _im2col(xp, sp.kh, sp.kw, sp.sh, sp.sw)
            y = (params.kernels[i].reshape(sp.out_ch, -1) @ cols)
            y = y.reshape(sp.out_ch, ho, wo, -1) + params.biases[i][:, None, None, None]
            cache = {"cols": cols, "xp_shape": xp.shape}
        else:
            c, h, w, b = cur.shape
            hf = (h - 1) * sp.sh + sp.kh
            wf = (w - 1) * sp.sw + sp.kw
            x2 = cur.reshape(c, -1)
            cols = params.kernels[i].reshape(sp.in_ch, -1).T @ x2
            full = _col2im(cols, sp.out_ch, hf, wf, b,
                           sp.kh, sp.kw, sp.sh, sp.sw, h, w)
            y = full[:, sp.ph:hf - sp.ph, sp.pw:wf - sp.pw, :]
            if sp.oph or sp.opw:
                y = np.pad(y, ((0, 0), (0, sp.oph), (0, sp.opw), (0, 0)))
            y = y + params.biases[i][:, None, None, None]
            cache = {"x2": x2, "x_shape": (c, h, w, b)}
        if sp.act == "prelu":
            cache["pre"] = y
            neg = y < 0
            cache["neg"] = neg
            y = np.where(neg, params.slopes[i][:, None, None, None] * y, y)
        caches.append(cache)
        acts.append(y)
        cur = y
        if i == params.skip_dst:
            cur = cur + acts[params.skip_src]
    return cur, (caches, acts, x)


def backward(params: ModelParams, gout: np.ndarray, fwd_cache) -> list:
    """Gradients of a scalar loss with respect to every parameter, given
    the loss gradient at the network output.  Order matches flat()."""
    caches, acts, _ = fwd_cache
    n = len(params.layers)
    gk = [None] * n
    gb = [None] * n
    gs = [None] * n
    g = gout
    g_skip = None
    for i in range(n - 1, -1, -1):
        sp = params.layers[i]
        if i == params.skip_dst:
            g_skip = g
        if i == params.skip_src and g_skip is not None:
            g = g + g_skip
        cache = caches[i]
        if sp.act == "prelu":
            pre, neg = cache["pre"], cache["neg"]
            gs[i] = np.where(neg, g * pre, 0.0).sum(axis=(1, 2, 3))
            g = np.where(neg, params.slopes[i][:, None, None, None] * g, g)
        if sp.kind == "conv":
            cols = cache["cols"]
            g2 = g.reshape(sp.out_ch, -1)
            gk[i] = (g2 @ cols.T).reshape(params.kernels[i].shape)
            gb[i] = g.sum(axis=(1, 2, 3))
            gcols = params.kernels[i].reshape(sp.out_ch, -1).T @ g2
            c, hp, wp, b = cache["xp_shape"]
            ho, wo = g.shape[1], g.shape[2]
            gx = _col2im(gcols, sp.in_ch, hp, wp, b,
                         sp.kh, sp.kw, sp.sh, sp.sw, ho, wo)
            g = gx[:, sp.ph:hp - sp.ph, sp.pw:wp - sp.pw, :] if (sp.ph or sp.pw) else gx
        else:
            x2 = cache["x2"]
            c, h, w, b = cache["x_shape"]
            gb[i] = g.sum(axis=(1, 2, 3))
            gcore = g
            if sp.oph or sp.opw:
                gcore = g[:, :g.shape[1] - sp.oph, :g.shape[2] - sp.opw, :]
            gp = _pad_hw(gcore, sp.ph, sp.pw)
            cols, _, _ = _im2col(gp, sp.kh, sp.kw, sp.sh, sp.sw)
            gk[i] = (x2 @ cols.T).reshape(params.kernels[i].shape)
            g = (params.kernels[i].reshape(sp.in_ch, -1) @ cols).reshape(c, h, w, b)
    grads = []
    for i in range(n):
        grads.append(gk[i])
        grads.append(gb[i])
        if params.slopes[i] is not None:
            grads.append(gs[i])
    return grads


class Adam:
    """Adam with bias correction; operates in place on a parameter list."""

    def __init__(self, params: list, lr: float = 1e-4):
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
