"""Driving-signal compensation: real-valued packing, the magnitude/phase
loss evaluated through the fixed acoustic propagation layer, and the
training loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Adam, ModelParams, backward, forward, init_params


@dataclass(frozen=True)
class TrainConfig:
    """Adam, early-stopping and loss settings of one training run; the
    pipeline builds it with ExperimentConfig.train_config()."""

    learning_rate: float
    max_epochs: int
    patience: int
    batch_size: int
    seed: int
    lambda_abs: float                # weight of the magnitude error
    lambda_phase: float              # weight of the wrapped phase error

    def __post_init__(self):
        for name, ok, what in (
                ("learning_rate", self.learning_rate > 0, "positive"),
                ("max_epochs", self.max_epochs >= 1, "at least 1"),
                ("batch_size", self.batch_size >= 1, "at least 1"),
                ("patience", self.patience >= 0, "non-negative"),
                ("patience", self.patience <= self.max_epochs,
                 "at most max_epochs"),
                ("lambda_abs", self.lambda_abs >= 0, "non-negative"),
                ("lambda_phase", self.lambda_phase >= 0, "non-negative")):
            if not ok:
                raise ValueError(f"training setting '{name}' must be {what}, "
                                 f"got {getattr(self, name)!r}")


@dataclass
class TrainResult:
    params: ModelParams              # the best epoch's, float32 as trained
    best_val_loss: float             # evaluate_loss of params
    best_epoch: int
    epochs_run: int
    history: list                    # (train_loss, val_loss) per epoch


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, what: str):
        super().__init__(f"training diverged at epoch {epoch}: {what}")
        self.epoch = epoch


def pack_driving(d: np.ndarray) -> np.ndarray:
    """Stack Re over Im along the loudspeaker axis: (L, K) -> (2L, K), or
    (L, K, B) -> (2L, K, B) with a trailing batch axis."""
    d = np.asarray(d, dtype=np.complex128)
    if d.ndim not in (2, 3):
        raise ValueError("driving array must be (L, K) or (L, K, B)")
    if not (np.all(np.isfinite(d.real)) and np.all(np.isfinite(d.imag))):
        raise ValueError("driving matrix must be finite")
    return np.concatenate([d.real, d.imag], axis=0)


def unpack_driving(t: np.ndarray) -> np.ndarray:
    """Inverse of pack_driving: rows l and L+l recombine as re + j im."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim not in (2, 3) or t.shape[0] % 2 != 0:
        raise ValueError("packed tensor must be (2L, K) or (2L, K, B)")
    half = t.shape[0] // 2
    return t[:half] + 1j * t[half:]


def predict_control_pressure(d_cnn: np.ndarray, g_stack: np.ndarray) -> np.ndarray:
    """Per-frequency propagation p(:, k) = G_k @ d(:, k), batched over an
    optional trailing axis: (L, K[, B]) -> (I, K[, B]).

    g_stack has shape (K, I, L); this fixed linear layer is the bridge
    the loss gradients flow through.
    """
    d = np.asarray(d_cnn, dtype=np.complex128)
    g = np.asarray(g_stack, dtype=np.complex128)
    if g.ndim != 3 or d.ndim not in (2, 3) or g.shape[0] != d.shape[1] \
            or g.shape[2] != d.shape[0]:
        raise ValueError("shapes do not chain: need (K, I, L) x (L, K[, B])")
    return np.einsum("kil,lk...->ik...", g, d)


def _wrap_phase(delta: np.ndarray) -> np.ndarray:
    return np.mod(delta + np.pi, 2 * np.pi) - np.pi


def loss(p_pred: np.ndarray, p_gt: np.ndarray, cfg: TrainConfig) -> float:
    """Mean over entries of lambda_abs*| |p_gt|-|p_pred| | plus
    lambda_phase*|wrapped phase difference|, weights from cfg."""
    p_pred = np.asarray(p_pred)
    p_gt = np.asarray(p_gt)
    if p_pred.shape != p_gt.shape:
        raise ValueError("shape mismatch between prediction and target")
    mag_err = np.abs(np.abs(p_gt) - np.abs(p_pred))
    ph_err = np.abs(_wrap_phase(np.angle(p_gt) - np.angle(p_pred)))
    return float((cfg.lambda_abs * mag_err + cfg.lambda_phase * ph_err).mean())


def loss_gradient(p_pred: np.ndarray, p_gt: np.ndarray,
                  cfg: TrainConfig) -> np.ndarray:
    """Gradient of loss() with respect to p_pred, carried as the complex
    array dL/dRe + j dL/dIm.  Subgradient 0 at the |.| kinks."""
    if p_pred.shape != p_gt.shape:
        raise ValueError("shape mismatch between prediction and target")
    mag = np.abs(p_pred)
    safe = np.where(mag == 0, 1.0, mag)
    su = np.sign(np.abs(p_gt) - mag)
    sv = np.sign(_wrap_phase(np.angle(p_gt) - np.angle(p_pred)))
    n = p_pred.size
    gre = (-cfg.lambda_abs * su * p_pred.real / safe
           + cfg.lambda_phase * sv * p_pred.imag / safe ** 2) / n
    gim = (-cfg.lambda_abs * su * p_pred.imag / safe
           - cfg.lambda_phase * sv * p_pred.real / safe ** 2) / n
    zero = mag == 0
    if np.any(zero):
        gre = np.where(zero, 0.0, gre)
        gim = np.where(zero, 0.0, gim)
    return gre + 1j * gim


def _stack_batch(records, idxs) -> np.ndarray:
    # (1, rows, cols, batch) in the network layout
    t = np.stack([np.asarray(records[i].tensor, dtype=np.float64) for i in idxs],
                 axis=-1)
    return t[None, ...]


def _batch_loss_and_grads(params: ModelParams, records, idxs,
                          g_stack: np.ndarray, cfg: TrainConfig,
                          want_grads: bool):
    x = _stack_batch(records, idxs)
    y, cache = forward(params, x)
    p = predict_control_pressure(unpack_driving(y[0]), g_stack)   # (I, K, B)
    p_gt = np.stack([records[i].pressures for i in idxs], axis=-1)
    total = loss(p, p_gt, cfg)
    if not want_grads or not np.isfinite(total):
        return total, None
    gp = loss_gradient(p, p_gt, cfg)
    gd = np.einsum("kil,ikb->lkb", g_stack.conj(), gp)
    grads = backward(params, pack_driving(gd)[None, ...], cache)
    return total, grads


def evaluate_loss(params: ModelParams, records, g_stack: np.ndarray,
                  cfg: TrainConfig) -> float:
    """Mean loss over records in batches of cfg.batch_size, weighted by
    record count."""
    total = 0.0
    for lo in range(0, len(records), cfg.batch_size):
        idxs = range(lo, min(lo + cfg.batch_size, len(records)))
        val, _ = _batch_loss_and_grads(params, records, list(idxs), g_stack,
                                       cfg, want_grads=False)
        total += val * len(idxs)
    return total / len(records)


def train_compensator(train_records, val_records, cfg: TrainConfig,
                      g_stack: np.ndarray) -> TrainResult:
    """Adam training with early stopping on the validation loss.

    Deterministic for a fixed cfg.seed: the initialization and the
    per-epoch shuffles come from independent child streams of the seed.
    The network and Adam run in float32 (the float64 initialization
    draws, cast); the loss, its gradient and the propagation stay
    float64.  Returns a float32 copy of the parameters of the best
    validation epoch and the validation loss that epoch measured.
    """
    if len(train_records) == 0 or len(val_records) == 0:
        raise ValueError("need non-empty train and validation splits")
    g_stack = np.asarray(g_stack, dtype=np.complex128)
    rows, cols = np.asarray(train_records[0].tensor).shape
    seq = np.random.SeedSequence(cfg.seed)
    s_init, s_shuffle = seq.spawn(2)
    params = init_params(rows, cols, seed=s_init).astype(np.float32)
    flat = params.flat()
    opt = Adam(flat, lr=cfg.learning_rate)
    shuffler = np.random.default_rng(s_shuffle)

    best_val = np.inf
    best_epoch = -1
    since_improve = 0
    history = []
    n = len(train_records)
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffler.permutation(n)
        train_loss = 0.0
        for lo in range(0, n, cfg.batch_size):
            idxs = order[lo:lo + cfg.batch_size].tolist()
            batch_loss, grads = _batch_loss_and_grads(
                params, train_records, idxs, g_stack, cfg, want_grads=True)
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(epoch, "training loss is not finite")
            opt.step(flat, grads)
            train_loss += batch_loss * len(idxs)
        train_loss /= n
        val_loss = evaluate_loss(params, val_records, g_stack, cfg)
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(epoch, "validation loss is not finite")
        history.append((train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = params.astype(np.float32)
            since_improve = 0
        else:
            since_improve += 1
            if since_improve > cfg.patience:
                break
    return TrainResult(params=best_params, best_val_loss=best_val,
                       best_epoch=best_epoch, epochs_run=len(history),
                       history=history)


def compensate(d_mr: np.ndarray, params: ModelParams) -> np.ndarray:
    """Apply the trained network to the model-based driving signals of S
    sources in one batched pass: (S, L, K) complex in, (S, L, K) out.
    The network runs in the parameters' dtype, float32 for a trained
    model; the result is complex128."""
    d = np.asarray(d_mr)
    l_active, k = params.rows // 2, params.cols
    if d.ndim != 3 or d.shape[1:] != (l_active, k):
        raise ValueError(
            f"driving array {d.shape} does not match the trained geometry "
            f"(S, {l_active}, {k})")
    y, _ = forward(params, pack_driving(np.moveaxis(d, 0, -1))[None, ...])
    return np.moveaxis(unpack_driving(y[0]), -1, 0)
