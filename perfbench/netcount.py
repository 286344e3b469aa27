"""Computed (not measured) kernel counts of the compensator network.

Derived from the layer table alone, the way ``sfsynth.network`` runs it:
every layer is one GEMM in the forward pass and two GEMMs of the same
size in the backward pass (kernel gradient and input gradient), so a
backward pass costs twice the forward FLOPs.  ``col2im`` bytes count the
float64 traffic of the strided scatter: zero-filling the output, then
for every kernel tap reading the column slice and reading and writing
the output slice.  Forward runs it in each transposed layer, backward in
each strided convolution.
"""

from __future__ import annotations

from sfsynth.network import compensator_layers

SHAPES = {"desk": (16, 15), "full": (64, 63)}

_F64 = 8


def _walk(layers, rows: int, cols: int):
    """(spec, input h, input w, output h, output w) per layer."""
    h, w = rows, cols
    for sp in layers:
        ho, wo = sp.out_shape(h, w)
        yield sp, h, w, ho, wo
        h, w = ho, wo


def gemm_macs_per_sample(layers, rows: int, cols: int) -> int:
    """Multiply-accumulates of one forward pass for one sample."""
    total = 0
    for sp, h, w, ho, wo in _walk(layers, rows, cols):
        taps = sp.kh * sp.kw
        if sp.kind == "conv":
            total += sp.out_ch * sp.in_ch * taps * ho * wo
        else:
            total += sp.out_ch * sp.in_ch * taps * h * w
    return total


def forward_flop_per_sample(layers, rows: int, cols: int) -> int:
    return 2 * gemm_macs_per_sample(layers, rows, cols)


def backward_flop_per_sample(layers, rows: int, cols: int) -> int:
    return 4 * gemm_macs_per_sample(layers, rows, cols)


def col2im_bytes_per_sample(layers, rows: int, cols: int) -> int:
    """Bytes the col2im scatter moves in one forward + backward pass."""
    total = 0
    for sp, h, w, ho, wo in _walk(layers, rows, cols):
        taps = sp.kh * sp.kw
        if sp.kind == "tconv":
            full_h = (h - 1) * sp.sh + sp.kh
            full_w = (w - 1) * sp.sw + sp.kw
            total += sp.out_ch * (full_h * full_w + 3 * taps * h * w)
        else:
            pad_h, pad_w = h + 2 * sp.ph, w + 2 * sp.pw
            total += sp.in_ch * (pad_h * pad_w + 3 * taps * ho * wo)
    return _F64 * total


def computed_counts() -> dict:
    """Per-layer-metric name -> (value, unit) for the desk and full shapes."""
    out = {}
    for tag, (rows, cols) in SHAPES.items():
        layers = compensator_layers(rows, cols)
        out[f"network.forward.gflop_per_sample.computed.{tag}"] = (
            forward_flop_per_sample(layers, rows, cols) / 1e9, "GFLOP")
        out[f"network.backward.gflop_per_sample.computed.{tag}"] = (
            backward_flop_per_sample(layers, rows, cols) / 1e9, "GFLOP")
        out[f"network.col2im_bytes_per_sample.computed.{tag}"] = (
            col2im_bytes_per_sample(layers, rows, cols), "B")
    return out
