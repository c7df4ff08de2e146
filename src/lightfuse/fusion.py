"""Tile-fused execution of the detail branch plus an off-chip traffic model.

The executor reads its chain from the detail branch of
model.build_lightfuse(): each 1x1 conv there, with the ReLU after it, is one
step, and the kernels come from model.layer_kernels, which checks every
tensor against the graph. The chain is evaluated tile by tile: an input
tile is loaded once, carried through every step in on-chip buffers, and
only the final features are written back. Because 1x1 convs have no
spatial extent, tiles never overlap and edge tiles are simply the residual
rectangles, so any tiling is bit-identical to the layer-by-layer reference
path (both run the same fixed-order kernel).

On the host, whole tiles that sit side by side in one tile row are run
together: as many as fit in nn_ops.CHUNK_PIXELS pixels (at least one) are
gathered channels-first into one buffer and carried through the chain in
place. Grouping is a numpy batching device only; it changes neither the
output bits nor the traffic model below.

Traffic is a cost model, not a measurement: byte counters increment at the
points where a real accelerator would touch external memory, summed over
the tiles of tile_grid. Peak on-chip bytes for the fused schedule model the
accelerator's per-tile working set - buffers preallocated for a full s x s
tile at the input width plus the two widest intermediate widths - not the
size of numpy's group buffers. The unfused schedule streams one pixel at a
time per layer, so its working set is the widest (in + out) channel pair.
"""

from dataclasses import dataclass

import numpy as np

from . import model, nn_ops, tensor_core

__all__ = [
    "TileSpec",
    "TrafficReport",
    "tile_grid",
    "run_detailnet_fused",
    "run_detailnet_unfused",
    "sweep_tile_sizes",
    "fused_forward",
]

_BYTES_F32 = 4
# The 1x1 convs of the detail branch, each followed by a ReLU, and the
# channel widths along the chain (6, 32, 32, 3).
_CHAIN = tuple(
    layer for layer in dict(model.build_lightfuse().branches)["detail"] if layer.kind == "pointwise"
)
_WIDTHS = (_CHAIN[0].in_channels,) + tuple(layer.out_channels for layer in _CHAIN)
# input tile channels + the two widest intermediate widths (6 + 32 + 32)
_FUSED_PEAK_CHANNELS = _WIDTHS[0] + sum(sorted(_WIDTHS[1:-1])[-2:])


@dataclass(frozen=True)
class TileSpec:
    """Square tile side length; edge tiles may be smaller."""

    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"invalid tile size {self.s}")


@dataclass(frozen=True)
class TrafficReport:
    mode: str
    offchip_read_bytes: int
    offchip_write_bytes: int
    peak_onchip_bytes: int

    @property
    def total_offchip_bytes(self) -> int:
        return self.offchip_read_bytes + self.offchip_write_bytes

    def dump(self) -> str:
        return (
            f"mode={self.mode} reads={self.offchip_read_bytes}"
            f" writes={self.offchip_write_bytes} peak={self.peak_onchip_bytes}"
        )


def tile_grid(height: int, width: int, s: int):
    """Disjoint row-major tiles covering the full extent."""
    return [
        (r0, min(r0 + s, height), c0, min(c0 + s, width))
        for r0 in range(0, height, s)
        for c0 in range(0, width, s)
    ]


def _tile_side(tile) -> int:
    return tile.s if isinstance(tile, TileSpec) else int(tile)


def _check_detail_input(x):
    if not isinstance(x, np.ndarray) or x.ndim != 3 or x.shape[2] != _WIDTHS[0]:
        raise ValueError(f"detail-branch input must be (H, W, {_WIDTHS[0]})")


def run_detailnet_fused(x: np.ndarray, weights: dict, tile) -> tuple:
    """Every 1x1 layer of the chain per tile before the next tile is touched.

    Returns (output, TrafficReport). Off-chip traffic reads the input once
    and writes the output once regardless of tile size; intermediates stay
    on chip. Each layer computes in result_type(its input, its weights), as
    the unfused path does, so a float64 input stays float64.
    """
    _check_detail_input(x)
    h, w = x.shape[:2]
    s = _tile_side(tile)
    if not 1 <= s <= min(h, w):
        raise ValueError(f"invalid tile size {s} for {h}x{w} input")
    kernels = [model.layer_kernels(layer, weights)[0] for layer in _CHAIN]
    chans = _WIDTHS
    reads = writes = 0
    for r0, r1, c0, c1 in tile_grid(h, w, s):
        npix = (r1 - r0) * (c1 - c0)
        reads += npix * chans[0] * _BYTES_F32
        writes += npix * chans[-1] * _BYTES_F32

    dtypes = [x.dtype]
    for kern in kernels:
        dtypes.append(np.result_type(dtypes[-1], kern.weights.dtype))
    # A group is whole tiles along one tile row; group edges fall on tile edges.
    group_w = min(w, s * max(1, nn_ops.CHUNK_PIXELS // (s * s)))
    cap = min(s, h) * group_w
    acts = [np.empty(c * cap, dtype=d) for c, d in zip(chans, dtypes)]
    scratch = [np.empty(c * cap, dtype=d) for c, d in zip(chans[1:], dtypes[1:])]
    out = np.empty((h, w, chans[-1]), dtype=dtypes[-1])
    for r0 in range(0, h, s):
        r1 = min(r0 + s, h)
        for c0 in range(0, w, group_w):
            c1 = min(c0 + group_w, w)
            rows, cols = r1 - r0, c1 - c0
            t = [buf[: c * rows * cols].reshape(c, rows * cols) for buf, c in zip(acts, chans)]
            t[0].reshape(chans[0], rows, cols)[...] = x[r0:r1, c0:c1].transpose(2, 0, 1)
            for i, kern in enumerate(kernels):
                prod = scratch[i][: t[i + 1].size].reshape(t[i + 1].shape)
                nn_ops.pointwise_channels_first(t[i], kern, t[i + 1], prod)
                nn_ops.relu(t[i + 1], out=t[i + 1])
            out[r0:r1, c0:c1] = t[-1].reshape(chans[-1], rows, cols).transpose(1, 2, 0)
    peak = s * s * _FUSED_PEAK_CHANNELS * _BYTES_F32
    return out, TrafficReport("fused", reads, writes, peak)


def run_detailnet_unfused(x: np.ndarray, weights: dict) -> tuple:
    """Layer-by-layer reference path: every intermediate goes off chip."""
    _check_detail_input(x)
    h, w = x.shape[:2]
    kernels = [model.layer_kernels(layer, weights)[0] for layer in _CHAIN]
    reads = writes = 0
    y = x
    for kern in kernels:
        reads += h * w * kern.in_channels * _BYTES_F32
        y = nn_ops.relu(nn_ops.pointwise_forward(y, kern))
        writes += h * w * kern.out_channels * _BYTES_F32
    peak = max(k.in_channels + k.out_channels for k in kernels) * _BYTES_F32
    return y, TrafficReport("unfused", reads, writes, peak)


def sweep_tile_sizes(dims: tuple, s_values) -> list:
    """(s, peak_onchip_bytes) per tile size; traffic does not depend on s."""
    h, w = dims
    rows = []
    for s in s_values:
        if not 1 <= s <= min(h, w):
            raise ValueError(f"invalid tile size {s} for {h}x{w} input")
        rows.append((s, s * s * _FUSED_PEAK_CHANNELS * _BYTES_F32))
    return rows


def fused_forward(graph, weights: dict, under, over, tile) -> tuple:
    """Full forward pass with the detail branch run through the tiled executor.

    Bit-identical to model.forward for the dual-branch graph.
    """
    branches = dict(graph.branches)
    if not graph.merge_add_tanh or set(branches) != {"global", "detail"}:
        raise ValueError("tile-fused execution requires the dual-branch fusion graph")
    model.check_pair(graph, under, over)
    x = np.concatenate((under, over), axis=2)
    g_out = model.run_branch(branches["global"], weights, x)
    d_out, traffic = run_detailnet_fused(x, weights, tile)
    del x
    # both branches compute in result_type(input, weights), so the merge can
    # overwrite the detail output without a cast
    out = nn_ops.tanh(nn_ops.add(g_out, d_out, out=d_out), out=d_out)
    tensor_core.require_finite(out, "model output")
    return out, traffic

