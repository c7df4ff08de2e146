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

A whole forward pass (fused_forward, and fuse_images for 8-bit images) runs
in horizontal stripes of output rows, so no full-size intermediate exists.
Stripe heights are multiples of lcm(8, s), and a residual shorter than s
joins the stripe above, so every stripe is a valid run_detailnet_fused input
and the stripes' tile grids add up to the whole image's. The global branch
of a stripe starting at row r0 > 0 runs on input rows [r0 - 8, r1): a
stride-2 3x3 layer reads one row above each output row's centre, so only
output row 0 of g1, g2 and g3 sees the window's zero padding, and that one
g3 row is the 8 output rows dropped after the upsampling. The bottom
padding of an even-height input is never read. Every kept row is therefore
the one model.forward computes.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model, nn_ops, tensor_core

__all__ = [
    "TrafficReport",
    "tile_grid",
    "run_detailnet_fused",
    "run_detailnet_unfused",
    "sweep_tile_sizes",
    "fused_forward",
    "fuse_images",
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
# The graphs the stripe halo rule holds for.
_FUSION_GRAPHS = (model.build_lightfuse(True), model.build_lightfuse(False))

# Output pixels per forward stripe (padded width times rows, at least
# lcm(8, s) rows); the stripe buffers of a fuse at W=1032 trace at ~8.5 MiB.
# On a 1021x1027 fuse + eval loop (2-vCPU x86 host) fuse time stayed within
# noise from 32768 to 1048576, while peak RSS went 54 MB at 65536, 57 MB
# here, 70 MB at 262144 and 98 MB at 524288.
FUSE_STRIPE_PIXELS = 131072


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


def _tile_side(tile, h: int, w: int) -> int:
    s = int(tile)
    if not 1 <= s <= min(h, w):
        raise ValueError(f"invalid tile size {s} for {h}x{w} input")
    return s


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
    s = _tile_side(tile, h, w)
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
        _tile_side(s, h, w)
        rows.append((s, s * s * _FUSED_PEAK_CHANNELS * _BYTES_F32))
    return rows


def _stripes(h: int, w: int, s: int, divisor: int):
    """[r0, r1) output-row ranges of the forward stripes of an h x w input."""
    unit = math.lcm(divisor, s)
    step = unit * max(1, FUSE_STRIPE_PIXELS // (unit * w))
    bounds = list(range(0, h, step)) + [h]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < s:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _run_stripes(graph, weights: dict, h: int, w: int, tile, rows_in, rows_out) -> TrafficReport:
    """The forward pass of an h x w input (multiples of 8), stripe by stripe.

    rows_in(a, b) returns input rows [a, b) as an (b - a, w, 6) tensor;
    rows_out(r0, r1, y) receives the finite merged output rows [r0, r1).
    Returns the summed TrafficReport, equal to a whole-image run's.
    """
    if graph not in _FUSION_GRAPHS:
        raise ValueError("tile-fused execution requires the dual-branch fusion graph")
    global_layers = dict(graph.branches)["global"]
    s = _tile_side(tile, h, w)
    halo = graph.spatial_divisor  # one g3 row
    reads = writes = peak = 0
    for r0, r1 in _stripes(h, w, s, graph.spatial_divisor):
        a = max(0, r0 - halo)
        x = rows_in(a, r1)
        g_out = model.run_branch(global_layers, weights, x)[r0 - a :]
        d_out, traffic = run_detailnet_fused(x[r0 - a :], weights, s)
        del x
        # both branches compute in result_type(input, weights), so the merge
        # can overwrite the detail output without a cast
        out = nn_ops.tanh(nn_ops.add(g_out, d_out, out=d_out), out=d_out)
        tensor_core.require_finite(out, "model output")
        rows_out(r0, r1, out)
        reads += traffic.offchip_read_bytes
        writes += traffic.offchip_write_bytes
        peak = max(peak, traffic.peak_onchip_bytes)
    return TrafficReport("fused", reads, writes, peak)


def fused_forward(graph, weights: dict, under, over, tile) -> tuple:
    """Full forward pass in stripes, the detail branch run through the tiled executor.

    Returns (output, TrafficReport). Bit-identical to model.forward for the
    dual-branch graph.
    """
    model.check_pair(graph, under, over)
    h, w = under.shape[:2]
    out = None

    def rows_out(r0, r1, y):
        nonlocal out
        if out is None:
            out = np.empty((h, w, y.shape[2]), dtype=y.dtype)
        out[r0:r1] = y

    traffic = _run_stripes(
        graph, weights, h, w, tile,
        lambda a, b: np.concatenate((under[a:b], over[a:b]), axis=2), rows_out,
    )
    return out, traffic


def fuse_images(graph, weights: dict, under: np.ndarray, over: np.ndarray, tile) -> tuple:
    """Fuse an 8-bit exposure pair of any size; returns (uint8 image, TrafficReport).

    Equal byte for byte to denormalize(model.forward(...)) on the pair
    normalized and edge-padded to a multiple of 8, cropped back. A tile side
    larger than the padded image is clamped to it. Each stripe normalizes and
    pads only the input rows it reads and writes its rows of the uint8
    output, so the only full-size array is that output.
    """
    for name, img in (("under", under), ("over", over)):
        if not isinstance(img, np.ndarray) or img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] != 3:
            raise ValueError(f"{name} must be a uint8 (H, W, 3) image")
    if under.shape != over.shape:
        raise ValueError(f"dimension mismatch: {under.shape[:2]} vs {over.shape[:2]}")
    h, w = under.shape[:2]
    div = graph.spatial_divisor
    hp, wp = h + (-h) % div, w + (-w) % div
    fused = np.empty_like(under)

    def rows_in(a, b):
        x = np.empty((b - a, wp, _WIDTHS[0]), dtype=np.float32)
        real = min(b, h) - a
        x[:real, :w, :3] = tensor_core.normalize(under[a : a + real])
        x[:real, :w, 3:] = tensor_core.normalize(over[a : a + real])
        x[:real, w:] = x[:real, w - 1 : w]
        x[real:] = x[real - 1]
        return x

    def rows_out(r0, r1, y):
        r1 = min(r1, h)
        fused[r0:r1] = tensor_core.denormalize(y[: r1 - r0, :w])

    side = min(int(tile), hp, wp)
    return fused, _run_stripes(graph, weights, hp, wp, side, rows_in, rows_out)
