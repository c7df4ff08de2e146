"""Tile-fused execution of the detail branch plus an off-chip traffic model.

Both branches come from model.build_lightfuse(), the one graph this module
runs. The executor reads its chain from the detail branch: each 1x1 conv
there, with the ReLU after it, is one step, and the kernels come from
model.layer_kernels, which checks every tensor against the graph. The chain
is evaluated tile by tile: an input tile is loaded once, carried through
every step in on-chip buffers, and only the final features are written back.
Because 1x1 convs have no spatial extent, tiles never overlap and edge tiles
are simply the residual rectangles, so any tiling is bit-identical to the
layer-by-layer reference path (both run the same fixed-order kernel).

On the host, whole tiles that sit side by side in one tile row are run
together: as many as fit in nn_ops.CHUNK_PIXELS pixels (at least one) are
gathered channels-first into one buffer and carried through the chain in
place. Grouping is a numpy batching device only; it changes neither the
output bits nor the traffic model below. The output is channel-planar, as
nn_ops stores activations, and fuse_images builds its stripes planar too,
so gathering a group and writing it back copy whole rows of each channel.

The groups are shared out among tensor_core.CPU_THREADS threads, one per
CPU this process may use, by tensor_core._share_work, which metrics.ssim
uses for its row stripes too. The calling thread starts the others, which
claim groups one at a time from a shared iterator, runs its own `alongside`
work (a stripe's global branch), then claims groups too. numpy's ufuncs
and copies release the GIL, so the pinned-order arithmetic runs on every
CPU. Each
thread owns one set of group buffers, allocated by the caller, and writes
its groups' disjoint rows and columns of the output; which thread runs a
group changes no bit. Worker threads call only the pinned-order kernel and
numpy, never a function in a module's __all__: a traced run, which wraps
those functions, keeps seeing one thread. Every worker is joined before
run_detailnet_fused returns or raises, and an exception in a worker is
raised on the calling thread. With one CPU no thread is started.

Traffic is a cost model, not a measurement: a closed form of (H, W, s)
computed once per call, not counted by the executors. Fused, the input is
read once and the output written once; unfused, every layer reads its input
and writes its output. Fused peak on-chip bytes model the accelerator's
per-tile working set - buffers for a full s x s tile at the input width plus
the two widest intermediate widths - not numpy's group buffers. The unfused
schedule streams one pixel at a time per layer: the widest (in + out) pair.

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
the one model.forward computes. Stripes run in row order; reading the
input rows, the merge, the finiteness check and writing the output rows
stay on the calling thread, so the first non-finite stripe is the one
reported.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model, nn_ops, tensor_core

__all__ = [
    "TrafficReport",
    "run_detailnet_fused",
    "run_detailnet_unfused",
    "fused_forward",
    "fuse_images",
]

_BYTES_F32 = 4
# The graph, its two branches, the detail branch's 1x1 convs (each followed
# by a ReLU) and the channel widths along that chain (6, 32, 32, 3).
_GRAPH = model.build_lightfuse()
_GLOBAL, _DETAIL = (layers for _, layers in _GRAPH.branches)
_CHAIN = tuple(layer for layer in _DETAIL if layer.kind == "pointwise")
_WIDTHS = (_CHAIN[0].in_channels,) + tuple(layer.out_channels for layer in _CHAIN)
# input tile channels + the two widest intermediate widths (6 + 32 + 32)
_FUSED_PEAK_CHANNELS = _WIDTHS[0] + sum(sorted(_WIDTHS[1:-1])[-2:])

# Output pixels per forward stripe (padded width times rows, at least
# lcm(8, s) rows): 64 rows at W=1032, where the stripe buffers of a fuse
# trace at ~8.1 MiB on one thread and ~10.3 MiB on two. On a 1021x1027
# fuse + eval loop (2-vCPU x86 host, two fuse threads) throughput stayed
# within noise from 65536 to 196608, while peak RSS went 52 MB at 65536,
# 54 MB here (the one-thread loop's 55 MB at 131072), 57 MB at 131072 and
# 62 MB at 196608.
FUSE_STRIPE_PIXELS = 98304



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


def _tile_side(tile, h: int, w: int) -> int:
    s = int(tile)
    if not 1 <= s <= min(h, w):
        raise ValueError(f"invalid tile size {s} for {h}x{w} input")
    return s


def _check_detail_input(x):
    if not isinstance(x, np.ndarray) or x.ndim != 3 or x.shape[2] != _WIDTHS[0]:
        raise ValueError(f"detail-branch input must be (H, W, {_WIDTHS[0]})")


def _fused_traffic(h: int, w: int, s: int) -> TrafficReport:
    return TrafficReport(
        "fused",
        h * w * _WIDTHS[0] * _BYTES_F32,
        h * w * _WIDTHS[-1] * _BYTES_F32,
        s * s * _FUSED_PEAK_CHANNELS * _BYTES_F32,
    )


def run_detailnet_fused(x: np.ndarray, weights: dict, tile, alongside=None) -> tuple:
    """Every 1x1 layer of the chain per tile before the next tile is touched.

    Returns (output, TrafficReport). Off-chip traffic reads the input once
    and writes the output once regardless of tile size; intermediates stay
    on chip. Each layer computes in result_type(its input, its weights), as
    the unfused path does, so a float64 input stays float64.

    The tile groups run on tensor_core.CPU_THREADS threads. `alongside`, if given, is
    called with no arguments on the calling thread once the other threads
    have started, before the caller takes groups itself. Every thread is
    joined before this returns or raises. An exception on the calling
    thread is raised as it is; otherwise the first exception of a worker is
    raised here.
    """
    _check_detail_input(x)
    h, w = x.shape[:2]
    s = _tile_side(tile, h, w)
    kernels = [model.layer_kernels(layer, weights)[0] for layer in _CHAIN]
    chans = _WIDTHS
    dtypes = [x.dtype]
    for kern in kernels:
        dtypes.append(np.result_type(dtypes[-1], kern.weights.dtype))
    # A group is whole tiles along one tile row; group edges fall on tile edges.
    group_w = min(w, s * max(1, nn_ops.CHUNK_PIXELS // (s * s)))
    groups = [
        (r0, min(r0 + s, h), c0, min(c0 + group_w, w))
        for r0 in range(0, h, s)
        for c0 in range(0, w, group_w)
    ]
    cap = min(s, h) * group_w
    out = np.empty((chans[-1], h, w), dtype=dtypes[-1])

    def run_group(group, acts, scratch):
        r0, r1, c0, c1 = group
        rows, cols = r1 - r0, c1 - c0
        t = [buf[: c * rows * cols].reshape(c, rows * cols) for buf, c in zip(acts, chans)]
        t[0].reshape(chans[0], rows, cols)[...] = x[r0:r1, c0:c1].transpose(2, 0, 1)
        for i, kern in enumerate(kernels):
            prod = scratch[i][: t[i + 1].size].reshape(t[i + 1].shape)
            nn_ops.pointwise_channels_first(t[i], kern, t[i + 1], prod)
            np.maximum(t[i + 1], 0.0, out=t[i + 1])  # nn_ops.relu's ufunc
        out[:, r0:r1, c0:c1] = t[-1].reshape(chans[-1], rows, cols)

    buffers = [
        (
            [np.empty(c * cap, dtype=d) for c, d in zip(chans, dtypes)],
            [np.empty(c * cap, dtype=d) for c, d in zip(chans[1:], dtypes[1:])],
        )
        for _ in range(min(tensor_core.CPU_THREADS, len(groups)))
    ]
    tensor_core._share_work(groups, run_group, buffers, alongside)
    return out.transpose(1, 2, 0), _fused_traffic(h, w, s)


def run_detailnet_unfused(x: np.ndarray, weights: dict) -> tuple:
    """Layer-by-layer reference path (model.run_branch): every intermediate goes off chip."""
    _check_detail_input(x)
    h, w = x.shape[:2]
    traffic = TrafficReport(
        "unfused",
        h * w * sum(_WIDTHS[:-1]) * _BYTES_F32,
        h * w * sum(_WIDTHS[1:]) * _BYTES_F32,
        max(a + b for a, b in zip(_WIDTHS, _WIDTHS[1:])) * _BYTES_F32,
    )
    return model.run_branch(_DETAIL, weights, x), traffic


def _stripes(h: int, w: int, s: int):
    """[r0, r1) output-row ranges of the forward stripes of an h x w input."""
    unit = math.lcm(_GRAPH.spatial_divisor, s)
    step = unit * max(1, FUSE_STRIPE_PIXELS // (unit * w))
    bounds = list(range(0, h, step)) + [h]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < s:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _run_stripes(weights: dict, h: int, w: int, tile, rows_in, rows_out) -> TrafficReport:
    """The forward pass of an h x w input (multiples of 8), stripe by stripe.

    rows_in(a, b) returns input rows [a, b) as an (b - a, w, 6) tensor;
    rows_out(r0, r1, y) receives the finite merged output rows [r0, r1).
    Returns the whole image's TrafficReport.
    """
    s = _tile_side(tile, h, w)
    halo = _GRAPH.spatial_divisor  # one g3 row
    for r0, r1 in _stripes(h, w, s):
        a = max(0, r0 - halo)
        x = rows_in(a, r1)
        g_out = []
        d_out, _ = run_detailnet_fused(
            x[r0 - a :], weights, s,
            alongside=lambda: g_out.append(model.run_branch(_GLOBAL, weights, x)),
        )
        del x
        # both branches compute in result_type(input, weights), so the merge
        # can overwrite the detail output without a cast
        out = nn_ops.tanh(nn_ops.add(g_out[0][r0 - a :], d_out, out=d_out), out=d_out)
        tensor_core.require_finite(out, "model output")
        rows_out(r0, r1, out)
    return _fused_traffic(h, w, s)


def fused_forward(weights: dict, under, over, tile) -> tuple:
    """Full forward pass in stripes, the detail branch run through the tiled executor.

    Returns (output, TrafficReport). Bit-identical to
    model.forward(model.build_lightfuse(), ...).
    """
    model.check_pair(_GRAPH, under, over)
    h, w = under.shape[:2]
    out = None

    def rows_out(r0, r1, y):
        nonlocal out
        if out is None:
            out = np.empty((h, w, y.shape[2]), dtype=y.dtype)
        out[r0:r1] = y

    traffic = _run_stripes(
        weights, h, w, tile, lambda a, b: np.concatenate((under[a:b], over[a:b]), axis=2), rows_out
    )
    return out, traffic


def fuse_images(weights: dict, under, over, tile, out=None) -> tuple:
    """Fuse an 8-bit exposure pair of any size; returns (out, TrafficReport).

    Equal byte for byte to denormalize(model.forward(...)) on the pair
    normalized and edge-padded to a multiple of 8, cropped back. A tile side
    larger than the padded image is clamped to it. under and over are uint8
    (H, W, 3) arrays or tensor_core.PpmReaders. Each stripe normalizes and
    pads only the input rows it reads, under[a:b] and over[a:b], and sets
    its rows of out in row order, out[r0:r1] = rows. out is a new uint8
    array by default, or a row sink such as tensor_core.PpmWriter; with
    readers and a writer no full-size array exists.
    """
    tensor_core._check_images8(under=under, over=over)
    h, w = under.shape[:2]
    if out is None:
        out = np.empty((h, w, 3), dtype=np.uint8)
    elif out.shape != under.shape or out.dtype != np.uint8:
        raise ValueError(f"out must be a uint8 {h}x{w}x3 image")
    div = _GRAPH.spatial_divisor
    hp, wp = h + (-h) % div, w + (-w) % div

    def rows_in(a, b):
        x = np.empty((_WIDTHS[0], b - a, wp), dtype=np.float32)
        real = min(b, h) - a
        x[:3, :real, :w] = tensor_core.normalize(under[a : a + real]).transpose(2, 0, 1)
        x[3:, :real, :w] = tensor_core.normalize(over[a : a + real]).transpose(2, 0, 1)
        x[:, :real, w:] = x[:, :real, w - 1 : w]
        x[:, real:] = x[:, real - 1 : real]
        return x.transpose(1, 2, 0)

    def rows_out(r0, r1, y):
        r1 = min(r1, h)
        out[r0:r1] = tensor_core.denormalize(y[: r1 - r0, :w])

    side = min(int(tile), hp, wp)
    return out, _run_stripes(weights, hp, wp, side, rows_in, rows_out)
