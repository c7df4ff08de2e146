"""Fused execution of the detail branch plus an off-chip traffic model.

Both branches come from model.build_lightfuse(), the one graph this module
runs. The executor reads its chain from the detail branch: each 1x1 conv
there, with the ReLU after it, is one step, and the kernels come from
model.layer_kernels, which checks every tensor against the graph. The
modeled accelerator runs the chain tile by tile (fused-layer tiling): an
S x S input tile is loaded once, carried through every step in on-chip
buffers, and only the final features are written back. Because 1x1 convs
have no spatial extent, any split of the pixels gives the bits of the
layer-by-layer reference path (both run the same fixed-order kernel), so S
sizes the traffic model below and nothing else.

On the host the chain runs through nn_ops._run_chain, the one block loop of
every 1x1 chain (pointwise_forward is a chain of one): flat CHUNK_PIXELS
blocks in row-major order, whatever S is, on CPU_THREADS threads. fuse_images
builds its stripes channel-planar, as nn_ops stores activations, so their
blocks are read in place, never gathered.

Traffic is a cost model, not a measurement: a closed form of (H, W, S)
computed once per call, not counted by the executors. Fused, the input is
read once and the output written once; unfused, every layer reads its input
and writes its output. Fused peak on-chip bytes model the accelerator's
per-tile working set - buffers for a full S x S tile at the input width plus
the two widest intermediate widths - not numpy's block buffers. The unfused
schedule streams one pixel at a time per layer: the widest (in + out) pair.

A whole forward pass (fused_forward, and fuse_images for 8-bit images) runs
in horizontal stripes of output rows, in units of 8 rows, so no full-size
intermediate exists. Each stripe's detail branch is one run_detailnet_fused
call, its tile clamped to the stripe's height, made after the stripe's
global branch has run on the calling thread: only its encoder, g1..g3 with
their ReLUs, up to the trailing nearest-neighbour upsamplings. The two
branches meet only at the merge, so they run one after the other.
The global branch of a stripe starting at row r0 > 0 runs on input rows
[r0 - 8, r1): a stride-2 3x3 layer reads one row above each output row's
centre, so only output row 0 of g1, g2 and g3 sees the window's zero
padding, and that one g3 row is dropped. The bottom padding of an
even-height input is never read. Every kept row is therefore the one
model.forward computes.

The merge adds the g3 map at 1/8 scale: the planar detail output, seen as
(3, R, 8, C, 8), takes the (3, R, C) map broadcast over each 8 x 8 block,
global + detail in place, then tanh. Upsampling only copies values, so each
sum and each tanh is the float model.forward computes; up1..up3 do not run
here (model.forward and run_branch keep them).

A stripe's buffers are made in this order: its input rows, the global
branch's temporaries, freed when it returns but for the g3 map, then the
detail output and each thread's block buffers (tensor_core._share_work),
which reuse the global branch's heap space. The detail output is freed
before the next stripe's input rows are read. Stripes run in row order;
reading the input rows, the merge, the finiteness check and writing the
output rows stay on the calling thread, so the first non-finite stripe is
the one reported.
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
# The graph, its two branches and the channel widths along the detail
# branch's chain of 1x1 convs (6, 32, 32, 3).
_GRAPH = model.build_lightfuse()
_GLOBAL, _DETAIL = (layers for _, layers in _GRAPH.branches)
# The global branch's layers before its trailing nearest-neighbour
# upsamplings (g1..g3 and their ReLUs), and the upsamplings' joint factor (8),
# which the stripe merge broadcasts instead of running them.
_ENCODER = _GLOBAL[: max(i + 1 for i, layer in enumerate(_GLOBAL) if layer.kind != "upsample_nn")]
_UPSCALE = math.prod(model.spatial_factor(layer)[0] for layer in _GLOBAL[len(_ENCODER) :])
_WIDTHS = (_DETAIL[0].in_channels,) + tuple(layer.out_channels for layer in _DETAIL if layer.kind == "pointwise")
# input tile channels + the two widest intermediate widths (6 + 32 + 32)
_FUSED_PEAK_CHANNELS = _WIDTHS[0] + sum(sorted(_WIDTHS[1:-1])[-2:])

# Output pixels per forward stripe (padded width times rows, in units of 8
# rows, at least one): 40 rows at W=1032. Swept at 1021x1027 on two fuse
# threads (2-vCPU x86 host, in-process fuse_images), with each thread's
# block buffers three of the widest step: traced peak 8.87 MiB at 73728
# (64 rows), 6.89 here, 6.22 at 36864 and 4.90 at 24576; median time 0.392,
# 0.418 and 0.434 s at the first three in 15 shuffled rounds, as each stripe
# re-reads 8 halo rows and ends when both threads have finished its blocks
# (README, "Tile-fused execution"). With the global branch run before the
# detail output and every block buffer are made, and the g3 map broadcast
# in the merge, the traced peaks (uint8 output excluded) are 5.55, 4.69,
# 4.41 and 3.81 MiB.
FUSE_STRIPE_PIXELS = 49152


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


def run_detailnet_fused(x: np.ndarray, weights: dict, tile) -> tuple:
    """The detail chain in flat pixel blocks, reported as run in S x S tiles.

    Returns (output, TrafficReport); the output is (H, W, 3) and
    channel-planar. The tile side S, 1 to min(H, W), sizes the report only:
    off-chip traffic reads the input once and writes the output once, and
    intermediates stay on chip. The chain, ReLUs included, runs in
    nn_ops._run_chain, so a float64 input stays float64; the threads and a
    worker's exception follow that helper.
    """
    _check_detail_input(x)
    h, w = x.shape[:2]
    traffic = _fused_traffic(h, w, _tile_side(tile, h, w))
    ops = sum((model.layer_kernels(layer, weights) for layer in _DETAIL), ())
    return nn_ops._run_chain(x, ops), traffic


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


def _stripes(h: int, w: int):
    """[r0, r1) output-row ranges of the forward stripes of an h x w input."""
    unit = _GRAPH.spatial_divisor
    step = unit * max(1, FUSE_STRIPE_PIXELS // (unit * w))
    return [(r0, min(r0 + step, h)) for r0 in range(0, h, step)]


def _run_stripes(weights: dict, h: int, w: int, tile, rows_in, rows_out) -> TrafficReport:
    """The forward pass of an h x w input (multiples of 8), stripe by stripe.

    rows_in(a, b) returns input rows [a, b) as an (b - a, w, 6) tensor;
    rows_out(r0, r1, y) receives the finite merged output rows [r0, r1).
    Returns the whole image's TrafficReport.
    """
    s = _tile_side(tile, h, w)
    halo = _GRAPH.spatial_divisor  # one encoder output row
    for r0, r1 in _stripes(h, w):
        a = max(0, r0 - halo)
        x = rows_in(a, r1)
        g = model.run_branch(_ENCODER, weights, x)
        # a stripe shorter than the tile is reported as one tile of its height
        d_out, _ = run_detailnet_fused(x[r0 - a :], weights, min(s, r1 - r0))
        del x
        # both branches compute in result_type(input, weights), so the merge
        # can overwrite the detail output without a cast; the planar detail
        # output seen as (3, R, 8, C, 8) takes the encoder's (3, R, C) map
        # broadcast over each 8 x 8 block, the values the upsamplings copy
        g = g[(r0 - a) // _UPSCALE :].transpose(2, 0, 1)
        d = d_out.transpose(2, 0, 1).reshape(
            (d_out.shape[2], g.shape[1], _UPSCALE, g.shape[2], _UPSCALE), copy=False
        )
        nn_ops.add(np.broadcast_to(g[:, :, np.newaxis, :, np.newaxis], d.shape), d, out=d)
        nn_ops.tanh(d_out, out=d_out)
        tensor_core.require_finite(d_out, "model output")
        rows_out(r0, r1, d_out)
        del d_out, d  # not alive beside the next stripe
    return _fused_traffic(h, w, s)


def fused_forward(weights: dict, under, over, tile) -> tuple:
    """Full forward pass in stripes, the detail branch run through the fused executor.

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
        x = tensor_core._aligned_empty((_WIDTHS[0], b - a, wp), np.float32)
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
