"""Fusion-network graphs, weight initialization, forward eval, weight files.

Two graphs are constructible: the dual-branch fusion network (a spatial
"global" branch of strided depthwise convs plus upsampling, and a "detail"
branch of three 1x1 convs, merged by addition and tanh), and a single-branch
trial network of three separable convs.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import nn_ops, tensor_core
from .nn_ops import DepthwiseKernel, PointwiseKernel

__all__ = [
    "LayerSpec",
    "ModelGraph",
    "WeightFormatError",
    "build_lightfuse",
    "build_tcnn",
    "param_entries",
    "graph_param_entries",
    "count_params",
    "init_weights",
    "layer_kernels",
    "run_layer",
    "run_branch",
    "forward",
    "save_weights",
    "load_weights",
]

LAYER_KINDS = ("depthwise", "pointwise", "separable", "upsample_nn", "relu", "tanh")


class WeightFormatError(ValueError):
    """Raised for malformed weight files or stores inconsistent with a graph."""


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str
    k: int = 1
    in_channels: int = 0
    out_channels: int = 0
    stride: int = 1

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind '{self.kind}'")


@dataclass(frozen=True)
class ModelGraph:
    """Branches evaluated independently from the 6-channel input.

    With merge_add_tanh the two branch outputs are summed and passed through
    tanh; otherwise the single branch output is returned as-is.
    """

    name: str
    branches: tuple
    merge_add_tanh: bool
    spatial_divisor: int = 8


def _relu_after(name, channels):
    return LayerSpec(f"{name}_relu", "relu", in_channels=channels, out_channels=channels)


def build_lightfuse() -> ModelGraph:
    """The dual-branch fusion graph (1,574 parameters).

    fusion's stripe halo of 8 input rows relies on the global branch
    encoding with exactly these three stride-2 3x3 layers.
    """
    g = [
        LayerSpec("g1", "depthwise", k=3, in_channels=6, out_channels=6, stride=2),
        _relu_after("g1", 6),
        LayerSpec("g2", "depthwise", k=3, in_channels=6, out_channels=6, stride=2),
        _relu_after("g2", 6),
        LayerSpec("g3", "separable", k=3, in_channels=6, out_channels=3, stride=2),
        _relu_after("g3", 3),
        LayerSpec("up1", "upsample_nn", in_channels=3, out_channels=3),
        LayerSpec("up2", "upsample_nn", in_channels=3, out_channels=3),
        LayerSpec("up3", "upsample_nn", in_channels=3, out_channels=3),
    ]
    d = [
        LayerSpec("d1", "pointwise", in_channels=6, out_channels=32),
        _relu_after("d1", 32),
        LayerSpec("d2", "pointwise", in_channels=32, out_channels=32),
        _relu_after("d2", 32),
        LayerSpec("d3", "pointwise", in_channels=32, out_channels=3),
        _relu_after("d3", 3),
    ]
    return ModelGraph(
        name="lightfuse",
        branches=(("global", tuple(g)), ("detail", tuple(d))),
        merge_add_tanh=True,
        spatial_divisor=8,
    )


def build_tcnn() -> ModelGraph:
    """Single-branch trial network: three 3x3 separable convs, tanh output."""
    chans = (6, 32, 32, 3)
    layers = []
    for i, (m, n) in enumerate(zip(chans[:-1], chans[1:]), start=1):
        layers.append(LayerSpec(f"t{i}", "separable", k=3, in_channels=m, out_channels=n))
        if i < 3:
            layers.append(_relu_after(f"t{i}", n))
    layers.append(LayerSpec("t3_tanh", "tanh", in_channels=3, out_channels=3))
    return ModelGraph(
        name="tcnn",
        branches=(("main", tuple(layers)),),
        merge_add_tanh=False,
        spatial_divisor=1,
    )


def param_entries(layer: LayerSpec):
    """(key, shape, fan_in) for each parameter tensor of a layer.

    fan_in 0 marks bias vectors (initialized to zero). Weight layout matches
    the weight-file contract: depthwise (k, k, channels), pointwise
    (in_channels, out_channels), bias (channels,).
    """
    n, k = layer.name, layer.k
    m, c = layer.in_channels, layer.out_channels
    if layer.kind == "depthwise":
        return [(f"{n}.weight", (k, k, m), k * k), (f"{n}.bias", (c,), 0)]
    if layer.kind == "pointwise":
        return [(f"{n}.weight", (m, c), m), (f"{n}.bias", (c,), 0)]
    if layer.kind == "separable":
        return [
            (f"{n}.dw.weight", (k, k, m), k * k),
            (f"{n}.pw.weight", (m, c), m),
            (f"{n}.pw.bias", (c,), 0),
        ]
    return []


def graph_param_entries(graph: ModelGraph):
    entries = []
    for _, layers in graph.branches:
        for layer in layers:
            entries.extend(param_entries(layer))
    return entries


def count_params(graph: ModelGraph) -> int:
    return sum(int(np.prod(shape)) for _, shape, _ in graph_param_entries(graph))


def init_weights(graph: ModelGraph, seed: int) -> dict:
    """Uniform [-sqrt(6/fan_in), +sqrt(6/fan_in)] weights, zero biases."""
    rng = np.random.default_rng(seed)
    store = {}
    for key, shape, fan_in in graph_param_entries(graph):
        if fan_in == 0:
            store[key] = np.zeros(shape, dtype=np.float32)
        else:
            bound = math.sqrt(6.0 / fan_in)
            store[key] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return store


def _param_of_shape(weights: dict, key: str, shape: tuple) -> np.ndarray:
    try:
        arr = weights[key]
    except KeyError:
        raise WeightFormatError(f"missing parameter '{key}'") from None
    if arr.shape != shape:
        raise WeightFormatError(f"shape mismatch for '{key}': store {arr.shape}, graph {shape}")
    return arr


def layer_kernels(layer: LayerSpec, weights: dict):
    """The nn_ops ops a layer runs, in order, for nn_ops.run_ops.

    A parameterized layer's kernels read their tensors from the store in
    param_entries order, each of its graph shape; a separable layer is a
    bias-free depthwise kernel then a pointwise one. A parameter-free
    layer is the one op named by its kind.
    """
    params = [_param_of_shape(weights, key, shape) for key, shape, _ in param_entries(layer)]
    if layer.kind == "depthwise":
        return (DepthwiseKernel(*params, stride=layer.stride),)
    if layer.kind == "pointwise":
        return (PointwiseKernel(*params),)
    if layer.kind == "separable":
        dw, pw, pb = params
        return (DepthwiseKernel(dw, None, layer.stride), PointwiseKernel(pw, pb))
    return (layer.kind,)


def spatial_factor(layer: LayerSpec) -> tuple:
    """Output side length over input side length, on both spatial axes, as
    an integer (numerator, denominator) pair.

    Left out of __all__: it is a per-layer rule inside run_branch and
    cost_model.analyze, so per-function traces charge its time to them.
    """
    if layer.kind in ("depthwise", "separable"):
        return 1, layer.stride
    if layer.kind == "upsample_nn":
        return 2, 1
    return 1, 1


def run_layer(layer: LayerSpec, weights: dict, x: np.ndarray, tape=None) -> np.ndarray:
    """The layer's ops through nn_ops.run_ops; a given tape gets (layer, ops, inputs)."""
    ops, inputs = layer_kernels(layer, weights), []
    y = nn_ops.run_ops(ops, x, inputs)
    if tape is not None:
        tape.append((layer, ops, inputs))
    return y


def run_branch(layers, weights: dict, x: np.ndarray, tape=None) -> np.ndarray:
    """Run layers in order, asserting each output size against spatial_factor.

    With tape given, every layer appends its run_layer entry to it, in order.
    """
    for layer in layers:
        y = run_layer(layer, weights, x, tape)
        num, den = spatial_factor(layer)
        if y.shape[0] * den != x.shape[0] * num or y.shape[1] * den != x.shape[1] * num:
            from fractions import Fraction  # here, not at the top: loading model skips fractions

            f = Fraction(num, den)
            raise RuntimeError(
                f"layer '{layer.name}': expected {x.shape[0] * f}x{x.shape[1] * f} output, got {y.shape[:2]}"
            )
        x = y
    return x


def merge_branches(graph: ModelGraph, outs: list) -> tuple:
    """(pre-activation sum or None, output) of the merge stage over branch outputs.

    The one merge rule forward and training share; left out of __all__ like check_pair.
    """
    if not graph.merge_add_tanh:
        return None, outs[0]
    if len(outs) != 2:
        raise RuntimeError("merge stage requires exactly two branches")
    pre = nn_ops.add(outs[0], outs[1])
    return pre, nn_ops.tanh(pre)


def check_pair(graph: ModelGraph, under: np.ndarray, over: np.ndarray) -> None:
    for name, t in (("under", under), ("over", over)):
        if not isinstance(t, np.ndarray) or t.ndim != 3 or t.shape[2] != 3:
            raise ValueError(f"{name} input must have shape (H, W, 3)")
    if under.shape != over.shape:
        raise ValueError(f"dimension mismatch: under {under.shape[:2]} vs over {over.shape[:2]}")
    div = graph.spatial_divisor
    if under.shape[0] % div or under.shape[1] % div:
        raise ValueError(f"input dims must be divisible by {div}, got {under.shape[:2]}")


def forward(graph: ModelGraph, weights: dict, under: np.ndarray, over: np.ndarray) -> np.ndarray:
    """Evaluate the graph on an exposure pair (underexposed image first).

    run_branch asserts the size of every layer's output; the result is
    (H, W, 3) with values in (-1, 1) for merged graphs.
    """
    check_pair(graph, under, over)
    x = np.concatenate((under, over), axis=2)
    h, w = x.shape[:2]
    out = merge_branches(graph, [run_branch(layers, weights, x) for _, layers in graph.branches])[1]
    if out.shape != (h, w, 3):
        raise RuntimeError(f"output shape {out.shape} does not match input {h}x{w}x3")
    tensor_core.require_finite(out, "model output")
    return out


_MAGIC = b"LFW1"


def save_weights(weights: dict, graph: ModelGraph) -> bytes:
    """Serialize the store in graph order (little-endian, format LFW1)."""
    entries = graph_param_entries(graph)
    blob = bytearray(_MAGIC)
    blob += struct.pack("<I", len(entries))
    for key, shape, _ in entries:
        arr = _param_of_shape(weights, key, shape)
        name = key.encode("utf-8")
        blob += struct.pack("<H", len(name))
        blob += name
        blob += struct.pack("<B", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return bytes(blob)


def load_weights(data: bytes, graph: ModelGraph) -> dict:
    """Parse an LFW1 blob; every tensor must match the graph's shape and be finite."""
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(data):
            raise WeightFormatError(f"truncated file while reading {what}")
        chunk = data[pos : pos + n]
        pos += n
        return chunk

    if take(4, "magic") != _MAGIC:
        raise WeightFormatError("bad magic: expected 'LFW1'")
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    # name -> (dims, payload); only graph-shaped tensors become arrays, as numpy
    # allows at most 64 dims and the format 255
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise WeightFormatError(f"tensor name {len(tensors)}: not valid UTF-8") from None
        (ndim,) = struct.unpack("<B", take(1, f"ndim of '{name}'"))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, f"dims of '{name}'"))
        size = math.prod(dims)
        payload = take(4 * size, f"payload of '{name}'")
        if name in tensors:
            raise WeightFormatError(f"duplicate tensor '{name}'")
        tensors[name] = dims, payload
    if pos != len(data):
        raise WeightFormatError(f"{len(data) - pos} trailing bytes after last tensor")

    expected = graph_param_entries(graph)
    store = {}
    for key, shape, _ in expected:
        if key not in tensors:
            raise WeightFormatError(f"missing parameter '{key}'")
        dims, payload = tensors[key]
        if dims != shape:
            raise WeightFormatError(f"shape mismatch for '{key}': file {dims}, graph {shape}")
        store[key] = np.frombuffer(payload, dtype="<f4").astype(np.float32).reshape(dims)
        if not np.isfinite(store[key]).all():
            raise WeightFormatError(f"non-finite values in tensor '{key}'")
    for name in tensors:
        if name not in store:
            raise WeightFormatError(f"unexpected tensor '{name}'")
    return store
