"""Reference kernels for every primitive the fusion graphs use.

These are the plain, obviously-correct definitions (forward and backward)
that every other execution path is checked against. Accumulation order is
pinned - bias first, then ascending input channel / kernel position - so
alternative schedules can be compared bit for bit.

This module is the one owner of which forward goes with which backward:
op_forward and op_backward pair them for one primitive - a DepthwiseKernel,
a PointwiseKernel, or one of "relu", "tanh", "upsample_nn" - and run_ops and
backward_ops walk an op tuple forward, keeping each op's input, and back.

The 1x1 kernel works channels-first: pixels are transposed in blocks of
CHUNK_PIXELS into (channels, pixels) buffers, so every step of the pinned
order is one long contiguous multiply and add per output channel. Each
element still sees bias, then + w[m] * x[m] for m ascending, rounded after
every operation, so the layout does not change a single output bit.
"""

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DepthwiseKernel",
    "PointwiseKernel",
    "depthwise_forward",
    "pointwise_forward",
    "upsample_nn",
    "relu",
    "tanh",
    "add",
    "depthwise_backward",
    "pointwise_backward",
    "upsample_backward",
    "relu_backward",
    "tanh_backward",
    "grad_check",
]


@dataclass(frozen=True)
class DepthwiseKernel:
    """Per-channel spatial convolution: (k, k, channels) weights, optional bias."""

    weights: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1

    def __post_init__(self):
        w = self.weights
        if w.ndim != 3 or w.shape[0] != w.shape[1]:
            raise ValueError("depthwise weights must have shape (k, k, channels)")
        if w.shape[0] % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {w.shape[0]}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if self.bias is not None and self.bias.shape != (w.shape[2],):
            raise ValueError("bias length must equal the channel count")

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def channels(self) -> int:
        return self.weights.shape[2]


@dataclass(frozen=True)
class PointwiseKernel:
    """1x1 convolution mixing channels per pixel: (in, out) weights plus bias."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise ValueError("pointwise weights must have shape (in_channels, out_channels)")
        if self.bias.shape != (self.weights.shape[1],):
            raise ValueError("bias length must equal out_channels")

    @property
    def in_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[1]


# Pixels per channels-first block. With 32 output channels one float32 block
# of products is 512 KiB, which stays in cache between the multiply and the
# add. On a 1024x1032 detail branch (2-vCPU x86 host) 4096 took 0.65 s
# unfused, against 1.31 s at 2048 and 0.72 s at 8192.
CHUNK_PIXELS = 4096


def pointwise_channels_first(x, kern: PointwiseKernel, out, scratch):
    """Pinned-order 1x1 conv on channels-first data: x (in, P) -> out (out, P).

    out[n, p] starts from bias[n], then adds w[m, n] * x[m, p] for m
    ascending, each product rounded before its add. `out` and `scratch` are
    caller-owned (out_channels, P) buffers of dtype result_type(x, weights);
    `scratch` holds one product row block at a time. Returns `out`.

    Left out of __all__: it is the inner step of pointwise_forward and of
    the fused executor, so per-function traces charge its time to them.
    """
    out[...] = kern.bias[:, np.newaxis]
    for m in range(kern.in_channels):
        np.multiply(x[m], kern.weights[m, :, np.newaxis], out=scratch)
        np.add(out, scratch, out=out)
    return out


def pointwise_forward(x: np.ndarray, kern: PointwiseKernel) -> np.ndarray:
    """out[..., n] = bias[n] + sum_m w[m, n] * x[..., m], any leading dims.

    Computed in result_type(x, weights), channels-first in blocks of
    CHUNK_PIXELS pixels through buffers allocated once per call.
    """
    m, n = kern.in_channels, kern.out_channels
    if x.shape[-1] != m:
        raise ValueError(
            f"channel mismatch: input has {x.shape[-1]}, kernel expects {m}"
        )
    x2 = x.reshape(-1, m)
    npix = x2.shape[0]
    dtype = np.result_type(x.dtype, kern.weights.dtype)
    out2 = np.empty((npix, n), dtype=dtype)
    chunk = min(CHUNK_PIXELS, npix)
    x_buf = np.empty(m * chunk, dtype=x.dtype)
    out_buf = np.empty(n * chunk, dtype=dtype)
    scratch = np.empty(n * chunk, dtype=dtype)
    for p0 in range(0, npix, chunk):
        p1 = min(p0 + chunk, npix)
        c = p1 - p0
        xc = x_buf[: m * c].reshape(m, c)
        xc[...] = x2[p0:p1].T
        oc = pointwise_channels_first(xc, kern, out_buf[: n * c].reshape(n, c), scratch[: n * c].reshape(n, c))
        out2[p0:p1] = oc.T
    return out2.reshape(x.shape[:-1] + (n,))


def depthwise_forward(x: np.ndarray, kern: DepthwiseKernel) -> np.ndarray:
    """Per-channel conv with zero 'same' padding; stride 2 halves even dims.

    Output (i, j) reads the padded window centered at (stride*i, stride*j).
    """
    if x.ndim != 3:
        raise ValueError("depthwise input must be (H, W, C)")
    if x.shape[2] != kern.channels:
        raise ValueError(
            f"channel mismatch: input has {x.shape[2]}, kernel expects {kern.channels}"
        )
    h, w = x.shape[:2]
    s = kern.stride
    if s == 2 and (h % 2 or w % 2):
        raise ValueError("stride-2 depthwise requires even input dimensions")
    k = kern.k
    p = (k - 1) // 2
    oh, ow = h // s, w // s
    xp = np.pad(x, ((p, p), (p, p), (0, 0)))
    out = np.empty((oh, ow, kern.channels), dtype=np.result_type(x.dtype, kern.weights.dtype))
    out[:] = kern.bias if kern.bias is not None else 0.0
    for u in range(k):
        for v in range(k):
            out += kern.weights[u, v] * xp[u : u + s * oh : s, v : v + s * ow : s]
    return out


def upsample_nn(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbor x2 upsampling: out[i, j] = x[i // 2, j // 2]."""
    return np.repeat(np.repeat(x, 2, axis=0), 2, axis=1)


def relu(x: np.ndarray, out=None) -> np.ndarray:
    """max(x, 0); pass out=x to rectify in place."""
    return np.maximum(x, 0.0, out=out)


def tanh(x: np.ndarray, out=None) -> np.ndarray:
    """tanh(x); pass out=x to apply it in place."""
    return np.tanh(x, out=out)


def add(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a + b for equal shapes; pass out=a or out=b to add in place."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.add(a, b, out=out)


def pointwise_backward(x, kern: PointwiseKernel, grad):
    """Gradients of pointwise_forward: returns (dx, dweights, dbias)."""
    if grad.shape != x.shape[:-1] + (kern.out_channels,):
        raise ValueError("upstream gradient shape mismatch")
    x2 = x.reshape(-1, kern.in_channels)
    g2 = grad.reshape(-1, kern.out_channels)
    dw = x2.T @ g2
    db = g2.sum(axis=0)
    dx = (g2 @ kern.weights.T).reshape(x.shape)
    return dx, dw, db


def depthwise_backward(x, kern: DepthwiseKernel, grad):
    """Gradients of depthwise_forward: returns (dx, dweights, dbias).

    dbias is None for bias-free kernels.
    """
    h, w = x.shape[:2]
    s = kern.stride
    k = kern.k
    p = (k - 1) // 2
    oh, ow = h // s, w // s
    if grad.shape != (oh, ow, kern.channels):
        raise ValueError("upstream gradient shape mismatch")
    xp = np.pad(x, ((p, p), (p, p), (0, 0)))
    dxp = np.zeros_like(xp)
    dw = np.empty_like(kern.weights)
    for u in range(k):
        for v in range(k):
            window = xp[u : u + s * oh : s, v : v + s * ow : s]
            dw[u, v] = (window * grad).sum(axis=(0, 1))
            dxp[u : u + s * oh : s, v : v + s * ow : s] += kern.weights[u, v] * grad
    dx = dxp[p : p + h, p : p + w].copy()
    db = grad.sum(axis=(0, 1)) if kern.bias is not None else None
    return dx, dw, db


def upsample_backward(grad):
    """Block-sum the upstream gradient back onto the 2x-smaller input grid."""
    h2, w2, c = grad.shape
    if h2 % 2 or w2 % 2:
        raise ValueError("upsample gradient must have even spatial dims")
    return grad.reshape(h2 // 2, 2, w2 // 2, 2, c).sum(axis=(1, 3))


def relu_backward(x, grad):
    return grad * (x > 0)


def tanh_backward(x, grad):
    t = np.tanh(x)
    return grad * (1.0 - t * t)


def op_forward(op, x: np.ndarray) -> np.ndarray:
    """Forward of one primitive: a kernel, or "relu", "tanh", "upsample_nn".

    Left out of __all__ like pointwise_channels_first, as are the two walks
    over it. The kernels are called through this module's globals, so
    per-function traces still see each of them.
    """
    if isinstance(op, DepthwiseKernel):
        return depthwise_forward(x, op)
    if isinstance(op, PointwiseKernel):
        return pointwise_forward(x, op)
    if op == "relu":
        return relu(x)
    if op == "tanh":
        return tanh(x)
    if op == "upsample_nn":
        return upsample_nn(x)
    raise ValueError(f"unknown op {op!r}")


def op_backward(op, x: np.ndarray, grad: np.ndarray) -> tuple:
    """Backward of op_forward(op, x): (dx, parameter gradients).

    The parameter gradients are (dweights, dbias), or (dweights,) for a
    bias-free depthwise kernel, and () for the parameter-free ops.
    """
    if isinstance(op, DepthwiseKernel):
        dx, dw, db = depthwise_backward(x, op, grad)
        return dx, (dw,) if op.bias is None else (dw, db)
    if isinstance(op, PointwiseKernel):
        dx, dw, db = pointwise_backward(x, op, grad)
        return dx, (dw, db)
    if op == "relu":
        return relu_backward(x, grad), ()
    if op == "tanh":
        return tanh_backward(x, grad), ()
    if op == "upsample_nn":
        return upsample_backward(grad), ()
    raise ValueError(f"unknown op {op!r}")


def run_ops(ops, x: np.ndarray, inputs: list) -> np.ndarray:
    """op_forward over ops in order, appending each op's input to `inputs`."""
    for op in ops:
        inputs.append(x)
        x = op_forward(op, x)
    return x


def backward_ops(ops, inputs, grad: np.ndarray) -> tuple:
    """Backward of run_ops(ops, x, inputs): (dx, parameter gradients in op order)."""
    pgrads = []
    for op, x in zip(reversed(ops), reversed(inputs)):
        grad, op_grads = op_backward(op, x, grad)
        pgrads[:0] = op_grads
    return grad, tuple(pgrads)


def _op_closure(op):
    """Forward/backward closures plus the parameter tuple for grad_check."""
    if isinstance(op, tuple) and len(op) == 2 and op[0] == "add":
        other = op[1]
        return (lambda x: add(x, other.astype(x.dtype))), (), (lambda x, g: (g, ()))
    if isinstance(op, (DepthwiseKernel, PointwiseKernel)):
        names = ("weights",) if op.bias is None else ("weights", "bias")
    elif isinstance(op, str) and op in ("relu", "tanh", "upsample_nn"):
        names = ()
    else:
        raise ValueError(f"grad_check does not know op {op!r}")

    def fwd(x, *params):
        return op_forward(replace(op, **dict(zip(names, params))) if names else op, x)

    return fwd, tuple(getattr(op, n) for n in names), (lambda x, g: op_backward(op, x, g))


def grad_check(op, x: np.ndarray, seed: int = 0, eps: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference gradients.

    The analytic side runs at the kernel's native float32. The numeric side
    re-evaluates the op in float64 so the oracle's own rounding noise stays
    far below the tolerances being checked. Relative error is
    |a - n| / max(|a|, |n|, 1e-8) over every input and parameter element.
    """
    fwd, params, bwd = _op_closure(op)
    out = fwd(x, *params)
    rng = np.random.default_rng(seed)
    upstream = rng.standard_normal(out.shape).astype(np.float32)
    dx, dparams = bwd(x, upstream)

    arrays = [x.astype(np.float64)] + [p.astype(np.float64) for p in params]
    grads = [dx] + list(dparams)
    r64 = upstream.astype(np.float64)

    def objective():
        return float(np.sum(fwd(arrays[0], *arrays[1:]) * r64))

    max_rel = 0.0
    for arr, grad in zip(arrays, grads):
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            jp = objective()
            flat[i] = orig - eps
            jm = objective()
            flat[i] = orig
            numeric = (jp - jm) / (2.0 * eps)
            analytic = float(gflat[i])
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel
