"""Reference kernels for every primitive the fusion graphs use.

These are the plain, obviously-correct definitions (forward and backward)
that every other execution path is checked against. Accumulation order is
pinned - bias first, then ascending input channel / kernel position - so
alternative schedules can be compared bit for bit.

This module is the one owner of which forward goes with which backward:
op_forward and op_backward pair them for one primitive - a DepthwiseKernel,
a PointwiseKernel, or one of "relu", "tanh", "upsample_nn" - and run_ops and
backward_ops walk an op tuple forward, keeping each op's input, and back. A
relu keeps its output instead, which relu_backward reads alike, so a tape
holds no pre-activation.

Layout. Activations and gradients are (H, W, C) arrays (any leading dims
for the 1x1 kernel), and every kernel accepts them in any memory order.
The forward kernels that allocate their result - depthwise_forward,
pointwise_forward and upsample_nn - store it channel-planar: the memory of
a (C, H, W) array, seen through .transpose(1, 2, 0). relu, tanh and add
keep their input's order, so a walk runs planar from its first kernel on.
On planar data each channel is one contiguous plane: _run_chain, the one
block loop of every 1x1 chain, reads its blocks in place, and the
depthwise taps, padding and upsampling read and write whole rows. Each
element still sees bias, then + w * x in ascending order, rounded after
every operation, so the layout changes no output bit.

Some results do depend on memory order: numpy sums pairwise along
contiguous memory and one by one across it, and a BLAS product's kernel
depends on its operands' layout. Each of these runs on C-ordered (H, W, C)
operands, copied where they are stored otherwise, so its bits are the same
whatever order its inputs come in:
  * pointwise_backward: dweights = x2.T @ g2, dbias = g2.sum(axis=0) (by
    _column_sums) and dx = g2 @ weights.T, on (pixels, channels) rows x2
    and g2;
  * depthwise_backward: dweights, from an (H, W, C) zero-padded input and
    the gradient, and dbias;
  * upsample_backward's 2x2 block sum.
depthwise_backward and upsample_backward spell out numpy's own order of
those sums where it is one by one (more than one channel), which lets them
sum every tap at once and add the four pixels of a block elementwise.
The backward kernels therefore return their gradients C-ordered, the order
the next backward reduction reads; relu_backward and tanh_backward do too.
training pins its loss sums the same way (training._diff), and its
backward walk hands the kernels C-ordered copies of the activations they
read, one per activation, a relu's being the copy the layer above it made
of its output (training._backward).

depthwise_backward and pointwise_backward take need_dx=False to skip dx:
the first kernel of a branch needs none, as the network input takes no
gradient. op_backward calls them through this module's globals, so per-
function traces of a training walk see each backward kernel.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import tensor_core

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
# unfused, against 1.31 s at 2048 and 0.72 s at 8192. The jump below 4096 is
# numpy's buffered iterator: it copies a broadcast (P,) x (N, 1) multiply's
# short rows through its 8,192-element buffer, 0.37-0.54 ns per element at
# P <= 2,048 against 0.09-0.13 ns at P >= 3,072 (float32, N = 32).
# np.setbufsize(1024) removed the gap in a measurement, but is not called
# here: a reduction's chunking, and so its bits, can depend on the buffer size.
CHUNK_PIXELS = 4096

# Largest (pixels, taps, channels) product block depthwise_backward sums in
# one pass for its weight gradient; beyond it, tap by tap. On 64x64 inputs
# (2-vCPU x86 host, float32) one pass took 0.66-0.97x the tap-by-tap time
# for blocks of up to 442k elements and 1.02-1.43x for 590k-1.2M.
TAP_SUM_ELEMS = 1 << 19


def pointwise_channels_first(x, kern: PointwiseKernel, out, scratch):
    """Pinned-order 1x1 conv on channels-first data: x (in, P) -> out (out, P).

    out[n, p] starts from bias[n], then adds w[m, n] * x[m, p] for m
    ascending, each product rounded before its add. `out` and `scratch` are
    caller-owned (out_channels, P) buffers of dtype result_type(x, weights);
    `scratch` holds one product row block at a time. Returns `out`.

    Left out of __all__, as is _run_chain: it is the inner step of that one
    block loop, so per-function traces charge its time to the loop's
    callers, pointwise_forward and fusion.run_detailnet_fused.
    """
    out[...] = kern.bias[:, np.newaxis]
    for m in range(kern.in_channels):
        np.multiply(x[m], kern.weights[m, :, np.newaxis], out=scratch)
        np.add(out, scratch, out=out)
    return out


def _planar(a: np.ndarray) -> np.ndarray:
    """A (C, ...) array seen as (..., C): the layout of every forward kernel result."""
    return a.transpose(tuple(range(1, a.ndim)) + (0,))  # np.moveaxis(a, 0, -1); its checks cost more


def _run_chain(x: np.ndarray, ops, alongside=None) -> np.ndarray:
    """The one block loop of every 1x1 chain: x (..., C) -> (..., C'), channel-planar.

    ops are PointwiseKernels, each optionally followed by "relu" (rectified in
    place by relu's ufunc); any other op raises ValueError. Each kernel
    computes in result_type(its input, its weights) by
    pointwise_channels_first, so the chain gives run_ops' bits.

    The pixels run in row-major blocks of at most CHUNK_PIXELS, read in place
    from x's planes where their rows are contiguous (x planar, as the forward
    kernels store it) and gathered otherwise. A block is carried through every
    step in one thread's buffers and copied into the result's planes, as planes
    a multiple of 4 KiB apart slowed the adds by a quarter (65536 pixels,
    32 -> 32 channels); a lone block's last step writes straight into them.
    Each thread owns one product buffer, shared by every step, and one or two
    activation buffers that the steps write in turn, none where a lone block
    has one step. They are byte buffers sized for the widest step, its
    channels times its dtype's itemsize, and each step views them in its own
    dtype, which may differ from the step before it. The result and every
    buffer start on a cache line (tensor_core._aligned_empty). The result is
    the caller's; the buffers live for this call only.

    A lone block with no `alongside` runs inline on the calling thread.
    Otherwise tensor_core._share_work shares the blocks among CPU_THREADS
    threads: the caller makes a worker's buffer set, starts it, and so on for
    each worker, runs `alongside` (a fuse stripe's global branch), and only
    then makes its own set and claims blocks too, so `alongside`'s temporaries
    and the caller's buffers are never alive together; every thread is joined
    before this returns or raises, and a worker's first exception is raised
    here. A chain inside `alongside` (g3's, past a padded width of 16,384)
    shares its blocks too, beside the caller's workers: accepted for inputs
    that wide. numpy's ufuncs and copies release the GIL, so the arithmetic
    runs on every CPU.
    Each thread writes disjoint pixels, so no bit depends on the thread count.
    Workers call only _run_block, pointwise_channels_first and numpy, never a
    function in a module's __all__, so a traced run sees one thread.
    """
    steps = []  # [kernel, whether a relu follows it, the dtype it computes in]
    chans, dtype, widest = x.shape[-1], x.dtype, 0
    for op in ops:
        if isinstance(op, PointwiseKernel):
            if chans != op.in_channels:
                raise ValueError(f"channel mismatch: input has {chans}, kernel expects {op.in_channels}")
            # result_type's rule for two dtypes, at a tenth of its cost
            chans, dtype = op.out_channels, np.promote_types(dtype, op.weights.dtype)
            widest = max(widest, chans * dtype.itemsize)
            steps.append([op, False, dtype])
        elif op == "relu" and steps and not steps[-1][1]:
            steps[-1][1] = True
        else:
            raise ValueError(f"a 1x1 chain runs pointwise kernels, each with an optional relu, not {op!r}")
    xt = x.reshape(-1, x.shape[-1]).T  # (C, P): x's own planes when x is planar
    npix = xt.shape[1]
    out = tensor_core._aligned_empty((chans, npix), dtype)
    chunk = min(CHUNK_PIXELS, npix)
    lone = chunk == npix
    n_acts = min(2, len(steps) - lone)  # a lone block's last step needs none

    def buffer_set():
        """(x's gather buffer or None, the activation buffers, the product buffer), each cache-line aligned."""
        gather = None if xt.strides[1] == xt.itemsize else tensor_core._aligned_empty((xt.shape[0], chunk), x.dtype)
        acts = [tensor_core._aligned_empty((widest * chunk,), np.uint8) for _ in range(n_acts)]
        return gather, acts, tensor_core._aligned_empty((widest * chunk,), np.uint8)

    if lone and alongside is None:
        _run_block(steps, xt, out, 0, *buffer_set())
    else:
        blocks = range(0, npix, max(chunk, 1))
        # with zero pixels there is no block and one thread, so `alongside` still runs
        threads = max(1, min(tensor_core.CPU_THREADS, len(blocks)))
        tensor_core._share_work(
            blocks, lambda p0, *bufs: _run_block(steps, xt[:, p0 : p0 + chunk], out, p0, *bufs),
            buffer_set, threads, alongside,
        )
    return _planar(out.reshape((chans,) + x.shape[:-1]))


def _run_block(steps, t, out, p0, gather, acts, prod):
    """_run_chain's steps over the (C, c) block t into out[:, p0 : p0 + c].

    Step i writes into acts[i % 2], and the last step of a block as long as
    out, a lone block, into out itself.
    """
    c = t.shape[1]
    if gather is not None:
        gather = gather[:, :c]
        gather[...] = t
        t = gather
    last = len(steps) - 1 if c == out.shape[1] else None
    for i, (kern, relu_after, dtype) in enumerate(steps):
        shape = (kern.out_channels, c)
        size = shape[0] * c * dtype.itemsize
        y = out if i == last else acts[i % 2][:size].view(dtype).reshape(shape)
        pointwise_channels_first(t, kern, y, prod[:size].view(dtype).reshape(shape))
        if relu_after:
            np.maximum(y, 0.0, out=y)  # relu's ufunc
        t = y
    if t is not out:
        out[:, p0 : p0 + c] = t


def pointwise_forward(x: np.ndarray, kern: PointwiseKernel) -> np.ndarray:
    """out[..., n] = bias[n] + sum_m w[m, n] * x[..., m], any leading dims.

    A chain of one step in _run_chain, the one block loop of every 1x1 chain:
    computed in result_type(x, weights), in blocks shared out among threads.
    """
    return _run_chain(x, (kern,))


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
    xp = np.zeros((kern.channels, h + 2 * p, w + 2 * p), dtype=x.dtype)  # planes in a zero border
    xp[:, p : p + h, p : p + w] = x.transpose(2, 0, 1)
    out = np.empty((kern.channels, oh, ow), dtype=np.result_type(x.dtype, kern.weights.dtype))
    out[...] = 0.0 if kern.bias is None else kern.bias[:, np.newaxis, np.newaxis]
    prod = np.empty_like(out)
    for u in range(k):
        for v in range(k):
            window = xp[:, u : u + s * oh : s, v : v + s * ow : s]
            np.multiply(window, kern.weights[u, v, :, np.newaxis, np.newaxis], out=prod)
            out += prod
    return _planar(out)


def upsample_nn(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbor x2 upsampling: out[i, j] = x[i // 2, j // 2]."""
    return _planar(np.repeat(np.repeat(x.transpose(2, 0, 1), 2, axis=1), 2, axis=2))


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


def _column_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=0) of a C-ordered (rows, n) array, bit for bit.

    With n > 1 numpy's reduce adds row after row from +0, and
    np.einsum("pn->n") adds in that same order in one pass, about three
    times faster (4096 x 32 float32). With one column numpy sums the
    contiguous values pairwise and einsum does not, so that case keeps the
    reduce. Where a column holds a NaN the sum is a NaN either way, but its
    payload bits may differ.
    """
    return np.einsum("pn->n", a) if a.shape[1] > 1 else a.sum(axis=0)


def pointwise_backward(x, kern: PointwiseKernel, grad, need_dx: bool = True):
    """Gradients of pointwise_forward: returns (dx, dweights, dbias); dx is None unless need_dx."""
    if grad.shape != x.shape[:-1] + (kern.out_channels,):
        raise ValueError("upstream gradient shape mismatch")
    x2 = np.ascontiguousarray(x.reshape(-1, kern.in_channels))
    g2 = np.ascontiguousarray(grad.reshape(-1, kern.out_channels))
    dw = x2.T @ g2
    db = _column_sums(g2)
    dx = (g2 @ kern.weights.T).reshape(x.shape) if need_dx else None
    return dx, dw, db


def depthwise_backward(x, kern: DepthwiseKernel, grad, need_dx: bool = True):
    """Gradients of depthwise_forward: returns (dx, dweights, dbias).

    dx is None unless need_dx, dbias None for bias-free kernels.
    """
    h, w = x.shape[:2]
    s = kern.stride
    k = kern.k
    p = (k - 1) // 2
    oh, ow = h // s, w // s
    if grad.shape != (oh, ow, kern.channels):
        raise ValueError("upstream gradient shape mismatch")
    xp = np.zeros((h + 2 * p, w + 2 * p, kern.channels), dtype=x.dtype)
    xp[p : p + h, p : p + w] = x
    grad = np.ascontiguousarray(grad)
    dxp = np.zeros_like(xp) if need_dx else None
    dw = np.empty_like(kern.weights)
    # dw[u, v] is numpy's sum over the pixels of tap (u, v)'s C-ordered
    # (oh, ow, C) products. With C > 1 the channels are numpy's inner loop,
    # so it adds pixel after pixel from +0, and one sum over every tap's
    # products at once (an inner loop of k*k*C) adds in that same order. With
    # one channel numpy sums each row pairwise instead, and a large product
    # block outgrows the cache, so then each tap is summed on its own.
    together = kern.channels > 1 and oh * ow * k * k * kern.channels <= TAP_SUM_ELEMS
    prods = np.empty((oh, ow, k, k, kern.channels), dtype=np.result_type(x.dtype, grad.dtype)) if together else None
    for u in range(k):
        for v in range(k):
            window = xp[u : u + s * oh : s, v : v + s * ow : s]
            if together:
                np.multiply(window, grad, out=prods[:, :, u, v])
            else:
                dw[u, v] = (window * grad).sum(axis=(0, 1))
            if need_dx:
                dxp[u : u + s * oh : s, v : v + s * ow : s] += kern.weights[u, v] * grad
    if together:
        dw[...] = _column_sums(prods.reshape(oh * ow, -1)).reshape(dw.shape)
    dx = dxp[p : p + h, p : p + w].copy() if need_dx else None
    db = _column_sums(grad.reshape(oh * ow, -1)) if kern.bias is not None else None
    return dx, dw, db


def upsample_backward(grad):
    """Block-sum the upstream gradient back onto the 2x-smaller input grid."""
    h2, w2, c = grad.shape
    if h2 % 2 or w2 % 2:
        raise ValueError("upsample gradient must have even spatial dims")
    if c == 1:  # numpy sums each pixel pair of a row first; see below
        return np.ascontiguousarray(grad).reshape(h2 // 2, 2, w2 // 2, 2, c).sum(axis=(1, 3))
    # numpy's sum(axis=(1, 3)) of the C-ordered (h, 2, w, 2, c) blocks: with
    # c > 1 the channels are its inner loop, and it adds the four pixels of
    # each block one by one from +0, top row first
    out = np.zeros((h2 // 2, w2 // 2, c), dtype=grad.dtype)
    for a in (0, 1):
        for b in (0, 1):
            out += grad[a::2, b::2]
    return out


def relu_backward(x, grad, out=None):
    """grad where x > 0, else 0 (out=grad masks in place); x: relu's input or output, > 0 at the same elements."""
    return np.multiply(grad, np.greater(x, 0, order="C"), out=out, order="C")


def tanh_backward(x, grad):
    t = np.tanh(x)
    return np.multiply(grad, 1.0 - t * t, order="C")


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


def op_backward(op, x: np.ndarray, grad: np.ndarray, need_dx: bool = True, in_place: bool = False) -> tuple:
    """Backward of op_forward(op, x): (dx, parameter gradients).

    The parameter gradients are (dweights, dbias), or (dweights,) for a
    bias-free depthwise kernel, and () for the parameter-free ops. With
    need_dx False a kernel's dx is not computed and comes back None; with
    in_place a relu masks grad itself and returns it. The kernels are
    called through this module's globals, as in op_forward.
    """
    if isinstance(op, DepthwiseKernel):
        dx, dw, db = depthwise_backward(x, op, grad, need_dx=need_dx)
        return dx, (dw,) if op.bias is None else (dw, db)
    if isinstance(op, PointwiseKernel):
        dx, dw, db = pointwise_backward(x, op, grad, need_dx=need_dx)
        return dx, (dw, db)
    if op == "relu":
        return relu_backward(x, grad, out=grad if in_place else None), ()
    if op == "tanh":
        return tanh_backward(x, grad), ()
    if op == "upsample_nn":
        return upsample_backward(grad), ()
    raise ValueError(f"unknown op {op!r}")


def run_ops(ops, x: np.ndarray, inputs: list) -> np.ndarray:
    """op_forward over ops in order, appending to `inputs` each op's input, or for a relu its output."""
    for op in ops:
        y = op_forward(op, x)
        inputs.append(y if op == "relu" else x)
        x = y
    return x


def backward_ops(ops, inputs, grad: np.ndarray, need_dx: bool = True, in_place: bool = False) -> tuple:
    """Backward of run_ops(ops, x, inputs): (dx, parameter gradients in op order).

    With need_dx False the first op's kernel skips its dx, which may then be
    None; with in_place the caller hands grad over, and a relu masks in place.
    """
    pgrads = []
    for i in reversed(range(len(ops))):
        grad, op_grads = op_backward(ops[i], inputs[i], grad, need_dx or i > 0, in_place)
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

    # C-ordered, so each flat view below perturbs the array it came from
    arrays = [np.ascontiguousarray(a, dtype=np.float64) for a in (x,) + params]
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
