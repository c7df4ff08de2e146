"""The (H, W, C) kernels and training walk that nn_ops and training are checked against.

Every activation and gradient here is a C-ordered (H, W, C) array, and each
kernel is the plain numpy expression the package computed before it kept
activations channel-planar: bias first, then products added in ascending
channel / kernel-position order, and numpy's own reductions and BLAS
products on (H, W, C) operands. The package must match these byte for byte.
Only layout-free parts of the package are reused: the graphs, the kernels a
layer runs (model.layer_kernels) and the parameter keys (model.param_entries).
"""

import numpy as np

from lightfuse import model, nn_ops
from lightfuse.training import LossReport


def pointwise_forward(x, kern):
    """The pixel-major loop: out = bias, then += x[:, m] * w[m] for m ascending."""
    x2 = x.reshape(-1, kern.in_channels)
    out = np.empty((x2.shape[0], kern.out_channels), dtype=np.result_type(x2.dtype, kern.weights.dtype))
    out[:] = kern.bias
    for m in range(kern.in_channels):
        out += x2[:, m, np.newaxis] * kern.weights[m]
    return out.reshape(x.shape[:-1] + (kern.out_channels,))


def depthwise_forward(x, kern):
    h, w = x.shape[:2]
    s, k = kern.stride, kern.k
    p = (k - 1) // 2
    oh, ow = h // s, w // s
    xp = np.pad(x, ((p, p), (p, p), (0, 0)))
    out = np.empty((oh, ow, kern.channels), dtype=np.result_type(x.dtype, kern.weights.dtype))
    out[:] = kern.bias if kern.bias is not None else 0.0
    for u in range(k):
        for v in range(k):
            out += kern.weights[u, v] * xp[u : u + s * oh : s, v : v + s * ow : s]
    return out


def upsample_nn(x):
    return np.repeat(np.repeat(x, 2, axis=0), 2, axis=1)


def pointwise_backward(x, kern, grad):
    x2 = x.reshape(-1, kern.in_channels)
    g2 = grad.reshape(-1, kern.out_channels)
    return (g2 @ kern.weights.T).reshape(x.shape), x2.T @ g2, g2.sum(axis=0)


def depthwise_backward(x, kern, grad):
    h, w = x.shape[:2]
    s, k = kern.stride, kern.k
    p = (k - 1) // 2
    oh, ow = h // s, w // s
    xp = np.pad(x, ((p, p), (p, p), (0, 0)))
    dxp = np.zeros_like(xp)
    dw = np.empty_like(kern.weights)
    for u in range(k):
        for v in range(k):
            window = xp[u : u + s * oh : s, v : v + s * ow : s]
            dw[u, v] = (window * grad).sum(axis=(0, 1))
            dxp[u : u + s * oh : s, v : v + s * ow : s] += kern.weights[u, v] * grad
    db = grad.sum(axis=(0, 1)) if kern.bias is not None else None
    return dxp[p : p + h, p : p + w].copy(), dw, db


def upsample_backward(grad):
    h2, w2, c = grad.shape
    return grad.reshape(h2 // 2, 2, w2 // 2, 2, c).sum(axis=(1, 3))


def relu_backward(x, grad):
    return grad * (x > 0)


def tanh_backward(x, grad):
    t = np.tanh(x)
    return grad * (1.0 - t * t)


def op_forward(op, x):
    if isinstance(op, nn_ops.DepthwiseKernel):
        return depthwise_forward(x, op)
    if isinstance(op, nn_ops.PointwiseKernel):
        return pointwise_forward(x, op)
    return {"relu": lambda: np.maximum(x, 0.0), "tanh": lambda: np.tanh(x), "upsample_nn": lambda: upsample_nn(x)}[op]()


def op_backward(op, x, grad):
    if isinstance(op, nn_ops.DepthwiseKernel):
        dx, dw, db = depthwise_backward(x, op, grad)
        return dx, (dw,) if op.bias is None else (dw, db)
    if isinstance(op, nn_ops.PointwiseKernel):
        dx, dw, db = pointwise_backward(x, op, grad)
        return dx, (dw, db)
    if op == "relu":
        return relu_backward(x, grad), ()
    if op == "tanh":
        return tanh_backward(x, grad), ()
    return upsample_backward(grad), ()


def run_ops(ops, x, inputs):
    for op in ops:
        inputs.append(x)
        x = op_forward(op, x)
    return x


def backward_ops(ops, inputs, grad):
    pgrads = []
    for op, x in zip(reversed(ops), reversed(inputs)):
        grad, op_grads = op_backward(op, x, grad)
        pgrads[:0] = op_grads
    return grad, tuple(pgrads)


def extractor_loss_and_grad(extractor, out, label):
    """(perceptual loss, its gradient with respect to out) over extractor.stages."""

    def walk(x):
        feats, tapes = [], []
        for ops in extractor.stages:
            tapes.append([])
            x = run_ops(ops, x, tapes[-1])
            feats.append(x)
        return feats, tapes

    feats, tapes = walk(out)
    diffs = [fo - fl for fo, fl in zip(feats, walk(label)[0])]
    loss = 0.0
    for d in diffs:
        loss += float(np.abs(d).sum(dtype=np.float64))
    grad = None
    for ops, inputs, d in reversed(list(zip(extractor.stages, tapes, diffs))):
        sign = np.sign(d).astype(out.dtype)
        grad, _ = backward_ops(ops, inputs, sign if grad is None else sign + grad)
    return loss, grad


def loss_and_grads(graph, weights, under, over, label, extractor=None):
    """training.loss_and_grads in (H, W, C) order: (out, LossReport, gradients)."""
    x = np.concatenate((under, over), axis=2)
    tapes, outs = [], []
    for _, layers in graph.branches:
        tape, y = [], x
        for layer in layers:
            ops, inputs = model.layer_kernels(layer, weights), []
            y = run_ops(ops, y, inputs)
            tape.append((layer, ops, inputs))
        tapes.append(tape)
        outs.append(y)
    if graph.merge_add_tanh:
        pre = outs[0] + outs[1]
        out = np.tanh(pre)
    else:
        out = outs[0]
    d = out - label
    l_mse = float(np.mean(d * d, dtype=np.float64))
    dout = ((out - label) * (2.0 / out.size)).astype(np.float32, copy=False)
    l_perc = 0.0
    if extractor is not None:
        l_perc, dperc = extractor_loss_and_grad(extractor, out, label)
        dout = dout + dperc
    branch_grads = [tanh_backward(pre, dout)] * 2 if graph.merge_add_tanh else [dout]
    grads = {}
    for tape, g in zip(tapes, branch_grads):
        for layer, ops, inputs in reversed(tape):
            g, pgrads = backward_ops(ops, inputs, g)
            grads.update(zip((key for key, _, _ in model.param_entries(layer)), pgrads))
    return out, LossReport(l_mse, l_perc, l_mse + l_perc), grads
