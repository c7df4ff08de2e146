"""Losses, Adam, pluggable feature extractors, and the toy training loop.

The loop is deliberately desk-scale: it demonstrates that gradients are
correct and that the graph learns, not that full-dataset quality numbers
are reproduced.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model, nn_ops
from .nn_ops import DepthwiseKernel, PointwiseKernel

__all__ = [
    "LossReport",
    "loss_mse",
    "loss_perceptual",
    "loss_total",
    "IdentityExtractor",
    "RandomConvExtractor",
    "Adam",
    "loss_and_grads",
    "train_toy",
    "curve_to_csv",
]


@dataclass(frozen=True)
class LossReport:
    l_mse: float
    l_perceptual: float
    l_total: float


def loss_mse(out: np.ndarray, label: np.ndarray) -> float:
    """Mean squared difference over all elements."""
    if out.shape != label.shape:
        raise ValueError(f"shape mismatch: {out.shape} vs {label.shape}")
    d = out - label
    return float(np.mean(d * d, dtype=np.float64))


def loss_perceptual(out: np.ndarray, label: np.ndarray, extractor) -> float:
    """Sum over extractor stages of the L1 distance between feature maps."""
    if out.shape != label.shape:
        raise ValueError(f"shape mismatch: {out.shape} vs {label.shape}")
    total = 0.0
    for fo, fl in zip(extractor.features(out), extractor.features(label)):
        total += float(np.abs(fo - fl).sum(dtype=np.float64))
    return total


def loss_total(out: np.ndarray, label: np.ndarray, extractor) -> LossReport:
    m = loss_mse(out, label)
    p = loss_perceptual(out, label, extractor)
    return LossReport(m, p, m + p)


class IdentityExtractor:
    """Single-stage extractor f(x) = x; reduces the perceptual term to L1."""

    def features(self, x):
        return [x]

    def loss_grad(self, out, label):
        return np.sign(out - label).astype(out.dtype)


class RandomConvExtractor:
    """Fixed-seed two-stage conv extractor standing in for a pretrained net.

    Stage 1 is a 3x3 depthwise conv, stage 2 a 1x1 conv from 3 to 8 channels,
    each followed by ReLU. Weights are frozen at construction.
    """

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        dw = rng.uniform(-math.sqrt(6.0 / 9.0), math.sqrt(6.0 / 9.0), size=(3, 3, 3))
        pw = rng.uniform(-math.sqrt(6.0 / 3.0), math.sqrt(6.0 / 3.0), size=(3, 8))
        self._dw = DepthwiseKernel(dw.astype(np.float32), None, 1)
        self._pw = PointwiseKernel(pw.astype(np.float32), np.zeros(8, dtype=np.float32))

    def features(self, x):
        f1 = nn_ops.relu(nn_ops.depthwise_forward(x, self._dw))
        f2 = nn_ops.relu(nn_ops.pointwise_forward(f1, self._pw))
        return [f1, f2]

    def loss_grad(self, out, label):
        a1o = nn_ops.depthwise_forward(out, self._dw)
        f1o = nn_ops.relu(a1o)
        a2o = nn_ops.pointwise_forward(f1o, self._pw)
        f2o = nn_ops.relu(a2o)
        a1l = nn_ops.depthwise_forward(label, self._dw)
        f1l = nn_ops.relu(a1l)
        f2l = nn_ops.relu(nn_ops.pointwise_forward(f1l, self._pw))

        g2 = np.sign(f2o - f2l).astype(out.dtype)
        ga2 = nn_ops.relu_backward(a2o, g2)
        gf1, _, _ = nn_ops.pointwise_backward(f1o, self._pw, ga2)
        g1 = np.sign(f1o - f1l).astype(out.dtype) + gf1
        ga1 = nn_ops.relu_backward(a1o, g1)
        dx, _, _ = nn_ops.depthwise_backward(out, self._dw, ga1)
        return dx


class Adam:
    """Adam with bias correction; update step p -= lr * m_hat / (sqrt(v_hat) + eps)."""

    def __init__(self, params: dict, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for key, p in params.items():
            g = grads[key]
            if g.shape != p.shape:
                raise ValueError(f"gradient shape mismatch for '{key}'")
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _forward_cached(graph, weights, x):
    """Forward pass recording (layer, input, output) per layer for the backward walk."""
    branch_outs = []
    branch_recs = []
    for _, layers in graph.branches:
        recs = []
        branch_outs.append(model.run_branch(layers, weights, x, lambda *rec: recs.append(rec)))
        branch_recs.append(recs)
    pre, out = model.merge_branches(graph, branch_outs)
    return out, pre, branch_recs


def _backward(graph, weights, branch_recs, merge_pre, out_grad):
    """Exact gradients of every parameter for the cached forward pass."""
    grads = {}
    if graph.merge_add_tanh:
        g_merge = nn_ops.tanh_backward(merge_pre, out_grad)
        branch_grads = [g_merge, g_merge]
    else:
        branch_grads = [out_grad]
    for recs, g in zip(branch_recs, branch_grads):
        for layer, x_in, _ in reversed(recs):
            ops = model.layer_kernels(layer, weights)
            inputs = [x_in]
            for op in ops[:-1]:  # rebuilds a separable layer's midpoint
                inputs.append(nn_ops.op_forward(op, inputs[-1]))
            pgrads = []  # in param_entries order: the last op's come last
            for op, x_op in zip(reversed(ops), reversed(inputs)):
                g, op_grads = nn_ops.op_backward(op, x_op, g)
                pgrads[:0] = op_grads
            grads.update(zip((key for key, _, _ in model.param_entries(layer)), pgrads))
    return grads


def loss_and_grads(graph, weights, under, over, label, extractor=None):
    """Forward, loss, and parameter gradients for one training triple."""
    model.check_pair(graph, under, over)
    if label.shape != under.shape:
        raise ValueError(f"label shape {label.shape} does not match inputs {under.shape}")
    x = np.concatenate((under, over), axis=2)
    out, pre, recs = _forward_cached(graph, weights, x)
    l_mse = loss_mse(out, label)
    dout = ((out - label) * (2.0 / out.size)).astype(np.float32, copy=False)
    if extractor is not None:
        l_perc = loss_perceptual(out, label, extractor)
        dout = dout + extractor.loss_grad(out, label)
    else:
        l_perc = 0.0
    grads = _backward(graph, weights, recs, pre, dout)
    return out, LossReport(l_mse, l_perc, l_mse + l_perc), grads


def train_toy(graph, weights, dataset, steps: int, seed: int = 0, extractor=None,
              lr: float = 0.001, batch_size: int = 20, stop_loss: float | None = None):
    """Mini-batch Adam loop over (under, over, label) triples.

    Deterministic given the seed. Batch size is min(batch_size, len(dataset));
    the per-step loss is recorded before the update. With stop_loss set,
    training ends early once the batch MSE drops to that value. Returns the
    trained store and the loss curve.
    """
    if not dataset:
        raise ValueError("empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    trained = {k: v.copy() for k, v in weights.items()}
    opt = Adam(trained, lr=lr)
    rng = np.random.default_rng(seed)
    n = len(dataset)
    batch = min(batch_size, n)
    curve = []
    for _ in range(steps):
        if n > batch:
            idx = np.sort(rng.choice(n, size=batch, replace=False))
        else:
            idx = np.arange(n)
        acc = None
        mse_sum = 0.0
        perc_sum = 0.0
        for i in idx:
            under, over, label = dataset[i]
            _, report, grads = loss_and_grads(graph, trained, under, over, label, extractor)
            mse_sum += report.l_mse
            perc_sum += report.l_perceptual
            if acc is None:
                acc = grads
            else:
                for key in acc:
                    acc[key] += grads[key]
        for key in acc:
            acc[key] /= batch
        report = LossReport(mse_sum / batch, perc_sum / batch, (mse_sum + perc_sum) / batch)
        if not math.isfinite(report.l_total):
            raise FloatingPointError(f"non-finite loss at step {len(curve)}")
        curve.append(report)
        opt.step(trained, acc)
        if stop_loss is not None and report.l_mse <= stop_loss:
            break
    return trained, curve


def curve_to_csv(curve) -> str:
    lines = ["step,l_mse,l_perceptual,l_total"]
    for step, rep in enumerate(curve):
        lines.append(f"{step},{rep.l_mse:.8g},{rep.l_perceptual:.8g},{rep.l_total:.8g}")
    return "\n".join(lines) + "\n"
