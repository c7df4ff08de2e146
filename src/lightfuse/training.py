"""Losses, Adam, pluggable feature extractors, and the toy training loop.

The loop is deliberately desk-scale: it demonstrates that gradients are
correct and that the graph learns, not that full-dataset quality numbers
are reproduced.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model, nn_ops

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


def _diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b as a C-ordered array.

    The losses sum it over all elements, and a sum's bits depend on the
    memory order it runs in; the C order keeps them those of (H, W, C)
    arrays, whichever layout nn_ops stored a feature map in.
    """
    return np.subtract(a, b, order="C")


def loss_mse(out: np.ndarray, label: np.ndarray) -> float:
    """Mean squared difference over all elements."""
    if out.shape != label.shape:
        raise ValueError(f"shape mismatch: {out.shape} vs {label.shape}")
    d = _diff(out, label)
    return float(np.mean(d * d, dtype=np.float64))


def loss_perceptual(out: np.ndarray, label: np.ndarray, extractor) -> float:
    """Sum over extractor stages of the L1 distance between feature maps."""
    if out.shape != label.shape:
        raise ValueError(f"shape mismatch: {out.shape} vs {label.shape}")
    total = 0.0
    for fo, fl in zip(extractor.features(out), extractor.features(label)):
        total += float(np.abs(_diff(fo, fl)).sum(dtype=np.float64))
    return total


def loss_total(out: np.ndarray, label: np.ndarray, extractor) -> LossReport:
    m = loss_mse(out, label)
    p = loss_perceptual(out, label, extractor)
    return LossReport(m, p, m + p)


class _StageExtractor:
    """Feature maps after each of `stages`, nn_ops op tuples run one after another."""

    def _walk(self, x):
        feats, tapes = [], []
        for ops in self.stages:
            tapes.append([])
            x = nn_ops.run_ops(ops, x, tapes[-1])
            feats.append(x)
        return feats, tapes

    def features(self, x):
        return self._walk(x)[0]

    def loss_and_grad(self, out, label):
        """(loss_perceptual(out, label, self), its gradient with respect to out)."""
        feats, tapes = self._walk(out)
        diffs = [_diff(fo, fl) for fo, fl in zip(feats, self.features(label))]
        loss = 0.0
        for d in diffs:
            loss += float(np.abs(d).sum(dtype=np.float64))
        grad = None
        for ops, inputs, d in reversed(list(zip(self.stages, tapes, diffs))):
            sign = np.sign(d).astype(out.dtype)  # own sign term + the gradient from above
            grad, _ = nn_ops.backward_ops(ops, inputs, sign if grad is None else sign + grad, in_place=True)
        return loss, grad

    def loss_grad(self, out, label):
        """Gradient of loss_perceptual with respect to out."""
        return self.loss_and_grad(out, label)[1]


class IdentityExtractor(_StageExtractor):
    """Single-stage extractor f(x) = x; reduces the perceptual term to L1."""

    stages = ((),)


class RandomConvExtractor(_StageExtractor):
    """Fixed-seed two-stage conv extractor standing in for a pretrained net.

    Stage 1 is a 3x3 depthwise conv, stage 2 a 1x1 conv from 3 to 8 channels,
    each followed by ReLU. Weights are frozen at construction.
    """

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        dw = rng.uniform(-math.sqrt(6.0 / 9.0), math.sqrt(6.0 / 9.0), size=(3, 3, 3))
        pw = rng.uniform(-math.sqrt(6.0 / 3.0), math.sqrt(6.0 / 3.0), size=(3, 8))
        self.stages = (
            (nn_ops.DepthwiseKernel(dw.astype(np.float32), None, 1), "relu"),
            (nn_ops.PointwiseKernel(pw.astype(np.float32), np.zeros(8, dtype=np.float32)), "relu"),
        )


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
    """Forward pass keeping one run_branch tape per branch for the backward walk."""
    tapes = [[] for _ in graph.branches]
    outs = [model.run_branch(layers, weights, x, tape) for (_, layers), tape in zip(graph.branches, tapes)]
    pre, out = model.merge_branches(graph, outs)
    return out, pre, tapes


def _backward(graph, tapes, merge_pre, out_grad):
    """Exact gradients of every parameter for the cached forward pass.

    The walk consumes `tapes`: it pops each layer's entry as it reaches it and
    copies its activations C-ordered. A relu's entry holds relu's output, the
    layer above's input, so that layer hands its copy down to it; each
    activation is freed once its last reader has run, and the tapes are empty
    on return.
    """
    grads = {}
    if graph.merge_add_tanh:
        g_merge, _ = nn_ops.backward_ops(("tanh",), (np.ascontiguousarray(merge_pre),), out_grad)
        branch_grads = [g_merge, g_merge]
    else:
        branch_grads = [out_grad]
    for tape, g in zip(tapes, branch_grads):
        while tape:
            layer, ops, inputs = tape.pop()  # frees the last layer's copies, bar one handed down
            # an entry ending in a relu keeps relu's output: this layer's input
            below = tape[-1][2] if tape and tape[-1][2][-1] is inputs[0] else None
            # one C-ordered copy per activation, here and for the merge: nn_ops
            # stores them planar, and the backward reductions and masks read
            # (H, W, C) rows
            inputs = [np.ascontiguousarray(a) for a in inputs]
            if below is not None:
                below[-1] = inputs[0]  # the relu reads this copy, and the planar original is freed
            # the network input needs no gradient: a branch's first kernel skips its dx;
            # a relu masks in place each gradient the walk made, not the one a branch starts from
            g, pgrads = nn_ops.backward_ops(ops, inputs, g, need_dx=bool(tape), in_place=g is not branch_grads[0])
            grads.update(zip((key for key, _, _ in model.param_entries(layer)), pgrads))  # param_entries order
    return grads


def loss_and_grads(graph, weights, under, over, label, extractor=None):
    """Forward, loss, and parameter gradients for one training triple."""
    model.check_pair(graph, under, over)
    if label.shape != under.shape:
        raise ValueError(f"label shape {label.shape} does not match inputs {under.shape}")
    x = np.concatenate((under, over), axis=2)
    out, pre, tapes = _forward_cached(graph, weights, x)
    l_mse = loss_mse(out, label)
    dout = ((out - label) * (2.0 / out.size)).astype(np.float32, copy=False)
    if extractor is not None:
        l_perc, dperc = extractor.loss_and_grad(out, label)
        dout = dout + dperc
    else:
        l_perc = 0.0
    grads = _backward(graph, tapes, pre, dout)
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
