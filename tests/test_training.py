import dataclasses
import math
from unittest import mock

import hwc_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightfuse import model, nn_ops, training
from lightfuse.model import build_lightfuse, build_tcnn, forward, init_weights
from lightfuse.training import (
    Adam,
    IdentityExtractor,
    RandomConvExtractor,
    curve_to_csv,
    loss_and_grads,
    loss_mse,
    loss_perceptual,
    loss_total,
    train_toy,
)


def rand(shape, seed, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape).astype(np.float32)


# ------------------------------------------------------------------ losses

def test_mse_identical_is_zero():
    x = rand((4, 4, 3), 0)
    assert loss_mse(x, x) == 0.0


def test_mse_constant_difference():
    a = np.ones((3, 3, 3), dtype=np.float32)
    assert loss_mse(a, -a) == 4.0


def test_mse_mean_over_elements():
    out = np.array([0.0, 1.0], dtype=np.float32)
    label = np.zeros(2, dtype=np.float32)
    assert loss_mse(out, label) == 0.5


def test_mse_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        loss_mse(np.zeros(3, dtype=np.float32), np.zeros(4, dtype=np.float32))


def test_perceptual_identity_extractor_is_l1():
    out = np.array([1.0, -1.0], dtype=np.float32)
    label = np.zeros(2, dtype=np.float32)
    assert loss_perceptual(out, label, IdentityExtractor()) == 2.0


def test_perceptual_zero_for_identical_inputs():
    x = rand((6, 6, 3), 1)
    for extractor in (IdentityExtractor(), RandomConvExtractor(seed=2)):
        assert loss_perceptual(x, x, extractor) == 0.0


def test_loss_total_components_and_sum():
    out = np.array([1.0], dtype=np.float32)
    label = np.array([0.0], dtype=np.float32)
    report = loss_total(out, label, IdentityExtractor())
    assert report.l_mse == 1.0
    assert report.l_perceptual == 1.0
    assert report.l_total == 2.0


def test_losses_nonnegative_and_zero_iff_equal():
    a = rand((5, 5, 3), 3)
    b = rand((5, 5, 3), 4)
    assert loss_mse(a, b) > 0.0
    assert loss_perceptual(a, b, IdentityExtractor()) > 0.0
    report = loss_total(a, b, IdentityExtractor())
    assert report.l_total >= report.l_mse


# -------------------------------------------------------------------- adam

def test_adam_zero_gradient_is_noop():
    params = {"w": np.array([1.0, -2.0], dtype=np.float32)}
    before = params["w"].copy()
    opt = Adam(params)
    opt.step(params, {"w": np.zeros(2, dtype=np.float32)})
    assert np.array_equal(params["w"], before)
    assert opt.t == 1


def test_adam_first_step_magnitude():
    params = {"w": np.array([1.0], dtype=np.float32)}
    opt = Adam(params, lr=0.001)
    opt.step(params, {"w": np.array([1.0], dtype=np.float32)})
    delta = params["w"][0] - 1.0
    # bias-corrected first step: m_hat = v_hat = 1, so delta = -lr / (1 + eps)
    assert np.isclose(delta, -0.001, rtol=1e-4)


def test_adam_descends_against_constant_gradient():
    params = {"w": np.array([0.5], dtype=np.float32)}
    opt = Adam(params, lr=0.001)
    g = {"w": np.array([2.0], dtype=np.float32)}
    values = [params["w"][0]]
    for _ in range(5):
        opt.step(params, g)
        values.append(params["w"][0])
    assert all(b < a for a, b in zip(values, values[1:]))


def test_adam_shape_mismatch():
    params = {"w": np.zeros(2, dtype=np.float32)}
    opt = Adam(params)
    with pytest.raises(ValueError, match="shape"):
        opt.step(params, {"w": np.zeros(3, dtype=np.float32)})


# -------------------------------------------------------------- extractors

def test_random_extractor_deterministic():
    x = rand((8, 8, 3), 5)
    f1 = RandomConvExtractor(seed=3).features(x)
    f2 = RandomConvExtractor(seed=3).features(x)
    for a, b in zip(f1, f2):
        assert a.tobytes() == b.tobytes()


def test_random_extractor_two_stages():
    x = rand((8, 8, 3), 6)
    feats = RandomConvExtractor(seed=0).features(x)
    assert len(feats) == 2
    assert feats[0].shape == (8, 8, 3)
    assert feats[1].shape == (8, 8, 8)


def hand_chained_random_conv(seed, out, label):
    """RandomConvExtractor(seed)'s features of out and loss_grad, chained kernel by kernel.

    The byte oracle for the extractors' shared walk: the kernels are drawn
    from the seed as the extractor draws them, and the stage-1 sign term is
    added to the gradient coming back from stage 2.
    """
    rng = np.random.default_rng(seed)
    dw = rng.uniform(-math.sqrt(6.0 / 9.0), math.sqrt(6.0 / 9.0), size=(3, 3, 3))
    pw = rng.uniform(-math.sqrt(6.0 / 3.0), math.sqrt(6.0 / 3.0), size=(3, 8))
    dw = nn_ops.DepthwiseKernel(dw.astype(np.float32), None, 1)
    pw = nn_ops.PointwiseKernel(pw.astype(np.float32), np.zeros(8, dtype=np.float32))
    a1o = nn_ops.depthwise_forward(out, dw)
    f1o = nn_ops.relu(a1o)
    a2o = nn_ops.pointwise_forward(f1o, pw)
    f2o = nn_ops.relu(a2o)
    f1l = nn_ops.relu(nn_ops.depthwise_forward(label, dw))
    f2l = nn_ops.relu(nn_ops.pointwise_forward(f1l, pw))

    g2 = np.sign(f2o - f2l).astype(out.dtype)
    gf1, _, _ = nn_ops.pointwise_backward(f1o, pw, nn_ops.relu_backward(a2o, g2))
    g1 = np.sign(f1o - f1l).astype(out.dtype) + gf1
    dx, _, _ = nn_ops.depthwise_backward(out, dw, nn_ops.relu_backward(a1o, g1))
    return [f1o, f2o], dx


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=2000)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    extractor_seed=st.integers(0, 2**16),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_extractors_equal_the_hand_chained_reference(rows, cols, seed, extractor_seed, dtype):
    rng = np.random.default_rng(seed)
    out, label = (rng.uniform(-1, 1, (rows, cols, 3)).astype(dtype) for _ in range(2))
    extractor = RandomConvExtractor(seed=extractor_seed)
    features, grad = hand_chained_random_conv(extractor_seed, out, label)
    got = extractor.features(out)
    assert len(got) == 2 and all(same_bytes(a, b) for a, b in zip(got, features))
    assert same_bytes(extractor.loss_grad(out, label), grad)

    identity = IdentityExtractor()
    assert len(identity.features(out)) == 1 and same_bytes(identity.features(out)[0], out)
    assert same_bytes(identity.loss_grad(out, label), np.sign(out - label).astype(dtype))


def test_perceptual_gradient_matches_finite_differences():
    # L1 is non-differentiable at zero, so keep |out - label| well clear of it;
    # the numeric side runs in float64 with a small step so the extractor's
    # relu/abs kinks are vanishingly unlikely to fall inside the interval
    out = rand((4, 4, 3), 7, lo=0.2, hi=0.8)
    label = rand((4, 4, 3), 8, lo=-0.8, hi=-0.2)
    label64 = label.astype(np.float64)
    for extractor in (IdentityExtractor(), RandomConvExtractor(seed=1)):
        analytic = extractor.loss_grad(out, label)
        out64 = out.astype(np.float64)
        eps = 1e-6
        rng = np.random.default_rng(9)
        flat = out64.reshape(-1)
        for idx in rng.choice(flat.size, size=12, replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            jp = loss_perceptual(out64, label64, extractor)
            flat[idx] = orig - eps
            jm = loss_perceptual(out64, label64, extractor)
            flat[idx] = orig
            numeric = (jp - jm) / (2 * eps)
            ana = float(analytic.reshape(-1)[idx])
            assert abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8) < 1e-3


# ---------------------------------------------------------- graph gradients

def test_end_to_end_gradients_smoke():
    # tcnn is the one graph whose backward runs a tanh layer and full-resolution
    # separable layers
    for graph in (build_lightfuse(), build_tcnn()):
        weights = init_weights(graph, 11)
        rng = np.random.default_rng(123)
        for key in weights:
            if key.endswith(".bias"):
                weights[key] = rng.uniform(-0.1, 0.1, size=weights[key].shape).astype(np.float32)
        u = rng.uniform(-1, 1, (8, 8, 3)).astype(np.float32)
        o = rng.uniform(-1, 1, (8, 8, 3)).astype(np.float32)
        label = rng.uniform(-0.8, 0.8, (8, 8, 3)).astype(np.float32)
        _, _, grads = loss_and_grads(graph, weights, u, o, label)

        w64 = {k: v.astype(np.float64) for k, v in weights.items()}
        u64, o64, lab64 = u.astype(np.float64), o.astype(np.float64), label.astype(np.float64)
        x64 = np.concatenate([u64, o64], axis=2)

        def loss_and_relu_masks():
            out, _, tapes = training._forward_cached(graph, w64, x64)
            masks = b"".join(
                (inputs[0] > 0).tobytes()
                for tape in tapes
                for layer, _, inputs in tape
                if layer.kind == "relu"
            )
            d = out - lab64
            return float(np.mean(d * d)), masks

        eps = 1e-4
        coords = [(k, i) for k in sorted(grads) for i in range(weights[k].size)]
        order = np.random.default_rng(7).permutation(len(coords))
        checked = 0
        for ci in order:
            key, idx = coords[ci]
            flat = w64[key].reshape(-1)
            orig = flat[idx]
            flat[idx] = orig + eps
            jp, mp = loss_and_relu_masks()
            flat[idx] = orig - eps
            jm, mm = loss_and_relu_masks()
            flat[idx] = orig
            if mp != mm:
                continue  # a relu flipped inside the interval: finite differences invalid there
            numeric = (jp - jm) / (2 * eps)
            analytic = float(grads[key].reshape(-1)[idx])
            assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8) < 1e-3
            checked += 1
            if checked >= 15:
                break
        assert checked >= 15


@pytest.mark.parametrize("graph", [build_lightfuse(), build_tcnn()], ids=lambda graph: graph.name)
def test_backward_runs_no_forward_op(graph):
    """The backward walk reads every op input from the forward tape."""
    weights = init_weights(graph, 0)
    u, o, label = (rand((16, 16, 3), seed) for seed in (1, 2, 3))
    op_forward, backward = nn_ops.op_forward, training._backward
    inside, calls = [], {"forward": 0, "backward": 0}

    def counting_op_forward(op, x):
        calls["backward" if inside else "forward"] += 1
        return op_forward(op, x)

    def marked_backward(*args):
        inside.append(True)
        try:
            return backward(*args)
        finally:
            inside.pop()

    with mock.patch.object(nn_ops, "op_forward", counting_op_forward), \
            mock.patch.object(training, "_backward", marked_backward):
        loss_and_grads(graph, weights, u, o, label)
    assert calls["forward"] > 0
    assert calls["backward"] == 0


@pytest.mark.parametrize("graph", [build_lightfuse(), build_tcnn()], ids=lambda graph: graph.name)
def test_backward_walk_reads_one_c_ordered_copy_per_activation(graph):
    weights = init_weights(graph, 0)
    x = np.concatenate([rand((16, 16, 3), 1), rand((16, 16, 3), 2)], axis=2)
    out, pre, tapes = training._forward_cached(graph, weights, x)
    op_backward, seen = nn_ops.op_backward, []

    def recording(op, x, grad, need_dx=True):
        seen.append(x)
        return op_backward(op, x, grad, need_dx)

    with mock.patch.object(nn_ops, "op_backward", recording):
        training._backward(graph, tapes, pre, rand(out.shape, 3))
    assert all(x.flags.c_contiguous for x in seen)
    calls = iter(seen[1:] if graph.merge_add_tanh else seen)  # past the merge's tanh
    for tape in tapes:
        above = None
        for layer, ops, _ in reversed(tape):
            walked = [next(calls) for _ in ops]
            if ops == ("relu",) and above is not None:
                assert walked[0] is above  # the copy the layer above made of the relu's output
            above = walked[-1]
    assert next(calls, None) is None


@pytest.mark.parametrize("graph", [build_lightfuse(), build_tcnn()], ids=lambda graph: graph.name)
@pytest.mark.parametrize("extractor", [IdentityExtractor(), RandomConvExtractor(seed=4)],
                         ids=lambda e: type(e).__name__)
def test_one_extractor_forward_per_image(graph, extractor):
    """The perceptual loss comes from the gradient walk's own feature maps.

    Oracle: loss_perceptual, extractor.loss_grad and the backward walk run
    separately on the same forward pass.
    """
    weights = init_weights(graph, 0)
    u, o, label = (rand((16, 16, 3), seed) for seed in (5, 6, 7))
    out, pre, tapes = training._forward_cached(graph, weights, np.concatenate((u, o), axis=2))
    dout = ((out - label) * (2.0 / out.size)).astype(np.float32, copy=False)
    want_grads = training._backward(graph, tapes, pre, dout + extractor.loss_grad(out, label))
    want_perc = loss_perceptual(out, label, extractor)

    plain = nn_ops.depthwise_forward
    with mock.patch.object(nn_ops, "depthwise_forward", wraps=plain) as dw:
        loss_and_grads(graph, weights, u, o, label)
    without = dw.call_count
    with mock.patch.object(nn_ops, "depthwise_forward", wraps=plain) as dw:
        _, report, grads = loss_and_grads(graph, weights, u, o, label, extractor)
    depthwise_stages = sum(isinstance(op, nn_ops.DepthwiseKernel) for ops in extractor.stages for op in ops)
    assert dw.call_count == without + 2 * depthwise_stages  # once on out, once on label
    if graph.name == "lightfuse" and depthwise_stages:
        assert (without, dw.call_count) == (3, 5)
    assert report.l_perceptual == want_perc
    assert grads.keys() == want_grads.keys()
    assert all(same_bytes(grads[k], want_grads[k]) for k in grads)


# ------------------------------------------------------------ forward walk

WALK_GRAPHS = {
    "lightfuse": build_lightfuse(),
    "tcnn": build_tcnn(),
}


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(WALK_GRAPHS)),
    rows=st.integers(1, 32),
    cols=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)
def test_training_forward_is_run_branch(name, rows, cols, seed):
    graph = WALK_GRAPHS[name]
    div = graph.spatial_divisor
    h, w = -(-rows // div) * div, -(-cols // div) * div
    rng = np.random.default_rng(seed)
    weights = init_weights(graph, seed)
    for key in weights:
        if key.endswith(".bias"):
            weights[key] = rng.uniform(-0.5, 0.5, size=weights[key].shape).astype(np.float32)
    u, o, label = (rng.uniform(-1, 1, (h, w, 3)).astype(np.float32) for _ in range(3))

    out, _, _ = loss_and_grads(graph, weights, u, o, label)
    assert out.tobytes() == forward(graph, weights, u, o).tobytes()

    x = np.concatenate((u, o), axis=2)
    for _, layers in graph.branches:
        tape = []
        y = model.run_branch(layers, weights, x, tape)
        assert [layer for layer, _, _ in tape] == list(layers)
        layer_ins = [inputs[0] for _, _, inputs in tape]
        assert layer_ins[0] is x
        for (layer, ops, inputs), x_in, y_out in zip(tape, layer_ins, layer_ins[1:] + [y]):
            again = []
            assert nn_ops.run_ops(ops, x_in, again).tobytes() == y_out.tobytes()
            assert [a.tobytes() for a in again] == [a.tobytes() for a in inputs]
            area_in, area_out = x_in.shape[0] * x_in.shape[1], y_out.shape[0] * y_out.shape[1]
            num, den = model.spatial_factor(layer)
            assert area_out * den**2 == area_in * num**2
        assert y.tobytes() == model.run_branch(layers, weights, x).tobytes()


EXTRACTORS = {
    "none": lambda seed: None,
    "identity": lambda seed: IdentityExtractor(),
    "random_conv": RandomConvExtractor,
}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(WALK_GRAPHS)),
    extractor=st.sampled_from(sorted(EXTRACTORS)),
    rows=st.integers(1, 9),
    cols=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_loss_and_grads_equals_the_hwc_reference(name, extractor, rows, cols, seed):
    """Output, losses and every gradient are the (H, W, C) reference walk's, byte for byte."""
    graph = WALK_GRAPHS[name]
    rng = np.random.default_rng(seed)
    weights = init_weights(graph, seed)
    for key in weights:
        if key.endswith(".bias"):
            weights[key] = rng.uniform(-0.5, 0.5, size=weights[key].shape).astype(np.float32)
    u, o, label = (rng.uniform(-1, 1, (8 * rows, 8 * cols, 3)).astype(np.float32) for _ in range(3))
    ext = EXTRACTORS[extractor](seed % 2**16)

    out, report, grads = loss_and_grads(graph, weights, u, o, label, ext)
    want_out, want_report, want_grads = hwc_reference.loss_and_grads(graph, weights, u, o, label, ext)
    assert same_bytes(out, want_out)
    assert report == want_report
    assert grads.keys() == want_grads.keys() == {key for key, _, _ in model.graph_param_entries(graph)}
    assert all(same_bytes(grads[key], want_grads[key]) for key in grads)


@pytest.mark.parametrize("branches", [slice(0, 1), slice(0, 3)])
def test_merge_requires_exactly_two_branches(branches):
    graph = build_lightfuse()
    extra = (("detail2", dict(graph.branches)["detail"]),)
    graph = dataclasses.replace(graph, branches=(graph.branches + extra)[branches])
    weights = init_weights(graph, 0)
    u, o, label = rand((8, 8, 3), 1), rand((8, 8, 3), 2), rand((8, 8, 3), 3)
    with pytest.raises(RuntimeError, match="merge stage requires exactly two branches"):
        forward(graph, weights, u, o)
    with pytest.raises(RuntimeError, match="merge stage requires exactly two branches"):
        loss_and_grads(graph, weights, u, o, label)


# ---------------------------------------------------------------- training

def toy_dataset(n=2, hw=16, seed=0):
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(n):
        label = rng.uniform(0.1, 0.6, size=(hw, hw, 3)).astype(np.float32)
        spread = rng.uniform(0.1, 0.2, size=(hw, hw, 3)).astype(np.float32)
        triples.append((label - spread, label + spread, label))
    return triples


def test_train_zero_steps_leaves_weights_unchanged():
    graph = build_lightfuse()
    w0 = init_weights(graph, 1)
    trained, curve = train_toy(graph, w0, toy_dataset(), steps=0, seed=0)
    assert curve == []
    for k in w0:
        assert np.array_equal(trained[k], w0[k])


def test_train_does_not_mutate_input_store():
    graph = build_lightfuse()
    w0 = init_weights(graph, 1)
    snapshot = {k: v.copy() for k, v in w0.items()}
    train_toy(graph, w0, toy_dataset(), steps=3, seed=0)
    for k in w0:
        assert np.array_equal(w0[k], snapshot[k])


def test_train_deterministic_given_seed():
    graph = build_lightfuse()
    w0 = init_weights(graph, 2)
    w_a, curve_a = train_toy(graph, w0, toy_dataset(), steps=5, seed=9)
    w_b, curve_b = train_toy(graph, w0, toy_dataset(), steps=5, seed=9)
    assert [(r.l_mse, r.l_total) for r in curve_a] == [(r.l_mse, r.l_total) for r in curve_b]
    for k in w_a:
        assert w_a[k].tobytes() == w_b[k].tobytes()


def test_train_curve_finite_and_reports_consistent():
    graph = build_lightfuse()
    w0 = init_weights(graph, 3)
    _, curve = train_toy(graph, w0, toy_dataset(), steps=8, seed=1)
    assert len(curve) == 8
    for r in curve:
        assert np.isfinite(r.l_total)
        assert r.l_total == r.l_mse + r.l_perceptual


def test_train_reduces_loss():
    graph = build_lightfuse()
    w0 = init_weights(graph, 4)
    trained, curve = train_toy(graph, w0, toy_dataset(n=2, hw=16, seed=5), steps=120, seed=2)
    data = toy_dataset(n=2, hw=16, seed=5)
    final = np.mean([loss_mse(forward(graph, trained, u, o), lab) for u, o, lab in data])
    assert final < curve[0].l_mse


def test_train_with_perceptual_term():
    graph = build_lightfuse()
    w0 = init_weights(graph, 5)
    _, curve = train_toy(
        graph, w0, toy_dataset(n=1), steps=2, seed=0, extractor=IdentityExtractor()
    )
    assert curve[0].l_perceptual > 0.0
    assert curve[0].l_total == curve[0].l_mse + curve[0].l_perceptual


def test_train_stop_loss_ends_early():
    graph = build_lightfuse()
    w0 = init_weights(graph, 6)
    _, curve = train_toy(graph, w0, toy_dataset(), steps=50, seed=0, stop_loss=1e9)
    assert len(curve) == 1


def test_train_empty_dataset_rejected():
    graph = build_lightfuse()
    with pytest.raises(ValueError, match="empty"):
        train_toy(graph, init_weights(graph, 0), [], steps=1, seed=0)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_train_rejects_batch_size_below_one(batch_size):
    graph = build_lightfuse()
    with pytest.raises(ValueError, match="batch_size"):
        train_toy(graph, init_weights(graph, 0), toy_dataset(), steps=1, seed=0, batch_size=batch_size)


def test_curve_csv_format():
    curve = [training.LossReport(0.5, 0.0, 0.5), training.LossReport(0.25, 0.1, 0.35)]
    text = curve_to_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "step,l_mse,l_perceptual,l_total"
    assert lines[1].startswith("0,0.5,")
    assert lines[2].startswith("1,0.25,")
