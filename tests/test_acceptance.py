"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import math
from fractions import Fraction

import numpy as np

from lightfuse import cli, cost_model, fusion, metrics, model, nn_ops, tensor_core, training


def _pass(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


# 1 ------------------------------------------------------------------------

def test_criterion_01_parameter_count(capsys):
    report = cost_model.analyze(model.build_lightfuse(), cost_model.CONVENTIONS["table4"])
    assert report.params_total == 1574
    assert report.params_by_category["pointwise"] == 1400
    assert report.params_by_category["depthwise"] == 174
    assert round(report.params_pct("pointwise"), 2) == 88.95
    assert round(report.params_pct("depthwise"), 2) == 11.05
    assert cli.main(["analyze", "lightfuse"]) == 0
    assert "1574" in capsys.readouterr().out
    with capsys.disabled():
        _pass(1, "parameter total 1574, split 1400/174 (88.95%/11.05%)")


# 2 ------------------------------------------------------------------------

def test_criterion_02_flops_reproduction(capsys):
    table4 = cost_model.analyze(model.build_lightfuse(), cost_model.CONVENTIONS["table4"])
    assert table4.flops_total == 2984
    table2 = cost_model.analyze(model.build_lightfuse(), cost_model.CONVENTIONS["table2"])
    assert abs(table2.flops_pct("pointwise") - 88.82) <= 0.5
    assert abs(table2.flops_pct("depthwise") - 10.91) <= 0.5
    assert abs(table2.flops_pct("upsample") - 0.27) <= 0.5
    with capsys.disabled():
        _pass(2, "flops/pixel 2984 exact; category shares within 0.5 points")


# 3 ------------------------------------------------------------------------

def test_criterion_03_separable_ratio_exact(capsys):
    for k in (3, 5):
        for n in range(1, 65):
            ratio = Fraction(
                cost_model.flops_ds_conv(k, 12, n, 9, 7),
                cost_model.flops_standard_conv(k, 12, n, 9, 7),
            )
            assert ratio == Fraction(1, n) + Fraction(1, k * k)
    with capsys.disabled():
        _pass(3, "separable/standard ratio == 1/N + 1/K^2 for K in {3,5}, N in 1..64")


# 4 ------------------------------------------------------------------------

def test_criterion_04_fusion_bit_exact(capsys):
    weights = model.init_weights(model.build_lightfuse(), 21)
    dims = ((8, 8), (64, 64), (256, 256), (104, 136))
    cases = 0
    for h, w in dims:
        for s in (1, 7, 32, "full"):
            # tile sides are capped by the executor's invariant 1 <= s <= min(H, W)
            side = min(h, w) if s == "full" else min(s, h, w)
            seed = h * 1000 + w + (0 if s == "full" else s)
            rng = np.random.default_rng(seed)
            x = rng.uniform(-1.0, 1.0, size=(h, w, 6)).astype(np.float32)
            fused, _ = fusion.run_detailnet_fused(x, weights, side)
            unfused, _ = fusion.run_detailnet_unfused(x, weights)
            assert fused.tobytes() == unfused.tobytes()
            cases += 1
    # extra random inputs on the small dims to exceed 20 paired runs
    for extra_seed in range(8):
        rng = np.random.default_rng(9000 + extra_seed)
        x = rng.uniform(-1.0, 1.0, size=(8, 8, 6)).astype(np.float32)
        fused, _ = fusion.run_detailnet_fused(x, weights, 1 + extra_seed % 8)
        unfused, _ = fusion.run_detailnet_unfused(x, weights)
        assert fused.tobytes() == unfused.tobytes()
        cases += 1
    assert cases >= 20
    with capsys.disabled():
        _pass(4, f"fused == unfused bit-exact across {cases} input/tile combinations")


# 5 ------------------------------------------------------------------------

def test_criterion_05_traffic_model(capsys):
    weights = model.init_weights(model.build_lightfuse(), 22)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, size=(256, 256, 6)).astype(np.float32)
    fused_totals = set()
    for s in (7, 32, 256):
        _, fused = fusion.run_detailnet_fused(x, weights, s)
        fused_totals.add((fused.offchip_read_bytes, fused.offchip_write_bytes))
        assert fused.peak_onchip_bytes == s * s * 280
    assert fused_totals == {(256 * 256 * 6 * 4, 256 * 256 * 3 * 4)}
    total_fused = 256 * 256 * 9 * 4
    assert total_fused == 2_359_296
    _, unfused = fusion.run_detailnet_unfused(x, weights)
    assert unfused.total_offchip_bytes == 35_913_728
    assert Fraction(total_fused, unfused.total_offchip_bytes) == Fraction(9, 137)
    assert total_fused < unfused.total_offchip_bytes
    with capsys.disabled():
        _pass(5, "traffic 2359296 fused vs 35913728 unfused (9/137), peak = s^2 * 280")


# 6 ------------------------------------------------------------------------

def test_criterion_06_gradient_correctness(capsys):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (5, 6, 4)).astype(np.float32)
    pointwise = nn_ops.PointwiseKernel(
        rng.uniform(-1, 1, (4, 3)).astype(np.float32), rng.uniform(-1, 1, 3).astype(np.float32)
    )
    assert nn_ops.grad_check(pointwise, x, seed=1) < 1e-3
    depthwise = nn_ops.DepthwiseKernel(
        rng.uniform(-1, 1, (3, 3, 4)).astype(np.float32), rng.uniform(-1, 1, 4).astype(np.float32), 1
    )
    assert nn_ops.grad_check(depthwise, x, seed=2) < 1e-3
    x_even = rng.uniform(-1, 1, (6, 6, 4)).astype(np.float32)
    strided = nn_ops.DepthwiseKernel(
        rng.uniform(-1, 1, (3, 3, 4)).astype(np.float32), rng.uniform(-1, 1, 4).astype(np.float32), 2
    )
    assert nn_ops.grad_check(strided, x_even, seed=3) < 1e-3
    x_off_kink = x + np.sign(x).astype(np.float32) * 0.01
    assert nn_ops.grad_check("relu", x_off_kink, seed=4) < 1e-3
    assert nn_ops.grad_check("tanh", rng.uniform(-0.5, 0.5, (5, 6, 4)).astype(np.float32), seed=5) < 1e-3
    assert nn_ops.grad_check("upsample_nn", x, seed=6) < 1e-3
    assert nn_ops.grad_check(("add", rng.uniform(-1, 1, (5, 6, 4)).astype(np.float32)), x, seed=7) < 1e-3

    # end-to-end on a 16x16 pair: >= 50 randomly chosen parameters
    graph = model.build_lightfuse()
    weights = model.init_weights(graph, 11)
    gen = np.random.default_rng(123)
    for key in weights:  # generic position: off-kink biases
        if key.endswith(".bias"):
            weights[key] = gen.uniform(-0.1, 0.1, size=weights[key].shape).astype(np.float32)
    u = gen.uniform(-1, 1, (16, 16, 3)).astype(np.float32)
    o = gen.uniform(-1, 1, (16, 16, 3)).astype(np.float32)
    label = gen.uniform(-0.8, 0.8, (16, 16, 3)).astype(np.float32)
    _, _, grads = training.loss_and_grads(graph, weights, u, o, label)

    w64 = {k: v.astype(np.float64) for k, v in weights.items()}
    x64 = np.concatenate([u.astype(np.float64), o.astype(np.float64)], axis=2)
    lab64 = label.astype(np.float64)

    def loss_and_relu_masks():
        out, _, tapes = training._forward_cached(graph, w64, x64)
        masks = b"".join(
            (inputs[0] > 0).tobytes()
            for tape in tapes
            for layer, _, inputs in tape
            if layer.kind == "relu"
        )
        diff = out - lab64
        return float(np.mean(diff * diff)), masks

    eps = 1e-4
    coords = [(k, i) for k in sorted(grads) for i in range(weights[k].size)]
    order = np.random.default_rng(7).permutation(len(coords))
    checked = 0
    worst = 0.0
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
            continue  # relu flipped within the interval: no valid finite difference there
        numeric = (jp - jm) / (2 * eps)
        analytic = float(grads[key].reshape(-1)[idx])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, rel)
        checked += 1
        if checked >= 50:
            break
    assert checked >= 50
    assert worst < 1e-3
    with capsys.disabled():
        _pass(6, f"all primitive ops and end-to-end gradients verified (worst rel {worst:.2e})")


# 7 ------------------------------------------------------------------------

def _smooth_field(rng, hw, lo, hi):
    coarse = rng.uniform(lo, hi, size=(hw // 8, hw // 8, 3)).astype(np.float32)
    field = coarse
    for _ in range(3):
        field = nn_ops.upsample_nn(field)
    return field


def test_criterion_07_toy_learning(capsys):
    rng = np.random.default_rng(2024)
    dataset = []
    for _ in range(4):
        label = _smooth_field(rng, 64, 0.05, 0.7)
        spread = _smooth_field(rng, 64, 0.1, 0.25)
        under = np.clip(label - spread, -1.0, 1.0).astype(np.float32)
        over = np.clip(label + spread, -1.0, 1.0).astype(np.float32)
        dataset.append((under, over, label))

    graph = model.build_lightfuse()
    initial = model.init_weights(graph, 3)
    init_loss = float(
        np.mean([training.loss_mse(model.forward(graph, initial, u, o), lab) for u, o, lab in dataset])
    )
    trained, curve = training.train_toy(
        graph, initial, dataset, steps=2000, seed=3, lr=0.001, stop_loss=init_loss / 150.0
    )
    assert len(curve) <= 2000
    assert abs(curve[0].l_mse - init_loss) < 1e-6  # first record is the initialized loss
    final_loss = float(
        np.mean([training.loss_mse(model.forward(graph, trained, u, o), lab) for u, o, lab in dataset])
    )
    assert final_loss <= init_loss / 100.0
    with capsys.disabled():
        _pass(7, f"MSE {init_loss:.4g} -> {final_loss:.4g} ({init_loss / final_loss:.0f}x) in {len(curve)} steps")


# 8 ------------------------------------------------------------------------

def test_criterion_08_metric_oracles(capsys):
    img = np.random.default_rng(8).integers(0, 255, size=(32, 32, 3), dtype=np.uint8)
    assert metrics.psnr(img, img) == math.inf
    black = np.zeros((32, 32, 3), dtype=np.uint8)
    white = np.full((32, 32, 3), 255, dtype=np.uint8)
    assert metrics.psnr(black, white) == 0.0
    assert abs(metrics.psnr(img, img + 1) - 48.13) <= 0.01
    assert abs(metrics.ssim(img, img) - 1.0) <= 1e-6
    assert metrics.format_scores(math.inf, 1.0) == "psnr=inf ssim=1.000"
    assert metrics.format_scores(20.2244, 0.7968) == "psnr=20.224 ssim=0.797"
    with capsys.disabled():
        _pass(8, "psnr/ssim oracles and 3-decimal score formatting")


# 9 ------------------------------------------------------------------------

def test_criterion_09_format_round_trips(capsys):
    rng = np.random.default_rng(9)
    for _ in range(100):
        h, w = rng.integers(1, 33, size=2)
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        data = tensor_core.encode_ppm(img)
        again = tensor_core.decode_ppm(data)
        assert (again == img).all()
        assert tensor_core.encode_ppm(again) == data

    graph = model.build_lightfuse()
    entries = model.graph_param_entries(graph)
    for case in range(100):
        store = {
            key: rng.standard_normal(shape).astype(np.float32) for key, shape, _ in entries
        }
        loaded = model.load_weights(model.save_weights(store, graph), graph)
        for key in store:
            assert loaded[key].tobytes() == store[key].tobytes()
    with capsys.disabled():
        _pass(9, "100 PPM and 100 weight-file round-trips bit-exact")


# 10 -----------------------------------------------------------------------

def test_criterion_10_pairing_and_patching(capsys):
    def gray(v, hw=64):
        return np.full((hw, hw, 3), v, dtype=np.uint8)

    assert metrics.select_extreme_pair([gray(10), gray(120), gray(240)]) == (0, 2)
    assert metrics.select_extreme_pair([gray(50), gray(50)]) == (0, 1)
    permuted = [gray(240), gray(10), gray(120)]
    u, o = metrics.select_extreme_pair(permuted)
    assert (float(permuted[u].mean()), float(permuted[o].mean())) == (10.0, 240.0)

    rng = np.random.default_rng(10)
    big = rng.integers(0, 256, size=(512, 512, 3), dtype=np.uint8)
    assert len(metrics.extract_patches(big, 256, 256)) == 4
    wide = rng.integers(0, 256, size=(256, 300, 3), dtype=np.uint8)
    patches = metrics.extract_patches(wide, 256, 256)
    assert len(patches) == 1
    assert np.array_equal(patches[0], wide[:256, :256])
    with capsys.disabled():
        _pass(10, "extreme-pair selection and 256-stride patching protocol")
