import struct

import numpy as np
import pytest

from lightfuse import model, nn_ops
from lightfuse.model import (
    ModelGraph,
    WeightFormatError,
    build_lightfuse,
    build_tcnn,
    count_params,
    forward,
    graph_param_entries,
    init_weights,
    load_weights,
    run_branch,
    save_weights,
)


def rand_pair(hw, seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1, 1, size=(hw, hw, 3)).astype(np.float32)
    o = rng.uniform(-1, 1, size=(hw, hw, 3)).astype(np.float32)
    return u, o


# ------------------------------------------------------------- construction

def test_lightfuse_total_params_1574():
    assert count_params(build_lightfuse()) == 1574


def test_lightfuse_branch_subtotals():
    weights = init_weights(build_lightfuse(), 0)
    detail = sum(v.size for k, v in weights.items() if k.startswith("d"))
    global_ = sum(v.size for k, v in weights.items() if k.startswith("g"))
    assert detail == 1379  # 224 + 1056 + 99
    assert global_ == 195  # 60 + 60 + 75


def test_tcnn_total_params_2009():
    assert count_params(build_tcnn()) == 2009  # 278 + 1344 + 387


def test_tcnn_per_layer_param_sizes():
    weights = init_weights(build_tcnn(), 0)
    per_layer = {}
    for key, arr in weights.items():
        per_layer.setdefault(key.split(".")[0], 0)
        per_layer[key.split(".")[0]] += arr.size
    assert per_layer == {"t1": 278, "t2": 1344, "t3": 387}


# ------------------------------------------------------------------- init

def test_init_weights_deterministic():
    g = build_lightfuse()
    a = init_weights(g, 42)
    b = init_weights(g, 42)
    assert sorted(a) == sorted(b)
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_init_weights_biases_zero_and_weights_bounded():
    g = build_lightfuse()
    store = init_weights(g, 3)
    bounds = {key: fan for key, _, fan in graph_param_entries(g)}
    for key, arr in store.items():
        if key.endswith(".bias"):
            assert (arr == 0).all()
        else:
            bound = np.sqrt(6.0 / bounds[key])
            assert np.abs(arr).max() <= bound


def test_different_seeds_differ():
    g = build_lightfuse()
    a = init_weights(g, 0)
    b = init_weights(g, 1)
    assert any(not np.array_equal(a[k], b[k]) for k in a if k.endswith(".weight"))


# ---------------------------------------------------------------- forward

def test_forward_zero_weights_gives_zero_output():
    g = build_lightfuse()
    zeros = {k: np.zeros_like(v) for k, v in init_weights(g, 0).items()}
    u, o = rand_pair(16, 1)
    out = forward(g, zeros, u, o)
    assert (out == 0).all()


def test_forward_shape_and_determinism():
    g = build_lightfuse()
    w = init_weights(g, 5)
    u, o = rand_pair(24, 2)
    out1 = forward(g, w, u, o)
    out2 = forward(g, w, u, o)
    assert out1.shape == (24, 24, 3)
    assert out1.tobytes() == out2.tobytes()


def test_forward_output_strictly_inside_unit_interval():
    g = build_lightfuse()
    w = init_weights(g, 6)
    u, o = rand_pair(16, 3)
    out = forward(g, w, u, o)
    assert np.abs(out).max() < 1.0


def test_forward_rejects_non_divisible_dims():
    g = build_lightfuse()
    w = init_weights(g, 0)
    rng = np.random.default_rng(0)
    u = rng.uniform(-1, 1, size=(20, 20, 3)).astype(np.float32)
    with pytest.raises(ValueError, match="divisible"):
        forward(g, w, u, u)


def test_forward_rejects_mismatched_dims():
    g = build_lightfuse()
    w = init_weights(g, 0)
    u, _ = rand_pair(16, 0)
    o, _ = rand_pair(24, 0)
    with pytest.raises(ValueError, match="mismatch"):
        forward(g, w, u, o)


def test_branch_order_does_not_change_output():
    g = build_lightfuse()
    swapped = ModelGraph(
        name=g.name,
        branches=(g.branches[1], g.branches[0]),
        merge_add_tanh=True,
        spatial_divisor=8,
    )
    w = init_weights(g, 9)
    u, o = rand_pair(16, 4)
    assert forward(g, w, u, o).tobytes() == forward(swapped, w, u, o).tobytes()


@pytest.mark.parametrize("kind", model.LAYER_KINDS)
def test_every_layer_kind_runs_its_ops_and_grad_checks_them(kind):
    layer = model.LayerSpec("l", kind, k=3, in_channels=4, out_channels=4)
    graph = ModelGraph("one", (("main", (layer,)),), False, 1)
    weights = init_weights(graph, 12)
    for key in weights:
        if key.endswith(".bias"):
            weights[key] = np.random.default_rng(13).uniform(-0.1, 0.1, 4).astype(np.float32)
    x = np.random.default_rng(14).uniform(-0.5, 0.5, (6, 8, 4)).astype(np.float32)
    x += np.sign(x) * np.float32(0.01)  # relu inputs off the kink
    y = x
    for op in model.layer_kernels(layer, weights):
        assert nn_ops.grad_check(op, y, seed=15) < 1e-3
        y = nn_ops.op_forward(op, y)
    assert model.run_layer(layer, weights, x).tobytes() == y.tobytes()


def test_global_encoder_downsamples_by_eight():
    g = build_lightfuse()
    w = init_weights(g, 7)
    u, o = rand_pair(16, 5)
    x = np.concatenate([u, o], axis=2)
    branches = dict(g.branches)
    encoder = [l for l in branches["global"] if l.kind != "upsample_nn"]
    mid = run_branch(tuple(encoder), w, x)
    assert mid.shape == (2, 2, 3)  # 16 / 8


def test_tcnn_forward_preserves_dims():
    g = build_tcnn()
    w = init_weights(g, 1)
    u, o = rand_pair(10, 6)  # not divisible by 8 on purpose: tcnn has no downsampling
    out = forward(g, w, u, o)
    assert out.shape == (10, 10, 3)


def test_forward_missing_weight_names_parameter():
    g = build_lightfuse()
    w = init_weights(g, 0)
    del w["d2.bias"]
    u, o = rand_pair(16, 7)
    with pytest.raises(WeightFormatError, match="d2.bias"):
        forward(g, w, u, o)


# ------------------------------------------------------------ weight files

def _pack_lfw1(tensors):
    """Independent reference packer for the weight-file format."""
    blob = bytearray(b"LFW1")
    blob += struct.pack("<I", len(tensors))
    for name, arr in tensors:
        raw = name.encode()
        blob += struct.pack("<H", len(raw)) + raw
        blob += struct.pack("<B", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return bytes(blob)


def test_save_matches_independent_packer():
    g = build_lightfuse()
    w = init_weights(g, 11)
    ordered = [(key, w[key]) for key, _, _ in graph_param_entries(g)]
    assert save_weights(w, g) == _pack_lfw1(ordered)


def test_save_load_round_trip_bit_exact():
    g = build_lightfuse()
    w = init_weights(g, 12)
    again = load_weights(save_weights(w, g), g)
    assert sorted(again) == sorted(w)
    for k in w:
        assert again[k].tobytes() == w[k].tobytes()


def test_load_rejects_bad_magic():
    g = build_lightfuse()
    blob = bytearray(save_weights(init_weights(g, 0), g))
    blob[:4] = b"NOPE"
    with pytest.raises(WeightFormatError, match="magic"):
        load_weights(bytes(blob), g)


def test_load_missing_tensor_names_it():
    g = build_lightfuse()
    w = init_weights(g, 0)
    entries = [(key, w[key]) for key, _, _ in graph_param_entries(g)]
    without_last = entries[:-1]
    missing_name = entries[-1][0]
    with pytest.raises(WeightFormatError, match=missing_name):
        load_weights(_pack_lfw1(without_last), g)


def test_load_shape_mismatch_names_tensor():
    g = build_lightfuse()
    w = init_weights(g, 0)
    entries = [(key, w[key]) for key, _, _ in graph_param_entries(g)]
    entries[0] = (entries[0][0], np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(WeightFormatError, match=entries[0][0]):
        load_weights(_pack_lfw1(entries), g)


def test_load_truncated_file():
    g = build_lightfuse()
    blob = save_weights(init_weights(g, 0), g)
    with pytest.raises(WeightFormatError, match="truncated"):
        load_weights(blob[: len(blob) // 2], g)


def test_load_unexpected_tensor():
    g = build_lightfuse()
    w = init_weights(g, 0)
    entries = [(key, w[key]) for key, _, _ in graph_param_entries(g)]
    entries.append(("bogus.weight", np.zeros(3, dtype=np.float32)))
    with pytest.raises(WeightFormatError, match="bogus"):
        load_weights(_pack_lfw1(entries), g)


def test_save_missing_parameter_names_it():
    g = build_lightfuse()
    w = init_weights(g, 0)
    del w["g1.weight"]
    with pytest.raises(WeightFormatError, match="g1.weight"):
        save_weights(w, g)


def test_round_trip_many_random_stores():
    g = build_tcnn()
    rng = np.random.default_rng(13)
    for _ in range(25):
        w = {
            key: rng.standard_normal(shape).astype(np.float32)
            for key, shape, _ in graph_param_entries(g)
        }
        again = load_weights(save_weights(w, g), g)
        for k in w:
            assert again[k].tobytes() == w[k].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_tensor_naming_it(bad):
    g = build_lightfuse()
    w = init_weights(g, 0)
    w["d2.weight"][3, 5] = bad
    with pytest.raises(WeightFormatError, match=r"non-finite.*'d2\.weight'"):
        load_weights(save_weights(w, g), g)


# ------------------------------------------------ caller-built weight stores

def _forward_via_fusion(g, w, u, o):
    from lightfuse import fusion

    return fusion.fused_forward(w, u, o, 4)


def _loss_and_grads(g, w, u, o):
    from lightfuse import training

    return training.loss_and_grads(g, w, u, o, u)


@pytest.mark.parametrize("run", [forward, _forward_via_fusion, _loss_and_grads])
def test_wrong_shaped_tensor_names_its_key(run):
    g = build_lightfuse()
    w = init_weights(g, 0)
    w["d1.weight"] = np.zeros((6, 16), dtype=np.float32)
    w["d1.bias"] = np.zeros(16, dtype=np.float32)
    u, o = rand_pair(16, 8)
    with pytest.raises(WeightFormatError, match=r"'d1\.weight'"):
        run(g, w, u, o)


@pytest.mark.parametrize("dims", [(2**32 - 1, 2**32 - 1), (2**31, 2**31, 4)])
def test_load_overflowing_dims_is_truncated_payload(dims):
    # the element count is far beyond the blob, however large it is
    name = b"g1.weight"
    blob = b"LFW1" + struct.pack("<I", 1) + struct.pack("<H", len(name)) + name
    blob += struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
    with pytest.raises(WeightFormatError, match=r"truncated file while reading payload of 'g1\.weight'"):
        load_weights(blob, build_lightfuse())
