import inspect
import platform
import resource
from unittest import mock

import numpy as np
import pytest

from lightfuse import cli, fusion
from lightfuse.model import build_lightfuse, init_weights, save_weights
from lightfuse.tensor_core import decode_ppm, encode_ppm


def write_ppm(path, img):
    path.write_bytes(encode_ppm(img))


def rand_img(h, w, seed):
    return np.random.default_rng(seed).integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def gray(value, hw=70):
    return np.full((hw, hw, 3), value, dtype=np.uint8)


@pytest.fixture()
def weights_file(tmp_path):
    graph = build_lightfuse()
    path = tmp_path / "w.lfw"
    path.write_bytes(save_weights(init_weights(graph, 0), graph))
    return path


# ------------------------------------------------------------------ analyze

def test_analyze_lightfuse_reports_param_total(capsys):
    assert cli.main(["analyze", "lightfuse"]) == 0
    out = capsys.readouterr().out
    assert "1574" in out
    assert "2984" in out


def test_analyze_tcnn(capsys):
    assert cli.main(["analyze", "tcnn"]) == 0
    assert "2009" in capsys.readouterr().out


def test_analyze_kv_format(capsys):
    assert cli.main(["analyze", "lightfuse", "--convention", "table2", "--format", "kv"]) == 0
    out = capsys.readouterr().out
    assert "total params=1574" in out


def test_analyze_unknown_model_is_usage_error(capsys):
    assert cli.main(["analyze", "resnet"]) == 1


def test_unknown_command_is_usage_error():
    assert cli.main(["frobnicate"]) == 1


# --------------------------------------------------------------------- fuse

def test_fuse_multiple_of_eight_no_padding(tmp_path, weights_file, capsys):
    write_ppm(tmp_path / "u.ppm", rand_img(16, 24, 1))
    write_ppm(tmp_path / "o.ppm", rand_img(16, 24, 2))
    out_path = tmp_path / "fused.ppm"
    code = cli.main([
        "fuse", str(tmp_path / "u.ppm"), str(tmp_path / "o.ppm"), str(out_path),
        "--weights", str(weights_file), "--tile-size", "5",
    ])
    assert code == 0
    fused = decode_ppm(out_path.read_bytes())
    assert fused.shape == (16, 24, 3)
    assert "mode=fused" in capsys.readouterr().out


def test_fuse_pads_and_crops_odd_sizes(tmp_path, weights_file):
    write_ppm(tmp_path / "u.ppm", rand_img(100, 100, 3))
    write_ppm(tmp_path / "o.ppm", rand_img(100, 100, 4))
    out_path = tmp_path / "fused.ppm"
    code = cli.main([
        "fuse", str(tmp_path / "u.ppm"), str(tmp_path / "o.ppm"), str(out_path),
        "--weights", str(weights_file),
    ])
    assert code == 0
    assert decode_ppm(out_path.read_bytes()).shape == (100, 100, 3)


def test_fuse_dim_mismatch_is_validation_error(tmp_path, weights_file):
    write_ppm(tmp_path / "u.ppm", rand_img(16, 16, 5))
    write_ppm(tmp_path / "o.ppm", rand_img(24, 24, 6))
    code = cli.main([
        "fuse", str(tmp_path / "u.ppm"), str(tmp_path / "o.ppm"), str(tmp_path / "x.ppm"),
        "--weights", str(weights_file),
    ])
    assert code == 3
    assert not (tmp_path / "x.ppm").exists()


def test_fuse_missing_file_is_io_error(tmp_path, weights_file):
    write_ppm(tmp_path / "u.ppm", rand_img(16, 16, 7))
    code = cli.main([
        "fuse", str(tmp_path / "u.ppm"), str(tmp_path / "missing.ppm"), str(tmp_path / "x.ppm"),
        "--weights", str(weights_file),
    ])
    assert code == 2


def test_fuse_corrupt_weights_is_validation_error(tmp_path):
    write_ppm(tmp_path / "u.ppm", rand_img(16, 16, 8))
    write_ppm(tmp_path / "o.ppm", rand_img(16, 16, 9))
    bad = tmp_path / "bad.lfw"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code = cli.main([
        "fuse", str(tmp_path / "u.ppm"), str(tmp_path / "o.ppm"), str(tmp_path / "x.ppm"),
        "--weights", str(bad),
    ])
    assert code == 3


# --------------------------------------------------------------------- bench

def test_bench_prints_traffic_and_timing(capsys):
    assert cli.main(["bench", "64x64", "--tile-size", "16", "--repetitions", "1"]) == 0
    out = capsys.readouterr().out
    assert "bit-equal: true" in out
    assert "mode=fused" in out and "mode=unfused" in out
    assert "s/run" in out


def test_bench_zero_repetitions_skips_timing(capsys):
    assert cli.main(["bench", "16x16", "--repetitions", "0"]) == 0
    out = capsys.readouterr().out
    assert "mode=fused" in out
    assert "s/run" not in out


def test_bench_rejects_negative_repetitions(capsys):
    assert cli.main(["bench", "16x16", "--repetitions", "-1"]) == 1
    assert "--repetitions" in capsys.readouterr().err


def test_bench_rejects_non_multiple_of_eight():
    assert cli.main(["bench", "20x20"]) == 1


def test_bench_rejects_malformed_dims():
    assert cli.main(["bench", "banana"]) == 1


def test_bench_too_large_to_allocate_is_validation_error(capsys):
    # numpy refuses the 2.8 PiB input at once; nothing is committed
    assert cli.main(["bench", "8000000x8000000", "--repetitions", "0"]) == 3
    assert capsys.readouterr().err.startswith("error: Unable to allocate")


# --------------------------------------------------------------------- eval

def test_eval_identical_images(tmp_path, capsys):
    img = rand_img(32, 32, 10)
    write_ppm(tmp_path / "a.ppm", img)
    assert cli.main(["eval", str(tmp_path / "a.ppm"), str(tmp_path / "a.ppm")]) == 0
    assert capsys.readouterr().out.strip() == "psnr=inf ssim=1.000"


def test_eval_differing_images(tmp_path, capsys):
    write_ppm(tmp_path / "a.ppm", gray(0, 32))
    write_ppm(tmp_path / "b.ppm", gray(255, 32))
    assert cli.main(["eval", str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")]) == 0
    assert capsys.readouterr().out.startswith("psnr=0.000 ")


def test_eval_dim_mismatch(tmp_path):
    write_ppm(tmp_path / "a.ppm", gray(0, 16))
    write_ppm(tmp_path / "b.ppm", gray(0, 24))
    assert cli.main(["eval", str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")]) == 3


# --------------------------------------------------------------------- pair

def test_pair_prints_extremes(tmp_path, capsys):
    write_ppm(tmp_path / "mid.ppm", gray(120))
    write_ppm(tmp_path / "dark.ppm", gray(10))
    write_ppm(tmp_path / "bright.ppm", gray(240))
    (tmp_path / "notes.txt").write_text("not an image")
    assert cli.main(["pair", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["under=dark.ppm", "over=bright.ppm"]
    assert "notes.txt" in captured.err


def test_pair_needs_two_images(tmp_path):
    write_ppm(tmp_path / "only.ppm", gray(50))
    assert cli.main(["pair", str(tmp_path)]) == 3


def test_pair_missing_directory(tmp_path):
    assert cli.main(["pair", str(tmp_path / "nope")]) == 2


# -------------------------------------------------------------------- train

def make_scene(root, seed, hw=64):
    root.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    label = rng.integers(80, 200, size=(hw, hw, 3)).astype(np.int16)
    write_ppm(root / "label.ppm", label.astype(np.uint8))
    write_ppm(root / "a.ppm", np.clip(label - 60, 0, 255).astype(np.uint8))
    write_ppm(root / "b.ppm", np.clip(label + 40, 0, 255).astype(np.uint8))
    write_ppm(root / "c.ppm", np.clip(label + 60, 0, 255).astype(np.uint8))


def test_train_writes_weights_and_curve(tmp_path, capsys):
    make_scene(tmp_path / "data" / "scene1", seed=0)
    out = tmp_path / "trained.lfw"
    code = cli.main(["train", str(tmp_path / "data"), str(out), "--steps", "3", "--seed", "1"])
    assert code == 0
    graph = build_lightfuse()
    from lightfuse.model import load_weights

    store = load_weights(out.read_bytes(), graph)
    assert len(store) == len(init_weights(graph, 0))
    curve = (tmp_path / "trained.lfw.csv").read_text().strip().split("\n")
    assert curve[0] == "step,l_mse,l_perceptual,l_total"
    assert len(curve) == 4


def test_train_deterministic_weight_bytes(tmp_path):
    make_scene(tmp_path / "data" / "scene1", seed=2)
    out_a = tmp_path / "a.lfw"
    out_b = tmp_path / "b.lfw"
    assert cli.main(["train", str(tmp_path / "data"), str(out_a), "--steps", "2", "--seed", "7"]) == 0
    assert cli.main(["train", str(tmp_path / "data"), str(out_b), "--steps", "2", "--seed", "7"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap thresholds are glibc settings")
def test_train_keeps_its_heap_between_samples(tmp_path):
    # Without the train command's malloc thresholds, glibc unmaps the heap
    # top after each sample and faults it in again: several hundred minor
    # faults per sample, against a few dozen for the whole call with them.
    make_scene(tmp_path / "data" / "scene1", seed=3, hw=128)
    argv = ["train", str(tmp_path / "data"), str(tmp_path / "w.lfw"), "--steps", "4", "--seed", "1"]
    assert cli.main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(argv) == 0
    samples = 4 * 4  # four 64x64 patches per step
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 20 * samples


def test_train_scene_without_label_is_skipped(tmp_path, capsys):
    scene = tmp_path / "data" / "scene1"
    scene.mkdir(parents=True)
    write_ppm(scene / "a.ppm", gray(10))
    write_ppm(scene / "b.ppm", gray(240))
    code = cli.main(["train", str(tmp_path / "data"), str(tmp_path / "w.lfw"), "--steps", "1"])
    assert code == 3  # no usable triples
    assert "label.ppm" in capsys.readouterr().err


def test_train_scene_with_malformed_label_is_skipped(tmp_path, capsys):
    make_scene(tmp_path / "data" / "scene1", seed=21)
    make_scene(tmp_path / "data" / "scene2", seed=22)
    bad = tmp_path / "data" / "scene1" / "label.ppm"
    bad.write_bytes(bad.read_bytes()[:-10])
    code = cli.main(["train", str(tmp_path / "data"), str(tmp_path / "w.lfw"), "--steps", "1"])
    out, err = capsys.readouterr()
    assert code == 0
    assert " triples=1 " in out
    assert f"warning: {bad}: not a valid PPM (" in err
    assert err.rstrip().endswith("), skipped")


def test_train_missing_directory(tmp_path):
    assert cli.main(["train", str(tmp_path / "nope"), str(tmp_path / "w.lfw")]) == 2


MALFORMED_ARGS = {
    "fuse_under": lambda bad, good, w, tmp: ["fuse", bad, good, tmp + "/x.ppm", "--weights", w],
    "fuse_over": lambda bad, good, w, tmp: ["fuse", good, bad, tmp + "/x.ppm", "--weights", w],
    "eval_a": lambda bad, good, w, tmp: ["eval", bad, good],
    "eval_b": lambda bad, good, w, tmp: ["eval", good, bad],
    "weights": lambda bad, good, w, tmp: ["fuse", good, good, tmp + "/x.ppm", "--weights", bad],
}


@pytest.mark.parametrize("which", sorted(MALFORMED_ARGS))
def test_parse_error_names_the_malformed_file(which, tmp_path, weights_file, capsys):
    good = tmp_path / "good.ppm"
    write_ppm(good, rand_img(16, 16, 20))
    if which == "weights":
        bad = tmp_path / "bad.lfw"
        bad.write_bytes(b"LFW0" + weights_file.read_bytes()[4:])
    else:
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(encode_ppm(rand_img(16, 16, 22))[:-10])
    argv = MALFORMED_ARGS[which](str(bad), str(good), str(weights_file), str(tmp_path))
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_fuse_non_finite_weights_fail_before_any_forward_pass(tmp_path, capsys):
    graph = build_lightfuse()
    store = init_weights(graph, 0)
    store["g3.pw.bias"][1] = np.inf
    weights = tmp_path / "inf.lfw"
    weights.write_bytes(save_weights(store, graph))
    write_ppm(tmp_path / "u.ppm", rand_img(16, 16, 10))
    write_ppm(tmp_path / "o.ppm", rand_img(16, 16, 11))
    with mock.patch.object(fusion, "fuse_images") as fuse_images:
        code = cli.main([
            "fuse", str(tmp_path / "u.ppm"), str(tmp_path / "o.ppm"), str(tmp_path / "x.ppm"),
            "--weights", str(weights),
        ])
    assert code == 3
    assert not fuse_images.called
    assert "g3.pw.bias" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["bench", "16x16", "--seed", "-1"], "--seed"),
    (["train", "data", "w.lfw", "--seed", "-1"], "--seed"),
    (["train", "data", "w.lfw", "--steps", "-3"], "--steps"),
])
def test_negative_seed_and_steps_are_usage_errors(argv, flag, capsys):
    assert cli.main(argv) == 1
    assert flag in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_fuse_nan_in_the_last_stripe_fails_without_writing(tmp_path, capsys):
    # d1 channel 0 overflows to +inf where the under image's red and green
    # are 255, and d2 reads that channel with zero weights: 0 * inf is NaN
    graph = build_lightfuse()
    store = init_weights(graph, 0)
    store["d1.weight"][:2, 0] = 3e38
    store["d2.weight"][0, :] = 0.0
    weights = tmp_path / "overflow.lfw"
    weights.write_bytes(save_weights(store, graph))
    under = np.zeros((64, 16, 3), dtype=np.uint8)
    under[60:] = 255
    write_ppm(tmp_path / "u.ppm", under)
    write_ppm(tmp_path / "o.ppm", rand_img(64, 16, 12))
    # 8-row stripes at tile size 8: rows 60..63 fall in the last of eight
    with mock.patch.object(fusion, "FUSE_STRIPE_PIXELS", 8 * 16), \
            mock.patch.object(fusion, "run_detailnet_fused", wraps=fusion.run_detailnet_fused) as detail:
        code = cli.main([
            "fuse", str(tmp_path / "u.ppm"), str(tmp_path / "o.ppm"), str(tmp_path / "x.ppm"),
            "--weights", str(weights), "--tile-size", "8",
        ])
    assert code == 3
    assert detail.call_count == 8
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "x.ppm").exists()


FUSE_TESTS = (
    test_fuse_multiple_of_eight_no_padding,
    test_fuse_pads_and_crops_odd_sizes,
    test_fuse_dim_mismatch_is_validation_error,
    test_fuse_missing_file_is_io_error,
    test_fuse_corrupt_weights_is_validation_error,
    test_fuse_non_finite_weights_fail_before_any_forward_pass,
    test_fuse_nan_in_the_last_stripe_fails_without_writing,
)


@pytest.mark.parametrize(
    "test",
    [pytest.param(test, marks=getattr(test, "pytestmark", []), id=test.__name__) for test in FUSE_TESTS],
)
def test_fuse_tests_pass_on_two_threads(test, request):
    args = {name: request.getfixturevalue(name) for name in inspect.signature(test).parameters}
    with mock.patch.object(fusion, "FUSE_THREADS", 2):
        test(**args)

