import contextlib
import inspect
import io
import os
import platform
import resource
import stat
import statistics
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightfuse import cli, fusion, metrics, tensor_core, training
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
    # no timing lines: perfbench is the harness that measures time
    assert cli.main(["bench", "64x64", "--tile-size", "16"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "bit-equal: true",
        "mode=fused reads=98304 writes=49152 peak=71680",
        "mode=unfused reads=1146880 writes=1097728 peak=256",
    ]


def test_bench_rejects_non_multiple_of_eight():
    assert cli.main(["bench", "20x20"]) == 1


def test_bench_rejects_malformed_dims():
    assert cli.main(["bench", "banana"]) == 1


def test_bench_too_large_to_allocate_is_validation_error(capsys):
    # numpy refuses the 2.8 PiB input at once; nothing is committed
    assert cli.main(["bench", "8000000x8000000"]) == 3
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


def test_pair_memory_does_not_grow_with_the_number_of_exposures(tmp_path):
    # a decoded 512x512 exposure is 768 KB; pair reads one file at a time
    # and keeps each file's mean, not its pixels
    peaks = {}
    for count in (2, 6):
        scene = tmp_path / f"scene{count}"
        scene.mkdir()
        for i in range(count):
            write_ppm(scene / f"e{i}.ppm", rand_img(512, 512, i))
        traced_peak(["pair", str(scene)])  # the first call keeps a little for good
        peaks[count] = traced_peak(["pair", str(scene)])
    assert peaks[6] - peaks[2] < 32 * 1024


def test_pair_selects_from_the_exact_means(tmp_path):
    # one or two values of 786,432 raised by one: the means differ by less
    # than half a float32 ulp at 100, so only an exact (float64 or integer)
    # mean tells the three images apart
    for name, raised in (("a", 1), ("b", 0), ("c", 2)):
        img = np.full((512, 512, 3), 100, dtype=np.uint8)
        img.reshape(-1)[:raised] = 101
        write_ppm(tmp_path / f"{name}.ppm", img)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["pair", str(tmp_path)]) == 0
    assert out.getvalue().splitlines() == ["under=b.ppm", "over=c.ppm"]


# -------------------------------------------------------------------- train

def make_scene(root, seed, hw=64, w=None):
    """A scene of hw x w (default hw x hw) images whose darkest exposure is a.ppm and brightest c.ppm."""
    root.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    label = rng.integers(80, 200, size=(hw, w or hw, 3)).astype(np.int16)
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


def test_train_outputs_are_not_executable(tmp_path):
    make_scene(tmp_path / "data" / "scene1", seed=0)
    out = tmp_path / "trained.lfw"
    umask = os.umask(0o022)
    try:
        assert cli.main(["train", str(tmp_path / "data"), str(out), "--steps", "1", "--seed", "1"]) == 0
    finally:
        os.umask(umask)
    for path in (out, tmp_path / "trained.lfw.csv"):
        assert path.stat().st_mode & 0o7777 == 0o666 & ~0o022, path.name


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


def eager_triples(root, names):
    """Each scene's normalized (under, over, label) patches, from its decoded files and extract_patches."""
    triples = []
    for name in names:
        exposures = [decode_ppm((root / name / f).read_bytes()) for f in ("a.ppm", "b.ppm", "c.ppm")]
        ui, oi = metrics.select_extreme_pair(exposures)
        label = decode_ppm((root / name / "label.ppm").read_bytes())
        parts = [metrics.extract_patches(img, 64, 64) for img in (exposures[ui], exposures[oi], label)]
        triples += [tuple(tensor_core.normalize(p) for p in triple) for triple in zip(*parts)]
    return triples


def triple_bytes(triple):
    return [(p.dtype, p.shape, p.tobytes()) for p in triple]


@settings(max_examples=20, deadline=None)
@given(sizes=st.lists(st.tuples(st.integers(64, 200), st.integers(64, 200)), min_size=1, max_size=3),
       data=st.data())
def test_train_reads_each_triple_from_its_files_as_extract_patches_cuts_it(sizes, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "data"
        names = [f"scene{k}" for k in range(len(sizes))]
        for k, (name, (h, w)) in enumerate(zip(names, sizes)):
            make_scene(root / name, seed=k, hw=h, w=w)
        eager = eager_triples(root, names)
        dataset = cli._load_training_triples(root)
        n = len(eager)
        assert len(dataset) == n
        # drawn reads (unsorted, repeated, negative), then every triple forwards and backwards across the bands
        order = data.draw(st.lists(st.integers(-n, n - 1), max_size=3 * n)) + [*range(n), *reversed(range(n))]
        for i in order:
            assert triple_bytes(dataset[i]) == triple_bytes(eager[i])
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                dataset[i]
        graph = build_lightfuse()
        trained = [training.train_toy(graph, init_weights(graph, 3), d, steps=2, seed=3, batch_size=3)[0]
                   for d in (dataset, eager)]
        assert save_weights(trained[0], graph) == save_weights(trained[1], graph)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts the open descriptors in /proc/self/fd")
def test_train_opens_each_file_only_for_its_read(tmp_path):
    make_scene(tmp_path / "data" / "scene1", seed=8, hw=128, w=192)  # triples 0-2 in rows 0-63, 3-5 below
    make_scene(tmp_path / "data" / "scene2", seed=9)  # triple 6
    readers = []

    class Opening(tensor_core.PpmReader):
        def __init__(self, path):
            super().__init__(path)
            readers.append(self)

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    with mock.patch.object(tensor_core, "PpmReader", Opening):
        dataset = cli._load_training_triples(tmp_path / "data")
        assert open_fds() == before
        for i, scene in [(0, "scene1"), (2, None), (3, "scene1"), (6, "scene2"), (1, "scene1"), (0, None)]:
            loaded = len(readers)
            dataset[i]
            assert open_fds() == before
            # a triple of another band opens its scene's chosen pair and label, once each
            read = sorted(str(reader.path) for reader in readers[loaded:])
            assert read == ([str(tmp_path / "data" / scene / f) for f in ("a.ppm", "c.ppm", "label.ppm")]
                            if scene else [])
    assert all(reader._file.closed for reader in readers)


def test_train_scene_without_label_is_skipped(tmp_path, capsys):
    scene = tmp_path / "data" / "scene1"
    scene.mkdir(parents=True)
    write_ppm(scene / "a.ppm", gray(10))
    write_ppm(scene / "b.ppm", gray(240))
    code = cli.main(["train", str(tmp_path / "data"), str(tmp_path / "w.lfw"), "--steps", "1"])
    assert code == 3  # no usable triples
    assert "label.ppm" in capsys.readouterr().err


def truncate(path):
    path.write_bytes(path.read_bytes()[:-10])


def replace_with_directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize(
    "fault, reason",
    [(truncate, "not a valid PPM ("), (replace_with_directory, "not readable (Is a directory)")],
    ids=["truncated", "directory"],
)
def test_train_scene_with_malformed_label_is_skipped(fault, reason, tmp_path, capsys):
    make_scene(tmp_path / "data" / "scene1", seed=21)
    make_scene(tmp_path / "data" / "scene2", seed=22)
    bad = tmp_path / "data" / "scene1" / "label.ppm"
    fault(bad)
    code = cli.main(["train", str(tmp_path / "data"), str(tmp_path / "w.lfw"), "--steps", "1"])
    out, err = capsys.readouterr()
    assert code == 0
    assert " triples=1 " in out
    assert f"warning: {bad}: {reason}" in err
    assert err.rstrip().endswith("), skipped")


def rewrite_larger(path):
    write_ppm(path, rand_img(65, 64, 0))


def replace_with_a_copy(path):
    copy = path.with_name("copy.tmp")
    copy.write_bytes(path.read_bytes())
    os.replace(copy, path)


@pytest.mark.parametrize("name, fault", [
    ("label.ppm", rewrite_larger),
    ("label.ppm", replace_with_a_copy),
    ("label.ppm", truncate),
    ("a.ppm", replace_with_a_copy),
], ids=["label_rewritten", "label_replaced", "label_truncated", "under_replaced"])
def test_train_fails_on_a_file_changed_since_load(name, fault, tmp_path, capsys):
    make_scene(tmp_path / "data" / "scene1", seed=25)
    changed = tmp_path / "data" / "scene1" / name
    out = tmp_path / "w.lfw"
    train_toy = training.train_toy

    def changing_first(*args, **kwargs):
        fault(changed)
        return train_toy(*args, **kwargs)

    with mock.patch.object(training, "train_toy", changing_first):
        code = cli.main(["train", str(tmp_path / "data"), str(out), "--steps", "1"])
    assert code == 2
    assert capsys.readouterr().err == f"i/o error: {changed}: changed since train loaded it\n"
    assert not out.exists() and not (tmp_path / "w.lfw.csv").exists()


def test_train_skips_a_directory_named_exposure(tmp_path, capsys):
    make_scene(tmp_path / "data" / "scene1", seed=23)
    bad = tmp_path / "data" / "scene1" / "c.ppm"
    replace_with_directory(bad)
    code = cli.main(["train", str(tmp_path / "data"), str(tmp_path / "w.lfw"), "--steps", "1"])
    out, err = capsys.readouterr()
    assert code == 0
    assert " triples=1 " in out
    assert err == f"warning: {bad}: not readable (Is a directory), skipped\n"


def test_train_takes_an_upper_case_ppm_suffix(tmp_path):
    # pair's rule: a .ppm suffix in any case; a.PPM is the darkest exposure.
    # The label is excluded in any case too: a black LABEL.PPM, which would
    # be the darkest exposure, is never read as one.
    make_scene(tmp_path / "lower" / "scene1", seed=24)
    make_scene(tmp_path / "upper" / "scene1", seed=24)
    scene = tmp_path / "upper" / "scene1"
    (scene / "a.ppm").rename(scene / "a.PPM")
    write_ppm(scene / "LABEL.PPM", np.zeros((64, 64, 3), dtype=np.uint8))
    outputs = []
    for data in ("lower", "upper"):
        out = tmp_path / f"{data}.lfw"
        assert cli.main(["train", str(tmp_path / data), str(out), "--steps", "2", "--seed", "3"]) == 0
        outputs.append((out.read_bytes(), (tmp_path / f"{data}.lfw.csv").read_bytes()))
    assert outputs[0] == outputs[1]


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


needs_mkfifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")


@needs_mkfifo
@pytest.mark.parametrize("which", ["eval_a", "eval_b", "fuse_over", "fuse_under"])
def test_fifo_input_fails_without_blocking(which, tmp_path, weights_file, fifo_call, capsys):
    good = tmp_path / "good.ppm"
    write_ppm(good, rand_img(16, 16, 24))
    fifo = tmp_path / "pipe.ppm"
    os.mkfifo(fifo)
    argv = MALFORMED_ARGS[which](str(fifo), str(good), str(weights_file), str(tmp_path))
    assert fifo_call(fifo, lambda: cli.main(argv)) == 3
    assert capsys.readouterr().err == f"error: {fifo}: file: not a regular file\n"
    assert not (tmp_path / "x.ppm").exists()


@needs_mkfifo
def test_train_skips_a_fifo_exposure(tmp_path, fifo_call, capsys):
    make_scene(tmp_path / "data" / "scene1", seed=24)
    fifo = tmp_path / "data" / "scene1" / "c.ppm"
    fifo.unlink()
    os.mkfifo(fifo)
    argv = ["train", str(tmp_path / "data"), str(tmp_path / "w.lfw"), "--steps", "0"]
    assert fifo_call(fifo, lambda: cli.main(argv)) == 0
    out, err = capsys.readouterr()
    assert out == "steps=0 triples=1\n"
    assert err == f"warning: {fifo}: not a valid PPM (file: not a regular file), skipped\n"


@needs_mkfifo
def test_fifo_weights_fail_without_blocking(tmp_path, fifo_call, capsys):
    good = tmp_path / "good.ppm"
    write_ppm(good, rand_img(16, 16, 26))
    fifo = tmp_path / "pipe.lfw"
    os.mkfifo(fifo)
    argv = MALFORMED_ARGS["weights"](str(fifo), str(good), "", str(tmp_path))
    assert fifo_call(fifo, lambda: cli.main(argv)) == 3
    assert capsys.readouterr().err == f"error: {fifo}: file: not a regular file\n"
    assert not (tmp_path / "x.ppm").exists()


@needs_mkfifo
@pytest.mark.parametrize("which", ["weights", "curve", "curve_in_missing_directory"])
def test_train_fifo_output_fails_without_blocking(which, tmp_path, fifo_call, capsys):
    # a FIFO output is refused before it is opened, and either bad output
    # fails the call before the other is written: exit 2
    make_scene(tmp_path / "data" / "scene1", seed=26)
    out, curve = tmp_path / "w.lfw", tmp_path / "curve.csv"
    if which == "curve_in_missing_directory":
        curve = tmp_path / "missing" / "curve.csv"
    else:
        os.mkfifo(out if which == "weights" else curve)
    listing = sorted(os.listdir(tmp_path))
    argv = ["train", str(tmp_path / "data"), str(out), "--steps", "0", "--curve", str(curve)]
    assert fifo_call(out if which == "weights" else curve, lambda: cli.main(argv)) == 2
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert sorted(os.listdir(tmp_path)) == listing  # no output file is left


@pytest.mark.parametrize("curve", ["same_path", "symlink", "default_path_symlink"])
def test_train_refuses_a_curve_that_names_the_weights_output(curve, tmp_path, capsys):
    # both outputs would be renamed onto one file, keeping only the weights:
    # a usage error (exit 1) before any output is created
    make_scene(tmp_path / "data" / "scene1", seed=29)
    out = tmp_path / "w.lfw"
    argv = ["train", str(tmp_path / "data"), str(out), "--steps", "1"]
    if curve == "same_path":
        argv += ["--curve", str(out)]
    else:
        link = tmp_path / ("link.csv" if curve == "symlink" else "w.lfw.csv")
        link.symlink_to("w.lfw")  # dangling: the weights do not exist yet
        argv += ["--curve", str(link)] if curve == "symlink" else []
    listing = sorted(os.listdir(tmp_path))
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "--curve" in err
    assert sorted(os.listdir(tmp_path)) == listing


@pytest.mark.parametrize("command", ["analyze", "bench", "eval", "fuse", "pair", "train"])
def test_every_command_keeps_its_freed_heap(command, tmp_path, weights_file):
    # fuse and eval refault their stripe buffers without it, as train does
    # its activations
    for name, seed in (("a", 27), ("b", 28)):
        write_ppm(tmp_path / f"{name}.ppm", rand_img(16, 16, seed))
    make_scene(tmp_path / "data" / "scene1", seed=27)
    argv = {
        "analyze": ["analyze", "lightfuse"],
        "bench": ["bench", "16x16"],
        "eval": ["eval", str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")],
        "fuse": ["fuse", str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm"), str(tmp_path / "x.ppm"),
                 "--weights", str(weights_file)],
        "pair": ["pair", str(tmp_path / "data" / "scene1")],
        "train": ["train", str(tmp_path / "data"), str(tmp_path / "t.lfw"), "--steps", "0"],
    }[command]
    with mock.patch.object(cli, "_keep_freed_heap") as keep, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    keep.assert_called_once_with()


@pytest.mark.parametrize("fault", ["symlink_loop", "long_name"])
@pytest.mark.parametrize("command", ["eval", "fuse", "train"])
def test_any_os_error_is_io_error(command, fault, tmp_path, weights_file, capsys):
    good = tmp_path / "good.ppm"
    write_ppm(good, rand_img(16, 16, 25))
    if fault == "symlink_loop":
        bad = tmp_path / "loop.ppm"
        bad.symlink_to(bad.name)  # ELOOP
    else:
        bad = tmp_path / ("x" * 300 + ".ppm")  # ENAMETOOLONG
    make_scene(tmp_path / "data" / "scene1", seed=25)
    argv = {
        "eval": ["eval", str(bad), str(good)],
        "fuse": ["fuse", str(bad), str(good), str(tmp_path / "x.ppm"), "--weights", str(weights_file)],
        "train": ["train", str(tmp_path / "data"), str(bad), "--steps", "0"],
    }[command]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("i/o error: ")


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
    listing = sorted(tmp_path.iterdir())
    # 8-row stripes: rows 60..63 fall in the last of eight
    with mock.patch.object(fusion, "FUSE_STRIPE_PIXELS", 8 * 16), \
            mock.patch.object(fusion, "run_detailnet_fused", wraps=fusion.run_detailnet_fused) as detail:
        code = cli.main([
            "fuse", str(tmp_path / "u.ppm"), str(tmp_path / "o.ppm"), str(tmp_path / "x.ppm"),
            "--weights", str(weights), "--tile-size", "8",
        ])
    assert code == 3
    assert detail.call_count == 8
    assert "non-finite" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == listing  # neither x.ppm nor a temporary file


def test_fuse_may_overwrite_its_input(tmp_path, weights_file):
    write_ppm(tmp_path / "u.ppm", rand_img(40, 24, 13))
    write_ppm(tmp_path / "o.ppm", rand_img(40, 24, 14))
    argv = ["--weights", str(weights_file), "--tile-size", "8"]
    inputs = [str(tmp_path / "u.ppm"), str(tmp_path / "o.ppm")]
    with mock.patch.object(fusion, "FUSE_STRIPE_PIXELS", 8 * 24):  # five stripes
        assert cli.main(["fuse", *inputs, str(tmp_path / "fresh.ppm"), *argv]) == 0
        assert cli.main(["fuse", *inputs, inputs[0], *argv]) == 0
    assert (tmp_path / "u.ppm").read_bytes() == (tmp_path / "fresh.ppm").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.ppm", "o.ppm", "u.ppm", "w.lfw"]


def fuse_to(out, tmp_path, weights_file):
    """cli.main's exit code for fusing a fixed 16x16 pair into `out`, and the fused bytes it should write."""
    write_ppm(tmp_path / "u.ppm", rand_img(16, 16, 15))
    write_ppm(tmp_path / "o.ppm", rand_img(16, 16, 16))
    argv = ["fuse", str(tmp_path / "u.ppm"), str(tmp_path / "o.ppm")]
    assert cli.main([*argv, str(tmp_path / "want.ppm"), "--weights", str(weights_file)]) == 0
    want = (tmp_path / "want.ppm").read_bytes()
    (tmp_path / "want.ppm").unlink()
    return cli.main([*argv, str(out), "--weights", str(weights_file)]), want


def test_fuse_writes_through_a_symlinked_output(tmp_path, weights_file):
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "img.ppm"
    target.write_bytes(b"old")
    os.chmod(target, 0o640)
    link = tmp_path / "link.ppm"
    link.symlink_to(Path("real") / "img.ppm")
    code, want = fuse_to(link, tmp_path, weights_file)
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == str(Path("real") / "img.ppm")
    assert target.read_bytes() == want
    assert target.stat().st_mode & 0o7777 == 0o640  # the existing file's mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.ppm", "o.ppm", "real", "u.ppm", "w.lfw"]
    assert os.listdir(tmp_path / "real") == ["img.ppm"]


@pytest.mark.parametrize("mode, kept", [(0o604, 0o604), (0o2755, 0o755), (0o4700, 0o700), (0o1666, 0o666)])
def test_fuse_keeps_an_existing_outputs_permission_bits(mode, kept, tmp_path, weights_file):
    out = tmp_path / "x.ppm"
    out.write_bytes(b"old")
    os.chmod(out, mode)
    if out.stat().st_mode & 0o7777 != mode:
        pytest.skip(f"this file system does not keep mode {mode:o}")
    code, want = fuse_to(out, tmp_path, weights_file)
    assert code == 0 and out.read_bytes() == want
    assert out.stat().st_mode & 0o7777 == kept  # no setuid, setgid or sticky bit on the new content


@needs_mkfifo
@pytest.mark.parametrize("kind", ["fifo", "directory", "symlink_to_fifo"])
def test_fuse_refuses_an_output_that_is_not_a_regular_file(kind, tmp_path, weights_file, capsys):
    out = tmp_path / "x.ppm"
    if kind == "directory":
        out.mkdir()
    elif kind == "fifo":
        os.mkfifo(out)
    else:
        os.mkfifo(tmp_path / "pipe")
        out.symlink_to("pipe")
    before = sorted(os.listdir(tmp_path))
    code, _ = fuse_to(out, tmp_path, weights_file)
    assert code == 2
    assert capsys.readouterr().err == f"i/o error: {out}: not a regular file\n"
    assert sorted(os.listdir(tmp_path)) == sorted(before + ["u.ppm", "o.ppm"])
    assert out.is_dir() if kind == "directory" else stat.S_ISFIFO(os.stat(out).st_mode)
    assert out.is_symlink() == (kind == "symlink_to_fifo")


def traced_peak(argv):
    """Peak bytes that one cli.main(argv) call allocates beyond what it started with."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_fuse_and_eval_memory_stays_flat_as_images_grow(tmp_path, weights_file):
    # 64-row stripes at W=64 on one thread: 4 stripes at H=256, 32 at H=2048
    w, stripe_rows = 64, 64
    peaks = {}
    for h in (256, 2048):
        names = [str(tmp_path / f"{name}{h}.ppm") for name in ("u", "o", "label", "fused")]
        for path, seed in zip(names, (1, 2, 3)):
            write_ppm(Path(path), rand_img(h, w, seed))
        with mock.patch.object(fusion, "FUSE_STRIPE_PIXELS", stripe_rows * w), \
                mock.patch.object(tensor_core, "CPU_THREADS", 1):
            fuse = traced_peak(
                ["fuse", *names[:2], names[3], "--weights", str(weights_file), "--tile-size", "8"]
            )
        # eval on every CPU: which thread holds which stripe's buffers at the
        # peak can move one call's traced peak, so each height counts the
        # median of three calls; the growth between the heights read
        # 2,962-4,598 B in six runs beside a busy numpy loop
        peaks[h] = fuse, statistics.median(traced_peak(["eval", names[3], names[2]]) for _ in range(3))
    fuse_growth, eval_growth = (b - a for a, b in zip(peaks[256], peaks[2048]))
    stripe_input = stripe_rows * w * 6 * 4  # a stripe's float32 (under, over) rows
    assert fuse_growth < stripe_input
    # eval keeps no SSIM map (774 KB between the heights) and grows by less
    # than one stripe's input too; the exact figure varies by a few KB from
    # call to call (argparse, caches), which metrics-level tests avoid
    assert eval_growth < stripe_input


def test_train_memory_stays_flat_as_scenes_grow(tmp_path):
    # one scene of 2 x 2 triples at H=128, 16 x 2 at H=1024; a step reads at most 20
    w = 128
    peaks = {}
    for h in (128, 1024):
        make_scene(tmp_path / f"scene{h}", seed=7, hw=h, w=w)
        peaks[h] = traced_peak(["train", str(tmp_path / f"scene{h}"), str(tmp_path / f"w{h}.lfw"), "--steps", "1"])
    band_set = 3 * cli.TRAIN_PATCH * w * 3  # one uint8 band of patch rows per file
    assert peaks[1024] - peaks[128] < band_set


FUSE_TESTS = (
    test_fuse_multiple_of_eight_no_padding,
    test_fuse_pads_and_crops_odd_sizes,
    test_fuse_dim_mismatch_is_validation_error,
    test_fuse_missing_file_is_io_error,
    test_fuse_corrupt_weights_is_validation_error,
    test_fuse_non_finite_weights_fail_before_any_forward_pass,
    test_fuse_nan_in_the_last_stripe_fails_without_writing,
    test_fuse_may_overwrite_its_input,
)


@pytest.mark.parametrize(
    "test",
    [pytest.param(test, marks=getattr(test, "pytestmark", []), id=test.__name__) for test in FUSE_TESTS],
)
def test_fuse_tests_pass_on_two_threads(test, request):
    args = {name: request.getfixturevalue(name) for name in inspect.signature(test).parameters}
    with mock.patch.object(tensor_core, "CPU_THREADS", 2):
        test(**args)

