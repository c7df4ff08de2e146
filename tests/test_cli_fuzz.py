"""The CLI on file sets with faults: every call works or fails cleanly.

Each example draws a command (fuse, eval, train, pair) and its files, each
intact or with one fault: truncated, a byte flipped, empty, another image
size, a directory or a symlink loop in its place, or (weights only) a
non-finite tensor. cli.main must return 0, 1, 2 or 3 without an exception
escaping; a failed call must end stderr with a classified message, and a
failed fuse must leave its directory as it was. FIFO inputs are not drawn:
the tests in test_cli.py run them with a guard against a blocked call.

A second test draws faults on the outputs instead, with intact inputs:
fuse's image, train's weights and curve may each be absent, a symlink to a
file, a FIFO, a directory or a read-only file. Such a call exits 0 or 2. A
failed one leaves the directory listing and every symlink's target as they
were; a successful one leaves a symlink a symlink and a read-only file
read-only. A FIFO output is refused before it is opened, so it cannot
block.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightfuse import cli
from lightfuse.model import build_lightfuse, init_weights, save_weights
from lightfuse.tensor_core import encode_ppm

_GRAPH = build_lightfuse()
_STORE = init_weights(_GRAPH, 0)
_LFW = save_weights(_STORE, _GRAPH)
_NON_FINITE_LFW = save_weights({**_STORE, "d2.bias": np.full_like(_STORE["d2.bias"], np.nan)}, _GRAPH)

_SHARED_FAULTS = [
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
    st.sampled_from([("empty",), ("directory",), ("symlink_loop",)]),
]
# each file is intact half the time, so whole calls succeed too
PPM_FAULTS = st.one_of(st.just(("intact",)), st.one_of(*_SHARED_FAULTS, st.just(("resize",))))
WEIGHT_FAULTS = st.one_of(st.just(("intact",)), st.one_of(*_SHARED_FAULTS, st.just(("non_finite",))))

# command -> (directory of its images, image names, argv given the root)
COMMANDS = {
    "fuse": (".", ["under.ppm", "over.ppm"], lambda r: [
        "fuse", f"{r}/under.ppm", f"{r}/over.ppm", f"{r}/out.ppm", "--weights", f"{r}/w.lfw",
    ]),
    "eval": (".", ["a.ppm", "b.ppm"], lambda r: ["eval", f"{r}/a.ppm", f"{r}/b.ppm"]),
    "train": ("data/s", ["label.ppm", "a.ppm", "b.ppm", "c.ppm"], lambda r: [
        "train", f"{r}/data", f"{r}/trained.lfw", "--steps", "1",
    ]),
    "pair": ("scene", ["a.ppm", "b.ppm", "c.ppm"], lambda r: ["pair", f"{r}/scene"]),
}


def write_with_fault(path, blob, fault, other_size_blob=b""):
    kind = fault[0]
    if kind == "directory":
        path.mkdir()
        return
    if kind == "symlink_loop":
        path.symlink_to(path.name)
        return
    if kind == "empty":
        blob = b""
    elif kind == "truncate":
        blob = blob[: fault[1] % len(blob)]
    elif kind == "flip":
        data = bytearray(blob)
        data[fault[1] % len(data)] ^= fault[2]
        blob = bytes(data)
    elif kind == "resize":
        blob = other_size_blob
    elif kind == "non_finite":
        blob = _NON_FINITE_LFW
    path.write_bytes(blob)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    faults=st.lists(PPM_FAULTS, min_size=4, max_size=4),
    weights_fault=WEIGHT_FAULTS,
    shape=st.tuples(st.integers(1, 32), st.integers(1, 32)),
    seed=st.integers(0, 2**32 - 1),
)
@example(command="eval", faults=[("symlink_loop",)] + [("intact",)] * 3, weights_fault=("intact",),
         shape=(16, 16), seed=0)
@example(command="fuse", faults=[("intact",)] * 4, weights_fault=("symlink_loop",), shape=(16, 16), seed=0)
@settings(max_examples=100, deadline=2000)
def test_cli_works_or_fails_cleanly(command, faults, weights_fault, shape, seed):
    rng = np.random.default_rng(seed)
    h, w = shape
    image_dir, names, make_argv = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / image_dir).mkdir(parents=True, exist_ok=True)
        for name, fault in zip(names, faults):
            blob = encode_ppm(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))
            other = encode_ppm(rng.integers(0, 256, size=(h % 32 + 1, w, 3), dtype=np.uint8))
            write_with_fault(root / image_dir / name, blob, fault, other)
        if command == "fuse":
            write_with_fault(root / "w.lfw", _LFW, weights_fault)
        listing = sorted(os.listdir(root))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(make_argv(tmp))
        assert code in (0, 1, 2, 3)
        if code:
            assert err.getvalue().splitlines()[-1].startswith(("usage error:", "i/o error:", "error:"))
            if command == "fuse":
                assert sorted(os.listdir(root)) == listing
        elif command == "fuse":
            assert sorted(os.listdir(root)) == sorted(listing + ["out.ppm"])


OUTPUT_FAULTS = st.sampled_from(["absent", "symlink", "fifo", "directory", "read_only"])
OUTPUTS = {"fuse": ["out.ppm"], "train": ["trained.lfw", "curve.csv"]}


def place_output_fault(path, fault):
    if fault == "symlink":
        path.with_name(f"{path.name}.target").write_bytes(b"old")
        path.symlink_to(f"{path.name}.target")
    elif fault == "fifo":
        os.mkfifo(path)
    elif fault == "directory":
        path.mkdir()
    elif fault == "read_only":
        path.write_bytes(b"old")
        path.chmod(0o444)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@given(
    command=st.sampled_from(sorted(OUTPUTS)),
    faults=st.lists(OUTPUT_FAULTS, min_size=2, max_size=2),
    shape=st.tuples(st.integers(1, 32), st.integers(1, 32)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=2000)
def test_cli_output_faults_exit_0_or_2(command, faults, shape, seed):
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if command == "fuse":
            for name in ("under.ppm", "over.ppm"):
                (root / name).write_bytes(encode_ppm(rng.integers(0, 256, size=shape + (3,), dtype=np.uint8)))
            (root / "w.lfw").write_bytes(_LFW)
            argv = ["fuse", f"{tmp}/under.ppm", f"{tmp}/over.ppm", f"{tmp}/out.ppm", "--weights", f"{tmp}/w.lfw"]
        else:  # one scene of one 64x64 patch
            (root / "data" / "s").mkdir(parents=True)
            for name in ("label.ppm", "a.ppm", "b.ppm"):
                img = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
                (root / "data" / "s" / name).write_bytes(encode_ppm(img))
            argv = ["train", f"{tmp}/data", f"{tmp}/trained.lfw", "--steps", "0", "--curve", f"{tmp}/curve.csv"]
        placed = dict(zip(OUTPUTS[command], faults))
        for name, fault in placed.items():
            place_output_fault(root / name, fault)
        listing = sorted(os.listdir(root))
        targets = {path: path.read_bytes() for path in root.glob("*.target")}
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2)
        if code:
            assert err.getvalue().splitlines()[-1].startswith("i/o error: ")
            assert sorted(os.listdir(root)) == listing
            assert {path: path.read_bytes() for path in targets} == targets
        else:
            assert sorted(os.listdir(root)) == sorted(set(listing) | set(placed))
            for name, fault in placed.items():
                assert (root / name).is_symlink() == (fault == "symlink")
                if fault == "read_only":
                    assert (root / name).stat().st_mode & 0o777 == 0o444
