"""Output digests of the lightfuse CLI on perfbench's seeded inputs.

Usage:
    python3 tools/digests.py [--src DIR] [--workload W ...] SEED [SEED ...]

For each seed and workload, writes perfbench's inputs (perfbench/run.py's
`prepare`) into a temporary directory and runs each of the workload's CLI
calls through `lightfuse.cli.main`, in process: `fuse` and `eval` on every
pair of fuse_large or fuse_burst, `train` on train_toy's scenes, and `pair`
on each of those scene directories. Every call prints one line with its
exit code, the SHA-256 of each file it wrote and its stdout. The `library`
workload calls the package instead, on inputs drawn from the seed: one
line for model.forward, and one for training.loss_and_grads on each graph
(lightfuse, tcnn) with each extractor (none, IdentityExtractor,
RandomConvExtractor(seed)), giving the SHA-256 of the output and of every
gradient in graph_param_entries order, and the LossReport's repr; then one
line with the full-precision repr of metrics.psnr and metrics.ssim on a
uint8 pair drawn from the seed (`score_pair`), whose last bits `eval`'s
three decimals hide; then one line per tile side S in SCORE_TILES (1, 8
and the padded pair's shorter side) with the SHA-256 of
fusion.fuse_images' output on that pair (lightfuse weights as above) and
its TrafficReport.dump(), so a diff shows whether the tile reaches the
output bytes. The `faults` workload runs one CLI call per FAULT_CASES
entry, each in a fresh directory of small intact inputs with one file
replaced by a fault, and prints its exit code, its last stderr line and
the directory listing after it (see `listing`). Run it on two checkouts
(or with --src on each) and diff the outputs to check that a change leaves
the program's outputs, or its fault behaviour, byte for byte the same.
perfbench is only read; the lightfuse package comes from --src (default:
src/ beside this script's directory).
"""

import argparse
import contextlib
import hashlib
import io
import os
import stat
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fuse_large", "fuse_burst", "train_toy", "library", "faults")
LIBRARY_SIZE = (56, 72)  # (H, W): multiples of 8, not square
SCORE_SIZE = (300, 1027)  # (H, W): SSIM's map spans many work units and both threads
SCORE_TILES = (1, 8, -(-min(SCORE_SIZE) // 8) * 8)  # the last: the shorter side padded to a multiple of 8
# (command, file, fault) of each faults case: input faults on an image of
# fuse and of eval, weight faults, then output faults on fuse's image and
# train's weights and curve
FAULT_CASES = (
    [(command, name, fault) for command, name in (("fuse", "under.ppm"), ("eval", "a.ppm"))
     for fault in ("intact", "missing", "directory", "truncated", "empty", "mismatched")]
    + [("fuse", "w.lfw", fault) for fault in ("junk", "fifo")]
    + [("train", "t.lfw", "intact")]
    + [(command, name, fault) for command, name in (("fuse", "out.ppm"), ("train", "t.lfw"), ("train", "t.csv"))
       for fault in ("symlink", "fifo", "directory", "read_only", "missing_directory")]
)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def call(cli, argv):
    """(exit code, stdout with newlines as ' | ', last stderr line) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, " | ".join(out.getvalue().splitlines()), (err.getvalue().splitlines() or [""])[-1]


def array_sha256(a) -> str:
    """SHA-256 of an array's dtype, shape and values in C order, whatever its memory layout."""
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def score_pair(seed):
    """A uint8 (H, W, 3) image of SCORE_SIZE and a noisy copy of it, drawn from the seed."""
    rng = np.random.default_rng([seed, 1])
    a = rng.integers(0, 256, SCORE_SIZE + (3,), dtype=np.uint8)
    noise = rng.integers(-24, 25, a.shape)
    return a, np.clip(a + noise, 0, 255).astype(np.uint8)


def library_lines(lf, seed):
    rng = np.random.default_rng(seed)
    under, over, label = (rng.uniform(-1, 1, LIBRARY_SIZE + (3,)).astype(np.float32) for _ in range(3))
    extractors = {
        "none": None,
        "identity": lf.training.IdentityExtractor(),
        "random_conv": lf.training.RandomConvExtractor(seed),
    }
    stores = {}
    for graph in (lf.model.build_lightfuse(), lf.model.build_tcnn()):
        stores[graph.name] = weights = lf.model.init_weights(graph, seed)
        for key in sorted(weights):
            if key.endswith(".bias"):  # non-zero biases, so every bias term shows
                weights[key] = rng.uniform(-0.5, 0.5, weights[key].shape).astype(np.float32)
        out = lf.model.forward(graph, weights, under, over)
        yield f"library seed={seed} {graph.name} forward out={array_sha256(out)}"
        for name, extractor in extractors.items():
            out, report, grads = lf.training.loss_and_grads(graph, weights, under, over, label, extractor)
            fields = [f"out={array_sha256(out)}"]
            fields += [f"{key}={array_sha256(grads[key])}" for key, _, _ in lf.model.graph_param_entries(graph)]
            yield f"library seed={seed} {graph.name} loss_and_grads extractor={name} {' '.join(fields)} report={report!r}"
    a, b = score_pair(seed)
    yield f"library seed={seed} scores psnr={lf.metrics.psnr(a, b)!r} ssim={lf.metrics.ssim(a, b)!r}"
    for tile in SCORE_TILES:
        out, traffic = lf.fusion.fuse_images(stores["lightfuse"], a, b, tile)
        yield f"library seed={seed} fuse_images tile={tile} out={array_sha256(out)} {traffic.dump()}"


def listing(root) -> str:
    """root's entries, sorted: dir/, symlink->target, fifo| and file:mode:size."""
    entries = []
    for path in sorted(Path(root).iterdir()):
        mode = path.lstat().st_mode
        if stat.S_ISLNK(mode):
            entries.append(f"{path.name}->{os.readlink(path)}")
        elif stat.S_ISDIR(mode):
            entries.append(f"{path.name}/")
        elif stat.S_ISFIFO(mode):
            entries.append(f"{path.name}|")
        else:
            entries.append(f"{path.name}:{stat.S_IMODE(mode):o}:{path.stat().st_size}")
    return " ".join(entries)


def put_fault(lf, rng, path, fault) -> Path:
    """Replace the file at path with `fault`; returns the path to give the CLI."""
    if fault in ("missing", "directory", "fifo", "symlink"):
        path.unlink(missing_ok=True)
    if fault == "directory":
        path.mkdir()
    elif fault == "fifo":
        os.mkfifo(path)
    elif fault == "symlink":
        path.with_name(path.name + ".target").write_bytes(b"old")
        path.symlink_to(path.name + ".target")
    elif fault == "read_only":
        path.write_bytes(b"old")
        path.chmod(0o444)
    elif fault == "missing_directory":
        return path.parent / "missing" / path.name
    elif fault in ("truncated", "empty", "junk"):
        blob = path.read_bytes()
        path.write_bytes({"truncated": blob[:-10], "empty": b"", "junk": rng.bytes(64)}[fault])
    elif fault == "mismatched":
        path.write_bytes(lf.tensor_core.encode_ppm(rng.integers(0, 256, (16, 24, 3), np.uint8)))
    return path


def fault_lines(lf, seed):
    rng = np.random.default_rng(seed)
    graph = lf.model.build_lightfuse()
    lfw = lf.model.save_weights(lf.model.init_weights(graph, seed), graph)
    for command, name, fault in FAULT_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "data" / "s").mkdir(parents=True)
            for image in ("under", "over", "a", "b", "data/s/label", "data/s/x", "data/s/y"):
                size = (64, 64) if image.startswith("data/") else (16, 16)  # train needs a 64x64 patch
                img = rng.integers(0, 256, size + (3,), np.uint8)
                (root / f"{image}.ppm").write_bytes(lf.tensor_core.encode_ppm(img))
            (root / "w.lfw").write_bytes(lfw)
            names = ("under.ppm", "over.ppm", "a.ppm", "b.ppm", "w.lfw", "out.ppm", "t.lfw", "t.csv")
            path = {each: root / each for each in names}
            path[name] = put_fault(lf, rng, path[name], fault)
            argv = {
                "fuse": ["fuse", path["under.ppm"], path["over.ppm"], path["out.ppm"], "--weights", path["w.lfw"]],
                "eval": ["eval", path["a.ppm"], path["b.ppm"]],
                "train": ["train", root / "data", path["t.lfw"], "--steps", "1", "--curve", path["t.csv"]],
            }[command]
            code, _, err = call(lf.cli, [str(arg) for arg in argv])
            err = err.replace(tmp, "<dir>")
            yield f"faults seed={seed} {command} {name}={fault} rc={code} stderr={err} ls={listing(root)}"


def digest_lines(lf, run, workload, seed):
    if workload == "library":
        yield from library_lines(lf, seed)
        return
    if workload == "faults":
        yield from fault_lines(lf, seed)
        return
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        plan, _ = run.prepare(lf, workload, seed, work)
        for i, task in enumerate(plan["tasks"]):
            for op in task:
                code, stdout, _ = call(lf.cli, op["argv"])
                fields = [f"{workload} seed={seed} task={i} {op['kind']} rc={code}"]
                fields += [f"{key}={sha256(op[key]) if code == 0 else '-'}" for key in ("out", "curve") if key in op]
                yield " ".join(fields + [f"stdout={stdout}"])
        scenes = work / "scenes"
        for scene in sorted(scenes.iterdir()) if scenes.is_dir() else ():
            code, stdout, _ = call(lf.cli, ["pair", str(scene)])
            yield f"{workload} seed={seed} {scene.name} pair rc={code} stdout={stdout}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the lightfuse package")
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="workload to run (repeatable; default fuse_large and train_toy)",
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    import lightfuse
    import lightfuse.cli
    import run  # perfbench/run.py

    for workload in args.workload or ("fuse_large", "train_toy"):
        for seed in args.seeds:
            for line in digest_lines(lightfuse, run, workload, seed):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
