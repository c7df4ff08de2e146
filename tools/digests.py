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
gradient in graph_param_entries order, and the LossReport's repr. Run it on
two checkouts (or with --src on each) and diff the outputs to check that a
change leaves the program's outputs byte for byte the same. perfbench is
only read; the lightfuse package comes from --src (default: src/ beside
this script's directory).
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fuse_large", "fuse_burst", "train_toy", "library")
LIBRARY_SIZE = (56, 72)  # (H, W): multiples of 8, not square


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def call(cli, argv):
    """(exit code, stdout with newlines as ' | ') of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, " | ".join(out.getvalue().splitlines())


def array_sha256(a) -> str:
    """SHA-256 of an array's dtype, shape and values in C order, whatever its memory layout."""
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def library_lines(lf, seed):
    rng = np.random.default_rng(seed)
    under, over, label = (rng.uniform(-1, 1, LIBRARY_SIZE + (3,)).astype(np.float32) for _ in range(3))
    extractors = {
        "none": None,
        "identity": lf.training.IdentityExtractor(),
        "random_conv": lf.training.RandomConvExtractor(seed),
    }
    for graph in (lf.model.build_lightfuse(), lf.model.build_tcnn()):
        weights = lf.model.init_weights(graph, seed)
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


def digest_lines(lf, run, workload, seed):
    if workload == "library":
        yield from library_lines(lf, seed)
        return
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        plan, _ = run.prepare(lf, workload, seed, work)
        for i, task in enumerate(plan["tasks"]):
            for op in task:
                code, stdout = call(lf.cli, op["argv"])
                fields = [f"{workload} seed={seed} task={i} {op['kind']} rc={code}"]
                fields += [f"{key}={sha256(op[key]) if code == 0 else '-'}" for key in ("out", "curve") if key in op]
                yield " ".join(fields + [f"stdout={stdout}"])
        scenes = work / "scenes"
        for scene in sorted(scenes.iterdir()) if scenes.is_dir() else ():
            code, stdout = call(lf.cli, ["pair", str(scene)])
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
