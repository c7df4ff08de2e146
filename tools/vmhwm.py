"""Peak RSS (VmHWM) and traced peak of one `lightfuse fuse`, `eval` and `train` call, each in fresh processes.

Usage:
    python3 tools/vmhwm.py [--src DIR] [--tile-size S] SIZE [SIZE ...]

SIZE is HxW, or N for N x N. For each size the script writes a scene
directory of an exposure pair and a label image (uint8 noise drawn from
seed 1), and lightfuse weights (model.init_weights(graph, 1)), into a
temporary directory. It then runs `fuse under over fused --weights w
--tile-size S` (default 32), `eval fused label` and `train scene t.lfw
--steps 1` (which steps on a batch of at most 20 of the scene's 64x64
patches, read from its files one band of 64 full-width rows at a time),
each through `lightfuse.cli.main` in a new Python process with one BLAS
thread, and prints one line per call:

    fuse 256x256 rc=0 vmhwm_mb=34.77 traced_mb=5.17

vmhwm_mb is the process's VmHWM from /proc/self/status (Linux) in units of
1024 kB, read after the call returns. It includes the interpreter, numpy and
lightfuse.cli imports. traced_mb is the call's own working set: the peak of
the memory Python and numpy allocate during the call (tracemalloc, started
after the imports), in units of 2^20 bytes. It comes from a second fresh
process running the same call, so that tracing adds nothing to vmhwm_mb.
The lightfuse package comes from --src (default: src/ beside this script's
directory).
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# argv: src dir, then the CLI's arguments; VMHWM_CHILD prints "<rc> <VmHWM in kB>",
# TRACED_CHILD "<rc> <traced peak in bytes>"
_IMPORTS = "import sys, numpy; sys.path.insert(0, sys.argv[1]); import lightfuse.cli; "
VMHWM_CHILD = _IMPORTS + (
    "rc = lightfuse.cli.main(sys.argv[2:]); "
    "hwm = next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')); "
    "print(rc, hwm)"
)
TRACED_CHILD = _IMPORTS + (
    "import tracemalloc; tracemalloc.start(); "
    "rc = lightfuse.cli.main(sys.argv[2:]); "
    "print(rc, tracemalloc.get_traced_memory()[1])"
)


def parse_size(text: str) -> tuple:
    h, _, w = text.lower().partition("x")
    return int(h), int(w or h)


def run_child(child, src, argv) -> tuple:
    """(exit code, measured value) that `child` prints for one lightfuse.cli.main(argv) call in a fresh process."""
    env = dict(os.environ, **{name: "1" for name in BLAS_THREADS})
    done = subprocess.run(
        [sys.executable, "-c", child, str(src), *argv], env=env, capture_output=True, text=True, check=True
    )
    rc, value = done.stdout.splitlines()[-1].split()
    return int(rc), int(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sizes", nargs="+", type=parse_size, help="HxW, or N for N x N")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the lightfuse package")
    parser.add_argument("--tile-size", default="32")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from lightfuse import model, tensor_core

    graph = model.build_lightfuse()
    for h, w in args.sizes:
        rng = np.random.default_rng(SEED)
        with tempfile.TemporaryDirectory() as tmp:
            scene = Path(tmp) / "scene"
            scene.mkdir()
            path = {name: str(scene / name) for name in ("under.ppm", "over.ppm", "label.ppm")}
            path.update((name, str(Path(tmp) / name)) for name in ("fused.ppm", "w.lfw", "t.lfw"))
            for name in ("under.ppm", "over.ppm", "label.ppm"):
                Path(path[name]).write_bytes(tensor_core.encode_ppm(rng.integers(0, 256, (h, w, 3), dtype=np.uint8)))
            Path(path["w.lfw"]).write_bytes(model.save_weights(model.init_weights(graph, SEED), graph))
            calls = {
                "fuse": ["fuse", path["under.ppm"], path["over.ppm"], path["fused.ppm"],
                         "--weights", path["w.lfw"], "--tile-size", args.tile_size],
                "eval": ["eval", path["fused.ppm"], path["label.ppm"]],
                "train": ["train", str(scene), path["t.lfw"], "--steps", "1"],
            }
            for command, call in calls.items():
                rc, kb = run_child(VMHWM_CHILD, args.src, call)
                traced_rc, traced = run_child(TRACED_CHILD, args.src, call)
                if traced_rc != rc:
                    raise RuntimeError(f"{command} {h}x{w}: exit code {rc}, then {traced_rc} traced")
                print(f"{command} {h}x{w} rc={rc} vmhwm_mb={kb / 1024:.2f} traced_mb={traced / 2**20:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
