"""Closed-loop runner of the lightfuse CLI, in a fresh process.

Usage: python worker.py PLAN.json RESULT.json

One client makes one CLI call at a time through `lightfuse.cli.main`,
in-process, each after the previous one has returned. Only the call itself
is timed; reading back its outputs for the correctness check happens after
the clock stops. With tracing on, each task runs twice back to back,
untraced and traced, so the tracing overhead is measured on identical
work; a layer-by-layer replay follows.
"""

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from tracer import Tracer

NN_KERNELS = (
    "depthwise_forward", "pointwise_forward", "upsample_nn", "relu", "tanh", "add",
    "depthwise_backward", "pointwise_backward", "upsample_backward",
    "relu_backward", "tanh_backward", "add_backward",
)
LAYER_GROUPS = ("g1", "g2", "g3", "up1", "up2", "up3", "d1", "d2", "d3", "merge")
REPLAY_MIN_SECONDS = 2.0
REPLAY_MAX_PASSES = 5


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_op(cli, op) -> dict:
    """One timed CLI call, then (untimed) the evidence the checker needs."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(op["argv"])
    dt = time.perf_counter() - t0
    rec = {"kind": op["kind"], "rc": rc, "s": dt, "stdout": buf.getvalue()}
    if rc == 0 and "out" in op:
        rec["digest"] = _sha256(op["out"])
    if rc == 0 and "curve" in op:
        rec["curve"] = Path(op["curve"]).read_text()
    return rec


def closed_loop(lf, tasks, seconds, tracer=None) -> list:
    """Run tasks in order, cycling, until `seconds` have passed.

    With a tracer, each task runs twice back to back, untraced and traced,
    in alternating order, so the overhead ratio compares identical work.
    """
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        if tracer is None:
            phases = ("timed",)
        else:
            phases = ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced")
        for phase in phases:
            if phase == "traced":
                tracer.op_id = i
                instrument(tracer, lf)
            try:
                for op in tasks[i % len(tasks)]:
                    rec = run_op(lf.cli, op)
                    rec.update(task=i, pair=i % len(tasks), phase=phase)
                    records.append(rec)
            finally:
                if phase == "traced":
                    tracer.restore()
        i += 1
        if time.perf_counter() >= deadline:
            return records


def _out_elems(key):
    def count(c, args, result):
        items = result if isinstance(result, tuple) else (result,)
        c[key] = c.get(key, 0) + sum(a.size for a in items if hasattr(a, "size"))
    return count


def _add(key, fn):
    def count(c, args, result):
        c[key] = c.get(key, 0) + fn(args, result)
    return count


def _fused_traffic(c, args, result):
    x, traffic = args[0], result[1]
    c["fusion.pixels"] = c.get("fusion.pixels", 0) + x.shape[0] * x.shape[1]
    c["fusion.modeled_offchip_bytes"] = c.get("fusion.modeled_offchip_bytes", 0) + traffic.total_offchip_bytes
    c["fusion.modeled_peak_onchip_bytes"] = max(
        c.get("fusion.modeled_peak_onchip_bytes", 0), traffic.peak_onchip_bytes
    )


def instrument(tracer, lf) -> None:
    """Trace the public functions of the lightfuse modules, Adam.step and cli.main."""
    counts = {
        "nn_ops": {k: _out_elems(f"nn_ops.{k}.out_elems") for k in NN_KERNELS},
        "fusion": {
            "tile_grid": _add("fusion.tiles", lambda a, r: len(r)),
            "run_detailnet_fused": _fused_traffic,
        },
        "tensor_core": {
            "decode_ppm": _add("tensor_core.ppm_bytes", lambda a, r: len(a[0])),
            "encode_ppm": _add("tensor_core.ppm_bytes", lambda a, r: len(r)),
        },
    }
    for name in ("tensor_core", "model", "fusion", "nn_ops", "metrics", "training"):
        tracer.patch_module(getattr(lf, name), counts.get(name))
    tracer.patch(lf.training.Adam, "step", "training.Adam.step")
    tracer.patch(lf.cli, "main", "cli.main")


def _padded_pair(lf, under_path, over_path):
    """Decode, normalize and edge-pad to a multiple of 8, as `fuse` does."""
    tc = lf.tensor_core
    u = tc.normalize(tc.decode_ppm(Path(under_path).read_bytes()))
    o = tc.normalize(tc.decode_ppm(Path(over_path).read_bytes()))
    pad = ((0, -u.shape[0] % 8), (0, -u.shape[1] % 8), (0, 0))
    return np.pad(u, pad, mode="edge"), np.pad(o, pad, mode="edge")


def _replay_pass(lf, graph, weights, x, memory):
    """Time (or trace allocations of) every graph layer, grouped by name.

    Activations count toward the layer they follow (g1_relu -> g1); the
    merge group is the add and tanh after the two branches.
    """
    stats = {g: {"s": 0.0, "computed_bytes": 0, "peak_alloc_bytes": 0} for g in LAYER_GROUPS}

    def step(group, fn, inputs, param_bytes=0):
        if memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        t0 = time.perf_counter()
        y = fn()
        dt = time.perf_counter() - t0
        st = stats[group]
        st["s"] += dt
        st["computed_bytes"] += sum(t.nbytes for t in inputs) + y.nbytes + param_bytes
        if memory:
            st["peak_alloc_bytes"] = max(st["peak_alloc_bytes"], tracemalloc.get_traced_memory()[1] - base)
        return y

    outs = []
    for _, layers in graph.branches:
        y = x
        for layer in layers:
            group = layer.name.split("_")[0]
            pbytes = 4 * sum(int(np.prod(shape)) for _, shape, _ in lf.model.param_entries(layer))
            y = step(group, lambda layer=layer, y=y: lf.model.run_layer(layer, weights, y), (y,), pbytes)
        outs.append(y)
    s = step("merge", lambda: lf.nn_ops.add(outs[0], outs[1]), outs)
    step("merge", lambda: lf.nn_ops.tanh(s), (s,))
    return stats


def replay_layers(lf, weights_path, under_path, over_path) -> dict:
    """Layer-by-layer replay through model.run_layer on one input pair.

    One pass under tracemalloc gives each layer's peak allocation; then
    untraced passes are repeated for REPLAY_MIN_SECONDS (at most
    REPLAY_MAX_PASSES) and the median time per layer is kept. FLOPs are
    the cost model's exact convention at this input size.
    """
    graph = lf.model.build_lightfuse()
    weights = lf.model.load_weights(Path(weights_path).read_bytes(), graph)
    u, o = _padded_pair(lf, under_path, over_path)
    x = np.concatenate((u, o), axis=2)
    del u, o
    tracemalloc.start()
    try:
        mem = _replay_pass(lf, graph, weights, x, memory=True)
    finally:
        tracemalloc.stop()
    passes = []
    t0 = time.perf_counter()
    while len(passes) < REPLAY_MAX_PASSES and (not passes or time.perf_counter() - t0 < REPLAY_MIN_SECONDS):
        passes.append(_replay_pass(lf, graph, weights, x, memory=False))
    pixels = x.shape[0] * x.shape[1]
    report = lf.cost_model.analyze(graph, lf.cost_model.CONVENTIONS["exact"])
    flops = {g: 0 for g in LAYER_GROUPS}
    for entry in report.entries:
        flops[entry.name.split(".")[0]] += entry.flops_per_pixel * pixels
    out = {}
    for g in LAYER_GROUPS:
        out[g] = {
            "s": statistics.median(p[g]["s"] for p in passes),
            "flops": int(flops[g]),
            "computed_bytes": mem[g]["computed_bytes"],
            "peak_alloc_bytes": mem[g]["peak_alloc_bytes"],
        }
    return {"pixels": pixels, "passes": len(passes), "groups": out}


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB.

    Linux's ru_maxrss also keeps the parent's high-water mark across fork
    and exec, so VmHWM, which belongs to this process's own memory map, is
    read where it exists.
    """
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return next(int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:"))


def main(plan_path, result_path) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    import lightfuse.cli
    import lightfuse as lf

    tasks = plan["tasks"]
    records = closed_loop(lf, tasks, 0)
    for rec in records:
        rec["phase"] = "warmup"
    result = {}
    if not plan["trace"]:
        records += closed_loop(lf, tasks, plan["seconds"])
        result["peak_rss_kb"] = peak_rss_kb()
    else:
        tracer = Tracer()
        records += closed_loop(lf, tasks, plan["seconds"], tracer)
        result["peak_rss_kb"] = peak_rss_kb()
        tracer.write(plan["spans"])
        result["spans"] = tracer.summary()
        result["counters"] = tracer.counters
        result["replay"] = replay_layers(lf, plan["weights"], *plan["replay"])
    result["records"] = records
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
