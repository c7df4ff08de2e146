"""lightfuse benchmark: fuse, eval and train end to end through the CLI.

Usage:
    python3 perfbench/run.py --workload {fuse_large,fuse_burst,train_toy}
        --seed N --seconds S --trace {0,1}

The harness generates PPM/LFW1 inputs from the seed, computes reference
outputs with the library, then starts a fresh worker process that drives
`lightfuse.cli.main` in a closed loop (one client, one call at a time) for
S seconds. Every output is checked afterwards. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
See METRICS.md for what each metric means and what should move it.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import scenes  # noqa: E402
from worker import LAYER_GROUPS, NN_KERNELS  # noqa: E402

WORKLOADS = ("fuse_large", "fuse_burst", "train_toy")
TILE = {"fuse_large": 32, "fuse_burst": 8}
TRAIN_STEPS = 5
TRAIN_BATCH = 20  # train_toy's default batch size, which the CLI uses
TRAIN_PATCH = 64
SETUP_REPEATS = 21
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150
EVAL_TOLERANCE = 0.0015  # eval prints 3 decimals
P90_MIN_SAMPLES = 100  # at least 10 samples beyond the 90th percentile

# Timed inside a fresh process from just before `import lightfuse` to weights
# loaded. numpy is imported first: interpreter and numpy start-up are not the
# program's, and on a shared host they swing by tens of percent. The probes
# themselves have two modes (about 22 ms and 33 ms on a 2-vCPU host), so
# setup_s is their lower quartile, which stays in the fast mode unless three
# quarters of the probes land in the slow one.
SETUP_CODE = (
    "import sys, time, numpy; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "from lightfuse import model; "
    "model.load_weights(open(sys.argv[2], 'rb').read(), model.build_lightfuse()); "
    "print(repr(time.perf_counter() - t0))"
)

# (name, unit, kind); kind says how the figure is obtained.
END_TO_END = (
    ("setup_s", "s", "measured"),
    ("task_p25_s", "s", "measured"),
    ("mpix_per_s", "Mpx/s", "measured"),
    ("peak_rss_mb", "MB", "measured"),
)


def per_layer_catalogue():
    rows = []
    for k in NN_KERNELS:
        rows += [(f"nn_ops.{k}.calls", "count", "measured"),
                 (f"nn_ops.{k}.self_s", "s", "measured"),
                 (f"nn_ops.{k}.out_elems", "count", "measured")]
    for g in LAYER_GROUPS:
        rows += [(f"layer.{g}.s", "s", "measured"),
                 (f"layer.{g}.flops", "flop", "modeled"),
                 (f"layer.{g}.computed_bytes", "B", "computed"),
                 (f"layer.{g}.gflops_per_s", "GFLOP/s", "derived"),
                 (f"layer.{g}.peak_alloc_bytes", "B", "measured")]
    rows += [
        ("layer.detail_share", "ratio", "measured"),
        ("fusion.run_detailnet_fused.self_s", "s", "measured"),
        ("fusion.tiles", "count", "measured"),
        ("fusion.pixels_per_tile", "px", "measured"),
        ("fusion.modeled_offchip_bytes", "B", "modeled"),
        ("fusion.modeled_peak_onchip_bytes", "B", "modeled"),
        ("model.load_weights.self_s", "s", "measured"),
        ("model.run_branch.self_s", "s", "measured"),
        ("tensor_core.decode_ppm.self_s", "s", "measured"),
        ("tensor_core.encode_ppm.self_s", "s", "measured"),
        ("tensor_core.normalize.self_s", "s", "measured"),
        ("tensor_core.denormalize.self_s", "s", "measured"),
        ("tensor_core.ppm_bytes", "B", "measured"),
        ("metrics.ssim.self_s", "s", "measured"),
        ("metrics.psnr.self_s", "s", "measured"),
        ("training.loss_and_grads.calls", "count", "measured"),
        ("training.loss_and_grads.self_s", "s", "measured"),
        ("training.Adam.step.calls", "count", "measured"),
        ("training.Adam.step.self_s", "s", "measured"),
        ("trace.overhead_ratio", "ratio", "measured"),
        ("trace.tasks", "count", "measured"),
        ("trace.peak_rss_mb", "MB", "measured"),
    ]
    return tuple(rows)


PER_LAYER = per_layer_catalogue()


def ppm_digest(img) -> str:
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    return hashlib.sha256(header + np.ascontiguousarray(img).tobytes()).hexdigest()


def reference_fused(lf, graph, weights, under, over):
    """denormalize(model.forward(...)) with the CLI's edge padding and crop."""
    tc = lf.tensor_core
    h, w = under.shape[:2]
    pad = ((0, -h % 8), (0, -w % 8), (0, 0))
    u = np.pad(tc.normalize(under), pad, mode="edge")
    o = np.pad(tc.normalize(over), pad, mode="edge")
    return tc.denormalize(lf.model.forward(graph, weights, u, o)[:h, :w])


def prepare(lf, workload, seed, work, sizes=None):
    """Write the inputs and the plan; return (plan, what the checks need).

    Every pair's task records its input size, the class its timings are
    grouped by.
    """
    graph = lf.model.build_lightfuse()
    weights_path = work / "weights.lfw"
    weights_path.write_bytes(lf.model.save_weights(lf.model.init_weights(graph, seed), graph))
    plan = {"weights": str(weights_path), "tasks": [], "spans": str(work / "spans.csv")}
    expect = {"pixels": [], "size": []}
    if workload in TILE:
        sizes = sizes or (scenes.FUSE_LARGE_SIZES if workload == "fuse_large" else scenes.FUSE_BURST_SIZES)
        pairs = scenes.write_pairs(work / "pairs", seed, sizes)
        for d, _ in pairs:
            out = d / "fused.ppm"
            plan["tasks"].append([
                {"kind": "fuse", "out": str(out), "argv": [
                    "fuse", str(d / "under.ppm"), str(d / "over.ppm"), str(out),
                    "--weights", str(weights_path), "--tile-size", str(TILE[workload])]},
                {"kind": "eval", "argv": ["eval", str(out), str(d / "label.ppm")]},
            ])
        expect["pairs"] = [images for _, images in pairs]
        expect["pixels"] = [h * w for h, w in sizes]
        expect["size"] = list(sizes)
        first = pairs[0][0]
        plan["replay"] = [str(first / "under.ppm"), str(first / "over.ppm")]
    else:
        sizes = sizes or scenes.TRAIN_SCENE_SIZES
        data = scenes.write_scene_dirs(work, seed, sizes)
        triples = sum((h // TRAIN_PATCH) * (w // TRAIN_PATCH) for h, w in sizes)
        out = work / "trained.lfw"
        curve = work / "curve.csv"
        plan["tasks"].append([{"kind": "train", "out": str(out), "curve": str(curve), "argv": [
            "train", str(data), str(out), "--steps", str(TRAIN_STEPS), "--seed", str(seed),
            "--curve", str(curve)]}])
        expect["samples"] = TRAIN_STEPS * min(TRAIN_BATCH, triples)
        expect["pixels"] = [expect["samples"] * TRAIN_PATCH * TRAIN_PATCH]
        expect["size"] = [(TRAIN_PATCH, TRAIN_PATCH)]
        expect["trained"] = str(out)
        _, (under, over) = scenes.scene(seed, 0, TRAIN_PATCH, TRAIN_PATCH)
        plan["replay"] = [str(work / "replay_under.ppm"), str(work / "replay_over.ppm")]
        scenes.write_ppm(Path(plan["replay"][0]), under)
        scenes.write_ppm(Path(plan["replay"][1]), over)
    return plan, expect


def add_references(lf, expect, seed) -> None:
    """Reference digest and eval scores of every pair, from model.forward.

    Run after the timed worker has exited, so the reference path's memory
    peak is not in the machine while the program is being timed.
    """
    graph = lf.model.build_lightfuse()
    weights = lf.model.init_weights(graph, seed)
    expect["digest"], expect["eval"] = [], []
    for label, under, over in expect.pop("pairs", ()):
        ref = reference_fused(lf, graph, weights, under, over)
        expect["digest"].append(ppm_digest(ref))
        expect["eval"].append((lf.metrics.psnr(ref, label), lf.metrics.ssim(ref, label)))


def parse_scores(text):
    fields = dict(part.split("=", 1) for part in text.split())
    return float(fields["psnr"]), float(fields["ssim"])


def parse_curve(text):
    rows = text.strip().splitlines()[1:]
    return [float(row.split(",")[1]) for row in rows]


def check_op(rec, expect, first_train) -> str | None:
    """Why this op failed, or None when its output is correct."""
    if rec["rc"] != 0:
        return f"exit code {rec['rc']}"
    kind, pair = rec["kind"], rec["pair"]
    if kind == "fuse":
        if rec["digest"] != expect["digest"][pair]:
            return "fused bytes differ from denormalize(model.forward(...))"
    elif kind == "eval":
        try:
            got = parse_scores(rec["stdout"])
        except (ValueError, KeyError):
            return f"unparseable eval output {rec['stdout']!r}"
        want = expect["eval"][pair]
        for g, w in zip(got, want):
            if not (g == w or abs(g - w) <= EVAL_TOLERANCE):
                return f"eval scores {got} differ from {want}"
    elif kind == "train":
        losses = parse_curve(rec["curve"])
        if len(losses) != TRAIN_STEPS or not all(math.isfinite(v) for v in losses):
            return f"bad loss curve {losses}"
        if not losses[-1] < losses[0]:
            return f"loss did not drop: {losses}"
        if (rec["digest"], rec["curve"]) != first_train:
            return "train is not deterministic for a fixed seed"
    return None


def check(lf, records, expect) -> list:
    """Per-op failure reasons (None where the op passed)."""
    train = next((r for r in records if r["kind"] == "train" and r["rc"] == 0), None)
    first_train = (train["digest"], train["curve"]) if train else None
    failures = [check_op(r, expect, first_train) for r in records]
    if train is not None and failures[-1] is None:
        # Every train call wrote the same file; the last one is still on disk.
        try:
            store = lf.model.load_weights(Path(expect["trained"]).read_bytes(), lf.model.build_lightfuse())
        except lf.model.WeightFormatError as exc:
            failures[-1] = f"trained weights do not load: {exc}"
        else:
            if not all(np.isfinite(v).all() for v in store.values()):
                failures[-1] = "trained weights are not finite"
    return failures


def measure_setup(src, weights_path, env, repeats) -> list:
    """Set-up seconds of fresh processes importing lightfuse and loading weights."""
    return [
        float(subprocess.run([sys.executable, "-c", SETUP_CODE, str(src), str(weights_path)],
                             env=env, check=True, capture_output=True, text=True).stdout)
        for _ in range(repeats)
    ]


def worker_env() -> tuple:
    """Environment of the timed processes: one BLAS thread.

    The host shares its few CPUs with other tenants. A second BLAS thread
    makes each matrix product wait for whichever CPU is slowest at the
    moment, which measures the neighbours rather than the program.
    """
    threads = BLAS_THREADS
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, threads


def environment(seed, threads) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
        "blas_threads": threads, "nproc": os.cpu_count(), "seed": seed,
    }


def task_times(records, phase) -> list:
    """[(pair, seconds)] of every task run in `phase`, in run order."""
    per_task = {}
    for r in records:
        if r["phase"] == phase:
            pair, s = per_task.get(r["task"], (r["pair"], 0.0))
            per_task[r["task"]] = (pair, s + r["s"])
    return [per_task[k] for k in sorted(per_task)]


def by_size(samples, expect) -> dict:
    """Seconds grouped by input size.

    Odd sizes cost more per pixel than even ones (edge padding, narrow edge
    tiles), so one statistic over a cycling mix of sizes would jump between
    the size clusters as the number of completed tasks changes. Timings are
    therefore summarised per size first.
    """
    groups = {}
    for pair, seconds in samples:
        groups.setdefault(tuple(expect["size"][pair]), []).append(seconds)
    return groups


def lower_quartile(values) -> float:
    """25th percentile, within the range of the samples.

    On a shared host, op times have two modes: the program's own speed, and
    stretches of seconds where contention from outside the container makes
    every op about 1.7x slower. A median flips to the slow mode once such
    stretches cover half a run; the lower quartile only when they cover
    three quarters, so it tracks the program and not the neighbours.
    """
    return statistics.quantiles(values, n=4, method="inclusive")[0] if len(values) > 1 else values[0]


def end_to_end(records, expect, result, setup_s) -> tuple:
    """Gated metrics, plus informational figures that apply to one workload."""
    timed = [r for r in records if r["phase"] == "timed"]
    main_kind = "train" if "samples" in expect else "fuse"
    tasks = task_times(records, "timed")
    main = [r for r in timed if r["kind"] == main_kind]
    main_by_size = by_size([(r["pair"], r["s"]) for r in main], expect)
    pixels = {tuple(size): px for size, px in zip(expect["size"], expect["pixels"])}
    metrics = {
        "setup_s": setup_s,
        "task_p25_s": statistics.fmean(lower_quartile(v) for v in by_size(tasks, expect).values()),
        "mpix_per_s": sum(pixels[k] for k in main_by_size)
        / sum(lower_quartile(v) for v in main_by_size.values()) / 1e6,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    info = {"tasks": len(tasks)}
    if main_kind == "fuse":
        lat = [r["s"] for r in main]
        info["fuse_latency_p50_s"] = statistics.median(lat)
        if len(lat) >= P90_MIN_SAMPLES:
            info["fuse_latency_p90_s"] = statistics.quantiles(lat, n=10)[-1]
        evals = [r for r in timed if r["kind"] == "eval"]
        info["eval_mpix_per_s"] = sum(expect["pixels"][r["pair"]] for r in evals) / sum(r["s"] for r in evals) / 1e6
    else:
        info["train_samples_per_s"] = expect["samples"] * len(main) / sum(r["s"] for r in main)
        info["train_step_p50_s"] = statistics.median(r["s"] for r in main) / TRAIN_STEPS
        losses = parse_curve(main[0]["curve"])
        info["train_loss_drop"] = losses[0] / losses[-1]
    return metrics, info


def per_layer(records, result) -> dict:
    spans, counters, replay = result["spans"], result["counters"], result["replay"]
    traced = [s for _, s in task_times(records, "traced")]
    untraced = [s for _, s in task_times(records, "untraced")]
    n = len(traced)

    def span(name, field):
        calls, self_s, _ = spans.get(name, (0, 0.0, 0.0))
        return (calls if field == "calls" else self_s) / n

    m = {}
    for k in NN_KERNELS:
        m[f"nn_ops.{k}.calls"] = span(f"nn_ops.{k}", "calls")
        m[f"nn_ops.{k}.self_s"] = span(f"nn_ops.{k}", "self_s")
        m[f"nn_ops.{k}.out_elems"] = counters.get(f"nn_ops.{k}.out_elems", 0) / n
    total_s = 0.0
    for g in LAYER_GROUPS:
        st = replay["groups"][g]
        total_s += st["s"]
        m[f"layer.{g}.s"] = st["s"]
        m[f"layer.{g}.flops"] = st["flops"]
        m[f"layer.{g}.computed_bytes"] = st["computed_bytes"]
        m[f"layer.{g}.gflops_per_s"] = st["flops"] / st["s"] / 1e9
        m[f"layer.{g}.peak_alloc_bytes"] = st["peak_alloc_bytes"]
    m["layer.detail_share"] = sum(replay["groups"][g]["s"] for g in ("d1", "d2", "d3")) / total_s
    tiles = counters.get("fusion.tiles", 0)
    m["fusion.run_detailnet_fused.self_s"] = span("fusion.run_detailnet_fused", "self_s")
    m["fusion.tiles"] = tiles / n
    m["fusion.pixels_per_tile"] = counters.get("fusion.pixels", 0) / tiles if tiles else 0.0
    m["fusion.modeled_offchip_bytes"] = counters.get("fusion.modeled_offchip_bytes", 0) / n
    m["fusion.modeled_peak_onchip_bytes"] = counters.get("fusion.modeled_peak_onchip_bytes", 0)
    for name in ("model.load_weights", "model.run_branch", "tensor_core.decode_ppm", "tensor_core.encode_ppm",
                 "tensor_core.normalize", "tensor_core.denormalize", "metrics.ssim", "metrics.psnr"):
        m[f"{name}.self_s"] = span(name, "self_s")
    m["tensor_core.ppm_bytes"] = counters.get("tensor_core.ppm_bytes", 0) / n
    for name in ("training.loss_and_grads", "training.Adam.step"):
        m[f"{name}.calls"] = span(name, "calls")
        m[f"{name}.self_s"] = span(name, "self_s")
    k = min(len(traced), len(untraced))
    m["trace.overhead_ratio"] = sum(traced[:k]) / sum(untraced[:k])
    m["trace.tasks"] = n
    m["trace.peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
    return m


def run_worker(plan, work, env) -> dict:
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
                   env=env, check=True, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    return json.loads(result_path.read_text())


def run(lf, workload, seed, seconds, trace, sizes=None, work=None) -> dict:
    """One benchmark run; `sizes` and `work` default to the workload's own."""
    work = work or ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    src = ROOT / "src"
    env, threads = worker_env()
    plan, expect = prepare(lf, workload, seed, work, sizes)
    plan.update(src=str(src), seconds=seconds, trace=bool(trace))
    # Set-up probes go half before and half after the worker, so that one
    # burst of load on the machine cannot cover all of them.
    setup = [] if trace else measure_setup(src, plan["weights"], env, SETUP_REPEATS // 2)
    result = run_worker(plan, work, env)
    add_references(lf, expect, seed)
    if not trace:
        setup += measure_setup(src, plan["weights"], env, SETUP_REPEATS - len(setup))
    records = result["records"]
    failures = check(lf, records, expect)
    failed = sum(f is not None for f in failures)
    report = {
        "workload": workload, "env": environment(seed, threads),
        "attempted": len(records), "failed": failed, "error_rate": failed / len(records),
        "failures": sorted({f for f in failures if f}),
    }
    if trace:
        report["metrics"] = per_layer(records, result)
        catalogue = PER_LAYER
    else:
        report["metrics"], report["info"] = end_to_end(records, expect, result, lower_quartile(setup))
        catalogue = END_TO_END
    report["metrics"] = {name: report["metrics"][name] for name, _, _ in catalogue}
    report["catalogue"] = catalogue
    (work / "report.json").write_text(json.dumps(report, indent=1))
    return report


def print_report(report) -> None:
    print(f"workload {report['workload']}  env {json.dumps(report['env'])}")
    for name, unit, kind in report["catalogue"]:
        print(f"  {name:40s} {report['metrics'][name]:>16.6g} {unit:8s} {kind}")
    for name, value in report.get("info", {}).items():
        print(f"  {name:40s} {value:>16.6g} (not gated)")
    print(f"  {'error_rate':40s} {report['error_rate']:>16.6g} ({report['failed']}/{report['attempted']} ops)")
    for reason in report["failures"]:
        print(f"  FAILED: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "lightfuse" / "__init__.py").is_file():
        print(f"perfbench: lightfuse sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import lightfuse

    report = run(lightfuse, args.workload, args.seed, args.seconds, args.trace)
    print_report(report)
    units = {name: unit for name, unit, _ in report["catalogue"]}
    print(json.dumps({
        "correct": report["failed"] == 0, "attempted": report["attempted"], "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()},
    }))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
