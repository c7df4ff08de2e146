"""Tests of the benchmark harness itself, at tiny input sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import lightfuse  # noqa: E402
import run  # noqa: E402
import scenes  # noqa: E402
from tracer import Tracer  # noqa: E402


def _tiny_run(workload, trace, tmp_path):
    return run.run(lightfuse, workload, seed=3, seconds=0.2, trace=trace,
                   sizes=scenes.TINY[workload], work=tmp_path / workload)


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(n, u) for n, u, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]
    # fuse_burst stays runnable by hand but is not gated (see METRICS.md).
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) - {"fuse_burst"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    report = _tiny_run(workload, trace, tmp_path)
    catalogue = run.PER_LAYER if trace else run.END_TO_END
    assert report["failed"] == 0, report["failures"]
    assert report["attempted"] >= 1
    assert list(report["metrics"]) == [name for name, _, _ in catalogue]
    for name, value in report["metrics"].items():
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        if not trace:
            assert value > 0, name
    assert set(report["env"]) == {"python", "numpy", "blas", "blas_threads", "nproc", "seed"}


def test_perturbed_weight_raises_error_rate(tmp_path):
    work = tmp_path / "fuse_large"
    work.mkdir()
    plan, expect = run.prepare(lightfuse, "fuse_large", 3, work, scenes.TINY["fuse_large"])
    plan.update(src=str(ROOT / "src"), seconds=0.2, trace=False)
    graph = lightfuse.build_lightfuse()
    path = Path(plan["weights"])
    weights = lightfuse.load_weights(path.read_bytes(), graph)
    weights["d3.bias"] = weights["d3.bias"] + np.float32(0.5)
    path.write_bytes(lightfuse.save_weights(weights, graph))

    env, _ = run.worker_env()
    result = run.run_worker(plan, work, env)
    run.add_references(lightfuse, expect, 3)
    failures = run.check(lightfuse, result["records"], expect)
    kinds = {rec["kind"] for rec, why in zip(result["records"], failures) if why}
    assert kinds == {"fuse", "eval"}
    assert sum(f is not None for f in failures) == len(failures)


def _train_record(losses, digest="d"):
    curve = "step,l_mse,l_perceptual,l_total\n" + "".join(f"{i},{v},0,{v}\n" for i, v in enumerate(losses))
    return {"kind": "train", "rc": 0, "pair": 0, "digest": digest, "curve": curve, "stdout": ""}


def test_train_checks_catch_bad_curves():
    good = _train_record([0.5, 0.4, 0.3, 0.2, 0.1])
    first = (good["digest"], good["curve"])
    assert run.check_op(good, {}, first) is None
    assert "loss curve" in run.check_op(_train_record([0.5, float("nan"), 0.3, 0.2, 0.1]), {}, first)
    assert "did not drop" in run.check_op(_train_record([0.5, 0.5, 0.5, 0.5, 0.6]), {}, first)
    assert "deterministic" in run.check_op(_train_record([0.5, 0.4, 0.3, 0.2, 0.1], "other"), {}, first)
    assert "exit code" in run.check_op({"kind": "train", "rc": 3, "pair": 0}, {}, first)


def test_eval_check_rejects_wrong_and_unparseable_scores():
    expect = {"eval": [(20.0, 0.5)]}
    rec = {"kind": "eval", "rc": 0, "pair": 0, "stdout": "psnr=20.000 ssim=0.500\n"}
    assert run.check_op(rec, expect, None) is None
    assert "differ" in run.check_op(dict(rec, stdout="psnr=20.010 ssim=0.500\n"), expect, None)
    assert "unparseable" in run.check_op(dict(rec, stdout="psnr=?\n"), expect, None)


def test_scenes_are_seeded():
    a = scenes.scene(7, 1, 20, 30)
    b = scenes.scene(7, 1, 20, 30)
    c = scenes.scene(8, 1, 20, 30)
    assert all(np.array_equal(x, y) for x, y in zip([a[0], *a[1]], [b[0], *b[1]]))
    assert not np.array_equal(a[0], c[0])
    label, (under, over) = a
    assert under.mean() < label.mean() < over.mean()


def test_tracer_self_time_excludes_children():
    import time as _time

    class Box:
        @staticmethod
        def inner():
            _time.sleep(0.02)

        @staticmethod
        def outer():
            Box.inner()
            _time.sleep(0.01)

    tracer = Tracer()
    tracer.patch(Box, "inner", "inner")
    tracer.patch(Box, "outer", "outer")
    tracer.op_id = 4
    Box.outer()
    tracer.restore()
    Box.outer()  # untraced after restore
    summary = tracer.summary()
    assert summary["outer"][0] == summary["inner"][0] == 1
    assert summary["outer"][1] == pytest.approx(summary["outer"][2] - summary["inner"][2])
    assert 0.005 < summary["outer"][1] < 0.02
    assert tracer.parents == [-1, 0] and tracer.ops == [4, 4]


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "fuse_burst", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
