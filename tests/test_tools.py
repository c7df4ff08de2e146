import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_print_every_call_of_train_toy(capsys):
    digests = load_tool("digests")
    assert digests.main(["--workload", "train_toy", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    sha = "[0-9a-f]{64}"
    assert re.fullmatch(
        f"train_toy seed=1 task=0 train rc=0 out={sha} curve={sha} stdout=steps=5 triples=20 final_mse=.*",
        lines[0],
    )
    assert [line.split(" stdout=")[0] for line in lines[1:]] == [
        f"train_toy seed=1 scene{i:02d} pair rc=0" for i in range(3)
    ]
    assert all(re.search(r"stdout=under=ev_lo\.ppm \| over=ev_hi\.ppm$", line) for line in lines[1:])


def test_digests_library_lines_cover_both_graphs_and_every_extractor(capsys):
    from lightfuse import metrics, model, nn_ops

    digests = load_tool("digests")
    assert digests.main(["--workload", "library", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    sha = "[0-9a-f]{64}"
    want = []
    for graph in (model.build_lightfuse(), model.build_tcnn()):
        want.append(f"library seed=3 {graph.name} forward out=({sha})")
        grads = " ".join(f"{re.escape(key)}={sha}" for key, _, _ in model.graph_param_entries(graph))
        for extractor in ("none", "identity", "random_conv"):
            want.append(
                f"library seed=3 {graph.name} loss_and_grads extractor={extractor} out=({sha}) {grads}"
                r" report=LossReport\(l_mse=.+, l_perceptual=.+, l_total=.+\)"
            )
    a, b = digests.score_pair(3)  # the scores' full-precision reprs, last bits included
    want.append(re.escape(f"library seed=3 scores psnr={metrics.psnr(a, b)!r} ssim={metrics.ssim(a, b)!r}"))
    want.append(f"library seed=3 lightfuse forward score_pair out={sha}")
    hp, wp = (-(-side // 8) * 8 for side in digests.SCORE_SIZE)  # the pair padded as fuse pads it
    # many blocks of each 1x1 layer: the multi-block, threaded layer-by-layer path
    assert hp * wp > 4 * nn_ops.CHUNK_PIXELS
    assert digests.SCORE_TILES[-1] == min(hp, wp)  # the largest tile of the padded pair
    for tile in digests.SCORE_TILES:
        want.append(
            f"library seed=3 fuse_images tile={tile} out=({sha})"
            f" mode=fused reads={hp * wp * 24} writes={hp * wp * 12} peak={tile * tile * 280}"
        )
    assert len(lines) == len(want)
    matches = [re.fullmatch(pattern, line) for pattern, line in zip(want, lines)]
    assert all(matches)
    # the tile sizes the traffic line only: every tile gives the same bytes
    assert len({m.group(1) for m in matches[-len(digests.SCORE_TILES):]}) == 1
    # loss_and_grads returns the same output that forward computes
    assert len({m.group(1) for m in matches[:4]}) == 1 and len({m.group(1) for m in matches[4:8]}) == 1
    assert " l_perceptual=0.0," in lines[1] and " l_perceptual=0.0," not in lines[2]


def test_digests_fault_lines_give_each_cases_exit_code_stderr_and_listing(capsys):
    digests = load_tool("digests")
    assert digests.main(["--workload", "faults", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(digests.FAULT_CASES)
    cases = {}
    for (command, name, fault), line in zip(digests.FAULT_CASES, lines):
        m = re.fullmatch(rf"faults seed=2 {command} {re.escape(name)}={fault} rc=([0-3]) stderr=(.*) ls=(.+)", line)
        assert m, line
        rc, err, listing = int(m.group(1)), m.group(2), m.group(3).split()
        assert (rc == 0) == (err == ""), line
        assert "/tmp" not in err, line  # the case's directory reads <dir>
        cases[command, name, fault] = rc, err, listing
    rc, err, listing = cases["fuse", "out.ppm", "fifo"]
    assert (rc, err) == (2, "i/o error: <dir>/out.ppm: not a regular file") and "out.ppm|" in listing
    rc, _, listing = cases["fuse", "out.ppm", "symlink"]
    assert rc == 0 and "out.ppm->out.ppm.target" in listing
    rc, _, listing = cases["train", "t.lfw", "intact"]
    assert rc == 0 and {"t.lfw", "t.csv"} <= {entry.split(":")[0] for entry in listing}


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="VmHWM is read from Linux's /proc/self/status")
def test_vmhwm_prints_each_calls_peak_from_a_fresh_process(capsys):
    vmhwm = load_tool("vmhwm")
    assert vmhwm.main(["64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    matches = [
        re.fullmatch(r"(fuse|eval|train) 64x64 rc=0 vmhwm_mb=(\d+\.\d\d) traced_mb=(\d+\.\d\d)", line)
        for line in lines
    ]
    assert all(matches), lines
    assert [m.group(1) for m in matches] == ["fuse", "eval", "train"]
    # each process imported numpy and lightfuse.cli, which alone take tens of
    # MB; a traced call at 64x64 allocates far less than that, but something
    for m in matches:
        vmhwm_mb, traced_mb = float(m.group(2)), float(m.group(3))
        assert vmhwm_mb > 10 and 0 < traced_mb < 10
