import inspect
import os
import sys
import tempfile
import threading
import tracemalloc
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightfuse import fusion, model, nn_ops, tensor_core
from lightfuse.fusion import TrafficReport, run_detailnet_fused, run_detailnet_unfused
from lightfuse.model import build_lightfuse, init_weights

DETAIL_CONVS = [layer.name for layer in dict(build_lightfuse().branches)["detail"] if layer.kind == "pointwise"]


def tile_grid(height, width, s):
    """The schedule oracle: disjoint row-major s x s tiles covering the full extent."""
    return [
        (r0, min(r0 + s, height), c0, min(c0 + s, width))
        for r0 in range(0, height, s)
        for c0 in range(0, width, s)
    ]


def detail_input(h, w, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, size=(h, w, 6)).astype(np.float32)


@pytest.fixture(scope="module")
def weights():
    return init_weights(build_lightfuse(), 17)


# ---------------------------------------------------------------- equality

def test_fused_matches_unfused_bitwise(weights):
    for (h, w), s in [((8, 8), 1), ((8, 8), 3), ((24, 16), 5), ((24, 16), 16)]:
        x = detail_input(h, w, seed=h * w + s)
        fused, _ = run_detailnet_fused(x, weights, s)
        unfused, _ = run_detailnet_unfused(x, weights)
        assert fused.tobytes() == unfused.tobytes()


def test_fused_matches_manual_layer_composition(weights):
    x = detail_input(16, 16, seed=9)
    y = x
    for name in DETAIL_CONVS:
        kern = nn_ops.PointwiseKernel(weights[f"{name}.weight"], weights[f"{name}.bias"])
        y = nn_ops.relu(nn_ops.pointwise_forward(y, kern))
    fused, _ = run_detailnet_fused(x, weights, 7)
    assert fused.tobytes() == y.tobytes()


def test_tile_order_does_not_matter(weights):
    x = detail_input(16, 24, seed=10)
    reference, _ = run_detailnet_fused(x, weights, 5)
    kernels = [
        nn_ops.PointwiseKernel(weights[f"{n}.weight"], weights[f"{n}.bias"])
        for n in DETAIL_CONVS
    ]
    out = np.empty((16, 24, 3), dtype=np.float32)
    for r0, r1, c0, c1 in reversed(tile_grid(16, 24, 5)):
        t = x[r0:r1, c0:c1]
        for kern in kernels:
            t = nn_ops.relu(nn_ops.pointwise_forward(t, kern))
        out[r0:r1, c0:c1] = t
    assert out.tobytes() == reference.tobytes()


@pytest.mark.parametrize("x_dtype, w_dtype", [(np.float64, np.float32), (np.float32, np.float64)])
def test_fused_keeps_the_unfused_result_dtype(weights, x_dtype, w_dtype):
    x = detail_input(24, 40, seed=21).astype(x_dtype)
    cast = {k: v.astype(w_dtype) for k, v in weights.items()}
    fused, _ = run_detailnet_fused(x, cast, 7)
    unfused, _ = run_detailnet_unfused(x, cast)
    assert fused.dtype == unfused.dtype == np.float64
    assert fused.tobytes() == unfused.tobytes()


def random_weights(seed):
    """Uniform weights with nonzero random biases (init_weights zeroes them)."""
    store = init_weights(build_lightfuse(), seed)
    rng = np.random.default_rng(seed)
    for key, value in store.items():
        if key.endswith("bias"):
            store[key] = rng.uniform(-0.5, 0.5, size=value.shape).astype(np.float32)
    return store


def forward_with_detail_output(graph, weights, under, over):
    """model.forward plus the detail-branch output it computed on the way."""
    seen = {}
    run_layer = model.run_layer

    def recording(layer, store, x, tape=None):
        seen[layer.name] = y = run_layer(layer, store, x, tape)
        return y

    with mock.patch.object(model, "run_layer", recording):
        out = model.forward(graph, weights, under, over)
    return out, seen[graph.branches[1][1][-1].name]


def threads(n):
    """Run the fused executor on n threads, the calling thread included."""
    return mock.patch.object(tensor_core, "CPU_THREADS", n)


def blocks(pixels):
    """Run the fused executor in blocks of at most `pixels` pixels."""
    return mock.patch.object(nn_ops, "CHUNK_PIXELS", pixels)


@st.composite
def shapes_and_tiles(draw):
    h = 8 * draw(st.integers(1, 20))
    w = 8 * draw(st.integers(1, 20))
    return h, w, draw(st.integers(1, min(h, w))), draw(st.integers(0, 2**16)), draw(st.integers(1, 4))


# 4,096-px blocks: (160, 160): block edges mid-row (25.6 rows) and a short
# 1,024-px last block; (152, 160): a short 3,840-px last block on 3 threads;
# (160, 136): six blocks on 4 threads; (40, 16): one 640-px block, fewer
# blocks than threads. The tiles (7, 32, 65, 1) change only the report.
@example(case=(160, 160, 7, 1, 2))
@example(case=(152, 160, 32, 2, 3))
@example(case=(160, 136, 65, 3, 4))
@example(case=(40, 16, 1, 4, 4))
@given(case=shapes_and_tiles())
@settings(max_examples=25, deadline=None)
def test_tiled_equals_unfused_equals_forward(case):
    h, w, s, seed, n_threads = case
    graph = build_lightfuse()
    weights = random_weights(seed)
    rng = np.random.default_rng(seed)
    under = rng.uniform(-1, 1, size=(h, w, 3)).astype(np.float32)
    over = rng.uniform(-1, 1, size=(h, w, 3)).astype(np.float32)
    x = np.concatenate((under, over), axis=2)
    with threads(n_threads):
        fused, _ = run_detailnet_fused(x, weights, s)
        fused_forward_out = fusion.fused_forward(weights, under, over, s)[0]
    unfused, _ = run_detailnet_unfused(x, weights)
    reference, detail = forward_with_detail_output(graph, weights, under, over)
    assert fused.tobytes() == unfused.tobytes() == detail.tobytes()
    assert fused_forward_out.tobytes() == reference.tobytes()


# ------------------------------------------------------------------ traffic

def test_fused_traffic_at_256(weights):
    x = detail_input(256, 256, seed=11)
    _, traffic = run_detailnet_fused(x, weights, 32)
    assert traffic.offchip_read_bytes == 256 * 256 * 6 * 4
    assert traffic.offchip_write_bytes == 256 * 256 * 3 * 4
    assert traffic.total_offchip_bytes == 2_359_296
    assert traffic.peak_onchip_bytes == 32 * 32 * 70 * 4 == 286_720


def test_unfused_traffic_at_256(weights):
    x = detail_input(256, 256, seed=12)
    _, traffic = run_detailnet_unfused(x, weights)
    assert traffic.offchip_read_bytes == 256 * 256 * 70 * 4
    assert traffic.offchip_write_bytes == 256 * 256 * 67 * 4
    assert traffic.total_offchip_bytes == 35_913_728


def test_unfused_traffic_single_pixel(weights):
    x = detail_input(1, 1, seed=13)
    _, traffic = run_detailnet_unfused(x, weights)
    assert traffic.offchip_read_bytes == 70 * 4 == 280


def test_traffic_independent_of_tile_size(weights):
    x = detail_input(64, 64, seed=14)
    reports = [run_detailnet_fused(x, weights, s)[1] for s in (1, 7, 32, 64)]
    reads = {r.offchip_read_bytes for r in reports}
    writes = {r.offchip_write_bytes for r in reports}
    assert len(reads) == 1 and len(writes) == 1


def test_fused_beats_unfused(weights):
    x = detail_input(40, 40, seed=15)
    _, fused = run_detailnet_fused(x, weights, 8)
    _, unfused = run_detailnet_unfused(x, weights)
    assert fused.total_offchip_bytes < unfused.total_offchip_bytes


def test_fused_to_unfused_ratio_is_9_to_137(weights):
    x = detail_input(16, 16, seed=16)
    _, fused = run_detailnet_fused(x, weights, 4)
    _, unfused = run_detailnet_unfused(x, weights)
    assert fused.total_offchip_bytes * 137 == unfused.total_offchip_bytes * 9


def counted_traffic(h, w, s, weights):
    """Reference byte counts: fused summed over tile_grid's tiles, unfused per layer."""
    detail = dict(build_lightfuse().branches)["detail"]
    kernels = [model.layer_kernels(layer, weights)[0] for layer in detail if layer.kind == "pointwise"]
    chans = [kernels[0].in_channels] + [kern.out_channels for kern in kernels]
    reads = writes = 0
    for r0, r1, c0, c1 in tile_grid(h, w, s):
        npix = (r1 - r0) * (c1 - c0)
        reads += npix * chans[0] * 4
        writes += npix * chans[-1] * 4
    peak = s * s * (chans[0] + sum(sorted(chans[1:-1])[-2:])) * 4
    fused = TrafficReport("fused", reads, writes, peak)
    reads = writes = 0
    for kern in kernels:
        reads += h * w * kern.in_channels * 4
        writes += h * w * kern.out_channels * 4
    peak = max(kern.in_channels + kern.out_channels for kern in kernels) * 4
    return fused, TrafficReport("unfused", reads, writes, peak)


@st.composite
def sizes_and_tiles(draw):
    h, w = draw(st.integers(1, 200)), draw(st.integers(1, 200))
    return h, w, draw(st.integers(1, min(h, w))), draw(st.integers(0, 2**16))


@example(case=(1, 1, 1, 0))
@example(case=(199, 200, 199, 1))
@example(case=(37, 101, 6, 2))
@given(case=sizes_and_tiles())
@settings(max_examples=25, deadline=None)
def test_closed_form_traffic_equals_counted_traffic(case):
    """Reports equal the per-tile/per-layer counts; unfused output is forward's d3_relu."""
    h, w, s, seed = case
    graph = build_lightfuse()
    weights = random_weights(seed)
    fused_counted, unfused_counted = counted_traffic(h, w, s, weights)
    rng = np.random.default_rng(seed)
    padded = rng.uniform(-1, 1, size=(h + -h % 8, w + -w % 8, 6))
    for dtype in (np.float32, np.float64):
        pair = padded.astype(dtype)
        x = np.ascontiguousarray(pair[:h, :w])
        assert run_detailnet_fused(x, weights, s)[1] == fused_counted
        unfused, traffic = run_detailnet_unfused(x, weights)
        assert traffic == unfused_counted
        # 1x1 layers are per-pixel, so the padded forward's crop is x's walk
        _, detail = forward_with_detail_output(graph, weights, pair[..., :3], pair[..., 3:])
        assert unfused.dtype == detail.dtype == dtype
        assert unfused.tobytes() == np.ascontiguousarray(detail[:h, :w]).tobytes()


def test_peak_formula_and_monotone_sweep(weights):
    x = detail_input(256, 256, seed=11)
    rows = [(s, run_detailnet_fused(x, weights, s)[1].peak_onchip_bytes) for s in (1, 2, 4, 8, 16, 32)]
    assert rows[0] == (1, 280)
    assert rows[-1] == (32, 286_720)
    peaks = [p for _, p in rows]
    assert peaks == sorted(peaks)
    by_s = dict(rows)
    for s in (1, 2, 4, 8, 16):
        assert by_s[2 * s] == 4 * by_s[s]


def test_tile_grid_covers_without_overlap():
    tiles = tile_grid(10, 7, 3)
    hits = np.zeros((10, 7), dtype=int)
    for r0, r1, c0, c1 in tiles:
        hits[r0:r1, c0:c1] += 1
    assert (hits == 1).all()


# ------------------------------------------------------------------- errors

def test_invalid_tile_sizes(weights):
    x = detail_input(8, 8, seed=17)
    with pytest.raises(ValueError, match="tile size"):
        run_detailnet_fused(x, weights, 0)
    with pytest.raises(ValueError, match="tile size"):
        run_detailnet_fused(x, weights, 9)


def test_rejects_wrong_channel_count(weights):
    bad = np.zeros((8, 8, 3), dtype=np.float32)
    with pytest.raises(ValueError, match="must be"):
        run_detailnet_fused(bad, weights, 2)


def test_missing_weights_named(weights):
    partial = {k: v for k, v in weights.items() if k != "d2.weight"}
    x = detail_input(8, 8, seed=18)
    with pytest.raises(model.WeightFormatError, match="d2.weight"):
        run_detailnet_fused(x, partial, 2)


def test_traffic_dump_format(weights):
    x = detail_input(8, 8, seed=19)
    _, traffic = run_detailnet_fused(x, weights, 4)
    assert traffic.dump() == (
        f"mode=fused reads={8 * 8 * 24} writes={8 * 8 * 12} peak={4 * 4 * 280}"
    )


# -------------------------------------------------------------- full model

def test_fused_forward_matches_reference_forward(weights):
    graph = build_lightfuse()
    rng = np.random.default_rng(20)
    u = rng.uniform(-1, 1, size=(32, 40, 3)).astype(np.float32)
    o = rng.uniform(-1, 1, size=(32, 40, 3)).astype(np.float32)
    reference = model.forward(graph, weights, u, o)
    fused, traffic = fusion.fused_forward(weights, u, o, 8)
    assert fused.tobytes() == reference.tobytes()
    assert traffic.mode == "fused"


def test_fuse_graph_meets_the_halo_rule():
    """The stripe halo of 8 input rows holds for three stride-2 3x3 encoder layers."""
    assert fusion._GRAPH == build_lightfuse()
    assert fusion._GRAPH.spatial_divisor == 8
    encoder = [(layer.name, layer.k, layer.stride) for layer in fusion._GLOBAL if layer.kind != "relu"][:3]
    assert encoder == [("g1", 3, 2), ("g2", 3, 2), ("g3", 3, 2)]


# ------------------------------------------------------------------ stripes

def edge_padded_reference(graph, weights, under, over):
    """The seed's fuse: normalize, edge-pad to a multiple of 8, forward, crop."""
    h, w = under.shape[:2]
    pad = ((0, -h % 8), (0, -w % 8), (0, 0))
    u = np.pad(tensor_core.normalize(under), pad, mode="edge")
    o = np.pad(tensor_core.normalize(over), pad, mode="edge")
    return u, o, tensor_core.denormalize(model.forward(graph, weights, u, o)[:h, :w])


@st.composite
def images_tiles_budgets(draw):
    h, w = draw(st.integers(1, 200)), draw(st.integers(1, 200))
    return (h, w, draw(st.integers(1, min(h, w))), draw(st.integers(1, 4000)),
            draw(st.integers(0, 2**16)), draw(st.integers(1, 4)))


# (40, 16, 16, 1): 8-row stripes, shorter than the 16-px tile; (200, 200,
# 200, 1): 25 stripes of 8 rows under a tile as large as the image, one
# 1,600-px block each for four threads; (1, 1, 1, 1): 7 rows and columns of
# edge padding; (199, 200, 8, 98304): one 200-row stripe of ten 4,096-px
# blocks, edges mid-row and a short 3,136-px last block
@example(case=(40, 16, 16, 1, 0, 2))
@example(case=(200, 200, 200, 1, 1, 4))
@example(case=(1, 1, 1, 1, 2, 1))
@example(case=(199, 200, 8, 98304, 4, 3))
@example(case=(197, 61, 3, 500, 3, 3))
@given(case=images_tiles_budgets())
@settings(max_examples=30, deadline=None)
def test_striped_fuse_equals_whole_image_forward(case):
    h, w, s, budget, seed, n_threads = case
    graph = build_lightfuse()
    weights = random_weights(seed)
    rng = np.random.default_rng(seed)
    under = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    over = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    u, o, reference = edge_padded_reference(graph, weights, under, over)
    _, whole_traffic = run_detailnet_fused(np.concatenate((u, o), axis=2), weights, s)
    runs = {}
    for n in sorted({1, n_threads}):
        with mock.patch.object(fusion, "FUSE_STRIPE_PIXELS", budget), threads(n):
            fused, traffic = fusion.fuse_images(weights, under, over, s)
            forward_out, forward_traffic = fusion.fused_forward(weights, u, o, s)
        runs[n] = (fused.tobytes(), traffic, forward_out.tobytes(), forward_traffic)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(fusion, "FUSE_STRIPE_PIXELS", budget):
        paths = [Path(tmp) / name for name in ("u.ppm", "o.ppm", "fused.ppm")]
        for path, img in zip(paths, (under, over)):
            path.write_bytes(tensor_core.encode_ppm(img))
        with tensor_core.PpmReader(paths[0]) as u_rows, tensor_core.PpmReader(paths[1]) as o_rows, \
                tensor_core.PpmWriter(paths[2], under.shape) as out:
            _, streamed_traffic = fusion.fuse_images(weights, u_rows, o_rows, s, out=out)
        streamed = paths[2].read_bytes()
    assert runs[n_threads] == runs[1]
    assert fused.tobytes() == reference.tobytes()
    assert streamed == tensor_core.encode_ppm(reference) and streamed_traffic == traffic
    assert traffic == forward_traffic == whole_traffic
    assert forward_out.tobytes() == model.forward(graph, weights, u, o).tobytes()


def test_fuse_images_clamps_tile_to_the_padded_image(weights):
    under = np.zeros((5, 12, 3), dtype=np.uint8)
    _, traffic = fusion.fuse_images(weights, under, under, 32)
    assert traffic.peak_onchip_bytes == 8 * 8 * 280


def test_fuse_images_rejects_mismatched_or_non_uint8_pairs(weights):
    a = np.zeros((8, 8, 3), dtype=np.uint8)
    with pytest.raises(ValueError, match="dimension mismatch"):
        fusion.fuse_images(weights, a, np.zeros((8, 16, 3), dtype=np.uint8), 4)
    with pytest.raises(ValueError, match="over must be a uint8"):
        fusion.fuse_images(weights, a, a.astype(np.float32), 4)
    with pytest.raises(ValueError, match="out must be a uint8 8x8x3 image"):
        fusion.fuse_images(weights, a, a, 4, out=np.zeros((8, 8, 3), dtype=np.float32))


def _fuse_peak(weights, h, w, tile=32):
    rng = np.random.default_rng(h)
    under = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    over = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    tracemalloc.start()
    try:
        fusion.fuse_images(weights, under, over, tile)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fuse_memory_grows_only_by_its_uint8_output(weights):
    # the 3-byte output pixel is the only allocation that grows with height;
    # whole-image float temporaries cost about 80 B per pixel
    small, large = _fuse_peak(weights, 256, 1032), _fuse_peak(weights, 2048, 1032)
    assert (large - small) / ((2048 - 256) * 1032) <= 4


def test_fuse_memory_grows_only_by_its_uint8_output_on_two_threads(weights):
    # tracemalloc traces the worker thread's allocations too
    with threads(2):
        test_fuse_memory_grows_only_by_its_uint8_output(weights)


def test_fuse_memory_does_not_grow_with_the_tile(weights):
    # the tile sizes the traffic model only: a tile as large as the image
    # holds no more than one block's buffers (input, intermediates, products)
    # beyond what an 8 x 8 tile holds
    block = nn_ops.CHUNK_PIXELS * (fusion._WIDTHS[0] + 2 * sum(fusion._WIDTHS[1:])) * 4
    small, large = _fuse_peak(weights, 256, 256, 8), _fuse_peak(weights, 256, 256, 256)
    assert abs(large - small) <= block


# ------------------------------------------------------------------ threads

def test_fuse_threads_default_to_the_usable_cpus(monkeypatch):
    assert tensor_core.CPU_THREADS == tensor_core._usable_cpus() >= 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert tensor_core._usable_cpus() == 1


def test_one_thread_starts_no_thread(weights):
    under = np.random.default_rng(30).integers(0, 256, size=(40, 48, 3), dtype=np.uint8)
    expected, _ = fusion.fuse_images(weights, under, under[::-1], 8)
    with threads(1), mock.patch.object(threading, "Thread", side_effect=AssertionError):
        fused, _ = fusion.fuse_images(weights, under, under[::-1], 8)
    assert fused.tobytes() == expected.tobytes()


class Boom(Exception):
    pass


def on_worker(n, boom=None):
    """A pointwise_channels_first that lets a worker thread make its first n calls.

    The main thread's first call waits until a worker has made them, so a
    worker is sure to run blocks. With `boom`, the worker's n-th call raises it.
    Returns (patcher, event set after the n-th worker call).
    """
    kernel = nn_ops.pointwise_channels_first
    lock, calls, done = threading.Lock(), [0], threading.Event()

    def patched(*args):
        if threading.current_thread() is threading.main_thread():
            assert done.wait(10), "no worker thread ran a block"
            return kernel(*args)
        with lock:
            calls[0] += 1
            nth = calls[0] == n
        if nth:
            done.set()
            if boom is not None:
                raise boom
        return kernel(*args)

    return mock.patch.object(nn_ops, "pointwise_channels_first", patched), done


def entry_points(weights):
    """The three ways into the fused executor, on a 64x64 pair at tile 8 (8 blocks under blocks(512))."""
    rng = np.random.default_rng(31)
    under8 = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
    over8 = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
    under, over = tensor_core.normalize(under8), tensor_core.normalize(over8)
    return {
        "run_detailnet_fused": lambda: run_detailnet_fused(np.concatenate((under, over), axis=2), weights, 8),
        "fused_forward": lambda: fusion.fused_forward(weights, under, over, 8),
        "fuse_images": lambda: fusion.fuse_images(weights, under8, over8, 8),
    }


@pytest.mark.parametrize("entry", ["run_detailnet_fused", "fused_forward", "fuse_images"])
def test_worker_exception_surfaces_after_every_thread_is_joined(weights, entry):
    run = entry_points(weights)[entry]
    boom = Boom("worker failed")
    before = threading.active_count()
    patch, raised = on_worker(4, boom)
    with threads(2), blocks(512), patch, pytest.raises(Boom) as caught:
        run()
    assert raised.is_set()
    assert caught.value is boom
    assert threading.active_count() == before


@pytest.mark.parametrize("entry", ["fused_forward", "fuse_images"])
def test_global_branch_exception_surfaces_after_every_thread_is_joined(weights, entry):
    run = entry_points(weights)[entry]
    boom = Boom("global branch failed")
    before = threading.active_count()
    patch, worker_ran = on_worker(1)

    def failing_global_branch(*args, **kwargs):
        assert worker_ran.wait(10)
        raise boom

    with threads(2), blocks(512), patch, mock.patch.object(model, "run_branch", failing_global_branch), \
            pytest.raises(Boom) as caught:
        run()
    assert caught.value is boom
    assert threading.active_count() == before


def test_worker_threads_call_no_public_function(weights):
    """Every __all__ function runs on the main thread, which traced runs rely on."""

    def main_thread_only(fn):
        def wrapper(*args, **kwargs):
            assert threading.current_thread() is threading.main_thread(), fn.__qualname__
            return fn(*args, **kwargs)

        return wrapper

    run = entry_points(weights)["fuse_images"]
    expected, _ = run()
    patch, worker_ran = on_worker(1)
    with ExitStack() as stack:
        for module in (nn_ops, model, fusion, tensor_core):
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    stack.enter_context(mock.patch.object(module, name, main_thread_only(obj)))
        stack.enter_context(threads(2))
        stack.enter_context(blocks(512))
        stack.enter_context(patch)
        fused, _ = run()
    assert worker_ran.is_set()
    assert fused.tobytes() == expected.tobytes()



def test_workers_run_in_the_callers_errstate(weights):
    patch, worker_ran = on_worker(1)
    seen = {}
    caller_ran = threading.Event()
    with threads(2), blocks(512), patch:
        kernel = nn_ops.pointwise_channels_first

        def recording(*args):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller:
                caller_ran.set()
            elif worker_ran.is_set():
                # the worker's later calls leave blocks for the calling thread
                caller_ran.wait(10)
            seen[on_caller] = np.geterr()["over"]
            return kernel(*args)

        with mock.patch.object(nn_ops, "pointwise_channels_first", recording), np.errstate(over="raise"):
            run_detailnet_fused(detail_input(64, 64, seed=32), weights, 8)
    assert worker_ran.is_set()
    assert seen == {True: "raise", False: "raise"}


def test_every_group_runs_once_on_more_threads_than_cpus(weights):
    x = detail_input(64, 64, seed=33)
    expected, _ = run_detailnet_fused(x, weights, 2)
    kernel = nn_ops.pointwise_channels_first
    lock, calls = threading.Lock(), [0]

    def counting(*args):
        with lock:
            calls[0] += 1
        return kernel(*args)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with threads(8), blocks(128), mock.patch.object(nn_ops, "pointwise_channels_first", counting):
            fused, _ = run_detailnet_fused(x, weights, 2)  # 32 blocks of 128 pixels
    finally:
        sys.setswitchinterval(interval)
    assert calls[0] == 32 * 3
    assert fused.tobytes() == expected.tobytes()

