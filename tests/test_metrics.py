import inspect
import itertools
import math
import random
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

from lightfuse import metrics, tensor_core
from lightfuse.metrics import extract_patches, format_scores, psnr, select_extreme_pair, ssim
from lightfuse.tensor_core import PpmReader, encode_ppm


def gray(value, hw=32):
    return np.full((hw, hw, 3), value, dtype=np.uint8)


def rand_img(hw, seed):
    return np.random.default_rng(seed).integers(0, 256, size=(hw, hw, 3), dtype=np.uint8)


# -------------------------------------------------------------------- psnr

def test_psnr_identical_is_infinite():
    img = rand_img(16, 0)
    assert psnr(img, img) == math.inf


def test_psnr_black_vs_white_is_zero_db():
    assert psnr(gray(0), gray(255)) == 0.0


def test_psnr_plus_one_offset():
    base = np.random.default_rng(1).integers(0, 255, size=(24, 24, 3), dtype=np.uint8)
    assert abs(psnr(base, base + 1) - 48.1308) < 0.001


def test_psnr_monotone_in_noise_amplitude():
    rng = np.random.default_rng(2)
    base = rng.integers(64, 192, size=(32, 32, 3), dtype=np.int16)
    scores = []
    for amplitude in (2, 8, 32):
        noise = rng.integers(-amplitude, amplitude + 1, size=base.shape)
        noisy = np.clip(base + noise, 0, 255).astype(np.uint8)
        scores.append(psnr(base.astype(np.uint8), noisy))
    assert scores[0] > scores[1] > scores[2]


def test_psnr_dim_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        psnr(gray(0, 16), gray(0, 24))


# -------------------------------------------------------------------- ssim

def test_ssim_identical_is_one():
    img = rand_img(20, 3)
    assert abs(ssim(img, img) - 1.0) < 1e-6


def test_ssim_symmetric():
    a = rand_img(24, 4)
    b = rand_img(24, 5)
    assert ssim(a, b) == ssim(b, a)


def test_ssim_constant_midgray_closed_form():
    # constant 128 vs constant 127: variance terms vanish, luminance term remains
    c1 = (0.01 * 255) ** 2
    expected = (2 * 128 * 127 + c1) / (128**2 + 127**2 + c1)
    got = ssim(gray(128), gray(127))
    assert abs(got - expected) < 1e-5
    assert abs(got - 0.99997) < 1e-4


def test_ssim_lower_for_noisy_image():
    rng = np.random.default_rng(6)
    base = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
    noisy = np.clip(base.astype(np.int16) + rng.integers(-60, 61, base.shape), 0, 255).astype(np.uint8)
    assert ssim(base, noisy) < 0.99


def test_ssim_rejects_tiny_images():
    with pytest.raises(ValueError, match="11"):
        ssim(gray(0, 8), gray(0, 8))


# ---------------------------------------------------------- pair selection

def test_select_extreme_pair_basic():
    imgs = [gray(10), gray(120), gray(240)]
    assert select_extreme_pair(imgs) == (0, 2)


def test_select_extreme_pair_tie_breaks_to_lowest_indices():
    assert select_extreme_pair([gray(50), gray(50)]) == (0, 1)


def test_select_extreme_pair_permutation_consistency():
    imgs = [gray(10), gray(120), gray(240)]
    permuted = [imgs[2], imgs[0], imgs[1]]
    u, o = select_extreme_pair(permuted)
    assert float(permuted[u].mean()) == 10.0
    assert float(permuted[o].mean()) == 240.0


def test_select_extreme_pair_ignores_middle_insertions():
    imgs = [gray(10), gray(240)]
    assert select_extreme_pair(imgs) == (0, 1)
    with_mid = [gray(10), gray(100), gray(240)]
    u, o = select_extreme_pair(with_mid)
    assert (float(with_mid[u].mean()), float(with_mid[o].mean())) == (10.0, 240.0)


def test_select_extreme_pair_needs_two_images():
    with pytest.raises(ValueError, match="two"):
        select_extreme_pair([gray(0)])


def test_select_extreme_pair_rejects_mixed_dims():
    with pytest.raises(ValueError, match="dimensions"):
        select_extreme_pair([gray(0, 16), gray(0, 24)])


# ------------------------------------------------------------------ patches

def test_extract_patches_grid_count():
    img = rand_img(512, 7)
    assert len(extract_patches(img, 256, 256)) == 4


def test_extract_patches_drops_residual_border():
    img = np.random.default_rng(8).integers(0, 256, size=(256, 300, 3), dtype=np.uint8)
    patches = extract_patches(img, 256, 256)
    assert len(patches) == 1
    assert patches[0].shape == (256, 256, 3)


def test_extract_patches_topleft_content():
    img = rand_img(300, 9)
    patches = extract_patches(img, 256, 256)
    assert np.array_equal(patches[0], img[:256, :256])


def test_extract_patches_rejects_small_images():
    with pytest.raises(ValueError, match="smaller"):
        extract_patches(rand_img(100, 10), 256, 256)


def test_extract_patches_small_size_grid():
    img = rand_img(64, 11)
    patches = extract_patches(img, 16, 16)
    assert len(patches) == 16


# ---------------------------------------------------------------- printing

def test_format_scores_three_decimals():
    assert format_scores(math.inf, 1.0) == "psnr=inf ssim=1.000"
    assert format_scores(48.13083, 0.79695) == "psnr=48.131 ssim=0.797"


# ------------------------------------------------------ whole-image oracles
# The whole-image formulation that the striped ssim and the in-place psnr
# replace. Each map is filtered over the full image, from a zero start,
# adding kernel[u] * x for u ascending; the library must return the same
# floats, not merely close ones.

def _oracle_filter_valid(x, kernel):
    n = kernel.size
    oh = x.shape[0] - n + 1
    ow = x.shape[1] - n + 1
    tmp = np.zeros((oh, x.shape[1]))
    for u in range(n):
        tmp += kernel[u] * x[u : u + oh, :]
    out = np.zeros((oh, ow))
    for v in range(n):
        out += kernel[v] * tmp[:, v : v + ow]
    return out


def oracle_ssim(a, b):
    c1 = (0.01 * 255) ** 2
    c2 = (0.03 * 255) ** 2
    r = np.arange(11, dtype=np.float64) - 5.0
    win = np.exp(-(r * r) / (2.0 * 1.5 * 1.5))
    win = win / win.sum()
    channel_means = []
    for c in range(a.shape[2]):
        x = a[:, :, c].astype(np.float64)
        y = b[:, :, c].astype(np.float64)
        mx = _oracle_filter_valid(x, win)
        my = _oracle_filter_valid(y, win)
        vx = _oracle_filter_valid(x * x, win) - mx * mx
        vy = _oracle_filter_valid(y * y, win) - my * my
        cxy = _oracle_filter_valid(x * y, win) - mx * my
        smap = ((2.0 * mx * my + c1) * (2.0 * cxy + c2)) / (
            (mx * mx + my * my + c1) * (vx + vy + c2)
        )
        channel_means.append(float(smap.mean()))
    return float(np.mean(channel_means))


def oracle_psnr(a, b):
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


def image_pair(h, w, kind, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    if kind == "identical":
        return a, a.copy()
    if kind == "constant":
        lo, hi = sorted(rng.integers(0, 256, size=2))
        return np.full((h, w, 3), lo, np.uint8), np.full((h, w, 3), hi, np.uint8)
    return a, rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def assert_matches_oracles(a, b):
    assert ssim(a, b) == oracle_ssim(a, b)
    assert psnr(a, b) == oracle_psnr(a, b)


def saturated_pair(kind, h, w):
    white, black = np.full((h, w, 3), 255, np.uint8), np.zeros((h, w, 3), np.uint8)
    board = np.where((np.add.outer(np.arange(h), np.arange(w)) % 2 == 0)[:, :, None], white, black)
    return {
        "white_white": (white, white.copy()),
        "white_black": (white, black),
        "board_inverse": (board, 255 - board),
        "board_white": (board, white),
        "black_black": (black, black.copy()),
    }[kind]


@pytest.mark.parametrize("kind", ["white_white", "white_black", "board_inverse", "board_white", "black_black"])
@pytest.mark.parametrize("budget", [metrics.SSIM_STRIPE_PIXELS, 40])
def test_saturated_pairs_equal_the_oracles(kind, budget):
    # x*x, y*y and x*y reach 255^2 = 65025, the largest value ssim's maps
    # hold. No operation may overflow, underflow or divide by zero, not even
    # in the columns past the valid ones that the filter fills.
    a, b = saturated_pair(kind, 41, 37)
    share, units = tensor_core._share_work, []

    def recording(work, *args):
        units.extend(work)
        return share(work, *args)

    with mock.patch.object(metrics, "SSIM_STRIPE_PIXELS", budget), threads(2), np.errstate(all="raise"), \
            mock.patch.object(tensor_core, "_share_work", recording):
        assert_matches_oracles(a, b)
    # budget 40 makes one-row stripes, and every unit, of at least two rows,
    # takes several passes; the default budget makes one unit of one pass
    stripe = min(41 - 10, max(1, budget // 37))
    assert all(last - first >= 2 * stripe for *_, first, last in units) == (budget == 40)


@settings(max_examples=40, deadline=None)
@given(
    h=st.integers(11, 90),
    w=st.integers(11, 90),
    kind=st.sampled_from(["identical", "constant", "random"]),
    seed=st.integers(0, 2**32 - 1),
    budget=st.one_of(st.just(metrics.SSIM_STRIPE_PIXELS), st.integers(1, 1000)),
)
@example(h=11, w=11, kind="random", seed=0, budget=metrics.SSIM_STRIPE_PIXELS)
@example(h=90, w=90, kind="random", seed=1, budget=1)
@example(h=13, w=53, kind="random", seed=2, budget=1)  # 129 values in units of 64 + 65
@example(h=18, w=27, kind="random", seed=3, budget=1)  # 136 values in units of 64 + 72
def test_ssim_and_psnr_equal_oracles(h, w, kind, seed, budget):
    # small budgets split even these sizes into many units, down to a leaf
    a, b = image_pair(h, w, kind, seed)
    with mock.patch.object(metrics, "SSIM_STRIPE_PIXELS", budget):
        assert_matches_oracles(a, b)
        with tempfile.TemporaryDirectory() as tmp:  # the same scores from row readers
            paths = [Path(tmp) / name for name in ("a.ppm", "b.ppm")]
            for path, img in zip(paths, (a, b)):
                path.write_bytes(encode_ppm(img))
            with PpmReader(paths[0]) as ra, PpmReader(paths[1]) as rb:
                assert ssim(ra, rb) == oracle_ssim(a, b)
                assert psnr(ra, rb) == oracle_psnr(a, b)


_STRIPE = 8
_STRIPE_W = metrics.SSIM_STRIPE_PIXELS // _STRIPE


@pytest.mark.parametrize(
    "h, w",
    [
        (11, 64),  # one output row
        (10 + 2 * _STRIPE - 1, _STRIPE_W),  # residual stripe one row short
        (10 + 2 * _STRIPE, _STRIPE_W),  # whole stripes only
        (10 + 2 * _STRIPE + 1, _STRIPE_W),  # residual stripe of one row
        (14, metrics.SSIM_STRIPE_PIXELS // 2 + 1),  # one row per stripe
        # the same four cases at the earlier 8192-pixel budget; at 12288 they
        # are one 12-row stripe plus a residual of 3, 4 or 5 rows, and two
        # 2-row stripes
        (25, 1024),
        (26, 1024),
        (27, 1024),
        (14, 4097),
        # a unit is a node of the flat map's sum tree of at most (stripe + 10)
        # rows of values, 18 x 1526 at W=1536, so the cases above are one unit
        (18, 26),  # 128 values: one leaf
        (13, 53),  # 129 values: one unit whose reduce splits 64 + 65
        (18, 27),  # 136 values: one unit whose reduce splits 64 + 72
        (10 + 19, _STRIPE_W),  # two units, the edge mid-row: 14496 + 14498 values
        (10 + 24, _STRIPE_W),  # two units, the edge on a row edge: 18312 = 12 rows
        (11, 4097),  # a one-row map
    ],
)
def test_stripe_boundaries_at_the_module_budget_equal_oracles(h, w):
    assert metrics.SSIM_STRIPE_PIXELS // _STRIPE_W == _STRIPE
    for kind in ("identical", "constant", "random"):
        assert_matches_oracles(*image_pair(h, w, kind, h * w))


def threads(n):
    """Share ssim's units among n threads, the calling thread included."""
    return mock.patch.object(tensor_core, "CPU_THREADS", n)


def finishing_in_order(order_seed):
    """A _share_work that hands out ssim's units in a shuffled order."""
    share = tensor_core._share_work

    def shuffled(units, *args):
        units = list(units)
        random.Random(order_seed).shuffle(units)
        return share(units, *args)

    return mock.patch.object(tensor_core, "_share_work", shuffled)


@settings(max_examples=40, deadline=None)
@given(
    h=st.integers(11, 70),
    w=st.integers(11, 70),
    seed=st.integers(0, 2**32 - 1),
    budget=st.one_of(st.just(metrics.SSIM_STRIPE_PIXELS), st.integers(1, 600)),
    n_threads=st.integers(1, 4),
    order_seed=st.integers(0, 2**16),
)
@example(h=70, w=70, seed=2, budget=1, n_threads=4, order_seed=0)
def test_ssim_equals_the_whole_map_oracle_on_any_threads_and_order(h, w, seed, budget, n_threads, order_seed):
    a, b = image_pair(h, w, "random", seed)
    expected = oracle_ssim(a, b)
    with mock.patch.object(metrics, "SSIM_STRIPE_PIXELS", budget), threads(n_threads), \
            finishing_in_order(order_seed):
        assert ssim(a, b) == expected
        with tempfile.TemporaryDirectory() as tmp:  # threads share one reader per input
            paths = [Path(tmp) / name for name in ("a.ppm", "b.ppm")]
            for path, img in zip(paths, (a, b)):
                path.write_bytes(encode_ppm(img))
            with PpmReader(paths[0]) as ra, PpmReader(paths[1]) as rb:
                assert ssim(ra, rb) == expected


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5000),
    budget=st.one_of(st.integers(1, metrics._SUM_LEAF), st.integers(metrics._SUM_LEAF + 1, 6000)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=129, budget=1, seed=0)  # the first split: 64 + 65
@example(n=136, budget=1, seed=0)  # 64 + 72
@example(n=5000, budget=129, seed=0)  # down to the leaves
def test_sum_tree_units_tile_the_array_and_add_up_to_numpy_reduce(n, budget, seed):
    rng = np.random.default_rng(seed)
    flat = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    units = metrics._sum_tree(0, n, budget, lambda start, size: [(start, size)])
    assert [start for start, _ in units] == [0, *itertools.accumulate(size for _, size in units[:-1])]
    assert sum(size for _, size in units) == n
    assert all(0 < size <= max(budget, metrics._SUM_LEAF) for _, size in units)
    sums = iter([np.add.reduce(flat[start : start + size]) for start, size in units])
    total = metrics._sum_tree(0, n, budget, lambda start, size: next(sums))
    assert total == np.add.reduce(flat)
    assert total / n == flat.mean()
    assert next(sums, None) is None


def test_ssim_on_more_threads_than_cpus_equals_the_oracle():
    # 8 threads and a short switch interval interleave the units as much as
    # they can; a unit sum lost or written to another unit's slot fails here
    a, b = image_pair(300, 97, "random", 18)
    expected = oracle_ssim(a, b)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(metrics, "SSIM_STRIPE_PIXELS", 97), threads(8):
            for _ in range(3):
                assert ssim(a, b) == expected
    finally:
        sys.setswitchinterval(interval)


def test_ssim_at_a_size_of_many_tree_levels_equals_the_whole_map_oracle():
    a, b = image_pair(1011, 1017, "random", 14)
    assert ssim(a, b) == oracle_ssim(a, b)


class Boom(Exception):
    pass


def on_worker(record=None, boom=None):
    """A _filter_rows that lets a worker thread make the first call.

    The calling thread's first call waits until a worker has made one, so a
    worker is sure to run a unit. record(on_caller) runs on every call;
    with `boom`, the worker's first call raises it. Returns (patcher, event
    set after that call).
    """
    kernel = metrics._filter_rows
    lock, calls, done = threading.Lock(), [0], threading.Event()

    def patched(*args):
        on_caller = threading.current_thread() is threading.main_thread()
        if record is not None:
            record(on_caller)
        if on_caller:
            assert done.wait(10), "no worker thread ran a unit"
            return kernel(*args)
        with lock:
            calls[0] += 1
            first = calls[0] == 1
        if first:
            done.set()
            if boom is not None:
                raise boom
        return kernel(*args)

    return mock.patch.object(metrics, "_filter_rows", patched), done


def test_ssim_worker_exception_surfaces_after_every_thread_is_joined():
    a, b = image_pair(200, 64, "random", 15)
    boom = Boom("worker failed")
    before = threading.active_count()
    patch, raised = on_worker(boom=boom)
    with mock.patch.object(metrics, "SSIM_STRIPE_PIXELS", 8 * 64), threads(2), patch, \
            pytest.raises(Boom) as caught:
        ssim(a, b)
    assert raised.is_set()
    assert caught.value is boom
    assert threading.active_count() == before


def test_ssim_workers_run_in_the_callers_errstate():
    a, b = image_pair(200, 64, "random", 16)
    seen = {}

    def record(on_caller):
        seen[on_caller] = np.geterr()["over"]

    patch, worker_ran = on_worker(record)
    with mock.patch.object(metrics, "SSIM_STRIPE_PIXELS", 8 * 64), threads(2), patch, \
            np.errstate(over="raise"):
        assert ssim(a, b) == oracle_ssim(a, b)
    assert worker_ran.is_set()
    assert seen == {True: "raise", False: "raise"}


def test_ssim_worker_threads_call_no_public_function():
    a, b = image_pair(200, 64, "random", 17)
    expected = ssim(a, b)

    def main_thread_only(fn):
        def wrapper(*args, **kwargs):
            assert threading.current_thread() is threading.main_thread(), fn.__qualname__
            return fn(*args, **kwargs)

        return wrapper

    patch, worker_ran = on_worker()
    with ExitStack() as stack:
        for module in (metrics, tensor_core):
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    stack.enter_context(mock.patch.object(module, name, main_thread_only(obj)))
        stack.enter_context(mock.patch.object(metrics, "SSIM_STRIPE_PIXELS", 8 * 64))
        stack.enter_context(threads(2))
        stack.enter_context(patch)
        assert ssim(a, b) == expected
    assert worker_ran.is_set()


def _ssim_peak(a, b):
    ssim(a, b)  # the first call at a size keeps a little for good
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ssim(a, b)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# W=64: 192-row stripes, so the units are tree nodes of 384 whole rows, 2 at
# H=778 and 8 at H=3082, and every thread works on units of one size at both
# heights. The (H-10) x (W-10) float64 map of the seed would add 1.2 MB
# between them; what may grow is the (3, units) array of node sums and the
# list of units, and the peak moves by a few KB with the threads' timing.
_HEIGHTS = (10 + 4 * 192, 10 + 16 * 192)


@pytest.mark.parametrize("n_threads", [1, 2])
def test_ssim_memory_does_not_grow_with_height(n_threads):
    assert metrics.SSIM_STRIPE_PIXELS // 64 == 192
    peaks = []
    for h in _HEIGHTS:
        with threads(n_threads):
            peaks.append(_ssim_peak(*image_pair(h, 64, "random", h)))
    assert abs(peaks[1] - peaks[0]) < 8192


@pytest.mark.parametrize("n_threads", [1, 2])
def test_ssim_on_readers_memory_does_not_grow_with_height(n_threads, tmp_path):
    peaks = []
    for h in _HEIGHTS:
        paths = [tmp_path / f"{name}{h}.ppm" for name in ("a", "b")]
        for path, img in zip(paths, image_pair(h, 64, "random", h)):
            path.write_bytes(encode_ppm(img))
        with PpmReader(paths[0]) as ra, PpmReader(paths[1]) as rb, threads(n_threads):
            peaks.append(_ssim_peak(ra, rb))
    assert abs(peaks[1] - peaks[0]) < 8192


@pytest.mark.parametrize("h, w", [(1021, 1027), (2048, 1536)])
def test_psnr_equals_the_float64_mean_formula_at_full_size(h, w):
    # integer sums are exact, so the MSE is np.mean's float in any order
    for kind in ("random", "constant"):
        a, b = image_pair(h, w, kind, h)
        assert psnr(a, b) == oracle_psnr(a, b)
    black, white = np.zeros((h, w, 3), np.uint8), np.full((h, w, 3), 255, np.uint8)
    assert psnr(black, white) == oracle_psnr(black, white) == 0.0


def test_psnr_memory_is_a_few_integer_stripes():
    a, b = image_pair(2048, 1536, "random", 13)
    tracemalloc.start()
    try:
        psnr(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few int32 stripes of at most SSIM_STRIPE_PIXELS pixels (with numpy's
    # cast buffers), against 75 MB for a float64 difference image
    assert peak < 4 * (4 * 3 * metrics.SSIM_STRIPE_PIXELS)
