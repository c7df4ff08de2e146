import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightfuse import metrics
from lightfuse.metrics import extract_patches, format_scores, psnr, select_extreme_pair, ssim


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
def test_ssim_and_psnr_equal_oracles(h, w, kind, seed, budget):
    # small budgets split even these sizes into many stripes, down to one row
    a, b = image_pair(h, w, kind, seed)
    with mock.patch.object(metrics, "SSIM_STRIPE_PIXELS", budget):
        assert_matches_oracles(a, b)


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
    ],
)
def test_stripe_boundaries_at_the_module_budget_equal_oracles(h, w):
    assert metrics.SSIM_STRIPE_PIXELS // _STRIPE_W == _STRIPE
    for kind in ("identical", "constant", "random"):
        assert_matches_oracles(*image_pair(h, w, kind, h * w))


def test_ssim_memory_is_bounded_by_its_output_map():
    # one float64 SSIM map of the valid windows, plus stripe buffers that
    # do not grow with image height
    a, b = image_pair(512, 512, "random", 12)
    oh = ow = 512 - 10
    tracemalloc.start()
    try:
        ssim(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * oh * ow + int(2.5 * 2**20)


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
