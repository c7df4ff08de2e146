"""PSNR/SSIM scoring and the exposure-pair selection / patching protocol.

Both metrics operate on 8-bit images so the rounding of denormalization is
included in every score, matching what an external scorer would see on
files. SSIM is the standard single-scale formulation: 11x11 Gaussian window
with sigma 1.5, C1 = (0.01*255)^2, C2 = (0.03*255)^2, valid windows only
(no padding), averaged over windows then channels.

SSIM runs per channel in horizontal stripes of output rows, so its float64
working set does not grow with image height: a stripe fills five maps (x,
y, x*x, y*y, x*y) over its rows plus the 10 halo rows into preallocated
buffers and filters them in place. Each pass keeps the pinned order - a
zero start, then + kernel[u] * x for u ascending, every product rounded
before its add - and each stripe writes its rows of one contiguous
(H-10, W-10) SSIM map, whose mean is taken once per channel. The result is
therefore the same float as filtering whole images.
"""

import math

import numpy as np

__all__ = [
    "psnr",
    "ssim",
    "select_extreme_pair",
    "extract_patches",
    "format_scores",
]

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_C1 = (0.01 * 255) ** 2
_C2 = (0.03 * 255) ** 2
# Input pixels per SSIM stripe: a stripe is max(1, SSIM_STRIPE_PIXELS // width)
# output rows, so its float64 working set stays near cache size at any width.
# PSNR sums its integer squares over stripes of as many rows.
# At 1021x1027 (2-vCPU x86 host) 8192 took 0.41-0.46 s, against 0.61 s at
# 4096 and 0.71 s at 32768.
SSIM_STRIPE_PIXELS = 8192


def _check_same_images(a, b):
    for img in (a, b):
        if not isinstance(img, np.ndarray) or img.dtype != np.uint8 or img.ndim != 3:
            raise ValueError("expected uint8 images of shape (H, W, 3)")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(255^2 / MSE) over all interleaved values; inf when identical.

    Squared differences are summed as integers over stripes of rows. Each
    is at most 255^2 and the total stays below 2^53, so every partial sum
    of a float64 mean is exact too: MSE is the float np.mean gives on the
    whole squared-difference image, in any summation order.
    """
    _check_same_images(a, b)
    rows = max(1, SSIM_STRIPE_PIXELS // a.shape[1])
    total = 0
    for r0 in range(0, a.shape[0], rows):
        diff = np.subtract(a[r0 : r0 + rows], b[r0 : r0 + rows], dtype=np.int32)
        np.multiply(diff, diff, out=diff)
        total += int(diff.sum(dtype=np.int64))
    mse = total / a.size
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


def _gaussian_window(n=_SSIM_WINDOW, sigma=_SSIM_SIGMA):
    r = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    return g / g.sum()


def _filter_rows(maps, kernel, tmp, wide, out, narrow):
    """Separable valid correlation of every map into out.

    maps is (M, rows + n - 1, W); tmp and wide are (M, rows, W) and out and
    narrow (M, rows, W - n + 1); wide and narrow hold products. Each pass
    starts from zero and adds kernel[u] * x for u ascending, one rounded
    product at a time.
    """
    n = kernel.size
    rows, ow = out.shape[1:]
    tmp[...] = 0.0
    for u in range(n):
        np.multiply(maps[:, u : u + rows], kernel[u], out=wide)
        np.add(tmp, wide, out=tmp)
    out[...] = 0.0
    for v in range(n):
        np.multiply(tmp[:, :, v : v + ow], kernel[v], out=narrow)
        np.add(out, narrow, out=out)


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean single-scale SSIM over valid windows, averaged across channels."""
    _check_same_images(a, b)
    if min(a.shape[0], a.shape[1]) < _SSIM_WINDOW:
        raise ValueError(f"images must be at least {_SSIM_WINDOW}x{_SSIM_WINDOW} for SSIM")
    win = _gaussian_window()
    halo = _SSIM_WINDOW - 1
    h, w = a.shape[:2]
    oh, ow = h - halo, w - halo
    stripe = min(oh, max(1, SSIM_STRIPE_PIXELS // w))
    # maps holds x, y, x*x, y*y and x*y over one stripe plus its halo rows
    maps = np.empty((5, stripe + halo, w))
    tmp = np.empty((5, stripe, w))
    wide = np.empty((5, stripe, w))
    filt = np.empty((5, stripe, ow))
    narrow = np.empty((5, stripe, ow))
    smap = np.empty((oh, ow))
    channel_means = []
    for c in range(a.shape[2]):
        for r0 in range(0, oh, stripe):
            rows = min(stripe, oh - r0)
            m = maps[:, : rows + halo]
            m[0] = a[r0 : r0 + rows + halo, :, c]
            m[1] = b[r0 : r0 + rows + halo, :, c]
            np.multiply(m[0], m[0], out=m[2])
            np.multiply(m[1], m[1], out=m[3])
            np.multiply(m[0], m[1], out=m[4])
            f = filt[:, :rows]
            s = narrow[:, :rows]
            _filter_rows(m, win, tmp[:, :rows], wide[:, :rows], f, s)
            mx, my, vx, vy, cxy = f
            mx2, my2, mxy = s[:3]
            # vx, vy, cxy: filtered second moments minus the squared means
            np.subtract(vx, np.multiply(mx, mx, out=mx2), out=vx)
            np.subtract(vy, np.multiply(my, my, out=my2), out=vy)
            np.subtract(cxy, np.multiply(mx, my, out=mxy), out=cxy)
            # ((2*mx*my + C1) * (2*cxy + C2)) / ((mx^2 + my^2 + C1) * (vx + vy + C2))
            num = smap[r0 : r0 + rows]
            np.multiply(mx, 2.0, out=num)
            np.multiply(num, my, out=num)
            np.add(num, _C1, out=num)
            np.multiply(cxy, 2.0, out=cxy)
            np.add(cxy, _C2, out=cxy)
            np.multiply(num, cxy, out=num)
            den = np.add(mx2, my2, out=mx2)
            np.add(den, _C1, out=den)
            np.add(vx, vy, out=vx)
            np.add(vx, _C2, out=vx)
            np.multiply(den, vx, out=den)
            np.divide(num, den, out=num)
        channel_means.append(float(smap.mean()))
    return float(np.mean(channel_means))


def select_extreme_pair(images) -> tuple:
    """Indices of the darkest and brightest images by mean pixel value.

    Exposure is estimated as the mean over all values. Ties go to the lowest
    index; the two returned indices are always distinct.
    """
    if len(images) < 2:
        raise ValueError("need at least two images to select a pair")
    shape = images[0].shape
    for img in images[1:]:
        if img.shape != shape:
            raise ValueError("all images must share the same dimensions")
    means = [float(np.mean(img, dtype=np.float64)) for img in images]
    under = int(np.argmin(means))
    max_mean = max(means)
    over = next(i for i, m in enumerate(means) if m == max_mean and i != under)
    return under, over


def extract_patches(img: np.ndarray, size: int = 256, stride: int = 256):
    """Non-overlapping size x size patches from the top-left grid.

    Residual borders smaller than the patch size are discarded.
    """
    h, w = img.shape[:2]
    if h < size or w < size:
        raise ValueError(f"image {h}x{w} is smaller than the {size}x{size} patch size")
    patches = []
    for r in range(0, h - size + 1, stride):
        for c in range(0, w - size + 1, stride):
            patches.append(img[r : r + size, c : c + size].copy())
    return patches


def format_scores(psnr_value: float, ssim_value: float) -> str:
    return f"psnr={psnr_value:.3f} ssim={ssim_value:.3f}"
