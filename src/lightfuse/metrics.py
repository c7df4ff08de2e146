"""PSNR/SSIM scoring and the exposure-pair selection / patching protocol.

Both metrics operate on 8-bit images so the rounding of denormalization is
included in every score, matching what an external scorer would see on
files. SSIM is the standard single-scale formulation: 11x11 Gaussian window
with sigma 1.5, C1 = (0.01*255)^2, C2 = (0.03*255)^2, valid windows only
(no padding), averaged over windows then channels.

SSIM's map is never kept whole. numpy takes a contiguous array's mean as
np.add.reduce / n, and that reduce is a pairwise tree whose shape depends
only on n, so the (H-10) x (W-10) map, flattened, is cut along that tree:
the work units are its largest nodes of at most (stripe + 10) rows of
values (_sum_tree). A unit computes the output rows that cover it, in
passes of one to two stripes, into its own rows of map, reduces its node
with one np.add.reduce per channel into a preallocated (channels, units)
array, and keeps nothing after that; a row that two units share is
computed by both. The unit sums are then added in the tree's order,
left + right, so each channel's mean is the float the map's mean() gives,
and the score the same float as the whole-image formulation. A pass reads
its rows plus the 10 halo rows of each input once, then, channel by
channel, fills five maps (x, y, x*x, y*y, x*y) into preallocated buffers
and filters them in place. Each filter pass keeps the pinned order - a
zero start, then + kernel[u] * x for u ascending, every product rounded
before its add - so every map value is the one whole-image filtering
gives.

The units are shared out by tensor_core._share_work among
tensor_core.CPU_THREADS threads (the CPU count the fused executor uses
too), each with its own buffers, sized by the width alone and allocated by
the caller. Worker threads call numpy, _filter_rows and a reader's row
reads, never a function in a module's __all__, so a traced run keeps
seeing one thread. They run in the caller's np.errstate; every worker is
joined before ssim returns or raises, and a worker's exception is raised
on the caller. The buffers are allocated and freed on every call; cli.main
keeps glibc from unmapping freed heap (cli._keep_freed_heap), so a process
that scores again and again does not page-fault them in each time.
"""

import math

import numpy as np

from . import tensor_core

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
# PSNR sums its integer squares, and _image_mean its values, over stripes of
# as many rows.
# Swept at 1021x1027 with the stripes on 2 threads (2-vCPU x86 host, eval's
# p25 in a fuse + eval loop): 0.51-0.54 s at 8192, 0.42-0.45 s here,
# 0.38-0.43 s at 16384, 0.42-0.43 s at 20480 and 0.45-0.47 s at 24576,
# against 0.53-0.56 s for one thread and a whole map at 8192. 12288 keeps
# a thread's stripe buffers near 2 MB; its buffers for passes of up to two
# stripes and its unit's rows of map make 4.4 MB at W=1027.
SSIM_STRIPE_PIXELS = 12288
# numpy's pairwise-sum leaf: the largest block it sums without splitting
_SUM_LEAF = 128


def psnr(a, b) -> float:
    """10*log10(255^2 / MSE) over all interleaved values; inf when identical.

    a and b are uint8 (H, W, 3) arrays or tensor_core.PpmReaders. Squared
    differences are summed as integers over stripes of rows. Each is at
    most 255^2 and the total stays below 2^53, so every partial sum of a
    float64 mean is exact too: MSE is the float np.mean gives on the whole
    squared-difference image, in any summation order.
    """
    tensor_core._check_images8(a=a, b=b)
    rows = max(1, SSIM_STRIPE_PIXELS // a.shape[1])
    total = 0
    for r0 in range(0, a.shape[0], rows):
        diff = np.subtract(a[r0 : r0 + rows], b[r0 : r0 + rows], dtype=np.int32)
        np.multiply(diff, diff, out=diff)
        total += int(diff.sum(dtype=np.int64))
    mse = total / math.prod(a.shape)
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


def _gaussian_window(n=_SSIM_WINDOW, sigma=_SSIM_SIGMA):
    r = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    return g / g.sum()


def _filter_rows(maps, kernel, tmp, out, prod):
    """Separable valid correlation of every map into out.

    maps is (M, rows + n - 1, W), tmp is (M, rows, W) and out (M, rows,
    W - n + 1); prod is a flat buffer of at least tmp.size elements that
    holds the products of either pass. Each pass starts from zero and adds
    kernel[u] * x for u ascending, one rounded product at a time.
    """
    n = kernel.size
    rows, ow = out.shape[1:]
    wide = prod[: tmp.size].reshape(tmp.shape)
    narrow = prod[: out.size].reshape(out.shape)
    tmp[...] = 0.0
    for u in range(n):
        np.multiply(maps[:, u : u + rows], kernel[u], out=wide)
        np.add(tmp, wide, out=tmp)
    out[...] = 0.0
    for v in range(n):
        np.multiply(tmp[:, :, v : v + ow], kernel[v], out=narrow)
        np.add(out, narrow, out=out)


def _sum_tree(start, size, budget, node):
    """node(start, size) of each unit of np.add.reduce's tree, added left + right.

    numpy sums a contiguous float64 array pairwise, in a tree whose shape
    depends only on its size: a node of more than _SUM_LEAF elements is the
    sum of its two halves, split at size // 2 rounded down to a multiple of
    8, and a node's sum depends only on its own elements. The units are the
    largest nodes of at most max(budget, _SUM_LEAF) elements. With node
    returning [(start, size)] the result lists the units in order; with node
    returning each unit's np.add.reduce, in that order, it is the float
    np.add.reduce gives on elements [start, start + size).
    """
    if size <= max(budget, _SUM_LEAF):
        return node(start, size)
    half = size // 2 - size // 2 % 8
    return _sum_tree(start, half, budget, node) + _sum_tree(start + half, size - half, budget, node)


def ssim(a, b) -> float:
    """Mean single-scale SSIM over valid windows, averaged across channels.

    a and b are uint8 (H, W, 3) arrays or tensor_core.PpmReaders; a pass
    reads its rows and halo rows once, and threads may share a reader.
    """
    tensor_core._check_images8(a=a, b=b)
    if min(a.shape[0], a.shape[1]) < _SSIM_WINDOW:
        raise ValueError(f"images must be at least {_SSIM_WINDOW}x{_SSIM_WINDOW} for SSIM")
    win = _gaussian_window()
    halo = _SSIM_WINDOW - 1
    h, w, channels = a.shape
    oh, ow = h - halo, w - halo
    n = oh * ow
    stripe = min(oh, max(1, SSIM_STRIPE_PIXELS // w))
    # a unit holds at most as many map rows as a stripe reads input rows
    budget = (stripe + halo) * ow
    units = _sum_tree(0, n, budget, lambda start, size: [(start, size)])
    # the rows of the largest unit: one more than its values fill when it starts mid-row
    unit_rows = min(oh, -(-max(budget, _SUM_LEAF) // ow) + 1)
    sums = np.empty((channels, len(units)))

    def run_unit(unit, maps, tmp, filt, prod, smap):
        i, (start, size) = unit
        # the unit's rows, in passes of one to two stripes (a rest of less than
        # two is one pass); a row it shares with a neighbour is computed by both
        first, last = start // ow, -(-(start + size) // ow)
        r0 = first
        while r0 < last:
            rows = last - r0 if last - r0 < 2 * stripe else stripe
            ra, rb = a[r0 : r0 + rows + halo], b[r0 : r0 + rows + halo]
            m, f = maps[:, : rows + halo], filt[:, :rows]
            for c in range(channels):
                m[0] = ra[:, :, c]
                m[1] = rb[:, :, c]
                np.multiply(m[0], m[0], out=m[2])
                np.multiply(m[1], m[1], out=m[3])
                np.multiply(m[0], m[1], out=m[4])
                _filter_rows(m, win, tmp[:, :rows], f, prod)
                mx, my, vx, vy, cxy = f
                # the filter's products are spent: reuse prod for four (rows, ow) maps
                mx2, my2, mxy, num = prod[: 4 * rows * ow].reshape(4, rows, ow)
                # vx, vy, cxy: filtered second moments minus the squared means
                np.subtract(vx, np.multiply(mx, mx, out=mx2), out=vx)
                np.subtract(vy, np.multiply(my, my, out=my2), out=vy)
                np.subtract(cxy, np.multiply(mx, my, out=mxy), out=cxy)
                # ((2*mx*my + C1) * (2*cxy + C2)) / ((mx^2 + my^2 + C1) * (vx + vy + C2))
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
                np.divide(num, den, out=smap[c, r0 - first : r0 - first + rows])
            r0 += rows
        lo = start - first * ow
        for c in range(channels):
            sums[c, i] = np.add.reduce(smap[c].reshape(-1)[lo : lo + size])

    # per thread: maps holds x, y, x*x, y*y and x*y over one pass plus its
    # halo rows; tmp the vertical pass, filt the filtered maps, smap the
    # unit's rows of the SSIM map
    pass_rows = min(unit_rows, 2 * stripe - 1)
    buffers = [
        (
            np.empty((5, pass_rows + halo, w)),
            np.empty((5, pass_rows, w)),
            np.empty((5, pass_rows, ow)),
            np.empty(5 * pass_rows * w),
            np.empty((channels, unit_rows, ow)),
        )
        for _ in range(min(tensor_core.CPU_THREADS, len(units)))
    ]
    tensor_core._share_work(enumerate(units), run_unit, buffers)
    unit_sums = iter(sums.T)
    totals = _sum_tree(0, n, budget, lambda start, size: next(unit_sums))  # one per channel
    return float(np.mean(totals / n))


def _image_mean(img) -> float:
    """np.mean(img, dtype=np.float64) of a uint8 (H, W, 3) array or tensor_core.PpmReader.

    The image is read once, in stripes of rows whose values are summed as
    integers. A float64 sum of uint8 values is exact in any order, so the
    mean is the same float.
    """
    tensor_core._check_images8(img=img)
    h, w = img.shape[:2]
    rows = max(1, SSIM_STRIPE_PIXELS // w)
    total = sum(int(img[r0 : r0 + rows].sum(dtype=np.int64)) for r0 in range(0, h, rows))
    return total / math.prod(img.shape)


def _extreme_pair(shapes, means) -> tuple:
    """select_extreme_pair's rule on the images' shapes and means."""
    if len(means) < 2:
        raise ValueError("need at least two images to select a pair")
    if any(shape != shapes[0] for shape in shapes):
        raise ValueError("all images must share the same dimensions")
    under = int(np.argmin(means))
    max_mean = max(means)
    over = next(i for i, m in enumerate(means) if m == max_mean and i != under)
    return under, over


def select_extreme_pair(images) -> tuple:
    """Indices of the darkest and brightest images by mean pixel value.

    Exposure is estimated as the mean over all values, np.mean's float64.
    Ties go to the lowest index; the two returned indices are always
    distinct. images are uint8 (H, W, 3) arrays or tensor_core.PpmReaders.
    """
    if len(images) < 2:
        raise ValueError("need at least two images to select a pair")
    return _extreme_pair([img.shape for img in images], [_image_mean(img) for img in images])


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
