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
channel, fills five maps (x, y, x*x, y*y, x*y) into a preallocated uint16
buffer, which holds 255^2 exactly, and filters them into float64 buffers.
The filter casts the integers to float64 exactly, and each filter pass
keeps the pinned order - a zero start, then + kernel[u] * x for u
ascending, every product rounded before its add - so every map value is
the one whole-image filtering gives. Every operation of a pass runs on
contiguous full-width rows, and only the valid columns reach the divide,
so no pass goes through numpy's buffered iterator, which allocates.

The units are shared out by tensor_core._share_work among
tensor_core.CPU_THREADS threads (the CPU count every 1x1 chain uses
too). Each thread owns one set of buffers, made on the calling thread: the
pass buffers, sized by the width alone so that they do not change with
the height; the uint8 rows a pass reads from a PpmReader
(PpmReader.readinto), so no pass allocates; and, for a unit of more than
one pass, its rows of map, sized for the image's largest such unit. A unit
of one pass reduces its rows where the pass computed them. Worker threads
call numpy, _filter_rows and a reader's readinto, never a function in a
module's __all__, so a traced run keeps seeing one thread. They run in
the caller's np.errstate; every worker is joined before ssim returns or
raises, and a worker's exception is raised on the caller. The buffers are
allocated and freed on every call; cli.main keeps glibc from unmapping
freed heap (cli._keep_freed_heap), so a process that scores again and
again does not page-fault them in each time.
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
# a thread's buffers for passes of up to two stripes at 2.9 MB at W=1027
# (uint16 maps, float64 filter buffers), 3.1 MB with a reader's rows.
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
    """Separable valid correlation of every map into out's first W - n + 1 columns.

    maps is (M, rows + n - 1, W) and of nonnegative values; tmp and out are
    C-ordered (M, rows, W) and prod a flat buffer of at least tmp.size
    elements that holds the products of either pass. Each pass adds
    kernel[u] * x for u ascending, one rounded product at a time, onto its
    first product, which is the pinned zero start plus that product, as
    every product is >= +0. maps are cast into the buffers by assignment and
    the horizontal pass runs along out's flattened rows, so neither pass goes
    through numpy's buffered iterator and no call allocates. Output j of
    that pass reads values j .. j + n - 1: a valid column reads its own row
    only, the other columns mix two rows, or two maps at a map's last row,
    and the last n - 1 values are 0.
    """
    n = kernel.size
    rows = tmp.shape[1]
    wide = prod[: tmp.size].reshape(tmp.shape)
    tmp[...] = maps[:, :rows]
    np.multiply(tmp, kernel[0], out=tmp)
    for u in range(1, n):
        wide[...] = maps[:, u : u + rows]
        np.multiply(wide, kernel[u], out=wide)
        np.add(tmp, wide, out=tmp)
    t, o = tmp.reshape(-1), out.reshape(-1)
    m = t.size - n + 1
    np.multiply(t[:m], kernel[0], out=o[:m])
    for v in range(1, n):
        np.multiply(t[v : v + m], kernel[v], out=prod[:m])
        np.add(o[:m], prod[:m], out=o[:m])
    o[m:] = 0.0


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
    # each unit's place in the tree's order, its values and the output rows
    # that cover them; a row it shares with a neighbour is computed by both
    units = [
        (i, start, size, start // ow, -(-(start + size) // ow))
        for i, (start, size) in enumerate(_sum_tree(0, n, budget, lambda start, size: [(start, size)]))
    ]
    # the longest pass any unit of this width could need: the rows of the
    # largest unit, one more than its values fill when it starts mid-row
    pass_rows = min(oh, -(-max(budget, _SUM_LEAF) // ow) + 1, 2 * stripe - 1)
    # the rows of this image's largest unit of more than one pass (0 if none)
    unit_rows = max((last - first for *_, first, last in units if last - first >= 2 * stripe), default=0)
    sums = np.empty((channels, len(units)))

    def run_unit(unit, ins, maps, tmp, filt, prod, smap):
        i, start, size, first, last = unit
        lo = start - first * ow  # the unit's first value in its first row
        one_pass = last - first < 2 * stripe
        # the unit's rows, in passes of one to two stripes (a rest of less than two is one pass)
        r0 = first
        while r0 < last:
            rows = last - r0 if last - r0 < 2 * stripe else stripe
            r1 = r0 + rows + halo
            ra, rb = (img[r0:r1] if buf is None else img.readinto(r0, r1, buf[: r1 - r0]) for img, buf in zip((a, b), ins))
            m = maps[:, : rows + halo]
            t, f = (buf[: 5 * rows * w].reshape(5, rows, w) for buf in (tmp, filt))
            for c in range(channels):
                m[0] = ra[:, :, c]
                m[1] = rb[:, :, c]
                np.multiply(m[0], m[0], out=m[2])
                np.multiply(m[1], m[1], out=m[3])
                np.multiply(m[0], m[1], out=m[4])
                _filter_rows(m, win, t, f, prod)
                # full-width rows, which keep every operation contiguous: the
                # first ow columns are the filtered maps
                mx, my, vx, vy, cxy = f
                # the filter's products are spent: reuse prod for four (rows, w) maps
                mx2, my2, mxy, num = prod[: 4 * rows * w].reshape(4, rows, w)
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
                # the other columns mix two maps at a map's last row and may
                # hold a zero den: only the valid ones, copied into the spent
                # tmp, reach the divide, which runs contiguous
                numv, denv = tmp[: 2 * rows * ow].reshape(2, rows, ow)
                numv[...] = num[:, :ow]
                denv[...] = den[:, :ow]
                if one_pass:  # the pass holds the unit's rows of map: reduce them at once
                    np.divide(numv, denv, out=numv)
                    sums[c, i] = np.add.reduce(numv.reshape(-1)[lo : lo + size])
                else:
                    np.divide(numv, denv, out=smap[c, r0 - first : r0 - first + rows])
            r0 += rows
        if not one_pass:
            for c in range(channels):
                sums[c, i] = np.add.reduce(smap[c, : last - first].reshape(-1)[lo : lo + size])

    # per thread: ins reads a PpmReader's rows of one pass plus its halo rows
    # (None for an array, whose rows are read in place); maps holds x, y,
    # x*x, y*y and x*y over them as exact integers of at most 255^2, which
    # the filter casts to float64 exactly; tmp holds the vertical pass, then
    # the valid columns of the SSIM formula's numerator and denominator;
    # filt holds the filtered maps at full width, prod the products, and smap
    # the rows of map of a unit of more than one pass. The pass buffers are
    # sized by the width alone, so that they do not change with the height.
    def buffer_set():
        return (
            [None if isinstance(img, np.ndarray) else np.empty((pass_rows + halo, w, channels), np.uint8)
             for img in (a, b)],
            np.empty((5, pass_rows + halo, w), np.uint16),
            np.empty(5 * pass_rows * w),
            np.empty(5 * pass_rows * w),
            np.empty(5 * pass_rows * w),
            np.empty((channels, unit_rows, ow)),
        )

    tensor_core._share_work(units, run_unit, buffer_set, min(tensor_core.CPU_THREADS, len(units)))
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


def extract_patches(img, size: int = 256, stride: int = 256):
    """Non-overlapping size x size patches from the top-left grid.

    Residual borders smaller than the patch size are discarded. img is an
    array or a tensor_core.PpmReader; each band of `size` rows is read once,
    so a reader is never decoded whole.
    """
    h, w = img.shape[:2]
    if h < size or w < size:
        raise ValueError(f"image {h}x{w} is smaller than the {size}x{size} patch size")
    rows, cols = _patch_grid(h, w, size, stride)
    patches = []
    for r in rows:
        band = img[r : r + size]
        for c in cols:
            patches.append(band[:, c : c + size].copy())
    return patches


def _patch_grid(h: int, w: int, size: int, stride: int) -> tuple:
    """(row origins, column origins) of extract_patches' grid; its patches run row by row."""
    return range(0, h - size + 1, stride), range(0, w - size + 1, stride)


def format_scores(psnr_value: float, ssim_value: float) -> str:
    return f"psnr={psnr_value:.3f} ssim={ssim_value:.3f}"
