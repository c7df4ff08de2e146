"""Seeded synthetic scenes and the inputs of each workload.

A scene is an 8-bit label image built from smooth illumination plus fine
texture. Its exposures are derived from the label's linear radiance by a
gain, clipping, gamma and sensor noise, so an underexposed/overexposed pair
really hides detail in the shadows and the highlights, and PSNR, SSIM and
the training loss stay meaningful.

Image sizes are fixed per workload; the seed only changes the content, so
run-to-run timing differences come from the program, not from the inputs.
"""

from pathlib import Path

import numpy as np

# (height, width) of every pair; odd sizes exercise the CLI's pad-and-crop.
# Few size classes, so each class gets many timing samples in a run.
FUSE_LARGE_SIZES = ((1021, 1027), (1021, 1027))
FUSE_BURST_SIZES = ((256, 256), (251, 261)) * 8
# Three scenes cut into 8 + 8 + 4 = 20 patches of 64x64: one full batch of 20.
TRAIN_SCENE_SIZES = ((128, 256), (131, 259), (130, 140))

TINY = {
    "fuse_large": ((24, 24), (19, 21)),
    "fuse_burst": ((16, 16), (17, 15)),
    "train_toy": ((64, 64), (70, 66)),
}

GAMMA = 2.2
UNDER_GAIN = 0.12
OVER_GAIN = 5.0
MID_GAIN = 1.0


def _waves(rng, h, w, count, cycles):
    """Sum of `count` random plane waves with `cycles` per image side."""
    y = np.arange(h, dtype=np.float32)[:, None] / h
    x = np.arange(w, dtype=np.float32)[None, :] / w
    out = np.zeros((h, w), dtype=np.float32)
    for _ in range(count):
        fy, fx = rng.uniform(-cycles, cycles, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        out += np.cos(np.float32(2.0 * np.pi) * (np.float32(fy) * y + np.float32(fx) * x) + np.float32(phase))
    return out / count


def label_image(rng, h, w) -> np.ndarray:
    """uint8 (h, w, 3) label: smooth illumination times a tinted texture."""
    smooth = 0.5 + 0.4 * _waves(rng, h, w, 4, 3.0)
    texture = 0.15 * _waves(rng, h, w, 6, 60.0)
    img = np.empty((h, w, 3), dtype=np.float32)
    for c in range(3):
        tint = rng.uniform(0.8, 1.1)
        img[:, :, c] = smooth * tint + texture * rng.uniform(0.6, 1.0)
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def exposure(rng, label: np.ndarray, gain: float) -> np.ndarray:
    """Re-expose a label: linear radiance * gain, clip, gamma, 1% noise, 8-bit."""
    radiance = (label.astype(np.float32) / 255.0) ** GAMMA
    value = np.clip(radiance * gain, 0.0, 1.0) ** (1.0 / GAMMA)
    value += rng.normal(0.0, 0.01, size=value.shape).astype(np.float32)
    return np.clip(np.rint(value * 255.0), 0, 255).astype(np.uint8)


def scene(seed: int, index: int, h: int, w: int, gains=(UNDER_GAIN, OVER_GAIN)):
    """Label plus one exposure per gain, all from the (seed, index) stream."""
    rng = np.random.default_rng([seed, index])
    label = label_image(rng, h, w)
    return label, [exposure(rng, label, g) for g in gains]


def write_ppm(path: Path, img: np.ndarray) -> None:
    """Plain P6 writer, independent of the program under test."""
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + np.ascontiguousarray(img).tobytes())


def write_pairs(root: Path, seed: int, sizes) -> list:
    """One directory per pair with under.ppm, over.ppm and label.ppm.

    Returns [(directory, (label, under, over))] with the uint8 images.
    """
    pairs = []
    for i, (h, w) in enumerate(sizes):
        d = root / f"pair{i:03d}"
        d.mkdir(parents=True)
        label, (under, over) = scene(seed, i, h, w)
        for name, img in (("under", under), ("over", over), ("label", label)):
            write_ppm(d / f"{name}.ppm", img)
        pairs.append((d, (label, under, over)))
    return pairs


def write_scene_dirs(root: Path, seed: int, sizes) -> Path:
    """Training data: label.ppm and three exposures per scene directory.

    The middle exposure is there so that the program's extreme-pair
    selection has a real choice to make.
    """
    data = root / "scenes"
    for i, (h, w) in enumerate(sizes):
        d = data / f"scene{i:02d}"
        d.mkdir(parents=True)
        label, exps = scene(seed, i, h, w, (UNDER_GAIN, MID_GAIN, OVER_GAIN))
        write_ppm(d / "label.ppm", label)
        for name, img in zip(("ev_lo", "ev_mid", "ev_hi"), exps):
            write_ppm(d / f"{name}.ppm", img)
    return data
