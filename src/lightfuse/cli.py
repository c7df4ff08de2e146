"""Command-line surface: fuse, analyze, bench, train, eval, pair.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 validation or
assertion failure.
"""

# library modules first: after argparse and ctypes they leave ~0.25 MB more resident
import numpy as np

from . import cost_model, fusion, metrics, model, tensor_core, training

import argparse
import ctypes
import os
import sys
from collections.abc import Sequence
from pathlib import Path

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3

TRAIN_PATCH = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _dims(text):
    try:
        h_txt, w_txt = text.lower().split("x")
        h, w = int(h_txt), int(w_txt)
    except ValueError:
        raise argparse.ArgumentTypeError("dims must look like 256x256") from None
    if h < 8 or w < 8 or h % 8 or w % 8:
        raise argparse.ArgumentTypeError("dims must be positive and divisible by 8")
    return h, w


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lightfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fuse", help="fuse an exposure pair into one image")
    p.add_argument("under", help="underexposed input (PPM)")
    p.add_argument("over", help="overexposed input (PPM)")
    p.add_argument("out", help="output path (PPM)")
    p.add_argument("--weights", required=True, help="LFW1 weight file")
    p.add_argument("--tile-size", type=_positive_int, default=32,
                   help="side S of the modeled S x S on-chip tile; sizes the traffic line only (default 32)")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("analyze", help="print the cost report for a model")
    p.add_argument("model", choices=("lightfuse", "tcnn"))
    p.add_argument("--convention", choices=sorted(cost_model.CONVENTIONS), default="table4")
    p.add_argument("--format", choices=("text", "kv"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="compare fused and unfused detail-branch runs")
    p.add_argument("dims", type=_dims, help="input size, e.g. 256x256")
    p.add_argument("--tile-size", type=_positive_int, default=32, help="side S of the modeled tile (default 32)")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", help="toy-train on a directory of scenes")
    p.add_argument("data_dir", help="directory of scene subdirectories")
    p.add_argument("out", help="output LFW1 weight file")
    p.add_argument("--steps", type=_nonnegative_int, default=200)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--curve", help="loss-curve CSV path (default: <out>.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score one image against another")
    p.add_argument("a", help="image to score (PPM)")
    p.add_argument("b", help="reference image (PPM)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pair", help="select the extreme exposure pair in a directory")
    p.add_argument("scene_dir")
    p.set_defaults(func=cmd_pair)
    return parser


def _parse_file(path, parse):
    """parse(path); a PPM or LFW1 format error names the file."""
    try:
        return parse(path)
    except (tensor_core.PpmParseError, model.WeightFormatError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _read_weight_file(path) -> bytes:
    """The file's bytes; a FIFO or other non-regular file is a WeightFormatError, found without blocking."""
    with tensor_core._open_input(path, model.WeightFormatError) as f:
        return f.readall()


def cmd_fuse(args) -> int:
    with _parse_file(args.under, tensor_core.PpmReader) as under, \
            _parse_file(args.over, tensor_core.PpmReader) as over:
        graph = model.build_lightfuse()
        weights = _parse_file(args.weights, lambda path: model.load_weights(_read_weight_file(path), graph))
        with tensor_core.PpmWriter(args.out, under.shape) as out:
            _, traffic = fusion.fuse_images(weights, under, over, args.tile_size, out=out)
    print(traffic.dump())
    return EXIT_OK


def cmd_analyze(args) -> int:
    graph = model.build_lightfuse() if args.model == "lightfuse" else model.build_tcnn()
    report = cost_model.analyze(graph, cost_model.CONVENTIONS[args.convention])
    if args.format == "kv":
        print(cost_model.render_kv(report))
    else:
        print(cost_model.render_report(report))
    return EXIT_OK


def cmd_bench(args) -> int:
    h, w = args.dims
    rng = np.random.default_rng(args.seed)
    x = rng.uniform(-1.0, 1.0, size=(h, w, 6)).astype(np.float32)
    weights = model.init_weights(model.build_lightfuse(), args.seed)
    tile = min(args.tile_size, h, w)
    fused_out, fused_traffic = fusion.run_detailnet_fused(x, weights, tile)
    unfused_out, unfused_traffic = fusion.run_detailnet_unfused(x, weights)
    if fused_out.tobytes() != unfused_out.tobytes():
        print("error: fused and unfused outputs differ", file=sys.stderr)
        return EXIT_VALIDATION
    print("bit-equal: true")
    print(fused_traffic.dump())
    print(unfused_traffic.dump())
    return EXIT_OK


def _is_ppm(path) -> bool:
    """The one exposure rule of train and pair: a .ppm suffix in any case."""
    return path.suffix.lower() == ".ppm"


def _scene_image(path, read):
    """read(the file's PpmReader), or None after a warning naming the path."""
    try:
        with tensor_core.PpmReader(path) as reader:
            return read(reader)
    except tensor_core.PpmParseError as exc:
        reason = f"not a valid PPM ({exc})"
    except OSError as exc:
        reason = f"not readable ({exc.strerror or exc})"
    print(f"warning: {path}: {reason}, skipped", file=sys.stderr)
    return None


def _shape_and_mean(reader) -> tuple:
    """An exposure's shape and mean pixel value, which pick train's and pair's pair, read in stripes."""
    return reader.shape, metrics._image_mean(reader)


def _read_band(path, identity, r):
    """Rows [r, r + TRAIN_PATCH) of path's PPM, or an OSError naming path if it is not the file loaded."""
    try:
        with tensor_core.PpmReader(path) as reader:
            if reader.identity == identity:
                return reader[r : r + TRAIN_PATCH]
    except tensor_core.PpmParseError:
        pass  # it parsed at load, so it has changed
    raise OSError(f"{path}: changed since train loaded it")


class _Patches(Sequence):
    """Training triples read from their files on demand, each patch normalized as it is read.

    A scene keeps no pixels: only the (path, identity) of its under, over and
    label files and its patch grid. dataset[i] reads its patch's rows from
    each file, opened for that read only, and keeps the three bands until a
    patch of other rows is read; train_toy reads each step's samples in
    sorted order, so each band once. normalize works elementwise, so a
    triple holds the floats of the extract_patches patches normalized eagerly.
    """

    def __init__(self, scenes):
        self._scenes = scenes  # (files, row origins, column origins)
        self._len = sum(len(rows) * len(cols) for _, rows, cols in scenes)
        self._band = None, ()  # ((scene, row), its three bands)

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        i = range(self._len)[i]  # an IndexError past either end, as from a list
        for s, (files, rows, cols) in enumerate(self._scenes):
            if i < len(rows) * len(cols):
                break
            i -= len(rows) * len(cols)
        r, c = rows[i // len(cols)], cols[i % len(cols)]
        if self._band[0] != (s, r):
            self._band = None, ()  # the old bands go before the new ones are read
            self._band = (s, r), tuple(_read_band(path, identity, r) for path, identity in files)
        return tuple(tensor_core.normalize(band[:, c : c + TRAIN_PATCH]) for band in self._band[1])


def _load_training_triples(data_dir):
    """The _Patches of data_dir's scenes, each read here only to pick its pair and check its files."""
    root = Path(data_dir)
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")
    scenes = [root] if (root / "label.ppm").exists() else sorted(
        p for p in root.iterdir() if p.is_dir()
    )
    kept = []
    for scene in scenes:
        label_path = scene / "label.ppm"
        if not label_path.exists():
            print(f"warning: {scene}: no label.ppm, skipped", file=sys.stderr)
            continue
        # (shape, mean, (path, identity)) of each exposure: no pixels are kept
        seen = [
            _scene_image(f, lambda reader: (*_shape_and_mean(reader), (reader.path, reader.identity)))
            for f in sorted(scene.iterdir()) if _is_ppm(f) and f.name.lower() != "label.ppm"
        ]
        exposures = [found for found in seen if found is not None]
        if len(exposures) < 2:
            print(f"warning: {scene}: fewer than two exposures, skipped", file=sys.stderr)
            continue
        label = _scene_image(label_path, lambda reader: (reader.shape, (reader.path, reader.identity)))
        if label is None:
            continue
        shapes, means, files = zip(*exposures)
        if any(shape != label[0] for shape in shapes):
            print(f"warning: {scene}: image dimensions differ, skipped", file=sys.stderr)
            continue
        h, w, _ = label[0]
        if min(h, w) < TRAIN_PATCH:
            print(f"warning: {scene}: smaller than {TRAIN_PATCH}x{TRAIN_PATCH}, skipped", file=sys.stderr)
            continue
        ui, oi = metrics._extreme_pair(shapes, means)
        kept.append(((files[ui], files[oi], label[1]), *metrics._patch_grid(h, w, TRAIN_PATCH, TRAIN_PATCH)))
    return _Patches(kept)


def _keep_freed_heap() -> None:
    """Let glibc keep freed heap memory in this process instead of unmapping it.

    Every command allocates and frees the same few MB again and again:
    training its activations for every sample, fuse and eval their stripe
    buffers. With glibc's adaptive defaults the heap top goes back to the
    kernel after each and is page-faulted in again by the next: 500 to 950
    faults per 64x64 training sample and a fifth of a `train` call, and
    300k faults instead of about 220 over ten 1021x1027 fuse + eval calls
    in one process, fuse 5-10% slower; kernel time that stretches whenever
    the host is busy. The values are the ceilings the adaptive rule itself
    can reach. main sets them once for every command. A no-op without glibc.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def cmd_train(args) -> int:
    curve_path = args.curve if args.curve else f"{args.out}.csv"
    # both outputs would be renamed onto one file, which would keep only the weights
    if os.path.realpath(curve_path) == os.path.realpath(args.out):
        raise _UsageError(f"--curve {curve_path} names the weights output {args.out}")
    triples = _load_training_triples(args.data_dir)
    if not triples:
        raise ValueError("no usable training triples found")
    graph = model.build_lightfuse()
    initial = model.init_weights(graph, args.seed)
    # both outputs are checked before training, and replaced only if both are written
    with tensor_core._OutputFile(args.out) as weights_file, tensor_core._OutputFile(curve_path) as curve_file:
        trained, curve = training.train_toy(graph, initial, triples, args.steps, seed=args.seed)
        weights_file.write(model.save_weights(trained, graph))
        curve_file.write(training.curve_to_csv(curve).encode())
    if curve:
        print(f"steps={len(curve)} triples={len(triples)} final_mse={curve[-1].l_mse:.6g}")
    else:
        print(f"steps=0 triples={len(triples)}")
    return EXIT_OK


def cmd_eval(args) -> int:
    with _parse_file(args.a, tensor_core.PpmReader) as a, _parse_file(args.b, tensor_core.PpmReader) as b:
        print(metrics.format_scores(metrics.psnr(a, b), metrics.ssim(a, b)))
    return EXIT_OK


def cmd_pair(args) -> int:
    scene = Path(args.scene_dir)
    if not scene.is_dir():
        raise NotADirectoryError(f"not a directory: {scene}")
    found = []  # (file name, shape, mean): no pixels are kept
    for f in sorted(p for p in scene.iterdir() if p.is_file()):
        if not _is_ppm(f):
            print(f"warning: {f.name}: not a PPM file, skipped", file=sys.stderr)
            continue
        seen = _scene_image(f, _shape_and_mean)
        if seen is not None:
            found.append((f.name, *seen))
    if len(found) < 2:
        raise ValueError("need at least two decodable PPM images")
    names, shapes, means = zip(*found)
    ui, oi = metrics._extreme_pair(shapes, means)
    print(f"under={names[ui]}")
    print(f"over={names[oi]}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _keep_freed_heap()
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
