import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from lightfuse import fusion, metrics, model, tensor_core
from lightfuse.tensor_core import (
    PpmParseError,
    PpmReader,
    PpmWriter,
    decode_ppm,
    denormalize,
    encode_ppm,
    normalize,
    require_finite,
)


def test_decode_minimal_black_pixel():
    img = decode_ppm(b"P6\n1 1\n255\n" + bytes([0, 0, 0]))
    assert img.shape == (1, 1, 3)
    assert img.dtype == np.uint8
    assert (img == 0).all()


def test_decode_two_pixels_red_green():
    img = decode_ppm(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
    assert img.shape == (1, 2, 3)
    assert tuple(img[0, 0]) == (255, 0, 0)
    assert tuple(img[0, 1]) == (0, 255, 0)


def test_decode_wrong_magic():
    with pytest.raises(PpmParseError, match="magic"):
        decode_ppm(b"P5\n1 1\n255\n" + bytes(3))


def test_decode_bad_maxval():
    with pytest.raises(PpmParseError, match="maxval"):
        decode_ppm(b"P6\n1 1\n65535\n" + bytes(3))


def test_decode_truncated_payload():
    with pytest.raises(PpmParseError, match="payload"):
        decode_ppm(b"P6\n2 2\n255\n" + bytes(5))


def test_decode_trailing_bytes():
    with pytest.raises(PpmParseError, match="payload"):
        decode_ppm(b"P6\n1 1\n255\n" + bytes(4))


def test_decode_non_numeric_width():
    with pytest.raises(PpmParseError, match="width"):
        decode_ppm(b"P6\nxy 1\n255\n" + bytes(3))


def test_encode_minimal_black_pixel():
    img = np.zeros((1, 1, 3), dtype=np.uint8)
    assert encode_ppm(img) == b"P6\n1 1\n255\n" + bytes([0, 0, 0])


def test_canonical_bytes_round_trip():
    data = b"P6\n2 2\n255\n" + bytes(range(12))
    assert encode_ppm(decode_ppm(data)) == data


def test_noncanonical_header_reencodes_canonically():
    loose = b"P6 2 2 255\n" + bytes(range(12))
    assert encode_ppm(decode_ppm(loose)) == b"P6\n2 2\n255\n" + bytes(range(12))


def test_gradient_image_round_trips_exactly():
    img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    assert (decode_ppm(encode_ppm(img)) == img).all()


def test_random_images_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(30):
        h, w = rng.integers(1, 40, size=2)
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        again = decode_ppm(encode_ppm(img))
        assert (again == img).all()


def test_encode_holds_one_copy_of_the_output():
    img = np.random.default_rng(8).integers(0, 256, size=(1024, 1032, 3), dtype=np.uint8)
    tracemalloc.start()
    try:
        data = encode_ppm(img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data == b"P6\n1032 1024\n255\n" + img.tobytes()
    assert peak <= len(data) + 64 * 1024


# ------------------------------------------------------------ row streaming

def rand_img(h, w, seed):
    return np.random.default_rng(seed).integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def test_reader_rows_are_the_decoded_rows(tmp_path):
    img = rand_img(7, 5, 0)
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P6 # a comment\n5 7\n255\n" + img.tobytes())
    with PpmReader(path) as reader:
        assert (reader.shape, reader.dtype, reader.ndim) == (img.shape, img.dtype, img.ndim)
        for a in range(-2, 10):
            for b in range(-2, 10):
                rows = reader[a:b]
                assert rows.flags.writeable and rows.shape == img[a:b].shape
                assert rows.tobytes() == img[a:b].tobytes()
        with pytest.raises(TypeError, match="slice of rows"):
            reader[0:7:2]
        buf = np.zeros((9, 5, 3), dtype=np.uint8)
        out = buf[:4]
        assert reader.readinto(2, 6, out) is out and out.tobytes() == img[2:6].tobytes()
        for bad in (buf[:3], buf[:4, :4], buf[:4, :, ::-1], buf[:4].astype(np.int16)):
            with pytest.raises(ValueError, match="C-contiguous uint8 4x5x3"):
                reader.readinto(2, 6, bad)


def test_reader_checks_the_file_size_before_reading_pixels(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(encode_ppm(rand_img(4, 4, 1))[:-1])
    with pytest.raises(PpmParseError, match="payload: truncated, expected 48 bytes, got 47"):
        PpmReader(path)
    path.write_bytes(encode_ppm(rand_img(4, 4, 1)) + b"\n")
    with pytest.raises(PpmParseError, match="payload: 1 trailing bytes after pixel data"):
        PpmReader(path)


def test_reader_needs_a_regular_file(tmp_path, fifo_call):
    with pytest.raises(PpmParseError, match="file: not a regular file"):
        PpmReader(os.devnull)
    with pytest.raises(IsADirectoryError):
        PpmReader(tmp_path)
    if hasattr(os, "mkfifo"):  # a pipe with no writer fails at once instead of blocking open()
        fifo = tmp_path / "pipe.ppm"
        os.mkfifo(fifo)
        with pytest.raises(PpmParseError, match="file: not a regular file"):
            fifo_call(fifo, lambda: PpmReader(fifo))


def test_writer_rows_give_the_encoded_file(tmp_path):
    img = rand_img(9, 4, 2)
    path = tmp_path / "out.ppm"
    with PpmWriter(path, img.shape) as out:
        for r0 in range(0, 9, 4):
            out[r0 : r0 + 4] = img[r0 : r0 + 4]
        assert not path.exists()  # the file appears when the writer is left
    assert path.read_bytes() == encode_ppm(img)
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    assert os.listdir(tmp_path) == ["out.ppm"]


def test_writer_failure_leaves_the_directory_as_it_was(tmp_path):
    path = tmp_path / "out.ppm"
    path.write_bytes(b"old")
    img = rand_img(4, 4, 3)
    with pytest.raises(RuntimeError, match="boom"):
        with PpmWriter(path, img.shape) as out:
            out[0:2] = img[0:2]
            raise RuntimeError("boom")
    with pytest.raises(ValueError, match="2 of 4 rows written"):
        with PpmWriter(path, img.shape) as out:
            out[0:2] = img[0:2]
    with pytest.raises(ValueError, match="expected uint8 rows from 0"):
        with PpmWriter(path, img.shape) as out:
            out[1:2] = img[1:2]
    assert os.listdir(tmp_path) == ["out.ppm"]
    assert path.read_bytes() == b"old"


@pytest.mark.parametrize("target", ["missing/out.ppm", "."])
def test_writer_errors_name_the_output_path(target, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    img = rand_img(2, 2, 4)
    with pytest.raises(OSError) as err:
        with PpmWriter(target, img.shape) as out:
            out[0:2] = img
    assert err.value.filename == target
    assert os.listdir(tmp_path) == []


def test_normalize_endpoints():
    img = np.array([[[0, 255, 128]]], dtype=np.uint8)
    t = normalize(img)
    assert t.dtype == np.float32
    assert t[0, 0, 0] == -1.0
    assert t[0, 0, 1] == 1.0
    assert abs(t[0, 0, 2] - (128 / 127.5 - 1)) < 1e-7


def test_normalize_range_is_closed_unit_interval():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(9, 5, 3), dtype=np.uint8)
    t = normalize(img)
    assert t.min() >= -1.0 and t.max() <= 1.0


def test_denormalize_endpoints_and_midpoint():
    t = np.array([[[-1.0, 1.0, 0.0]]], dtype=np.float32)
    img = denormalize(t)
    # 0.0 maps to 127.5, which rounds away from zero to 128
    assert tuple(img[0, 0]) == (0, 255, 128)


def test_denormalize_clamps_out_of_range():
    t = np.array([[[2.0, -3.5, 0.5]]], dtype=np.float32)
    img = denormalize(t)
    assert img[0, 0, 0] == 255
    assert img[0, 0, 1] == 0


BAD_IMAGES = {
    "float": np.zeros((16, 16, 3), dtype=np.float32),
    "2d": np.zeros((16, 16), dtype=np.uint8),
    "4_channels": np.zeros((16, 16, 4), dtype=np.uint8),
    "zero_height": np.zeros((0, 16, 3), dtype=np.uint8),
    "zero_width": np.zeros((16, 0, 3), dtype=np.uint8),
}


def _fuse_images(img):
    return fusion.fuse_images(model.init_weights(model.build_lightfuse(), 0), img, img, 8)


# every function that takes 8-bit images, called on one or two of the image
IMAGE_TAKERS = {
    "normalize": normalize,
    "encode_ppm": encode_ppm,
    "psnr": lambda img: metrics.psnr(img, img),
    "ssim": lambda img: metrics.ssim(img, img),
    "select_extreme_pair": lambda img: metrics.select_extreme_pair([img, img]),
    "fuse_images": _fuse_images,
}


@pytest.mark.parametrize("bad", sorted(BAD_IMAGES))
@pytest.mark.parametrize("taker", sorted(IMAGE_TAKERS))
def test_every_image_taker_rejects_the_same_bad_images(taker, bad):
    with pytest.raises(ValueError, match=r"must be a uint8 \(H, W, 3\) image|must be at least 1x1"):
        IMAGE_TAKERS[taker](BAD_IMAGES[bad])


def test_denormalize_rejects_wrong_channel_count():
    with pytest.raises(ValueError):
        denormalize(np.zeros((2, 2, 4), dtype=np.float32))


def test_normalize_denormalize_identity_on_all_levels():
    img = np.arange(256, dtype=np.uint8).repeat(3).reshape(16, 16, 3)
    assert (denormalize(normalize(img)) == img).all()


def test_require_finite_raises_on_nan():
    bad = np.array([1.0, np.nan], dtype=np.float32)
    with pytest.raises(ValueError, match="non-finite"):
        require_finite(bad, "x")


# ------------------------------------------------------------ header comments

@pytest.mark.parametrize(
    "header",
    [
        b"P6\n# gimp\n2 1\n255\n",
        b"P6 2 # before height\n1\n255\n",
        b"P6\n2 1\n# before maxval\n255\n",
        b"P6\n2 1 #carriage return ends it\r255\n",
        b"P6\n2# right after a token\n1\n255\n",
        b"P6\n#one\n#two\n2\n#three\n1 255\n",
    ],
)
def test_decode_skips_comments_before_each_token(header):
    payload = bytes([255, 0, 0, 0, 255, 0])
    img = decode_ppm(header + payload)
    assert img.tobytes() == payload
    assert img.shape == (1, 2, 3)


def test_decode_hash_byte_in_payload_is_pixel_data():
    payload = b"#\n#" + bytes([35, 10, 0])
    img = decode_ppm(b"P6\n# comment\n2 1\n255\n" + payload)
    assert img.tobytes() == payload


def test_decode_comment_running_to_end_of_file_names_field():
    with pytest.raises(PpmParseError, match="maxval"):
        decode_ppm(b"P6\n2 1\n# no maxval follows")


def test_decode_returns_writable_copy():
    data = b"P6\n1 1\n255\n" + bytes([1, 2, 3])
    img = decode_ppm(data)
    img[0, 0, 0] = 9
    assert data.endswith(bytes([1, 2, 3]))


# -------------------------------------------- in-place value mapping vs seed

def _seed_normalize(img):
    return img.astype(np.float32) / 127.5 - 1.0


def _seed_denormalize(t):
    y = np.clip(t.astype(np.float64), -1.0, 1.0) * 127.5 + 127.5
    return np.floor(y + 0.5).astype(np.uint8)


def _near(values, dtype):
    v = np.asarray(values, dtype=dtype)
    return np.concatenate([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])


def test_normalize_matches_seed_formula_on_all_levels():
    img = np.arange(256, dtype=np.uint8).repeat(3).reshape(16, 16, 3)
    got = normalize(img)
    assert got.dtype == np.float32
    assert got.tobytes() == _seed_normalize(img).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_denormalize_matches_seed_formula_at_edges_and_halves(dtype):
    levels = np.arange(256)
    # t*127.5 + 127.5 = k + 0.5 sits on a rounding half for every k
    halves = (levels - 127) / 127.5
    edges = [-1.0, 1.0, -1.5, 1.5, 0.0, -0.0, 1e30, -1e30]
    levels_as_t = normalize(np.arange(256, dtype=np.uint8).repeat(3).reshape(16, 16, 3))
    t = np.concatenate([_near(halves, dtype), _near(edges, dtype), levels_as_t.ravel().astype(dtype)])
    t = t.reshape(-1, 1, 3)
    before = t.tobytes()
    got = denormalize(t)
    assert got.dtype == np.uint8
    assert got.tobytes() == _seed_denormalize(t).tobytes()
    assert t.tobytes() == before


# ------------------------------------------------------------ shared work


@pytest.mark.parametrize("cpus, n_units", [(1, 20), (3, 20), (4, 2)])
def test_share_work_makes_every_buffer_set_on_the_caller_its_own_last(cpus, n_units):
    # min(CPU_THREADS, len(units)) threads: fewer units than CPUs start fewer workers
    n_threads = min(cpus, n_units)
    caller = threading.current_thread()
    before = threading.active_count()
    live_at_make, ran, lock = [], [], threading.Lock()
    caller_ran = threading.Event()

    def make_buffers():
        assert threading.current_thread() is caller
        live_at_make.append(threading.active_count())
        return (len(live_at_make),)  # the set's number

    def run(unit, number):
        on_caller = threading.current_thread() is caller
        if on_caller:
            caller_ran.set()
        else:
            # a worker holds its unit until the calling thread has run one,
            # so the caller is sure to claim units with its own set and no
            # worker ends before every set is made
            assert caller_ran.wait(10)
        with lock:
            ran.append((unit, on_caller, number))

    with mock.patch.object(tensor_core, "CPU_THREADS", cpus):
        tensor_core._share_work(range(n_units), run, make_buffers)
    # set k is made while k - 1 workers run: each worker's just before it
    # starts, and the caller's last
    assert live_at_make == [before + k for k in range(n_threads)]
    assert threading.active_count() == before
    assert sorted(unit for unit, _, _ in ran) == list(range(n_units))
    # the caller runs with the set made last, each worker with one of its own
    assert {number for _, on_caller, number in ran if on_caller} == {n_threads}
    worker_sets = [number for _, on_caller, number in ran if not on_caller]
    assert set(worker_sets) <= set(range(1, n_threads))
