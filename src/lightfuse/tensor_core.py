"""Dense tensors, binary PPM image I/O, and the [-1, 1] value mapping.

Conventions used across the package:
  * a "tensor" is a numpy float32 array of shape (height, width, channels),
    row-major with interleaved channels;
  * an 8-bit image is a numpy uint8 array of shape (height, width, 3), or
    a PpmReader of one, with height and width at least 1.

The package's file and image rules have one owner each here:
_check_images8 checks every 8-bit image argument, _open_input opens every
input file and _OutputFile writes every output file (PpmWriter's, and the
CLI's weights and loss curve).

_share_work runs a call's work units on up to CPU_THREADS threads for its
two users: nn_ops._run_chain, the one block loop of every 1x1 chain (both
pointwise_forward and fusion.run_detailnet_fused), and metrics.ssim.
"""

import contextlib
import contextvars
import errno
import math
import os
import stat
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = [
    "PpmParseError",
    "PpmReader",
    "PpmWriter",
    "decode_ppm",
    "encode_ppm",
    "normalize",
    "denormalize",
    "require_finite",
]

_WHITESPACE = b" \t\r\n"
_COMMENT = ord("#")
_HEADER_GAP = _WHITESPACE + b"#"
# Bytes PpmReader reads first for the header; it reads as many again while
# a header runs on past them (a long comment).
_HEADER_READ = 256


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# Threads that share a call's work units, the calling thread included: the
# CPUs this process may use. 1 starts no thread.
CPU_THREADS = _usable_cpus()


def _aligned_empty(shape: tuple, dtype) -> np.ndarray:
    """np.empty(shape, dtype) whose data starts on a 64-byte boundary, a cache line.

    malloc places a block 0, 16, 32 or 48 bytes past a cache line, as the
    heap's history falls, and the block buffers of a 1x1 chain ran slower
    16 or 48 bytes off (one 32 -> 32 step over 4,096 pixels, 2-vCPU x86
    host: 189 ns/px aligned, 227 ns/px 16 bytes off), so fuse's speed moved
    with unrelated allocations. The array is a view into 63 bytes more.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + 63, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def _share_work(units, run, make_buffers) -> None:
    """run(unit, *bufs) for every unit on min(CPU_THREADS, len(units)) threads, each with bufs = make_buffers().

    The calling thread makes every buffer set. It starts one worker fewer
    than that thread count, making each one's set just before starting it,
    then makes its own set last; each thread claims units one at a time,
    in order, from a shared iterator. Sets are never made on a worker:
    glibc would serve them from a second malloc arena, whose freed pages
    the calling thread's later allocations do not reuse, so a process that
    fuses again and again would keep both arenas' pages resident.

    A worker runs in a copy of the caller's context, which carries its
    np.errstate. Every thread is joined before this returns or raises. An
    exception on the calling thread is raised as it is; otherwise the
    first exception of a worker is raised here. Workers stop at their next
    claim once any thread has failed.
    """
    pending, claim, failed = iter(units), threading.Lock(), []

    def run_units(bufs):
        while not failed:
            with claim:
                unit = next(pending, None)
            if unit is None:
                return
            run(unit, *bufs)

    def worker(bufs):
        try:
            run_units(bufs)
        except BaseException as exc:
            failed.append(exc)

    started = []
    try:
        for _ in range(min(CPU_THREADS, len(units)) - 1):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(worker, make_buffers()))
            thread.start()
            started.append(thread)
        run_units(make_buffers())
    except BaseException as exc:
        failed.append(exc)  # the workers stop at their next claim
        raise
    finally:
        for thread in started:
            thread.join()
    if failed:
        raise failed[0]


def _open_input(path, error):
    """path's file, open for unbuffered binary reading; error("file: not a regular file") unless it is one.

    O_NONBLOCK opens a FIFO at once, instead of waiting for a writer, to fail the check.
    """
    file = open(path, "rb", buffering=0, opener=lambda p, f: os.open(p, f | os.O_NONBLOCK))
    if stat.S_ISREG(os.fstat(file.fileno()).st_mode):
        return file
    file.close()
    raise error("file: not a regular file")


class PpmParseError(ValueError):
    """Raised when a PPM byte stream violates the binary P6 format."""


def _parse_header(data: bytes, complete: bool = True) -> tuple:
    """(width, height, payload offset) of the P6 header at the start of data.

    With complete=False, data is only the first bytes of a file: reaching
    its end anywhere in the header raises _ShortHeader, so the caller reads
    more and parses again instead of judging a cut-off token.
    """
    n = len(data)

    def more(pos):  # whether data[pos] exists
        if pos < n or complete:
            return pos < n
        raise _ShortHeader

    if not more(1) or data[:2] != b"P6":
        raise PpmParseError("magic: expected 'P6'")
    if more(2) and data[2] not in _WHITESPACE:
        raise PpmParseError("magic: 'P6' must be followed by whitespace")
    pos = 2

    def token(field):
        nonlocal pos
        while more(pos) and data[pos] in _HEADER_GAP:
            if data[pos] == _COMMENT:
                while more(pos) and data[pos] not in b"\r\n":
                    pos += 1
            pos += 1
        start = pos
        while more(pos) and data[pos] not in _HEADER_GAP:
            pos += 1
        tok = data[start:pos]
        if not tok.isdigit():
            raise PpmParseError(f"{field}: expected an unsigned integer")
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            raise PpmParseError(f"{field}: too many digits") from None

    width = token("width")
    height = token("height")
    maxval = token("maxval")
    if width <= 0:
        raise PpmParseError("width: must be positive")
    if height <= 0:
        raise PpmParseError("height: must be positive")
    if maxval != 255:
        raise PpmParseError(f"maxval: expected 255, got {maxval}")
    if not more(pos) or data[pos] not in _WHITESPACE:
        raise PpmParseError("payload: missing whitespace after maxval")
    return width, height, pos + 1  # exactly one whitespace byte ends the header


class _ShortHeader(Exception):
    """The header runs past the bytes read so far."""


def _check_payload(have: int, need: int) -> None:
    if have < need:
        raise PpmParseError(f"payload: truncated, expected {need} bytes, got {have}")
    if have > need:
        raise PpmParseError(f"payload: {have - need} trailing bytes after pixel data")


def decode_ppm(data: bytes) -> np.ndarray:
    """Decode a binary P6 PPM file into a uint8 (H, W, 3) image.

    Only maxval 255 is accepted. A '#' comment, running to the end of its
    line, may stand wherever whitespace may before the maxval token. Error
    messages name the offending field (magic, width, height, maxval, payload).
    """
    width, height, pos = _parse_header(data)
    need = width * height * 3
    _check_payload(len(data) - pos, need)
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    return pixels.reshape(height, width, 3).copy()


class PpmReader:
    """Rows of a binary P6 PPM file, read from disk on demand.

    Opening parses the header and checks the file size against it, with
    decode_ppm's error messages, before any pixel is read. reader[a:b]
    returns rows [a, b) as a new uint8 (b - a, W, 3) array, and
    reader.readinto(a, b, out) reads them into a caller's; shape, dtype and
    ndim are those of the decoded image, and identity is the file's
    (st_dev, st_ino, st_size, st_mtime_ns) when opened. Each read names its
    file offset (os.preadv), so threads may share a reader. Use as a context
    manager, or call close().
    """

    dtype = np.dtype(np.uint8)
    ndim = 3

    def __init__(self, path):
        self.path = path
        self._file = _open_input(path, PpmParseError)
        try:
            fd = self._fd = self._file.fileno()
            status = os.fstat(fd)
            data = b""
            while True:
                chunk = os.pread(fd, max(_HEADER_READ, len(data)), len(data))
                data += chunk
                try:
                    width, height, self._offset = _parse_header(
                        data, complete=not chunk or len(data) >= status.st_size
                    )
                    break
                except _ShortHeader:
                    continue
            _check_payload(status.st_size - self._offset, width * height * 3)
        except BaseException:
            self._file.close()
            raise
        self.shape = (height, width, 3)
        self.identity = status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns

    def __getitem__(self, rows: slice) -> np.ndarray:
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise TypeError("a PpmReader is indexed by a slice of rows")
        a, b, _ = rows.indices(self.shape[0])
        b = max(a, b)
        return self.readinto(a, b, np.empty((b - a,) + self.shape[1:], dtype=np.uint8))

    def readinto(self, a: int, b: int, out: np.ndarray) -> np.ndarray:
        """Rows [a, b), 0 <= a <= b <= height, read into out, a C-contiguous uint8 (b - a, W, 3) array; returns out."""
        if out.shape != (b - a,) + self.shape[1:] or out.dtype != np.uint8 or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous uint8 {b - a}x{self.shape[1]}x3 array")
        start = self._offset + a * self.shape[1] * 3
        view, got = memoryview(out.reshape(-1)), 0
        while got < out.nbytes:
            n = os.preadv(self._fd, [view[got:]], start + got)
            if not n:
                raise PpmParseError(f"{self.path}: payload: file shrank while being read")
            got += n
        return out

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def encode_ppm(img: np.ndarray) -> bytes:
    """Encode a uint8 (H, W, 3) image (array or PpmReader) as a canonical binary P6 file."""
    _check_images8(img=img)
    return b"".join((_ppm_header(img.shape), np.ascontiguousarray(img[:]).data))


class _NotRegularFile(OSError):
    """An output path that exists but is not a regular file."""

    def __str__(self):
        return f"{self.filename}: {self.strerror}"


class _OutputFile:
    """The file `path` names, replaced whole or not at all.

    Entering the context creates a temporary file beside the file `path`
    names, following symlinks, and returns it open for binary writing.
    Leaving the context without an exception renames it onto the named
    file, so a symlink at `path` keeps pointing at it; leaving it any other
    way deletes it. An existing file keeps its permission bits, but not a
    setuid, setgid or sticky bit, and a read-only one is replaced like any
    other; a new one gets the mode open() would give it. An existing path
    that is not a regular file - a directory, FIFO or device - is refused
    before anything is created or opened. Every error names `path`.
    """

    def __init__(self, path):
        self.path = str(Path(path))

    def __enter__(self):
        with self._naming_path():
            self._target = os.path.realpath(self.path)
            try:
                status = os.stat(self._target)
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                mode = 0o666 & ~umask  # the mode a new file at path gets
            else:
                if not stat.S_ISREG(status.st_mode):
                    raise _NotRegularFile(errno.EINVAL, "not a regular file", self.path)
                mode = stat.S_IMODE(status.st_mode) & 0o777  # setuid, setgid and sticky bits do not carry over
            head, tail = os.path.split(self._target)
            fd, self._tmp = tempfile.mkstemp(prefix=f".{tail}.", suffix=".tmp", dir=head)
        self.file = os.fdopen(fd, "wb")
        os.fchmod(fd, mode)
        return self.file

    def __exit__(self, exc_type, *_):
        self._close(replace=exc_type is None)

    def _close(self, replace: bool) -> None:
        replaced = False
        try:
            self.file.close()
            if replace:
                with self._naming_path():
                    os.replace(self._tmp, self._target)
                replaced = True
        finally:
            if not replaced:
                os.unlink(self._tmp)

    @contextlib.contextmanager
    def _naming_path(self):
        try:
            yield
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, self.path) from None


class PpmWriter(_OutputFile):
    """A binary P6 PPM file written row by row, in order, as an _OutputFile.

    Entering the context writes the header; writer[r0:r1] = rows appends
    uint8 rows [r0, r1). The file is put in place when the context is left
    after the last row, and not at all otherwise.
    """

    dtype = np.dtype(np.uint8)

    def __init__(self, path, shape):
        super().__init__(path)
        self.shape = tuple(shape)
        self._next = 0

    def __enter__(self):
        super().__enter__().write(_ppm_header(self.shape))
        return self

    def __setitem__(self, rows: slice, img: np.ndarray) -> None:
        a, b, _ = rows.indices(self.shape[0])
        if a != self._next or img.shape != (b - a,) + self.shape[1:] or img.dtype != np.uint8:
            raise ValueError(f"expected uint8 rows from {self._next} of a {self.shape} image")
        self.file.write(np.ascontiguousarray(img).data)
        self._next = b

    def __exit__(self, exc_type, *_):
        complete = self._next == self.shape[0]
        self._close(replace=exc_type is None and complete)
        if exc_type is None and not complete:
            raise ValueError(f"{self.path}: {self._next} of {self.shape[0]} rows written")


def _ppm_header(shape) -> bytes:
    return f"P6\n{shape[1]} {shape[0]}\n255\n".encode("ascii")


def normalize(img: np.ndarray) -> np.ndarray:
    """Map an 8-bit image's values onto [-1, 1]: v -> v / 127.5 - 1, float32."""
    _check_images8(img=img)
    t = img[:].astype(np.float32)
    np.divide(t, 127.5, out=t)
    np.subtract(t, 1.0, out=t)
    return t


def denormalize(t: np.ndarray) -> np.ndarray:
    """Invert normalize(): clamp to [-1, 1], scale back, round half away from zero."""
    if not isinstance(t, np.ndarray) or t.ndim != 3 or t.shape[2] != 3:
        raise ValueError("denormalize expects a (H, W, 3) tensor")
    y = t.astype(np.float64)
    np.clip(y, -1.0, 1.0, out=y)
    np.multiply(y, 127.5, out=y)
    np.add(y, 127.5, out=y)
    # y >= 0 after the clamp, so floor(y + 0.5) rounds halves away from zero
    np.add(y, 0.5, out=y)
    np.floor(y, out=y)
    return y.astype(np.uint8)


def require_finite(arr: np.ndarray, what: str = "tensor") -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite values")


def _check_images8(**images) -> None:
    """Raise a ValueError naming the argument unless each image is a uint8 (H, W, 3) array or PpmReader.

    H and W must be at least 1, and two or more images must share them.
    """
    for name, img in images.items():
        if not isinstance(img, (np.ndarray, PpmReader)) or (
            img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] != 3
        ):
            raise ValueError(f"{name} must be a uint8 (H, W, 3) image")
        if img.shape[0] < 1 or img.shape[1] < 1:
            raise ValueError(f"{name} must be at least 1x1, got {img.shape[0]}x{img.shape[1]}")
    sizes = [img.shape[:2] for img in images.values()]
    if any(size != sizes[0] for size in sizes):
        raise ValueError("dimension mismatch: " + " vs ".join(map(str, sizes)))
