"""Dense tensors, binary PPM image I/O, and the [-1, 1] value mapping.

Conventions used across the package:
  * a "tensor" is a numpy float32 array of shape (height, width, channels),
    row-major with interleaved channels;
  * an 8-bit image is a numpy uint8 array of shape (height, width, 3).
"""

import numpy as np

__all__ = [
    "PpmParseError",
    "decode_ppm",
    "encode_ppm",
    "normalize",
    "denormalize",
    "require_finite",
]

_WHITESPACE = b" \t\r\n"
_COMMENT = ord("#")
_HEADER_GAP = _WHITESPACE + b"#"


class PpmParseError(ValueError):
    """Raised when a PPM byte stream violates the binary P6 format."""


def decode_ppm(data: bytes) -> np.ndarray:
    """Decode a binary P6 PPM file into a uint8 (H, W, 3) image.

    Only maxval 255 is accepted. A '#' comment, running to the end of its
    line, may stand wherever whitespace may before the maxval token. Error
    messages name the offending field (magic, width, height, maxval, payload).
    """
    if len(data) < 2 or data[:2] != b"P6":
        raise PpmParseError("magic: expected 'P6'")
    if len(data) > 2 and data[2] not in _WHITESPACE:
        raise PpmParseError("magic: 'P6' must be followed by whitespace")
    pos = 2

    def token(field):
        nonlocal pos
        while pos < len(data) and data[pos] in _HEADER_GAP:
            if data[pos] == _COMMENT:
                while pos < len(data) and data[pos] not in b"\r\n":
                    pos += 1
            pos += 1
        start = pos
        while pos < len(data) and data[pos] not in _HEADER_GAP:
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
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PpmParseError("payload: missing whitespace after maxval")
    pos += 1  # exactly one whitespace byte separates header and payload

    have = len(data) - pos
    need = width * height * 3
    if have < need:
        raise PpmParseError(f"payload: truncated, expected {need} bytes, got {have}")
    if have > need:
        raise PpmParseError(f"payload: {have - need} trailing bytes after pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    return pixels.reshape(height, width, 3).copy()


def encode_ppm(img: np.ndarray) -> bytes:
    """Encode a uint8 (H, W, 3) image as a canonical binary P6 file."""
    _check_image8(img)
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    return b"".join((header, np.ascontiguousarray(img).data))


def normalize(img: np.ndarray) -> np.ndarray:
    """Map 8-bit values onto [-1, 1]: v -> v / 127.5 - 1, float32."""
    _check_image8(img)
    t = img.astype(np.float32)
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


def _check_image8(img):
    if not isinstance(img, np.ndarray) or img.dtype != np.uint8:
        raise ValueError("expected a uint8 image array")
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("expected image shape (H, W, 3)")
    if img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError("image dimensions must be positive")
