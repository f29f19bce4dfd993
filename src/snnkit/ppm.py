"""Binary PPM (P6) image IO, maxval 255 only.

The file must begin with exactly `P6`.  Past the magic, header parsing
tolerates `#` comments and arbitrary whitespace, as the format allows, and
every number must be plain ASCII digits.  Anything that is not an 8-bit
binary RGB PPM is rejected.
"""
from __future__ import annotations

import numpy as np


class PpmFormatError(ValueError):
    pass


def _skip_comment(data: bytes, i: int) -> int:
    """Offset of the line end that closes a comment starting at `i`, if any."""
    if data[i:i + 1] == b"#":
        while i < len(data) and data[i] not in (0x0A, 0x0D):
            i += 1
    return i


def _tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First `count` header tokens and the offset one byte past the last.

    A comment may start anywhere in the header, also right after a token,
    and ends that token.
    """
    toks: list[bytes] = []
    i = 0
    n = len(data)
    while len(toks) < count:
        while i < n and data[i:i + 1].isspace():
            i += 1
        if data[i:i + 1] == b"#":
            i = _skip_comment(data, i)
            continue
        start = i
        while i < n and not data[i:i + 1].isspace() and data[i:i + 1] != b"#":
            i += 1
        if start == i:
            raise PpmFormatError("truncated header")
        toks.append(data[start:i])
    # exactly one whitespace byte after maxval; a comment before it is skipped
    i = _skip_comment(data, i)
    if i >= n:
        raise PpmFormatError("truncated file")
    return toks, i + 1


def load_ppm(path) -> np.ndarray:
    """Read a binary RGB image; returns (height, width, 3) uint8."""
    with open(path, "rb") as f:
        data = f.read()
    toks, offset = _tokens(data, 4)
    if not data.startswith(b"P6") or toks[0] != b"P6":
        raise PpmFormatError("not a binary PPM (P6) file")
    try:
        if not all(t.isdigit() for t in toks[1:]):   # ASCII decimal digits only
            raise ValueError
        width, height, maxval = map(int, toks[1:])   # raises past int's digit limit
    except ValueError:
        raise PpmFormatError("malformed header") from None
    if width < 1 or height < 1:
        raise PpmFormatError("image dimensions must be positive")
    if maxval != 255:
        raise PpmFormatError(f"only maxval 255 is supported, got {maxval}")
    need = width * height * 3
    body = data[offset:offset + need]
    if len(body) < need:
        raise PpmFormatError(f"pixel data truncated: need {need} bytes, got {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3).copy()


def save_ppm(path, img: np.ndarray) -> None:
    a = np.asarray(img)
    if a.ndim != 3 or a.shape[2] != 3 or a.dtype != np.uint8:
        raise ValueError("expected a (h, w, 3) uint8 array")
    h, w = a.shape[:2]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(a.tobytes())
