"""Binary PGM / PFM image files and deterministic JSON reports.

PGM files are written as binary "P5" with either 8- or 16-bit samples;
16-bit samples are big-endian per the Netpbm convention, and read_pgm
returns them as read, for load_image to widen and load_mask to test.  PFM
files are little-endian float32 (scale header -1.0) with the customary
bottom-up row order; "Pf" carries one channel, "PF" three.  JSON output is
fully deterministic: sorted keys, two-space indent, trailing newline.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np


def _read_token(stream, path):
    # Skip whitespace and '#' comments, then read one whitespace-delimited token.
    token = b""
    while True:
        ch = stream.read(1)
        if not ch:
            raise ValueError(f"{path}: truncated header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = stream.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def _read_positive_int(stream, path, field):
    token = _read_token(stream, path)
    # int() refuses more than 4,300 digits, and no grid or maxval needs 19
    if not token.isdigit() or len(token) > 18 or int(token) == 0:
        shown = repr(token[:18]) + ("..." if len(token) > 18 else "")
        raise ValueError(f"{path}: {field} must be a positive integer below 10**18, "
                         f"got {shown}")
    return int(token)


def _read_samples(stream, path, shape, dtype):
    """The pixel data of the given shape, read straight into a new writable
    array only after checking that the file holds that many bytes, so a
    header cannot ask for a huge read."""
    size = math.prod(shape) * dtype.itemsize
    left = os.fstat(stream.fileno()).st_size - stream.tell()
    if left >= size:
        data = np.empty(shape, dtype=dtype)
        if stream.readinto(data) == size:
            return data
    raise ValueError(f"{path}: truncated pixel data: the header declares "
                     f"{size} bytes, but {left} remain")


def read_pgm(path):
    """Read a binary PGM; returns (data, maxval) with the samples as read:
    uint8, or big-endian uint16 (">u2")."""
    with open(path, "rb") as fh:
        magic = _read_token(fh, path)
        if magic != b"P5":
            raise ValueError(f"{path}: not a binary PGM file (magic {magic!r})")
        width = _read_positive_int(fh, path, "width")
        height = _read_positive_int(fh, path, "height")
        maxval = _read_positive_int(fh, path, "maxval")
        if maxval >= 65536:
            raise ValueError(f"{path}: invalid maxval {maxval}")
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        data = _read_samples(fh, path, (height, width), dtype)
    # a full-range maxval cannot be exceeded, so 8- and 16-bit files skip the scan
    if maxval < np.iinfo(dtype).max and data.max() > maxval:
        raise ValueError(f"{path}: sample {data.max()} exceeds maxval {maxval}")
    return data, maxval


def write_pgm(path, data, maxval=65535):
    """Write a 2-d integer array as binary PGM."""
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise ValueError("PGM data must be 2-d")
    if not 0 < maxval < 65536:
        raise ValueError(f"invalid maxval {maxval}")
    if arr.min() < 0 or arr.max() > maxval:
        raise ValueError("PGM samples out of range for maxval")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.astype(dtype).tobytes())


def load_image(path):
    """Read a PGM into floats scaled to [0, 1] by its maxval."""
    data, maxval = read_pgm(path)
    values = data.astype(np.float64)
    values /= float(maxval)
    return values


def save_image(path, values, maxval=65535):
    """Quantize a float image (clipped to [0, 1]) into a PGM."""
    arr = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    write_pgm(path, np.rint(arr * maxval).astype(np.uint32), maxval=maxval)


def read_pfm(path):
    """Read a PFM; returns (H, W) or (H, W, 3) float32 in top-down row order."""
    with open(path, "rb") as fh:
        magic = _read_token(fh, path)
        if magic == b"PF":
            channels = 3
        elif magic == b"Pf":
            channels = 1
        else:
            raise ValueError(f"{path}: not a PFM file (magic {magic!r})")
        width = _read_positive_int(fh, path, "width")
        height = _read_positive_int(fh, path, "height")
        token = _read_token(fh, path)
        try:
            scale = float(token)
        except ValueError:
            scale = math.nan
        # the scale's sign selects the byte order, so 0 and nan select none
        if scale == 0.0 or not math.isfinite(scale):
            raise ValueError(f"{path}: scale must be a nonzero finite number, got {token!r}")
        dtype = np.dtype("<f4") if scale < 0 else np.dtype(">f4")
        shape = (height, width, channels) if channels == 3 else (height, width)
        data = _read_samples(fh, path, shape, dtype)
    # one pass flips the rows, byte-swaps a big-endian file and leaves a
    # writable copy of the read-only buffer
    return np.array(data[::-1], dtype=np.float32)


def write_pfm(path, values):
    """Write a float array ((H, W) or (H, W, 3)) as a little-endian PFM."""
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim == 2:
        magic = b"Pf"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"PF"
    else:
        raise ValueError("PFM data must be (H, W) or (H, W, 3)")
    if not np.isfinite(arr).all():
        raise ValueError("PFM data must be finite")
    header = magic + f"\n{arr.shape[1]} {arr.shape[0]}\n-1.0\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(arr[::-1]).astype("<f4").tobytes())


def save_mask(path, mask):
    write_pgm(path, np.where(np.asarray(mask, dtype=bool), 255, 0), maxval=255)


def load_mask(path):
    data, _ = read_pgm(path)
    return data > 0


def write_json(path, payload):
    """Write JSON deterministically: sorted keys, indent 2, trailing newline."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="ascii")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))
