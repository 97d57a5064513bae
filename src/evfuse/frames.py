"""Event accumulation into 2D frames and grayscale rendering.

An accumulated frame is a ``(height, width)`` int32 array. Three accumulation
modes are supported:

* ``count``    -- each event adds 1 to its pixel.
* ``polarity`` -- each event adds its polarity (+1/-1) to its pixel.
* ``binary``   -- a pixel becomes 1 once it sees any event.

Rendering maps the integer surface to 8-bit grayscale. For ``polarity`` the
map is symmetric around mid-gray; for ``count`` it is a linear ramp from
black; ``binary`` is plain black/white.
"""

from __future__ import annotations

import io

import numpy as np

from .errors import InvalidInput

ACCUMULATION_MODES = ("count", "polarity", "binary")
DEFAULT_CLIP = 3


def accumulate(events, width: int, height: int, mode: str = "polarity") -> np.ndarray:
    """Rasterize events onto a ``(height, width)`` int32 grid.

    ``events`` is anything with ``x``, ``y`` and ``p`` columns (a slice of an
    EventStream's events). Coordinates must already be in range.
    """
    if mode not in ACCUMULATION_MODES:
        raise ValueError(f"unknown accumulation mode: {mode!r}")
    n_cells = width * height
    if len(events) == 0:
        return np.zeros((height, width), dtype=np.int32)
    flat = np.multiply(events["y"], width, dtype=np.int64)
    flat += events["x"]
    if mode == "count":
        cells = np.bincount(flat, minlength=n_cells)
    elif mode == "polarity":
        cells = np.bincount(flat, weights=events["p"].astype(np.float64), minlength=n_cells)
    else:  # binary
        cells = np.zeros(n_cells, dtype=np.int32)
        cells[flat] = 1
    return cells.astype(np.int32).reshape(height, width)


def render_gray(data: np.ndarray, mode: str = "polarity", clip: int = DEFAULT_CLIP) -> np.ndarray:
    """Map an accumulated int32 surface to uint8 grayscale.

    * ``polarity``: mid-gray 128 is zero; +/-``clip`` events saturate to
      255/1. Values beyond ``clip`` are clamped first.
    * ``count``: 0 is black, ``clip`` or more events is white.
    * ``binary``: any nonzero cell renders white.
    """
    if mode not in ACCUMULATION_MODES:
        raise ValueError(f"unknown accumulation mode: {mode!r}")
    if mode == "binary":
        return np.multiply(data != 0, np.uint8(255))  # bool times uint8 is uint8: no wider temporary
    if clip <= 0:
        raise ValueError("clip must be positive")
    top = int(data.max(initial=0))
    if mode == "count":
        lo, hi, zero, full = 0, min(clip, max(top, 0)), 0.0, 255.0
    else:  # polarity
        hi = min(clip, max(top, -int(data.min(initial=0))))
        lo, zero, full = -hi, 128.0, 127.0
    # The formula runs once per value in [lo, hi] to give a uint8 lookup table.
    # The table is sized by the values present, so a huge ``clip`` never builds
    # a huge one; where it would outgrow the image the formula runs per pixel.
    if hi - lo >= data.size:
        return np.rint(zero + full * np.clip(data, lo, hi) / clip).astype(np.uint8)
    gray = np.rint(zero + full * np.arange(lo, hi + 1) / clip).astype(np.uint8)
    if top - lo > np.iinfo(np.intp).max:  # only a 64-bit surface gets here: its index would wrap
        data = np.minimum(data, hi)
    # One gather clamps too: an index below 0 reads the entry for ``lo``, one past the end that for ``hi``.
    return gray.take(data if lo == 0 else np.subtract(data, lo, dtype=np.intp), mode="clip")


# -- image file I/O ---------------------------------------------------------------


def write_pgm(path: str, image: np.ndarray) -> None:
    """Write an 8-bit grayscale image as binary PGM (P5)."""
    img = np.ascontiguousarray(image, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError("PGM output needs a 2D grayscale image")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Read a binary PGM (P5) file into a uint8 array; any other file is
    :class:`InvalidInput` naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _parse_pgm(data)
    except ValueError as exc:
        raise InvalidInput(f"image {path!r}: {exc}") from None


def _parse_pgm(data: bytes) -> np.ndarray:
    buf = io.BytesIO(data)

    def token() -> bytes:
        tok = b""
        while True:
            c = buf.read(1)
            if c == b"":
                raise ValueError("truncated PGM header")
            if c == b"#":  # comment to end of line
                while c not in (b"\n", b""):
                    c = buf.read(1)
                continue
            if c.isspace():
                if tok:
                    return tok
                continue
            tok += c

    magic = token()
    if magic != b"P5":
        raise ValueError(f"not a binary PGM file (magic {magic!r})")
    width, height, maxval = int(token()), int(token()), int(token())
    if width < 1 or height < 1:
        raise ValueError(f"no pixels in a {width}x{height} PGM")
    if maxval != 255:
        raise ValueError(f"only 8-bit PGM supported (maxval {maxval})")
    raw = buf.read(width * height)
    if len(raw) < width * height:
        raise ValueError("truncated PGM pixel data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(height, width).copy()


def write_image(path: str, image: np.ndarray) -> None:
    """Write a grayscale image; dispatches on extension (.pgm native, .png via Pillow)."""
    lower = path.lower()
    if lower.endswith(".pgm"):
        write_pgm(path, image)
        return
    if lower.endswith(".png"):
        try:
            from PIL import Image
        except ImportError as exc:  # pragma: no cover - depends on extras
            raise InvalidInput(f"image {path!r}: PNG output needs Pillow (pip install evfuse[png])") from exc
        Image.fromarray(np.ascontiguousarray(image, dtype=np.uint8), mode="L").save(path)
        return
    raise ValueError(f"unsupported image extension: {path}")


def read_image(path: str) -> np.ndarray:
    lower = path.lower()
    if lower.endswith(".pgm"):
        return read_pgm(path)
    try:
        from PIL import Image
    except ImportError as exc:  # pragma: no cover
        raise InvalidInput(f"image {path!r}: reading non-PGM images needs Pillow (pip install evfuse[png])") from exc
    with Image.open(path) as img:
        return np.asarray(img.convert("L"), dtype=np.uint8)
