"""Raw planar YUV 4:2:0 images: file I/O, bilinear scaling, edge padding.

Files are headerless planar frames (Y then Cb then Cr), concatenated for
sequences; dimensions come from the caller. Chroma planes are
ceil(dim/2) in each direction. Sequences stream: `read_yuv420` checks a
file's size up front (`frame_count`) and then reads one frame at a time,
and `write_yuv420` writes each frame as its iterable yields it, so a chain
of per-frame steps between them holds one frame, not the sequence.

Scaling is plain bilinear with half-pixel-centre sampling and
half-away-from-zero rounding, and constant images stay constant at any
factor. `scale_image` states the one rule for the frame coded at each
evaluation scale: resampled below 100%, and at 100% padded to even luma
dims by replicating the last column and row; `crop` undoes the padding.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from ..errors import InputError, InvariantViolation
from ..model import VALID_SCALES


def _ceil_half(v: int) -> int:
    return (v + 1) // 2


@dataclass(frozen=True)
class RawImage:
    """One 8-bit 4:2:0 frame: full-res Y, half-res Cb and Cr."""

    y: np.ndarray
    cb: np.ndarray
    cr: np.ndarray

    def __post_init__(self):
        for name in ("y", "cb", "cr"):
            plane = np.ascontiguousarray(getattr(self, name), dtype=np.uint8)
            plane.flags.writeable = False
            object.__setattr__(self, name, plane)
        h, w = self.y.shape
        expected = (_ceil_half(h), _ceil_half(w))
        if self.cb.shape != expected or self.cr.shape != expected:
            raise InvariantViolation(
                f"chroma must be {expected} for a {w}x{h} luma, "
                f"got cb {self.cb.shape}, cr {self.cr.shape}"
            )

    @property
    def width(self) -> int:
        return self.y.shape[1]

    @property
    def height(self) -> int:
        return self.y.shape[0]


def frame_size_bytes(width: int, height: int) -> int:
    return width * height + 2 * (_ceil_half(width) * _ceil_half(height))


def frame_count(path, width: int, height: int, frames: int | None = None) -> int:
    """The number of frames of a headerless planar 4:2:0 file, read from its size.

    A size of no frames or not a whole number of them, or a count other
    than `frames` when given, raises InputError; a missing file raises the
    OSError of its stat. No byte of the file is read.
    """
    fsize = frame_size_bytes(width, height)
    size = Path(path).stat().st_size
    if size == 0 or size % fsize != 0:
        raise InputError(
            f"{path}: size {size} is not a multiple of the "
            f"{width}x{height} frame size {fsize}"
        )
    if frames is not None and size // fsize != frames:
        raise InputError(f"{path}: expected {frames} frames, found {size // fsize}")
    return size // fsize


def read_yuv420(
    path, width: int, height: int, frames: int | None = None
) -> Iterator[RawImage]:
    """Iterate the frames of a headerless planar 4:2:0 file.

    The file is checked by `frame_count` before this returns; the frames
    are then read lazily, one frame-sized read each, so a caller that
    handles each frame before asking for the next holds one frame at a
    time. A file that comes up short during the reads raises InputError.
    """
    return _read_frames(path, width, height, frame_count(path, width, height, frames))


def _read_frames(path, width: int, height: int, count: int) -> Iterator[RawImage]:
    fsize = frame_size_bytes(width, height)
    ch, cw = _ceil_half(height), _ceil_half(width)
    with open(path, "rb") as fh:
        for i in range(count):
            raw = fh.read(fsize)
            if len(raw) != fsize:
                raise InputError(
                    f"{path}: frame {i} of {count} is short: "
                    f"{len(raw)} of {fsize} bytes"
                )
            buf = np.frombuffer(raw, dtype=np.uint8)
            yield RawImage(
                y=buf[: width * height].reshape(height, width),
                cb=buf[width * height : width * height + ch * cw].reshape(ch, cw),
                cr=buf[width * height + ch * cw :].reshape(ch, cw),
            )


def write_yuv420(frames: RawImage | Iterable[RawImage], path) -> None:
    """Write one frame, or the frames of any iterable as it yields them."""
    if isinstance(frames, RawImage):
        frames = (frames,)
    with open(path, "wb") as fh:
        for f in frames:
            fh.write(f.y)
            fh.write(f.cb)
            fh.write(f.cr)


# output rows per step of the vertical pass: its float64 buffers stay small
_BLOCK_ROWS = 32


@lru_cache(maxsize=64)
def _plan(h: int, w: int, out_h: int, out_w: int):
    """Taps, weights and row blocks of an (h, w) -> (out_h, out_w) resample.

    Made once per shape pair, not per plane of every frame. Returns (x0c,
    x1c, wx, fx, wy, fy, blocks). Each block of up to _BLOCK_ROWS output
    rows is (out rows, the distinct source rows it reads, and the positions
    in those rows of each output row's y0 and y1 taps). The arrays are
    read-only: every caller with these shapes shares them.
    """
    x = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    x0 = np.floor(x).astype(np.intp)
    y0 = np.floor(y).astype(np.intp)
    fx = x - x0
    fy = (y - y0)[:, None]
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)
    blocks = []
    for r in range(0, out_h, _BLOCK_ROWS):
        rs = slice(r, min(r + _BLOCK_ROWS, out_h))
        k = rs.stop - r
        rows, at = np.unique(np.concatenate([y0c[rs], y1c[rs]]), return_inverse=True)
        blocks.append((rs, rows, at[:k], at[k:]))
    arrays = [x0c, x1c, 1 - fx, fx, 1 - fy, fy]
    for a in arrays + [a for b in blocks for a in b[1:]]:
        a.flags.writeable = False
    return (*arrays, tuple(blocks))


def _resample_plane(plane: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample: a horizontal pass, then a vertical one in row blocks.

    Each block runs the horizontal pass once on each distinct source row
    its output rows read, then blends each output row's two rows. Every
    output sample gets the same float64 operations in the same order as a
    four-tap gather at output size, so the bytes are the same; the blocks
    reuse four small buffers instead of allocating whole-plane ones.
    """
    h, w = plane.shape
    if (out_h, out_w) == (h, w):
        return plane.copy()
    x0c, x1c, wx, fx, wy, fy, blocks = _plan(h, w, out_h, out_w)
    n = min(_BLOCK_ROWS, out_h)
    most = max(len(b[1]) for b in blocks)
    rows_h, spare = np.empty((most, out_w)), np.empty((most, out_w))
    top, bottom = np.empty((n, out_w)), np.empty((n, out_w))
    out = np.empty((out_h, out_w), dtype=np.uint8)
    for rs, rows, at0, at1 in blocks:
        m, k = len(rows), len(at0)
        hz, right = rows_h[:m], spare[:m]
        src = plane[rows]
        np.multiply(src[:, x0c], wx, out=hz)
        np.multiply(src[:, x1c], fx, out=right)
        hz += right
        a, b = top[:k], bottom[:k]
        np.take(hz, at0, axis=0, out=a)
        np.take(hz, at1, axis=0, out=b)
        a *= wy[rs]
        b *= fy[rs]
        a += b
        # the weights are non-negative and sum to 1 within rounding, so
        # a + 0.5 lies in [0.5, 256) and the truncating cast to uint8 is
        # floor(a + 0.5): no floor or clip pass is needed
        a += 0.5
        out[rs] = a
    return out


def resize(img: RawImage, width: int, height: int) -> RawImage:
    """Bilinear resample to arbitrary dims (chroma derived as ceil/2)."""
    if width < 1 or height < 1:
        raise InputError(f"target dims must be >= 1: {width}x{height}")
    ch, cw = _ceil_half(height), _ceil_half(width)
    return RawImage(
        y=_resample_plane(img.y, height, width),
        cb=_resample_plane(img.cb, ch, cw),
        cr=_resample_plane(img.cr, ch, cw),
    )


def scaled_dims(width: int, height: int, percent: int) -> tuple[int, int]:
    """The luma dims a width x height frame is coded at, at one evaluation scale.

    Below 100% they are rounded half up and floored at 1; at 100% an odd
    dim is padded to the next even one.
    """
    if percent not in VALID_SCALES:
        raise InputError(f"percent must be one of {VALID_SCALES}: {percent}")
    if percent == 100:
        return width + width % 2, height + height % 2
    return (max(1, (width * percent * 2 + 100) // 200),
            max(1, (height * percent * 2 + 100) // 200))


def scale_image(img: RawImage, percent: int) -> RawImage:
    """The frame coded at one evaluation scale, of exactly its scaled_dims.

    Below 100% it is resampled. At 100% it is not: the last column and row
    are replicated where a luma dim is odd (chroma, ceil(dim/2), is already
    the size of the even dims), and an even frame is returned as it is.
    `crop` to the source dims undoes this.
    """
    width, height = scaled_dims(img.width, img.height, percent)
    if percent != 100:
        return resize(img, width, height)
    if (width, height) == (img.width, img.height):
        return img
    y = np.pad(img.y, ((0, height - img.height), (0, width - img.width)), mode="edge")
    return RawImage(y=y, cb=img.cb, cr=img.cr)


def crop(img: RawImage, width: int, height: int) -> RawImage:
    """The top-left width x height luma of a frame, with its ceil-half chroma."""
    ch, cw = _ceil_half(height), _ceil_half(width)
    return RawImage(y=img.y[:height, :width], cb=img.cb[:ch, :cw], cr=img.cr[:ch, :cw])
