"""Raw planar YUV 4:2:0 images: file I/O, bilinear scaling, edge padding.

Files are headerless planar frames (Y then Cb then Cr), concatenated for
sequences; dimensions come from the caller. Chroma planes are
ceil(dim/2) in each direction.

Scaling is plain bilinear with half-pixel-centre sampling and
half-away-from-zero rounding; 100% is an exact identity and constant
images stay constant at any factor.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def read_yuv420(path, width: int, height: int) -> list[RawImage]:
    """Read all frames of a headerless planar 4:2:0 file."""
    raw = Path(path).read_bytes()
    fsize = frame_size_bytes(width, height)
    if len(raw) == 0 or len(raw) % fsize != 0:
        raise InputError(
            f"{path}: size {len(raw)} is not a multiple of the "
            f"{width}x{height} frame size {fsize}"
        )
    ch, cw = _ceil_half(height), _ceil_half(width)
    frames = []
    for off in range(0, len(raw), fsize):
        buf = np.frombuffer(raw, dtype=np.uint8, count=fsize, offset=off)
        y = buf[: width * height].reshape(height, width)
        cb = buf[width * height : width * height + ch * cw].reshape(ch, cw)
        cr = buf[width * height + ch * cw :].reshape(ch, cw)
        frames.append(RawImage(y=y, cb=cb, cr=cr))
    return frames


def write_yuv420(frames, path) -> None:
    frames = [frames] if isinstance(frames, RawImage) else list(frames)
    with open(path, "wb") as fh:
        for f in frames:
            fh.write(f.y.tobytes())
            fh.write(f.cb.tobytes())
            fh.write(f.cr.tobytes())


# output rows per step of the vertical pass: its float64 buffers stay small
_BLOCK_ROWS = 32


def _resample_plane(plane: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample: a horizontal pass, then a vertical one in row blocks.

    The horizontal pass runs over the source rows when upscaling in y, and
    over each block's gathered y0/y1 rows when downscaling. Every output
    sample gets the same float64 operations in the same order as a
    four-tap gather at output size, so the bytes are the same; the blocks
    reuse three small buffers instead of allocating whole-plane ones.
    """
    h, w = plane.shape
    if (out_h, out_w) == (h, w):
        return plane.copy()
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
    wx, wy = 1 - fx, 1 - fy
    n = min(_BLOCK_ROWS, out_h)
    top, bottom, spare = (np.empty((n, out_w)) for _ in range(3))

    def horizontal(rows, out):
        np.multiply(rows[:, x0c], wx, out=out)
        right = spare[: len(out)]
        np.multiply(rows[:, x1c], fx, out=right)
        out += right

    upscale = out_h >= h
    if upscale:
        src = np.empty((h, out_w))
        for r in range(0, h, n):
            horizontal(plane[r : r + n], src[r : r + n])
    out = np.empty((out_h, out_w), dtype=np.uint8)
    for r in range(0, out_h, n):
        rs = slice(r, r + n)
        k = min(n, out_h - r)
        a, b = top[:k], bottom[:k]
        if upscale:
            np.take(src, y0c[rs], axis=0, out=a)
            np.take(src, y1c[rs], axis=0, out=b)
        else:
            horizontal(plane[y0c[rs]], a)
            horizontal(plane[y1c[rs]], b)
        a *= wy[rs]
        b *= fy[rs]
        a += b
        a += 0.5
        np.floor(a, out=a)
        np.clip(a, 0, 255, out=a)
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


def scale_image(img: RawImage, percent: int) -> RawImage:
    """Scale to one of the four evaluation scales; 100% is the identity."""
    if percent not in VALID_SCALES:
        raise InputError(f"percent must be one of {VALID_SCALES}: {percent}")
    if percent == 100:
        return img
    # round-half-up output dims, floored at 1
    out_w = max(1, (img.width * percent * 2 + 100) // 200)
    out_h = max(1, (img.height * percent * 2 + 100) // 200)
    return resize(img, out_w, out_h)


def pad_to_even(img: RawImage) -> tuple[RawImage, tuple[int, int]]:
    """Replicate the last column/row so both luma dims are even.

    Chroma planes are already ceil(dim/2) and stay valid unchanged.
    Returns the padded image and the (pad_w, pad_h) record crop_pad uses.
    """
    pad_w = img.width % 2
    pad_h = img.height % 2
    if not (pad_w or pad_h):
        return img, (0, 0)
    y = img.y
    if pad_w:
        y = np.concatenate([y, y[:, -1:]], axis=1)
    if pad_h:
        y = np.concatenate([y, y[-1:, :]], axis=0)
    return RawImage(y=y, cb=img.cb, cr=img.cr), (pad_w, pad_h)


def crop_pad(img: RawImage, pad_record: tuple[int, int]) -> RawImage:
    """Exactly invert pad_to_even."""
    pad_w, pad_h = pad_record
    if not (pad_w or pad_h):
        return img
    h = img.height - pad_h
    w = img.width - pad_w
    ch, cw = _ceil_half(h), _ceil_half(w)
    return RawImage(
        y=img.y[:h, :w], cb=img.cb[:ch, :cw], cr=img.cr[:ch, :cw]
    )
