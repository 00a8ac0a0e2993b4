"""Domain types shared by all harness modules.

All types are immutable after construction and validate their invariants
eagerly, so a constructed value is always safe to share across threads.
Array-valued fields are numpy arrays with the writeable flag cleared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantViolation


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


# A box's area lies in this range, so an IoU, inter / (area_a + area_b -
# inter), neither overflows nor divides by a subnormal float64.
BOX_AREA = (np.finfo(np.float64).smallest_normal.item(), np.finfo(np.float64).max.item() / 2)


@dataclass(frozen=True, eq=False)
class BoxTable:
    """The boxes of one JSON-lines file as columns; row i is record i.

    xyxy is n x 4 float64 (x_min, y_min, x_max, y_max) in source-image
    pixel coordinates (continuous); every other column has n entries.
    Detections fill image_id, class_id and score; ground truth image_id
    and class_id; tracks frame, track_id, class_id and score. A column
    that a kind lacks is None.

    Each row is checked: its box (finite, then >= 0, then positive
    extent, then an area within BOX_AREA), then image_id non-empty,
    class_id >= 0 (tracks may carry any class), frame >= 0 and score in
    [0,1], where the table has them. The first bad row raises
    InvariantViolation, with `index` set to the row and the message of
    its first failing check.
    """

    xyxy: np.ndarray
    class_id: np.ndarray
    image_id: np.ndarray | None = None
    score: np.ndarray | None = None
    frame: np.ndarray | None = None
    track_id: np.ndarray | None = None

    def __post_init__(self):
        dtypes = {"xyxy": np.float64, "class_id": np.int64, "image_id": object,
                  "score": np.float64, "frame": np.int64, "track_id": np.int64}
        columns = {k: np.asarray(getattr(self, k), dtype=t)
                   for k, t in dtypes.items() if getattr(self, k) is not None}
        b = columns["xyxy"] = columns["xyxy"].reshape(-1, 4)
        if any(len(c) != len(b) for c in columns.values()):
            raise InvariantViolation(f"every column must have {len(b)} rows")
        for k, c in columns.items():
            object.__setattr__(self, k, _freeze(c))
        with np.errstate(over="ignore", invalid="ignore"):  # rows an earlier check fails
            area = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
        checks = [
            (~np.isfinite(b).all(axis=1), "box coordinates must be finite: {box}"),
            ((b < 0).any(axis=1), "box coordinates must be >= 0: {box}"),
            (~((b[:, 2] > b[:, 0]) & (b[:, 3] > b[:, 1])),
             "box must have positive extent: {box}"),
            (~((area >= BOX_AREA[0]) & (area <= BOX_AREA[1])),
             "box area must be in [%r, %r]: {box}" % BOX_AREA),
        ]
        if self.image_id is not None:
            checks.append((self.image_id == "", "image_id must be non-empty"))
        if self.frame is None:
            checks.append((self.class_id < 0, "class_id must be >= 0: {class_id}"))
        else:
            checks.append((self.frame < 0, "frame_index must be >= 0: {frame}"))
        if self.score is not None:
            checks.append((~((self.score >= 0) & (self.score <= 1)),
                           "score must be in [0,1]: {score}"))
        bad = np.logical_or.reduce([mask for mask, _ in checks])
        if bad.any():
            i = int(bad.argmax())
            row = {k: columns[k][i].item() for k in ("class_id", "frame", "score") if k in columns}
            message = next(m for mask, m in checks if mask[i])
            raise InvariantViolation(message.format(box=tuple(b[i].tolist()), **row), index=i)

    def __len__(self) -> int:
        return len(self.xyxy)


# Feature-map element limit for file readers (guards allocation).
DEFAULT_ELEMENT_LIMIT = 1 << 31


def check_header_dims(c: int, h: int, w: int, origin) -> None:
    """Reject (C, h, w) read from a file header: each >= 1, C*h*w within the limit."""
    if min(c, h, w) < 1:
        raise InputError(f"{origin}: invalid dims ({c},{h},{w})")
    if c * h * w > DEFAULT_ELEMENT_LIMIT:
        raise InputError(
            f"{origin}: {c * h * w} elements exceeds limit {DEFAULT_ELEMENT_LIMIT}"
        )


@dataclass(frozen=True)
class FeatureTensor:
    """C x h x w float feature maps, row-major (channel, row, column).

    float32 is the canonical dtype (it is what the file format stores);
    dtype=float64 exists for reconstruction chains that must not add
    representation noise on top of the quantization error.
    """

    values: np.ndarray
    dtype: np.dtype = np.float32

    def __post_init__(self):
        if self.dtype not in (np.float32, np.float64):
            raise InvariantViolation(f"dtype must be float32 or float64: {self.dtype}")
        v = np.asarray(self.values, dtype=self.dtype)
        if v.ndim != 3:
            raise InvariantViolation(f"tensor must be 3-D (C,h,w), got shape {v.shape}")
        if min(v.shape) < 1:
            raise InvariantViolation(f"tensor dims must be >= 1, got {v.shape}")
        if not np.isfinite(v).all():
            raise InvariantViolation("tensor values must all be finite")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape  # type: ignore[return-value]


BIT_DEPTHS = (2, 8)  # of a quantized feature sample


def check_z_th(z_th) -> float:
    """The 2-bit threshold at float32 precision, once it is finite there and > 0."""
    with np.errstate(over="ignore"):  # a value past the float32 range casts to inf
        if 0 < (z_th32 := float(np.float32(z_th))) < math.inf:
            return z_th32
    raise InvariantViolation(f"z_th must be finite at float32 precision and > 0: {z_th}")


@dataclass(frozen=True)
class QuantParams:
    """Per-channel normalization stats plus the global quantizer range.

    mean/std are per channel; z_min/z_max bound the normalized tensor,
    z_th is the 2-bit threshold. Values are stored at float32 precision
    because that is what the coded-stream container serializes.
    """

    mean: np.ndarray
    std: np.ndarray
    z_min: float
    z_max: float
    z_th: float = 1.5
    bit_depth: int = 8

    def __post_init__(self):
        # a value past the float32 range casts to inf, which is rejected below
        with np.errstate(over="ignore"):
            mean = _freeze(np.asarray(self.mean, dtype=np.float32))
            std = _freeze(np.asarray(self.std, dtype=np.float32))
            object.__setattr__(self, "mean", mean)
            object.__setattr__(self, "std", std)
            object.__setattr__(self, "z_min", float(np.float32(self.z_min)))
            object.__setattr__(self, "z_max", float(np.float32(self.z_max)))
        object.__setattr__(self, "z_th", check_z_th(self.z_th))
        if mean.ndim != 1 or std.shape != mean.shape:
            raise InvariantViolation("mean/std must be 1-D and the same length")
        for name in ("mean", "std", "z_min", "z_max"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvariantViolation(f"{name} must be finite at float32 precision")
        if (std < 0).any():
            raise InvariantViolation("std must be >= 0 for every channel")
        if self.z_max < self.z_min:
            raise InvariantViolation(f"z_max < z_min: {self.z_max} < {self.z_min}")
        if self.bit_depth not in BIT_DEPTHS:
            raise InvariantViolation(f"bit_depth must be one of {BIT_DEPTHS}: {self.bit_depth}")

    @property
    def channels(self) -> int:
        return self.mean.shape[0]


LAYOUT_SPATIAL_TILED = "SPATIAL_TILED"
LAYOUT_MULTISCALE = "MULTISCALE"
LAYOUT_TEMPORAL = "TEMPORAL"


def _is_int(v) -> bool:
    """Whether v is a Python or numpy integer; a bool is not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_permutation(perm, c: int) -> tuple[int, ...]:
    """perm as ints, once its entries are integers (not bools or floats) permuting 0..c-1."""
    perm = tuple(perm)
    if not all(map(_is_int, perm)) or sorted(perm) != list(range(c)):
        raise InvariantViolation(f"permutation must be integers permuting 0..{c - 1}: {perm}")
    return tuple(map(int, perm))


def frame_shapes(layout: str, dims) -> list[tuple[int, int]]:
    """The (rows, columns) of each frame a layout packs (C, h, w) samples into.

    TEMPORAL makes C frames of h x w. SPATIAL_TILED makes one 8h x 8w
    frame. MULTISCALE makes one 8h x 12w frame, (h, w) being the finest
    pyramid level; both must be at least 16, so that P6, four halvings
    down, keeps at least 1 px. Both tiled layouts need C = 64.
    """
    dims = tuple(dims)
    if len(dims) != 3 or not all(_is_int(d) and d >= 1 for d in dims):
        raise InvariantViolation(f"dims must be three integers >= 1: {dims}")
    c, h, w = (int(d) for d in dims)
    if layout == LAYOUT_TEMPORAL:
        return [(h, w)] * c
    if layout not in (LAYOUT_SPATIAL_TILED, LAYOUT_MULTISCALE):
        raise InvariantViolation(f"unknown layout {layout!r}")
    if c != 64:
        raise InvariantViolation(f"{layout} requires C = 64, got {c}")
    if layout == LAYOUT_MULTISCALE and min(h, w) < 16:
        raise InvariantViolation(
            f"MULTISCALE needs a finest level of at least 16 x 16 px, got {h} x {w}"
        )
    return [(8 * h, 8 * w if layout == LAYOUT_SPATIAL_TILED else 12 * w)]


def as_samples(a) -> np.ndarray:
    """a as uint8 samples: an integer array with every value in 0..255."""
    a = np.asarray(a)
    if a.dtype == np.uint8:
        return a
    if not np.issubdtype(a.dtype, np.integer):
        raise InvariantViolation(f"samples must be integers, got {a.dtype}")
    if a.size and (a.min() < 0 or a.max() > 255):
        raise InvariantViolation(f"samples must be in 0..255, got {a.min()}..{a.max()}")
    return a.astype(np.uint8)


@dataclass(frozen=True)
class PackedFrameSet:
    """8-bit sample frames produced by one of the packing layouts.

    original_dims are the (C,h,w) of the source sample array; for the
    MULTISCALE layout they are the dims of the finest level, from which
    the coarser levels follow by successive halving. The frames have
    the shapes frame_shapes(layout, original_dims) gives and hold
    as_samples; quant params, if given, cover the C channels.
    """

    frames: tuple[np.ndarray, ...]
    layout: str
    original_dims: tuple[int, int, int]
    channel_permutation: tuple[int, ...] | None = None
    quant: QuantParams | None = None

    def __post_init__(self):
        shapes = frame_shapes(self.layout, self.original_dims)
        frames = tuple(_freeze(as_samples(f)) for f in self.frames)
        if [f.shape for f in frames] != shapes:
            raise InvariantViolation(
                f"{self.layout} dims {self.original_dims} need {len(shapes)} frame(s) "
                f"of {shapes[0][0]} x {shapes[0][1]}"
            )
        object.__setattr__(self, "frames", frames)
        if self.channel_permutation is not None:
            perm = check_permutation(self.channel_permutation, self.original_dims[0])
            object.__setattr__(self, "channel_permutation", perm)
        if self.quant is not None and self.quant.channels != self.original_dims[0]:
            raise InvariantViolation(
                f"quant params cover {self.quant.channels} channels, "
                f"frame set has {self.original_dims[0]}"
            )
        if self.quant is not None and self.quant.bit_depth == 2:
            for f in frames:
                if f.size and f.max() > 3:
                    raise InvariantViolation("bit_depth=2 samples must be in {0,1,2,3}")

    @property
    def sample_count(self) -> int:
        return sum(f.size for f in self.frames)


VALID_SCALES = (25, 50, 75, 100)


def check_unique_scales(scales) -> None:
    """Reject a list of scales that names one scale twice."""
    if len(set(scales)) != len(scales):
        raise InvariantViolation(f"manifest scales have duplicates: {list(scales)}")


def check_scale_percent(scale_percent):
    """Return scale_percent if it is one of VALID_SCALES or None."""
    if scale_percent is not None and scale_percent not in VALID_SCALES:
        raise InvariantViolation(f"scale_percent must be one of {VALID_SCALES} or None")
    return scale_percent


def check_rate(rate) -> None:
    """Refuse a rate that is not finite and > 0."""
    if not (math.isfinite(rate) and rate > 0):
        raise InvariantViolation(f"rate must be finite and > 0: {rate}")


@dataclass(frozen=True)
class RDPoint:
    """One operating point: rate in BPP (images) or bits/s (video)."""

    rate: float
    quality: float

    def __post_init__(self):
        if isinstance(self.rate, bool) or isinstance(self.quality, bool):
            raise InvariantViolation(
                f"rate and quality must be numbers, not bools: {self.rate}, {self.quality}"
            )
        check_rate(self.rate)
        if not math.isfinite(self.quality):
            raise InvariantViolation(f"quality must be finite: {self.quality}")


@dataclass(frozen=True)
class RDCurve:
    """Operating points sorted by strictly ascending rate."""

    label: str
    points: tuple[RDPoint, ...]
    scale_percent: int | None = None
    quality_unit: str = "fraction"

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise InvariantViolation("curve must have at least one point")
        for a, b in zip(pts, pts[1:]):
            if not b.rate > a.rate:
                raise InvariantViolation("curve rates must be strictly increasing")
        object.__setattr__(self, "points", pts)
        check_scale_percent(self.scale_percent)

    @property
    def rates(self) -> np.ndarray:
        return np.array([p.rate for p in self.points], dtype=np.float64)

    @property
    def qualities(self) -> np.ndarray:
        return np.array([p.quality for p in self.points], dtype=np.float64)
