"""Feature-tensor file format, JSON-lines manifest loaders and file readers.

Tensor files ("VCMF") are little-endian and self-describing: 4 magic
bytes, then a 20-byte header of five u32 fields (version=1, dtype,
C, h, w), then the payload as row-major float32. dtype 0 is float32;
other codes are reserved.

read_bytes, write_bytes and read_text turn an OSError into IoFailure, so
a missing file or directory exits 2 like any other bad input.

Manifests are JSON-lines, one record per line:
    detection    {"image_id", "class_id", "bbox": [x0,y0,x1,y1], "score"}
    ground truth {"image_id", "class_id", "bbox"}
    track        {"frame", "track_id", "class_id", "bbox", "score"}
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    DimOverflow,
    InvariantViolation,
    IoFailure,
    ParseError,
    TruncatedFile,
)
from .model import (
    DEFAULT_ELEMENT_LIMIT,
    BoundingBox,
    Detection,
    FeatureTensor,
    GroundTruthBox,
    TrackedBox,
)

TENSOR_MAGIC = b"VCMF"
TENSOR_VERSION = 1
DTYPE_FLOAT32 = 0
_HEADER = struct.Struct("<5I")  # version, dtype, C, h, w


def write_feature_tensor(tensor: FeatureTensor, path) -> None:
    """Write a tensor file; equal tensors always produce identical bytes."""
    values = np.asarray(tensor.values, dtype=np.float32)
    if not np.isfinite(values).all():
        raise InvariantViolation("tensor values must all be finite")
    c, h, w = values.shape
    header = TENSOR_MAGIC + _HEADER.pack(TENSOR_VERSION, DTYPE_FLOAT32, c, h, w)
    write_bytes(path, header + values.astype("<f4", copy=False).tobytes(order="C"))


def read_feature_tensor(path, element_limit: int = DEFAULT_ELEMENT_LIMIT) -> FeatureTensor:
    """Read a tensor file, validating magic, dims, and payload size."""
    raw = read_bytes(path)
    if len(raw) < 4 or raw[:4] != TENSOR_MAGIC:
        raise BadMagic(f"{path}: not a feature-tensor file (bad magic)")
    if len(raw) < 4 + _HEADER.size:
        raise TruncatedFile(f"{path}: header truncated ({len(raw)} bytes)")
    version, dtype, c, h, w = _HEADER.unpack_from(raw, 4)
    if version != TENSOR_VERSION:
        raise BadMagic(f"{path}: unsupported version {version}")
    if dtype != DTYPE_FLOAT32:
        raise BadMagic(f"{path}: unsupported dtype code {dtype}")
    if min(c, h, w) < 1:
        raise TruncatedFile(f"{path}: invalid dims ({c},{h},{w})")
    n = c * h * w
    if n > element_limit:
        raise DimOverflow(f"{path}: {n} elements exceeds limit {element_limit}")
    expected = 4 + _HEADER.size + 4 * n
    if len(raw) < expected:
        raise TruncatedFile(f"{path}: expected {expected} bytes, found {len(raw)}")
    if len(raw) > expected:
        raise TruncatedFile(f"{path}: {len(raw) - expected} trailing bytes")
    values = np.frombuffer(raw, dtype="<f4", count=n, offset=4 + _HEADER.size)
    return FeatureTensor(values.reshape(c, h, w))


def read_bytes(path) -> bytes:
    """A whole file; IoFailure if it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e


def write_bytes(path, data: bytes) -> None:
    """Write a whole file; IoFailure if it cannot be written."""
    try:
        Path(path).write_bytes(data)
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e


def read_text(path) -> str:
    """A whole UTF-8 file; IoFailure if unreadable, ParseError if not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e}") from e


def read_json(path):
    """One JSON document from a file; ParseError if it is not valid JSON."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON: {e}", line=e.lineno) from e


def _read_jsonl(path):
    text = read_text(path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}:{lineno}: invalid JSON: {e.msg}", line=lineno) from e
        if not isinstance(rec, dict):
            raise ParseError(f"{path}:{lineno}: record must be an object", line=lineno)
        yield lineno, rec


def _get(rec, key, lineno, path):
    try:
        return rec[key]
    except KeyError:
        raise ParseError(f"{path}:{lineno}: missing field {key!r}", line=lineno) from None


def _box(rec, lineno, path, index):
    bbox = _get(rec, "bbox", lineno, path)
    if not (isinstance(bbox, (list, tuple)) and len(bbox) == 4):
        raise ParseError(f"{path}:{lineno}: bbox must be [x0,y0,x1,y1]", line=lineno)
    try:
        return BoundingBox(*(float(v) for v in bbox))
    except (TypeError, ValueError) as e:
        raise ParseError(f"{path}:{lineno}: bad bbox values: {e}", line=lineno) from e
    except InvariantViolation as e:
        raise InvariantViolation(f"{path} record {index}: {e}", index=index) from e


def _load_records(path, build):
    out = []
    for lineno, rec in _read_jsonl(path):
        index = len(out)
        try:
            out.append(build(rec, lineno, index))
        except InvariantViolation as e:
            if e.index is None:
                raise InvariantViolation(f"{path} record {index}: {e}", index=index) from e
            raise
    return out


def load_detections(path) -> list[Detection]:
    def build(rec, lineno, index):
        return Detection(
            image_id=str(_get(rec, "image_id", lineno, path)),
            class_id=int(_get(rec, "class_id", lineno, path)),
            box=_box(rec, lineno, path, index),
            score=float(_get(rec, "score", lineno, path)),
        )

    return _load_records(path, build)


def load_ground_truth(path) -> list[GroundTruthBox]:
    def build(rec, lineno, index):
        return GroundTruthBox(
            image_id=str(_get(rec, "image_id", lineno, path)),
            class_id=int(_get(rec, "class_id", lineno, path)),
            box=_box(rec, lineno, path, index),
        )

    return _load_records(path, build)


def load_tracks(path) -> list[TrackedBox]:
    def build(rec, lineno, index):
        return TrackedBox(
            frame_index=int(_get(rec, "frame", lineno, path)),
            track_id=int(_get(rec, "track_id", lineno, path)),
            class_id=int(_get(rec, "class_id", lineno, path)),
            box=_box(rec, lineno, path, index),
            score=float(_get(rec, "score", lineno, path)),
        )

    return _load_records(path, build)
