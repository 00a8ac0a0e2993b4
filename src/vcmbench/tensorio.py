"""Feature-tensor file format, JSON-lines manifest loaders and file readers.

Tensor files ("VCMF") are little-endian and self-describing: 4 magic
bytes, then a 20-byte header of five u32 fields (version=1, dtype,
C, h, w), then the payload as row-major float32. dtype 0 is float32;
other codes are reserved.

File errors surface as the OSError of the call that touched the file.
A document that does not have the expected shape raises ParseError: the
`parsing` guard turns the errors that malformed data provokes (MALFORMED)
into ParseError naming the file.

Manifests are JSON-lines, one record per line:
    detection    {"image_id", "class_id", "bbox": [x0,y0,x1,y1], "score"}
    ground truth {"image_id", "class_id", "bbox"}
    track        {"frame", "track_id", "class_id", "bbox", "score"}
Each loads into one BoxTable, a column per field and a row per record in
file order; "bbox" becomes the xyxy column. Integer fields must fit in
int64.
"""

from __future__ import annotations

import csv
import json
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import InputError, InvariantViolation, ParseError
from .model import BoxTable, FeatureTensor, check_header_dims

TENSOR_MAGIC = b"VCMF"
TENSOR_VERSION = 1
DTYPE_FLOAT32 = 0
_HEADER = struct.Struct("<5I")  # version, dtype, C, h, w

# What indexing, casting and decoding raise on a document of the wrong
# shape; ValueError covers JSONDecodeError and UnicodeDecodeError.
MALFORMED = (
    AttributeError, IndexError, KeyError, TypeError, ValueError, OverflowError, csv.Error,
)
# ...plus what a model type raises on a parsed value out of its range
MALFORMED_OR_INVALID = (*MALFORMED, InvariantViolation)


def _cause(e: Exception) -> str:
    return f"{type(e).__name__}: {e}"


@contextmanager
def parsing(origin, line=None, errors=MALFORMED):
    """Raise ParseError naming origin, carrying line, for any of errors in the block."""
    try:
        yield
    except errors as e:
        raise ParseError(f"{origin}: {_cause(e)}", line=line) from e


def write_feature_tensor(tensor: FeatureTensor, path) -> None:
    """Write a tensor file; equal tensors always produce identical bytes."""
    values = np.asarray(tensor.values, dtype=np.float32)
    if not np.isfinite(values).all():
        raise InvariantViolation("tensor values must all be finite")
    c, h, w = values.shape
    header = TENSOR_MAGIC + _HEADER.pack(TENSOR_VERSION, DTYPE_FLOAT32, c, h, w)
    Path(path).write_bytes(header + values.astype("<f4", copy=False).tobytes(order="C"))


def read_feature_tensor(path) -> FeatureTensor:
    """Read a tensor file, validating magic, dims, and payload size."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != TENSOR_MAGIC:
        raise InputError(f"{path}: not a feature-tensor file (bad magic)")
    if len(raw) < 4 + _HEADER.size:
        raise InputError(f"{path}: header truncated ({len(raw)} bytes)")
    version, dtype, c, h, w = _HEADER.unpack_from(raw, 4)
    if version != TENSOR_VERSION:
        raise InputError(f"{path}: unsupported version {version}")
    if dtype != DTYPE_FLOAT32:
        raise InputError(f"{path}: unsupported dtype code {dtype}")
    check_header_dims(c, h, w, path)
    n = c * h * w
    expected = 4 + _HEADER.size + 4 * n
    if len(raw) < expected:
        raise InputError(f"{path}: expected {expected} bytes, found {len(raw)}")
    if len(raw) > expected:
        raise InputError(f"{path}: {len(raw) - expected} trailing bytes")
    values = np.frombuffer(raw, dtype="<f4", count=n, offset=4 + _HEADER.size)
    return FeatureTensor(values.reshape(c, h, w))


def read_json(path):
    """One UTF-8 JSON document from a file."""
    with parsing(path):
        return json.loads(Path(path).read_text(encoding="utf-8"))


def _int64(v) -> int:
    v = int(v)
    if not -(1 << 63) <= v < 1 << 63:
        raise OverflowError(f"{v} does not fit in int64")
    return v


def _bbox(v) -> list[float]:
    if not isinstance(v, list) or len(v) != 4:
        raise ValueError(f"bbox must be [x0,y0,x1,y1]: {v!r}")
    return [float(c) for c in v]


# the cast of each record field, applied in a kind's field order
_CASTS = {"image_id": str, "class_id": _int64, "bbox": _bbox, "score": float,
          "frame": _int64, "track_id": _int64}


def _table(path, fields, rows) -> BoxTable:
    columns = dict(zip(fields, zip(*rows) if rows else [()] * len(fields)))
    try:
        return BoxTable(xyxy=columns.pop("bbox"), **columns)
    except InvariantViolation as e:
        raise InvariantViolation(f"{path} record {e.index}: {e}", index=e.index) from e


def _load_records(path, fields) -> BoxTable:
    """One BoxTable of the non-blank lines of a JSON-lines file.

    Lines end at "\n" alone (read_text turns "\r\n" and "\r" into it), so
    U+2028, U+2029 and U+0085 may stand raw inside a JSON string, and
    line numbers count "\n" lines.
    A record that is not valid JSON or lacks a field or has one of the
    wrong type raises ParseError with its 1-based line; a record that
    breaks a BoxTable invariant raises InvariantViolation with its 0-based
    index. Of two bad records the first in the file is reported.
    """
    with parsing(path):
        text = Path(path).read_text(encoding="utf-8")
    casts = [(f, _CASTS[f]) for f in fields]
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            rows.append([cast(rec[f]) for f, cast in casts])
        except MALFORMED as e:
            _table(path, fields, rows)  # an earlier bad record wins
            raise ParseError(f"{path}:{lineno}: {_cause(e)}", line=lineno) from e
    return _table(path, fields, rows)


def load_detections(path) -> BoxTable:
    return _load_records(path, ("image_id", "class_id", "bbox", "score"))


def load_ground_truth(path) -> BoxTable:
    return _load_records(path, ("image_id", "class_id", "bbox"))


def load_tracks(path) -> BoxTable:
    return _load_records(path, ("frame", "track_id", "class_id", "bbox", "score"))
