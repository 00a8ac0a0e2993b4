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
file order; "bbox" becomes the xyxy column. Integer fields (class_id,
frame, track_id) must fit in int64; an integral float (2.0) or a numeric
string ("2") reads as that integer, while true, false or a number with a
fractional part (1.7) is a ParseError naming its line.

A file whose every non-blank line is one JSON object with each field of
exactly the type its cast keeps (str image ids, int integer fields, int or
float scores, bboxes as lists of 4 ints or floats) is read column-wise:
each line is decoded by the json module's scanner and each column built by
one numpy call. Any other file, a malformed one included, is read line by
line with json.loads and a cast per field. Both give the same columns,
and only the second raises, so every error is the per-line path's.
"""

from __future__ import annotations

import csv
import json
import json.scanner
import math
import struct
from contextlib import contextmanager
from itertools import chain
from operator import itemgetter
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
    if isinstance(v, bool) or isinstance(v, float) and math.isfinite(v) and not v.is_integer():
        raise ValueError(f"expected an integer: {v!r}")
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

# json.loads of one line is its scan from the first non-whitespace character
_scan_once = json.scanner.make_scanner(json.JSONDecoder())
_JSON_SPACE = " \t\r"  # "\n" ends a line
_NUMBER = {int, float}


def _floats(values) -> np.ndarray:
    return np.fromiter(map(float, values), dtype=np.float64)


def _ints(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)  # OverflowError beyond int64


def _strs(values) -> np.ndarray:
    return np.array(values, dtype=object)


def _boxes(col) -> np.ndarray:
    flat = list(chain.from_iterable(col))
    if set(map(len, col)) - {4} or set(map(type, flat)) - _NUMBER:
        raise ValueError("not 4 numbers")
    return _floats(flat).reshape(-1, 4)


# per field: the value types its cast keeps as they are, and the column of
# such values, equal in values and dtype to what the cast gives
_COLUMNS = {"image_id": ({str}, _strs), "class_id": ({int}, _ints), "bbox": ({list}, _boxes),
            "score": (_NUMBER, _floats), "frame": ({int}, _ints), "track_id": ({int}, _ints)}


def _fast_columns(lines, fields) -> dict | None:
    """The columns of the non-blank lines, or None unless every record is clean.

    Clean: each line is one JSON object holding every field with a type
    its cast keeps as it is (str image ids, int integer fields within
    int64, int or float scores, 4-element lists of int or float bboxes).
    The columns then equal the per-line path's; anything else, an error
    included, is left to that path and its messages.
    """
    records = []
    for line in lines:
        text = line.strip(_JSON_SPACE)
        if not text:
            continue
        try:
            record, end = _scan_once(text, 0)
        except (StopIteration, ValueError):  # ValueError: JSONDecodeError
            return None
        if end != len(text) or type(record) is not dict:
            return None
        records.append(record)
    columns = {}
    for f in fields:
        types, build = _COLUMNS[f]
        try:
            col = list(map(itemgetter(f), records))
            if set(map(type, col)) - types:
                return None
            columns[f] = build(col)
        except (KeyError, ValueError, OverflowError):  # no field; no 4 numbers; too big
            return None
    return columns


def _table(path, columns) -> BoxTable:
    columns = dict(columns)
    try:
        return BoxTable(xyxy=columns.pop("bbox"), **columns)
    except InvariantViolation as e:
        raise InvariantViolation(f"{path} record {e.index}: {e}", index=e.index) from e


def _rows_table(path, fields, rows) -> BoxTable:
    return _table(path, zip(fields, zip(*rows) if rows else [()] * len(fields)))


def _load_lines(path, lines, fields) -> BoxTable:
    """The per-line path: one json.loads and one cast per field of each record."""
    casts = [(f, _CASTS[f]) for f in fields]
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            rows.append([cast(rec[f]) for f, cast in casts])
        except MALFORMED as e:
            _rows_table(path, fields, rows)  # an earlier bad record wins
            raise ParseError(f"{path}:{lineno}: {_cause(e)}", line=lineno) from e
    return _rows_table(path, fields, rows)


def _load_records(path, fields) -> BoxTable:
    """One BoxTable of the non-blank lines of a JSON-lines file.

    Lines end at "\n" alone (read_text turns "\r\n" and "\r" into it), so
    U+2028, U+2029 and U+0085 may stand raw inside a JSON string, and
    line numbers count "\n" lines.
    A record that is not valid JSON or lacks a field or has one of the
    wrong type raises ParseError with its 1-based line; a record that
    breaks a BoxTable invariant raises InvariantViolation with its 0-based
    index. Of two bad records the first in the file is reported.
    A file of clean records (see _fast_columns) is read column by column;
    any other file takes the per-line path, which gives the same columns.
    """
    with parsing(path):
        text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    columns = _fast_columns(lines, fields)
    if columns is None:
        return _load_lines(path, lines, fields)
    return _table(path, columns)


def load_detections(path) -> BoxTable:
    return _load_records(path, ("image_id", "class_id", "bbox", "score"))


def load_ground_truth(path) -> BoxTable:
    return _load_records(path, ("image_id", "class_id", "bbox"))


def load_tracks(path) -> BoxTable:
    return _load_records(path, ("frame", "track_id", "class_id", "bbox", "score"))
