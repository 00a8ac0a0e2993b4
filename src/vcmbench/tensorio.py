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
fractional part (1.7) is a ParseError naming its line. Float fields
(score, the bbox coordinates) take a number or a numeric string ("0.5");
true or false is a ParseError naming its line. An image_id, like a
manifest item's id, is a string as it is or an integer by the integer
rule as its text (1.0 reads as "1"); else a ParseError naming its line.

Each line is decoded by the json module's scanner; only a line the scan
cannot take whole goes to json.loads, which returns its value or raises
the error reported. Each field's column is built by one numpy call when
every value has exactly the type its cast keeps (str image ids, int
integer fields, int or float scores, bboxes as lists of 4 ints or
floats); otherwise that column alone is cast value by value, up to its
first failure.
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
# shape; ValueError covers JSONDecodeError and UnicodeDecodeError, and
# RecursionError is the json scanner's on a value nested too deep.
MALFORMED = (
    AttributeError, IndexError, KeyError, TypeError, ValueError, OverflowError, csv.Error,
    RecursionError,
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
    """Write a tensor file; equal tensors always produce identical bytes.

    The header and the values go to the file one after the other, so a
    float32 tensor is written without a copy.
    """
    values = np.ascontiguousarray(tensor.values, dtype="<f4")
    if not np.isfinite(values).all():
        raise InvariantViolation("tensor values must all be finite")
    c, h, w = values.shape
    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC + _HEADER.pack(TENSOR_VERSION, DTYPE_FLOAT32, c, h, w))
        f.write(values)


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
    with parsing(path, errors=(InvariantViolation,)):  # a NaN or infinite value
        return FeatureTensor(values.reshape(c, h, w))


def read_json(path):
    """One UTF-8 JSON document from a file."""
    with parsing(path):
        return json.loads(Path(path).read_text(encoding="utf-8"))


def as_int64(v) -> int:
    """v as an int64 by the JSON-lines integer rule.

    An integral float or a numeric string reads as that integer; a bool or
    a fractional number raises ValueError, a value outside int64 OverflowError.
    """
    if isinstance(v, bool) or isinstance(v, float) and math.isfinite(v) and not v.is_integer():
        raise ValueError(f"expected an integer: {v!r}")
    v = int(v)
    if not -(1 << 63) <= v < 1 << 63:
        raise OverflowError(f"{v} does not fit in int64")
    return v


def as_id(v) -> str:
    """v as an id: a string as it is, an integer by the JSON-lines integer rule as its text."""
    if not isinstance(v, (str, int, float)):  # a bool is an int, which as_int64 refuses
        raise TypeError(f"expected a string or an integer id: {v!r}")
    return v if isinstance(v, str) else str(as_int64(v))


def as_float64(v) -> float:
    """v as a float64 by the JSON-lines number rule.

    A number or a numeric string reads as that number; a bool raises ValueError.
    """
    if isinstance(v, bool):
        raise ValueError(f"expected a number: {v!r}")
    return float(v)


def _bbox(v) -> list[float]:
    if not isinstance(v, list) or len(v) != 4:
        raise ValueError(f"bbox must be [x0,y0,x1,y1]: {v!r}")
    return [as_float64(c) for c in v]


# json.loads of one line is its scan from the first non-whitespace character
_scan_once = json.scanner.make_scanner(json.JSONDecoder())
_JSON_SPACE = " \t\r"  # "\n" ends a line
_NUMBER = {int, float}


def _floats(values) -> np.ndarray:
    return np.fromiter(map(float, values), dtype=np.float64)


def _ints(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)  # OverflowError beyond int64


def _boxes(col) -> np.ndarray:
    flat = list(chain.from_iterable(col))
    if set(map(len, col)) - {4} or set(map(type, flat)) - _NUMBER:
        raise ValueError("not 4 numbers")
    return _floats(flat).reshape(-1, 4)


# per field: the cast of one value; the value types that cast keeps as they
# are; and the column of such values by one numpy call, equal in values and
# dtype to the column of the cast values (a list of str: BoxTable casts it)
_FIELDS = {"image_id": (as_id, {str}, list), "class_id": (as_int64, {int}, _ints),
           "bbox": (_bbox, {list}, _boxes), "score": (as_float64, _NUMBER, _floats),
           "frame": (as_int64, {int}, _ints), "track_id": (as_int64, {int}, _ints)}


def _column(records, field):
    """The field's column over records, and (k, error) where its cast first fails.

    When every value has a type the cast keeps, one call builds the
    column; otherwise each value is cast in turn, up to the first failure.
    """
    cast, types, build = _FIELDS[field]
    try:
        col = list(map(itemgetter(field), records))
        if not set(map(type, col)) - types:
            return build(col), None
    except MALFORMED:  # a record without the field or not an object; out of int64; not 4 numbers
        pass
    col = []
    for k, record in enumerate(records):
        try:
            col.append(cast(record[field]))
        except MALFORMED as e:
            return build(col), (k, e)
    return build(col), None


def _table(path, columns) -> BoxTable:
    columns = dict(columns)
    try:
        return BoxTable(xyxy=columns.pop("bbox"), **columns)
    except InvariantViolation as e:
        raise InvariantViolation(f"{path} record {e.index}: {e}", index=e.index) from e


def _load_records(path, fields) -> BoxTable:
    """One BoxTable of the non-blank lines of a JSON-lines file.

    Lines end at "\n" alone (read_text turns "\r\n" and "\r" into it), so
    U+2028, U+2029 and U+0085 may stand raw inside a JSON string, and
    line numbers count "\n" lines. A line is blank when str.strip()
    leaves nothing.
    A record that is not valid JSON or lacks a field or has one of the
    wrong type raises ParseError with its 1-based line; a record that
    breaks a BoxTable invariant raises InvariantViolation with its 0-based
    index. Of two bad records the first in the file is reported, and of
    two bad fields of one record the first in the kind's field order.
    """
    with parsing(path):
        text = Path(path).read_text(encoding="utf-8")
    records, linenos, failure = [], [], None
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip(_JSON_SPACE)
        try:
            record, end = _scan_once(stripped, 0)
        except (StopIteration, ValueError, RecursionError):  # ValueError: JSONDecodeError
            end = -1
        if end != len(stripped):
            if not line.strip():
                continue
            try:  # json.loads decides: its value, or the error to report
                record = json.loads(line)
            except MALFORMED as e:
                failure = lineno, e
                break
        records.append(record)
        linenos.append(lineno)
    columns = {}
    for f in fields:
        columns[f], bad = _column(records, f)
        if bad:  # an earlier record than any failure found so far
            k, e = bad
            failure = linenos[k], e
            del records[k:]
    table = _table(path, {f: c[:len(records)] for f, c in columns.items()})
    if failure:  # after the table, so an earlier bad record wins
        lineno, e = failure
        raise ParseError(f"{path}:{lineno}: {_cause(e)}", line=lineno) from e
    return table


def load_detections(path) -> BoxTable:
    return _load_records(path, ("image_id", "class_id", "bbox", "score"))


def load_ground_truth(path) -> BoxTable:
    return _load_records(path, ("image_id", "class_id", "bbox"))


def load_tracks(path) -> BoxTable:
    return _load_records(path, ("frame", "track_id", "class_id", "bbox", "score"))
