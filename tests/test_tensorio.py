import json
import struct
from collections import Counter

import numpy as np
import pytest
from oracles import _load_lines

from vcmbench import tensorio
from vcmbench.errors import InputError, InvariantViolation, ParseError
from vcmbench.model import FeatureTensor
from vcmbench.tensorio import (
    _load_records,
    load_detections,
    load_ground_truth,
    load_tracks,
    read_feature_tensor,
    write_feature_tensor,
)


def test_minimal_file_roundtrip(tmp_path):
    t = FeatureTensor(np.array([[[0.0]]], dtype=np.float32))
    p = tmp_path / "t.vcmf"
    write_feature_tensor(t, p)
    back = read_feature_tensor(p)
    assert back.dims == (1, 1, 1)
    assert back.values[0, 0, 0] == 0.0


def test_file_layout_is_magic_plus_20_byte_header_plus_payload(tmp_path):
    t = FeatureTensor(np.array([[[1.5]]], dtype=np.float32))
    p = tmp_path / "t.vcmf"
    write_feature_tensor(t, p)
    raw = p.read_bytes()
    # 4 magic + 20 header (version, dtype, C, h, w as u32) + 4 payload
    assert len(raw) == 4 + 20 + 4
    assert raw[:4] == b"VCMF"
    assert raw[4:8] == (1).to_bytes(4, "little")  # version
    assert raw[8:12] == (0).to_bytes(4, "little")  # dtype float32
    assert raw[12:24] == (1).to_bytes(4, "little") * 3  # C, h, w


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    t = FeatureTensor(rng.standard_normal((3, 4, 5)).astype(np.float32))
    p = tmp_path / "t.vcmf"
    write_feature_tensor(t, p)
    back = read_feature_tensor(p)
    assert back.values.tobytes() == t.values.tobytes()


def test_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(7)
    t = FeatureTensor(rng.standard_normal((2, 3, 3)).astype(np.float32))
    p1, p2 = tmp_path / "a.vcmf", tmp_path / "b.vcmf"
    write_feature_tensor(t, p1)
    write_feature_tensor(t, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_nan_rejected_before_write(tmp_path):
    t = FeatureTensor(np.zeros((1, 1, 1), dtype=np.float32))
    bad = np.array([[[np.nan]]], dtype=np.float32)
    object.__setattr__(t, "values", bad)  # simulate post-construction corruption
    with pytest.raises(InvariantViolation):
        write_feature_tensor(t, tmp_path / "t.vcmf")
    assert not (tmp_path / "t.vcmf").exists()


def test_truncated_after_header(tmp_path):
    t = FeatureTensor(np.ones((2, 2, 2), dtype=np.float32))
    p = tmp_path / "t.vcmf"
    write_feature_tensor(t, p)
    p.write_bytes(p.read_bytes()[:24])  # keep magic + header only
    with pytest.raises(InputError, match="expected 56 bytes, found 24"):
        read_feature_tensor(p)


def test_truncated_mid_header(tmp_path):
    p = tmp_path / "t.vcmf"
    p.write_bytes(b"VCMF\x01\x00")
    with pytest.raises(InputError, match=r"header truncated \(6 bytes\)"):
        read_feature_tensor(p)


def test_bad_magic(tmp_path):
    p = tmp_path / "t.vcmf"
    p.write_bytes(b"NOPE" + bytes(24))
    with pytest.raises(InputError, match=r"not a feature-tensor file \(bad magic\)"):
        read_feature_tensor(p)


def test_dim_overflow_guard(tmp_path):
    # a header claiming 2^32 elements is rejected before the payload is sized
    p = tmp_path / "t.vcmf"
    p.write_bytes(b"VCMF" + struct.pack("<5I", 1, 0, 1 << 11, 1 << 11, 1 << 10))
    with pytest.raises(InputError, match="4294967296 elements exceeds limit 2147483648"):
        read_feature_tensor(p)


def test_trailing_bytes_rejected(tmp_path):
    t = FeatureTensor(np.zeros((1, 1, 1), dtype=np.float32))
    p = tmp_path / "t.vcmf"
    write_feature_tensor(t, p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(InputError, match="1 trailing bytes"):
        read_feature_tensor(p)


def test_float64_tensor_serializes_through_float32(tmp_path):
    # reconstruction chains carry float64; the file format is float32,
    # so one write/read settles the value and is stable afterwards
    t64 = FeatureTensor(np.full((1, 1, 1), 1 / 3, dtype=np.float64), dtype=np.float64)
    p = tmp_path / "t.vcmf"
    write_feature_tensor(t64, p)
    back = read_feature_tensor(p)
    assert back.values.dtype == np.float32
    assert back.values[0, 0, 0] == np.float32(1 / 3)
    write_feature_tensor(back, p)
    assert read_feature_tensor(p).values.tobytes() == back.values.tobytes()


# --- JSON-lines manifests ---

def test_empty_file_gives_empty_list(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text("", encoding="utf-8")
    for load in (load_detections, load_ground_truth, load_tracks):
        table = load(p)
        assert len(table) == 0 and table.xyxy.shape == (0, 4)


def test_single_record(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text(
        json.dumps(
            {"image_id": "a", "class_id": 1, "bbox": [0, 0, 4, 4], "score": 0.25}
        )
        + "\n",
        encoding="utf-8",
    )
    d = load_detections(p)
    assert len(d) == 1
    assert d.image_id.tolist() == ["a"] and d.class_id.tolist() == [1]
    assert d.score.tolist() == [0.25]
    assert d.xyxy.tolist() == [[0.0, 0.0, 4.0, 4.0]]


def test_order_preserved(tmp_path):
    p = tmp_path / "d.jsonl"
    lines = [
        {"image_id": f"img{i}", "class_id": 0, "bbox": [0, 0, 1 + i, 1], "score": 0.5}
        for i in range(5)
    ]
    p.write_text("\n".join(json.dumps(r) for r in lines), encoding="utf-8")
    dets = load_detections(p)
    assert dets.image_id.tolist() == [f"img{i}" for i in range(5)]
    assert dets.xyxy[:, 2].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_score_out_of_range_reports_record_index(tmp_path):
    p = tmp_path / "d.jsonl"
    rows = [
        {"image_id": "a", "class_id": 0, "bbox": [0, 0, 1, 1], "score": 0.5},
        {"image_id": "b", "class_id": 0, "bbox": [0, 0, 1, 1], "score": 1.2},
    ]
    p.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    with pytest.raises(InvariantViolation) as err:
        load_detections(p)
    assert err.value.index == 1


def test_parse_error_reports_line_number(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text(
        json.dumps({"image_id": "a", "class_id": 0, "bbox": [0, 0, 1, 1], "score": 0.5})
        + "\nnot json\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as err:
        load_detections(p)
    assert err.value.line == 2


# JSON allows these raw inside strings, and str.splitlines() breaks lines at them
@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_records_break_lines_only_at_newlines(tmp_path, char, newline):
    p = tmp_path / "gt.jsonl"
    rec = {"image_id": f"cam{char}a", "class_id": 0, "bbox": [0, 0, 1, 1]}
    lines = [json.dumps(rec, ensure_ascii=False), "", json.dumps(rec, ensure_ascii=False)]
    p.write_bytes(newline.join(lines).encode("utf-8"))
    assert load_ground_truth(p).image_id.tolist() == [f"cam{char}a"] * 2
    p.write_bytes(newline.join([*lines, "not json", ""]).encode("utf-8"))
    with pytest.raises(ParseError) as err:
        load_ground_truth(p)
    assert err.value.line == 4


def test_missing_field_is_parse_error(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text(json.dumps({"image_id": "a", "bbox": [0, 0, 1, 1]}) + "\n")
    with pytest.raises(ParseError):
        load_detections(p)


def test_track_records(tmp_path):
    p = tmp_path / "t.jsonl"
    rows = [
        {"frame": 0, "track_id": 7, "class_id": 0, "bbox": [0, 0, 2, 2], "score": 1.0},
        {"frame": 1, "track_id": 7, "class_id": 0, "bbox": [1, 0, 3, 2], "score": 1.0},
    ]
    p.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    tracks = load_tracks(p)
    assert tracks.frame.tolist() == [0, 1]
    assert tracks.track_id.tolist() == [7, 7]


DET = {"image_id": "img", "class_id": 0, "bbox": [0, 0, 1, 1], "score": 0.5}
GT = {"image_id": "img", "class_id": 0, "bbox": [0, 0, 1, 1]}
TRACK = {"frame": 0, "track_id": 1, "class_id": 0, "bbox": [0, 0, 1, 1], "score": 0.5}
LOADERS = {"det": (load_detections, DET), "gt": (load_ground_truth, GT),
           "track": (load_tracks, TRACK)}

# kind, the fields that differ from a good record, and the message (None: accepted)
CONTRACT = {
    "zero-width": ("det", {"bbox": [1, 0, 1, 1]},
                   "box must have positive extent: (1.0, 0.0, 1.0, 1.0)"),
    "inverted": ("det", {"bbox": [0, 2, 1, 1]},
                 "box must have positive extent: (0.0, 2.0, 1.0, 1.0)"),
    "negative": ("det", {"bbox": [-1, 0, 1, 1]},
                 "box coordinates must be >= 0: (-1.0, 0.0, 1.0, 1.0)"),
    "infinite": ("det", {"bbox": [0, 0, float("inf"), 1]},
                 "box coordinates must be finite: (0.0, 0.0, inf, 1.0)"),
    # the box is checked before the record's own fields
    "negative-and-bad-score": ("det", {"bbox": [-1, 0, 1, 1], "score": 2.0},
                               "box coordinates must be >= 0: (-1.0, 0.0, 1.0, 1.0)"),
    "score-1.2": ("det", {"score": 1.2}, "score must be in [0,1]: 1.2"),
    "score-nan": ("det", {"score": float("nan")}, "score must be in [0,1]: nan"),
    "empty-image-id": ("det", {"image_id": ""}, "image_id must be non-empty"),
    "det-class-minus-1": ("det", {"class_id": -1}, "class_id must be >= 0: -1"),
    "gt-class-minus-1": ("gt", {"class_id": -1}, "class_id must be >= 0: -1"),
    "gt-empty-image-id": ("gt", {"image_id": "", "class_id": -1},
                          "image_id must be non-empty"),
    "frame-minus-1": ("track", {"frame": -1}, "frame_index must be >= 0: -1"),
    "track-score-1.2": ("track", {"score": 1.2}, "score must be in [0,1]: 1.2"),
    "score-0": ("det", {"score": 0.0}, None),
    "score-1": ("det", {"score": 1.0}, None),
    "track-class-minus-1": ("track", {"class_id": -1}, None),
}


@pytest.mark.parametrize("case", sorted(CONTRACT))
def test_loader_contract(case, tmp_path):
    kind, change, message = CONTRACT[case]
    load, good = LOADERS[kind]
    p = tmp_path / "r.jsonl"
    p.write_text("".join(json.dumps(r) + "\n" for r in (good, dict(good, **change), good)))
    if message is None:
        table = load(p)
        assert len(table) == 3
        for key, value in change.items():
            assert getattr(table, key)[1] == value
        return
    with pytest.raises(InvariantViolation) as err:
        load(p)
    assert err.value.index == 1
    assert str(err.value) == f"{p} record 1: {message}"


def test_first_bad_record_wins_over_a_later_parse_error(tmp_path):
    p = tmp_path / "d.jsonl"
    lines = [json.dumps(DET), json.dumps(dict(DET, score=1.2)), json.dumps(DET), "not json"]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvariantViolation) as err:
        load_detections(p)
    assert err.value.index == 1


def test_integer_outside_int64_is_parse_error(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text(json.dumps(DET) + "\n" + json.dumps(dict(DET, class_id=10**30)) + "\n")
    with pytest.raises(ParseError) as err:
        load_detections(p)
    assert err.value.line == 2
    assert str(p) in str(err.value) and "int64" in str(err.value)


# --- integer fields ---

INT_FIELDS = [("det", "class_id"), ("gt", "class_id"), ("track", "class_id"),
              ("track", "frame"), ("track", "track_id")]


@pytest.mark.parametrize(("kind", "field"), INT_FIELDS)
@pytest.mark.parametrize("value", [1.7, -0.5, True, False])
def test_fractional_or_bool_integer_field_is_parse_error(tmp_path, kind, field, value):
    load, good = LOADERS[kind]
    p = tmp_path / "r.jsonl"
    p.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{field: value})) + "\n")
    with pytest.raises(ParseError) as err:
        load(p)
    assert err.value.line == 2
    assert str(err.value) == f"{p}:2: ValueError: expected an integer: {value!r}"


@pytest.mark.parametrize(("kind", "field"), INT_FIELDS)
@pytest.mark.parametrize(("value", "loaded"), [(2.0, 2), (-0.0, 0), (1e3, 1000), ("3", 3),
                                               (" 4 ", 4)])
def test_integral_floats_and_numeric_strings_load_as_integers(tmp_path, kind, field, value,
                                                              loaded):
    load, good = LOADERS[kind]
    p = tmp_path / "r.jsonl"
    p.write_text(json.dumps(dict(good, **{field: value})) + "\n")
    column = getattr(load(p), field)
    assert column.dtype == np.int64 and column.tolist() == [loaded]


# --- the column path against the per-line reference ---

FIELDS = {"det": ("image_id", "class_id", "bbox", "score"),
          "gt": ("image_id", "class_id", "bbox"),
          "track": ("frame", "track_id", "class_id", "bbox", "score")}

# values of a type the column path casts one by one, and clean values out of a
# BoxTable range (-1, ""): the reader and the reference must give one outcome
ODD_VALUES = {
    "image_id": [5, 5.0, True, None, 1.5, ["a"], {"a": 1}, 2**63, "", "cam\u2028a"],
    "class_id": [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**30, True, False, 2.0, 1.7, "3",
                 " 4 ", "1.5", "x", None, float("nan"), float("inf"), [1], -1],
    "bbox": [[1, 0, 1, 1], [-1, 0, 1, 1], [0, 0, float("inf"), 1], [0, 0, float("nan"), 1],
             [0, 0, 10**400, 1], [0, 0, 1], [0, 0, 1, 1, 1], [0, 0, "1", 1], [0, 0, True, 1],
             [[0], 0, 1, 1], {"x": 1}, "0,0,1,1", None],
    "score": [1.2, -0.1, float("nan"), float("-inf"), 10**400, "0.5", True, None, 1, 0],
}
ODD_VALUES["frame"] = ODD_VALUES["track_id"] = ODD_VALUES["class_id"]

# lines that are not one clean record: blank in either sense, decorated, not a
# JSON object, not JSON, or a record joined across two lines
ODD_LINES = ["", "   ", "\t", "\x0c", "\u2028", "\x0b", "\u00a0", "[1, 2]", "5", '"a"', "null",
             "{}", "{broken", "NaN", '{"a": [{"b": 1}', '{"c": 2}]}', "\ufeff{}"]


def _clean_record(rng, kind):
    box = sorted(rng.uniform(0, 50, 2).round(2).tolist())
    box = [box[0], box[0] * 0.5, box[1] + 1, int(rng.integers(60, 90))]
    values = {"image_id": f"img{rng.integers(3)}", "class_id": int(rng.integers(0, 4)),
              "bbox": box, "score": [0.25, 1, 0, round(float(rng.random()), 3)][rng.integers(4)],
              "frame": int(rng.integers(0, 5)), "track_id": int(rng.integers(-3, 9))}
    return {f: values[f] for f in FIELDS[kind]}


def _odd_line(rng, kind):
    choice = rng.integers(6)
    rec = _clean_record(rng, kind)
    field = FIELDS[kind][rng.integers(len(FIELDS[kind]))]
    if choice == 0:
        return ODD_LINES[rng.integers(len(ODD_LINES))]
    if choice == 1:
        odd = ODD_VALUES[field]
        return json.dumps(dict(rec, **{field: odd[rng.integers(len(odd))]}))
    if choice == 2:
        return json.dumps({k: v for k, v in rec.items() if k != field})
    if choice == 3:  # a duplicate key: the last value wins
        return json.dumps(rec)[:-1] + f', "{field}": {json.dumps(rec[field])}}}'
    if choice == 4:
        pad = ["  ", "\t", "\x0c", "\u2028", " \t "]
        return pad[rng.integers(len(pad))] + json.dumps(rec) + pad[rng.integers(len(pad))]
    return json.dumps(rec) + " " + json.dumps(rec)


def _outcome(load):
    """A loaded table's columns as (dtype, shape, bytes or values), or the error."""
    try:
        table = load()
    except (ParseError, InvariantViolation) as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "index", None)
    return {
        k: (c.dtype.str, c.shape, c.tolist() if c.dtype == object else c.tobytes())
        for k in ("xyxy", *FIELDS["track"], "image_id")
        if k != "bbox" and (c := getattr(table, k)) is not None
    }


def _load_counting(p, fields):
    """_load_records' outcome, and how often it called each field's cast and json.loads."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(value):
            calls[name] += 1
            return fn(value)
        return wrapper

    table = {f: (counted(f, cast), types, build)
             for f, (cast, types, build) in tensorio._FIELDS.items()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensorio, "_FIELDS", table)
        mp.setattr(json, "loads", counted("json.loads", json.loads))
        return _outcome(lambda: _load_records(p, fields)), calls


def _assert_same_as_per_line(p, kind):
    """Check p loads as the per-line reference does.

    True if it took the column path throughout: no cast of one value, no json.loads.
    """
    fields = FIELDS[kind]
    got, calls = _load_counting(p, fields)
    lines = p.read_text(encoding="utf-8").split("\n")
    assert got == _outcome(lambda: _load_lines(p, lines, fields))
    return not calls


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_columns_equal_the_per_line_path_on_seeded_files(tmp_path, kind):
    rng = np.random.default_rng(list(FIELDS).index(kind))
    fast = slow = 0
    for case in range(300):
        n = int(rng.integers(0, 7))
        lines = [json.dumps(_clean_record(rng, kind)) for _ in range(n)]
        for _ in range(int(rng.integers(0, 3)) if case % 2 else 0):
            lines.insert(int(rng.integers(len(lines) + 1)), _odd_line(rng, kind))
        newline = "\r\n" if rng.random() < 0.3 else "\n"
        p = tmp_path / f"{case}.jsonl"
        p.write_bytes((newline.join(lines) + newline * int(rng.integers(2))).encode("utf-8"))
        if _assert_same_as_per_line(p, kind):
            fast += 1
        else:
            slow += 1
    assert fast > 100 and slow > 50


@pytest.mark.parametrize("kind", sorted(FIELDS))
@pytest.mark.parametrize("line", ODD_LINES)
def test_each_odd_line_gives_the_per_line_outcome(tmp_path, kind, line):
    good = json.dumps(_clean_record(np.random.default_rng(0), kind))
    p = tmp_path / "r.jsonl"
    p.write_text("\n".join([good, line, good]), encoding="utf-8")
    _assert_same_as_per_line(p, kind)


@pytest.mark.parametrize(("kind", "field"), [(k, f) for k in sorted(FIELDS) for f in FIELDS[k]])
def test_each_odd_value_gives_the_per_line_outcome(tmp_path, kind, field):
    rec = _clean_record(np.random.default_rng(0), kind)
    p = tmp_path / "r.jsonl"
    for value in ODD_VALUES[field]:
        p.write_text("\n".join(json.dumps(r) for r in (rec, dict(rec, **{field: value}))))
        _assert_same_as_per_line(p, kind)


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_records_joined_across_lines_give_the_per_line_outcome(tmp_path, kind):
    # '{"a": [{"b": 1}' and '{"c": 2}]}' would join into one valid record
    good = json.dumps(_clean_record(np.random.default_rng(0), kind))
    p = tmp_path / "r.jsonl"
    for cut in range(1, len(good)):
        p.write_text("\n".join([good, good[:cut], good[cut:], good]), encoding="utf-8")
        _assert_same_as_per_line(p, kind)
    p.write_text("\n".join([good, '{"a": [{"b": 1}', '{"c": 2}]}']), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        _load_records(p, FIELDS[kind])
    assert err.value.line == 2


def test_bbox_lengths_that_sum_to_whole_boxes_give_the_per_line_outcome(tmp_path):
    # a 3- and a 5-element bbox hold 8 numbers, two boxes' worth
    p = tmp_path / "r.jsonl"
    boxes = [0, 0, 1], [0, 0, 1, 1, 1]
    p.write_text("".join(json.dumps(dict(DET, bbox=b)) + "\n" for b in boxes))
    _assert_same_as_per_line(p, "det")
    with pytest.raises(ParseError) as err:
        load_detections(p)
    assert err.value.line == 1


def test_clean_files_take_the_column_wise_path(tmp_path):
    # CRLF, blank lines, padding, NaN-free numbers of both types, a duplicate key
    p = tmp_path / "d.jsonl"
    p.write_bytes(b'{"image_id": "a", "class_id": 1, "bbox": [0, 0.5, 4, 4], "score": 1}\r\n'
                  b"\r\n  \t\r\n"
                  b' {"score": 0.5, "class_id": 0, "class_id": 3, "image_id": "b",'
                  b' "bbox": [1.5, 2, 3, 4.25], "extra": null}\t\r\n')
    assert _assert_same_as_per_line(p, "det")
    d = load_detections(p)
    assert d.class_id.tolist() == [1, 3] and d.score.tolist() == [1.0, 0.5]
    assert d.xyxy.tolist() == [[0.0, 0.5, 4.0, 4.0], [1.5, 2.0, 3.0, 4.25]]


def test_one_odd_value_casts_only_its_own_column(tmp_path):
    p = tmp_path / "d.jsonl"
    rows = [dict(DET, image_id=f"img{i}", class_id=i) for i in range(5)]
    rows[3]["class_id"] = "2"
    p.write_text("".join(json.dumps(r) + "\n" for r in rows))
    outcome, calls = _load_counting(p, FIELDS["det"])
    assert calls == {"class_id": 5}
    assert outcome["class_id"][2] == np.array([0, 1, 2, 2, 4], dtype=np.int64).tobytes()
    assert _assert_same_as_per_line(p, "det") is False
