"""Every subcommand on empty, truncated and byte-flipped copies of its inputs.

The CLI contract holds for any input file: `main` returns 0, 2 or 3, and
every non-zero exit prints one `error:` line instead of raising. `run`
covers the TRUNCATE codec, which reads every frame, and `run-null` the
NULL codec with prediction files, which only checks the source's size.
A pack sidecar whose values are swapped for values of other JSON types
is refused naming the sidecar, or unpacks what its values say; a coded
stream, or a tensor file, whose integer header fields are set to edge
values is refused naming that file, or is read; a tensor file holding a
NaN or an infinite value is refused naming that file.
"""

import contextlib
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Gt, det_records, flat_image, gt_records, write_jsonl
from vcmbench.cli import main
from vcmbench.model import FeatureTensor, RDPoint
from vcmbench.pipeline.yuv import write_yuv420
from vcmbench.rdcurves import build_curve, write_curves_csv
from vcmbench.tensorio import write_feature_tensor

# command -> (argv in a directory d, the input files of that argv)
CASES = {
    "eval-det": (
        lambda d: ["eval-det", f"{d}/det.jsonl", f"{d}/gt.jsonl", "--csv", f"{d}/ap.csv"],
        ["det.jsonl", "gt.jsonl"],
    ),
    "eval-det-config": (
        lambda d: ["--config", f"{d}/c.cfg", "eval-det", f"{d}/det.jsonl", f"{d}/gt.jsonl"],
        ["c.cfg"],
    ),
    "eval-track": (
        lambda d: ["eval-track", f"{d}/pred.jsonl", f"{d}/tracks.jsonl"],
        ["pred.jsonl", "tracks.jsonl"],
    ),
    "bdrate": (
        lambda d: ["bdrate", f"{d}/a.csv", f"{d}/b.csv", "--out", f"{d}/bd.csv"],
        ["a.csv", "b.csv"],
    ),
    "pareto": (
        lambda d: ["pareto", f"{d}/a.csv", f"{d}/b.csv", "--out", f"{d}/p.csv",
                   "--svg", f"{d}/p.svg"],
        ["a.csv", "b.csv"],
    ),
    "feature-pack": (
        lambda d: ["feature", "pack", f"{d}/t.vcmf", f"{d}/o.bin", "--reorder"],
        ["t.vcmf"],
    ),
    "feature-unpack": (
        lambda d: ["feature", "unpack", f"{d}/packed.bin", f"{d}/o.vcmf",
                   "--meta", f"{d}/meta.json"],
        ["packed.bin", "meta.json"],
    ),
    "feature-encode": (
        lambda d: ["feature", "encode", f"{d}/t.vcmf", f"{d}/o.vcms", "--reorder"],
        ["t.vcmf"],
    ),
    "feature-decode": (
        lambda d: ["feature", "decode", f"{d}/t.vcms", f"{d}/o.vcmf", "--ref", f"{d}/t.vcmf"],
        ["t.vcms", "t.vcmf"],
    ),
    "run": (
        lambda d: ["run", f"{d}/m.json", "--output-dir", f"{d}/out"],
        ["m.json", "img.yuv", "img.gt.jsonl", "img.det.jsonl"],
    ),
    "run-null": (
        lambda d: ["run", f"{d}/null.json", "--output-dir", f"{d}/out"],
        ["null.json", "img.yuv", "img.gt.jsonl", "img.det.jsonl"],
    ),
    "report": (
        lambda d: ["report", f"{d}/r.json", "--output-dir", f"{d}/tables"],
        ["r.json"],
    ),
}


def _write_inputs(d: Path) -> None:
    gts = [Gt("img", 0, (0, 0, 10, 10)), Gt("img", 1, (20, 20, 40, 40))]
    write_jsonl(gt_records(gts), d / "gt.jsonl")
    write_jsonl(det_records(gts), d / "det.jsonl")
    (d / "c.cfg").write_text("thresholds=0.5,0.75\ninterpolation=101pt  # COCO\n")
    track = {"frame": 0, "track_id": 1, "class_id": 0, "bbox": [0, 0, 5, 5], "score": 1.0}
    write_jsonl([track, dict(track, frame=1)], d / "tracks.jsonl")
    write_jsonl([track, dict(track, frame=1, track_id=2)], d / "pred.jsonl")
    for name, shift in (("a.csv", 1.0), ("b.csv", 0.9)):
        pts = [RDPoint(shift * r, q) for r, q in ((0.1, 0.2), (0.2, 0.4), (0.4, 0.6), (0.8, 0.7))]
        write_curves_csv([build_curve(pts, "c", scale_percent=100)], d / name)

    values = np.random.default_rng(0).normal(0, 1, (4, 3, 5)).astype(np.float32)
    write_feature_tensor(FeatureTensor(values), d / "t.vcmf")
    t = str(d / "t.vcmf")
    for argv in (
        ["feature", "pack", t, f"{d}/packed.bin", "--meta", f"{d}/meta.json"],
        ["feature", "encode", t, f"{d}/t.vcms"],
        ["feature", "encode", t, f"{d}/p.vcms", "--reorder"],  # with a permutation
    ):
        assert main(argv) == 0

    write_yuv420(flat_image(8, 8, y=90), d / "img.yuv")
    box = {"image_id": "img", "class_id": 0, "bbox": [1, 1, 6, 6]}
    write_jsonl([box], d / "img.gt.jsonl")
    write_jsonl([dict(box, score=0.9)], d / "img.det.jsonl")
    manifest = {
        "task": "DETECTION", "scales": [100, 50],
        "codec": {"kind": "TRUNCATE", "qp_list": [0, 4]},
        "items": [{"id": "img", "path": "img.yuv", "width": 8, "height": 8,
                   "ground_truth": "img.gt.jsonl",
                   "predictions": {f"{qp}:{s}": "img.det.jsonl"
                                   for qp in (0, 4) for s in (100, 50)}}],
    }
    (d / "m.json").write_text(json.dumps(manifest))
    assert main(["run", f"{d}/m.json", "--output-dir", f"{d}/run"]) == 0
    # NULL with prediction files: the path that reads no frame of the source
    manifest["codec"]["kind"] = "NULL"
    (d / "null.json").write_text(json.dumps(manifest))
    assert main(["run", f"{d}/null.json", "--output-dir", f"{d}/run-null"]) == 0
    (d / "r.json").write_bytes((d / "run" / "report.json").read_bytes())


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("inputs")
    with contextlib.redirect_stdout(io.StringIO()):
        _write_inputs(d)
    return d


def _mutate(data: bytes, kind: str, at: float, mask: int) -> bytes:
    cut = int(at * len(data))
    if kind == "empty":
        return b""
    if kind == "truncate":
        return data[:cut]
    return data[:cut] + bytes([data[cut] ^ mask]) + data[cut + 1:]


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    pick=st.integers(0, 3),
    kind=st.sampled_from(["empty", "truncate", "flip", "flip", "flip"]),
    at=st.floats(0, 1, exclude_max=True),
    mask=st.integers(1, 255),
)
def test_mutated_inputs_never_raise(case, valid_inputs, tmp_path_factory, pick, kind, at, mask):
    argv, files = CASES[case]
    target = files[pick % len(files)]
    d = tmp_path_factory.mktemp(case)
    for source in valid_inputs.iterdir():
        if source.is_file():
            data = source.read_bytes()
            if source.name == target:
                data = _mutate(data, kind, at, mask)
            (d / source.name).write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv(d))
    assert rc in (0, 2, 3)
    if rc:
        assert err.getvalue().startswith("error: ")


_SIDECAR_KEYS = [("layout",), ("dims",), ("permutation",), ("params",), *(
    ("params", k) for k in ("mean", "std", "z_min", "z_max", "z_th", "bit_depth")
)]
_NUMBER_KEYS = {("params", k) for k in ("z_min", "z_max", "z_th")}


def _unpacked(d: Path, meta: dict) -> tuple[int, str, bytes | None]:
    """`feature unpack` of the packed samples with the sidecar meta: exit code, stderr, output."""
    (d / "meta.json").write_text(json.dumps(meta))
    (d / "o.vcmf").unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(CASES["feature-unpack"][0](d))
    return rc, err.getvalue(), (d / "o.vcmf").read_bytes() if rc == 0 else None


def _replaced(meta: dict, key: tuple, value) -> dict:
    meta = json.loads(json.dumps(meta))
    (meta if len(key) == 1 else meta[key[0]])[key[-1]] = value
    return meta


@pytest.mark.parametrize("value", ["0123", True, 1.5, None, [], {}, [[0]]], ids=repr)
@pytest.mark.parametrize("key", _SIDECAR_KEYS, ids=".".join)
def test_sidecar_value_of_another_type(key, value, valid_inputs, tmp_path):
    (tmp_path / "packed.bin").write_bytes((valid_inputs / "packed.bin").read_bytes())
    meta = json.loads((valid_inputs / "meta.json").read_text())
    assert meta["permutation"] is None  # so a null permutation leaves the output as it is
    rc, err, out = _unpacked(tmp_path, _replaced(meta, key, value))
    if rc:
        assert rc == 2
        assert err.startswith(f"error: {tmp_path / 'meta.json'}: ")
        return
    # a number where the sidecar takes one (a numeric string included) is a valid sidecar
    if key in _NUMBER_KEYS and isinstance(value, (str, float)):
        meta = _replaced(meta, key, float(value))
    assert out == _unpacked(tmp_path, meta)[2]


# the integer fields of p.vcms's header: name -> (offset, struct format), with C = 4
_FLAG_AT = 22 + 8 * 4 + 12  # past magic, version, layout, bit_depth, dims, mean, std, z
_STREAM_FIELDS = {
    "layout": (8, "<B"), "bit_depth": (9, "<B"), "C": (10, "<I"), "h": (14, "<I"),
    "w": (18, "<I"), "perm_flag": (_FLAG_AT, "<B"), "perm_entry": (_FLAG_AT + 1, "<H"),
    "payload_bits": (_FLAG_AT + 1 + 2 * 4, "<Q"),
}


@pytest.mark.parametrize("field, value", [
    (field, value) for field, (_, fmt) in _STREAM_FIELDS.items()
    for value in (0, 1, 3, 255, 65535, 2**32 - 1) if value < 1 << 8 * struct.calcsize(fmt)
])
def test_stream_header_field_at_an_edge_value(field, value, valid_inputs, tmp_path):
    offset, fmt = _STREAM_FIELDS[field]
    raw = bytearray((valid_inputs / "p.vcms").read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    (tmp_path / "t.vcms").write_bytes(raw)
    (tmp_path / "t.vcmf").write_bytes((valid_inputs / "t.vcmf").read_bytes())
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(CASES["feature-decode"][0](tmp_path))
    if rc:
        assert rc == 2
        assert err.getvalue().startswith(f"error: {tmp_path / 't.vcms'}: ")
        assert not (tmp_path / "o.vcmf").exists()


_TENSOR_FIELDS = ("version", "dtype", "C", "h", "w")  # u32 each, after the 4 magic bytes
# command -> the argv case that reads t.vcmf, and the file it writes
_TENSOR_READERS = {
    "encode": ("feature-encode", "o.vcms"), "decode-ref": ("feature-decode", "o.vcmf"),
}


def _run_case(case, d) -> tuple[int, str]:
    """The exit code and stderr of an argv case run in d."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(CASES[case][0](d))
    return rc, err.getvalue()


@pytest.mark.parametrize("reader", sorted(_TENSOR_READERS))
@pytest.mark.parametrize("value", [0, 1, 3, 255, 65535, 2**32 - 1])
@pytest.mark.parametrize("field", _TENSOR_FIELDS)
def test_tensor_header_field_at_an_edge_value(field, value, reader, valid_inputs, tmp_path):
    case, output = _TENSOR_READERS[reader]
    raw = bytearray((valid_inputs / "t.vcmf").read_bytes())
    struct.pack_into("<I", raw, 4 + 4 * _TENSOR_FIELDS.index(field), value)
    (tmp_path / "t.vcmf").write_bytes(raw)
    (tmp_path / "t.vcms").write_bytes((valid_inputs / "t.vcms").read_bytes())
    rc, err = _run_case(case, tmp_path)
    if rc:
        assert rc == 2
        assert err.startswith(f"error: {tmp_path / 't.vcmf'}: ")
        assert not (tmp_path / output).exists()


@pytest.mark.parametrize("reader", sorted(_TENSOR_READERS))
@pytest.mark.parametrize("at", [0, 30, 59], ids=["first", "middle", "last"])  # of 4 x 3 x 5
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_tensor_value_not_finite(value, at, reader, valid_inputs, tmp_path):
    case, output = _TENSOR_READERS[reader]
    raw = bytearray((valid_inputs / "t.vcmf").read_bytes())
    struct.pack_into("<f", raw, 24 + 4 * at, value)  # past the magic and the five u32 fields
    (tmp_path / "t.vcmf").write_bytes(raw)
    (tmp_path / "t.vcms").write_bytes((valid_inputs / "t.vcms").read_bytes())
    assert _run_case(case, tmp_path) == (
        2, f"error: {tmp_path / 't.vcmf'}: InvariantViolation: tensor values must all be finite\n")
    assert not (tmp_path / output).exists()
