import argparse
import csv
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from conftest import Gt, det_records, flat_image, gt_records, write_jsonl
from vcmbench.cli import _OPTIONS, _value, build_parser, main
from vcmbench.model import RDCurve, RDPoint
from vcmbench.rdcurves import (
    bd_metrics,
    build_curve,
    pareto_front,
    read_curves_csv,
    write_csv,
    write_curves_csv,
)
from vcmbench.report import _bd_rows
from vcmbench.tensorio import read_feature_tensor, write_feature_tensor
from vcmbench.model import FeatureTensor
from vcmbench.pipeline.yuv import write_yuv420

GOLDEN = Path(__file__).parent / "golden"


def _gts():
    return [Gt("img", 0, (0, 0, 10, 10)), Gt("img", 1, (20, 20, 40, 40))]


def test_eval_det_perfect(tmp_path, capsys):
    gts = _gts()
    write_jsonl(gt_records(gts), tmp_path / "gt.jsonl")
    write_jsonl(det_records(gts), tmp_path / "det.jsonl")
    rc = main(["eval-det", str(tmp_path / "det.jsonl"), str(tmp_path / "gt.jsonl")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mAP"] == 1.0


def test_eval_det_empty_detections(tmp_path, capsys):
    gts = _gts()
    write_jsonl(gt_records(gts), tmp_path / "gt.jsonl")
    (tmp_path / "det.jsonl").write_text("", encoding="utf-8")
    rc = main(["eval-det", str(tmp_path / "det.jsonl"), str(tmp_path / "gt.jsonl")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["mAP"] == 0.0


def test_eval_det_malformed_line_exits_2(tmp_path, capsys):
    gts = _gts()
    write_jsonl(gt_records(gts), tmp_path / "gt.jsonl")
    (tmp_path / "det.jsonl").write_text("{broken\n", encoding="utf-8")
    rc = main(["eval-det", str(tmp_path / "det.jsonl"), str(tmp_path / "gt.jsonl")])
    assert rc == 2
    err = capsys.readouterr().err
    assert ":1:" in err  # line number surfaces


def test_eval_det_class_id_outside_int64_exits_2_naming_the_file(tmp_path, capsys):
    # accepted before box tables, which hold integer fields as int64
    argv = _eval_det(tmp_path, class_id=10**30)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'det.jsonl'}:1: OverflowError")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [1.7, True])
def test_eval_det_fractional_or_bool_class_id_exits_2_naming_the_line(tmp_path, capsys, value):
    # int() alone truncates 1.7 to class 1 and reads true as class 1
    assert main(_eval_det(tmp_path, class_id=value)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'det.jsonl'}:1: ValueError: expected an integer: {value!r}\n"


def test_run_fractional_class_id_exits_2_naming_the_line(tmp_path, capsys):
    argv = ["run", _manifest(tmp_path, det={"class_id": 1.7}), "--output-dir",
            str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"{tmp_path / 'det.jsonl'}:1: ValueError: expected an integer: 1.7" in (
        capsys.readouterr().err
    )


def test_eval_det_csv_output(tmp_path, capsys):
    gts = _gts()
    write_jsonl(gt_records(gts), tmp_path / "gt.jsonl")
    write_jsonl(det_records(gts), tmp_path / "det.jsonl")
    rc = main([
        "eval-det", str(tmp_path / "det.jsonl"), str(tmp_path / "gt.jsonl"),
        "--csv", str(tmp_path / "ap.csv"),
    ])
    assert rc == 0
    text = (tmp_path / "ap.csv").read_text()
    assert text.startswith("class_id,ap\n")
    assert "mAP,1.0" in text


def test_eval_track(tmp_path, capsys):
    rows = [
        {"frame": 0, "track_id": 1, "class_id": 0, "bbox": [0, 0, 5, 5], "score": 1.0},
        {"frame": 1, "track_id": 1, "class_id": 0, "bbox": [0, 0, 5, 5], "score": 1.0},
    ]
    write_jsonl(rows, tmp_path / "gt.jsonl")
    pred = [dict(r, track_id=10 + i) for i, r in enumerate(rows)]  # one id switch
    write_jsonl(pred, tmp_path / "pred.jsonl")
    rc = main(["eval-track", str(tmp_path / "pred.jsonl"), str(tmp_path / "gt.jsonl")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["IDSW"] == 1
    assert out["MOTA"] == pytest.approx(0.5)


def _write_curve_csv(path, rates, quals, label="c", scale=None):
    pts = [RDPoint(float(r), float(q)) for r, q in zip(rates, quals)]
    write_curves_csv([build_curve(pts, label, scale_percent=scale)], path)


def test_bdrate_identical_files(tmp_path, capsys):
    rates = [0.1, 0.2, 0.4, 0.8]
    quals = [0.2, 0.4, 0.6, 0.8]
    _write_curve_csv(tmp_path / "a.csv", rates, quals)
    _write_curve_csv(tmp_path / "b.csv", rates, quals)
    rc = main(["bdrate", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["bd_rate_percent"] == pytest.approx(0.0, abs=1e-9)


def test_bdrate_constant_ratio(tmp_path, capsys):
    rates = np.array([0.1, 0.2, 0.4, 0.8])
    quals = [0.2, 0.4, 0.6, 0.8]
    _write_curve_csv(tmp_path / "a.csv", rates, quals)
    _write_curve_csv(tmp_path / "b.csv", 0.9 * rates, quals)
    rc = main(["bdrate", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
               "--out", str(tmp_path / "bd.csv")])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["bd_rate_percent"] == pytest.approx(-10.0, abs=1e-6)
    table = (tmp_path / "bd.csv").read_text()
    assert table.startswith("anchor,test,scale,bd_rate_percent,bd_quality\n")
    written_bd = float(table.splitlines()[1].split(",")[3])
    assert written_bd == pytest.approx(-10.0, abs=1e-6)


def test_bdrate_out_quotes_labels_with_commas(tmp_path):
    rates = [0.1, 0.2, 0.4, 0.8]
    _write_curve_csv(tmp_path / "a.csv", rates, [0.2, 0.4, 0.6, 0.8], label="a,b")
    rc = main(["bdrate", str(tmp_path / "a.csv"), str(tmp_path / "a.csv"),
               "--out", str(tmp_path / "bd.csv")])
    assert rc == 0
    with open(tmp_path / "bd.csv", newline="", encoding="utf-8") as fh:
        header, row = csv.reader(fh)
    assert len(row) == len(header) == 5
    assert row[:3] == ["a,b", "a,b", ""]


def test_bdrate_on_a_quality_plateau_gives_the_report_row(tmp_path, capsys):
    # the anchor's quality stalls at 0.7: every command compares the curves' fronts
    anchor = build_curve([RDPoint(r, q) for r, q in [(0.1, 0.5), (0.2, 0.7), (0.3, 0.7),
                                                     (0.4, 0.8), (0.5, 0.9)]],
                         "scale100", scale_percent=100)
    test = build_curve([RDPoint(r, q) for r, q in [(0.08, 0.5), (0.16, 0.65), (0.24, 0.75),
                                                   (0.32, 0.85), (0.4, 0.9)]],
                       "scale75", scale_percent=75)
    write_curves_csv([anchor], tmp_path / "a.csv")
    write_curves_csv([test], tmp_path / "t.csv")
    assert main(["bdrate", str(tmp_path / "a.csv"), str(tmp_path / "t.csv")]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    (expected,) = [r for r in _bd_rows([anchor, test], pareto_front([anchor, test]))
                   if r["anchor"] == "scale100"]
    assert expected["error"] is None
    assert {k: row[k] for k in ("anchor", "test", "bd_rate_percent", "bd_quality")} == {
        k: expected[k] for k in ("anchor", "test", "bd_rate_percent", "bd_quality")
    }


def test_bdrate_no_overlap_exits_2(tmp_path, capsys):
    _write_curve_csv(tmp_path / "a.csv", [0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4])
    _write_curve_csv(tmp_path / "b.csv", [0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8])
    rc = main(["bdrate", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])
    assert rc == 2
    assert "overlap" in capsys.readouterr().err


def _scaled_curves(path, *curves) -> str:
    """One CSV of (label, scale, rate factor) curves on one quality ladder."""
    ladder = [(0.1, 0.2), (0.2, 0.4), (0.4, 0.6), (0.8, 0.8)]
    write_curves_csv([build_curve([RDPoint(f * r, q) for r, q in ladder], label, scale_percent=s)
                      for label, s, f in curves], path)
    return str(path)


def test_bdrate_pairs_curves_by_scale_and_skips_unmatched_scales(tmp_path, capsys):
    anchor = _scaled_curves(tmp_path / "a.csv", ("a100", 100, 1), ("a50", 50, 1), ("a25", 25, 1))
    test = _scaled_curves(tmp_path / "t.csv", ("t50", 50, 0.8), ("t100", 100, 0.9),
                          ("t75", 75, 0.5))
    assert main(["bdrate", anchor, test]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["anchor"], r["test"], r["scale"]) for r in rows] == [
        ("a100", "t100", 100), ("a50", "t50", 50)
    ]
    assert [r["bd_rate_percent"] for r in rows] == pytest.approx([-10.0, -20.0], abs=1e-6)


def test_bdrate_with_no_matching_scale_exits_2(tmp_path, capsys):
    anchor = _scaled_curves(tmp_path / "a.csv", ("a100", 100, 1), ("a50", 50, 1))
    test = _scaled_curves(tmp_path / "t.csv", ("t75", 75, 1), ("t25", 25, 1))
    assert main(["bdrate", anchor, test]) == 2
    assert capsys.readouterr().err == (
        "error: no curves with matching scales between the two files\n"
    )


@pytest.mark.parametrize("side", ["anchor", "test"])
def test_bdrate_with_two_curves_at_one_scale_exits_2(side, tmp_path, capsys):
    # paired by scale, one of the two curves would never be compared
    one = _scaled_curves(tmp_path / "one.csv", ("a100", 100, 1), ("a50", 50, 1))
    two = _scaled_curves(tmp_path / "two.csv", ("x", 100, 0.9), ("y", 100, 0.8))
    argv = ["bdrate", one, two] if side == "test" else ["bdrate", two, one]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {two}: two curves at scale 100\n"


def test_curve_csv_with_a_byte_order_mark(tmp_path, capsys):
    # Excel writes UTF-8 CSV with a BOM before the header
    plain = tmp_path / "a.csv"
    _write_curve_csv(plain, [0.1, 0.2, 0.4, 0.8], [0.2, 0.4, 0.6, 0.7])
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert main(["bdrate", str(plain), str(plain)]) == 0
    expected = capsys.readouterr().out
    assert main(["bdrate", str(bom), str(bom)]) == 0
    assert capsys.readouterr().out == expected
    assert main(["pareto", str(bom), "--out", str(tmp_path / "front.csv")]) == 0


@pytest.mark.parametrize("row, cause", [
    ("0.1,0.5,a", "3 fields, the header has 4"),
    ("0.1,0.5,a,,x", "5 fields, the header has 4"),
    ("abc,0.5,a,100", "ValueError: could not convert string to float: 'abc'"),
    ("0.1,0.5,a,1.5", "ValueError: invalid literal for int() with base 10: '1.5'"),
    ("-1,0.5,a,", "InvariantViolation: rate must be finite and > 0: -1.0"),
    ("0.2,nan,a,", "InvariantViolation: quality must be finite: nan"),
    ("0.1,0.5,a,37",
     "InvariantViolation: scale_percent must be one of (25, 50, 75, 100) or None"),
])
def test_curve_csv_bad_row_exits_2_naming_the_line(tmp_path, capsys, row, cause):
    path = tmp_path / "b.csv"
    path.write_text(f"rate,quality,label,scale\n0.2,0.6,a,\n{row}\n", encoding="utf-8")
    for argv in (["bdrate", str(path), str(path)],
                 ["pareto", str(path), "--out", str(tmp_path / "front.csv")]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}:3: {cause}\n"
    assert not (tmp_path / "front.csv").exists()


def test_pareto_single_curve(tmp_path, capsys):
    _write_curve_csv(tmp_path / "a.csv", [0.1, 0.2, 0.3], [0.5, 0.4, 0.6])
    out = tmp_path / "front.csv"
    rc = main(["pareto", str(tmp_path / "a.csv"), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.count("\n") == 3  # header + two surviving points


def test_pareto_min_quality_above_everything_exits_2(tmp_path, capsys):
    _write_curve_csv(tmp_path / "a.csv", [0.1, 0.2], [0.5, 0.6])
    rc = main([
        "pareto", str(tmp_path / "a.csv"), "--min-quality", "0.9",
        "--out", str(tmp_path / "front.csv"),
    ])
    assert rc == 2


def test_pareto_svg_golden(tmp_path):
    # four fixed scale curves; the golden file was generated by this same
    # code path and reviewed by eye
    data = {
        100: ([0.25, 0.5, 1.0, 2.0], [0.55, 0.70, 0.80, 0.85]),
        75: ([0.18, 0.36, 0.7, 1.4], [0.50, 0.68, 0.78, 0.82]),
        50: ([0.10, 0.20, 0.4, 0.8], [0.40, 0.60, 0.72, 0.76]),
        25: ([0.05, 0.10, 0.2, 0.4], [0.25, 0.45, 0.58, 0.62]),
    }
    paths = []
    for scale, (rates, quals) in data.items():
        p = tmp_path / f"s{scale}.csv"
        _write_curve_csv(p, rates, quals, label=f"scale{scale}", scale=scale)
        paths.append(str(p))
    svg_path = tmp_path / "plot.svg"
    rc = main(["pareto", *paths, "--out", str(tmp_path / "front.csv"),
               "--svg", str(svg_path)])
    assert rc == 0
    produced = svg_path.read_text(encoding="utf-8")
    assert "<polyline" in produced
    assert produced.count("data:curve") == 5  # 4 scales + front
    golden = (GOLDEN / "pareto_plot.svg").read_text(encoding="utf-8")
    assert produced == golden


def test_pareto_svg_escapes_labels(tmp_path):
    label = "a&b<c--d"
    _write_curve_csv(tmp_path / "c.csv", [0.1, 0.2], [0.5, 0.6], label=label)
    rc = main(["pareto", str(tmp_path / "c.csv"), "--out", str(tmp_path / "p.csv"),
               "--svg", str(tmp_path / "p.svg")])
    assert rc == 0
    doc = minidom.parse(str(tmp_path / "p.svg"))
    texts = [t.firstChild.data for t in doc.getElementsByTagName("text") if t.firstChild]
    assert label in texts


def test_feature_quant_dequant_error_bound(tmp_path, capsys):
    rng = np.random.default_rng(1)
    t = FeatureTensor(rng.normal(0, 2, (4, 8, 8)).astype(np.float32))
    write_feature_tensor(t, tmp_path / "t.vcmf")
    rc = main([
        "feature", "pack", str(tmp_path / "t.vcmf"), str(tmp_path / "t.samp"),
        "--bits", "8", "--meta", str(tmp_path / "m.json"),
    ])
    assert rc == 0
    rc = main([
        "feature", "unpack", str(tmp_path / "t.samp"), str(tmp_path / "rec.vcmf"),
        "--meta", str(tmp_path / "m.json"), "--ref", str(tmp_path / "t.vcmf"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    line = [x for x in out.splitlines() if "max reconstruction error" in x][0]
    err = float(line.split(":")[1].split("(")[0].strip())
    params = json.loads((tmp_path / "m.json").read_text())["params"]
    step = (params["z_max"] - params["z_min"]) / 510
    worst = max(params["std"]) * step
    assert err <= worst + 1e-6


def test_feature_encode_decode_checksum_identity(tmp_path, capsys):
    rng = np.random.default_rng(2)
    t = FeatureTensor(rng.normal(0, 1, (6, 10, 10)).astype(np.float32))
    write_feature_tensor(t, tmp_path / "t.vcmf")
    rc = main([
        "feature", "encode", str(tmp_path / "t.vcmf"), str(tmp_path / "t.vcms"),
        "--layout", "temporal", "--reorder",
    ])
    assert rc == 0
    rc = main([
        "feature", "decode", str(tmp_path / "t.vcms"), str(tmp_path / "rec.vcmf"),
    ])
    assert rc == 0
    assert "checksum OK" in capsys.readouterr().out
    rec = read_feature_tensor(tmp_path / "rec.vcmf")
    ref = read_feature_tensor(tmp_path / "t.vcmf")
    assert np.abs(rec.values - ref.values).max() < 0.1


def test_feature_pack_wrong_channel_count_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(3)
    t = FeatureTensor(rng.normal(0, 1, (8, 4, 4)).astype(np.float32))
    write_feature_tensor(t, tmp_path / "t.vcmf")
    rc = main([
        "feature", "pack", str(tmp_path / "t.vcmf"), str(tmp_path / "t.yuv"),
        "--layout", "spatial",
    ])
    assert rc == 2
    assert "requires C = 64, got 8" in capsys.readouterr().err


def test_feature_pack_unpack_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    t = FeatureTensor(rng.normal(0, 1, (64, 3, 3)).astype(np.float32))
    write_feature_tensor(t, tmp_path / "t.vcmf")
    rc = main([
        "feature", "pack", str(tmp_path / "t.vcmf"), str(tmp_path / "packed.yuv"),
        "--layout", "spatial", "--meta", str(tmp_path / "meta.json"),
    ])
    assert rc == 0
    assert (tmp_path / "packed.yuv").stat().st_size == 64 * 9
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert sorted(meta) == ["dims", "layout", "params", "permutation"]
    # sidecars of older versions also carry frames and frame_dims; both are ignored
    old = dict(meta, frames=1, frame_dims=[[24, 24]])
    (tmp_path / "old.json").write_text(json.dumps(old))
    recs = []
    for sidecar in ("meta.json", "old.json"):
        rc = main([
            "feature", "unpack", str(tmp_path / "packed.yuv"), str(tmp_path / "rec.vcmf"),
            "--meta", str(tmp_path / sidecar),
        ])
        assert rc == 0
        recs.append(read_feature_tensor(tmp_path / "rec.vcmf").values)
    assert np.array_equal(recs[0], recs[1])
    assert np.abs(recs[0] - t.values).max() < 0.1


def test_feature_unpack_truncated_file_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(4)
    t = FeatureTensor(rng.normal(0, 1, (4, 3, 3)).astype(np.float32))
    write_feature_tensor(t, tmp_path / "t.vcmf")
    packed = tmp_path / "packed.yuv"
    rc = main([
        "feature", "pack", str(tmp_path / "t.vcmf"), str(packed),
        "--meta", str(tmp_path / "meta.json"),
    ])
    assert rc == 0
    packed.write_bytes(packed.read_bytes()[:-1])
    rc = main([
        "feature", "unpack", str(packed), str(tmp_path / "rec.vcmf"),
        "--meta", str(tmp_path / "meta.json"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def _file(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


_NOT_JSON = b"{not json"
_NOT_UTF8 = b'{"task": "\xff"}'
_PARAMS = {"mean": [0.0], "std": [1.0], "z_min": -1.0, "z_max": 1.0, "z_th": 1.5,
           "bit_depth": 8}


def _unpack(d, meta: bytes) -> list[str]:
    return [
        "feature", "unpack", _file(d / "p.yuv", bytes(4)), str(d / "rec.vcmf"),
        "--meta", _file(d / "m.json", meta),
    ]


def _tensor(d) -> str:
    values = np.random.default_rng(3).normal(0, 1, (4, 3, 5)).astype(np.float32)
    write_feature_tensor(FeatureTensor(values), d / "t.vcmf")
    return str(d / "t.vcmf")


def _version_1_stream(d) -> list[str]:
    assert main(["feature", "encode", _tensor(d), str(d / "t.vcms")]) == 0
    raw = bytearray((d / "t.vcms").read_bytes())
    raw[4:8] = (1).to_bytes(4, "little")
    return ["feature", "decode", _file(d / "v1.vcms", bytes(raw)), str(d / "o.vcmf")]


def _vcmf(d, version=1, dtype=0) -> str:
    """A 1x1x1 tensor file whose header holds version and dtype."""
    return _file(d / "t.vcmf", b"VCMF" + struct.pack("<5I", version, dtype, 1, 1, 1) + bytes(4))


def _with_ref_of_other_dims(d, op) -> list[str]:
    """`feature decode|unpack` of _tensor's 4x3x5 samples into d/o.vcmf, --ref a 2x3x5 tensor."""
    t = _tensor(d)
    write_feature_tensor(FeatureTensor(np.zeros((2, 3, 5), dtype=np.float32)), d / "r.vcmf")
    if op == "decode":
        assert main(["feature", "encode", t, str(d / "t.vcms")]) == 0
        argv = ["feature", "decode", str(d / "t.vcms"), str(d / "o.vcmf")]
    else:
        assert main(["feature", "pack", t, str(d / "p.bin"), "--meta", str(d / "m.json")]) == 0
        argv = ["feature", "unpack", str(d / "p.bin"), str(d / "o.vcmf"),
                "--meta", str(d / "m.json")]
    return [*argv, "--ref", str(d / "r.vcmf")]


def _bdrate_log_rates_disjoint(d) -> list[str]:
    _write_curve_csv(d / "a.csv", [0.1, 0.2, 0.4], [0.2, 0.4, 0.6])
    _write_curve_csv(d / "t.csv", [10, 20, 40], [0.2, 0.4, 0.6])
    return ["bdrate", str(d / "a.csv"), str(d / "t.csv")]


def _bdrate_out_dir_missing(d) -> list[str]:
    _write_curve_csv(d / "a.csv", [0.1, 0.2, 0.4], [0.2, 0.4, 0.6])
    return ["bdrate", str(d / "a.csv"), str(d / "a.csv"), "--out", str(d / "nodir" / "bd.csv")]


def _eval_det_csv_dir_missing(d) -> list[str]:
    write_jsonl(gt_records(_gts()), d / "gt.jsonl")
    write_jsonl(det_records(_gts()), d / "det.jsonl")
    return ["eval-det", str(d / "det.jsonl"), str(d / "gt.jsonl"),
            "--csv", str(d / "nodir" / "ap.csv")]


_META = {"layout": "TEMPORAL", "dims": [1, 2, 2], "permutation": None, "params": _PARAMS}


def _report_without_rd_tables(d) -> list[str]:
    doc = {"schema_version": 1, "config": {"scales": [100], "quality_unit": "fraction"},
           "pareto": [{"rate": 1.0, "quality": 0.5}], "bd_table": []}
    return ["report", _file(d / "r.json", json.dumps(doc).encode())]


def _manifest(d, det=None, **item) -> str:
    """One 8x8 DETECTION item over the NULL codec with a prediction file.

    det overrides fields of the one detection record; item overrides or
    adds fields of the manifest item.
    """
    write_yuv420(flat_image(8, 8), d / "img.yuv")
    box = {"image_id": "img", "class_id": 0, "bbox": [1, 1, 6, 6]}
    write_jsonl([box], d / "gt.jsonl")
    write_jsonl([dict(box, score=0.9, **(det or {}))], d / "det.jsonl")
    entry = dict({"id": "img", "path": "img.yuv", "width": 8, "height": 8,
                  "ground_truth": "gt.jsonl", "predictions": {"22:100": "det.jsonl"}}, **item)
    if "prediction_command" in item and "predictions" not in item:  # one source per item
        del entry["predictions"]
    doc = {"task": "DETECTION", "scales": [100],
           "codec": {"kind": "NULL", "qp_list": [22]}, "items": [entry]}
    return _file(d / "m.json", json.dumps(doc).encode())


def _run(d, codec=None, scales=None, iou_thresholds=None, items=None, **item) -> list[str]:
    """`run` on _manifest's document, its codec, scales, thresholds or items replaced if given."""
    path = Path(_manifest(d, **item))
    doc = json.loads(path.read_text())
    doc.update({k: v for k, v in (("codec", codec), ("scales", scales),
                                  ("iou_thresholds", iou_thresholds), ("items", items))
                if v is not None})
    path.write_text(json.dumps(doc))
    return ["run", str(path), "--output-dir", str(d / "out")]


def _eval_det(d, **det) -> list[str]:
    write_jsonl(gt_records(_gts()), d / "gt.jsonl")
    write_jsonl([dict(r, **det) for r in det_records(_gts())], d / "det.jsonl")
    return ["eval-det", str(d / "det.jsonl"), str(d / "gt.jsonl")]


def _eval_track(d, **pred) -> list[str]:
    row = {"frame": 0, "track_id": 1, "class_id": 0, "bbox": [0, 0, 5, 5], "score": 1.0}
    write_jsonl([row], d / "gt.jsonl")
    write_jsonl([dict(row, **pred)], d / "pred.jsonl")
    return ["eval-track", str(d / "pred.jsonl"), str(d / "gt.jsonl")]


def _curves(d) -> str:
    _write_curve_csv(d / "ok.csv", [0.1, 0.2, 0.4], [0.2, 0.4, 0.6])
    return str(d / "ok.csv")


_ONE_POINT_PARETO = "DegenerateCurve: curve 'pareto' needs >= 2 points for BD metrics"


def _report_doc(d, **changes) -> str:
    doc = {"schema_version": 1,
           "config": {"scales": [100], "quality_unit": "fraction"},
           "rd_tables": {"100": [{"qp": 22, "rate": 1.0, "quality": 0.5}]},
           "pareto": [{"rate": 1.0, "quality": 0.5}],
           "bd_table": [{"anchor": "pareto", "test": "scale100", "bd_rate_percent": None,
                         "bd_quality": None, "error": _ONE_POINT_PARETO}]}
    doc.update(changes)
    return _file(d / "r.json", json.dumps(doc).encode())


# two curves and a front that lies on neither
_CURVES = {"100": [(1.0, 0.5), (2.0, 0.7), (3.0, 0.8)],
           "75": [(0.5, 0.3), (1.5, 0.6), (2.5, 0.65)]}
_TRUE_FRONT = [(0.5, 0.3), (1.0, 0.5), (1.5, 0.6), (2.0, 0.7), (3.0, 0.8)]
_FALSE_FRONT = [(0.1, 0.9), (3.0, 0.95)]


def _report_with_front(d, front, rd=_CURVES) -> str:
    """A document of rd's curves whose pareto rows are front and whose bd_table they give."""
    def curve(label, pts, scale=None):
        return RDCurve(label, tuple(RDPoint(*p) for p in pts), scale)

    curves = [curve(f"scale{s}", pts, int(s)) for s, pts in rd.items()]
    doc = {"schema_version": 1,
           "config": {"scales": [int(s) for s in rd], "quality_unit": "fraction"},
           "rd_tables": {s: [{"qp": 22 + 5 * i, "rate": r, "quality": q}
                             for i, (r, q) in enumerate(pts)] for s, pts in rd.items()},
           "pareto": [{"rate": r, "quality": q} for r, q in front],
           "bd_table": _bd_rows(curves, curve("pareto", front))}
    return _file(d / "r.json", json.dumps(doc).encode())


BAD_INPUTS = {
    "report-not-json": lambda d: ["report", _file(d / "r.json", _NOT_JSON)],
    "report-missing": lambda d: ["report", str(d / "absent.json")],
    "report-without-rd-tables": _report_without_rd_tables,
    "unpack-meta-params-not-utf8": lambda d: _unpack(d, b'{"params": "\xff"}'),
    "unpack-meta-params-without-z-min": lambda d: _unpack(d, json.dumps(dict(
        _META, params={k: v for k, v in _PARAMS.items() if k != "z_min"})).encode()
    ),
    "unpack-meta-not-json": lambda d: _unpack(d, _NOT_JSON),
    "unpack-meta-unknown-layout": lambda d: _unpack(
        d, json.dumps(dict(_META, layout="DIAGONAL")).encode()
    ),
    "unpack-meta-without-dims": lambda d: _unpack(
        d, json.dumps({k: v for k, v in _META.items() if k != "dims"}).encode()
    ),
    "unpack-meta-multiscale": lambda d: [
        "feature", "unpack", _file(d / "p.yuv", bytes(128 * 192)), str(d / "rec.vcmf"),
        "--meta", _file(d / "m.json", json.dumps(dict(
            _META, layout="MULTISCALE", dims=[64, 16, 16],
            params=dict(_PARAMS, mean=[0.0] * 64, std=[1.0] * 64))).encode()),
    ],
    "run-manifest-missing": lambda d: ["run", str(d / "absent.json"),
                                       "--output-dir", str(d / "out")],
    "run-manifest-not-utf8": lambda d: ["run", _file(d / "m.json", _NOT_UTF8),
                                        "--output-dir", str(d / "out")],
    "unpack-input-missing": lambda d: [
        "feature", "unpack", str(d / "absent.yuv"), str(d / "rec.vcmf"),
        "--meta", _file(d / "m.json", json.dumps(_META).encode()),
    ],
    "pack-output-dir-missing": lambda d: [
        "feature", "pack", _tensor(d), str(d / "nodir" / "p.bin")
    ],
    # "quant" and "dequant" name the steps that pack and unpack run
    "quant-output-dir-missing": lambda d: [
        "feature", "pack", _tensor(d), str(Path(_file(d / "nodir", b"")) / "s.samp")
    ],
    "dequant-samples-missing": lambda d: [
        "feature", "unpack", str(d), str(d / "rec.vcmf"),
        "--meta", _file(d / "m.json", json.dumps(_META).encode()),
    ],
    # a params file pasted into the sidecar as text, not as an object
    "dequant-params-not-json": lambda d: _unpack(
        d, json.dumps(dict(_META, params=json.dumps(_PARAMS))).encode()
    ),
    "encode-output-dir-missing": lambda d: [
        "feature", "encode", _tensor(d), str(d / "nodir" / "o.vcms")
    ],
    "encode-z-th-infinite": lambda d: [
        "feature", "encode", _tensor(d), str(d / "o.vcms"), "--bits", "2", "--z-th", "inf"
    ],
    "encode-z-th-overflows-float32": lambda d: [
        "feature", "encode", _tensor(d), str(d / "o.vcms"), "--bits", "2", "--z-th", "1e39"
    ],
    "decode-stream-missing": lambda d: [
        "feature", "decode", str(d / "absent.vcms"), str(d / "o.vcmf")
    ],
    "decode-version-1-stream": _version_1_stream,
    "config-bits-not-integer": lambda d: [
        "--config", _file(d / "c.cfg", b"bits=x\n"),
        "feature", "encode", _tensor(d), str(d / "o.vcms"),
    ],
    "bdrate-out-dir-missing": _bdrate_out_dir_missing,
    "eval-det-csv-dir-missing": _eval_det_csv_dir_missing,
    "config-missing": lambda d: ["--config", str(d / "absent.cfg"), "report", "r.json"],
    "config-line-without-equals": lambda d: [
        "--config", _file(d / "c.cfg", b"jobs 2\n"), "report", "r.json"
    ],
    "eval-det-class-id-null": lambda d: _eval_det(d, class_id=None),
    "eval-det-class-id-not-numeric": lambda d: _eval_det(d, class_id="person"),
    "eval-det-class-id-infinite": lambda d: _eval_det(d, class_id=float("inf")),
    "eval-det-class-id-fractional": lambda d: _eval_det(d, class_id=1.7),
    "eval-det-class-id-bool": lambda d: _eval_det(d, class_id=True),
    "eval-track-frame-fractional": lambda d: _eval_track(d, frame=0.5),
    "eval-track-track-id-bool": lambda d: _eval_track(d, track_id=False),
    "run-predictions-class-id-fractional": lambda d: [
        "run", _manifest(d, det={"class_id": 1.7}), "--output-dir", str(d / "out")
    ],
    "report-bd-table-empty": lambda d: [
        "report", _report_doc(d, bd_table=[]), "--output-dir", str(d / "out")
    ],
    "report-scales-repeated": lambda d: [
        "report", _report_doc(d, config={"scales": [100, 100], "quality_unit": "fraction"}),
        "--output-dir", str(d / "out"),
    ],
    "run-prediction-command-unbalanced-quote": lambda d: _run(
        d, prediction_command="detector 'unclosed {input} {output}"
    ),
    "run-encode-template-unbalanced-quote": lambda d: _run(
        d, codec={"kind": "EXTERNAL", "encode_template": "enc 'x {input} {output}",
                  "decode_template": "dec {input} {output}", "qp_list": [22]},
    ),
    "run-scale-fractional": lambda d: _run(d, scales=[100.5]),
    "run-qp-bool": lambda d: _run(d, codec={"kind": "NULL", "qp_list": [True]},
                                  predictions={"1:100": "det.jsonl"}),
    "run-item-width-fractional": lambda d: _run(d, width=8.4),
    "report-pareto-not-the-front": lambda d: [
        "report", _report_with_front(d, _FALSE_FRONT), "--output-dir", str(d / "out")
    ],
    "eval-det-score-null": lambda d: _eval_det(d, score=None),
    "eval-det-score-not-numeric": lambda d: _eval_det(d, score="high"),
    "eval-track-frame-null": lambda d: _eval_track(d, frame=None),
    "eval-track-track-id-not-numeric": lambda d: _eval_track(d, track_id="t1"),
    "eval-track-track-id-outside-int64": lambda d: _eval_track(d, track_id=-(1 << 63) - 1),
    "run-predictions-class-id-null": lambda d: [
        "run", _manifest(d, det={"class_id": None}), "--output-dir", str(d / "out")
    ],
    "bdrate-curve-csv-missing": lambda d: ["bdrate", str(d / "absent.csv"), _curves(d)],
    # the test needs 10 ** 315 times the anchor's rate: past float64
    "bdrate-rate-ratio-past-float64": lambda d: [
        "bdrate", _file(d / "a.csv", b"rate,quality,label,scale\n5e-324,0.1,a,\n1e-322,0.9,a,\n"),
        _file(d / "t.csv", b"rate,quality,label,scale\n1e-323,0.1,t,\n1e308,0.9,t,\n"),
    ],
    "bdrate-curve-csv-not-utf8": lambda d: [
        "bdrate", _file(d / "bad.csv", b"rate,quality,label,scale\n0.1,0.2,\xff,\n"),
        _curves(d),
    ],
    "pareto-scale-not-integer": lambda d: [
        "pareto", _file(d / "c.csv", b"rate,quality,label,scale\n0.1,0.2,c,half\n"),
        "--out", str(d / "p.csv"),
    ],
    "pareto-out-dir-missing": lambda d: [
        "pareto", _curves(d), "--out", str(d / "nodir" / "p.csv")
    ],
    # a command with two outputs leaves neither when one cannot be written
    "pareto-out-dir-missing-svg-given": lambda d: [
        "pareto", _curves(d), "--out", str(d / "nodir" / "p.csv"), "--svg", str(d / "p.svg")
    ],
    "pareto-svg-dir-missing": lambda d: [
        "pareto", _curves(d), "--out", str(d / "p.csv"), "--svg", str(d / "nodir" / "p.svg")
    ],
    "pack-output-dir-missing-meta-given": lambda d: [
        "feature", "pack", _tensor(d), str(d / "nodir" / "p.bin"), "--meta", str(d / "m.json")
    ],
    "pack-meta-dir-missing": lambda d: [
        "feature", "pack", _tensor(d), str(d / "p.bin"), "--meta", str(d / "nodir" / "m.json")
    ],
    "report-output-dir-is-a-file": lambda d: [
        "report", _report_doc(d), "--output-dir", _file(d / "f", b"")
    ],
    "run-output-dir-is-a-file": lambda d: [
        "run", _manifest(d), "--output-dir", _file(d / "f", b"")
    ],
    "run-manifest-predictions-list": lambda d: [
        "run", _manifest(d, predictions=[]), "--output-dir", str(d / "out")
    ],
    "report-bd-error-not-a-string": lambda d: [
        "report", _report_doc(d, bd_table=[{"anchor": "pareto", "test": "scale100",
                                            "bd_rate_percent": None, "bd_quality": None,
                                            "error": 7}]),
        "--output-dir", str(d / "out"),
    ],
    "unpack-meta-dims-not-three": lambda d: _unpack(
        d, json.dumps(dict(_META, dims=[1, 2])).encode()
    ),
    "config-interpolation-unknown": lambda d: [
        "--config", _file(d / "c.cfg", b"interpolation=101PT\n"), *_eval_det(d)
    ],
    "run-item-width-zero": lambda d: [
        "run", _manifest(d, width=0), "--output-dir", str(d / "out")
    ],
    "run-jobs-zero": lambda d: [
        "--jobs", "0", "run", _manifest(d), "--output-dir", str(d / "out")
    ],
    "run-jobs-negative": lambda d: [
        "--jobs", "-3", "run", _manifest(d), "--output-dir", str(d / "out")
    ],
    "config-jobs-zero": lambda d: [
        "--config", _file(d / "c.cfg", b"jobs=0\n"),
        "run", _manifest(d), "--output-dir", str(d / "out"),
    ],
    "config-key-unknown": lambda d: [
        "--config", _file(d / "c.cfg", b"treshold=0.9\n"), *_eval_det(d)
    ],
    "eval-det-score-bool": lambda d: _eval_det(d, score=True),
    "eval-det-bbox-holds-a-bool": lambda d: _eval_det(d, bbox=[0, 0, 10, True]),
    "run-item-fps-bool": lambda d: _run(d, fps=True),
    "run-item-fps-infinite": lambda d: _run(d, fps=float("inf")),
    "run-iou-thresholds-bool": lambda d: _run(d, iou_thresholds=[True]),
    "report-rate-bool": lambda d: [
        "report", _report_doc(d, rd_tables={"100": [{"qp": 22, "rate": True, "quality": 0.5}]},
                              pareto=[{"rate": True, "quality": 0.5}]),
        "--output-dir", str(d / "out"),
    ],
    "report-quality-bool": lambda d: [
        "report", _report_doc(d, rd_tables={"100": [{"qp": 22, "rate": 1.0, "quality": True}]},
                              pareto=[{"rate": 1.0, "quality": True}]),
        "--output-dir", str(d / "out"),
    ],
    "unpack-meta-params-number-is-a-bool": lambda d: _unpack(d, json.dumps(dict(
        _META, params=dict(_PARAMS, z_min=False, z_th=True, bit_depth=8.0))).encode()
    ),
    "eval-det-image-id-bool": lambda d: _eval_det(d, image_id=True),
    "eval-det-image-id-null": lambda d: _eval_det(d, image_id=None),
    "eval-det-image-id-fractional": lambda d: _eval_det(d, image_id=1.5),
    "eval-det-image-id-list": lambda d: _eval_det(d, image_id=[1]),
    "run-item-id-bool": lambda d: _run(d, id=True),
    "run-item-id-list": lambda d: _run(d, id=[1]),
    "unpack-meta-permutation-holds-a-bool": lambda d: _unpack(d, json.dumps(dict(
        _META, dims=[4, 1, 1], permutation=[True, False, 2, 3],
        params=dict(_PARAMS, mean=[0.0] * 4, std=[1.0] * 4),
    )).encode()),
    "config-thresholds-not-numbers": lambda d: [
        "--config", _file(d / "c.cfg", b"thresholds=0.5,x\n"), *_eval_track(d)
    ],
    "run-item-with-both-prediction-sources": lambda d: [
        "run", _manifest(d, prediction_command=f"{_COPY} {d / 'det.jsonl'} {{output}}",
                         predictions={"22:100": "det.jsonl"}),
        "--output-dir", str(d / "out"),
    ],
    "bdrate-curve-csv-header-only": lambda d: [
        "bdrate", _file(d / "a.csv", b"rate,quality,label,scale\n"), _curves(d)
    ],
    "bdrate-log-rates-disjoint": _bdrate_log_rates_disjoint,
    "report-schema-version-2": lambda d: ["report", _file(d / "r.json", b'{"schema_version": 2}')],
    "unpack-without-meta": lambda d: [
        "feature", "unpack", _file(d / "p.yuv", bytes(4)), str(d / "rec.vcmf")
    ],
    "encode-tensor-version-2": lambda d: ["feature", "encode", _vcmf(d, version=2), str(d / "o")],
    "encode-tensor-dtype-1": lambda d: ["feature", "encode", _vcmf(d, dtype=1), str(d / "o")],
    "run-manifest-items-empty": lambda d: _run(d, items=[]),
    "run-manifest-scales-empty": lambda d: _run(d, scales=[]),
    "decode-ref-of-other-dims": lambda d: _with_ref_of_other_dims(d, "decode"),
    "unpack-ref-of-other-dims": lambda d: _with_ref_of_other_dims(d, "unpack"),
}

# the error a case must give, where reaching its branch is the case's point
_BAD_INPUT_ERRORS = {
    "bdrate-curve-csv-header-only": "a.csv: no curve rows",
    "bdrate-log-rates-disjoint": "log-rate ranges do not overlap",
    "report-schema-version-2": "unsupported report schema: 2",
    "unpack-without-meta": "unpack needs --meta from the pack step",
    "encode-tensor-version-2": "t.vcmf: unsupported version 2",
    "encode-tensor-dtype-1": "t.vcmf: unsupported dtype code 1",
    "run-manifest-items-empty": "manifest has no items",
    "run-manifest-scales-empty": "manifest has no scales",
    # the reference is checked before the output is written
    "decode-ref-of-other-dims": "r.vcmf: reference dims (2, 3, 5) differ from (4, 3, 5)",
    "unpack-ref-of-other-dims": "r.vcmf: reference dims (2, 3, 5) differ from (4, 3, 5)",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_files_exit_2(case, tmp_path, capsys):
    argv = BAD_INPUTS[case](tmp_path)
    before = set(tmp_path.rglob("*"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert _BAD_INPUT_ERRORS.get(case, "") in err
    # nothing is written, except what `run` persists in its output directory
    written = set(tmp_path.rglob("*")) - before
    assert sorted(p for p in written if "out" not in p.relative_to(tmp_path).parts) == []


@pytest.mark.parametrize("perm", [[], False, 0], ids=["empty", "false", "zero"])
def test_unpack_reads_only_null_as_no_permutation(perm, tmp_path, capsys):
    # none of these permutes the channels, so none may pass for null (no permutation)
    argv = _unpack(tmp_path, json.dumps(dict(_META, permutation=perm)).encode())
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'm.json'}: packing metadata: ")
    assert not (tmp_path / "rec.vcmf").exists()


def _pack_reordered(d) -> dict:
    """`pack --reorder` of _tensor into d/q.yuv; returns its sidecar, permutation [0, 2, 3, 1]."""
    assert main(["feature", "pack", _tensor(d), str(d / "q.yuv"), "--reorder",
                 "--meta", str(d / "m.json")]) == 0
    return json.loads((d / "m.json").read_text())


def _unpack_reordered(d, meta) -> list[str]:
    return ["feature", "unpack", str(d / "q.yuv"), str(d / "rec.vcmf"),
            "--meta", _file(d / "m.json", json.dumps(meta).encode())]


@pytest.mark.parametrize("key, value", [("dims", "435"), ("permutation", "0123")])
def test_unpack_refuses_a_sidecar_list_given_as_a_string(key, value, tmp_path, capsys):
    # "0123" read digit by digit would pass for the identity permutation
    meta = _pack_reordered(tmp_path)
    capsys.readouterr()
    assert main(_unpack_reordered(tmp_path, dict(meta, **{key: value}))) == 2
    assert capsys.readouterr().err == (f"error: {tmp_path / 'm.json'}: packing metadata: "
                                       f"TypeError: expected a list: {value!r}\n")
    assert not (tmp_path / "rec.vcmf").exists()


def test_unpack_reads_sidecar_list_entries_by_the_integer_rule(tmp_path):
    meta = _pack_reordered(tmp_path)
    assert meta["permutation"] == [0, 2, 3, 1]
    assert main(_unpack_reordered(tmp_path, meta)) == 0
    want = (tmp_path / "rec.vcmf").read_bytes()
    odd = dict(meta, dims=[4.0, 3, 5], permutation=["0", "2", "3", "1"])
    assert main(_unpack_reordered(tmp_path, odd)) == 0
    assert (tmp_path / "rec.vcmf").read_bytes() == want


def test_unpack_names_a_samples_file_of_the_wrong_size(tmp_path, capsys):
    meta = _pack_reordered(tmp_path)
    (tmp_path / "q.yuv").write_bytes(bytes(486))
    capsys.readouterr()
    assert main(_unpack_reordered(tmp_path, meta)) == 2
    assert capsys.readouterr().err == (f"error: {tmp_path / 'q.yuv'}: 486 bytes do not match "
                                       "4 frame(s) of 60 samples in total\n")


def test_unpack_names_the_sidecar_whose_params_miss_a_channel(tmp_path, capsys):
    meta = _pack_reordered(tmp_path)
    params = dict(meta["params"], mean=meta["params"]["mean"][:3], std=meta["params"]["std"][:3])
    capsys.readouterr()
    assert main(_unpack_reordered(tmp_path, dict(meta, params=params))) == 2
    assert capsys.readouterr().err == (f"error: {tmp_path / 'm.json'}: packing metadata: "
                                       "InvariantViolation: quant params cover 3 channels, "
                                       "frame set has 4\n")


@pytest.mark.parametrize("gt_id, det_id", [(1, 1.0), ("1", 1), ("img", "img")])
def test_eval_det_matches_ids_by_the_integer_rule(gt_id, det_id, tmp_path, capsys):
    # COCO-style files use integer ids; 1.0 reads as the integer 1, kept as "1"
    box = {"image_id": gt_id, "class_id": 0, "bbox": [0, 0, 10, 10]}
    write_jsonl([box], tmp_path / "gt.jsonl")
    write_jsonl([dict(box, image_id=det_id, score=0.9)], tmp_path / "det.jsonl")
    assert main(["eval-det", str(tmp_path / "det.jsonl"), str(tmp_path / "gt.jsonl")]) == 0
    assert json.loads(capsys.readouterr().out)["mAP"] == 1.0


def test_image_id_neither_string_nor_integer_names_its_line(tmp_path, capsys):
    assert main(_eval_det(tmp_path, image_id=None)) == 2
    assert capsys.readouterr().err == (f"error: {tmp_path / 'det.jsonl'}:1: TypeError: "
                                       "expected a string or an integer id: None\n")


def test_run_reads_an_integral_item_id_as_its_integer(tmp_path):
    assert main(_run(tmp_path, id=7.0)) == 0
    inputs = json.loads((tmp_path / "out" / "report.json").read_text())["inputs"]
    assert "item:7:source" in inputs


_DEEP = "[" * 100_000 + "]" * 100_000  # deeper than any recursion limit


@pytest.mark.parametrize("command", ["eval-det", "eval-track", "run"])
def test_ground_truth_nested_too_deep_exits_2_naming_its_line(command, tmp_path, capsys):
    build = {"eval-det": _eval_det, "eval-track": _eval_track, "run": _run}[command]
    argv = build(tmp_path)
    gt = tmp_path / "gt.jsonl"
    gt.write_text(gt.read_text().splitlines()[0] + "\n" + _DEEP + "\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {gt}:2: RecursionError: ") and "Traceback" not in err


def test_report_nested_too_deep_exits_2_naming_the_document(tmp_path, capsys):
    doc = _file(tmp_path / "r.json", _DEEP.encode())
    assert main(["report", doc, "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {doc}: RecursionError: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("box", [[0, 0, 1e308, 1e308], [0, 0, 1e154, 1e154],
                                 [0, 0, 1e-320, 1e-320]],
                         ids=["area-overflows", "union-overflows", "area-underflows"])
def test_eval_det_refuses_a_box_whose_iou_cannot_be_computed(box, tmp_path, capsys):
    # an exact match; its IoU would be inf - inf, inf / inf or 0 / 0
    row = {"image_id": "a", "class_id": 0, "bbox": box}
    write_jsonl([dict(row, score=0.5)], tmp_path / "det.jsonl")
    write_jsonl([row], tmp_path / "gt.jsonl")
    assert main(["eval-det", str(tmp_path / "det.jsonl"), str(tmp_path / "gt.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'det.jsonl'} record 0: box area must be in [")


def test_run_missing_external_binary_exits_3(tmp_path, blob_manifest, capsys):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), scales=(100,),
                         predictions="files")
    doc = json.loads(path.read_text())
    doc["codec"] = {
        "kind": "EXTERNAL",
        "encode_template": "no-such-encoder {input} {output} {qp}",
        "decode_template": "no-such-decoder {input} {output}",
        "qp_list": [22],
    }
    bad = tmp_path / "ext.json"
    bad.write_text(json.dumps(doc))
    rc = main(["run", str(bad), "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "no-such-encoder" in capsys.readouterr().err


def test_run_decoder_that_changes_the_size_exits_3(tmp_path, blob_manifest, capsys):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), scales=(100,),
                         predictions="files")
    doc = json.loads(path.read_text())
    copy = f'{sys.executable} -c "import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2])"'
    # the "decoder" writes three bytes, whatever the input
    short = (f'{sys.executable} -c "import pathlib,sys; '
             'pathlib.Path(sys.argv[2]).write_bytes(bytes(3))"')
    doc["codec"] = {
        "kind": "EXTERNAL",
        "encode_template": copy + " {input} {output}",
        "decode_template": short + " {input} {output}",
        "qp_list": [22],
    }
    bad = tmp_path / "ext.json"
    bad.write_text(json.dumps(doc))
    rc = main(["run", str(bad), "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: codec failed for item=") and "differs from input" in err


def test_run_command_not_executable_exits_3(tmp_path, capsys):
    script = tmp_path / "detector.sh"
    script.write_text("#!/bin/sh\nexit 0\n")
    script.chmod(0o644)
    manifest = Path(_manifest(tmp_path))
    doc = json.loads(manifest.read_text())
    del doc["items"][0]["predictions"]
    doc["items"][0]["prediction_command"] = f"{script} {{input}} {{output}}"
    manifest.write_text(json.dumps(doc))
    rc = main(["run", str(manifest), "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "detector.sh" in err


_COPY = f'{sys.executable} -c "import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2])"'
_IDLE = f'{sys.executable} -c "pass"'


def _run_twice(d, first: dict, second: dict) -> int:
    """Run a manifest changed by first, then by second, into one output directory.

    The first run must pass; returns the exit status of the second.
    """
    manifest = Path(_manifest(d))
    doc = json.loads(manifest.read_text())
    codes = []
    for change in (first, second):
        doc.update(change.get("doc", {}))
        item = doc["items"][0]
        item.update(change.get("item", {}))
        if "prediction_command" in item:  # an item has one prediction source
            item.pop("predictions", None)
        manifest.write_text(json.dumps(doc))
        codes.append(main(["run", str(manifest), "--output-dir", str(d / "out")]))
    assert codes[0] == 0
    return codes[1]


@pytest.mark.parametrize("stale", [False, True], ids=["fresh", "stale"])
@pytest.mark.parametrize("tool, stage", [("encoder", "codec"), ("decoder", "codec"),
                                         ("prediction command", "predict")],
                         ids=["encoder", "decoder", "predictor"])
def test_run_with_a_tool_that_writes_no_file_exits_3(tmp_path, capsys, tool, stage, stale):
    # the first run leaves every tool's output (stale) or none of them (NULL codec,
    # precomputed predictions); either way the idle tool's turn must fail
    def tools(idle: str | None) -> dict:
        cmd = {"encoder": _COPY, "decoder": _COPY,
               "prediction command": f"{_COPY} {tmp_path / 'det.jsonl'}"}
        if idle:
            cmd[idle] = _IDLE
        return {"doc": {"codec": {
                    "kind": "EXTERNAL", "qp_list": [22],
                    "encode_template": f"{cmd['encoder']} {{input}} {{output}}",
                    "decode_template": f"{cmd['decoder']} {{input}} {{output}}"}},
                "item": {"prediction_command": f"{cmd['prediction command']} {{output}}"}}

    assert _run_twice(tmp_path, tools(None) if stale else {}, tools(tool)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage} failed for item='img'")
    assert f"{tool} wrote no file at" in err
    partial = json.loads((tmp_path / "out" / "partial_results.json").read_text())
    assert partial["failure"]["stage"] == stage
    assert partial["records"] == []


def test_run_decoder_flooding_stderr_exits_3_with_a_short_error(tmp_path, capsys):
    flood = f'{sys.executable} -c "import sys; sys.stderr.write(\'x\' * (16 << 20)); sys.exit(1)"'
    argv = _run(tmp_path, codec={"kind": "EXTERNAL", "qp_list": [22],
                                 "encode_template": f"{_COPY} {{input}} {{output}}",
                                 "decode_template": f"{flood} {{input}} {{output}}"})
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: codec failed for item='img' qp=22 scale=100: decoder: exit 1: [")
    assert len(err) < 5000, len(err)
    partial = json.loads((tmp_path / "out" / "partial_results.json").read_text())
    assert "earlier bytes of stderr left out" in partial["failure"]["cause"]


def test_run_command_with_undecodable_stderr_exits_3(tmp_path, capsys):
    noisy = (
        f'{sys.executable} -c "import sys; '
        'sys.stderr.buffer.write(bytes([255, 254, 10])); sys.exit(1)"'
    )
    rc = main(["run", _manifest(tmp_path, prediction_command=noisy),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_report_takes_output_dir_from_config(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = _file(tmp_path / "c.cfg", f"output-dir={tmp_path / 'tables'}\n".encode())
    assert main(["--config", cfg, "report", _report_doc(tmp_path)]) == 0
    assert (tmp_path / "tables" / "rd_curves.csv").is_file()


def test_report_quotes_bd_labels_with_commas(tmp_path):
    # a document's labels are scale<N> and pareto, so the writer is fed directly
    row = {"anchor": "pareto", "test": "a,b", "bd_rate_percent": -1.5,
           "bd_quality": 0.25, "error": None}
    failed = dict(row, bd_rate_percent=None, bd_quality=None, error="NoOverlap: a, b;\nc")
    write_csv(tmp_path / "bd.csv", list(row), [list(r.values()) for r in (row, failed)])
    with open(tmp_path / "bd.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert [len(r) for r in rows] == [5, 5, 5]
    assert rows[1] == ["pareto", "a,b", "-1.5", "0.25", ""]
    assert rows[2] == ["pareto", "a,b", "", "", "NoOverlap: a, b;\nc"]


def test_every_csv_line_ends_in_a_line_feed(tmp_path, capsys):
    assert main(_run(tmp_path)) == 0
    out, again = tmp_path / "out", tmp_path / "again"
    assert main(["report", str(out / "report.json"), "--output-dir", str(again)]) == 0
    curves = _curves(tmp_path)
    assert main(["pareto", curves, "--out", str(tmp_path / "front.csv")]) == 0
    assert main(["bdrate", curves, curves, "--out", str(tmp_path / "bd.csv")]) == 0
    assert main([*_eval_det(tmp_path), "--csv", str(tmp_path / "ap.csv")]) == 0
    written = [*sorted(out.glob("*.csv")), *sorted(again.glob("*.csv")),
               tmp_path / "front.csv", tmp_path / "bd.csv", tmp_path / "ap.csv"]
    assert len(written) == 9
    for path in written:
        data = path.read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, path


def test_report_bd_csv_holds_the_documents_errors_as_they_are(tmp_path):
    # the scales' quality ranges do not overlap, and NoOverlap names both
    rd = {"100": [(1.0, 0.5), (2.0, 0.6)], "75": [(0.5, 0.1), (0.8, 0.2)]}
    doc = _report_with_front(tmp_path, [(0.5, 0.1), (0.8, 0.2), (1.0, 0.5), (2.0, 0.6)], rd)
    assert main(["report", doc, "--output-dir", str(tmp_path / "tables")]) == 0
    errors = [row["error"] or "" for row in json.loads(Path(doc).read_text())["bd_table"]]
    assert "NoOverlap: quality ranges do not overlap: [0.5, 0.6] vs [0.1, 0.2]" in errors
    with open(tmp_path / "tables" / "bd_table.csv", encoding="utf-8", newline="") as f:
        assert [row["error"] for row in csv.DictReader(f)] == errors


@pytest.mark.parametrize("changes", [
    {"rd_tables": {"100": [{"qp": 22, "rate": -1.0, "quality": 0.5}]}},
    {"config": {"scales": [37], "quality_unit": "fraction"},
     "rd_tables": {"37": [{"qp": 22, "rate": 1.0, "quality": 0.5}]}},
    {"rd_tables": {"100": []}},
])
def test_report_with_an_invalid_row_names_the_file(tmp_path, capsys, changes):
    doc = _report_doc(tmp_path, **changes)
    assert main(["report", doc, "--output-dir", str(tmp_path / "tables")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {doc}: report document: ")
    assert not (tmp_path / "tables").exists()


@pytest.mark.parametrize("bd_table", [
    [],
    [{"anchor": "pareto", "test": "scale100", "bd_rate_percent": None, "bd_quality": None,
      "error": "NoOverlap"}],
    [{"anchor": "pareto", "test": "scale100", "bd_rate_percent": 0.0, "bd_quality": 0.0,
      "error": None}],
    [{"anchor": "pareto", "test": "scale100", "bd_rate_percent": None, "bd_quality": None,
      "error": _ONE_POINT_PARETO}] * 2,
], ids=["empty", "other-error", "numbers", "repeated-row"])
def test_report_whose_bd_table_contradicts_its_curves_exits_2(tmp_path, capsys, bd_table):
    doc = _report_doc(tmp_path, bd_table=bd_table)
    assert main(["report", doc, "--output-dir", str(tmp_path / "tables")]) == 2
    assert capsys.readouterr().err == (
        f"error: {doc}: report document: InvariantViolation: "
        "bd_table is not the table of its own rd_tables and pareto rows\n"
    )
    assert not (tmp_path / "tables").exists()


@pytest.mark.parametrize("front", [_TRUE_FRONT, _FALSE_FRONT, _TRUE_FRONT[1:],
                                   _TRUE_FRONT[:4] + [(2.5, 0.65)] + _TRUE_FRONT[4:]],
                         ids=["true", "off-the-curves", "point-missing", "dominated-point"])
def test_report_whose_pareto_is_not_its_front_exits_2(tmp_path, capsys, front):
    doc = _report_with_front(tmp_path, front)
    rc = main(["report", doc, "--output-dir", str(tmp_path / "tables")])
    if front is _TRUE_FRONT:
        assert rc == 0
        return
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {doc}: report document: InvariantViolation: "
        "pareto is not the front of its own rd_tables rows\n"
    )
    assert not (tmp_path / "tables").exists()


def test_report_with_repeated_scales_exits_2_as_a_manifest_would(tmp_path, capsys):
    doc = _report_doc(tmp_path, config={"scales": [100, 100], "quality_unit": "fraction"})
    assert main(["report", doc, "--output-dir", str(tmp_path / "tables")]) == 2
    assert capsys.readouterr().err == (
        f"error: {doc}: report document: InvariantViolation: "
        "manifest scales have duplicates: [100, 100]\n"
    )
    assert not (tmp_path / "tables").exists()


def test_run_with_extra_qp_gives_superset_rd_tables(tmp_path, blob_manifest):
    base = blob_manifest(codec_kind="NULL", qp_list=(22, 27), scales=(100, 50),
                         predictions="files")
    doc = json.loads(base.read_text())
    doc["codec"]["qp_list"] = [22, 27, 32]
    doc["items"] = [
        dict(it, predictions={**it["predictions"],
                              **{f"32:{s}": next(iter(it["predictions"].values()))
                                 for s in (100, 50)}})
        for it in doc["items"]
    ]
    bigger = tmp_path / "bigger.json"
    bigger.write_text(json.dumps(doc))

    out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
    assert main(["run", str(base), "--output-dir", str(out_a)]) == 0
    assert main(["run", str(bigger), "--output-dir", str(out_b)]) == 0
    rep_a = json.loads((out_a / "report.json").read_text())
    rep_b = json.loads((out_b / "report.json").read_text())
    for scale, rows in rep_a["rd_tables"].items():
        rows_b = rep_b["rd_tables"][scale]
        for row in rows:
            assert row in rows_b  # smaller run's RD rows survive unchanged


def test_run_report_names_the_bd_error_class(tmp_path, blob_manifest):
    # NULL codes every qp at one rate, so each curve is a single point; the
    # class name is part of report.json's bytes, so errors.py keeps it
    path = blob_manifest(codec_kind="NULL", qp_list=(22, 27), scales=(100, 50),
                         predictions="files")
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["bd_table"]
    assert len(rows) == 3
    for row in rows:
        assert row["error"].startswith("DegenerateCurve: curve ")
        assert row["bd_rate_percent"] is None and row["bd_quality"] is None


def test_run_report_bd_rows_match_its_own_curves(tmp_path, blob_manifest, capsys):
    # TRUNCATE gives every scale a curve of several points, so each BD row
    # succeeds; the rows must be what the written curve files give
    path = blob_manifest(codec_kind="TRUNCATE", qp_list=range(8), scales=(100, 75, 50, 25),
                         predictions="command")
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0
    rows = json.loads((out / "report.json").read_text())["bd_table"]
    curves = {c.label: c for c in read_curves_csv(out / "rd_curves.csv")}
    [curves["pareto"]] = read_curves_csv(out / "pareto.csv")
    assert [(r["anchor"], r["test"]) for r in rows] == [
        ("scale100", "scale75"), ("scale100", "scale50"), ("scale100", "scale25"),
        ("pareto", "scale100"), ("pareto", "scale75"), ("pareto", "scale50"),
        ("pareto", "scale25"),
    ]
    for row in rows:
        bd = bd_metrics(pareto_front([curves[row["anchor"]]]),
                        pareto_front([curves[row["test"]]]))
        assert row["error"] is None
        assert (row["bd_rate_percent"], row["bd_quality"]) == (bd.bd_rate_percent, bd.bd_quality)
    rere = tmp_path / "rerendered"
    assert main(["report", str(out / "report.json"), "--output-dir", str(rere)]) == 0
    for name in ("rd_curves.csv", "pareto.csv", "bd_table.csv", "plot.svg"):
        assert (rere / name).read_bytes() == (out / name).read_bytes(), name


def test_feature_quant_2bit_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(5)
    t = FeatureTensor(rng.normal(0, 2, (3, 6, 6)).astype(np.float32))
    write_feature_tensor(t, tmp_path / "t.vcmf")
    rc = main([
        "feature", "pack", str(tmp_path / "t.vcmf"), str(tmp_path / "t.samp"),
        "--bits", "2", "--meta", str(tmp_path / "m.json"),
    ])
    assert rc == 0
    raw = (tmp_path / "t.samp").read_bytes()
    assert len(raw) == 3 * 6 * 6 and set(raw) <= {0, 1, 2, 3}
    rc = main([
        "feature", "unpack", str(tmp_path / "t.samp"), str(tmp_path / "rec.vcmf"),
        "--meta", str(tmp_path / "m.json"),
    ])
    assert rc == 0
    rec = read_feature_tensor(tmp_path / "rec.vcmf")
    assert rec.dims == (3, 6, 6)


def test_run_persists_partial_results_on_failure(tmp_path, blob_manifest, capsys):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), scales=(100,),
                         predictions="files")
    doc = json.loads(path.read_text())
    doc["items"][1]["path"] = "gone.yuv"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main(["run", str(bad), "--output-dir", str(out)])
    assert rc == 2
    partial = json.loads((out / "partial_results.json").read_text())
    assert len(partial["records"]) == 1
    assert partial["records"][0]["item"] == "img_a"
    failure = partial["failure"]
    assert (failure["stage"], failure["item"], failure["qp"], failure["scale"]) == (
        "load", "img_b", 22, 100
    )
    assert "gone.yuv" in failure["cause"]


def test_run_persists_failure_when_no_record_completed(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", _manifest(tmp_path, path="gone.yuv"), "--output-dir", str(out)])
    assert rc == 2
    partial = json.loads((out / "partial_results.json").read_text())
    assert partial["records"] == []
    assert partial["failure"]["stage"] == "load"
    assert "gone.yuv" in partial["failure"]["cause"]


def test_run_failing_to_write_the_codec_input_names_the_write_stage(
    tmp_path, blob_manifest, capsys
):
    # TRUNCATE reads the codec input; NULL with prediction files never writes it
    path = blob_manifest(codec_kind="TRUNCATE", qp_list=(22,), scales=(50,),
                         predictions="files")
    out = tmp_path / "out"
    (out / "work" / "item0_s50" / "input.yuv").mkdir(parents=True)
    rc = main(["run", str(path), "--output-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "write failed for item='img_a' qp=22 scale=50" in err
    assert "Is a directory" in err
    partial = json.loads((out / "partial_results.json").read_text())
    assert partial["failure"]["stage"] == "write"


def test_run_persists_every_record_when_evaluation_fails(tmp_path, blob_manifest, capsys):
    path = blob_manifest(codec_kind="NULL", qp_list=(22, 27), scales=(100, 50),
                         predictions="files")
    (tmp_path / "img_b.pred.jsonl").write_text("{not json\n")
    out = tmp_path / "out"
    rc = main(["--jobs", "2", "run", str(path), "--output-dir", str(out)])
    assert rc == 2
    assert "evaluate failed for item='img_b'" in capsys.readouterr().err
    partial = json.loads((out / "partial_results.json").read_text())
    assert sorted((r["item"], r["scale"], r["qp"]) for r in partial["records"]) == [
        (item, scale, qp)
        for item in ("img_a", "img_b") for scale in (50, 100) for qp in (22, 27)
    ]
    assert partial["failure"]["stage"] == "evaluate"
    assert partial["failure"]["item"] == "img_b"
    assert "img_b.pred.jsonl:1:" in partial["failure"]["cause"]


def test_run_and_report_rerender(tmp_path, blob_manifest, capsys):
    # ascending scales catch a re-render that reorders curves
    for scales in ((25, 100), (100, 75, 50, 25)):
        path = blob_manifest(codec_kind="NULL", qp_list=(22, 27), scales=scales,
                             predictions="files")
        out = tmp_path / f"out{len(scales)}"
        rc = main(["run", str(path), "--output-dir", str(out)])
        assert rc == 0
        report = (out / "report.json").read_bytes()
        rere = tmp_path / f"rerendered{len(scales)}"
        rc = main(["report", str(out / "report.json"), "--output-dir", str(rere)])
        assert rc == 0
        for name in ("rd_curves.csv", "pareto.csv", "bd_table.csv", "plot.svg"):
            assert (rere / name).read_bytes() == (out / name).read_bytes(), (scales, name)
        assert not (rere / "report.json").exists()
        # re-rendering in place leaves the input report untouched
        rc = main(["report", str(out / "report.json"), "--output-dir", str(out)])
        assert rc == 0
        assert (out / "report.json").read_bytes() == report


def test_config_file_supplies_defaults(tmp_path, capsys):
    gts = _gts()
    write_jsonl(gt_records(gts), tmp_path / "gt.jsonl")
    write_jsonl(det_records(gts), tmp_path / "det.jsonl")
    cfg = tmp_path / "cfg"
    cfg.write_text("thresholds=0.5,0.75  # two-threshold sweep\n")
    rc = main([
        "--config", str(cfg),
        "eval-det", str(tmp_path / "det.jsonl"), str(tmp_path / "gt.jsonl"),
    ])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["thresholds"] == [0.5, 0.75]
    # a flag beats the file
    rc = main([
        "--config", str(cfg),
        "eval-det", str(tmp_path / "det.jsonl"), str(tmp_path / "gt.jsonl"),
        "--thresholds", "0.6",
    ])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["thresholds"] == [0.6]


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"])
def test_config_lines_break_only_at_newlines(tmp_path, capsys, char):
    gts = _gts()
    write_jsonl(gt_records(gts), tmp_path / "gt.jsonl")
    write_jsonl(det_records(gts), tmp_path / "det.jsonl")
    cfg = tmp_path / "cfg"
    cfg.write_text(f"thresholds=0.75  # strict{char}sweep\n\nbad line\n", encoding="utf-8")
    argv = ["--config", str(cfg), "eval-det", str(tmp_path / "det.jsonl"),
            str(tmp_path / "gt.jsonl")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {cfg}:3: expected key=value\n"
    cfg.write_text(f"thresholds=0.75  # strict{char}sweep\n", encoding="utf-8")
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["thresholds"] == [0.75]


@pytest.mark.parametrize("command", ["eval-det", "eval-track", "report", "run"])
def test_config_values_are_cast_when_the_file_loads(command, tmp_path, capsys):
    # no command reads bits here, and the file still fails whole
    cfg = _file(tmp_path / "c.cfg", b"jobs=2\nbits=x\n")
    build = {"eval-det": _eval_det, "eval-track": _eval_track, "run": _run,
             "report": lambda d: ["report", _report_doc(d)]}[command]
    assert main(["--config", cfg, *build(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}:2: bits: ValueError: invalid literal for int() with base 10: 'x'\n"
    )


# a value outside each table option's domain: a range, or a tuple of choices
_OUT_OF_DOMAIN = {"jobs": "0", "thresholds": "0,7", "iou": "-3", "bits": "3",
                  "layout": "diagonal", "interpolation": "101PT", "z-th": "-1"}


@pytest.mark.parametrize("command", ["pareto", "report"])
@pytest.mark.parametrize("key", sorted(_OUT_OF_DOMAIN))
def test_config_value_outside_its_domain_fails_when_the_file_loads(key, command, tmp_path,
                                                                   capsys):
    # neither command reads any of these keys
    cfg = _file(tmp_path / "c.cfg", f"{key}={_OUT_OF_DOMAIN[key]}\n".encode())
    argv = {"pareto": ["pareto", _curves(tmp_path), "--out", str(tmp_path / "p.csv")],
            "report": ["report", _report_doc(tmp_path), "--output-dir", str(tmp_path / "out")],
            }[command]
    before = set(tmp_path.rglob("*"))
    assert main(["--config", cfg, *argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}:1: {key}: ")
    assert set(tmp_path.rglob("*")) == before


def _encode(d) -> list[str]:
    return ["feature", "encode", _tensor(d), str(d / "o.vcms")]


# a command that takes each option as a flag
_TAKER = {"jobs": lambda d: ["pareto", _curves(d), "--out", str(d / "p.csv")],
          "thresholds": _eval_det, "interpolation": _eval_det, "iou": _eval_track,
          "bits": _encode, "layout": _encode, "z-th": _encode}


@pytest.mark.parametrize("key", sorted(_OUT_OF_DOMAIN))
def test_flag_value_outside_its_domain_fails_as_its_config_value_does(key, tmp_path, capsys):
    command = _TAKER[key](tmp_path)
    before = set(tmp_path.rglob("*"))
    flag = f"--{key}={_OUT_OF_DOMAIN[key]}"
    # a subcommand's flag follows the subcommand
    assert main([flag, *command] if key == "jobs" else [*command, flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{key}: ") and err.count("\n") == 1
    assert set(tmp_path.rglob("*")) == before


# flags that a config file cannot set
_FLAGS_WITHOUT_CONFIG = {"-h", "--help", "--version", "--config", "--csv", "--out", "--svg",
                         "--reorder", "--meta", "--ref"}


def test_every_option_of_the_table_is_a_flag_that_main_fills():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = [a for p in (parser, *sub.choices.values()) for a in p._actions if a.option_strings]
    table = [a for a in flags if a.dest.replace("_", "-") in _OPTIONS]
    # each table option is declared as --<name>, read by _value as a config value is
    # (the table's cast, then its domain), with the table's choices if its domain is a
    # tuple of them, and left unset for main to fill from the file or the table's default
    assert {a.dest.replace("_", "-") for a in table} == _OPTIONS.keys()
    for a in table:
        name = a.dest.replace("_", "-")
        domain = _OPTIONS[name][2]
        assert (a.option_strings, a.default) == ([f"--{name}"], None)
        assert (a.type.func, a.type.args, a.type.keywords) == (_value, (name,),
                                                              {"origin": f"--{name}"})
        assert a.choices is (domain if isinstance(domain, tuple) else None)
    # any other flag is one a config file cannot set; a new one must join either list
    others = {f for a in flags if a not in table for f in a.option_strings}
    assert others == _FLAGS_WITHOUT_CONFIG


def test_readme_commands_are_the_parsers():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (op,) = [a for a in sub.choices["feature"]._actions if a.dest == "op"]
    global_flags = {f for a in parser._actions for f in a.option_strings}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    # the lines of README's code blocks that start with `vcmbench`
    lines = [line for block in readme.split("```")[1::2] for line in block.splitlines()
             if line.startswith("vcmbench")]
    assert any(line.startswith("vcmbench feature {") for line in lines)
    for line in lines:
        # the subcommand is the first word outside [optional] parts: "vcmbench [--jobs N] run"
        words = re.sub(r"\[[^\]]*\]", "", line).split()
        assert words[1] in sub.choices, line
        if words[1] == "feature" and words[2].startswith("{"):
            assert words[2] == "{" + ",".join(op.choices) + "}", line
        elif words[1] == "feature":
            assert words[2] in op.choices, line
        declared = global_flags | {f for a in sub.choices[words[1]]._actions
                                   for f in a.option_strings}
        for flag in re.findall(r"--[a-z][a-z-]*", line):
            assert flag in declared, line


def test_cli_import_loads_no_scipy():
    # scipy is only the tests' PCHIP oracle; importing scipy.interpolate
    # would cost every vcmbench process most of its start-up time
    code = ("import sys, vcmbench.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "vcmbench.cli", "--version"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "0.1.0"
