import dataclasses
import json
import os
import re
import shlex
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURE_H, FIXTURE_W, flat_image, make_blob_image, write_jsonl
from vcmbench.cli import main
from vcmbench.errors import InputError, ParseError, StageError
from vcmbench.pipeline import experiment
from vcmbench.pipeline.codec import CodecSpec
from vcmbench.pipeline.experiment import load_manifest, run_experiment
from vcmbench.pipeline.yuv import RawImage, frame_size_bytes, write_yuv420
from vcmbench.rdcurves import bpp


def test_null_codec_perfect_predictions_flat_curves(blob_manifest, tmp_path):
    path = blob_manifest(codec_kind="NULL", qp_list=(22, 27), predictions="files")
    manifest = load_manifest(path)
    result = run_experiment(manifest, work_dir=tmp_path / "work")
    assert len(result.curves) == 4
    for curve in result.curves:
        for p in curve.points:
            assert p.quality == pytest.approx(1.0)


def test_single_cell_rate_is_source_bpp(blob_manifest, tmp_path):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), scales=(100,),
                         predictions="files")
    manifest = load_manifest(path)
    result = run_experiment(manifest, work_dir=tmp_path / "work")
    (curve,) = result.curves
    assert len(curve.points) == 1
    raw_bits = 8 * (FIXTURE_W * FIXTURE_H * 3 // 2)
    assert curve.points[0].rate == pytest.approx(bpp(raw_bits, FIXTURE_W, FIXTURE_H))


def test_smaller_scales_cost_fewer_bits(blob_manifest, tmp_path):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), predictions="files")
    manifest = load_manifest(path)
    result = run_experiment(manifest, work_dir=tmp_path / "work")
    rates = {c.scale_percent: c.points[0].rate for c in result.curves}
    assert rates[25] < rates[50] < rates[75] < rates[100]


def test_jobs_do_not_change_results(blob_manifest, tmp_path):
    path = blob_manifest(codec_kind="NULL", qp_list=(22, 27), scales=(100, 50),
                         predictions="files")
    manifest = load_manifest(path)
    r1 = run_experiment(manifest, work_dir=tmp_path / "w1", jobs=1)
    r4 = run_experiment(manifest, work_dir=tmp_path / "w4", jobs=4)
    assert r1.rd_points == r4.rd_points


def test_units_share_records_under_thread_switching(blob_manifest, tmp_path):
    # more workers than units and cores, switching threads as often as possible
    path = blob_manifest(codec_kind="NULL", qp_list=(22, 27, 32), predictions="files")
    manifest = load_manifest(path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        r8 = run_experiment(manifest, work_dir=tmp_path / "w8", jobs=8)
    finally:
        sys.setswitchinterval(interval)
    r1 = run_experiment(manifest, work_dir=tmp_path / "w1", jobs=1)
    assert len(r8.records) == 2 * 4 * 3
    assert r8.records == r1.records
    assert r8.rd_points == r1.rd_points


def test_prediction_command_end_to_end(blob_manifest, tmp_path):
    path = blob_manifest(codec_kind="TRUNCATE", qp_list=(0, 4), scales=(100, 50))
    manifest = load_manifest(path)
    result = run_experiment(manifest, work_dir=tmp_path / "work", jobs=2)
    by_cell = result.rd_points
    # lossless qp keeps every blob: mAP 1.0 at both scales
    assert by_cell[(100, 0)][1] == pytest.approx(1.0)
    assert by_cell[(50, 0)][1] == pytest.approx(1.0)
    # qp 4 erases the four faintest blobs: recall 0.5, perfect precision
    assert by_cell[(100, 4)][1] == pytest.approx(0.5)
    # more truncation also means fewer coded bits
    assert by_cell[(100, 4)][0] < by_cell[(100, 0)][0]
    # the command read one reconstruction per (item, qp, scale)
    recons = sorted(p.parent.name for p in (tmp_path / "work").rglob("recon.yuv"))
    assert recons == sorted(
        f"item{i}_q{qp}_s{scale}" for i in (0, 1) for qp in (0, 4) for scale in (100, 50)
    )


def test_precomputed_predictions_skip_the_reconstruction(blob_manifest, tmp_path, monkeypatch):
    path = blob_manifest(codec_kind="NULL", qp_list=(22, 27), scales=(100, 50),
                         predictions="files")
    calls = []
    resize = experiment.resize

    def counted(*args):
        calls.append(args)
        return resize(*args)

    monkeypatch.setattr(experiment, "resize", counted)
    result = run_experiment(load_manifest(path), work_dir=tmp_path / "work")
    assert len(result.records) == 2 * 2 * 2
    assert calls == []
    assert list((tmp_path / "work").rglob("recon.yuv")) == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_null_precomputed_items_read_scale_and_write_no_frame(
    blob_manifest, tmp_path, monkeypatch, jobs
):
    path = blob_manifest(codec_kind="NULL", qp_list=(22, 27), predictions="files")
    calls = []
    for name in ("read_yuv420", "scale_image", "write_yuv420"):
        monkeypatch.setattr(experiment, name, lambda *a, name=name: calls.append(name))
    result = run_experiment(load_manifest(path), work_dir=tmp_path / "work", jobs=jobs)
    assert len(result.records) == 2 * 4 * 2
    assert calls == []
    assert list((tmp_path / "work").iterdir()) == []


def _odd_null_manifest(tmp_path, frames=3) -> Path:
    """Two NULL items on one 321x241 source of `frames` frames, at every scale.

    item "cmd" has a prediction command, which makes the codec input;
    item "files" has the same predictions precomputed.
    """
    w, h = 321, 241
    rng = np.random.default_rng(5)
    write_yuv420(
        [RawImage(y=rng.integers(0, 256, (h, w), dtype=np.uint8),
                  cb=rng.integers(0, 256, ((h + 1) // 2, (w + 1) // 2), dtype=np.uint8),
                  cr=rng.integers(0, 256, ((h + 1) // 2, (w + 1) // 2), dtype=np.uint8))
         for _ in range(frames)],
        tmp_path / "src.yuv",
    )
    box = {"image_id": "0", "class_id": 0, "bbox": [10, 10, 60, 50]}
    write_jsonl([box], tmp_path / "gt.jsonl")
    write_jsonl([dict(box, score=0.9)], tmp_path / "det.jsonl")
    qps, scales = (22, 27), (100, 75, 50, 25)
    copy = (f"{shlex.quote(sys.executable)} -c "
            '"import shutil,sys; shutil.copy(sys.argv[1], sys.argv[2])"')
    item = {"path": "src.yuv", "width": w, "height": h, "frames": frames,
            "ground_truth": "gt.jsonl"}
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "task": "DETECTION", "scales": list(scales),
        "codec": {"kind": "NULL", "qp_list": list(qps)},
        "items": [
            dict(item, id="cmd", prediction_command=(
                f"{copy} {shlex.quote(str(tmp_path / 'det.jsonl'))} {{output}}")),
            dict(item, id="files",
                 predictions={f"{qp}:{s}": "det.jsonl" for qp in qps for s in scales}),
        ],
    }))
    return path


@pytest.mark.parametrize("jobs", [1, 2])
def test_null_rate_is_the_same_with_and_without_the_codec_input(tmp_path, jobs):
    work = tmp_path / "work"
    result = run_experiment(load_manifest(_odd_null_manifest(tmp_path)), work, jobs=jobs)
    by_item = {(r.item_id, r.scale, r.qp): r for r in result.records}
    assert len(by_item) == 2 * 4 * 2
    for scale in (100, 75, 50, 25):
        # the command item wrote the codec input, whose raw size NULL charges
        written = 8 * (work / f"item0_s{scale}" / "input.yuv").stat().st_size
        for qp in (22, 27):
            cmd, files = by_item[("cmd", scale, qp)], by_item[("files", scale, qp)]
            assert cmd.bits == files.bits == written, (scale, qp)
            assert cmd.rate == files.rate == bpp(written, 321, 241)
    # the precomputed item made no directory and no file
    assert not [p for p in work.iterdir() if p.name.startswith("item1_")]
    assert (work / "item0_s100" / "input.yuv").stat().st_size == 3 * frame_size_bytes(322, 242)


@pytest.mark.parametrize("jobs", [1, 2])
def test_command_reconstruction_is_the_source_at_100_and_its_size_below(tmp_path, jobs):
    # the source's random frames make its last column and row unlike the
    # padding's copies of them, so an off-by-one crop cannot pass
    work = tmp_path / "work"
    run_experiment(load_manifest(_odd_null_manifest(tmp_path)), work, jobs=jobs)
    source = (tmp_path / "src.yuv").read_bytes()
    for qp in (22, 27):
        assert (work / f"item0_q{qp}_s100" / "recon.yuv").read_bytes() == source
        for scale in (75, 50, 25):
            recon = work / f"item0_q{qp}_s{scale}" / "recon.yuv"
            assert recon.stat().st_size == len(source) == 3 * frame_size_bytes(321, 241)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("breakage, cause", [
    ("missing", "No such file or directory"),
    ("wrong-size", "is not a multiple of the 256x128 frame size 49152"),
    ("frames", "expected 2 frames, found 1"),
])
def test_null_precomputed_source_faults_fail_at_load(
    tmp_path, blob_manifest, capsys, breakage, cause, jobs
):
    path = blob_manifest(codec_kind="NULL", qp_list=(22, 27), predictions="files")
    source = tmp_path / "img_a.yuv"
    if breakage == "missing":
        source.unlink()
    elif breakage == "wrong-size":
        source.write_bytes(source.read_bytes() + b"\0")
    else:
        doc = json.loads(path.read_text())
        doc["items"][0]["frames"] = 2
        path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--jobs", str(jobs), "run", str(path), "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: load failed for item='img_a' qp=22 scale=100: "
    )
    partial = json.loads((out / "partial_results.json").read_text())
    failure = partial["failure"]
    assert (failure["stage"], failure["item"], failure["qp"], failure["scale"]) == (
        "load", "img_a", 22, 100
    )
    assert cause in failure["cause"]
    assert all(r["item"] == "img_b" for r in partial["records"])
    assert not (out / "report.json").exists()


def test_tracking_experiment_end_to_end(tmp_path):
    import numpy as np

    from vcmbench.pipeline.yuv import RawImage, write_yuv420
    from conftest import write_jsonl

    rng = np.random.default_rng(77)
    frames = []
    for _ in range(4):
        frames.append(
            RawImage(
                y=rng.integers(0, 256, (32, 48)).astype(np.uint8),
                cb=rng.integers(0, 256, (16, 24)).astype(np.uint8),
                cr=rng.integers(0, 256, (16, 24)).astype(np.uint8),
            )
        )
    seq = tmp_path / "seq.yuv"
    write_yuv420(frames, seq)
    tracks = [
        {"frame": f, "track_id": 1, "class_id": 0,
         "bbox": [2.0 + f, 2.0, 12.0 + f, 12.0], "score": 1.0}
        for f in range(4)
    ]
    gt_path = tmp_path / "gt.jsonl"
    write_jsonl(tracks, gt_path)
    pred_path = tmp_path / "pred.jsonl"
    write_jsonl(tracks, pred_path)
    manifest_doc = {
        "task": "TRACKING",
        "scales": [100, 50],
        "codec": {"kind": "NULL", "qp_list": [22]},
        "items": [
            {
                "id": "seq0",
                "path": "seq.yuv",
                "width": 48,
                "height": 32,
                "frames": 4,
                "fps": 30,
                "ground_truth": "gt.jsonl",
                "predictions": {"22:100": "pred.jsonl", "22:50": "pred.jsonl"},
            }
        ],
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest_doc))
    manifest = load_manifest(mpath)
    assert manifest.quality_unit == "mota"
    result = run_experiment(manifest, work_dir=tmp_path / "work")
    # perfect predictions track the GT: MOTA 1.0 at both scales
    for curve in result.curves:
        assert curve.points[0].quality == pytest.approx(1.0)
    # rate is bits per second: 8 * file bytes * fps / frames
    expected = 8 * seq.stat().st_size * 30 / 4
    assert result.rd_points[(100, 22)][0] == pytest.approx(expected)


def test_tracking_item_without_ground_truth_counts_its_predictions_as_false_positives(
    tmp_path, capsys
):
    # item a tracks its one box; item b has no ground truth and one prediction
    box = {"frame": 0, "track_id": 1, "class_id": 0, "bbox": [2.0, 2.0, 10.0, 10.0],
           "score": 1.0}
    items = []
    for name, gt in (("a", [box]), ("b", [])):
        write_yuv420(flat_image(16, 16), tmp_path / f"{name}.yuv")
        write_jsonl(gt, tmp_path / f"{name}.gt.jsonl")
        write_jsonl([box], tmp_path / f"{name}.pred.jsonl")
        items.append({"id": name, "path": f"{name}.yuv", "width": 16, "height": 16,
                      "ground_truth": f"{name}.gt.jsonl",
                      "predictions": {"22:100": f"{name}.pred.jsonl"}})
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"task": "TRACKING", "scales": [100],
                                "codec": {"kind": "NULL", "qp_list": [22]}, "items": items}))
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 0, capsys.readouterr().err
    (row,) = json.loads((out / "report.json").read_text())["rd_tables"]["100"]
    assert row["quality"] == 0.0  # 1 - (FN 0 + FP 1 + IDSW 0) / GT 1


def test_tracking_bitrate_beyond_float_range_fails_at_rate_with_partial_results(
    tmp_path, capsys
):
    # fps is finite, but 3072 bits x 1e308 fps is not
    box = {"frame": 0, "track_id": 1, "class_id": 0, "bbox": [2.0, 2.0, 10.0, 10.0],
           "score": 1.0}
    write_yuv420(flat_image(16, 16), tmp_path / "a.yuv")
    write_jsonl([box], tmp_path / "a.jsonl")
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "task": "TRACKING", "scales": [100], "codec": {"kind": "NULL", "qp_list": [22]},
        "items": [{"id": "a", "path": "a.yuv", "width": 16, "height": 16, "fps": 1e308,
                   "ground_truth": "a.jsonl", "predictions": {"22:100": "a.jsonl"}}],
    }))
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: rate failed for item='a' qp=22 scale=100: "
        "bitrate is not finite: 3072 bits at 1e+308 fps\n"
    )
    partial = json.loads((out / "partial_results.json").read_text())
    assert partial["failure"]["stage"] == "rate" and partial["records"] == []


def _tracking_run(d: Path, codec: dict, ids=("a",), fps=30.0) -> list[str]:
    """`run` of one-frame 16x16 TRACKING items, each tracking its one box, at qp 22 and 100 %."""
    box = {"frame": 0, "track_id": 1, "class_id": 0, "bbox": [2.0, 2.0, 10.0, 10.0],
           "score": 1.0}
    write_yuv420(flat_image(16, 16), d / "a.yuv")
    write_jsonl([box], d / "a.jsonl")
    items = [{"id": i, "path": "a.yuv", "width": 16, "height": 16, "fps": fps,
              "ground_truth": "a.jsonl", "predictions": {"22:100": "a.jsonl"}} for i in ids]
    (d / "m.json").write_text(json.dumps({
        "task": "TRACKING", "scales": [100], "codec": dict(codec, qp_list=[22]), "items": items,
    }))
    return ["run", str(d / "m.json"), "--output-dir", str(d / "out")]


def test_tracking_empty_bitstream_fails_at_rate_with_partial_results(tmp_path, capsys):
    # an encoder may write no byte; bpp refuses 0 bits, and so does bitrate
    # tool PATH N writes N zero bytes to PATH
    write = "import sys; open(sys.argv[1], 'wb').write(bytes(int(sys.argv[2])))"
    tool = f'{sys.executable} -c "{write}"'
    argv = _tracking_run(tmp_path, {"kind": "EXTERNAL",
                                    "encode_template": f"{tool} {{output}} 0",
                                    "decode_template": f"{tool} {{output}} 384"})
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: rate failed for item='a' qp=22 scale=100: total_bits must be > 0: 0\n"
    )
    partial = json.loads((tmp_path / "out" / "partial_results.json").read_text())
    assert partial["failure"]["stage"] == "rate" and partial["records"] == []


def test_tracking_cell_rate_past_float64_fails_at_rate_with_partial_results(tmp_path, capsys):
    # each item's 3072 bits x 5e304 fps is finite, but the two items' sum is not
    argv = _tracking_run(tmp_path, {"kind": "NULL"}, ids=("a", "b"), fps=5e304)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: rate failed for item='a' qp=22 scale=100: rate must be finite and > 0: inf\n"
    )
    partial = json.loads((tmp_path / "out" / "partial_results.json").read_text())
    assert partial["failure"]["stage"] == "rate"
    assert [r["item"] for r in partial["records"]] == ["a", "b"]


def test_ground_truth_files_are_read_only_inputs(blob_manifest, tmp_path):
    # boxes are never rescaled: the GT files must come out of a full run
    # byte-identical
    path = blob_manifest(codec_kind="TRUNCATE", qp_list=(0, 4), scales=(50,))
    manifest = load_manifest(path)
    before = {i.item_id: i.ground_truth.read_bytes() for i in manifest.items}
    run_experiment(manifest, work_dir=tmp_path / "work")
    for item in manifest.items:
        assert item.ground_truth.read_bytes() == before[item.item_id]


def test_manifest_missing_prediction_source(tmp_path, blob_manifest):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), predictions="files")
    doc = json.loads(path.read_text())
    del doc["items"][0]["predictions"]["22:25"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_manifest(bad)


def test_manifest_duplicate_ids(tmp_path, blob_manifest):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), predictions="files")
    doc = json.loads(path.read_text())
    doc["items"].append(doc["items"][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_manifest(bad)


def test_stage_error_carries_context(tmp_path, blob_manifest):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), scales=(100,),
                         predictions="files")
    doc = json.loads(path.read_text())
    doc["items"][1]["path"] = "missing.yuv"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    manifest = load_manifest(bad)
    with pytest.raises(StageError) as err:
        run_experiment(manifest, work_dir=tmp_path / "work")
    assert err.value.item_id == "img_b"
    assert err.value.qp == 22
    assert err.value.scale == 100
    # the first item completed and is preserved for persistence
    assert len(err.value.partial_records) == 1


def test_jobs_2_failure_keeps_every_completed_record(tmp_path, blob_manifest):
    path = blob_manifest(codec_kind="NULL", qp_list=(22, 27), predictions="files")
    doc = json.loads(path.read_text())
    doc["items"][1]["path"] = "missing.yuv"
    path.write_text(json.dumps(doc))
    for jobs in (1, 2):
        with pytest.raises(StageError) as err:
            run_experiment(load_manifest(path), work_dir=tmp_path / f"work{jobs}", jobs=jobs)
        assert (err.value.stage, err.value.item_id, err.value.qp) == ("load", "img_b", 22)
        # item a's units are queued first, so all of them complete
        assert [(r.item_id, r.qp, r.scale) for r in err.value.partial_records] == [
            ("img_a", qp, scale) for qp in (22, 27) for scale in (25, 50, 75, 100)
        ]


def test_evaluate_failure_keeps_every_record(tmp_path, blob_manifest):
    path = blob_manifest(codec_kind="NULL", qp_list=(22, 27), scales=(100, 50),
                         predictions="files")
    (tmp_path / "img_b.pred.jsonl").write_text("{not json\n")
    with pytest.raises(StageError) as err:
        run_experiment(load_manifest(path), work_dir=tmp_path / "work", jobs=2)
    # the first cell evaluated is (scale 100, qp 22); item a parses, item b does not
    assert (err.value.stage, err.value.item_id, err.value.qp, err.value.scale) == (
        "evaluate", "img_b", 22, 100
    )
    assert len(err.value.partial_records) == 2 * 2 * 2


@pytest.mark.parametrize("contents, match", [
    ({"img_b": "{not json\n"}, "img_b.gt.jsonl"),
    ({"img_a": "", "img_b": ""}, "no item has any ground-truth box"),
], ids=["malformed", "all-empty"])
def test_bad_ground_truth_fails_before_any_codec_call(
    tmp_path, blob_manifest, monkeypatch, contents, match
):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), predictions="files")
    for item, text in contents.items():
        (tmp_path / f"{item}.gt.jsonl").write_text(text)
    calls = []
    monkeypatch.setattr(experiment, "run_codec", lambda *a, **k: calls.append(a))
    with pytest.raises(InputError, match=match):
        run_experiment(load_manifest(path), work_dir=tmp_path / "work")
    assert calls == []


def test_jobs_2_failure_cancels_queued_units(tmp_path, blob_manifest, monkeypatch):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), scales=(100,),
                         predictions="files")
    doc = json.loads(path.read_text())
    doc["items"][1]["path"] = "missing.yuv"
    doc["items"] += [dict(doc["items"][0], id=f"img_{c}") for c in "cdef"]
    path.write_text(json.dumps(doc))
    completed = []
    process_item = experiment._process_item

    def slow(*args):
        time.sleep(0.2)
        rec = process_item(*args)
        completed.append(rec)
        return rec

    monkeypatch.setattr(experiment, "_process_item", slow)
    for jobs in (1, 2):
        completed.clear()
        with pytest.raises(StageError) as err:
            run_experiment(load_manifest(path), work_dir=tmp_path / f"work{jobs}", jobs=jobs)
        assert (err.value.item_id, err.value.qp) == ("img_b", 22)
        # img_b fails while img_a runs (jobs 2) or right after it (jobs 1); the
        # worker that ran img_b may start img_c, and the units behind it are
        # cancelled
        done = sorted(r.item_id for r in completed)
        assert done in (["img_a"], ["img_a", "img_c"])
        # every completed record is kept, in key order, not just those ahead of img_b
        assert [r.item_id for r in err.value.partial_records] == done


def test_items_sharing_an_image_id_match_only_within_each_item(tmp_path):
    # item b's detection sits on item a's GT box; pooled by image id alone
    # it would be a true positive
    boxes = {"a": ([0, 0, 10, 10], []), "b": ([30, 30, 40, 40], [[0, 0, 10, 10]])}
    items = []
    for name, (gt_box, det_boxes) in boxes.items():
        write_yuv420(flat_image(64, 64), tmp_path / f"{name}.yuv")
        write_jsonl([{"image_id": "0", "class_id": 0, "bbox": gt_box}], tmp_path / f"{name}.gt")
        write_jsonl(
            [{"image_id": "0", "class_id": 0, "bbox": b, "score": 0.9} for b in det_boxes],
            tmp_path / f"{name}.det",
        )
        items.append({"id": name, "path": f"{name}.yuv", "width": 64, "height": 64,
                      "ground_truth": f"{name}.gt", "predictions": {"22:100": f"{name}.det"}})
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "task": "DETECTION", "scales": [100],
        "codec": {"kind": "NULL", "qp_list": [22]}, "items": items,
    }))
    result = run_experiment(load_manifest(path), work_dir=tmp_path / "work")
    assert result.rd_points[(100, 22)][1] == 0.0


def test_pixel_work_once_per_item_scale(tmp_path, blob_manifest, monkeypatch):
    # TRUNCATE reads the codec input; NULL with prediction files prepares no pixels
    path = blob_manifest(codec_kind="TRUNCATE", qp_list=(22, 27, 32), predictions="files")
    doc = json.loads(path.read_text())
    frames = 3
    for item in doc["items"]:
        item["frames"] = frames
        write_yuv420([make_blob_image()] * frames, tmp_path / item["path"])
    path.write_text(json.dumps(doc))
    calls = {"scale_image": 0, "load_ground_truth": 0}

    def counted(name):
        fn = getattr(experiment, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(experiment, name, counted(name))
    run_experiment(load_manifest(path), work_dir=tmp_path / "work", jobs=2)
    assert calls == {"scale_image": 2 * 4 * frames, "load_ground_truth": 2}


def test_manifest_unknown_scale_rejected_at_load(tmp_path, blob_manifest):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), scales=(100,),
                         predictions="files")
    doc = json.loads(path.read_text())
    doc["scales"] = [100, 30]
    for item in doc["items"]:
        item["predictions"]["22:30"] = item["predictions"]["22:100"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="30"):
        load_manifest(bad)


@pytest.mark.parametrize("change", [
    lambda doc: doc.update(iou_thresholds=[]),
    lambda doc: doc["items"][0].update(width=0),
    lambda doc: doc["items"][0].update(fps=float("nan")),
    lambda doc: doc["items"][0].update(prediction_command=5),
    lambda doc: doc.update(codec={"kind": "EXTERNAL", "encode_template": 5,
                                  "decode_template": "dec {input} {output}",
                                  "qp_list": [22]}),
    lambda doc: doc.update(scales=[50, 50]),
    lambda doc: doc["codec"].update(qp_list=[22, 22]),
    lambda doc: doc.update(iou_thresholds=[1.5]),
    lambda doc: doc.update(iou_thresholds=[0.0]),
    lambda doc: doc.update(task="TRACKING", iou_thresholds=[0.5, 0.75]),
    lambda doc: doc["items"][0].update(fps=True),
    lambda doc: doc["items"][0].update(fps=float("inf")),
    lambda doc: doc.update(iou_thresholds=[True]),
    lambda doc: doc.update(iou_threshold=[0.7]),
    lambda doc: doc["codec"].update(qps=[22]),
    lambda doc: doc["items"][0].update(widht=8),
    lambda doc: doc["codec"].update(encode_template="enc {input} {output}"),
], ids=["no-iou-thresholds", "width-zero", "fps-nan", "command-not-a-string",
        "template-not-a-string", "duplicate-scales", "duplicate-qps",
        "iou-above-1", "iou-zero", "tracking-two-thresholds", "fps-bool", "fps-infinite",
        "iou-bool", "manifest-key-unknown", "codec-key-unknown", "item-key-unknown",
        "template-on-a-built-in-codec"])
def test_manifest_bad_field_rejected_at_load(tmp_path, blob_manifest, change):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), predictions="files")
    doc = json.loads(path.read_text())
    change(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_manifest(bad)


_EXTERNAL = {"kind": "EXTERNAL", "encode_template": "enc {input} {output}",
             "decode_template": "dec {input} {output}", "qp_list": [22]}


@pytest.mark.parametrize("change, message", [
    (lambda doc: doc["items"][0].update(prediction_command="det 'unclosed {input} {output}"),
     "InputError: item 'img_a': prediction_command: No closing quotation: "
     "\"det 'unclosed {input} {output}\""),
    (lambda doc: doc["items"][1].update(prediction_command=" \t"),
     "InputError: item 'img_b': prediction_command: no argv tokens: ' \\t'"),
    (lambda doc: doc.update(codec=dict(_EXTERNAL, encode_template="enc 'x {input} {output}")),
     "InputError: encode_template: No closing quotation: \"enc 'x {input} {output}\""),
    (lambda doc: doc.update(codec=dict(_EXTERNAL, decode_template="dec {input} {output} \\")),
     "InputError: decode_template: No escaped character: 'dec {input} {output} \\\\'"),
], ids=["command-unbalanced-quote", "command-blank", "encode-unbalanced-quote",
        "decode-trailing-escape"])
def test_bad_command_template_fails_at_load_before_any_codec_call(
    tmp_path, blob_manifest, monkeypatch, change, message
):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), predictions="files")
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))
    calls = []
    monkeypatch.setattr(experiment, "run_codec", lambda *a, **k: calls.append(a))
    with pytest.raises(InputError, match=f"^{re.escape(f'{path}: manifest: {message}')}$"):
        run_experiment(load_manifest(path), work_dir=tmp_path / "work")
    assert calls == []


def test_item_with_both_prediction_sources_exits_2_before_any_codec_call(
    tmp_path, blob_manifest, monkeypatch, capsys
):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), predictions="files")
    doc = json.loads(path.read_text())
    doc["items"][0]["prediction_command"] = "det {input} {output}"
    path.write_text(json.dumps(doc))
    calls = []
    monkeypatch.setattr(experiment, "run_codec", lambda *a, **k: calls.append(a))
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: manifest: InputError: item 'img_a': "
        "give prediction_command or predictions, not both\n"
    )
    assert calls == []


@pytest.mark.parametrize("change, message", [
    (lambda doc: doc["codec"].update(qp_list=[22, 22]),
     "InvariantViolation: qp list has duplicates: [22, 22]"),
    (lambda doc: doc["codec"].update(kind="H266"),
     "InvariantViolation: unknown codec kind 'H266'"),
    (lambda doc: doc.update(scales=[100, 100]),
     "InvariantViolation: manifest scales have duplicates: [100, 100]"),
    (lambda doc: doc.update(codec=dict(_EXTERNAL, decode_template=None)),
     "InvariantViolation: EXTERNAL codec needs encode and decode templates"),
    (lambda doc: doc.update(iou_threshold=[0.7]), "InputError: unknown key 'iou_threshold'"),
    (lambda doc: doc["codec"].update(decode_template="dec {input} {output}"),
     "InvariantViolation: a NULL codec takes no templates"),
], ids=["duplicate-qps", "unknown-codec", "duplicate-scales", "external-without-decoder",
        "manifest-key-unknown", "template-on-a-built-in-codec"])
def test_run_on_a_manifest_its_types_refuse_names_the_manifest(
    tmp_path, blob_manifest, capsys, change, message
):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), predictions="files")
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: manifest: {message}\n"


@pytest.mark.parametrize("change, value", [
    (lambda doc: doc["items"][0].update(width=FIXTURE_W + 0.5), FIXTURE_W + 0.5),
    (lambda doc: doc["items"][1].update(height=True), True),
    (lambda doc: doc["items"][0].update(frames=1.25), 1.25),
    (lambda doc: doc.update(scales=[100, 50.5]), 50.5),
    (lambda doc: doc["codec"].update(qp_list=[22, 27.9]), 27.9),
    (lambda doc: doc["codec"].update(qp_list=[False]), False),
], ids=["width-fractional", "height-bool", "frames-fractional", "scale-fractional",
        "qp-fractional", "qp-bool"])
def test_manifest_integer_that_is_not_one_is_parse_error(tmp_path, blob_manifest, change, value):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), predictions="files")
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as err:
        load_manifest(path)
    assert str(err.value) == f"{path}: manifest: ValueError: expected an integer: {value!r}"


def test_manifest_integers_read_integral_floats_and_numeric_strings(tmp_path, blob_manifest):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), scales=(100,), predictions="files")
    doc = json.loads(path.read_text())
    doc["items"][0].update(width=float(FIXTURE_W), height=str(FIXTURE_H), frames=1.0)
    doc.update(scales=[100.0])
    doc["codec"].update(qp_list=["22"])
    path.write_text(json.dumps(doc))
    manifest = load_manifest(path)
    item = manifest.items[0]
    values = (item.width, item.height, item.frames, *manifest.scales, *manifest.codec.qp_list)
    assert values == (FIXTURE_W, FIXTURE_H, 1, 100, 22)
    assert {type(v) for v in values} == {int}


def test_quality_unit_follows_task(tmp_path, blob_manifest):
    manifest = load_manifest(blob_manifest(codec_kind="NULL", qp_list=(22,),
                                           predictions="files"))
    assert manifest.quality_unit == "fraction"
    tracking = dataclasses.replace(manifest, task="TRACKING")
    assert tracking.quality_unit == "mota"


def test_frame_count_mismatch_fails_at_load_before_any_frame(
    tmp_path, blob_manifest, monkeypatch
):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), scales=(50,),
                         predictions="files")
    doc = json.loads(path.read_text())
    for item in doc["items"]:
        item["frames"] = 3
    path.write_text(json.dumps(doc))
    calls = []
    monkeypatch.setattr(experiment, "scale_image", lambda *a: calls.append(a))
    with pytest.raises(StageError, match="expected 3 frames, found 1") as err:
        run_experiment(load_manifest(path), work_dir=tmp_path / "work")
    assert (err.value.stage, err.value.item_id) == ("load", "img_a")
    assert calls == []


def test_source_cut_short_mid_stream_fails_at_load(tmp_path, blob_manifest, monkeypatch):
    # TRUNCATE reads the source's frames; NULL with prediction files only checks its size
    path = blob_manifest(codec_kind="TRUNCATE", qp_list=(22,), scales=(50,),
                         predictions="files")
    doc = json.loads(path.read_text())
    doc["items"][0]["frames"] = 3
    source = tmp_path / doc["items"][0]["path"]
    write_yuv420([make_blob_image()] * 3, source)
    path.write_text(json.dumps(doc))
    read = experiment.read_yuv420

    def read_then_cut(*args):
        frames = read(*args)
        # the size was checked; the file loses half its last frame before the reads
        with open(source, "r+b") as fh:
            fh.truncate(source.stat().st_size - FIXTURE_W * FIXTURE_H // 2)
        return frames

    monkeypatch.setattr(experiment, "read_yuv420", read_then_cut)
    with pytest.raises(StageError) as err:
        run_experiment(load_manifest(path), work_dir=tmp_path / "work")
    assert (err.value.stage, err.value.item_id) == ("load", "img_a")
    assert isinstance(err.value.__cause__, InputError)
    assert "frame 2 of 3 is short" in str(err.value)


@pytest.mark.parametrize("blocked, qp", [
    ("item0_s50/input.yuv", 22),
    ("item0_q27_s50/recon.yuv", 27),
])
def test_a_failed_write_names_the_write_stage(tmp_path, blob_manifest, blocked, qp):
    path = blob_manifest(codec_kind="NULL", qp_list=(22, 27), scales=(50,))
    (tmp_path / "work" / blocked).mkdir(parents=True)
    with pytest.raises(StageError) as err:
        run_experiment(load_manifest(path), work_dir=tmp_path / "work")
    assert (err.value.stage, err.value.item_id, err.value.qp, err.value.scale) == (
        "write", "img_a", qp, 50
    )
    assert isinstance(err.value.__cause__, IsADirectoryError)


@pytest.mark.parametrize("blocked, qp", [("item0_s50", 22), ("item0_q27_s50", 27)])
def test_a_directory_that_cannot_be_made_names_the_write_stage(
    tmp_path, blob_manifest, blocked, qp
):
    # a file where the unit's or the qp's directory goes
    path = blob_manifest(codec_kind="NULL", qp_list=(22, 27), scales=(50,))
    (tmp_path / "work").mkdir()
    (tmp_path / "work" / blocked).write_text("")
    with pytest.raises(StageError) as err:
        run_experiment(load_manifest(path), work_dir=tmp_path / "work")
    assert (err.value.stage, err.value.item_id, err.value.qp, err.value.scale) == (
        "write", "img_a", qp, 50
    )
    assert isinstance(err.value.__cause__, FileExistsError)


def test_null_codec_writes_no_decoded_file(tmp_path, blob_manifest):
    # the prediction command reads the reconstruction of the input itself
    path = blob_manifest(codec_kind="NULL", qp_list=(22, 27), scales=(100, 50))
    result = run_experiment(load_manifest(path), work_dir=tmp_path / "work")
    assert all(q == pytest.approx(1.0) for _, q in result.rd_points.values())
    assert list((tmp_path / "work").rglob("decoded_q*")) == []
    assert len(list((tmp_path / "work").rglob("recon.yuv"))) == 2 * 2 * 2


def _open_paths() -> set[str]:
    fds = Path("/proc/self/fd")
    return {os.path.realpath(fd) for fd in fds.iterdir() if fd.is_symlink()}


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
@pytest.mark.parametrize("step, stage", [("scale_image", "scale"), ("resize", "upscale")])
def test_a_unit_failing_mid_stream_leaves_no_file_open(
    tmp_path, blob_manifest, monkeypatch, step, stage
):
    path = blob_manifest(codec_kind="NULL", qp_list=(22,), scales=(50,))
    doc = json.loads(path.read_text())
    for item in doc["items"]:
        item["frames"] = 4
        write_yuv420([make_blob_image()] * 4, tmp_path / item["path"])
    path.write_text(json.dumps(doc))
    fn, calls = getattr(experiment, step), []

    def fails_in_frame_3(*args):
        calls.append(args)
        if len(calls) == 3:
            raise InputError("frame 3 is bad")
        return fn(*args)

    monkeypatch.setattr(experiment, step, fails_in_frame_3)
    with pytest.raises(StageError) as err:
        run_experiment(load_manifest(path), work_dir=tmp_path / "work")
    assert (err.value.stage, err.value.item_id) == (stage, "img_a")
    # the error and its traceback are still alive, and no file stays open
    work = os.path.realpath(tmp_path)
    assert [p for p in _open_paths() if p.startswith(work)] == []


def _video_unit(tmp_path, frames: int):
    """A 321x241 DETECTION item of `frames` random frames at 75 %, over NULL."""
    rng = np.random.default_rng(frames)
    w, h = 321, 241
    src = tmp_path / f"v{frames}.yuv"
    write_yuv420(
        (RawImage(y=rng.integers(0, 256, (h, w), dtype=np.uint8),
                  cb=rng.integers(0, 256, ((h + 1) // 2, (w + 1) // 2), dtype=np.uint8),
                  cr=rng.integers(0, 256, ((h + 1) // 2, (w + 1) // 2), dtype=np.uint8))
         for _ in range(frames)),
        src,
    )
    item = experiment.ExperimentItem(
        item_id=f"v{frames}", path=src, width=w, height=h, frames=frames,
        ground_truth=tmp_path / "gt.jsonl", prediction_command="predict {input} {output}",
    )
    manifest = experiment.ExperimentManifest(
        task="DETECTION", codec=CodecSpec(kind="NULL", qp_list=(22,)),
        items=(item,), scales=(75,),
    )
    unit_dir = tmp_path / f"unit{frames}"
    unit_dir.mkdir()
    return manifest, item, unit_dir


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prepare_memory_does_not_grow_with_frames(tmp_path):
    units = {n: _video_unit(tmp_path, n) for n in (4, 32)}
    at = experiment._Progress("load")
    experiment._prepare(*units[4][:2], 75, units[4][2], at)  # fills the resampler's plan cache
    peak = {
        n: _peak_bytes(lambda: experiment._prepare(m, item, 75, d, at))
        for n, (m, item, d) in units.items()
    }
    assert peak[32] <= peak[4] + frame_size_bytes(321, 241), peak


def test_reconstruction_memory_does_not_grow_with_frames(tmp_path, monkeypatch):
    def predict(template, substitutions, what, output):
        Path(output).write_text("")

    monkeypatch.setattr(experiment, "run_command", predict)
    units = {n: _video_unit(tmp_path, n) for n in (4, 32)}
    at = experiment._Progress("load")
    prepared = {n: experiment._prepare(m, item, 75, d, at) for n, (m, item, d) in units.items()}
    experiment._process_item(*units[4][:2], 22, 75, units[4][2], prepared[4], at)
    peak = {
        n: _peak_bytes(lambda: experiment._process_item(m, item, 22, 75, d, prepared[n], at))
        for n, (m, item, d) in units.items()
    }
    assert peak[32] <= peak[4] + frame_size_bytes(321, 241), peak
    assert (units[32][2] / "recon.yuv").stat().st_size == 32 * frame_size_bytes(321, 241)
