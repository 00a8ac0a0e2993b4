import json
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from vcmbench.model import BoxTable
from vcmbench.pipeline.yuv import RawImage, write_yuv420

TESTS_DIR = Path(__file__).parent

# Test-side records, one per JSON-lines line; box is (x_min, y_min, x_max, y_max).
Det = namedtuple("Det", "image_id class_id box score")
Gt = namedtuple("Gt", "image_id class_id box")
Track = namedtuple("Track", "frame track_id class_id box score")


def det_table(dets) -> BoxTable:
    return BoxTable(
        xyxy=[d.box for d in dets], class_id=[d.class_id for d in dets],
        image_id=[d.image_id for d in dets], score=[d.score for d in dets],
    )


def gt_table(gts) -> BoxTable:
    return BoxTable(
        xyxy=[g.box for g in gts], class_id=[g.class_id for g in gts],
        image_id=[g.image_id for g in gts],
    )


def track_table(tracks) -> BoxTable:
    return BoxTable(
        xyxy=[t.box for t in tracks], class_id=[t.class_id for t in tracks],
        frame=[t.frame for t in tracks], track_id=[t.track_id for t in tracks],
        score=[t.score for t in tracks],
    )


def flat_image(width: int, height: int, y=128, cb=128, cr=128) -> RawImage:
    """One frame whose every sample of a plane has the same value."""
    ch, cw = (height + 1) // 2, (width + 1) // 2
    return RawImage(
        y=np.full((height, width), y, dtype=np.uint8),
        cb=np.full((ch, cw), cb, dtype=np.uint8),
        cr=np.full((ch, cw), cr, dtype=np.uint8),
    )

# blob grid used by the end-to-end fixtures: (col, row, intensity);
# intensity 128 + 2^i vanishes under TRUNCATE once qp > i, 255 once qp > 6
BLOB_SIZE = 32
CELL = 64
BLOB_SPECS = [
    (0, 0, 255),
    (1, 0, 128 + 64),
    (2, 0, 128 + 32),
    (3, 0, 128 + 16),
    (0, 1, 128 + 8),
    (1, 1, 128 + 4),
    (2, 1, 128 + 2),
    (3, 1, 128 + 1),
]
FIXTURE_W = 4 * CELL
FIXTURE_H = 2 * CELL


def make_blob_image() -> RawImage:
    y = np.full((FIXTURE_H, FIXTURE_W), 128, dtype=np.uint8)
    for col, row, intensity in BLOB_SPECS:
        x0 = col * CELL + (CELL - BLOB_SIZE) // 2
        y0 = row * CELL + (CELL - BLOB_SIZE) // 2
        y[y0 : y0 + BLOB_SIZE, x0 : x0 + BLOB_SIZE] = intensity
    return RawImage(
        y=y,
        cb=np.full((FIXTURE_H // 2, FIXTURE_W // 2), 128, dtype=np.uint8),
        cr=np.full((FIXTURE_H // 2, FIXTURE_W // 2), 128, dtype=np.uint8),
    )


def blob_ground_truth(image_id: str) -> list[Gt]:
    boxes = []
    for col, row, _ in BLOB_SPECS:
        x0 = col * CELL + (CELL - BLOB_SIZE) // 2
        y0 = row * CELL + (CELL - BLOB_SIZE) // 2
        boxes.append(Gt(image_id, 0, (x0, y0, x0 + BLOB_SIZE, y0 + BLOB_SIZE)))
    return boxes


def write_jsonl(records, path: Path) -> None:
    path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )


def gt_records(gts) -> list[dict]:
    return [
        {
            "image_id": g.image_id,
            "class_id": g.class_id,
            "bbox": list(g.box),
        }
        for g in gts
    ]


def det_records(gts, score=0.9) -> list[dict]:
    """Perfect detections derived from ground truth."""
    return [
        {
            "image_id": g.image_id,
            "class_id": g.class_id,
            "bbox": list(g.box),
            "score": score,
        }
        for g in gts
    ]


def detector_command() -> str:
    script = TESTS_DIR / "blob_detector.py"
    return (
        f"{sys.executable} {script} {{input}} {{output}} "
        "--width {width} --height {height} --image-id {item}"
    )


@pytest.fixture
def blob_manifest(tmp_path):
    """Two-image DETECTION manifest around the built-in TRUNCATE codec."""

    def build(codec_kind="TRUNCATE", qp_list=(0, 1, 2, 3, 4, 5, 6, 7),
              scales=(100, 75, 50, 25), predictions="command"):
        items = []
        for idx in ("a", "b"):
            image_id = f"img_{idx}"
            img = make_blob_image()
            src = tmp_path / f"{image_id}.yuv"
            write_yuv420(img, src)
            gts = blob_ground_truth(image_id)
            gt_path = tmp_path / f"{image_id}.gt.jsonl"
            write_jsonl(gt_records(gts), gt_path)
            item = {
                "id": image_id,
                "path": src.name,
                "width": FIXTURE_W,
                "height": FIXTURE_H,
                "ground_truth": gt_path.name,
            }
            if predictions == "command":
                item["prediction_command"] = detector_command()
            else:
                pred_path = tmp_path / f"{image_id}.pred.jsonl"
                write_jsonl(det_records(gts), pred_path)
                item["predictions"] = {
                    f"{qp}:{scale}": pred_path.name
                    for qp in qp_list
                    for scale in scales
                }
            items.append(item)
        manifest = {
            "task": "DETECTION",
            "scales": list(scales),
            "iou_thresholds": [0.5],
            "codec": {"kind": codec_kind, "qp_list": list(qp_list)},
            "items": items,
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        return path

    return build
