"""report.json does not depend on the SIMD level numpy dispatches to.

numpy picks a SIMD path for some functions by the CPU it runs on, and
NPY_DISABLE_CPU_FEATURES switches paths off for one process. Each level
here disables one more of the dispatch targets that the CPU has, from the
top down, until only numpy's baseline is left. A run at every level must
write the same report.json bytes, and `vcmbench report` must re-render
that report at every level into the same tables and plot that run wrote.

The fixture is a TRUNCATE run of two textured frames made by integer
arithmetic. Its precomputed predictions find one box fewer at each qp, so
every curve falls with qp and the bd_table holds real numbers, and no
prediction command starts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import blob_ground_truth, det_records, gt_records, write_jsonl
from vcmbench.pipeline.yuv import RawImage, write_yuv420

SRC = Path(__file__).resolve().parent.parent / "src"
QPS = range(8)
SCALES = (100, 75, 50, 25)

_FEATURES = (
    "import json; from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__; "
    "print(json.dumps([f for f in __cpu_dispatch__ if __cpu_features__.get(f)]))"
)


def _env(disabled: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    return env


def _levels() -> list[str]:
    """NPY_DISABLE_CPU_FEATURES values: none, then each available target and all above it."""
    out = subprocess.run([sys.executable, "-c", _FEATURES], env=_env(""), check=True,
                         capture_output=True, text=True).stdout
    available = json.loads(out)
    return [" ".join(available[k:]) for k in range(len(available), -1, -1)]


def _cli(disabled: str, argv: list[str]) -> None:
    """Run argv through vcmbench's main in a child process at the given level."""
    code = f"import sys; from vcmbench.cli import main; sys.exit(main({argv!r}))"
    result = subprocess.run([sys.executable, "-c", code], env=_env(disabled),
                            capture_output=True, text=True)
    assert result.returncode == 0, (disabled, result.stderr)


def _texture(k: int) -> RawImage:
    """A 256 x 128 frame whose luma mixes two ramps and a product pattern."""
    yy, xx = np.mgrid[0:128, 0:256]
    y = (xx * (3 + k) + yy * (5 + 2 * k) + (xx * yy) % (7 + k)) % 256
    chroma = np.full((64, 128), 128, dtype=np.uint8)
    return RawImage(y=y.astype(np.uint8), cb=chroma, cr=chroma)


def _manifest(d: Path) -> Path:
    items = []
    for k, image_id in enumerate(("img_a", "img_b")):
        write_yuv420(_texture(k), d / f"{image_id}.yuv")
        gts = blob_ground_truth(image_id)
        write_jsonl(gt_records(gts), d / f"{image_id}.gt.jsonl")
        for qp in QPS:  # qp finds 8 - qp of the 8 boxes
            write_jsonl(det_records(gts[: 8 - qp]), d / f"{image_id}.q{qp}.jsonl")
        items.append({
            "id": image_id, "path": f"{image_id}.yuv", "ground_truth": f"{image_id}.gt.jsonl",
            "width": 256, "height": 128,
            "predictions": {f"{qp}:{s}": f"{image_id}.q{qp}.jsonl" for qp in QPS for s in SCALES},
        })
    path = d / "manifest.json"
    path.write_text(json.dumps({
        "task": "DETECTION", "scales": list(SCALES), "iou_thresholds": [0.5],
        "codec": {"kind": "TRUNCATE", "qp_list": list(QPS)}, "items": items,
    }))
    return path


def test_report_is_the_same_at_every_simd_level(tmp_path):
    levels = _levels()
    if len(levels) < 2:
        pytest.skip("numpy dispatches to no SIMD target this CPU has")
    manifest = _manifest(tmp_path)
    outs = [tmp_path / f"level{i}" for i in range(len(levels))]
    for level, out in zip(levels, outs):
        _cli(level, ["run", str(manifest), "--output-dir", str(out)])
    reports = [(out / "report.json").read_bytes() for out in outs]
    assert any(row["bd_rate_percent"] is not None
               for row in json.loads(reports[0])["bd_table"])
    for level, report in zip(levels, reports):
        assert report == reports[0], f"report.json differs with NPY_DISABLE_CPU_FEATURES={level!r}"
    # every level wrote these bytes, so re-rendering one report covers them all
    for i, level in enumerate(levels):
        rendered = tmp_path / f"rerender{i}"
        _cli(level, ["report", str(outs[0] / "report.json"), "--output-dir", str(rendered)])
        for name in ("rd_curves.csv", "pareto.csv", "bd_table.csv", "plot.svg"):
            assert (rendered / name).read_bytes() == (outs[0] / name).read_bytes(), (level, name)
