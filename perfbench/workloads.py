"""The benchmark's workloads: seeded inputs, the CLI calls of one pass, and output checks.

Every workload is a pass of two timed commands, each one or more calls of
`vcmbench.cli.main` (one call is one operation):

anchor-truncate
    `run` on the criterion-13 shape: TRUNCATE codec, the blob-detector
    prediction command, 2 items at 256x128 x 4 scales x 8 qps = 64 RD
    points. Command 1 is `--jobs 1 run`, command 2 is `--jobs 2 run`.
    Blob positions and the intensity of each blob come from the seed.
    Why: prediction subprocesses and the entropy coder (called by
    TRUNCATE) dominate, so coder and parallelism gains show here. It
    ties the figures to the ROADMAP baseline, which quotes `--jobs 4` on
    2 CPUs; this benchmark never uses more workers than `nproc` (2).
    Thread-time shares at the seed commit: predict 56%, entropy 36%,
    yuv 7%.
anchor-files
    `run` with the NULL codec and precomputed detection JSONL per
    (qp, scale): items of 1920x1080, 1280x720 and 853x479 (odd, so the
    pad/crop path runs), 60 ground-truth boxes over 5 classes and 600
    jittered detections per file, mAP@[.50:.05:.95], 4 scales x 4 qps.
    Commands: `--jobs 1 run`, `--jobs 2 run`.
    Why: yuv scaling and serial mAP dominate and the codec does nothing,
    so prepare-once, parse-ground-truth-once and vectorised IoU show
    here; for a coder change the prediction is no change.
    Seed shares: yuv 50%, metrics (mAP) 39%, tensorio 7%, entropy 0.
anchor-video
    `run` on the TRACKING task with the NULL codec and precomputed track
    files: 2 items of 32 frames at 960x540 with 20 moving tracks each,
    4 scales x 2 qps. Commands: `--jobs 1 run`, `--jobs 2 run`.
    Why: the only workload whose memory grows with frames x jobs, and
    the only user of load_tracks/mota and of multi-frame yuv, so frame
    streaming shows in peak_rss_mb, as does a cache that trades memory
    for speed. Seed shares: yuv 88%, experiment 5%, codec 2%, entropy 0.
feature-roundtrip
    `feature encode` (command 1) then `feature decode --ref` (command 2)
    over three tensors, twice each per pass (once on each of two CPUs):
    ReLU-like 256x64x64 at 8 bits, temporal layout, --reorder; the same
    tensor at 2 bits; a dense near-Gaussian 64x76x136 at 8 bits, spatial
    layout.
    Why: entropy coding dominates and it is the only workload that
    decodes. The corpus holds skewed bytes and near-uniform bytes (the
    coder's flat branch), so a coder that wins on one kind and inflates
    the other shows in coded_ratio.
    Seed shares: entropy 93%, packing (reorder) 5%, quantize 1%.

Shares are self time summed over threads, from a traced run (seed 1) on
a 2-vCPU Xeon VM. The generators write their inputs with the benchmark's
own code, never with vcmbench's writers, so the program receives only
generated files.
"""

from __future__ import annotations

import hashlib
import json
import shlex
import struct
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("anchor-truncate", "anchor-files", "anchor-video", "feature-roundtrip")

DETECTOR = Path(__file__).resolve().parent / "blob_detector.py"
MAP_THRESHOLDS = [round(0.5 + 0.05 * i, 2) for i in range(10)]


@dataclass
class Op:
    """One `vcmbench.cli.main` call and the check of what it wrote."""

    argv: list[str]
    output: Path
    # returns the problems found in the output; stdout is what main printed
    check: Callable[[str], list[str]]
    # run pinned to the CPU at this index of the allowed set, when given
    cpu: int | None = None


@dataclass
class Case:
    """A workload's generated inputs and the two commands of one pass."""

    workload: str
    commands: tuple[list[Op], list[Op]]
    # megabytes of work in each command, the numerator of its MB/s
    megabytes: tuple[float, float]
    coded_ratio: Callable[[], float]
    # RD points per `run` (anchors only)
    points: int | None = None
    ground_truth: frozenset[str] = field(default_factory=frozenset)


def pareto_bruteforce(points) -> list[tuple[float, float]]:
    """O(n^2) dominance filter over (rate, quality) pairs."""
    uniq = sorted(set(points))
    return [
        p
        for p in uniq
        if not any(
            q[0] <= p[0] and q[1] >= p[1] and (q[0] < p[0] or q[1] > p[1])
            for q in uniq
        )
    ]


def _ceil_half(v: int) -> int:
    return (v + 1) // 2


def frame_bytes(width: int, height: int) -> int:
    return width * height + 2 * _ceil_half(width) * _ceil_half(height)


def encoded_dims(width: int, height: int, scale: int) -> tuple[int, int]:
    """Dims the codec sees: scaled with round-half-up, padded to even at 100%."""
    if scale == 100:
        return width + width % 2, height + height % 2
    return (
        max(1, (width * scale * 2 + 100) // 200),
        max(1, (height * scale * 2 + 100) // 200),
    )


def _write_jsonl(records, path: Path) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


# ---------------------------------------------------------------- anchors


@dataclass(frozen=True)
class AnchorItem:
    item_id: str
    width: int
    height: int
    frames: int
    fps: float


def _uncoded_rate(item: AnchorItem, scale: int, tracking: bool) -> float:
    """Rate the NULL codec charges: 8 x coded frame bytes per source pixel (or per second)."""
    bits = 8 * item.frames * frame_bytes(*encoded_dims(item.width, item.height, scale))
    if tracking:
        return bits * item.fps / item.frames
    return bits / (item.width * item.height)


def _cell_rate(items, scale: int, tracking: bool) -> float:
    return sum(_uncoded_rate(i, scale, tracking) for i in items) / len(items)


def check_report(
    path: Path,
    items: list[AnchorItem],
    scales,
    qps,
    tracking: bool,
    monotone: bool,
    null_codec: bool,
) -> list[str]:
    """Problems found in one report.json of an anchor run."""
    try:
        doc = json.loads(path.read_bytes())
        tables = {int(s): rows for s, rows in doc["rd_tables"].items()}
        front = [(p["rate"], p["quality"]) for p in doc["pareto"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"{path}: unreadable report: {e!r}"]
    problems = []
    if sorted(tables) != sorted(scales):
        return [f"{path}: rd_tables cover scales {sorted(tables)}, expected {sorted(scales)}"]
    pool = []
    for scale in scales:
        rows = tables[scale]
        if [r.get("qp") for r in rows] != list(qps):
            problems.append(f"scale {scale}: rows cover qps {[r.get('qp') for r in rows]}")
            continue
        rates = [r["rate"] for r in rows]
        quality = [r["quality"] for r in rows]
        pool.extend(zip(rates, quality))
        if monotone:
            if any(b > a for a, b in zip(rates, rates[1:])):
                problems.append(f"scale {scale}: coded rate rises with qp: {rates}")
            if any(b > a for a, b in zip(quality, quality[1:])):
                problems.append(f"scale {scale}: mAP rises with qp: {quality}")
        if null_codec:
            expected = _cell_rate(items, scale, tracking)
            if any(abs(r - expected) > 1e-12 * expected for r in rates):
                problems.append(f"scale {scale}: NULL rates {rates} != closed form {expected!r}")
    if front != pareto_bruteforce(pool):
        problems.append(f"{path}: Pareto front differs from the O(n^2) dominance filter")
    return problems


def _report_coded_ratio(path: Path, items, scales, tracking: bool) -> float:
    """Summed reported rate over summed uncoded rate: coded bits per raw bit.

    Equals total coded bits / total raw bits when items share their dims.
    """
    doc = json.loads(path.read_bytes())
    coded = uncoded = 0.0
    for scale in scales:
        for row in doc["rd_tables"][str(scale)]:
            coded += row["rate"]
            uncoded += _cell_rate(items, scale, tracking)
    return coded / uncoded


def _anchor_case(
    workload: str,
    root: Path,
    manifest: dict,
    items: list[AnchorItem],
    monotone: bool,
) -> Case:
    mpath = root / "manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    scales = manifest["scales"]
    qps = manifest["codec"]["qp_list"]
    tracking = manifest["task"] == "TRACKING"
    null_codec = manifest["codec"]["kind"] == "NULL"
    megabytes = (
        sum(frame_bytes(i.width, i.height) * i.frames for i in items)
        * len(scales) * len(qps) / 1e6
    )

    def run_op(jobs: int, same_as: Path | None) -> Op:
        out = root / f"out_j{jobs}"
        report = out / "report.json"

        def check(stdout: str) -> list[str]:
            problems = check_report(report, items, scales, qps, tracking, monotone, null_codec)
            if same_as is not None and report.read_bytes() != same_as.read_bytes():
                problems.append(f"report.json differs between --jobs 1 and --jobs {jobs}")
            return problems

        argv = ["--jobs", str(jobs), "run", str(mpath), "--output-dir", str(out)]
        return Op(argv=argv, output=report, check=check)

    j1 = run_op(1, None)
    j2 = run_op(2, j1.output)
    return Case(
        workload=workload,
        commands=([j1], [j2]),
        megabytes=(megabytes, megabytes),
        coded_ratio=lambda: _report_coded_ratio(j1.output, items, scales, tracking),
        points=len(items) * len(scales) * len(qps),
        ground_truth=frozenset(str(root / it["ground_truth"]) for it in manifest["items"]),
    )


BLOB_INTENSITIES = (255, 128 + 64, 128 + 32, 128 + 16, 128 + 8, 128 + 4, 128 + 2, 128 + 1)
CELL = 64
# one size for every blob keeps coded_ratio nearly the same across seeds
BLOB = 32


def make_anchor_truncate(
    rng, root: Path, scales=(100, 75, 50, 25), qps=tuple(range(8))
) -> Case:
    """Two 256x128 blob images; intensity 128 + 2^i vanishes under TRUNCATE once qp > i."""
    width, height = 4 * CELL, 2 * CELL
    items, docs = [], []
    detector = (
        f"{shlex.quote(sys.executable)} {shlex.quote(str(DETECTOR))} {{input}} {{output}} "
        "--width {width} --height {height} --image-id {item}"
    )
    for name in ("a", "b"):
        image_id = f"img_{name}"
        y = np.full((height, width), 128, dtype=np.uint8)
        gts = []
        for cell, intensity in enumerate(rng.permutation(BLOB_INTENSITIES)):
            # a margin of 8 keeps blobs 16 px apart, so they stay apart at 25%
            x0 = (cell % 4) * CELL + int(rng.integers(8, CELL - 8 - BLOB + 1))
            y0 = (cell // 4) * CELL + int(rng.integers(8, CELL - 8 - BLOB + 1))
            y[y0 : y0 + BLOB, x0 : x0 + BLOB] = intensity
            gts.append(
                {"image_id": image_id, "class_id": 0,
                 "bbox": [float(x0), float(y0), float(x0 + BLOB), float(y0 + BLOB)]}
            )
        chroma = np.full(2 * _ceil_half(height) * _ceil_half(width), 128, dtype=np.uint8)
        (root / f"{image_id}.yuv").write_bytes(y.tobytes() + chroma.tobytes())
        _write_jsonl(gts, root / f"{image_id}.gt.jsonl")
        items.append(AnchorItem(image_id, width, height, 1, 30.0))
        docs.append(
            {"id": image_id, "path": f"{image_id}.yuv", "width": width, "height": height,
             "ground_truth": f"{image_id}.gt.jsonl", "prediction_command": detector}
        )
    manifest = {
        "task": "DETECTION",
        "scales": list(scales),
        "iou_thresholds": [0.5],
        "codec": {"kind": "TRUNCATE", "qp_list": list(qps)},
        "items": docs,
    }
    return _anchor_case("anchor-truncate", root, manifest, items, monotone=True)


def _write_random_frames(rng, path: Path, width: int, height: int, frames: int) -> None:
    with open(path, "wb") as fh:
        for _ in range(frames):
            fh.write(rng.integers(0, 256, frame_bytes(width, height), dtype=np.uint8).tobytes())


def _random_boxes(rng, n: int, width: int, height: int, lo: float, hi: float) -> np.ndarray:
    """n boxes [x0, y0, x1, y1] with sides in [lo, hi) inside the image."""
    w = rng.uniform(lo, hi, n)
    h = rng.uniform(lo, hi, n)
    x0 = rng.uniform(0, width - w)
    y0 = rng.uniform(0, height - h)
    return np.stack([x0, y0, x0 + w, y0 + h], axis=1)


def _jitter(rng, boxes: np.ndarray, sd: float, width: int, height: int) -> np.ndarray:
    """Move each edge by sd x the box side, clipped to the image, keeping extent >= 1."""
    side = np.concatenate([boxes[:, 2:] - boxes[:, :2]] * 2, axis=1)
    out = boxes + rng.normal(0.0, sd, boxes.shape) * side
    out[:, 0::2] = np.clip(out[:, 0::2], 0, width - 1)
    out[:, 1::2] = np.clip(out[:, 1::2], 0, height - 1)
    out[:, 2] = np.maximum(out[:, 2], out[:, 0] + 1)
    out[:, 3] = np.maximum(out[:, 3], out[:, 1] + 1)
    return out


def _bbox(row) -> list[float]:
    return [round(float(v), 2) for v in row]


def make_anchor_files(
    rng,
    root: Path,
    sizes=((1920, 1080), (1280, 720), (853, 479)),
    scales=(100, 75, 50, 25),
    qps=(22, 27, 32, 37),
    n_gt=60,
    n_det=600,
    classes=5,
) -> Case:
    """Random-content items with ground truth and jittered detections per (qp, scale).

    Jitter and score noise grow as the scale drops and the qp rises, so
    the RD curves trade rate for quality as real anchors do.
    """
    items, docs = [], []
    n_true = 3 * n_det // 4
    for idx, (width, height) in enumerate(sizes):
        item_id = f"item{idx}"
        _write_random_frames(rng, root / f"{item_id}.yuv", width, height, 1)
        big = min(width, height) / 4
        gt_boxes = _random_boxes(rng, n_gt, width, height, big / 8, big)
        gt_cls = rng.integers(0, classes, n_gt)
        _write_jsonl(
            [{"image_id": item_id, "class_id": int(c), "bbox": _bbox(b)}
             for b, c in zip(gt_boxes, gt_cls)],
            root / f"{item_id}.gt.jsonl",
        )
        preds = {}
        for qi, qp in enumerate(qps):
            for si, scale in enumerate(scales):
                level = qi + si
                src = np.arange(n_true) % n_gt
                boxes = np.concatenate([
                    _jitter(rng, gt_boxes[src], 0.02 + 0.02 * level, width, height),
                    _random_boxes(rng, n_det - n_true, width, height, big / 8, big),
                ])
                cls = np.concatenate([gt_cls[src], rng.integers(0, classes, n_det - n_true)])
                scores = np.concatenate([
                    rng.uniform(0.3, 1.0, n_true) - 0.03 * level * rng.random(n_true),
                    rng.uniform(0.0, 0.6, n_det - n_true),
                ]).clip(0.0, 1.0)
                name = f"{item_id}.q{qp}.s{scale}.det.jsonl"
                _write_jsonl(
                    [{"image_id": item_id, "class_id": int(c), "bbox": _bbox(b),
                      "score": round(float(s), 4)}
                     for b, c, s in zip(boxes, cls, scores)],
                    root / name,
                )
                preds[f"{qp}:{scale}"] = name
        items.append(AnchorItem(item_id, width, height, 1, 30.0))
        docs.append(
            {"id": item_id, "path": f"{item_id}.yuv", "width": width, "height": height,
             "ground_truth": f"{item_id}.gt.jsonl", "predictions": preds}
        )
    manifest = {
        "task": "DETECTION",
        "scales": list(scales),
        "iou_thresholds": MAP_THRESHOLDS,
        "codec": {"kind": "NULL", "qp_list": list(qps)},
        "items": docs,
    }
    return _anchor_case("anchor-files", root, manifest, items, monotone=False)


def _track_records(frames_boxes, ids, cls, score=None) -> list[dict]:
    out = []
    for frame, boxes in enumerate(frames_boxes):
        for k, box in enumerate(boxes):
            if box is None:
                continue
            out.append({
                "frame": frame, "track_id": int(ids[frame][k]), "class_id": int(cls[k]),
                "bbox": _bbox(box), "score": 1.0 if score is None else score[frame][k],
            })
    return out


def make_anchor_video(
    rng,
    root: Path,
    items_n=2,
    frames=32,
    width=960,
    height=540,
    tracks=20,
    scales=(100, 75, 50, 25),
    qps=(22, 37),
    fps=30.0,
) -> Case:
    """Multi-frame random-content items with moving ground-truth tracks.

    Predicted tracks per (qp, scale) jitter the truth, drop boxes, switch
    identities and add false positives, more so as the scale drops and
    the qp rises.
    """
    items, docs = [], []
    for idx in range(items_n):
        item_id = f"seq{idx}"
        _write_random_frames(rng, root / f"{item_id}.yuv", width, height, frames)
        big = min(width, height) / 5
        start = _random_boxes(rng, tracks, width, height, big / 4, big)
        velocity = rng.uniform(-4, 4, (tracks, 2))
        cls = rng.integers(0, 3, tracks)
        truth = []
        for f in range(frames):
            moved = start + np.concatenate([velocity, velocity], axis=1) * f
            moved[:, 0::2] = np.clip(moved[:, 0::2], 0, width)
            moved[:, 1::2] = np.clip(moved[:, 1::2], 0, height)
            visible = (moved[:, 2] - moved[:, 0] >= 2) & (moved[:, 3] - moved[:, 1] >= 2)
            truth.append([b if v else None for b, v in zip(moved, visible)])
        ids = [list(range(tracks))] * frames
        _write_jsonl(_track_records(truth, ids, cls), root / f"{item_id}.gt.jsonl")
        preds = {}
        for qi, qp in enumerate(qps):
            for si, scale in enumerate(scales):
                level = qi + si
                pred_ids = np.tile(np.arange(tracks), (frames, 1))
                # an identity switch: from a random frame on, a track takes a new id
                for k in rng.choice(tracks, size=min(tracks, level + 1), replace=False):
                    pred_ids[rng.integers(1, frames):, k] += 100 * (level + 1)
                pred, scores = [], []
                for f in range(frames):
                    boxes = np.array([b if b is not None else [0, 0, 1, 1] for b in truth[f]])
                    jittered = _jitter(rng, boxes, 0.02 + 0.015 * level, width, height)
                    keep = rng.random(tracks) >= 0.03 * level
                    pred.append([j if (t is not None and k) else None
                                 for j, t, k in zip(jittered, truth[f], keep)])
                    scores.append([round(float(s), 4) for s in rng.uniform(0.5, 1.0, tracks)])
                records = _track_records(pred, pred_ids, cls, scores)
                for f in range(frames):
                    for box in _random_boxes(rng, level, width, height, big / 4, big):
                        records.append({"frame": f, "track_id": 1000 + f, "class_id": 0,
                                        "bbox": _bbox(box), "score": 0.3})
                name = f"{item_id}.q{qp}.s{scale}.tracks.jsonl"
                _write_jsonl(records, root / name)
                preds[f"{qp}:{scale}"] = name
        items.append(AnchorItem(item_id, width, height, frames, fps))
        docs.append(
            {"id": item_id, "path": f"{item_id}.yuv", "width": width, "height": height,
             "frames": frames, "fps": fps, "ground_truth": f"{item_id}.gt.jsonl",
             "predictions": preds}
        )
    manifest = {
        "task": "TRACKING",
        "scales": list(scales),
        "iou_thresholds": [0.5],
        "codec": {"kind": "NULL", "qp_list": list(qps)},
        "items": docs,
    }
    return _anchor_case("anchor-video", root, manifest, items, monotone=False)


# ---------------------------------------------------------------- features

_VCMF = struct.Struct("<4s5I")


def write_tensor(values: np.ndarray, path: Path) -> None:
    c, h, w = values.shape
    path.write_bytes(_VCMF.pack(b"VCMF", 1, 0, c, h, w) + values.astype("<f4").tobytes())


def read_tensor(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    magic, _version, _dtype, c, h, w = _VCMF.unpack_from(raw)
    if magic != b"VCMF" or len(raw) != _VCMF.size + 4 * c * h * w:
        raise ValueError(f"{path}: not a {c}x{h}x{w} tensor file")
    return np.frombuffer(raw, dtype="<f4", offset=_VCMF.size).reshape(c, h, w)


@dataclass(frozen=True)
class StreamHeader:
    bit_depth: int
    dims: tuple[int, int, int]
    mean: np.ndarray
    std: np.ndarray
    z_min: float
    z_max: float
    z_th: float
    payload_bits: int
    payload_bytes: int


def read_stream_header(path: Path) -> StreamHeader:
    """Parse the fixed fields of a VCMS stream (layout in featurecodec/stream.py)."""
    raw = path.read_bytes()
    magic, _version, _layout, bit_depth, c, h, w = struct.unpack_from("<4sIBB3I", raw)
    if magic != b"VCMS":
        raise ValueError(f"{path}: bad magic {magic!r}")
    off = struct.calcsize("<4sIBB3I")
    mean = np.frombuffer(raw, dtype="<f4", count=c, offset=off)
    std = np.frombuffer(raw, dtype="<f4", count=c, offset=off + 4 * c)
    off += 8 * c
    z_min, z_max, z_th = struct.unpack_from("<3f", raw, off)
    off += 12
    off += 1 + (2 * c if raw[off] else 0)
    payload_bits, _crc = struct.unpack_from("<QI", raw, off)
    off += 12
    return StreamHeader(bit_depth, (c, h, w), mean, std, z_min, z_max, z_th,
                        payload_bits, len(raw) - off)


def check_stream(path: Path, dims, bits: int) -> list[str]:
    try:
        head = read_stream_header(path)
    except (OSError, ValueError, struct.error) as e:
        return [f"{path}: unreadable stream: {e!r}"]
    problems = []
    if head.dims != tuple(dims) or head.bit_depth != bits:
        problems.append(f"{path}: header says {head.dims} at {head.bit_depth} bits")
    if head.payload_bits != 8 * head.payload_bytes:
        problems.append(f"{path}: payload_bits {head.payload_bits} != 8 x {head.payload_bytes}")
    return problems


def check_reconstruction(stream: Path, rec_path: Path, ref_path: Path, stdout: str) -> list[str]:
    """CRC passed, and the error is within the quantizer's bound.

    8 bits: |rec - ref| <= sigma_c (z_max - z_min) / 510 per channel.
    2 bits: every value sits on one of the four level centres.
    Both allow float32 rounding of the stored values.
    """
    if "checksum OK" not in stdout:
        return [f"{stream}: decode did not report a passing checksum"]
    try:
        head = read_stream_header(stream)
        rec = read_tensor(rec_path).astype(np.float64)
        ref = read_tensor(ref_path).astype(np.float64)
    except (OSError, ValueError, struct.error) as e:
        return [f"{rec_path}: unreadable reconstruction: {e!r}"]
    if rec.shape != ref.shape:
        return [f"{rec_path}: shape {rec.shape} != {ref.shape}"]
    mean = head.mean.astype(np.float64)[:, None, None]
    std = head.std.astype(np.float64)[:, None, None]
    zabs = max(abs(head.z_min), abs(head.z_max), 1.5 * head.z_th)
    slack = 1e-6 * (np.abs(mean) + std * zabs) + 1e-9
    if head.bit_depth == 8:
        bound = std * (head.z_max - head.z_min) / 510.0 + slack
        excess = np.abs(rec - ref) - bound
    else:
        levels = np.array([-1.5, -0.5, 0.5, 1.5]) * head.z_th
        centres = mean[..., None] + std[..., None] * levels
        excess = np.abs(rec[..., None] - centres).min(axis=-1) - slack
    if (excess > 0).any():
        return [f"{rec_path}: reconstruction error exceeds the bound by {float(excess.max())!r}"]
    return []


def relu_tensor(rng, c: int, h: int, w: int) -> np.ndarray:
    """ReLU-like activations: per-channel Gaussians cut at 2.5 sigma, clipped at 0.

    Channel means and spreads are fixed grids that the seed only permutes,
    and the cut bounds every channel's extremes, so the quantizer's global
    range, and with it coded_ratio, barely moves from seed to seed.
    """
    mu = rng.permutation(np.linspace(0.0, 1.5, c))[:, None, None]
    sd = rng.permutation(np.linspace(0.5, 2.0, c))[:, None, None]
    noise = np.clip(rng.standard_normal((c, h, w)), -2.5, 2.5)
    return np.maximum(mu + sd * noise, 0.0).astype(np.float32)


def dense_tensor(rng, c: int, h: int, w: int) -> np.ndarray:
    """Dense activations, a sum of two uniforms per channel: near-uniform 8-bit codes."""
    mu = rng.uniform(-1.0, 1.0, (c, 1, 1))
    sd = rng.uniform(0.5, 2.0, (c, 1, 1))
    noise = rng.random((c, h, w)) + rng.random((c, h, w)) - 1.0
    return (mu + sd * noise).astype(np.float32)


# A pass codes the corpus this many times, round r pinned to CPU r. The
# single-threaded pure-Python coder is the work most exposed to the shared
# machine's speed drift, and the two CPUs of a VM drift apart for tens of
# seconds at a time; this way every command runs the same work on each CPU,
# and more of it per run.
FEATURE_ROUNDS = 2


def make_feature_roundtrip(
    rng, root: Path, relu_dims=(256, 64, 64), dense_dims=(64, 76, 136)
) -> Case:
    relu, dense = root / "relu.vcmf", root / "dense.vcmf"
    write_tensor(relu_tensor(rng, *relu_dims), relu)
    write_tensor(dense_tensor(rng, *dense_dims), dense)
    corpus = [
        ("relu8", relu, relu_dims, 8, ["--layout", "temporal", "--reorder"]),
        ("relu2", relu, relu_dims, 2, ["--layout", "temporal", "--reorder"]),
        ("dense8", dense, dense_dims, 8, ["--layout", "spatial"]),
    ]
    encodes, decodes, streams = [], [], []
    for name, src, dims, bits, flags in corpus:
        stream = root / f"{name}.vcms"
        rec = root / f"{name}.rec.vcmf"
        streams.append((stream, dims))
        encodes.append(Op(
            argv=["feature", "encode", str(src), str(stream), "--bits", str(bits), *flags],
            output=stream,
            check=lambda _out, s=stream, d=dims, b=bits: check_stream(s, d, b),
        ))
        decodes.append(Op(
            argv=["feature", "decode", str(stream), str(rec), "--ref", str(src)],
            output=rec,
            check=lambda out, s=stream, r=rec, t=src: check_reconstruction(s, r, t, out),
        ))
    samples = sum(int(np.prod(dims)) for _, dims in streams)

    def coded_ratio() -> float:
        return sum(read_stream_header(s).payload_bits for s, _ in streams) / (8 * samples)

    return Case(
        workload="feature-roundtrip",
        commands=tuple(
            [replace(op, cpu=r) for r in range(FEATURE_ROUNDS) for op in ops]
            for ops in (encodes, decodes)
        ),
        megabytes=(FEATURE_ROUNDS * samples / 1e6, FEATURE_ROUNDS * samples / 1e6),
        coded_ratio=coded_ratio,
    )


MAKERS = {
    "anchor-truncate": make_anchor_truncate,
    "anchor-files": make_anchor_files,
    "anchor-video": make_anchor_video,
    "feature-roundtrip": make_feature_roundtrip,
}


def prepare(workload: str, seed: int, root: Path, **shape) -> Case:
    """Generate the workload's inputs under root; the same seed gives the same files."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return MAKERS[workload](rng, root, **shape)


def output_digest(op: Op) -> str | None:
    """sha256 of what the operation wrote, for comparing passes byte for byte."""
    return hashlib.sha256(op.output.read_bytes()).hexdigest() if op.output.is_file() else None
