"""End-to-end anchor-generation runs.

The unit of work is one (item, scale). A unit reads the item once, scales
it to the target scale (border-padding to even dims instead of scaling
at 100%) and writes the codec input once. Then, for each qp, it encodes
and decodes that input, obtains task predictions for it, and rates it.
Only an item with a prediction command needs the reconstruction: for it,
the padding is inverted, the decoded frames are upscaled back to the
source resolution and written as the command's input (`recon.yuv` in the
qp's work directory). An item with precomputed predictions reads none of
it, so the crop and upscale stages fail only for command items.

Both streams run one frame at a time: a frame is read, scaled (or
cropped and upscaled), padded and written before the next is read, so a
unit holds a few frames whatever the sequence length. The source size is
checked against the item's frame count before any frame is read. A
failure to open or write the codec input or `recon.yuv` is the `write`
stage's.
Ground-truth files are read-only inputs, parsed once per item
per run and before any unit starts: boxes are never rescaled, because
predictions are produced at source resolution.

Aggregation per (scale, qp): the rate is the mean bits-per-source-pixel
over items (bits per second for tracking); the metric is computed over
the pooled detection set, which `mean_average_precision` receives as one
table per item, so a detection only matches ground truth of its own item
(summed CLEAR-MOT counts for tracking). One RD curve per scale comes out,
plus the Pareto front over all scales.

Units are independent and run in a pool of `jobs` threads; records are
reduced in a fixed order, so reports are byte-identical at any job
count. After the first failure, units still queued are cancelled, and
the error carries every record that completed; so does a failure to
evaluate a (scale, qp) cell.
"""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import InputError, StageError, VcmError
from ..metrics import MotaResult, mean_average_precision, mota
from ..model import VALID_SCALES, RDCurve, RDPoint, check_unique_scales
from ..rdcurves import bitrate, bpp, pareto_front, scale_curves
from ..tensorio import (
    as_int64,
    load_detections,
    load_ground_truth,
    load_tracks,
    parsing,
    read_json,
)
from .codec import CodecSpec, run_codec, run_command, split_template
from .yuv import (
    RawImage,
    crop_pad,
    pad_to_even,
    read_yuv420,
    resize,
    scale_image,
    write_yuv420,
)

TASK_DETECTION = "DETECTION"
TASK_TRACKING = "TRACKING"


@dataclass(frozen=True)
class ExperimentItem:
    item_id: str
    path: Path
    width: int
    height: int
    ground_truth: Path
    frames: int = 1
    fps: float = 30.0
    predictions: dict[tuple[int, int], Path] | None = None
    prediction_command: str | None = None

    def __post_init__(self):
        if min(self.width, self.height, self.frames) < 1 or not self.fps > 0:
            raise InputError(
                f"item {self.item_id!r}: width, height and frames must be >= 1 "
                f"and fps > 0"
            )
        if not isinstance(self.prediction_command, (str, type(None))):
            raise InputError(f"item {self.item_id!r}: prediction_command must be a string")
        if self.prediction_command is not None:
            split_template(self.prediction_command, f"item {self.item_id!r}: prediction_command")


@dataclass(frozen=True)
class ExperimentManifest:
    task: str
    codec: CodecSpec
    items: tuple[ExperimentItem, ...]
    scales: tuple[int, ...] = (100, 75, 50, 25)
    iou_thresholds: tuple[float, ...] = (0.5,)

    def __post_init__(self):
        if self.task not in (TASK_DETECTION, TASK_TRACKING):
            raise InputError(f"unknown task {self.task!r}")
        if not self.items:
            raise InputError("manifest has no items")
        ids = [i.item_id for i in self.items]
        if len(set(ids)) != len(ids):
            raise InputError("item ids must be unique")
        if not self.scales:
            raise InputError("manifest has no scales")
        if not self.iou_thresholds:
            raise InputError("manifest has no iou_thresholds")
        bad = [s for s in self.scales if s not in VALID_SCALES]
        if bad:
            raise InputError(f"manifest scales must be among {VALID_SCALES}: {bad}")
        check_unique_scales(self.scales)
        bad = [t for t in self.iou_thresholds if not 0.0 < t <= 1.0]
        if bad:
            raise InputError(f"iou_thresholds must be in (0, 1]: {bad}")
        if self.task == TASK_TRACKING and len(self.iou_thresholds) != 1:
            raise InputError("a TRACKING manifest takes exactly one iou_threshold")
        for item in self.items:
            for qp in self.codec.qp_list:
                for scale in self.scales:
                    if item.prediction_command is None and (
                        item.predictions is None
                        or (qp, scale) not in item.predictions
                    ):
                        raise InputError(
                            f"item {item.item_id!r}: no prediction source for "
                            f"qp={qp} scale={scale}"
                        )

    @property
    def quality_unit(self) -> str:
        return "mota" if self.task == TASK_TRACKING else "fraction"


@dataclass(frozen=True)
class ItemRecord:
    item_id: str
    qp: int
    scale: int
    bits: int
    rate: float
    predictions_path: Path


@dataclass
class ExperimentResult:
    curves: list[RDCurve]
    pareto: RDCurve
    rd_points: dict[tuple[int, int], tuple[float, float]]  # (scale, qp) -> (rate, quality)
    records: list[ItemRecord] = field(default_factory=list)


def load_manifest(path) -> ExperimentManifest:
    path = Path(path)
    doc = read_json(path)
    base = path.parent

    def resolve(p):
        p = Path(p)
        return p if p.is_absolute() else base / p

    with parsing(f"{path}: manifest"):
        codec_doc = doc["codec"]
        codec = CodecSpec(
            kind=codec_doc["kind"],
            encode_template=codec_doc.get("encode_template"),
            decode_template=codec_doc.get("decode_template"),
            qp_list=codec_doc.get("qp_list", CodecSpec.qp_list),
        )
        items = []
        for it in doc["items"]:
            preds = None
            if "predictions" in it:
                preds = {}
                for key, p in it["predictions"].items():
                    qp_s, scale_s = key.split(":")
                    preds[(as_int64(qp_s), as_int64(scale_s))] = resolve(p)
            items.append(
                ExperimentItem(
                    item_id=str(it["id"]),
                    path=resolve(it["path"]),
                    width=as_int64(it["width"]),
                    height=as_int64(it["height"]),
                    ground_truth=resolve(it["ground_truth"]),
                    frames=as_int64(it.get("frames", ExperimentItem.frames)),
                    fps=float(it.get("fps", ExperimentItem.fps)),
                    predictions=preds,
                    prediction_command=it.get("prediction_command"),
                )
            )
        return ExperimentManifest(
            task=doc["task"],
            codec=codec,
            items=tuple(items),
            scales=tuple(as_int64(s) for s in doc.get("scales", ExperimentManifest.scales)),
            iou_thresholds=tuple(
                float(t) for t in doc.get("iou_thresholds", ExperimentManifest.iou_thresholds)
            ),
        )


@dataclass(frozen=True)
class PreparedInput:
    """The codec input of one (item, scale), written once for every qp."""

    path: Path
    width: int
    height: int
    pad_record: tuple[int, int]


class _Progress:
    """The stage a unit is in, for the StageError its failure raises."""

    def __init__(self, stage: str):
        self.stage = stage

    def stream(self, frames: Iterator[RawImage], steps, path: Path) -> RawImage:
        """Write frames to path, each passed through steps before the next is read.

        steps is a list of (stage, frame -> frame). While a frame is read,
        the stage stays the one set before the call; each step sets its own
        stage while it runs; "write" holds while the file is opened, written
        and closed. The reader is closed on every exit. Returns the last
        frame written.
        """
        read_stage = self.stage
        last = None

        def each():
            nonlocal last
            self.stage = read_stage
            for frame in frames:
                for stage, step in steps:
                    self.stage = stage
                    frame = step(frame)
                self.stage = "write"
                last = frame
                yield frame
                self.stage = read_stage
            self.stage = "write"

        self.stage = "write"
        with closing(frames):
            write_yuv420(each(), path)
        return last


def _prepare(manifest, item, scale, scratch: Path) -> PreparedInput:
    """Stream an item's frames through scaling and padding into the codec input."""
    pad_record = (0, 0)

    def pad(frame):
        nonlocal pad_record
        frame, pad_record = pad_to_even(frame)
        return frame

    steps = [("scale", lambda f: scale_image(f, scale))]
    if scale == 100:
        steps.append(("pad", pad))
    coded_input = scratch / "input.yuv"
    at = _Progress("load")
    try:
        frames = read_yuv420(item.path, item.width, item.height, item.frames)
        last = at.stream(frames, steps, coded_input)
    except (VcmError, OSError) as e:
        # the item's first qp is the job that needs this input first
        raise StageError(at.stage, item.item_id, manifest.codec.qp_list[0], scale, e) from e
    return PreparedInput(coded_input, last.width, last.height, pad_record)


def _process_item(
    manifest, item, qp, scale, scratch: Path, prepared: PreparedInput
) -> ItemRecord:
    """Code one prepared input at one qp, then predict and rate it.

    Only a prediction command reads the reconstruction: for its items each
    decoded frame is cropped back from its padding (at 100%), upscaled to
    the source resolution and written to recon.yuv, the command's input,
    before the next frame is read. Items with precomputed predictions go
    from the codec straight to the rate.
    """
    enc_w, enc_h = prepared.width, prepared.height
    at = _Progress("codec")
    try:
        decoded_path, bits = run_codec(
            manifest.codec, prepared.path, qp, scratch, width=enc_w, height=enc_h
        )
        if item.prediction_command is not None:
            steps = []
            if scale == 100:
                steps.append(("crop", lambda f: crop_pad(f, prepared.pad_record)))
            steps.append(("upscale", lambda f: resize(f, item.width, item.height)))
            recon_path = scratch / "recon.yuv"
            at.stream(read_yuv420(decoded_path, enc_w, enc_h), steps, recon_path)

            at.stage = "predict"
            pred_path = scratch / "predictions.jsonl"
            subs = {"input": str(recon_path), "qp": qp, "scale": scale,
                    "width": item.width, "height": item.height, "item": item.item_id}
            run_command(item.prediction_command, subs, "prediction command", pred_path)
        else:
            pred_path = item.predictions[(qp, scale)]

        at.stage = "rate"
        if manifest.task == TASK_TRACKING:
            rate = bitrate(bits, item.frames, item.fps)
        else:
            rate = bpp(bits, item.width, item.height)
        return ItemRecord(
            item_id=item.item_id, qp=qp, scale=scale, bits=bits,
            rate=rate, predictions_path=pred_path,
        )
    except (VcmError, OSError) as e:
        raise StageError(at.stage, item.item_id, qp, scale, e) from e


def _evaluate(manifest: ExperimentManifest, cell: list[ItemRecord], truths: list) -> float:
    """Pooled task metric over one (scale, qp) cell.

    cell[i] is item i's record and truths[i] its parsed ground truth. A
    failure raises StageError naming the item whose predictions failed.
    """
    tracking = manifest.task == TASK_TRACKING
    counts, dets = [], []
    for rec, gt in zip(cell, truths):
        try:
            if tracking:
                counts.append(
                    mota(load_tracks(rec.predictions_path), gt, manifest.iou_thresholds[0])
                )
            else:
                dets.append(load_detections(rec.predictions_path))
        except (VcmError, OSError) as e:
            raise StageError("evaluate", rec.item_id, rec.qp, rec.scale, e) from e
    if tracking:
        return MotaResult(
            fn=sum(r.fn for r in counts), fp=sum(r.fp for r in counts),
            idsw=sum(r.idsw for r in counts), gt=sum(r.gt for r in counts),
        ).mota
    return mean_average_precision(dets, truths, manifest.iou_thresholds).map_value


def run_experiment(
    manifest: ExperimentManifest, work_dir, jobs: int = 1
) -> ExperimentResult:
    """Run every (item, scale) unit and aggregate RD curves per scale."""
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    # ground truth is parsed before any unit runs, so a bad file costs no codec call
    load_truth = load_tracks if manifest.task == TASK_TRACKING else load_ground_truth
    truths = [load_truth(item.ground_truth) for item in manifest.items]
    if not any(truths):
        raise InputError("no item has any ground-truth box")
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    units = [
        (i, item, scale)
        for i, item in enumerate(manifest.items)
        for scale in manifest.scales
    ]
    records: dict[tuple[int, int, int], ItemRecord] = {}

    def run_unit(unit):
        i, item, scale = unit
        unit_dir = work_dir / f"item{i}_s{scale}"
        unit_dir.mkdir(parents=True, exist_ok=True)
        prepared = _prepare(manifest, item, scale, unit_dir)
        for qp in manifest.codec.qp_list:
            scratch = work_dir / f"item{i}_q{qp}_s{scale}"
            scratch.mkdir(parents=True, exist_ok=True)
            records[(i, qp, scale)] = _process_item(
                manifest, item, qp, scale, scratch, prepared
            )

    rd_points: dict[tuple[int, int], tuple[float, float]] = {}
    try:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run_unit, unit) for unit in units]
            wait(futures, return_when=FIRST_EXCEPTION)
            pool.shutdown(cancel_futures=True)
        # of the units that failed, the first in unit order is reported
        for fut in futures:
            if not fut.cancelled() and fut.exception() is not None:
                raise fut.exception()
        for scale in manifest.scales:
            for qp in manifest.codec.qp_list:
                cell = [
                    records[(i, qp, scale)] for i in range(len(manifest.items))
                ]
                rate = sum(r.rate for r in cell) / len(cell)
                rd_points[(scale, qp)] = (rate, _evaluate(manifest, cell, truths))
    except StageError as e:
        # completed work survives so callers can persist partial results
        e.partial_records = [records[k] for k in sorted(records)]
        raise
    curves = scale_curves(
        ((scale, [RDPoint(*rd_points[(scale, qp)]) for qp in manifest.codec.qp_list])
         for scale in manifest.scales),
        manifest.quality_unit,
    )
    front = pareto_front(curves, label="pareto")
    ordered = [records[k] for k in sorted(records)]
    return ExperimentResult(
        curves=curves, pareto=front, rd_points=rd_points, records=ordered
    )
