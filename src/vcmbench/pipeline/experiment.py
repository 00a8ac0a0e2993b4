"""End-to-end anchor-generation runs.

The unit of work is one (item, scale). Its encoded dims come from
arithmetic (`yuv.scaled_dims`: the target scale, or padding to even dims
instead of scaling at 100%). Then, for each qp, it encodes and decodes
the codec input, obtains task predictions for it, and rates it.
The codec input is written only when a stage reads its pixels: under
TRUNCATE and EXTERNAL, and for an item with a prediction command, whose
reconstruction is made from the decoded file (under NULL, the input
itself). Such a unit reads the item once, passes each frame through
`yuv.scale_image` (which pads at 100%), and writes `input.yuv` once. A
NULL item with precomputed predictions reads no frame and writes
nothing under the work directory: its source size is checked, and
NULL's rate is computed from the encoded dims.
Only an item with a prediction command needs the reconstruction: for it,
the decoded frames are cropped back to the source dims (at 100%) or
upscaled to them (below 100%) and written as the command's input
(`recon.yuv` in the qp's work directory). An item with precomputed
predictions reads none of it, so the crop and upscale stages fail only
for command items.

Both streams run one frame at a time: a frame is read, scaled (or
cropped or upscaled) and written before the next is read, so a unit
holds a few frames whatever the sequence length. The source size is
checked against the item's frame count before any frame is read. A
failure to make the directory of, open or write the codec input or
`recon.yuv` is the `write` stage's. A unit has one error boundary: any
failure in it raises StageError naming the stage it was in and the qp
it was at; a failure to prepare the input names the first qp.
Ground-truth files are read-only inputs, parsed once per item
per run and before any unit starts: boxes are never rescaled, because
predictions are produced at source resolution.

Aggregation per (scale, qp): the rate is the mean bits-per-source-pixel
over items (bits per second for tracking); the metric pools the items:
`mean_average_precision` and `mota` each receive one table per item, so
a prediction only matches ground truth of its own item (for tracking,
of its own frames and track ids, the CLEAR-MOT counts summed over
items). One RD curve per scale comes out, plus the Pareto front over
all scales.

Units are independent and run in a pool of `jobs` threads; records are
reduced in a fixed order, so reports are byte-identical at any job
count. After the first failure, units still queued are cancelled, and
the error carries every record that completed; so does a failure to
rate or evaluate a (scale, qp) cell.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import InputError, InvariantViolation, StageError, VcmError
from ..metrics import check_iou_thresholds, mean_average_precision, mota
from ..model import VALID_SCALES, RDCurve, RDPoint, check_rate, check_unique_scales
from ..rdcurves import bitrate, bpp, pareto_front, scale_curves
from ..tensorio import (
    MALFORMED,
    as_float64,
    as_id,
    as_int64,
    load_detections,
    load_ground_truth,
    load_tracks,
    parsing,
    read_json,
)
from .codec import KIND_NULL, CodecSpec, run_codec, run_command, split_template
from .yuv import (
    RawImage,
    crop,
    frame_count,
    read_yuv420,
    resize,
    scale_image,
    scaled_dims,
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
        if min(self.width, self.height, self.frames) < 1 or not 0 < self.fps < math.inf:
            raise InputError(
                f"item {self.item_id!r}: width, height and frames must be >= 1 "
                "and fps finite and > 0"
            )
        if not isinstance(self.prediction_command, (str, type(None))):
            raise InputError(f"item {self.item_id!r}: prediction_command must be a string")
        if self.prediction_command is not None:
            split_template(self.prediction_command, f"item {self.item_id!r}: prediction_command")
            if self.predictions is not None:
                raise InputError(
                    f"item {self.item_id!r}: give prediction_command or predictions, not both"
                )


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
        bad = [s for s in self.scales if s not in VALID_SCALES]
        if bad:
            raise InputError(f"manifest scales must be among {VALID_SCALES}: {bad}")
        check_unique_scales(self.scales)
        check_iou_thresholds(self.iou_thresholds)
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


def _known(doc: dict, keys: tuple[str, ...]) -> dict:
    """doc, once it holds no key outside keys."""
    unknown = sorted(doc.keys() - set(keys))
    if unknown:
        raise InputError(f"unknown key {unknown[0]!r}")
    return doc


def load_manifest(path) -> ExperimentManifest:
    """The manifest of a JSON file; relative paths in it are taken from its directory.

    A field that is malformed, or that the manifest's types refuse, raises
    ParseError "{path}: manifest: <error class>: <message>"; so does a key
    of the manifest, its codec or an item that no field reads.
    """
    path = Path(path)
    doc = read_json(path)
    base = path.parent

    def resolve(p):
        p = Path(p)
        return p if p.is_absolute() else base / p

    # a field the types refuse names the manifest, as a malformed one does
    with parsing(f"{path}: manifest", errors=(*MALFORMED, InputError)):
        _known(doc, ("task", "codec", "items", "scales", "iou_thresholds"))
        codec_doc = _known(doc["codec"], ("kind", "encode_template", "decode_template", "qp_list"))
        codec = CodecSpec(
            kind=codec_doc["kind"],
            encode_template=codec_doc.get("encode_template"),
            decode_template=codec_doc.get("decode_template"),
            qp_list=codec_doc.get("qp_list", CodecSpec.qp_list),
        )
        items = []
        for it in doc["items"]:
            _known(it, ("id", "path", "width", "height", "ground_truth", "frames", "fps",
                        "predictions", "prediction_command"))
            preds = None
            if "predictions" in it:
                preds = {}
                for key, p in it["predictions"].items():
                    qp_s, scale_s = key.split(":")
                    preds[(as_int64(qp_s), as_int64(scale_s))] = resolve(p)
            items.append(
                ExperimentItem(
                    item_id=as_id(it["id"]),
                    path=resolve(it["path"]),
                    width=as_int64(it["width"]),
                    height=as_int64(it["height"]),
                    ground_truth=resolve(it["ground_truth"]),
                    frames=as_int64(it.get("frames", ExperimentItem.frames)),
                    fps=as_float64(it.get("fps", ExperimentItem.fps)),
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
                as_float64(t)
                for t in doc.get("iou_thresholds", ExperimentManifest.iou_thresholds)
            ),
        )


class _Progress:
    """The stage a unit is in, for the StageError its failure raises."""

    def __init__(self, stage: str):
        self.stage = stage

    def stream(self, frames: Iterator[RawImage], stage: str, step, path: Path) -> None:
        """Write frames to path, each passed through step before the next is read.

        While a frame is read, the stage stays the one set before the call;
        stage holds while step (frame -> frame) runs; "write" holds while
        the file's directory is made and the file is opened, written and
        closed. The reader is closed on every exit.
        """
        read_stage = self.stage

        def each():
            self.stage = read_stage
            for frame in frames:
                self.stage = stage
                frame = step(frame)
                self.stage = "write"
                yield frame
                self.stage = read_stage
            self.stage = "write"

        self.stage = "write"
        with closing(frames):
            path.parent.mkdir(parents=True, exist_ok=True)
            write_yuv420(each(), path)


def _reads_pixels(manifest, item) -> bool:
    """Whether any stage reads the pixels of an item's codec input.

    Every codec but NULL reads them; under NULL the decoded file is the
    input, which only a prediction command's reconstruction reads.
    """
    return manifest.codec.kind != KIND_NULL or item.prediction_command is not None


def _prepare(manifest, item, scale, scratch: Path, at: _Progress) -> Path | None:
    """The path of the codec input of one (item, scale), or None if none is made.

    If a stage reads its pixels, the item's frames stream through
    scale_image into scratch/input.yuv. Otherwise only the source's size
    is checked, as read_yuv420 checks it, and nothing is read or written.
    """
    if not _reads_pixels(manifest, item):
        frame_count(item.path, item.width, item.height, item.frames)
        return None
    coded_input = scratch / "input.yuv"
    frames = read_yuv420(item.path, item.width, item.height, item.frames)
    at.stream(frames, "scale", lambda f: scale_image(f, scale), coded_input)
    return coded_input


def _process_item(
    manifest, item, qp, scale, scratch: Path, coded_input: Path | None, at: _Progress
) -> ItemRecord:
    """Code one (item, scale)'s input at one qp, then predict and rate it.

    Only a prediction command reads the reconstruction: for its items each
    decoded frame is cropped back to the source dims (at 100%) or upscaled
    to them (below 100%) and written to recon.yuv, the command's input,
    before the next frame is read. Items with precomputed predictions go
    from the codec straight to the rate.
    """
    enc_w, enc_h = scaled_dims(item.width, item.height, scale)
    at.stage = "codec"
    decoded_path, bits = run_codec(
        manifest.codec, coded_input, qp, scratch,
        width=enc_w, height=enc_h, frames=item.frames,
    )
    if item.prediction_command is not None:
        if scale == 100:
            stage, step = "crop", lambda f: crop(f, item.width, item.height)
        else:
            stage, step = "upscale", lambda f: resize(f, item.width, item.height)
        recon_path = scratch / "recon.yuv"
        at.stream(read_yuv420(decoded_path, enc_w, enc_h), stage, step, recon_path)

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


def _evaluate(manifest: ExperimentManifest, cell: list[ItemRecord], truths: list) -> float:
    """Pooled task metric over one (scale, qp) cell.

    cell[i] is item i's record and truths[i] its parsed ground truth. A
    failure to load predictions raises StageError naming the item.
    """
    tracking = manifest.task == TASK_TRACKING
    load = load_tracks if tracking else load_detections
    preds = []
    for rec in cell:
        try:
            preds.append(load(rec.predictions_path))
        except (VcmError, OSError) as e:
            raise StageError("evaluate", rec.item_id, rec.qp, rec.scale, e) from e
    if tracking:
        return mota(preds, truths, manifest.iou_thresholds[0]).mota
    return mean_average_precision(preds, truths, manifest.iou_thresholds).map_value


def check_jobs(jobs: int) -> None:
    """Refuse a worker count below 1."""
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")


def run_experiment(
    manifest: ExperimentManifest, work_dir, jobs: int = 1
) -> ExperimentResult:
    """Run every (item, scale) unit and aggregate RD curves per scale."""
    check_jobs(jobs)
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
        # a failure to prepare is charged to the first qp, the first job to need the input
        at, qp = _Progress("load"), manifest.codec.qp_list[0]
        try:
            coded_input = _prepare(manifest, item, scale, work_dir / f"item{i}_s{scale}", at)
            for qp in manifest.codec.qp_list:
                records[(i, qp, scale)] = _process_item(
                    manifest, item, qp, scale, work_dir / f"item{i}_q{qp}_s{scale}",
                    coded_input, at,
                )
        except (VcmError, OSError) as e:
            raise StageError(at.stage, item.item_id, qp, scale, e) from e

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
                try:  # each item's rate passes, but their mean may not (a sum past float64)
                    check_rate(rate)
                except InvariantViolation as e:
                    raise StageError("rate", cell[0].item_id, qp, scale, e) from e
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
