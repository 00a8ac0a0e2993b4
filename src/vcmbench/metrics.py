"""Machine-task quality metrics.

Detection quality is mean average precision: detections are greedily
matched to ground truth in descending score order (ties keep input
order), and AP integrates the precision envelope over recall with
all-point interpolation. A 101-point interpolation mode is available
for parity with COCO-style tooling.

Tracking quality is CLEAR-MOT accounting with per-frame greedy IoU
matching:  MOTA = 1 - (FN + FP + IDSW) / GT.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGroundTruth, InputError
from .model import BoundingBox, Detection, GroundTruthBox, TrackedBox


@dataclass(frozen=True)
class APResult:
    per_class_ap: dict[int, float]
    map_value: float
    counts: dict[int, tuple[int, int, int]]  # class -> (TP, FP, FN) at the last threshold


@dataclass(frozen=True)
class MotaResult:
    fn: int
    fp: int
    idsw: int
    gt: int

    @property
    def mota(self) -> float:
        return 1.0 - (self.fn + self.fp + self.idsw) / self.gt


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when disjoint."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def _match_class(dets, gts, class_id, iou_threshold):
    """Greedy score-ordered matching for one class.

    Returns (flags, n_gt): flags[i] is True if the i-th detection (in
    descending score order, input order on ties) matched a ground-truth
    box of the same class and image with IoU >= threshold.
    """
    cls_dets = [d for d in dets if d.class_id == class_id]
    order = sorted(range(len(cls_dets)), key=lambda i: -cls_dets[i].score)
    gt_by_image = defaultdict(list)
    for g in gts:
        if g.class_id == class_id:
            gt_by_image[g.image_id].append(g)
    n_gt = sum(len(v) for v in gt_by_image.values())
    used = {img: [False] * len(v) for img, v in gt_by_image.items()}
    flags = []
    for i in order:
        d = cls_dets[i]
        candidates = gt_by_image.get(d.image_id, ())
        best, best_iou = -1, 0.0
        for j, g in enumerate(candidates):
            if used[d.image_id][j]:
                continue
            v = iou(d.box, g.box)
            if v >= iou_threshold and v > best_iou:
                best, best_iou = j, v
        if best >= 0:
            used[d.image_id][best] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags, n_gt


def _ap_from_flags(flags, n_gt, interpolation="all_points"):
    if n_gt == 0:
        return 0.0
    if not flags:
        return 0.0
    tp = np.cumsum(np.asarray(flags, dtype=np.float64))
    ranks = np.arange(1, len(flags) + 1, dtype=np.float64)
    precision = tp / ranks
    recall = tp / n_gt
    # precision envelope: max precision at any recall >= r
    env = np.maximum.accumulate(precision[::-1])[::-1]
    if interpolation == "101pt":
        grid = np.linspace(0.0, 1.0, 101)
        idx = np.searchsorted(recall, grid, side="left")
        vals = np.where(idx < len(env), env[np.minimum(idx, len(env) - 1)], 0.0)
        return float(vals.mean())
    prev_r = 0.0
    ap = 0.0
    for r, p in zip(recall, env):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return float(ap)


def average_precision(
    dets: list[Detection],
    gts: list[GroundTruthBox],
    class_id: int,
    iou_threshold: float,
    interpolation: str = "all_points",
) -> float:
    """AP for one class at one IoU threshold; 0 when the class has no GT."""
    if not (0.0 < iou_threshold <= 1.0):
        raise InputError(f"iou_threshold must be in (0,1]: {iou_threshold}")
    flags, n_gt = _match_class(dets, gts, class_id, iou_threshold)
    return _ap_from_flags(flags, n_gt, interpolation)


def mean_average_precision(
    dets: list[Detection],
    gts: list[GroundTruthBox],
    thresholds=(0.5,),
    interpolation: str = "all_points",
) -> APResult:
    """Per-class AP averaged over thresholds, then over GT classes.

    Thresholds (0.5,) gives mAP@0.5; (0.5, 0.55, ..., 0.95) gives
    mAP@[0.5:0.95]. The (TP, FP, FN) counts are taken at the last
    threshold with every detection included.
    """
    if interpolation not in ("all_points", "101pt"):
        raise InputError(f"interpolation must be all_points or 101pt: {interpolation!r}")
    thresholds = tuple(thresholds)
    if not thresholds:
        raise InputError("thresholds must be non-empty")
    for t in thresholds:
        if not (0.0 < t <= 1.0):
            raise InputError(f"threshold must be in (0,1]: {t}")
    classes = sorted({g.class_id for g in gts})
    if not classes:
        raise EmptyGroundTruth("no class has any ground-truth box")
    per_class: dict[int, float] = {}
    counts: dict[int, tuple[int, int, int]] = {}
    for c in classes:
        aps = []
        for t in thresholds:
            flags, n_gt = _match_class(dets, gts, c, t)
            aps.append(_ap_from_flags(flags, n_gt, interpolation))
            if t == thresholds[-1]:
                tp = sum(flags)
                counts[c] = (tp, len(flags) - tp, n_gt - tp)
        per_class[c] = float(np.mean(aps))
    map_value = float(np.mean([per_class[c] for c in classes]))
    return APResult(per_class_ap=per_class, map_value=map_value, counts=counts)


def mota(
    pred: list[TrackedBox], gt: list[TrackedBox], iou_threshold: float = 0.5
) -> MotaResult:
    """CLEAR-MOT accounting with per-frame greedy IoU matching.

    Pairs are taken in descending IoU order (each box used once); a
    matched ground-truth track whose assigned prediction track differs
    from its previous assignment counts one identity switch.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise InputError(f"iou_threshold must be in (0,1]: {iou_threshold}")
    if not gt:
        raise EmptyGroundTruth("ground truth has no tracked boxes")
    gt_frames = defaultdict(list)
    for g in gt:
        gt_frames[g.frame_index].append(g)
    pred_frames = defaultdict(list)
    for p in pred:
        pred_frames[p.frame_index].append(p)

    fn = fp = idsw = 0
    last_assignment: dict[int, int] = {}  # gt track -> pred track
    for frame in sorted(set(gt_frames) | set(pred_frames)):
        g_boxes = gt_frames.get(frame, [])
        p_boxes = pred_frames.get(frame, [])
        pairs = []
        for gi, g in enumerate(g_boxes):
            for pi, p in enumerate(p_boxes):
                v = iou(g.box, p.box)
                if v >= iou_threshold:
                    pairs.append((-v, gi, pi))
        pairs.sort()
        g_used = [False] * len(g_boxes)
        p_used = [False] * len(p_boxes)
        matched = 0
        for _, gi, pi in pairs:
            if g_used[gi] or p_used[pi]:
                continue
            g_used[gi] = True
            p_used[pi] = True
            matched += 1
            gt_track = g_boxes[gi].track_id
            pred_track = p_boxes[pi].track_id
            prev = last_assignment.get(gt_track)
            if prev is not None and prev != pred_track:
                idsw += 1
            last_assignment[gt_track] = pred_track
        fn += len(g_boxes) - matched
        fp += len(p_boxes) - matched
    return MotaResult(fn=fn, fp=fp, idsw=idsw, gt=len(gt))
