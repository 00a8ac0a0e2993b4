"""Machine-task quality metrics, both matched through one IoU kernel.

Detection quality is mean average precision over pooled detections,
each matched only to ground truth of its class and image id (`run`
prefixes image ids with the item, so no match crosses items). Each
(class, image) IoU matrix is computed once; at every threshold,
detections are greedily matched in descending score order (ties keep
input order). AP integrates the precision envelope over recall with
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
from .model import Detection, GroundTruthBox, TrackedBox


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


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of a[i] and b[j] at (i, j) for n x 4 and m x 4 xyxy boxes; 0 when disjoint."""
    a = a[:, None, :]
    ix = np.minimum(a[..., 2], b[:, 2]) - np.maximum(a[..., 0], b[:, 0])
    iy = np.minimum(a[..., 3], b[:, 3]) - np.maximum(a[..., 1], b[:, 1])
    inter = np.where((ix > 0) & (iy > 0), ix * iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a + area_b - inter)


def _xyxy(records) -> np.ndarray:
    boxes = [(r.box.x_min, r.box.y_min, r.box.x_max, r.box.y_max) for r in records]
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


def _group(items, key) -> dict:
    groups = defaultdict(list)
    for x in items:
        groups[key(x)].append(x)
    return groups


def _greedy_match(ious: np.ndarray, threshold: float) -> np.ndarray:
    """Greedy matches of rank-ordered rows: each takes its best free column >= threshold."""
    matched = np.zeros(len(ious), dtype=bool)
    free = np.ones(ious.shape[1], dtype=bool)
    for r in np.flatnonzero((ious >= threshold).any(axis=1)):
        v = np.where(free, ious[r], -1.0)
        j = v.argmax()  # the first column on ties
        if v[j] >= threshold:
            free[j] = False
            matched[r] = True
    return matched


def _ap_from_flags(flags, n_gt, interpolation="all_points"):
    if len(flags) == 0:
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
    gt_groups = _group(gts, lambda g: (g.class_id, g.image_id))
    classes = sorted({c for c, _ in gt_groups})
    if not classes:
        raise EmptyGroundTruth("no class has any ground-truth box")
    class_dets = _group(dets, lambda d: d.class_id)
    per_class: dict[int, float] = {}
    counts: dict[int, tuple[int, int, int]] = {}
    for c in classes:
        n_gt = sum(g.class_id == c for g in gts)
        order = np.argsort([-d.score for d in class_dets[c]], kind="stable")
        ranked = [class_dets[c][i] for i in order]
        by_image = _group(range(len(ranked)), lambda r: ranked[r].image_id)
        groups = [
            (ranks, iou_matrix(_xyxy(ranked[r] for r in ranks), _xyxy(gt_groups[c, image])))
            for image, ranks in by_image.items()
            if (c, image) in gt_groups
        ]
        aps = []
        for t in thresholds:
            flags = np.zeros(len(ranked), dtype=bool)
            for ranks, ious in groups:
                flags[ranks] = _greedy_match(ious, t)
            aps.append(_ap_from_flags(flags, n_gt, interpolation))
        tp = int(flags.sum())
        counts[c] = (tp, len(flags) - tp, n_gt - tp)
        per_class[c] = float(np.mean(aps))
    map_value = float(np.mean([per_class[c] for c in classes]))
    return APResult(per_class_ap=per_class, map_value=map_value, counts=counts)


def mota(
    pred: list[TrackedBox], gt: list[TrackedBox], iou_threshold: float = 0.5
) -> MotaResult:
    """CLEAR-MOT accounting with per-frame greedy IoU matching.

    Pairs are taken in descending IoU order (each box used once; ties go
    to the lower ground-truth, then prediction, index); a matched
    ground-truth track whose assigned prediction track differs from its
    previous assignment counts one identity switch.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise InputError(f"iou_threshold must be in (0,1]: {iou_threshold}")
    if not gt:
        raise EmptyGroundTruth("ground truth has no tracked boxes")
    gt_frames = _group(gt, lambda g: g.frame_index)
    pred_frames = _group(pred, lambda p: p.frame_index)

    fn = fp = idsw = 0
    last_assignment: dict[int, int] = {}  # gt track -> pred track
    for frame in sorted(set(gt_frames) | set(pred_frames)):
        g_boxes = gt_frames.get(frame, [])
        p_boxes = pred_frames.get(frame, [])
        ious = iou_matrix(_xyxy(g_boxes), _xyxy(p_boxes))
        rows, cols = np.nonzero(ious >= iou_threshold)
        order = np.argsort(-ious[rows, cols], kind="stable")
        g_used = [False] * len(g_boxes)
        p_used = [False] * len(p_boxes)
        matched = 0
        for gi, pi in zip(rows[order].tolist(), cols[order].tolist()):
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
