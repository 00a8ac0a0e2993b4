"""Machine-task quality metrics over box tables, matched through one IoU kernel.

Detection quality is mean average precision over detections pooled from
one table per item, in item-then-file order. Each detection matches only
ground truth of its own item, class and image id, so items may reuse
image ids. The pooled detections are ranked once by descending score
(ties keep pooled order), and each (class, item, image) IoU matrix is
computed once. Matching takes one pass per group: each detection's
ground-truth columns are sorted by IoU once, stably, and at every
threshold the detections in rank order each take their first free
candidate with IoU >= the threshold -- the best free ground-truth box, the
lowest column winning ties. Thresholds are matched in ascending order,
and one no higher than the lowest IoU matched at the threshold below it
reuses that match, which is the same. AP integrates the precision
envelope over recall with all-point interpolation, for all thresholds of
a class at once. A 101-point interpolation mode is available for parity
with COCO-style tooling.

Tracking quality is CLEAR-MOT accounting with per-frame greedy IoU
matching:  MOTA = 1 - (FN + FP + IDSW) / GT.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import BoxTable


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
    """IoU of a[i] and b[j] at (i, j) for n x 4 and m x 4 xyxy boxes; 0 when disjoint.

    For boxes of a BoxTable no step overflows or divides by a subnormal:
    the overlaps are clipped at 0, so each intersection is at most both
    areas, and the areas lie in model.BOX_AREA.
    """
    a = a[:, None, :]
    ix = np.maximum(np.minimum(a[..., 2], b[:, 2]) - np.maximum(a[..., 0], b[:, 0]), 0.0)
    iy = np.maximum(np.minimum(a[..., 3], b[:, 3]) - np.maximum(a[..., 1], b[:, 1]), 0.0)
    inter = ix * iy
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a + area_b - inter)


def _groups(key: np.ndarray) -> dict[int, np.ndarray]:
    """Row indices per distinct key, keys ascending and rows in order: one stable sort."""
    order = np.argsort(key, kind="stable")
    keys, starts = np.unique(key[order], return_index=True)
    return dict(zip(keys.tolist(), np.split(order, starts[1:])))


def _pooled(tables, *columns) -> list[np.ndarray]:
    """The named columns of tables concatenated in order, then each row's table index."""
    pooled = [np.concatenate([getattr(t, c) for t in tables]) for c in columns]
    return pooled + [np.repeat(np.arange(len(tables)), [len(t) for t in tables])]


def _greedy_match(ious: np.ndarray, thresholds) -> np.ndarray:
    """Greedy matches of rank-ordered rows, one row of flags per threshold.

    Each row's columns are sorted by IoU once (stably, so the lowest column
    wins ties). At each threshold the rows, in rank order, take their first
    free candidate with IoU >= the threshold: the best free column.
    Thresholds are matched in ascending order. When every pair matched at
    t has IoU >= t', the match at t' is the same: each row's candidates at
    t' are a prefix of those at t, so, row by row in rank order, each row
    takes the same column or none. Such a t' copies the flags of t.
    """
    matched = np.zeros((len(thresholds), len(ious)), dtype=bool)
    order = np.argsort(-ious, axis=1, kind="stable")
    ranked = np.take_along_axis(ious, order, axis=1)
    is_cand = ranked >= min(thresholds)  # a prefix of each row
    pairs = list(zip(order[is_cand].tolist(), ranked[is_cand].tolist()))
    n_cand = is_cand.sum(axis=1)
    rows = np.flatnonzero(n_cand).tolist()
    ends = np.cumsum(n_cand[rows]).tolist()
    candidates = [pairs[e - n:e] for e, n in zip(ends, n_cand[rows].tolist())]
    done = lowest = None  # the last threshold matched, its lowest matched IoU
    for i in sorted(range(len(thresholds)), key=thresholds.__getitem__):
        t = thresholds[i]
        if done is not None and t <= lowest:
            matched[i] = matched[done]
            continue
        flags, free, lowest = matched[i], [True] * ious.shape[1], math.inf
        for r, cands in zip(rows, candidates):
            for j, v in cands:
                if v < t:
                    break
                if free[j]:
                    free[j] = False
                    flags[r] = True
                    if v < lowest:
                        lowest = v
                    break
        done = i
    return matched


def _aps_from_flags(flags: np.ndarray, n_gt: int, interpolation="all_points") -> list[float]:
    """AP of each row of rank-ordered match flags (a row per threshold)."""
    n = flags.shape[1]
    if n == 0:
        return [0.0] * len(flags)
    tp = np.cumsum(flags, axis=1, dtype=np.float64)
    precision = tp / np.arange(1, n + 1, dtype=np.float64)
    recall = tp / n_gt
    # precision envelope: max precision at any recall >= r
    env = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    if interpolation == "101pt":
        grid = np.linspace(0.0, 1.0, 101)
        aps = []
        for r, e in zip(recall, env):
            idx = np.searchsorted(r, grid, side="left")
            aps.append(float(np.where(idx < n, e[np.minimum(idx, n - 1)], 0.0).mean()))
        return aps
    # recall never falls; cumsum adds the rises in order, as a loop would,
    # and the 0.0 terms where recall stays put leave each sum as it is
    rise = np.diff(recall, axis=1, prepend=0.0)
    return np.cumsum(rise * env, axis=1)[:, -1].tolist()


def mean_average_precision(
    dets: Sequence[BoxTable],
    gts: Sequence[BoxTable],
    thresholds=(0.5,),
    interpolation: str = "all_points",
) -> APResult:
    """Per-class AP averaged over thresholds, then over GT classes.

    dets[i] and gts[i] are the detections and ground truth of item i.
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
    if len(dets) != len(gts):
        raise InputError(f"{len(dets)} detection tables for {len(gts)} ground-truth tables")
    if not sum(map(len, gts)):
        raise InputError("no class has any ground-truth box")
    g_box, g_cls, g_img, g_item = _pooled(gts, "xyxy", "class_id", "image_id")
    d_box, d_cls, d_img, score, d_item = _pooled(dets, "xyxy", "class_id", "image_id", "score")
    rank = np.argsort(-score, kind="stable")
    d_box, d_cls, d_img, d_item = d_box[rank], d_cls[rank], d_img[rank], d_item[rank]
    # one integer per (class, item, image), shared by both sides
    _, cls = np.unique(np.concatenate([g_cls, d_cls]), return_inverse=True)
    _, img = np.unique(np.concatenate([g_img, d_img]), return_inverse=True)
    key = (cls * len(gts) + np.concatenate([g_item, d_item])) * (img.max() + 1) + img
    gt_rows = _groups(key[: len(g_cls)])
    groups = [
        (ranks, iou_matrix(d_box[ranks], g_box[gt_rows[k]]))
        for k, ranks in _groups(key[len(g_cls):]).items()
        if k in gt_rows
    ]
    classes, n_gt = np.unique(g_cls, return_counts=True)
    matched = np.zeros((len(thresholds), len(d_cls)), dtype=bool)
    for ranks, ious in groups:
        matched[:, ranks] = _greedy_match(ious, thresholds)
    per_class: dict[int, float] = {}
    counts: dict[int, tuple[int, int, int]] = {}
    for c, n in zip(classes.tolist(), n_gt.tolist()):
        flags = matched[:, d_cls == c]
        tp = int(flags[-1].sum())  # the last threshold's matches
        counts[c] = (tp, flags.shape[1] - tp, n - tp)
        per_class[c] = float(np.mean(_aps_from_flags(flags, n, interpolation)))
    map_value = float(np.mean(list(per_class.values())))
    return APResult(per_class_ap=per_class, map_value=map_value, counts=counts)


def mota(pred: BoxTable, gt: BoxTable, iou_threshold: float = 0.5) -> MotaResult:
    """CLEAR-MOT accounting with per-frame greedy IoU matching.

    Pairs are taken in descending IoU order (each box used once; ties go
    to the lower ground-truth, then prediction, row); a matched
    ground-truth track whose assigned prediction track differs from its
    previous assignment counts one identity switch.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise InputError(f"iou_threshold must be in (0,1]: {iou_threshold}")
    if not len(gt):
        raise InputError("ground truth has no tracked boxes")
    pred_frames = _groups(pred.frame)

    fn = fp = idsw = 0
    last_assignment: dict[int, int] = {}  # gt track -> pred track
    for frame, g in _groups(gt.frame).items():
        p = pred_frames.pop(frame, g[:0])
        ious = iou_matrix(gt.xyxy[g], pred.xyxy[p])
        rows, cols = np.nonzero(ious >= iou_threshold)
        order = np.argsort(-ious[rows, cols], kind="stable")
        g_tracks, p_tracks = gt.track_id[g].tolist(), pred.track_id[p].tolist()
        g_used = [False] * len(g)
        p_used = [False] * len(p)
        matched = 0
        for gi, pi in zip(rows[order].tolist(), cols[order].tolist()):
            if g_used[gi] or p_used[pi]:
                continue
            g_used[gi] = True
            p_used[pi] = True
            matched += 1
            gt_track, pred_track = g_tracks[gi], p_tracks[pi]
            prev = last_assignment.get(gt_track)
            if prev is not None and prev != pred_track:
                idsw += 1
            last_assignment[gt_track] = pred_track
        fn += len(g) - matched
        fp += len(p) - matched
    fp += sum(map(len, pred_frames.values()))  # frames without ground truth
    return MotaResult(fn=fn, fp=fp, idsw=idsw, gt=len(gt))
