"""Independent brute-force oracles used to cross-check the implementations.

Everything here recomputes results from first principles (exhaustive
enumeration, closed forms, dense numeric integration) and deliberately
avoids the code paths under test.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict

import numpy as np

from vcmbench.errors import ParseError
from vcmbench.featurecodec import denormalize, dequantize_2bit, dequantize_8bit
from vcmbench.metrics import APResult
from vcmbench.model import BoxTable
from vcmbench.tensorio import MALFORMED, _bbox, _cause, _table, as_float64, as_id, as_int64


def iou_xyxy(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def mota_pairwise(pred, gt, iou_threshold):
    """CLEAR-MOT (fn, fp, idsw, gt) with per-frame greedy matching, one pair at a time.

    Pairs are taken in (-IoU, gt index, pred index) order, each box used once.
    """
    gt_frames = defaultdict(list)
    for g in gt:
        gt_frames[g.frame].append(g)
    pred_frames = defaultdict(list)
    for p in pred:
        pred_frames[p.frame].append(p)

    fn = fp = idsw = 0
    last_assignment = {}  # gt track -> pred track
    for frame in sorted(set(gt_frames) | set(pred_frames)):
        g_boxes = gt_frames.get(frame, [])
        p_boxes = pred_frames.get(frame, [])
        pairs = []
        for gi, g in enumerate(g_boxes):
            for pi, p in enumerate(p_boxes):
                v = iou_xyxy(g.box, p.box)
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
    return fn, fp, idsw, len(gt)


def _match_prefix(dets, gts, threshold):
    """Greedy matching of a score-ordered detection prefix, from scratch.

    dets: list of (image_id, box, score) already restricted to one class,
    in descending score order. gts: list of (image_id, box). Returns the
    number of true positives.
    """
    used = [False] * len(gts)
    tp = 0
    for image_id, box, _score in dets:
        best, best_iou = -1, 0.0
        for j, (g_img, g_box) in enumerate(gts):
            if used[j] or g_img != image_id:
                continue
            v = iou_xyxy(box, g_box)
            if v >= threshold and v > best_iou:
                best, best_iou = j, v
        if best >= 0:
            used[best] = True
            tp += 1
    return tp


def ap_bruteforce(dets, gts, class_id, threshold) -> float:
    """AP by enumerating every distinct score cutoff.

    For each cutoff the precision/recall point is recomputed from
    scratch on the detections at or above the cutoff; the all-point
    precision envelope is then integrated over recall.
    """
    cls_dets = [(d.image_id, d.box, d.score) for d in dets if d.class_id == class_id]
    cls_gts = [(g.image_id, g.box) for g in gts if g.class_id == class_id]
    if not cls_gts or not cls_dets:
        return 0.0
    ordered = sorted(cls_dets, key=lambda t: -t[2])
    cutoffs = sorted({s for _, _, s in cls_dets}, reverse=True)
    points = []
    for cut in cutoffs:
        prefix = [d for d in ordered if d[2] >= cut]
        tp = _match_prefix(prefix, cls_gts, threshold)
        points.append((tp / len(cls_gts), tp / len(prefix)))
    ap = 0.0
    prev_recall = 0.0
    for i, (recall, _) in enumerate(points):
        envelope = max(p for _, p in points[i:])
        if recall > prev_recall:
            ap += (recall - prev_recall) * envelope
            prev_recall = recall
    return ap


def map_bruteforce(dets, gts, thresholds) -> float:
    classes = sorted({g.class_id for g in gts})
    per_class = [
        np.mean([ap_bruteforce(dets, gts, c, t) for t in thresholds])
        for c in classes
    ]
    return float(np.mean(per_class))


def _greedy_match_at(ious: np.ndarray, threshold: float) -> np.ndarray:
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


def _ap_loop(flags, n_gt, interpolation):
    """AP of rank-ordered match flags; the all-point sum is a plain loop."""
    if len(flags) == 0:
        return 0.0
    tp = np.cumsum(np.asarray(flags, dtype=np.float64))
    precision = tp / np.arange(1, len(flags) + 1, dtype=np.float64)
    recall = tp / n_gt
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


def map_per_threshold(dets, gts, thresholds, interpolation="all_points") -> APResult:
    """mAP of per-item box tables, matching every threshold from scratch.

    Detections are ranked by descending score (ties keep pooled order) and
    grouped per (class, item, image id) in dicts; each group's IoU matrix is
    built from scalar IoUs, and at each threshold every group is matched
    greedily with one argmax per detection row. Counts are those of the
    last threshold.
    """
    gt_rows = defaultdict(list)  # (class, item, image) -> gt boxes, pooled order
    n_gt = defaultdict(int)
    for i, t in enumerate(gts):
        for box, c, img in zip(t.xyxy.tolist(), t.class_id.tolist(), t.image_id.tolist()):
            gt_rows[(c, i, img)].append(box)
            n_gt[c] += 1
    pooled = [
        (score, c, i, img, box)
        for i, t in enumerate(dets)
        for box, c, img, score in zip(
            t.xyxy.tolist(), t.class_id.tolist(), t.image_id.tolist(), t.score.tolist()
        )
    ]
    ranked = [pooled[k] for k in sorted(range(len(pooled)), key=lambda k: -pooled[k][0])]
    det_rows = defaultdict(list)  # (class, item, image) -> rank positions
    for pos, (_, c, i, img, _) in enumerate(ranked):
        det_rows[(c, i, img)].append(pos)
    groups = [
        (rows, np.array([[iou_xyxy(ranked[r][4], g) for g in gt_rows[key]] for r in rows]))
        for key, rows in det_rows.items()
        if key in gt_rows
    ]
    classes = sorted(n_gt)
    ranked_cls = np.array([d[1] for d in ranked], dtype=np.int64)
    aps = {c: [] for c in classes}
    for t in thresholds:
        flags = np.zeros(len(ranked), dtype=bool)
        for rows, ious in groups:
            flags[rows] = _greedy_match_at(ious, t)
        for c in classes:
            aps[c].append(_ap_loop(flags[ranked_cls == c], n_gt[c], interpolation))
    counts = {}
    for c in classes:
        tp = int(flags[ranked_cls == c].sum())
        counts[c] = (tp, int((ranked_cls == c).sum()) - tp, n_gt[c] - tp)
    per_class = {c: float(np.mean(aps[c])) for c in classes}
    return APResult(
        per_class_ap=per_class, map_value=float(np.mean(list(per_class.values()))),
        counts=counts,
    )


def pareto_bruteforce(points) -> list[tuple[float, float]]:
    """O(n^2) dominance filter over (rate, quality) pairs."""
    uniq = sorted(set(points))
    keep = []
    for p in uniq:
        dominated = any(
            q[0] <= p[0] and q[1] >= p[1] and (q[0] < p[0] or q[1] > p[1])
            for q in uniq
        )
        if not dominated:
            keep.append(p)
    return keep


def bd_rate_oracle_loglinear(a1, b1, a2, b2, q_lo, q_hi, samples=10_000) -> float:
    """BD-rate for curves with exact form q = a + b*log10(R).

    log10 R(q) inverts in closed form; the average log-rate gap over the
    shared quality interval is integrated with dense trapezoids.
    """
    qs = np.linspace(q_lo, q_hi, samples + 1)
    gap = (qs - a2) / b2 - (qs - a1) / b1
    mean = np.trapezoid(gap, qs) / (q_hi - q_lo)
    return (10.0 ** mean - 1.0) * 100.0


def greedy_chain_pairwise(channels: np.ndarray) -> tuple[int, ...]:
    """Greedy similarity chain from channel 0, one per-pair MSE at a time.

    Each step appends the unvisited channel with the smallest mean squared
    difference to the last appended one; ties go to the lower index.
    """
    c = channels.shape[0]
    flat = channels.reshape(c, -1).astype(np.float64)
    remaining = list(range(1, c))
    order = [0]
    while remaining:
        last = flat[order[-1]]
        costs = [float(np.mean((flat[i] - last) ** 2)) for i in remaining]
        best = min(range(len(remaining)), key=lambda i: (costs[i], remaining[i]))
        order.append(remaining.pop(best))
    return tuple(order)


def best_chain_bruteforce(channels: np.ndarray) -> tuple[int, ...]:
    """Cheapest adjacent-MSE chain over all orders starting at channel 0."""
    c = channels.shape[0]
    flat = channels.reshape(c, -1).astype(np.float64)

    def cost(order):
        return sum(
            float(np.mean((flat[a] - flat[b]) ** 2))
            for a, b in zip(order, order[1:])
        )

    best = min(
        (tuple([0] + list(rest)) for rest in itertools.permutations(range(1, c))),
        key=cost,
    )
    return best


def resample_plane_gather(plane: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample by four float64 gathers at output size."""
    h, w = plane.shape
    if (out_h, out_w) == (h, w):
        return plane.copy()
    src = plane.astype(np.float64)
    x = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    x0 = np.floor(x).astype(np.intp)
    y0 = np.floor(y).astype(np.intp)
    fx = x - x0
    fy = y - y0
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)
    top = src[y0c][:, x0c] * (1 - fx) + src[y0c][:, x1c] * fx
    bottom = src[y1c][:, x0c] * (1 - fx) + src[y1c][:, x1c] * fx
    out = top * (1 - fy)[:, None] + bottom * fy[:, None]
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


# --- JSON-lines records: the reference for tensorio._load_records ---

# the cast of each record field, applied in a kind's field order
_CASTS = {"image_id": as_id, "class_id": as_int64, "bbox": _bbox, "score": as_float64,
          "frame": as_int64, "track_id": as_int64}


def _rows_table(path, fields, rows) -> BoxTable:
    return _table(path, zip(fields, zip(*rows) if rows else [()] * len(fields)))


def _load_lines(path, lines, fields) -> BoxTable:
    """The per-line path: one json.loads and one cast per field of each record."""
    casts = [(f, _CASTS[f]) for f in fields]
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            rows.append([cast(rec[f]) for f, cast in casts])
        except MALFORMED as e:
            _rows_table(path, fields, rows)  # an earlier bad record wins
            raise ParseError(f"{path}:{lineno}: {_cause(e)}", line=lineno) from e
    return _rows_table(path, fields, rows)


# --- feature reconstruction: the reference for the CLI's inverse chain ---


def rebuild_two_step(samples, params, ref=None) -> tuple[np.ndarray, float | None]:
    """dequantize then denormalize over the whole tensor, cast to float32; and the max error.

    The error is taken on the float64 values, against the reference's
    float32 values; None without a reference.
    """
    dequantize = dequantize_8bit if params.bit_depth == 8 else dequantize_2bit
    x64 = denormalize(dequantize(samples, params), params).values
    err = None if ref is None else float(np.abs(x64 - ref).max())
    return x64.astype(np.float32), err
