import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import Det, Gt, Track, det_table, gt_table, track_table
from oracles import (
    _greedy_match_at, ap_bruteforce, iou_xyxy, map_bruteforce, map_per_threshold, mota_pairwise,
)
from vcmbench.errors import InputError, InvariantViolation
from vcmbench.metrics import _greedy_match, iou_matrix, mean_average_precision, mota
from vcmbench.model import BOX_AREA


def B(x0, y0, x1, y1):
    return (x0, y0, x1, y1)


det, gt = Det, Gt


def map_of(dets, gts, thresholds=(0.5,), interpolation="all_points"):
    """mAP of one item's records."""
    return mean_average_precision([det_table(dets)], [gt_table(gts)], thresholds, interpolation)


def mota_of(pred, gt_tracks, iou_threshold):
    return mota(track_table(pred), track_table(gt_tracks), iou_threshold)


def class_ap(dets, gts, class_id, threshold, interpolation="all_points"):
    return map_of(dets, gts, (threshold,), interpolation).per_class_ap[class_id]


# --- IoU ---

def iou(a, b):
    return iou_matrix(np.array([a], dtype=np.float64), np.array([b], dtype=np.float64))[0, 0]


def test_iou_identical():
    assert iou((1, 2, 5, 9), (1, 2, 5, 9)) == 1.0


def test_iou_disjoint():
    assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0


def test_iou_half_shifted_unit_squares():
    # intersection 0.5, union 1.5
    assert iou((0, 0, 1, 1), (0.5, 0, 1.5, 1)) == pytest.approx(1 / 3)


# a coarse grid makes identical, edge-touching and equal-IoU boxes common
grid_box = st.tuples(
    st.integers(0, 6), st.integers(0, 6), st.integers(1, 3), st.integers(1, 3)
).map(lambda t: (float(t[0]), float(t[1]), float(t[0] + t[2]), float(t[1] + t[3])))
float_box = st.lists(
    st.floats(0, 100, allow_nan=False, allow_subnormal=False), min_size=4, max_size=4
).filter(lambda c: c[0] < c[2] and c[1] < c[3])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(grid_box | float_box, max_size=5), st.lists(grid_box | float_box, max_size=5))
@example([(0, 0, 1, 1)], [(1, 0, 2, 1), (0, 1, 1, 2)])  # edge-touching: ix or iy is 0
def test_iou_matrix_matches_scalar_oracle(a, b):
    got = iou_matrix(
        np.array(a, dtype=np.float64).reshape(-1, 4),
        np.array(b, dtype=np.float64).reshape(-1, 4),
    )
    assert got.shape == (len(a), len(b))
    for i, j in np.ndindex(got.shape):
        assert got[i, j] == iou_xyxy(a[i], b[j])


def test_iou_scale_invariance():
    rng = np.random.default_rng(3)
    x0 = rng.uniform(0, 10, (2, 50, 2))
    a, b = np.concatenate([x0, x0 + rng.uniform(0.1, 5, (2, 50, 2))], axis=2)
    s = rng.uniform(0.1, 20, (50, 1))
    np.testing.assert_allclose(
        np.diag(iou_matrix(a * s, b * s)), np.diag(iou_matrix(a, b)), rtol=0, atol=1e-12
    )


# --- AP ---

def test_ap_perfect_single_match():
    dets = [det("i", 0, B(0, 0, 10, 10), 0.9)]
    gts = [gt("i", 0, B(0, 0, 10, 8))]  # IoU 0.8 >= 0.5
    assert class_ap(dets, gts, 0, 0.5) == 1.0


def test_ap_high_scored_fp_then_tp():
    # higher-scored detection misses, lower-scored hits: envelope at
    # recall 1 is 0.5, so AP = 0.5
    gts = [gt("i", 0, B(0, 0, 10, 10))]
    dets = [
        det("i", 0, B(50, 50, 60, 60), 0.9),
        det("i", 0, B(0, 0, 10, 10), 0.5),
    ]
    assert class_ap(dets, gts, 0, 0.5) == pytest.approx(0.5)


def test_ap_no_detections():
    gts = [gt("i", 0, B(0, 0, 10, 10))]
    assert class_ap([], gts, 0, 0.5) == 0.0


def test_ap_no_ground_truth_is_zero():
    # class 0 has no GT, so it gets no AP and its detection counts nowhere
    dets = [det("i", 0, B(0, 0, 10, 10), 0.9)]
    r = map_of(dets, [gt("i", 1, B(0, 0, 10, 10))], (0.5,))
    assert r.per_class_ap == {1: 0.0}
    assert r.counts == {1: (0, 0, 1)}


def test_ap_score_tie_breaks_by_input_order():
    # equal scores: the sweep order follows input order, so putting the
    # miss first halves the envelope
    gts = [gt("i", 0, B(0, 0, 10, 10))]
    hit = det("i", 0, B(0, 0, 10, 10), 0.5)
    miss = det("i", 0, B(50, 50, 60, 60), 0.5)
    assert class_ap([hit, miss], gts, 0, 0.5) == pytest.approx(1.0)
    assert class_ap([miss, hit], gts, 0, 0.5) == pytest.approx(0.5)


def test_ap_invariant_under_monotone_score_transform():
    rng = np.random.default_rng(11)
    dets, gts = _random_instance(rng, n_images=4, n_boxes=15, n_classes=2)
    base = class_ap(dets, gts, 0, 0.5)
    squashed = [d._replace(score=d.score ** 3) for d in dets]
    assert class_ap(squashed, gts, 0, 0.5) == pytest.approx(base, abs=1e-12)


def _random_instance(rng, n_images=5, n_boxes=20, n_classes=3):
    # scores are distinct: a cutoff-enumeration oracle cannot separate
    # tied detections, so tie semantics get their own dedicated test
    imgs = [f"img{i}" for i in range(n_images)]
    gts = []
    dets = []
    scores = iter(rng.permutation(np.linspace(0.02, 0.98, 2 * n_boxes + 1)))
    for _ in range(rng.integers(1, n_boxes + 1)):
        x0, y0 = rng.uniform(0, 50, 2)
        w, h = rng.uniform(2, 20, 2)
        gts.append(
            gt(str(rng.choice(imgs)), int(rng.integers(0, n_classes)),
               B(x0, y0, x0 + w, y0 + h))
        )
    for _ in range(rng.integers(0, n_boxes + 1)):
        if gts and rng.random() < 0.6:
            g = gts[rng.integers(0, len(gts))]
            jitter = rng.uniform(-3, 3, 4)
            x0 = max(0, g.box[0] + jitter[0])
            y0 = max(0, g.box[1] + jitter[1])
            x1 = max(x0 + 0.5, g.box[2] + jitter[2])
            y1 = max(y0 + 0.5, g.box[3] + jitter[3])
            dets.append(
                det(g.image_id, g.class_id, B(x0, y0, x1, y1), float(next(scores)))
            )
        else:
            x0, y0 = rng.uniform(0, 50, 2)
            w, h = rng.uniform(2, 20, 2)
            dets.append(
                det(str(rng.choice(imgs)), int(rng.integers(0, n_classes)),
                    B(x0, y0, x0 + w, y0 + h), float(next(scores)))
            )
    return dets, gts


def test_ap_matches_cutoff_enumeration_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        dets, gts = _random_instance(rng)
        classes = {g.class_id for g in gts}
        for c in classes:
            ours = class_ap(dets, gts, c, 0.5)
            ref = ap_bruteforce(dets, gts, c, 0.5)
            assert ours == pytest.approx(ref, abs=1e-12)
            assert 0.0 <= ours <= 1.0


def test_ap_101pt_interpolation():
    # perfect single match: flat envelope, both modes agree
    dets = [det("i", 0, B(0, 0, 10, 10), 0.9)]
    gts = [gt("i", 0, B(0, 0, 10, 10))]
    assert class_ap(dets, gts, 0, 0.5, interpolation="101pt") == 1.0
    # one TP out of two GT: envelope is 1.0 up to recall 0.5, then 0;
    # 51 of the 101 sample points sit at or below recall 0.5
    gts2 = [gt("i", 0, B(0, 0, 10, 10)), gt("i", 0, B(30, 30, 40, 40))]
    ap = class_ap(dets, gts2, 0, 0.5, interpolation="101pt")
    assert ap == pytest.approx(51 / 101)
    assert class_ap(dets, gts2, 0, 0.5) == pytest.approx(0.5)


def test_map_rejects_unknown_interpolation():
    dets = [det("i", 0, B(0, 0, 10, 10), 0.9)]
    gts = [gt("i", 0, B(0, 0, 10, 10))]
    with pytest.raises(InputError, match="101PT"):
        map_of(dets, gts, interpolation="101PT")


# --- mAP ---

def test_map_single_class_single_threshold_reduces_to_ap():
    rng = np.random.default_rng(5)
    dets, gts = _random_instance(rng, n_classes=1)
    r = map_of(dets, gts, (0.5,))
    assert r.map_value == pytest.approx(class_ap(dets, gts, gts[0].class_id, 0.5))


def test_map_two_classes_mean():
    gts = [gt("i", 0, B(0, 0, 10, 10)), gt("i", 1, B(20, 20, 30, 30))]
    dets = [det("i", 0, B(0, 0, 10, 10), 0.9)]  # class 1 never predicted
    r = map_of(dets, gts, (0.5,))
    assert r.per_class_ap == {0: 1.0, 1: 0.0}
    assert r.map_value == pytest.approx(0.5)


def test_map_empty_ground_truth_raises():
    with pytest.raises(InputError, match="no class has any ground-truth box"):
        map_of([det("i", 0, B(0, 0, 1, 1), 0.5)], [], (0.5,))


def test_map_counts_accounting():
    gts = [gt("i", 0, B(0, 0, 10, 10)), gt("i", 0, B(20, 20, 30, 30))]
    dets = [
        det("i", 0, B(0, 0, 10, 10), 0.9),
        det("i", 0, B(50, 50, 60, 60), 0.8),
    ]
    r = map_of(dets, gts, (0.5,))
    tp, fp, fn = r.counts[0]
    assert (tp, fp, fn) == (1, 1, 1)
    assert tp + fn == 2  # matched + FN = GT


def test_map_multi_threshold_matches_oracle():
    rng = np.random.default_rng(77)
    thresholds = (0.5, 0.75)
    for _ in range(25):
        dets, gts = _random_instance(rng)
        r = map_of(dets, gts, thresholds)
        assert r.map_value == pytest.approx(
            map_bruteforce(dets, gts, thresholds), abs=1e-12
        )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 1), grid_box), max_size=8),
    st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 1), grid_box), min_size=1,
             max_size=6),
)
# the later, higher-scored detection ties on both GT boxes and must take
# the first, which leaves the other detection below 0.5
@example([("a", 0, (0, 0, 2, 2)), ("a", 0, (0, 0, 3, 2))],
         [("a", 0, (0, 0, 2, 2)), ("a", 0, (1, 0, 3, 2))])
def test_map_matches_oracle_on_tied_ious(det_rows, gt_rows):
    # grid boxes tie often; the cutoff oracle needs distinct scores
    dets = [det(img, c, B(*box), (k + 1) / 16) for k, (img, c, box) in enumerate(det_rows)]
    gts = [gt(img, c, B(*box)) for img, c, box in gt_rows]
    thresholds = (0.1, 0.25, 0.5, 1.0)
    r = map_of(dets, gts, thresholds)
    assert r.map_value == pytest.approx(map_bruteforce(dets, gts, thresholds), abs=1e-12)


COCO_THRESHOLDS = tuple(np.linspace(0.5, 0.95, 10))
INTERPOLATIONS = ("all_points", "101pt")


def _assert_matches_per_threshold(det_tables, gt_tables, thresholds, interpolation):
    got = mean_average_precision(det_tables, gt_tables, thresholds, interpolation)
    assert got == map_per_threshold(det_tables, gt_tables, thresholds, interpolation)


@pytest.mark.parametrize("interpolation", INTERPOLATIONS)
@pytest.mark.parametrize(
    "thresholds",
    [(0.5,), COCO_THRESHOLDS, (0.75, 0.5, 0.75, 0.6)],  # the last out of order, repeated
    ids=["0.5", "coco", "unordered"],
)
def test_map_equals_per_threshold_oracle_on_random_items(thresholds, interpolation):
    rng = np.random.default_rng(13)
    for _ in range(20):
        items = [_random_instance(rng, n_images=2) for _ in range(3)]
        # coarse scores tie within and across items
        det_tables = [
            det_table([d._replace(score=round(d.score, 1)) for d in dets]) for dets, _ in items
        ]
        gt_tables = [gt_table(gts) for _, gts in items]
        _assert_matches_per_threshold(det_tables, gt_tables, thresholds, interpolation)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 1), grid_box), max_size=8),
    st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 1), grid_box), min_size=1,
             max_size=6),
    st.sampled_from(INTERPOLATIONS),
)
# the tie that test_map_matches_oracle_on_tied_ious pins: the first column wins
@example([("a", 0, (0, 0, 2, 2)), ("a", 0, (0, 0, 3, 2))],
         [("a", 0, (0, 0, 2, 2)), ("a", 0, (1, 0, 3, 2))], "all_points")
def test_map_equals_per_threshold_oracle_on_tied_ious(det_rows, gt_rows, interpolation):
    dets = [det(img, c, B(*box), (k + 1) / 16) for k, (img, c, box) in enumerate(det_rows)]
    gts = [gt(img, c, B(*box)) for img, c, box in gt_rows]
    for thresholds in [(0.1, 0.25, 0.5, 1.0), (1.0, 0.25, 0.1, 0.25)]:
        _assert_matches_per_threshold(
            [det_table(dets)], [gt_table(gts)], thresholds, interpolation
        )


@pytest.mark.parametrize("interpolation", INTERPOLATIONS)
def test_map_equals_per_threshold_oracle_without_detections(interpolation):
    gts = [gt_table([gt("i", 0, B(0, 0, 10, 10)), gt("j", 1, B(5, 5, 9, 9))])]
    _assert_matches_per_threshold([det_table([])], gts, COCO_THRESHOLDS, interpolation)


def _item_scoped(records, i):
    return [r._replace(image_id=f"{i}/{r.image_id}") for r in records]


def test_pooled_items_match_oracle_on_item_scoped_image_ids():
    # items reuse image ids; a detection may only match its own item's boxes
    rng = np.random.default_rng(31)
    thresholds = (0.5, 0.75)
    for _ in range(25):
        items = [_random_instance(rng, n_images=2) for _ in range(3)]
        # distinct scores across items, as the cutoff oracle needs
        items = [([d._replace(score=d.score + i * 1e-4) for d in dets], gts)
                 for i, (dets, gts) in enumerate(items)]
        r = mean_average_precision(
            [det_table(dets) for dets, _ in items], [gt_table(gts) for _, gts in items],
            thresholds,
        )
        dets = [d for i, (ds, _) in enumerate(items) for d in _item_scoped(ds, i)]
        gts = [g for i, (_, gs) in enumerate(items) for g in _item_scoped(gs, i)]
        assert r.map_value == pytest.approx(map_bruteforce(dets, gts, thresholds), abs=1e-12)


def test_score_ties_across_items_keep_item_order():
    # one box of ground truth per item; the tied hit and miss rank in item order
    box = B(0, 0, 10, 10)
    hit = det_table([det("i", 0, box, 0.5)])
    miss = det_table([det("i", 0, B(50, 50, 60, 60), 0.5)])
    gts = [gt_table([gt("i", 0, box)])] * 2
    assert mean_average_precision([hit, miss], gts).map_value == pytest.approx(0.5)
    assert mean_average_precision([miss, hit], gts).map_value == pytest.approx(0.25)


def test_map_takes_one_detection_table_per_item():
    gts = [gt_table([gt("i", 0, B(0, 0, 1, 1))])]
    with pytest.raises(InputError, match="2 detection tables for 1"):
        mean_average_precision([det_table([]), det_table([])], gts)


def test_map_box_scale_invariance():
    rng = np.random.default_rng(9)
    dets, gts = _random_instance(rng)
    base = map_of(dets, gts, (0.5,)).map_value
    s = 7.3
    dets2 = [d._replace(box=tuple(c * s for c in d.box)) for d in dets]
    gts2 = [g._replace(box=tuple(c * s for c in g.box)) for g in gts]
    assert map_of(dets2, gts2, (0.5,)).map_value == pytest.approx(
        base, abs=1e-12
    )


# --- MOTA ---

def tb(frame, track, box, score=1.0):
    return Track(frame, track, 0, box, score)


def test_mota_perfect_tracking():
    gt_tracks = [tb(0, 1, B(0, 0, 5, 5)), tb(1, 1, B(1, 0, 6, 5))]
    r = mota_of(gt_tracks, gt_tracks, 0.5)
    assert (r.fn, r.fp, r.idsw) == (0, 0, 0)
    assert r.mota == 1.0


def test_mota_all_misses():
    gt_tracks = [tb(f, 1, B(0, 0, 5, 5)) for f in range(10)]
    r = mota_of([], gt_tracks, 0.5)
    assert r.fn == 10 and r.fp == 0 and r.idsw == 0
    assert r.mota == 0.0


def test_mota_identity_switch():
    # correct boxes both frames, but the predicted track id changes
    gt_tracks = [tb(0, 1, B(0, 0, 5, 5)), tb(1, 1, B(0, 0, 5, 5))]
    pred = [tb(0, 10, B(0, 0, 5, 5)), tb(1, 20, B(0, 0, 5, 5))]
    r = mota_of(pred, gt_tracks, 0.5)
    assert (r.fn, r.fp, r.idsw) == (0, 0, 1)
    assert r.mota == pytest.approx(0.5)


def test_mota_accounting_identity_per_frame():
    rng = np.random.default_rng(13)
    for _ in range(20):
        gt_tracks = []
        pred = []
        for frame in range(4):
            for track in range(rng.integers(1, 4)):
                x = float(rng.uniform(0, 40))
                gt_tracks.append(tb(frame, track, B(x, 0, x + 5, 5)))
            for track in range(rng.integers(0, 4)):
                x = float(rng.uniform(0, 40))
                pred.append(tb(frame, 100 + track, B(x, 0, x + 5, 5)))
        r = mota_of(pred, gt_tracks, 0.5)
        matched = len(gt_tracks) - r.fn
        assert matched + r.fp == len(pred)
        assert r.gt == len(gt_tracks)


tracked = st.builds(
    lambda frame, track, box: tb(frame, track, B(*box)),
    st.integers(0, 3), st.integers(0, 3), grid_box,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(tracked, max_size=12),
    st.lists(tracked, min_size=1, max_size=12),
    st.sampled_from([0.1, 0.25, 0.5, 1.0]),
)
def test_mota_matches_pairwise_oracle(pred, gt_tracks, threshold):
    # grid boxes tie often, so this pins the (-IoU, gt, pred) pair order
    r = mota_of(pred, gt_tracks, threshold)
    assert (r.fn, r.fp, r.idsw, r.gt) == mota_pairwise(pred, gt_tracks, threshold)


# --- boxes of any magnitude ---
# Grid boxes scaled by 2**k, from 2**-1074 (the least subnormal) to 9 * 2**1019
# (near the largest float64): every coordinate, extent and in-range area is
# exact, so the only way to a wrong IoU is an overflow or underflow. The
# thresholds are dyadic: an IoU's one rounding cannot carry a small-integer
# ratio across one, as it carries 1/10 up to the float 0.1.
_DYADIC = (0.125, 0.25, 0.5, 1.0)

def _scaled(rows, k):
    return [r._replace(box=tuple(math.ldexp(c, k) for c in r.box)) for r in rows]


def _exact(rows):
    return [r._replace(box=tuple(map(Fraction, r.box))) for r in rows]


def _area_in_range(box) -> bool:
    x0, y0, x1, y1 = map(Fraction, box)
    return BOX_AREA[0] <= (x1 - x0) * (y1 - y0) <= BOX_AREA[1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(-1074, 1019),
    st.lists(st.tuples(st.integers(0, 1), grid_box), max_size=6),
    st.lists(st.tuples(st.integers(0, 1), grid_box), min_size=1, max_size=6),
)
# areas of 2**1022, and far apart: ix * iy of the pair is 25 * 2**1022
@example(511, [(0, (0.0, 0.0, 1.0, 1.0))], [(0, (6.0, 6.0, 7.0, 7.0))])
def test_map_at_any_magnitude_is_the_exact_iou_map_or_refused(k, det_rows, gt_rows):
    dets = _scaled([det("a", c, B(*box), (i + 1) / 16) for i, (c, box) in enumerate(det_rows)], k)
    gts = _scaled([gt("a", c, B(*box)) for c, box in gt_rows], k)
    thresholds = _DYADIC
    if not all(_area_in_range(r.box) for r in dets + gts):
        with pytest.raises(InvariantViolation, match="box area must be in"):
            map_of(dets, gts, thresholds)
        return
    exact = map_bruteforce(_exact(dets), _exact(gts), thresholds)
    assert map_of(dets, gts, thresholds).map_value == pytest.approx(exact, abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(-1074, 1019),
    st.lists(tracked, max_size=10),
    st.lists(tracked, min_size=1, max_size=10),
    st.sampled_from(_DYADIC),
)
@example(511, [tb(0, 1, B(0.0, 0.0, 1.0, 1.0))], [tb(0, 1, B(6.0, 6.0, 7.0, 7.0))], 0.5)
def test_mota_at_any_magnitude_is_the_exact_iou_mota_or_refused(k, pred, gt_tracks, threshold):
    pred, gt_tracks = _scaled(pred, k), _scaled(gt_tracks, k)
    if not all(_area_in_range(r.box) for r in pred + gt_tracks):
        with pytest.raises(InvariantViolation, match="box area must be in"):
            mota_of(pred, gt_tracks, threshold)
        return
    r = mota_of(pred, gt_tracks, threshold)
    assert (r.fn, r.fp, r.idsw, r.gt) == mota_pairwise(_exact(pred), _exact(gt_tracks), threshold)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(1e-320, 1e308), st.floats(1e-320, 1e308))
@example(1e308, 1e308)  # the area overflows
@example(1e154, 1e154)  # each area is finite, their sum is not
@example(1e-320, 1e-320)  # the area underflows to 0
def test_exact_match_of_any_magnitude_scores_1_or_is_refused(w, h):
    box = B(0.0, 0.0, w, h)
    if not _area_in_range(box):
        with pytest.raises(InvariantViolation, match="box area must be in"):
            gt_table([gt("a", 0, box)])
        return
    assert map_of([det("a", 0, box, 0.5)], [gt("a", 0, box)], (1.0,)).map_value == 1.0
    assert mota_of([tb(0, 1, box)], [tb(0, 1, box)], 1.0).mota == 1.0


def test_mota_empty_gt_raises():
    with pytest.raises(InputError, match="ground truth has no tracked boxes"):
        mota_of([tb(0, 1, B(0, 0, 5, 5))], [], 0.5)


def test_mota_can_be_negative():
    gt_tracks = [tb(0, 1, B(0, 0, 5, 5))]
    pred = [tb(0, 1, B(50, 50, 55, 55)), tb(0, 2, B(60, 60, 65, 65))]
    r = mota_of(pred, gt_tracks, 0.5)
    assert r.mota == pytest.approx(1.0 - 3 / 1)


# IoUs that tie within rows and columns, several exactly on a threshold
TIED_IOUS = (0.0, 0.25, 0.5, 0.5, 0.6, 0.75, 0.75, 0.9, 1.0)


@pytest.mark.parametrize("thresholds", [
    COCO_THRESHOLDS, COCO_THRESHOLDS[::-1], (0.5, 0.5, 0.75, 0.25, 0.75),
    (1.0, 0.25, 0.1, 0.25), (0.6,),
], ids=["coco", "descending", "repeated", "unordered", "one"])
def test_greedy_match_equals_matching_each_threshold_alone(thresholds):
    # copying a lower threshold's matches must give what matching anew gives
    rng = np.random.default_rng(17)
    for _ in range(300):
        ious = rng.choice(TIED_IOUS, tuple(rng.integers(1, 8, 2)))
        want = np.array([_greedy_match_at(ious, t) for t in thresholds])
        assert (_greedy_match(ious, thresholds) == want).all()


def _grid_boxes(rng, n):
    xy = rng.integers(0, 5, (n, 2))
    return np.concatenate([xy, xy + rng.integers(1, 4, (n, 2))], axis=1).astype(float).tolist()


@pytest.mark.parametrize("interpolation", INTERPOLATIONS)
def test_map_equals_per_threshold_oracle_on_grid_boxes_and_mixed_thresholds(interpolation):
    # integer boxes give tied IoUs of 1/3, 1/2, 2/3 ...; threshold tuples come
    # unsorted and with repeats, some equal to those IoUs
    rng = np.random.default_rng(23)
    grid = (0.1, 0.25, 1 / 3, 0.5, 0.6, 2 / 3, 0.75, 1.0)
    for _ in range(60):
        gts = [gt(f"i{rng.integers(2)}", int(rng.integers(2)), tuple(b))
               for b in _grid_boxes(rng, int(rng.integers(1, 7)))]
        dets = [det(f"i{rng.integers(2)}", int(rng.integers(2)), tuple(b), rng.integers(4) / 4)
                for b in _grid_boxes(rng, int(rng.integers(0, 9)))]
        thresholds = tuple(rng.choice(grid, int(rng.integers(1, 7))).tolist())
        _assert_matches_per_threshold([det_table(dets)], [gt_table(gts)], thresholds,
                                      interpolation)
