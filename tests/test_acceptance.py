"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion; each test also prints its own `ACCEPTANCE n PASS` line
(visible with -s, and on failure).
"""

import json
import time

import numpy as np
import pytest

from conftest import Det, Gt, Track, det_table, gt_table, track_table
from oracles import (
    ap_bruteforce,
    bd_rate_oracle_loglinear,
    map_bruteforce,
    pareto_bruteforce,
)
from vcmbench.cli import main
from vcmbench.featurecodec import (
    pack_multiscale,
    pack_spatial_tiled,
    pack_temporal,
    raw_size_bits,
    unpack_frames,
)
from vcmbench.featurecodec.entropy import decode_bytes, encode_bytes
from vcmbench.featurecodec.quantize import dequantize_8bit, quantize_8bit
from vcmbench.metrics import mean_average_precision, mota
from vcmbench.model import FeatureTensor, QuantParams, RDPoint
from vcmbench.pipeline.experiment import load_manifest, run_experiment
from vcmbench.rdcurves import bd_metrics, build_curve, pareto_front


def _ok(n, detail=""):
    print(f"ACCEPTANCE {n} PASS {detail}")


def _random_monotone_curve(rng, label, n=None):
    n = n or int(rng.integers(4, 9))
    rates = np.sort(rng.uniform(0.02, 4.0, n))
    while len(np.unique(rates)) < n:
        rates = np.sort(rng.uniform(0.02, 4.0, n))
    quals = np.sort(rng.uniform(0.05, 0.95, n))
    while len(np.unique(quals)) < n:
        quals = np.sort(rng.uniform(0.05, 0.95, n))
    return build_curve(
        [RDPoint(float(r), float(q)) for r, q in zip(rates, quals)], label
    )


def test_criterion_01_bd_rate_identity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for i in range(50):
        c = _random_monotone_curve(rng, f"c{i}")
        bd = bd_metrics(c, c)
        assert abs(bd.bd_rate_percent) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(1, f"(50 curves, {elapsed:.3f}s)")


def test_criterion_02_bd_rate_constant_shift():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    for i in range(20):
        anchor = _random_monotone_curve(rng, f"a{i}")
        test = build_curve(
            [RDPoint(p.rate * 0.9, p.quality) for p in anchor.points], f"t{i}"
        )
        bd = bd_metrics(anchor, test)
        assert bd.bd_rate_percent == pytest.approx(-10.0, abs=0.01)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(2, f"(20 pairs, {elapsed:.3f}s)")


def test_criterion_03_bd_rate_oracle_on_loglinear_curves():
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 100:
        a1, a2 = rng.uniform(0.2, 0.5, 2)
        b1, b2 = rng.uniform(0.12, 0.35, 2)
        r_anchor = np.logspace(
            float(rng.uniform(-1.4, -1.0)), float(rng.uniform(0.3, 0.8)),
            int(rng.integers(4, 9)),
        )
        r_test = np.logspace(
            float(rng.uniform(-1.4, -1.0)), float(rng.uniform(0.3, 0.8)),
            int(rng.integers(4, 9)),
        )
        q_anchor = a1 + b1 * np.log10(r_anchor)
        q_test = a2 + b2 * np.log10(r_test)
        q_lo = max(q_anchor[0], q_test[0])
        q_hi = min(q_anchor[-1], q_test[-1])
        if q_hi <= q_lo + 0.01:
            continue
        anchor = build_curve(
            [RDPoint(float(r), float(q)) for r, q in zip(r_anchor, q_anchor)], "a"
        )
        test = build_curve(
            [RDPoint(float(r), float(q)) for r, q in zip(r_test, q_test)], "t"
        )
        bd = bd_metrics(anchor, test).bd_rate_percent
        ref = bd_rate_oracle_loglinear(a1, b1, a2, b2, q_lo, q_hi, samples=10_000)
        # 0.5% relative, with a tiny absolute floor for near-zero deltas
        assert abs(bd - ref) <= max(5e-3 * abs(ref), 1e-9)
        checked += 1
    _ok(3, "(100 random (a,b) pairs vs 1e4-sample trapezoid oracle)")


def test_criterion_04_size_ratios():
    dims = (64, 76, 136)
    assert raw_size_bits(dims, 32) / raw_size_bits(dims, 8) == 4.0
    assert raw_size_bits(dims, 8) / raw_size_bits(dims, 2) == 4.0
    # published measurements of the same ratios
    assert abs(28.41 / 7.10 - 4.0) / 4.0 < 0.003
    assert abs(7.10 / 1.77 - 4.0) / 4.0 < 0.003
    _ok(4)


def test_criterion_05_quantization_error_bound_dense_grid():
    z_min, z_max = -3.0, 3.0
    params = QuantParams(mean=np.zeros(1), std=np.ones(1), z_min=z_min, z_max=z_max)
    grid = np.linspace(z_min, z_max, 1_000_000, dtype=np.float64).astype(np.float32)
    z = FeatureTensor(grid.reshape(1, 1000, 1000))
    rec = dequantize_8bit(quantize_8bit(z, params), params)
    err = np.abs(
        rec.values.astype(np.float64) - z.values.astype(np.float64)
    ).max()
    bound = (z_max - z_min) / 510 + 1e-9
    assert err <= bound
    _ok(5, f"(max err {err:.3e} <= {bound:.3e})")


def test_criterion_06_packing_bijectivity_1000_tensors():
    rng = np.random.default_rng(106)
    count = 0
    for _ in range(400):  # spatial
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        s = rng.integers(0, 256, (64, h, w)).astype(np.uint8)
        fs = pack_spatial_tiled(s)
        out = unpack_frames(fs)
        assert np.array_equal(out, s)
        assert fs.frames.size == s.size
        count += 1
    for _ in range(400):  # temporal, with and without permutation
        c = int(rng.integers(1, 24))
        h, w = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        s = rng.integers(0, 256, (c, h, w)).astype(np.uint8)
        perm = tuple(rng.permutation(c)) if rng.random() < 0.5 else None
        fs = pack_temporal(s, permutation=perm)
        assert np.array_equal(unpack_frames(fs), s)
        assert fs.frames.size == s.size
        count += 1
    for _ in range(200):  # multiscale pyramids
        h2 = int(rng.integers(16, 24))
        w2 = int(rng.integers(16, 24))
        samples = [
            rng.integers(0, 256, (64, h2 >> k, w2 >> k)).astype(np.uint8)
            for k in range(5)
        ]
        fs = pack_multiscale(samples)
        out = unpack_frames(fs)
        for got, want in zip(out, samples):
            assert np.array_equal(got, want)
        occupied = sum(s.size for s in samples)
        assert int((fs.frames[0] > 0).sum()) <= occupied  # zero fill outside blocks
        count += 1
    assert count == 1000
    _ok(6, "(1000 tensors, 3 layouts)")


def test_criterion_07_entropy_coder():
    rng = np.random.default_rng(107)
    sizes = (
        [int(rng.integers(1, 1025)) for _ in range(970)]
        + [int(rng.integers(4096, 16384)) for _ in range(25)]
        + [65536] * 4
        + [1 << 20]
    )
    assert len(sizes) == 1000 and max(sizes) == 1 << 20
    for i, size in enumerate(sizes):
        kind = i % 4
        if kind == 0:
            data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        elif kind == 1:
            data = bytes(size)
        elif kind == 2:
            data = rng.integers(0, 5, size, dtype=np.uint8).tobytes()
        else:
            data = np.clip(rng.normal(90, 25, size), 0, 255).astype(np.uint8).tobytes()
        payload = encode_bytes(data)
        assert decode_bytes(payload, size) == data
        assert len(payload) <= size + 64
    zero_payload = encode_bytes(bytes(10_000))
    assert len(zero_payload) < 100  # < 1% of raw
    uniform = rng.integers(0, 256, 10_000, dtype=np.uint8).tobytes()
    assert len(encode_bytes(uniform)) <= len(uniform) + 64
    _ok(7, f"(1000 frames; all-zero 1e4 -> {len(zero_payload)}B)")


def _random_map_instance(rng):
    n_images = int(rng.integers(1, 11))
    n_classes = int(rng.integers(1, 4))
    imgs = [f"im{i}" for i in range(n_images)]
    scores = iter(rng.permutation(np.linspace(0.01, 0.99, 41)))
    gts = []
    for _ in range(int(rng.integers(1, 21))):
        x0, y0 = rng.uniform(0, 40, 2)
        w, h = rng.uniform(2, 15, 2)
        gts.append(
            Gt(str(rng.choice(imgs)), int(rng.integers(0, n_classes)), (x0, y0, x0 + w, y0 + h))
        )
    dets = []
    for _ in range(int(rng.integers(0, 21))):
        if rng.random() < 0.65:
            g = gts[rng.integers(0, len(gts))]
            dx = rng.uniform(-4, 4, 4)
            x0 = max(0, g.box[0] + dx[0])
            y0 = max(0, g.box[1] + dx[1])
            box = (x0, y0, max(x0 + 0.5, g.box[2] + dx[2]), max(y0 + 0.5, g.box[3] + dx[3]))
            dets.append(Det(g.image_id, g.class_id, box, float(next(scores))))
        else:
            x0, y0 = rng.uniform(0, 40, 2)
            w, h = rng.uniform(2, 15, 2)
            dets.append(
                Det(str(rng.choice(imgs)), int(rng.integers(0, n_classes)),
                    (x0, y0, x0 + w, y0 + h), float(next(scores)))
            )
    return dets, gts


def test_criterion_08_map_oracle_equivalence_500_instances():
    rng = np.random.default_rng(108)
    t0 = time.perf_counter()
    for _ in range(500):
        dets, gts = _random_map_instance(rng)
        for c in sorted({g.class_id for g in gts}):
            ours = mean_average_precision(
                [det_table(dets)], [gt_table(gts)], (0.5,)
            ).per_class_ap[c]
            ref = ap_bruteforce(dets, gts, c, 0.5)
            assert ours == ref or abs(ours - ref) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(8, f"(500 instances, {elapsed:.2f}s)")


def test_criterion_09_pareto_oracle_500_sets():
    rng = np.random.default_rng(109)
    for _ in range(500):
        n = int(rng.integers(1, 101))
        pts = [
            (float(r), float(q))
            for r, q in zip(rng.uniform(0.01, 3.0, n), rng.uniform(0, 1, n))
        ]
        curves = [build_curve([RDPoint(r, q)], f"p{i}") for i, (r, q) in enumerate(pts)]
        front = pareto_front(curves)
        got = [(p.rate, p.quality) for p in front.points]
        assert got == pareto_bruteforce(pts)
        again = pareto_front([front])
        assert again.points == front.points
    _ok(9, "(500 point sets, idempotence held)")


def test_criterion_11_mota_hand_traced_fixtures():
    def tb(frame, track, x=0.0):
        return Track(frame, track, 0, (x, 0, x + 5, 5), 1.0)

    def mota_of(pred, gt):
        return mota([track_table(pred)], [track_table(gt)], 0.5)

    # fixture 1: predictions identical to GT
    gt = [tb(0, 1), tb(1, 1)]
    r = mota_of(gt, gt)
    assert (r.fn, r.fp, r.idsw, r.mota) == (0, 0, 0, 1.0)
    # fixture 2: no predictions, GT = 10 -> MOTA 0.0
    gt10 = [tb(f, 1) for f in range(10)]
    r = mota_of([], gt10)
    assert r.fn == 10 and r.mota == 0.0
    # fixture 3: correct boxes, track id changes between the two frames
    pred = [tb(0, 7), tb(1, 8)]
    r = mota_of(pred, [tb(0, 1), tb(1, 1)])
    assert r.idsw == 1 and r.mota == pytest.approx(0.5)
    _ok(11, "(3 hand-traced fixtures)")


def test_criterion_12_end_to_end_determinism(blob_manifest, tmp_path):
    manifest = blob_manifest(codec_kind="NULL", qp_list=(22, 27),
                             scales=(100, 75, 50, 25), predictions="files")
    reports = []
    for run, jobs in enumerate((1, 1, 1, 4, 4)):
        out = tmp_path / f"run{run}"
        rc = main(["--jobs", str(jobs), "run", str(manifest),
                   "--output-dir", str(out)])
        assert rc == 0
        reports.append((out / "report.json").read_bytes())
    assert all(r == reports[0] for r in reports[1:])
    _ok(12, "(5 runs x jobs {1,4}, byte-identical report.json)")


def test_criterion_13_end_to_end_rd_sanity(blob_manifest, tmp_path):
    t0 = time.perf_counter()
    manifest_path = blob_manifest(
        codec_kind="TRUNCATE", qp_list=(0, 1, 2, 3, 4, 5, 6, 7),
        scales=(100, 75, 50, 25), predictions="command",
    )
    manifest = load_manifest(manifest_path)
    result = run_experiment(manifest, work_dir=tmp_path / "work", jobs=4)

    # coded bits non-increasing with qp, per item and scale
    by_key = {(r.item_id, r.scale, r.qp): r.bits for r in result.records}
    for item in manifest.items:
        for scale in manifest.scales:
            bits = [by_key[(item.item_id, scale, qp)] for qp in range(8)]
            assert all(a >= b for a, b in zip(bits, bits[1:])), (
                f"bits not monotone at scale {scale}: {bits}"
            )

    # mAP non-increasing with qp at every scale
    for scale in manifest.scales:
        quality = [result.rd_points[(scale, qp)][1] for qp in range(8)]
        assert all(a >= b for a, b in zip(quality, quality[1:])), (
            f"mAP not monotone at scale {scale}: {quality}"
        )

    # the front over the four scales is exactly the non-dominated set
    pool = [(p.rate, p.quality) for c in result.curves for p in c.points]
    got = [(p.rate, p.quality) for p in result.pareto.points]
    assert got == pareto_bruteforce(pool)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(13, f"(8 qps x 4 scales x 2 items, {elapsed:.1f}s)")
