"""Rate accounting, RD-curve construction, Pareto anchors, and BD metrics.

Rates are bits per source pixel for image tasks and bits per second for
video tasks; BPP always divides by the source image's pixel count, never
the scaled or padded encode resolution.

BD metrics follow the standard Bjontegaard approach: quality and
log10(rate) are interpolated with a piecewise-cubic-hermite (PCHIP)
fit and the gap between the two curves is averaged over the overlapping
interval.  BD-rate integrates log-rate over the shared quality range;
BD-quality integrates quality over the shared log-rate range.  Curves
with fewer than four points fall back to piecewise-linear interpolation.
Every caller's curves are compared by their own Pareto fronts, and every
CSV table vcmbench writes goes through `write_csv`.

The log is portable: log10 of each rate and 10 ** (mean log-rate gap) are
taken in 40-digit `decimal` arithmetic and rounded to float64, so BD numbers
are the same bits on every CPU and C library; every other step is IEEE
arithmetic.

The PCHIP is the monotone one of Fritsch & Carlson (SIAM J. Numer. Anal.
17(2), 1980) with Fritsch & Butland's harmonic-mean slopes (SIAM J. Sci.
Stat. Comput. 5(2), 1984).  It is scipy's PchipInterpolator arithmetic
done in numpy, operation for operation, so it gives the same bits as
scipy; BD numbers do not depend on whether or which scipy is installed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from decimal import Context, Decimal

import numpy as np

from .errors import DegenerateCurve, InputError, InvariantViolation, NoOverlap, ParseError
from .model import RDCurve, RDPoint, check_scale_percent
from .tensorio import MALFORMED_OR_INVALID, parsing


@dataclass(frozen=True)
class BdResult:
    bd_rate_percent: float
    bd_quality: float
    quality_overlap: tuple[float, float]
    log_rate_overlap: tuple[float, float]


def bpp(bitstream_bits: int, source_width: int, source_height: int) -> float:
    """Bits per pixel of the SOURCE image (scaling never changes the divisor)."""
    if bitstream_bits <= 0:
        raise InputError(f"bitstream_bits must be > 0: {bitstream_bits}")
    pixels = source_width * source_height
    if pixels <= 0:
        raise InputError(f"source has no pixels: {source_width}x{source_height}")
    return bitstream_bits / pixels


def bitrate(total_bits: int, frame_count: int, fps: float) -> float:
    """Average bits per second of a coded sequence."""
    if total_bits <= 0:
        raise InputError(f"total_bits must be > 0: {total_bits}")
    if frame_count <= 0:
        raise InputError(f"frame_count must be > 0: {frame_count}")
    if fps <= 0:
        raise InputError(f"fps must be > 0: {fps}")
    rate = total_bits * fps / frame_count
    if not math.isfinite(rate):
        raise InputError(f"bitrate is not finite: {total_bits} bits at {fps} fps")
    return rate


def _best_quality_by_rate(points) -> dict[float, float]:
    """Rate -> best quality; points sharing a rate collapse to the maximum."""
    by_rate: dict[float, float] = {}
    for p in points:
        by_rate[p.rate] = max(by_rate.get(p.rate, p.quality), p.quality)
    return by_rate


def build_curve(
    points, label: str, scale_percent: int | None = None, quality_unit: str = "fraction"
) -> RDCurve:
    """Sort points by rate; duplicate rates collapse keeping max quality."""
    pts = list(points)
    if not pts:
        raise InvariantViolation(f"curve {label!r} has no points")
    merged = [RDPoint(r, q) for r, q in sorted(_best_quality_by_rate(pts).items())]
    return RDCurve(
        label=label, points=tuple(merged), scale_percent=scale_percent,
        quality_unit=quality_unit,
    )


def scale_curves(points_by_scale, quality_unit: str) -> list[RDCurve]:
    """One curve per (scale, points) pair, labelled scale<N>, in the pairs' order."""
    return [build_curve(pts, f"scale{s}", s, quality_unit) for s, pts in points_by_scale]


def pareto_front(curves, label: str = "pareto") -> RDCurve:
    """Non-dominated envelope of all points pooled from the input curves.

    A point is dominated if another point has rate <= and quality >= with
    at least one inequality strict. Points sharing a rate collapse to the
    best quality first, after which a single ascending-rate scan keeps
    exactly the points whose quality exceeds everything cheaper.
    """
    curves = list(curves)
    if not curves:
        raise InputError("no curves given")
    units = {c.quality_unit for c in curves}
    if len(units) > 1:
        raise InputError(f"curves mix quality units: {sorted(units)}")
    by_rate = _best_quality_by_rate(p for c in curves for p in c.points)
    survivors = []
    best = -np.inf
    for rate in sorted(by_rate):
        quality = by_rate[rate]
        if quality > best:
            survivors.append(RDPoint(rate, quality))
            best = quality
    return RDCurve(
        label=label, points=tuple(survivors), scale_percent=None,
        quality_unit=curves[0].quality_unit,
    )


def apply_cutoff(curve: RDCurve, min_quality: float) -> RDCurve:
    """Drop points whose quality is below the cutoff threshold."""
    kept = tuple(p for p in curve.points if p.quality >= min_quality)
    if not kept:
        raise InputError(f"no point of {curve.label!r} reaches quality {min_quality}")
    return RDCurve(
        label=curve.label, points=kept, scale_percent=curve.scale_percent,
        quality_unit=curve.quality_unit,
    )


# 40 significant digits, far past float64's 17; a context per call shares no flags
def _log10(x: float) -> float:
    """log10(x) in decimal arithmetic, rounded to float64: the same bits on every machine."""
    return float(Context(prec=40).log10(Decimal(x)))


def _exp10(x: float) -> float:
    """10 ** x in decimal arithmetic, rounded to float64: the same bits on every machine."""
    return float(Context(prec=40).power(10, Decimal(x)))


def _check_curve_for_bd(curve: RDCurve) -> tuple[np.ndarray, np.ndarray]:
    if len(curve.points) < 2:
        raise DegenerateCurve(
            f"curve {curve.label!r} needs >= 2 points for BD metrics"
        )
    log_rate = np.array([_log10(r) for r in curve.rates.tolist()])
    if not np.all(np.diff(log_rate) > 0):  # x of both fits must strictly increase
        raise DegenerateCurve(
            f"curve {curve.label!r} has rates too close to tell apart in log10"
        )
    return log_rate, curve.qualities


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, clamped to preserve shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x: np.ndarray, y: np.ndarray):
    """Monotone PCHIP through (x, y), x strictly increasing, len(x) >= 3.

    Every step repeats scipy.interpolate.PchipInterpolator (slopes) and
    PPoly (evaluation, extrapolating from the end intervals) so that the
    result is bit-identical to it.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    # interior slopes: weighted harmonic mean, 0 at a sign change or flat segment
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d = np.empty_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    # cubic Hermite coefficients in s = xs - x[i], highest power first
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]

    def evaluate(xs):
        i = np.clip(np.searchsorted(x, xs, side="right") - 1, 0, len(x) - 2)
        s = xs - x[i]
        # PPoly's sum starts at 0.0 and multiplies s up term by term
        return 0.0 + c3[i] + c2[i] * s + c1[i] * (s * s) + c0[i] * (s * s * s)

    return evaluate


def _fit(x: np.ndarray, y: np.ndarray):
    """PCHIP for >= 4 support points, piecewise-linear below that."""
    if len(x) >= 4:
        return _pchip(x, y)

    def linear(t):
        return np.interp(t, x, y)

    return linear


def _mean_gap(f_anchor, f_test, lo: float, hi: float, n: int = 257) -> float:
    xs = np.linspace(lo, hi, n)
    gap = np.asarray(f_test(xs)) - np.asarray(f_anchor(xs))
    return float(np.trapezoid(gap, xs) / (hi - lo))


def bd_metrics(anchor: RDCurve, test: RDCurve) -> BdResult:
    """Bjontegaard deltas of test's Pareto front vs anchor's, over their overlap.

    Negative BD-rate means the test curve needs fewer bits for equal
    quality. Raises NoOverlap when the fronts share no quality range or
    no log-rate range, and DegenerateCurve when a front has < 2 points.
    """
    if anchor.quality_unit != test.quality_unit:
        raise InputError(
            f"quality units differ: {anchor.quality_unit!r} vs {test.quality_unit!r}"
        )
    lr_a, q_a = _check_curve_for_bd(pareto_front([anchor], label=anchor.label))
    lr_t, q_t = _check_curve_for_bd(pareto_front([test], label=test.label))

    q_lo, q_hi = max(q_a[0], q_t[0]), min(q_a[-1], q_t[-1])
    if not q_hi > q_lo:
        raise NoOverlap(
            f"quality ranges do not overlap: [{q_a[0]}, {q_a[-1]}] vs [{q_t[0]}, {q_t[-1]}]"
        )
    r_lo, r_hi = max(lr_a[0], lr_t[0]), min(lr_a[-1], lr_t[-1])
    if not r_hi > r_lo:
        raise NoOverlap("log-rate ranges do not overlap")

    # rate as a function of quality -> BD-rate
    mean_dlr = _mean_gap(_fit(q_a, lr_a), _fit(q_t, lr_t), q_lo, q_hi)
    bd_rate = (_exp10(mean_dlr) - 1.0) * 100.0
    if not math.isfinite(bd_rate):
        raise InputError(f"BD-rate is past float64: 10 ** {mean_dlr!r}")
    # quality as a function of log-rate -> BD-quality
    bd_quality = _mean_gap(_fit(lr_a, q_a), _fit(lr_t, q_t), r_lo, r_hi)
    return BdResult(
        bd_rate_percent=bd_rate,
        bd_quality=bd_quality,
        quality_overlap=(q_lo, q_hi),
        log_rate_overlap=(r_lo, r_hi),
    )


# --- CSV interchange: columns rate, quality, label, scale ---

CSV_FIELDS = ("rate", "quality", "label", "scale")


def write_csv(path, header, rows) -> None:
    """A UTF-8 CSV table, lines ending in "\n"; a float cell is its repr, None empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_curves_csv(curves, path) -> None:
    write_csv(path, CSV_FIELDS, (
        (p.rate, p.quality, c.label, c.scale_percent) for c in curves for p in c.points
    ))


def read_curves_csv(path) -> list[RDCurve]:
    """Read curves grouped by (label, scale), in first-appearance order.

    A leading byte-order mark is skipped. A row whose field count differs
    from the header's, or whose rate, quality or scale does not parse or
    is out of range, raises ParseError naming its line.
    """
    groups: dict[tuple[str, int | None], list[RDPoint]] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh, parsing(path):
        reader = csv.reader(fh)
        header = next(reader, [])
        if not set(CSV_FIELDS) <= set(header):
            raise InputError(
                f"{path}: expected CSV columns {','.join(CSV_FIELDS)}"
            )
        columns = [header.index(name) for name in CSV_FIELDS]
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{line}: {len(row)} fields, the header has {len(header)}",
                    line=line,
                )
            rate, quality, label, scale = (row[i] for i in columns)
            with parsing(f"{path}:{line}", line=line, errors=MALFORMED_OR_INVALID):
                key = (label, check_scale_percent(int(scale) if scale else None))
                point = RDPoint(float(rate), float(quality))
            groups.setdefault(key, []).append(point)
    if not groups:
        raise InputError(f"{path}: no curve rows")
    return [
        build_curve(pts, label=label, scale_percent=scale)
        for (label, scale), pts in groups.items()
    ]
