import numpy as np
import pytest

from oracles import bd_rate_oracle_loglinear, pareto_bruteforce
from vcmbench import rdcurves
from vcmbench.errors import DegenerateCurve, InputError, NoOverlap, ParseError
from vcmbench.model import RDPoint
from vcmbench.rdcurves import (
    _end_slope,
    _pchip,
    apply_cutoff,
    bd_metrics,
    bitrate,
    bpp,
    build_curve,
    pareto_front,
    read_curves_csv,
    write_curves_csv,
)


# --- rate accounting ---

def test_bpp_simple_division():
    assert bpp(259200, 1920, 1080) == pytest.approx(0.125)


def test_bpp_uses_source_pixels_not_encode_resolution():
    # 10x10 source encoded at 50% scale: still divided by 100 pixels
    assert bpp(100, 10, 10) == pytest.approx(1.0)


def test_bpp_single_pixel():
    assert bpp(1, 1, 1) == 1.0
    with pytest.raises(InputError, match="source has no pixels: 0x10"):
        bpp(1, 0, 10)


def test_bitrate_values():
    assert bitrate(30000, 30, 30) == pytest.approx(30000.0)
    assert bitrate(65000, 65, 50) == pytest.approx(50000.0)
    with pytest.raises(InputError, match="frame_count must be > 0"):
        bitrate(1000, 0, 30)
    with pytest.raises(InputError, match="bitrate is not finite: 8 bits at 1e\\+308 fps"):
        bitrate(8, 1, 1e308)


def test_bitrate_refuses_no_bits_as_bpp_does():
    for rate in (bitrate, lambda bits, *_: bpp(bits, 16, 16)):
        with pytest.raises(InputError, match="must be > 0: 0"):
            rate(0, 1, 30.0)


# --- curve construction ---

def test_build_curve_sorts():
    c = build_curve([RDPoint(0.4, 0.7), RDPoint(0.1, 0.5)], "c")
    assert [p.rate for p in c.points] == [0.1, 0.4]


def test_build_curve_duplicate_rate_keeps_max_quality():
    c = build_curve([RDPoint(0.1, 0.5), RDPoint(0.1, 0.6)], "c")
    assert len(c.points) == 1
    assert c.points[0].quality == 0.6


def test_build_curve_single_point():
    c = build_curve([RDPoint(0.3, 0.9)], "c")
    assert len(c.points) == 1
    with pytest.raises(InputError, match="curve 'c' has no points"):
        build_curve([], "c")


# --- Pareto front ---

def test_pareto_single_curve_nondominated_subset():
    c = build_curve(
        [RDPoint(0.1, 0.5), RDPoint(0.2, 0.4), RDPoint(0.3, 0.6)], "c"
    )
    front = pareto_front([c])
    assert [(p.rate, p.quality) for p in front.points] == [(0.1, 0.5), (0.3, 0.6)]


def test_pareto_dominating_curve_wins():
    a = build_curve([RDPoint(0.1, 0.6), RDPoint(0.2, 0.8)], "a")
    b = build_curve([RDPoint(0.15, 0.5), RDPoint(0.25, 0.7)], "b")
    front = pareto_front([a, b])
    assert [(p.rate, p.quality) for p in front.points] == [(0.1, 0.6), (0.2, 0.8)]


def _random_curves(rng, n_curves=4, n_points=6):
    curves = []
    for i in range(n_curves):
        pts = [
            RDPoint(float(rng.uniform(0.01, 2.0)), float(rng.uniform(0, 1)))
            for _ in range(n_points)
        ]
        curves.append(build_curve(pts, f"c{i}"))
    return curves


def test_pareto_matches_bruteforce_filter():
    rng = np.random.default_rng(21)
    for _ in range(50):
        curves = _random_curves(rng)
        front = pareto_front(curves)
        expected = pareto_bruteforce(
            [(p.rate, p.quality) for c in curves for p in c.points]
        )
        assert [(p.rate, p.quality) for p in front.points] == expected


def test_pareto_excluded_points_are_dominated_by_an_output_point():
    rng = np.random.default_rng(23)
    for _ in range(20):
        curves = _random_curves(rng, n_curves=3, n_points=10)
        front = pareto_front(curves)
        kept = {(p.rate, p.quality) for p in front.points}
        for c in curves:
            for p in c.points:
                if (p.rate, p.quality) in kept:
                    continue
                assert any(
                    q.rate <= p.rate
                    and q.quality >= p.quality
                    and (q.rate < p.rate or q.quality > p.quality)
                    for q in front.points
                )


def test_pareto_idempotent():
    rng = np.random.default_rng(22)
    curves = _random_curves(rng)
    front = pareto_front(curves)
    again = pareto_front([front])
    assert front.points == again.points


def test_pareto_unit_mismatch():
    a = build_curve([RDPoint(0.1, 0.5)], "a", quality_unit="fraction")
    b = build_curve([RDPoint(0.2, 50.0)], "b", quality_unit="percent")
    with pytest.raises(InputError, match="quality units"):
        pareto_front([a, b])


# --- cutoff ---

def test_cutoff_identity_below_everything():
    c = build_curve([RDPoint(0.1, 0.5), RDPoint(0.2, 0.6)], "c")
    assert apply_cutoff(c, float("-inf")).points == c.points


def test_cutoff_drops_everything():
    c = build_curve([RDPoint(0.1, 0.5)], "c")
    with pytest.raises(InputError, match="no point of 'c' reaches quality 0.9"):
        apply_cutoff(c, 0.9)


def test_cutoff_keeps_qualifying_subset():
    c = build_curve(
        [RDPoint(0.1, 0.2), RDPoint(0.2, 0.6), RDPoint(0.3, 0.4), RDPoint(0.4, 0.8)],
        "c",
    )
    kept = apply_cutoff(c, 0.5)
    assert [(p.rate, p.quality) for p in kept.points] == [(0.2, 0.6), (0.4, 0.8)]


# --- BD metrics ---

def _curve_from_arrays(rates, quals, label="c"):
    return build_curve(
        [RDPoint(float(r), float(q)) for r, q in zip(rates, quals)], label
    )


def test_bd_identity_is_zero():
    rates = [0.1, 0.2, 0.4, 0.8, 1.6]
    quals = [0.3, 0.45, 0.55, 0.62, 0.7]
    c = _curve_from_arrays(rates, quals)
    bd = bd_metrics(c, c)
    assert bd.bd_rate_percent == pytest.approx(0.0, abs=1e-12)
    assert bd.bd_quality == pytest.approx(0.0, abs=1e-12)


def test_bd_constant_rate_ratio():
    rates = np.array([0.1, 0.2, 0.4, 0.8, 1.6])
    quals = [0.3, 0.45, 0.55, 0.62, 0.7]
    anchor = _curve_from_arrays(rates, quals, "anchor")
    test = _curve_from_arrays(0.9 * rates, quals, "test")
    bd = bd_metrics(anchor, test)
    assert bd.bd_rate_percent == pytest.approx(-10.0, abs=1e-6)


def test_bd_antisymmetry_for_constant_ratio():
    rates = np.array([0.1, 0.2, 0.4, 0.8])
    quals = [0.3, 0.5, 0.6, 0.7]
    a = _curve_from_arrays(rates, quals, "a")
    b = _curve_from_arrays(0.9 * rates, quals, "b")
    fwd = bd_metrics(a, b).bd_rate_percent / 100.0
    rev = bd_metrics(b, a).bd_rate_percent / 100.0
    assert rev == pytest.approx(-fwd / (1 + fwd), abs=1e-9)


def test_bd_invariant_under_point_reordering():
    rng = np.random.default_rng(31)
    rates = np.sort(rng.uniform(0.05, 2.0, 6))
    quals = np.sort(rng.uniform(0.1, 0.9, 6))
    anchor = _curve_from_arrays(rates, quals, "anchor")
    perm = rng.permutation(6)
    shuffled = build_curve(
        [RDPoint(float(rates[i]), float(quals[i])) for i in perm], "anchor2"
    )
    test = _curve_from_arrays(rates * 0.8, quals, "test")
    assert bd_metrics(anchor, test).bd_rate_percent == pytest.approx(
        bd_metrics(shuffled, test).bd_rate_percent, abs=1e-12
    )


def test_bd_matches_loglinear_oracle():
    rng = np.random.default_rng(33)
    for _ in range(30):
        a1, b1 = rng.uniform(0.2, 0.6), rng.uniform(0.1, 0.3)
        a2, b2 = rng.uniform(0.2, 0.6), rng.uniform(0.1, 0.3)
        r_anchor = np.logspace(-1, 0.5, 6)
        r_test = np.logspace(-1.1, 0.6, 7)
        q_anchor = a1 + b1 * np.log10(r_anchor)
        q_test = a2 + b2 * np.log10(r_test)
        anchor = _curve_from_arrays(r_anchor, q_anchor, "anchor")
        test = _curve_from_arrays(r_test, q_test, "test")
        q_lo = max(q_anchor[0], q_test[0])
        q_hi = min(q_anchor[-1], q_test[-1])
        if q_hi <= q_lo:
            continue
        bd = bd_metrics(anchor, test)
        ref = bd_rate_oracle_loglinear(a1, b1, a2, b2, q_lo, q_hi)
        assert bd.bd_rate_percent == pytest.approx(ref, rel=5e-3, abs=1e-9)


def test_bd_two_point_linear_fallback():
    anchor = _curve_from_arrays([0.1, 1.0], [0.2, 0.8], "anchor")
    test = _curve_from_arrays([0.09, 0.9], [0.2, 0.8], "test")
    bd = bd_metrics(anchor, test)
    assert bd.bd_rate_percent == pytest.approx(-10.0, abs=1e-6)


def test_bd_no_overlap():
    a = _curve_from_arrays([0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4], "a")
    b = _curve_from_arrays([0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8], "b")
    with pytest.raises(NoOverlap):
        bd_metrics(a, b)


def test_bd_compares_each_curves_pareto_front():
    zigzag = build_curve(
        [RDPoint(0.1, 0.5), RDPoint(0.2, 0.4), RDPoint(0.3, 0.6), RDPoint(0.4, 0.7)],
        "z",
    )
    ok = _curve_from_arrays([0.1, 0.2, 0.3, 0.4], [0.1, 0.3, 0.5, 0.7], "ok")
    assert bd_metrics(zigzag, ok) == bd_metrics(pareto_front([zigzag]), ok)
    assert bd_metrics(ok, zigzag) == bd_metrics(ok, pareto_front([zigzag]))


def test_bd_rejects_single_point():
    single = build_curve([RDPoint(0.1, 0.5)], "s")
    ok = _curve_from_arrays([0.1, 0.2, 0.3, 0.4], [0.1, 0.3, 0.5, 0.7], "ok")
    with pytest.raises(DegenerateCurve):
        bd_metrics(single, ok)


def test_bd_unit_mismatch():
    a = _curve_from_arrays([0.1, 0.2], [0.1, 0.2], "a")
    b = build_curve(
        [RDPoint(0.1, 10.0), RDPoint(0.2, 20.0)], "b", quality_unit="percent"
    )
    with pytest.raises(InputError, match="quality units"):
        bd_metrics(a, b)


def test_bd_quality_constant_offset():
    # same rates, quality shifted by +0.1 -> BD-quality = +0.1
    rates = [0.1, 0.2, 0.4, 0.8]
    quals = np.array([0.2, 0.4, 0.6, 0.8])
    anchor = _curve_from_arrays(rates, quals, "anchor")
    test = _curve_from_arrays(rates, quals + 0.1, "test")
    bd = bd_metrics(anchor, test)
    assert bd.bd_quality == pytest.approx(0.1, abs=1e-9)


def test_bd_rejects_rates_that_log10_cannot_tell_apart():
    close = float(np.nextafter(1e10, np.inf))
    assert np.log10(close) == np.log10(1e10)
    c = _curve_from_arrays([1e9, 1e10, close, 1e11], [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(DegenerateCurve, match="too close to tell apart"):
        bd_metrics(c, c)


# --- PCHIP: scipy's PchipInterpolator is the oracle (scipy is a test-only dependency) ---

def _bits(values):
    """The float64 bit patterns, so that 0.0 and -0.0 differ too."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _random_curve(rng, k):
    n = int(rng.integers(4, 12))
    x = np.cumsum(rng.uniform(0.01, 2.0, n)) + rng.normal()
    y = rng.normal(size=n)  # non-monotone: slopes change sign
    if k % 3 == 0:
        y = np.sort(y)
    if k % 5 == 0:
        j = int(rng.integers(n - 1))
        y[j + 1] = y[j]  # one flat segment
    if k % 7 == 0:
        y = np.round(y, 1)  # ties: more flat segments
    return x, y


def test_pchip_is_bit_identical_to_scipy_on_random_curves():
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(17)
    for k in range(2000):
        x, y = _random_curve(rng, k)
        xs = np.linspace(x[0], x[-1], 257)
        ours, theirs = _pchip(x, y)(xs), PchipInterpolator(x, y)(xs)
        assert np.array_equal(_bits(ours), _bits(theirs)), (x.tolist(), y.tolist())


@pytest.mark.parametrize("y, slope", [
    ([0.0, 3.0, 4.0, 4.5], 4.0),  # the plain three-point formula
    ([0.0, 1.0, 5.0, 6.0], 0.0),  # formula's sign differs from m0: 0
    ([0.0, 1.0, -9.0, -10.0], 3.0),  # m0, m1 differ in sign, |d| > 3|m0|: 3*m0
])
def test_pchip_end_slope_branches(y, slope):
    from scipy.interpolate import PchipInterpolator

    y = np.array(y)
    m = np.diff(y)
    assert _end_slope(1.0, 1.0, m[0], m[1]) == slope
    x = np.arange(4.0)
    xs = np.linspace(-0.5, 3.5, 257)  # beyond both ends too
    for ys, end, expected in ((y, 0.0, slope), (y[::-1], 3.0, -slope)):
        oracle = PchipInterpolator(x, ys)
        assert oracle.derivative()(end) == expected  # the case takes this branch
        assert np.array_equal(_bits(_pchip(x, ys)(xs)), _bits(oracle(xs)))


def test_bd_metrics_equals_a_scipy_backed_reference(monkeypatch):
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(19)
    anchor = _curve_from_arrays(
        np.sort(rng.uniform(0.05, 2.0, 7)), np.sort(rng.uniform(0.1, 0.9, 7)), "anchor"
    )
    test = _curve_from_arrays(
        np.sort(rng.uniform(0.04, 1.8, 5)), np.sort(rng.uniform(0.15, 0.95, 5)), "test"
    )
    ours = bd_metrics(anchor, test)
    monkeypatch.setattr(rdcurves, "_pchip", PchipInterpolator)
    assert bd_metrics(anchor, test) == ours


# --- CSV interchange ---

def test_csv_roundtrip(tmp_path):
    a = build_curve(
        [RDPoint(0.1, 0.5), RDPoint(0.2, 0.6)], "a", scale_percent=100
    )
    b = build_curve([RDPoint(0.15, 0.55)], "b", scale_percent=None)
    p = tmp_path / "curves.csv"
    write_curves_csv([a, b], p)
    back = read_curves_csv(p)
    assert len(back) == 2
    assert back[0].label == "a" and back[0].scale_percent == 100
    assert back[0].points == a.points
    assert back[1].points == b.points


def test_csv_bad_row_names_its_physical_line(tmp_path):
    # every kind of bad row is tried through the CLI in test_cli.py
    p = tmp_path / "curves.csv"
    p.write_text("rate,quality,label,scale\n0.2,0.6,a,100\n\n0.1,0.5,a\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read_curves_csv(p)
    assert str(info.value) == f"{p}:4: 3 fields, the header has 4"
    assert info.value.line == 4


def test_csv_bad_scale_is_rejected_at_its_own_row(tmp_path):
    # the scale row comes first, so it is reported before the bad rate below it
    p = tmp_path / "curves.csv"
    p.write_text("rate,quality,label,scale\n0.2,0.6,a,37\n-1,0.5,a,100\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read_curves_csv(p)
    assert info.value.line == 2
    assert "scale_percent must be one of" in str(info.value)
