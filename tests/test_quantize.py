import numpy as np
import pytest

from vcmbench.errors import InputError
from vcmbench.featurecodec import (
    denormalize,
    dequantize_2bit,
    dequantize_8bit,
    normalize,
    quantize_2bit,
    quantize_8bit,
    raw_size_bits,
)
from vcmbench.model import FeatureTensor, QuantParams


def _tensor(values):
    return FeatureTensor(np.asarray(values, dtype=np.float32))


def test_normalize_constant_channel():
    t = _tensor(np.full((1, 2, 2), 5.0))
    z, params = normalize(t)
    assert np.all(z.values == 0.0)
    assert params.mean[0] == 5.0
    assert params.std[0] == 0.0


def test_normalize_symmetric_pair():
    t = _tensor([[[-1.0, 1.0]]])
    z, params = normalize(t)
    assert params.mean[0] == 0.0
    assert params.std[0] == 1.0  # population stddev
    assert np.allclose(z.values, [[[-1.0, 1.0]]])


def test_normalize_random_tensor_statistics():
    rng = np.random.default_rng(8)
    t = _tensor(rng.normal(3.0, 2.5, size=(6, 16, 16)))
    z, params = normalize(t)
    for c in range(6):
        assert z.values[c].mean() == pytest.approx(0.0, abs=1e-6)
        assert z.values[c].std() == pytest.approx(1.0, abs=1e-6)
    assert params.z_min == pytest.approx(z.values.min())
    assert params.z_max == pytest.approx(z.values.max())


def _params(z_min, z_max, channels=1, **kw):
    return QuantParams(
        mean=np.zeros(channels), std=np.ones(channels),
        z_min=z_min, z_max=z_max, **kw,
    )


def test_quantize_8bit_endpoints():
    params = _params(-2.0, 2.0)
    z = _tensor([[[-2.0, 2.0]]])
    codes = quantize_8bit(z, params)
    assert codes.tolist() == [[[0, 255]]]


def test_quantize_8bit_midpoint_rounds_away_from_zero():
    params = _params(-2.0, 2.0)
    z = _tensor([[[0.0]]])  # scales to exactly 127.5
    assert quantize_8bit(z, params).tolist() == [[[128]]]


def test_quantize_8bit_degenerate_range():
    params = _params(0.0, 0.0)
    with pytest.raises(InputError, match="z_max must exceed z_min"):
        quantize_8bit(_tensor([[[0.0]]]), params)


def test_dequantize_8bit_error_bound_dense_grid():
    z_min, z_max = -3.0, 3.0
    params = _params(z_min, z_max)
    grid = np.linspace(z_min, z_max, 100_000, dtype=np.float64).astype(np.float32)
    z = FeatureTensor(grid.reshape(1, 100, 1000))
    rec = dequantize_8bit(quantize_8bit(z, params), params)
    err = np.abs(rec.values.astype(np.float64) - z.values.astype(np.float64)).max()
    assert err <= (z_max - z_min) / 510 + 1e-9


def test_quantize_2bit_threshold_mapping():
    z = _tensor([[[-2.0, -0.3, 0.7, 2.0]]])
    assert quantize_2bit(z, 1.5).tolist() == [[[0, 1, 2, 3]]]


def test_quantize_2bit_zero_maps_to_two():
    assert quantize_2bit(_tensor([[[0.0]]]), 1.5).tolist() == [[[2]]]


def test_quantize_2bit_exact_threshold_maps_to_top():
    assert quantize_2bit(_tensor([[[1.5]]]), 1.5).tolist() == [[[3]]]
    assert quantize_2bit(_tensor([[[-1.5]]]), 1.5).tolist() == [[[1]]]


def _code_2bit(x: float, z_th: float) -> int:
    """The 2-bit code of one value, by the module docstring's intervals."""
    if x < -z_th:
        return 0
    if x < 0:
        return 1
    return 2 if x < z_th else 3


@pytest.mark.parametrize("z_th", [1.5, float(np.float32(0.7))])
def test_quantize_2bit_matches_a_per_value_reference_at_the_bounds(z_th):
    bounds = np.array([-z_th, -0.0, 0.0, z_th], dtype=np.float32)
    values = np.concatenate([
        bounds,
        np.nextafter(bounds, np.float32(-np.inf)),
        np.nextafter(bounds, np.float32(np.inf)),
        np.array([-1e30, -3 * z_th, -z_th / 2, z_th / 2, 3 * z_th, 1e30], dtype=np.float32),
    ])
    codes = quantize_2bit(_tensor(values.reshape(1, 1, -1)), z_th)
    assert codes.dtype == np.uint8
    assert codes.ravel().tolist() == [_code_2bit(float(x), z_th) for x in values]


def test_quantize_2bit_alphabet():
    rng = np.random.default_rng(4)
    z = _tensor(rng.normal(0, 2, (4, 8, 8)))
    codes = quantize_2bit(z, 1.5)
    assert set(np.unique(codes)) <= {0, 1, 2, 3}


def test_dequantize_2bit_level_centers():
    params = _params(-3, 3, z_th=1.5)
    rec = dequantize_2bit(np.array([[[0, 1, 2, 3]]], dtype=np.uint8), params)
    assert rec.values.tolist() == [[[-2.25, -0.75, 0.75, 2.25]]]


def test_dequantize_2bit_sample_one():
    params = _params(-3, 3, z_th=1.5)
    rec = dequantize_2bit(np.array([[[1]]], dtype=np.uint8), params)
    assert rec.values[0, 0, 0] == pytest.approx(-0.75)


def test_denormalize_inverts_normalize():
    rng = np.random.default_rng(12)
    t = _tensor(rng.normal(10.0, 4.0, (3, 6, 6)))
    z, params = normalize(t)
    back = denormalize(z, params)
    assert np.allclose(back.values, t.values, rtol=1e-5)


def test_denormalize_restores_constant_channel_exactly():
    t = _tensor(np.full((2, 3, 3), 7.25))
    z, params = normalize(t)
    back = denormalize(z, params)
    assert np.array_equal(back.values, t.values)


def test_full_chain_8bit_error_bound():
    rng = np.random.default_rng(15)
    t = _tensor(rng.normal(-2.0, 3.0, (5, 12, 12)))
    z, params = normalize(t)
    rec = denormalize(dequantize_8bit(quantize_8bit(z, params), params), params)
    step = (params.z_max - params.z_min) / 510
    bound = params.std.astype(np.float64)[:, None, None] * step + 1e-6
    err = np.abs(rec.values.astype(np.float64) - t.values.astype(np.float64))
    assert np.all(err <= bound)


def test_dequantize_rejects_bad_dims():
    params = _params(-1, 1)
    with pytest.raises(InputError, match=r"samples must be 3-D \(C,h,w\), got shape \(4, 4\)"):
        dequantize_8bit(np.zeros((4, 4), dtype=np.uint8), params)


def test_raw_size_bits():
    assert raw_size_bits((1, 1, 1), 8) == 8
    assert raw_size_bits((64, 10, 10), 32) == 64 * 100 * 32
    with pytest.raises(InputError):
        raw_size_bits((1, 1, 1), 16)


def test_raw_size_ratios_are_exactly_four():
    dims = (64, 76, 136)
    r32 = raw_size_bits(dims, 32)
    r8 = raw_size_bits(dims, 8)
    r2 = raw_size_bits(dims, 2)
    assert r32 / r8 == 4.0
    assert r8 / r2 == 4.0
    # published measurements: 28.41/7.10 and 7.10/1.77, both within 0.3% of 4
    assert abs(28.41 / 7.10 - 4.0) / 4.0 < 0.003
    assert abs(7.10 / 1.77 - 4.0) / 4.0 < 0.003
