import warnings

import numpy as np
import pytest

from vcmbench.errors import InvariantViolation
from vcmbench.model import (
    BoxTable,
    FeatureTensor,
    PackedFrameSet,
    QuantParams,
    RDCurve,
    RDPoint,
    as_samples,
    frame_shape,
)


def test_box_table_columns_are_frozen_and_equally_long():
    # row checks are pinned through the loaders (test_tensorio)
    t = BoxTable(xyxy=[[0, 0, 1, 1], [1, 1, 2, 3]], class_id=[0, 2], image_id=["a", "b"])
    assert len(t) == 2
    assert t.xyxy.dtype == np.float64 and t.xyxy.shape == (2, 4)
    with pytest.raises(ValueError):
        t.class_id[0] = 1
    assert len(BoxTable(xyxy=[], class_id=[], frame=[], track_id=[], score=[])) == 0
    with pytest.raises(InvariantViolation, match="every column must have 2 rows"):
        BoxTable(xyxy=[[0, 0, 1, 1], [1, 1, 2, 3]], class_id=[0])


def test_feature_tensor_immutable_and_validated():
    t = FeatureTensor(np.zeros((2, 3, 4), dtype=np.float32))
    assert t.dims == (2, 3, 4)
    with pytest.raises(ValueError):
        t.values[0, 0, 0] = 1.0
    with pytest.raises(InvariantViolation):
        FeatureTensor(np.array([[[np.nan]]], dtype=np.float32))
    with pytest.raises(InvariantViolation):
        FeatureTensor(np.zeros((2, 3), dtype=np.float32))


def test_quant_params_validation():
    QuantParams(mean=np.zeros(4), std=np.ones(4), z_min=-1, z_max=1)
    with pytest.raises(InvariantViolation):
        QuantParams(mean=np.zeros(4), std=np.ones(4), z_min=1, z_max=-1)
    with pytest.raises(InvariantViolation):
        QuantParams(mean=np.zeros(4), std=-np.ones(4), z_min=-1, z_max=1)
    with pytest.raises(InvariantViolation):
        QuantParams(mean=np.zeros(4), std=np.ones(4), z_min=-1, z_max=1, z_th=0)
    with pytest.raises(InvariantViolation):
        QuantParams(mean=np.zeros(4), std=np.ones(4), z_min=-1, z_max=1, bit_depth=4)


@pytest.mark.parametrize("field, value", [
    ("z_th", float("inf")), ("z_th", 1e39), ("z_min", float("-inf")), ("z_max", 1e39),
    ("mean", [0.0, float("nan")]), ("std", [1.0, 1e39]),
])
def test_quant_params_must_be_finite_at_float32(field, value):
    # 1e39 overflows the float32 cast; that must raise, not warn and store inf
    fields = dict(mean=[0.0, 0.0], std=[1.0, 1.0], z_min=-1.0, z_max=1.0, z_th=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match=f"{field} must be finite"):
            QuantParams(**dict(fields, **{field: value}))


def test_packed_frame_set_shape_rules():
    frames = (np.zeros((16, 24), dtype=np.uint8),)
    fs = PackedFrameSet(frames=frames, layout="SPATIAL_TILED", original_dims=(64, 2, 3))
    assert fs.frames.size == 16 * 24
    with pytest.raises(InvariantViolation):
        PackedFrameSet(frames=frames, layout="SPATIAL_TILED", original_dims=(32, 2, 3))
    with pytest.raises(InvariantViolation):
        PackedFrameSet(
            frames=(np.zeros((2, 3), dtype=np.uint8),) * 3,
            layout="TEMPORAL",
            original_dims=(2, 2, 3),
        )
    with pytest.raises(InvariantViolation):
        PackedFrameSet(frames=frames, layout="DIAGONAL", original_dims=(64, 2, 3))
    ms = (np.zeros((128, 192), dtype=np.uint8),)
    PackedFrameSet(frames=ms, layout="MULTISCALE", original_dims=(64, 16, 16))
    for bad_frames, dims in [
        ((np.zeros((5, 5), dtype=np.uint8), np.zeros((3, 3), dtype=np.uint8)), (64, 16, 16)),
        (ms * 2, (64, 16, 16)),
        (ms, (32, 16, 16)),
    ]:
        with pytest.raises(InvariantViolation):
            PackedFrameSet(frames=bad_frames, layout="MULTISCALE", original_dims=dims)


@pytest.mark.parametrize("value", [300, -1, 2.7])
def test_packed_frame_set_refuses_a_sample_outside_8_bits(value):
    # a uint8 cast would store 300 as 44, -1 as 255 and 2.7 as 2
    with pytest.raises(InvariantViolation, match="samples must be"):
        PackedFrameSet(frames=(np.array([[value, 1]]),), layout="TEMPORAL",
                       original_dims=(1, 1, 2))


def test_as_samples_casts_integers_in_0_to_255_to_uint8():
    a = as_samples(np.array([[0, 17, 255]], dtype=np.int64))
    assert a.dtype == np.uint8
    assert a.tolist() == [[0, 17, 255]]


_THREE_FRAMES = (np.zeros((1, 1), dtype=np.uint8),) * 3


@pytest.mark.parametrize("perm", [(0, 2.7, 1), (0, True, 2), (0, 1, 1), (0, 1)], ids=repr)
def test_packed_frame_set_refuses_a_permutation_not_of_integers_permuting_0_to_c(perm):
    with pytest.raises(InvariantViolation, match="permutation must be integers"):
        PackedFrameSet(_THREE_FRAMES, "TEMPORAL", (3, 1, 1), channel_permutation=perm)


def test_packed_frame_set_reads_numpy_integer_permutation_entries_as_ints():
    fs = PackedFrameSet(_THREE_FRAMES, "TEMPORAL", (3, 1, 1), (np.int64(2), 0, np.uint8(1)))
    assert fs.channel_permutation == (2, 0, 1)
    assert all(type(p) is int for p in fs.channel_permutation)


def test_frame_shapes_per_layout():
    assert frame_shape("TEMPORAL", (3, 2, 5)) == (3, 2, 5)
    assert frame_shape("SPATIAL_TILED", (64, 2, 5)) == (1, 16, 40)
    assert frame_shape("MULTISCALE", (64, 16, 40)) == (1, 128, 480)
    for layout, dims in [
        ("DIAGONAL", (1, 1, 1)),
        ("SPATIAL_TILED", (63, 1, 1)),
        # a finest level under 16 px leaves P6 with no pixel
        ("MULTISCALE", (64, 1, 1)),
        ("MULTISCALE", (64, 8, 40)),
        ("TEMPORAL", (0, 2, 2)),
        ("TEMPORAL", (1, 2.0, 2)),
        ("TEMPORAL", (1, "2", 2)),
        ("TEMPORAL", (1, 2)),
    ]:
        with pytest.raises(InvariantViolation):
            frame_shape(layout, dims)


def test_packed_frame_set_2bit_alphabet():
    params = QuantParams(
        mean=np.zeros(2), std=np.ones(2), z_min=-1, z_max=1, bit_depth=2
    )
    ok = (np.full((2, 2), 3, dtype=np.uint8),) * 2
    PackedFrameSet(frames=ok, layout="TEMPORAL", original_dims=(2, 2, 2), quant=params)
    bad = (np.full((2, 2), 4, dtype=np.uint8),) * 2
    with pytest.raises(InvariantViolation):
        PackedFrameSet(
            frames=bad, layout="TEMPORAL", original_dims=(2, 2, 2), quant=params
        )


def test_rd_curve_requires_increasing_rates():
    RDCurve(label="c", points=(RDPoint(0.1, 0.5), RDPoint(0.2, 0.4)))
    with pytest.raises(InvariantViolation):
        RDCurve(label="c", points=(RDPoint(0.2, 0.5), RDPoint(0.1, 0.4)))
    with pytest.raises(InvariantViolation):
        RDCurve(label="c", points=())
    with pytest.raises(InvariantViolation):
        RDPoint(0.0, 0.5)
