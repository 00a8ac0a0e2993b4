import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import flat_image
from oracles import resample_plane_gather
from vcmbench.errors import InputError
from vcmbench.pipeline.yuv import (
    RawImage,
    _resample_plane,
    crop_pad,
    frame_size_bytes,
    pad_to_even,
    read_yuv420,
    resize,
    scale_image,
    write_yuv420,
)


def _image(rng, w, h):
    return RawImage(
        y=rng.integers(0, 256, (h, w)).astype(np.uint8),
        cb=rng.integers(0, 256, ((h + 1) // 2, (w + 1) // 2)).astype(np.uint8),
        cr=rng.integers(0, 256, ((h + 1) // 2, (w + 1) // 2)).astype(np.uint8),
    )


def test_file_roundtrip_single_frame(tmp_path):
    rng = np.random.default_rng(0)
    img = _image(rng, 12, 10)
    p = tmp_path / "a.yuv"
    write_yuv420(img, p)
    assert p.stat().st_size == frame_size_bytes(12, 10)
    (back,) = read_yuv420(p, 12, 10)
    assert np.array_equal(back.y, img.y)
    assert np.array_equal(back.cb, img.cb)
    assert np.array_equal(back.cr, img.cr)


def test_file_roundtrip_multiframe_and_odd_dims(tmp_path):
    rng = np.random.default_rng(1)
    frames = [_image(rng, 7, 5) for _ in range(3)]
    p = tmp_path / "seq.yuv"
    write_yuv420(frames, p)
    back = list(read_yuv420(p, 7, 5))
    assert len(back) == 3
    for a, b in zip(back, frames):
        assert np.array_equal(a.y, b.y)


def test_file_size_mismatch_rejected(tmp_path):
    p = tmp_path / "bad.yuv"
    p.write_bytes(bytes(frame_size_bytes(8, 8) - 1))
    with pytest.raises(InputError, match="is not a multiple of the 8x8 frame size 96"):
        read_yuv420(p, 8, 8)


def test_read_checks_frame_count_before_reading(tmp_path):
    p = tmp_path / "seq.yuv"
    write_yuv420([flat_image(8, 8)] * 2, p)
    # raised by the call itself, before any frame is read
    with pytest.raises(InputError, match="expected 3 frames, found 2"):
        read_yuv420(p, 8, 8, frames=3)
    assert len(list(read_yuv420(p, 8, 8, frames=2))) == 2


def test_read_of_a_file_cut_short_mid_stream_raises_input_error(tmp_path):
    # frames larger than the reader's buffer, so each read reaches the file
    p = tmp_path / "seq.yuv"
    write_yuv420([flat_image(128, 128, y=v) for v in (1, 2, 3)], p)
    frames = read_yuv420(p, 128, 128, frames=3)
    assert next(frames).y[0, 0] == 1
    with open(p, "r+b") as fh:
        fh.truncate(frame_size_bytes(128, 128) * 3 // 2)
    with pytest.raises(InputError, match="frame 1 of 3 is short: 12288 of 24576 bytes"):
        next(frames)


def test_write_holds_one_frame_at_a_time(tmp_path):
    made = []

    def frames():
        for v in range(4):
            # only the frame the writer has just written may still be alive
            assert sum(ref() is not None for ref in made) <= 1
            frame = flat_image(8, 8, y=v)
            made.append(weakref.ref(frame))
            yield frame

    p = tmp_path / "seq.yuv"
    write_yuv420(frames(), p)
    assert [f.y[0, 0] for f in read_yuv420(p, 8, 8)] == [0, 1, 2, 3]


def test_scale_100_is_identity():
    rng = np.random.default_rng(2)
    img = _image(rng, 16, 12)
    assert scale_image(img, 100) is img


def test_scale_50_halves_dims_and_keeps_constants():
    img = flat_image(8, 8, y=77, cb=10, cr=200)
    out = scale_image(img, 50)
    assert (out.width, out.height) == (4, 4)
    assert np.all(out.y == 77)
    assert np.all(out.cb == 10)
    assert np.all(out.cr == 200)


def test_scale_dims_for_all_scales():
    img = flat_image(192, 128)
    for percent, (w, h) in ((25, (48, 32)), (50, (96, 64)), (75, (144, 96)),
                            (100, (192, 128))):
        out = scale_image(img, percent)
        assert (out.width, out.height) == (w, h)
    with pytest.raises(InputError):
        scale_image(img, 60)


def test_downscale_then_upscale_constant_identity():
    img = flat_image(16, 16, y=42)
    down = scale_image(img, 50)
    up = resize(down, 16, 16)
    assert np.array_equal(up.y, img.y)
    assert np.array_equal(up.cb, img.cb)


def test_resize_min_dims():
    img = flat_image(5, 3)
    out = scale_image(img, 25)
    assert out.width >= 1 and out.height >= 1


def test_bilinear_average_on_even_downscale():
    y = np.array([[0, 255], [0, 255]], dtype=np.uint8)
    img = RawImage(y=y, cb=np.full((1, 1), 128, np.uint8), cr=np.full((1, 1), 128, np.uint8))
    out = resize(img, 1, 1)
    # mean of 0,255,0,255 = 127.5 -> rounds half-up to 128
    assert out.y[0, 0] == 128


def test_pad_even_noop():
    rng = np.random.default_rng(3)
    img = _image(rng, 8, 6)
    padded, record = pad_to_even(img)
    assert record == (0, 0)
    assert padded is img


def test_pad_replicates_last_column():
    rng = np.random.default_rng(4)
    img = _image(rng, 3, 4)
    padded, record = pad_to_even(img)
    assert record == (1, 0)
    assert (padded.width, padded.height) == (4, 4)
    assert np.array_equal(padded.y[:, 3], img.y[:, 2])


def test_pad_crop_roundtrip_all_parities():
    rng = np.random.default_rng(5)
    for w, h in ((3, 4), (4, 3), (5, 5), (6, 6)):
        img = _image(rng, w, h)
        padded, record = pad_to_even(img)
        assert padded.width % 2 == 0 and padded.height % 2 == 0
        back = crop_pad(padded, record)
        assert np.array_equal(back.y, img.y)
        assert np.array_equal(back.cb, img.cb)
        assert np.array_equal(back.cr, img.cr)


# up to 80 rows spans several row blocks of the vertical pass
_DIM = st.integers(min_value=1, max_value=80)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(h=_DIM, w=_DIM, out_h=_DIM, out_w=_DIM, binary=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(h=1, w=1, out_h=7, out_w=5, binary=False, seed=0)
@example(h=9, w=7, out_h=1, out_w=1, binary=False, seed=1)
@example(h=31, w=5, out_h=12, out_w=17, binary=False, seed=2)  # up in x, down in y
@example(h=5, w=31, out_h=17, out_w=12, binary=False, seed=3)  # down in x, up in y
@example(h=11, w=13, out_h=11, out_w=26, binary=True, seed=4)
@example(h=3, w=2, out_h=77, out_w=3, binary=False, seed=5)
@example(h=79, w=9, out_h=33, out_w=4, binary=True, seed=6)
def test_resample_plane_matches_gather_oracle(h, w, out_h, out_w, binary, seed):
    rng = np.random.default_rng(seed)
    plane = rng.integers(0, 256, (h, w)).astype(np.uint8)
    if binary:
        plane = np.where(plane < 128, 0, 255).astype(np.uint8)
    out = _resample_plane(plane, out_h, out_w)
    assert out.dtype == np.uint8
    assert out.tobytes() == resample_plane_gather(plane, out_h, out_w).tobytes()
