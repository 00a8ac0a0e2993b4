import lzma
import struct
import zlib

import numpy as np
import pytest

from vcmbench.errors import CorruptStream, InputError
from vcmbench.featurecodec import (
    encode_bytes,
    entropy_decode,
    entropy_encode,
    normalize,
    pack_spatial_tiled,
    pack_temporal,
    quantize_2bit,
    quantize_8bit,
)
from vcmbench.model import FeatureTensor, PackedFrameSet, QuantParams


def _frameset(rng, layout="TEMPORAL", c=6, h=5, w=4, perm=False):
    t = FeatureTensor(rng.normal(0, 1, (c, h, w)).astype(np.float32))
    z, params = normalize(t)
    samples = quantize_8bit(z, params)
    permutation = tuple(rng.permutation(c)) if perm else None
    if layout == "TEMPORAL":
        return pack_temporal(samples, permutation=permutation, quant=params)
    return pack_spatial_tiled(samples, permutation=permutation, quant=params)


def _header_len(raw: bytes) -> int:
    """The bytes of a stream before its payload; payload_bits and crc32 end them."""
    (c,) = struct.unpack_from("<I", raw, 10)
    flag_at = 22 + 8 * c + 12  # past magic, version, layout, bit_depth, dims, mean, std, z
    return flag_at + 1 + (2 * c if raw[flag_at] else 0) + 12


def test_stream_roundtrip_temporal():
    rng = np.random.default_rng(0)
    fs = _frameset(rng)
    stream = entropy_encode(fs)
    back = entropy_decode(stream)
    assert back.layout == fs.layout
    assert back.original_dims == fs.original_dims
    assert back.channel_permutation == fs.channel_permutation
    assert all(np.array_equal(a, b) for a, b in zip(back.frames, fs.frames))
    assert np.array_equal(back.quant.mean, fs.quant.mean)
    assert np.array_equal(back.quant.std, fs.quant.std)
    assert back.quant.z_min == fs.quant.z_min
    assert back.quant.z_max == fs.quant.z_max


def test_stream_roundtrip_spatial_with_permutation():
    rng = np.random.default_rng(1)
    fs = _frameset(rng, layout="SPATIAL", c=64, h=3, w=2, perm=True)
    back = entropy_decode(entropy_encode(fs))
    assert back.channel_permutation == fs.channel_permutation
    assert np.array_equal(back.frames[0], fs.frames[0])


def test_stream_file_roundtrip_bs_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    fs = _frameset(rng, perm=True)
    p = tmp_path / "s.vcms"
    p.write_bytes(entropy_encode(fs))
    raw = p.read_bytes()
    assert raw[:4] == b"VCMS"
    back = entropy_decode(raw, origin=str(p))
    assert entropy_encode(back) == raw  # container serialization is stable
    assert all(np.array_equal(a, b) for a, b in zip(back.frames, fs.frames))


def test_stream_payload_bits_accounting():
    rng = np.random.default_rng(3)
    fs = _frameset(rng)
    raw = entropy_encode(fs)
    header_len = _header_len(raw)
    (payload_bits,) = struct.unpack_from("<Q", raw, header_len - 12)
    assert payload_bits == 8 * (len(raw) - header_len)
    assert payload_bits > 0


def test_corrupt_payload_detected(tmp_path):
    rng = np.random.default_rng(4)
    fs = _frameset(rng, c=8, h=16, w=16)
    raw = bytearray(entropy_encode(fs))
    header_len = _header_len(raw)
    raw[(header_len + len(raw)) // 2] ^= 0xFF  # flip a mid-payload byte
    with pytest.raises(CorruptStream):
        entropy_decode(bytes(raw))


def test_every_single_bit_payload_flip_detected():
    rng = np.random.default_rng(6)
    raw = entropy_encode(_frameset(rng, c=4, h=6, w=6))
    for pos in range(_header_len(raw), len(raw)):
        for bit in (0x01, 0x80):
            bad = bytearray(raw)
            bad[pos] ^= bit
            with pytest.raises(CorruptStream):
                entropy_decode(bytes(bad))


@pytest.mark.parametrize("version", [1, 2])
def test_old_stream_version_unsupported(version):
    rng = np.random.default_rng(9)
    raw = bytearray(entropy_encode(_frameset(rng)))
    raw[4:8] = version.to_bytes(4, "little")
    with pytest.raises(InputError, match=f"unsupported version {version}"):
        entropy_decode(bytes(raw))


def test_truncated_payload_detected():
    rng = np.random.default_rng(5)
    fs = _frameset(rng, c=8, h=16, w=16)
    with pytest.raises(CorruptStream):
        entropy_decode(entropy_encode(fs)[:-10])


def test_bad_magic_rejected():
    with pytest.raises(InputError, match=r"not a coded-feature stream \(bad magic\)"):
        entropy_decode(b"XXXX" + bytes(64))


def _corrupted(raw: bytes, where: str) -> bytes:
    """raw (C = 6, with a permutation) with one fault at where."""
    out = bytearray(raw)
    perm_at = 22 + 8 * 6 + 12 + 1
    if where == "permutation":  # the first entry repeats the second
        out[perm_at:perm_at + 2] = out[perm_at + 2:perm_at + 4]
    elif where == "payload":
        out[-1] ^= 0x01
    else:  # bit_depth 3, layout SPATIAL_TILED (C must be 64), C = 0
        offset, value = {"bit_depth": (9, 3), "layout": (8, 0), "dims": (10, 0)}[where]
        out[offset] = value
    return bytes(out)


@pytest.mark.parametrize("where", ["bit_depth", "layout", "dims", "permutation", "payload"])
def test_every_decode_error_names_the_stream(where):
    raw = entropy_encode(_frameset(np.random.default_rng(10), perm=True))
    with pytest.raises(InputError, match=r"^t\.vcms: "):
        entropy_decode(_corrupted(raw, where), origin="t.vcms")


def test_encode_requires_quant_params():
    fs = PackedFrameSet(
        frames=(np.zeros((2, 2), dtype=np.uint8),) * 3,
        layout="TEMPORAL",
        original_dims=(3, 2, 2),
    )
    with pytest.raises(InputError, match="carries no quant params"):
        entropy_encode(fs)


def test_overflowing_dims_rejected_before_decode():
    rng = np.random.default_rng(7)
    fs = _frameset(rng)
    raw = bytearray(entropy_encode(fs))
    # dims live after magic+version+layout+bit_depth = 10 bytes
    raw[10:22] = (60000).to_bytes(4, "little") * 3
    with pytest.raises(InputError, match="216000000000000 elements exceeds limit 2147483648"):
        entropy_decode(bytes(raw))


def test_header_fuzz_raises_only_harness_errors():
    from vcmbench.errors import VcmError

    rng = np.random.default_rng(8)
    fs = _frameset(rng)
    blob = bytearray(entropy_encode(fs))
    for _ in range(300):
        mutated = bytearray(blob)
        for _ in range(int(rng.integers(1, 4))):
            mutated[rng.integers(0, len(mutated))] = int(rng.integers(0, 256))
        cut = int(rng.integers(0, len(mutated) + 1)) if rng.random() < 0.3 else len(mutated)
        try:
            entropy_decode(bytes(mutated[:cut]))
        except VcmError:
            pass  # any harness error is acceptable; crashes are not


def _frameset_2bit(rng, c, h, w):
    t = FeatureTensor(rng.normal(0, 2, (c, h, w)).astype(np.float32))
    z, params = normalize(t, bit_depth=2)
    return pack_temporal(quantize_2bit(z, params.z_th), quant=params)


def test_2bit_stream_roundtrip():
    rng = np.random.default_rng(6)
    fs = _frameset_2bit(rng, 4, 6, 6)
    back = entropy_decode(entropy_encode(fs))
    assert all(np.array_equal(a, b) for a, b in zip(back.frames, fs.frames))
    assert back.quant.bit_depth == 2


# 5, 18 and 315 samples leave 1, 2 and 3 samples in the last packed byte
@pytest.mark.parametrize("dims", [(1, 1, 5), (2, 3, 3), (5, 7, 9)])
def test_2bit_roundtrip_with_partial_last_byte(dims):
    fs = _frameset_2bit(np.random.default_rng(12), *dims)
    back = entropy_decode(entropy_encode(fs))
    assert all(np.array_equal(a, b) for a, b in zip(back.frames, fs.frames))


def test_every_single_bit_flip_in_2bit_payload_detected():
    raw = entropy_encode(_frameset_2bit(np.random.default_rng(11), 5, 7, 9))
    for pos in range(_header_len(raw), len(raw)):
        for bit in range(8):
            bad = bytearray(raw)
            bad[pos] ^= 1 << bit
            with pytest.raises(CorruptStream):
                entropy_decode(bytes(bad))


def test_nonzero_2bit_padding_rejected():
    # 5 samples pack into 2 bytes; the second holds sample 4 in bits 0-1
    fs = _frameset_2bit(np.random.default_rng(13), 1, 1, 5)
    raw = entropy_encode(fs)
    s = [int(v) for v in fs.frames[0].ravel()]
    coded = bytes([s[0] | s[1] << 2 | s[2] << 4 | s[3] << 6, s[4] | 1 << 2])  # padding 1
    payload = encode_bytes(coded)
    head = raw[:_header_len(raw) - 12] + struct.pack("<QI", 8 * len(payload), zlib.crc32(coded))
    with pytest.raises(CorruptStream, match="padding"):
        entropy_decode(head + payload)


def test_encode_rejects_2bit_sample_above_3():
    params = QuantParams(mean=np.zeros(1), std=np.ones(1), z_min=-1, z_max=1, bit_depth=2)
    fs = PackedFrameSet(
        frames=(np.array([[0, 1], [2, 3]], dtype=np.uint8),),
        layout="TEMPORAL",
        original_dims=(1, 2, 2),
        quant=params,
    )
    # PackedFrameSet refuses such a sample when built, so swap the frames in
    # afterwards to reach the coder's own check, which must not drop high bits
    object.__setattr__(fs, "frames", (np.array([[0, 1], [2, 4]], dtype=np.uint8),))
    with pytest.raises(InputError, match="above 3"):
        entropy_encode(fs)


def test_2bit_payload_is_packed_four_per_byte():
    rng = np.random.default_rng(14)
    c, h, w = 16, 256, 256
    params = QuantParams(mean=np.zeros(c), std=np.ones(c), z_min=-1, z_max=1, bit_depth=2)
    fs = pack_temporal(rng.integers(0, 4, (c, h, w), dtype=np.uint8), quant=params)
    # uniform 2-bit samples are incompressible beyond their packed size
    raw = entropy_encode(fs)
    assert len(raw) - _header_len(raw) <= -(-c * h * w // 4) + 64


def _payload_at(raw: bytes, dict_size: int) -> bytes:
    """raw's coded bytes, decoded with an LZMA2 dictionary of dict_size; LZMAError past it."""
    dec = lzma.LZMADecompressor(
        format=lzma.FORMAT_RAW, filters=[{"id": lzma.FILTER_LZMA2, "dict_size": dict_size}]
    )
    coded = dec.decompress(raw[_header_len(raw):])
    assert dec.eof and not dec.unused_data
    return coded


def _frameset_of(samples: np.ndarray, bit_depth: int = 8, layout: str = "TEMPORAL"):
    c = samples.shape[0]
    params = QuantParams(
        mean=np.zeros(c), std=np.ones(c), z_min=-1, z_max=1, bit_depth=bit_depth
    )
    pack = pack_temporal if layout == "TEMPORAL" else pack_spatial_tiled
    return pack(samples, quant=params)


def _tiled(rng, high, shape, reps):
    """Random samples of shape, repeated reps times along each axis."""
    return np.tile(rng.integers(0, high, shape, dtype=np.uint8), reps)


# name: (frame set, the dictionary its window rounds up to). The far-repeat
# samples repeat beyond that window, where a wider encoder would match them.
_FRAMESETS = {
    # 4 KiB frames: window 8 KiB, repeats 16 KiB back
    "8bit-far-repeats":
        (lambda rng: _frameset_of(_tiled(rng, 256, (4, 64, 64), (4, 1, 1))), 1 << 13),
    # 1 KiB coded frames: window 2 KiB (4 KiB dictionary), repeats 8 KiB back
    "2bit-far-repeats":
        (lambda rng: _frameset_of(_tiled(rng, 4, (8, 64, 64), (4, 1, 1)), bit_depth=2), 1 << 12),
    # 512-byte frame rows: window 2 x 8 rows = 8 KiB, repeats 32 rows (16 KiB) back
    "spatial-far-repeats": (
        lambda rng: _frameset_of(_tiled(rng, 256, (64, 4, 64), (1, 8, 1)), layout="SPATIAL"),
        1 << 13,
    ),
    "8bit-normal": (lambda rng: _frameset(rng, c=32, h=32, w=32, perm=True), 1 << 12),
    "2bit-normal": (lambda rng: _frameset_2bit(rng, 32, 32, 32), 1 << 12),
}


@pytest.mark.parametrize("name", sorted(_FRAMESETS))
def test_every_payload_decodes_with_its_window(name):
    # the encoder never matches farther back than its window
    build, dict_size = _FRAMESETS[name]
    raw = entropy_encode(build(np.random.default_rng(31)))
    coded = _payload_at(raw, dict_size)
    assert zlib.crc32(coded) == struct.unpack_from("<I", raw, _header_len(raw) - 4)[0]


@pytest.mark.parametrize("layout", ["TEMPORAL", "SPATIAL"])
def test_window_reaches_the_nearest_neighbour_past_4k(layout):
    # TEMPORAL: 16 KiB frames, each channel written twice in a row; SPATIAL:
    # 1 KiB frame rows, each row of a channel written twice, 8 frame rows apart
    rng = np.random.default_rng(34)
    if layout == "TEMPORAL":
        samples = np.repeat(rng.integers(0, 256, (4, 128, 128), dtype=np.uint8), 2, axis=0)
    else:
        samples = np.repeat(rng.integers(0, 256, (64, 4, 128), dtype=np.uint8), 2, axis=1)
    raw = entropy_encode(_frameset_of(samples, layout=layout))
    # half the samples are copies; a fixed 4 KiB window would code them all
    assert len(raw) - _header_len(raw) < 0.55 * samples.size


def test_stream_with_matches_beyond_its_window_still_decodes():
    # a v3 stream whose payload matches 80,000 bytes back: one random block of
    # 8 frames twice, coded by encode_bytes's default window, as earlier
    # encoders wrote every payload; these 10,000-byte frames get a 32 KiB one
    block = np.random.default_rng(32).integers(0, 256, (8, 100, 100), dtype=np.uint8)
    samples = np.concatenate([block, block])
    fs = _frameset_of(samples)
    raw = entropy_encode(fs)
    coded = samples.tobytes()  # TEMPORAL, no permutation: the samples in channel order
    payload = encode_bytes(coded)
    head = raw[:_header_len(raw) - 12] + struct.pack("<QI", 8 * len(payload), zlib.crc32(coded))
    far = head + payload
    with pytest.raises(lzma.LZMAError):  # so the payload does match beyond the window
        _payload_at(far, 1 << 15)
    back = entropy_decode(far)
    assert all(np.array_equal(a, b) for a, b in zip(back.frames, fs.frames))
