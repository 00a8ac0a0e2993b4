import numpy as np
import pytest

from vcmbench.errors import BadMagic, BadParams, CorruptStream
from vcmbench.featurecodec import (
    entropy_decode,
    entropy_encode,
    normalize,
    pack_spatial_tiled,
    pack_temporal,
    quantize_8bit,
)
from vcmbench.featurecodec.stream import (
    read_stream,
    stream_from_bytes,
    write_stream,
)
from vcmbench.model import FeatureTensor, PackedFrameSet


def _frameset(rng, layout="TEMPORAL", c=6, h=5, w=4, perm=False):
    t = FeatureTensor(rng.normal(0, 1, (c, h, w)).astype(np.float32))
    z, params = normalize(t)
    samples = quantize_8bit(z, params)
    permutation = tuple(rng.permutation(c)) if perm else None
    if layout == "TEMPORAL":
        return pack_temporal(samples, permutation=permutation, quant=params)
    return pack_spatial_tiled(samples, permutation=permutation, quant=params)


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
    stream = entropy_encode(fs)
    p = tmp_path / "s.vcms"
    write_stream(stream, p)
    raw = p.read_bytes()
    assert raw[:4] == b"VCMS"
    again = read_stream(p)
    assert again.to_bytes() == raw  # container serialization is stable
    back = entropy_decode(again)
    assert all(np.array_equal(a, b) for a, b in zip(back.frames, fs.frames))


def test_stream_payload_bits_accounting():
    rng = np.random.default_rng(3)
    fs = _frameset(rng)
    stream = entropy_encode(fs)
    assert stream.payload_bits == 8 * len(stream.payload)
    assert stream.payload_bits > 0


def test_corrupt_payload_detected(tmp_path):
    rng = np.random.default_rng(4)
    fs = _frameset(rng, c=8, h=16, w=16)
    stream = entropy_encode(fs)
    raw = bytearray(stream.to_bytes())
    header_len = len(raw) - len(stream.payload)
    raw[header_len + len(stream.payload) // 2] ^= 0xFF  # flip a mid-payload byte
    corrupted = stream_from_bytes(bytes(raw))
    with pytest.raises(CorruptStream):
        entropy_decode(corrupted)


def test_every_single_bit_payload_flip_detected():
    rng = np.random.default_rng(6)
    stream = entropy_encode(_frameset(rng, c=4, h=6, w=6))
    raw = stream.to_bytes()
    header_len = len(raw) - len(stream.payload)
    for pos in range(header_len, len(raw)):
        for bit in (0x01, 0x80):
            bad = bytearray(raw)
            bad[pos] ^= bit
            with pytest.raises(CorruptStream):
                entropy_decode(stream_from_bytes(bytes(bad)))


def test_version_1_stream_unsupported():
    rng = np.random.default_rng(9)
    raw = bytearray(entropy_encode(_frameset(rng)).to_bytes())
    raw[4:8] = (1).to_bytes(4, "little")
    with pytest.raises(BadMagic, match="unsupported version 1"):
        stream_from_bytes(bytes(raw))


def test_truncated_payload_detected():
    rng = np.random.default_rng(5)
    fs = _frameset(rng, c=8, h=16, w=16)
    stream = entropy_encode(fs)
    with pytest.raises(CorruptStream):
        stream_from_bytes(stream.to_bytes()[:-10])


def test_bad_magic_rejected():
    with pytest.raises(BadMagic):
        stream_from_bytes(b"XXXX" + bytes(64))


def test_encode_requires_quant_params():
    fs = PackedFrameSet(
        frames=(np.zeros((2, 2), dtype=np.uint8),) * 3,
        layout="TEMPORAL",
        original_dims=(3, 2, 2),
    )
    with pytest.raises(BadParams):
        entropy_encode(fs)


def test_overflowing_dims_rejected_before_decode():
    rng = np.random.default_rng(7)
    fs = _frameset(rng)
    raw = bytearray(entropy_encode(fs).to_bytes())
    # dims live after magic+version+layout+bit_depth = 14 bytes
    raw[14:26] = (60000).to_bytes(4, "little") * 3
    from vcmbench.errors import DimOverflow

    with pytest.raises(DimOverflow):
        stream_from_bytes(bytes(raw))


def test_header_fuzz_raises_only_harness_errors():
    from vcmbench.errors import VcmError

    rng = np.random.default_rng(8)
    fs = _frameset(rng)
    blob = bytearray(entropy_encode(fs).to_bytes())
    for _ in range(300):
        mutated = bytearray(blob)
        for _ in range(int(rng.integers(1, 4))):
            mutated[rng.integers(0, len(mutated))] = int(rng.integers(0, 256))
        cut = int(rng.integers(0, len(mutated) + 1)) if rng.random() < 0.3 else len(mutated)
        try:
            entropy_decode(stream_from_bytes(bytes(mutated[:cut])))
        except VcmError:
            pass  # any harness error is acceptable; crashes are not


def test_2bit_stream_roundtrip():
    rng = np.random.default_rng(6)
    t = FeatureTensor(rng.normal(0, 2, (4, 6, 6)).astype(np.float32))
    from vcmbench.featurecodec import quantize_2bit

    z, params = normalize(t, bit_depth=2)
    samples = quantize_2bit(z, params.z_th)
    fs = pack_temporal(samples, quant=params)
    back = entropy_decode(entropy_encode(fs))
    assert all(np.array_equal(a, b) for a, b in zip(back.frames, fs.frames))
    assert back.quant.bit_depth == 2
