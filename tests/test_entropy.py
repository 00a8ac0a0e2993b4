import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcmbench.errors import CorruptStream
from vcmbench.featurecodec.entropy import decode_bytes, encode_bytes


def roundtrip(data: bytes) -> bytes:
    return decode_bytes(encode_bytes(data), len(data))


def test_empty_input():
    payload = encode_bytes(b"")
    assert decode_bytes(payload, 0) == b""
    assert len(payload) <= 8


def test_single_byte():
    for b in (0, 1, 127, 255):
        assert roundtrip(bytes([b])) == bytes([b])


def test_short_strings():
    for data in (b"\x00", b"\xff\xff\xff", b"abcabc", bytes(range(256))):
        assert roundtrip(data) == data


# criterion 7 holds at the smallest window and at the largest
_WINDOWS = (1 << 12, 1 << 20)


def test_all_zero_frame_compresses_below_one_percent():
    data = bytes(10_000)
    for window in _WINDOWS:
        payload = encode_bytes(data, window)
        assert len(payload) < 100  # 1% of raw
        assert decode_bytes(payload, len(data)) == data


def test_uniform_random_inflates_at_most_64_bytes():
    rng = np.random.default_rng(123)
    data = rng.integers(0, 256, 10_000, dtype=np.uint8).tobytes()
    for window in _WINDOWS:
        payload = encode_bytes(data, window)
        assert len(payload) <= len(data) + 64
        assert decode_bytes(payload, len(data)) == data


def test_uniform_random_large_frame_overhead_stays_constant():
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()
    for window in _WINDOWS:
        payload = encode_bytes(data, window)
        assert len(payload) <= len(data) + 64
        assert decode_bytes(payload, len(data)) == data


def test_skewed_histograms_compress():
    rng = np.random.default_rng(11)
    for probs, floor in (
        ((0.7, 0.1, 0.1, 0.1), 0.7),
        ((0.5, 0.5), 0.6),
        ((0.25, 0.25, 0.25, 0.25), 0.6),
    ):
        symbols = rng.choice(len(probs), size=20_000, p=probs).astype(np.uint8)
        data = symbols.tobytes()
        payload = encode_bytes(data)
        assert len(payload) < floor * len(data)
        assert decode_bytes(payload, len(data)) == data


def test_gaussian_bytes_compress_near_entropy():
    rng = np.random.default_rng(13)
    data = np.clip(rng.normal(128, 20, 50_000), 0, 255).astype(np.uint8).tobytes()
    hist = np.bincount(np.frombuffer(data, np.uint8), minlength=256)
    p = hist[hist > 0] / len(data)
    entropy_bits = float(-(p * np.log2(p)).sum())
    payload = encode_bytes(data)
    assert decode_bytes(payload, len(data)) == data
    assert len(payload) <= len(data) * (entropy_bits / 8) * 1.05 + 64


def test_mode_switch_mid_stream():
    rng = np.random.default_rng(17)
    uniform = rng.integers(0, 256, 30_000, dtype=np.uint8).tobytes()
    zeros = bytes(30_000)
    data = uniform + zeros
    payload = encode_bytes(data)
    assert decode_bytes(payload, len(data)) == data
    # the zero half must compress even after a long uniform prefix
    assert len(payload) < len(uniform) + 0.2 * len(zeros)


def test_long_skewed_stream_is_lossless():
    # long skewed stream: many literals and many repeated matches
    rng = np.random.default_rng(19)
    data = rng.choice([0, 1, 2], size=100_000, p=[0.8, 0.15, 0.05]).astype(np.uint8).tobytes()
    assert roundtrip(data) == data


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=2048))
def test_roundtrip_arbitrary_bytes(data):
    assert roundtrip(data) == data


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5000),
    st.randoms(use_true_random=False),
)
def test_roundtrip_small_alphabets(alphabet, size, rnd):
    data = bytes(rnd.randrange(alphabet) for _ in range(size))
    assert roundtrip(data) == data


def test_adversarial_patterns():
    # long runs, alternations and many tiny inputs
    rng = np.random.default_rng(99)
    patterns = [
        b"\xff" * 10000,
        bytes([0xFF, 0x00] * 5000),
        bytes([0] * 9999 + [255]),
        bytes([255] + [0] * 9999),
        np.repeat(np.arange(256, dtype=np.uint8), 64).tobytes(),
    ]
    patterns += [
        rng.integers(0, 256, int(n), dtype=np.uint8).tobytes()
        for n in rng.integers(1, 70, size=100)
    ]
    for data in patterns:
        assert roundtrip(data) == data


def test_decoder_is_deterministic():
    rng = np.random.default_rng(23)
    data = rng.integers(0, 8, 5000, dtype=np.uint8).tobytes()
    p1 = encode_bytes(data)
    p2 = encode_bytes(data)
    assert p1 == p2


def _payload():
    rng = np.random.default_rng(29)
    data = rng.integers(0, 16, 20_000, dtype=np.uint8).tobytes()
    return data, encode_bytes(data)


def test_truncated_or_extended_payload_raises():
    data, payload = _payload()
    for bad in (payload[:-1], payload[: len(payload) // 2], b"", payload + b"\x00"):
        with pytest.raises(CorruptStream):
            decode_bytes(bad, len(data))


def test_wrong_length_raises():
    data, payload = _payload()
    for n in (0, 1, len(data) - 1, len(data) + 1, 2 * len(data)):
        with pytest.raises(CorruptStream):
            decode_bytes(payload, n)


def test_flipped_payload_byte_never_passes_silently():
    # raw LZMA2 has no checksum: a flip either fails to decode or decodes
    # to other bytes (the stream container's crc32 catches the latter)
    data, payload = _payload()
    with pytest.raises(CorruptStream):
        decode_bytes(bytes([payload[0] ^ 0x80]) + payload[1:], len(data))
    for pos in range(0, len(payload), max(1, len(payload) // 64)):
        bad = bytearray(payload)
        bad[pos] ^= 0x01
        try:
            assert decode_bytes(bytes(bad), len(data)) != data
        except CorruptStream:
            pass
