"""Coded-feature-stream container ("VCMS").

Little-endian layout:

    magic "VCMS" | version u32 | layout u8 | bit_depth u8 | C,h,w u32
    | mean f32*C | std f32*C | z_min,z_max,z_th f32
    | perm_flag u8 [| permutation u16*C]
    | payload_bits u64 | crc32 u32 | payload bytes

The coded bytes are the frame samples in frame order, row-major. At
bit_depth 8 each sample is one byte. At bit_depth 2 the samples are
packed four per byte: sample i sits in bits 2*(i % 4) of byte i // 4,
and the unused bits of the last byte are zero. The payload is those
coded bytes as one raw LZMA2 stream by entropy.encode_bytes; the decoder
rebuilds the coder settings from the coded length the header implies.
A payload whose length disagrees with payload_bits is rejected when the
stream is read. crc32 covers the coded bytes (the padding bits
included), so a corrupt payload is detected at decode time, and a
2-bit stream whose padding bits are not zero is rejected. payload_bits
is the figure rate accounting uses.

Version 3 packs 2-bit samples; its 8-bit payloads are those of version
2. Streams of versions 1 (the earlier adaptive range coder) and 2 (one
byte per 2-bit sample) are rejected as unsupported: re-encode them from
their tensors. Payload bytes depend on the local liblzma encoder, so
the same tensor may code to other (equally decodable) bytes on another
machine.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import CorruptStream, InputError
from ..model import (
    LAYOUT_MULTISCALE,
    LAYOUT_SPATIAL_TILED,
    LAYOUT_TEMPORAL,
    PackedFrameSet,
    QuantParams,
    check_header_dims,
    frame_shapes,
)
from .entropy import decode_bytes, encode_bytes
from .packing import frame_set

STREAM_MAGIC = b"VCMS"
STREAM_VERSION = 3

_LAYOUT_TAGS = {LAYOUT_SPATIAL_TILED: 0, LAYOUT_MULTISCALE: 1, LAYOUT_TEMPORAL: 2}
_TAG_LAYOUTS = {v: k for k, v in _LAYOUT_TAGS.items()}
_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)


@dataclass(frozen=True)
class CodedFeatureStream:
    layout: str
    dims: tuple[int, int, int]
    quant: QuantParams
    channel_permutation: tuple[int, ...] | None
    crc32: int
    payload: bytes

    @property
    def payload_bits(self) -> int:
        return 8 * len(self.payload)

    def to_bytes(self) -> bytes:
        c, h, w = self.dims
        q = self.quant
        parts = [
            STREAM_MAGIC,
            struct.pack("<I", STREAM_VERSION),
            struct.pack("<BB", _LAYOUT_TAGS[self.layout], q.bit_depth),
            struct.pack("<3I", c, h, w),
            np.asarray(q.mean, dtype="<f4").tobytes(),
            np.asarray(q.std, dtype="<f4").tobytes(),
            struct.pack("<3f", q.z_min, q.z_max, q.z_th),
        ]
        if self.channel_permutation is not None:
            parts.append(struct.pack("<B", 1))
            parts.append(struct.pack(f"<{c}H", *self.channel_permutation))
        else:
            parts.append(struct.pack("<B", 0))
        parts.append(struct.pack("<QI", self.payload_bits, self.crc32))
        parts.append(self.payload)
        return b"".join(parts)


def _pack_2bit(samples: np.ndarray) -> bytes:
    """Samples in 0..3, four per byte: sample i in bits 2*(i % 4), zero-padded."""
    padded = np.zeros(-(-samples.size // 4) * 4, dtype=np.uint8)
    padded[: samples.size] = samples
    quads = padded.reshape(-1, 4)
    return (quads[:, 0] | quads[:, 1] << 2 | quads[:, 2] << 4 | quads[:, 3] << 6).tobytes()


def _unpack_2bit(coded: bytes, n: int) -> bytes:
    """Invert _pack_2bit for n samples; CorruptStream on non-zero padding."""
    quads = np.frombuffer(coded, dtype=np.uint8)[:, None] >> _SHIFTS & 3
    samples = quads.ravel()
    if samples[n:].any():
        raise CorruptStream("non-zero padding bits after the last 2-bit sample")
    return samples[:n].tobytes()


def entropy_encode(fs: PackedFrameSet) -> CodedFeatureStream:
    """Entropy-code a frame set into a self-describing stream."""
    if fs.quant is None:
        raise InputError("frame set carries no quant params; the stream needs them")
    samples = np.concatenate([f.ravel() for f in fs.frames])
    if fs.quant.bit_depth == 2:
        if samples.max() > 3:
            raise InputError("a 2-bit frame set holds a sample above 3")
        coded = _pack_2bit(samples)
    else:
        coded = samples.tobytes()
    return CodedFeatureStream(
        layout=fs.layout,
        dims=fs.original_dims,
        quant=fs.quant,
        channel_permutation=fs.channel_permutation,
        crc32=zlib.crc32(coded),
        payload=encode_bytes(coded),
    )


def entropy_decode(stream: CodedFeatureStream) -> PackedFrameSet:
    """Decode a stream back to the exact frame set it was built from."""
    n = sum(fh * fw for fh, fw in frame_shapes(stream.layout, stream.dims))
    two_bit = stream.quant.bit_depth == 2
    coded = decode_bytes(stream.payload, -(-n // 4) if two_bit else n)
    if zlib.crc32(coded) != stream.crc32:
        raise CorruptStream("decoded samples fail the checksum")
    raw = _unpack_2bit(coded, n) if two_bit else coded
    return frame_set(raw, stream.layout, stream.dims, stream.channel_permutation, stream.quant)


def read_stream(path) -> CodedFeatureStream:
    return stream_from_bytes(Path(path).read_bytes(), origin=str(path))


def write_stream(stream: CodedFeatureStream, path) -> None:
    Path(path).write_bytes(stream.to_bytes())


def stream_from_bytes(raw: bytes, origin: str = "<bytes>") -> CodedFeatureStream:
    if len(raw) < 4 or raw[:4] != STREAM_MAGIC:
        raise InputError(f"{origin}: not a coded-feature stream (bad magic)")
    off = 4

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if len(raw) < off + size:
            raise InputError(f"{origin}: truncated at offset {off}")
        vals = struct.unpack_from(fmt, raw, off)
        off += size
        return vals

    (version,) = take("<I")
    if version != STREAM_VERSION:
        raise InputError(f"{origin}: unsupported version {version}")
    tag, bit_depth = take("<BB")
    if tag not in _TAG_LAYOUTS:
        raise InputError(f"{origin}: unknown layout tag {tag}")
    c, h, w = take("<3I")
    check_header_dims(c, h, w, origin)
    mean = np.array(take(f"<{c}f"), dtype=np.float32)
    std = np.array(take(f"<{c}f"), dtype=np.float32)
    z_min, z_max, z_th = take("<3f")
    (perm_flag,) = take("<B")
    perm = tuple(take(f"<{c}H")) if perm_flag else None
    payload_bits, crc = take("<QI")
    payload = raw[off:]
    if payload_bits != 8 * len(payload):
        raise CorruptStream(
            f"{origin}: payload holds {8 * len(payload)} bits, header claims {payload_bits}"
        )
    quant = QuantParams(
        mean=mean, std=std, z_min=z_min, z_max=z_max, z_th=z_th, bit_depth=bit_depth
    )
    return CodedFeatureStream(
        layout=_TAG_LAYOUTS[tag],
        dims=(c, h, w),
        quant=quant,
        channel_permutation=perm,
        crc32=crc,
        payload=payload,
    )
